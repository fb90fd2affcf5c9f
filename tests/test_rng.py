"""The pure-Python ray stream against numpy's default_rng, its reference."""

import math
import types

import numpy as np
import pytest

from dfindex import _rng, cli

# one-word, multi-word and more-than-four-word entropy ([seed, i] with a
# seed of 4 words is 5 words)
SEEDS = (0, 1, 7, 12345, 2 ** 32 - 1, 2 ** 32, 2 ** 40, 2 ** 64 + 7,
         2 ** 100 + 3, 2 ** 200 + 1)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("seed", SEEDS)
def test_ray_normals_match_default_rng_bit_for_bit(seed):
    # 10 seeds x 1000 rays = 10 000 (seed, i) pairs
    size = 6 if seed % 2 else 4
    want = np.array([np.random.default_rng([seed, i]).normal(size=size)
                     for i in range(1000)])
    assert np.array_equal(_bits(_rng.normal(seed, 1000, size)), _bits(want))


def test_long_stream_reaches_both_slow_paths_of_the_ziggurat(monkeypatch):
    # math.log1p runs only in the tail beyond r, math.exp only in a wedge
    calls = {"exp": 0, "log1p": 0}

    def counted(name):
        def fn(x):
            calls[name] += 1
            return getattr(math, name)(x)
        return fn

    monkeypatch.setattr(_rng, "math", types.SimpleNamespace(
        exp=counted("exp"), log1p=counted("log1p")))
    got = _rng.normal(2024, 1, 200_000)[0]
    want = np.random.default_rng([2024, 0]).normal(size=200_000)
    assert np.array_equal(_bits(got), _bits(want))
    assert calls["exp"] > 100 and calls["log1p"] > 10
    assert np.abs(got).max() > _rng._ZIG_R  # only the tail goes past r


def test_pinned_values():
    assert _rng.normal(0, 1, 4)[0].tolist() == [
        0.1257302210933933, -0.1321048632913019, 0.6404226504432821,
        0.10490011715303971]
    assert _rng.normal(2 ** 64 + 7, 4, 2)[3].tolist() == [
        -0.7149965613220075, 1.2113198248484227]


def test_negative_seed_is_an_input_error(capsys):
    assert cli.main(["analyze", "--t", "0.05", "--seed", "-1"]) == 2
    assert "error: expected non-negative integer" in capsys.readouterr().err
