"""Unit tests for Haar sampling and (strong) distinctness checks."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nflab import (
    FastVerdict,
    RegisterShape,
    ResourceLimitError,
    float_state,
    is_distinct,
    is_strongly_distinct_fast,
    make_collision_state,
    rational_state,
    sample_haar_qr,
    sample_haar_rayleigh,
    strong_distinct_oracle,
)

S1 = RegisterShape(1, 1, 1, 1)
PURE = RegisterShape(0, 0, 3, 1)


class TestSamplers:
    def test_qr_is_normalized_and_deterministic(self):
        a = sample_haar_qr(3, seed=17)
        b = sample_haar_qr(3, seed=17)
        assert a.squared_magnitudes == b.squared_magnitudes
        assert math.isclose(sum(a.squared_magnitudes), 1.0, abs_tol=1e-12)
        assert len(a.squared_magnitudes) == 8

    def test_rayleigh_is_normalized_and_deterministic(self):
        a = sample_haar_rayleigh(3, seed=17)
        b = sample_haar_rayleigh(3, seed=17)
        assert a.squared_magnitudes == b.squared_magnitudes
        assert math.isclose(sum(a.squared_magnitudes), 1.0, abs_tol=1e-12)

    def test_different_seeds_differ(self):
        assert (
            sample_haar_qr(2, seed=1).squared_magnitudes
            != sample_haar_qr(2, seed=2).squared_magnitudes
        )

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError):
            sample_haar_qr(13, seed=0)
        with pytest.raises(ResourceLimitError):
            sample_haar_rayleigh(13, seed=0)

    def test_qr_marginals_are_unbiased(self):
        # Mean squared magnitude of each coordinate should be 2^-nq = 1/4.
        samples = np.array(
            [sample_haar_qr(2, seed=s).squared_magnitudes for s in range(400)]
        )
        assert np.all(np.abs(samples.mean(axis=0) - 0.25) < 0.03)


class TestDistinct:
    def test_fixture_is_distinct(self):
        assert is_distinct(rational_state([Fraction(16, 25), Fraction(9, 25)]), tolerance=0)

    def test_repeated_value_is_not_distinct(self):
        assert not is_distinct(rational_state([Fraction(1, 4)] * 4), tolerance=0)

    def test_float_tolerance(self):
        near = 0.25 - 5e-13
        assert not is_distinct(
            float_state([0.25, near, 0.4, 0.1 + 5e-13]), tolerance=1e-12
        )
        assert is_distinct(float_state([0.6, 0.3, 0.09, 0.01]), tolerance=1e-12)


class TestStrongDistinct:
    def test_fast_path_yes_on_generic_state(self):
        state = sample_haar_qr(1, seed=5)
        assert is_strongly_distinct_fast(state, S1) is FastVerdict.YES
        assert strong_distinct_oracle(state, S1)

    def test_fast_path_never_contradicts_oracle(self):
        for seed in range(20):
            state = sample_haar_qr(3, seed=seed)
            fast = is_strongly_distinct_fast(state, PURE)
            if fast is FastVerdict.YES:
                assert strong_distinct_oracle(state, PURE)

    def test_collision_fixture_fools_distinct_but_not_oracle(self):
        # Pairwise-distinct values engineered so two different partitions
        # share a block-sum multiset: 1 + 4 + 7 = 12 = 2 + 3 + 7, etc.
        state, shape = make_collision_state()
        assert is_distinct(state, tolerance=0)
        assert not strong_distinct_oracle(state, shape)
        assert is_strongly_distinct_fast(state, shape) is not FastVerdict.YES

    def test_uniform_state_fails_oracle(self):
        uniform = rational_state([Fraction(1, 2), Fraction(1, 2)])
        assert not strong_distinct_oracle(uniform, S1)

    def test_oracle_compares_pairs_that_sort_apart(self):
        # Each state has two pairings of its 8 values into 4 blocks whose
        # block sums are all within 2e-3, yet sort far apart, so comparing
        # only sorted neighbours misses them.
        shape = RegisterShape(0, 0, 3, 2)
        rng = random.Random(1)
        draws = []
        for _ in range(59):
            weights = [rng.random() for _ in range(8)]
            draws.append([w / sum(weights) for w in weights])
        for k in (29, 54, 58):
            state = float_state(draws[k])
            q = state.squared_magnitudes
            # Brute force over all 105 pairings of the eight values.
            sums = {
                tuple(sorted(q[a] + q[b] for a, b in pairing))
                for pairing in _pairings(range(8))
            }
            assert any(
                s != t and all(abs(x - y) <= 2e-3 for x, y in zip(s, t))
                for s, t in itertools.combinations(sums, 2)
            )
            assert not strong_distinct_oracle(state, shape, tolerance=2e-3)


def _pairings(items):
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        for tail in _pairings(rest[:i] + rest[i + 1:]):
            yield ((first, partner),) + tail
