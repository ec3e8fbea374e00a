"""Unit tests for multiplicative/distribution classes and class counting."""

import collections
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nflab import (
    Permutation,
    RegisterShape,
    ResourceLimitError,
    ValidationError,
    bin_group_spec,
    collapse_witness,
    compose,
    count_classes,
    build_input_state,
    distribution_class_partition,
    double_coset_oracle,
    float_state,
    identity,
    invert,
    make_collision_state,
    multiplicity_key,
    output_distribution,
    random_permutation,
    rational_state,
    same_multiplicative_class,
    stars_and_bars_count,
    transposition,
    value_group_spec,
)
from nflab.equivalence import _merge_distributions

S1 = RegisterShape(1, 1, 1, 1)
FIXTURE = rational_state([Fraction(16, 25), Fraction(9, 25)])


class TestGroupSpecs:
    def test_orders_at_s1(self):
        # V permutes within value classes of sizes (2, 2, 4): 2!·2!·4! = 96.
        # W permutes within two bins of size 4: (4!)^2 = 576.
        assert value_group_spec(S1).order == 96
        assert bin_group_spec(S1).order == 576

    def test_membership(self):
        v = value_group_spec(S1)
        w = bin_group_spec(S1)
        assert v.contains(transposition(0, 1, 8))  # within value class 0
        assert not v.contains(transposition(0, 2, 8))  # crosses classes 0/1
        assert w.contains(transposition(0, 3, 8))  # within bin 0
        assert not w.contains(transposition(3, 4, 8))  # crosses bins

    def test_elements_enumeration_matches_order(self):
        v = value_group_spec(S1)
        elems = list(v.elements())
        assert len(elems) == v.order
        assert len({e.image for e in elems}) == v.order

    def test_random_element_is_member(self):
        rng = random.Random(0)
        w = bin_group_spec(S1)
        for _ in range(50):
            assert w.contains(w.random_element(rng))


class TestMultiplicityKey:
    def test_identity_key(self):
        # Bin 0 holds both copies of each coefficient; bin 1 is all zero class.
        assert multiplicity_key(identity(8), S1) == ((2, 2, 0), (0, 0, 4))

    def test_swap_key(self):
        assert multiplicity_key(transposition(0, 4, 8), S1) == ((1, 2, 1), (1, 0, 3))

    def test_key_keeps_empty_last_cell(self):
        # The zero class fills bin 0, so the last cell (bin 1, zero class) is 0.
        swap_bins = Permutation((4, 5, 6, 7, 0, 1, 2, 3))
        assert multiplicity_key(swap_bins, S1) == ((0, 0, 4), (2, 2, 0))

    def test_key_invariant_under_double_coset_moves(self):
        rng = random.Random(9)
        v = value_group_spec(S1)
        w = bin_group_spec(S1)
        for _ in range(30):
            p = random_permutation(8, rng)
            moved = compose(w.random_element(rng), compose(p, v.random_element(rng)))
            assert multiplicity_key(moved, S1) == multiplicity_key(p, S1)

    def test_oracle_agrees_with_key(self):
        rng = random.Random(21)
        for _ in range(25):
            p = random_permutation(8, rng)
            s = random_permutation(8, rng)
            assert double_coset_oracle(p, s, S1) == same_multiplicative_class(p, s, S1)

    def test_oracle_positive_case(self):
        rng = random.Random(4)
        v = value_group_spec(S1)
        w = bin_group_spec(S1)
        p = random_permutation(8, rng)
        moved = compose(w.random_element(rng), compose(p, v.random_element(rng)))
        assert double_coset_oracle(p, moved, S1)


class TestClassCounting:
    def test_contingency_counts(self):
        assert count_classes(S1) == 9
        assert count_classes(RegisterShape(0, 0, 3, 1)) == 70
        assert count_classes(RegisterShape(1, 1, 0, 1)) == 3
        assert count_classes(RegisterShape(2, 2, 0, 2)) == 35

    def test_stars_and_bars_formula(self):
        assert stars_and_bars_count(1) == 3
        assert stars_and_bars_count(2) == 35
        assert stars_and_bars_count(3) == 6435

    def test_formula_range_guard(self):
        with pytest.raises(ValueError):
            stars_and_bars_count(0)


class TestDistributionPartition:
    def test_exhaustive_fixture_reaches_generic_count(self):
        report = distribution_class_partition(FIXTURE, S1)
        assert report.num_classes == 9
        assert sum(info.count for info in report.classes.values()) == 40320
        assert len(report.labels) == 40320

    def test_uniform_state_collapses(self):
        uniform = rational_state([Fraction(1, 2), Fraction(1, 2)])
        report = distribution_class_partition(uniform, S1)
        assert report.num_classes < 9

    def test_float_backend_matches_rational(self):
        rep_r = distribution_class_partition(FIXTURE, S1)
        rep_f = distribution_class_partition(float_state([0.64, 0.36]), S1)
        assert rep_f.num_classes == rep_r.num_classes
        assert np.array_equal(rep_f.labels, rep_r.labels)

    def test_sampled_mode(self):
        report = distribution_class_partition(
            FIXTURE, S1, mode="sampled", samples=200, seed=3
        )
        assert report.labels is None
        assert 1 < report.num_classes <= 9

    @pytest.mark.parametrize(
        "state, shape",
        [
            (FIXTURE, S1),
            (rational_state([Fraction(1, 2), Fraction(1, 2)]), S1),
            make_collision_state(),
            (
                rational_state([Fraction(k, 10) for k in (1, 2, 3, 4)]),
                RegisterShape(0, 0, 2, 1),
            ),
            (FIXTURE, RegisterShape(0, 0, 1, 1)),
        ],
        ids=["fixture", "uniform", "collision", "n4", "n2"],
    )
    def test_labels_match_exact_distribution_scan(self, state, shape):
        # Oracle: group all N! permutations by their exact distribution,
        # numbering classes by first appearance in lexicographic order.
        # Each class is keyed by its distribution, its representative is its
        # first permutation and its count is its number of permutations.
        inp = build_input_state(shape, state)
        images = list(itertools.permutations(range(shape.N)))
        order = {}
        labels = tuple(
            order.setdefault(
                output_distribution(inp, Permutation(image)).probabilities,
                len(order),
            )
            for image in images
        )
        firsts = {}
        for image, label in zip(images, labels):
            firsts.setdefault(label, image)
        report = distribution_class_partition(state, shape)
        assert not report.labels.flags.writeable
        assert np.issubdtype(report.labels.dtype, np.integer)
        assert len(report.labels) == math.factorial(shape.N)
        assert np.array_equal(report.labels, labels)
        assert list(report.classes) == list(order)
        infos = list(report.classes.values())
        assert [info.representative.image for info in infos] == [firsts[c] for c in order.values()]
        assert [info.count for info in infos] == [labels.count(c) for c in order.values()]

    @pytest.mark.parametrize(
        "shape", [RegisterShape(0, 0, 1, 1), S1], ids=["n2", "n8"]
    )
    def test_sampled_classes_match_replayed_draws(self, shape):
        # Oracle: replay the same shuffles, group the draws by exact
        # distribution and number the classes by first appearance. N = 2
        # keys each draw as one 8-byte integer, N = 8 as a 32-byte string.
        inp = build_input_state(shape, FIXTURE)
        rng = random.Random(17)
        draw = list(range(shape.N))
        order, counts, firsts = {}, collections.Counter(), {}
        for _ in range(500):
            rng.shuffle(draw)
            dist = output_distribution(inp, Permutation(tuple(draw))).probabilities
            label = order.setdefault(dist, len(order))
            counts[label] += 1
            firsts.setdefault(label, tuple(draw))
        report = distribution_class_partition(
            FIXTURE, shape, mode="sampled", samples=500, seed=17
        )
        assert report.labels is None
        assert list(report.classes) == list(order)
        infos = list(report.classes.values())
        assert [info.count for info in infos] == [counts[c] for c in order.values()]
        assert [info.representative.image for info in infos] == [firsts[c] for c in order.values()]

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([RegisterShape(0, 0, 2, 1), RegisterShape(1, 0, 1, 1)]),
        st.lists(st.integers(min_value=0, max_value=25), min_size=4, max_size=4),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_rational_and_float_states_agree(self, shape, weights, seed):
        weights = weights[: shape.resource_dim]
        total = sum(weights)
        assume(total > 0)
        exact = rational_state([Fraction(w, total) for w in weights])
        rounded = float_state([w / total for w in weights])
        rep_r = distribution_class_partition(exact, shape)
        rep_f = distribution_class_partition(rounded, shape)
        assert np.array_equal(rep_f.labels, rep_r.labels)
        sampled = [
            distribution_class_partition(
                state, shape, mode="sampled", samples=30, seed=seed
            )
            for state in (exact, rounded)
        ]
        assert [info.count for info in sampled[0].classes.values()] == [
            info.count for info in sampled[1].classes.values()
        ]

    def test_exhaustive_guard(self):
        big = RegisterShape(2, 1, 1, 1)
        with pytest.raises(ResourceLimitError):
            distribution_class_partition(rational_state([Fraction(1, 2)] * 2), big)


class TestCollapseWitness:
    SHAPE = RegisterShape(1, 0, 2, 1)
    DEGENERATE = rational_state(
        [Fraction(3, 10), Fraction(3, 10), Fraction(3, 20), Fraction(1, 4)]
    )
    DISTINCT = rational_state(
        [Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)]
    )

    def test_witness_pair_separates_states(self):
        p, s = collapse_witness(self.SHAPE, 1, 2)
        assert not same_multiplicative_class(p, s, self.SHAPE)
        deg = build_input_state(self.SHAPE, self.DEGENERATE)
        dis = build_input_state(self.SHAPE, self.DISTINCT)
        assert output_distribution(deg, p) == output_distribution(deg, s)
        assert output_distribution(dis, p) != output_distribution(dis, s)

    def test_witness_construction_is_three_transpositions(self):
        p, s = collapse_witness(self.SHAPE, 1, 2)
        # S differs from P by exactly the extra swap T(i*-1, j*-1).
        diff = compose(invert(p), s)
        moved = [k for k in range(8) if diff(k) != k]
        assert len(moved) == 2

    def test_collision_state_collapses_below_generic(self):
        state, shape = make_collision_state()
        report = distribution_class_partition(state, shape)
        assert report.num_classes < count_classes(shape)


class TestMergeDistributions:
    def test_grouping_does_not_depend_on_order(self):
        keys = [
            (0.5, 0.3, 0.2),
            (0.5 + 2e-12, 0.3, 0.2 - 2e-12),
            (0.5 + 1e-12, 0.1, 0.4),
        ]
        for perm in itertools.permutations(keys):
            merged = dict(zip(perm, _merge_distributions(list(perm), 1e-9)))
            assert merged[keys[0]] == merged[keys[1]] == keys[0]
            assert merged[keys[2]] == keys[2]

    def test_non_transitive_chain_raises(self):
        chain = [
            (0.5, 0.5),
            (0.5 + 0.6e-9, 0.5 - 0.6e-9),
            (0.5 + 1.2e-9, 0.5 - 1.2e-9),
        ]
        with pytest.raises(ValidationError):
            _merge_distributions(chain, 1e-9)
