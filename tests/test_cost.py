"""Unit tests for cost vectors, the reversible compiler, and preparation routines."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nflab import (
    Aggregator,
    ShapeError,
    CostVector,
    GateList,
    Permutation,
    RegisterShape,
    TRANSPOSITION_MODEL,
    ValidationError,
    aggregate_cost,
    aggregate_cost_samp_alg,
    build_tilde_p,
    compile_permutation,
    compose,
    count_classes,
    distribution_class_partition,
    gate_list_from_text,
    identity,
    make_gate_count_model,
    output_distribution,
    build_input_state,
    prepare_stars_and_bars,
    random_permutation,
    random_stars_and_bars_target,
    rational_state,
    sample_haar_qr,
    scalar_cost,
    scaling_experiment,
    secondary_class_key,
    tilde_cost,
    transposition,
    transposition_count_cost,
    transposition_sequence,
)
from nflab.core import OutcomeDistribution
from nflab.cost import cycles

S1 = RegisterShape(1, 1, 1, 1)
FIXTURE = rational_state([Fraction(16, 25), Fraction(9, 25)])


class TestCostVector:
    def test_lexicographic_order(self):
        a = CostVector(("t",), (2.0,))
        b = CostVector(("t",), (3.0,))
        assert a < b
        assert max([a, b]) == b

    def test_within_budget_is_componentwise(self):
        v = CostVector(("g",), (5.0,))
        assert v.within((5.0,))
        assert not v.within((4.9,))

    def test_component_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            CostVector(("a",), (1.0,)) < CostVector(("b",), (1.0,))

    def test_add(self):
        a = scalar_cost("t", 2.0)
        assert a.add(scalar_cost("t", 3.0)).values == (5.0,)


class TestTranspositionCost:
    def test_identity_costs_zero(self):
        assert transposition_count_cost(identity(8)).values == (0,)

    def test_single_swap_costs_one(self):
        assert transposition_count_cost(transposition(2, 5, 8)).values == (1,)

    def test_cycle_costs_length_minus_one(self):
        p = Permutation((1, 2, 3, 0))  # one 4-cycle
        assert transposition_count_cost(p).values == (3,)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_sequence_reconstructs_permutation(self, seed):
        rng = random.Random(seed)
        p = random_permutation(8, rng)
        out = identity(8)
        for a, b in transposition_sequence(p):
            out = compose(transposition(a, b, 8), out)
        assert out.image == p.image
        assert len(transposition_sequence(p)) == transposition_count_cost(p).values[0]


def _orbit_count(image):
    """Number of orbits of a permutation, found with sets of visited points."""
    unvisited = set(range(len(image)))
    count = 0
    while unvisited:
        orbit = {unvisited.pop()}
        frontier = set(orbit)
        while frontier:
            frontier = {image[k] for k in frontier} - orbit
            orbit |= frontier
        unvisited -= orbit
        count += 1
    return count


class TestCycleWalk:
    # References over all of S_8 (and S_4 for the two-bit compiler) for the
    # walk that the cost models and the compiler share.
    def test_cycles_partition_points_and_start_at_least_point(self):
        for image in itertools.permutations(range(8)):
            cs = cycles(Permutation(image))
            assert sorted(k for cyc in cs for k in cyc) == list(range(8))
            assert all(cyc[0] == min(cyc) for cyc in cs)
            starts = [cyc[0] for cyc in cs]
            assert starts == sorted(set(starts))
            for cyc in cs:
                assert [image[k] for k in cyc] == cyc[1:] + cyc[:1]

    def test_transposition_cost_is_n_minus_orbit_count(self):
        for image in itertools.permutations(range(8)):
            p = Permutation(image)
            assert transposition_count_cost(p).values == (8 - _orbit_count(image),)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gate_model_counts_compiled_gates(self, n):
        model = make_gate_count_model(n)
        for image in itertools.permutations(range(2 ** n)):
            p = Permutation(image)
            assert model(p).values[0] == len(compile_permutation(p, n).gates)


class TestAggregator:
    def test_average(self):
        agg = Aggregator("average")
        vs = [scalar_cost("t", v) for v in (0, 1, 1, 2, 2, 2, 3, 3, 4)]
        assert agg(vs).values == (2.0,)

    def test_max(self):
        agg = Aggregator("max")
        vs = [scalar_cost("t", v) for v in (0, 1, 4, 2)]
        assert agg(vs).values == (4,)

    def test_budget_counts_classes_within_threshold(self):
        agg = Aggregator("budget", budget=(1.0,))
        vs = [scalar_cost("t", v) for v in (0, 1, 1, 2, 2, 2, 3, 3, 4)]
        # Three classes cost at most 1; stored negated so cheaper is larger.
        assert agg(vs).values == (-3,)

    def test_permutation_symmetry(self):
        rng = random.Random(2)
        vs = [scalar_cost("t", rng.randint(0, 9)) for _ in range(12)]
        shuffled = vs[:]
        rng.shuffle(shuffled)
        for agg in (Aggregator("average"), Aggregator("max"), Aggregator("budget", budget=(3.0,))):
            assert agg(vs) == agg(shuffled)

    def test_budget_requires_threshold(self):
        with pytest.raises(ValidationError):
            Aggregator("budget")


class TestCompiler:
    def test_gate_text_round_trip(self):
        gl = compile_permutation(transposition(0, 3, 8), 3)
        text = gl.to_text()
        assert gate_list_from_text(text, gl.n).gates == gl.gates

    def test_serialization_format(self):
        gl = compile_permutation(transposition(0, 1, 2), 1)
        for line in gl.to_text().splitlines():
            op = line.split()
            assert op[0] in ("X", "CCX")
            assert all(tok.isdigit() for tok in op[1:])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_compiled_circuit_realizes_permutation(self, n, seed):
        p = random_permutation(2 ** n, random.Random(seed))
        assert compile_permutation(p, n).simulate().image == p.image

    def test_gate_count_grows_linearly(self):
        # One transposition costs O(n) gates: check the per-n worst case
        # stays under an explicit linear envelope.
        rng = random.Random(0)
        for n in range(3, 9):
            worst = 0
            for _ in range(10):
                a, b = rng.sample(range(2 ** n), 2)
                worst = max(worst, len(compile_permutation(transposition(a, b, 2 ** n), n).gates))
            assert worst <= 12 * n

    def test_ancilla_restoration_enforced(self):
        # A bare CCX targeting the ancilla line leaves it dirty.
        bad = GateList(1, (("X", 1),))
        with pytest.raises(ValidationError):
            bad.simulate()


class TestAggregateCost:
    def test_per_class_minima_at_s1(self):
        partition = distribution_class_partition(FIXTURE, S1)
        [result] = aggregate_cost([partition], TRANSPOSITION_MODEL, [Aggregator("average")])
        minima = sorted(v.values[0] for v in result.per_class.values())
        assert minima == [0, 1, 1, 2, 2, 2, 3, 3, 4]
        assert result.aggregates["average"].values == (2.0,)

    def test_aggregator_names_must_be_unique(self):
        partition = distribution_class_partition(FIXTURE, S1)
        budgets = [Aggregator("budget", (1.0,)), Aggregator("budget", (3.0,))]
        with pytest.raises(ValidationError):
            aggregate_cost([partition], TRANSPOSITION_MODEL, budgets)

    def test_minimizers_are_members_with_minimal_cost(self):
        # Oracle: group all N! permutations by their exact distribution under
        # each state and take each group's minimum cost and its
        # lexicographically first minimizer, independently of the partitions'
        # labels. The two states have different partitions (M = 9 and M = 5)
        # and share one pass, so a minimum leaking between them shows.
        states = [FIXTURE, rational_state([Fraction(1, 2), Fraction(1, 2)])]
        perms = [Permutation(image) for image in itertools.permutations(range(S1.N))]
        keys = []
        for state in states:
            inp = build_input_state(S1, state)
            keys.append([output_distribution(inp, p).probabilities for p in perms])
        partitions = [distribution_class_partition(state, S1) for state in states]
        assert [part.num_classes for part in partitions] == [9, 5]
        for model in (TRANSPOSITION_MODEL, make_gate_count_model(S1.n)):
            costs = [model(p) for p in perms]
            results = aggregate_cost(partitions, model, [Aggregator("max")])
            assert len(results) == len(states)
            for state_keys, result in zip(keys, results):
                group_minima = {}
                for key, cost, p in zip(state_keys, costs, perms):
                    if key not in group_minima or cost < group_minima[key][0]:
                        group_minima[key] = (cost, p)
                assert result.per_class == {k: c for k, (c, _) in group_minima.items()}
                assert result.minimizers == {k: p for k, (_, p) in group_minima.items()}

    def test_sampled_partition_is_rejected(self):
        exhaustive = distribution_class_partition(FIXTURE, S1)
        sampled = distribution_class_partition(
            FIXTURE, S1, mode="sampled", samples=50, seed=1
        )
        other_shape = distribution_class_partition(
            sample_haar_qr(2, seed=3), RegisterShape(0, 0, 2, 1)
        )
        for partitions in ([sampled], [exhaustive, sampled], [], [exhaustive, other_shape]):
            with pytest.raises(ValidationError):
                aggregate_cost(partitions, TRANSPOSITION_MODEL, [Aggregator("max")])


class TestSecondaryCost:
    def test_tilde_permutation_block_structure(self):
        p = transposition(0, 4, 8)
        tp = build_tilde_p([p, identity(8)])
        assert tp.nx == 1
        assert tilde_cost(tp, TRANSPOSITION_MODEL).values == (1,)

    def test_secondary_aggregate_at_s1(self):
        partition = distribution_class_partition(FIXTURE, S1)
        average = [Aggregator("average")]
        [primary] = aggregate_cost([partition], TRANSPOSITION_MODEL, average)
        res = aggregate_cost_samp_alg(primary, 1, average)
        assert res.num_secondary_classes == 81
        assert res.aggregates["average"].values == (4.0,)

    @pytest.mark.parametrize("model, budget", [
        (TRANSPOSITION_MODEL, 2.0),
        (make_gate_count_model(2), 12.0),
    ])
    def test_secondary_fold_matches_brute_force_over_block_pairs(self, model, budget):
        # Oracle: every ordered pair of N = 4 permutations, grouped by its
        # secondary class key, with each group's minimum tilde cost found by
        # brute force. For a generic state the key groups are the secondary
        # classes, so folding their minima must give the secondary aggregates.
        shape = RegisterShape(0, 0, 2, 1)
        partition = distribution_class_partition(sample_haar_qr(2, seed=3), shape)
        assert partition.num_classes == count_classes(shape) == 6
        aggregators = [Aggregator("average"), Aggregator("max"), Aggregator("budget", (budget,))]
        group_minima = {}
        perms = [Permutation(image) for image in itertools.permutations(range(shape.N))]
        for blocks in itertools.product(perms, repeat=2):
            tp = build_tilde_p(blocks)
            key = secondary_class_key(tp, shape)
            cost = tilde_cost(tp, model)
            if key not in group_minima or cost < group_minima[key]:
                group_minima[key] = cost
        minima = list(group_minima.values())

        [primary] = aggregate_cost([partition], model, aggregators)
        res = aggregate_cost_samp_alg(primary, 1, aggregators)
        assert res.num_secondary_classes == len(group_minima) == 36
        assert res.aggregates == {agg.name: agg(minima) for agg in aggregators}
        # A budget that every class or no class meets would check nothing.
        assert 0 < -res.aggregates["budget"].values[0] < 36


class TestPreparation:
    def test_target_prepared_exactly(self):
        shape = RegisterShape(2, 2, 0, 2)
        target = OutcomeDistribution(
            (Fraction(1, 4), Fraction(2, 4), Fraction(0), Fraction(1, 4))
        )
        p = prepare_stars_and_bars(target, shape)
        inp = build_input_state(shape, rational_state([Fraction(1)]))
        assert output_distribution(inp, p).probabilities == target.probabilities

    def test_transposition_budget(self):
        rng = random.Random(5)
        for nt in (1, 2, 3):
            shape = RegisterShape(nt, nt, 0, nt)
            target = random_stars_and_bars_target(nt, rng)
            p = prepare_stars_and_bars(target, shape)
            assert transposition_count_cost(p).values[0] <= 2 ** nt

    def test_mass_granularity_enforced(self):
        shape = RegisterShape(1, 1, 0, 1)
        with pytest.raises(ValidationError):
            prepare_stars_and_bars(
                OutcomeDistribution((Fraction(1, 3), Fraction(2, 3))), shape
            )

    def test_scaling_experiment_rows(self):
        rows, c_fit = scaling_experiment([1, 2, 3], samples_per_size=5, seed=0)
        assert [r.n_tilde for r in rows] == [1, 2, 3]
        assert rows[0].bound_lower_formula is None
        assert rows[1].bound_lower_formula == 4.0
        assert c_fit > 0
        for r in rows:
            assert r.max_transpositions <= r.N_tilde

    def test_scaling_size_guard(self):
        with pytest.raises(ValidationError):
            scaling_experiment([7], samples_per_size=1, seed=0)
