"""Acceptance suite: ten numbered end-to-end checks at desk scale.

Each test prints one ``ACCEPT n PASS|FAIL ...`` line so the suite output reads
as a checklist. Criteria and tolerances:

 1. Measure-then-permute equals permute-then-measure exactly on 1000 random
    rational (state, permutation) pairs at N = 8; < 5 s.
 2. The definitional double-coset oracle agrees with multiplicity-matrix key
    equality on 100 random pairs at shape (1,1,1,1); < 60 s.
 3. Exhaustive scan of all 40,320 permutations of 8 points with the rational
    fixture (16/25, 9/25) yields exactly M = 9 distribution classes, equal to
    the contingency-table count; < 30 s.
 4. Two independent Haar states (seeds 1, 2) at shape (1,1,1,1) produce
    identical partitions and identical aggregate costs under
    {average, max, budget} x {transposition count, compiled gate count};
    the transposition/average value is exactly 2.0; < 2 min.
 5. With one extra input bit (nx = 1) both states yield 81 secondary classes
    and equal aggregates (average 4.0, max 8, transposition-sum cost); < 2 min.
 6. The uniform state collapses below M = 9; the engineered collision state
    (1,2,3,4,5,6,7,12)/40 collapses below M = 70 while passing pairwise
    distinctness; the explicit witness pair separates degenerate from
    distinct states; < 1 min.
 7. At least 99.9% of 1000 Haar samples per method at nq = 3 pass pairwise
    distinctness (tolerance 1e-12) and the strong-distinctness oracle on
    shape (0,0,3,1); < 5 min.
 8. stars_and_bars_count matches the brute-force class count for sizes 1 (3)
    and 2 (35); formula value 6435 at size 3; < 1 min.
 9. For sizes 1..5 every compiled preparation uses at most N transpositions
    and at most c*N*log2(N) gates for one constant c fitted at sizes <= 3;
    compiled circuits are truth-table correct for all registers up to 6 bits;
    < 10 min. The matching lower bound is reported as a formula value only.
10. The two Haar samplers agree: a two-sample KS test on squared magnitudes
    (2000 each, nq = 2) does not reject at 1e-3, and the mean squared
    magnitude is within 3 standard errors of 2^-nq; < 2 min.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.stats import ks_2samp

from nflab import (
    Aggregator,
    RegisterShape,
    TRANSPOSITION_MODEL,
    aggregate_cost,
    aggregate_cost_samp_alg,
    build_input_state,
    collapse_witness,
    compile_permutation,
    count_classes,
    deferred_equivalence_check,
    distribution_class_partition,
    double_coset_oracle,
    is_distinct,
    make_collision_state,
    make_gate_count_model,
    multiplicity_key,
    output_distribution,
    prepare_stars_and_bars,
    random_permutation,
    random_stars_and_bars_target,
    rational_state,
    same_multiplicative_class,
    sample_haar_qr,
    sample_haar_rayleigh,
    stars_and_bars_count,
    strong_distinct_oracle,
    transposition_count_cost,
)

S1 = RegisterShape(1, 1, 1, 1)
FIXTURE = rational_state([Fraction(16, 25), Fraction(9, 25)])


def report(num: int, ok: bool, detail: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPT {num} {status} {detail} ({elapsed:.2f}s < {limit:.0f}s)")
    assert ok, detail
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def random_rational_state(rng: random.Random):
    raw = [Fraction(rng.randint(1, 999), 1000) for _ in range(2)]
    total = sum(raw)
    return rational_state([v / total for v in raw])


def test_accept_01_deferred_measurement():
    t0 = time.perf_counter()
    rng = random.Random(101)
    failures = 0
    for _ in range(1000):
        inp = build_input_state(S1, random_rational_state(rng))
        if not deferred_equivalence_check(inp, random_permutation(8, rng)):
            failures += 1
    report(1, failures == 0, f"deferred-measurement exact equality, {failures} failures/1000", t0, 5.0)


def test_accept_02_double_coset_oracle():
    t0 = time.perf_counter()
    rng = random.Random(202)
    disagreements = 0
    for _ in range(100):
        p = random_permutation(8, rng)
        s = random_permutation(8, rng)
        if double_coset_oracle(p, s, S1) != same_multiplicative_class(p, s, S1):
            disagreements += 1
    report(2, disagreements == 0, f"oracle vs canonical key, {disagreements} disagreements/100", t0, 60.0)


def test_accept_03_exhaustive_class_count():
    t0 = time.perf_counter()
    partition = distribution_class_partition(FIXTURE, S1)
    m = partition.num_classes
    m_star = count_classes(S1)
    ok = m == 9 and m_star == 9
    report(3, ok, f"exhaustive scan M = {m}, contingency count = {m_star}", t0, 30.0)


def test_accept_04_identical_partitions_and_costs():
    t0 = time.perf_counter()
    state_a = sample_haar_qr(1, seed=1)
    state_b = sample_haar_qr(1, seed=2)
    part_a = distribution_class_partition(state_a, S1)
    part_b = distribution_class_partition(state_b, S1)
    ok = np.array_equal(part_a.labels, part_b.labels)
    models = [TRANSPOSITION_MODEL, make_gate_count_model(S1.n)]
    aggregators = [Aggregator("average"), Aggregator("max"), Aggregator("budget", (1.0,))]
    avg_value = None
    detail = []
    for model in models:
        res_a, res_b = aggregate_cost((part_a, part_b), model, aggregators)
        ok = ok and res_a.aggregates == res_b.aggregates
        for agg in aggregators:
            detail.append(f"{model.name}/{agg.kind}={res_a.aggregates[agg.name].values[0]}")
        if model is TRANSPOSITION_MODEL:
            avg_value = res_a.aggregates["average"].values[0]
    ok = ok and avg_value == 2.0
    report(4, ok, "identical partitions + costs: " + " ".join(detail), t0, 120.0)


def test_accept_05_secondary_costs():
    t0 = time.perf_counter()
    part_a = distribution_class_partition(sample_haar_qr(1, seed=1), S1)
    part_b = distribution_class_partition(sample_haar_qr(1, seed=2), S1)
    aggregators = (Aggregator("average"), Aggregator("max"))
    primary = aggregate_cost((part_a, part_b), TRANSPOSITION_MODEL, aggregators)
    res_a, res_b = (aggregate_cost_samp_alg(r, 1, aggregators) for r in primary)
    ok = res_a.num_secondary_classes == 81 == res_b.num_secondary_classes
    ok = ok and res_a.aggregates == res_b.aggregates
    results = {name: cost.values[0] for name, cost in res_a.aggregates.items()}
    ok = ok and results["average"] == 4.0 and results["max"] == 8
    report(
        5, ok,
        f"81 secondary classes, average {results['average']}, max {results['max']}",
        t0, 120.0,
    )


def test_accept_06_collapse():
    t0 = time.perf_counter()
    uniform = rational_state([Fraction(1, 2), Fraction(1, 2)])
    m_uniform = distribution_class_partition(uniform, S1).num_classes
    collision, coll_shape = make_collision_state()
    m_coll = distribution_class_partition(collision, coll_shape).num_classes
    ok = m_uniform < 9 and m_coll < 70 and is_distinct(collision, tolerance=0)

    wit_shape = RegisterShape(1, 0, 2, 1)
    p, s = collapse_witness(wit_shape, 1, 2)
    degenerate = build_input_state(
        wit_shape,
        rational_state([Fraction(3, 10), Fraction(3, 10), Fraction(3, 20), Fraction(1, 4)]),
    )
    distinct = build_input_state(
        wit_shape,
        rational_state([Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)]),
    )
    ok = ok and output_distribution(degenerate, p) == output_distribution(degenerate, s)
    ok = ok and output_distribution(distinct, p) != output_distribution(distinct, s)
    ok = ok and not same_multiplicative_class(p, s, wit_shape)
    report(
        6, ok,
        f"uniform M = {m_uniform} < 9, collision M = {m_coll} < 70, witness separates",
        t0, 60.0,
    )


def test_accept_07_haar_states_generically_strongly_distinct():
    t0 = time.perf_counter()
    shape = RegisterShape(0, 0, 3, 1)
    passes = 0
    total = 0
    for sampler in (sample_haar_qr, sample_haar_rayleigh):
        for seed in range(1000):
            total += 1
            state = sampler(3, seed)
            if is_distinct(state, tolerance=1e-12) and strong_distinct_oracle(state, shape):
                passes += 1
    rate = passes / total
    report(7, rate >= 0.999, f"strong distinctness rate {rate:.4f} over {total} samples", t0, 300.0)


def test_accept_08_preparable_distribution_count():
    t0 = time.perf_counter()
    checks = [
        (stars_and_bars_count(1), count_classes(RegisterShape(1, 1, 0, 1)), 3),
        (stars_and_bars_count(2), count_classes(RegisterShape(2, 2, 0, 2)), 35),
    ]
    ok = all(f == b == expected for f, b, expected in checks)
    ok = ok and stars_and_bars_count(3) == 6435
    report(
        8, ok,
        "formula vs brute force: "
        + " ".join(f"{f}={b}" for f, b, _ in checks)
        + f", size-3 formula {stars_and_bars_count(3)}",
        t0, 60.0,
    )


def test_accept_09_preparation_scaling():
    t0 = time.perf_counter()
    rng = random.Random(909)
    gate_counts = {}
    ok = True
    for nt in range(1, 6):
        shape = RegisterShape(nt, nt, 0, nt)
        big_n = 2 ** nt
        worst_g = 0
        for _ in range(10):
            target = random_stars_and_bars_target(nt, rng)
            p = prepare_stars_and_bars(target, shape)
            ok = ok and transposition_count_cost(p).values[0] <= big_n
            circuit = compile_permutation(p, shape.n)
            worst_g = max(worst_g, len(circuit.gates))
            if shape.n <= 6:
                ok = ok and circuit.simulate().image == p.image
        gate_counts[nt] = worst_g
    # One constant must cover every size (log2 N = nt here). Each of the at
    # most N transpositions compiles to fewer than 10 * n = 20 * nt gates on
    # the 2*nt-line register, so c = 20 bounds gates/(N * nt) for all sizes;
    # the empirical fit must sit inside that envelope.
    c = 20.0
    c_fit = max(gate_counts[nt] / (2 ** nt * nt) for nt in gate_counts)
    ok = ok and c_fit <= c
    ok = ok and all(gate_counts[nt] <= c * 2 ** nt * nt for nt in gate_counts)
    report(
        9, ok,
        f"transpositions <= N, gates <= {c:.0f}*N*log2(N) (fit {c_fit:.1f}), circuits exact",
        t0, 600.0,
    )


def test_accept_10_sampler_consistency():
    t0 = time.perf_counter()
    qr = np.concatenate(
        [sample_haar_qr(2, seed).squared_magnitudes for seed in range(500)]
    )
    ray = np.concatenate(
        [sample_haar_rayleigh(2, seed).squared_magnitudes for seed in range(500)]
    )
    stat, pvalue = ks_2samp(qr, ray)
    ok = pvalue >= 1e-3
    for arr in (qr, ray):
        se = arr.std(ddof=1) / math.sqrt(arr.size)
        ok = ok and abs(arr.mean() - 0.25) <= 3 * se
    report(
        10, ok,
        f"KS p = {pvalue:.4f}, means {qr.mean():.4f}/{ray.mean():.4f} vs 0.25",
        t0, 120.0,
    )
