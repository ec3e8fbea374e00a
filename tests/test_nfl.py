"""Tests of the two-state comparison's preconditions."""

from nflab import (
    Aggregator,
    RegisterShape,
    TRANSPOSITION_MODEL,
    float_state,
    is_distinct,
    nfl_compare,
    sample_haar_qr,
    strong_distinct_oracle,
)

PURE = RegisterShape(0, 0, 3, 1)


def test_strong_distinctness_uses_the_comparison_tolerance():
    # Block sums q2 + q3 and q4 + q5 of state A differ by 1e-6: strongly
    # distinct at the default tolerance, not at 1e-3.
    q = list(sample_haar_qr(3, seed=2).squared_magnitudes)
    q[5] = q[2] + q[3] - q[4] + 1e-6
    total = sum(q)
    state_a = float_state([v / total for v in q])
    state_b = sample_haar_qr(3, seed=5)
    assert is_distinct(state_a, 1e-3)
    assert strong_distinct_oracle(state_a, PURE)
    assert not strong_distinct_oracle(state_a, PURE, tolerance=1e-3)

    report = nfl_compare(
        state_a, state_b, PURE, [TRANSPOSITION_MODEL], [Aggregator("average")],
        tolerance=1e-3,
    )
    assert not report.precondition_ok
    assert "state A is not strongly distinct" in report.violations
    # The cited class count is taken at the comparison's tolerance.
    assert report.m_a < report.m_star
    assert not report.all_equal
