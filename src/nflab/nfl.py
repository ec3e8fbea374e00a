"""Desk-scale no-free-lunch comparison of two resource states.

Two states that are both distinct and strongly distinct must induce the same
partition of the permutation set into distribution classes, and therefore the
same aggregate cost under every cost model and aggregator; a state failing
either predicate prepares strictly fewer distributions instead.
"""
from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .core import RegisterShape, ResourceState
from .cost import (
    Aggregator,
    CostModel,
    CostVector,
    aggregate_cost,
    aggregate_cost_samp_alg,
)
from .equivalence import (
    count_classes,
    distribution_class_partition,
)
from .haar import is_distinct, strong_distinct_oracle


class StageTimer:
    """Elapsed ``time.perf_counter`` seconds summed per named stage."""

    def __init__(self, stages: Sequence[str] = ()):
        self.seconds: Dict[str, float] = {name: 0.0 for name in stages}

    @contextlib.contextmanager
    def stage(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t0


# The stages of nfl_compare, in the order they run.
NFL_STAGES = ("partition", "oracle", "cost", "fold")


@dataclass(frozen=True)
class CostPair:
    cost_a: CostVector
    cost_b: CostVector

    @property
    def equal(self) -> bool:
        return self.cost_a == self.cost_b


@dataclass(frozen=True)
class NflReport:
    shape: RegisterShape
    precondition_ok: bool
    violations: Tuple[str, ...]
    m_star: int
    m_a: Optional[int] = None
    m_b: Optional[int] = None
    partitions_identical: Optional[bool] = None
    cost_pairs: Optional[Dict[Tuple[str, str], CostPair]] = None
    secondary_class_counts: Optional[Tuple[int, int]] = None
    secondary_cost_pairs: Optional[Dict[Tuple[str, str], CostPair]] = None
    # Elapsed seconds of each NFL_STAGES stage; not compared with the report.
    stage_seconds: Dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def all_equal(self) -> bool:
        if not self.precondition_ok or not self.partitions_identical:
            return False
        pairs = list((self.cost_pairs or {}).values())
        pairs += list((self.secondary_cost_pairs or {}).values())
        if self.secondary_class_counts is not None:
            if self.secondary_class_counts[0] != self.secondary_class_counts[1]:
                return False
        return all(p.equal for p in pairs)


def _predicate_violations(
    name: str, state: ResourceState, shape: RegisterShape, tolerance: float
) -> List[str]:
    out = []
    tol = 0 if state.backend == "rational" else tolerance
    if not is_distinct(state, tol):
        out.append(f"state {name} is not distinct")
    if not strong_distinct_oracle(state, shape, tolerance):
        out.append(f"state {name} is not strongly distinct")
    return out


def nfl_compare(
    state_a: ResourceState,
    state_b: ResourceState,
    shape: RegisterShape,
    cost_models: Sequence[CostModel],
    aggregators: Sequence[Aggregator],
    nx: Optional[int] = None,
    tolerance: float = 1e-12,
) -> NflReport:
    """Exhaustively verify cost equality for two admissible resource states.

    Both states must pass distinctness and the strong-distinctness oracle;
    otherwise a precondition-violation report is returned (not an exception),
    citing the class counts M(A), M(B) and M*. Each state is partitioned once,
    grouping distributions at ``tolerance``. Each cost model takes one S_N
    pass for both partitions: every permutation's cost is evaluated once and
    updates the per-class minima of both states. Every aggregator, primary
    and secondary (nx > 0), folds over those minima; the secondary folds are
    closed-form. The report's ``stage_seconds`` times each of NFL_STAGES:
    class counting and both partitions, both states' predicate checks, the
    cost passes with their primary folds, and the secondary folds.
    """
    timer = StageTimer(NFL_STAGES)
    with timer.stage("partition"):
        m_star = count_classes(shape)
        part_a = distribution_class_partition(state_a, shape, tolerance=tolerance)
        part_b = distribution_class_partition(state_b, shape, tolerance=tolerance)
    m_a, m_b = part_a.num_classes, part_b.num_classes
    with timer.stage("oracle"):
        violations = _predicate_violations("A", state_a, shape, tolerance)
        violations += _predicate_violations("B", state_b, shape, tolerance)
    if violations:
        violations.append(f"M(A) = {m_a}, M(B) = {m_b}, M* = {m_star}")
        return NflReport(
            shape=shape, precondition_ok=False, violations=tuple(violations),
            m_star=m_star, m_a=m_a, m_b=m_b, stage_seconds=timer.seconds,
        )

    cost_pairs: Dict[Tuple[str, str], CostPair] = {}
    secondary_counts = None
    secondary_pairs = {} if nx is not None and nx > 0 else None
    for model in cost_models:
        with timer.stage("cost"):
            ra, rb = aggregate_cost((part_a, part_b), model, aggregators)
        for name, cost in ra.aggregates.items():
            cost_pairs[(model.name, name)] = CostPair(cost, rb.aggregates[name])
        if secondary_pairs is not None:
            with timer.stage("fold"):
                sa = aggregate_cost_samp_alg(ra, nx, aggregators)
                sb = aggregate_cost_samp_alg(rb, nx, aggregators)
            for name, cost in sa.aggregates.items():
                secondary_pairs[(model.name, name)] = CostPair(cost, sb.aggregates[name])
            secondary_counts = (sa.num_secondary_classes, sb.num_secondary_classes)

    return NflReport(
        shape=shape,
        precondition_ok=True,
        violations=(),
        m_star=m_star,
        m_a=m_a,
        m_b=m_b,
        partitions_identical=part_a.labels == part_b.labels,
        cost_pairs=cost_pairs,
        secondary_class_counts=secondary_counts,
        secondary_cost_pairs=secondary_pairs,
        stage_seconds=timer.seconds,
    )
