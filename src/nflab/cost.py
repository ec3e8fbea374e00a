"""Cost models, aggregators, the permutation -> {Toffoli, X} compiler, and
aggregate-cost minimization over equivalence classes.

Both built-in cost models also have a table form that costs every row of an
array of permutation images at once from its cycle minima; aggregate_cost
runs it over ``symmetric_group(N)`` and takes every class's minimum with
array operations.

Gate lists act on n register lines plus one clean ancilla (line n, in and out
0). Line i carries bit n-1-i of the basis-state index, so line 0 is the most
significant (first measured) bit.

A transposition of basis states a, b is compiled as C . tau . C^-1 where C is
a CNOT/X circuit (an invertible affine map on bit vectors) sending two
adjacent states onto a and b, and tau is a single fully-controlled X. The
fully-controlled X is lowered with the standard borrowed-bit ladder, splitting
once when only the ancilla is free. Total gate count per transposition is
Theta(n); correctness is enforced by truth-table simulation in the tests.
"""
from __future__ import annotations

import collections
import itertools
import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    OutcomeDistribution,
    Permutation,
    RegisterShape,
)
# multiplicity_key is imported here only so that it stays reachable as
# nflab.cost.multiplicity_key, one of the sites perfbench/tracer.py wraps.
from .equivalence import (  # noqa: F401
    ClassPartitionReport,
    multiplicity_key,
    symmetric_group,
)
from .errors import ResourceLimitError, ShapeError, ValidationError

# ---------------------------------------------------------------------------
# Cost vectors and aggregators


@total_ordering
@dataclass(frozen=True)
class CostVector:
    """Named cost components, totally ordered lexicographically.

    Components are non-negative for single-permutation costs; the budget
    aggregator's negated count is the one negative-valued vector produced.
    """

    names: Tuple[str, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        if len(self.names) != len(self.values):
            raise ShapeError("names and values lengths differ")

    def _check(self, other: "CostVector") -> None:
        if self.names != other.names:
            raise ShapeError(f"incomparable cost vectors: {self.names} vs {other.names}")

    def __lt__(self, other: "CostVector") -> bool:
        self._check(other)
        return self.values < other.values

    def within(self, budget: Tuple[float, ...]) -> bool:
        """Componentwise threshold comparison used by the budget aggregator."""
        if len(budget) != len(self.values):
            raise ShapeError("budget arity does not match cost vector")
        return all(v <= b for v, b in zip(self.values, budget))


def scalar_cost(name: str, value: float) -> CostVector:
    return CostVector((name,), (value,))


@dataclass(frozen=True)
class Aggregator:
    """Permutation-symmetric functional of the per-class minimal costs.

    The budget is a raw threshold tuple (one entry per cost component) so the
    same budget aggregator can be applied under any single-component model.
    Calling it with ``blocks`` = k folds the sums of every ordered k-tuple of
    the costs, all M^k of them, in closed form.
    """

    kind: str  # "average" | "max" | "budget"
    budget: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if self.kind not in ("average", "max", "budget"):
            raise ValidationError(f"unknown aggregator kind {self.kind!r}")
        if self.kind == "budget" and self.budget is None:
            raise ValidationError("budget aggregator requires a threshold tuple")

    @property
    def name(self) -> str:
        return self.kind

    def __call__(self, minima: Sequence[CostVector], blocks: int = 1) -> CostVector:
        """Fold the sum of every ordered ``blocks``-tuple of ``minima``.

        ``blocks`` is a power of two, and 1 folds ``minima`` themselves. The
        average of the sums is ``blocks`` times the mean, computed exactly
        and rounded once; lexicographic order is compatible with addition,
        so their max is ``blocks`` times the max; the budget count convolves
        the histogram of costs with itself, in Python integers.
        """
        if not minima:
            raise ValidationError("aggregator requires a non-empty tuple of costs")
        if blocks < 1 or blocks & (blocks - 1):
            raise ValidationError(f"block count {blocks} is not a power of two")
        names = minima[0].names
        if self.kind == "average":
            comps = tuple(
                float(blocks * sum(map(Fraction, column)) / len(minima))
                for column in zip(*(m.values for m in minima))
            )
            return CostVector(names, comps)
        if self.kind == "max":
            top = max(minima)
            return CostVector(names, tuple(blocks * v for v in top.values))
        if len(self.budget) != len(names):
            raise ShapeError("budget arity does not match cost vector")
        count = _count_within(minima, blocks, self.budget)
        return CostVector(("neg_count_within_budget",), (-count,))


def _count_within(
    minima: Sequence[CostVector], blocks: int, budget: Tuple[float, ...]
) -> int:
    """Number of ordered ``blocks``-tuples of ``minima`` whose componentwise
    sum is within ``budget``, by repeated squaring of the cost histogram.

    A partial sum of k blocks is dropped once it exceeds the budget in some
    component even with the least cost in every one of the remaining blocks.
    """
    least = [min(column) for column in zip(*(m.values for m in minima))]

    def viable(hist: Dict[tuple, int], size: int) -> Dict[tuple, int]:
        rest = blocks - size
        return {
            total: count
            for total, count in hist.items()
            if all(t + rest * lo <= b for t, lo, b in zip(total, least, budget))
        }

    hist = viable(collections.Counter(m.values for m in minima), 1)
    size = 1
    while size < blocks:
        doubled: Dict[tuple, int] = collections.defaultdict(int)
        for s, m in hist.items():
            for t, n in hist.items():
                doubled[tuple(x + y for x, y in zip(s, t))] += m * n
        size *= 2
        hist = viable(doubled, size)
    return sum(hist.values())


# ---------------------------------------------------------------------------
# Simple reference cost model


def cycles(p: Permutation) -> List[List[int]]:
    """The cycles of p, fixed points included, each listed in walk order.

    Invariant: each cycle starts at its least point, and the cycles come in
    increasing order of that point (a new cycle starts at each point not yet
    seen, scanning upward), so transposition_sequence and the gate model
    factor every cycle from its least point.
    """
    image = p.image
    seen = [False] * len(image)
    out: List[List[int]] = []
    for start in range(len(image)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        k = image[start]
        while k != start:
            cyc.append(k)
            seen[k] = True
            k = image[k]
        out.append(cyc)
    return out


def cycle_minima(images: np.ndarray) -> np.ndarray:
    """Entry [r, j] is m(j) = min_k P^k(j), the least point on the cycle
    through j of the permutation P whose image is row r; same dtype as
    ``images``, column-major. Each column j is walked on its own for N - 2
    steps, each one ``take`` from the flattened rows, so the temporaries
    hold one entry per row."""
    rows, N = images.shape
    flat = np.ascontiguousarray(images).ravel()
    row_start = np.arange(0, rows * N, N)
    minima = np.empty(images.shape, images.dtype, order="F")
    for j in range(N):
        point = images[:, j]
        column = minima[:, j]
        np.minimum(point, j, out=column)
        for _ in range(N - 2):
            point = flat.take(row_start + point)  # P applied once more
            np.minimum(column, point, out=column)
    return minima


def transposition_count_cost(p: Permutation) -> CostVector:
    """N minus the number of cycles: the minimal transposition factorization length."""
    return scalar_cost("transpositions", p.size - len(cycles(p)))


def transposition_count_table(images: np.ndarray) -> np.ndarray:
    """transposition_count_cost of every row of ``images``: a cycle is
    counted at its least point, the one point j with m(j) = j."""
    N = images.shape[1]
    return N - (cycle_minima(images) == np.arange(N)).sum(axis=1)


def transposition_sequence(p: Permutation) -> List[Tuple[int, int]]:
    """Transpositions t_1..t_r (applied in listed order) whose product is p."""
    seq: List[Tuple[int, int]] = []
    for cyc in cycles(p):
        a0 = cyc[0]
        for other in cyc[1:]:
            seq.append((a0, other))
    return seq


# ---------------------------------------------------------------------------
# Gate lists and the {Toffoli, X} compiler

Gate = Tuple  # ("X", target) | ("CCX", c1, c2, target)


@dataclass(frozen=True)
class GateList:
    """A sequence of X/Toffoli gates on lines 0..n (line n is the clean ancilla)."""

    n: int
    gates: Tuple[Gate, ...]

    def to_text(self) -> str:
        lines = []
        for g in self.gates:
            if g[0] == "X":
                lines.append(f"X {g[1]}")
            else:
                lines.append(f"CCX {g[1]} {g[2]} {g[3]}")
        return "\n".join(lines) + ("\n" if lines else "")

    def simulate(self) -> Permutation:
        """Truth-table simulation over all basis inputs with a clean ancilla."""
        n = self.n
        image = []
        for j in range(1 << n):
            bits = [(j >> (n - 1 - i)) & 1 for i in range(n)] + [0]
            for g in self.gates:
                if g[0] == "X":
                    bits[g[1]] ^= 1
                else:
                    _, c1, c2, t = g
                    if bits[c1] and bits[c2]:
                        bits[t] ^= 1
            if bits[n] != 0:
                raise ValidationError(f"ancilla not restored to 0 on input {j}")
            image.append(sum(bits[i] << (n - 1 - i) for i in range(n)))
        return Permutation(tuple(image))


def gate_list_from_text(text: str, n: int) -> GateList:
    gates: List[Gate] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "X" and len(parts) == 2:
            gates.append(("X", int(parts[1])))
        elif parts[0] == "CCX" and len(parts) == 4:
            gates.append(("CCX", int(parts[1]), int(parts[2]), int(parts[3])))
        else:
            raise ValidationError(f"unparseable gate line: {line!r}")
    return GateList(n, tuple(gates))


def _cx(control: int, target: int, borrow: int) -> List[Gate]:
    """CNOT from Toffolis using one borrowed line of arbitrary value (restored)."""
    return [
        ("CCX", control, borrow, target),
        ("X", borrow),
        ("CCX", control, borrow, target),
        ("X", borrow),
    ]


def _ladder_half(ctrls: Sequence[int], borrows: Sequence[int], target: int) -> List[Gate]:
    """Toffoli ladder for an AND chain; applied twice it restores all borrows."""
    k = len(ctrls)
    if k == 2:
        return [("CCX", ctrls[0], ctrls[1], target)]
    g = ("CCX", ctrls[k - 1], borrows[k - 3], target)
    inner = _ladder_half(ctrls[: k - 1], borrows[: k - 3], borrows[k - 3])
    return [g] + inner + [g]


def _mcx_with_borrows(ctrls: Sequence[int], target: int, borrows: Sequence[int]) -> List[Gate]:
    """m-controlled X with m-2 borrowed (dirty, restored) lines; 4(m-2) Toffolis."""
    m = len(ctrls)
    if m < 3:
        raise ShapeError("ladder construction requires at least 3 controls")
    return _ladder_half(ctrls, borrows, target) + _ladder_half(
        ctrls[: m - 1], borrows[: m - 3], borrows[m - 3]
    )


def _mcx(ctrls: Sequence[int], target: int, free: Sequence[int]) -> List[Gate]:
    """Multi-controlled X on arbitrary lines; `free` lines are borrowed dirty."""
    m = len(ctrls)
    if m == 0:
        return [("X", target)]
    if m == 1:
        return _cx(ctrls[0], target, free[0])
    if m == 2:
        return [("CCX", ctrls[0], ctrls[1], target)]
    if len(free) >= m - 2:
        return _mcx_with_borrows(ctrls, target, list(free)[: m - 2])
    # Only the ancilla is free: split into two halves, each of which then has
    # the other half's lines as borrows (t ^= AND(c2, b); b ^= AND(c1); twice).
    m1 = (m + 1) // 2
    b = free[0]
    first = list(ctrls[:m1])
    second = list(ctrls[m1:]) + [b]
    part_b = _mcx(second, target, first + list(free[1:]))
    part_a = _mcx(first, b, list(ctrls[m1:]) + [target] + list(free[1:]))
    return part_b + part_a + part_b + part_a


def _transposition_gates(a: int, b: int, n: int) -> List[Gate]:
    """Gates swapping basis states a and b and fixing every other state."""
    if a == b:
        return []
    line = lambda bit: n - 1 - bit  # noqa: E731 - tiny local mapping
    anc = n
    if n == 1:
        return [("X", 0)]
    diff = a ^ b
    j = diff & -diff  # lowest differing bit; tau will flip this one
    j_bit = j.bit_length() - 1

    # C: CNOTs fanning bit j onto the other differing bits, then an X if a_j=1.
    conj: List[Gate] = []
    other_bits = [k for k in range(n) if (diff >> k) & 1 and k != j_bit]
    if other_bits:
        conj.append(("X", anc))
        for k in other_bits:
            conj.append(("CCX", line(j_bit), anc, line(k)))
        conj.append(("X", anc))
    if (a >> j_bit) & 1:
        conj.append(("X", line(j_bit)))

    # tau: swap u <-> u^e_j where u = a with bit j cleared, via a fully
    # controlled X on bit j with control polarity given by the bits of u.
    u = a & ~(1 << j_bit)
    ctrl_lines = [line(k) for k in range(n) if k != j_bit]
    polarity_x: List[Gate] = [
        ("X", line(k)) for k in range(n) if k != j_bit and not ((u >> k) & 1)
    ]
    tau = polarity_x + _mcx(ctrl_lines, line(j_bit), [anc]) + polarity_x

    # Circuit order C^-1, tau, C realizes the conjugation C . tau . C^-1;
    # all gates in C are involutions, so C^-1 is C reversed gate-by-gate.
    return list(reversed(conj)) + tau + conj


def compile_permutation(p: Permutation, n: int) -> GateList:
    """Compile a permutation of {0..2^n-1} into X/Toffoli gates on n+1 lines."""
    if n < 1:
        raise ShapeError("compilation requires n >= 1")
    if p.size != 1 << n:
        raise ShapeError(f"permutation size {p.size} != 2^{n}")
    gates: List[Gate] = []
    for a, b in transposition_sequence(p):
        gates.extend(_transposition_gates(a, b, n))
    return GateList(n, tuple(gates))


def make_gate_count_model(n: int) -> "CostModel":
    """Gate-count cost: the compiled gate counts of the factors (a, b) of
    transposition_sequence, summed, each factor's count computed once and
    cached. The model walks cycles(p) itself, so a is a cycle's least point
    and a < b in every factor. Every point b other than its cycle's least
    point a = m(b) makes one factor, so the table form sums W[m(j), j] over
    j, with W[a, b] the factor's gate count for a < b and 0 on the diagonal.
    """
    weights: Dict[Tuple[int, int], int] = {}

    def weight(a: int, b: int) -> int:
        w = weights.get((a, b))
        if w is None:
            w = weights[a, b] = len(_transposition_gates(a, b, n))
        return w

    def fn(p: Permutation) -> CostVector:
        total = 0
        for cyc in cycles(p):
            a = cyc[0]
            for b in cyc[1:]:
                total += weight(a, b)
        return scalar_cost("gates", total)

    def table(images: np.ndarray) -> np.ndarray:
        N = images.shape[1]
        W = np.array([[weight(a, b) if a < b else 0 for b in range(N)] for a in range(N)])
        minima = cycle_minima(images)
        return sum(W[minima[:, j], j] for j in range(N))

    return CostModel("gates", fn, table)


@dataclass(frozen=True)
class CostModel:
    """A named cost of one permutation.

    ``fn`` maps a Permutation to its CostVector. ``table``, when given, is
    the same cost for many permutations at once: it maps an integer array
    of images, one permutation per row as in ``symmetric_group``, to the
    integer cost of every row, the one component ``name`` of the vector
    ``fn`` returns. aggregate_cost uses ``table`` when there is one and
    calls ``fn`` on every permutation otherwise.
    """

    name: str
    fn: Callable[[Permutation], CostVector]
    table: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, p: Permutation) -> CostVector:
        return self.fn(p)


TRANSPOSITION_MODEL = CostModel(
    "transpositions", transposition_count_cost, transposition_count_table
)


# ---------------------------------------------------------------------------
# Aggregate cost over distribution classes


@dataclass(frozen=True)
class AggregateCostResult:
    aggregates: Dict[str, CostVector]  # by aggregator name
    per_class: Dict[tuple, CostVector]
    minimizers: Dict[tuple, Permutation]


def _fold(
    aggregators: Sequence[Aggregator], minima: List[CostVector], blocks: int = 1
) -> Dict[str, CostVector]:
    folded = {agg.name: agg(minima, blocks) for agg in aggregators}
    if len(folded) != len(aggregators):
        raise ValidationError("aggregator names must be unique")
    return folded


def _cost_column(
    cost_model: CostModel, N: int
) -> Tuple[np.ndarray, Callable[[int], CostVector]]:
    """One integer per permutation of S_N in lexicographic order, and the
    map from such an integer back to the permutation's CostVector; smaller
    integers are cheaper.

    With a table the integers are the costs of the rows of
    ``symmetric_group(N)``. Without one, ``fn`` is called on every
    permutation and the integers are the ranks of the distinct costs.
    """
    if cost_model.table is not None:
        column = cost_model.table(symmetric_group(N))
        return column, lambda c: scalar_cost(cost_model.name, int(c))
    costs = [cost_model(Permutation(image)) for image in itertools.permutations(range(N))]
    distinct = sorted(set(costs))
    rank = {c: i for i, c in enumerate(distinct)}
    return np.fromiter((rank[c] for c in costs), np.int64, len(costs)), distinct.__getitem__


def aggregate_cost(
    partitions: Sequence[ClassPartitionReport],
    cost_model: CostModel,
    aggregators: Sequence[Aggregator],
) -> List[AggregateCostResult]:
    """Exact per-class minimal single costs of each partition, folded by
    every aggregator; one result per partition, in order.

    A permutation's cost does not depend on the state, so one cost column
    over S_N in lexicographic order (_cost_column) serves every partition.
    Each partition's class minima come from its labels in one
    ``np.minimum.at``, and a class's minimizer is its first row at the
    minimum, the lexicographically smallest minimizing permutation. Only
    the minimizers become Permutation objects. The partitions must be
    exhaustive and share one shape (ValidationError otherwise, and for an
    empty sequence). Every aggregator folds over the same minima; aggregator
    names key the result, so they must be unique.
    """
    if not partitions:
        raise ValidationError("cost minimization needs at least one partition")
    shape = partitions[0].shape
    if any(part.shape != shape for part in partitions):
        raise ValidationError("cost minimization needs partitions of one shape")
    if any(part.labels is None for part in partitions):
        raise ValidationError("cost minimization needs an exhaustive partition")
    cost, cost_of = _cost_column(cost_model, shape.N)
    images = symmetric_group(shape.N)
    results = []
    for part in partitions:
        labels = part.labels
        best = np.full(part.num_classes, np.iinfo(np.int64).max)
        np.minimum.at(best, labels, cost)
        hits = np.flatnonzero(cost == best[labels])
        best_row = hits[np.unique(labels[hits], return_index=True)[1]]
        per_class = {key: cost_of(c) for key, c in zip(part.classes, best)}
        minimizers = {
            key: Permutation(tuple(images[row].tolist()))
            for key, row in zip(part.classes, best_row)
        }
        minima = [per_class[k] for k in sorted(per_class)]
        results.append(AggregateCostResult(
            aggregates=_fold(aggregators, minima),
            per_class=per_class,
            minimizers=minimizers,
        ))
    return results


# ---------------------------------------------------------------------------
# Sampling algorithms: block-diagonal composite permutations


@dataclass(frozen=True)
class SecondaryCostResult:
    aggregates: Dict[str, CostVector]  # by aggregator name
    num_secondary_classes: int


# Python prints no integer of more than 4300 digits (its default
# int_max_str_digits), so no report could hold a larger class count.
SECONDARY_COUNT_MAX_DIGITS = 4300


def aggregate_cost_samp_alg(
    primary: AggregateCostResult, nx: int, aggregators: Sequence[Aggregator]
) -> SecondaryCostResult:
    """Aggregate cost over secondary classes built from primary class minima.

    A secondary class is an ordered 2^nx-tuple of primary classes, and the
    block-sum cost of its cheapest member is the sum of per-block minima, so
    the minimization separates and no class member is scanned again. Every
    aggregator folds the M^(2^nx) sums in closed form (see Aggregator), so
    no secondary class is enumerated; nx = 0 reduces exactly to the primary
    aggregates. Raises ResourceLimitError when max(M, 2)^(2^nx) has more
    than SECONDARY_COUNT_MAX_DIGITS digits.
    """
    if nx < 0:
        raise ValidationError("nx must be non-negative")
    minima = [primary.per_class[k] for k in sorted(primary.per_class)]
    digits = math.log10(max(len(minima), 2))
    if nx > 64 or digits * (1 << nx) > SECONDARY_COUNT_MAX_DIGITS:
        raise ResourceLimitError(
            f"{len(minima)}^(2^{nx}) secondary classes: the count has more than "
            f"{SECONDARY_COUNT_MAX_DIGITS} digits"
        )
    blocks = 1 << nx
    return SecondaryCostResult(
        aggregates=_fold(aggregators, minima, blocks),
        num_secondary_classes=len(minima) ** blocks,
    )


# ---------------------------------------------------------------------------
# Stars-and-bars preparations and the scaling experiment


def prepare_stars_and_bars(
    target: OutcomeDistribution, shape: RegisterShape
) -> Permutation:
    """Permutation preparing a target distribution with masses in units of
    1/2^ny, built from at most 2^ny transpositions.

    Requires the pure-uniform-randomness shape (nq = 0, nplus = ny, n0 >= ny):
    the input state is 2^ny equal mass units followed by zeros, all initially
    in bin 0, and each unit destined elsewhere is swapped into a zero slot of
    its target bin.
    """
    if shape.nq != 0 or shape.nplus != shape.ny or shape.n0 < shape.ny:
        raise ShapeError(
            "stars-and-bars preparation needs nq = 0, nplus = ny, n0 >= ny"
        )
    n_big = 1 << shape.ny  # number of unit masses = number of bins
    probs = target.probabilities
    if len(probs) != n_big:
        raise ShapeError(f"target has {len(probs)} bins, expected {n_big}")
    counts = []
    for mass in probs:
        scaled = mass * n_big
        if isinstance(mass, Fraction):
            if scaled.denominator != 1:
                raise ValidationError(f"mass {mass} is not a multiple of 1/{n_big}")
            counts.append(int(scaled))
        else:
            rounded = round(scaled)
            if abs(scaled - rounded) > 1e-9:
                raise ValidationError(f"mass {mass} is not a multiple of 1/{n_big}")
            counts.append(rounded)
    if sum(counts) != n_big:
        raise ValidationError("target masses do not sum to 1")

    B = shape.bin_size
    image = list(range(shape.N))
    unit = 0
    for y, k in enumerate(counts):
        for slot in range(k):
            if y > 0:
                pos = y * B + slot
                image[unit], image[pos] = image[pos], image[unit]
            unit += 1
    return Permutation(tuple(image))


def random_stars_and_bars_target(
    n_tilde: int, rng: random.Random
) -> OutcomeDistribution:
    """Uniform draw over distributions with masses in units of 1/2^n_tilde."""
    n_big = 1 << n_tilde
    bars = sorted(rng.sample(range(2 * n_big - 1), n_big - 1))
    counts = []
    prev = -1
    for bar in bars:
        counts.append(bar - prev - 1)
        prev = bar
    counts.append(2 * n_big - 2 - prev)
    return OutcomeDistribution(tuple(Fraction(c, n_big) for c in counts))


@dataclass(frozen=True)
class ScalingRow:
    n_tilde: int
    N_tilde: int
    mean_gates: float
    max_gates: int
    max_transpositions: int
    bound_upper: float
    bound_lower_formula: Optional[float]


def scaling_experiment(
    n_tilde_range: Sequence[int], samples_per_size: int, seed: int = 0
) -> Tuple[List[ScalingRow], float]:
    """Compile random stars-and-bars preparations and report gate counts next
    to the two asymptotic bound formulas.

    The upper-bound column is c * Ntilde * log2(Ntilde) with c fitted as the
    maximum observed ratio; the lower-bound column is the counting-bound
    formula Ntilde / log2(log2(Ntilde)) evaluated only (no constructive
    algorithm backs it), undefined at n_tilde = 1.
    """
    if any(nt < 1 or nt > 6 for nt in n_tilde_range):
        raise ValidationError("n_tilde values must be in 1..6")
    rng = random.Random(seed)
    raw: List[Tuple[int, List[int], List[int]]] = []
    for nt in n_tilde_range:
        shape = RegisterShape(n0=nt, nplus=nt, nq=0, ny=nt)
        gate_counts: List[int] = []
        transpositions: List[int] = []
        for _ in range(samples_per_size):
            target = random_stars_and_bars_target(nt, rng)
            p = prepare_stars_and_bars(target, shape)
            transpositions.append(p.size - len(cycles(p)))
            gate_counts.append(len(compile_permutation(p, shape.n).gates))
        raw.append((nt, gate_counts, transpositions))

    c_fit = 0.0
    for nt, gate_counts, _ in raw:
        n_big = 1 << nt
        for g in gate_counts:
            c_fit = max(c_fit, g / (n_big * nt))

    rows = []
    for nt, gate_counts, transpositions in raw:
        n_big = 1 << nt
        lower = n_big / math.log2(nt) if nt > 1 else None
        rows.append(
            ScalingRow(
                n_tilde=nt,
                N_tilde=n_big,
                mean_gates=statistics.fmean(gate_counts),
                max_gates=max(gate_counts),
                max_transpositions=max(transpositions),
                bound_upper=c_fit * n_big * nt,
                bound_lower_formula=lower,
            )
        )
    return rows, c_fit
