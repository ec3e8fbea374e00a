"""Cost models, aggregators, the permutation -> {Toffoli, X} compiler, and
aggregate-cost minimization over equivalence classes.

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

import itertools
import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import (
    OutcomeDistribution,
    Permutation,
    RegisterShape,
)
from .equivalence import ClassPartitionReport, MultiplicityMatrix, multiplicity_key
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

    def add(self, other: "CostVector") -> "CostVector":
        self._check(other)
        return CostVector(
            self.names, tuple(a + b for a, b in zip(self.values, other.values))
        )


def scalar_cost(name: str, value: float) -> CostVector:
    return CostVector((name,), (value,))


@dataclass(frozen=True)
class Aggregator:
    """Permutation-symmetric functional of the per-class minimal costs.

    The budget is a raw threshold tuple (one entry per cost component) so the
    same budget aggregator can be applied under any single-component model.
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

    def __call__(self, minima: Sequence[CostVector]) -> CostVector:
        if not minima:
            raise ValidationError("aggregator requires a non-empty tuple of costs")
        if self.kind == "average":
            names = minima[0].names
            comps = tuple(
                statistics.fmean(m.values[i] for m in minima)
                for i in range(len(names))
            )
            return CostVector(names, comps)
        if self.kind == "max":
            return max(minima)
        count = sum(1 for m in minima if m.within(self.budget))
        return CostVector(("neg_count_within_budget",), (-count,))


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


def transposition_count_cost(p: Permutation) -> CostVector:
    """N minus the number of cycles: the minimal transposition factorization length."""
    return scalar_cost("transpositions", p.size - len(cycles(p)))


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
    and a < b in every factor."""
    weights: Dict[Tuple[int, int], int] = {}

    def fn(p: Permutation) -> CostVector:
        total = 0
        for cyc in cycles(p):
            a = cyc[0]
            for b in cyc[1:]:
                w = weights.get((a, b))
                if w is None:
                    w = weights[a, b] = len(_transposition_gates(a, b, n))
                total += w
        return scalar_cost("gates", total)

    return CostModel("gates", fn)


@dataclass(frozen=True)
class CostModel:
    name: str
    fn: Callable[[Permutation], CostVector]

    def __call__(self, p: Permutation) -> CostVector:
        return self.fn(p)


TRANSPOSITION_MODEL = CostModel("transpositions", transposition_count_cost)


# ---------------------------------------------------------------------------
# Aggregate cost over distribution classes


@dataclass(frozen=True)
class AggregateCostResult:
    aggregates: Dict[str, CostVector]  # by aggregator name
    per_class: Dict[tuple, CostVector]
    minimizers: Dict[tuple, Permutation]


def _fold(
    aggregators: Sequence[Aggregator], minima: List[CostVector]
) -> Dict[str, CostVector]:
    folded = {agg.name: agg(minima) for agg in aggregators}
    if len(folded) != len(aggregators):
        raise ValidationError("aggregator names must be unique")
    return folded


def aggregate_cost(
    partitions: Sequence[ClassPartitionReport],
    cost_model: CostModel,
    aggregators: Sequence[Aggregator],
) -> List[AggregateCostResult]:
    """Exact per-class minimal single costs of each partition, folded by
    every aggregator; one result per partition, in order.

    A permutation's cost does not depend on the state, so one lexicographic
    pass over S_N evaluates ``cost_model`` once per permutation and, for every
    partition, reads the permutation's class from that partition's labels and
    keeps the cheapest permutation of every class. The partitions must be
    exhaustive and share one shape (ValidationError otherwise, and for an
    empty sequence). Ties break to the lexicographically smallest
    permutation. Every aggregator folds over the same minima; aggregator
    names key the result, so they must be unique.
    """
    if not partitions:
        raise ValidationError("cost minimization needs at least one partition")
    shape = partitions[0].shape
    if any(part.shape != shape for part in partitions):
        raise ValidationError("cost minimization needs partitions of one shape")
    if any(part.labels is None for part in partitions):
        raise ValidationError("cost minimization needs an exhaustive partition")
    best = [[None] * part.num_classes for part in partitions]
    best_image = [[None] * part.num_classes for part in partitions]
    perms = itertools.permutations(range(shape.N))
    for image, *labels in zip(perms, *(part.labels for part in partitions)):
        c = cost_model(Permutation(image))
        for b, b_image, label in zip(best, best_image, labels):
            if b[label] is None or c < b[label]:  # strict: first min wins
                b[label] = c
                b_image[label] = image
    results = []
    for part, b, b_image in zip(partitions, best, best_image):
        per_class = dict(zip(part.classes, b))
        minimizers = {key: Permutation(image) for key, image in zip(part.classes, b_image)}
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
class TildePermutation:
    """One permutation block per classical input value (block-diagonal form)."""

    per_input: Tuple[Permutation, ...]

    def __post_init__(self):
        count = len(self.per_input)
        if count < 1 or count & (count - 1):
            raise ShapeError(f"block count {count} is not a power of two")
        if len({p.size for p in self.per_input}) != 1:
            raise ShapeError("all blocks must have equal size")

    @property
    def nx(self) -> int:
        return len(self.per_input).bit_length() - 1


def build_tilde_p(blocks: Sequence[Permutation]) -> TildePermutation:
    return TildePermutation(tuple(blocks))


def secondary_class_key(
    tp: TildePermutation, shape: RegisterShape
) -> Tuple[MultiplicityMatrix, ...]:
    """Ordered tuple of per-block multiplicity keys; the order matters because
    secondary equivalence demands the same distribution for every input."""
    return tuple(multiplicity_key(p, shape) for p in tp.per_input)


def tilde_cost(tp: TildePermutation, cost_model: CostModel) -> CostVector:
    """Default single cost of a block-diagonal permutation: sum of block costs."""
    total = cost_model(tp.per_input[0])
    for p in tp.per_input[1:]:
        total = total.add(cost_model(p))
    return total


@dataclass(frozen=True)
class SecondaryCostResult:
    aggregates: Dict[str, CostVector]  # by aggregator name
    num_secondary_classes: int


# Largest number of secondary classes whose minima are built one by one.
SECONDARY_CLASS_CAP = 10**6


def aggregate_cost_samp_alg(
    primary: AggregateCostResult, nx: int, aggregators: Sequence[Aggregator]
) -> SecondaryCostResult:
    """Aggregate cost over secondary classes built from primary class minima.

    A secondary class is an ordered 2^nx-tuple of primary classes, and the
    block-sum cost of its cheapest member is the sum of per-block minima, so
    the minimization separates and no class member is scanned again; nx = 0
    reduces exactly to the primary aggregates. Raises ResourceLimitError when
    there are more than SECONDARY_CLASS_CAP secondary classes.
    """
    if nx < 0:
        raise ValidationError("nx must be non-negative")
    minima = [primary.per_class[k] for k in sorted(primary.per_class)]
    num_blocks = 1 << nx
    total = len(minima) ** num_blocks
    if total > SECONDARY_CLASS_CAP:
        raise ResourceLimitError(
            f"secondary class count {total} exceeds cap {SECONDARY_CLASS_CAP}"
        )
    secondary_minima = []
    for combo in itertools.product(minima, repeat=num_blocks):
        acc = combo[0]
        for c in combo[1:]:
            acc = acc.add(c)
        secondary_minima.append(acc)
    return SecondaryCostResult(
        aggregates=_fold(aggregators, secondary_minima),
        num_secondary_classes=total,
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
