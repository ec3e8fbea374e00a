"""Distribution and multiplicative equivalence classes of permutations.

A permutation's multiplicity matrix (bins x value-classes occupancy counts) is
the production canonical key for its double coset W.S.V, where V is the group
of value-class-preserving permutations and W the group of bin-preserving ones.
The definitional coset-search oracle is kept alongside it for validation.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, Optional, Tuple

from .core import (
    InputState,
    Permutation,
    RegisterShape,
    ResourceState,
    build_input_state,
    compose,
    invert,
    transposition,
)
from .errors import ResourceLimitError, ShapeError, ValidationError

MultiplicityMatrix = Tuple[Tuple[int, ...], ...]

DEFAULT_COSET_CAP = 10**7
DEFAULT_TABLE_CAP = 10**6
EXHAUSTIVE_MAX_N = 8
FLOAT_CLASS_TOL = 1e-9


# ---------------------------------------------------------------------------
# Block subgroups


@dataclass(frozen=True)
class BlockGroupSpec:
    """One of the two block subgroups: kind "V" preserves value classes,
    kind "W" preserves measurement bins. Blocks are contiguous index ranges;
    a permutation belongs to the group iff it maps every block onto itself."""

    kind: str
    blocks: Tuple[Tuple[int, int], ...]

    def contains(self, p: Permutation) -> bool:
        for start, stop in self.blocks:
            for k in range(start, stop):
                if not (start <= p(k) < stop):
                    return False
        return True

    @property
    def order(self) -> int:
        return math.prod(math.factorial(stop - start) for start, stop in self.blocks)

    def elements(self, cap: int = DEFAULT_COSET_CAP) -> Iterator[Permutation]:
        if self.order > cap:
            raise ResourceLimitError(f"group order {self.order} exceeds cap {cap}")
        per_block = [
            list(itertools.permutations(range(start, stop)))
            for start, stop in self.blocks
        ]
        size = self.blocks[-1][1] if self.blocks else 0
        for choice in itertools.product(*per_block):
            image = [0] * size
            for (start, stop), block_perm in zip(self.blocks, choice):
                for offset, v in enumerate(block_perm):
                    image[start + offset] = v
            yield Permutation(tuple(image))

    def random_element(self, rng: random.Random) -> Permutation:
        size = self.blocks[-1][1] if self.blocks else 0
        image = list(range(size))
        for start, stop in self.blocks:
            chunk = image[start:stop]
            rng.shuffle(chunk)
            image[start:stop] = chunk
        return Permutation(tuple(image))


def value_group_spec(shape: RegisterShape) -> BlockGroupSpec:
    """V: one block per resource value (length 2^nplus) plus the zero block."""
    blocks = [
        (i * shape.copies, (i + 1) * shape.copies) for i in range(shape.resource_dim)
    ]
    if shape.zero_class_size > 0:
        blocks.append((shape.support, shape.N))
    return BlockGroupSpec("V", tuple(blocks))


def bin_group_spec(shape: RegisterShape) -> BlockGroupSpec:
    """W: one block per measurement bin, each of length 2^(n-ny)."""
    B = shape.bin_size
    return BlockGroupSpec(
        "W", tuple((y * B, (y + 1) * B) for y in range(shape.num_bins))
    )


# ---------------------------------------------------------------------------
# Multiplicative equivalence


def multiplicity_key(p: Permutation, shape: RegisterShape) -> MultiplicityMatrix:
    """counts[y][c] = number of positions in value class c that p sends to bin y."""
    if p.size != shape.N:
        raise ShapeError(f"permutation size {p.size} != N = {shape.N}")
    B = shape.bin_size
    counts = [[0] * shape.num_value_classes for _ in range(shape.num_bins)]
    for j in range(shape.N):
        counts[p(j) // B][shape.value_class_of(j)] += 1
    return tuple(tuple(row) for row in counts)


def same_multiplicative_class(
    p: Permutation, s: Permutation, shape: RegisterShape
) -> bool:
    return multiplicity_key(p, shape) == multiplicity_key(s, shape)


def double_coset_oracle(
    p: Permutation,
    s: Permutation,
    shape: RegisterShape,
    cap: int = DEFAULT_COSET_CAP,
) -> bool:
    """Definitional test that p = w*s*v for some w in W, v in V.

    For each v the equation pins w = p * v^-1 * s^-1 uniquely, so the search
    enumerates V and tests the solved w for W-membership; this is exact coset
    search, independent of the multiplicity key it validates.
    """
    if p.size != s.size or p.size != shape.N:
        raise ShapeError("permutation sizes do not match the shape")
    v_spec = value_group_spec(shape)
    w_spec = bin_group_spec(shape)
    if v_spec.order * w_spec.order > cap:
        raise ResourceLimitError(
            f"|W| * |V| = {v_spec.order * w_spec.order} exceeds cap {cap}"
        )
    s_inv = invert(s)
    for v in v_spec.elements(cap):
        w = compose(p, compose(invert(v), s_inv))
        if w_spec.contains(w):
            return True
    return False


# ---------------------------------------------------------------------------
# Class enumeration and counting


def enumerate_class_keys(
    shape: RegisterShape, cap: int = DEFAULT_TABLE_CAP
) -> frozenset:
    """All multiplicity matrices: contingency tables with row sums B and
    column sums equal to the value-class sizes."""
    col_sums = [shape.copies] * shape.resource_dim + [shape.zero_class_size]
    B = shape.bin_size
    rows = shape.num_bins
    tables: list = []

    def row_choices(remaining_cols: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        def rec(idx: int, left: int, prefix: tuple):
            if idx == len(remaining_cols) - 1:
                if left <= remaining_cols[idx]:
                    yield prefix + (left,)
                return
            lo = max(0, left - sum(remaining_cols[idx + 1 :]))
            hi = min(remaining_cols[idx], left)
            for m in range(lo, hi + 1):
                yield from rec(idx + 1, left - m, prefix + (m,))

        yield from rec(0, B, ())

    def rec_rows(row: int, remaining: Tuple[int, ...], acc: tuple):
        if row == rows - 1:
            if sum(remaining) != B:
                return
            tables.append(acc + (remaining,))
            if len(tables) > cap:
                raise ResourceLimitError(f"class enumeration exceeds cap {cap}")
            return
        for choice in row_choices(remaining):
            rec_rows(
                row + 1,
                tuple(r - c for r, c in zip(remaining, choice)),
                acc + (choice,),
            )

    rec_rows(0, tuple(col_sums), ())
    return frozenset(tables)


def count_classes(shape: RegisterShape, cap: int = DEFAULT_TABLE_CAP) -> int:
    """The generic (maximal) number of distribution classes M* for this shape."""
    return len(enumerate_class_keys(shape, cap))


def stars_and_bars_count(n_tilde: int) -> int:
    """Number of distributions on 2^n_tilde points with masses in units of
    1/2^n_tilde: C(2*Ntilde - 1, Ntilde - 1)."""
    if not (0 < n_tilde <= 20):
        raise ValidationError("n_tilde must be in 1..20")
    n_big = 1 << n_tilde
    return math.comb(2 * n_big - 1, n_big - 1)


# ---------------------------------------------------------------------------
# Distribution classes by exhaustive / sampled scan


@dataclass(frozen=True)
class ClassInfo:
    representative: Permutation
    count: int
    members: Tuple[tuple, ...]  # image tuples in lexicographic scan order


@dataclass(frozen=True)
class ClassPartitionReport:
    """Grouping of permutations by exact output distribution.

    In exhaustive mode ``labels[r]`` is the class index of the permutation of
    lexicographic rank r, with classes numbered by first appearance; equal
    label arrays mean identical partitions of the full symmetric group.
    """

    mode: str
    shape: RegisterShape
    backend: str
    classes: Dict[tuple, ClassInfo]
    labels: Optional[tuple]
    tolerance: float

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def _scan_keys_rational(input_state: InputState, perms) -> Iterator[tuple]:
    q = input_state.squared_magnitudes
    den = math.lcm(*(f.denominator for f in q)) if q else 1
    nums = [int(f * den) for f in q]
    shape = input_state.shape
    B = shape.bin_size
    nb = shape.num_bins
    for image in perms:
        sums = [0] * nb
        for j, mass in enumerate(nums):
            sums[image[j] // B] += mass
        yield image, tuple(Fraction(v, den) for v in sums)


def _scan_keys_float(input_state: InputState, perms) -> Iterator[tuple]:
    q = input_state.squared_magnitudes
    shape = input_state.shape
    B = shape.bin_size
    nb = shape.num_bins
    for image in perms:
        bins: list = [[] for _ in range(nb)]
        for j, mass in enumerate(q):
            bins[image[j] // B].append(mass)
        # fsum gives the correctly rounded true sum, so the key is independent
        # of summation order and of which equal-mass indices contribute.
        yield image, tuple(math.fsum(b) for b in bins)


def _merge_float_keys(keys: list, tolerance: float) -> Dict[tuple, tuple]:
    """Map each raw float key to a canonical merged key (adjacent within tol)."""
    mapping: Dict[tuple, tuple] = {}
    canonical: Optional[tuple] = None
    for key in sorted(set(keys)):
        if canonical is not None and all(
            abs(a - b) <= tolerance for a, b in zip(key, canonical)
        ):
            mapping[key] = canonical
        else:
            canonical = key
            mapping[key] = key
    return mapping


def distribution_class_partition(
    state: ResourceState,
    shape: RegisterShape,
    mode: str = "exhaustive",
    samples: Optional[int] = None,
    seed: Optional[int] = None,
    tolerance: float = FLOAT_CLASS_TOL,
) -> ClassPartitionReport:
    """Group permutations by the output distribution they prepare.

    Exhaustive mode scans all N! permutations in lexicographic order (guarded
    at N <= 8); sampled mode draws ``samples`` uniform permutations from the
    stated seed. Rational states are grouped by exact distribution equality,
    float states by correctly rounded bin sums merged within ``tolerance``.
    """
    input_state = build_input_state(shape, state)
    if mode == "exhaustive":
        if shape.N > EXHAUSTIVE_MAX_N:
            raise ResourceLimitError(
                f"exhaustive scan requires N <= {EXHAUSTIVE_MAX_N}, got N = {shape.N}"
            )
        perms = itertools.permutations(range(shape.N))
    elif mode == "sampled":
        if not samples or samples <= 0:
            raise ValidationError("sampled mode requires a positive sample count")
        rng = random.Random(seed)
        base = list(range(shape.N))

        def sampled():
            for _ in range(samples):
                rng.shuffle(base)
                yield tuple(base)

        perms = sampled()
    else:
        raise ValidationError(f"unknown mode {mode!r}")

    scan = (
        _scan_keys_rational if input_state.backend == "rational" else _scan_keys_float
    )
    images: list = []
    raw_keys: list = []
    for image, key in scan(input_state, perms):
        images.append(image)
        raw_keys.append(key)

    if input_state.backend == "float":
        mapping = _merge_float_keys(raw_keys, tolerance)
        raw_keys = [mapping[k] for k in raw_keys]

    order: Dict[tuple, int] = {}
    grouped: Dict[tuple, list] = {}
    labels = []
    for image, key in zip(images, raw_keys):
        if key not in order:
            order[key] = len(order)
            grouped[key] = []
        labels.append(order[key])
        grouped[key].append(image)

    classes = {
        key: ClassInfo(Permutation(members[0]), len(members), tuple(members))
        for key, members in grouped.items()
    }
    return ClassPartitionReport(
        mode=mode,
        shape=shape,
        backend=input_state.backend,
        classes=classes,
        labels=tuple(labels) if mode == "exhaustive" else None,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Degenerate-state collapse witness


def collapse_witness(
    shape: RegisterShape, i_star: int, j_star: int
) -> Tuple[Permutation, Permutation]:
    """The explicit pair (P, S) that merges two classes for a degenerate state.

    ``i_star`` and ``j_star`` are 1-based input-state positions holding the
    two equal-magnitude resource coefficients (position 2^nplus * i for the
    i-th coefficient). P moves i_star to the lowest outcome and j_star to the
    highest; S does the same with the two positions swapped first, so P and S
    prepare equal distributions exactly when the two coefficients coincide.
    """
    N = shape.N
    if not (1 <= i_star <= N and 1 <= j_star <= N) or i_star == j_star:
        raise ValidationError(f"positions ({i_star}, {j_star}) invalid for N = {N}")
    p = compose(
        transposition(i_star - 1, 0, N), transposition(j_star - 1, N - 1, N)
    )
    s = compose(p, transposition(i_star - 1, j_star - 1, N))
    return p, s
