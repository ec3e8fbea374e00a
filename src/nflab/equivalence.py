"""Distribution and multiplicative equivalence classes of permutations.

A permutation's multiplicity matrix (bins x value-classes occupancy counts) is
the canonical key for its double coset W.S.V, where V is the group of
value-class-preserving permutations and W the group of bin-preserving ones.
The definitional coset-search oracle is kept alongside it for validation.

The distribution-class partition is built on that key for both numeric
backends: permutations are grouped by key, one output distribution is
computed per key, and keys whose distributions coincide (exactly, or pairwise
within a float tolerance) are merged into one class. The permutations are
rows of one integer array, all of S_N for the exhaustive scan, so the keys
are computed for every permutation at once.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    Permutation,
    RegisterShape,
    ResourceState,
    build_input_state,
    compose,
    invert,
    output_distribution,
    transposition,
)
from .errors import ResourceLimitError, ShapeError, ValidationError

MultiplicityMatrix = Tuple[Tuple[int, ...], ...]

DEFAULT_COSET_CAP = 10**7
DEFAULT_TABLE_CAP = 10**6
EXHAUSTIVE_MAX_N = 8
# Rows keyed or costed per step: (N-1)! at N = 8, so a step over S_8 covers
# the permutations with one first point and its temporaries stay small.
CHUNK_ROWS = math.factorial(EXHAUSTIVE_MAX_N - 1)
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


@functools.lru_cache
def _key_function(shape: RegisterShape) -> Callable[[tuple], tuple]:
    """The flattened multiplicity matrix of a permutation image: entry
    y * C + c counts the positions of value class c sent to bin y."""
    B = shape.bin_size
    C = shape.num_value_classes
    value_class = [shape.value_class_of(j) for j in range(shape.N)]
    size = shape.num_bins * C

    def key(image: tuple) -> tuple:
        counts = [0] * size
        for v, c in zip(image, value_class):
            counts[v // B * C + c] += 1
        return tuple(counts)

    return key


def multiplicity_key(p: Permutation, shape: RegisterShape) -> MultiplicityMatrix:
    """counts[y][c] = number of positions in value class c that p sends to bin y."""
    if p.size != shape.N:
        raise ShapeError(f"permutation size {p.size} != N = {shape.N}")
    flat = _key_function(shape)(p.image)
    C = shape.num_value_classes
    return tuple(flat[y * C : (y + 1) * C] for y in range(shape.num_bins))


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


def feasible_vectors(caps: Tuple[int, ...], total: int, cap_count: int) -> list:
    """All vectors m with 0 <= m_c <= caps[c] and sum(m) = total, in
    lexicographic order; ResourceLimitError past ``cap_count`` vectors."""
    vectors: list = []

    def rec(idx: int, remaining: int, prefix: tuple) -> None:
        if idx == len(caps) - 1:
            if remaining <= caps[idx]:
                vectors.append(prefix + (remaining,))
                if len(vectors) > cap_count:
                    raise ResourceLimitError(
                        f"feasible-vector count exceeds cap {cap_count}"
                    )
            return
        lo = max(0, remaining - sum(caps[idx + 1 :]))
        hi = min(caps[idx], remaining)
        for m in range(lo, hi + 1):
            rec(idx + 1, remaining - m, prefix + (m,))

    if not caps:
        raise ShapeError("empty cap vector")
    rec(0, total, ())
    return vectors


def enumerate_class_keys(
    shape: RegisterShape, cap: int = DEFAULT_TABLE_CAP
) -> frozenset:
    """All multiplicity matrices: contingency tables with row sums B and
    column sums equal to the value-class sizes."""
    col_sums = [shape.copies] * shape.resource_dim + [shape.zero_class_size]
    B = shape.bin_size
    rows = shape.num_bins
    tables: list = []

    def rec_rows(row: int, remaining: Tuple[int, ...], acc: tuple):
        if row == rows - 1:
            if sum(remaining) != B:
                return
            tables.append(acc + (remaining,))
            if len(tables) > cap:
                raise ResourceLimitError(f"class enumeration exceeds cap {cap}")
            return
        for choice in feasible_vectors(remaining, B, cap):
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
    representative: Permutation  # the class's first permutation in scan order
    count: int


@dataclass(frozen=True)
class ClassPartitionReport:
    """Grouping of permutations by exact output distribution.

    ``classes`` maps each class's distribution to its ClassInfo, in order of
    first appearance. An exhaustive partition also has ``labels``:
    ``labels[r]`` is the index in ``classes`` of the class holding the
    permutation of lexicographic rank r, so equal label arrays mean identical
    partitions of the full symmetric group. A sampled partition has
    ``labels = None``.
    """

    shape: RegisterShape
    classes: Dict[tuple, ClassInfo]
    labels: Optional[tuple]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def pairs_within(values: Sequence[tuple], tol) -> Iterator[Tuple[int, int]]:
    """Index pairs i < j of the lexicographically sorted ``values`` whose
    entries all differ by at most ``tol``, over every pair, not only
    neighbours in the sorted order."""
    for i, a in enumerate(values):
        for j in range(i + 1, len(values)):
            b = values[j]
            if b[0] - a[0] > tol:
                break  # sorted by first entry: no later value is within tol
            if all(abs(x - y) <= tol for x, y in zip(a, b)):
                yield i, j


def _merge_distributions(dists: Sequence[tuple], tol) -> List[tuple]:
    """Map each distribution to the least distribution of its group.

    Two distributions are within tolerance when every entry differs by at
    most ``tol``. Groups are the connected components of that relation over
    every pair, so the result does not depend on the input order. A group
    whose members are not pairwise within tolerance raises ValidationError:
    the tolerance does not define distribution classes for this state.
    """
    values = sorted(set(dists))
    near = [{i} for i in range(len(values))]  # indices within tol of each value
    for i, j in pairs_within(values, tol):
        near[i].add(j)
        near[j].add(i)
    for i, group in enumerate(near):
        if any(near[k] != group for k in group):
            raise ValidationError(
                f"tolerance {tol} is not transitive here: {values[i]} is within "
                f"it of distributions that are not within it of each other"
            )
    least = {v: values[min(group)] for v, group in zip(values, near)}
    return [least[d] for d in dists]


@functools.lru_cache
def symmetric_group(N: int) -> np.ndarray:
    """All N! permutation images of {0..N-1} as the rows of one read-only
    int8 array in lexicographic order: row r is the permutation of
    lexicographic rank r, as ``itertools.permutations`` yields them.

    Built once per N and shared by every caller, hence read-only; N is at
    most EXHAUSTIVE_MAX_N (ResourceLimitError otherwise), where the table
    holds 8! x 8 bytes.
    """
    if not 1 <= N <= EXHAUSTIVE_MAX_N:
        raise ResourceLimitError(
            f"the symmetric-group table needs 1 <= N <= {EXHAUSTIVE_MAX_N}, got N = {N}"
        )
    count = math.factorial(N)
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(N))),
        dtype=np.int8,
        count=count * N,
    )
    table = flat.reshape(count, N)
    table.flags.writeable = False
    return table


def _key_slots(
    images: np.ndarray, shape: RegisterShape
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Group the rows of ``images`` by multiplicity matrix.

    Position j of a row is a cell (image[j] // B) * C + value class of j; the
    sorted cells of a row are its multiplicity matrix written out entry by
    entry, and their bytes are its key. Cells keep the dtype of ``images``:
    int8 holds them at N <= 8, where every cell is below 2^ny * (2^nq + 1)
    <= 72. Rows are
    keyed CHUNK_ROWS at a time. Returns the slot of every row, one array per
    chunk, with slots numbered by first appearance, and the first row of
    every slot.
    """
    value_class = np.array(
        [shape.value_class_of(j) for j in range(shape.N)], dtype=images.dtype
    )
    key_type = np.dtype((np.void, images.itemsize * shape.N))
    keys, firsts, chunk_slots = [], [], []
    for start in range(0, len(images), CHUNK_ROWS):
        cells = images[start : start + CHUNK_ROWS].copy()
        cells //= shape.bin_size
        cells *= shape.num_value_classes
        cells += value_class
        cells.sort(axis=1)
        chunk_keys, first, inverse = np.unique(
            cells.view(key_type).ravel(), return_index=True, return_inverse=True
        )
        keys.append(chunk_keys)
        firsts.append(first + start)
        chunk_slots.append(inverse)
    # A key's first occurrence in chunk order holds its first row.
    _, where, key_of = np.unique(np.concatenate(keys), return_index=True, return_inverse=True)
    first_rows = np.concatenate(firsts)[where]
    order = np.argsort(first_rows)
    slot_of_key = np.empty_like(order)
    slot_of_key[order] = np.arange(len(order))
    slot_of_entry = slot_of_key[key_of]
    offset = 0
    for i, chunk_keys in enumerate(keys):
        chunk_slots[i] = slot_of_entry[chunk_slots[i] + offset]
        offset += len(chunk_keys)
    return chunk_slots, first_rows[order]


def distribution_class_partition(
    state: ResourceState,
    shape: RegisterShape,
    mode: str = "exhaustive",
    samples: Optional[int] = None,
    seed: Optional[int] = None,
    tolerance: float = FLOAT_CLASS_TOL,
) -> ClassPartitionReport:
    """Group permutations by the output distribution they prepare.

    Exhaustive mode scans all N! permutations, the rows of
    ``symmetric_group(N)`` (guarded at N <= 8), and records each one's class
    in ``labels``; sampled mode draws ``samples`` uniform permutations from
    the stated seed (one ``random.Random(seed).shuffle`` per draw) and keeps
    only the class sizes. Both modes key every permutation by its
    multiplicity matrix with array operations over one array of images,
    CHUNK_ROWS rows at a time; the matrix fixes the distribution, and one
    distribution is computed per distinct key, exactly on rational states
    and by correctly rounded sums on float states. Keys whose distributions are pairwise within ``tolerance`` (0 on
    rational states) form one class, named by its least distribution; a
    tolerance under which closeness is not transitive raises ValidationError.
    Classes are numbered by first appearance, and each one's representative
    is its first permutation in scan order.
    """
    input_state = build_input_state(shape, state)
    if mode == "exhaustive":
        if shape.N > EXHAUSTIVE_MAX_N:
            raise ResourceLimitError(
                f"exhaustive scan requires N <= {EXHAUSTIVE_MAX_N}, got N = {shape.N}"
            )
        images = symmetric_group(shape.N)
    elif mode == "sampled":
        if not samples or samples <= 0:
            raise ValidationError("sampled mode requires a positive sample count")
        rng = random.Random(seed)
        base = list(range(shape.N))

        def draws():
            for _ in range(samples):
                rng.shuffle(base)
                yield from base

        images = np.fromiter(draws(), np.int32, samples * shape.N).reshape(samples, shape.N)
    else:
        raise ValidationError(f"unknown mode {mode!r}")

    chunk_slots, firsts = _key_slots(images, shape)
    first_images = [tuple(images[row].tolist()) for row in firsts]
    dists = [
        output_distribution(input_state, Permutation(image)).probabilities
        for image in first_images
    ]
    tol = 0 if input_state.backend == "rational" else tolerance
    # Slots are numbered by first appearance, so the classes are too, and a
    # class's first slot holds its first permutation.
    order: Dict[tuple, int] = {}
    class_of_slot = [
        order.setdefault(key, len(order)) for key in _merge_distributions(dists, tol)
    ]
    firsts_of_class: Dict[int, tuple] = {}
    for label, image in zip(class_of_slot, first_images):
        firsts_of_class.setdefault(label, image)
    label_of_slot = np.array(class_of_slot)
    counts = np.zeros(len(order), dtype=np.int64)
    labels: list = []
    for slots in chunk_slots:
        chunk_labels = label_of_slot[slots]
        counts += np.bincount(chunk_labels, minlength=len(order))
        labels.extend(chunk_labels.tolist())
    classes = {
        key: ClassInfo(Permutation(firsts_of_class[label]), int(counts[label]))
        for key, label in order.items()
    }
    return ClassPartitionReport(
        shape=shape,
        classes=classes,
        labels=tuple(labels) if mode == "exhaustive" else None,
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
