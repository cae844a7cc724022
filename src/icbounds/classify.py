"""Equivalence classes of distributed Boolean functions on two-bit inputs.

For X = Y = {0,1}^2, the history-conditioned information sum is read off in
the fixed enumeration order of Bob's inputs y = 00, 01, 10, 11.  Two
functions are equivalent when the resulting term sequences coincide after
dropping vanishing terms, up to invertible affine relabellings of Alice's
bits, relabelling the values of the conditioned variables, and flipping the
output by a constant per Bob input.

The signature operationalizing this is integer-exact: run partition
refinement over X with uniform unit counts, visiting the columns in
enumeration order.  Each step records the sorted multiset of pairs
(cell size, min(ones, size - ones)) over cells on which the function value
is not yet determined (min > 0); steps with no such cell are omitted, since
their information terms vanish for every channel.  A constant function
therefore has the empty signature.  Each pair (s, m) fixes its term's value
for every label-symmetric channel, so equal signatures give equal sums.

The signature is invariant under permutations of X (cells only get renamed)
and under per-y output flips (min(ones, size - ones) is complement
invariant).  It is deliberately *not* invariant under reordering Bob's
inputs: swapping the first two columns of a class-V function produces a
class-VI function, so the eight classes themselves are tied to the
enumeration order.  The census over all 65,536 functions groups them into
exactly eight classes, labelled I..VIII via hand-built representatives; any
other outcome raises ``CensusMismatchError``.

The census does not refine the functions one by one.  A function is its four
column masks, and each signature step depends only on the current partition
of X (one of 15) and the next column, so the census counts functions per
(partition, steps so far) state, extending every state by all 16 columns at
each of the four levels: 23 states remain at the end.  ``signature`` and the
census share the one-step helper ``_step``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .boolfn import BooleanFunction, apply_x_substitution
from .errors import CensusMismatchError, HierarchyViolationError, UnsupportedSizeError

#: The classification is defined for X = Y = {0,1}^2 only.
SUPPORTED_SIZE = 4

_FULL_CELL = 0b1111

_CLASS_LABELS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII")


@dataclass(frozen=True)
class ClassSignature:
    """Partition signature of a function in the enumeration order of Y."""

    steps: tuple

    @property
    def is_trivial(self) -> bool:
        return not self.steps


class CensusEntry(NamedTuple):
    label: str
    count: int


@dataclass(frozen=True)
class HierarchyCheck:
    source: str
    target: str
    substitution: tuple
    passed: bool


def _column_masks(f: BooleanFunction) -> tuple:
    masks = []
    for y in range(4):
        m = 0
        for x in range(4):
            m |= f.bit(x, y) << x
        masks.append(m)
    return tuple(masks)


def _step(cells, col) -> tuple:
    """One refinement step: the sorted (size, min-ones) pairs of the cells on
    which ``col`` is not yet determined, and the cells split by ``col``."""
    pairs = []
    refined = []
    for cell in cells:
        ones_mask = cell & col
        zeros_mask = cell & ~col & _FULL_CELL
        size = cell.bit_count()
        low = min(ones_mask.bit_count(), size - ones_mask.bit_count())
        if low > 0:
            pairs.append((size, low))
        if ones_mask:
            refined.append(ones_mask)
        if zeros_mask:
            refined.append(zeros_mask)
    return tuple(sorted(pairs)), refined


def _steps_signature(cols) -> tuple:
    """Step sequence of sorted (size, min-ones) multisets for one column order."""
    cells = [_FULL_CELL]
    steps = []
    for col in cols:
        pairs, cells = _step(cells, col)
        if pairs:
            steps.append(pairs)
    return tuple(steps)


def _check_size(f: BooleanFunction) -> None:
    if f.x_size != SUPPORTED_SIZE or f.y_size != SUPPORTED_SIZE:
        raise UnsupportedSizeError(
            f"classification requires x_size = y_size = 4, got {f.x_size} x {f.y_size}"
        )


def signature(f: BooleanFunction) -> ClassSignature:
    """Signature of a function with X = Y = {0,1}^2 (enumeration order of Y)."""
    _check_size(f)
    return ClassSignature(_steps_signature(_column_masks(f)))


def per_ordering_signature(f: BooleanFunction, perm) -> tuple:
    """Step sequence for an explicit ordering of Y (inspection helper)."""
    _check_size(f)
    perm = tuple(int(v) for v in perm)
    if sorted(perm) != list(range(4)):
        raise UnsupportedSizeError(f"not a permutation of 0..3: {perm!r}")
    masks = _column_masks(f)
    return _steps_signature(tuple(masks[y] for y in perm))


# ---------------------------------------------------------------------------
# Representatives and labels
# ---------------------------------------------------------------------------

# Subfunctions of x = x0 x1 as membership masks over x indices 0..3
# (bit x of the mask is the value at x; x0 is the MSB of the index).
_X_BASIS = {
    "0": 0b0000,
    "x0": 0b1100,
    "x1": 0b1010,
    "x0*x1": 0b1000,
}

# One representative per class, as the subfunctions used at y = 00, 01, 10, 11.
_REPRESENTATIVE_COLUMNS = {
    "I": ("0", "0", "0", "0"),
    "II": ("x0", "0", "0", "0"),
    "III": ("x0*x1", "0", "0", "0"),
    "IV": ("x0", "x1", "0", "0"),
    "V": ("x0", "x0*x1", "0", "0"),
    "VI": ("x0*x1", "x0", "0", "0"),
    "VII": ("x0", "x0*x1", "x1", "0"),
    "VIII": ("x0*x1", "x0", "x1", "0"),
}


def _function_from_masks(cols) -> BooleanFunction:
    bits = [0] * 16
    for y, mask in enumerate(cols):
        for x in range(4):
            bits[x * 4 + y] = (mask >> x) & 1
    return BooleanFunction(4, 4, bits)


def _build_representatives() -> dict:
    reps = {}
    for label, names in _REPRESENTATIVE_COLUMNS.items():
        reps[label] = _function_from_masks(tuple(_X_BASIS[n] for n in names))
    return reps


CLASS_REPRESENTATIVES = _build_representatives()

_REP_SIGNATURES = {signature(f): label for label, f in CLASS_REPRESENTATIVES.items()}
if len(_REP_SIGNATURES) != len(_CLASS_LABELS):  # pragma: no cover - structural guard
    raise CensusMismatchError(
        "class representatives are not pairwise signature-distinct",
        _REP_SIGNATURES.keys(),
    )


def classify_function(f: BooleanFunction):
    """Class label of a function, or None when its signature matches no class."""
    return _REP_SIGNATURES.get(signature(f))


# ---------------------------------------------------------------------------
# Census over all 65,536 functions
# ---------------------------------------------------------------------------


def _signature_counts() -> Counter:
    """Count all 2**16 functions by signature step sequence, per
    (partition, steps so far) state, one column at a time (see the module
    docstring)."""
    states = Counter({((_FULL_CELL,), ()): 1})
    for _ in range(SUPPORTED_SIZE):
        extended = Counter()
        for (cells, steps), count in states.items():
            for col in range(1 << SUPPORTED_SIZE):
                pairs, refined = _step(cells, col)
                grown = steps + (pairs,) if pairs else steps
                extended[tuple(sorted(refined)), grown] += count
        states = extended
    counts = Counter()
    for (_, steps), count in states.items():
        counts[steps] += count
    return counts


def census(threads: int = 1) -> dict:
    """Group all 2**16 functions on {0,1}^2 x {0,1}^2 by signature.

    Returns ``{ClassSignature: CensusEntry(label, count)}`` with labels
    matched against the eight built-in representatives.  Raises
    ``CensusMismatchError`` when the grouping does not reproduce exactly
    those eight classes.  ``threads`` is accepted for compatibility and has
    no effect: the count runs over a few dozen partition states, not over
    the functions one by one.
    """
    sig_counts = {ClassSignature(key): cnt for key, cnt in _signature_counts().items()}
    unknown = [sig for sig in sig_counts if sig not in _REP_SIGNATURES]
    if unknown or len(sig_counts) != len(_CLASS_LABELS):
        raise CensusMismatchError(
            f"expected exactly {len(_CLASS_LABELS)} classes, found {len(sig_counts)} "
            f"({len(unknown)} without a matching representative)",
            unknown,
        )
    return {
        sig: CensusEntry(_REP_SIGNATURES[sig], count) for sig, count in sig_counts.items()
    }


def census_table(threads: int = 1) -> list:
    """Census as a list of (label, count, representative) sorted by label."""
    by_label = {entry.label: entry.count for entry in census(threads).values()}
    return [
        (label, by_label[label], CLASS_REPRESENTATIVES[label])
        for label in _CLASS_LABELS
    ]


# ---------------------------------------------------------------------------
# Hierarchy spot checks
# ---------------------------------------------------------------------------


def _substitution_from_bit_map(mapper) -> tuple:
    sigma = []
    for x in range(4):
        x0, x1 = (x >> 1) & 1, x & 1
        n0, n1 = mapper(x0, x1)
        sigma.append((n0 << 1) | n1)
    return tuple(sigma)


_HIERARCHY_MAPS = (
    ("II", "III", _substitution_from_bit_map(lambda x0, x1: (x0 & x1, x1))),
    ("IV", "V", _substitution_from_bit_map(lambda x0, x1: (x0, x0 & x1))),
)


def hierarchy_check() -> tuple:
    """Verify the substitution-checkable class implications.

    Composing a representative with a non-invertible map on Alice's bits must
    land in the asserted weaker class: II -> III under
    (x0, x1) -> (x0*x1, x1) and IV -> V under (x0, x1) -> (x0, x0*x1).
    """
    results = []
    for source, target, sigma in _HIERARCHY_MAPS:
        image = apply_x_substitution(CLASS_REPRESENTATIVES[source], sigma)
        got = classify_function(image)
        if got != target:
            raise HierarchyViolationError(
                f"substituting {sigma} into class {source} gave class {got!r}, "
                f"expected {target}"
            )
        results.append(HierarchyCheck(source, target, sigma, True))
    return tuple(results)


# ---------------------------------------------------------------------------
# Affine input relabellings
# ---------------------------------------------------------------------------


def affine_x_maps() -> tuple:
    """All 24 invertible affine maps of Alice's two bits, as substitutions.

    Each map sends (x0, x1) to M (x0, x1)^T + c over GF(2) with M invertible
    (6 choices) and c arbitrary (4 choices).
    """
    maps = []
    for m00, m01, m10, m11 in ((a, b, c, d) for a in (0, 1) for b in (0, 1)
                               for c in (0, 1) for d in (0, 1)):
        if (m00 & m11) ^ (m01 & m10) != 1:
            continue
        for c0 in (0, 1):
            for c1 in (0, 1):
                sigma = _substitution_from_bit_map(
                    lambda x0, x1, a=m00, b=m01, c=m10, d=m11, e0=c0, e1=c1: (
                        (a & x0) ^ (b & x1) ^ e0,
                        (c & x0) ^ (d & x1) ^ e1,
                    )
                )
                maps.append(sigma)
    return tuple(maps)
