"""Computing distributed functions with PR boxes and one message bit.

Writing y = y0 y1 ... y_{m-1}, any f(x, y) expands over monomials in the
bits of y:

    f(x, y) = c_{}(x) XOR XOR_{S != {}} c_S(x) * prod_{i in S} y_i,

the algebraic normal form over y with x held fixed.  Each non-empty S whose
coefficient c_S is non-constant in x costs one PR box: Alice inputs
alpha = c_S(x), Bob inputs beta = prod_{i in S} y_i, and the box outputs
a, b with a XOR b = alpha * beta -- with probability (1 + e)/2 for a box of
bias e in [-1, 1] (e = 1 is a perfect box, e = 0 a uniformly random one).
Alice's single message bit is c_{}(x) XOR all her box outputs; Bob XORs in
his box outputs and the locally computable monomials whose coefficient is
the constant 1.  Every box is always invoked, so the guess fails exactly
when an odd number of boxes err and the success probability

    Pr[g = f(x, y)] = (1 + prod_i e_i) / 2

is independent of the inputs.  ``success_probability`` returns that product
form, which is exact: no enumeration of the 2**boxes error patterns is needed.

The coefficients are kept as one bit-packed (|X|, ceil(|Y| / 8)) uint8
matrix, the Moebius transform of the truth table along y, each row padded
with zero bits to a whole byte; ``VanDamDecomposition`` gives its layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .boolfn import BooleanFunction, FunctionFamily, InputDistribution, build_family
from .errors import ArgumentError, UnsupportedSizeError, _integer, _real, _real_entries
from .icbound import (
    BoundReport,
    Symmetric,
    _RefinementTrace,
    compute_bound,
    standard_ordering,
)
from .infocalc import TOLERANCE


#: ``VanDamDecomposition.column_blocks`` unpacks about this many bits per block.
_COLUMN_BLOCK_BITS = 1 << 22


@dataclass(frozen=True, eq=False)
class VanDamDecomposition:
    """ANF-over-y coefficients of a function, one bit column per y-bit subset.

    ``anf`` is the read-only (x_size, ceil(2**y_bits / 8)) uint8 matrix of
    bit-packed rows, MSB first: bit m of row x, that is bit 7 - (m & 7) of
    byte m >> 3, is c_S(x) for the subset S of positions whose bits are set
    in m (position i is bit y_bits - 1 - i of m, so mask 0b110 with
    y_bits = 3 is S = (0, 1)).  When y_bits < 3 each row is padded with
    zero bits to a whole byte, as ``np.packbits(..., axis=1)`` pads; the
    padding belongs to no subset and stays zero.  Subset lists are in
    (size, subset) order, which within one size is decreasing mask order.
    """

    x_size: int
    y_bits: int
    anf: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, VanDamDecomposition):
            return NotImplemented
        return self.y_bits == other.y_bits and np.array_equal(self.anf, other.anf)

    __hash__ = None

    def subset(self, mask: int) -> tuple:
        """The positions whose bits are set in ``mask``, ascending."""
        if type(mask) is not int or not 0 <= mask < 1 << self.y_bits:
            mask = _integer(mask, "mask", 0, (1 << self.y_bits) - 1)
        return tuple(i for i in range(self.y_bits) if mask >> (self.y_bits - 1 - i) & 1)

    def subsets(self, selected=None) -> list:
        """(mask, subset) for every mask, or each ``selected`` one, in (size, subset) order."""
        masks = range(1 << self.y_bits) if selected is None else np.flatnonzero(selected).tolist()
        return [(m, self.subset(m)) for m in sorted(masks, key=lambda m: (m.bit_count(), -m))]

    def _unpacked(self, rows: np.ndarray) -> np.ndarray:
        """Packed rows (or one row) as one uint8 per mask, padding dropped."""
        return np.unpackbits(rows, axis=-1, count=1 << self.y_bits)

    @cached_property
    def _varying(self) -> np.ndarray:
        """A packed row whose bit m is set where c_S takes both values over x.

        The rows are reduced as unsigned words of up to 8 bytes, so a
        narrow row (Index(16)'s 2 bytes) is one element, not a short loop.
        """
        rows = np.ascontiguousarray(self.anf).view(f"u{min(self.anf.shape[1], 8)}")
        varying = np.bitwise_or.reduce(rows, axis=0) ^ np.bitwise_and.reduce(rows, axis=0)
        return varying.view(np.uint8)

    @cached_property
    def constant(self) -> np.ndarray:
        """Per column: is c_S the same for every x."""
        return self._unpacked(self._varying) == 0

    @cached_property
    def coefficients(self) -> dict:
        """Each subset S mapped to the tuple of its coefficient bits over x."""
        columns = self._unpacked(self.anf).T.tolist()
        return {self.subset(m): tuple(bits) for m, bits in enumerate(columns)}

    @cached_property
    def message_term(self) -> tuple:
        """c_{}: the coefficient Alice folds into her message."""
        return tuple((self.anf[:, 0] >> 7).tolist())

    @cached_property
    def boxes(self) -> tuple:
        """Non-empty subsets with x-dependent coefficients; one PR box each."""
        return tuple(s for m, s in self.subsets(~self.constant) if m)

    @cached_property
    def local_terms(self) -> tuple:
        """Non-empty subsets with constant-1 coefficients; Bob computes these."""
        ones = self._unpacked(self.anf[0]) == 1
        return tuple(s for m, s in self.subsets(self.constant & ones) if m)

    @property
    def box_count(self) -> int:
        """Varying columns other than mask 0 (the top bit of the first byte)."""
        return int(np.bitwise_count(self._varying).sum()) - int(self._varying[0] >> 7)

    def column_blocks(self, masks):
        """Yield the bits of the columns ``masks`` over x, in that order.

        Each block is a (columns, x_size) uint8 array of about
        ``_COLUMN_BLOCK_BITS`` bits, so only one block is unpacked at a
        time.  The packed matrix is first transposed at the byte level
        (row j holds byte j of every packed row), after which a block is one
        row gather, one shift and one mask.
        """
        masks = np.asarray(masks, dtype=np.int64)
        byte_columns = np.ascontiguousarray(self.anf.T)
        block = max(1, _COLUMN_BLOCK_BITS // self.x_size)
        for start in range(0, masks.size, block):
            chunk = masks[start:start + block]
            shifts = (7 - (chunk & 7)).astype(np.uint8)[:, None]
            yield (np.take(byte_columns, chunk >> 3, axis=0) >> shifts) & 1

    def value(self, x: int, y: int) -> int:
        """Reconstruct f(x, y): the XOR of column m at x over masks m with m & y == m."""
        y_size = 1 << self.y_bits
        x, y = _integer(x, "x", 0, self.x_size - 1), _integer(y, "y", 0, y_size - 1)
        masks = np.arange(y_size)
        return int(self._unpacked(self.anf[x])[(masks & y) == masks].sum() & 1)


#: Levels 0-5 of the Moebius transform on little-endian uint64 words, as
#: (shift, amount, mask): a column whose level bit is set takes
#: ``shift(w, amount) & mask``.  Levels 0-2 pair columns inside a byte, the
#: partner being the next more significant bit (right shift); levels 3-5
#: pair bytes 1, 2 and 4 apart, the partner being the byte below (left
#: shift).  Each mask keeps only bits whose partner lies in the same byte or
#: word, so no level mixes two rows.
_WORD_LEVELS = (
    (np.right_shift, 1, np.uint64(0x5555_5555_5555_5555)),
    (np.right_shift, 2, np.uint64(0x3333_3333_3333_3333)),
    (np.right_shift, 4, np.uint64(0x0F0F_0F0F_0F0F_0F0F)),
    (np.left_shift, 8, np.uint64(0xFF00_FF00_FF00_FF00)),
    (np.left_shift, 16, np.uint64(0xFFFF_0000_FFFF_0000)),
    (np.left_shift, 32, np.uint64(0xFFFF_FFFF_0000_0000)),
)


def decompose(f: BooleanFunction) -> VanDamDecomposition:
    """ANF of f over the bits of y, per fixed x (Moebius transform).

    One in-place butterfly per bit of y on the packed rows: at level l,
    every column whose bit l is set takes the XOR of its partner with that
    bit clear.  The rows are copied once into a zero-padded buffer of
    little-endian uint64 words; levels 0-5 are one shift, mask and XOR
    over all words (``_WORD_LEVELS``) and levels from 6 on XOR whole word
    slices.  The padding, whole zero bytes at the end and zero bits after
    each row of fewer than 8 columns, stays zero at every level.  Requires
    y_size to be a power of two so the bits of y are well defined.
    """
    n_bits = f.y_size.bit_length() - 1
    if (1 << n_bits) != f.y_size:
        raise UnsupportedSizeError(
            f"decomposition requires |Y| a power of two, got {f.y_size}"
        )
    rows = f.packed_rows()
    words = np.zeros(-(-rows.size // 8), dtype="<u8")
    words.view(np.uint8)[: rows.size] = rows.ravel()
    scratch = np.empty_like(words)
    for level in range(n_bits):
        if level < len(_WORD_LEVELS):
            shift, amount, mask = _WORD_LEVELS[level]
            shift(words, amount, out=scratch)
            scratch &= mask
            words ^= scratch
        else:  # rows of 16 bytes or more: XOR word slices 2**(level - 6) long
            v = words.reshape(-1, 2, 1 << (level - len(_WORD_LEVELS)))
            v[:, 1] ^= v[:, 0]
    words.flags.writeable = False
    anf = words.view(np.uint8)[: rows.size].reshape(rows.shape)
    return VanDamDecomposition(f.x_size, n_bits, anf)


def box_count(f: BooleanFunction) -> int:
    """Number of non-local AND operations (PR boxes) the protocol needs."""
    return decompose(f).box_count


def success_probability(decomposition: VanDamDecomposition, biases) -> float:
    """Exact Pr[g = f(x, y)] of the protocol under per-box biases.

    Box i errs independently with probability (1 - e_i)/2, and the guess is
    correct exactly when an even number of boxes err.  Summed over the error
    patterns that is (1 + prod_i e_i)/2, independent of (x, y), which is what
    is returned: the cost is linear in the number of boxes.  Each bias must
    lie in [-1, 1].
    """
    bs = _real_entries(list(biases), "biases", -1, 1).tolist()
    if len(bs) != decomposition.box_count:
        raise ArgumentError(f"expected {decomposition.box_count} biases (one per box), got {len(bs)}")
    return (1.0 + math.prod(bs)) / 2.0


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of testing a PR-box protocol against the information bound."""

    success_probability: float
    epsilon: float
    message_bits: int
    bound_total: float
    violated: bool
    no_signal: bool
    bound: Optional[BoundReport]


def violation_check(family: FunctionFamily, biases, message_bits: int) -> ViolationReport:
    """Does the biased-box protocol for a family break the m-bit bound?

    Sets the guess error to one minus the protocol's success probability and
    evaluates the bound under the family's standard ordering.  A success
    probability at or below 1/2 carries no signal and is reported as such
    (bound 0, not violated) rather than treated as an error.
    ``message_bits`` must be an integer >= 1, else ``ArgumentError``.
    """
    message_bits = _integer(message_bits, "message_bits", 1)
    f = build_family(family)
    return _violation_report(family, f, decompose(f), biases, message_bits)


def _violation_report(
    family: FunctionFamily,
    f: BooleanFunction,
    decomposition: VanDamDecomposition,
    biases,
    message_bits: int,
) -> ViolationReport:
    """``violation_check`` for a family whose table and decomposition are
    built; the caller has checked ``message_bits``."""
    p = success_probability(decomposition, biases)
    eps = 1.0 - p
    if eps >= 0.5:
        return ViolationReport(
            success_probability=p,
            epsilon=eps,
            message_bits=message_bits,
            bound_total=0.0,
            violated=False,
            no_signal=True,
            bound=None,
        )
    report = compute_bound(
        f, InputDistribution.uniform(f.x_size), standard_ordering(family), Symmetric(eps)
    )
    return ViolationReport(
        success_probability=p,
        epsilon=eps,
        message_bits=message_bits,
        bound_total=report.total,
        # Compared first as they are: message_bits may be beyond the float range.
        violated=message_bits < report.total and report.total > message_bits + TOLERANCE,
        no_signal=False,
        bound=report,
    )


def max_bias(family: FunctionFamily, message_bits: int, precision: float = 1e-9) -> float:
    """Largest effective box bias the m-bit bound tolerates for a family.

    ``e`` is the bias of a single effective box (equivalently the product of
    the per-box biases), so the guess error is (1 - e)/2.  The bound under
    the family's standard ordering is monotone non-decreasing in e; the
    threshold is located by bisection to the given absolute precision, or
    until the two ends are adjacent floats.  Returns 1.0 when even perfect
    boxes stay within the bound.

    The table is refined once, with adjacent cells of one step that share q
    merged (``icbound._RefinementTrace``); each bisection probe then only
    evaluates the channel's phi once per merged entry and sums every step
    in one pass, giving the same terms ``compute_bound`` would.
    ``message_bits`` must be an integer >= 1 and ``precision`` a real number
    >= 0 (an infinity, or an integer beyond the float range, stops the
    bisection at once); anything else raises ``ArgumentError``.
    """
    message_bits = _integer(message_bits, "message_bits", 1)
    precision = _real(precision, "precision", 0, math.inf)
    f = build_family(family)
    dist = InputDistribution.uniform(f.x_size)
    trace = _RefinementTrace(f, dist, standard_ordering(family).perm)

    def bound_at(e: float) -> float:
        if e <= 0.0:
            return 0.0
        return math.fsum(trace.terms(Symmetric((1.0 - e) / 2.0)))

    if bound_at(1.0) <= message_bits:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if bound_at(mid) <= message_bits:
            lo = mid
        else:
            hi = mid
    return lo
