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

The coefficients are kept as one (|X|, |Y|) uint8 matrix, the Moebius
transform of the truth table along y; ``VanDamDecomposition`` gives its layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .boolfn import BooleanFunction, FunctionFamily, InputDistribution, build_family
from .errors import ArgumentError, UnsupportedSizeError
from .icbound import (
    BoundReport,
    Symmetric,
    _RefinementTrace,
    compute_bound,
    standard_ordering,
)
from .infocalc import TOLERANCE


@dataclass(frozen=True, eq=False)
class VanDamDecomposition:
    """ANF-over-y coefficients of a function, one column per y-bit subset.

    ``anf`` is the read-only (x_size, 2**y_bits) uint8 matrix whose column m
    is c_S(x) for the subset S of positions whose bits are set in m (MSB
    convention: position i is bit y_bits - 1 - i of m, so mask 0b110 with
    y_bits = 3 is S = (0, 1)).  Subset lists are in (size, subset) order,
    which within one size is decreasing mask order.
    """

    x_size: int
    y_bits: int
    anf: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, VanDamDecomposition):
            return NotImplemented
        return np.array_equal(self.anf, other.anf)

    __hash__ = None

    def subset(self, mask: int) -> tuple:
        """The positions whose bits are set in ``mask``, ascending."""
        return tuple(i for i in range(self.y_bits) if mask >> (self.y_bits - 1 - i) & 1)

    def subsets(self, selected=None) -> list:
        """(mask, subset) for every mask, or each ``selected`` one, in (size, subset) order."""
        masks = range(self.anf.shape[1]) if selected is None else np.flatnonzero(selected).tolist()
        return [(m, self.subset(m)) for m in sorted(masks, key=lambda m: (m.bit_count(), -m))]

    @cached_property
    def constant(self) -> np.ndarray:
        """Per column: is c_S the same for every x."""
        return self.anf.min(axis=0) == self.anf.max(axis=0)

    @cached_property
    def coefficients(self) -> dict:
        """Each subset S mapped to the tuple of its coefficient bits over x."""
        return {self.subset(m): tuple(bits) for m, bits in enumerate(self.anf.T.tolist())}

    @cached_property
    def message_term(self) -> tuple:
        """c_{}: the coefficient Alice folds into her message."""
        return tuple(self.anf[:, 0].tolist())

    @cached_property
    def boxes(self) -> tuple:
        """Non-empty subsets with x-dependent coefficients; one PR box each."""
        return tuple(s for m, s in self.subsets(~self.constant) if m)

    @cached_property
    def local_terms(self) -> tuple:
        """Non-empty subsets with constant-1 coefficients; Bob computes these."""
        return tuple(s for m, s in self.subsets(self.constant & (self.anf[0] == 1)) if m)

    @property
    def box_count(self) -> int:
        return len(self.boxes)

    def monomial(self, subset, y: int) -> int:
        """prod_{i in subset} y_i for the y-index ``y``."""
        return int(all((y >> (self.y_bits - 1 - i)) & 1 for i in subset))

    def value(self, x: int, y: int) -> int:
        """Reconstruct f(x, y): the XOR of column m at x over masks m with m & y == m."""
        masks = np.arange(self.anf.shape[1])
        return int(self.anf[x, (masks & y) == masks].sum() & 1)


def decompose(f: BooleanFunction) -> VanDamDecomposition:
    """ANF of f over the bits of y, per fixed x (Moebius transform).

    One in-place butterfly per bit of y: at level l, every column whose bit
    l is set takes the XOR of its partner with that bit clear.  Requires
    y_size to be a power of two so the bits of y are well defined.
    """
    n_bits = f.y_size.bit_length() - 1
    if (1 << n_bits) != f.y_size:
        raise UnsupportedSizeError(
            f"decomposition requires |Y| a power of two, got {f.y_size}"
        )
    anf = f.table_array()
    for level in range(n_bits):
        v = anf.reshape(f.x_size, -1, 2, 1 << level)
        v[:, :, 1] ^= v[:, :, 0]
    anf.flags.writeable = False
    return VanDamDecomposition(f.x_size, n_bits, anf)


def box_count(f: BooleanFunction) -> int:
    """Number of non-local AND operations (PR boxes) the protocol needs."""
    return decompose(f).box_count


def _validated_biases(decomposition: VanDamDecomposition, biases) -> list:
    bs = [float(e) for e in biases]
    if len(bs) != decomposition.box_count:
        raise ArgumentError(
            f"expected {decomposition.box_count} biases (one per box), got {len(bs)}"
        )
    for e in bs:
        if not -1.0 <= e <= 1.0:
            raise ArgumentError(f"bias must lie in [-1, 1], got {e!r}")
    return bs


def success_probability(decomposition: VanDamDecomposition, biases) -> float:
    """Exact Pr[g = f(x, y)] of the protocol under per-box biases.

    Box i errs independently with probability (1 - e_i)/2, and the guess is
    correct exactly when an even number of boxes err.  Summed over the error
    patterns that is (1 + prod_i e_i)/2, independent of (x, y), which is what
    is returned: the cost is linear in the number of boxes.
    """
    return (1.0 + math.prod(_validated_biases(decomposition, biases))) / 2.0


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
    """
    f = build_family(family)
    return _violation_report(family, f, decompose(f), biases, message_bits)


def _violation_report(
    family: FunctionFamily,
    f: BooleanFunction,
    decomposition: VanDamDecomposition,
    biases,
    message_bits: int,
) -> ViolationReport:
    """``violation_check`` for a family whose table and decomposition are built."""
    if message_bits < 1:
        raise ArgumentError(f"message_bits must be >= 1, got {message_bits}")
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
        violated=report.total > message_bits + TOLERANCE,
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

    The table is refined once; each bisection probe then only evaluates the
    channel's phi over the stored cells and sums the same terms
    ``compute_bound`` would.
    """
    if message_bits < 1:
        raise ArgumentError(f"message_bits must be >= 1, got {message_bits}")
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
