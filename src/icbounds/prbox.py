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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def _subset_order(subset: tuple) -> tuple:
    return (len(subset), subset)


@dataclass(frozen=True)
class VanDamDecomposition:
    """ANF-over-y coefficients of a function, keyed by y-bit position subsets.

    ``coefficients`` maps each subset S (a sorted tuple of positions, MSB
    convention: position i is the i-th written bit of y) to the tuple of
    coefficient bits over x.  The box and local-term lists are fixed at
    construction: ``decompose`` passes them in from its coefficient array,
    and they are derived from ``coefficients`` when left out.
    """

    x_size: int
    y_bits: int
    coefficients: dict
    _boxes: Optional[tuple] = field(default=None, repr=False, compare=False)
    _local_terms: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._boxes is None or self._local_terms is None:
            nonempty = [s for s in sorted(self.coefficients, key=_subset_order) if s]
            values = {s: set(self.coefficients[s]) for s in nonempty}
            boxes = tuple(s for s in nonempty if len(values[s]) > 1)
            local_terms = tuple(s for s in nonempty if values[s] == {1})
            object.__setattr__(self, "_boxes", boxes)
            object.__setattr__(self, "_local_terms", local_terms)

    @property
    def message_term(self) -> tuple:
        """c_{}: the coefficient Alice folds into her message."""
        return self.coefficients[()]

    @property
    def boxes(self) -> tuple:
        """Non-empty subsets with x-dependent coefficients; one PR box each."""
        return self._boxes

    @property
    def local_terms(self) -> tuple:
        """Non-empty subsets with constant-1 coefficients; Bob computes these."""
        return self._local_terms

    @property
    def box_count(self) -> int:
        return len(self.boxes)

    def monomial(self, subset, y: int) -> int:
        """prod_{i in subset} y_i for the y-index ``y``."""
        return int(all((y >> (self.y_bits - 1 - i)) & 1 for i in subset))

    def value(self, x: int, y: int) -> int:
        """Reconstruct f(x, y) from the coefficients."""
        acc = 0
        for subset, bits in self.coefficients.items():
            acc ^= bits[x] & self.monomial(subset, y)
        return acc


def decompose(f: BooleanFunction) -> VanDamDecomposition:
    """ANF of f over the bits of y, per fixed x (Moebius transform).

    Requires y_size to be a power of two so the bits of y are well defined.
    """
    n_bits = f.y_size.bit_length() - 1
    if (1 << n_bits) != f.y_size:
        raise UnsupportedSizeError(
            f"decomposition requires |Y| a power of two, got {f.y_size}"
        )
    anf = f.table_array().astype(np.uint8).copy()
    for level in range(n_bits):
        step = 1 << level
        for start in range(0, f.y_size, step << 1):
            anf[:, start + step:start + 2 * step] ^= anf[:, start:start + step]
    rows = np.ascontiguousarray(anf.T)
    subsets = [
        tuple(i for i in range(n_bits) if (mask >> (n_bits - 1 - i)) & 1)
        for mask in range(f.y_size)
    ]
    coefficients = {s: tuple(row.tolist()) for s, row in zip(subsets, rows)}
    low, high = rows.min(axis=1), rows.max(axis=1)
    ordered = sorted(range(1, f.y_size), key=lambda mask: _subset_order(subsets[mask]))
    return VanDamDecomposition(
        x_size=f.x_size,
        y_bits=n_bits,
        coefficients=coefficients,
        _boxes=tuple(subsets[m] for m in ordered if low[m] != high[m]),
        _local_terms=tuple(subsets[m] for m in ordered if low[m] == 1),
    )


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
