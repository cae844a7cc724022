"""Shannon-information primitives on explicit finite distributions.

All quantities are in bits (base-2 logarithms) and use the convention
0*log(0) = 0.  Conditional mutual information is computed from an explicit
joint probability table by marginalization and the standard sum

    I(A;B|C) = sum_{a,b,c} p(a,b,c) * log2( p(a,b,c) p(c) / (p(a,c) p(b,c)) ),

where outcomes of probability zero contribute nothing (a vanishing p(a,c),
p(b,c) or p(c) forces p(a,b,c) = 0, so no division by zero can occur among
the retained terms).

``TOLERANCE`` is the single absolute tolerance used by equality assertions
throughout the package; every reported bound is meaningful only up to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

#: Shared absolute tolerance for floating-point equality checks.
TOLERANCE = 1e-9


def binary_entropy(p: float) -> float:
    """h(p) = -p*log2(p) - (1-p)*log2(1-p) for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ArgumentError(f"binary_entropy expects p in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def binary_entropy_vec(p: np.ndarray) -> np.ndarray:
    """Vectorized binary entropy; clips rounding noise just outside [0, 1]."""
    q = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    out = np.zeros_like(q)
    inner = (q > 0.0) & (q < 1.0)
    qi = q[inner]
    out[inner] = -qi * np.log2(qi) - (1.0 - qi) * np.log2(1.0 - qi)
    return out


def entropy(probs) -> float:
    """Shannon entropy of a finite distribution given as a probability vector."""
    p = np.asarray(probs, dtype=float).ravel()
    if p.size == 0:
        raise ArgumentError("entropy of an empty distribution is undefined")
    if np.any(p < 0.0):
        raise ArgumentError("probabilities must be non-negative")
    if abs(float(p.sum()) - 1.0) > TOLERANCE:
        raise ArgumentError(f"probabilities must sum to 1, got {float(p.sum())!r}")
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


@dataclass(frozen=True)
class JointTable:
    """Joint distribution of finitely many discrete variables.

    ``dims`` lists the alphabet size of each variable; ``probs`` is the flat
    probability array in C order (last variable varies fastest).
    """

    dims: tuple
    probs: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ArgumentError(f"dims must be positive integers, got {dims!r}")
        probs = np.array(self.probs, dtype=float).ravel()
        if probs.size != math.prod(dims):
            raise ArgumentError(
                f"probs length {probs.size} != product of dims {math.prod(dims)}"
            )
        if (probs < 0.0).any():
            raise ArgumentError("joint probabilities must be non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > TOLERANCE:
            raise ArgumentError(f"joint probabilities must sum to 1, got {total!r}")
        probs.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "probs", probs)

    @property
    def n_vars(self) -> int:
        return len(self.dims)


def conditional_mutual_information(table: JointTable, a: int, b: int, c=()) -> float:
    """I(A;B|C) in bits, for variable indices ``a``, ``b`` and a set ``c``.

    The indices must be disjoint.  Non-negativity holds up to rounding
    (values above roughly -1e-12 can occur on exactly independent inputs).
    """
    cs = tuple(int(i) for i in c)
    a, b = int(a), int(b)
    n = table.n_vars
    for idx in (a, b, *cs):
        if not 0 <= idx < n:
            raise ArgumentError(f"variable index {idx} out of range for {n} variables")
    if len({a, b, *cs}) != 2 + len(cs):
        raise ArgumentError(f"variable indices must be disjoint, got a={a}, b={b}, c={cs}")

    arr = table.probs.reshape(table.dims)
    keep = sorted({a, b, *cs})
    drop = tuple(i for i in range(n) if i not in keep)
    if drop:
        arr = arr.sum(axis=drop)
    pos = {v: i for i, v in enumerate(keep)}
    arr = arr.transpose(pos[a], pos[b], *(pos[i] for i in cs))
    p = arr.reshape(table.dims[a], table.dims[b], -1)

    p_ac = p.sum(axis=1)
    p_bc = p.sum(axis=0)
    p_c = p_bc.sum(axis=0)

    ia, ib, ic = (p > 0.0).nonzero()
    pm = p[ia, ib, ic]
    pa = p_ac[ia, ic]
    pb = p_bc[ib, ic]
    pc = p_c[ic]
    return float((pm * (np.log2(pm * pc) - np.log2(pa * pb))).sum())


def merge_variables(table: JointTable, i: int, j: int) -> JointTable:
    """Fuse variables ``i`` and ``j`` into a single variable.

    The merged variable sits at position ``min(i, j)``; indices above
    ``max(i, j)`` shift down by one.  Useful for computing quantities such
    as I(A;B,C) through the two-variable interface.
    """
    if i == j:
        raise ArgumentError("cannot merge a variable with itself")
    i, j = (i, j) if i < j else (j, i)
    n = table.n_vars
    if not 0 <= i < n or not 0 <= j < n:
        raise ArgumentError(f"variable indices ({i}, {j}) out of range for {n} variables")
    arr = table.probs.reshape(table.dims)
    arr = np.moveaxis(arr, j, i + 1)
    dims = list(table.dims)
    dj = dims.pop(j)
    dims[i] *= dj
    return JointTable(tuple(dims), arr.reshape(-1))
