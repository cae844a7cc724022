"""Reference values computed apart from the program under test.

Nothing here imports ``icbounds``.  Every function is either a closed form
derived from the structure of a family under its standard ordering, or a
second implementation written from the definitions, so that a fault in the
program cannot make its own check pass.

Per-cell form used throughout: after the history of earlier columns splits X
into cells, a step contributes sum over cells of w * phi(q), with w the cell
mass and q the share of that mass on which the new column is 1.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

import numpy as np


def h(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def phi(channel: tuple, q: float) -> float:
    """Information one step extracts from a cell with conditional probability q.

    ``channel`` is ("det",), ("sym", eps) or ("asym", eps_i, eps_ii).
    """
    kind = channel[0]
    if kind == "det":
        return h(q)
    if kind == "sym":
        eps = channel[1]
        return h(eps + q * (1.0 - 2.0 * eps)) - h(eps)
    eps_i, eps_ii = channel[1], channel[2]
    return h(q * (1.0 - eps_ii) + (1.0 - q) * eps_i) - q * h(eps_ii) - (1.0 - q) * h(eps_i)


def bitwise_total(n: int, channel: tuple) -> float:
    """Index(n) under the natural ordering, InnerProduct(n) and
    Disjointness(n) under unit-first: the first n steps read x one bit at a
    time (q = 1/2 in every cell), after which every cell is a single input
    and contributes nothing."""
    return n * phi(channel, 0.5)


def eq_total(n: int, channel: tuple) -> float:
    """Equality on [2^n], natural ordering.

    Before step i the only cell with more than one input is {i, ..., 2^n - 1},
    of size s = 2^n - i and mass s / 2^n, with q = 1/s.
    """
    size = 1 << n
    return math.fsum((s / size) * phi(channel, 1.0 / s) for s in range(2, size + 1))


def kint_det_total(n: int, k: int) -> float:
    """KIntersect(n, k), errorless channel, any ordering that reaches every y.

    Rows with at least k ones are pairwise distinct and every other row is
    zero, so the chain rule gives the entropy of "which row":
    ((2^n - z) / 2^n) * n + p0 * log2(1 / p0), z = #{x : |x| < k}, p0 = z / 2^n.
    """
    size = 1 << n
    z = sum(math.comb(n, j) for j in range(k))
    p0 = z / size
    return ((size - z) / size) * n + (p0 * math.log2(1.0 / p0) if z else 0.0)


def kint_analytic(n: int, k: int, eps: float) -> float:
    """(1 - h(eps)) * sum_{i=k}^{n-1} 2^-i C(i-1, k-1) (n - i)."""
    inner = math.fsum(math.comb(i - 1, k - 1) * (n - i) / (1 << i) for i in range(k, n))
    return (1.0 - h(eps)) * inner


def class_entropy(masses) -> float:
    """Entropy of the row-class masses: the errorless total of a table whose
    rows are copies of pairwise distinct rows, whatever the ordering."""
    p = np.asarray(masses, dtype=float)
    p = p[p > 0] / p.sum()
    return float(-(p * np.log2(p)).sum())


def kint_table(n: int, k: int) -> np.ndarray:
    """KIntersect(n, k) as an (x, y) uint8 array, by popcount."""
    xs = np.arange(1 << n, dtype=np.int64)
    both = xs[:, None] & xs[None, :]
    ones = np.zeros(both.shape, dtype=np.int64)
    for bit in range(n):
        ones += (both >> bit) & 1
    return (ones >= k).astype(np.uint8)


def ip_value(x: int, y: int) -> int:
    return bin(x & y).count("1") & 1


def bisect_root(g, target: float) -> float:
    """Largest e in [0, 1] with g(e) <= target, for g non-decreasing, to 1e-13."""
    lo, hi = 0.0, 1.0
    if g(hi) <= target:
        return 1.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if g(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


@functools.cache
def index_threshold(n: int, m: int) -> float:
    """Root of n (1 - h((1 - e) / 2)) = m."""
    return bisect_root(lambda e: bitwise_total(n, ("sym", (1.0 - e) / 2.0)) if e > 0 else 0.0, m)


@functools.cache
def eq_threshold(n: int, m: int) -> float:
    """Root of the symmetric equality sum at eps = (1 - e) / 2 equal to m."""
    return bisect_root(lambda e: eq_total(n, ("sym", (1.0 - e) / 2.0)) if e > 0 else 0.0, m)


@functools.cache
def census_counts() -> Counter:
    """Signature counts over all 2^16 functions on {0,1}^2 x {0,1}^2.

    Written from the definition, not from the program: the cell of x after
    j columns is the set of x' whose first j column values equal those of x;
    each step records the sorted pairs (cell size, min(ones, size - ones))
    of undetermined cells and skips steps without any.  Function id bit
    x * 4 + y is f(x, y).  Each step's multiset is packed into one integer
    so that all functions are handled at once.
    """
    ids = np.arange(1 << 16, dtype=np.int64)
    f = np.stack([(ids[:, None] >> (x * 4 + np.arange(4))) & 1 for x in range(4)], axis=1)  # (id, x, y)
    hist = np.zeros((ids.size, 4), dtype=np.int64)
    step_keys = []
    for y in range(4):
        col = f[:, :, y]
        same = hist[:, :, None] == hist[:, None, :]          # (id, x, x')
        size = same.sum(axis=2)
        ones = (same & (col[:, None, :] == 1)).sum(axis=2)
        low = np.minimum(ones, size - ones)
        first = np.argmax(same, axis=2) == np.arange(4)       # x is its cell's first member
        pair = np.where(first & (low > 0), size * 3 + low, 0)  # 0 marks "no pair"
        pair.sort(axis=1)
        step_keys.append(pair @ (16 ** np.arange(4)))
        hist = hist * 2 + col
    counts: Counter = Counter()
    unique, freq = np.unique(np.stack(step_keys, axis=1), axis=0, return_counts=True)
    for row, n in zip(unique.tolist(), freq.tolist()):
        steps = []
        for key in row:
            pairs = [(code // 3, code % 3) for code in ((key >> (4 * i)) & 15 for i in range(4)) if code]
            if pairs:
                steps.append(tuple(pairs))
        counts[tuple(steps)] += n
    return counts


def anf_box_count(table: np.ndarray) -> int:
    """PR boxes of the van Dam protocol: monomials in the bits of y whose
    coefficient (a function of x) is not constant.  Moebius transform over
    the y index, written apart from the program's."""
    anf = table.astype(np.uint8).copy()
    y_size = anf.shape[1]
    step = 1
    while step < y_size:
        idx = np.arange(y_size)
        upper = (idx & step) != 0
        anf[:, upper] ^= anf[:, idx[upper] ^ step]
        step <<= 1
    nonconstant = anf.min(axis=0) != anf.max(axis=0)
    return int(nonconstant[1:].sum())
