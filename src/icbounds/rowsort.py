"""The rows of a truth table read in an ordering of Bob's inputs, sorted.

``_RefinementTrace`` needs two arrays: ``order``, the active rows f(x, .)
with their columns in the ordering, sorted lexicographically (stably, so
equal rows keep x order), and ``lcp``, the longest common prefix in bits of
every adjacent pair.  ``_sorted_prefixes`` builds both.

Every read of the table is one call of ``BooleanFunction.packed_rows(xs,
cols)``, which returns chosen rows at chosen columns in the table's packed
layout (MSB first, zero-padded to a whole byte).  A row of at most 64
columns (at most 8 packed bytes) is read as one unsigned integer key of |Y|
bits, key k being the row whose bits read as a binary number are k
(``_row_keys``; ``_RefinementTrace`` also uses these keys to build the trie
over the key space).  One stable argsort of the keys sorts the rows
lexicographically, and two adjacent rows first differ at the leading bit of
their keys' XOR.  Wider rows are sorted as byte strings, which compares
them lexicographically too, and compared a byte at a time.  Rows of at most
64 columns, and rows under the identity ordering, are read once and sorted
once; under the identity ordering the sort reads the stored rows, with no
copy when every input is active.

Wider rows under any other ordering are read only where they differ.  A
column permutation keeps equal rows equal and distinct rows distinct, so
the stored rows are sorted once as byte strings just to collapse each class
of equal rows.  One row per class is then sorted by MSD radix refinement
(McIlroy, Bostic and McIlroy, *Engineering Radix Sort*, 1993): each round
reads the next columns of the ordering for the rows not yet apart from all
others and sorts them within their groups, so that a row stops being read
once it is alone.  The first round reads 64 columns and each later round
twice as many as the one before, as in unbounded search (Bentley and Yao,
*An almost optimal algorithm for unbounded searching*, 1976): |Y| columns
take at most ceil(log2(|Y| / 64 + 1)) rounds, and a row told apart at
column t has been read over fewer than 2 (t + 1) + 64 columns.  Every round
is one ``_sort_rows`` call, the same sort as the other path's.  Both paths
give the same two arrays.
"""

from __future__ import annotations

import numpy as np

from .boolfn import BooleanFunction


def _bit_lengths(words: np.ndarray) -> np.ndarray:
    """The bit length of every unsigned integer in ``words``: frexp's
    exponent of the word, or of each 32-bit half of a uint64, which float64
    holds exactly."""
    if words.dtype != np.uint64:
        return np.frexp(words.astype(np.float64))[1]
    high = np.frexp((words >> np.uint64(32)).astype(np.float64))[1]
    low = np.frexp((words & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(high > 0, high + 32, low)


def _row_keys(rows: np.ndarray, y_size: int) -> np.ndarray:
    """Packed rows of ``y_size`` columns (at most 8 bytes), each as one
    unsigned integer key of y_size bits: uint32 for rows of at most 4 bytes,
    uint64 otherwise.  Key k is the row whose bits, read as a binary number,
    are k, so comparing keys compares rows lexicographically.  Rows of
    exactly 4 or 8 bytes are read as one big-endian word each; other widths
    are shifted in a byte at a time, since padding them to a word would cost
    more than the shifts.  The key is then shifted right past the zero
    padding."""
    width = rows.shape[1]
    dtype = np.uint32 if width <= 4 else np.uint64
    if width in (4, 8):
        key = np.ascontiguousarray(rows).view(f">u{width}")[:, 0].astype(dtype)
    else:
        key = rows[:, 0].astype(dtype)
        for j in range(1, width):
            key <<= 8
            key |= rows[:, j]
    key >>= key.dtype.type(8 * width - y_size)
    return key


def _read_keys(f: BooleanFunction, xs, perm: np.ndarray) -> np.ndarray:
    """The active rows with their columns in ``perm`` order (at most 64), as
    their ``_row_keys``.  One read of the table."""
    identity = np.array_equal(perm, np.arange(perm.size))
    return _row_keys(f.packed_rows(xs, None if identity else perm), perm.size)


#: ``_key_prefixes`` works on this many pairs at a time, so that its
#: temporaries stay small.
_KEY_SLICE = 1 << 16


def _key_prefixes(keys: np.ndarray, y_size: int) -> np.ndarray:
    """The longest common prefix, in bits, of every pair of adjacent
    ``keys`` (``_row_keys`` of rows of ``y_size`` columns); ``y_size`` for
    equal rows.  Int32, one per pair.  A pair's first differing bit is the
    leading bit of their XOR."""
    lcp = np.empty(max(keys.size - 1, 0), dtype=np.int32)
    for a in range(0, lcp.size, _KEY_SLICE):
        diff = keys[1:][a : a + _KEY_SLICE] ^ keys[:-1][a : a + _KEY_SLICE]
        np.subtract(y_size, _bit_lengths(diff), out=lcp[a : a + _KEY_SLICE])
    return lcp


def _common_prefixes(rows: np.ndarray, order: np.ndarray, y_size: int) -> np.ndarray:
    """The longest common prefix, in bits, of every pair of packed rows
    adjacent in ``order``; ``y_size`` for equal rows.  Int32, one per pair.
    The rows are gathered a slice of about 2**19 bytes at a time, never all
    reordered."""
    lcp = np.empty(max(order.size - 1, 0), dtype=np.int32)
    width = rows.shape[1]
    step = max(1, (1 << 19) // width)
    for a in range(0, lcp.size, step):
        # np.take gathers rows of a few bytes much faster than fancy indexing.
        diff = np.take(rows, order[1:][a : a + step], axis=0)
        diff ^= np.take(rows, order[:-1][a : a + step], axis=0)
        # The first differing byte (byte 0 when the rows are equal).
        byte = (diff != 0).argmax(axis=1)
        first = np.take_along_axis(diff, byte[:, None], axis=1)[:, 0]
        lcp[a : a + step] = np.where(first != 0, 8 * byte + 8 - _bit_lengths(first), y_size)
    return lcp


def _sort_keys(key: np.ndarray, y_size: int, group=None):
    """``_sort_rows`` of rows of ``y_size`` columns given as their
    ``_row_keys``."""
    # lexsort's last key is its primary one.
    order = np.argsort(key, kind="stable") if group is None else np.lexsort((key, group))
    key = key[order]
    return order, _key_prefixes(key, y_size)


def _sort_rows(rows: np.ndarray, y_size: int, group=None):
    """The stable lexicographic order of the packed ``rows`` of ``y_size``
    columns, and the longest common prefix of every adjacent pair (int32,
    ``y_size`` for equal rows).  With ``group`` (nondecreasing, one id per
    row), the order is by group first and the prefixes across two groups are
    meaningless.  Rows of at most 8 bytes sort as ``_row_keys``; wider rows
    as byte strings, which compare lexicographically too."""
    if rows.shape[1] <= 8:
        return _sort_keys(_row_keys(rows, y_size), y_size, group)
    order = np.argsort(rows.view(f"S{rows.shape[1]}")[:, 0], kind="stable")
    if group is not None:
        order = order[np.argsort(group[order], kind="stable")]
    return order, _common_prefixes(rows, order, y_size)


#: The first radix round reads this many columns, as one uint64 key; each
#: later round reads twice as many as the one before.
_CHUNK = 64


def _refine_distinct(f: BooleanFunction, xr: np.ndarray, perm: np.ndarray):
    """The distinct rows ``xr`` (x indices) of f with their columns in
    ``perm`` order, sorted by MSD radix refinement: the sorted position of
    every row (``rank``, indices into ``xr``) and the longest common prefix
    of every adjacent pair (``lcp``, int32).

    Rows that share their first c permuted columns form a group, a run of
    ``rank``.  Round r reads the next ``_CHUNK`` * 2**r columns (or all
    those left) of the rows still in a group of more than one and sorts them
    within their groups (``_sort_rows``: as integer keys in a round of at
    most 64 columns, as byte strings in a wider one); an adjacent pair of one
    group that differs in these columns gets its common prefix, c plus the
    one within the round.
    A round's cost is proportional to the rows it reads, so rows leave once
    they are alone.  Doubling the width bounds the rounds by
    ceil(log2(|Y| / _CHUNK + 1)), and a row told apart at column t has been
    read over fewer than 2 (t + 1) + _CHUNK columns.
    """
    y_size = perm.size
    rank = np.arange(xr.size)
    lcp = np.empty(max(xr.size - 1, 0), dtype=np.int32)
    # The places in rank of the rows still grouped, and their group ids,
    # nondecreasing along ``at``.
    at = np.arange(xr.size if xr.size > 1 else 0)
    group = np.zeros(at.size, dtype=np.int64)
    c, width = 0, _CHUNK
    while at.size and c < y_size:
        width = min(width, y_size - c)
        rows = rank[at]
        by, part = _sort_rows(f.packed_rows(xr[rows], perm[c : c + width]), width, group)
        rank[at] = rows[by]
        same = group[1:] == group[:-1]
        split = np.flatnonzero(same & (part < width))
        lcp[at[split]] = c + part[split]
        c += width
        width *= 2
        starts = np.ones(at.size, dtype=bool)
        starts[1:] = ~same
        starts[split + 1] = True
        group = np.cumsum(starts)
        grouped = np.bincount(group)[group] > 1
        at = at[grouped]
        group = group[grouped]
    return rank, lcp


def _sorted_prefixes(f: BooleanFunction, xs, perm: np.ndarray):
    """The active rows with their columns in ``perm`` order, sorted: the
    stable lexicographic ``order`` of their places in the active set, and the
    longest common prefix ``lcp`` in bits of every adjacent pair (int32,
    |Y| for equal rows).  The module docstring describes the two paths.
    """
    y_size = perm.size
    identity = np.array_equal(perm, np.arange(y_size))
    if identity or y_size <= _CHUNK:
        return _sort_rows(f.packed_rows(xs, None if identity else perm), y_size)
    # Under another ordering of more than _CHUNK columns, the classes of
    # equal rows, each a run of ``order`` in x order.
    order, lcp = _sort_rows(f.packed_rows(xs), y_size)
    first = np.flatnonzero(np.append(True, lcp < y_size))
    del lcp
    reps = order[first]
    rank, class_lcp = _refine_distinct(f, reps if xs is None else xs[reps], perm)
    # Every class in its sorted place, with |Y| between its members.
    sizes = np.diff(first, append=order.size)[rank]
    start = np.zeros(rank.size, dtype=np.intp)
    np.cumsum(sizes[:-1], out=start[1:])
    order = order[np.repeat(first[rank] - start, sizes) + np.arange(order.size)]
    lcp = np.full(order.size - 1, y_size, dtype=np.int32)
    lcp[start[1:] - 1] = class_lcp
    return order, lcp
