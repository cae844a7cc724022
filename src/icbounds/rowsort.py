"""The rows of a truth table read in an ordering of Bob's inputs, sorted.

``_RefinementTrace`` needs two arrays: ``order``, the active rows f(x, .)
with their columns in the ordering, sorted lexicographically (stably, so
equal rows keep x order), and ``lcp``, the longest common prefix in bits of
every adjacent pair.  ``_sorted_prefixes`` builds both.

The rows keep the table's packed layout (``BooleanFunction.packed_rows``:
MSB first, zero-padded to a whole byte).  A row of at most 64 columns (at
most 8 packed bytes) is read as one unsigned integer, its bytes most
significant first (``_row_keys``: uint32 for at most 4 bytes, uint64
otherwise), so one stable argsort of the keys sorts the rows
lexicographically, and two adjacent rows first differ at the leading bit of
their keys' XOR.  Wider rows are sorted as byte strings, which compares
them lexicographically too, and compared a byte at a time.  Under the
identity ordering the sort reads the stored table, with no copy when every
input is active; rows of at most 64 columns under another ordering are
repacked with their columns reordered, and sorted as keys.

Wider rows under any other ordering are read only where they differ.  A
column permutation keeps equal rows equal and distinct rows distinct, so
the stored rows are sorted once as byte strings just to collapse each class
of equal rows.  One row per class is then sorted by MSD radix refinement
(McIlroy, Bostic and McIlroy, *Engineering Radix Sort*, 1993): each round
gathers the next 64 columns of the ordering, as one uint64 key, for the
rows not yet apart from all others, so that a row stops being read once it
is alone.  Rows that stay together over many columns are finished by
repacking their remaining columns, sorted as keys once at most 64 are
left.  Both paths give the same two arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .boolfn import BooleanFunction


def _packed_rows(f: BooleanFunction, xs, perm: np.ndarray) -> np.ndarray:
    """The active rows with their columns in ``perm`` order, in the layout of
    ``BooleanFunction.packed_rows`` (MSB first, zero padding after the last
    column): comparing two rows as byte strings compares them
    lexicographically.  Under the identity ordering these are the stored
    rows, not copied when every input is active; any other ordering unpacks
    a block of rows at a time, reorders its columns and packs it again."""
    if np.array_equal(perm, np.arange(perm.size)):
        rows = f.packed_rows()
        return rows if xs is None else rows[xs]
    return _repacked(f, xs, perm)


def _repacked(f: BooleanFunction, xs, cols: np.ndarray) -> np.ndarray:
    """The rows ``xs`` (all of X when None) restricted to the columns
    ``cols``, in that order, packed like ``BooleanFunction.packed_rows``."""
    rows = np.empty((f.x_size if xs is None else xs.size, -(-cols.size // 8)), dtype=np.uint8)
    start = 0
    for block in f.row_blocks(xs, cols):
        rows[start : start + block.shape[0]] = np.packbits(block, axis=1)
        start += block.shape[0]
    return rows


def _bit_lengths(words: np.ndarray) -> np.ndarray:
    """The bit length of every uint32 or uint64 in ``words``: frexp's
    exponent of the word, or of each 32-bit half of a uint64, which float64
    holds exactly."""
    if words.dtype == np.uint32:
        return np.frexp(words.astype(np.float64))[1]
    high = np.frexp((words >> np.uint64(32)).astype(np.float64))[1]
    low = np.frexp((words & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(high > 0, high + 32, low)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Packed rows of at most 8 bytes, each as one unsigned integer whose
    bytes, most significant first, are the row's: uint32 for rows of at most
    4 bytes, uint64 otherwise.  Comparing keys compares rows
    lexicographically."""
    width = rows.shape[1]
    key = rows[:, 0].astype(np.uint32 if width <= 4 else np.uint64)
    for j in range(1, width):
        key <<= 8
        key |= rows[:, j]
    return key


#: ``_key_prefixes`` works on this many pairs at a time, so that its
#: temporaries stay small.
_KEY_SLICE = 1 << 16


def _key_prefixes(keys: np.ndarray, bits: int, y_size: int) -> np.ndarray:
    """The longest common prefix, in bits, of every pair of adjacent
    ``keys`` (``_row_keys`` of rows of ``bits`` packed bits); ``y_size``
    for equal rows.  Int32, one per pair.  A pair's first differing bit is
    the leading bit of their XOR, and the zero padding past column y_size
    never differs."""
    lcp = np.empty(max(keys.size - 1, 0), dtype=np.int32)
    for a in range(0, lcp.size, _KEY_SLICE):
        diff = keys[1:][a : a + _KEY_SLICE] ^ keys[:-1][a : a + _KEY_SLICE]
        np.subtract(bits, _bit_lengths(diff), out=lcp[a : a + _KEY_SLICE])
    return np.minimum(lcp, y_size, out=lcp)


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
        # frexp's exponent of a byte is its bit length; float32 holds every
        # byte exactly, and frexp on it is much faster than on float16.
        bits = np.frexp(first.astype(np.float32))[1]
        lcp[a : a + step] = np.where(first != 0, 8 * byte + 8 - bits, y_size)
    return lcp


def _sort_rows(rows: np.ndarray, y_size: int, group=None):
    """The stable lexicographic order of the packed ``rows`` of ``y_size``
    columns, and the longest common prefix of every adjacent pair (int32,
    ``y_size`` for equal rows).  With ``group`` (nondecreasing, one id per
    row), the order is by group first and the prefixes across two groups are
    meaningless.  Rows of at most 8 bytes sort as ``_row_keys``; wider rows
    as byte strings, which compare lexicographically too."""
    if rows.shape[1] <= 8:
        bits = 8 * rows.shape[1]
        key = _row_keys(rows)
        del rows
        # lexsort's last key is its primary one.
        order = np.argsort(key, kind="stable") if group is None else np.lexsort((key, group))
        key = key[order]
        return order, _key_prefixes(key, bits, y_size)
    order = np.argsort(rows.view(f"S{rows.shape[1]}")[:, 0], kind="stable")
    if group is not None:
        order = order[np.argsort(group[order], kind="stable")]
    return order, _common_prefixes(rows, order, y_size)


#: The permuted row reader gathers this many columns per round, as one uint64.
_CHUNK = 64


def _refine_distinct(f: BooleanFunction, xr: np.ndarray, perm: np.ndarray):
    """The distinct rows ``xr`` (x indices) of f with their columns in
    ``perm`` order, sorted by MSD radix refinement: the sorted position of
    every row (``rank``, indices into ``xr``) and the longest common prefix
    of every adjacent pair (``lcp``, int32).

    Rows that share their first c permuted columns form a group, a run of
    ``rank``.  Each round gathers the next ``_CHUNK`` columns of the rows
    still in a group of more than one, packed MSB first into a uint64 key,
    stable-sorts every group by its key, and sets the common prefix of each
    adjacent pair that first differs in this chunk.  A round's cost is
    proportional to the rows it reads, so rows leave once they are alone.
    Telling the rows of a group of s apart takes log2(s) bits per row; when
    a round learns less than 4 * _CHUNK / (columns left) of the bits still
    needed, the groups are finished at once: their rows are repacked on all
    the remaining columns, sorted as byte strings within each group and
    compared by ``_common_prefixes``.
    """
    y_size = perm.size
    stored = f.packed_rows()
    width = stored.shape[1]
    flat = stored.reshape(-1)
    rank = np.arange(xr.size)
    lcp = np.empty(max(xr.size - 1, 0), dtype=np.int32)
    # The places in rank of the rows still grouped, and their group ids,
    # nondecreasing along ``at``.
    at = np.arange(xr.size if xr.size > 1 else 0)
    group = np.zeros(at.size, dtype=np.int64)
    # The bits still needed to tell the grouped rows apart: the sum over
    # them of log2 of their group's size.
    remaining = at.size * math.log2(max(at.size, 1))
    for c in range(0, y_size, _CHUNK):
        if not at.size:
            break
        cols = perm[c : c + _CHUNK]
        # Columns past |Y| read byte 0 under a zero mask: zero bits.
        byte = np.zeros(_CHUNK, dtype=np.intp)
        bit = np.zeros(_CHUNK, dtype=np.uint8)
        byte[: cols.size] = cols >> 3
        bit[: cols.size] = 0x80 >> (cols & 7)
        rows = rank[at]
        bits = np.take(flat, (xr[rows] * width)[:, None] + byte)
        bits &= bit
        key = np.packbits(bits != 0, axis=1).view(">u8")[:, 0].astype(np.uint64)
        # lexsort's last key is its primary one.
        by_key = np.lexsort((key, group))
        rank[at] = rows[by_key]
        key = key[by_key]
        same = group[1:] == group[:-1]
        diff = key[1:] ^ key[:-1]
        split = np.flatnonzero(same & (diff != 0))
        lcp[at[split]] = c + _CHUNK - _bit_lengths(diff[split])
        starts = np.ones(at.size, dtype=bool)
        starts[1:] = ~same
        starts[split + 1] = True
        group = np.cumsum(starts)
        sizes = np.bincount(group)
        grouped = sizes[group] > 1
        at = at[grouped]
        group = group[grouped]
        sizes = sizes[sizes > 1]
        before = remaining
        remaining = float(sizes @ np.log2(sizes))
        left = y_size - c - _CHUNK
        # At this round's rate the next rounds would gather _CHUNK *
        # remaining / (before - remaining) more columns of every grouped
        # row, and a repack costs about a quarter as much per column.
        if at.size and (before - remaining) * left < 4 * _CHUNK * remaining:
            rows = rank[at]
            by_tail, tail_lcp = _sort_rows(_repacked(f, xr[rows], perm[c + _CHUNK :]), left, group)
            rank[at] = rows[by_tail]
            same = np.flatnonzero(group[1:] == group[:-1])
            lcp[at[same]] = c + _CHUNK + tail_lcp[same]
            break
    return rank, lcp


def _sorted_prefixes(f: BooleanFunction, xs, perm: np.ndarray):
    """The active rows with their columns in ``perm`` order, sorted: the
    stable lexicographic ``order`` of their places in the active set, and the
    longest common prefix ``lcp`` in bits of every adjacent pair (int32,
    |Y| for equal rows).  The module docstring describes the two paths.
    """
    y_size = perm.size
    if y_size <= _CHUNK or np.array_equal(perm, np.arange(y_size)):
        return _sort_rows(_packed_rows(f, xs, perm), y_size)
    # The classes of equal rows, each a run of ``order`` in x order.
    order, lcp = _sort_rows(f.packed_rows() if xs is None else f.packed_rows()[xs], y_size)
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
