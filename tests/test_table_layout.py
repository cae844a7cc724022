"""The stored table layout: byte-aligned packed rows, built already packed."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icbounds import (
    BooleanFunction,
    Disjointness,
    Equality,
    Index,
    InnerProduct,
    KIntersect,
    apply_x_substitution,
    build_family,
    load_truth_table,
    save_truth_table,
)
from icbounds import boolfn
from icbounds.icbound import _row_words

# --- the families' definitions, entry by entry, on bit vectors --------------


def bit_vectors(n: int) -> np.ndarray:
    """Row v is the n bits of v, x0 (the most significant bit) first."""
    return np.array([[(v >> (n - 1 - i)) & 1 for i in range(n)] for v in range(1 << n)], dtype=np.int64)


def reference_table(family) -> np.ndarray:
    """The (x_size, y_size) table from the defining formulas: the number of
    common 1-positions of x and y is the dot product of their bit vectors."""
    xb = bit_vectors(family.n)
    if isinstance(family, Index):
        return xb  # f(x, y) = x_y
    common = xb @ xb.T
    if isinstance(family, InnerProduct):
        return common % 2
    if isinstance(family, Disjointness):
        return (common == 0).astype(np.int64)
    if isinstance(family, Equality):
        return np.eye(1 << family.n, dtype=np.int64)
    return (common >= family.k).astype(np.int64)


def families(ns):
    out = []
    for n in ns:
        out += [Index(n), InnerProduct(n), Disjointness(n), Equality(n)]
        out += [KIntersect(n, k) for k in range(1, n // 2 + 1)]
    return out


def assert_built_as_defined(family):
    f = build_family(family)
    want = reference_table(family)
    assert (f.x_size, f.y_size) == want.shape
    assert np.array_equal(f.table_array(), want)
    assert np.array_equal(f.packed_rows(), np.packbits(want.astype(np.uint8), axis=1))


@pytest.mark.parametrize("family", families(range(1, 11)) + [Index(13), Index(17)], ids=repr)
def test_build_family_matches_the_definition(family):
    assert_built_as_defined(family)


@pytest.mark.parametrize(
    "family", [Index(5), Index(13), InnerProduct(6), Disjointness(7), Equality(3), Equality(8), KIntersect(9, 3)],
    ids=repr,
)
def test_build_family_with_a_chunk_boundary_mid_table(monkeypatch, family):
    # Seven rows per chunk: no power of two is a multiple of seven, so the
    # last chunk is a partial one, and every chunk starts mid-way through a
    # byte of x.
    monkeypatch.setattr(boolfn, "_BUILD_CHUNK_BITS", 7 * family.y_size + 3)
    assert_built_as_defined(family)
    # And one row per chunk.
    monkeypatch.setattr(boolfn, "_BUILD_CHUNK_BITS", 1)
    assert_built_as_defined(family)


def padded_tables():
    rng = np.random.default_rng(21)
    tables = [build_family(Index(13)), build_family(Index(17)), build_family(Equality(2))]
    for x_size, y_size in [(5, 13), (3, 1), (9, 7), (4, 65)]:
        tables.append(BooleanFunction(x_size, y_size, np.ones(x_size * y_size, dtype=np.uint8)))
        tables.append(BooleanFunction(x_size, y_size, rng.integers(0, 2, x_size * y_size)))
    f = tables[-1]
    tables.append(apply_x_substitution(f, rng.integers(0, f.x_size, f.x_size)))
    tables.append(load_truth_table(save_truth_table(f)))
    return tables


@pytest.mark.parametrize("f", padded_tables(), ids=repr)
def test_padding_bits_are_zero_and_the_rows_read_only(f):
    rows = f.packed_rows()
    assert rows.shape == (f.x_size, -(-f.y_size // 8))
    assert rows.dtype == np.uint8
    pad = 8 * rows.shape[1] - f.y_size
    assert not np.any(rows[:, -1] & ((1 << pad) - 1))
    assert np.array_equal(rows, np.packbits(f.table_array(), axis=1))
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0xFF
    with pytest.raises(ValueError):
        rows.flags.writeable = True
    # The table_array copy is the caller's to write.
    table = f.table_array()
    table[0, 0] ^= 1
    assert f.bit(0, 0) != table[0, 0]


def reference_words(table: np.ndarray) -> np.ndarray:
    packed = np.packbits(table, axis=1)
    buf = np.zeros((packed.shape[0], -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    buf[:, : packed.shape[1]] = packed
    return buf.view(">u8").astype(np.uint64)


@pytest.mark.parametrize("x_size, y_size", [(1, 1), (6, 7), (9, 8), (33, 64), (17, 65), (40, 130)])
def test_row_words_under_the_identity_ordering(x_size, y_size):
    rng = np.random.default_rng(x_size * 1000 + y_size)
    table = rng.integers(0, 2, (x_size, y_size), dtype=np.uint8)
    f = BooleanFunction(x_size, y_size, table)
    identity = np.arange(y_size)
    got = _row_words(f, None, identity)
    assert got.dtype == np.uint64
    assert np.array_equal(got, reference_words(table))
    # Zero weights: only the rows of the active inputs, in their order.
    for xs in (np.flatnonzero(rng.random(x_size) < 0.5), np.array([x_size - 1]), np.array([], dtype=np.int64)):
        assert np.array_equal(_row_words(f, xs, identity), reference_words(table[xs]))


def test_row_words_under_a_permuted_ordering():
    rng = np.random.default_rng(8)
    table = rng.integers(0, 2, (300, 70), dtype=np.uint8)
    f = BooleanFunction(300, 70, table)
    perm = rng.permutation(70)
    xs = np.flatnonzero(rng.random(300) < 0.7)
    assert np.array_equal(_row_words(f, None, perm), reference_words(table[:, perm]))
    assert np.array_equal(_row_words(f, xs, perm), reference_words(table[xs][:, perm]))


def test_build_family_memory_stays_near_the_table():
    # The packed KIntersect(12, 6) table is 2 MiB; building it once held
    # int64 blocks of 64 MiB.
    tracemalloc.start()
    try:
        build_family(KIntersect(12, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_bits_is_the_flat_file_order():
    rng = np.random.default_rng(4)
    table = rng.integers(0, 2, (13, 11), dtype=np.uint8)
    f = BooleanFunction(13, 11, table)
    assert f.bits() == "".join(str(b) for b in table.ravel())
    assert json.loads(save_truth_table(f))["bits"] == f.bits()


@st.composite
def tables_and_maps(draw):
    x_size = draw(st.integers(1, 20))
    y_size = draw(st.integers(1, 20))
    bits = draw(st.lists(st.integers(0, 1), min_size=x_size * y_size, max_size=x_size * y_size))
    sigma = draw(st.lists(st.integers(0, x_size - 1), min_size=x_size, max_size=x_size))
    return BooleanFunction(x_size, y_size, bits), bits, sigma


@settings(max_examples=200, deadline=None)
@given(tables_and_maps())
def test_save_load_and_substitution_round_trip(case):
    f, bits, sigma = case
    assert load_truth_table(save_truth_table(f)) == f
    assert f.bits() == "".join(map(str, bits))
    g = apply_x_substitution(f, sigma)
    y_size = f.y_size
    for x in range(f.x_size):
        for y in range(y_size):
            assert g.bit(x, y) == bits[sigma[x] * y_size + y]
    assert np.array_equal(
        g.packed_rows(),
        np.packbits(np.array(bits, dtype=np.uint8).reshape(f.x_size, y_size)[sigma], axis=1),
    )
