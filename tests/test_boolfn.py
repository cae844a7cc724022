"""Truth tables, built-in families, encodings, and input distributions."""

import itertools
import json

import numpy as np
import pytest

from icbounds import (
    ArgumentError,
    BooleanFunction,
    Disjointness,
    Equality,
    FamilyParameterError,
    Index,
    InnerProduct,
    InputDistribution,
    KIntersect,
    TableSizeRefusal,
    TruthTableFormatError,
    apply_x_substitution,
    bits_to_index,
    build_family,
    index_to_bits,
    load_truth_table,
    save_truth_table,
)
from icbounds.boolfn import MAX_TABLE_BITS

# --- independent per-bit evaluation of the defining formulas ----------------


def index_ref(x_bits, y):
    return x_bits[y]


def ip_ref(x_bits, y_bits):
    return sum(a & b for a, b in zip(x_bits, y_bits)) % 2


def disj_ref(x_bits, y_bits):
    return 0 if any(a == b == 1 for a, b in zip(x_bits, y_bits)) else 1


def eq_ref(x, y):
    return 1 if x == y else 0


def kint_ref(x_bits, y_bits, k):
    return 1 if sum(a & b for a, b in zip(x_bits, y_bits)) >= k else 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_index_family_matches_definition(n):
    f = build_family(Index(n))
    assert (f.x_size, f.y_size) == (2**n, n)
    for x_bits in itertools.product((0, 1), repeat=n):
        x = bits_to_index(x_bits)
        for y in range(n):
            assert f.bit(x, y) == index_ref(x_bits, y)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ip_and_disj_families_match_definition(n):
    fip = build_family(InnerProduct(n))
    fdisj = build_family(Disjointness(n))
    assert fip.x_size == fip.y_size == 2**n
    for x_bits in itertools.product((0, 1), repeat=n):
        for y_bits in itertools.product((0, 1), repeat=n):
            x, y = bits_to_index(x_bits), bits_to_index(y_bits)
            assert fip.bit(x, y) == ip_ref(x_bits, y_bits)
            assert fdisj.bit(x, y) == disj_ref(x_bits, y_bits)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equality_family_matches_definition(n):
    f = build_family(Equality(n))
    assert f.x_size == f.y_size == 2**n
    for x in range(f.x_size):
        for y in range(f.y_size):
            assert f.bit(x, y) == eq_ref(x, y)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 1), (4, 2)])
def test_kint_family_matches_definition(n, k):
    f = build_family(KIntersect(n, k))
    for x_bits in itertools.product((0, 1), repeat=n):
        for y_bits in itertools.product((0, 1), repeat=n):
            x, y = bits_to_index(x_bits), bits_to_index(y_bits)
            assert f.bit(x, y) == kint_ref(x_bits, y_bits, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_disjointness_product_identity(n):
    # DISJ(x, y) = prod_i (1 XOR x_i y_i)
    f = build_family(Disjointness(n))
    for x_bits in itertools.product((0, 1), repeat=n):
        for y_bits in itertools.product((0, 1), repeat=n):
            prod = 1
            for a, b in zip(x_bits, y_bits):
                prod *= 1 ^ (a & b)
            assert f.bit(bits_to_index(x_bits), bits_to_index(y_bits)) == prod


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kint1_is_complement_of_disjointness(n):
    fint = build_family(KIntersect(n, 1))
    fdisj = build_family(Disjointness(n))
    for x in range(2**n):
        for y in range(2**n):
            assert fint.bit(x, y) == 1 - fdisj.bit(x, y)


def test_family_examples():
    # x = 10 (index 2), y = 0 -> x0 = 1
    assert build_family(Index(2)).bit(2, 0) == 1
    # IP2(11, 11) = 1*1 XOR 1*1 = 0
    assert build_family(InnerProduct(2)).bit(3, 3) == 0
    # KIntersect(4,2) with x=1100, y=1010: overlap 1 < 2
    assert build_family(KIntersect(4, 2)).bit(0b1100, 0b1010) == 0


def test_family_parameter_errors():
    with pytest.raises(FamilyParameterError):
        Index(0)
    with pytest.raises(FamilyParameterError):
        Equality(-1)
    with pytest.raises(FamilyParameterError):
        KIntersect(4, 3)  # k > floor(n/2)
    with pytest.raises(FamilyParameterError):
        KIntersect(4, 0)
    # Parameters are integers: a float is not truncated, a bool is no size.
    with pytest.raises(FamilyParameterError, match="integer k"):
        KIntersect(6, 2.5)
    with pytest.raises(FamilyParameterError, match="integer n"):
        Equality(3.0)
    with pytest.raises(FamilyParameterError, match="integer n"):
        Index(True)


def test_family_parameters_are_stored_as_python_ints():
    family = InnerProduct(np.int64(3))
    assert json.loads(json.dumps(family.describe())) == {"family": "ip", "n": 3}
    assert type(KIntersect(np.uint8(6), np.int32(2)).k) is int


def test_bit_convention_helpers():
    assert bits_to_index("10") == 2
    assert bits_to_index((0, 1)) == 1
    assert index_to_bits(2, 2) == (1, 0)
    assert index_to_bits(5, 4) == (0, 1, 0, 1)
    with pytest.raises(ArgumentError):
        index_to_bits(4, 2)
    with pytest.raises(ArgumentError):
        bits_to_index((0, 2))


def test_boolean_function_construction_and_access():
    f = BooleanFunction(2, 2, "0110")
    assert [f.bit(x, y) for x in range(2) for y in range(2)] == [0, 1, 1, 0]
    assert list(f.column(0)) == [0, 1]
    assert list(f.row(0)) == [0, 1]
    assert f.bits() == "0110"
    assert f == BooleanFunction(2, 2, [0, 1, 1, 0])
    assert f != BooleanFunction(2, 2, [0, 1, 1, 1])
    with pytest.raises(ArgumentError):
        BooleanFunction(2, 2, "011")
    with pytest.raises(ArgumentError):
        BooleanFunction(2, 2, [0, 1, 2, 0])
    with pytest.raises(ArgumentError):
        BooleanFunction(0, 2, "")


@pytest.mark.parametrize(
    "table, offset",
    [
        ([256, 1], 0),
        ([0, 257], 1),
        ([0.5, 1.7], 0),
        ([1.0, 0.999], 1),
        ([0, -1], 1),
        ([1, float("nan")], 1),
        (np.array([0, 1], dtype=np.uint16) + np.array([0, 255], dtype=np.uint16), 1),
        (np.array([1, 0], dtype=np.int8) - np.array([0, 1], dtype=np.int8), 1),
        (["0", "1"], 0),
        ([0, 2**70], 1),
    ],
)
def test_constructor_refuses_entries_other_than_bits(table, offset):
    # Each value is checked before it is narrowed to uint8, where 256 wraps
    # to 0 and 1.7 truncates to 1.
    with pytest.raises(ArgumentError, match=f"offset {offset} is not a bit"):
        BooleanFunction(1, 2, table)


@pytest.mark.parametrize(
    "x_size, y_size, name",
    [(2.7, 2, "x_size"), (2.0, 2, "x_size"), (True, 4, "x_size"), ("2", 2, "x_size"),
     (2, np.float64(2.0), "y_size"), (2, np.bool_(True), "y_size"), (None, 2, "x_size")],
)
def test_constructor_refuses_sizes_that_are_not_integers(x_size, y_size, name):
    # int() would truncate 2.7 to a 2 x 2 table and read True as size 1.
    with pytest.raises(ArgumentError, match=f"{name} must be an integer"):
        BooleanFunction(x_size, y_size, [0, 1, 1, 0])


def test_constructor_accepts_numpy_integer_sizes():
    f = BooleanFunction(np.int64(2), np.uint8(2), [0, 1, 1, 0])
    assert (f.x_size, f.y_size) == (2, 2) and type(f.x_size) is int


@pytest.mark.parametrize(
    "table",
    [[True, False], [1.0, 0.0], np.array([1, 0], dtype=np.int64), np.array([[1], [0]]), np.array([1, 0], dtype=bool)],
)
def test_constructor_accepts_bools_and_exact_float_bits(table):
    assert BooleanFunction(2, 1, table) == BooleanFunction(2, 1, "10")


def test_bits_at_matches_column():
    rng = np.random.default_rng(5)
    f = BooleanFunction(11, 7, rng.integers(0, 2, 77))
    xs = np.array([0, 3, 10, 3])
    for y in range(7):
        assert list(f.bits_at(xs, y)) == [f.bit(int(x), y) for x in xs]


def test_truth_table_identity_encoding():
    f = load_truth_table('{"x_size": 2, "y_size": 1, "bits": "01"}')
    assert f.bit(0, 0) == 0
    assert f.bit(1, 0) == 1


def test_truth_table_roundtrip():
    f = build_family(Disjointness(2))
    again = load_truth_table(save_truth_table(f))
    assert again == f


def test_truth_table_parse_errors():
    with pytest.raises(TruthTableFormatError):
        load_truth_table("not json")
    with pytest.raises(TruthTableFormatError, match="length 3"):
        load_truth_table('{"x_size": 2, "y_size": 2, "bits": "001"}')
    with pytest.raises(TruthTableFormatError, match=r"bits\[2\]"):
        load_truth_table('{"x_size": 2, "y_size": 2, "bits": "01x1"}')
    with pytest.raises(TruthTableFormatError):
        load_truth_table('{"x_size": 2, "bits": "0011"}')
    with pytest.raises(TruthTableFormatError):
        load_truth_table('[1, 2, 3]')
    with pytest.raises(TruthTableFormatError):
        load_truth_table('{"x_size": 2.5, "y_size": 2, "bits": "0011"}')


@pytest.mark.parametrize("sizes", ['"x_size": true, "y_size": 3', '"x_size": 1, "y_size": false'])
def test_truth_table_refuses_boolean_sizes(sizes):
    with pytest.raises(TruthTableFormatError, match="integers"):
        load_truth_table('{%s, "bits": "011"}' % sizes)


@pytest.mark.parametrize(
    "bits, offset",
    [("0110x", 4), ("2111", 0), ("01 0", 2), ("01\u00e90", 2), ("0\ud8001", 1), ("01", None)],
)
def test_truth_table_bit_check_names_the_first_bad_offset(bits, offset):
    text = '{"x_size": 1, "y_size": %d, "bits": "%s"}' % (len(json.loads(f'"{bits}"')), bits)
    if offset is None:
        assert load_truth_table(text).bits() == "01"
        return
    char = json.loads(f'"{bits}"')[offset]
    with pytest.raises(TruthTableFormatError) as info:
        load_truth_table(text)
    assert str(info.value) == f"bits[{offset}] = {char!r} is not '0' or '1'"


def test_truth_table_bit_check_on_a_large_table():
    rng = np.random.default_rng(3)
    bits = "".join(map(str, rng.integers(0, 2, 1 << 16)))
    f = load_truth_table(json.dumps({"x_size": 256, "y_size": 256, "bits": bits}))
    assert f.bits() == bits
    bad = bits[:40000] + "1" * 3 + "." + bits[40004:]
    with pytest.raises(TruthTableFormatError, match=r"bits\[40003\] = '\.'"):
        load_truth_table(json.dumps({"x_size": 256, "y_size": 256, "bits": bad}))


def test_row_blocks_match_the_table():
    rng = np.random.default_rng(11)
    for x_size, y_size in [(1, 1), (3, 5), (70, 1000), (5000, 13)]:
        f = BooleanFunction(x_size, y_size, rng.integers(0, 2, x_size * y_size))
        table = f.table_array()
        xs = np.flatnonzero(rng.random(x_size) < 0.5)
        cols = rng.permutation(y_size)
        assert np.array_equal(np.concatenate(list(f.row_blocks())), table)
        got = list(f.row_blocks(xs, cols))
        assert np.array_equal(np.concatenate(got) if got else np.zeros((0, y_size)), table[xs][:, cols])


def test_packed_rows_match_the_table():
    rng = np.random.default_rng(12)
    for x_size, y_size in [(1, 1), (5, 2), (9, 4), (3, 5), (17, 8), (6, 13), (4, 64)]:
        f = BooleanFunction(x_size, y_size, rng.integers(0, 2, x_size * y_size))
        rows = f.packed_rows()
        assert np.array_equal(rows, np.packbits(f.table_array(), axis=1))
        assert not rows.flags.writeable


def test_apply_x_substitution_identity():
    f = build_family(InnerProduct(2))
    assert apply_x_substitution(f, range(4)) == f


def test_apply_x_substitution_bit_swap():
    # sigma swapping x0 <-> x1: result(x, y) = IP2(x1 x0, y)
    f = build_family(InnerProduct(2))
    sigma = [bits_to_index((b, a)) for a, b in (index_to_bits(x, 2) for x in range(4))]
    g = apply_x_substitution(f, sigma)
    for x in range(4):
        for y in range(4):
            assert g.bit(x, y) == f.bit(sigma[x], y)


def test_apply_x_substitution_bijection():
    rng = np.random.default_rng(99)
    f = BooleanFunction(8, 3, rng.integers(0, 2, 24))
    sigma = list(rng.permutation(8))
    inverse = [0] * 8
    for i, s in enumerate(sigma):
        inverse[s] = i
    assert apply_x_substitution(apply_x_substitution(f, sigma), inverse) == f


def test_apply_x_substitution_range_error():
    f = build_family(InnerProduct(2))
    with pytest.raises(ArgumentError):
        apply_x_substitution(f, [0, 1, 2, 7])
    with pytest.raises(ArgumentError):
        apply_x_substitution(f, [0, 1, 2])


@pytest.mark.parametrize(
    "sigma, entry",
    [([0, 1.9, 2, 3], 1), ([1.0, 0, 2, 3], 0), ([True, 0, 2, 3], 0), ([0, 1, np.False_, 3], 2),
     (["0", 1, 2, 3], 0), ([0, 1, 2, None], 3)],
)
def test_apply_x_substitution_refuses_entries_that_are_not_integers(sigma, entry):
    # A float is not truncated into an index and a boolean is not an int.
    with pytest.raises(ArgumentError, match=f"sigma entry {entry} "):
        apply_x_substitution(build_family(InnerProduct(2)), sigma)


def test_apply_x_substitution_accepts_numpy_integers():
    f = build_family(InnerProduct(2))
    for sigma in (np.array([3, 2, 1, 0]), np.array([3, 2, 1, 0], dtype=np.uint8), [np.int64(3), 2, 1, 0]):
        assert apply_x_substitution(f, sigma) == apply_x_substitution(f, [3, 2, 1, 0])


def test_distribution_normalization():
    d = InputDistribution([2.0, 2.0])
    assert d.weights.tolist() == [0.5, 0.5]
    assert abs(float(d.weights.sum()) - 1.0) <= 1e-9
    assert InputDistribution.uniform(4).label == "uniform"
    assert InputDistribution.uniform(4).weights.tolist() == [0.25] * 4


def test_distribution_errors():
    with pytest.raises(ArgumentError):
        InputDistribution([1.0, -0.5])
    with pytest.raises(ArgumentError):
        InputDistribution([0.0, 0.0])
    with pytest.raises(ArgumentError):
        InputDistribution([])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10**400])
def test_distribution_rejects_non_finite_weights(bad):
    with pytest.raises(ArgumentError):
        InputDistribution([1.0, bad, 1.0])


@pytest.mark.parametrize("x_size", [2.5, 2.0, True, np.bool_(True), "3", None])
def test_uniform_refuses_sizes_that_are_not_integers(x_size):
    with pytest.raises(ArgumentError, match="x_size must be an integer"):
        InputDistribution.uniform(x_size)


def test_uniform_accepts_numpy_integer_sizes():
    assert InputDistribution.uniform(np.int32(4)).weights.tolist() == [0.25] * 4


@pytest.mark.parametrize("x_size", [1, 3, 7, 1000, 12345, 1 << 20])
def test_uniform_weights_equal_the_generic_constructor_bitwise(x_size):
    # uniform builds its weights directly; they must be the ones the
    # checking constructor makes from the same full array.
    got = InputDistribution.uniform(x_size)
    want = InputDistribution(np.full(x_size, 1.0 / x_size), label="uniform")
    assert got.label == want.label
    assert got.weights.dtype == want.weights.dtype and got.weights.shape == want.weights.shape
    assert got.weights.tobytes() == want.weights.tobytes()
    assert not got.weights.flags.writeable


def test_distribution_rejects_an_overflowing_total():
    with pytest.raises(ArgumentError, match="overflow"):
        InputDistribution([1e308, 1e308])


def test_build_family_refuses_oversized_tables_before_allocating():
    # Equality(40) would need 2**80 bits; the refusal comes before any array.
    with pytest.raises(TableSizeRefusal, match="1208925819614629174706176 bits"):
        build_family(Equality(40))
    with pytest.raises(TableSizeRefusal):
        build_family(KIntersect(15, 1))
    # The largest tables the package documents stay within the limit.
    for family in (KIntersect(14, 7), Index(20), Equality(12)):
        assert family.x_size * family.y_size <= MAX_TABLE_BITS


def test_distribution_from_json():
    d = InputDistribution.from_json("[1, 1, 2]", label="file:test")
    assert d.weights.tolist() == [0.25, 0.25, 0.5]
    assert d.label == "file:test"
    with pytest.raises(TruthTableFormatError):
        InputDistribution.from_json('{"a": 1}')
    with pytest.raises(TruthTableFormatError):
        InputDistribution.from_json('[1, "x"]')


def test_distribution_from_json_refuses_booleans():
    with pytest.raises(TruthTableFormatError, match="numbers"):
        InputDistribution.from_json("[true, 1, 1, 1]")
    with pytest.raises(TruthTableFormatError, match="numbers"):
        InputDistribution.from_json("[1, false, 1.5]")


def test_save_format_is_documented_json():
    f = build_family(Equality(1))
    data = json.loads(save_truth_table(f))
    assert set(data) == {"x_size", "y_size", "bits"}
    assert data["bits"] == "1001"
