"""ANF decomposition over y, box counting, biased-box success, violations."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icbounds import (
    ArgumentError,
    BooleanFunction,
    Disjointness,
    Equality,
    Index,
    InnerProduct,
    InputDistribution,
    KIntersect,
    Symmetric,
    UnsupportedSizeError,
    VanDamDecomposition,
    binary_entropy,
    box_count,
    build_family,
    compute_bound,
    decompose,
    max_bias,
    standard_ordering,
    success_probability,
    violation_check,
)


def random_function(rng, x_size, y_size):
    return BooleanFunction(x_size, y_size, rng.integers(0, 2, x_size * y_size))


def assemble_from_coefficients(x_size, y_bits, coefficients):
    """Truth table of XOR_S c_S(x) * prod_{i in S} y_i (independent of decompose)."""
    y_size = 1 << y_bits
    bits = []
    for x in range(x_size):
        for y in range(y_size):
            acc = 0
            for subset, cbits in coefficients.items():
                mono = all((y >> (y_bits - 1 - i)) & 1 for i in subset)
                acc ^= cbits[x] & int(mono)
            bits.append(acc)
    return BooleanFunction(x_size, y_size, bits)


def box_lists(coefficients):
    """(boxes, local_terms) derived from the coefficient tuples alone."""
    nonempty = [s for s in sorted(coefficients, key=lambda s: (len(s), s)) if s]
    values = {s: set(coefficients[s]) for s in nonempty}
    boxes = tuple(s for s in nonempty if len(values[s]) > 1)
    local_terms = tuple(s for s in nonempty if values[s] == {1})
    return boxes, local_terms


def reference_coefficients(f):
    """ANF over y by a uint8 Moebius loop over blocks of y, keyed by subset."""
    n_bits = f.y_size.bit_length() - 1
    anf = f.table_array().astype(np.uint8).copy()
    for level in range(n_bits):
        step = 1 << level
        for start in range(0, f.y_size, step << 1):
            anf[:, start + step:start + 2 * step] ^= anf[:, start:start + step]
    subsets = [
        tuple(i for i in range(n_bits) if (mask >> (n_bits - 1 - i)) & 1)
        for mask in range(f.y_size)
    ]
    return {s: tuple(row.tolist()) for s, row in zip(subsets, anf.T)}


@st.composite
def power_of_two_tables(draw):
    x_size = draw(st.integers(1, 4))
    y_size = 1 << draw(st.integers(0, 10))
    nbytes = -(-x_size * y_size // 8)
    data = draw(st.binary(min_size=nbytes, max_size=nbytes))
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=x_size * y_size)
    return BooleanFunction(x_size, y_size, bits)


# --- decomposition -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(power_of_two_tables())
def test_decompose_matches_the_reference_moebius_loop(f):
    d = decompose(f)
    reference = reference_coefficients(f)
    boxes, local_terms = box_lists(reference)
    assert d.coefficients == reference
    assert d.coefficients is d.coefficients  # derived once per decomposition
    assert (d.boxes, d.local_terms, d.box_count) == (boxes, local_terms, len(boxes))
    assert d.message_term == reference[()]
    assert not d.anf.flags.writeable
    for x in range(f.x_size):
        assert [d.value(x, y) for y in range(f.y_size)] == f.row(x).tolist()


def test_disjointness2_coefficients():
    d = decompose(build_family(Disjointness(2)))
    assert d.coefficients[()] == (1, 1, 1, 1)
    assert d.coefficients[(0,)] == (0, 0, 1, 1)  # x0
    assert d.coefficients[(1,)] == (0, 1, 0, 1)  # x1
    assert d.coefficients[(0, 1)] == (0, 0, 0, 1)  # x0*x1
    assert d.box_count == 3


def test_inner_product2_coefficients():
    d = decompose(build_family(InnerProduct(2)))
    assert d.boxes == ((0,), (1,))
    assert d.coefficients[(0,)] == (0, 0, 1, 1)
    assert d.coefficients[(1,)] == (0, 1, 0, 1)
    assert d.coefficients[()] == (0, 0, 0, 0)
    assert d.box_count == 2


def test_index2_single_box():
    d = decompose(build_family(Index(2)))
    assert d.box_count == 1
    assert d.message_term == (0, 0, 1, 1)  # x0
    assert d.coefficients[(0,)] == (0, 1, 1, 0)  # x0 XOR x1


def test_constant_function_needs_no_boxes():
    d = decompose(BooleanFunction(4, 4, [0] * 16))
    assert d.box_count == 0
    assert all(set(bits) == {0} for bits in d.coefficients.values())


def test_box_counts_for_the_three_small_families():
    assert box_count(build_family(Index(2))) == 1
    assert box_count(build_family(InnerProduct(2))) == 2
    assert box_count(build_family(Disjointness(2))) == 3


def test_decompose_requires_power_of_two_y():
    with pytest.raises(UnsupportedSizeError):
        decompose(build_family(Index(3)))  # y_size = 3


@pytest.mark.parametrize(
    "family",
    [Index(2), Index(4), InnerProduct(2), InnerProduct(3), InnerProduct(4),
     Disjointness(2), Disjointness(3), Disjointness(4), Equality(2), Equality(3),
     KIntersect(4, 2), KIntersect(4, 1)],
)
def test_reconstruction_for_families(family):
    f = build_family(family)
    d = decompose(f)
    for x in range(f.x_size):
        for y in range(f.y_size):
            assert d.value(x, y) == f.bit(x, y)


def test_reconstruction_for_random_functions():
    rng = np.random.default_rng(55)
    for _ in range(100):
        x_size = int(rng.integers(1, 9))
        y_size = int(2 ** rng.integers(0, 5))
        f = random_function(rng, x_size, y_size)
        d = decompose(f)
        for x in range(x_size):
            for y in range(y_size):
                assert d.value(x, y) == f.bit(x, y)


def test_decompose_box_lists_match_a_direct_construction():
    # decompose reads the box and local-term lists off its coefficient
    # matrix; here they are derived from the coefficient tuples alone, and a
    # decomposition built from a matrix assembled out of those tuples (and
    # bit-packed along each row, the layout ``anf`` holds) equals decompose's.
    def check(d):
        assert (d.boxes, d.local_terms) == box_lists(d.coefficients)
        columns = [d.coefficients[d.subset(m)] for m in range(1 << d.y_bits)]
        packed = np.packbits(np.array(columns, dtype=np.uint8).T, axis=1)
        direct = VanDamDecomposition(d.x_size, d.y_bits, packed)
        assert (d.boxes, d.local_terms) == (direct.boxes, direct.local_terms)
        assert d == direct

    rng = np.random.default_rng(54)
    for family in (Index(4), InnerProduct(3), Disjointness(3), KIntersect(4, 2)):
        check(decompose(build_family(family)))
    for _ in range(100):
        check(decompose(random_function(rng, int(rng.integers(1, 9)), int(2 ** rng.integers(0, 5)))))


@pytest.mark.parametrize("n", range(1, 11))
def test_box_counts_of_the_bitwise_families_in_closed_form(n):
    # Sizes past the hypothesis property's |X| <= 4: the transform's levels
    # inside a byte (|Y| >= 2), across the bytes of a word (|Y| >= 16) and
    # over word slices (|Y| >= 128) all run, up to 2**20-bit tables.
    assert box_count(build_family(InnerProduct(n))) == n
    assert box_count(build_family(Disjointness(n))) == 2**n - 1
    assert box_count(build_family(Equality(n))) == 2**n - 2


@pytest.mark.parametrize("k", range(5))
def test_index_box_count_in_closed_form(k):
    # Index(2**k) has 2**(2**k) rows of 2**k bits: Index(16) packs each row
    # into 2 bytes.
    assert box_count(build_family(Index(2**k))) == 2**k - 1


@pytest.mark.parametrize("y_size", [1, 2, 4])
@pytest.mark.parametrize("x_size", [5, 9, 17])
def test_decompose_of_rows_narrower_than_a_byte_matches_the_reference(x_size, y_size):
    # Before padding, 8 // y_size rows shared each byte of the table.
    rng = np.random.default_rng(60 + x_size * y_size)
    for _ in range(20):
        f = random_function(rng, x_size, y_size)
        d = decompose(f)
        reference = reference_coefficients(f)
        columns = [reference[d.subset(m)] for m in range(y_size)]
        assert d.coefficients == reference
        assert np.array_equal(d.anf, np.packbits(np.array(columns, dtype=np.uint8).T, axis=1))
        assert np.array_equal(np.concatenate(list(d.column_blocks(range(y_size)))), columns)
        assert d.box_count == len(box_lists(reference)[0])


def test_the_coefficient_matrix_is_read_only():
    d = decompose(build_family(InnerProduct(4)))
    assert d.anf.shape == (16, 2)
    assert not d.anf.flags.writeable
    with pytest.raises(ValueError):
        d.anf[0, 0] = 1
    with pytest.raises(ValueError):
        d.anf.flags.writeable = True


@pytest.mark.parametrize("x, y", [(0, 8), (0, -1), (8, 0), (-1, 5), (1, 8)])
def test_value_refuses_inputs_outside_the_table(x, y):
    d = decompose(build_family(InnerProduct(3)))  # 8 x 8
    with pytest.raises(ArgumentError):
        d.value(x, y)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_disjointness_saturates_the_box_limit(n):
    # box count <= 2^n - 1 always, with equality for disjointness
    f = build_family(Disjointness(n))
    assert box_count(f) == 2**n - 1
    rng = np.random.default_rng(56 + n)
    for _ in range(20):
        g = random_function(rng, int(rng.integers(1, 9)), 2**n)
        assert box_count(g) <= 2**n - 1


# --- success probability -----------------------------------------------------


def test_perfect_boxes_always_succeed():
    d = decompose(build_family(InnerProduct(2)))
    assert success_probability(d, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_ip2_biased_09():
    d = decompose(build_family(InnerProduct(2)))
    # enumeration over 4 error patterns; equals (1 + 0.81)/2
    assert success_probability(d, [0.9, 0.9]) == pytest.approx(0.905, abs=1e-12)


@pytest.mark.parametrize("e", [0.0, 0.5, 1.0])
def test_index2_success_is_half_plus_half_bias(e):
    d = decompose(build_family(Index(2)))
    assert success_probability(d, [e]) == pytest.approx((1.0 + e) / 2.0, abs=1e-12)


def test_no_boxes_means_certain_success():
    d = decompose(build_family(Equality(1)))  # one message bit suffices
    assert d.box_count == 0
    assert success_probability(d, []) == pytest.approx(1.0, abs=1e-15)


def test_success_matches_product_formula_up_to_eight_boxes():
    rng = np.random.default_rng(57)
    coeff_pool = [(0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1),
                  (1, 1, 0, 1), (0, 1, 1, 1)]
    subsets = [s for r in (1, 2, 3, 4)
               for s in itertools.combinations(range(4), r)]
    for n_boxes in range(1, 9):
        coefficients = {(): (0, 1, 1, 0)}
        for i, subset in enumerate(subsets[:n_boxes]):
            coefficients[subset] = coeff_pool[i % len(coeff_pool)]
        f = assemble_from_coefficients(4, 4, coefficients)
        d = decompose(f)
        assert d.box_count == n_boxes
        biases = [float(b) for b in rng.uniform(-1.0, 1.0, n_boxes)]
        expected = (1.0 + math.prod(biases)) / 2.0
        assert success_probability(d, biases) == pytest.approx(expected, abs=1e-12)


def enumerated_success(biases):
    """Sum over all 2**n box error patterns with an even number of errors."""
    err = [(1.0 - e) / 2.0 for e in biases]
    total = 0.0
    for pattern in range(1 << len(biases)):
        if pattern.bit_count() % 2 != 0:
            continue
        p = 1.0
        for i, pe in enumerate(err):
            p *= pe if (pattern >> i) & 1 else 1.0 - pe
        total += p
    return total


def decomposition_with_boxes(n_boxes):
    """A decomposition of a 3 x 16 function with exactly ``n_boxes`` boxes."""
    subsets = [s for r in (1, 2, 3, 4) for s in itertools.combinations(range(4), r)]
    coefficients = {(): (0, 1, 1)}
    for subset in subsets[:n_boxes]:
        coefficients[subset] = (0, 1, 0)
    d = decompose(assemble_from_coefficients(3, 4, coefficients))
    assert d.box_count == n_boxes
    return d


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), max_size=12))
def test_success_matches_error_pattern_enumeration(biases):
    d = decomposition_with_boxes(len(biases))
    assert success_probability(d, biases) == pytest.approx(enumerated_success(biases), abs=1e-12)


def test_success_for_dozens_of_boxes():
    d = decompose(build_family(Disjointness(5)))
    assert d.box_count == 31
    assert success_probability(d, [0.9] * 31) == pytest.approx((1.0 + 0.9**31) / 2.0, abs=1e-15)


def per_input_protocol_success(f, d, biases, x, y):
    """Exact success at one input, by enumerating box outputs and errors."""
    alphas = [d.coefficients[s][x] for s in d.boxes]
    betas = [d.monomial(s, y) for s in d.boxes]
    local = 0
    for s in d.local_terms:
        local ^= d.monomial(s, y)
    target = f.bit(x, y)
    total = 0.0
    n = len(biases)
    for assignment in itertools.product((0, 1), (0, 1), repeat=n):
        prob = 1.0
        message = d.message_term[x]
        bob = 0
        for i in range(n):
            a, err = assignment[2 * i], assignment[2 * i + 1]
            prob *= 0.5 * ((1.0 + biases[i]) / 2.0 if err == 0 else (1.0 - biases[i]) / 2.0)
            b = a ^ (alphas[i] & betas[i]) ^ err
            message ^= a
            bob ^= b
        guess = message ^ bob ^ local
        if guess == target:
            total += prob
    return total


def test_success_is_input_independent():
    rng = np.random.default_rng(58)
    f = build_family(Disjointness(2))
    d = decompose(f)
    biases = [0.9, -0.4, 0.7]
    reference = success_probability(d, biases)
    for x in range(4):
        for y in range(4):
            assert per_input_protocol_success(f, d, biases, x, y) == pytest.approx(
                reference, abs=1e-12
            )
    g = random_function(rng, 6, 4)
    dg = decompose(g)
    biases = [float(b) for b in rng.uniform(-1, 1, dg.box_count)]
    reference = success_probability(dg, biases)
    for x in range(6):
        for y in range(4):
            assert per_input_protocol_success(g, dg, biases, x, y) == pytest.approx(
                reference, abs=1e-12
            )


def test_success_by_sampling():
    # statistical cross-check of the protocol simulation
    rng = np.random.default_rng(59)
    f = build_family(InnerProduct(2))
    d = decompose(f)
    biases = [0.9, 0.8]
    rounds = 40000
    hits = 0
    for _ in range(rounds):
        x = int(rng.integers(0, 4))
        y = int(rng.integers(0, 4))
        message = d.message_term[x]
        bob = 0
        for i, s in enumerate(d.boxes):
            alpha = d.coefficients[s][x]
            beta = d.monomial(s, y)
            a = int(rng.integers(0, 2))
            err = int(rng.random() > (1.0 + biases[i]) / 2.0)
            b = a ^ (alpha & beta) ^ err
            message ^= a
            bob ^= b
        for s in d.local_terms:
            bob ^= d.monomial(s, y)
        hits += int((message ^ bob) == f.bit(x, y))
    expected = (1.0 + 0.9 * 0.8) / 2.0
    assert hits / rounds == pytest.approx(expected, abs=0.015)


def test_bias_validation():
    d = decompose(build_family(InnerProduct(2)))
    with pytest.raises(ArgumentError):
        success_probability(d, [0.9])
    with pytest.raises(ArgumentError):
        success_probability(d, [0.9, 1.5])


# --- violation checks ----------------------------------------------------------


def test_perfect_boxes_violate_the_one_bit_bound():
    report = violation_check(Index(4), [1.0, 1.0, 1.0], 1)
    assert report.success_probability == pytest.approx(1.0, abs=1e-15)
    assert report.bound_total == pytest.approx(4.0, abs=1e-9)
    assert report.violated
    assert not report.no_signal


def test_random_boxes_carry_no_signal():
    report = violation_check(Index(4), [0.0, 0.0, 0.0], 1)
    assert report.success_probability == pytest.approx(0.5, abs=1e-12)
    assert report.bound_total == 0.0
    assert not report.violated
    assert report.no_signal


def test_index2_half_bias_is_within_the_bound():
    report = violation_check(Index(2), [0.5], 1)
    assert report.success_probability == pytest.approx(0.75, abs=1e-12)
    expected = 2.0 * (1.0 - binary_entropy(0.25))
    assert report.bound_total == pytest.approx(expected, abs=1e-9)
    assert not report.violated


def test_violation_rejects_bad_message_bits():
    with pytest.raises(ArgumentError):
        violation_check(Index(2), [1.0], 0)


# Not an integer number of bits: NaN passed as "not violated" with bound
# 2.52, and 1.5 gave a threshold of 0.688.
BAD_MESSAGE_BITS = [float("nan"), 1.5, 1.0, True, np.bool_(True), "1", None]


@pytest.mark.parametrize("message_bits", BAD_MESSAGE_BITS, ids=repr)
def test_violation_and_max_bias_refuse_message_bits_that_are_not_integers(message_bits):
    with pytest.raises(ArgumentError, match="message_bits"):
        violation_check(Index(4), [0.95] * 3, message_bits)
    with pytest.raises(ArgumentError, match="message_bits"):
        max_bias(Index(4), message_bits)


def test_violation_and_max_bias_accept_numpy_integer_message_bits():
    assert violation_check(Index(4), [0.95] * 3, np.int64(1)) == violation_check(Index(4), [0.95] * 3, 1)
    assert max_bias(Index(4), np.int32(2)) == max_bias(Index(4), 2)


@pytest.mark.parametrize("precision", [float("nan"), -1e-9, -math.inf])
def test_max_bias_refuses_a_nan_or_negative_precision(precision):
    # A NaN precision ended the bisection at once and returned 0.0.
    with pytest.raises(ArgumentError, match="precision"):
        max_bias(Index(4), 1, precision=precision)


# --- bias thresholds -----------------------------------------------------------


def test_max_bias_index2():
    assert max_bias(Index(2), 1) == pytest.approx(0.779944, abs=1e-5)


def test_max_bias_index1_is_unconstrained():
    assert max_bias(Index(1), 1) == 1.0


def test_max_bias_decreases_with_n():
    values = [max_bias(Index(n), 1) for n in (2, 3, 4, 6, 8, 10, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v < 1.0 for v in values)


def bisect_by_compute_bound(family, message_bits, precision=1e-9):
    """The bias threshold with one full ``compute_bound`` per bisection probe."""
    f = build_family(family)
    dist = InputDistribution.uniform(f.x_size)
    ordering = standard_ordering(family)

    def bound_at(e):
        if e <= 0.0:
            return 0.0
        return compute_bound(f, dist, ordering, Symmetric((1.0 - e) / 2.0)).total

    if bound_at(1.0) <= message_bits:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if bound_at(mid) <= message_bits:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("message_bits", [1, 2])
@pytest.mark.parametrize(
    "family",
    [Index(n) for n in range(2, 11)]
    + [Equality(n) for n in range(1, 7)]
    + [KIntersect(n, k) for n in (6, 7, 8) for k in (2, 3)]
    + [InnerProduct(3), Disjointness(3)],
    ids=repr,
)
def test_max_bias_equals_bisection_over_compute_bound(family, message_bits):
    assert max_bias(family, message_bits) == bisect_by_compute_bound(family, message_bits)


def test_max_bias_at_zero_precision_stops_at_adjacent_floats():
    lo = max_bias(Index(2), 1, precision=0.0)
    f = build_family(Index(2))
    dist = InputDistribution.uniform(f.x_size)
    ordering = standard_ordering(Index(2))

    def bound_at(e):
        return compute_bound(f, dist, ordering, Symmetric((1.0 - e) / 2.0)).total

    assert isinstance(lo, float)
    assert bound_at(lo) <= 1.0
    assert bound_at(math.nextafter(lo, 2.0)) > 1.0
