"""The bound evaluator, ordering strategies, closed forms, and the oracle."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from icbounds import (
    ArgumentError,
    Asymmetric,
    BooleanFunction,
    Deterministic,
    Disjointness,
    Equality,
    ExhaustiveSearchRefusal,
    Index,
    InnerProduct,
    InputDistribution,
    KIntersect,
    Ordering,
    Symmetric,
    binary_entropy,
    build_family,
    compute_bound,
    direct_oracle,
    eq_closed_form_deterministic,
    eq_closed_form_one_sided,
    eq_closed_form_symmetric,
    kint_analytic_bound,
    make_ordering,
    oracle_check,
    standard_ordering,
)
from icbounds import icbound, rowsort
from icbounds.icbound import EQ_CLOSED_FORM_MAX_N


def uniform_bound(family, ordering, channel):
    f = build_family(family)
    return compute_bound(f, InputDistribution.uniform(f.x_size), ordering, channel)


def random_function(rng, x_size, y_size):
    return BooleanFunction(x_size, y_size, rng.integers(0, 2, x_size * y_size))


# --- channels ----------------------------------------------------------------


def test_channel_parameter_validation():
    with pytest.raises(ArgumentError):
        Symmetric(0.5)
    with pytest.raises(ArgumentError):
        Symmetric(-0.01)
    with pytest.raises(ArgumentError):
        Asymmetric(0.1, 0.5)
    Symmetric(0.0)  # eps = 0 is the errorless boundary and is allowed
    Asymmetric(0.0, 0.49)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Symmetric("0.1"),
        lambda: Symmetric(None),
        lambda: Symmetric(False),
        lambda: Symmetric(np.bool_(False)),
        lambda: Symmetric(0.1 + 0j),
        lambda: Asymmetric(0.1, None),
        lambda: Asymmetric(True, 0.1),
        lambda: Asymmetric(0.1, "0.2"),
    ],
)
def test_channels_refuse_error_rates_that_are_not_real_numbers(make):
    with pytest.raises(ArgumentError, match="real number"):
        make()


def test_channels_store_error_rates_as_python_floats():
    sym = Symmetric(np.float32(0.1))
    asym = Asymmetric(0, np.float64(0.25))
    assert type(sym.eps) is float and sym.eps == float(np.float32(0.1))
    assert type(asym.eps_i) is float and type(asym.eps_ii) is float
    assert json.loads(json.dumps(asym.describe())) == {"kind": "asymmetric", "eps_i": 0.0, "eps_ii": 0.25}
    json.dumps(sym.describe())


def test_channels_read_a_negative_zero_error_rate_as_zero():
    sym = Symmetric(-0.0)
    asym = Asymmetric(-0.0, 0.1)
    assert math.copysign(1.0, sym.eps) == 1.0
    assert math.copysign(1.0, asym.eps_i) == 1.0
    assert json.dumps(sym.describe()) == '{"kind": "symmetric", "eps": 0.0}'
    assert json.dumps(asym.describe()) == '{"kind": "asymmetric", "eps_i": 0.0, "eps_ii": 0.1}'


def test_asymmetric_zero_equals_deterministic():
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = random_function(rng, 8, 6)
        dist = InputDistribution.uniform(8)
        perm = Ordering(tuple(int(v) for v in rng.permutation(6)))
        det = compute_bound(f, dist, perm, Deterministic())
        asym = compute_bound(f, dist, perm, Asymmetric(0.0, 0.0))
        assert asym.total == pytest.approx(det.total, abs=1e-12)


# --- reference values --------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equality_deterministic_is_n(n):
    rep = uniform_bound(Equality(n), make_ordering("natural", build_family(Equality(n))),
                        Deterministic())
    assert rep.total == pytest.approx(float(n), abs=1e-9)


def test_ip2_unit_first_terms():
    rep = uniform_bound(InnerProduct(2), standard_ordering(InnerProduct(2)), Deterministic())
    assert rep.ordering == (2, 1, 0, 3)
    assert list(rep.terms) == pytest.approx([1.0, 1.0, 0.0, 0.0], abs=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.25])
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_index_closed_form_any_ordering(n, eps):
    # the value n(1 - h(eps)) does not depend on the ordering
    f = build_family(Index(n))
    dist = InputDistribution.uniform(f.x_size)
    channel = Symmetric(eps)
    expected = n * (1.0 - binary_entropy(eps))
    rng = np.random.default_rng(1000 + n)
    for _ in range(5):
        perm = Ordering(tuple(int(v) for v in rng.permutation(n)))
        assert compute_bound(f, dist, perm, channel).total == pytest.approx(expected, abs=1e-9)


def test_index20_closed_form_under_a_random_ordering():
    # 2**20 distinct rows fill the 2**20 keys: the trie is built over the
    # keys, with no sort.
    f = build_family(Index(20))
    perm = Ordering(tuple(int(v) for v in np.random.default_rng(20).permutation(20)))
    total = compute_bound(f, InputDistribution.uniform(f.x_size), perm, Symmetric(0.1)).total
    assert abs(total - 20 * (1.0 - binary_entropy(0.1))) <= 1e-9


def test_index4_symmetric_value():
    rep = uniform_bound(Index(4), standard_ordering(Index(4)), Symmetric(0.1))
    # 4 * (1 - h(0.1)); independently evaluated
    assert rep.total == pytest.approx(2.124017625642875, abs=1e-6)


def test_equality1_symmetric_value():
    rep = uniform_bound(Equality(1), standard_ordering(Equality(1)), Symmetric(0.1))
    assert rep.total == pytest.approx(0.531004, abs=1e-6)
    assert rep.total == pytest.approx(eq_closed_form_symmetric(1, 0.1), abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
def test_equality_symmetric_matches_closed_form(n, eps):
    rep = uniform_bound(Equality(n), standard_ordering(Equality(n)), Symmetric(eps))
    assert rep.total == pytest.approx(eq_closed_form_symmetric(n, eps), abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("eps_ii", [0.0, 0.1, 0.3])
def test_equality_one_sided_matches_closed_form(n, eps_ii):
    rep = uniform_bound(Equality(n), standard_ordering(Equality(n)), Asymmetric(0.0, eps_ii))
    assert rep.total == pytest.approx(eq_closed_form_one_sided(n, eps_ii), abs=1e-9)


def test_closed_form_values():
    assert eq_closed_form_deterministic(1) == 1.0
    assert eq_closed_form_deterministic(3) == 3.0
    assert eq_closed_form_deterministic(10) == 10.0
    # single-term instance of the symmetric sum
    assert eq_closed_form_symmetric(1, 0.1) == pytest.approx(
        1.0 - binary_entropy(0.1), abs=1e-12
    )
    # one-sided with eps_II = 0 recovers the errorless value
    assert eq_closed_form_one_sided(2, 0.0) == pytest.approx(2.0, abs=1e-9)
    assert eq_closed_form_one_sided(12, 0.1) >= 0.9 * 12 - 2
    with pytest.raises(ArgumentError):
        eq_closed_form_symmetric(1, 0.0)
    with pytest.raises(ArgumentError):
        eq_closed_form_one_sided(0, 0.1)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
def test_equality_symmetric_total_is_capped(eps):
    # the symmetric sum never exceeds (1-2eps) log2((1-eps)/eps)
    cap = (1.0 - 2.0 * eps) * math.log2((1.0 - eps) / eps)
    for n in range(1, 13):
        assert eq_closed_form_symmetric(n, eps) <= cap + 1e-9


def nested_kint_sum(n, k):
    """k-fold nested summation over the proof coefficients, by direct recursion."""
    m = n - k - 1
    coeff = [(n - k - i) / 2.0 ** (k + i) for i in range(m + 1)]

    def rec(depth, lo):
        if depth == 1:
            return sum(coeff[lo:])
        return sum(rec(depth - 1, j) for j in range(lo, m + 1))

    return rec(k, 0)


def test_kint_analytic_bound_matches_nested_sum():
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            expected = nested_kint_sum(n, k)
            assert kint_analytic_bound(n, k, 0.0) == pytest.approx(expected, abs=1e-9)
            assert kint_analytic_bound(n, k, 0.1) == pytest.approx(
                expected * (1.0 - binary_entropy(0.1)), abs=1e-9
            )


def test_kint_analytic_bound_values():
    # k = 1, eps = 0: sum_{i=1}^{n-1} 2^-i (n - i) = n - 2 + 2/2^n
    assert kint_analytic_bound(3, 1, 0.0) == pytest.approx(1.25, abs=1e-12)
    for n in range(2, 12):
        assert kint_analytic_bound(n, 1, 0.0) == pytest.approx(
            n - 2 + 2.0 / 2**n, abs=1e-9
        )
    assert kint_analytic_bound(6, 2, 0.0) >= 2.0
    with pytest.raises(ArgumentError):
        kint_analytic_bound(4, 3, 0.0)
    with pytest.raises(ArgumentError):
        kint_analytic_bound(4, 1, 0.6)


@pytest.mark.parametrize("closed_form, args", [
    (eq_closed_form_deterministic, (True,)),
    (eq_closed_form_deterministic, (3.0,)),
    (eq_closed_form_symmetric, (2.5, 0.1)),
    (eq_closed_form_symmetric, (np.float64(2.0), 0.1)),
    (eq_closed_form_one_sided, (False, 0.1)),
    (eq_closed_form_one_sided, (3.0, 0.1)),
    (kint_analytic_bound, (6, True, 0.1)),
    (kint_analytic_bound, (6.0, 2, 0.1)),
    (kint_analytic_bound, (6, 2.0, 0.1)),
    (kint_analytic_bound, (np.bool_(True), 1, 0.1)),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_closed_forms_refuse_parameters_that_are_not_integers(closed_form, args):
    with pytest.raises(ArgumentError, match="integer"):
        closed_form(*args)


def test_closed_forms_accept_numpy_integers():
    assert eq_closed_form_deterministic(np.int64(3)) == 3.0
    assert eq_closed_form_symmetric(np.int32(3), 0.1) == eq_closed_form_symmetric(3, 0.1)
    assert eq_closed_form_one_sided(np.uint8(3), 0.1) == eq_closed_form_one_sided(3, 0.1)
    assert kint_analytic_bound(np.int64(6), np.int16(2), 0.1) == kint_analytic_bound(6, 2, 0.1)


def test_equality_sums_refuse_n_above_their_limit_before_summing():
    # 2**40 terms would take days; the refusal comes from n alone.
    for call in (
        lambda: eq_closed_form_deterministic(40),
        lambda: eq_closed_form_symmetric(EQ_CLOSED_FORM_MAX_N + 1, 0.1),
        lambda: eq_closed_form_one_sided(10**6, 0.1),
    ):
        with pytest.raises(ArgumentError, match=rf"n must lie in \[1, {EQ_CLOSED_FORM_MAX_N}\]"):
            call()
    assert EQ_CLOSED_FORM_MAX_N >= 20
    assert eq_closed_form_deterministic(16) == 16.0


@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_kint_proof_bound_small(eps):
    channel = Deterministic() if eps == 0.0 else Symmetric(eps)
    for n in range(2, 9):
        for k in range(1, n // 2 + 1):
            fam = KIntersect(n, k)
            rep = uniform_bound(fam, standard_ordering(fam), channel)
            assert rep.total >= (n - 2 * k) * (1.0 - binary_entropy(eps)) - 1e-9


# --- ordering strategies -----------------------------------------------------


def test_natural_and_unit_first_orderings():
    f = build_family(InnerProduct(2))
    assert make_ordering("natural", f).perm == (0, 1, 2, 3)
    assert make_ordering("unit-first", f).perm == (2, 1, 0, 3)
    f8 = build_family(InnerProduct(3))
    assert make_ordering("unit-first", f8).perm == (4, 2, 1, 0, 3, 5, 6, 7)


def test_unit_first_requires_power_of_two():
    f = build_family(Index(3))  # y_size = 3
    with pytest.raises(ArgumentError):
        make_ordering("unit-first", f)


def test_kint_proof_ordering():
    f = build_family(KIntersect(3, 1))
    assert make_ordering("kint-proof", f, k=1).perm == (4, 2, 1, 7, 6, 5, 3, 0)
    with pytest.raises(ArgumentError):
        make_ordering("kint-proof", f)  # k missing
    # first binom(n, k) entries all have weight k, in decreasing value
    f42 = build_family(KIntersect(4, 2))
    perm = make_ordering("kint-proof", f42, k=2).perm
    assert perm[:6] == (12, 10, 9, 6, 5, 3)


def test_greedy_ordering_deterministic_tie_break():
    f = build_family(InnerProduct(2))
    assert make_ordering("greedy", f).perm == (1, 2, 0, 3)


def test_exhaustive_ordering_ip2():
    f = build_family(InnerProduct(2))
    ordering = make_ordering("exhaustive", f)
    rep = compute_bound(f, InputDistribution.uniform(4), ordering, Deterministic())
    unit = uniform_bound(InnerProduct(2), standard_ordering(InnerProduct(2)), Deterministic())
    assert rep.total == pytest.approx(unit.total, abs=1e-12)  # both reach 2.0
    assert ordering.perm == (0, 1, 2, 3)  # lexicographically smallest maximizer


def test_exhaustive_refusal_names_cost():
    f = build_family(Index(17))  # y_size = 17
    with pytest.raises(ExhaustiveSearchRefusal, match=r"2\*\*17 = 131072 subsets"):
        make_ordering("exhaustive", f)


def test_exhaustive_refuses_more_subsets_than_it_can_hold():
    f = BooleanFunction(2, 40, [0, 1] * 40)
    with pytest.raises(ExhaustiveSearchRefusal, match=r"2\*\*40 subsets"):
        make_ordering("exhaustive", f)


def test_exhaustive_refusal_of_a_wide_table_stays_short():
    # 2**14300 has more than the 4300 digits Python turns into a string.
    f = BooleanFunction(1, 14300, np.zeros(14300, dtype=np.uint8))
    with pytest.raises(ExhaustiveSearchRefusal, match=r"2\*\*14300 subsets") as refusal:
        make_ordering("exhaustive", f)
    assert len(str(refusal.value)) < 200


def test_exhaustive_refuses_above_its_work_limit_before_reading_the_table(monkeypatch):
    # Three active inputs and |Y| = 3: 3 * 3 * 2**2 = 36 (subset, input, free column) triples.
    f = BooleanFunction(4, 3, [0, 1] * 6)
    dist = InputDistribution([1.0, 0.0, 1.0, 1.0])

    def unread(*args):
        raise AssertionError("the table was read")

    monkeypatch.setattr(icbound, "EXHAUSTIVE_LIMIT", 36 - 1)
    monkeypatch.setattr(icbound, "_read_keys", unread)
    with pytest.raises(ExhaustiveSearchRefusal, match=r"3 active inputs .*2\*\*3 = 8 subsets.* = 36 "):
        make_ordering("exhaustive", f, dist)
    monkeypatch.setattr(icbound, "EXHAUSTIVE_LIMIT", 36)
    with pytest.raises(AssertionError, match="the table was read"):
        make_ordering("exhaustive", f, dist)


def test_exhaustive_threads_agree():
    rng = np.random.default_rng(42)
    f = random_function(rng, 8, 5)
    seq = make_ordering("exhaustive", f).perm
    par = make_ordering("exhaustive", f, threads=4).perm
    assert seq == par


@pytest.mark.parametrize(
    "kwargs", [{"seed": -1}, {"seed": 2.5}, {"seed": True}, {"cases": 2.5}, {"max_size": 4.0}]
)
def test_oracle_check_refuses_a_negative_seed_and_counts_that_are_not_integers(kwargs):
    with pytest.raises(ArgumentError, match=next(iter(kwargs))):
        oracle_check(**{"cases": 2, "max_size": 3, **kwargs})


def test_oracle_check_rejects_empty_sizes():
    with pytest.raises(ArgumentError, match="max_size"):
        oracle_check(cases=5, max_size=0)


@pytest.mark.parametrize("max_size", [1025, 100000, 2**62])
def test_oracle_check_refuses_sizes_beyond_the_oracle_before_allocating(max_size):
    tracemalloc.start()
    try:
        with pytest.raises(ArgumentError, match=r"max_size must lie in \[1, 1024\]"):
            oracle_check(cases=2, max_size=max_size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_unknown_strategy():
    f = build_family(Index(2))
    # Each strategy has one spelling: no case folding, no '_' for '-', no alias.
    for strategy in ("sideways", "unit-vectors-first", "Natural", "unit_first"):
        with pytest.raises(ArgumentError, match="unknown ordering strategy .*'exhaustive'"):
            make_ordering(strategy, f)


def test_ordering_validation():
    with pytest.raises(ArgumentError):
        Ordering((0, 2))
    with pytest.raises(ArgumentError):
        Ordering((0, 0, 1))
    f = build_family(Index(2))
    with pytest.raises(ArgumentError):
        compute_bound(f, InputDistribution.uniform(4), Ordering((0, 1, 2)), Deterministic())


@pytest.mark.parametrize(
    "perm", [(0, 2**70), (-2**70, 1), (np.uint64(2**63 + 5), 0), (-1, 0), (1, 2), (1, 1), (0, 2, 2)]
)
def test_ordering_refuses_entries_outside_the_permutation_range(perm):
    # Entries beyond int64 are refused too, not wrapped or raised as OverflowError.
    with pytest.raises(ArgumentError, match="not a permutation"):
        Ordering(perm)


@pytest.mark.parametrize(
    "perm, why",
    [
        ((10**5000,), "length 1 .* entry 0 is outside 0..0"),
        ((5, 0, 10**5000), "length 3 .* entry 0 = 5 is outside 0..2"),
        ((*range(1, 20000), 0, 3), "length 20001 .* entry 20000 = 3 repeats"),
    ],
)
def test_ordering_refusal_names_the_length_and_the_first_bad_entry(perm, why):
    # Neither the ordering nor an entry too long to print is formatted.
    with pytest.raises(ArgumentError, match=why) as refusal:
        Ordering(perm)
    assert len(str(refusal.value)) < 200


@pytest.mark.parametrize(
    "perm, entry",
    [((0, 1.9), 1), ((1.0, 0), 0), ((True, 0), 0), ((1, np.False_), 1), (("0", 1), 0), ((0, None), 1)],
)
def test_ordering_refuses_entries_that_are_not_integers(perm, entry):
    # A float is not truncated into an index and a boolean is not an int.
    with pytest.raises(ArgumentError, match=f"ordering entry {entry} "):
        Ordering(perm)


@pytest.mark.parametrize("k", [1.9, 2.0, True, np.True_, "2"])
def test_kint_proof_ordering_refuses_a_k_that_is_not_an_integer(k):
    # int(1.9) would silently give k = 1.
    with pytest.raises(ArgumentError, match="k must be an integer"):
        make_ordering("kint-proof", build_family(KIntersect(4, 2)), k=k)


def test_kint_proof_ordering_accepts_a_numpy_k():
    f = build_family(KIntersect(4, 2))
    assert make_ordering("kint-proof", f, k=np.int64(2)) == make_ordering("kint-proof", f, k=2)


def test_ordering_accepts_numpy_integers():
    assert Ordering(np.array([2, 0, 1])).perm == (2, 0, 1)
    assert all(type(v) is int for v in Ordering(np.array([1, 0], dtype=np.uint8)).perm)
    assert Ordering((np.int16(2), 0, np.uint64(1))).perm == (2, 0, 1)
    assert Ordering(()).perm == ()


def test_standard_orderings():
    assert standard_ordering(Index(3)).strategy == "natural"
    assert standard_ordering(Equality(2)).strategy == "natural"
    assert standard_ordering(InnerProduct(2)).strategy == "unit-first"
    assert standard_ordering(Disjointness(2)).strategy == "unit-first"
    assert standard_ordering(KIntersect(4, 2)).strategy == "kint-proof"


# --- report contract ----------------------------------------------------------


def test_report_consistency_and_semantics_note():
    rep = uniform_bound(Equality(2), standard_ordering(Equality(2)), Symmetric(0.2))
    assert rep.total == pytest.approx(math.fsum(rep.terms), abs=1e-12)
    assert all(t >= -1e-12 for t in rep.terms)
    assert rep.distribution == "uniform"
    assert "equality" in rep.channel_semantics
    assert rep.ordering_strategy == "natural"


def test_compute_bound_size_mismatch():
    f = build_family(Index(2))
    with pytest.raises(ArgumentError):
        compute_bound(f, InputDistribution.uniform(3), Ordering((0, 1)), Deterministic())


# --- structural invariants -----------------------------------------------------


def test_terms_within_unit_interval_and_total_capped():
    rng = np.random.default_rng(71)
    for _ in range(30):
        x_size = int(rng.integers(1, 17))
        y_size = int(rng.integers(1, 17))
        f = random_function(rng, x_size, y_size)
        dist = InputDistribution.uniform(x_size)
        perm = Ordering(tuple(int(v) for v in rng.permutation(y_size)))
        eps = float(rng.uniform(0.0, 0.5))
        for channel in (Deterministic(), Symmetric(eps)):
            rep = compute_bound(f, dist, perm, channel)
            assert all(-1e-12 <= t <= 1.0 + 1e-12 for t in rep.terms)
            assert rep.total <= math.log2(x_size) + 1e-9 if x_size > 1 else rep.total <= 1e-9


def test_flip_by_constant_in_x_leaves_terms_unchanged():
    # f(x, y) -> f(x, y) XOR c(y) for deterministic and symmetric channels
    rng = np.random.default_rng(72)
    for _ in range(20):
        x_size, y_size = int(rng.integers(2, 13)), int(rng.integers(1, 9))
        f = random_function(rng, x_size, y_size)
        flips = rng.integers(0, 2, y_size)
        flipped_bits = [
            f.bit(x, y) ^ int(flips[y]) for x in range(x_size) for y in range(y_size)
        ]
        g = BooleanFunction(x_size, y_size, flipped_bits)
        dist = InputDistribution.uniform(x_size)
        perm = Ordering(tuple(int(v) for v in rng.permutation(y_size)))
        for channel in (Deterministic(), Symmetric(0.17)):
            rf = compute_bound(f, dist, perm, channel)
            rg = compute_bound(g, dist, perm, channel)
            assert list(rf.terms) == pytest.approx(list(rg.terms), abs=1e-9)


def test_joint_x_permutation_leaves_terms_unchanged():
    rng = np.random.default_rng(73)
    for _ in range(20):
        x_size, y_size = int(rng.integers(2, 13)), int(rng.integers(1, 9))
        f = random_function(rng, x_size, y_size)
        weights = rng.random(x_size) + 0.05
        sigma = rng.permutation(x_size)
        permuted_bits = [
            f.bit(int(sigma[x]), y) for x in range(x_size) for y in range(y_size)
        ]
        g = BooleanFunction(x_size, y_size, permuted_bits)
        dist_f = InputDistribution(weights)
        dist_g = InputDistribution(weights[sigma])
        perm = Ordering(tuple(int(v) for v in rng.permutation(y_size)))
        channel = Symmetric(0.23)
        rf = compute_bound(f, dist_f, perm, channel)
        rg = compute_bound(g, dist_g, perm, channel)
        assert list(rf.terms) == pytest.approx(list(rg.terms), abs=1e-9)


def test_zero_weight_inputs_are_ignored():
    f = build_family(Equality(2))
    full = compute_bound(
        f, InputDistribution([1.0, 1.0, 0.0, 0.0]), Ordering((0, 1, 2, 3)), Deterministic()
    )
    g = BooleanFunction(2, 4, [f.bit(x, y) for x in range(2) for y in range(4)])
    small = compute_bound(
        g, InputDistribution([1.0, 1.0]), Ordering((0, 1, 2, 3)), Deterministic()
    )
    assert list(full.terms) == pytest.approx(list(small.terms), abs=1e-12)


# --- oracle ------------------------------------------------------------------


def test_oracle_equality_on_random_corpus():
    result = oracle_check(cases=40, seed=7, max_size=10)
    assert result.max_deviation <= 1e-9


def test_oracle_on_8x8_functions_with_random_channels():
    rng = np.random.default_rng(74)
    for _ in range(20):
        f = random_function(rng, 8, 8)
        dist = InputDistribution(rng.random(8) + 0.01)
        perm = Ordering(tuple(int(v) for v in rng.permutation(8)))
        channel = Asymmetric(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.5)))
        fast = compute_bound(f, dist, perm, channel)
        slow = direct_oracle(f, dist, perm, channel)
        assert fast.total == pytest.approx(slow.total, abs=1e-9)
        assert list(fast.terms) == pytest.approx(list(slow.terms), abs=1e-9)


def _spy(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "family, ordering, channel, paths",
    [
        # Distinct rows filling the key space: the trie is built over the
        # 2**11 keys, with no sort.
        (Index(11), "natural", Symmetric(0.1), ["_key_space_nodes"]),
        # A shallow, wide trie, 2**d branching nodes at depth d, after the
        # radix reader has told the 2**11 rows apart in their first round.
        (InnerProduct(11), "unit-first", Symmetric(0.1), ["_refine_distinct"]),
        # Permuted radix reader, its rows finished by one read of all the
        # columns left (the only read of more than 64 columns).
        (Equality(8), "random", Asymmetric(0.05, 0.2), ["_refine_distinct", "tail read"]),
        (KIntersect(8, 3), "kint-proof", Symmetric(0.1), ["_refine_distinct"]),
    ],
    ids=["index11-natural", "ip11-unit-first", "eq8-random", "kint8-3-kint-proof"],
)
def test_oracle_agrees_on_the_paths_the_random_corpus_misses(
    family, ordering, channel, paths, monkeypatch
):
    rng = np.random.default_rng(1783)
    f = build_family(family)
    dist = InputDistribution(rng.random(f.x_size) + 1e-3)
    if ordering == "random":
        perm = Ordering(tuple(int(v) for v in rng.permutation(f.y_size)))
    else:
        perm = make_ordering(ordering, f, dist, channel, k=getattr(family, "k", None))
    calls = []
    _spy(monkeypatch, icbound, "_key_space_nodes", calls)
    _spy(monkeypatch, rowsort, "_refine_distinct", calls)
    real_read = BooleanFunction.packed_rows

    def read(self, xs=None, cols=None):
        if cols is not None and len(cols) > 64:
            calls.append("tail read")
        return real_read(self, xs, cols)

    monkeypatch.setattr(BooleanFunction, "packed_rows", read)
    fast = compute_bound(f, dist, perm, channel)
    assert sorted(calls) == sorted(paths)
    slow = direct_oracle(f, dist, perm, channel)
    assert max(abs(a - b) for a, b in zip(fast.terms, slow.terms)) <= 1e-9
    assert abs(fast.total - slow.total) <= 1e-9


def test_oracle_constant_function_is_zero():
    f = BooleanFunction(4, 4, [0] * 16)
    rep = direct_oracle(
        f, InputDistribution.uniform(4), Ordering((0, 1, 2, 3)), Symmetric(0.1)
    )
    assert rep.total == pytest.approx(0.0, abs=1e-12)


def test_oracle_equality2_deterministic():
    rep = direct_oracle(
        build_family(Equality(2)),
        InputDistribution.uniform(4),
        Ordering((0, 1, 2, 3)),
        Deterministic(),
    )
    assert rep.total == pytest.approx(2.0, abs=1e-9)
