"""Signature, census, and hierarchy checks for two-bit input functions."""

from collections import Counter

import numpy as np
import pytest

from icbounds import (
    CLASS_REPRESENTATIVES,
    BooleanFunction,
    Deterministic,
    Disjointness,
    InnerProduct,
    InputDistribution,
    Ordering,
    Symmetric,
    UnsupportedSizeError,
    affine_x_maps,
    apply_x_substitution,
    build_family,
    census,
    census_table,
    classify_function,
    compute_bound,
    hierarchy_check,
    per_ordering_signature,
    signature,
)
from icbounds.classify import _steps_signature

# Frozen regression snapshot of the census (verified against the first full
# enumeration; the labels sum to 2**16).
EXPECTED_COUNTS = {
    "I": 16,
    "II": 720,
    "III": 960,
    "IV": 9120,
    "V": 6720,
    "VI": 13440,
    "VII": 11520,
    "VIII": 23040,
}


def random_function(rng):
    return BooleanFunction(4, 4, rng.integers(0, 2, 16))


def flip_outputs(f, flips):
    bits = [f.bit(x, y) ^ flips[y] for x in range(4) for y in range(4)]
    return BooleanFunction(4, 4, bits)


def permute_y(f, perm):
    bits = [f.bit(x, perm[y]) for x in range(4) for y in range(4)]
    return BooleanFunction(4, 4, bits)


def test_constant_functions_have_empty_signature():
    zero = BooleanFunction(4, 4, [0] * 16)
    one = BooleanFunction(4, 4, [1] * 16)
    assert signature(zero).is_trivial
    assert signature(zero) == signature(one)
    assert classify_function(zero) == "I"


def test_ip2_and_disj2_share_class_iv():
    ip = build_family(InnerProduct(2))
    disj = build_family(Disjointness(2))
    assert signature(ip) == signature(disj)
    assert classify_function(ip) == "IV"
    assert classify_function(disj) == "IV"


def test_class_iv_and_v_step_two_multisets_differ():
    # hand partition computation: step-2 multisets {(2,1)} vs {(2,1),(2,1)}
    four = CLASS_REPRESENTATIVES["IV"]
    five = CLASS_REPRESENTATIVES["V"]
    sig_iv = per_ordering_signature(four, (0, 1, 2, 3))
    sig_v = per_ordering_signature(five, (0, 1, 2, 3))
    assert sig_iv[1] == ((2, 1), (2, 1))
    assert sig_v[1] == ((2, 1),)
    assert signature(four) != signature(five)


def test_representatives_pairwise_distinct():
    sigs = [signature(f) for f in CLASS_REPRESENTATIVES.values()]
    assert len(set(sigs)) == 8


def test_wrong_size_is_rejected():
    with pytest.raises(UnsupportedSizeError):
        signature(BooleanFunction(2, 2, "0110"))
    with pytest.raises(UnsupportedSizeError):
        signature(build_family(InnerProduct(3)))
    with pytest.raises(UnsupportedSizeError):
        per_ordering_signature(build_family(InnerProduct(2)), (0, 1, 1, 3))


@pytest.mark.parametrize(
    "perm, entry",
    [((0, 1.9, 2, 3), 1), ((1.0, 0, 2, 3), 0), ((True, 0, 2, 3), 0), ((0, 1, np.False_, 3), 2),
     (("0", 1, 2, 3), 0), ((0, 1, 2, None), 3)],
)
def test_per_ordering_signature_refuses_entries_that_are_not_integers(perm, entry):
    # A float is not truncated into an index and a boolean is not an int.
    with pytest.raises(UnsupportedSizeError, match=f"ordering entry {entry} "):
        per_ordering_signature(CLASS_REPRESENTATIVES["V"], perm)


def test_per_ordering_signature_accepts_numpy_integers():
    five = CLASS_REPRESENTATIVES["V"]
    want = per_ordering_signature(five, (1, 0, 3, 2))
    assert per_ordering_signature(five, np.array([1, 0, 3, 2])) == want
    assert per_ordering_signature(five, np.array([1, 0, 3, 2], dtype=np.uint8)) == want


def test_affine_x_maps_are_24_invertible_substitutions():
    maps = affine_x_maps()
    assert len(maps) == 24
    assert len(set(maps)) == 24
    for sigma in maps:
        assert sorted(sigma) == [0, 1, 2, 3]


def test_signature_invariance_under_affine_maps_and_flips():
    rng = np.random.default_rng(31)
    maps = affine_x_maps()
    all_flips = [tuple((v >> y) & 1 for y in range(4)) for v in range(16)]
    for _ in range(200):
        f = random_function(rng)
        sig = signature(f)
        for sigma in maps:
            assert signature(apply_x_substitution(f, sigma)) == sig
        for flips in all_flips:
            assert signature(flip_outputs(f, flips)) == sig


def test_y_permutations_move_between_classes_but_not_outside():
    # The classes are tied to the enumeration order of Y: swapping the first
    # two columns exchanges V with VI (and VII with VIII), because it changes
    # which subfunction is consumed first.  Any permutation still lands in
    # one of the eight classes.
    swap = (1, 0, 2, 3)
    assert classify_function(permute_y(CLASS_REPRESENTATIVES["V"], swap)) == "VI"
    assert classify_function(permute_y(CLASS_REPRESENTATIVES["VI"], swap)) == "V"
    assert classify_function(permute_y(CLASS_REPRESENTATIVES["VII"], swap)) == "VIII"
    assert classify_function(permute_y(CLASS_REPRESENTATIVES["VIII"], swap)) == "VII"
    rng = np.random.default_rng(32)
    for _ in range(100):
        f = random_function(rng)
        for _ in range(6):
            perm = tuple(int(v) for v in rng.permutation(4))
            assert classify_function(permute_y(f, perm)) is not None


def test_census_reproduces_the_eight_classes():
    result = census()
    assert len(result) == 8
    by_label = {entry.label: entry.count for entry in result.values()}
    assert by_label == EXPECTED_COUNTS
    assert sum(by_label.values()) == 65536


def test_census_state_counts_equal_per_function_signatures():
    # The census counts (partition, steps) states; the reference refines each
    # of the 2**16 functions on its own with the signature's step function.
    expected = Counter()
    for fid in range(1 << 16):
        cols = [sum(((fid >> (x * 4 + y)) & 1) << x for x in range(4)) for y in range(4)]
        expected[_steps_signature(cols)] += 1
    assert {sig.steps: entry.count for sig, entry in census().items()} == expected


def test_census_table_sorted_and_threaded_runs_agree():
    seq = census_table(threads=1)
    par = census_table(threads=4)
    assert seq[0][0] == "I"
    assert [(l, c) for l, c, _ in seq] == [(l, c) for l, c, _ in par]


def test_hierarchy_checks_pass():
    results = hierarchy_check()
    assert [(c.source, c.target) for c in results] == [("II", "III"), ("IV", "V")]
    assert all(c.passed for c in results)


def test_identity_substitution_keeps_class():
    for label, rep in CLASS_REPRESENTATIVES.items():
        image = apply_x_substitution(rep, range(4))
        assert classify_function(image) == label


def test_equal_signatures_give_equal_bound_totals():
    # group random functions by signature; within a group the natural-order
    # term sequence is fixed, so totals agree for every symmetric channel
    rng = np.random.default_rng(33)
    groups = {}
    for _ in range(300):
        f = random_function(rng)
        groups.setdefault(signature(f), []).append(f)
    dist = InputDistribution.uniform(4)
    ordering = Ordering((0, 1, 2, 3))
    checked = 0
    for sig, funcs in groups.items():
        if len(funcs) < 2:
            continue
        first, second = funcs[0], funcs[1]
        for eps in (0.0, 0.1, 0.25):
            channel = Deterministic() if eps == 0.0 else Symmetric(eps)
            t1 = compute_bound(first, dist, ordering, channel).total
            t2 = compute_bound(second, dist, ordering, channel).total
            assert t1 == pytest.approx(t2, abs=1e-9)
        checked += 1
    assert checked >= 4
