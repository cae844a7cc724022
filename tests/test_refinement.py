"""The shared refinement kernel: the channel-independent trace and the ordering searches."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icbounds import (
    Asymmetric,
    BooleanFunction,
    Deterministic,
    InputDistribution,
    KIntersect,
    Symmetric,
    build_family,
    compute_bound,
    make_ordering,
)
from icbounds.icbound import _RefinementTrace, _refine, _support

EPS = st.floats(min_value=0.0, max_value=0.499, allow_nan=False)
CHANNELS = st.one_of(
    st.just(Deterministic()),
    st.builds(Symmetric, EPS),
    st.builds(Asymmetric, EPS, EPS),
)


@st.composite
def weighted_tables(draw):
    """A random table, a distribution that may give some inputs zero weight,
    and a random ordering of Bob's inputs."""
    x_size = draw(st.integers(1, 24))
    y_size = draw(st.integers(1, 24))
    bits = draw(st.lists(st.integers(0, 1), min_size=x_size * y_size, max_size=x_size * y_size))
    f = BooleanFunction(x_size, y_size, bits)
    if draw(st.booleans()):
        dist = InputDistribution.uniform(x_size)
    else:
        weights = draw(st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=x_size, max_size=x_size
        ))
        if not any(weights):
            weights[draw(st.integers(0, x_size - 1))] = 1.0
        dist = InputDistribution(weights)
    perm = tuple(draw(st.permutations(range(y_size))))
    return f, dist, perm


@settings(max_examples=300, deadline=None)
@given(weighted_tables(), st.lists(CHANNELS, min_size=1, max_size=3))
def test_trace_terms_equal_compute_bound_terms_exactly(case, channels):
    f, dist, perm = case
    trace = _RefinementTrace(f, dist, perm)
    for channel in channels:
        assert tuple(trace.terms(channel)) == compute_bound(f, dist, perm, channel).terms


def test_trace_of_fully_determined_table_pads_zero_terms():
    # Every input is alone in its cell after the first column.
    f = BooleanFunction(2, 3, [0, 1, 1, 1, 0, 0])
    trace = _RefinementTrace(f, InputDistribution.uniform(2), (0, 1, 2))
    assert trace.terms(Deterministic()) == [1.0, 0.0, 0.0]
    assert len(trace.terms(Symmetric(0.1))) == 3


# --- greedy ordering -------------------------------------------------------------


def reference_greedy(f, dist, channel):
    """The greedy search as first written, with its own split-and-relabel loop."""
    xs, wts = _support(f, dist)
    labels = np.zeros(wts.size, dtype=np.int64)
    ncells = 1
    unused = list(range(f.y_size))
    perm = []
    while unused:
        mass = np.bincount(labels, weights=wts, minlength=ncells)
        best_y, best_term, best_col = -1, -math.inf, None
        for y in unused:
            col = f.column(y)
            if xs is not None:
                col = col[xs]
            col = col.astype(np.int64)
            ones = np.bincount(labels, weights=wts * col, minlength=ncells)
            q = np.clip(ones / mass, 0.0, 1.0)
            term = float(mass @ channel.phi(q))
            if term > best_term:
                best_y, best_term, best_col = y, term, col
        perm.append(best_y)
        unused.remove(best_y)
        key = labels * 2 + best_col
        counts = np.bincount(key, minlength=2 * ncells)
        remap = np.cumsum(counts > 0) - 1
        labels = remap[key]
        ncells = int((counts > 0).sum())
    return tuple(perm)


def test_greedy_unchanged_on_kintersect_7_3():
    f = build_family(KIntersect(7, 3))
    dist = InputDistribution.uniform(f.x_size)
    assert make_ordering("greedy", f).perm == reference_greedy(f, dist, Deterministic())


@pytest.mark.parametrize("seed", range(6))
def test_greedy_unchanged_on_random_weighted_tables(seed):
    rng = np.random.default_rng([seed, 31])
    x_size, y_size = int(rng.integers(2, 40)), int(rng.integers(2, 12))
    f = BooleanFunction(x_size, y_size, rng.integers(0, 2, x_size * y_size))
    weights = rng.random(x_size)
    weights[rng.random(x_size) < 0.25] = 0.0
    weights[0] += 0.1
    dist = InputDistribution(weights)
    channel = (Deterministic(), Symmetric(0.1), Asymmetric(0.05, 0.2))[seed % 3]
    assert make_ordering("greedy", f, dist, channel).perm == reference_greedy(f, dist, channel)


# --- exhaustive ordering ---------------------------------------------------------


def reference_exhaustive(f, dist, channel):
    """The exhaustive search as first written: every permutation in
    lexicographic order, each refined anew; the first strict maximum wins."""
    xs, wts = _support(f, dist)
    top_total, top_perm = -math.inf, None
    for perm in itertools.permutations(range(f.y_size)):
        total = math.fsum(float(mass @ channel.phi(q)) for mass, q in _refine(f, xs, wts, perm))
        if total > top_total:
            top_total, top_perm = total, perm
    return top_perm


def test_exhaustive_matches_brute_force_up_to_float_noise_ties():
    # Brute force keeps whichever of several float-noise ties it met first
    # with the largest rounding, so the search may return another maximizer
    # -- but only one within the tie tolerance and lexicographically smaller.
    rng = np.random.default_rng(4)
    for case in range(200):
        # Brute force costs |Y|! refinements: three cases of |Y| = 7, twenty
        # of |Y| = 6, the rest smaller.
        y_size = 7 if case % 70 == 0 else 6 if case % 10 == 5 else int(rng.integers(1, 6))
        x_size = int(rng.integers(1, 24))
        f = BooleanFunction(x_size, y_size, rng.integers(0, 2, x_size * y_size))
        if case % 2:
            weights = rng.random(x_size)
            weights[rng.random(x_size) < 0.3] = 0.0
            weights[0] += 0.05
            dist = InputDistribution(weights)
        else:
            dist = InputDistribution.uniform(x_size)
        channel = (
            Deterministic(),
            Symmetric(float(rng.uniform(0.0, 0.5))),
            Asymmetric(float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 0.5))),
        )[case % 3]
        perm = make_ordering("exhaustive", f, dist, channel).perm
        brute = reference_exhaustive(f, dist, channel)
        if perm != brute:
            total = compute_bound(f, dist, perm, channel).total
            best = compute_bound(f, dist, brute, channel).total
            assert perm < brute
            assert abs(total - best) <= y_size * 1e-12 * max(1.0, best)


def test_exhaustive_breaks_a_float_noise_tie_to_the_smaller_permutation():
    # Brute force returns (0, 1, 2, 4, 3, 5, 6, 7) here: its total exceeds the
    # identity's by rounding alone, and no permutation does better.
    f = build_family(KIntersect(3, 1))
    dist = InputDistribution.uniform(f.x_size)
    channel = Symmetric(0.1)
    swapped = (0, 1, 2, 4, 3, 5, 6, 7)
    identity = tuple(range(8))
    gap = compute_bound(f, dist, swapped, channel).total - compute_bound(f, dist, identity, channel).total
    assert 0.0 < gap < 1e-15
    assert make_ordering("exhaustive", f, dist, channel).perm == identity
