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
    Disjointness,
    Equality,
    Index,
    InnerProduct,
    InputDistribution,
    KIntersect,
    Symmetric,
    build_family,
    compute_bound,
    direct_oracle,
    make_ordering,
    standard_ordering,
)
from icbounds.icbound import (
    _previous_smaller,
    _RefinementTrace,
    _split,
    _support,
)
from icbounds.rowsort import _common_prefixes, _packed_rows, _sorted_prefixes

EPS = st.floats(min_value=0.0, max_value=0.499, allow_nan=False)
CHANNELS = st.one_of(
    st.just(Deterministic()),
    st.builds(Symmetric, EPS),
    st.builds(Asymmetric, EPS, EPS),
)


def reference_refine(f, xs, wts, perm):
    """The per-step refinement the trie evaluator replaced: one pass over the
    active inputs per Bob input, yielding each step's cell masses and clipped
    q.  Cells reduced to a single input are retired from the active set; once
    nothing is active the generator stops, and every remaining term is zero."""
    if xs is None:
        xs = np.arange(f.x_size, dtype=np.int64)
    labels = np.zeros(wts.size, dtype=np.int64)
    ncells = 1
    for y in perm:
        if xs.size == 0:
            return
        col = f.bits_at(xs, y).astype(np.int64)
        mass = np.bincount(labels, weights=wts, minlength=ncells)
        ones = np.bincount(labels, weights=wts * col, minlength=ncells)
        yield mass, np.clip(ones / mass, 0.0, 1.0)
        labels, sizes = _split(labels, col, ncells)
        ncells = sizes.size
        if ncells and int(sizes.min()) == 1:
            keep = sizes[labels] > 1
            xs, wts, labels = xs[keep], wts[keep], labels[keep]
            if xs.size:
                member_counts = np.bincount(labels, minlength=ncells)
                alive = member_counts > 0
                labels = (np.cumsum(alive) - 1)[labels]
                ncells = int(alive.sum())
            else:
                ncells = 0


def reference_terms(f, dist, perm, channel):
    xs, wts = _support(f, dist)
    terms = [float(mass @ channel.phi(q)) for mass, q in reference_refine(f, xs, wts, perm)]
    return terms + [0.0] * (len(perm) - len(terms))


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


# y_size values that sit on either side of the 64-bit word boundaries.
Y_SIZES = st.one_of(st.integers(1, 12), st.sampled_from([1, 63, 64, 65, 130]))


@st.composite
def trie_tables(draw):
    """A table over few distinct rows (so many inputs share a row), with
    y_size on or near the 64-bit word boundaries, weights that may be zero,
    and a random ordering."""
    x_size = draw(st.integers(1, 24))
    y_size = draw(Y_SIZES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, x_size))
    rows = rng.integers(0, 2, (distinct, y_size), dtype=np.uint8)
    perm = rng.permutation(y_size)
    if draw(st.booleans()):
        # Rows that agree on a long prefix of the ordering branch deep down.
        shared = perm[: int(rng.integers(0, y_size + 1))]
        rows[:, shared] = rows[0, shared]
    table = rows[rng.integers(0, distinct, x_size)]
    if draw(st.booleans()):
        dist = InputDistribution.uniform(x_size)
    else:
        weights = rng.random(x_size)
        weights[rng.random(x_size) < 0.3] = 0.0
        weights[int(rng.integers(0, x_size))] += 0.5
        dist = InputDistribution(weights)
    return BooleanFunction(x_size, y_size, table), dist, tuple(int(v) for v in perm)


@settings(max_examples=300, deadline=None)
@given(st.one_of(weighted_tables(), trie_tables()), CHANNELS)
def test_trace_terms_match_the_per_step_reference(case, channel):
    f, dist, perm = case
    got = compute_bound(f, dist, perm, channel).terms
    want = reference_terms(f, dist, perm, channel)
    assert len(got) == len(want) == f.y_size
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(trie_tables(), CHANNELS)
def test_trace_terms_match_direct_oracle(case, channel):
    f, dist, perm = case
    got = compute_bound(f, dist, perm, channel)
    want = direct_oracle(f, dist, perm, channel)
    assert max(abs(a - b) for a, b in zip(got.terms, want.terms)) <= 1e-9
    assert abs(got.total - want.total) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(trie_tables(), CHANNELS, st.integers(0, 2**32 - 1))
def test_terms_invariant_under_permuting_x_with_its_weights(case, channel, seed):
    f, dist, perm = case
    sigma = np.random.default_rng(seed).permutation(f.x_size)
    g = BooleanFunction(f.x_size, f.y_size, f.table_array()[sigma])
    moved = InputDistribution(dist.weights[sigma])
    got = compute_bound(g, moved, perm, channel).terms
    want = compute_bound(f, dist, perm, channel).terms
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(trie_tables(), CHANNELS)
def test_terms_invariant_under_flipping_outputs(case, channel):
    # Flipping f swaps the two function values, so it swaps the two error
    # rates of an asymmetric channel; the other channels treat them alike.
    f, dist, perm = case
    flipped = BooleanFunction(f.x_size, f.y_size, 1 - f.table_array())
    mirror = Asymmetric(channel.eps_ii, channel.eps_i) if isinstance(channel, Asymmetric) else channel
    got = compute_bound(flipped, dist, perm, mirror).terms
    want = compute_bound(f, dist, perm, channel).terms
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


def reference_nodes(f, dist, perm):
    """The branching nodes (0 < q < 1) of the refinement, one flat (mass, q)
    entry per node grouped by step, and the step offsets into them: the
    per-node layout the trace kept before it merged equal q."""
    xs, wts = _support(f, dist)
    masses, qs, offsets = [], [], [0]
    for mass, q in reference_refine(f, xs, wts, perm):
        branching = (q > 0.0) & (q < 1.0)
        masses.append(mass[branching])
        qs.append(q[branching])
        offsets.append(offsets[-1] + int(branching.sum()))
    offsets += [offsets[-1]] * (len(perm) + 1 - len(offsets))
    return np.concatenate([[], *masses]), np.concatenate([[], *qs]), offsets


def reference_node_terms(mass, q, offsets, channel):
    """The step terms as the trace priced them before runs of equal q were
    merged: phi over every branching node, then one dot product per step."""
    phi = channel.phi(q)
    return [
        float(mass[a:b] @ phi[a:b]) if b > a else 0.0
        for a, b in itertools.pairwise(offsets)
    ]


@st.composite
def equal_q_tables(draw):
    """Tables whose cells of one step often share q: 2**k inputs under
    uniform weights, each column a parity or a conjunction of a few bits of
    x (Index(k) when every column is one bit), or a constant."""
    k = draw(st.integers(0, 7))
    y_size = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = np.arange(1 << k)
    columns = []
    for _ in range(y_size):
        bits = [(xs >> int(b)) & 1 for b in rng.integers(0, max(k, 1), int(rng.integers(1, 3)))]
        kind = int(rng.integers(0, 4))
        if kind == 0:
            columns.append(np.full(xs.size, int(rng.integers(0, 2))))
        elif kind == 1:
            columns.append(np.bitwise_and.reduce(bits))
        else:
            columns.append(np.bitwise_xor.reduce(bits))
    table = np.stack(columns, axis=1)
    if draw(st.booleans()):
        # Repeat the rows: more inputs per cell, the same q.
        table = np.repeat(table, int(rng.integers(2, 4)), axis=0)
    dist = InputDistribution.uniform(table.shape[0])
    return BooleanFunction(table.shape[0], y_size, table), dist, tuple(int(v) for v in rng.permutation(y_size))


@settings(max_examples=300, deadline=None)
@given(st.one_of(equal_q_tables(), weighted_tables(), trie_tables()), EPS, EPS, EPS)
def test_merged_trace_matches_the_per_node_terms(case, eps, eps_i, eps_ii):
    f, dist, perm = case
    trace = _RefinementTrace(f, dist, perm)
    mass, q, offsets = reference_nodes(f, dist, perm)
    assert trace.offsets == offsets
    assert trace.q.size <= q.size
    for channel in (Deterministic(), Symmetric(eps), Asymmetric(eps_i, eps_ii)):
        got = trace.terms(channel)
        want = reference_node_terms(mass, q, offsets, channel)
        assert len(got) == f.y_size
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12
        for t, a, b in zip(got, offsets, offsets[1:]):
            if a == b:
                assert math.copysign(1.0, t) == 1.0 and t == 0.0


class CountingChannel:
    """A channel that counts the q entries its phi is asked for."""

    def __init__(self, inner):
        self.inner = inner
        self.cells = 0

    def phi(self, q):
        self.cells += q.size
        return self.inner.phi(q)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 14])
def test_index_under_the_natural_ordering_prices_one_entry_per_step(n):
    # Step i has 2**i branching nodes, all with q = 1/2 and mass 2**-i.
    f = build_family(Index(n))
    trace = _RefinementTrace(f, InputDistribution.uniform(f.x_size), tuple(range(n)))
    assert trace.offsets == [(1 << i) - 1 for i in range(n + 1)]
    assert trace.q.size == n
    for inner in (Deterministic(), Symmetric(0.1), Asymmetric(0.05, 0.2)):
        channel = CountingChannel(inner)
        terms = trace.terms(channel)
        assert channel.cells == n
        assert terms == [float(inner.phi(np.array([0.5]))[0])] * n


def test_weighted_nodes_do_not_merge():
    # Distinct weights give every node its own q: one entry per node.
    f = build_family(Index(6))
    dist = InputDistribution(np.arange(1, 65) ** 0.5)
    trace = _RefinementTrace(f, dist, tuple(range(6)))
    assert trace.q.size == trace.offsets[-1] == 63


def test_empty_steps_are_positive_zero():
    # Equality(4) under a reversed ordering, duplicate rows and a single
    # input: steps with no branching node are +0.0 under every channel.
    cases = [
        (build_family(Equality(4)), tuple(range(16))[::-1]),
        (BooleanFunction(4, 3, [0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1]), (0, 1, 2)),
        (BooleanFunction(1, 65, [1] * 65), tuple(range(65))),
    ]
    for f, perm in cases:
        trace = _RefinementTrace(f, InputDistribution.uniform(f.x_size), perm)
        empty = [a == b for a, b in itertools.pairwise(trace.offsets)]
        assert any(empty)
        for channel in (Deterministic(), Symmetric(0.3), Asymmetric(0.2, 0.4)):
            terms = trace.terms(channel)
            assert all(type(t) is float for t in terms)
            assert all(math.copysign(1.0, t) == 1.0 and t == 0.0 for t, e in zip(terms, empty) if e)


@pytest.mark.parametrize("family", [Index(12), Equality(8), KIntersect(8, 2)])
def test_trace_terms_match_the_reference_on_families(family):
    f = build_family(family)
    dist = InputDistribution.uniform(f.x_size)
    perm = standard_ordering(family).perm
    for channel in (Deterministic(), Symmetric(0.11), Asymmetric(0.03, 0.27)):
        got = compute_bound(f, dist, perm, channel).terms
        assert max(abs(a - b) for a, b in zip(got, reference_terms(f, dist, perm, channel))) <= 1e-12


def test_duplicate_rows_and_a_single_input_cost_nothing():
    # Two copies of each of two rows: one branching node, at the first column
    # where the rows differ; every other step is exactly zero.
    f = BooleanFunction(4, 3, [0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1])
    terms = compute_bound(f, InputDistribution.uniform(4), (0, 1, 2), Symmetric(0.1)).terms
    assert terms[0] == 0.0 and terms[2] == 0.0 and terms[1] > 0.0
    single = BooleanFunction(1, 65, [1] * 65)
    terms = compute_bound(single, InputDistribution.uniform(1), tuple(range(65)), Symmetric(0.2)).terms
    assert terms == (0.0,) * 65


def test_weights_below_the_rounding_of_the_prefix_sums_give_finite_terms():
    # Sorted rows 00, 10, 11: the cell {10, 11} has a mass the prefix sums
    # cannot resolve next to the weight of 00.
    f = BooleanFunction(3, 2, [0, 0, 1, 0, 1, 1])
    dist = InputDistribution([1.0, 1e-300, 1e-300])
    for channel in (Deterministic(), Symmetric(0.1), Asymmetric(0.1, 0.3)):
        got = compute_bound(f, dist, (0, 1), channel).terms
        assert all(math.isfinite(t) for t in got)
        assert max(abs(a - b) for a, b in zip(got, reference_terms(f, dist, (0, 1), channel))) <= 1e-12


@pytest.mark.parametrize("y_size", [1, 63, 64, 65, 130])
def test_common_prefixes_on_word_boundaries(y_size):
    # Every bit from depth d on differs, so the rows' first differing byte is
    # all ones below its leading bit; depths 7 to 16 sit on byte boundaries.
    rng = np.random.default_rng(y_size)
    depths = {0, 7, 8, 9, 15, 16, 31, 32, 52, 53, 54, 63, 64, 65, 127, 128, 129}
    for d in sorted(depths & set(range(y_size))):
        a = rng.integers(0, 2, y_size, dtype=np.uint8)
        b = a.copy()
        b[d:] ^= 1
        f = BooleanFunction(2, y_size, np.concatenate([a, b]))
        assert _common_prefixes(_packed_rows(f, None, np.arange(y_size)), np.arange(2), y_size).tolist() == [d]
    same = BooleanFunction(2, y_size, np.ones(2 * y_size, dtype=np.uint8))
    assert _common_prefixes(_packed_rows(same, None, np.arange(y_size)), np.arange(2), y_size).tolist() == [y_size]


@st.composite
def wide_tables(draw):
    """A table of more than one 64-column chunk under a random ordering, and
    a distribution that may give inputs zero weight.  The rows are random,
    copies of a few random rows, or one-hot plus a random first column in
    the ordering: such rows stay in two groups after the first chunk, so
    the reader repacks the rest."""
    x_size = draw(st.integers(1, 40))
    y_size = draw(st.sampled_from([65, 127, 128, 129, 200, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(y_size)
    kind = draw(st.sampled_from(["random", "repeated", "one-hot"]))
    if kind == "random":
        table = rng.integers(0, 2, (x_size, y_size), dtype=np.uint8)
    elif kind == "repeated":
        distinct = rng.integers(0, 2, (draw(st.integers(1, 5)), y_size), dtype=np.uint8)
        table = distinct[rng.integers(0, distinct.shape[0], x_size)]
    else:
        table = np.zeros((x_size, y_size), dtype=np.uint8)
        table[np.arange(x_size), rng.integers(0, y_size, x_size)] = 1
        table[:, perm[0]] = rng.integers(0, 2, x_size)
    weights = rng.random(x_size)
    if draw(st.booleans()):
        weights[rng.random(x_size) < 0.3] = 0.0
        weights[int(rng.integers(0, x_size))] += 0.5
    return table, InputDistribution(weights), perm


def reference_sorted_prefixes(read: np.ndarray):
    """The stable lexicographic order of the rows of ``read`` and the
    common prefix of each adjacent pair, from the unpacked bits."""
    # lexsort's last key is its primary one.
    order = np.lexsort(np.packbits(read, axis=1).T[::-1])
    differ = read[order[1:]] != read[order[:-1]]
    return order, np.where(differ.any(axis=1), differ.argmax(axis=1), read.shape[1])


@settings(max_examples=200, deadline=None)
@given(wide_tables())
def test_permuted_reader_is_a_stable_lexicographic_sort(case):
    table, dist, perm = case
    f = BooleanFunction(*table.shape, table)
    xs, _ = _support(f, dist)
    order, lcp = _sorted_prefixes(f, xs, perm)
    want_order, want_lcp = reference_sorted_prefixes(table[:, perm] if xs is None else table[xs][:, perm])
    assert np.array_equal(order, want_order)
    assert np.array_equal(lcp, want_lcp)


@pytest.mark.parametrize("family, strategy", [
    # Four rounds of 64 columns, with no repack.
    (KIntersect(10, 4), "kint-proof"),
    (InnerProduct(10), "unit-first"),
    (Disjointness(9), "unit-first"),
    # One round, then the remaining columns repacked.
    (Equality(9), "random"),
])
def test_permuted_reader_on_families(family, strategy):
    f = build_family(family)
    if strategy == "random":
        perm = np.random.default_rng(9).permutation(f.y_size)
    else:
        perm = np.array(make_ordering(strategy, f, k=getattr(family, "k", None)).perm)
    order, lcp = _sorted_prefixes(f, None, perm)
    # The same table with its columns already in the ordering takes the
    # identity path.
    permuted = BooleanFunction(f.x_size, f.y_size, f.table_array()[:, perm])
    want_order, want_lcp = _sorted_prefixes(permuted, None, np.arange(f.y_size))
    assert np.array_equal(order, want_order)
    assert np.array_equal(lcp, want_lcp)
    dist = InputDistribution.uniform(f.x_size)
    for channel in (Deterministic(), Symmetric(0.1), Asymmetric(0.05, 0.2)):
        assert (compute_bound(f, dist, tuple(perm), channel).terms
                == compute_bound(permuted, dist, tuple(range(f.y_size)), channel).terms)


def test_previous_smaller_matches_a_stack_scan():
    rng = np.random.default_rng(7)
    for values in [
        np.arange(50)[::-1],
        np.arange(50),
        np.r_[np.arange(1, 40), 0],
        rng.integers(0, 6, 300),
        np.array([], dtype=np.int64),
    ]:
        want, stack = [], []
        for i, v in enumerate(values):
            while stack and values[stack[-1]] >= v:
                stack.pop()
            want.append(stack[-1] + 1 if stack else 0)
            stack.append(i)
        assert _previous_smaller(values).tolist() == want


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
    top_total, top_perm = -math.inf, None
    for perm in itertools.permutations(range(f.y_size)):
        total = math.fsum(reference_terms(f, dist, perm, channel))
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
    # Brute force over the per-step reference returns (0, 1, 2, 4, 3, 5, 6, 7)
    # here: its total exceeds the identity's by rounding alone, and no
    # permutation does better.
    f = build_family(KIntersect(3, 1))
    dist = InputDistribution.uniform(f.x_size)
    channel = Symmetric(0.1)
    swapped = (0, 1, 2, 4, 3, 5, 6, 7)
    identity = tuple(range(8))
    gap = math.fsum(reference_terms(f, dist, swapped, channel)) - math.fsum(
        reference_terms(f, dist, identity, channel)
    )
    assert 0.0 < gap < 1e-15
    assert make_ordering("exhaustive", f, dist, channel).perm == identity
