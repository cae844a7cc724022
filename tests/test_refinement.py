"""The shared refinement kernel: the channel-independent trace and the ordering searches."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from icbounds import (
    Asymmetric,
    BooleanFunction,
    Deterministic,
    Disjointness,
    Equality,
    GreedySearchRefusal,
    Index,
    InnerProduct,
    InputDistribution,
    JointTable,
    KIntersect,
    Symmetric,
    build_family,
    compute_bound,
    conditional_mutual_information,
    direct_oracle,
    make_ordering,
    standard_ordering,
)
from icbounds.icbound import (
    _PHI_SLICE,
    _previous_smaller,
    _RefinementTrace,
    _split,
    _support,
)
from icbounds import icbound, rowsort
from icbounds.rowsort import _common_prefixes, _sorted_prefixes

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


def reference_oracle_terms(f, dist, perm, channel):
    """The oracle's terms as a loop over the active inputs: each history is a
    tuple of values, and each step's cells are a dict of those tuples in order
    of first appearance, holding the cell's masses summed in x order."""
    xs, wts = _support(f, dist)
    if xs is None:
        xs = np.arange(f.x_size)
    histories = [() for _ in range(len(xs))]
    terms = []
    for y in perm:
        groups = {}
        values = []
        for pos, x in enumerate(xs):
            v = f.bit(int(x), int(y))
            values.append(v)
            cell = groups.setdefault(histories[pos], [0.0, 0.0])
            cell[v] += float(wts[pos])
        probs = np.zeros((len(groups), 2, 2))
        for h, masses in enumerate(groups.values()):
            for v in (0, 1):
                g0, g1 = channel.guess_probabilities(v)
                probs[h, v, 0] = masses[v] * g0
                probs[h, v, 1] = masses[v] * g1
        table = JointTable((len(groups), 2, 2), probs.ravel())
        terms.append(conditional_mutual_information(table, 2, 1, (0,)))
        histories = [hist + (v,) for hist, v in zip(histories, values)]
    return terms


@settings(max_examples=200, deadline=None)
@given(st.one_of(weighted_tables(), trie_tables()), CHANNELS)
def test_direct_oracle_terms_equal_the_per_input_loop_bitwise(case, channel):
    f, dist, perm = case
    got = direct_oracle(f, dist, perm, channel).terms
    want = reference_oracle_terms(f, dist, perm, channel)
    assert [t.hex() for t in got] == [t.hex() for t in want]


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
        assert _common_prefixes(f.packed_rows(), np.arange(2), y_size).tolist() == [d]
        # Rows of at most 64 columns take the integer-key path.
        assert _sorted_prefixes(f, None, np.arange(y_size))[1].tolist() == [d]
    same = BooleanFunction(2, y_size, np.ones(2 * y_size, dtype=np.uint8))
    assert _common_prefixes(same.packed_rows(), np.arange(2), y_size).tolist() == [y_size]
    assert _sorted_prefixes(same, None, np.arange(y_size))[1].tolist() == [y_size]


@st.composite
def wide_tables(draw):
    """A table of more than one 64-column round under a random ordering,
    and a distribution that may give inputs zero weight.  The rows are
    random, copies of a few random rows, or one-hot plus a random first
    column in the ordering: such rows stay grouped until their one column
    is read, so the reader often takes three or more of its rounds of 64,
    128, 256, ... columns when |Y| is 1000 or 2049, and sorts the rounds
    wider than 64 columns as byte strings within their groups."""
    x_size = draw(st.integers(1, 40))
    y_size = draw(st.sampled_from([65, 127, 128, 129, 200, 300, 1000, 2049]))
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
    # Rounds of 64, 128, 256, ... columns, until the rows are apart.
    (KIntersect(10, 4), "kint-proof"),
    (InnerProduct(10), "unit-first"),
    (Disjointness(9), "unit-first"),
    # Rounds of 64, 128 and 256 columns, then the 64 left: one-hot rows stay
    # grouped until their one column is read.
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


def byte_sorted_prefixes(rows: np.ndarray, y_size: int):
    """The reader rows of at most 64 columns had before they were sorted as
    integer keys: a stable byte-string sort of the packed rows, and the
    common prefix of each adjacent pair from its first differing byte."""
    order = np.argsort(rows.view(f"S{rows.shape[1]}")[:, 0], kind="stable")
    diff = rows[order[1:]] ^ rows[order[:-1]]
    byte = (diff != 0).argmax(axis=1)
    first = np.take_along_axis(diff, byte[:, None], axis=1)[:, 0]
    bits = np.frexp(first.astype(np.float32))[1]
    return order, np.where(first != 0, 8 * byte + 8 - bits, y_size).astype(np.int32)


#: Widths where the key changes from uint32 to uint64 (32/33), where a
#: uint64 no longer converts to float64 exactly (53/54), and byte and word
#: edges.
KEY_EDGES = [1, 8, 9, 24, 25, 32, 33, 53, 54, 63, 64]


@st.composite
def narrow_tables(draw):
    """A table of at most 64 columns, identity or random ordering, and a
    distribution that may give inputs zero weight.  Read in the ordering,
    the rows are random, copies of a few random rows, or rows that leave a
    shared random row at the first column, at one random depth or never, so
    that pairs differ first at every bit of the key.  The rows that leave go on at random or
    as the complement of the shared row: next to the shared row, such a
    row's XOR with it is all ones from that depth on, the value that rounds
    up when a uint64 above 2**53 is converted to float64."""
    y_size = draw(st.one_of(st.sampled_from(KEY_EDGES), st.integers(1, 64)))
    x_size = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "repeated", "branching"]))
    if kind == "random":
        read = rng.integers(0, 2, (x_size, y_size), dtype=np.uint8)
    elif kind == "repeated":
        distinct = rng.integers(0, 2, (draw(st.integers(1, 5)), y_size), dtype=np.uint8)
        read = distinct[rng.integers(0, distinct.shape[0], x_size)]
    else:
        base = rng.integers(0, 2, y_size, dtype=np.uint8)
        read = rng.integers(0, 2, (x_size, y_size), dtype=np.uint8)
        # Each row leaves at the first column, at one random depth, or never.
        depth = np.array([0, rng.integers(0, y_size + 1), y_size])[rng.integers(0, 3, x_size)]
        shared = np.arange(y_size) < depth[:, None]
        read[shared] = np.broadcast_to(base, read.shape)[shared]
        leave = np.flatnonzero(depth < y_size)
        read[leave, depth[leave]] = 1 - base[depth[leave]]
        if draw(st.booleans()):
            read[~shared] = np.broadcast_to(1 - base, read.shape)[~shared]
    weights = rng.random(x_size)
    if draw(st.booleans()):
        weights[rng.random(x_size) < 0.3] = 0.0
        weights[int(rng.integers(0, x_size))] += 0.5
    perm = np.arange(y_size) if draw(st.booleans()) else rng.permutation(y_size)
    table = np.empty_like(read)
    table[:, perm] = read
    return table, InputDistribution(weights), perm


@settings(max_examples=300, deadline=None)
@given(narrow_tables())
def test_key_path_equals_the_byte_string_sort(case):
    table, dist, perm = case
    f = BooleanFunction(*table.shape, table)
    xs, _ = _support(f, dist)
    order, lcp = _sorted_prefixes(f, xs, perm)
    read = table[:, perm] if xs is None else table[xs][:, perm]
    want_order, want_lcp = byte_sorted_prefixes(np.ascontiguousarray(np.packbits(read, axis=1)), f.y_size)
    assert np.array_equal(order, want_order)
    assert lcp.dtype == np.int32 and np.array_equal(lcp, want_lcp)


@pytest.mark.parametrize("y_size", [65, 72, 100, 127, 128])
@pytest.mark.parametrize("zeros", [False, True])
def test_key_path_sorts_a_narrow_radix_tail(monkeypatch, y_size, zeros):
    # One-hot rows plus a random first column stay in two groups after the
    # first 64 columns, so the permuted reader sorts one 64-column round as
    # integer keys, then reads the at most 64 columns left in its second
    # round and sorts them as integer keys within each group.
    rng = np.random.default_rng(y_size)
    x_size = 400
    perm = rng.permutation(y_size)
    table = np.zeros((x_size, y_size), dtype=np.uint8)
    table[np.arange(x_size), rng.integers(0, y_size, x_size)] = 1
    table[:, perm[0]] = rng.integers(0, 2, x_size)
    weights = rng.random(x_size)
    if zeros:
        weights[rng.random(x_size) < 0.3] = 0.0
    f = BooleanFunction(x_size, y_size, table)
    xs, _ = _support(f, InputDistribution(weights))
    widths = []
    real = rowsort._row_keys
    monkeypatch.setattr(rowsort, "_row_keys", lambda rows, y_size: widths.append(rows.shape[1]) or real(rows, y_size))
    order, lcp = _sorted_prefixes(f, xs, perm)
    assert widths == [8, -(-(y_size - 64) // 8)]
    read = table[:, perm] if xs is None else table[xs][:, perm]
    want_order, want_lcp = reference_sorted_prefixes(read)
    assert np.array_equal(order, want_order)
    assert np.array_equal(lcp, want_lcp)


@pytest.mark.parametrize("family, strategy", [(KIntersect(12, 6), "kint-proof"), (Equality(10), "random")])
def test_permuted_reader_doubles_its_rounds(monkeypatch, family, strategy):
    # Round r reads 64 * 2**r columns, or all those left, so |Y| columns
    # take at most ceil(log2(|Y| / 64 + 1)) rounds: 7 for KIntersect(12, 6)
    # (|Y| = 4096) and 5 for Equality(10), whose one-hot rows need them all.
    f = build_family(family)
    if strategy == "random":
        perm = np.random.default_rng(10).permutation(f.y_size)
    else:
        perm = np.array(make_ordering(strategy, f, k=family.k).perm)
    widths = []
    real_read = BooleanFunction.packed_rows

    def read(self, xs=None, cols=None):
        if cols is not None:
            widths.append(len(cols))
        return real_read(self, xs, cols)

    monkeypatch.setattr(BooleanFunction, "packed_rows", read)
    _sorted_prefixes(f, None, perm)
    assert 1 <= len(widths) <= math.ceil(math.log2(f.y_size / 64 + 1))
    assert widths == [min(64 << r, f.y_size - sum(widths[:r])) for r in range(len(widths))]


def pointer_jumping_trace(f, dist, perm):
    """(step, q, mass, offsets) as the trace built them with pointer jumping
    alone: every node's cell bounds in sort order from ``_previous_smaller``,
    then mass and q permuted into step order."""
    xs, wts = _support(f, dist)
    y_size = len(perm)
    order, lcp = _sorted_prefixes(f, xs, np.asarray(perm, dtype=np.int64))
    cum = np.zeros(order.size + 1)
    np.cumsum(wts[order], out=cum[1:])
    edges = np.zeros(np.count_nonzero(lcp < y_size) + 2, dtype=np.int32)
    edges[1:-1] = np.flatnonzero(lcp < y_size) + 1
    edges[-1] = cum.size - 1
    depth = lcp[edges[1:-1] - 1]
    lo = edges[_previous_smaller(depth)]
    hi = edges[depth.size + 1 - _previous_smaller(depth[::-1])[::-1]]
    mass = cum[hi] - cum[lo]
    q = cum[hi] - cum[edges[1:-1]]
    np.divide(q, mass, out=q, where=mass > 0.0)
    by_depth = np.argsort(depth, kind="stable")
    offsets = [0, *np.cumsum(np.bincount(depth, minlength=y_size)).tolist()]
    step, mass, q = depth[by_depth], mass[by_depth], q[by_depth]
    first = np.ones(step.size, dtype=bool)
    first[1:] = (step[1:] != step[:-1]) | (q[1:] != q[:-1])
    first = np.flatnonzero(first)
    return step[first], q[first], np.add.reduceat(mass, first), offsets


@st.composite
def tall_tables(draw):
    """A table of thousands of rows and at most 16 columns: with many
    distinct rows a shallow, wide trie, with few a sparse one.  Rows repeat,
    and weights may be 0 or 1e-300, below the rounding of the prefix
    sums."""
    x_size = draw(st.integers(1000, 6000))
    y_size = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.one_of(st.integers(1, 60), st.integers(1000, x_size)))
    rows = rng.integers(0, 2, (distinct, y_size), dtype=np.uint8)
    table = rows[rng.integers(0, distinct, x_size)]
    weights = rng.random(x_size)
    weights[rng.random(x_size) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    weights[rng.random(x_size) < draw(st.sampled_from([0.0, 0.3]))] = 1e-300
    weights[int(rng.integers(0, x_size))] = 1.0
    dist = InputDistribution.uniform(x_size) if draw(st.booleans()) else InputDistribution(weights)
    return BooleanFunction(x_size, y_size, table), dist, tuple(int(v) for v in rng.permutation(y_size))


@settings(max_examples=150, deadline=None)
@given(tall_tables())
def test_trace_of_tall_tables_equals_pointer_jumping_bitwise(case):
    f, dist, perm = case
    trace = _RefinementTrace(f, dist, perm)
    step, q, mass, offsets = pointer_jumping_trace(f, dist, perm)
    assert trace.offsets == offsets
    for got, want in ((trace.step, step), (trace.q, q), (trace.mass, mass)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", [Index(12), InnerProduct(12), Equality(8), KIntersect(10, 5)])
def test_family_traces_equal_pointer_jumping_bitwise(family):
    # Index's rows fill their key space, so its trie is built over the keys;
    # the others are sorted: InnerProduct is a shallow, wide trie, Equality
    # and KIntersect under their orderings are deep and sparse.
    f = build_family(family)
    dist, perm = InputDistribution.uniform(f.x_size), standard_ordering(family).perm
    trace = _RefinementTrace(f, dist, perm)
    step, q, mass, offsets = pointer_jumping_trace(f, dist, perm)
    assert trace.offsets == offsets
    for got, want in ((trace.step, step), (trace.q, q), (trace.mass, mass)):
        assert got.tobytes() == want.tobytes()


@st.composite
def distinct_row_tables(draw):
    """Distinct rows of at most 14 columns, drawn as keys without
    replacement and enough of them to fill at least half of the key space,
    under a random ordering.  Weights may be 0, which can leave the active
    rows too few for the key space, or 1e-300, below the rounding of the
    prefix sums."""
    y_size = draw(st.integers(1, 14))
    x_size = draw(st.integers(max(1, 1 << (y_size - 1)), 1 << y_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keys = rng.choice(1 << y_size, x_size, replace=False)
    table = ((keys[:, None] >> np.arange(y_size)[::-1]) & 1).astype(np.uint8)
    weights = rng.random(x_size)
    weights[rng.random(x_size) < draw(st.sampled_from([0.0, 0.1, 0.6]))] = 0.0
    weights[rng.random(x_size) < draw(st.sampled_from([0.0, 0.3]))] = 1e-300
    weights[int(rng.integers(0, x_size))] = 1.0
    dist = InputDistribution.uniform(x_size) if draw(st.booleans()) else InputDistribution(weights)
    return BooleanFunction(x_size, y_size, table), dist, tuple(int(v) for v in rng.permutation(y_size))


@settings(max_examples=250, deadline=None)
@given(distinct_row_tables())
def test_trace_of_distinct_rows_equals_pointer_jumping_bitwise(case):
    f, dist, perm = case
    active = np.count_nonzero(dist.weights)
    event("key space" if active <= 1 << f.y_size <= 2 * active else "sorted")
    trace = _RefinementTrace(f, dist, perm)
    step, q, mass, offsets = pointer_jumping_trace(f, dist, perm)
    assert trace.offsets == offsets
    for got, want in ((trace.step, step), (trace.q, q), (trace.mass, mass)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case, builders", [
    ("distinct", ["_key_space_nodes"]),
    # The scatter finds the repeat, and the keys it read are sorted.
    ("repeated row", ["_key_space_nodes", "_sorted_nodes"]),
    # 500 rows fill less than half of the 2**10 keys: sorted, as decided
    # before the read.
    ("sparse", ["_sorted_nodes"]),
])
def test_key_space_falls_back_to_the_sort_with_one_table_read(monkeypatch, case, builders):
    rng = np.random.default_rng(20)
    keys = rng.choice(1 << 10, 700, replace=False)
    if case == "repeated row":
        keys[-1] = keys[0]
    elif case == "sparse":
        keys = keys[:500]
    table = ((keys[:, None] >> np.arange(10)[::-1]) & 1).astype(np.uint8)
    f = BooleanFunction(keys.size, 10, table)
    dist = InputDistribution(rng.random(keys.size))
    perm = tuple(int(v) for v in rng.permutation(10))
    want = pointer_jumping_trace(f, dist, perm)
    calls, reads = [], []
    for name in ("_key_space_nodes", "_sorted_nodes"):
        real = getattr(icbound, name)
        monkeypatch.setattr(icbound, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    real_read = BooleanFunction.packed_rows
    monkeypatch.setattr(
        BooleanFunction, "packed_rows", lambda self, *args: reads.append(args) or real_read(self, *args)
    )
    trace = _RefinementTrace(f, dist, perm)
    assert calls == builders
    assert len(reads) == 1
    assert trace.offsets == want[3]
    for got, expected in zip((trace.step, trace.q, trace.mass), want):
        assert got.tobytes() == expected.tobytes()


def edges_gather_terms(f, dist, perm, channel):
    """The step terms as the trace computed them when it mapped every
    node's boundaries to sorted rows through an int32 ``edges`` array and
    gathered the full prefix sum there (three gathers: lo, hi, node)."""
    xs, wts = _support(f, dist)
    y_size = len(perm)
    order, lcp = _sorted_prefixes(f, xs, np.asarray(perm, dtype=np.int64))
    cum = np.zeros(order.size + 1)
    np.cumsum(wts[order], out=cum[1:])
    edges = np.zeros(np.count_nonzero(lcp < y_size) + 2, dtype=np.int32)
    edges[1:-1] = np.flatnonzero(lcp < y_size)
    edges[1:-1] += 1
    edges[-1] = cum.size - 1
    depth = lcp[edges[1:-1] - 1]
    counts = np.bincount(depth, minlength=y_size)
    offsets = [0, *np.cumsum(counts).tolist()]
    node = np.argsort(depth.astype(np.uint16) if y_size < 1 << 16 else depth, kind="stable")
    node += 1
    pair = node - 1
    lo = _previous_smaller(depth)[pair]
    hi = depth.size + 1 - _previous_smaller(depth[::-1])[::-1][pair]
    lo, hi, node = edges[lo], edges[hi], edges[node]
    mass = cum[hi] - cum[lo]
    q = cum[hi] - cum[node]
    np.divide(q, mass, out=q, where=mass > 0.0)
    step = np.repeat(np.arange(y_size, dtype=np.int32), counts)
    first = np.ones(step.size, dtype=bool)
    first[1:] = (step[1:] != step[:-1]) | (q[1:] != q[:-1])
    first = np.flatnonzero(first)
    step, q, mass = step[first], q[first], np.add.reduceat(mass, first)
    phi = np.concatenate([[], *(channel.phi(q[a : a + _PHI_SLICE]) for a in range(0, q.size, _PHI_SLICE))])
    terms = np.bincount(step, weights=mass * phi, minlength=y_size)
    return terms.astype(np.float64, copy=False).tolist()


def repeated_rows(seed, size, classes):
    """A size x size table of copies of ``classes`` distinct random rows
    under a random ordering: few nodes, a deep and sparse trie."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, (classes, size), dtype=np.uint8)
    f = BooleanFunction(size, size, rows[rng.permutation(np.arange(size) % classes)])
    return f, tuple(int(v) for v in rng.permutation(size))


@pytest.mark.parametrize("make", [
    # Dominated by equal rows.
    lambda: repeated_rows(1, 512, 40),
    lambda: repeated_rows(2, 300, 3),
    lambda: repeated_rows(3, 64, 10),
    # Every row distinct.
    lambda: (build_family(Index(12)), tuple(range(12))),
    lambda: (build_family(Index(10)), tuple(int(v) for v in np.random.default_rng(4).permutation(10))),
    lambda: (build_family(InnerProduct(6)), standard_ordering(InnerProduct(6)).perm),
])
@pytest.mark.parametrize("weights", ["uniform", "random", "zeros"])
def test_trace_terms_equal_the_edges_gather_bitwise(make, weights):
    f, perm = make()
    rng = np.random.default_rng(f.x_size)
    w = rng.random(f.x_size)
    if weights == "zeros":
        w[rng.random(f.x_size) < 0.3] = 0.0
    dist = InputDistribution.uniform(f.x_size) if weights == "uniform" else InputDistribution(w)
    for channel in (Deterministic(), Symmetric(0.11), Asymmetric(0.05, 0.2)):
        got = compute_bound(f, dist, perm, channel).terms
        want = edges_gather_terms(f, dist, perm, channel)
        assert [t.hex() for t in got] == [t.hex() for t in want]


def test_index16_trace_memory_stays_below_the_edges_gather():
    # 2 952 523 bytes: the tracemalloc peak of this call when the rows were
    # sorted as byte strings and the trace gathered edges (CPython 3.11.7,
    # numpy 2.4.6, x86_64).
    f = build_family(Index(16))
    dist, perm = InputDistribution.uniform(f.x_size), standard_ordering(Index(16)).perm
    tracemalloc.start()
    try:
        compute_bound(f, dist, perm, Symmetric(0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_952_523


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


def test_exhaustive_reads_the_table_once_and_never_rebuilds_the_path(monkeypatch):
    rng = np.random.default_rng(18)
    f = BooleanFunction(20, 7, rng.integers(0, 2, 140))
    reads = []
    real_read = BooleanFunction.packed_rows

    def read(self, xs=None, cols=None):
        reads.append(cols)
        return real_read(self, xs, cols)

    def refused(*args):
        raise AssertionError("the exhaustive search priced a path again")

    monkeypatch.setattr(BooleanFunction, "packed_rows", read)
    monkeypatch.setattr(icbound, "_split", refused)
    make_ordering("exhaustive", f, InputDistribution(rng.random(20)), Symmetric(0.1))
    assert reads == [None]


def depth_first_exhaustive(f, dist, channel):
    """The exhaustive search as it was before it priced one subset level at a
    time: the same Held-Karp recursion, visiting the subsets depth first, each
    refined from itself minus its lowest column and priced on its own."""
    xs, wts = _support(f, dist)
    cols = f.table_array() if xs is None else f.table_array()[xs]
    y_size = f.y_size
    full = (1 << y_size) - 1
    value = np.zeros(full + 1)

    def price(labels, ncells, part):
        m = part.shape[1]
        mass = np.bincount(labels, weights=wts, minlength=ncells)
        key = (labels[:, None] * m + np.arange(m)).ravel()
        ones = np.bincount(key, weights=(wts[:, None] * part).ravel(), minlength=ncells * m)
        q = np.clip(ones.reshape(ncells, m) / mass[:, None], 0.0, 1.0)
        phi = np.ascontiguousarray(channel.phi(q).T)
        return np.array([mass @ row for row in phi])

    def continuations(s, labels, ncells):
        ys = [y for y in range(y_size) if not s >> y & 1]
        return ys, price(labels, ncells, cols[:, ys]) + value[[s | 1 << y for y in ys]]

    def visit(s, labels, ncells):
        for y in reversed(range((s & -s).bit_length() - 1 if s else y_size)):
            child, sizes = _split(labels, cols[:, y], ncells)
            visit(s | 1 << y, child, sizes.size)
        if s != full:
            value[s] = continuations(s, labels, ncells)[1].max()

    visit(0, np.zeros(wts.size, dtype=np.int64), 1)
    s, labels, ncells = 0, np.zeros(wts.size, dtype=np.int64), 1
    perm = []
    while s != full:
        ys, totals = continuations(s, labels, ncells)
        tie = 1e-12 * max(1.0, abs(value[s]))
        best = ys[int(np.flatnonzero(totals >= value[s] - tie)[0])]
        perm.append(best)
        labels, sizes = _split(labels, cols[:, best], ncells)
        ncells = sizes.size
        s |= 1 << best
    return tuple(perm)


def random_search_case(rng, case, max_y):
    """A random table of up to ``max_y`` columns, with some zero weights on
    odd cases, and one of the three channels in turn."""
    y_size = int(rng.integers(1, max_y + 1))
    x_size = int(rng.integers(1, 40))
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
    return f, dist, channel


def test_exhaustive_matches_the_depth_first_search():
    rng = np.random.default_rng(16)
    for case in range(60):
        f, dist, channel = random_search_case(rng, case, 10)
        perm = make_ordering("exhaustive", f, dist, channel).perm
        assert perm == depth_first_exhaustive(f, dist, channel), case


@pytest.mark.parametrize(
    "family", [InnerProduct(3), Index(5), KIntersect(3, 1), Equality(3)], ids=lambda fam: fam.name
)
def test_exhaustive_matches_the_depth_first_search_on_families(family):
    f = build_family(family)
    dist = InputDistribution.uniform(f.x_size)
    for channel in (Deterministic(), Symmetric(0.1), Asymmetric(0.05, 0.2)):
        assert make_ordering("exhaustive", f, dist, channel).perm == depth_first_exhaustive(
            f, dist, channel
        )


class PhiCalls:
    """A channel that counts its phi calls."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def phi(self, q):
        self.calls += 1
        return self.inner.phi(q)


@pytest.mark.parametrize("budget", [1, 3, 40])
def test_a_small_search_budget_splits_the_work_and_changes_no_pick(monkeypatch, budget):
    # The budget is counted in (subset, input, column) triples of
    # _ENTRY_BYTES each: 1 prices one column of one subset at a time, 3 up to
    # three columns, 40 several subsets of the top levels at once.
    rng = np.random.default_rng([budget, 16])
    cases = [random_search_case(rng, case, 8) for case in range(24)]
    before = [
        (make_ordering("exhaustive", f, d, c).perm, make_ordering("greedy", f, d, c).perm)
        for f, d, c in cases
    ]
    calls = {"levels": 0}
    level_values = icbound._level_values

    def counted(*args):
        calls["levels"] += 1
        return level_values(*args)

    monkeypatch.setattr(icbound, "_level_values", counted)
    levels = 0
    for (f, dist, channel), (exhaustive, greedy) in zip(cases, before):
        xs, wts = _support(f, dist)
        monkeypatch.setattr(icbound, "_SEARCH_BYTES", budget * icbound._ENTRY_BYTES * wts.size)
        assert make_ordering("exhaustive", f, dist, channel).perm == exhaustive
        counting = PhiCalls(channel)
        assert make_ordering("greedy", f, dist, counting).perm == greedy
        assert greedy == reference_greedy(f, dist, channel)
        levels += f.y_size
        # Greedy prices y_size + (y_size - 1) + ... + 1 candidates, at most
        # ``budget`` per phi call.
        candidates = f.y_size * (f.y_size + 1) // 2
        assert counting.calls >= -(-candidates // budget)
    assert calls["levels"] > levels


def test_greedy_refuses_above_its_cost_limit_before_reading_the_table(monkeypatch):
    f = BooleanFunction(4, 3, [0, 1] * 6)
    dist = InputDistribution([1.0, 0.0, 1.0, 1.0])

    def unread(*args):
        raise AssertionError("the table was read")

    monkeypatch.setattr(icbound, "GREEDY_LIMIT", 3 * 3 * 3 - 1)
    monkeypatch.setattr(BooleanFunction, "packed_rows", unread)
    with pytest.raises(GreedySearchRefusal, match=r"3 active inputs .* = 27 "):
        make_ordering("greedy", f, dist)
    monkeypatch.setattr(icbound, "GREEDY_LIMIT", 3 * 3 * 3)
    with pytest.raises(AssertionError, match="the table was read"):
        make_ordering("greedy", f, dist)
