"""Lower bounds on one-way communication complexity from information causality.

For a function f, an input distribution for x, an ordering y^0, ..., y^{|Y|-1}
of Bob's inputs, and a guess channel, this module evaluates

    sum_i I(g; f(x, y^i) | {f(x, y^j)}_{j<i}, y = y^i)

in bits.  Any one-way protocol whose guess g meets the channel's success rate
on every input must send at least this many bits, so a larger total is a
stronger lower bound.

The history {f(x, y^j)}_{j<i} partitions X into cells of inputs that share
the same value vector.  For every cell with probability mass w and
conditional probability q of f(x, y^i) = 1, step i contributes w * phi(q),
where phi depends on the channel:

    errorless:            phi(q) = h(q)
    symmetric eps:        phi(q) = h(eps + q(1-2eps)) - h(eps)
    type-I/II (eI, eII):  phi(q) = h(q(1-eII) + (1-q) eI) - q h(eII) - (1-q) h(eI)

after which every cell splits by the value of f(., y^i).  Cells where q is 0
or 1 contribute nothing and do not split, which is what makes deterministic
histories prune.

The cells after step i are the nodes at depth i of the binary trie of the
rows f(x, .) read in the ordering, and only the branching nodes (0 < q < 1)
contribute.  ``_RefinementTrace`` finds all of them from one sort of the
rows read in the ordering (module ``rowsort``: rows of at most 64 columns
sorted as one integer key each, wider rows as byte strings under the
identity ordering, and under any other ordering of more than 64 columns a
radix refinement of the distinct rows that reads only the bits separating
them).  Each adjacent pair of sorted rows that differ is one branching
node, at the depth of their longest common prefix, and its cell reaches to
the nearest pairs on either side with a shorter common prefix.  A shallow, wide trie (at least ``_NODES_PER_DEPTH`` nodes
per depth, as Index under the natural ordering) builds those cells
bottom-up, one depth at a time, merging each node's two child cells; a
deep, sparse one (Equality, KIntersect under kint-proof) finds them by
pointer jumping to the nearest shallower pairs.  Nodes of one step that are
adjacent in the sort and have the same q are merged into one entry holding
their summed mass, since they share one phi value (Index(n) keeps one entry
per step).
The trace does not depend on the channel; only phi does.  ``compute_bound``
prices one trace, and pricing one table under many channels -- the
bisection over the error rate in ``prbox.max_bias`` -- evaluates phi again
over the same merged entries and sums every step's term in one pass.
The ordering searches refine one column at a time with the cell-splitting
step ``_split`` and price every candidate column of a partition at once
(``_price``); exhaustive search is a dynamic program over the subsets of Y,
since the partition after a prefix depends only on the set of columns used.

Channel semantics: the success constraint is taken at equality -- the guess
is correct with probability exactly one minus the stated error rate,
independently for every input pair.  Every report records this convention.

``direct_oracle`` recomputes the same quantity along an independent path
and exists to cross-check the evaluator: one explicit joint table over the
history value vectors per step, with no pruning, fed to the generic
conditional-mutual-information routine.  It uses none of the evaluator's
machinery (no sort, common prefix, trie, ``_split`` or ``_price``).
``oracle_check`` runs both on random tables, orderings and channels.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .boolfn import (
    BooleanFunction,
    FunctionFamily,
    InputDistribution,
    _integer_entries,
    _is_integer,
)
from .errors import ArgumentError, ExhaustiveSearchRefusal
from .infocalc import (
    TOLERANCE,
    JointTable,
    binary_entropy,
    binary_entropy_vec,
    conditional_mutual_information,
)
from .rowsort import _sorted_prefixes

#: Recorded in every report: how the guess channel is pinned down.
CHANNEL_SEMANTICS = (
    "success probability taken at equality: Pr[g = f(x,y) | x, y] equals the "
    "stated rate, independently for every input pair"
)

#: Exhaustive ordering search refuses beyond this |Y| unless overridden.
EXHAUSTIVE_LIMIT = 16

#: Exhaustive ordering search refuses beyond this |Y| even when overridden:
#: it keeps one float per subset of Y (128 MiB at |Y| = 24).
EXHAUSTIVE_HARD_LIMIT = 24


# ---------------------------------------------------------------------------
# Guess channels
# ---------------------------------------------------------------------------


def _error_rate(kind: str, name: str, value) -> float:
    """An error rate in [0, 0.5) as a Python float, with -0.0 read as 0.0; a
    bool or a value that is not a real number is refused, not converted."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ArgumentError(f"{kind} channel requires a real number {name}, got {value!r}")
    value = float(value) + 0.0
    if not 0.0 <= value < 0.5:
        raise ArgumentError(f"{kind} channel requires {name} in [0, 0.5), got {value!r}")
    return value


@dataclass(frozen=True)
class Deterministic:
    """Errorless guess: g always equals the function value."""

    def phi(self, q: np.ndarray) -> np.ndarray:
        return binary_entropy_vec(q)

    def guess_probabilities(self, value: int) -> tuple:
        """(P(g=0), P(g=1)) conditioned on f = value."""
        return (1.0, 0.0) if value == 0 else (0.0, 1.0)

    def describe(self) -> dict:
        return {"kind": "deterministic"}


@dataclass(frozen=True)
class Symmetric:
    """Guess errs with the same probability eps < 1/2 on both function values."""

    eps: float

    def __post_init__(self):
        object.__setattr__(self, "eps", _error_rate("symmetric", "eps", self.eps))

    def phi(self, q: np.ndarray) -> np.ndarray:
        return binary_entropy_vec(self.eps + q * (1.0 - 2.0 * self.eps)) - binary_entropy(self.eps)

    def guess_probabilities(self, value: int) -> tuple:
        e = self.eps
        return (1.0 - e, e) if value == 0 else (e, 1.0 - e)

    def describe(self) -> dict:
        return {"kind": "symmetric", "eps": self.eps}


@dataclass(frozen=True)
class Asymmetric:
    """Type-I error eps_i when f = 0 and type-II error eps_ii when f = 1."""

    eps_i: float
    eps_ii: float

    def __post_init__(self):
        for name in ("eps_i", "eps_ii"):
            object.__setattr__(self, name, _error_rate("asymmetric", name, getattr(self, name)))

    def phi(self, q: np.ndarray) -> np.ndarray:
        mix = q * (1.0 - self.eps_ii) + (1.0 - q) * self.eps_i
        return binary_entropy_vec(mix) - (
            q * binary_entropy(self.eps_ii) + (1.0 - q) * binary_entropy(self.eps_i)
        )

    def guess_probabilities(self, value: int) -> tuple:
        if value == 0:
            return (1.0 - self.eps_i, self.eps_i)
        return (self.eps_ii, 1.0 - self.eps_ii)

    def describe(self) -> dict:
        return {"kind": "asymmetric", "eps_i": self.eps_i, "eps_ii": self.eps_ii}


ChannelModel = Union[Deterministic, Symmetric, Asymmetric]


# ---------------------------------------------------------------------------
# Orderings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ordering:
    """A permutation of Bob's input indices driving the step sum."""

    perm: tuple
    strategy: str = "custom"

    def __post_init__(self):
        perm = _integer_entries(self.perm, "ordering", "y index")
        if not _is_permutation(perm):
            raise ArgumentError(f"not a permutation of 0..{len(perm) - 1}: {perm!r}")
        object.__setattr__(self, "perm", perm)

    def __len__(self) -> int:
        return len(self.perm)


def _is_permutation(values: tuple) -> bool:
    """Whether the Python ints ``values`` are 0, 1, ..., len(values) - 1 in
    some order, checked in C."""
    try:
        entries = np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        return False
    if entries.size and not 0 <= entries.min() <= entries.max() < entries.size:
        return False
    # n entries in range(n) are a permutation when none repeats.
    return bool(np.all(np.bincount(entries, minlength=entries.size) == 1))


def _as_ordering(ordering, y_size: int) -> Ordering:
    if not isinstance(ordering, Ordering):
        ordering = Ordering(tuple(ordering))
    if len(ordering) != y_size:
        raise ArgumentError(f"ordering length {len(ordering)} != y_size {y_size}")
    return ordering


@dataclass(frozen=True)
class BoundReport:
    """Per-step terms and total of the information lower bound, with provenance."""

    ordering: tuple
    ordering_strategy: str
    channel: ChannelModel
    distribution: str
    terms: tuple
    total: float
    channel_semantics: str = CHANNEL_SEMANTICS


# ---------------------------------------------------------------------------
# Partition-refinement evaluator
# ---------------------------------------------------------------------------


def _support(f: BooleanFunction, dist: InputDistribution):
    """Active inputs and their weights; xs is None when all of X is active."""
    if dist.x_size != f.x_size:
        raise ArgumentError(f"distribution length {dist.x_size} != x_size {f.x_size}")
    w = dist.weights
    if np.all(w > 0.0):
        return None, w
    xs = np.flatnonzero(w > 0.0)
    return xs, w[xs]


def _split(labels: np.ndarray, col: np.ndarray, ncells: int):
    """Split every cell by the value in ``col``; relabel compactly without sorting.

    Returns the new cell label of every input and the size of every new cell.
    """
    key = labels * 2 + col
    counts = np.bincount(key, minlength=2 * ncells)
    nonzero = counts > 0
    return (np.cumsum(nonzero) - 1)[key], counts[nonzero]


def _previous_smaller(values: np.ndarray) -> np.ndarray:
    """For every i, one more than the largest j < i with values[j] < values[i];
    0 when there is none.

    All nearest smaller values by pointer jumping: each pointer starts at its
    left neighbour and, while the value it points at is not smaller, jumps to
    that entry's own pointer.  Everything a pointer skips is at least the
    skipping entry's value, so the pointers stay valid.  Pointers that jump
    together double their reach each round; one that meets resolved pointers
    follows their chain to a smaller value each round.  Each round costs
    time in proportion to the pointers still unresolved.
    """
    # Entry 0 is a sentinel smaller than every value, so no pointer runs off.
    ext = np.empty(values.size + 1, dtype=np.int32)
    ext[0] = -1
    ext[1:] = values
    # Native-width indices, which numpy does not convert on every gather.
    ptr = np.arange(-1, values.size)
    ptr[0] = 0
    todo = np.flatnonzero(ext[:-1] >= ext[1:]) + 1
    while todo.size:
        jump = ptr[ptr[todo]]
        ptr[todo] = jump
        todo = todo[ext[jump] >= ext[todo]]
    return ptr[1:]


def _cells_by_depth(node: np.ndarray, offsets: list) -> tuple:
    """The cell of every branching node, found bottom-up one depth at a time.

    Boundary k lies before distinct sorted row k (counting from 0), and the
    last boundary after the last row.  The nodes of depth d sit at the
    boundaries ``node[offsets[d]:offsets[d + 1]]``.  ``left[b]`` is where
    the cell ending at boundary b starts and ``right[b]`` where the cell
    starting at b ends; at first every cell is one distinct row.  From
    the deepest depth up, each node joins the cell that ends at its boundary
    with the cell that starts there.  In a binary trie the cells of one
    depth are disjoint, so no two of its nodes write the same entry.
    Returns the boundaries where every node's cell starts and ends (int32,
    in the order of ``node``).
    """
    left = np.arange(-1, node.size + 1, dtype=np.int32)
    right = np.arange(1, node.size + 3, dtype=np.int32)
    lo = np.empty(node.size, dtype=np.int32)
    hi = np.empty(node.size, dtype=np.int32)
    for a, z in reversed(list(itertools.pairwise(offsets))):
        if a < z:
            at, start, end = node[a:z], lo[a:z], hi[a:z]
            np.take(left, at, out=start)
            np.take(right, at, out=end)
            right[start] = end
            left[end] = start
    return lo, hi


#: A trie with at least this many branching nodes per depth that has any
#: builds its cells one depth at a time (``_cells_by_depth``), which costs a
#: few numpy calls per depth; sparser tries use pointer jumping
#: (``_previous_smaller``), which costs a few passes over the nodes.  The
#: two took equal time at about 100 nodes per depth, on tries of 500 to
#: 130 000 nodes (2-core x86_64, numpy 2.4).
_NODES_PER_DEPTH = 128

#: ``_RefinementTrace.terms`` evaluates phi over at most this many nodes at once.
_PHI_SLICE = 1 << 16


class _RefinementTrace:
    """The refinement of X along ``perm``, as the branching nodes of the row trie.

    The cells after step i are the sets of active inputs whose rows, read in
    the order ``perm``, share their first i entries: the nodes at depth i of
    the binary trie of the rows.  Only a node with both children (0 < q < 1)
    contributes to a term.  So the rows are sorted once in that order, and
    the longest common prefix of each adjacent pair is found
    (``rowsort._sorted_prefixes``).  Every adjacent
    pair of sorted rows that differ is exactly one branching node, at the
    depth of their longest common prefix d, and its cell runs between the
    nearest pairs on either side whose common prefix is shorter than d.
    The nodes are put in step order by one stable sort on depth.  When there
    are at least ``_NODES_PER_DEPTH`` of them per depth that has any, the
    cells are built from the deepest step up, one numpy pass per step
    (``_cells_by_depth``), and come out in step order.  Otherwise a few
    numpy passes per depth would cost more than the nodes themselves, and
    the cell bounds are found in sort order by pointer jumping
    (``_previous_smaller``) and then put in step order.  Both give the same
    bounds.  Cell masses and ones masses are differences of the prefix sums
    of the sorted weights, kept only at the boundaries, so that the nodes'
    boundaries index them directly.

    The nodes are grouped by step, in the lexicographic order of their
    prefixes within a step, and each run of adjacent nodes of one step with
    exactly equal q is merged into one entry: ``step``, ``q`` and ``mass``
    (the run's summed mass) hold one value per entry.  Only equal q merge,
    so no tolerance is involved; under weights that make every cell's q
    distinct nothing merges.  ``offsets`` still counts the branching nodes
    per step before merging: step i had ``offsets[i + 1] - offsets[i]`` of
    them.  Duplicate rows and cells that no longer split cost nothing.
    """

    def __init__(self, f: BooleanFunction, dist: InputDistribution, perm):
        xs, wts = _support(f, dist)
        y_size = len(perm)
        order, lcp = _sorted_prefixes(f, xs, np.asarray(perm, dtype=np.int64))
        # The prefix sums of the sorted weights, in place.
        cum = np.zeros(order.size + 1)
        np.take(wts, order, out=cum[1:])
        del order
        np.cumsum(cum[1:], out=cum[1:])
        # Each adjacent pair of sorted rows that differ is one node, at the
        # depth of their common prefix.  Boundary k lies after the k-th
        # node's pair, boundary 0 before the first sorted row and the last
        # after the last.  A node's cell is the sorted rows from boundary lo
        # to boundary hi, and its rows from its own boundary to hi have a 1
        # in the column at the node's depth.
        differ = lcp < y_size
        depth = lcp[differ]
        del lcp
        if depth.size < cum.size - 2:
            # From here on ``cum`` holds the prefix sums at the boundaries
            # only: equal rows share one.
            cum = np.concatenate((cum[:1], cum[1:-1][differ], cum[-1:]))
        del differ
        counts = np.bincount(depth, minlength=y_size)
        self.offsets = [0, *np.cumsum(counts).tolist()]
        # node: the boundary of every node, grouped by step and in sorted
        # order within a step.  A stable sort of 8- or 16-bit integers is a
        # radix sort, one pass per byte.
        node = np.argsort(depth.astype(np.min_scalar_type(y_size - 1)), kind="stable")
        node += 1
        if depth.size >= _NODES_PER_DEPTH * np.count_nonzero(counts):
            del depth
            lo, hi = _cells_by_depth(node, self.offsets)
        else:
            pair = node - 1
            lo = _previous_smaller(depth)[pair]
            hi = depth.size + 1 - _previous_smaller(depth[::-1])[::-1][pair]
            del depth, pair
        q = cum[node]
        del node
        mass = cum[lo]
        del lo
        top = cum[hi]
        del cum, hi
        np.subtract(top, mass, out=mass)
        np.subtract(top, q, out=q)
        del top
        # A node's true mass is positive, but a difference of prefix sums
        # rounds to 0 when the node's weights are below the rounding error of
        # the sums (weights spanning some 16 orders of magnitude); q is then 0.
        np.divide(q, mass, out=q, where=mass > 0.0)
        step = np.repeat(np.arange(y_size, dtype=np.int32), counts)
        # Adjacent nodes of one step with equal q share one phi value.
        first = np.ones(step.size, dtype=bool)
        np.not_equal(step[1:], step[:-1], out=first[1:])
        first[1:] |= q[1:] != q[:-1]
        first = np.flatnonzero(first)
        self.step = step[first]
        del step
        self.q = q[first]
        del q
        self.mass = np.add.reduceat(mass, first)

    def terms(self, channel: ChannelModel) -> list:
        """The step terms under ``channel``: phi once per run of equal q,
        evaluated in slices so that its temporaries stay small, and every
        step's sum in one pass."""
        phi = np.empty_like(self.q)
        for a in range(0, phi.size, _PHI_SLICE):
            phi[a : a + _PHI_SLICE] = channel.phi(self.q[a : a + _PHI_SLICE])
        phi *= self.mass
        # With no nodes at all, bincount returns integer zeros.
        terms = np.bincount(self.step, weights=phi, minlength=len(self.offsets) - 1)
        return terms.astype(np.float64, copy=False).tolist()


def compute_bound(
    f: BooleanFunction,
    dist: InputDistribution,
    ordering,
    channel: ChannelModel,
) -> BoundReport:
    """Evaluate the information lower bound by partition refinement.

    Sorts the active rows once as stored, O(|X| log |X|) row comparisons,
    finds the cell of every branching node of the row trie (at most |X| - 1)
    in a few numpy passes per depth of a shallow, wide trie, or by pointer
    jumping, O(|X| log |X|), in a deep, sparse one, and makes one phi
    evaluation per run of adjacent nodes with equal q; suitable up to
    |X| = |Y| = 2**14.  Under the identity ordering, or with |Y| <= 64,
    that sort is the whole read; with |Y| <= 64 each row is one integer
    key, so Index(20) (2**20 rows) sorts with one argsort of uint32.  Under
    any other ordering the sort only collapses equal rows, and the distinct
    rows are then read 64 permuted columns at a time, each only until it is
    apart from every other: a few per cent of the table's bits for
    KIntersect under kint-proof, well under one per cent for InnerProduct
    under unit-first.  Rows that stay together over many columns (Equality
    under a random ordering) are finished by repacking their remaining
    columns, about as costly as repacking the whole table.
    """
    ordering = _as_ordering(ordering, f.y_size)
    terms = _RefinementTrace(f, dist, ordering.perm).terms(channel)
    return BoundReport(
        ordering=ordering.perm,
        ordering_strategy=ordering.strategy,
        channel=channel,
        distribution=dist.label,
        terms=tuple(terms),
        total=math.fsum(terms),
    )


def direct_oracle(
    f: BooleanFunction,
    dist: InputDistribution,
    ordering,
    channel: ChannelModel,
) -> BoundReport:
    """Same contract as ``compute_bound``, by an independent route.

    At each step the joint distribution of (history value vector, function
    value, guess) is materialized explicitly as a (cells, 2, 2) table over
    every distinct history of the active inputs, cells in order of first
    appearance in x, and handed to the generic conditional-mutual-information
    routine (``infocalc.conditional_mutual_information``).  Independent
    means that it shares nothing with the evaluator: no row sort, common
    prefix or trie, no ``_split`` or ``_price``, no phi, and no pruning of
    cells that no longer split.  It reads the table once; each step is a few
    numpy passes over the active inputs plus the generic routine on a table
    of at most |X| cells, so the cost is O(|X| |Y|) with a fixed cost per
    step.  Ten random tables of up to 256 x 256 take about 0.15 s (2-core
    x86_64, numpy 2.4).  Intended for |X| * |Y| up to about 2**20.
    """
    ordering = _as_ordering(ordering, f.y_size)
    xs, wts = _support(f, dist)
    rows = (f.table_array() if xs is None else f.table_array()[xs]).astype(np.intp)
    n = wts.size
    twice_pos = 2 * np.arange(n)
    guess = np.array([channel.guess_probabilities(v) for v in (0, 1)])
    # lead: twice the position of the first active input with the same
    # history.  key = lead + value then numbers every (history, value) pair,
    # and cells taken in order of lead come in order of first appearance.
    lead = np.zeros(n, dtype=np.intp)
    terms = []
    for y in ordering.perm:
        key = lead + rows[:, y]
        # bincount adds each cell's weights in x order.
        masses = np.bincount(key, weights=wts, minlength=2 * n).reshape(n, 2)[lead == twice_pos]
        table = JointTable((len(masses), 2, 2), masses[:, :, None] * guess)
        terms.append(conditional_mutual_information(table, 2, 1, (0,)))
        first = np.full(2 * n, 2 * n)
        np.minimum.at(first, key, twice_pos)
        lead = first[key]
    return BoundReport(
        ordering=ordering.perm,
        ordering_strategy=ordering.strategy,
        channel=channel,
        distribution=dist.label,
        terms=tuple(terms),
        total=math.fsum(terms),
    )


# ---------------------------------------------------------------------------
# Ordering strategies
# ---------------------------------------------------------------------------


def _unit_first_perm(y_size: int) -> tuple:
    n = y_size.bit_length() - 1
    if (1 << n) != y_size:
        raise ArgumentError(f"unit-first ordering requires |Y| a power of two, got {y_size}")
    units = [1 << (n - 1 - i) for i in range(n)]
    rest = sorted(set(range(y_size)) - set(units))
    return tuple(units + rest)


def _kint_proof_perm(y_size: int, k) -> tuple:
    if k is None:
        raise ArgumentError("kint-proof ordering requires k")
    if not _is_integer(k):
        raise ArgumentError(f"kint-proof ordering requires an integer k, got {k!r}")
    n = y_size.bit_length() - 1
    if (1 << n) != y_size:
        raise ArgumentError(f"kint-proof ordering requires |Y| a power of two, got {y_size}")
    if not 1 <= k <= n:
        raise ArgumentError(f"kint-proof ordering requires 1 <= k <= {n}, got k={k}")
    weight_k = sorted((v for v in range(y_size) if v.bit_count() == k), reverse=True)
    rest = sorted((v for v in range(y_size) if v.bit_count() != k), reverse=True)
    return tuple(weight_k + rest)


def _columns(f: BooleanFunction, xs) -> np.ndarray:
    """The table restricted to the active inputs, one column per Bob input."""
    return np.concatenate(list(f.row_blocks(xs)))


def _price(
    labels: np.ndarray, ncells: int, wts: np.ndarray, cols: np.ndarray, channel: ChannelModel
) -> np.ndarray:
    """The next step's term for every candidate column of ``cols`` at once.

    One bincount over (cell, candidate) pairs gives every cell's ones mass for
    every candidate, and one phi call prices them all.  Each term is the dot
    product of the cell masses with a contiguous row of the transposed phi
    matrix, so it equals, bit for bit, pricing that column on its own (a
    strided column would be summed in another order).
    """
    m = cols.shape[1]
    mass = np.bincount(labels, weights=wts, minlength=ncells)
    key = (labels[:, None] * m + np.arange(m)).ravel()
    ones = np.bincount(key, weights=(wts[:, None] * cols).ravel(), minlength=ncells * m)
    q = np.clip(ones.reshape(ncells, m) / mass[:, None], 0.0, 1.0)
    phi = np.ascontiguousarray(channel.phi(q).T)
    return np.array([mass @ row for row in phi])


def _greedy_perm(f: BooleanFunction, dist: InputDistribution, channel: ChannelModel) -> tuple:
    xs, wts = _support(f, dist)
    cols = _columns(f, xs)
    labels = np.zeros(wts.size, dtype=np.int64)
    ncells = 1
    unused = list(range(f.y_size))
    perm = []
    while unused:
        # argmax keeps the first of equal terms: ties go to the smallest index.
        best = unused[int(np.argmax(_price(labels, ncells, wts, cols[:, unused], channel)))]
        perm.append(best)
        unused.remove(best)
        labels, sizes = _split(labels, cols[:, best], ncells)
        ncells = sizes.size
    return tuple(perm)


def _exhaustive_perm(
    f: BooleanFunction,
    dist: InputDistribution,
    channel: ChannelModel,
    allow_big: bool,
) -> tuple:
    """The lexicographically smallest permutation of Y whose total is maximal.

    The partition after a prefix depends only on the set S of columns used,
    so total(perm) = sum_i T(S_i, y_i) with T(S, y) the term of column y on
    the partition of S, and the best suffix value V[S] = max over y not in S
    of T(S, y) + V[S + {y}] is a longest path over the subsets of Y (the
    Held-Karp recursion).  Subsets are visited depth first, each refined from
    itself minus its lowest column, children before parents; that order is
    decreasing as bitmasks, so every superset's V is known when a subset
    needs it, and only one chain of partitions is alive.  Each subset costs
    one ``_price`` pass over its unused columns: 2**|Y| passes in all.  The
    permutation is then rebuilt forward, taking at each step the smallest y
    whose T + V comes within 1e-12 * max(1, |V[S]|) of V[S].
    """
    y_size = f.y_size
    if y_size > EXHAUSTIVE_LIMIT and not allow_big:
        raise ExhaustiveSearchRefusal(
            f"exhaustive ordering over |Y| = {y_size} means pricing "
            f"2**{y_size} = {1 << y_size} subsets of Y; "
            "pass allow_big_exhaustive to override"
        )
    if y_size > EXHAUSTIVE_HARD_LIMIT:
        raise ExhaustiveSearchRefusal(
            f"exhaustive ordering over |Y| = {y_size} needs a value for each of "
            f"2**{y_size} subsets of Y; at most |Y| = {EXHAUSTIVE_HARD_LIMIT} is supported"
        )
    xs, wts = _support(f, dist)
    cols = _columns(f, xs)
    full = (1 << y_size) - 1
    value = np.zeros(full + 1)

    def continuations(s: int, labels: np.ndarray, ncells: int):
        """The columns not in S, and T(S, y) + V[S + {y}] for each of them."""
        ys = [y for y in range(y_size) if not s >> y & 1]
        terms = _price(labels, ncells, wts, cols[:, ys], channel)
        return ys, terms + value[[s | 1 << y for y in ys]]

    def visit(s: int, labels: np.ndarray, ncells: int) -> None:
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


_STRATEGIES = ("natural", "unit-first", "kint-proof", "greedy", "exhaustive")


def make_ordering(
    strategy: str,
    f: BooleanFunction,
    dist: Optional[InputDistribution] = None,
    channel: Optional[ChannelModel] = None,
    *,
    k: Optional[int] = None,
    threads: int = 1,
    allow_big_exhaustive: bool = False,
) -> Ordering:
    """Build an ordering of Bob's inputs.

    natural      identity order 0, 1, ...
    unit-first   the n unit-vector strings 10..0, 01..0, ..., 00..1 first,
                 then the remaining y in increasing order
    kint-proof   all Hamming-weight-k strings in decreasing order (x0-MSB
                 convention), then the rest in decreasing order; needs ``k``
    greedy       repeatedly append the unused y maximizing the next step term
                 (ties to the smallest index); needs the distribution/channel.
                 Each step prices all unused columns in one pass.
    exhaustive   the permutation maximizing the total, found by dynamic
                 programming over the subsets of Y (2**|Y| pricing passes);
                 among permutations whose totals agree with the maximum to
                 within 1e-12 * max(1, |total|) per step, the lexicographically
                 smallest.  Refuses |Y| > 16 unless ``allow_big_exhaustive`` is
                 set, and |Y| > 24 in any case.

    ``threads`` is accepted for compatibility and has no effect.
    """
    name = strategy.replace("_", "-").lower()
    if name == "unit-vectors-first":
        name = "unit-first"
    if name not in _STRATEGIES:
        raise ArgumentError(f"unknown ordering strategy {strategy!r}; choose from {_STRATEGIES}")
    if name not in ("greedy", "exhaustive"):
        return _fixed_ordering(name, f.y_size, k)
    dist = dist if dist is not None else InputDistribution.uniform(f.x_size)
    channel = channel if channel is not None else Deterministic()
    if name == "greedy":
        return Ordering(_greedy_perm(f, dist, channel), "greedy")
    return Ordering(_exhaustive_perm(f, dist, channel, allow_big_exhaustive), "exhaustive")


def _fixed_ordering(name: str, y_size: int, k) -> Ordering:
    """The ordering of a strategy that reads only |Y|, and k for kint-proof."""
    if name == "natural":
        return Ordering(tuple(range(y_size)), name)
    if name == "unit-first":
        return Ordering(_unit_first_perm(y_size), name)
    return Ordering(_kint_proof_perm(y_size, k), name)


def standard_ordering(family: FunctionFamily) -> Ordering:
    """The ordering under which each built-in family's reference bound holds:
    the fixed strategy the family declares as ``ordering``."""
    return _fixed_ordering(family.ordering, family.y_size, getattr(family, "k", None))


# ---------------------------------------------------------------------------
# Closed-form reference values
# ---------------------------------------------------------------------------


#: The Equality closed forms add up their 2**n terms one at a time, about
#: 0.4 s at this n; they refuse a larger n.
EQ_CLOSED_FORM_MAX_N = 20


def _equality_terms(n) -> int:
    """2**n, the number of terms of the Equality sums, once n is known to be
    an integer in [1, EQ_CLOSED_FORM_MAX_N]."""
    if not _is_integer(n):
        raise ArgumentError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    if n > EQ_CLOSED_FORM_MAX_N:
        raise ArgumentError(
            f"the equality sums have 2**n terms; n must be <= {EQ_CLOSED_FORM_MAX_N}, got {n}"
        )
    return 1 << int(n)


def eq_closed_form_deterministic(n: int) -> float:
    """Errorless bound for equality on [2**n] under the natural ordering: exactly n.

    Evaluates the telescoping sum sum_{i=2}^{2^n} (i log i - (i-1) log(i-1)) / 2^n
    as a numerical guard before returning the exact value.  Refuses n above
    ``EQ_CLOSED_FORM_MAX_N``, as do the other two Equality sums.
    """
    size = _equality_terms(n)
    total = math.fsum(
        (i * math.log2(i) - (i - 1) * math.log2(i - 1)) / size for i in range(2, size + 1)
    )
    assert abs(total - n) <= TOLERANCE
    return float(n)


def eq_closed_form_symmetric(n: int, eps: float) -> float:
    """Symmetric-channel bound for equality under the natural ordering:

    (1/2^n) * sum_{i=2}^{2^n} i * (h(eps + (1-2 eps)/i) - h(eps)).
    """
    size = _equality_terms(n)
    if not 0.0 < eps < 0.5:
        raise ArgumentError(f"eps must lie in (0, 0.5), got {eps!r}")
    h_eps = binary_entropy(eps)
    return math.fsum(
        i * (binary_entropy(eps + (1.0 - 2.0 * eps) / i) - h_eps) for i in range(2, size + 1)
    ) / size


def eq_closed_form_one_sided(n: int, eps_ii: float) -> float:
    """One-sided bound for equality (errors allowed only when f = 1):

    sum_{i=0}^{2^n-2} ((2^n - i)/2^n) h((1 - eps_ii)/(2^n - i))
      - ((2^n - 1)/2^n) h(eps_ii).
    """
    size = _equality_terms(n)
    if not 0.0 <= eps_ii < 0.5:
        raise ArgumentError(f"eps_ii must lie in [0, 0.5), got {eps_ii!r}")
    head = math.fsum(
        ((size - i) / size) * binary_entropy((1.0 - eps_ii) / (size - i))
        for i in range(0, size - 1)
    )
    return head - ((size - 1) / size) * binary_entropy(eps_ii)


def kint_analytic_bound(n: int, k: int, eps: float) -> float:
    """Closed-form lower bound for the k-intersect family:

    (1 - h(eps)) * sum_{i=k}^{n-1} 2^{-i} C(i-1, k-1) (n - i),

    which collapses the k-fold nested sum arising from the proof ordering and
    is itself at least (n - 2k)(1 - h(eps)).
    """
    if not (_is_integer(n) and _is_integer(k)):
        raise ArgumentError(f"requires integers n and k, got n={n!r}, k={k!r}")
    if n < 1 or not 1 <= k <= n // 2:
        raise ArgumentError(f"requires n >= 1 and 1 <= k <= floor(n/2), got n={n}, k={k}")
    if not 0.0 <= eps < 0.5:
        raise ArgumentError(f"eps must lie in [0, 0.5), got {eps!r}")
    inner = math.fsum(
        math.comb(i - 1, k - 1) * (n - i) / (1 << i) for i in range(k, n)
    )
    return (1.0 - binary_entropy(eps)) * inner


# ---------------------------------------------------------------------------
# Randomized cross-check corpus
# ---------------------------------------------------------------------------

#: Largest ``oracle_check`` size: keeps |X| * |Y| within the 2**20 that
#: ``direct_oracle`` is meant for.
ORACLE_MAX_SIZE = 1024


@dataclass(frozen=True)
class OracleCheckResult:
    cases: int
    seed: int
    max_size: int
    max_deviation: float

    @property
    def ok(self) -> bool:
        return self.max_deviation <= TOLERANCE


def oracle_check(cases: int = 100, seed: int = 1783, max_size: int = 16) -> OracleCheckResult:
    """Compare ``compute_bound`` and ``direct_oracle`` on random cases.

    Random functions, distributions, orderings and channels (all three kinds)
    with x_size, y_size up to ``max_size`` (at most ``ORACLE_MAX_SIZE``);
    returns the largest per-term or total deviation observed.
    """
    for label, value in (("cases", cases), ("seed", seed), ("max_size", max_size)):
        if not _is_integer(value):
            raise ArgumentError(f"{label} must be an integer, got {value!r}")
    if cases < 1:
        raise ArgumentError(f"cases must be >= 1, got {cases}")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    if not 1 <= max_size <= ORACLE_MAX_SIZE:
        raise ArgumentError(
            f"max_size must lie in [1, {ORACLE_MAX_SIZE}], got {max_size}"
        )
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(cases):
        x_size = int(rng.integers(1, max_size + 1))
        y_size = int(rng.integers(1, max_size + 1))
        f = BooleanFunction(x_size, y_size, rng.integers(0, 2, x_size * y_size))
        if case % 2 == 0:
            dist = InputDistribution.uniform(x_size)
        else:
            dist = InputDistribution(rng.random(x_size) + 1e-3)
        ordering = Ordering(tuple(int(v) for v in rng.permutation(y_size)))
        kind = case % 3
        if kind == 0:
            channel: ChannelModel = Deterministic()
        elif kind == 1:
            channel = Symmetric(float(rng.uniform(0.0, 0.5)))
        else:
            channel = Asymmetric(float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.0, 0.5)))
        fast = compute_bound(f, dist, ordering, channel)
        slow = direct_oracle(f, dist, ordering, channel)
        worst = max(
            worst,
            abs(fast.total - slow.total),
            max(abs(a - b) for a, b in zip(fast.terms, slow.terms)),
        )
    return OracleCheckResult(cases=cases, seed=seed, max_size=max_size, max_deviation=worst)
