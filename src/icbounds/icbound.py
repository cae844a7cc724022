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
contribute.  ``_RefinementTrace`` finds all of them in one of two ways.
When there are enough active inputs for distinct rows of |Y| columns to
fill at least half of the 2**|Y| integer keys (|X active| <= 2**|Y| <= 2
|X active|, as Index under any ordering), the trie is built over the key
space with no sort (``_key_space_nodes``): the rows, read as keys, mark the
keys they take and add their weights to prefix sums in key order, and the
nodes of every depth are read from those two arrays from the deepest depth
up, halving both at each depth.  A repeated row sends the keys already read
to the sort.  Every other table takes one sort of the rows read in the
ordering (module ``rowsort``: rows of at most 64 columns sorted as one
integer key each, wider rows as byte strings under the identity ordering,
and under any other ordering of more than 64 columns a radix refinement of
the distinct rows, in rounds of 64, 128, 256, ... columns, that reads a row
only until it is apart from all others).  Each adjacent
pair of sorted rows that differ is one branching node, at the depth of
their longest common prefix, and its cell reaches to the nearest pairs on
either side with a shorter common prefix, found by pointer jumping
(``_sorted_nodes``).  Both ways give every step's nodes in the
lexicographic order of their prefixes, with bitwise the same q and mass.
Nodes of one step that are adjacent in that order and have the same q are
merged into one entry holding their summed mass, since they share one phi
value (Index(n) keeps one entry per step).
The trace does not depend on the channel; only phi does.  ``compute_bound``
prices one trace, and pricing one table under many channels -- the
bisection over the error rate in ``prbox.max_bias`` -- evaluates phi again
over the same merged entries and sums every step's term in one pass.
Greedy search refines one column at a time with the cell-splitting step
``_split`` and prices every candidate column of a partition at once
(``_price``, in column slices under the byte budget ``_SEARCH_BYTES``).
Exhaustive search is a dynamic program over the subsets of Y, since the
partition after a prefix depends only on the set of columns used.  It
prices all subsets of one size together, in chunks under the same budget:
each active row is read once as an integer key, so the partition of a
subset S is the classes of ``key & S``.  Every subset keeps the column its
best continuation starts with, and the winning permutation follows those
picks from the empty subset, with no second read of the table.

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

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .boolfn import BooleanFunction, FunctionFamily, InputDistribution
from .errors import (
    ArgumentError,
    ExhaustiveSearchRefusal,
    GreedySearchRefusal,
    _integer,
    _integer_entries,
    _real,
    _shown,
)
from .infocalc import (
    TOLERANCE,
    JointTable,
    binary_entropy,
    binary_entropy_vec,
    conditional_mutual_information,
)
from .rowsort import _read_keys, _sort_keys, _sorted_prefixes

#: Recorded in every report: how the guess channel is pinned down.
CHANNEL_SEMANTICS = (
    "success probability taken at equality: Pr[g = f(x,y) | x, y] equals the "
    "stated rate, independently for every input pair"
)

#: Exhaustive ordering search refuses beyond this |Y|, before anything else:
#: it keeps one float and one byte per subset of Y (144 MiB at |Y| = 24).
EXHAUSTIVE_HARD_LIMIT = 24

#: Exhaustive ordering search refuses when |X active| * |Y| * 2**(|Y| - 1),
#: the (subset, input, free column) triples it prices, is above this:
#: Index(12) (2**26.6) takes about 2.5 s, Index(14) (2**30.8) is refused.
EXHAUSTIVE_LIMIT = 1 << 30

#: Greedy ordering search refuses when |X active| * |Y|**2, the (input,
#: column) pairs it prices over all its steps, is above this: Equality(10)
#: (2**30) takes about 17 s.
GREEDY_LIMIT = 1 << 30

#: The ordering searches keep their temporaries near this many bytes:
#: exhaustive search prices each level's subsets in chunks, and ``_price``
#: its candidate columns in slices, counting ``_ENTRY_BYTES`` for every
#: (subset, input, column) it prices at once.
_SEARCH_BYTES = 1 << 26
_ENTRY_BYTES = 64


# ---------------------------------------------------------------------------
# Guess channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Deterministic:
    """Errorless guess: g always equals the function value."""

    def phi(self, q: np.ndarray) -> np.ndarray:
        return binary_entropy_vec(q)

    def guess_probabilities(self, value: int) -> tuple:
        """(P(g=0), P(g=1)) conditioned on f = value, 0 or 1."""
        return (1.0, 0.0) if _integer(value, "value", 0, 1) == 0 else (0.0, 1.0)

    def describe(self) -> dict:
        return {"kind": "deterministic"}


@dataclass(frozen=True)
class Symmetric:
    """Guess errs with the same probability eps in [0, 1/2) on both function values."""

    eps: float

    def __post_init__(self):
        object.__setattr__(self, "eps", _real(self.eps, "eps", 0, 0.5, "[)"))

    def phi(self, q: np.ndarray) -> np.ndarray:
        return binary_entropy_vec(self.eps + q * (1.0 - 2.0 * self.eps)) - binary_entropy(self.eps)

    def guess_probabilities(self, value: int) -> tuple:
        e = self.eps
        return (1.0 - e, e) if _integer(value, "value", 0, 1) == 0 else (e, 1.0 - e)

    def describe(self) -> dict:
        return {"kind": "symmetric", "eps": self.eps}


@dataclass(frozen=True)
class Asymmetric:
    """Type-I error eps_i when f = 0 and type-II error eps_ii when f = 1."""

    eps_i: float
    eps_ii: float

    def __post_init__(self):
        object.__setattr__(self, "eps_i", _real(self.eps_i, "eps_i", 0, 0.5, "[)"))
        object.__setattr__(self, "eps_ii", _real(self.eps_ii, "eps_ii", 0, 0.5, "[)"))

    def phi(self, q: np.ndarray) -> np.ndarray:
        mix = q * (1.0 - self.eps_ii) + (1.0 - q) * self.eps_i
        return binary_entropy_vec(mix) - (
            q * binary_entropy(self.eps_ii) + (1.0 - q) * binary_entropy(self.eps_i)
        )

    def guess_probabilities(self, value: int) -> tuple:
        if _integer(value, "value", 0, 1) == 0:
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
        perm = _integer_entries(self.perm, "ordering")
        if not _is_permutation(perm):
            raise ArgumentError(_not_a_permutation(perm))
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


def _not_a_permutation(values: tuple) -> str:
    """Why the Python ints ``values``, not a permutation, are not one: their
    length and the first entry out of range or repeated, named with its value
    when ``_shown`` shows it as a number, so that the message stays short."""
    n, seen = len(values), set()
    for i, v in enumerate(values):
        if not 0 <= v < n or v in seen:
            shown = _shown(v)
            shown = f" = {shown}" if shown.lstrip("-").isdigit() else ""
            why = "repeats" if v in seen else f"is outside 0..{n - 1}"
            return f"ordering of length {n} is not a permutation: entry {i}{shown} {why}"
        seen.add(v)


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


#: ``_RefinementTrace.terms`` evaluates phi over at most this many nodes at once.
_PHI_SLICE = 1 << 16


def _sorted_nodes(order: np.ndarray, lcp: np.ndarray, wts: np.ndarray, y_size: int):
    """The branching nodes of the trie of the active rows, from their sorted
    ``order`` and the common prefix ``lcp`` of every adjacent pair
    (``rowsort._sorted_prefixes``): the number of nodes at every depth, and
    every node's q and cell mass, grouped by depth and in sorted order within
    a depth.

    Every adjacent pair of sorted rows that differ is exactly one branching
    node, at the depth d of their longest common prefix, and its cell runs
    between the nearest pairs on either side whose common prefix is shorter
    than d, found in sort order by pointer jumping (``_previous_smaller``).
    The nodes are put in depth order by one stable sort on depth.  The
    prefix sums of the sorted weights are kept only at the boundaries
    between distinct rows, so that the nodes' boundaries index them
    directly.
    """
    # The prefix sums of the sorted weights.
    cum = np.zeros(order.size + 1)
    np.cumsum(wts[order], out=cum[1:])
    del order
    # Each adjacent pair of sorted rows that differ is one node, at the depth
    # of their common prefix.  Boundary k lies after the k-th node's pair,
    # boundary 0 before the first sorted row and the last after the last.  A
    # node's cell is the sorted rows from boundary lo to boundary hi, and its
    # rows from its own boundary to hi have a 1 in the column at the node's
    # depth.
    differ = lcp < y_size
    depth = lcp[differ]
    del lcp
    if depth.size < cum.size - 2:
        # From here on ``cum`` holds the prefix sums at the boundaries only:
        # equal rows share one.
        cum = np.concatenate((cum[:1], cum[1:-1][differ], cum[-1:]))
    del differ
    counts = np.bincount(depth, minlength=y_size)
    # node: the boundary of every node, grouped by depth and in sorted order
    # within a depth.  A stable sort of 8- or 16-bit integers is a radix
    # sort, one pass per byte.
    node = np.argsort(depth.astype(np.min_scalar_type(y_size - 1)), kind="stable")
    node += 1
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
    # A node's true mass is positive, but a difference of prefix sums rounds
    # to 0 when the node's weights are below the rounding error of the sums
    # (weights spanning some 16 orders of magnitude); q is then 0.
    np.divide(q, mass, out=q, where=mass > 0.0)
    return counts, q, mass


def _key_space_nodes(f: BooleanFunction, xs, perm: np.ndarray, wts: np.ndarray):
    """``_sorted_nodes`` of the active rows, read as keys of |Y| bits, built
    over the 2**|Y| keys with no sort when the rows are distinct.

    A key range [k 2**h, (k + 1) 2**h) holds the rows with prefix k, the cell
    of the trie node k at depth |Y| - h, and the node branches when both of
    its halves hold a row.  So the rows are scattered into two arrays indexed
    by key, whether each key is taken and the prefix sums of the weights in
    key order, and the nodes of every depth are read from them from the
    deepest depth up, halving both arrays at each depth: a node's q and mass
    are differences of the prefix sums at the start, middle and end of its
    range.  Keys no row takes add 0.0 to the sums, which changes no bit, so
    the sums at the rows are those of the sorted weights and every node
    equals ``_sorted_nodes``'s.  A repeated row is found by the scatter, and
    the keys already read are then sorted instead.
    """
    y_size = perm.size
    key = _read_keys(f, xs, perm)
    taken = np.zeros(1 << y_size, dtype=bool)
    taken[key] = True
    if np.count_nonzero(taken) < key.size:
        del taken
        order, lcp = _sort_keys(key, y_size)
        del key
        return _sorted_nodes(order, lcp, wts, y_size)
    cum = np.zeros(taken.size + 1)
    cum[1:][key] = wts
    del key
    np.cumsum(cum, out=cum)
    # A binary trie of n distinct leaves has n - 1 branching nodes.
    q = np.empty(wts.size - 1)
    mass = np.empty(wts.size - 1)
    counts = np.zeros(y_size, dtype=np.int64)
    end = q.size
    for depth in reversed(range(y_size)):
        branch = taken[0::2] & taken[1::2]
        taken = taken[0::2] | taken[1::2]
        counts[depth] = np.count_nonzero(branch)
        start = end - counts[depth]
        # When every node of the depth branches, the sums need no gather:
        # on Index(20) this function took 33-34 ms with strided views and
        # 39-41 ms with a boolean gather at every depth (min of 15, 2-core
        # x86_64, numpy 2.4).
        at = slice(None) if counts[depth] == branch.size else branch
        top = cum[2::2][at]
        np.subtract(top, cum[:-1:2][at], out=mass[start:end])
        np.subtract(top, cum[1::2][at], out=q[start:end])
        del top
        cum = cum[::2].copy()
        end = start
    np.divide(q, mass, out=q, where=mass > 0.0)
    return counts, q, mass


class _RefinementTrace:
    """The refinement of X along ``perm``, as the branching nodes of the row trie.

    The cells after step i are the sets of active inputs whose rows, read in
    the order ``perm``, share their first i entries: the nodes at depth i of
    the binary trie of the rows.  Only a node with both children (0 < q < 1)
    contributes to a term.  A node's cell mass and the mass of its rows with
    a 1 at its depth are differences of the prefix sums of the weights taken
    in the rows' lexicographic order.

    The nodes come from the key space (``_key_space_nodes``) or from one
    sort of the rows (``_sorted_nodes``), as the module docstring describes,
    with bitwise the same q and mass.  They are grouped by step, in the
    lexicographic order of their prefixes within a step, and each run of
    adjacent nodes of one step with exactly equal q is merged into one
    entry: ``step``, ``q`` and ``mass`` (the run's summed mass) hold one
    value per entry.  Only equal q merge, so no tolerance is involved; under
    weights that make every cell's q distinct nothing merges.  ``offsets``
    still counts the branching nodes per step before merging: step i had
    ``offsets[i + 1] - offsets[i]`` of them.  Duplicate rows and cells that
    no longer split cost nothing.
    """

    def __init__(self, f: BooleanFunction, dist: InputDistribution, perm):
        xs, wts = _support(f, dist)
        perm = np.asarray(perm, dtype=np.int64)
        y_size = perm.size
        # Decided before the table is read: more rows than keys must repeat,
        # and fewer than half as many leave the key space sparse.
        if wts.size <= 1 << y_size <= 2 * wts.size:
            counts, q, mass = _key_space_nodes(f, xs, perm, wts)
        else:
            counts, q, mass = _sorted_nodes(*_sorted_prefixes(f, xs, perm), wts, y_size)
        self.offsets = [0, *np.cumsum(counts).tolist()]
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

    The report holds one term per step of ``ordering`` (an ``Ordering`` or a
    permutation of Y) and their ``math.fsum``.  Reads every active row once
    and builds the branching nodes of the row trie (``_RefinementTrace``):
    O(|X| log |X|) row comparisons, or a few passes over arrays of 2**|Y|
    entries when distinct rows fill at least half of the key space; then one
    phi evaluation per run of adjacent nodes with equal q.  Suitable up to
    |X| = |Y| = 2**14.
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
    n = y_size.bit_length() - 1
    if (1 << n) != y_size:
        raise ArgumentError(f"kint-proof ordering requires |Y| a power of two, got {y_size}")
    k = _integer(k, "k", 1, n)
    weight_k = sorted((v for v in range(y_size) if v.bit_count() == k), reverse=True)
    rest = sorted((v for v in range(y_size) if v.bit_count() != k), reverse=True)
    return tuple(weight_k + rest)


def _columns(f: BooleanFunction, xs) -> np.ndarray:
    """The table restricted to the active inputs, one column per Bob input:
    their packed rows (``BooleanFunction.packed_rows``), unpacked."""
    return np.unpackbits(f.packed_rows(xs), axis=1, count=f.y_size)


def _price(
    labels: np.ndarray,
    ncells: int,
    wts: np.ndarray,
    cols: np.ndarray,
    ys: list,
    channel: ChannelModel,
) -> np.ndarray:
    """The next step's term for every candidate column ``cols[:, y]``, y in ``ys``.

    One bincount over (cell, candidate) pairs gives every cell's ones mass for
    every candidate, and one phi call prices them all.  Each term is the dot
    product of the cell masses with a contiguous row of the transposed phi
    matrix, so it equals, bit for bit, pricing that column on its own (a
    strided column would be summed in another order).  The candidates are
    priced in slices of at most ``_SEARCH_BYTES / _ENTRY_BYTES`` (input,
    candidate) pairs; every bin still adds its weights in x order, so the
    slicing changes no bit of any term.
    """
    mass = np.bincount(labels, weights=wts, minlength=ncells)
    width = max(1, _SEARCH_BYTES // (_ENTRY_BYTES * labels.size))
    terms = []
    for a in range(0, len(ys), width):
        part = cols[:, ys[a : a + width]]
        m = part.shape[1]
        key = (labels[:, None] * m + np.arange(m)).ravel()
        ones = np.bincount(key, weights=(wts[:, None] * part).ravel(), minlength=ncells * m)
        q = np.clip(ones.reshape(ncells, m) / mass[:, None], 0.0, 1.0)
        phi = np.ascontiguousarray(channel.phi(q).T)
        terms += [mass @ row for row in phi]
    return np.array(terms)


def _greedy_perm(f: BooleanFunction, dist: InputDistribution, channel: ChannelModel) -> tuple:
    xs, wts = _support(f, dist)
    work = wts.size * f.y_size**2
    if work > GREEDY_LIMIT:
        raise GreedySearchRefusal(
            f"greedy ordering over {wts.size} active inputs and |Y| = {f.y_size} means "
            f"pricing |X| * |Y|**2 = {work} (input, column) pairs; "
            f"at most {GREEDY_LIMIT} is supported"
        )
    cols = _columns(f, xs)
    labels = np.zeros(wts.size, dtype=np.int64)
    ncells = 1
    unused = list(range(f.y_size))
    perm = []
    while unused:
        # argmax keeps the first of equal terms: ties go to the smallest index.
        best = unused[int(np.argmax(_price(labels, ncells, wts, cols, unused, channel)))]
        perm.append(best)
        unused.remove(best)
        labels, sizes = _split(labels, cols[:, best], ncells)
        ncells = sizes.size
    return tuple(perm)


def _exhaustive_perm(f: BooleanFunction, dist: InputDistribution, channel: ChannelModel) -> tuple:
    """The lexicographically smallest permutation of Y whose total is maximal.

    The partition after a prefix depends only on the set S of columns used,
    so total(perm) = sum_i T(S_i, y_i) with T(S, y) the term of column y on
    the partition of S, and the best suffix value V[S] = max over y not in S
    of T(S, y) + V[S + {y}] is a longest path over the subsets of Y (the
    Held-Karp recursion).  Every subset of one level (one size |S|) needs
    only the V of the level above, so the levels are priced from |Y| - 1
    down to 0, all subsets of a level together, in chunks of at most
    ``_SEARCH_BYTES / _ENTRY_BYTES`` (subset, input, free column) triples.
    Each active row is read once as an integer key, so the partition of S is
    the classes of ``key & S``: one sort numbers the (subset, cell) pairs of
    a chunk, one bincount in x order gives every pair's ones mass for every
    free column, one phi call prices them all and one bincount sums each
    T(S, y).  Cells of one input are pure under every column and are left
    out, so V can differ from pricing every cell by rounding alone, far
    below the tie tolerance.  Every subset also keeps its pick, the smallest
    y whose T(S, y) + V[S + {y}] comes within 1e-12 * max(1, |V[S]|) of
    V[S] (one byte, as |Y| <= 24), and the permutation follows the picks
    from S = {}.
    """
    y_size = f.y_size
    if y_size > EXHAUSTIVE_HARD_LIMIT:
        raise ExhaustiveSearchRefusal(
            f"exhaustive ordering over |Y| = {y_size} needs a value for each of "
            f"2**{y_size} subsets of Y; at most |Y| = {EXHAUSTIVE_HARD_LIMIT} is supported"
        )
    xs, wts = _support(f, dist)
    work = wts.size * y_size << (y_size - 1)
    if work > EXHAUSTIVE_LIMIT:
        raise ExhaustiveSearchRefusal(
            f"exhaustive ordering over {wts.size} active inputs and |Y| = {y_size} means "
            f"pricing 2**{y_size} = {1 << y_size} subsets of Y, |X| * |Y| * 2**(|Y| - 1) = "
            f"{work} (subset, input, free column) triples; at most {EXHAUSTIVE_LIMIT} is supported"
        )
    # Bit y_size - 1 - y of a key, and of a subset, stands for column y.
    keys = _read_keys(f, xs, np.arange(y_size))
    # ones[b]: every input's weight where its column y_size - 1 - b is 1.
    ones = ((keys >> np.arange(y_size, dtype=np.uint32)[:, None]) & 1) * wts
    value = np.zeros(1 << y_size)
    # pick[S]: the column the tie rule takes after the subset S.
    pick = np.zeros(1 << y_size, dtype=np.uint8)
    subsets = np.arange(1 << y_size, dtype=np.uint32)
    level = np.bitwise_count(subsets)
    triples = _SEARCH_BYTES // (_ENTRY_BYTES * wts.size)
    for size in reversed(range(y_size)):
        free = y_size - size
        # Whole subsets per chunk while one fits, else one subset and a
        # slice of its free columns at a time.
        chunk, width = max(1, triples // free), max(1, min(free, triples))
        batch = subsets[level == size]
        for a in range(0, batch.size, chunk):
            s = batch[a : a + chunk]
            value[s], pick[s] = _level_values(s, keys, wts, ones, value, free, width, channel)
    s, perm = 0, []
    for _ in range(y_size):
        perm.append(int(pick[s]))
        s |= 1 << (y_size - 1 - perm[-1])
    return tuple(perm)


def _level_values(
    s: np.ndarray,
    keys: np.ndarray,
    wts: np.ndarray,
    ones: np.ndarray,
    value: np.ndarray,
    free: int,
    width: int,
    channel: ChannelModel,
) -> tuple:
    """V of every subset in ``s``, all of one level with ``free`` columns
    left, from the V of the level above, and the column each subset's tie
    rule picks: the smallest y whose T(S, y) + V[S + {y}] comes within
    1e-12 * max(1, |V[S]|) of V[S].  The subsets' free columns are priced
    ``width`` at a time."""
    count, shift = wts.size, len(ones)
    # The cell of every (subset, input) pair is its key masked to the
    # subset; one sort numbers the cells (subset major).
    cell = (keys & s[:, None]).astype(np.int64)
    cell |= np.arange(s.size, dtype=np.int64)[:, None] << shift
    pairs, cell, sizes = np.unique(cell.ravel(), return_inverse=True, return_counts=True)
    # A cell of one input is pure under every column, so its terms are 0 up
    # to rounding: only the inputs of larger cells are priced, in (subset,
    # x) order, so that every bin below adds its weights in x order.
    entry = np.flatnonzero(sizes[cell] > 1)
    larger = sizes > 1
    owner = pairs[larger] >> shift
    cell = (np.cumsum(larger) - 1)[cell[entry]]
    sub, x = np.divmod(entry, count)
    mass = np.bincount(cell, weights=wts[x], minlength=owner.size)
    # The free bits of every subset, in decreasing order: increasing y.
    free_bits = np.nonzero(((s[:, None] >> np.arange(shift, dtype=np.uint32)) & 1) == 0)[1]
    free_bits = free_bits.reshape(s.size, free)[:, ::-1]
    totals = np.empty((s.size, free))
    for a in range(0, free, width):
        part = free_bits[:, a : a + width]
        m = part.shape[1]
        # Ones mass of every (cell, free column), its inputs in x order.
        key = (cell[:, None] * m + np.arange(m)).ravel()
        weights = ones[part[sub], x[:, None]].ravel()
        q = np.bincount(key, weights=weights, minlength=owner.size * m).reshape(owner.size, m)
        q = np.clip(q / mass[:, None], 0.0, 1.0)
        term = channel.phi(q)
        term *= mass[:, None]
        slot = (owner[:, None] * m + np.arange(m)).ravel()
        # With no cell of two inputs, bincount returns integer zeros.
        total = totals[:, a : a + m]
        total[:] = value[s[:, None] | (np.uint32(1) << part.astype(np.uint32))]
        total += np.bincount(slot, weights=term.ravel(), minlength=s.size * m).reshape(s.size, m)
    best = totals.max(axis=1)
    # argmax finds the first column within the tie tolerance.
    first = np.argmax(totals >= (best - 1e-12 * np.maximum(1.0, np.abs(best)))[:, None], axis=1)
    return best, shift - 1 - free_bits[np.arange(s.size), first]


_STRATEGIES = ("natural", "unit-first", "kint-proof", "greedy", "exhaustive")


def make_ordering(
    strategy: str,
    f: BooleanFunction,
    dist: Optional[InputDistribution] = None,
    channel: Optional[ChannelModel] = None,
    *,
    k: Optional[int] = None,
    threads: int = 1,
) -> Ordering:
    """Build an ordering of Bob's inputs.

    natural      identity order 0, 1, ...
    unit-first   the n unit-vector strings 10..0, 01..0, ..., 00..1 first,
                 then the remaining y in increasing order
    kint-proof   all Hamming-weight-k strings in decreasing order (x0-MSB
                 convention), then the rest in decreasing order; needs ``k``
    greedy       repeatedly append the unused y maximizing the next step term
                 (ties to the smallest index); needs the distribution/channel.
                 Each step prices all unused columns in one pass.  Refuses
                 when |X active| * |Y|**2 exceeds ``GREEDY_LIMIT``.
    exhaustive   the permutation maximizing the total, found by dynamic
                 programming over the subsets of Y, priced one batch per
                 subset size; among permutations whose totals agree with
                 the maximum to within 1e-12 * max(1, |total|) per step, the
                 lexicographically smallest.  Refuses |Y| > 24
                 (``EXHAUSTIVE_HARD_LIMIT``), then when |X active| * |Y| *
                 2**(|Y| - 1) exceeds ``EXHAUSTIVE_LIMIT``.

    ``threads`` is accepted for compatibility and has no effect.
    """
    if strategy not in _STRATEGIES:
        raise ArgumentError(f"unknown ordering strategy {_shown(strategy)}; choose from {_STRATEGIES}")
    if strategy not in ("greedy", "exhaustive"):
        return _fixed_ordering(strategy, f.y_size, k)
    dist = dist if dist is not None else InputDistribution.uniform(f.x_size)
    channel = channel if channel is not None else Deterministic()
    if strategy == "greedy":
        return Ordering(_greedy_perm(f, dist, channel), "greedy")
    return Ordering(_exhaustive_perm(f, dist, channel), "exhaustive")


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


def eq_closed_form_deterministic(n: int) -> float:
    """Errorless bound for equality on [2**n] under the natural ordering: exactly n.

    Evaluates the telescoping sum sum_{i=2}^{2^n} (i log i - (i-1) log(i-1)) / 2^n
    as a numerical guard before returning the exact value.  Refuses n above
    ``EQ_CLOSED_FORM_MAX_N``, as do the other two Equality sums.
    """
    n = _integer(n, "n", 1, EQ_CLOSED_FORM_MAX_N)
    size = 1 << n
    total = math.fsum(
        (i * math.log2(i) - (i - 1) * math.log2(i - 1)) / size for i in range(2, size + 1)
    )
    assert abs(total - n) <= TOLERANCE
    return float(n)


def eq_closed_form_symmetric(n: int, eps: float) -> float:
    """Symmetric-channel bound for equality under the natural ordering:

    (1/2^n) * sum_{i=2}^{2^n} i * (h(eps + (1-2 eps)/i) - h(eps)).
    """
    size = 1 << _integer(n, "n", 1, EQ_CLOSED_FORM_MAX_N)
    eps = _real(eps, "eps", 0, 0.5, "()")
    h_eps = binary_entropy(eps)
    return math.fsum(
        i * (binary_entropy(eps + (1.0 - 2.0 * eps) / i) - h_eps) for i in range(2, size + 1)
    ) / size


def eq_closed_form_one_sided(n: int, eps_ii: float) -> float:
    """One-sided bound for equality (errors allowed only when f = 1):

    sum_{i=0}^{2^n-2} ((2^n - i)/2^n) h((1 - eps_ii)/(2^n - i))
      - ((2^n - 1)/2^n) h(eps_ii).
    """
    size = 1 << _integer(n, "n", 1, EQ_CLOSED_FORM_MAX_N)
    eps_ii = _real(eps_ii, "eps_ii", 0, 0.5, "[)")
    head = math.fsum(
        ((size - i) / size) * binary_entropy((1.0 - eps_ii) / (size - i))
        for i in range(0, size - 1)
    )
    return head - ((size - 1) / size) * binary_entropy(eps_ii)


#: ``kint_analytic_bound`` adds up n - k binomial terms; it refuses a larger
#: n, whose sum at k = n / 2 would take over a second (n = 4096: 0.5-0.7 s).
KINT_ANALYTIC_MAX_N = 4096


def kint_analytic_bound(n: int, k: int, eps: float) -> float:
    """Closed-form lower bound for the k-intersect family:

    (1 - h(eps)) * sum_{i=k}^{n-1} 2^{-i} C(i-1, k-1) (n - i),

    which collapses the k-fold nested sum arising from the proof ordering and
    is itself at least (n - 2k)(1 - h(eps)).  Refuses n above
    ``KINT_ANALYTIC_MAX_N``.
    """
    n = _integer(n, "n", 1, KINT_ANALYTIC_MAX_N)
    k = _integer(k, "k", 1, n // 2)
    eps = _real(eps, "eps", 0, 0.5, "[)")
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

#: Most ``oracle_check`` cases: about 8 minutes at the default sizes (0.5 ms each).
ORACLE_MAX_CASES = 10**6


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
    with x_size, y_size up to ``max_size`` (at most ``ORACLE_MAX_SIZE``), for
    at most ``ORACLE_MAX_CASES`` cases and any seed >= 0; returns the largest
    per-term or total deviation observed.
    """
    cases = _integer(cases, "cases", 1, ORACLE_MAX_CASES)
    seed = _integer(seed, "seed", 0)
    max_size = _integer(max_size, "max_size", 1, ORACLE_MAX_SIZE)
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
