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
rows read in the ordering (module ``rowsort``: a byte-string sort of the
stored rows under the identity ordering, and under any other ordering of
more than 64 columns a radix refinement of the distinct rows that reads
only the bits separating them).  Each adjacent
pair of sorted rows that differ is one branching node, at the depth of their
longest common prefix, and its cell reaches to the nearest pairs on either
side with a shorter common prefix.  Nodes of one step that are adjacent in
the sort and have the same q are merged into one entry holding their summed
mass, since they share one phi value (Index(n) keeps one entry per step).
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
(explicit joint tables over history value vectors fed to the generic
conditional-mutual-information routine) and exists to cross-check the
closed-form evaluator.
"""

from __future__ import annotations

import math
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
        if not 0.0 <= self.eps < 0.5:
            raise ArgumentError(f"symmetric channel requires eps in [0, 0.5), got {self.eps!r}")

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
        for name, value in (("eps_i", self.eps_i), ("eps_ii", self.eps_ii)):
            if not 0.0 <= value < 0.5:
                raise ArgumentError(f"asymmetric channel requires {name} in [0, 0.5), got {value!r}")

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
    Cell masses and ones masses are differences of one prefix sum of the
    sorted weights.

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
        cum = np.zeros(order.size + 1)
        np.cumsum(wts[order], out=cum[1:])
        del order
        # edges[j + 1] is the first sorted row after node pair j, with edges[0]
        # = 0 and edges[-1] = the row count.  Node j's cell is the sorted rows
        # lo..hi-1, and its rows edges[j + 1]..hi-1 have a 1 in the column at
        # the node's depth.
        edges = np.zeros(np.count_nonzero(lcp < y_size) + 2, dtype=np.int32)
        edges[1:-1] = np.flatnonzero(lcp < y_size)
        edges[1:-1] += 1
        edges[-1] = cum.size - 1
        depth = lcp[edges[1:-1] - 1]
        del lcp
        lo = edges[_previous_smaller(depth)]
        hi = edges[depth.size + 1 - _previous_smaller(depth[::-1])[::-1]]
        mass = cum[hi]
        mass -= cum[lo]
        del lo
        q = cum[hi]
        q -= cum[edges[1:-1]]
        del cum, edges, hi
        # A node's true mass is positive, but a difference of prefix sums
        # rounds to 0 when the node's weights are below the rounding error of
        # the sums (weights spanning some 16 orders of magnitude); q is then 0.
        np.divide(q, mass, out=q, where=mass > 0.0)
        # A stable sort of small integers is a radix sort.
        by_depth = np.argsort(depth.astype(np.uint16) if y_size < 1 << 16 else depth, kind="stable")
        self.offsets = [0, *np.cumsum(np.bincount(depth, minlength=y_size)).tolist()]
        step = depth[by_depth]
        del depth
        mass = mass[by_depth]
        q = q[by_depth]
        del by_depth
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
    and makes one phi evaluation per run of adjacent branching nodes of the
    row trie with equal q (at most |X| - 1 of them); suitable up to
    |X| = |Y| = 2**14.  Under the identity ordering, or with |Y| <= 64,
    that sort is the whole read.  Under any other ordering the sort only
    collapses equal rows, and the distinct rows are then read 64 permuted
    columns at a time, each only until it is apart from every other: a few
    per cent of the table's bits for KIntersect under kint-proof, well under
    one per cent for InnerProduct under unit-first.  Rows that stay together
    over many columns (Equality under a random ordering) are finished by
    repacking their remaining columns, about as costly as repacking the
    whole table.
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
    value, guess) is materialized explicitly from all x and handed to the
    generic conditional-mutual-information routine.  Exponential in the worst
    case; intended for |X| * |Y| up to about 2**20.
    """
    ordering = _as_ordering(ordering, f.y_size)
    xs, wts = _support(f, dist)
    if xs is None:
        xs = np.arange(f.x_size)
    histories = [() for _ in range(len(xs))]
    terms = []
    for y in ordering.perm:
        groups: dict = {}
        values = []
        for pos, x in enumerate(xs):
            v = f.bit(int(x), int(y))
            values.append(v)
            cell = groups.setdefault(histories[pos], [0.0, 0.0])
            cell[v] += float(wts[pos])
        probs = np.zeros((len(groups), 2, 2))
        for h, (_, masses) in enumerate(groups.items()):
            for v in (0, 1):
                g0, g1 = channel.guess_probabilities(v)
                probs[h, v, 0] = masses[v] * g0
                probs[h, v, 1] = masses[v] * g1
        table = JointTable((len(groups), 2, 2), probs.ravel())
        terms.append(conditional_mutual_information(table, 2, 1, (0,)))
        histories = [hist + (v,) for hist, v in zip(histories, values)]
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
