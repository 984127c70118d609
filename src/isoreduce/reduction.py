"""Branches and reduced matrices over a structural set.

A branch is a path whose interior vertices all avoid the structural set;
the final vertex may close a cycle back onto the first.  Reduced-matrix
entries are defined as sums of branch weights between vertex pairs at a
fixed spectral parameter, and computed in closed form,
``R(lam) = A_SS + A_SC (lam I - A_CC)^-1 A_CS``: the isospectral reduction
of Bunimovich and Webb, which at ``lam = 1`` is Meyer's stochastic
complement.  The complement carries no non-loop cycle, so the solve is one
sweep over the complement in increasing depth.  The sweep reads the graph's
weights as stored, so a real graph at a real parameter gives real results.
It refuses a non-finite parameter, and a structural set whose layering is
not the graph's own: an ``order`` that is not exactly the graph's active
vertices, or a complement edge that does not point at a shallower layer.
A set built for this graph object, by ``compute_depths``, the search or an
update, is its own by construction and skips those two checks; a set built
for another graph, even an equal one, a copy and a hand-built set are
checked.  It checks every denominator first, then scatters the graph's ``edge_arrays``
once into the structural set's stored depth order, members first and loops
dropped, so that each depth layer is one product of a contiguous block with
the rows already solved.  With member terminals it starts from the identity
block on the members' positions of the depth order, builds no n x s
terminal, and writes each product straight into the layer's rows; its result
is the member sweep ``X(lam) = [I; (lam I - A_CC)^-1 A_CS]``, so the
reduction is ``A[S, :] X`` and the lift of an eigenvector ``X u_S``.
``reduced_matrix`` reads that sweep through ``_member_sweep``, which
remembers it on the graph, one read-only entry, until a lift at the same
key takes it with ``_take_member_sweep``: a lift after a reduction at the
same parameter is one product, and the n x s array lives from the
reduction to that lift, or until the next reduction replaces it.
``extended_columns`` runs the member-terminal sweep itself for the
update path's ``E[:, S]`` and writes into it, so a stored state's graph
remembers nothing: on a stochastic graph at parameter 1 the sweep's
complement rows are already ``E[C, S]``, so only the s member rows take
a product with the adjacency.  An explicit terminal serves a lift with
no remembered sweep, one column that is zero on the complement, and
``extended_reduced_matrix``, whose identity terminal has each layer's
product added to it.
``branch_counts`` counts branches for the update cost model by the same
recursion in exact integers, one walk each way over the graph's loop-free
edge lists in the stored depth order, adding each loop's one-step branch
afterwards;
``enumerate_branches`` lists the paths themselves, as a reference, by a
depth-first walk over the forward edge lists, and returns them as a
``BranchSet``: the branches sorted by vertex sequence and indexed by
endpoint pair, with the ``m`` statistic counted on read.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, itemgetter

import numpy as np

from .exceptions import NonStochasticError, SingularWeightError, StructuralSetError
from .graph import DEFAULT_TOL, StructuralSet, WeightedDigraph


@dataclass(frozen=True, order=True)
class Branch:
    """A branch, identified by its vertex sequence."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) < 2:
            raise ValueError("a branch has at least one edge")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]


@dataclass(frozen=True)
class BranchSet:
    """All branches of a graph/structural-set pair, sorted by vertex
    sequence, with an index by endpoint pair.

    The ``m_statistic`` is the largest number of branches starting at,
    ending at, or passing through any single vertex.
    """

    branches: tuple[Branch, ...]
    by_endpoints: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the vertex tuple gives the order of Branch.__lt__ at a fraction of its cost
        branches = tuple(sorted(self.branches, key=attrgetter("vertices")))
        ends: dict[tuple[int, int], list[Branch]] = {}
        for b in branches:
            ends.setdefault((b.vertices[0], b.vertices[-1]), []).append(b)
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "by_endpoints", {k: tuple(v) for k, v in ends.items()})

    def __len__(self) -> int:
        return len(self.branches)

    def __contains__(self, item) -> bool:
        b = item if isinstance(item, Branch) else Branch(tuple(item))
        bucket = self.by_endpoints.get((b.start, b.end), ())
        return b in bucket

    def between(self, i: int, j: int) -> tuple[Branch, ...]:
        return self.by_endpoints.get((i, j), ())

    @property
    def m_statistic(self) -> int:
        """Counted on read: three tallies over the vertex sequences, of the
        starts, the ends and each branch's distinct interior vertices."""
        seqs = [b.vertices for b in self.branches]
        tallies = (Counter(map(itemgetter(0), seqs)), Counter(map(itemgetter(-1), seqs)),
                   Counter(chain.from_iterable({*v[1:-1]} for v in seqs)))
        return max((c for tally in tallies for c in tally.values()), default=0)

    def sequences(self) -> list[list[int]]:
        """Plain vertex-sequence lists."""
        return [list(b.vertices) for b in self.branches]


def enumerate_branches(graph: WeightedDigraph, structural: StructuralSet) -> BranchSet:
    """Enumerate every branch of the pair, complete and duplicate-free.

    Depth-first from each start vertex over the graph's loop-free forward
    ``edge_lists``, descending only into the complement; since the
    complement carries no non-loop cycles the search terminates with
    interiors no longer than the structural depth.  A loop gives one
    branch, ``(v, v)`` at its own vertex, and none through an interior.
    """
    succ = graph.edge_lists[0]
    comp = set(structural.order[structural.cut[0]:])
    i, j, _ = graph.edge_arrays
    found = [Branch((v, v)) for v in i[i == j].tolist()]
    for i0 in graph.vertices():
        stack: list[tuple[int, ...]] = [(i0,)]
        while stack:
            path = stack.pop()
            for u in succ[path[-1] - 1]:
                y = u + 1
                if y in path[1:]:
                    continue
                longer = path + (y,)
                found.append(Branch(longer))
                if y != i0 and y in comp:
                    stack.append(longer)
    return BranchSet(tuple(found))


@dataclass(frozen=True, eq=False)
class ReducedMatrix:
    """Square matrix of branch-weight sums between structural vertices."""

    members: tuple[int, ...]
    lam: complex
    entries: np.ndarray


@dataclass(frozen=True, eq=False)
class ExtendedReducedMatrix:
    """Branch-weight sums between all vertex pairs (stochastic case, lam=1)."""

    members: tuple[int, ...]
    entries: np.ndarray




def _depth_sweep(graph: WeightedDigraph, structural: StructuralSet, lam: complex,
                 terminal: np.ndarray | None = None, *, by_length: bool = False,
                 tol: float = DEFAULT_TOL) -> np.ndarray:
    """The depth-order recursion behind every reduction and the lift.

    ``a`` is the graph's n x n adjacency and ``terminal`` holds one row per
    vertex slot (row ``v - 1`` for vertex ``v``).  Members keep their
    terminal row; complement vertices, in increasing depth, take
    ``x_v = t_v + sum_{j != v} (a_vj / (lam - a_vv)) x_j``.  A non-finite
    ``lam`` is refused, and so is a layering that is not the graph's own:
    ``order`` and ``cut`` must list exactly the active vertices, and each
    complement edge must point at a shallower layer than its tail's, or the
    product below would drop it.  Both checks are skipped only for a set
    the builder made for this very graph object (``_built_for``); any other
    set, built for an equal graph, copied or made by hand, goes through
    them.  Every denominator is checked first, for every set.  The
    complement rows' off-diagonal edges, read from ``edge_arrays`` and each
    divided by its row's denominator, are then scattered into ``ap``: the
    active block permuted into the structural set's ``order``, members
    first, then each depth layer by ascending id.  A vertex only points at
    shallower ones, so the layer in positions ``lo:hi`` of ``cut`` is one
    product of the contiguous block ``ap[lo:hi, :lo]`` with the rows already
    solved, and ``lam I - A_CC`` is never formed.  No ``terminal`` means the
    member terminals, the identity on the members in member order: the sweep
    then starts from the identity block on the first s positions of
    ``order`` and never builds an n x s terminal to gather from.  A given
    ``terminal`` is one column from a lift with no remembered sweep, or the
    identity from :func:`extended_reduced_matrix`.  Each layer's product is
    written straight into its rows when the terminal is zero on the
    complement, as for every caller but :func:`extended_reduced_matrix`, and
    added to them otherwise.

    With ``by_length`` the result is stacked by path length: slice ``q``
    holds the paths of exactly ``q`` steps into a terminal row (slice 0 is
    ``terminal``), and the slices sum to the plain result.

    Raises:
        ValueError: ``lam`` is not finite.
        StructuralSetError: the layering is not the graph's own.
        SingularWeightError: a complement denominator is within ``tol`` of zero.
    """
    if not cmath.isfinite(lam):
        raise ValueError(f"spectral parameter {lam} is not finite")
    a = graph.adjacency
    order, cut = structural.order, structural.cut
    s = cut[0]
    # a layering built for this graph object is its own by construction
    checked = not structural._built_for(graph)
    if checked and (cut[-1] != len(order) or tuple(sorted(order)) != graph.vertices()):
        raise StructuralSetError("the layering does not list exactly the graph's active vertices")
    slots = np.array(order, dtype=np.int64) - 1
    den = (lam - a.diagonal()[slots[s:]])[:, None]
    bad = np.flatnonzero(np.abs(den) <= tol)
    if bad.size:
        raise SingularWeightError(
            f"complement vertex {order[s + bad[0]]} has loop weight within {tol} of {lam}")
    pos = np.zeros(len(a), dtype=np.int64)
    pos[slots] = np.arange(len(slots))
    i, j, w = graph.edge_arrays
    at = pos[i - 1]
    step = (at >= s) & (i != j)
    at, to = at[step], pos[j[step] - 1]
    if checked:
        layer = np.searchsorted(cut, np.arange(len(slots)), side="right")
        up = np.flatnonzero(layer[to] >= layer[at])
        if up.size:
            raise StructuralSetError(
                f"complement vertex {order[at[up[0]]]} points at vertex {order[to[up[0]]]} "
                "in its own depth layer or a deeper one")
    ap = np.zeros((len(slots), len(slots)), dtype=np.result_type(a, den))
    ap[at, to] = w[step] / den[at - s, 0]
    if terminal is None:
        dtype = ap.dtype
        start = np.eye(len(order), s, dtype=dtype)
        shape = (len(a), s)
    else:
        dtype = np.result_type(ap, terminal)
        start = terminal[slots].astype(dtype, copy=False)
        shape = terminal.shape
    if by_length:
        x = np.zeros((len(cut),) + start.shape, dtype)
        x[0] = start
        for d in range(1, len(cut)):
            lo, hi = cut[d - 1], cut[d]
            x[1:d + 1, lo:hi] = ap[lo:hi, :lo] @ x[:d, :lo]
        out = np.zeros((len(x),) + shape, dtype)
        if terminal is not None:
            out[0] = terminal
        out[:, slots] = x
        return out
    x = start
    add = terminal is not None and x[s:].any()
    for d in range(1, len(cut)):
        lo, hi = cut[d - 1], cut[d]
        if add:
            x[lo:hi] += ap[lo:hi, :lo] @ x[:lo]
        else:
            np.matmul(ap[lo:hi, :lo], x[:lo], out=x[lo:hi])
    out = np.zeros(shape, dtype) if terminal is None else terminal.astype(dtype)
    out[slots] = x
    return out


def _sweep_key(graph: WeightedDigraph, structural: StructuralSet, lam: complex,
               tol: float) -> tuple:
    """Everything a member sweep depends on: the set's ``order`` and
    ``cut``, ``lam``, ``tol`` and the result dtype, since ``1.0 == 1 + 0j``
    while a real graph at a real parameter gives real results."""
    return (structural.order, structural.cut, lam, tol,
            np.result_type(graph.adjacency, lam))


def _member_sweep(graph: WeightedDigraph, structural: StructuralSet, lam: complex,
                  tol: float) -> np.ndarray:
    """The read-only n x s member sweep ``X(lam)``, remembered on the graph.

    ``X(lam) = [I; (lam I - A_CC)^-1 A_CS]`` in slot order: the reduction
    is ``A[S, :] X`` and the lift ``X u_S``, so a reduce and a lift at the
    same parameter share one sweep.  The graph keeps one entry, in the way
    it caches ``edge_lists``, under :func:`_sweep_key`, until a lift at
    that key takes it or the next sweep replaces it; a failed sweep leaves
    it as it was.  The update path calls :func:`_depth_sweep` itself, so a
    stored state's graph pins no second n x s array.
    """
    key = _sweep_key(graph, structural, lam, tol)
    memo = vars(graph).get("_member_sweep")
    if memo is not None and memo[0] == key:
        return memo[1]
    x = _depth_sweep(graph, structural, lam, tol=tol)
    x.flags.writeable = False
    vars(graph)["_member_sweep"] = (key, x)
    return x


def _take_member_sweep(graph: WeightedDigraph, structural: StructuralSet, lam: complex,
                       tol: float) -> np.ndarray | None:
    """The member sweep remembered at this key, removed from the graph, or
    None when the graph remembers another key or none."""
    memo = vars(graph).get("_member_sweep")
    if memo is None or memo[0] != _sweep_key(graph, structural, lam, tol):
        return None
    del vars(graph)["_member_sweep"]
    return memo[1]


def reduced_matrix(graph: WeightedDigraph, structural: StructuralSet,
                   lam: complex | None = None, *,
                   tol: float = DEFAULT_TOL) -> ReducedMatrix:
    """Reduced matrix over the structural members at ``lam``, ``A[S, :] X``
    for the member sweep ``X`` that :func:`_member_sweep` remembers.

    ``lam`` defaults to the structural set's own parameter; passing another
    value re-evaluates the same reduction there.

    Raises:
        ValueError: ``lam`` is not finite.
        StructuralSetError: the set's layering is not the graph's own.
        SingularWeightError: a complement loop weight is within ``tol`` of ``lam``.
    """
    if lam is None:
        lam = structural.lam
    members = structural.members
    x = _member_sweep(graph, structural, lam, tol)
    return ReducedMatrix(members, lam, graph.adjacency[[v - 1 for v in members]] @ x)


def reduced_matrices_by_length(graph: WeightedDigraph, structural: StructuralSet,
                               lam: complex | None = None, *,
                               tol: float = DEFAULT_TOL) -> np.ndarray:
    """Every branch length's contribution to the reduced matrix, from one sweep.

    Slice ``p - 1`` holds the length-``p`` term for p = 1 .. (complement
    size + 1); lengths beyond the structural depth + 1 have no branch and
    read zero.  The slices sum to the full matrix.
    """
    if lam is None:
        lam = structural.lam
    members = structural.members
    x = _depth_sweep(graph, structural, lam, by_length=True, tol=tol)
    terms = np.zeros((len(structural.complement()) + 1, len(members), len(members)),
                     dtype=x.dtype)
    terms[:len(x)] = graph.adjacency[[v - 1 for v in members]] @ x
    return terms


def reduced_matrix_by_length(graph: WeightedDigraph, structural: StructuralSet,
                             lam: complex | None = None, p: int = 1, *,
                             tol: float = DEFAULT_TOL) -> np.ndarray:
    """Contribution of length-``p`` branches to the reduced matrix.

    Summing over p = 1 .. (complement size + 1) recovers the full matrix;
    ``reduced_matrices_by_length`` gives every term at once.
    """
    m = len(structural.complement())
    if not 1 <= p <= m + 1:
        raise ValueError(f"branch length {p} outside 1..{m + 1}")
    return reduced_matrices_by_length(graph, structural, lam, tol=tol)[p - 1]


def _stochastic_sweep(graph: WeightedDigraph, structural: StructuralSet,
                      terminal: np.ndarray | None, tol: float) -> np.ndarray:
    """The parameter-1 sweep ``X`` of a stochastic graph with terminal rows
    ``terminal`` (None for the member terminals); the columns of ``E``
    those rows select are ``A X``."""
    if not graph.stochastic:
        raise NonStochasticError("extended reduced matrix requires a stochastic graph")
    if abs(structural.lam - 1) > tol:
        raise ValueError("extended reduced matrix is evaluated at parameter 1")
    return _depth_sweep(graph, structural, 1.0, terminal, tol=tol)


def extended_reduced_matrix(graph: WeightedDigraph, structural: StructuralSet, *,
                            tol: float = DEFAULT_TOL) -> ExtendedReducedMatrix:
    """Branch-weight sums between every vertex pair, at parameter 1.

    Only defined for stochastic graphs (real weights, no loops, unit column
    sums); rows and columns of removed vertices are zero.  Every vertex is
    a terminal of the sweep, so each branch is counted at its own end.  The
    update path needs only the member columns, :func:`extended_columns`.
    """
    return ExtendedReducedMatrix(
        structural.members,
        graph.adjacency @ _stochastic_sweep(graph, structural, np.eye(graph.n_vertices), tol))


def extended_columns(graph: WeightedDigraph, structural: StructuralSet, *,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
    """The member columns ``E[:, S]`` of the extended matrix, n x s in member
    order, from the sweep with member terminals that :func:`reduced_matrix`
    runs.

    They hold all a stationary solve needs: ``E[S, S]`` is the stochastic
    complement and ``E[C, S]`` the lift.  The graph is loop-free, so every
    complement denominator is 1 and a complement row of the sweep,
    ``x_v = sum_j a_vj x_j``, is already row ``v`` of ``A X``: the sweep's
    complement rows are kept as they are, and only the s member rows are
    multiplied out, ``A[S, :] X``.  They agree with
    ``extended_reduced_matrix(graph, structural).entries[:, idx]`` to
    roundoff, not bit for bit, since the sums run in another order.
    """
    x = _stochastic_sweep(graph, structural, None, tol)
    idx = [v - 1 for v in structural.members]
    x[idx] = graph.adjacency[idx] @ x
    return x


def _branch_ends(lists: list[list[int]], walk: list[int]) -> list[int]:
    """Per slot, the loop-free branches that leave it along one of a graph's
    loop-free ``edge_lists``, with ``walk`` listing the complement's slots
    so that each comes after every complement slot its list points at.

    ``reach[v]`` counts the paths from ``v`` that stop at once or go on
    through the complement: 1 for a member or a tombstone, and for a
    complement slot 1 plus the branches leaving it, the sum of its
    neighbours' counts."""
    reach = [1] * len(lists)

    def leaving(v: int) -> int:
        return sum(reach[u] for u in lists[v])

    for v in walk:
        reach[v] += leaving(v)
    return [leaving(v) for v in range(len(reach))]


def branch_counts(graph: WeightedDigraph, structural: StructuralSet) -> tuple[int, int]:
    """Number of branches and their ``m`` statistic, without listing one.

    Counted exactly, in Python ints, on the graph's loop-free ``edge_lists``
    and the structural set's stored layering: a complement vertex points
    only at shallower ones, so one walk in increasing depth over the
    forward lists counts the branches leaving each vertex, and one in
    decreasing depth over the backward lists those entering it.  A loop
    adds the one-step branch ``(v, v)`` at its vertex, and an interior loop
    none.  A complement vertex lies inside exactly in * out of the
    loop-free ones: any branch ending at it joined to any leaving it, since
    the complement has no cycle to repeat a vertex on.  Agrees with
    ``enumerate_branches(graph, structural)`` and its ``m_statistic``.
    """
    walk = [v - 1 for v in structural.order[structural.cut[0]:]]
    out = _branch_ends(graph.edge_lists[0], walk)
    into = _branch_ends(graph.edge_lists[1], walk[::-1])
    through = max((out[v] * into[v] for v in walk), default=0)
    i, j, _ = graph.edge_arrays
    for v in (i[i == j] - 1).tolist():
        out[v] += 1
        into[v] += 1
    return sum(out), max([*out, *into, through])
