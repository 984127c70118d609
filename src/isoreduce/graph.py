"""Weighted directed graphs, structural vertex sets, depths, nilpotency.

Vertices are the integers ``1..n_vertices``; removed vertices leave
tombstones so that identifiers stay stable across incremental updates.
A constructor refuses, with ``ValueError``, an id or vertex count that is
neither an integer nor a float with an integer value (a bool is neither),
a negative count, and a tombstone outside ``1..n_vertices``.
``WeightedDigraph`` says what a graph stores; every graph built from edges
passes ``_edge_matrix``, the one duplicate-edge check, which hands the
validator, ``_check_edges``, the edges in the row-major order it sorted
them into; a graph built from an array has them scanned from it.  The
validator tests every edge with one mask and sums a stochastic graph's
columns over the edges.
A graph derives, once, one pair of loop-free edge lists over its vertex
slots, ``edge_lists``, and every traversal of the package indexes them;
a graph an update edited inherits its base graph's lists instead, with
only the slots the edit touched copied and patched, so a published list
is never mutated.  They are the graph's only list form: ``out_neighbors``
and ``in_neighbors`` read a vertex's entry and put its loop back.
One peel, ``_peel`` (Kahn's topological sort, turned around to run from
the sinks over the backward lists), records each vertex's depth as it
leaves: 1 plus its deepest out-neighbour's, with the structural set at 0.
Started from the sinks of the complement by ``_peel_sinks``, it gives the
structural check, the depths and the nilpotency index in O(n + nnz);
``compute_depths`` and ``nilpotency_index`` check their members by one
rule, ``_complement``.  One builder, ``_layering``, turns a depth list
into a ``StructuralSet``'s ``order`` and ``cut``.  The structural-set
search, ``find_structural_set``, starts the same peel and carries it on as
its set grows, taking out every vertex that can no longer reach a cycle,
so its one depth-first search per pick, ``_cycles``, walks only the
vertices that still can, over the forward lists; when it ends, the peel's
depths are the layering the same builder returns.  The depth-first search also gives the witness cycle once
a peel has stalled.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Iterable, Mapping

import numpy as np

from .exceptions import NonStochasticError, StructuralSetError

#: Absolute tolerance for spectral-parameter equality and singular denominators.
DEFAULT_TOL = 1e-12

#: Tolerance for stochastic column-sum validation.
STOCHASTIC_TOL = 1e-9


def _row_major_edges(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of an adjacency array in row-major order: tail ids, head
    ids (both 1-based) and weights.  One flat scan of the boolean support is
    several times faster than ``np.nonzero`` on a 2-D array."""
    rows, cols = np.divmod(np.flatnonzero(adj != 0), adj.shape[1])
    return rows + 1, cols + 1, adj[rows, cols]


def _vertex_id(value) -> int:
    """``value`` as a vertex id: an integer, or a float whose value is one;
    any other value, a bool too, is a ``ValueError``."""
    # numpy's bool is no np.integer; Python's is an int
    is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if is_int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"vertex id {value!r} is not an integer")


def _weights_of(i: np.ndarray, j: np.ndarray,
                w: np.ndarray) -> dict[tuple[int, int], complex]:
    """The ``{(i, j): weight}`` map of edge arrays, in their order; a weight
    with zero imaginary part is a float."""
    vals = w.real.tolist()
    if w.imag.any():
        vals = [re if im == 0 else z for re, im, z in zip(vals, w.imag.tolist(), w.tolist())]
    return dict(zip(zip(i.tolist(), j.tolist()), vals))


def _edge_matrix(n_vertices, i, j, w) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The checked adjacency array of :meth:`WeightedDigraph.from_edge_arrays`
    and its edges in row-major order, as :func:`_row_major_edges` gives
    them: the order the duplicate check sorts them into."""
    try:
        n = _vertex_id(n_vertices)
    except ValueError:
        n = -1
    if n < 0:
        raise ValueError(f"n_vertices {n_vertices!r} is not a non-negative integer")
    if not len(i) == len(j) == len(w):
        raise ValueError(f"edge arrays of unequal length: {len(i)} tails, "
                         f"{len(j)} heads, {len(w)} weights")
    # a bool among integers still gives an integer dtype
    if any(v.dtype == bool if isinstance(v, np.ndarray) else {bool, np.bool_} & set(map(type, v))
           for v in (i, j)):
        raise ValueError("vertex ids must be integers, not bools")
    ids = np.array([i, j])
    if ids.dtype.kind not in "iuf":
        raise ValueError(f"vertex ids must be numbers, not {ids.dtype}")
    w = np.asarray(w, dtype=complex)
    ok = ((ids >= 1) & (ids <= n) & (ids == np.floor(ids))).all(axis=0)
    tails, heads = np.where(ok, ids, 0).astype(np.int64)
    key = tails * (n + 1) + heads
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(w), dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    faults = np.stack([~ok, w == 0, repeat])
    bad = np.flatnonzero(faults.any(axis=0))
    if bad.size:
        t = bad[0]
        raise ValueError([f"edge ({i[t]},{j[t]}) touches an inactive vertex",
                          f"edge ({i[t]},{j[t]}) stored with zero weight",
                          f"duplicate edge ({i[t]},{j[t]})"][int(np.argmax(faults[:, t]))])
    if not w.imag.any():
        w = w.real
    adj = np.zeros((n, n), dtype=w.dtype)
    adj[tails - 1, heads - 1] = w
    return adj, (tails[order], heads[order], w[order])


def _check_edges(i: np.ndarray, j: np.ndarray, w: np.ndarray, active: np.ndarray,
                 stochastic: bool) -> None:
    """Reject the row-major edges ``i, j, w`` of an adjacency array that no
    graph may hold; ``active`` flags the live vertex slots.

    The first faulty edge in row-major order is named, with its first
    fault: it touches a tombstone or is not finite, and on a stochastic
    graph it is non-real, outside (0, 1] or a loop.  One mask tests every
    fault at once; only a failing edge is taken apart.  A stochastic
    graph's active columns, summed over the edges, must then sum to 1.

    Raises:
        ValueError: an edge at a tombstone or with a non-finite weight.
        NonStochasticError: a stochastic condition fails.
    """
    if stochastic:
        # a weight in (0, 1] with no imaginary part is finite
        ok = (w.real > 0) & (w.real <= 1) & (i != j)
        if w.dtype.kind == "c":
            ok &= w.imag == 0
    else:
        ok = np.isfinite(w)
    if not active.all():
        ok &= active[i - 1] & active[j - 1]
    if not ok.all():
        t = int(np.argmin(ok))
        a, b, x = int(i[t]), int(j[t]), w[t].item()
        for fault, kind, message in [
                (not (active[a - 1] and active[b - 1]), ValueError,
                 f"edge ({a},{b}) touches an inactive vertex"),
                (not np.isfinite(x), ValueError, f"edge ({a},{b}) has non-finite weight {x}"),
                (x.imag != 0, NonStochasticError, f"edge ({a},{b}) has non-real weight {x}"),
                (not 0 < x.real <= 1, NonStochasticError,
                 f"edge ({a},{b}) weight {x.real} outside (0, 1]"),
                (a == b, NonStochasticError, f"stochastic graph may not contain loop ({a},{a})")]:
            if fault:
                raise kind(message)
    if stochastic:
        sums = np.bincount(j - 1, weights=w.real, minlength=len(active))
        off = np.flatnonzero(active & (np.abs(sums - 1.0) > STOCHASTIC_TOL))
        if off.size:
            raise NonStochasticError(
                f"column {off[0] + 1} sums to {sums[off[0]]}, expected 1")


class WeightedDigraph:
    """Directed graph with complex edge weights.

    ``adjacency`` is the graph's one stored form: the dense n x n weighted
    adjacency matrix, read-only, with zero rows and columns at tombstones,
    float64 when every weight has zero imaginary part and complex128
    otherwise, checked by one validator however the graph is built.
    ``edge_arrays`` keeps the edges the validator read, in row-major order:
    read-only arrays of tail ids ``i``, head ids ``j`` and weights ``w``,
    one entry per edge.  ``edge_lists`` turns them, on first read, into
    loop-free edge lists over vertex slots (slot ``v - 1`` for vertex
    ``v``), one along the edges and one against them, or inherits them
    patched from the graph an update edited.  Passes that follow edges read
    these, and matrix products read ``adjacency``.

    ``weights`` maps ordered pairs ``(i, j)`` (an edge from i to j) to a
    finite nonzero weight; absent pairs read as weight 0.  It is derived
    from ``edge_arrays`` on first read, however the graph was built: keyed
    in row-major order, with a float for each weight whose imaginary part
    is zero.  With ``stochastic`` set, weights must be real in (0, 1], the
    graph must be loop-free, and every active column must sum to 1.

    Graphs are immutable, and two are equal when their vertex counts, flags,
    tombstones and adjacency arrays are, which is when their weights are.
    """

    def __init__(self, n_vertices: int, weights: Mapping[tuple[int, int], complex],
                 stochastic: bool = False, removed: Iterable[int] = frozenset()):
        self._keep(*_edge_matrix(n_vertices, [i for i, _ in weights], [j for _, j in weights],
                                 list(weights.values())), stochastic, removed)

    def _keep(self, adj: np.ndarray, edges: tuple[np.ndarray, ...], stochastic: bool,
              removed: Iterable[int], lists: tuple[list[list[int]], ...] | None = None) -> None:
        """Validate ``adj``, whose row-major edges are ``edges``, and make
        both, read-only, this graph's adjacency and edge arrays; ``lists``,
        when given, are its ``edge_lists`` as they stand."""
        n = adj.shape[0]
        removed = frozenset(map(_vertex_id, removed))
        if not all(1 <= v <= n for v in removed):
            raise ValueError(f"tombstones {sorted(removed)} are not all in 1..{n}")
        active = np.ones(n, dtype=bool)
        active[[v - 1 for v in removed]] = False
        _check_edges(*edges, active, stochastic)
        for array in (adj, *edges, active):
            array.flags.writeable = False
        vars(self).update(n_vertices=n, stochastic=stochastic, removed=removed,
                          adjacency=adj, edge_arrays=edges, _active=active,
                          _ids=tuple((np.flatnonzero(active) + 1).tolist()))
        if lists is not None:
            vars(self)["edge_lists"] = lists

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n_vertices == other.n_vertices and self.stochastic == other.stochastic
                and self.removed == other.removed
                and np.array_equal(self.adjacency, other.adjacency))

    __hash__ = None

    def __repr__(self) -> str:
        return (f"WeightedDigraph(n_vertices={self.n_vertices}, weights={self.weights!r}, "
                f"stochastic={self.stochastic!r}, removed={self.removed!r})")

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple], *, stochastic: bool = False,
                   removed: Iterable[int] = ()) -> "WeightedDigraph":
        """Build a graph from ``(i, j, weight)`` triples through
        :meth:`from_edge_arrays`; a repeated ``(i, j)`` is a ``ValueError``."""
        i, j, w = tuple(zip(*edges, strict=True)) or ((), (), ())
        return cls.from_edge_arrays(n, i, j, w, stochastic=stochastic, removed=removed)

    @classmethod
    def from_edge_arrays(cls, n: int, i, j, w, *, stochastic: bool = False,
                         removed: Iterable[int] = ()) -> "WeightedDigraph":
        """Build a graph from equal-length tail ids ``i``, head ids ``j`` and
        weights ``w``, one entry per edge in any order.

        Raises:
            ValueError: a bad vertex count, sequences of unequal length, a
                bool or non-number id, or, for the first faulty edge in
                order, an id outside ``1..n`` or with a fraction, a zero
                weight, or a repeat of an earlier ``(i, j)``.
        """
        graph = cls.__new__(cls)
        graph._keep(*_edge_matrix(n, i, j, w), stochastic, removed)
        return graph

    @classmethod
    def from_matrix(cls, m, *, stochastic: bool = False,
                    removed: Iterable[int] = ()) -> "WeightedDigraph":
        """Build a graph from a square matrix; nonzero entry (i, j) is edge i->j.

        A copy of the matrix is validated and kept as ``adjacency``; no
        weight map is built until ``weights`` is read.  Its edges are then
        keyed in row-major order, and a weight with zero imaginary part is
        stored as a float.
        """
        m = np.asarray(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if np.iscomplexobj(m) and not m.imag.any():
            m = m.real
        m = m.astype(complex if np.iscomplexobj(m) else float)
        graph = cls.__new__(cls)
        graph._keep(m, _row_major_edges(m), stochastic, removed)
        return graph

    # -- queries ------------------------------------------------------

    @cached_property
    def weights(self) -> Mapping[tuple[int, int], complex]:
        """Edge weights by ``(i, j)``, derived from ``edge_arrays`` on first read."""
        return _weights_of(*self.edge_arrays)

    def vertices(self) -> tuple[int, ...]:
        """Active vertex ids, ascending."""
        return self._ids

    @property
    def n_active(self) -> int:
        return self.n_vertices - len(self.removed)

    def is_active(self, v) -> bool:
        """Whether ``v`` is the integer id (Python or numpy, not a bool) of a
        live vertex."""
        return (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                and 1 <= v <= self.n_vertices and v not in self.removed)

    def has_edge(self, i, j) -> bool:
        return self.is_active(i) and self.is_active(j) and (i, j) in self.weights

    def weight(self, i: int, j: int) -> complex:
        return self.weights.get((i, j), 0)

    @cached_property
    def edge_lists(self) -> tuple[list[list[int]], list[list[int]]]:
        """The forward and backward loop-free edge lists over slots
        ``0..n-1``, derived from ``edge_arrays`` on first read: entry ``v``
        of the first lists slot ``v``'s out-neighbour slots other than
        ``v``, entry ``v`` of the second its in-neighbour slots other than
        ``v``, both ascending; a tombstone's entries are empty.  A graph an
        update edited is handed them instead: its base graph's lists, with
        each slot the edit touched copied and patched.  A slot's list may
        be shared by every graph that inherited it, so none is mutated."""
        i, j, _ = self.edge_arrays
        step = i != j
        forward, back = [[] for _ in range(self.n_vertices)], [[] for _ in range(self.n_vertices)]
        # the edges are row-major, so both lists fill in ascending order
        for a, b in zip((i[step] - 1).tolist(), (j[step] - 1).tolist()):
            forward[a].append(b)
            back[b].append(a)
        return forward, back

    def _neighbor_ids(self, side: int, v: int) -> tuple[int, ...]:
        """Active vertex ``v``'s neighbour ids on one side of ``edge_lists``
        (0 out, 1 in), ascending, with its loop put back in its place."""
        if not self.is_active(v):
            raise KeyError(v)
        ids = [u + 1 for u in self.edge_lists[side][v - 1]]
        if self.adjacency[v - 1, v - 1]:
            insort(ids, v)
        return tuple(ids)

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        return self._neighbor_ids(0, i)

    def in_neighbors(self, j: int) -> tuple[int, ...]:
        return self._neighbor_ids(1, j)

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self.weights)

    def matrix(self) -> np.ndarray:
        """Full n x n weighted adjacency matrix (zero rows/columns at tombstones),
        as a fresh writable copy of ``adjacency``."""
        return self.adjacency.copy()

    def active_matrix(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Adjacency matrix restricted to active vertices, with the id order used."""
        idx = np.array(self._ids, dtype=np.int64) - 1
        return self.adjacency[np.ix_(idx, idx)], self._ids

    def compact(self) -> tuple["WeightedDigraph", dict[int, int]]:
        """Renumber active vertices densely as 1..n_active.

        Returns the compacted graph and the old-id -> new-id mapping.
        """
        mat, ids = self.active_matrix()
        mapping = {v: t + 1 for t, v in enumerate(ids)}
        return WeightedDigraph.from_matrix(mat, stochastic=self.stochastic), mapping


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of structural validation; falsy when invalid, with a witness."""

    ok: bool
    cycle: tuple[int, ...] | None = None
    vertex: int | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class StructuralSet:
    """A validated structural vertex set with its spectral parameter and its
    depth layering, stored once.

    ``order`` lists every active vertex: the members ascending, then each
    depth layer ascending.  ``cut[d]`` counts the vertices of depth <= d, so
    layer d sits in ``order[cut[d - 1]:cut[d]]`` and the members in
    ``order[:cut[0]]``.  Members sit at depth 0, and a complement vertex lies
    one level above the deepest of its non-loop out-neighbors (depth 1 when
    they are all members).
    """

    lam: complex
    order: tuple[int, ...]
    cut: tuple[int, ...]

    @property
    def members(self) -> tuple[int, ...]:
        return self.order[:self.cut[0]]

    @property
    def max_depth(self) -> int:
        return len(self.cut) - 1

    @cached_property
    def depth_of(self) -> dict[int, int]:
        """Every active vertex's depth, keyed by ascending id."""
        depth = np.searchsorted(self.cut, np.arange(len(self.order)), side="right")
        return dict(sorted(zip(self.order, depth.tolist())))

    def complement(self) -> tuple[int, ...]:
        return tuple(sorted(self.order[self.cut[0]:]))

    def depth_sets(self) -> list[list[int]]:
        """Nested vertex sets by depth: entry k lists vertices of depth <= k."""
        return [sorted(self.order[:c]) for c in self.cut]

    def depth_counts(self) -> list[int]:
        """Sizes |S_0|, |S_1|, ..., |S_k| of the nested depth sets."""
        return list(self.cut)


def _cycles(succ: list[list[int]],
            live: list[bool]) -> tuple[tuple[int, ...] | None, list[int]]:
    """One DFS along the graph's loop-free forward ``edge_lists``, ``succ``,
    over the subgraph on the slots that ``live`` flags.

    Each back edge closes a cycle on the current DFS path.  Returns the first
    such cycle as vertex ids in closed tuple form (None when the subgraph has
    no non-loop cycle) and, indexed by slot, the number of these cycles
    through each vertex.  A back edge to path position k adds 1 to the
    positions k..top, kept as a difference array over path positions: +1 at
    the top, -1 below k, and each popped position hands its total down to
    the one beneath.  A slot off the subgraph starts as finished, so the
    walk never enters it and each edge costs one test.
    """
    n = len(succ)
    hits = [0] * n
    first = None
    pos: list[int | None] = [None if x else -1 for x in live]
    for root in range(n):
        if pos[root] is not None:
            continue
        pos[root] = 0
        # the path's slots, their unread out-neighbours and their differences
        path, todo, diff = [root], [iter(succ[root])], [0]
        while todo:
            for u in todo[-1]:
                k = pos[u]
                if k is None:
                    pos[u] = len(path)
                    path.append(u)
                    todo.append(iter(succ[u]))
                    diff.append(0)
                    break
                if k >= 0:
                    if first is None:
                        first = tuple(x + 1 for x in path[k:]) + (u + 1,)
                    diff[-1] += 1
                    if k:
                        diff[k - 1] -= 1
            else:
                v = path.pop()
                pos[v] = -1
                todo.pop()
                c = diff.pop()
                hits[v] += c
                if diff:
                    diff[-1] += c
    return first, hits


def _peel(graph: WeightedDigraph, live: list[bool], pending: list[int],
          depth: list[int], queue: list[int]) -> None:
    """Kahn's counting rule, turned around, over the backward edge lists:
    the slots in ``queue`` leave the live set, and so does each live slot
    whose ``pending`` count of non-loop out-edges to live slots reaches
    zero.  A slot is taken up only after every live out-neighbour it had
    has left, so ``depth[u]``, raised to 1 plus the depth of each of them
    as it leaves, is final by then."""
    preds = graph.edge_lists[1]
    for v in queue:
        live[v] = False
    while queue:
        v = queue.pop()
        d = depth[v] + 1
        for u in preds[v]:
            if live[u]:
                if depth[u] < d:
                    depth[u] = d
                pending[u] -= 1
                if not pending[u]:
                    live[u] = False
                    queue.append(u)


def _peel_sinks(graph: WeightedDigraph,
                flags: np.ndarray) -> tuple[list[bool], list[int], list[int]]:
    """:func:`_peel` of the subgraph on the slots that ``flags`` marks, from
    its sinks.  Returns ``live``, still set at each slot that reaches a
    non-loop cycle of the subgraph, the ``pending`` counts, and ``depth``:
    0 at an unmarked slot, and at a slot taken out 1 plus the deepest of
    its non-loop out-neighbours' depths (1 at a sink)."""
    i, j, _ = graph.edge_arrays
    keep = flags[i - 1] & flags[j - 1] & (i != j)
    pending = np.bincount(i[keep] - 1, minlength=graph.n_vertices).tolist()
    live = flags.tolist()
    depth = list(map(int, live))
    _peel(graph, live, pending, depth, [v for v, c in enumerate(pending) if live[v] and not c])
    return live, pending, depth


def _layering(graph: WeightedDigraph, lam: complex, depth: list[int]) -> StructuralSet:
    """The ``StructuralSet`` at ``lam`` whose depths, by slot, are ``depth``:
    the active vertices bucketed by depth, the members (depth 0) first and
    then each layer, every bucket ascending."""
    layers: list[list[int]] = [[] for _ in range(max(depth) + 1)]
    for v in graph.vertices():
        layers[depth[v - 1]].append(v)
    return StructuralSet(lam, tuple(chain.from_iterable(layers)),
                         tuple(accumulate(map(len, layers))))


def _complement(graph: WeightedDigraph,
                members: Iterable[int]) -> tuple[tuple[int, ...], np.ndarray]:
    """``members`` as ascending ids, each checked to be an active vertex's
    integer id, and the flags of the active slots outside them.

    Raises:
        ValueError: a member that is not an active vertex.
    """
    members = tuple(sorted(set(members)))
    for v in members:
        if not graph.is_active(v):
            raise ValueError(f"structural member {v} is not an active vertex")
    in_comp = graph._active.copy()
    in_comp[np.array(members, dtype=np.int64) - 1] = False
    return members, in_comp


def compute_depths(graph: WeightedDigraph, members: Iterable[int], lam: complex,
                   tol: float = DEFAULT_TOL) -> StructuralSet:
    """Validate ``members`` as a structural set at ``lam`` and assign depths.

    Condition one: every non-loop cycle of the graph meets the set.
    Condition two: no complement vertex has loop weight within ``tol``
    of ``lam``.  One peel of the complement from its sinks,
    :func:`_peel_sinks`, checks the first and records the depths, which
    :func:`_layering` turns into the layering; only when the peel stalls
    does a depth-first search look for the witness cycle.

    Raises:
        ValueError: empty set, or members that are not integers in the
            active vertex range.
        StructuralSetError: the set is not structural; carries the witness.
    """
    members, in_comp = _complement(graph, members)
    if not members:
        raise ValueError("structural set must be nonempty")
    comp = np.flatnonzero(in_comp)
    loops = graph.adjacency.diagonal()[comp]
    bad = np.flatnonzero(np.abs(loops - lam) <= tol)
    if bad.size:
        vertex = int(comp[bad[0]]) + 1
        raise StructuralSetError(
            f"set {members} is not structural at {lam}: vertex {vertex} has "
            "loop weight equal to the parameter", vertex=vertex)
    live, _, depth = _peel_sinks(graph, in_comp)
    if True in live:
        # every cycle, and every DFS path reaching one, stays live
        cycle = _cycles(graph.edge_lists[0], live)[0]
        raise StructuralSetError(
            f"set {members} is not structural at {lam}: cycle {cycle} avoids it",
            cycle=cycle)
    return _layering(graph, lam, depth)


def validate_structural(graph: WeightedDigraph, members: Iterable[int], lam: complex,
                        tol: float = DEFAULT_TOL) -> ValidationResult:
    """Check the structural-set conditions of :func:`compute_depths`; falsy on
    failure, carrying the witness cycle or vertex.

    Raises:
        ValueError: empty set, or members that are not integers in the
            active vertex range.
    """
    try:
        compute_depths(graph, members, lam, tol)
    except StructuralSetError as exc:
        return ValidationResult(False, cycle=exc.cycle, vertex=exc.vertex)
    return ValidationResult(True)


def find_structural_set(graph: WeightedDigraph, lam: complex,
                        tol: float = DEFAULT_TOL) -> StructuralSet:
    """Search for a structural set at ``lam``; valid but not minimum-cardinality.

    Vertices whose loop weight equals ``lam`` are forced in first; remaining
    non-loop cycles are broken greedily by the vertex covering the most
    cycles detected per sweep (the smallest id among ties).  Between sweeps
    the vertices that reach no cycle outside the set are peeled off by
    :func:`_peel_sinks`, the peel :func:`compute_depths` runs, kept up to
    date by :func:`_peel` as the set grows: each chosen vertex leaves the live
    set at depth 0, and so does every live vertex left with no live
    out-neighbour.  Such a vertex only ever finishes in the search, so the
    sweep over the live vertices meets the same back edges, counts and
    choices; the search ends when no vertex is live.  By then every
    complement vertex has left after all its out-neighbours, with the depth
    :func:`compute_depths` would give it, and the same builder,
    :func:`_layering`, returns the layering.  A graph with no cycle and no
    forced vertex takes its first vertex as the only member, and that set
    goes through :func:`compute_depths`.
    """
    if graph.n_active == 0:
        raise ValueError("graph has no active vertices")
    forced = graph._active & (np.abs(graph.adjacency.diagonal() - lam) <= tol)
    live, pending, depth = _peel_sinks(graph, graph._active & ~forced)
    if True not in live and not forced.any():
        return compute_depths(graph, [graph.vertices()[0]], lam, tol)
    while True in live:
        hits = _cycles(graph.edge_lists[0], live)[1]
        v = hits.index(max(hits))
        depth[v] = 0
        _peel(graph, live, pending, depth, [v])
    return _layering(graph, lam, depth)


def nilpotency_index(graph: WeightedDigraph, members: Iterable[int]) -> int | None:
    """Nilpotency index of the adjacency matrix restricted to the complement.

    Returns the number of vertices on the longest chain inside the complement,
    its largest depth from the peel of :func:`compute_depths` (0 for an empty
    complement), or None when the complement contains any cycle or loop, in
    which case no power of the restriction vanishes.  The members are
    checked as :func:`compute_depths` checks them, though they may be none.

    Raises:
        ValueError: a member that is not an active vertex.
    """
    _, in_comp = _complement(graph, members)
    if graph.adjacency.diagonal()[in_comp].any():
        return None
    live, _, depth = _peel_sinks(graph, in_comp)
    return None if True in live else max(depth, default=0)
