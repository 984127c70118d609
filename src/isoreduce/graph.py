"""Weighted directed graphs, structural vertex sets, depths, nilpotency.

Vertices are the integers ``1..n_vertices``; removed vertices leave
tombstones so that identifiers stay stable across incremental updates.
Each graph stores one dense, read-only adjacency array, float64 when
every weight is real and complex128 otherwise, checked by one validator
whichever way the graph is built.  ``from_matrix`` keeps a copy of the
array it is given.  The validator's row-major scan of the array is kept
beside it as ``edge_arrays``, and the weight map and neighbour lists are
derived from those edges when first read.  One counting pass over the
complement's kept edges (Kahn's topological sort, run from the sinks)
gives the depths, the structural check and the nilpotency index in
O(n + nnz).  The one depth-first search, ``_cycles``, runs only for a
witness cycle once that pass has stalled and for the cycle counts of the
structural-set search.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .exceptions import NonStochasticError, StructuralSetError

#: Absolute tolerance for spectral-parameter equality and singular denominators.
DEFAULT_TOL = 1e-12

#: Tolerance for stochastic column-sum validation.
STOCHASTIC_TOL = 1e-9


def _nonzero_slots(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of a 2-D array's nonzero entries in row-major
    order, as ``np.nonzero`` gives them; one flat scan of the boolean
    support is several times faster than ``np.nonzero`` on a 2-D array."""
    return np.divmod(np.flatnonzero(matrix != 0), matrix.shape[1])


def _edge_lists(n: int, tails: np.ndarray,
                heads: np.ndarray) -> tuple[list[int], list[int]]:
    """Edge lists over indices ``0..n-1`` from edges sorted by tail: the
    heads of index ``v``'s edges are ``heads[ptr[v]:ptr[v + 1]]``."""
    return np.searchsorted(tails, np.arange(n + 1)).tolist(), heads.tolist()


def _neighbor_tuples(n: int, tails: np.ndarray, heads: np.ndarray,
                     ids: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """Per active vertex id, the head ids of its edges, from edges sorted by
    tail id."""
    ptr, heads = _edge_lists(n + 1, tails, heads)
    return {v: tuple(heads[ptr[v]:ptr[v + 1]]) for v in ids}


def _weights_of(i: np.ndarray, j: np.ndarray,
                w: np.ndarray) -> dict[tuple[int, int], complex]:
    """The ``{(i, j): weight}`` map of edge arrays, in their order; a weight
    with zero imaginary part is a float."""
    vals = w.real.tolist()
    if w.imag.any():
        vals = [re if im == 0 else z for re, im, z in zip(vals, w.imag.tolist(), w.tolist())]
    return dict(zip(zip(i.tolist(), j.tolist()), vals))


def _check_adjacency(adj: np.ndarray, active: np.ndarray,
                     stochastic: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reject an adjacency array that no graph may hold; ``active`` flags the
    live vertex slots.  Returns the edges the check scanned, in row-major
    order: tail ids ``i``, head ids ``j`` (both 1-based) and weights ``w``.

    The first faulty entry in row-major order is named, with its first
    fault: it touches a tombstone or is not finite, and on a stochastic
    graph it is non-real, outside (0, 1] or a loop.  A stochastic graph's
    active columns must then sum to 1.

    Raises:
        ValueError: an edge at a tombstone or with a non-finite weight.
        NonStochasticError: a stochastic condition fails.
    """
    rows, cols = _nonzero_slots(adj)
    tails, heads, w = rows + 1, cols + 1, adj[rows, cols]
    faults = [~(active[tails - 1] & active[heads - 1]), ~np.isfinite(w)]
    if stochastic:
        faults += [w.imag != 0, ~((w.real > 0) & (w.real <= 1)), tails == heads]
    faults = np.stack(faults)
    bad = np.flatnonzero(faults.any(axis=0))
    if bad.size:
        t = bad[0]
        i, j, wt = int(tails[t]), int(heads[t]), w[t].item()
        kind, message = [
            (ValueError, f"edge ({i},{j}) touches an inactive vertex"),
            (ValueError, f"edge ({i},{j}) has non-finite weight {wt}"),
            (NonStochasticError, f"edge ({i},{j}) has non-real weight {wt}"),
            (NonStochasticError, f"edge ({i},{j}) weight {wt.real} outside (0, 1]"),
            (NonStochasticError, f"stochastic graph may not contain loop ({i},{i})"),
        ][int(np.argmax(faults[:, t]))]
        raise kind(message)
    if stochastic:
        sums = adj.real.sum(axis=0)
        off = np.flatnonzero(active & (np.abs(sums - 1.0) > STOCHASTIC_TOL))
        if off.size:
            raise NonStochasticError(
                f"column {off[0] + 1} sums to {sums[off[0]]}, expected 1")
    return tails, heads, w


class WeightedDigraph:
    """Directed graph with complex edge weights.

    ``adjacency`` is the graph's one stored form: the dense n x n weighted
    adjacency matrix, read-only, with zero rows and columns at tombstones,
    float64 when every weight has zero imaginary part and complex128
    otherwise.  ``edge_arrays`` keeps the validator's row-major scan of it:
    read-only arrays of tail ids ``i``, head ids ``j`` and weights ``w``,
    one entry per edge.  Passes that follow edges read these arrays, and
    matrix products read ``adjacency``.

    ``weights`` maps ordered pairs ``(i, j)`` (an edge from i to j) to a
    finite nonzero weight; absent pairs read as weight 0.  It is derived
    from ``edge_arrays`` on first read, however the graph was built: keyed
    in row-major order, with a float for each weight whose imaginary part
    is zero.  With
    ``stochastic`` set, weights must be real in (0, 1], the graph must be
    loop-free, and every active column must sum to 1.

    Graphs are immutable, and two are equal when their vertex counts, flags,
    tombstones and adjacency arrays are, which is when their weights are.
    """

    def __init__(self, n_vertices: int, weights: Mapping[tuple[int, int], complex],
                 stochastic: bool = False, removed: Iterable[int] = frozenset()):
        if n_vertices < 0:
            raise ValueError("n_vertices must be non-negative")
        edges = np.fromiter(chain.from_iterable(weights), np.int64,
                            2 * len(weights)).reshape(-1, 2)
        w = np.array(list(weights.values()), dtype=complex)
        outside = ((edges < 1) | (edges > n_vertices)).any(axis=1)
        bad = np.flatnonzero(outside | (w == 0))
        if bad.size:
            i, j = edges[bad[0]].tolist()
            if outside[bad[0]]:
                raise ValueError(f"edge ({i},{j}) touches an inactive vertex")
            raise ValueError(f"edge ({i},{j}) stored with zero weight")
        if not w.imag.any():
            w = w.real
        adj = np.zeros((n_vertices, n_vertices), dtype=w.dtype)
        adj[edges[:, 0] - 1, edges[:, 1] - 1] = w
        self._keep(adj, stochastic, removed)

    def _keep(self, adj: np.ndarray, stochastic: bool, removed: Iterable[int]) -> None:
        """Validate ``adj`` and make it, read-only, this graph's adjacency."""
        n = adj.shape[0]
        removed = frozenset(removed)
        active = np.ones(n, dtype=bool)
        active[[v - 1 for v in removed if 1 <= v <= n]] = False
        edges = _check_adjacency(adj, active, stochastic)
        for array in (adj, *edges):
            array.flags.writeable = False
        vars(self).update(n_vertices=n, stochastic=stochastic, removed=removed,
                          adjacency=adj, edge_arrays=edges,
                          _ids=tuple((np.flatnonzero(active) + 1).tolist()))

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
        """Build a graph from ``(i, j, weight)`` triples."""
        weights = {}
        for i, j, w in edges:
            if (i, j) in weights:
                raise ValueError(f"duplicate edge ({i},{j})")
            weights[(i, j)] = w
        return cls(n, weights, stochastic=stochastic, removed=frozenset(removed))

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
        graph = cls.__new__(cls)
        graph._keep(m.astype(complex if np.iscomplexobj(m) else float), stochastic, removed)
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
        """Whether ``v`` is the integer id (Python or numpy) of a live vertex."""
        return (isinstance(v, (int, np.integer))
                and 1 <= v <= self.n_vertices and v not in self.removed)

    def has_edge(self, i, j) -> bool:
        return self.is_active(i) and self.is_active(j) and (i, j) in self.weights

    def weight(self, i: int, j: int) -> complex:
        return self.weights.get((i, j), 0)

    @cached_property
    def _out(self) -> dict[int, tuple[int, ...]]:
        i, j, _ = self.edge_arrays
        return _neighbor_tuples(self.n_vertices, i, j, self._ids)

    @cached_property
    def _in(self) -> dict[int, tuple[int, ...]]:
        i, j, _ = self.edge_arrays
        by_head = np.argsort(j, kind="stable")
        return _neighbor_tuples(self.n_vertices, j[by_head], i[by_head], self._ids)

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        return self._out[i]

    def in_neighbors(self, j: int) -> tuple[int, ...]:
        return self._in[j]

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

    def active_support(self) -> np.ndarray:
        """Boolean support of :meth:`active_matrix`'s block, without copying
        the weights; the whole support when there is no tombstone."""
        support = self.adjacency != 0
        if len(self._ids) == self.n_vertices:
            return support
        idx = np.array(self._ids, dtype=np.int64) - 1
        return support[np.ix_(idx, idx)]

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
    """A validated structural vertex set with its spectral parameter and depths.

    ``depth_of`` assigns every active vertex its recursion depth: members sit
    at depth 0, and a complement vertex lies one level above the deepest of
    its non-loop out-neighbors.
    """

    members: tuple[int, ...]
    lam: complex
    depth_of: Mapping[int, int]
    max_depth: int

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    def complement(self) -> tuple[int, ...]:
        members = set(self.members)
        return tuple(sorted(v for v in self.depth_of if v not in members))

    def depth_sets(self) -> list[list[int]]:
        """Nested vertex sets by depth: entry k lists vertices of depth <= k."""
        sets: list[list[int]] = [[] for _ in range(self.max_depth + 1)]
        for v, d in self.depth_of.items():
            sets[d].append(v)
        out, acc = [], []
        for level in sets:
            acc = sorted(acc + level)
            out.append(list(acc))
        return out

    def depth_counts(self) -> list[int]:
        """Sizes |S_0|, |S_1|, ..., |S_k| of the nested depth sets."""
        counts = [0] * (self.max_depth + 1)
        for d in self.depth_of.values():
            counts[d] += 1
        total = 0
        out = []
        for c in counts:
            total += c
            out.append(total)
        return out


def _cycles(graph: WeightedDigraph,
            excluded: set[int]) -> tuple[tuple[int, ...] | None, list[int]]:
    """One DFS over the subgraph avoiding ``excluded``, loops ignored.

    Each back edge closes a cycle on the current DFS path.  Returns the first
    such cycle in closed tuple form (None when the subgraph has no non-loop
    cycle) and, indexed by vertex id, the number of these cycles through each
    vertex.  A back edge to path position k adds 1 to the positions k..top,
    kept as a difference array over path positions: +1 at the top, -1 below
    k, and each popped position hands its total down to the one beneath.
    """
    hits = [0] * (graph.n_vertices + 1)
    first = None
    out = graph._out
    pos: dict[int, int] = {}
    for root in graph.vertices():
        if root in excluded or root in pos:
            continue
        pos[root] = 0
        path, diff = [root], [0]
        stack = [(root, iter(out[root]))]
        while stack:
            v, it = stack[-1]
            for u in it:
                if u == v or u in excluded:
                    continue
                k = pos.get(u)
                if k is None:
                    pos[u] = len(path)
                    path.append(u)
                    diff.append(0)
                    stack.append((u, iter(out[u])))
                    break
                if k >= 0:
                    if first is None:
                        first = tuple(path[k:]) + (u,)
                    diff[-1] += 1
                    if k:
                        diff[k - 1] -= 1
            else:
                pos[v] = -1
                path.pop()
                stack.pop()
                c = diff.pop()
                hits[v] += c
                if diff:
                    diff[-1] += c
    return first, hits


def _count_depths(graph: WeightedDigraph, in_comp: np.ndarray) -> list[int] | None:
    """Depths by vertex id over the complement that ``in_comp`` flags
    (indexed by id), or None when it carries a non-loop cycle.

    Kahn's in-degree counting, run on the complement's kept edges with
    loops dropped and turned around: each vertex counts its complement
    out-edges, and a vertex whose count reaches zero takes one level above
    its deepest out-neighbour and releases its predecessors.  It is one
    O(n + nnz) pass; a pass that places fewer vertices than the complement
    holds has stalled on a cycle.  Entries outside the complement read 0.
    """
    i, j, _ = graph.edge_arrays
    keep = in_comp[i] & in_comp[j] & (i != j)
    tails, heads = i[keep], j[keep]
    by_head = np.argsort(heads, kind="stable")
    ptr, preds = _edge_lists(graph.n_vertices + 1, heads[by_head], tails[by_head])
    pending = np.bincount(tails, minlength=graph.n_vertices + 1).tolist()
    comp = np.flatnonzero(in_comp).tolist()
    depth = [0] * (graph.n_vertices + 1)
    placed = [v for v in comp if not pending[v]]
    for v in placed:
        depth[v] = 1
    for v in placed:
        d = depth[v] + 1
        for u in preds[ptr[v]:ptr[v + 1]]:
            if depth[u] < d:
                depth[u] = d
            pending[u] -= 1
            if not pending[u]:
                placed.append(u)
    return depth if len(placed) == len(comp) else None


def compute_depths(graph: WeightedDigraph, members: Iterable[int], lam: complex,
                   tol: float = DEFAULT_TOL) -> StructuralSet:
    """Validate ``members`` as a structural set at ``lam`` and assign depths.

    Condition one: every non-loop cycle of the graph meets the set.
    Condition two: no complement vertex has loop weight within ``tol``
    of ``lam``.  One counting pass over the complement's edges checks the
    first and gives the depths; only when it stalls does a depth-first
    search look for the witness cycle.

    Raises:
        ValueError: empty set, or members that are not integers in the
            active vertex range.
        StructuralSetError: the set is not structural; carries the witness.
    """
    member_set = set(members)
    members = tuple(sorted(member_set))
    if not members:
        raise ValueError("structural set must be nonempty")
    for v in members:
        if not graph.is_active(v):
            raise ValueError(f"structural member {v} is not an active vertex")
    in_comp = np.zeros(graph.n_vertices + 1, dtype=bool)
    in_comp[list(graph.vertices())] = True
    in_comp[list(members)] = False
    comp = np.flatnonzero(in_comp)
    loops = graph.adjacency.diagonal()[comp - 1]
    bad = np.flatnonzero(np.abs(loops - lam) <= tol)
    if bad.size:
        vertex = int(comp[bad[0]])
        raise StructuralSetError(
            f"set {members} is not structural at {lam}: vertex {vertex} has "
            "loop weight equal to the parameter", vertex=vertex)
    depth = _count_depths(graph, in_comp)
    if depth is None:
        cycle = _cycles(graph, member_set)[0]
        raise StructuralSetError(
            f"set {members} is not structural at {lam}: cycle {cycle} avoids it",
            cycle=cycle)
    depth_of = {v: depth[v] for v in graph.vertices()}
    return StructuralSet(members, lam, depth_of, max(depth))


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
    cycles detected per sweep (the smallest id among ties).
    """
    if graph.n_active == 0:
        raise ValueError("graph has no active vertices")
    ids = graph.vertices()
    loops = graph.adjacency.diagonal()[np.array(ids, dtype=np.int64) - 1]
    chosen = {v for v, hit in zip(ids, (np.abs(loops - lam) <= tol).tolist()) if hit}
    while True:
        first, hits = _cycles(graph, chosen)
        if first is None:
            break
        chosen.add(hits.index(max(hits)))
    if not chosen:
        chosen.add(ids[0])
    return compute_depths(graph, chosen, lam, tol)


def nilpotency_index(graph: WeightedDigraph, members: Iterable[int]) -> int | None:
    """Nilpotency index of the adjacency matrix restricted to the complement.

    Returns the number of vertices on the longest chain inside the complement
    (0 for an empty complement), or None when the complement contains any
    cycle or loop, in which case no power of the restriction vanishes.
    """
    ids = np.array(graph.vertices(), dtype=np.int64)
    comp = ids[~np.isin(ids, list(set(members)))]
    if graph.adjacency.diagonal()[comp - 1].any():
        return None
    in_comp = np.zeros(graph.n_vertices + 1, dtype=bool)
    in_comp[comp] = True
    depth = _count_depths(graph, in_comp)
    return None if depth is None else max(depth)
