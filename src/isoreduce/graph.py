"""Weighted directed graphs, structural vertex sets, depths, nilpotency.

Vertices are the integers ``1..n_vertices``; removed vertices leave
tombstones so that identifiers stay stable across incremental updates.
Each graph builds one dense, read-only adjacency matrix when it is
constructed, and the passes over the graph are array passes over it: one
peel of the complement's non-loop support gives the depths, the
structural check and the nilpotency index.  The one depth-first search,
``_cycles``, runs only for a witness cycle once the peel has stalled and
for the cycle counts of the structural-set search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .exceptions import NonStochasticError, StructuralSetError

#: Absolute tolerance for spectral-parameter equality and singular denominators.
DEFAULT_TOL = 1e-12

#: Tolerance for stochastic column-sum validation.
STOCHASTIC_TOL = 1e-9


def _neighbor_tuples(adjacency: np.ndarray, ids: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """Per active vertex, the ascending ids its row of ``adjacency`` points at."""
    rows, cols = np.nonzero(adjacency)
    idx = np.array(ids, dtype=np.int64) - 1
    lo = np.searchsorted(rows, idx, side="left").tolist()
    hi = np.searchsorted(rows, idx, side="right").tolist()
    cols = (cols + 1).tolist()
    return {v: tuple(cols[a:b]) for v, a, b in zip(ids, lo, hi)}


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed graph with complex edge weights.

    ``weights`` maps ordered pairs ``(i, j)`` (an edge from i to j) to a
    nonzero weight; absent pairs read as weight 0.  With ``stochastic`` set,
    weights must be real in (0, 1], the graph must be loop-free, and every
    active column of the adjacency matrix must sum to 1.

    ``adjacency`` is the dense n x n weighted adjacency matrix, built once
    and read-only (zero rows and columns at tombstones); every pass over the
    graph reads it.
    """

    n_vertices: int
    weights: Mapping[tuple[int, int], complex]
    stochastic: bool = False
    removed: frozenset[int] = frozenset()
    adjacency: np.ndarray = field(init=False, repr=False, compare=False)
    _ids: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_vertices
        if n < 0:
            raise ValueError("n_vertices must be non-negative")
        object.__setattr__(self, "removed", frozenset(self.removed))
        active = np.zeros(n + 1, dtype=bool)
        active[1:] = True
        active[[v for v in self.removed if 1 <= v <= n]] = False
        edges = np.fromiter(chain.from_iterable(self.weights), np.int64,
                            2 * len(self.weights)).reshape(-1, 2)
        w = np.array(list(self.weights.values()), dtype=complex)
        inside = ((edges >= 1) & (edges <= n)).all(axis=1)
        inside[inside] = active[edges[inside]].all(axis=1)
        bad = np.flatnonzero(~inside | (w == 0))
        if bad.size:
            i, j = edges[bad[0]].tolist()
            if not inside[bad[0]]:
                raise ValueError(f"edge ({i},{j}) touches an inactive vertex")
            raise ValueError(f"edge ({i},{j}) stored with zero weight")
        adj = np.zeros((n, n), dtype=complex)
        adj[edges[:, 0] - 1, edges[:, 1] - 1] = w
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "_ids", tuple(np.flatnonzero(active).tolist()))
        if self.stochastic:
            self._validate_stochastic(edges, w)

    def _validate_stochastic(self, edges: np.ndarray, w: np.ndarray):
        faults = np.stack([np.abs(w.imag) > 0, ~((w.real > 0) & (w.real <= 1)),
                           edges[:, 0] == edges[:, 1]])
        bad = np.flatnonzero(faults.any(axis=0))
        if bad.size:
            t = bad[0]
            (i, j), wt = edges[t].tolist(), complex(w[t])
            if faults[0, t]:
                raise NonStochasticError(f"edge ({i},{j}) has non-real weight {wt}")
            if faults[1, t]:
                raise NonStochasticError(f"edge ({i},{j}) weight {wt.real} outside (0, 1]")
            raise NonStochasticError(f"stochastic graph may not contain loop ({i},{i})")
        ids = np.array(self._ids, dtype=np.int64) - 1
        sums = self.adjacency.real[:, ids].sum(axis=0)
        off = np.flatnonzero(np.abs(sums - 1.0) > STOCHASTIC_TOL)
        if off.size:
            raise NonStochasticError(
                f"column {ids[off[0]] + 1} sums to {sums[off[0]]}, expected 1")

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

        Edges are keyed in row-major order; a weight with zero imaginary part
        is stored as a float.
        """
        m = np.asarray(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("adjacency matrix must be square")
        rows, cols = np.nonzero(m != 0)
        w = m[rows, cols].astype(complex)
        vals = w.real.tolist()
        if w.imag.any():
            vals = [re if im == 0 else z for re, im, z in zip(vals, w.imag.tolist(), w.tolist())]
        weights = dict(zip(zip((rows + 1).tolist(), (cols + 1).tolist()), vals))
        return cls(m.shape[0], weights, stochastic=stochastic, removed=frozenset(removed))

    # -- queries ------------------------------------------------------

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
        return _neighbor_tuples(self.adjacency, self._ids)

    @cached_property
    def _in(self) -> dict[int, tuple[int, ...]]:
        return _neighbor_tuples(self.adjacency.T, self._ids)

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

    def compact(self) -> tuple["WeightedDigraph", dict[int, int]]:
        """Renumber active vertices densely as 1..n_active.

        Returns the compacted graph and the old-id -> new-id mapping.
        """
        mapping = {v: t + 1 for t, v in enumerate(self.vertices())}
        weights = {(mapping[i], mapping[j]): w for (i, j), w in self.weights.items()}
        return WeightedDigraph(len(mapping), weights, stochastic=self.stochastic), mapping


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


def _peel(adjacency: np.ndarray, comp: np.ndarray) -> np.ndarray | None:
    """Depths of the complement positions ``comp`` (0-based), or None.

    Level d holds the complement vertices whose complement out-neighbours,
    loops aside, all lie on levels below d, so a vertex sits one level above
    its deepest complement out-neighbour.  A peel that stalls before every
    vertex has a level means the complement carries a non-loop cycle.
    """
    sub = adjacency[np.ix_(comp, comp)] != 0
    np.fill_diagonal(sub, False)
    pending = sub.sum(axis=1)
    depth = np.zeros(len(comp), dtype=np.int64)
    level = np.flatnonzero(pending == 0)
    d = placed = 0
    while level.size:
        d += 1
        depth[level] = d
        placed += level.size
        pending -= sub[:, level].sum(axis=1)
        pending[level] = -1
        level = np.flatnonzero(pending == 0)
    return depth if placed == len(comp) else None


def compute_depths(graph: WeightedDigraph, members: Iterable[int], lam: complex,
                   tol: float = DEFAULT_TOL) -> StructuralSet:
    """Validate ``members`` as a structural set at ``lam`` and assign depths.

    Condition one: every non-loop cycle of the graph meets the set.
    Condition two: no complement vertex has loop weight within ``tol``
    of ``lam``.  One peel of the complement checks the first and gives
    the depths.

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
    ids = np.array(graph.vertices(), dtype=np.int64)
    in_set = np.zeros(graph.n_vertices + 1, dtype=bool)
    in_set[list(members)] = True
    comp = ids[~in_set[ids]]
    loops = graph.adjacency.diagonal()[comp - 1]
    bad = np.flatnonzero(np.abs(loops - lam) <= tol)
    if bad.size:
        vertex = int(comp[bad[0]])
        raise StructuralSetError(
            f"set {members} is not structural at {lam}: vertex {vertex} has "
            "loop weight equal to the parameter", vertex=vertex)
    depth = _peel(graph.adjacency, comp - 1)
    if depth is None:
        cycle = _cycles(graph, member_set)[0]
        raise StructuralSetError(
            f"set {members} is not structural at {lam}: cycle {cycle} avoids it",
            cycle=cycle)
    depth_of = dict.fromkeys(graph.vertices(), 0)
    depth_of.update(zip(comp.tolist(), depth.tolist()))
    return StructuralSet(members, lam, depth_of, int(depth.max(initial=0)))


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
    comp = ids[~np.isin(ids, list(set(members)))] - 1
    if graph.adjacency.diagonal()[comp].any():
        return None
    depth = _peel(graph.adjacency, comp)
    return None if depth is None else int(depth.max(initial=0))
