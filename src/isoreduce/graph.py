"""Weighted directed graphs, structural vertex sets, depths, nilpotency.

Vertices are the integers ``1..n_vertices``; removed vertices leave
tombstones so that identifiers stay stable across incremental updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from .exceptions import NonStochasticError, StructuralSetError

#: Absolute tolerance for spectral-parameter equality and singular denominators.
DEFAULT_TOL = 1e-12

#: Tolerance for stochastic column-sum validation.
STOCHASTIC_TOL = 1e-9


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed graph with complex edge weights.

    ``weights`` maps ordered pairs ``(i, j)`` (an edge from i to j) to a
    nonzero weight; absent pairs read as weight 0.  With ``stochastic`` set,
    weights must be real in (0, 1], the graph must be loop-free, and every
    active column of the adjacency matrix must sum to 1.
    """

    n_vertices: int
    weights: Mapping[tuple[int, int], complex]
    stochastic: bool = False
    removed: frozenset[int] = frozenset()
    _out: dict = field(init=False, repr=False, compare=False)
    _in: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_vertices < 0:
            raise ValueError("n_vertices must be non-negative")
        object.__setattr__(self, "removed", frozenset(self.removed))
        active = set(range(1, self.n_vertices + 1)) - self.removed
        out: dict[int, list[int]] = {v: [] for v in active}
        into: dict[int, list[int]] = {v: [] for v in active}
        for (i, j), w in self.weights.items():
            if i not in active or j not in active:
                raise ValueError(f"edge ({i},{j}) touches an inactive vertex")
            if w == 0:
                raise ValueError(f"edge ({i},{j}) stored with zero weight")
            out[i].append(j)
            into[j].append(i)
        object.__setattr__(self, "_out", {v: tuple(sorted(ns)) for v, ns in out.items()})
        object.__setattr__(self, "_in", {v: tuple(sorted(ns)) for v, ns in into.items()})
        if self.stochastic:
            self._validate_stochastic()

    def _validate_stochastic(self):
        sums = {v: 0.0 for v in self._in}
        for (i, j), w in self.weights.items():
            w = complex(w)
            if abs(w.imag) > 0:
                raise NonStochasticError(f"edge ({i},{j}) has non-real weight {w}")
            if not 0.0 < w.real <= 1.0:
                raise NonStochasticError(f"edge ({i},{j}) weight {w.real} outside (0, 1]")
            if i == j:
                raise NonStochasticError(f"stochastic graph may not contain loop ({i},{i})")
            sums[j] += w.real
        for v, s in sums.items():
            if abs(s - 1.0) > STOCHASTIC_TOL:
                raise NonStochasticError(f"column {v} sums to {s}, expected 1")

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
    def from_matrix(cls, m, *, stochastic: bool = False) -> "WeightedDigraph":
        """Build a graph from a square matrix; nonzero entry (i, j) is edge i->j."""
        m = np.asarray(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("adjacency matrix must be square")
        n = m.shape[0]
        weights = {}
        for i in range(n):
            for j in range(n):
                if m[i, j] != 0:
                    w = complex(m[i, j])
                    weights[(i + 1, j + 1)] = w.real if w.imag == 0 else w
        return cls(n, weights, stochastic=stochastic)

    # -- queries ------------------------------------------------------

    def vertices(self) -> tuple[int, ...]:
        """Active vertex ids, ascending."""
        return tuple(sorted(self._out))

    @property
    def n_active(self) -> int:
        return self.n_vertices - len(self.removed)

    def is_active(self, v: int) -> bool:
        return 1 <= v <= self.n_vertices and v not in self.removed

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.weights

    def weight(self, i: int, j: int) -> complex:
        return self.weights.get((i, j), 0)

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        return self._out[i]

    def in_neighbors(self, j: int) -> tuple[int, ...]:
        return self._in[j]

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self.weights)

    def matrix(self) -> np.ndarray:
        """Full n x n weighted adjacency matrix (zero rows/columns at tombstones)."""
        m = np.zeros((self.n_vertices, self.n_vertices), dtype=complex)
        for (i, j), w in self.weights.items():
            m[i - 1, j - 1] = w
        return m

    def active_matrix(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Adjacency matrix restricted to active vertices, with the id order used."""
        ids = self.vertices()
        pos = {v: t for t, v in enumerate(ids)}
        m = np.zeros((len(ids), len(ids)), dtype=complex)
        for (i, j), w in self.weights.items():
            m[pos[i], pos[j]] = w
        return m, ids

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
        return tuple(sorted(v for v in self.depth_of if v not in set(self.members)))

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


def _cycles(graph: WeightedDigraph, excluded: set[int]) -> Iterator[tuple[int, ...]]:
    """One DFS pass yielding a non-loop cycle per back edge in the subgraph
    avoiding ``excluded``, each in closed tuple form."""
    color: dict[int, int] = {}
    for root in graph.vertices():
        if root in excluded or color.get(root, 0) == 2:
            continue
        stack = [(root, iter(graph.out_neighbors(root)))]
        color[root] = 1
        path = [root]
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if u == v or u in excluded:
                    continue
                c = color.get(u, 0)
                if c == 0:
                    color[u] = 1
                    path.append(u)
                    stack.append((u, iter(graph.out_neighbors(u))))
                    advanced = True
                    break
                if c == 1:
                    k = path.index(u)
                    yield tuple(path[k:]) + (u,)
            if not advanced:
                color[v] = 2
                path.pop()
                stack.pop()


def validate_structural(graph: WeightedDigraph, members: Iterable[int], lam: complex,
                        tol: float = DEFAULT_TOL) -> ValidationResult:
    """Check the two structural-set conditions for ``members`` at ``lam``.

    Condition one: every non-loop cycle of the graph meets the set.
    Condition two: no complement vertex has loop weight within ``tol``
    of ``lam``.  On failure the result carries a witness cycle or vertex.

    Raises:
        ValueError: empty set or members outside the active vertex range.
    """
    members = set(members)
    if not members:
        raise ValueError("structural set must be nonempty")
    for v in members:
        if not graph.is_active(v):
            raise ValueError(f"structural member {v} is not an active vertex")
    for v in graph.vertices():
        if v in members:
            continue
        if abs(graph.weight(v, v) - lam) <= tol:
            return ValidationResult(False, vertex=v)
    cycle = next(_cycles(graph, members), None)
    if cycle is not None:
        return ValidationResult(False, cycle=cycle)
    return ValidationResult(True)


def compute_depths(graph: WeightedDigraph, members: Iterable[int], lam: complex,
                   tol: float = DEFAULT_TOL) -> StructuralSet:
    """Assign recursion depths over a validated structural set.

    Raises:
        StructuralSetError: the set is not structural; carries the witness.
    """
    members = tuple(sorted(set(members)))
    result = validate_structural(graph, members, lam, tol)
    if not result:
        raise StructuralSetError(
            f"set {members} is not structural at {lam}: "
            + (f"cycle {result.cycle} avoids it" if result.cycle
               else f"vertex {result.vertex} has loop weight equal to the parameter"),
            cycle=result.cycle, vertex=result.vertex)
    member_set = set(members)
    depth: dict[int, int] = {v: 0 for v in member_set}
    # Non-loop edges inside the complement form a DAG, so the recursion is
    # well founded; resolve it with an explicit post-order stack.
    for start in graph.vertices():
        if start in depth:
            continue
        stack = [start]
        while stack:
            v = stack[-1]
            if v in depth:
                stack.pop()
                continue
            pending = [u for u in graph.out_neighbors(v)
                       if u != v and u not in depth]
            if pending:
                stack.extend(pending)
                continue
            depth[v] = 1 + max(
                (depth[u] for u in graph.out_neighbors(v) if u != v), default=0)
            stack.pop()
    max_depth = max(depth.values(), default=0)
    return StructuralSet(members, lam, depth, max_depth)


def find_structural_set(graph: WeightedDigraph, lam: complex,
                        tol: float = DEFAULT_TOL) -> StructuralSet:
    """Search for a structural set at ``lam``; valid but not minimum-cardinality.

    Vertices whose loop weight equals ``lam`` are forced in first; remaining
    non-loop cycles are broken greedily by the vertex covering the most
    cycles detected per sweep.
    """
    if graph.n_active == 0:
        raise ValueError("graph has no active vertices")
    chosen = {v for v in graph.vertices() if abs(graph.weight(v, v) - lam) <= tol}
    while True:
        cycles = list(_cycles(graph, chosen))
        if not cycles:
            break
        counts: dict[int, int] = {}
        for cyc in cycles:
            for v in set(cyc[:-1]):
                counts[v] = counts.get(v, 0) + 1
        best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        chosen.add(best)
    if not chosen:
        chosen.add(graph.vertices()[0])
    return compute_depths(graph, chosen, lam, tol)


def nilpotency_index(graph: WeightedDigraph, members: Iterable[int]) -> int | None:
    """Nilpotency index of the adjacency matrix restricted to the complement.

    Returns the number of vertices on the longest chain inside the complement
    (0 for an empty complement), or None when the complement contains any
    cycle or loop, in which case no power of the restriction vanishes.
    """
    member_set = set(members)
    comp = [v for v in graph.vertices() if v not in member_set]
    if not comp:
        return 0
    comp_set = set(comp)
    for v in comp:
        if graph.has_edge(v, v):
            return None
    if next(_cycles(graph, set(graph.vertices()) - comp_set), None) is not None:
        return None
    chain: dict[int, int] = {}
    for start in comp:
        stack = [start]
        while stack:
            v = stack[-1]
            if v in chain:
                stack.pop()
                continue
            pending = [u for u in graph.out_neighbors(v)
                       if u in comp_set and u not in chain]
            if pending:
                stack.extend(pending)
                continue
            chain[v] = 1 + max((chain[u] for u in graph.out_neighbors(v)
                                if u in comp_set), default=0)
            stack.pop()
    return max(chain.values())
