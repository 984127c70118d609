"""Incremental maintenance of the reduction under graph deltas.

A stored state bundles a stochastic graph with its structural set, the
member columns ``E[:, S]`` of the extended reduced matrix, and dominant
eigenvectors.  A delta (a short list of vertex/edge insertions and
removals) is applied one operation at a time to a writable copy of the
graph's adjacency array: the entry is set and the touched columns
renormalized, and each change of support is patched into the base
graph's loop-free edge lists, a slot's list copied on its first patch.
The edited array, without a further copy, goes through the validator
``WeightedDigraph.from_matrix`` runs and becomes the new graph's float64
adjacency, with its edge arrays, without building a weight map; the
patched lists become its ``edge_lists`` and serve the promotion rule, the
primitivity test and the depths.
The structural set loses the removed vertices and grows by the promotion
rule: each new edge the edited graph still holds, last op first, promotes
its source when a depth-first walk, ``_reaches``, indexing the new graph's
forward lists, finds that it closes a cycle outside the set.  The depths
then come from one counting pass over the complement's edges.
The columns ``E[:, S]`` are then recomputed in closed form by one
depth-order sweep with member terminals, whose complement rows are
``E[C, S]`` as they stand, and one product for the s member rows; the
dominant eigenvector is solved exactly on the reduced block ``E[S, S]``.
The columns already hold
the lift: the complement takes ``u_C = E[C, S] u_S``, one product and no
second sweep.  The full n x n ``E`` is computed only when a caller reads
``StoredState.extended``.  An itemized cost report compares the work
against full re-iteration of the big matrix.  Its counted figures come
from one counter, called on the first read of any of them and then
dropped: the base state's branch statistic ``m``, counted exactly on its
graph's edge lists and its set's stored layering, and the rows and
entries of ``E[:, S]`` that moved beyond roundoff against the base
state's columns.
No branch is listed on the way.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .exceptions import (DeltaError, NonStochasticError, NotPrimitiveError,
                         StructuralSetError)
from .graph import (DEFAULT_TOL, StructuralSet, WeightedDigraph, _row_major_edges,
                    compute_depths, find_structural_set)
from .reduction import (BranchSet, ExtendedReducedMatrix, branch_counts,
                        enumerate_branches, extended_columns,
                        extended_reduced_matrix)
from .spectral import is_primitive, stationary_vector

#: The paper's ``a << b`` in its measurement conditions, read as
#: ``a <= MEAS_RATIO * b``.  The paper gives no number; one order of
#: magnitude is the one reading every report and experiment uses.
MEAS_RATIO = 0.1


@dataclass(frozen=True)
class DeltaOp:
    """One graph modification: add/remove a vertex or an edge.

    Edge weights are given raw; the affected column is renormalized to unit
    sum after the edit, so the raw value only sets the new edge's share.
    """

    kind: str
    i: int = 0
    j: int = 0
    w: float = 0.0
    v: int = 0

    #: Each kind's fields, in the order its editor method takes them; the
    #: delta file format is built from this table.
    FIELDS = {"add_edge": ("i", "j", "w"), "remove_edge": ("i", "j"),
              "add_vertex": (), "remove_vertex": ("v",)}
    KINDS = tuple(FIELDS)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown delta op kind {self.kind!r}")

    @property
    def args(self) -> tuple:
        """The values of this kind's fields, in ``FIELDS`` order."""
        return tuple(getattr(self, name) for name in self.FIELDS[self.kind])

    @classmethod
    def add_edge(cls, i: int, j: int, w: float) -> "DeltaOp":
        return cls("add_edge", i=i, j=j, w=w)

    @classmethod
    def remove_edge(cls, i: int, j: int) -> "DeltaOp":
        return cls("remove_edge", i=i, j=j)

    @classmethod
    def add_vertex(cls) -> "DeltaOp":
        return cls("add_vertex")

    @classmethod
    def remove_vertex(cls, v: int) -> "DeltaOp":
        return cls("remove_vertex", v=v)


@dataclass(frozen=True)
class GraphDelta:
    """An ordered list of modifications applied atomically."""

    ops: tuple[DeltaOp, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))

    @property
    def size(self) -> int:
        return len(self.ops)


@dataclass(frozen=True, eq=False)
class StoredState:
    """Mutually consistent snapshot at parameter 1: graph, reduction data,
    eigenvectors.

    ``columns`` holds the member columns ``E[:, S]`` of the extended matrix,
    n x s in member order: all that the reduced solve and the lift read.
    They are fixed by the graph and the structural members, so a saved
    state leaves them out (see ``io``); the full ``E`` is :attr:`extended`.
    """

    graph: WeightedDigraph
    structural: StructuralSet
    columns: np.ndarray
    reduced_vector: np.ndarray
    full_vector: np.ndarray
    eig_converged: bool = True

    @classmethod
    def from_graph(cls, graph: WeightedDigraph, *, structural=None,
                   ell: int | None = None, tol: float = 1e-13,
                   assume_primitive: bool = False) -> "StoredState":
        """Compute every stored field from scratch for a stochastic graph over
        the ``structural`` members (searched when None); ``tol`` bounds the
        committed residual, and ``ell`` is unused."""
        if not graph.stochastic:
            raise NonStochasticError("stored state requires a stochastic graph")
        if not assume_primitive and not is_primitive(graph):
            raise NotPrimitiveError("adjacency matrix is not primitive")
        if structural is None:
            ss = find_structural_set(graph, 1.0)
        else:
            ss = compute_depths(graph, structural, 1.0)
        return cls._solved(graph, ss, extended_columns(graph, ss), tol)

    @classmethod
    def _solved(cls, graph, structural, columns, tol: float) -> "StoredState":
        """The state whose reduced vector is the exact stationary vector of
        ``E[S, S]``, lifted by ``E[C, S]``."""
        idx = [v - 1 for v in structural.members]
        pair = stationary_vector(columns[idx], tol)
        return cls(graph, structural, columns, pair.vector,
                   _lift_full(structural.members, columns, pair.vector), pair.converged)

    @cached_property
    def extended(self) -> ExtendedReducedMatrix:
        """The full n x n extended matrix, swept on first read; the build
        and update paths read only :attr:`columns`."""
        return extended_reduced_matrix(self.graph, self.structural)

    @cached_property
    def branches(self) -> BranchSet:
        """Every branch of the stored pair, listed on first use; nothing on
        the build or update path reads it."""
        return enumerate_branches(self.graph, self.structural)

    def consistency_report(self) -> dict[str, float]:
        """Deviation of every stored field from a from-scratch build over the
        stored members.

        The structural set reports 0.0 when the members are still structural
        and inf otherwise; matrices and vectors report the max absolute entry
        difference, or inf when the shapes differ.  ``extended`` compares the
        stored columns ``E[:, S]`` with the fresh build's, so it checks what
        the update computed rather than two on-demand sweeps.
        """
        try:
            fresh = StoredState.from_graph(self.graph, structural=self.structural.members,
                                           assume_primitive=True)
        except StructuralSetError:
            return {"structural": float("inf")}

        def gap(new: np.ndarray, old: np.ndarray) -> float:
            return float(np.abs(new - old).max()) if new.shape == old.shape else float("inf")

        return {"structural": 0.0,
                "extended": gap(fresh.columns, self.columns),
                "reduced_vector": gap(fresh.reduced_vector, self.reduced_vector),
                "full_vector": gap(fresh.full_vector, self.full_vector)}


def _lift_full(members: tuple[int, ...], columns: np.ndarray,
               u_s: np.ndarray) -> np.ndarray:
    """Lift a reduced dominant vector and embed it L1-normalized over all slots.

    The member columns ``E[:, S]`` fix the whole vector from its values on
    the set: on a stochastic (loop-free) graph at parameter 1, row ``v`` of
    ``E[C, S]`` is the lift recursion's solution for complement vertex
    ``v``, so the complement takes ``E[C, S] u_S`` and the members keep
    ``u_S``.  Tombstone slots read 0.
    """
    idx = [v - 1 for v in members]
    full = columns @ u_s
    full[idx] = u_s
    total = full.sum()
    if total <= 0:
        raise ValueError("lifted vector has non-positive mass")
    return full / total


@dataclass(frozen=True)
class CostReport:
    """Itemized model costs of one update session against full re-iteration.

    Step costs follow the update algorithm's own estimates: branch and
    matrix patching are each charged the per-object bound ``p (k + 1) m``,
    the reduced eigenvector solve ``ell * s'^3`` for the paper's ``ell``
    iterations (the solve itself is exact), and the lift the depth-layer
    recursion.  The measured counterparts count what the update changed
    in the stored columns ``E[:, S]``: ``touched_branches`` the rows (start
    vertices whose branch sums into the set moved) and ``weight_updates``
    the entries, against the base state's column for the same member,
    padded with zeros for new vertices (all zeros for a promoted member).
    An entry counts as changed when it moved by more than ``DEFAULT_TOL``
    of the larger magnitude, so roundoff alone changes nothing.
    ``count`` returns ``(m, touched_branches, weight_updates)``; it is
    called once, on the first read of any of them or of a figure built on
    ``m``, and then dropped, so a report nobody reads counts nothing and a
    kept report does not pin the base state.  ``ell`` below 1 is a
    ``ValueError``: the baseline ``ell * n^3`` would be zero or negative.
    """

    n: int
    s: int
    s_new: int
    k: int
    k_new: int
    ell: int
    p: int
    step6_cost: float
    count: Callable[[], tuple[int, int, int]] | None = field(repr=False, compare=False)
    structural_fallback: bool = False

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("modelled iteration count ell must be positive")

    @cached_property
    def _counts(self) -> tuple[int, int, int]:
        """``(m, touched_branches, weight_updates)``, counted on first read."""
        counts = self.count()
        # the counter holds the base state and the new columns; a kept
        # report should not
        object.__setattr__(self, "count", None)
        return counts

    @property
    def m(self) -> int:
        """The base state's branch statistic."""
        return self._counts[0]

    @property
    def touched_branches(self) -> int:
        return self._counts[1]

    @property
    def weight_updates(self) -> int:
        return self._counts[2]

    @property
    def step3_cost(self) -> float:
        return float(self.p * (self.k + 1) * self.m)

    @property
    def step4_cost(self) -> float:
        return self.step3_cost

    @property
    def step5_cost(self) -> float:
        return float(self.ell) * self.s_new ** 3

    @property
    def baseline(self) -> float:
        return float(self.ell) * self.n ** 3

    @property
    def update_cost(self) -> float:
        return self.step3_cost + self.step4_cost + self.step5_cost + self.step6_cost

    @property
    def savings(self) -> float:
        return 1.0 - self.update_cost / self.baseline

    @property
    def depth_within_model(self) -> bool:
        return self.k_new <= self.k + self.p

    def meas_conditions(self) -> dict[str, bool]:
        r = MEAS_RATIO
        return {
            "p_much_less_s": self.p <= r * self.s,
            "s_much_less_n": self.s <= r * self.n,
            "k_plus_p_much_less_n": self.k + self.p <= r * self.n,
            "patch_much_less_n3": self.p * (self.k + 1) * self.m <= r * self.n ** 3,
        }

    @property
    def meets_meas(self) -> bool:
        return all(self.meas_conditions().values())

    def validate(self) -> None:
        """Check the internal cost-model invariants; raises ValueError.

        The patch steps and the reduced solve equal their charge by
        construction, so the lift is what is checked.
        """
        slack = 1e-9
        problems = []
        lift_bound = self.k_new * self.n ** 2 / 2
        if self.step6_cost > lift_bound + slack:
            problems.append(f"step6 {self.step6_cost} exceeds k'*N^2/2 = {lift_bound}")
        if self.depth_within_model:
            model_bound = (self.k + self.p) * self.n ** 2 / 2
            if self.step6_cost > model_bound + slack:
                problems.append(f"step6 {self.step6_cost} exceeds (k+p)*N^2/2 = {model_bound}")
        if problems:
            raise ValueError("; ".join(problems))

    def to_dict(self) -> dict:
        return {
            "measurements": {"n": self.n, "s": self.s, "s_new": self.s_new,
                             "k": self.k, "k_new": self.k_new, "m": self.m,
                             "ell": self.ell, "p": self.p},
            "costs": {"step3": self.step3_cost, "step4": self.step4_cost,
                      "step5": self.step5_cost, "step6": self.step6_cost,
                      "baseline": self.baseline, "total": self.update_cost},
            "measured": {"touched_branches": self.touched_branches,
                         "weight_updates": self.weight_updates},
            "savings": self.savings,
            "structural_fallback": self.structural_fallback,
            "depth_within_model": self.depth_within_model,
            "meas_conditions": self.meas_conditions(),
            "meets_meas": self.meets_meas,
        }

    @classmethod
    def from_measurements(cls, n: int, s: int, k: int, m: int, ell: int, p: int) -> "CostReport":
        """Build a model-only report from headline measurements.

        Used to sanity-check reported figures: patch steps are charged their
        full bound, the lift its simplex-lemma worst case at depth k+p.
        """
        k_new = k + p
        patch = float(p * (k + 1) * m)
        step6 = k_new * (k_new * n * n / (2.0 * (k_new + 1))) if k_new else 0.0
        return cls(n=n, s=s, s_new=s, k=k, k_new=k_new, ell=ell, p=p,
                   step6_cost=step6, count=lambda: (m, int(patch), int(patch)))


def simplex_bound(x) -> tuple[float, float]:
    """Evaluate the lift-cost functional on a monotone sequence and its bound.

    For 0 <= x_0 <= ... <= x_m = N, returns (F, m*N^2/(2(m+1))) where
    F = sum x_{i-1} (x_i - x_{i-1}).  F never exceeds the bound, which never
    exceeds N^2/2; equality in the first holds exactly at the arithmetic
    progression.
    """
    xs = [float(v) for v in x]
    if len(xs) < 2:
        raise ValueError("need at least two coordinates")
    if xs[0] < 0:
        raise ValueError("coordinates must be non-negative")
    for a, b in zip(xs, xs[1:]):
        if b < a:
            raise ValueError("sequence must be non-decreasing")
    big_n = xs[-1]
    m = len(xs) - 1
    f = sum(xs[t - 1] * (xs[t] - xs[t - 1]) for t in range(1, len(xs)))
    bound = m * big_n * big_n / (2.0 * (m + 1))
    if f > bound + 1e-9 * max(1.0, big_n * big_n) or bound > big_n * big_n / 2 + 1e-12:
        raise RuntimeError("simplex bound violated; non-monotone input slipped through")
    return f, bound


class _Editor:
    """Step 1 on a writable float copy of the graph's adjacency; a graph
    with a non-real weight is refused, naming its first such edge.

    An edit sets entries of the array and renormalizes each touched column
    to unit sum; the tombstones are kept beside it.  Every edit check lives
    here, and an id is checked active before it indexes the array, so that
    0 or -1 cannot wrap around to its last rows.  Each change of support is
    patched into copies of the base graph's two outer ``edge_lists``; a
    slot's own list is copied on its first patch, since the base graph and
    every graph that inherited it share the list.
    """

    def __init__(self, graph: WeightedDigraph):
        i, j, w = graph.edge_arrays
        if w.dtype.kind == "c":
            t = np.flatnonzero(w.imag)[0]
            raise DeltaError(f"edge ({i[t]},{j[t]}) has non-real weight {w[t]}; "
                             "an update edits real weights only")
        self.a = graph.adjacency.copy()
        self.removed = set(graph.removed)
        self.lists = tuple(map(list, graph.edge_lists))
        self._own: tuple[set[int], set[int]] = (set(), set())

    def _slot(self, side: int, v: int) -> list[int]:
        """Slot ``v``'s list on one side (0 forward, 1 backward), this
        editor's own copy."""
        if v not in self._own[side]:
            self._own[side].add(v)
            self.lists[side][v] = list(self.lists[side][v])
        return self.lists[side][v]

    @property
    def n_vertices(self) -> int:
        return self.a.shape[0]

    #: Whether ``v`` is an integer id of a live vertex, by the graph's own
    #: test on the edited vertex count and tombstones.
    active = WeightedDigraph.is_active

    def _renorm(self, j: int) -> None:
        col = self.a[:, j - 1]
        total = col.sum()
        if total > 0:
            col /= total

    def apply(self, op: DeltaOp) -> None:
        """Apply one delta operation; every edit check lives here."""
        getattr(self, op.kind)(*op.args)

    def add_edge(self, i: int, j: int, w: float) -> None:
        if not self.active(i) or not self.active(j):
            raise DeltaError(f"add_edge({i},{j}) references an inactive vertex")
        if i == j:
            raise DeltaError(f"loop ({i},{i}) is not allowed")
        if self.a[i - 1, j - 1]:
            raise DeltaError(f"edge ({i},{j}) already exists")
        if not (np.isfinite(w) and w > 0):
            raise DeltaError(f"edge weight must be positive, got {w}")
        self.a[i - 1, j - 1] = w
        self._renorm(j)
        insort(self._slot(0, i - 1), j - 1)
        insort(self._slot(1, j - 1), i - 1)

    def remove_edge(self, i: int, j: int) -> None:
        if not (self.active(i) and self.active(j) and self.a[i - 1, j - 1]):
            raise DeltaError(f"edge ({i},{j}) does not exist")
        self.a[i - 1, j - 1] = 0.0
        self._renorm(j)
        self._slot(0, i - 1).remove(j - 1)
        self._slot(1, j - 1).remove(i - 1)

    def add_vertex(self) -> None:
        n = self.n_vertices
        grown = np.zeros((n + 1, n + 1))
        grown[:n, :n] = self.a
        self.a = grown
        for lists, own in zip(self.lists, self._own):
            lists.append([])
            own.add(n)

    def remove_vertex(self, v: int) -> None:
        if not self.active(v):
            raise DeltaError(f"remove_vertex({v}) references an inactive vertex")
        targets = np.flatnonzero(self.a[v - 1]) + 1
        self.a[v - 1, :] = 0.0
        self.a[:, v - 1] = 0.0
        self.removed.add(v)
        for y in targets.tolist():
            self._renorm(y)
        for side, lists in enumerate(self.lists):
            for u in lists[v - 1]:
                self._slot(1 - side, u).remove(v - 1)
            lists[v - 1] = []
            self._own[side].add(v - 1)

    def graph(self) -> WeightedDigraph:
        """The edited graph, validated stochastic: the editor's own array
        and patched lists, kept without a copy.

        Raises:
            DeltaError: the edits leave the graph non-stochastic.
        """
        edges = _row_major_edges(self.a)
        # a renormalization that underflows drops an edge from the array
        # alone; the lists then hold more edges and are derived afresh
        lists = self.lists if sum(map(len, self.lists[0])) == len(edges[0]) else None
        graph = WeightedDigraph.__new__(WeightedDigraph)
        try:
            graph._keep(self.a, edges, True, self.removed, lists)
        except NonStochasticError as exc:
            raise DeltaError(f"delta leaves the graph non-stochastic: {exc}") from exc
        return graph


def apply_ops(graph: WeightedDigraph, delta: GraphDelta) -> WeightedDigraph:
    """Apply a delta to the matrix alone (step 1), atomically.

    Columns touched by an edit are renormalized to unit sum.  The result is
    validated stochastic; any failure rejects the whole delta, and a graph
    with a non-real weight is refused before any edit.
    """
    ed = _Editor(graph)
    for op in delta.ops:
        ed.apply(op)
    return ed.graph()


def _reaches(graph: WeightedDigraph, start: int, goal: int, avoid: set[int]) -> bool:
    """Whether a path leads from ``start`` to ``goal`` without entering
    ``avoid``: a depth-first walk, stopped at the goal, over the graph's
    cached loop-free forward ``edge_lists``.  Tombstones have no edges."""
    succ = graph.edge_lists[0]
    cut = {v - 1 for v in avoid}
    start, goal = start - 1, goal - 1
    seen, todo = {start}, [start]
    while todo and goal not in seen:
        v = todo.pop()
        for u in succ[v]:
            if u not in seen and u not in cut:
                seen.add(u)
                todo.append(u)
    return goal in seen


class UpdateSession:
    """Single-writer update of a stored state; readers keep the old snapshot.

    :meth:`apply` runs steps 1-2 on the graph and the structural set and
    then recomputes the member columns ``E[:, S]`` (steps 3-4) in closed
    form; :meth:`refresh` runs steps 5-6; :meth:`commit` returns the new
    state and the cost report.  Any error leaves the base state untouched.
    """

    def __init__(self, state: StoredState):
        self._base = state
        self._p = 0
        self._fallback = False
        self._graph2: WeightedDigraph | None = None
        self._structural2: StructuralSet | None = None
        self._cols: np.ndarray | None = None
        self._state: StoredState | None = None

    # -- steps 1-4 ------------------------------------------------------

    def apply(self, delta: GraphDelta) -> None:
        """Edit the graph, keep the structural set structural, then recompute.

        A removed vertex leaves the set.  The new edges are then checked on
        the edited graph, last op first: an edge (i, j) that the edited
        graph still holds, with both ends outside the set, promotes ``i``
        when j reaches i outside the set, since the edge closes a cycle
        there; an edge a later op removed promotes nothing.  A cycle outside
        the final set would use a new edge, whose check would have fired, so
        the set stays structural; last op first, an added vertex's out-edge
        is checked before its in-edge, and the new vertex is promoted, not
        its source.
        """
        if self._graph2 is not None:
            raise RuntimeError("session already applied a delta")
        self._p = delta.size
        g2 = apply_ops(self._base.graph, delta)
        members = set(self._base.structural.members) - g2.removed
        for op in reversed(delta.ops):
            if (op.kind == "add_edge" and op.i not in members and op.j not in members
                    and g2.adjacency[op.i - 1, op.j - 1]
                    and _reaches(g2, op.j, op.i, members)):
                members.add(op.i)
        if not members:
            raise DeltaError("delta emptied the structural set")
        if not is_primitive(g2):
            raise DeltaError("delta breaks primitivity of the adjacency matrix")
        try:
            ss = compute_depths(g2, members, 1.0)
        except StructuralSetError:
            self._fallback = True
            ss = find_structural_set(g2, 1.0)
        self._graph2 = g2
        self._structural2 = ss
        self._cols = extended_columns(g2, ss)

    # -- steps 5-6 ------------------------------------------------------

    def refresh(self, tol: float = 1e-13) -> None:
        """Solve the reduced block exactly and lift the result (steps 5-6)."""
        if self._graph2 is None:
            raise RuntimeError("apply a delta before refreshing eigenvectors")
        self._state = StoredState._solved(self._graph2, self._structural2, self._cols, tol)

    # -- commit ----------------------------------------------------------

    def commit(self, *, ell: int = 200) -> tuple[StoredState, CostReport]:
        """The new state and its cost report; ``ell`` is the iteration count
        the report's step-5 charge and baseline assume."""
        if self._state is None:
            raise RuntimeError("apply and refresh before committing")
        return self._state, self._report(ell)

    def _report(self, ell: int) -> CostReport:
        base = self._base
        counts = self._structural2.depth_counts()
        step6 = float(sum(j * counts[j - 1] * (counts[j] - counts[j - 1])
                          for j in range(1, len(counts))))
        new, now = self._cols, self._structural2.members

        def count() -> tuple[int, int, int]:
            # the base column of each kept member, zeros for a promoted one;
            # every index is in range, and "clip" lets take write unbuffered
            column = {v: c for c, v in enumerate(base.structural.members)}
            old = np.zeros_like(new)
            base.columns.take([column.get(v, 0) for v in now], axis=1,
                              out=old[:base.columns.shape[0]], mode="clip")
            old[:, [v not in column for v in now]] = 0.0
            # an entry that did not move is unchanged by the rule, so the
            # rule is applied to the moved entries alone
            new_flat, old_flat = new.ravel(), old.ravel()
            moved = np.flatnonzero(new_flat != old_flat)
            a, b = new_flat[moved], old_flat[moved]
            changed = moved[np.abs(a - b) > DEFAULT_TOL * np.maximum(np.abs(a), np.abs(b))]
            return (branch_counts(base.graph, base.structural)[1],
                    len(np.unique(changed // new.shape[1])), len(changed))

        return CostReport(
            n=self._graph2.n_active, s=len(base.structural.members),
            s_new=len(now),
            k=base.structural.max_depth, k_new=self._structural2.max_depth,
            ell=ell, p=self._p, step6_cost=step6,
            count=count, structural_fallback=self._fallback)


def run_update(state: StoredState, delta: GraphDelta, *, ell: int = 200,
               tol: float = 1e-13) -> tuple[StoredState, CostReport]:
    """Apply a delta end to end and return the new state with its cost report;
    ``ell`` feeds only the cost model, ``tol`` bounds the committed residual."""
    session = UpdateSession(state)
    session.apply(delta)
    session.refresh(tol)
    return session.commit(ell=ell)
