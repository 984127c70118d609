"""Dominant eigenpairs of reduced matrices and eigenvector reconstruction.

Every stationary vector the package commits or checks comes from one exact
solve, :func:`stationary_vector`; power iteration remains as a reference,
and dense eigensolvers and the damped eigenvalue co-iteration on reduced
matrices are left to test oracles.
After a reduction at the same parameter, the lift,
:func:`lift_eigenvector`, is one product ``X(lam) u_S`` with the member
sweep that :func:`~isoreduce.reduction.reduced_matrix` left on the graph,
and it takes that sweep off the graph; with none remembered it sweeps one
column.  :func:`verify_restriction` reads the sweep through the reduction.
The primitivity test and strong connectivity share one breadth-first
search, :func:`_bfs_levels`, which indexes one of a graph's cached
loop-free ``edge_lists`` and counts the slots it reaches: the active part
is strongly connected when the searches along and against the edges each
reach ``n_active`` slots.  The forward levels then give the period's gcd:
a loop settles it at once, and otherwise it runs over the forward lists
and stops as soon as it reaches 1.
A tombstone's lists are empty; a plain matrix is first made into the
graph of its support.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .exceptions import DegenerateRestrictionError, NotPrimitiveError
from .graph import DEFAULT_TOL, StructuralSet, WeightedDigraph
from .reduction import _depth_sweep, _take_member_sweep, reduced_matrix


@dataclass(frozen=True, eq=False)
class EigenPair:
    """An eigenvalue with its eigenvector over a stated vertex set.

    ``normalization`` is one of ``L1-positive`` (entries sum to 1, dominant
    vectors), ``L2-unit`` (unit Euclidean norm), or ``none`` (scale inherited
    from the input, used by the lift so that restriction is the identity).
    """

    lambda0: complex
    vector: np.ndarray
    vertices: tuple[int, ...]
    normalization: str = "L1-positive"
    residual: float = 0.0
    iterations: int = 0
    converged: bool = True


def _bfs_levels(lists: list[list[int]], start: int) -> tuple[list[int], int]:
    """Breadth-first levels from slot ``start`` over one of a graph's
    ``edge_lists``, -1 marking a slot that ``start`` does not reach, and the
    number of slots it reaches."""
    level = [-1] * len(lists)
    level[start] = 0
    frontier = [start]
    count = d = 0
    while frontier:
        count += len(frontier)
        d += 1
        reached = []
        for v in frontier:
            for u in lists[v]:
                if level[u] < 0:
                    level[u] = d
                    reached.append(u)
        frontier = reached
    return level, count


def _support_graph(matrix) -> WeightedDigraph:
    """``matrix`` itself when it is a graph, else the graph of its support."""
    if isinstance(matrix, WeightedDigraph):
        return matrix
    return WeightedDigraph.from_matrix(np.asarray(matrix) != 0)


def _strong_levels(graph: WeightedDigraph) -> list[int] | None:
    """The breadth-first levels over slots from the graph's first active
    slot when its active part is strongly connected, that slot reaching
    every active slot along the edges and against them; else None.  A
    tombstone has no edges, so a search reaches every active slot when it
    reaches ``n_active`` slots."""
    if not graph.n_active:
        return None
    start = graph.vertices()[0] - 1
    level, count = _bfs_levels(graph.edge_lists[0], start)
    if count < graph.n_active or _bfs_levels(graph.edge_lists[1], start)[1] < graph.n_active:
        return None
    return level


def strongly_connected(matrix) -> bool:
    """Whether the support digraph of a square matrix, or a graph's active
    part, is strongly connected."""
    return _strong_levels(_support_graph(matrix)) is not None


def is_primitive(matrix) -> bool:
    """Whether a non-negative matrix, or a graph's active block, is primitive
    (some power entrywise positive).

    Decided on the support digraph: strong connectivity plus an aperiodicity
    test.  The period is the gcd of the cycle lengths, and so the gcd over
    all edges (v, u) of ``level[v] + 1 - level[u]`` for the BFS levels from
    the first active vertex.  A loop is a cycle of length 1, so a graph
    with one is aperiodic at once; otherwise the gcd runs over the forward
    lists and stops as soon as it reaches 1.  A graph is read through its
    cached ``edge_lists``; tombstones are left out, as if the active block
    had been compacted.
    """
    g = _support_graph(matrix)
    if g.n_active < 2:
        return g.n_active == 1 and len(g.edge_arrays[0]) > 0
    level = _strong_levels(g)
    if level is None:
        return False
    if g.adjacency.diagonal().any():
        return True
    period = 0
    for v, succ in enumerate(g.edge_lists[0]):
        step = level[v] + 1
        for u in succ:
            period = gcd(period, step - level[u])
            if period == 1:
                return True
    return False


def stationary_vector(matrix, tol: float = 1e-13) -> EigenPair:
    """Stationary vector of an irreducible column-stochastic matrix by one
    bordered LU solve: ``(M - I) u = 0`` with the last row set to ones and
    right-hand side ``e_n``.  ``residual`` is ``||M u - u||_1``, and
    ``converged`` means it is at most ``tol``.

    Raises:
        NotPrimitiveError: the bordered matrix is singular (``M`` reducible).
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    a = m - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        u = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NotPrimitiveError("matrix has no unique stationary vector") from exc
    residual = float(np.abs(m @ u - u).sum())
    return EigenPair(1.0, u, tuple(range(1, n + 1)), "L1-positive",
                     residual, 0, residual <= tol)


def power_iteration(matrix, max_iters: int = 1000, tol: float = 1e-13, *,
                    assume_primitive: bool = False, lazy: bool = False) -> EigenPair:
    """Dominant eigenpair of a non-negative square matrix by power iteration.

    The iterate is L1-normalized each step; convergence is declared when the
    L1 change drops below ``tol`` or the iteration cap is hit, whichever
    comes first (a capped run returns the best iterate with ``converged``
    False).  With ``lazy`` the iteration runs on (A + I)/2, which shares
    eigenvectors with A and converges even for periodic irreducible chains;
    the reported eigenvalue is mapped back.

    Raises:
        NotPrimitiveError: the primitivity check fails (pass
            ``assume_primitive`` to attest it instead).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.size and a.min() < 0:
        raise ValueError("matrix must be non-negative")
    n = a.shape[0]
    if not assume_primitive and not is_primitive(a):
        raise NotPrimitiveError("matrix is not primitive")
    work = 0.5 * (a + np.eye(n)) if lazy else a
    v = np.full(n, 1.0 / n)
    lam = 0.0
    converged = False
    its = 0
    for its in range(1, max_iters + 1):
        w = work @ v
        s = w.sum()
        if s <= 0:
            raise ValueError("iterate collapsed to zero; matrix has a zero dominant value")
        lam = s
        w /= s
        if np.abs(w - v).sum() < tol:
            v = w
            converged = True
            break
        v = w
    lam_a = 2.0 * lam - 1.0 if lazy else lam
    residual = float(np.abs(a @ v - lam_a * v).sum())
    return EigenPair(lam_a, v, tuple(range(1, n + 1)), "L1-positive",
                     residual, its, converged)


def verify_restriction(graph: WeightedDigraph, structural: StructuralSet,
                    eigpair: EigenPair, *, tol: float = DEFAULT_TOL) -> float:
    """Relative residual of the reduced matrix acting on a restricted eigenvector.

    For an eigenpair of the full adjacency matrix whose eigenvalue admits the
    structural set, the restriction to the set is an eigenvector of the
    reduced matrix at the same eigenvalue; this returns
    ``norm(R u_S - lambda0 u_S) / norm(u_S)``.

    Raises:
        DegenerateRestrictionError: the restriction is numerically zero.
    """
    values = {v: eigpair.vector[t] for t, v in enumerate(eigpair.vertices)}
    u_s = np.array([values[v] for v in structural.members], dtype=complex)
    norm_s = np.linalg.norm(u_s)
    norm_full = np.linalg.norm(eigpair.vector)
    if norm_s == 0 or norm_s < 1e-13 * norm_full:
        raise DegenerateRestrictionError(
            "eigenvector restricts to zero on the structural set")
    r = reduced_matrix(graph, structural, eigpair.lambda0, tol=tol)
    return float(np.linalg.norm(r.entries @ u_s - eigpair.lambda0 * u_s) / norm_s)


def lift_eigenvector(graph: WeightedDigraph, structural: StructuralSet,
                     lambda0: complex, u_s, *, tol: float = DEFAULT_TOL) -> EigenPair:
    """Reconstruct a full eigenvector from its values on the structural set.

    A complement vertex takes the weighted sum of its shallower
    out-neighbours divided by (lambda0 - its loop weight).  After
    :func:`~isoreduce.reduction.reduced_matrix` at the same parameter,
    set and ``tol``, that is one product ``X(lambda0) u_S`` with the
    member sweep the reduction left on the graph, which the lift takes
    off it; otherwise it is one sweep of a single column, and nothing is
    remembered.  The member rows of ``X`` are identity rows, so the input
    values are kept verbatim on the structural members and the restriction
    of the result is the input.  ``residual`` is the relative residual
    ``norm(A x - lambda0 x) / norm(x)`` of the lifted vector ``x``, and
    ``converged`` means it is at most ``tol``: a ``lambda0`` that is no
    eigenvalue, or a ``u_s`` that is no reduced eigenvector, lifts to a
    vector that reads False.

    Raises:
        ValueError: ``lambda0`` or an entry of ``u_s`` is not finite, or
            ``u_s`` does not match the structural set in length.
        SingularWeightError: a complement loop weight coincides with lambda0
            (impossible while the structural set is valid).
    """
    members = structural.members
    u_s = np.asarray(u_s, dtype=complex)
    if u_s.shape != (len(members),):
        raise ValueError("restricted vector length does not match the structural set")
    if not np.isfinite(u_s).all():
        raise ValueError("restricted vector has a non-finite entry")
    a = graph.adjacency
    x = _take_member_sweep(graph, structural, lambda0, tol)
    if x is not None:
        full = x @ u_s
    else:
        terminal = np.zeros((graph.n_vertices, 1), dtype=complex)
        terminal[[v - 1 for v in members], 0] = u_s
        full = _depth_sweep(graph, structural, lambda0, terminal, tol=tol)[:, 0]
    ids = graph.vertices()
    vec = full[[v - 1 for v in ids]]
    scale = np.linalg.norm(vec)
    residual = float(np.linalg.norm(a @ full - lambda0 * full) / scale) if scale > 0 else 0.0
    return EigenPair(lambda0, vec, ids, "none", residual, 0, residual <= tol)

