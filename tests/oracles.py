"""Independent oracles for the test suite.

These deliberately avoid the library's own algorithms: path enumeration
walks every simple path and filters afterwards, eigen-data comes from
numpy's dense solver, taboo probabilities from explicit trajectory sums.
The loop forms of algorithms the library now runs as array passes (cycle
listing, recursive depths, primitivity by matrix powers, the embedded lift,
entry-by-entry matrix reading) are kept here as references, and so are the
branch-by-branch forms of the reduction's weights and the promotion rule,
the dense solve for the stored columns ``E[:, S]``, the dense closed form
of the branch counts, the eager compare behind an update report's
change counts and a sorted derivation of a graph's edge lists.  The damped
eigenvalue co-iteration on reduced matrices, which no part of the package
runs, lives here too, with the ``IterationError`` it raises.
"""

from __future__ import annotations

import numpy as np

from isoreduce import (DEFAULT_TOL, Branch, BranchSet, IsoreduceError, SingularWeightError,
                       StoredState, StructuralSet, WeightedDigraph, reduced_matrix)


def all_branches_bruteforce(graph: WeightedDigraph, members) -> list[tuple[int, ...]]:
    """Every simple path (closure back to the start allowed), filtered to
    those whose interior avoids ``members``."""
    found: list[tuple[int, ...]] = []

    def extend(path: tuple[int, ...]) -> None:
        for y in graph.out_neighbors(path[-1]):
            if y in path[1:]:
                continue
            found.append(path + (y,))
            if y != path[0]:
                extend(path + (y,))

    for v in graph.vertices():
        extend((v,))
    member_set = set(members)
    return sorted(p for p in found if all(x not in member_set for x in p[1:-1]))


def dense_eigenpairs(matrix: np.ndarray):
    """All (eigenvalue, eigenvector) pairs from the dense solver."""
    vals, vecs = np.linalg.eig(np.asarray(matrix, dtype=complex))
    return [(vals[t], vecs[:, t]) for t in range(len(vals))]


def dominant_unit_vector(matrix: np.ndarray) -> np.ndarray:
    """Eigenvector for the eigenvalue closest to 1, L1-normalized positive."""
    vals, vecs = np.linalg.eig(np.asarray(matrix, dtype=float))
    k = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, k])
    s = v.sum()
    if s < 0:
        v = -v
        s = -s
    return v / s


def stationary_bruteforce(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix via the dense solver."""
    vals, vecs = np.linalg.eig(np.asarray(transition, dtype=float).T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, k])
    return v / v.sum()


def taboo_bruteforce(transition: np.ndarray, members, i: int, j: int, n: int) -> float:
    """Taboo probability by explicit summation over all state trajectories."""
    p = np.asarray(transition, dtype=float)
    n_states = p.shape[0]
    member_set = set(members)
    total = 0.0

    def rec(state: int, t: int, prob: float) -> None:
        nonlocal total
        if t == n:
            if state == j:
                total += prob
            return
        for y in range(1, n_states + 1):
            step = p[state - 1, y - 1]
            if step == 0.0:
                continue
            if t + 1 < n and y in member_set:
                continue
            rec(y, t + 1, prob * step)

    rec(i, 0, 1.0)
    return total


def random_complex_graph(rng: np.random.Generator, n: int, density: float = 0.35, *,
                         loops: bool = True) -> WeightedDigraph:
    """Random complex-weighted digraph; loop weights keep the spectrum simple."""
    mask = rng.random((n, n)) < density
    if loops:
        np.fill_diagonal(mask, True)
    else:
        np.fill_diagonal(mask, False)
    w = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * mask
    if not np.abs(w).sum():
        w[0, min(1, n - 1)] = 1.0 + 0.5j
    return WeightedDigraph.from_matrix(w)


def chain_graph(rng: np.random.Generator, n: int, *, tombstones: int = 0, chords: int = 2,
                ups: int = 1, stochastic: bool = False) -> WeightedDigraph:
    """A digraph on slots 1..n whose live vertices, in a random order
    ``c_0, c_1, ...``, form one long chain: each ``c_k`` points at
    ``c_(k-1)``, ``chords`` random edges jump further down, ``c_0`` points
    back at the top and at one random vertex, and ``ups`` random edges point
    up the chain.  A structural set holding ``c_0`` can leave a complement
    almost as deep as the chain is long.  ``tombstones`` slots strictly
    between the first and the last are removed, so that they sit between
    live ones.  Weights are complex with a loop on every live vertex, or,
    with ``stochastic``, positive without loops and normalized to unit
    column sums."""
    removed = set(rng.choice(np.arange(2, n), tombstones, replace=False).tolist())
    c = rng.permutation([v - 1 for v in range(1, n + 1) if v not in removed])
    mask = np.zeros((n, n), dtype=bool)
    mask[c[1:], c[:-1]] = True
    mask[c[0], c[-1]] = mask[c[0], c[rng.integers(1, len(c))]] = True
    for low, high in (sorted(rng.choice(len(c), 2, replace=False)) for _ in range(chords)):
        mask[c[high], c[low]] = True
    for low, high in (sorted(rng.choice(len(c), 2, replace=False)) for _ in range(ups)):
        mask[c[low], c[high]] = True
    if stochastic:
        np.fill_diagonal(mask, False)
        w = rng.uniform(0.1, 1.0, (n, n)) * mask
        w[:, c] /= w[:, c].sum(axis=0)
        return WeightedDigraph.from_matrix(w, stochastic=True, removed=removed)
    mask[c, c] = True
    w = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * mask
    return WeightedDigraph.from_matrix(w, removed=removed)


# -- loop algorithms the library replaced by array passes ---------------------

def cycles_listed(graph: WeightedDigraph, excluded) -> list[tuple[int, ...]]:
    """Every cycle a colouring DFS closes on a back edge in the subgraph
    avoiding ``excluded`` (loops skipped), each listed in closed tuple form."""
    color: dict[int, int] = {}
    found = []
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
                    found.append(tuple(path[k:]) + (u,))
            if not advanced:
                color[v] = 2
                path.pop()
                stack.pop()
    return found


def greedy_structural_members(graph: WeightedDigraph, lam: complex,
                              tol: float = 1e-12) -> tuple[int, ...]:
    """The structural-set greedy over listed cycles: loop vertices at ``lam``
    first, then per sweep the vertex on most listed cycles (smallest id on
    ties) until no cycle avoids the set."""
    chosen = {v for v in graph.vertices() if abs(graph.weight(v, v) - lam) <= tol}
    while True:
        cycles = cycles_listed(graph, chosen)
        if not cycles:
            break
        counts: dict[int, int] = {}
        for cyc in cycles:
            for v in set(cyc[:-1]):
                counts[v] = counts.get(v, 0) + 1
        chosen.add(max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0])
    if not chosen:
        chosen.add(graph.vertices()[0])
    return tuple(sorted(chosen))


def depths_recursive(graph: WeightedDigraph, members) -> dict[int, int]:
    """The depth definition read literally: 0 on the members, and one more
    than the deepest non-loop out-neighbour (0 when there is none) elsewhere.
    Only valid when the complement carries no non-loop cycle."""
    member_set = set(members)
    memo: dict[int, int] = {}

    def depth(v: int) -> int:
        if v in member_set:
            return 0
        if v not in memo:
            memo[v] = 1 + max((depth(u) for u in graph.out_neighbors(v) if u != v),
                              default=0)
        return memo[v]

    return {v: depth(v) for v in graph.vertices()}


def nilpotency_dfs(graph: WeightedDigraph, members) -> int | None:
    """Longest vertex chain inside the complement by memoised DFS, or None
    when the complement holds a loop or a listed cycle."""
    member_set = set(members)
    comp = [v for v in graph.vertices() if v not in member_set]
    if not comp:
        return 0
    if any(graph.has_edge(v, v) for v in comp) or cycles_listed(graph, member_set):
        return None
    comp_set = set(comp)
    chain: dict[int, int] = {}

    def longest(v: int) -> int:
        if v not in chain:
            chain[v] = 1 + max((longest(u) for u in graph.out_neighbors(v)
                                if u in comp_set), default=0)
        return chain[v]

    return max(longest(v) for v in comp)


def primitive_wielandt(matrix) -> bool:
    """Primitivity by Wielandt's bound: the support's power (n-1)^2 + 1 is
    entrywise positive, taken by boolean repeated squaring."""
    b = (np.asarray(matrix) != 0).astype(np.int64)
    n = b.shape[0]
    if n == 0:
        return False
    e = (n - 1) ** 2 + 1
    result = np.eye(n, dtype=np.int64)
    while e:
        if e & 1:
            result = np.minimum(result @ b, 1)
        b = np.minimum(b @ b, 1)
        e >>= 1
    return bool((result > 0).all())


def lift_full_embedded(graph: WeightedDigraph, structural, u_s) -> np.ndarray:
    """A reduced dominant vector lifted by ``lift_eigenvector`` and embedded
    L1-normalized over every vertex slot (zero at tombstones)."""
    from isoreduce import lift_eigenvector

    pair = lift_eigenvector(graph, structural, 1.0, u_s)
    full = np.zeros(graph.n_vertices)
    for t, v in enumerate(pair.vertices):
        full[v - 1] = pair.vector[t].real
    return full / full.sum()


def extended_columns_closed_form(graph: WeightedDigraph, members) -> np.ndarray:
    """``E[:, S]`` of a stochastic graph at parameter 1 by a dense solve:
    ``E[C, S] = (I - A_CC)^-1 A_CS`` and ``E[S, S] = A_SS + A_SC E[C, S]``,
    n x s in member order, zero at tombstones."""
    a = graph.adjacency.real
    s = [v - 1 for v in sorted(members)]
    c = [v - 1 for v in graph.vertices() if v not in set(members)]
    out = np.zeros((graph.n_vertices, len(s)))
    out[c] = np.linalg.solve(np.eye(len(c)) - a[np.ix_(c, c)], a[np.ix_(c, s)])
    out[s] = a[np.ix_(s, s)] + a[np.ix_(s, c)] @ out[c]
    return out


def branch_counts_closed_form(graph: WeightedDigraph, members) -> tuple[int, int]:
    """``branch_counts`` by a dense solve: with ``B`` the 0/1 support without
    loops and ``c`` flagging the complement, ``B (I - diag(c) B)^-1`` counts
    the loop-free branches per start and end, rounded to ints; the loops add
    one branch each at their vertex, and a complement vertex lies inside
    in * out loop-free branches."""
    b = (graph.adjacency != 0).astype(float)
    loops = b.diagonal().astype(int).tolist()
    np.fill_diagonal(b, 0)
    comp = [v - 1 for v in graph.vertices() if v not in set(members)]
    c = np.zeros(graph.n_vertices)
    c[comp] = 1
    paths = np.rint(b @ np.linalg.inv(np.eye(len(b)) - c[:, None] * b)).astype(np.int64)
    out, into = paths.sum(axis=1).tolist(), paths.sum(axis=0).tolist()
    through = max((out[v] * into[v] for v in comp), default=0)
    out = [o + loop for o, loop in zip(out, loops)]
    into = [i + loop for i, loop in zip(into, loops)]
    return sum(out), max([*out, *into, through])


def column_changes(base: StoredState, new: StoredState) -> tuple[int, int]:
    """The rows and entries of ``new.columns`` that differ by more than
    ``DEFAULT_TOL`` of the larger magnitude from the base state's column for
    the same member, padded with zeros for new vertices and all zeros for a
    member the base set lacked: the update report's ``(touched_branches,
    weight_updates)``, compared eagerly."""
    was, now = base.structural.members, new.structural.members
    kept = set(was) & set(now)
    old = np.zeros_like(new.columns)
    old[:base.columns.shape[0], [v in kept for v in now]] = \
        base.columns[:, [v in kept for v in was]]
    changed = np.abs(new.columns - old) > DEFAULT_TOL * np.maximum(np.abs(new.columns),
                                                                   np.abs(old))
    return int(changed.any(axis=1).sum()), int(changed.sum())


def weights_loop(m) -> dict[tuple[int, int], complex]:
    """Weight map of a square matrix, entry by entry in row-major order; a
    weight with zero imaginary part is stored as a float."""
    m = np.asarray(m)
    n = m.shape[0]
    weights = {}
    for i in range(n):
        for j in range(n):
            if m[i, j] != 0:
                w = complex(m[i, j])
                weights[(i + 1, j + 1)] = w.real if w.imag == 0 else w
    return weights


def from_matrix_loop(m, *, stochastic: bool = False) -> WeightedDigraph:
    """Graph of a square matrix, built from its entry-by-entry weight map."""
    return WeightedDigraph(np.asarray(m).shape[0], weights_loop(m), stochastic=stochastic)


def edge_lists_derived(graph: WeightedDigraph) -> list[list[list[int]]]:
    """A graph's loop-free forward and backward slot lists, derived afresh
    from its ``edge_arrays`` and sorted."""
    i, j, _ = graph.edge_arrays
    forward = [[] for _ in range(graph.n_vertices)]
    back = [[] for _ in range(graph.n_vertices)]
    for a, b in zip(i.tolist(), j.tolist()):
        if a != b:
            forward[a - 1].append(b - 1)
            back[b - 1].append(a - 1)
    return [[sorted(x) for x in forward], [sorted(x) for x in back]]


def apply_ops_dense(matrix: np.ndarray, delta) -> np.ndarray:
    """A delta's edits on a dense column-stochastic matrix, by numpy alone.

    ``add_vertex`` appends an empty row and column, ``remove_vertex`` zeroes
    the vertex's row and column (its id stays as a tombstone), and every
    column an op touches is renormalized to unit sum (an emptied column
    stays empty).  Validity is the caller's concern.
    """
    m = np.array(matrix, dtype=float)
    for op in delta.ops:
        if op.kind == "add_vertex":
            m = np.pad(m, ((0, 1), (0, 1)))
            continue
        if op.kind == "remove_vertex":
            cols = np.flatnonzero(m[op.v - 1, :])
            m[op.v - 1, :] = 0.0
            m[:, op.v - 1] = 0.0
        else:
            m[op.i - 1, op.j - 1] = op.w if op.kind == "add_edge" else 0.0
            cols = [op.j - 1]
        for c in cols:
            total = m[:, c].sum()
            if total > 0:
                m[:, c] /= total
    return m


# -- branch-by-branch references -----------------------------------------------

def branch_weight(graph: WeightedDigraph, branch: Branch, lam: complex,
                  tol: float = DEFAULT_TOL) -> complex:
    """Weight of a branch at the given spectral parameter.

    The first edge contributes its weight; each interior vertex contributes
    its outgoing edge weight divided by (lam - loop weight).  Endpoint loops
    never enter a denominator.

    Raises:
        SingularWeightError: an interior denominator is within ``tol`` of zero.
    """
    v = branch.vertices
    for a, b in zip(v, v[1:]):
        if not graph.has_edge(a, b):
            raise ValueError(f"branch step ({a},{b}) is not an edge")
    w = complex(graph.weight(v[0], v[1]))
    for pos in range(1, len(v) - 1):
        den = lam - graph.weight(v[pos], v[pos])
        if abs(den) <= tol:
            raise SingularWeightError(
                f"interior vertex {v[pos]} has loop weight within {tol} of {lam}")
        w *= complex(graph.weight(v[pos], v[pos + 1])) / den
    return w


def promotion_rule(members, branches, i: int, j: int) -> int | None:
    """Structural-set update for a new edge (i, j) (step 2), by branch lookup.

    Returns the vertex to promote (``i``) when both endpoints lie outside the
    set and some branch already runs from j back to i, so the new edge would
    close a cycle avoiding the set.  Returns None otherwise.  The update
    session asks the same question as a search from j that does not enter
    the set; this form is the reference it is tested against.
    """
    s = set(members)
    if i in s or j in s:
        return None
    if isinstance(branches, BranchSet):
        exists = bool(branches.between(j, i))
    else:
        exists = any(b[0] == j and b[-1] == i for b in branches)
    return i if exists else None


def promotion_candidates(state: StoredState) -> list[tuple[int, int]]:
    """Edges (i, j) whose insertion fires the structural promotion rule.

    Scans the state's branches (listed on first use) for
    complement-to-complement connections j -> i where the edge (i, j) is
    still absent.
    """
    members = set(state.structural.members)
    g = state.graph
    out = []
    seen = set()
    for b in state.branches.branches:
        j, i = b.start, b.end
        if i in members or j in members or i == j:
            continue
        if g.has_edge(i, j) or (i, j) in seen:
            continue
        seen.add((i, j))
        out.append((i, j))
    return sorted(out)


# -- eigenvalue co-iteration ---------------------------------------------------

class IterationError(IsoreduceError):
    """The co-iteration diverged or hit its cap without converging.

    The ``trace`` attribute holds the eigenvalue estimates seen so far.
    """

    def __init__(self, message, *, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


def reduced_eigen_co_iteration(graph: WeightedDigraph, structural: StructuralSet,
                               initial_lambda: complex, initial_us, max_iters: int = 200,
                               tol: float = 1e-12, *, relax: float = 0.5
                               ) -> tuple[complex, np.ndarray]:
    """Joint fixed-point iteration for an eigenvalue of the reduced matrix.

    Updates the unit vector to the normalized image under the reduced matrix
    evaluated at the previous eigenvalue estimate, and the eigenvalue to the
    image's norm, relaxed by ``relax`` (1.0 applies the raw update, which
    oscillates around some fixed points; 0.5 damps it).

    Returns the fixed point ``(lambda, u)`` with ``R(lambda) u = lambda u``
    within ``tol``.

    Raises:
        IterationError: divergence, a singular branch weight at some
            eigenvalue estimate, or no convergence within ``max_iters``;
            carries the eigenvalue trace.
    """
    if not 0 < relax <= 1:
        raise ValueError("relax must be in (0, 1]")
    lam = complex(initial_lambda)
    u = np.asarray(initial_us, dtype=complex)
    nu = np.linalg.norm(u)
    if nu == 0:
        raise ValueError("initial vector must be nonzero")
    u = u / nu
    trace = [lam]
    for _ in range(max_iters):
        try:
            r = reduced_matrix(graph, structural, lam).entries
        except SingularWeightError as exc:
            raise IterationError(
                f"reduced matrix singular at estimate {lam}", trace=trace) from exc
        w = r @ u
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0:
            raise IterationError(f"iterate degenerated at estimate {lam}", trace=trace)
        lam_raw = complex(nw)
        u_new = w / nw
        top = u_new[int(np.argmax(np.abs(u_new)))]
        u_new = u_new * (abs(top) / top)
        lam_new = (1 - relax) * lam + relax * lam_raw
        done = abs(lam_raw - lam) < tol and np.linalg.norm(u_new - u) < tol
        lam, u = lam_new, u_new
        trace.append(lam)
        if done:
            return lam, u
    raise IterationError(f"no fixed point within {max_iters} iterations", trace=trace)
