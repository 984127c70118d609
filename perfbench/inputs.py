"""Seeded input generators owned by the benchmark.

Nothing here imports ``isoreduce``: inputs are plain numpy arrays and tuples,
validated with the benchmark's own checks, so a later change to the
program's generators or validators cannot change a workload.

Conventions follow the program's: vertex ids are ``1..n``, an edge ``(i, j)``
is entry ``[i-1, j-1]`` of the adjacency matrix, and a stochastic graph has
unit column sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Attempts before a generator gives up on a seed.
MAX_TRIES = 1000


def is_primitive_support(support: np.ndarray) -> bool:
    """Primitivity of a square boolean support matrix.

    Squares (I-free) ``B`` repeatedly: a nonnegative n x n matrix is
    primitive iff ``B^k > 0`` for ``k = (n-1)^2 + 1`` (Wielandt), and every
    power beyond that bound stays positive, so reaching any power >= k that
    is positive decides it.
    """
    b = np.asarray(support, dtype=bool)
    n = b.shape[0]
    if n == 0:
        return False
    if n == 1:
        return bool(b[0, 0])
    bound = (n - 1) ** 2 + 1
    power, k = b.astype(np.float64), 1
    while k < bound:
        power = ((power @ power) > 0).astype(np.float64)
        k *= 2
    return bool(power.all())


def _patched_mask(n: int, q: float, rng: np.random.Generator, loops: float = 0.0) -> np.ndarray:
    """Bernoulli(q) support without loops, every row and column nonempty.

    Rows with no out-edge get one random out-edge and columns with no
    in-edge one random in-edge, so strong connectivity is not ruled out
    by a dangling vertex.  ``loops`` adds self-loops with that probability.
    """
    mask = rng.random((n, n)) < q
    np.fill_diagonal(mask, False)
    for axis in (0, 1):
        for v in range(n):
            line = mask[v, :] if axis == 0 else mask[:, v]
            if not line.any():
                u = int(rng.integers(0, n - 1))
                u += u >= v
                if axis == 0:
                    mask[v, u] = True
                else:
                    mask[u, v] = True
    if loops:
        np.fill_diagonal(mask, rng.random(n) < loops)
    return mask


def primitive_stochastic_matrix(n: int, avg_degree: float,
                                rng: np.random.Generator) -> np.ndarray:
    """Loop-free primitive column-stochastic matrix, expected out-degree ``avg_degree``."""
    q = min(1.0, avg_degree / (n - 1))
    for _ in range(MAX_TRIES):
        mask = _patched_mask(n, q, rng)
        if not is_primitive_support(mask):
            continue
        w = rng.uniform(0.05, 1.0, (n, n)) * mask
        return w / w.sum(axis=0, keepdims=True)
    raise RuntimeError(f"no primitive draw for n={n}, degree={avg_degree}")


def edges_of(matrix: np.ndarray) -> list[tuple[int, int, float]]:
    """``(i, j, weight)`` triples of the nonzero entries, 1-based."""
    rows, cols = np.nonzero(matrix)
    return [(int(i) + 1, int(j) + 1, float(matrix[i, j])) for i, j in zip(rows, cols)]


# -- size-stable delta stream ------------------------------------------------

#: A delta op as plain data: ``(kind, i, j, w, v)``, the program's field order.
Op = tuple[str, int, int, float, int]


class DeltaStream:
    """Endless seeded stream of ``p``-op deltas that stays near a base graph.

    The stream mirrors the program's op semantics on its own support matrix
    (a removed vertex keeps its id as a tombstone; ``add_vertex`` takes id
    ``n_vertices + 1``; renormalizing an edited column does not change the
    support).  Each op either opens a deviation from the base graph (add a
    non-edge, remove a base edge, add a vertex with one in- and one
    out-edge) or closes one (remove that edge, restore that base edge,
    remove that vertex).  At most ``max_dev`` deviations are open, so the
    active vertex and edge counts stay within a few of the base graph's
    while all four op kinds keep occurring.  Every delta leaves each active
    row and column nonempty and the active support primitive, so it is valid
    for a primitive stochastic state of the current graph.
    """

    def __init__(self, support: np.ndarray, rng: np.random.Generator, *,
                 p: int = 3, max_dev: int = 6):
        self.support = np.array(support, dtype=bool)
        self.active = set(range(1, self.support.shape[0] + 1))
        self.rng = rng
        self.p = p
        self.max_dev = max_dev
        self._base = self.support.copy()

    def _deviations(self, sup: np.ndarray, active: set[int]) -> list[Op]:
        """Ops that each close one open deviation from the base graph."""
        n0 = self._base.shape[0]
        out: list[Op] = [("remove_vertex", 0, 0, 0.0, v) for v in sorted(active) if v > n0]
        base = np.zeros_like(sup)
        base[:n0, :n0] = self._base
        for i, j in zip(*np.nonzero(base & ~sup)):
            out.append(("add_edge", int(i) + 1, int(j) + 1, 0.0, 0))
        for i, j in zip(*np.nonzero(sup & ~base)):
            if i < n0 and j < n0:
                out.append(("remove_edge", int(i) + 1, int(j) + 1, 0.0, 0))
        return out

    def _weight(self) -> float:
        return float(self.rng.uniform(0.2, 1.0))

    def _pick(self, candidates: np.ndarray) -> tuple[int, int]:
        rows, cols = np.nonzero(candidates)
        t = int(self.rng.integers(0, rows.size))
        return int(rows[t]) + 1, int(cols[t]) + 1

    def _open(self, sup: np.ndarray, active: set[int]) -> Op:
        """One op that opens a deviation: add a non-edge or remove a base edge."""
        if self.rng.random() < 0.5:
            live = np.zeros(sup.shape[0], dtype=bool)
            live[[v - 1 for v in active]] = True
            free = ~sup & np.outer(live, live)
            np.fill_diagonal(free, False)
            i, j = self._pick(free)
            return ("add_edge", i, j, self._weight(), 0)
        n0 = self._base.shape[0]
        i, j = self._pick(sup[:n0, :n0] & self._base)
        return ("remove_edge", i, j, 0.0, 0)

    @staticmethod
    def _apply(sup: np.ndarray, active: set[int], op: Op) -> np.ndarray:
        kind, i, j, _, v = op
        if kind == "add_vertex":
            active.add(sup.shape[0] + 1)
            return np.pad(sup, ((0, 1), (0, 1)))
        if kind == "remove_vertex":
            sup[v - 1, :] = sup[:, v - 1] = False
            active.discard(v)
        else:
            sup[i - 1, j - 1] = kind == "add_edge"
        return sup

    def _candidate(self) -> tuple[list[Op], np.ndarray, set[int]]:
        sup = self.support.copy()
        active = set(self.active)
        ops: list[Op] = []
        n_dev = len(self._deviations(sup, active))
        if self.p >= 3 and n_dev < self.max_dev and self.rng.random() < 0.2:
            new = sup.shape[0] + 1
            src, dst = (int(x) for x in self.rng.choice(sorted(active), 2, replace=False))
            ops = [("add_vertex", 0, 0, 0.0, 0),
                   ("add_edge", src, new, self._weight(), 0),
                   ("add_edge", new, dst, self._weight(), 0)]
            for op in ops:
                sup = self._apply(sup, active, op)
        while len(ops) < self.p:
            closing = self._deviations(sup, active)
            if closing and (len(closing) >= self.max_dev or self.rng.random() < 0.5):
                op = closing[int(self.rng.integers(0, len(closing)))]
                if op[0] == "add_edge":
                    op = op[:3] + (self._weight(), 0)
            else:
                op = self._open(sup, active)
            ops.append(op)
            sup = self._apply(sup, active, op)
        return ops, sup, active

    def next_delta(self) -> list[Op]:
        """The next delta's ops; the stream's own graph advances past it."""
        for _ in range(MAX_TRIES):
            ops, sup, active = self._candidate()
            idx = [v - 1 for v in sorted(active)]
            sub = sup[np.ix_(idx, idx)]
            if sub.any(axis=0).all() and sub.any(axis=1).all() and is_primitive_support(sub):
                self.support, self.active = sup, active
                return ops
        raise RuntimeError("delta stream found no valid delta")


# -- weighted graphs with a chosen complex eigenvalue --------------------------

@dataclass(frozen=True)
class EigenGraph:
    """A real weighted matrix with its usable non-real eigenpairs.

    ``pairs`` holds ``(lambda, right eigenvector)`` for every non-real
    eigenvalue in the outer half of the spectrum (modulus at least half the
    spectral radius) that is well separated from the rest of the spectrum
    and well conditioned.  The numpy eigenvector the oracles compare against
    is then accurate to far below the checking tolerance, and the
    denominators ``lambda - loop weight`` stay away from zero, so the
    reduction at lambda is not itself ill conditioned: near the origin,
    ``(lambda I - A_CC)^-1`` amplifies by up to 1e18 at these sizes and no
    method, closed form included, computes it accurately.
    """

    matrix: np.ndarray
    pairs: tuple[tuple[complex, np.ndarray], ...]


def eigen_graph(n: int, avg_degree: float, rng: np.random.Generator, *,
                loops: float = 0.2) -> EigenGraph:
    """Strongly connected non-stochastic weighted matrix with some loops.

    Draws are rejected until the support is primitive (so the row-normalized
    chain is irreducible) and at least one usable non-real eigenvalue exists.
    """
    q = min(1.0, avg_degree / (n - 1))
    for _ in range(MAX_TRIES):
        mask = _patched_mask(n, q, rng, loops=loops)
        if not is_primitive_support(mask):
            continue
        a = rng.uniform(0.05, 1.0, (n, n)) * mask
        vals, right = np.linalg.eig(a)
        left = np.linalg.inv(right)
        scale = float(np.abs(vals).max())
        pairs = []
        for t, lam in enumerate(vals):
            if abs(lam.imag) < 1e-3 * scale or abs(lam) < 0.5 * scale:
                continue
            gap = np.abs(np.delete(vals, t) - lam).min()
            cond = np.linalg.norm(left[t]) * np.linalg.norm(right[:, t])
            if gap > 1e-2 * scale and cond < 1e3:
                pairs.append((complex(lam), right[:, t].copy()))
        if pairs:
            return EigenGraph(a, tuple(pairs))
    raise RuntimeError(f"no eigen graph for n={n}, degree={avg_degree}")
