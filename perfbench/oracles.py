"""Independent numpy oracles for every output the benchmark times.

Each check takes plain arrays (the benchmark's own copy of the input, or
plain data read off a program object) and returns the worst deviation, so a
caller compares it with the bound named here.  Nothing here calls
``isoreduce``.
"""

from __future__ import annotations

import numpy as np

#: Bound on the extended and reduced matrices; the test suite's matrix bound.
MATRIX_TOL = 1e-12
#: L1 bound on a committed dominant eigenvector; the test suite's vector bound.
EIGVEC_TOL = 1e-8
#: Relative bound on a lifted eigenvector.
LIFT_TOL = 1e-8


def weight_matrix(n: int, weights) -> np.ndarray:
    """Dense n x n matrix of a stochastic graph's ``{(i, j): w}`` weights (real, 1-based)."""
    m = np.zeros((n, n))
    for (i, j), w in weights.items():
        m[i - 1, j - 1] = complex(w).real
    return m


def complement_acyclic(matrix: np.ndarray, members, active) -> bool:
    """Whether the complement of ``members`` in ``active`` has no non-loop cycle.

    Kahn's algorithm on the complement's support with loops dropped: the
    complement is acyclic iff repeatedly peeling vertices of in-degree zero
    removes all of them.
    """
    comp = sorted(set(active) - set(members))
    if not comp:
        return True
    idx = [v - 1 for v in comp]
    sub = matrix[np.ix_(idx, idx)] != 0
    np.fill_diagonal(sub, False)
    alive = np.ones(len(comp), dtype=bool)
    while alive.any():
        indeg = sub[alive][:, alive].sum(axis=0)
        sources = np.flatnonzero(alive)[indeg == 0]
        if sources.size == 0:
            return False
        alive[sources] = False
    return True


def reduced_closed_form(matrix: np.ndarray, rows, cols, comp, lam: complex) -> np.ndarray:
    """``A[rows, cols] + A[rows, C] (lam I - A_CC)^-1 A[C, cols]`` for 1-based ids.

    With ``rows = cols = S`` this is the isospectral reduction R(lam) of
    Bunimovich and Webb; with every vertex as rows and cols and lam = 1 it is
    the extended reduced matrix (branch sums between all pairs).
    """
    r = [v - 1 for v in rows]
    c = [v - 1 for v in cols]
    k = [v - 1 for v in comp]
    out = matrix[np.ix_(r, c)].astype(complex)
    if k:
        a_cc = matrix[np.ix_(k, k)]
        solve = np.linalg.solve(lam * np.eye(len(k)) - a_cc, matrix[np.ix_(k, c)])
        out = out + matrix[np.ix_(r, k)] @ solve
    return out


def extended_error(matrix: np.ndarray, members, active, extended: np.ndarray) -> float:
    """Max deviation of a stored extended matrix from ``E = A + A[:,C](I - A_CC)^-1 A[C,:]``.

    Rows and columns of inactive (tombstoned) ids must be zero.
    """
    n = matrix.shape[0]
    comp = sorted(set(active) - set(members))
    everyone = list(range(1, n + 1))
    closed = reduced_closed_form(matrix, everyone, everyone, comp, 1.0).real
    if extended.shape != closed.shape:
        return float("inf")
    return float(np.abs(closed - extended).max())


def perron_vector(matrix: np.ndarray, active) -> np.ndarray:
    """Dominant right eigenvector (eigenvalue 1) of a column-stochastic matrix.

    Solved directly, ``(A - I) x = 0`` with one equation replaced by
    ``sum(x) = 1``, over the active ids; entries of inactive ids are 0.
    """
    idx = [v - 1 for v in sorted(active)]
    a = matrix[np.ix_(idx, idx)].real - np.eye(len(idx))
    a[-1, :] = 1.0
    b = np.zeros(len(idx))
    b[-1] = 1.0
    out = np.zeros(matrix.shape[0])
    out[idx] = np.linalg.solve(a, b)
    return out


def l1_residual(matrix: np.ndarray, vector: np.ndarray) -> float:
    """``||A x - x||_1`` for an L1-normalized candidate x of eigenvalue 1."""
    x = vector / vector.sum()
    return float(np.abs(matrix.real @ x - x).sum())


def power_to_residual(matrix: np.ndarray, start: np.ndarray, target: float,
                      max_iters: int = 100_000) -> tuple[np.ndarray, int]:
    """Dense power iteration until ``||A x - x||_1 <= target``; the matched baseline.

    Returns the iterate and the number of matrix-vector products used
    (``max_iters`` when the target was not met).
    """
    a = matrix.real
    x = start / start.sum()
    for its in range(1, max_iters + 1):
        y = a @ x
        y /= y.sum()
        if np.abs(a @ y - y).sum() <= target:
            return y, its
        x = y
    return x, max_iters


def lift_error(lifted: np.ndarray, truth: np.ndarray) -> float:
    """Relative L2 distance between a lifted eigenvector and the true one."""
    return float(np.linalg.norm(lifted - truth) / np.linalg.norm(truth))


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """Max entry deviation, relative to the larger of 1 and the largest entry."""
    if got.shape != want.shape:
        return float("inf")
    return float(np.abs(got - want).max() / max(1.0, float(np.abs(want).max())))


def row_normalized(matrix: np.ndarray) -> np.ndarray:
    """The row-stochastic chain of a nonnegative matrix with nonempty rows."""
    return matrix / matrix.sum(axis=1, keepdims=True)


def apply_ops(matrix: np.ndarray, ops) -> np.ndarray:
    """The program's delta semantics on a dense column-stochastic matrix.

    ``add_vertex`` appends an empty row and column; every column an op
    touches is renormalized to unit sum (an emptied column stays empty).
    """
    m = matrix.copy()
    for kind, i, j, w, v in ops:
        if kind == "add_vertex":
            m = np.pad(m, ((0, 1), (0, 1)))
            continue
        if kind == "remove_vertex":
            cols = np.flatnonzero(m[v - 1, :])
            m[v - 1, :] = 0.0
            m[:, v - 1] = 0.0
        else:
            m[i - 1, j - 1] = w if kind == "add_edge" else 0.0
            cols = [j - 1]
        for c in cols:
            total = m[:, c].sum()
            if total > 0:
                m[:, c] /= total
    return m
