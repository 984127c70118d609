"""Checks the benchmark makes of itself before it measures anything.

* The oracles agree with the program on the unit 3-cycle, where every
  answer is known in closed form, and reject a set that misses its cycle.
* The workload's input generator gives the same inputs twice for a seed.
"""

from __future__ import annotations

import cmath
import itertools

import numpy as np

import oracles
import workloads

#: Leading inputs compared by the determinism check.
DRAWS = 3


def three_cycle(ir) -> list[str]:
    """Oracles against the program on 1 -> 2 -> 3 -> 1 with unit weights."""
    g = ir.WeightedDigraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)],
                                      stochastic=True)
    a = oracles.weight_matrix(3, g.weights)
    state = ir.StoredState.from_graph(g, assume_primitive=True)
    problems = workloads.state_errors(state, a)
    err = workloads.eigvec_error(state, a)
    if not err <= oracles.EIGVEC_TOL:
        problems.append(f"3-cycle dominant eigenvector off the oracle by {err:.3g}")
    lam = cmath.exp(2j * cmath.pi / 3)
    ss = ir.compute_depths(g, [1], lam)
    red = ir.reduced_matrix(g, ss, lam)
    lifted = ir.lift_eigenvector(g, ss, lam, [1.0])
    chain_red = ir.reduced_matrix_of_chain(ir.MarkovChain(oracles.row_normalized(a)), [1])
    x = np.array([1.0, lam, lam * lam])
    problems += workloads.query_errors(a, lam, x, (ss, red, lifted, chain_red))
    if oracles.complement_acyclic(a, [], [1, 2, 3]):
        problems.append("acyclicity oracle missed the 3-cycle")
    return [f"3-cycle: {p}" for p in problems]


def _same(x, y) -> bool:
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    if isinstance(x, (tuple, list)):
        return (isinstance(y, (tuple, list)) and len(x) == len(y)
                and all(_same(a, b) for a, b in zip(x, y)))
    return x == y


def deterministic(workload: str, seed: int) -> list[str]:
    draw = workloads.WORKLOADS[workload][1]
    first = list(itertools.islice(draw(seed), DRAWS))
    second = list(itertools.islice(draw(seed), DRAWS))
    if not _same(first, second):
        return [f"{workload} inputs differ between two draws of seed {seed}"]
    return []


def run(workload: str, seed: int) -> list[str]:
    return three_cycle(workloads.fresh_import()) + deterministic(workload, seed)
