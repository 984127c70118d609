"""Probabilistic reading of the reduction: taboo probabilities and stopped chains.

This module works with ROW-stochastic transition matrices, the standard
Markov-chain convention.  The rest of the package stores stochastic graphs
column-wise, so conversion happens here, at the module boundary, by
transposition and row renormalization.  Branch sums of the chain's own graph
(adjacency = transition matrix) then equal taboo probabilities index-for-index.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .exceptions import AmbiguousStationaryError, SimulationError, StructuralSetError
from .graph import StructuralSet, WeightedDigraph, _vertex_id, compute_depths
from .reduction import reduced_matrices_by_length, reduced_matrix
from .spectral import stationary_vector, strongly_connected

#: Row-sum tolerance for transition matrices.
ROW_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MarkovChain:
    """Finite Markov chain given by a row-stochastic transition matrix."""

    transition: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition matrix must be square")
        # min and max carry a NaN through, and no comparison with NaN holds
        if p.size and not (p.min() >= 0 and p.max() <= 1):
            raise ValueError("transition probabilities must lie in [0, 1]")
        sums = p.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"row {i + 1} sums to {sums[i]}, expected 1")
        object.__setattr__(self, "transition", p)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @classmethod
    def from_stochastic_graph(cls, graph: WeightedDigraph) -> "MarkovChain":
        """Chain whose transition matrix is the transposed (column-stochastic)
        adjacency matrix of ``graph``, each row divided by its sum: a graph's
        columns sum to 1 only within ``STOCHASTIC_TOL``, wider than
        ``ROW_SUM_TOL``."""
        if not graph.stochastic:
            raise ValueError("graph is not stochastic-flagged")
        if graph.removed:
            raise ValueError("compact the graph before building a chain from it")
        p = graph.matrix().real.T
        return cls(p / p.sum(axis=1, keepdims=True))

    def graph(self) -> WeightedDigraph:
        """The chain's own weighted digraph: edge (i, j) with weight p_ij."""
        return WeightedDigraph.from_matrix(self.transition)


@dataclass(frozen=True, eq=False)
class StoppedChainSample:
    """Trace of the chain observed at its successive visits to a state set."""

    seed: int
    steps: int
    members: tuple[int, ...]
    visits: tuple[int, ...]
    counts: np.ndarray
    empirical_transition: np.ndarray


def _state_ids(chain: MarkovChain, states) -> list[int]:
    """``states`` as state ids, each an integer by the package's vertex-id
    rule (a float with an integer value passes, a bool does not) in
    ``1..n_states``.

    Raises:
        ValueError: an id that breaks either rule.
    """
    ids = [_vertex_id(v) for v in states]
    for v in ids:
        if not 1 <= v <= chain.n_states:
            raise ValueError(f"state {v} outside 1..{chain.n_states}")
    return ids


def _taboo_steps(chain: MarkovChain, taboo_set) -> Iterator[np.ndarray]:
    """All-pairs taboo matrices for steps 1, 2, 3, ... without end.

    Step ``n >= 2`` is ``P[:, C] Q^(n-2) P[C, :]`` with ``Q = P[C, C]`` over
    the complement ``C`` of the taboo set; one running product ``P[:, C]
    Q^(n-2)`` (N x |C|) carries from each step to the next.  The taboo
    states are checked by :func:`_state_ids` before the first step.
    """
    taboo = set(_state_ids(chain, taboo_set))
    p = chain.transition
    yield p.copy()
    comp = [s for s in range(chain.n_states) if (s + 1) not in taboo]
    if not comp:
        while True:
            yield np.zeros_like(p)
    q = p[np.ix_(comp, comp)]
    left = p[:, comp]
    leave = p[comp, :]
    while True:
        yield left @ leave
        left = left @ q


def taboo_probability(chain: MarkovChain, taboo_set, i: int, j: int, n: int) -> float:
    """Probability of standing at ``j`` after ``n`` steps from ``i`` without
    visiting the taboo set at any strictly intermediate time; ``i``, ``j``
    and the taboo states are checked as :func:`_state_ids` checks them."""
    i, j = _state_ids(chain, (i, j))
    return float(taboo_matrix(chain, taboo_set, n)[i - 1, j - 1])


def taboo_matrix(chain: MarkovChain, taboo_set, n: int) -> np.ndarray:
    """All-pairs taboo probabilities at step ``n`` as an N x N matrix.

    Raises:
        ValueError: ``n`` is below 1, or a taboo state is no state id in
            ``1..N`` (see :func:`_state_ids`).
    """
    if n < 1:
        raise ValueError("step count must be at least 1")
    return next(islice(_taboo_steps(chain, taboo_set), n - 1, None))


def verify_return_identity(graph: WeightedDigraph, structural: StructuralSet) -> float:
    """Largest gap between length-partitioned reduced matrices and taboo probabilities.

    Converts the column-stochastic graph to its chain, rebuilds the reduction
    over the chain's row-oriented graph, and compares, for every pair of
    structural states and every feasible length, the length-``n`` entry
    against the dynamic-programming taboo probability.  Also checks that the
    length terms add up to the reduced matrix.
    """
    chain = MarkovChain.from_stochastic_graph(graph)
    cg = chain.graph()
    members = structural.members
    cs = compute_depths(cg, members, 1.0)
    idx = [v - 1 for v in members]
    terms = reduced_matrices_by_length(cg, cs, 1.0).real
    worst = 0.0
    for r_n, tb_n in zip(terms, _taboo_steps(chain, members)):
        worst = max(worst, float(np.abs(r_n - tb_n[np.ix_(idx, idx)]).max()))
    totals = terms.sum(axis=0)
    r_full = reduced_matrix(cg, cs, 1.0).entries.real
    worst = max(worst, float(np.abs(r_full - totals).max()))
    return worst


def simulate_stopped_chain(chain: MarkovChain, members, steps: int, seed: int, *,
                           start: int | None = None) -> StoppedChainSample:
    """Run the chain and record it at successive visits to ``members``.

    Reproducible for a fixed seed.  Raises SimulationError when the set is
    never reached within the step budget, and ValueError when ``steps`` is
    below 1 or ``start`` or a member is no state id (see :func:`_state_ids`).
    """
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    members = tuple(sorted(set(_state_ids(chain, members))))
    s_pos = {v: t for t, v in enumerate(members)}
    (state,) = _state_ids(chain, [1 if start is None else start])
    rng = np.random.default_rng(seed)
    cums = [np.cumsum(row).tolist() for row in chain.transition]
    visits: list[int] = []
    counts = np.zeros((len(members), len(members)), dtype=np.int64)
    prev = -1
    if state in s_pos:
        visits.append(state)
        prev = s_pos[state]
    uniforms = rng.random(steps).tolist()
    for u in uniforms:
        state = bisect(cums[state - 1], u) + 1
        t = s_pos.get(state, -1)
        if t >= 0:
            visits.append(state)
            if prev >= 0:
                counts[prev, t] += 1
            prev = t
    if not visits:
        raise SimulationError(
            f"chain never reached {members} within {steps} steps")
    rows = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        empirical = np.where(rows > 0, counts / np.maximum(rows, 1), 0.0)
    return StoppedChainSample(seed, steps, members, tuple(visits), counts, empirical)


def reduced_matrix_of_chain(chain: MarkovChain, members) -> np.ndarray:
    """Row-stochastic kernel of the stopped chain: the reduced matrix of the
    chain's graph over ``members`` at parameter 1."""
    cg = chain.graph()
    return reduced_matrix(cg, compute_depths(cg, members, 1.0), 1.0).entries.real


def is_irreducible(chain: MarkovChain) -> bool:
    """Strong connectivity of the transition support."""
    return strongly_connected(chain.transition > 0)


def stationary_distribution(chain: MarkovChain) -> np.ndarray:
    """Unique stationary distribution, by the package's one exact solve.

    Raises:
        AmbiguousStationaryError: the chain is reducible, so uniqueness fails.
    """
    if not is_irreducible(chain):
        raise AmbiguousStationaryError(
            "chain is reducible; stationary distribution is not unique")
    return stationary_vector(chain.transition.T).vector


def verify_stationary_restriction(chain: MarkovChain, members) -> float:
    """Gap between the restricted stationary distribution and the one of the
    stopped chain's kernel.

    The stationary distribution restricted to the set (renormalized) must be
    stationary for the reduced matrix of the chain's graph over the set.
    """
    member_set = set(members)
    members = tuple(sorted(member_set))
    for v in range(1, chain.n_states + 1):
        if v not in member_set and chain.transition[v - 1, v - 1]:
            raise ValueError(f"complement state {v} has a self-transition")
    try:
        r = reduced_matrix_of_chain(chain, members)
    except StructuralSetError as exc:
        raise ValueError("the given set is not structural for the chain at 1") from exc
    q = stationary_distribution(chain)
    q_s = np.array([q[v - 1] for v in members])
    q_s = q_s / q_s.sum()
    q_r = stationary_distribution(MarkovChain(r))
    return float(np.abs(q_s - q_r).max())


def total_variation_summary(sample: StoppedChainSample,
                            expected: np.ndarray) -> float:
    """Largest per-state total-variation distance between empirical and
    expected stopped-chain transition rows (rows never visited are skipped)."""
    rows = sample.counts.sum(axis=1)
    worst = 0.0
    for i in range(len(sample.members)):
        if rows[i] == 0:
            continue
        tv = 0.5 * float(np.abs(sample.empirical_transition[i] - expected[i]).sum())
        worst = max(worst, tv)
    return worst


def within_sigma_fraction(sample: StoppedChainSample, expected: np.ndarray) -> float:
    """Fraction of transition entries whose empirical frequency sits within
    three binomial standard errors of the expected probability.

    Entries with zero standard error must match exactly; rows never visited
    contribute no entries.
    """
    counts = sample.counts
    emp = sample.empirical_transition
    rows = counts.sum(axis=1)
    ok = 0
    total = 0
    for i in range(len(sample.members)):
        if rows[i] == 0:
            continue
        for j in range(len(sample.members)):
            p = expected[i, j]
            se = np.sqrt(max(p * (1 - p), 0.0) / rows[i])
            total += 1
            if abs(emp[i, j] - p) <= 3 * se:
                ok += 1
    return ok / total if total else 1.0
