"""Random sparse stochastic graphs and random deltas for experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DeltaError, GenerationError, NotPrimitiveError
from .graph import WeightedDigraph
from .spectral import is_primitive
from .update import DeltaOp, GraphDelta, apply_ops


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the cost experiment: graph size, sparsity, delta size, trials."""

    n: int
    avg_degree: float
    p: int
    ell: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 vertices")
        if not (np.isfinite(self.avg_degree) and self.avg_degree >= 1):
            raise ValueError(f"average degree must be a finite number at least 1, "
                             f"got {self.avg_degree}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.p < 0:
            raise ValueError("delta size must be non-negative")
        if self.ell < 1:
            raise ValueError("modelled iteration count ell must be positive")


def check_assumptions(graph: WeightedDigraph) -> None:
    """Validate the update-algorithm prerequisites on a graph.

    Stochasticity (real weights, unit columns, no loops) is enforced by the
    graph's own flag; this adds the primitivity requirement.

    Raises:
        NonStochasticError, NotPrimitiveError.
    """
    WeightedDigraph.from_matrix(graph.adjacency, stochastic=True, removed=graph.removed)
    if not is_primitive(graph):
        raise NotPrimitiveError("adjacency matrix is not primitive")


def random_stochastic_graph(n: int, avg_degree: float, rng: np.random.Generator, *,
                            max_tries: int = 200) -> WeightedDigraph:
    """Loop-free primitive stochastic graph with expected out-degree ``avg_degree``.

    Edges are sampled independently, empty columns are patched with one
    random in-edge and then empty rows with one random out-edge (a vertex
    with no out-edge cannot lie on a cycle, so such a draw could never be
    primitive), column weights are normalized to unit sum, and non-primitive
    draws are rejected and resampled.

    Raises:
        GenerationError: no primitive draw within ``max_tries``.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    q = min(1.0, avg_degree / (n - 1))
    for _ in range(max_tries):
        mask = rng.random((n, n)) < q
        np.fill_diagonal(mask, False)
        for lines in (mask.T, mask):
            for v in range(n):
                if not lines[v].any():
                    u = int(rng.integers(0, n - 1))
                    lines[v, u + (u >= v)] = True
        w = rng.uniform(0.05, 1.0, (n, n)) * mask
        graph = WeightedDigraph.from_matrix(w / w.sum(axis=0, keepdims=True), stochastic=True)
        if is_primitive(graph):
            return graph
    raise GenerationError(
        f"no primitive graph with n={n}, degree={avg_degree} in {max_tries} tries")


def _op_stays_valid(graph: WeightedDigraph, ops: list[DeltaOp]) -> WeightedDigraph | None:
    """Apply candidate ops to a scratch copy; None when invalid or non-primitive."""
    try:
        g2 = apply_ops(graph, GraphDelta(tuple(ops)))
    except DeltaError:
        return None
    if not is_primitive(g2):
        return None
    return g2


def random_delta(graph: WeightedDigraph, rng: np.random.Generator, p: int) -> GraphDelta:
    """Sample a valid delta of exactly ``p`` operations for ``graph``.

    Mixes edge additions/removals with vertex additions (a new vertex plus
    one in- and one out-edge, three slots) and vertex removals; candidates
    that would break stochasticity or primitivity are resampled, up to 300
    draws in all.

    Raises:
        GenerationError: not enough valid operations found.
    """
    ops: list[DeltaOp] = []
    working = graph
    tries = 0
    while len(ops) < p:
        tries += 1
        if tries > 300:
            raise GenerationError(f"could not assemble a {p}-op delta")
        slots = p - len(ops)
        r = rng.random()
        vertices = working.vertices()
        candidate: list[DeltaOp] = []
        if r < 0.15 and slots >= 3 and len(vertices) >= 2:
            new_id = working.n_vertices + 1
            src = int(rng.choice(vertices))
            dst = int(rng.choice([v for v in vertices if v != src]))
            candidate = [DeltaOp.add_vertex(),
                         DeltaOp.add_edge(src, new_id, float(rng.uniform(0.2, 1.0))),
                         DeltaOp.add_edge(new_id, dst, float(rng.uniform(0.2, 1.0)))]
        elif r < 0.30 and len(vertices) > 3:
            candidate = [DeltaOp.remove_vertex(int(rng.choice(vertices)))]
        elif r < 0.60 and len(working.edge_arrays[0]):
            # the edge arrays are row-major, the order of the sorted edges
            tails, heads, _ = working.edge_arrays
            k = int(rng.integers(0, len(tails)))
            candidate = [DeltaOp.remove_edge(int(tails[k]), int(heads[k]))]
        else:
            i = int(rng.choice(vertices))
            j = int(rng.choice(vertices))
            if i == j or working.adjacency[i - 1, j - 1]:
                continue
            candidate = [DeltaOp.add_edge(i, j, float(rng.uniform(0.2, 1.0)))]
        g2 = _op_stays_valid(working, candidate)
        if g2 is None:
            continue
        ops.extend(candidate)
        working = g2
    return GraphDelta(tuple(ops))
