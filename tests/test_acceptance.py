"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live.
"""

import time

import numpy as np

from isoreduce import (CostReport, DeltaOp, EigenPair, ExperimentConfig,
                       GraphDelta, DeltaError, MarkovChain, StoredState,
                       WeightedDigraph, compute_depths, enumerate_branches,
                       extended_reduced_matrix, find_structural_set,
                       lift_eigenvector, random_delta,
                       random_stochastic_graph, reduced_matrix,
                       reduced_matrix_by_length, reduced_matrix_of_chain,
                       run_experiment, run_update, simplex_bound,
                       simulate_stopped_chain, validate_structural,
                       verify_return_identity, verify_stationary_restriction,
                       verify_restriction, within_sigma_fraction)
from oracles import (all_branches_bruteforce, dense_eigenpairs,
                     dominant_unit_vector, promotion_candidates, random_complex_graph,
                     stationary_bruteforce, taboo_bruteforce)


def report_line(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _complex_instances(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(4, 11))
        density = float(rng.uniform(0.2, 0.45))
        yield random_complex_graph(rng, n, density)


def test_restriction_roundtrip():
    start = time.monotonic()
    worst_res = 0.0
    worst_cos = 0.0
    pairs = 0
    for g in _complex_instances(200, seed=101):
        for lam, u in dense_eigenpairs(g.matrix()):
            ss = find_structural_set(g, lam, 1e-8)
            pair = EigenPair(lam, u, g.vertices(), "L2-unit")
            worst_res = max(worst_res, verify_restriction(g, ss, pair))
            u_s = np.array([u[v - 1] for v in ss.members])
            lifted = lift_eigenvector(g, ss, lam, u_s).vector
            cos = abs(np.vdot(lifted, u)) / (np.linalg.norm(lifted) * np.linalg.norm(u))
            worst_cos = max(worst_cos, 1 - cos)
            pairs += 1
    elapsed = time.monotonic() - start
    ok = worst_res < 1e-9 and worst_cos < 1e-9 and elapsed < 30
    report_line("restriction-roundtrip", ok,
                f"{pairs} eigenpairs, residual {worst_res:.2e}, "
                f"1-|cos| {worst_cos:.2e}, {elapsed:.1f}s")


def test_length_partition_identity():
    worst = 0.0
    for g in _complex_instances(200, seed=101):
        lam = complex(np.cos(len(g.edges())), np.sin(g.n_vertices))
        ss = find_structural_set(g, lam, 1e-8)
        bs = enumerate_branches(g, ss)
        r = reduced_matrix(g, ss, lam).entries
        total = sum(reduced_matrix_by_length(g, ss, lam, p)
                    for p in range(1, len(ss.complement()) + 2))
        scale = max(1.0, float(np.abs(r).max()))
        worst = max(worst, float(np.abs(total - r).max()) / scale)
    ok = worst < 1e-12
    report_line("length-partition-identity", ok, f"relative deviation {worst:.2e}")


def test_taboo_identity():
    worst = 0.0
    worst_rows = 0.0
    for t in range(100):
        rng = np.random.default_rng([103, t])
        g = random_stochastic_graph(int(rng.integers(4, 13)), 2.5, rng)
        ss = find_structural_set(g, 1.0)
        worst = max(worst, verify_return_identity(g, ss))
        chain = MarkovChain.from_stochastic_graph(g)
        members = find_structural_set(chain.graph(), 1.0).members
        kernel = reduced_matrix_of_chain(chain, members)
        worst_rows = max(worst_rows, float(np.abs(kernel.sum(axis=1) - 1.0).max()))
    ok = worst < 1e-12 and worst_rows < 1e-10
    report_line("taboo-identity", ok,
                f"deviation {worst:.2e}, row-sum gap {worst_rows:.2e}")


def test_stopped_chain_monte_carlo():
    start = time.monotonic()
    within = 0.0
    entries = 0
    worst_stat = 0.0
    for t in range(20):
        rng = np.random.default_rng([104, t])
        g = random_stochastic_graph(int(rng.integers(4, 9)), 2.5, rng)
        chain = MarkovChain.from_stochastic_graph(g)
        members = find_structural_set(chain.graph(), 1.0).members
        expected = reduced_matrix_of_chain(chain, members)
        sample = simulate_stopped_chain(chain, members, 1_000_000, seed=9000 + t)
        frac = within_sigma_fraction(sample, expected)
        cells = len(members) ** 2
        within += frac * cells
        entries += cells
        worst_stat = max(worst_stat, verify_stationary_restriction(chain, members))
    elapsed = time.monotonic() - start
    pooled = within / entries
    ok = pooled >= 0.95 and worst_stat < 1e-10 and elapsed < 120
    report_line("stopped-chain-monte-carlo", ok,
                f"{pooled:.4f} within 3 sigma, stationary gap {worst_stat:.2e}, "
                f"{elapsed:.1f}s")


def _coverage_delta(state, rng, mode):
    graph = state.graph
    vertices = graph.vertices()
    if mode == 0:
        cands = promotion_candidates(state)
        if cands:
            i, j = cands[int(rng.integers(0, len(cands)))]
            return GraphDelta((DeltaOp.add_edge(i, j, float(rng.uniform(0.2, 1.0))),))
    if mode == 2 and len(vertices) > 4:
        return GraphDelta((DeltaOp.remove_vertex(int(rng.choice(vertices))),))
    if mode == 3:
        new_id = graph.n_vertices + 1
        src = int(rng.choice(vertices))
        dst = int(rng.choice([v for v in vertices if v != src]))
        return GraphDelta((DeltaOp.add_vertex(),
                           DeltaOp.add_edge(src, new_id, float(rng.uniform(0.2, 1.0))),
                           DeltaOp.add_edge(new_id, dst, float(rng.uniform(0.2, 1.0)))))
    return random_delta(graph, rng, int(rng.integers(1, 4)))


def test_incremental_equals_scratch():
    kinds_seen = set()
    promotions = 0
    done = 0
    worst_ext = 0.0
    worst_eig = 0.0
    t = 0
    while done < 100:
        rng = np.random.default_rng([105, t])
        t += 1
        g = random_stochastic_graph(int(rng.integers(8, 41)), 2.5, rng)
        state = StoredState.from_graph(g, ell=3000, tol=1e-14)
        try:
            delta = _coverage_delta(state, rng, done % 4)
            new_state, report = run_update(state, delta, ell=3000, tol=1e-14)
        except DeltaError:
            continue
        report.validate()
        kinds_seen.update(op.kind for op in delta.ops)
        if len(new_state.structural.members) > len(state.structural.members):
            promotions += 1
        # sets exactly
        assert validate_structural(new_state.graph, new_state.structural.members, 1.0)
        ss = compute_depths(new_state.graph, new_state.structural.members, 1.0)
        fresh = enumerate_branches(new_state.graph, ss)
        assert {b.vertices for b in fresh.branches} == \
            {b.vertices for b in new_state.branches.branches}
        # the columns E[:, S] the update stored, against a fresh full matrix, to 1e-12
        ext = extended_reduced_matrix(new_state.graph, ss)
        idx = [v - 1 for v in ss.members]
        worst_ext = max(worst_ext, float(np.abs(ext.entries[:, idx] -
                                                new_state.columns).max()))
        # lifted eigenvector against the dense oracle
        m, ids = new_state.graph.active_matrix()
        oracle = dominant_unit_vector(m.real)
        stored = np.array([new_state.full_vector[v - 1] for v in ids])
        worst_eig = max(worst_eig, float(np.abs(oracle - stored).max()))
        done += 1
    ok = (worst_ext <= 1e-12 and worst_eig < 1e-8 and promotions >= 1
          and kinds_seen == {"add_edge", "remove_edge", "add_vertex", "remove_vertex"})
    report_line("incremental-equals-scratch", ok,
                f"100 pairs, matrix gap {worst_ext:.2e}, eig gap {worst_eig:.2e}, "
                f"{promotions} promotions, ops {sorted(kinds_seen)}")


def test_simplex_lemma():
    rng = np.random.default_rng(106)
    big_n = 173.0
    ok = True
    worst_equality = 0.0
    for m in range(1, 21):
        pts = np.sort(rng.uniform(0.0, big_n, (100_000, m)), axis=1)
        pts = np.hstack([pts, np.full((100_000, 1), big_n)])
        f = (pts[:, :-1] * np.diff(pts, axis=1)).sum(axis=1)
        bound = m * big_n ** 2 / (2 * (m + 1))
        ok = ok and bool((f <= bound + 1e-9 * big_n ** 2).all())
        ok = ok and bound <= big_n ** 2 / 2
        arith = [(i + 1) * big_n / (m + 1) for i in range(m + 1)]
        fa, ba = simplex_bound(arith)
        worst_equality = max(worst_equality, abs(fa - ba))
    ok = ok and worst_equality < 1e-9
    report_line("simplex-lemma", ok,
                f"2e6 samples, m up to 20, progression gap {worst_equality:.2e}")


def test_cost_experiment():
    start = time.monotonic()
    config = ExperimentConfig(n=60, avg_degree=2.5, p=3, ell=10, trials=50, seed=2026)
    summary = run_experiment(config)
    over = summary.fraction_over(0.70)
    completed = len(summary.savings)
    # internal consistency of the reported reference measurements
    reference = CostReport.from_measurements(n=60, s=14, k=13, m=1125, ell=10, p=3)
    reference.validate()
    elapsed = time.monotonic() - start
    ok = over > 0.5 and completed >= 40 and elapsed < 300
    report_line("cost-experiment", ok,
                f"{completed}/50 trials, {over:.0%} over 70% savings, "
                f"meas fraction {summary.fraction_meas:.2f}, {elapsed:.1f}s")


def test_derived_values_recomputed_by_oracles():
    checks = []

    cycle = WeightedDigraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)],
                                       stochastic=True)
    path = WeightedDigraph.from_edges(4, [(4, 3, 1.0), (3, 2, 1.0), (2, 1, 1.0)])

    # exhaustive path enumeration oracle
    checks.append(("three-cycle branches",
                   all_branches_bruteforce(cycle, [1]) ==
                   [(1, 2), (1, 2, 3), (1, 2, 3, 1), (2, 3), (2, 3, 1), (3, 1)]))
    checks.append(("path-graph branches",
                   all_branches_bruteforce(path, [1]) ==
                   [(2, 1), (3, 2), (3, 2, 1), (4, 3), (4, 3, 2), (4, 3, 2, 1)]))

    # direct weight-formula evaluation
    w2 = 1.0 * (1.0 / (2.0 - 0.0)) * (1.0 / (2.0 - 0.0))
    w1 = 1.0 * (1.0 / (1.0 - 0.0)) * (1.0 / (1.0 - 0.0))
    checks.append(("cycle branch weights", (w2, w1) == (0.25, 1.0)))

    # taboo probabilities by trajectory enumeration
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    checks.append(("flip-chain taboo",
                   taboo_bruteforce(flip, [1], 1, 1, 2) == 1.0
                   and taboo_bruteforce(flip, [1], 1, 1, 1) == 0.0))
    spin = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    checks.append(("cycle-chain taboo",
                   taboo_bruteforce(spin, [1], 1, 1, 3) == 1.0
                   and all(taboo_bruteforce(spin, [1], 1, 1, n) == 0.0
                           for n in (1, 2, 4))))

    # dense eigensolver oracle for the lift fixtures
    four_cycle = WeightedDigraph.from_edges(
        4, [(4, 3, 1.0), (3, 2, 1.0), (2, 1, 1.0), (1, 4, 1.0)])
    lam, u = min(dense_eigenpairs(four_cycle.matrix()), key=lambda p: abs(p[0] - 1))
    ss = compute_depths(four_cycle, [1], 1.0)
    lifted = lift_eigenvector(four_cycle, ss, 1.0, [u[0]]).vector
    checks.append(("four-cycle lift vs dense oracle",
                   np.abs(lifted - u).max() < 1e-12))

    # stationary oracle agrees with the hand value for the flip chain
    checks.append(("flip-chain stationary",
                   np.allclose(stationary_bruteforce(flip), [0.5, 0.5])))

    # scratch recomputation oracle for the promotion fixture
    state = StoredState.from_graph(cycle, structural=[1], assume_primitive=True)
    new_state, _ = run_update(state, GraphDelta((DeltaOp.add_edge(3, 2, 0.5),)),
                              ell=2000)
    ss2 = compute_depths(new_state.graph, new_state.structural.members, 1.0)
    fresh = {b.vertices for b in enumerate_branches(new_state.graph, ss2).branches}
    checks.append(("promotion fixture vs scratch",
                   fresh == {(1, 2), (1, 2, 3), (2, 3), (3, 1), (3, 2), (3, 2, 3)}))

    failed = [name for name, good in checks if not good]
    report_line("derived-value-oracles", not failed,
                f"{len(checks)} fixtures recomputed" +
                (f"; failed: {failed}" if failed else ""))
