from collections import Counter

import numpy as np
import pytest

from isoreduce import (Branch, BranchSet, DeltaError, DeltaOp, GraphDelta, NonStochasticError,
                       SingularWeightError, StoredState, StructuralSetError, WeightedDigraph,
                       apply_ops, branch_counts, compute_depths, enumerate_branches,
                       extended_columns, extended_reduced_matrix, find_structural_set,
                       lift_eigenvector, random_delta, random_stochastic_graph,
                       reduced_matrices_by_length, reduced_matrix,
                       reduced_matrix_by_length, run_update)
from isoreduce.reduction import _depth_sweep
from oracles import (all_branches_bruteforce, branch_counts_closed_form, branch_weight,
                     chain_graph, random_complex_graph)

THREE_CYCLE_BRANCHES = [(1, 2), (1, 2, 3), (1, 2, 3, 1), (2, 3), (2, 3, 1), (3, 1)]

# All sub-paths of the directed path 4 -> 3 -> 2 -> 1 (each is a branch).
PATH_BRANCHES = [(2, 1), (3, 2), (3, 2, 1), (4, 3), (4, 3, 2), (4, 3, 2, 1)]


def test_branch_weight_edge_is_plain_weight():
    g = WeightedDigraph.from_edges(3, [(1, 2, 0.3 + 0.4j), (2, 3, 1.0)])
    assert branch_weight(g, Branch((1, 2)), 5.0) == 0.3 + 0.4j
    assert branch_weight(g, Branch((1, 2)), -2.0 + 1j) == 0.3 + 0.4j


def test_branch_weight_three_cycle(three_cycle):
    loop = Branch((1, 2, 3, 1))
    assert branch_weight(three_cycle, loop, 2.0) == pytest.approx(0.25)
    assert branch_weight(three_cycle, loop, 1.0) == pytest.approx(1.0)


def test_branch_weight_errors(three_cycle):
    g = WeightedDigraph.from_edges(2, [(1, 2, 1.0), (2, 1, 1.0), (2, 2, 0.5)])
    with pytest.raises(SingularWeightError):
        branch_weight(g, Branch((1, 2, 1)), 0.5)
    with pytest.raises(ValueError):
        branch_weight(three_cycle, Branch((1, 3)), 1.0)


def test_enumerate_three_cycle(three_cycle):
    ss = compute_depths(three_cycle, [1], 1.0)
    bs = enumerate_branches(three_cycle, ss)
    assert [b.vertices for b in bs.branches] == THREE_CYCLE_BRANCHES
    assert [b.vertices for b in bs.between(1, 1)] == [(1, 2, 3, 1)]
    assert bs.m_statistic == 3


def test_enumerate_full_set_gives_edges(three_cycle):
    ss = compute_depths(three_cycle, [1, 2, 3], 1.0)
    bs = enumerate_branches(three_cycle, ss)
    assert [b.vertices for b in bs.branches] == [(1, 2), (2, 3), (3, 1)]


def test_enumerate_path_graph(path_graph):
    ss = compute_depths(path_graph, [1], 1.0)
    bs = enumerate_branches(path_graph, ss)
    assert [b.vertices for b in bs.branches] == PATH_BRANCHES
    assert sorted(all_branches_bruteforce(path_graph, [1])) == PATH_BRANCHES


def test_enumeration_matches_bruteforce():
    rng = np.random.default_rng(21)
    for _ in range(50):
        g = random_complex_graph(rng, int(rng.integers(3, 9)),
                                 float(rng.uniform(0.15, 0.5)))
        lam = complex(rng.normal(), rng.normal())
        ss = find_structural_set(g, lam)
        got = [b.vertices for b in enumerate_branches(g, ss).branches]
        assert got == all_branches_bruteforce(g, ss.members)


def test_branchset_indices_consistent(three_cycle):
    ss = compute_depths(three_cycle, [1], 1.0)
    bs = enumerate_branches(three_cycle, ss)
    starts, ends, through = Counter(), Counter(), Counter()
    for b in bs.branches:
        assert b in bs
        assert b in bs.between(b.start, b.end)
        starts[b.start] += 1
        ends[b.end] += 1
        through.update(set(b.interior))
    assert set(through) <= set(ss.complement())
    assert bs.m_statistic == max([*starts.values(), *ends.values(), *through.values()])
    assert (1, 2, 3, 1) in bs
    assert (1, 3) not in bs


def test_reduced_matrix_three_cycle(three_cycle):
    ss = compute_depths(three_cycle, [1], 2.0)
    r = reduced_matrix(three_cycle, ss, 2.0)
    assert r.entries.shape == (1, 1)
    assert r.entries[0, 0] == pytest.approx(0.25)
    # at the actual eigenvalue 1 the single entry equals the eigenvalue
    assert reduced_matrix(three_cycle, ss, 1.0).entries[0, 0] == pytest.approx(1.0)


def test_reduced_matrix_full_set_is_adjacency():
    rng = np.random.default_rng(22)
    g = random_complex_graph(rng, 5, 0.4)
    ss = compute_depths(g, g.vertices(), 3.7)
    r = reduced_matrix(g, ss, 3.7)
    assert np.allclose(r.entries, g.matrix())


def test_by_length_three_cycle(three_cycle):
    ss = compute_depths(three_cycle, [1], 2.0)
    bs = enumerate_branches(three_cycle, ss)
    r1 = reduced_matrix_by_length(three_cycle, ss, 2.0, 1)
    r2 = reduced_matrix_by_length(three_cycle, ss, 2.0, 2)
    r3 = reduced_matrix_by_length(three_cycle, ss, 2.0, 3)
    assert r1[0, 0] == 0 and r2[0, 0] == 0
    assert r3[0, 0] == pytest.approx(0.25)
    with pytest.raises(ValueError):
        reduced_matrix_by_length(three_cycle, ss, 2.0, 4)


def test_length_one_is_structural_block():
    rng = np.random.default_rng(23)
    g = random_complex_graph(rng, 6, 0.4)
    ss = find_structural_set(g, 0.5)
    block = reduced_matrix_by_length(g, ss, 0.5, 1)
    idx = [v - 1 for v in ss.members]
    assert np.allclose(block, g.matrix()[np.ix_(idx, idx)])


def test_length_partition_sums_to_reduced():
    rng = np.random.default_rng(24)
    for _ in range(25):
        g = random_complex_graph(rng, int(rng.integers(3, 9)),
                                 float(rng.uniform(0.2, 0.5)))
        lam = complex(rng.normal(), rng.normal())
        ss = find_structural_set(g, lam)
        bs = enumerate_branches(g, ss)
        total = sum(reduced_matrix_by_length(g, ss, lam, p)
                    for p in range(1, len(ss.complement()) + 2))
        r = reduced_matrix(g, ss, lam)
        scale = max(1.0, float(np.abs(r.entries).max()))
        assert np.abs(total - r.entries).max() <= 1e-12 * scale


def test_stacked_lengths_match_single_length_sweeps():
    rng = np.random.default_rng(27)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        g = random_complex_graph(rng, n, float(rng.uniform(0.05, 0.4)))
        lam = complex(rng.normal(), rng.normal())
        ss = find_structural_set(g, lam)
        s, m = len(ss.members), len(ss.complement())
        terms = reduced_matrices_by_length(g, ss, lam)
        assert terms.shape == (m + 1, s, s)
        a, rows = g.matrix(), [v - 1 for v in ss.members]
        # the member terminals as explicit rows, against the sweep's own
        # identity start that the reductions use
        terminal = np.zeros((n, s))
        terminal[[v - 1 for v in ss.members], np.arange(s)] = 1.0
        x = _depth_sweep(g, ss, lam, terminal, by_length=True)
        for p in range(1, m + 2):
            single = reduced_matrix_by_length(g, ss, lam, p)
            assert np.array_equal(terms[p - 1], single)
            want = a[rows] @ x[p - 1] if p <= len(x) else np.zeros((s, s))
            assert np.array_equal(single, want)


def test_extended_three_cycle(three_cycle):
    ss = compute_depths(three_cycle, [1], 1.0)
    ext = extended_reduced_matrix(three_cycle, ss)
    expected = np.array([[1.0, 1.0, 1.0],
                         [1.0, 0.0, 1.0],
                         [1.0, 0.0, 0.0]])
    assert np.allclose(ext.entries, expected)


def test_extended_two_cycle(two_cycle):
    ss = compute_depths(two_cycle, [1], 1.0)
    ext = extended_reduced_matrix(two_cycle, ss)
    assert ext.entries[0, 0] == pytest.approx(1.0)  # via (1,2,1)
    assert ext.entries[1, 0] == pytest.approx(1.0)  # via (2,1)
    assert ext.entries[0, 1] == pytest.approx(1.0)  # via (1,2)
    # (2,1,2) is no branch: its interior vertex 1 sits in the structural set
    assert ext.entries[1, 1] == 0.0


def test_extended_full_set_is_adjacency(three_cycle):
    ss = compute_depths(three_cycle, [1, 2, 3], 1.0)
    ext = extended_reduced_matrix(three_cycle, ss)
    assert np.allclose(ext.entries, three_cycle.matrix().real)


def test_extended_requires_stochastic(path_graph):
    ss = compute_depths(path_graph, [1], 1.0)
    with pytest.raises(NonStochasticError):
        extended_reduced_matrix(path_graph, ss)


def test_stochastic_closure_columns_sum_to_one():
    # First-return probabilities over the structural set are exhaustive, so
    # each reduced column sums to 1; the same holds for the structural rows
    # of every extended column.
    rng = np.random.default_rng(25)
    for r in range(20):
        g = random_stochastic_graph(int(rng.integers(4, 12)), 2.5, rng)
        ss = find_structural_set(g, 1.0)
        bs = enumerate_branches(g, ss)
        red = reduced_matrix(g, ss, 1.0)
        assert np.allclose(red.entries.real.sum(axis=0), 1.0, atol=1e-10)
        ext = extended_reduced_matrix(g, ss)
        rows = [v - 1 for v in ss.members]
        assert np.allclose(ext.entries[rows, :].sum(axis=0), 1.0, atol=1e-10)


def _sweeps(graph, structural):
    """Every public call that sweeps ``graph`` over ``structural``."""
    return [lambda: reduced_matrix(graph, structural, 1.0),
            lambda: lift_eigenvector(graph, structural, 1.0, [1.0]),
            lambda: extended_columns(graph, structural),
            lambda: extended_reduced_matrix(graph, structural)]


def test_a_layering_without_the_graphs_vertices_is_refused():
    g = WeightedDigraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 0.5), (2, 1, 0.5)],
                                   stochastic=True)
    ss = compute_depths(g, [1], 1.0)
    grown = apply_ops(g, GraphDelta((DeltaOp.add_vertex(), DeltaOp.add_edge(3, 4, 1.0),
                                     DeltaOp.add_edge(4, 1, 0.5))))
    grown_ss = compute_depths(grown, [1], 1.0)
    assert reduced_matrix(grown, grown_ss).entries[0, 0] == pytest.approx(1.0)
    # unchecked, the first pair read 4/3: vertex 4, missing from the order,
    # took member 1's position
    for graph, structural in [(grown, ss), (g, grown_ss)]:
        for call in _sweeps(graph, structural):
            with pytest.raises(StructuralSetError, match="active vertices"):
                call()


def test_a_layering_whose_edges_do_not_go_shallower_is_refused():
    g = WeightedDigraph.from_edges(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 1, 0.5), (3, 1, 0.5)],
                                   stochastic=True)
    ss = compute_depths(g, [1], 1.0)
    assert ss.depth_of == {1: 0, 2: 1, 3: 1}
    # 2 -> 3 joins two vertices of one layer; the fresh set puts 2 a layer deeper
    same_layer = apply_ops(g, GraphDelta((DeltaOp.add_edge(2, 3, 1.0),)))
    fresh = compute_depths(same_layer, [1], 1.0)
    assert reduced_matrix(same_layer, fresh).entries[0, 0] == pytest.approx(1.0)
    # 3 -> 2 also closes 2 -> 3 -> 2, so {1} is no longer structural at all
    deeper = apply_ops(same_layer, GraphDelta((DeltaOp.add_edge(3, 2, 0.5),)))
    for graph, structural in [(same_layer, ss), (deeper, fresh)]:
        for call in _sweeps(graph, structural):
            with pytest.raises(StructuralSetError, match="own depth layer or a deeper one"):
                call()


def test_branchset_sequences_roundtrip(three_cycle):
    ss = compute_depths(three_cycle, [1], 1.0)
    bs = enumerate_branches(three_cycle, ss)
    rebuilt = BranchSet(tuple(Branch(tuple(s)) for s in bs.sequences()))
    assert rebuilt.branches == bs.branches


def _branch_sums(g, paths, lam, shape, index):
    out = np.zeros(shape, dtype=complex)
    for p in paths:
        out[index[p[0]], index[p[-1]]] += branch_weight(g, Branch(p), lam)
    return out


def _relative_gap(got, want):
    return float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))


def test_closed_form_matches_branch_sums():
    # Branch sums over exhaustively enumerated paths are the definition the
    # depth-order sweep is checked against.
    # The chain graphs give deep complements with tombstones between live slots.
    rng = np.random.default_rng(26)
    depths = []
    for t in range(46):
        g = (random_complex_graph(rng, int(rng.integers(3, 9)), float(rng.uniform(0.15, 0.5)))
             if t < 40 else
             chain_graph(rng, int(rng.integers(20, 41)), tombstones=int(rng.integers(1, 4))))
        lam = complex(rng.normal(), rng.normal())
        ss = find_structural_set(g, lam)
        depths.append(ss.max_depth)
        pos = {v: t for t, v in enumerate(ss.members)}
        s = len(ss.members)
        paths = [p for p in all_branches_bruteforce(g, ss.members)
                 if p[0] in pos and p[-1] in pos]
        want = _branch_sums(g, paths, lam, (s, s), pos)
        assert _relative_gap(reduced_matrix(g, ss, lam).entries, want) <= 1e-12
        for p in range(1, len(ss.complement()) + 2):
            want_p = _branch_sums(g, [q for q in paths if len(q) == p + 1], lam,
                                  (s, s), pos)
            got_p = reduced_matrix_by_length(g, ss, lam, p)
            assert _relative_gap(got_p, want_p) <= 1e-12
    for t in range(26):
        g = (random_stochastic_graph(int(rng.integers(4, 12)), 2.5, rng) if t < 20 else
             chain_graph(rng, int(rng.integers(20, 41)), tombstones=int(rng.integers(1, 4)),
                         stochastic=True))
        ss = find_structural_set(g, 1.0)
        depths.append(ss.max_depth)
        n = g.n_vertices
        index = {v: v - 1 for v in g.vertices()}
        want = _branch_sums(g, all_branches_bruteforce(g, ss.members), 1.0,
                            (n, n), index)
        got = extended_reduced_matrix(g, ss).entries
        assert _relative_gap(got, want.real) <= 1e-12
    assert max(depths[40:46]) >= 15 and max(depths[66:]) >= 15


def test_branch_counts_match_enumeration(three_cycle, path_graph):
    cases = [(three_cycle, compute_depths(three_cycle, [1], 1.0)),
             (path_graph, compute_depths(path_graph, [1], 1.0))]
    rng = np.random.default_rng(24)
    for _ in range(15):
        g = random_stochastic_graph(int(rng.integers(5, 30)), 2.5, rng)
        cases.append((g, find_structural_set(g, 1.0)))
    for _ in range(15):
        # loops on every vertex: the one-step loop branch counts, an
        # interior loop does not
        g = random_complex_graph(rng, int(rng.integers(3, 9)))
        cases.append((g, find_structural_set(g, complex(rng.normal(), rng.normal()))))
    for t in range(8):
        # deep complements, with tombstones between live vertices
        g = chain_graph(rng, int(rng.integers(20, 41)), tombstones=int(rng.integers(1, 4)),
                        stochastic=t % 2 == 1)
        cases.append((g, find_structural_set(g, 1.0 if t % 2 else complex(rng.normal(), 1))))
    state = StoredState.from_graph(random_stochastic_graph(20, 2.5, rng))
    grown = shrunk = 0
    while min(grown, shrunk) < 3:
        # states after updates that add or remove vertices
        try:
            new, _ = run_update(state, random_delta(state.graph, rng, 3))
        except DeltaError:
            continue
        grown += new.graph.n_vertices > state.graph.n_vertices
        shrunk += len(new.graph.removed) > len(state.graph.removed)
        state = new
        cases.append((state.graph, state.structural))
    assert max(ss.max_depth for _, ss in cases[32:40]) >= 15
    for g, ss in cases:
        bs = enumerate_branches(g, ss)
        got = branch_counts(g, ss)
        assert got == (len(bs), bs.m_statistic)
        assert got == branch_counts_closed_form(g, ss.members)
    for n in (300, 1000):
        # beyond enumeration's reach, against the dense closed form
        g = random_stochastic_graph(n, 2.5, rng)
        ss = find_structural_set(g, 1.0)
        got = branch_counts(g, ss)
        assert all(type(c) is int for c in got)
        assert got == branch_counts_closed_form(g, ss.members)
