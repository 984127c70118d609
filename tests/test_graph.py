import numpy as np
import pytest

from isoreduce import (NonStochasticError, StructuralSetError, WeightedDigraph,
                       compute_depths, find_structural_set, is_primitive,
                       nilpotency_index, random_stochastic_graph, validate_structural)
from oracles import (chain_graph, cycles_listed, depths_recursive, from_matrix_loop,
                     greedy_structural_members, nilpotency_dfs, primitive_wielandt,
                     random_complex_graph, weights_loop)


def test_graph_construction_and_queries(three_cycle):
    assert three_cycle.vertices() == (1, 2, 3)
    assert three_cycle.weight(1, 2) == 1.0
    assert three_cycle.weight(2, 1) == 0
    assert three_cycle.has_edge(3, 1)
    assert three_cycle.out_neighbors(1) == (2,)
    assert three_cycle.in_neighbors(1) == (3,)
    m = three_cycle.matrix()
    assert m[0, 1] == 1.0 and m[1, 0] == 0


def test_edge_lists_are_loop_free_slot_lists():
    rng = np.random.default_rng(91)
    m = random_complex_graph(rng, 8).matrix()
    m[4] = m[:, 4] = 0
    graphs = [chain_graph(rng, 12, tombstones=3), chain_graph(rng, 9, tombstones=2),
              random_complex_graph(rng, 7), WeightedDigraph.from_matrix(m, removed={5})]
    assert [bool(g.removed) for g in graphs] == [True, True, False, True]
    for g in graphs:
        i, j, _ = g.edge_arrays
        assert (i == j).any()
        edges = list(zip(i.tolist(), j.tolist()))
        forward, back = g.edge_lists
        assert len(forward) == len(back) == g.n_vertices
        for v in range(1, g.n_vertices + 1):
            assert forward[v - 1] == sorted(b - 1 for a, b in edges if a == v and b != v)
            assert back[v - 1] == sorted(a - 1 for a, b in edges if b == v and a != v)
            if v in g.removed:
                assert forward[v - 1] == back[v - 1] == []
            else:
                # the neighbour queries still list a loop
                assert g.out_neighbors(v) == tuple(sorted(b for a, b in edges if a == v))
                assert g.in_neighbors(v) == tuple(sorted(a for a, b in edges if b == v))


def test_vertex_queries_accept_only_integer_ids(three_cycle):
    assert not three_cycle.is_active(1.5)
    assert not three_cycle.is_active(2.0)
    assert not three_cycle.has_edge(1.0, 2)
    assert not three_cycle.has_edge(1, 2.0)
    # a bool is an int, but not a vertex id: True would read as vertex 1
    assert not three_cycle.is_active(True)
    assert not three_cycle.has_edge(True, 2) and not three_cycle.has_edge(3, True)
    assert three_cycle.is_active(np.int64(2))
    assert three_cycle.has_edge(np.int64(1), np.int32(2))
    tombstoned = WeightedDigraph(4, three_cycle.weights, removed={4})
    assert not tombstoned.is_active(4) and not tombstoned.is_active(0)


def test_constructors_reject_non_integer_ids():
    cycle = {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0}
    bad = [lambda: WeightedDigraph(3, {(1.9, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0},
                                   stochastic=True),
           lambda: WeightedDigraph.from_edges(3, [(1.5, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)]),
           lambda: WeightedDigraph.from_edges(3, [(1, 2, 1.0), (1.2, 2, 1.0)]),
           lambda: WeightedDigraph.from_edges(3, [(1, 2, 1.0), ("1", 2, 1.0)]),
           lambda: WeightedDigraph.from_edges(3, [(1, 2, 1.0), (None, 2, 1.0)]),
           lambda: WeightedDigraph(3.7, cycle),
           lambda: WeightedDigraph(-1, {}),
           # nor is a bool a vertex count
           lambda: WeightedDigraph(True, {}),
           lambda: WeightedDigraph.from_edges(np.True_, []),
           # a bool is no id, though Python counts True as 1
           lambda: WeightedDigraph(3, {(True, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0}),
           lambda: WeightedDigraph(3, {(np.True_, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0}),
           lambda: WeightedDigraph(4, {(2, 3): 1.0, (3, 4): 1.0, (4, 2): 1.0},
                                   removed={True}),
           lambda: WeightedDigraph(4, cycle, removed={4.5}),
           lambda: WeightedDigraph.from_matrix(np.eye(2), removed=[float("nan")])]
    for build in bad:
        with pytest.raises(ValueError):
            build()
    with pytest.raises(ValueError, match=r"duplicate edge \(1.0,2\)"):
        WeightedDigraph.from_edges(3, [(1, 2, 1.0), (1.0, 2, 1.0)])
    # an integer-valued float is still read as that integer
    g = WeightedDigraph(4.0, {(1.0, 2): 1.0, (2, 3.0): 1.0, (3, 1): 1.0}, removed={4.0})
    assert g == WeightedDigraph(4, cycle, removed={4})
    assert type(g.n_vertices) is int and g.removed == {4} and type(min(g.removed)) is int


def test_edge_arrays_build_the_graph_their_triples_build():
    rng = np.random.default_rng(11)
    g = random_stochastic_graph(9, 2.5, rng)
    i, j, w = g.edge_arrays
    back = rng.permutation(len(w))
    for args in ((i, j, w), (i[back], j[back], w[back]), (i.tolist(), j.tolist(), w.tolist())):
        built = WeightedDigraph.from_edge_arrays(9, *args, stochastic=True)
        assert built == g and built.weights == g.weights
        assert all(np.array_equal(a, b) for a, b in zip(built.edge_arrays, g.edge_arrays))
    cases = [((i[:-1], j, w), "unequal length"),
             ((i, j, w[:1]), "unequal length"),
             ((i, j > 4, w), "not bools"),
             ((i.astype(str), j, w), "must be numbers"),
             ((i + 0.5, j, w), "touches an inactive vertex"),
             ((np.append(i, i[3]), np.append(j, j[3]), np.append(w, 0.5)),
              rf"duplicate edge \({i[3]},{j[3]}\)"),
             ((i, j, np.where(np.arange(len(w)) == 2, 0.0, w)),
              rf"edge \({i[2]},{j[2]}\) stored with zero weight")]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            WeightedDigraph.from_edge_arrays(9, *args)
    # the first faulty edge in array order is named, whatever its fault
    with pytest.raises(ValueError, match=r"edge \(1,2\) stored with zero weight"):
        WeightedDigraph.from_edge_arrays(3, [1, 3, 1], [2, 4, 2], [0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=r"edge \(3,4\) touches an inactive vertex"):
        WeightedDigraph.from_edge_arrays(3, [3, 1, 1], [4, 2, 2], [1.0, 0.5, 0.5])


def test_zero_weight_and_bad_vertex_rejected():
    with pytest.raises(ValueError):
        WeightedDigraph.from_edges(2, [(1, 2, 0.0)])
    with pytest.raises(ValueError):
        WeightedDigraph.from_edges(2, [(1, 3, 1.0)])
    with pytest.raises(ValueError):
        WeightedDigraph.from_edges(2, [(1, 2, 0.5), (1, 2, 0.5)])


def test_stochastic_validation():
    with pytest.raises(NonStochasticError):
        WeightedDigraph.from_edges(2, [(1, 2, 1.0), (2, 1, 0.5)], stochastic=True)
    with pytest.raises(NonStochasticError):
        WeightedDigraph.from_edges(2, [(1, 2, 1.0), (2, 1, 1.0), (1, 1, 1.0)],
                                   stochastic=True)
    with pytest.raises(NonStochasticError):
        WeightedDigraph.from_edges(2, [(1, 2, 1.0 + 0.5j), (2, 1, 1.0)],
                                   stochastic=True)


@pytest.mark.parametrize("short, refused", [(5e-10, False), (-5e-10, False),
                                             (2e-9, True), (-2e-9, True)])
def test_column_sum_tolerance_from_every_builder(short, refused):
    # column 1 sums to 1 - short; vertex 4 is a tombstone with an empty column
    edges = [(1, 2, 1.0), (2, 1, 0.5), (3, 1, 0.5 - short), (1, 3, 1.0)]
    i, j, w = zip(*edges)
    m = np.zeros((4, 4))
    m[np.array(i) - 1, np.array(j) - 1] = w
    for build in (lambda: WeightedDigraph.from_matrix(m, stochastic=True, removed=[4]),
                  lambda: WeightedDigraph.from_edges(4, edges, stochastic=True, removed=[4]),
                  lambda: WeightedDigraph.from_edge_arrays(4, i, j, w, stochastic=True,
                                                           removed=[4])):
        if refused:
            with pytest.raises(NonStochasticError,
                               match=rf"column 1 sums to {1 - short:.9f}\d*, expected 1"):
                build()
        else:
            assert build().vertices() == (1, 2, 3)


def test_tombstones_and_compact():
    g = WeightedDigraph.from_edges(4, [(1, 2, 1.0), (2, 4, 1.0), (4, 1, 1.0)],
                                   removed=[3])
    assert g.vertices() == (1, 2, 4)
    assert g.n_active == 3
    compacted, mapping = g.compact()
    assert compacted.vertices() == (1, 2, 3)
    assert mapping == {1: 1, 2: 2, 4: 3}
    assert compacted.weight(2, 3) == 1.0
    with pytest.raises(ValueError):
        WeightedDigraph.from_edges(4, [(1, 3, 1.0)], removed=[3])


def test_tombstones_outside_the_vertex_range_are_refused():
    # a tombstone past the end once counted in n_active, so this periodic
    # 2-cycle read as one live vertex and passed as primitive
    two_cycle = {(1, 2): 1.0, (2, 1): 1.0}
    assert not is_primitive(WeightedDigraph(2, two_cycle, stochastic=True))
    for removed in ({9}, {0}, {3}, {-1, 1}):
        with pytest.raises(ValueError, match="tombstones"):
            WeightedDigraph(2, two_cycle, stochastic=True, removed=removed)
        with pytest.raises(ValueError, match="tombstones"):
            WeightedDigraph.from_matrix(np.array([[0, 1.0], [1.0, 0]]), removed=removed)


def test_validate_structural_three_cycle(three_cycle):
    assert validate_structural(three_cycle, [1], 1.0)
    assert validate_structural(three_cycle, [2], 1.0)
    with pytest.raises(ValueError):
        validate_structural(three_cycle, [], 1.0)


def test_validate_structural_loop_witness():
    g = WeightedDigraph.from_edges(
        3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (2, 2, 1.0)])
    result = validate_structural(g, [1], 1.0)
    assert not result
    assert result.vertex == 2
    assert validate_structural(g, [1], 2.0)


def test_validate_structural_cycle_witness():
    g = WeightedDigraph.from_edges(
        3, [(1, 2, 1.0), (2, 3, 1.0), (3, 2, 1.0), (3, 1, 1.0)])
    result = validate_structural(g, [1], 1.0)
    assert not result
    cyc = result.cycle
    assert cyc[0] == cyc[-1]
    assert 1 not in cyc
    for a, b in zip(cyc, cyc[1:]):
        assert g.has_edge(a, b)


def test_find_structural_set_examples(three_cycle, path_graph):
    ss = find_structural_set(three_cycle, 1.0)
    assert len(ss.members) == 1
    assert validate_structural(three_cycle, ss.members, 1.0)

    ss = find_structural_set(path_graph, 1.0)
    assert len(ss.members) == 1

    g = WeightedDigraph.from_edges(3, [(1, 1, 2.0), (2, 2, 2.0), (3, 3, 2.0),
                                       (1, 2, 1.0)])
    ss = find_structural_set(g, 2.0)
    assert ss.members == (1, 2, 3)
    assert ss.max_depth == 0


def test_compute_depths_examples(three_cycle, path_graph):
    ss = compute_depths(three_cycle, [1], 1.0)
    assert dict(ss.depth_of) == {1: 0, 3: 1, 2: 2}
    assert ss.max_depth == 2
    assert ss.depth_counts() == [1, 2, 3]
    assert ss.depth_sets()[0] == [1]
    assert ss.depth_sets()[2] == [1, 2, 3]

    full = compute_depths(three_cycle, [1, 2, 3], 1.0)
    assert full.max_depth == 0
    assert set(full.depth_of.values()) == {0}

    ss = compute_depths(path_graph, [1], 1.0)
    assert dict(ss.depth_of) == {1: 0, 2: 1, 3: 2, 4: 3}


def test_compute_depths_rejects_invalid(three_cycle):
    g = WeightedDigraph.from_edges(
        3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0), (2, 2, 1.0)])
    with pytest.raises(StructuralSetError) as info:
        compute_depths(g, [1], 1.0)
    assert info.value.vertex == 2
    for bad in (1.5, True):
        with pytest.raises(ValueError):
            compute_depths(three_cycle, [bad], 1.0)


def test_nilpotency_examples(three_cycle):
    assert nilpotency_index(three_cycle, [1]) == 2
    assert nilpotency_index(three_cycle, [1, 2, 3]) == 0
    g = WeightedDigraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0),
                                       (2, 2, 0.5)])
    assert nilpotency_index(g, [1]) is None
    assert nilpotency_index(g, [1, 2]) == 1


def test_nilpotency_checks_members_as_compute_depths_does(three_cycle):
    for bad in (99, 0, 1.5, True):
        with pytest.raises(ValueError, match="not an active vertex"):
            compute_depths(three_cycle, [bad], 1.0)
        with pytest.raises(ValueError, match="not an active vertex"):
            nilpotency_index(three_cycle, [bad])
    g = WeightedDigraph.from_edges(3, [(1, 2, 1.0), (2, 1, 1.0)], removed=[3])
    with pytest.raises(ValueError, match="not an active vertex"):
        nilpotency_index(g, [3])
    assert nilpotency_index(three_cycle, []) is None
    assert nilpotency_index(WeightedDigraph.from_edges(2, [(1, 2, 1.0)]), []) == 2


def test_nilpotency_matches_literal_matrix_powers():
    rng = np.random.default_rng(10)
    for _ in range(40):
        g = random_complex_graph(rng, int(rng.integers(3, 8)), 0.3, loops=False)
        members = find_structural_set(g, 0.0).members
        idx = nilpotency_index(g, members)
        comp = [v for v in g.vertices() if v not in set(members)]
        sub = g.matrix()[np.ix_([v - 1 for v in comp], [v - 1 for v in comp])]
        if idx is None:
            continue
        if idx == 0:
            assert len(comp) == 0
            continue
        power = np.linalg.matrix_power(sub, idx)
        assert np.abs(power).max() < 1e-12
        if idx > 1:
            prev = np.linalg.matrix_power(sub, idx - 1)
            assert np.abs(prev).max() > 1e-12


def test_structural_iff_nilpotent_on_loopfree_complements():
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = random_complex_graph(rng, int(rng.integers(3, 9)), 0.35, loops=False)
        n = g.n_vertices
        size = int(rng.integers(1, n + 1))
        members = sorted(rng.choice(g.vertices(), size=size, replace=False).tolist())
        lam = complex(rng.normal(), rng.normal())
        valid = bool(validate_structural(g, members, lam))
        nilp = nilpotency_index(g, members)
        diag_ok = all(abs(g.weight(v, v) - lam) > 1e-12
                      for v in g.vertices() if v not in set(members))
        assert valid == ((nilp is not None) and diag_ok)
        if valid:
            ss = compute_depths(g, members, lam)
            assert ss.max_depth == nilp


def test_depth_order_triangularizes_complement():
    # Sorting the complement by decreasing depth must make its adjacency
    # block strictly upper triangular.
    rng = np.random.default_rng(12)
    for _ in range(30):
        g = random_complex_graph(rng, int(rng.integers(4, 9)), 0.3, loops=False)
        ss = find_structural_set(g, 1.0)
        comp = sorted(ss.complement(), key=lambda v: (-ss.depth_of[v], v))
        sub = g.matrix()[np.ix_([v - 1 for v in comp], [v - 1 for v in comp])]
        assert np.abs(np.tril(sub)).max() == 0


def test_find_structural_set_always_valid():
    rng = np.random.default_rng(13)
    for _ in range(60):
        g = random_complex_graph(rng, int(rng.integers(3, 10)), float(rng.uniform(0.15, 0.6)))
        lam = complex(rng.normal(), rng.normal())
        ss = find_structural_set(g, lam)
        assert validate_structural(g, ss.members, lam)
        assert ss == compute_depths(g, ss.members, lam)


def test_from_matrix_matches_entry_loop():
    rng = np.random.default_rng(14)
    mats = [np.zeros((3, 3)), np.eye(2, dtype=bool), np.arange(9).reshape(3, 3) - 4,
            np.array([[0, 1 + 0j, 2 - 0j], [0.5j, 0, 0], [0, -0.0, 3 + 1e-300j]])]
    for _ in range(40):
        n = int(rng.integers(1, 9))
        mask = rng.random((n, n)) < 0.4
        real = rng.normal(size=(n, n)) * mask
        mats += [real, real + 1j * rng.normal(size=(n, n)) * mask * (rng.random((n, n)) < 0.5)]
    for m in mats:
        got, want = WeightedDigraph.from_matrix(m), from_matrix_loop(m)
        assert list(got.weights) == list(weights_loop(m))
        for key, w in weights_loop(m).items():
            assert type(got.weights[key]) is type(w) and got.weights[key] == w
        assert np.array_equal(got.matrix(), want.matrix())


def test_adjacency_dtype_follows_weights():
    real = [(1, 2, 0.5), (2, 1, 1.0), (1, 1, 2.0)]
    for g in (WeightedDigraph.from_edges(2, real),
              WeightedDigraph(2, {(1, 2): 1 + 0j, (2, 1): 3}),
              WeightedDigraph.from_matrix(np.array([[0, 1 + 0j], [2, 0]])),
              WeightedDigraph.from_matrix(np.eye(2, dtype=bool)),
              WeightedDigraph.from_matrix(np.arange(4).reshape(2, 2))):
        assert g.adjacency.dtype == np.float64
    for g in (WeightedDigraph.from_edges(2, real + [(2, 2, 1j)]),
              WeightedDigraph.from_matrix(np.array([[0, 1], [1e-300j, 0]]))):
        assert g.adjacency.dtype == np.complex128


def test_is_primitive_reads_the_active_block():
    rng = np.random.default_rng(41)
    graphs = [WeightedDigraph.from_edges(4, [(1, 2, 0.5), (2, 4, 1.0), (4, 1, 1.0), (4, 2, 0.5)],
                                         stochastic=True, removed=[3]),
              WeightedDigraph.from_edges(3, [(2, 2, 0.5)], removed=[1, 3]),
              WeightedDigraph.from_edges(3, [], removed=[1, 3])]
    for t in range(120):
        m = int(rng.integers(2, 10))
        if t % 3 == 0:
            # block-cyclic: every cycle length is a multiple of the period
            period = int(rng.integers(2, m + 1))
            cls = rng.permutation(np.arange(m) % period)
            block = (cls[None, :] - cls[:, None]) % period == 1
            first = np.flatnonzero(cls == 0)
            if t % 2 and len(first) > 1:
                block[first[0], first[1]] = True
        else:
            block = rng.random((m, m)) < rng.uniform(0.1, 0.6)
            np.fill_diagonal(block, False)
            for j in np.flatnonzero(~block.any(axis=0)):
                block[(j + 1 + int(rng.integers(m - 1))) % m, j] = True
        # 1-3 tombstones anywhere among the m + 3 slots, the first included
        removed = set((rng.choice(m + 3, size=int(rng.integers(1, 4)), replace=False) + 1).tolist())
        live = [v - 1 for v in range(1, m + 4) if v not in removed][:m]
        w = np.zeros((m + 3, m + 3))
        w[np.ix_(live, live)] = rng.uniform(0.1, 1.0, (m, m)) * block
        w /= np.maximum(w.sum(axis=0), 1e-300)
        g = WeightedDigraph.from_matrix(
            w, stochastic=True, removed=set(range(1, m + 4)) - {v + 1 for v in live})
        assert 1 <= len(g.removed) <= 3
        graphs.append(g)
    results = set()
    for g in graphs:
        want = primitive_wielandt(g.active_matrix()[0])
        assert is_primitive(g) == want
        results.add((want, g.n_active == 1))
    assert results == {(True, False), (False, False), (True, True), (False, True)}
    # the full block-cyclic supports (t % 6 == 0) are periodic
    assert not any(is_primitive(g) for g in graphs[3::6])


def _row_major_edges(m: np.ndarray) -> list[tuple]:
    """Nonzero entries of ``m`` as ``(i, j, w)``, row-major, w a float when real."""
    return [(i + 1, j + 1, complex(m[i, j]) if complex(m[i, j]).imag else float(m[i, j].real))
            for i, j in zip(*np.nonzero(m))]


def test_from_matrix_and_from_edges_agree():
    rng = np.random.default_rng(18)
    outcomes = set()
    for t in range(300):
        n = int(rng.integers(1, 7))
        m = rng.uniform(0.05, 1.0, (n, n)) * (rng.random((n, n)) < 0.5)
        stochastic = t % 2 == 0
        if stochastic:
            np.fill_diagonal(m, 0)
            m /= np.maximum(m.sum(axis=0), 1e-300)
        removed = [v for v in range(1, n + 1) if rng.random() < 0.2]
        if t % 3 == 0 and removed:
            m[:, np.array(removed) - 1] = 0
            m[np.array(removed) - 1, :] = 0
        fault = int(rng.integers(0, 8))
        i, j = rng.integers(0, n, 2)
        if fault == 1:
            m[i, j] = [np.nan, np.inf, -np.inf][t % 3]
        elif fault == 2:
            m = m + 1j * (rng.random((n, n)) < 0.2) * (m != 0)
        elif fault == 3:
            m[i, j] = 1.5
        elif fault == 4:
            m[i, i] = 0.5
        got, want = {}, {}
        for build, out in ((lambda: WeightedDigraph.from_matrix(
                                m, stochastic=stochastic, removed=removed), got),
                           (lambda: WeightedDigraph.from_edges(
                                n, _row_major_edges(m), stochastic=stochastic,
                                removed=removed), want)):
            try:
                g = build()
            except (ValueError, NonStochasticError) as exc:
                out["error"] = (type(exc), str(exc))
                continue
            out["weights"] = [(k, type(w), w) for k, w in g.weights.items()]
            out["adjacency"] = (g.adjacency.dtype, g.adjacency.tobytes())
        assert got == want
        kinds = ("inactive", "non-finite", "non-real", "outside", "loop", "sums")
        outcomes.add(next((k for k in kinds if k in got["error"][1]), None)
                     if "error" in got else got["adjacency"][0])
    assert outcomes == {*kinds, np.dtype(float), np.dtype(complex)}


def test_non_finite_weights_are_rejected():
    with pytest.raises(ValueError, match=r"edge \(1,2\) has non-finite weight nan"):
        WeightedDigraph.from_edges(2, [(1, 2, float("nan")), (2, 1, float("inf"))])
    with pytest.raises(ValueError, match=r"edge \(2,1\) has non-finite weight inf"):
        WeightedDigraph.from_edges(2, [(1, 2, 1.0), (2, 1, float("inf"))], stochastic=True)
    with pytest.raises(ValueError, match=r"edge \(1,2\) has non-finite weight"):
        WeightedDigraph.from_matrix([[0, np.nan], [1, 0]])
    with pytest.raises(ValueError, match=r"edge \(2,1\) has non-finite weight"):
        WeightedDigraph.from_matrix(np.array([[0, 1], [complex(1, np.inf), 0]]))


def test_graph_errors_name_their_fault():
    with pytest.raises(ValueError, match="inactive vertex"):
        WeightedDigraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0)], removed=[3])
    with pytest.raises(ValueError, match=r"edge \(2,1\) stored with zero weight"):
        WeightedDigraph.from_edges(2, [(1, 2, 1.0), (2, 1, 0.0), (1, 3, 1.0)])
    cases = [([(1, 2, 1.0), (2, 1, 1.0 + 0.5j)], r"edge \(2,1\) has non-real weight"),
             ([(1, 2, 1.5), (2, 1, 1.0)], r"edge \(1,2\) weight 1.5 outside \(0, 1\]"),
             ([(1, 2, 1.0), (1, 1, 1.0)], r"may not contain loop \(1,1\)"),
             ([(1, 2, 1.0), (2, 1, 0.5)], r"column 1 sums to 0.5, expected 1")]
    for edges, message in cases:
        with pytest.raises(NonStochasticError, match=message):
            WeightedDigraph.from_edges(2, edges, stochastic=True)


def test_adjacency_is_read_only_and_matrix_a_copy():
    g = WeightedDigraph.from_edges(3, [(1, 2, 1.0), (2, 1, 1.0)], stochastic=True,
                                   removed=[3])
    assert g.vertices() == (1, 2)
    assert g.out_neighbors(1) == (2,) and g.in_neighbors(1) == (2,)
    with pytest.raises(ValueError):
        g.adjacency[0, 0] = 1.0
    m = g.matrix()
    m[0, 0] = 1.0
    assert g.adjacency[0, 0] == 0 and g.active_matrix()[0].shape == (2, 2)


def test_compute_depths_matches_recursive_definition():
    rng = np.random.default_rng(15)
    kinds = set()
    deepest = 0
    for t in range(360):
        if t < 300:
            g = random_complex_graph(rng, int(rng.integers(1, 10)), float(rng.uniform(0.1, 0.5)))
            size = int(rng.integers(1, len(g.vertices()) + 1))
        else:
            # deep complements, with tombstones between live slots
            g = chain_graph(rng, int(rng.integers(10, 41)), tombstones=int(rng.integers(0, 4)))
            size = int(rng.integers(1, 4))
        ids = g.vertices()
        members = sorted(rng.choice(ids, size=size, replace=False).tolist())
        loop_vertex = ids[int(rng.integers(len(ids)))]
        lam = (g.weight(loop_vertex, loop_vertex) if rng.random() < 0.3
               else complex(rng.normal(), rng.normal()))
        if t >= 300 and t % 2:
            members = list(find_structural_set(g, lam).members)
        try:
            ss = compute_depths(g, members, lam)
        except StructuralSetError as exc:
            if exc.cycle is not None:
                kinds.add("cycle")
                assert exc.cycle[0] == exc.cycle[-1] and len(exc.cycle) > 2
                assert not set(exc.cycle) & set(members)
                assert all(g.has_edge(a, b) for a, b in zip(exc.cycle, exc.cycle[1:]))
                assert exc.cycle == cycles_listed(g, set(members))[0]
            else:
                kinds.add("loop")
                assert exc.vertex not in members
                assert abs(g.weight(exc.vertex, exc.vertex) - lam) <= 1e-12
            assert not validate_structural(g, members, lam)
            continue
        kinds.add("valid")
        want = depths_recursive(g, members)
        assert dict(ss.depth_of) == want and list(ss.depth_of) == list(g.vertices())
        assert ss.max_depth == max(want.values())
        # the stored layering: members, then each depth layer, each ascending
        order, cut = ss.order, ss.cut
        assert sorted(order) == list(g.vertices())
        assert ss.members == order[:cut[0]] == tuple(sorted(members))
        assert all(lo < hi for lo, hi in zip(cut, cut[1:]))
        layers = [order[lo:hi] for lo, hi in zip((0,) + cut, cut)]
        assert all(list(layer) == sorted(layer) for layer in layers)
        assert all(want[v] == d for d, layer in enumerate(layers) for v in layer)
        by_depth = range(ss.max_depth + 1)
        assert ss.depth_counts() == [sum(d <= k for d in want.values()) for k in by_depth]
        assert ss.depth_sets() == [[v for v, d in want.items() if d <= k] for k in by_depth]
        assert ss.complement() == tuple(v for v, d in want.items() if d)
        if not any(g.has_edge(v, v) for v in ss.complement()):
            assert nilpotency_index(g, members) == ss.max_depth
        assert validate_structural(g, members, lam)
        deepest = max(deepest, ss.max_depth)
    assert kinds == {"cycle", "loop", "valid"}
    assert deepest >= 30


def test_find_structural_set_matches_listing_greedy():
    rng = np.random.default_rng(16)
    for t in range(200):
        n = int(rng.integers(1, 25))
        g = random_complex_graph(rng, n, float(rng.uniform(0.05, 0.5)), loops=t % 2 == 0)
        v = g.vertices()[int(rng.integers(n))]
        lam = g.weight(v, v) if t % 4 == 0 else complex(rng.normal(), rng.normal())
        found = find_structural_set(g, lam)
        assert found.members == greedy_structural_members(g, lam)
        assert found == compute_depths(g, found.members, lam)
        assert dict(found.depth_of) == depths_recursive(g, found.members)
    # benchmark-sized stochastic draws, and chains whose tombstones sit
    # between live slots and whose greedy leaves long dead-end tails
    graphs = [(random_stochastic_graph(int(rng.integers(60, 81)), 2.5, rng), 1.0)
              for _ in range(6)]
    for t in range(12):
        g = chain_graph(rng, int(rng.integers(30, 81)), tombstones=int(rng.integers(1, 4)),
                        chords=int(rng.integers(2, 8)), ups=int(rng.integers(1, 6)),
                        stochastic=t % 2 == 1)
        graphs.append((g, 1.0 if g.stochastic else complex(rng.normal(), rng.normal())))
    # acyclic graphs, loops and tombstones among them: no vertex is forced,
    # so the first vertex is the only member
    for t in range(12):
        m = np.triu(random_complex_graph(rng, int(rng.integers(2, 12)), 0.4).matrix())
        removed = [1 + t % len(m)] if t % 3 == 0 else []
        for v in removed:
            m[v - 1] = m[:, v - 1] = 0
        graphs.append((WeightedDigraph.from_matrix(m, removed=removed),
                       complex(rng.normal(), rng.normal())))
    for g, lam in graphs:
        found = find_structural_set(g, lam)
        assert found.members == greedy_structural_members(g, lam)
        assert found == compute_depths(g, found.members, lam)
        assert dict(found.depth_of) == depths_recursive(g, found.members)


def test_nilpotency_matches_dfs():
    rng = np.random.default_rng(17)
    seen = set()
    for t in range(200):
        g = random_complex_graph(rng, int(rng.integers(1, 10)), float(rng.uniform(0.1, 0.5)),
                                 loops=t % 3 == 0)
        ids = g.vertices()
        members = rng.choice(ids, size=int(rng.integers(0, len(ids) + 1)), replace=False)
        idx = nilpotency_index(g, members.tolist())
        assert idx == nilpotency_dfs(g, members.tolist())
        seen.add(idx is None)
    assert seen == {True, False}
