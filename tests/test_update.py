import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoreduce import (CostReport, DeltaError, DeltaOp, GraphDelta, NotPrimitiveError,
                       StoredState, UpdateSession, WeightedDigraph, apply_ops, branch_counts,
                       compute_depths, enumerate_branches, extended_columns,
                       extended_reduced_matrix, find_structural_set, random_delta,
                       random_stochastic_graph, run_update, scratch_equivalent, simplex_bound)
from isoreduce.io import load_state, save_state
from isoreduce import update as update_module
from isoreduce.update import _lift_full, _reaches
from oracles import (column_changes, dominant_unit_vector, edge_lists_derived,
                     extended_columns_closed_form, lift_full_embedded, promotion_candidates,
                     promotion_rule, weights_loop)


def cycle_state(**kw) -> StoredState:
    g = WeightedDigraph.from_edges(
        3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)], stochastic=True)
    return StoredState.from_graph(g, assume_primitive=True, **kw)


def chorded_cycle() -> WeightedDigraph:
    """The 3-cycle with the chord 1 -> 3: cycles of lengths 2 and 3, so
    primitive."""
    return WeightedDigraph.from_edges(
        3, [(1, 2, 1.0), (2, 3, 0.5), (3, 1, 1.0), (1, 3, 0.5)], stochastic=True)


# -- step 1: matrix edits ----------------------------------------------------


def test_apply_ops_renormalizes_column(three_cycle):
    g2 = apply_ops(three_cycle, GraphDelta((DeltaOp.add_edge(3, 2, 0.5),)))
    assert g2.weight(1, 2) == pytest.approx(2 / 3)
    assert g2.weight(3, 2) == pytest.approx(1 / 3)
    assert g2.weight(2, 3) == 1.0
    assert g2.stochastic


def test_apply_ops_dangling_column_rejected(three_cycle):
    with pytest.raises(DeltaError):
        apply_ops(three_cycle, GraphDelta((DeltaOp.remove_edge(3, 1),)))


def test_apply_ops_vertex_add_is_atomic(three_cycle):
    bare = GraphDelta((DeltaOp.add_vertex(),))
    with pytest.raises(DeltaError):
        apply_ops(three_cycle, bare)
    wired = GraphDelta((DeltaOp.add_vertex(),
                        DeltaOp.add_edge(1, 4, 0.5),
                        DeltaOp.add_edge(4, 2, 1.0)))
    g2 = apply_ops(three_cycle, wired)
    assert g2.n_vertices == 4
    # column 2 now splits between its old in-edge and the new one
    assert g2.weight(1, 2) == pytest.approx(0.5)
    assert g2.weight(4, 2) == pytest.approx(0.5)
    assert g2.weight(1, 4) == 1.0


def test_apply_ops_reference_errors(three_cycle):
    # the 3-cycle again with a tombstone at 4, so that 5 is n + 1
    tombstoned = WeightedDigraph(4, three_cycle.weights, stochastic=True, removed={4})
    ops = [DeltaOp.remove_edge(1, 3), DeltaOp.add_edge(1, 2, 0.5),
           DeltaOp.add_edge(1, 9, 0.5), DeltaOp.add_edge(2, 2, 0.5),
           DeltaOp.add_edge(1, 3, -0.5), DeltaOp.remove_vertex(9),
           DeltaOp.add_edge(2, True, 0.5)]
    # below the range, wrapping around to the last rows, past the end, a
    # tombstone, not an integer, a bool (which would read as vertex 1)
    for bad in (0, -1, 5, 4, 1.5, True):
        ops += [DeltaOp.add_edge(bad, 1, 0.5), DeltaOp.add_edge(1, bad, 0.5),
                DeltaOp.remove_edge(bad, 1), DeltaOp.remove_edge(1, bad),
                DeltaOp.remove_vertex(bad)]
    for graph in (three_cycle, tombstoned):
        weights, adjacency = dict(graph.weights), graph.matrix()
        for op in ops:
            with pytest.raises(DeltaError):
                apply_ops(graph, GraphDelta((op,)))
            assert graph.weights == weights and np.array_equal(graph.adjacency, adjacency)


def test_apply_ops_refuses_a_graph_with_a_non_real_weight():
    g = WeightedDigraph.from_edges(3, [(1, 2, 1 + 0.5j), (2, 3, 1.0), (3, 1, 1.0), (1, 3, 2j)])
    with pytest.raises(DeltaError, match=r"edge \(1,2\) has non-real weight"):
        apply_ops(g, GraphDelta((DeltaOp.add_edge(2, 1, 1.0),)))
    # only the weight (3, 1) is non-real, and it is named
    g = WeightedDigraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1j), (2, 1, 0.5)])
    for delta in (GraphDelta(()), GraphDelta((DeltaOp.remove_edge(3, 1),))):
        with pytest.raises(DeltaError, match=r"edge \(3,1\)"):
            apply_ops(g, delta)


def test_apply_ops_accepts_numpy_integer_ids(three_cycle):
    ops = (DeltaOp.add_edge(3, 2, 0.5), DeltaOp.add_edge(2, 1, 0.5),
           DeltaOp.remove_edge(3, 1))
    as_numpy = tuple(DeltaOp(op.kind, *map(np.int64, (op.i, op.j)), w=op.w) for op in ops)
    assert apply_ops(three_cycle, GraphDelta(as_numpy)) == apply_ops(three_cycle, GraphDelta(ops))
    assert compute_depths(three_cycle, [np.int64(1)], 1.0) == compute_depths(three_cycle, [1], 1.0)


def lists_hold(graph: WeightedDigraph) -> bool:
    """Whether a graph's edge lists are those its edge arrays give."""
    return list(graph.edge_lists) == edge_lists_derived(graph)


def test_edited_graphs_inherit_and_patch_their_base_lists():
    """330 seeded deltas over all four op kinds, on fresh graphs and on
    graphs with tombstones: every committed graph's lists are those its
    edge arrays give, and its base graph's lists are untouched, also when
    a delta is refused mid-delta or by the validator."""
    rng = np.random.default_rng(127)
    committed, refused = Counter(), Counter()
    shared = tombstoned = 0
    for t in range(330):
        if t % 55 == 0:
            state = StoredState.from_graph(random_stochastic_graph(int(rng.integers(10, 25)),
                                                                   2.5, rng))
        g = state.graph
        ids, n = g.vertices(), g.n_vertices
        tails, heads, _ = g.edge_arrays
        k = int(rng.integers(len(tails)))
        src, dst = (int(v) for v in rng.choice(ids, 2, replace=False))
        degree = [len(f) + len(b) for f, b in zip(*g.edge_lists)]
        case = t % 6
        if case == 0:
            ops = list(random_delta(g, rng, 3).ops)
        elif case == 1:
            # removed and added again in one delta
            i, j = int(tails[k]), int(heads[k])
            ops = [DeltaOp.remove_edge(i, j), DeltaOp.add_edge(i, j, 0.5)]
        elif case == 2:
            ops = [DeltaOp.remove_vertex(degree.index(max(degree)) + 1)]
        elif case == 3:
            ops = [DeltaOp.add_vertex(), DeltaOp.add_edge(src, n + 1, 0.4),
                   DeltaOp.add_edge(n + 1, dst, 0.7)]
        elif case == 4:
            # valid edits, then one the editor refuses
            ops = list(random_delta(g, rng, 2).ops) + [DeltaOp.remove_edge(src, src)]
        else:
            # the new vertex's column stays empty, so the validator refuses
            ops = [DeltaOp.remove_edge(int(tails[k]), int(heads[k])), DeltaOp.add_vertex(),
                   DeltaOp.add_edge(n + 1, dst, 0.5)]
        try:
            new, _ = run_update(state, GraphDelta(ops))
        except DeltaError as exc:
            refused["validator" if "non-stochastic" in str(exc) else case] += 1
            assert lists_hold(g)
            continue
        g2 = new.graph
        assert lists_hold(g2) and lists_hold(g)
        shared += sum(a is b for a, b in zip(g.edge_lists[0], g2.edge_lists[0]))
        committed[case] += 1
        tombstoned += bool(g2.removed)
        state = new
    # every commit kind, the highest-degree removal too, and both refusals
    assert sorted(committed) == [0, 1, 2, 3] and sum(committed.values()) >= 150, committed
    assert refused[4] == 55 and refused["validator"] >= 55 and tombstoned >= 55, refused
    # untouched slots are inherited, not copied
    assert shared > 0


def test_edge_lost_to_renormalization_underflow_leaves_the_lists():
    # 1 -> 3 weighs 1e-300; a weight of 1e308 into column 3 rounds it to 0
    g = WeightedDigraph.from_edges(4, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1e-300), (3, 4, 1.0),
                                       (4, 1, 1.0)], stochastic=True)
    g2 = apply_ops(g, GraphDelta((DeltaOp.add_edge(4, 3, 1e308),)))
    assert not g2.has_edge(1, 3) and g2.has_edge(4, 3)
    assert lists_hold(g2) and lists_hold(g)
    assert g2.edge_lists[0][0] == [1]


def test_remove_vertex_renormalizes_former_targets():
    g = WeightedDigraph.from_edges(
        4, [(1, 2, 0.5), (4, 2, 0.5), (2, 3, 1.0), (3, 1, 1.0), (1, 4, 1.0)],
        stochastic=True)
    g2 = apply_ops(g, GraphDelta((DeltaOp.remove_vertex(4),)))
    assert g2.removed == frozenset({4})
    assert g2.weight(1, 2) == pytest.approx(1.0)
    assert g2.vertices() == (1, 2, 3)


# -- step 2: the promotion rule ----------------------------------------------


def test_promotion_rule_cases(three_cycle):
    ss = compute_depths(three_cycle, [1], 1.0)
    branches = enumerate_branches(three_cycle, ss)
    # endpoint in the structural set: no promotion
    assert promotion_rule([1], branches, 1, 3) is None
    assert promotion_rule([1], branches, 2, 1) is None
    # both outside, connecting branch exists: promote the edge's source
    assert promotion_rule([1], branches, 3, 2) == 3
    # both outside, no branch from 2 back to 3 after swapping roles
    assert promotion_rule([1], branches, 2, 3) is None


# -- steps 3-4: branch and matrix patching ------------------------------------


def test_promotion_update_matches_hand_computation():
    state = cycle_state()
    new_state, report = run_update(
        state, GraphDelta((DeltaOp.add_edge(3, 2, 0.5),)), ell=2000)
    assert new_state.structural.members == (1, 3)
    got = sorted(b.vertices for b in new_state.branches.branches)
    assert got == [(1, 2), (1, 2, 3), (2, 3), (3, 1), (3, 2), (3, 2, 3)]
    expected = np.array([[0.0, 2 / 3, 2 / 3],
                         [0.0, 0.0, 1.0],
                         [1.0, 1 / 3, 1 / 3]])
    assert np.abs(new_state.extended.entries - expected).max() < 1e-15
    assert np.abs(new_state.columns - expected[:, [0, 2]]).max() < 1e-15
    assert scratch_equivalent(new_state)
    assert not report.structural_fallback
    # E[:, 1] moves from (1, 1, 1) in rows 1 and 2; the promoted E[:, 3]
    # is new in all three rows
    assert (report.touched_branches, report.weight_updates) == (3, 5)


def test_plain_edge_addition_from_structural_vertex():
    state = cycle_state()
    new_state, _ = run_update(
        state, GraphDelta((DeltaOp.add_edge(1, 3, 0.25),)), ell=2000)
    assert new_state.structural.members == (1,)
    got = sorted(b.vertices for b in new_state.branches.branches)
    assert got == [(1, 2), (1, 2, 3), (1, 2, 3, 1), (1, 3), (1, 3, 1),
                   (2, 3), (2, 3, 1), (3, 1)]
    assert scratch_equivalent(new_state)


def test_edge_removal_deletes_exactly_its_branches():
    g = WeightedDigraph.from_edges(
        4, [(1, 2, 1.0), (2, 3, 0.7), (1, 3, 0.3), (3, 1, 0.5), (3, 4, 1.0),
            (4, 1, 0.5)], stochastic=True)
    state = StoredState.from_graph(g, structural=[1])
    before = {b.vertices for b in state.branches.branches}
    new_state, _ = run_update(state, GraphDelta((DeltaOp.remove_edge(1, 3),)),
                              ell=2000)
    after = {b.vertices for b in new_state.branches.branches}
    assert before - after == {(1, 3), (1, 3, 1), (1, 3, 4), (1, 3, 4, 1)}
    assert scratch_equivalent(new_state)


def test_empty_delta_is_identity():
    state = StoredState.from_graph(chorded_cycle(), ell=3000, tol=1e-15)
    new_state, report = run_update(state, GraphDelta(()), ell=3000, tol=1e-15)
    assert new_state.structural.members == state.structural.members
    assert new_state.branches.branches == state.branches.branches
    assert np.array_equal(new_state.columns, state.columns)
    assert np.abs(new_state.full_vector - state.full_vector).max() < 1e-12
    assert report.p == 0
    assert report.step3_cost == 0 and report.step4_cost == 0
    assert report.touched_branches == report.weight_updates == 0


def test_rejected_delta_leaves_state_untouched():
    state = cycle_state()
    graph_before = state.graph
    cols_before = state.columns.copy()
    with pytest.raises(DeltaError):
        run_update(state, GraphDelta((DeltaOp.add_edge(3, 2, 0.5),
                                      DeltaOp.remove_edge(9, 9))))
    assert state.graph is graph_before
    assert np.array_equal(state.columns, cols_before)


def test_primitivity_break_rejected():
    g = WeightedDigraph.from_edges(
        4, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 0.5), (3, 4, 1.0), (4, 1, 0.5)],
        stochastic=True)
    state = StoredState.from_graph(g, structural=[1], assume_primitive=True)
    # removing (2,3) leaves vertex 2 with no outgoing edge
    with pytest.raises(DeltaError):
        run_update(state, GraphDelta((DeltaOp.remove_edge(2, 3),)))


# -- steps 5-6 and the oracle ------------------------------------------------


def test_refresh_matches_dense_oracle_after_edge_change():
    rng = np.random.default_rng(51)
    g = random_stochastic_graph(12, 2.5, rng)
    state = StoredState.from_graph(g, ell=4000, tol=1e-15)
    delta = random_delta(g, rng, 1)
    new_state, _ = run_update(state, delta, ell=4000, tol=1e-15)
    m, ids = new_state.graph.active_matrix()
    oracle = dominant_unit_vector(m.real)
    stored = np.array([new_state.full_vector[v - 1] for v in ids])
    assert np.abs(oracle - stored).max() < 1e-8


def test_refresh_matches_dense_oracle_after_promotion():
    rng = np.random.default_rng(52)
    for attempt in range(20):
        g = random_stochastic_graph(10, 2.2, rng)
        state = StoredState.from_graph(g, ell=4000, tol=1e-15)
        cands = promotion_candidates(state)
        if not cands:
            continue
        i, j = cands[0]
        new_state, _ = run_update(
            state, GraphDelta((DeltaOp.add_edge(i, j, 0.5),)), ell=4000, tol=1e-15)
        assert len(new_state.structural.members) == len(state.structural.members) + 1
        m, ids = new_state.graph.active_matrix()
        oracle = dominant_unit_vector(m.real)
        stored = np.array([new_state.full_vector[v - 1] for v in ids])
        assert np.abs(oracle - stored).max() < 1e-8
        assert scratch_equivalent(new_state)
        return
    pytest.fail("no promotion candidate found in 20 attempts")


def test_incremental_equals_scratch_randomized():
    rng = np.random.default_rng(53)
    for trial in range(25):
        trial_rng = np.random.default_rng([53, trial])
        g = random_stochastic_graph(int(trial_rng.integers(6, 16)), 2.5, trial_rng)
        state = StoredState.from_graph(g, ell=1000, tol=1e-13)
        delta = random_delta(g, trial_rng, int(trial_rng.integers(1, 4)))
        new_state, report = run_update(state, delta, ell=1000)
        report.validate()
        assert scratch_equivalent(new_state)


def test_lift_from_extended_matrix_matches_embedded_lift():
    rng = np.random.default_rng(45)
    removed = 0
    for _ in range(30):
        g = random_stochastic_graph(int(rng.integers(4, 30)), 2.5, rng)
        for v in rng.permutation(g.vertices())[:3].tolist():
            try:
                g = apply_ops(g, GraphDelta((DeltaOp.remove_vertex(v),)))
            except DeltaError:
                continue
        removed += len(g.removed)
        ss = find_structural_set(g, 1.0)
        u_s = rng.uniform(0.1, 1.0, len(ss.members))
        got = _lift_full(ss.members, extended_columns(g, ss), u_s)
        want = lift_full_embedded(g, ss, u_s)
        assert np.abs(got - want).max() <= 1e-12
        assert not got[[v - 1 for v in g.removed]].any()
    assert removed > 0


def test_extended_columns_match_full_matrix_and_closed_form(tmp_path):
    removed = added = 0
    for seed in range(6):
        rng = np.random.default_rng([61, seed])
        n0 = int(rng.integers(8, 40))
        states = [StoredState.from_graph(random_stochastic_graph(n0, 2.5, rng))]
        while len(states) < 9:
            try:
                states.append(run_update(states[-1], random_delta(states[-1].graph, rng, 3))[0])
            except DeltaError:
                continue
        for state in states:
            g, ss = state.graph, state.structural
            idx = [v - 1 for v in ss.members]
            cols = extended_columns(g, ss)
            assert np.array_equal(cols, state.columns)
            assert np.abs(cols - extended_reduced_matrix(g, ss).entries[:, idx]).max() <= 1e-14
            assert np.abs(cols - extended_columns_closed_form(g, ss.members)).max() <= 1e-14
        removed += bool(state.graph.removed)
        added += state.graph.n_vertices > n0
        path = str(tmp_path / f"st{seed}")
        save_state(state, path)
        assert np.array_equal(load_state(path).columns, state.columns)
    assert removed and added


def test_report_counts_changes_on_first_read(monkeypatch):
    calls = []

    def recording(**fields):
        counter = fields["count"]
        fields["count"] = lambda: calls.append(counter) or counter()
        return CostReport(**fields)

    monkeypatch.setattr(update_module, "CostReport", recording)
    rng = np.random.default_rng(62)
    state = StoredState.from_graph(random_stochastic_graph(30, 2.5, rng))
    kinds, promotions, fallbacks, checked = set(), 0, 0, 0
    while checked < 24:
        delta = random_delta(state.graph, rng, 3)
        with monkeypatch.context() as mp:
            if checked % 3 == 2:
                # with the promotion search off, an edge that closes a cycle
                # outside the set forces a fresh structural-set search
                mp.setattr(update_module, "_reaches", lambda graph, start, goal, avoid: False)
            try:
                new, report = run_update(state, delta)
            except DeltaError:
                continue
        assert calls == [] and report.count is not None
        want = column_changes(state, new)
        assert (report.touched_branches, report.weight_updates) == want
        assert report.to_dict()["measured"] == {"touched_branches": want[0],
                                                "weight_updates": want[1]}
        assert len(calls) == 1 and report.count is None
        calls.clear()
        kinds |= {op.kind for op in delta.ops}
        grew = set(new.structural.members) - set(state.structural.members)
        fallbacks += report.structural_fallback
        promotions += bool(grew) and not report.structural_fallback
        state = new
        checked += 1
    assert kinds == set(DeltaOp.KINDS) and promotions and fallbacks


def test_report_counts_ignore_roundoff():
    # an update that changes nothing, against base columns one ulp off
    rng = np.random.default_rng(63)
    for _ in range(5):
        state = StoredState.from_graph(random_stochastic_graph(40, 2.5, rng))
        nudged = dataclasses.replace(state, columns=np.nextafter(state.columns,
                                                                 2 * state.columns))
        assert (nudged.columns != state.columns).any()
        new, report = run_update(nudged, GraphDelta(()))
        assert (report.touched_branches, report.weight_updates) == (0, 0)
        assert column_changes(nudged, new) == (0, 0)


def test_session_requires_apply_before_refresh():
    session = UpdateSession(StoredState.from_graph(chorded_cycle()))
    with pytest.raises(RuntimeError):
        session.refresh()
    session.apply(GraphDelta(()))
    with pytest.raises(RuntimeError):
        session.commit()


def test_stored_state_consistency_report():
    state = cycle_state(ell=3000, tol=1e-15)
    dev = state.consistency_report()
    assert dev["structural"] == 0.0
    assert dev["extended"] == 0.0
    assert dev["full_vector"] < 1e-12


def test_committed_vectors_meet_residual_gate_at_paper_settings():
    # the paper's experiment: n=60, degree 2.5, p=3, ell=10; ell charges the
    # model only, so every committed vector is a converged exact solve
    for seed in range(20):
        rng = np.random.default_rng([seed, 61])
        g = random_stochastic_graph(60, 2.5, rng)
        state = StoredState.from_graph(g)
        new_state, _ = run_update(state, random_delta(g, rng, 3), ell=10)
        for st in (state, new_state):
            assert st.eig_converged
            m, ids = st.graph.active_matrix()
            full = st.full_vector[[v - 1 for v in ids]]
            assert np.abs(m.real @ full - full).sum() <= 1e-14


def test_reducible_reduced_block_raises_not_primitive():
    # two disjoint 2-cycles: E[S, S] is the 2x2 identity, with no unique
    # stationary vector
    g = WeightedDigraph.from_edges(
        4, [(1, 2, 1.0), (2, 1, 1.0), (3, 4, 1.0), (4, 3, 1.0)], stochastic=True)
    with pytest.raises(NotPrimitiveError):
        StoredState.from_graph(g, assume_primitive=True)


# -- cost model ----------------------------------------------------------------


def test_cost_report_from_reported_instance_measurements():
    # headline figures: 60 nodes, structural size 14, depth 13, branch
    # statistic 1125, three modifications, ten iterations
    report = CostReport.from_measurements(n=60, s=14, k=13, m=1125, ell=10, p=3)
    report.validate()
    assert report.baseline == 10 * 60 ** 3
    assert report.step3_cost == 3 * 14 * 1125
    assert report.step5_cost == 10 * 14 ** 3
    assert report.step6_cost <= (13 + 3) * 60 ** 2 / 2
    assert 0.0 < report.savings < 1.0
    d = report.to_dict()
    assert d["measurements"]["m"] == 1125
    assert d["costs"]["baseline"] == report.baseline


def test_cost_report_validate_catches_violations():
    # step 6 must be at most k'*N^2/2 = 50; step 5 is ell*s'^3 = 80 by derivation
    report = CostReport(n=10, s=2, s_new=2, k=1, k_new=1, ell=10, p=1,
                        step6_cost=1e6, count=lambda: (5, 0, 0))
    with pytest.raises(ValueError):
        report.validate()
    assert report.step3_cost == report.step4_cost == 1 * 2 * 5
    assert report.step5_cost == 80.0


def test_cost_report_refuses_ell_below_one():
    for ell in (0, -5):
        with pytest.raises(ValueError, match="ell must be positive"):
            CostReport(n=10, s=2, s_new=2, k=1, k_new=1, ell=ell, p=1,
                       step6_cost=0.0, count=lambda: (5, 0, 0))
    g = WeightedDigraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 0.5), (2, 1, 0.5)],
                                   stochastic=True)
    delta = GraphDelta((DeltaOp.add_edge(1, 3, 0.5),))
    with pytest.raises(ValueError, match="ell must be positive"):
        run_update(StoredState.from_graph(g), delta, ell=0)


def count_calls(monkeypatch, name: str) -> list:
    """Record each call of the package function ``name``, wherever a module
    of the package binds it."""
    calls = []
    for mod_name, mod in list(sys.modules.items()):
        fn = getattr(mod, name, None)
        if mod_name.split(".")[0] == "isoreduce" and callable(fn):
            def counted(*args, _fn=fn, **kwargs):
                calls.append(name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_update_path_defers_branch_count_and_full_sweep(tmp_path, monkeypatch):
    counts = count_calls(monkeypatch, "branch_counts")
    sweeps = count_calls(monkeypatch, "extended_reduced_matrix")
    rng = np.random.default_rng(58)
    state = StoredState.from_graph(random_stochastic_graph(30, 2.5, rng))
    updates, promotions = [], 0
    while len(updates) < 12:
        try:
            new_state, report = run_update(state, random_delta(state.graph, rng, 3))
        except DeltaError:
            continue
        promotions += len(new_state.structural.members) > len(state.structural.members)
        updates.append((state, report))
        state = new_state
    save_state(state, str(tmp_path / "st"))
    back = load_state(str(tmp_path / "st"))
    assert counts == [] and sweeps == []
    assert promotions >= 1
    # the test's own binding of branch_counts was imported before the patch
    for base, report in updates:
        assert report.m == branch_counts(base.graph, base.structural)[1]
        assert report.step3_cost == report.step4_cost == report.p * (report.k + 1) * report.m
        assert report.to_dict()["measurements"]["m"] == report.m
    assert len(counts) == len(updates)
    assert np.abs(back.extended.entries[:, [v - 1 for v in back.structural.members]]
                  - back.columns).max() <= 1e-12
    assert sweeps == ["extended_reduced_matrix"]


def test_update_path_never_builds_the_weight_map(tmp_path, monkeypatch):
    maps = count_calls(monkeypatch, "_weights_of")
    rng = np.random.default_rng(59)
    state = StoredState.from_graph(random_stochastic_graph(30, 2.5, rng))
    assert maps == []
    updates = promotions = 0
    while updates < 12:
        delta = random_delta(state.graph, rng, 3)
        maps.clear()  # the delta generator reads the weights; the update may not
        try:
            new_state, _ = run_update(state, delta)
        except DeltaError:
            continue
        assert maps == []
        promotions += len(new_state.structural.members) > len(state.structural.members)
        updates += 1
        state = new_state
    save_state(state, str(tmp_path / "st"))
    back = load_state(str(tmp_path / "st"))
    assert maps == [] and promotions >= 1
    assert state.graph.adjacency.dtype == np.float64
    want = weights_loop(state.graph.adjacency)
    assert list(state.graph.weights.items()) == list(want.items())
    assert maps == ["_weights_of"]
    assert back.graph.weights == want and back.graph == state.graph


def test_full_structural_set_report_has_zero_lift_cost():
    g = random_stochastic_graph(8, 2.5, np.random.default_rng(54))
    state = StoredState.from_graph(g, structural=list(range(1, 9)))
    _, report = run_update(state, GraphDelta(()), ell=10)
    assert report.s_new == 8
    assert report.step6_cost == 0.0
    assert report.savings == pytest.approx(0.0)
    assert report.step5_cost == 10 * 8 ** 3


def test_meas_conditions_ratio():
    report = CostReport.from_measurements(n=1000, s=40, k=10, m=200, ell=10, p=3)
    conds = report.meas_conditions()
    assert conds["p_much_less_s"] and conds["s_much_less_n"]
    assert conds["k_plus_p_much_less_n"] and conds["patch_much_less_n3"]
    assert report.meets_meas
    tight = CostReport.from_measurements(n=60, s=14, k=13, m=1125, ell=10, p=3)
    assert not tight.meets_meas


# -- the simplex bound ----------------------------------------------------------


def test_simplex_bound_midpoint_maximum():
    f, bound = simplex_bound([50.0, 100.0])
    assert f == pytest.approx(100.0 ** 2 / 4)
    assert bound == pytest.approx(100.0 ** 2 / 4)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 20])
def test_simplex_bound_arithmetic_progression_attains(m):
    big_n = 37.0
    xs = [(t + 1) * big_n / (m + 1) for t in range(m + 1)]
    f, bound = simplex_bound(xs)
    assert abs(f - bound) < 1e-9
    assert bound <= big_n ** 2 / 2


def test_simplex_bound_zero_start_strict_for_higher_m():
    rng = np.random.default_rng(55)
    for m in (2, 3, 5):
        for _ in range(50):
            xs = np.sort(rng.uniform(0, 10.0, m - 1))
            seq = [0.0, *xs.tolist(), 10.0]
            f, bound = simplex_bound(seq)
            assert f < bound - 1e-12 * bound or f == 0.0


def test_simplex_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        simplex_bound([3.0, 2.0, 5.0])
    with pytest.raises(ValueError):
        simplex_bound([5.0])
    with pytest.raises(ValueError):
        simplex_bound([-1.0, 2.0])


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(0.0, 1000.0), min_size=2, max_size=12))
def test_simplex_bound_property(raw):
    xs = sorted(raw)
    if xs[-1] == 0.0:
        xs[-1] = 1.0
    f, bound = simplex_bound(xs)
    assert f <= bound + 1e-9 * max(1.0, xs[-1] ** 2)
    assert bound <= xs[-1] ** 2 / 2 + 1e-12


def test_reachability_promotion_matches_branch_rule():
    rng = np.random.default_rng(56)
    checked = promoted = 0
    while checked < 60:
        g = random_stochastic_graph(int(rng.integers(6, 20)), 2.0, rng)
        state = StoredState.from_graph(g, ell=200)
        branches = enumerate_branches(g, state.structural)
        members = state.structural.members
        for _ in range(5):
            i, j = map(int, rng.choice(g.vertices(), 2, replace=False))
            if g.has_edge(i, j):
                continue
            want = promotion_rule(members, branches, i, j)
            new_state, report = run_update(
                state, GraphDelta((DeltaOp.add_edge(i, j, 0.5),)), ell=200)
            assert not report.structural_fallback
            gained = set(new_state.structural.members) - set(members)
            assert gained == ({want} if want is not None else set())
            checked += 1
            promoted += want is not None
    assert promoted >= 5


def _dense_reaches(a: np.ndarray, start: int, goal: int, avoid) -> bool:
    """Search over the whole edited support with the ``avoid`` columns cut."""
    support = a != 0
    support[:, [v - 1 for v in avoid]] = False
    seen, todo = {start - 1}, [start - 1]
    while todo:
        for u in np.flatnonzero(support[todo.pop()]).tolist():
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return goal - 1 in seen


def test_reaches_agrees_with_dense_search_through_edits(monkeypatch):
    rng = np.random.default_rng(83)
    state = StoredState.from_graph(random_stochastic_graph(24, 2.5, rng))
    answers = []

    def checked(graph, start, goal, avoid):
        got = _reaches(graph, start, goal, avoid)
        assert got == _dense_reaches(graph.adjacency, start, goal, avoid)
        answers.append(got)
        return got

    monkeypatch.setattr(update_module, "_reaches", checked)
    promotions = 0
    for _ in range(30):
        delta = random_delta(state.graph, rng, 4)
        base, g2 = state.graph.adjacency, apply_ops(state.graph, delta)
        live = list(g2.vertices())
        for _ in range(12):
            # the goal may be a tombstone, which no live vertex reaches
            start, goal = int(rng.choice(live)), int(rng.integers(1, g2.n_vertices + 1))
            checked(g2, start, goal, set(rng.choice(live, int(rng.integers(0, 5))).tolist()))
        checked(g2, start, start, {start})
        if g2.n_vertices > len(base):
            # a vertex the delta added, in a slot the base graph lacks
            checked(g2, g2.n_vertices, start, set())
            checked(g2, start, g2.n_vertices, set())
        for op in delta.ops:
            if op.kind == "add_edge" and g2.has_edge(op.i, op.j):
                assert checked(g2, op.i, op.j, set())
            if op.kind == "remove_vertex":
                # across the removed vertex by its former edges
                for u in np.flatnonzero(base[:, op.v - 1])[:2].tolist():
                    for y in np.flatnonzero(base[op.v - 1])[:2].tolist():
                        checked(g2, u + 1, y + 1, set())
        asked = len(answers)
        state, _ = run_update(state, delta)
        promotions += sum(answers[asked:])
    assert state.graph.removed and state.graph.n_vertices > 24
    assert promotions and not all(answers)
    # 1 -> 2 -> 3 is the only way from 1 to 3; the delta adds 5 and removes 2
    g = WeightedDigraph.from_edges(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 1, 1.0)],
                                   stochastic=True)
    assert checked(g, 1, 3, set()) and not checked(g, 1, 3, {2})
    g2 = apply_ops(g, GraphDelta((DeltaOp.add_vertex(), DeltaOp.add_edge(3, 5, 1.0),
                                  DeltaOp.add_edge(5, 1, 1.0), DeltaOp.add_edge(5, 3, 1.0),
                                  DeltaOp.remove_vertex(2))))
    assert not checked(g2, 1, 3, set()) and not checked(g2, 4, 2, set())
    assert checked(g2, 3, 5, set()) and checked(g2, 5, 1, set()) and checked(g2, 5, 4, set())
    assert checked(g2, 3, 1, {4}) and not checked(g2, 3, 1, {4, 5})
    assert checked(g2, 5, 5, {5}) and not checked(g2, 5, 4, {3})


def _member_one_graph() -> WeightedDigraph:
    """A primitive graph on 1..4 with the set {1} structural: the complement
    keeps only the path 2 -> 3 -> 4."""
    m = np.zeros((4, 4))
    for i, j in [(1, 2), (2, 3), (3, 4), (3, 1), (4, 1), (1, 4), (2, 1)]:
        m[i - 1, j - 1] = 1.0
    return WeightedDigraph.from_matrix(m / m.sum(axis=0), stochastic=True)


def test_cycle_broken_later_in_the_delta_promotes_nothing():
    state = StoredState.from_graph(_member_one_graph(), structural=[1])
    # (4, 2) closes 2 -> 3 -> 4 -> 2 outside {1}; removing (3, 4) opens it again
    delta = GraphDelta((DeltaOp.add_edge(4, 2, 0.5), DeltaOp.remove_edge(3, 4)))
    new, report = run_update(state, delta)
    assert new.structural.members == (1,)
    assert not report.structural_fallback and scratch_equivalent(new)


def test_added_vertex_closing_a_cycle_is_promoted_not_its_source():
    state = StoredState.from_graph(_member_one_graph(), structural=[1])
    # 5 enters from 3 and leaves to 2, which reaches 3 outside {1}
    delta = GraphDelta((DeltaOp.add_vertex(), DeltaOp.add_edge(3, 5, 0.5),
                        DeltaOp.add_edge(5, 2, 0.5)))
    new, report = run_update(state, delta)
    assert new.structural.members == (1, 5)
    assert not report.structural_fallback and scratch_equivalent(new)


def test_edge_removed_later_in_the_delta_promotes_nothing():
    g = WeightedDigraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 0.5), (2, 1, 0.5)],
                                   stochastic=True)
    state = StoredState.from_graph(g, structural=[1])
    # (3, 2) would close 2 -> 3 -> 2 outside {1}, but the next op removes it
    delta = GraphDelta((DeltaOp.add_edge(3, 2, 0.5), DeltaOp.remove_edge(3, 2)))
    new, report = run_update(state, delta)
    assert new.graph == g
    assert new.structural.members == (1,) and report.s_new == report.s
    assert not report.structural_fallback and scratch_equivalent(new)


def test_random_multi_op_deltas_keep_the_set_structural():
    rng = np.random.default_rng(97)
    promotions = 0
    for _ in range(20):
        state = StoredState.from_graph(random_stochastic_graph(40, 2.5, rng))
        for _ in range(10):
            new, report = run_update(state, random_delta(state.graph, rng, 6))
            assert not report.structural_fallback and scratch_equivalent(new)
            promotions += bool(set(new.structural.members) - set(state.structural.members))
    assert promotions
