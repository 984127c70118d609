"""A long size-stable update stream checked against scratch builds of a
graph the test edits itself.

Sixty 3-op deltas mix all four op kinds on a graph of about 40 vertices;
the active count stays within ``MAX_DEV`` of the start and removed vertices
stay as tombstones.  Every ``CHECK_EVERY`` updates the committed state is
compared with ``StoredState.from_graph`` over the same members on the
test's own dense copy of the graph, to the suite's 1e-12 bounds; the
stored columns ``E[:, S]`` are compared, since they are what the update
computed.  A second stream also forces structural fallbacks and checks the
stored columns against the full extended matrix and a save/load round trip.
A third test draws many short streams of the package's own random deltas
on small graphs and checks every committed state against a scratch build.
A stateful test interleaves commits, refused deltas, abandoned sessions and
save/load round trips along such streams.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from isoreduce import (DeltaError, DeltaOp, GraphDelta, StoredState, UpdateSession,
                       WeightedDigraph, random_delta, random_stochastic_graph, run_update)
from isoreduce.bench import scratch_equivalent
from isoreduce.io import load_state, save_state
from isoreduce import update as update_module
from oracles import apply_ops_dense, edge_lists_derived, primitive_wielandt

N0, UPDATES, CHECK_EVERY, MAX_DEV = 40, 60, 5, 3
TOL = 1e-12


def base_matrix(rng) -> np.ndarray:
    """Loop-free primitive column-stochastic matrix with about 2.5 out-edges per vertex."""
    while True:
        mask = rng.random((N0, N0)) < 2.5 / (N0 - 1)
        np.fill_diagonal(mask, False)
        if primitive_wielandt(mask):
            w = rng.uniform(0.05, 1.0, (N0, N0)) * mask
            return w / w.sum(axis=0)


def edge_op(m, active, rng) -> DeltaOp:
    """Add a missing edge or remove an existing one between active vertices."""
    ids = np.array(sorted(active))
    if rng.random() < 0.5:
        i, j = rng.choice(ids, 2, replace=False)
        if m[i - 1, j - 1] == 0:
            return DeltaOp.add_edge(int(i), int(j), float(rng.uniform(0.2, 1.0)))
    rows, cols = np.nonzero(m)
    t = int(rng.integers(rows.size))
    return DeltaOp.remove_edge(int(rows[t]) + 1, int(cols[t]) + 1)


def candidate(m, active, members, rng) -> GraphDelta:
    ops = []
    size = len(active)
    r = rng.random()
    if r < 0.2 and size < N0 + MAX_DEV:
        new = m.shape[0] + 1
        src, dst = rng.choice(sorted(active), 2, replace=False)
        ops = [DeltaOp.add_vertex(), DeltaOp.add_edge(int(src), new, 0.5),
               DeltaOp.add_edge(new, int(dst), 0.5)]
    elif r < 0.4 and size > N0 - MAX_DEV:
        v = int(rng.choice(sorted(active)))
        if set(members) - {v}:
            ops = [DeltaOp.remove_vertex(v)]
    while len(ops) < 3:
        own = apply_ops_dense(m, GraphDelta(ops))
        live = active - {op.v for op in ops if op.kind == "remove_vertex"}
        op = edge_op(own, live, rng)
        if op not in ops:
            ops.append(op)
    return GraphDelta(ops)


def next_delta(m, active, members, rng):
    """A valid delta: the edited graph stays primitive on its active vertices."""
    for _ in range(500):
        delta = candidate(m, active, members, rng)
        m2 = apply_ops_dense(m, delta)
        active2 = (active | set(range(m.shape[0] + 1, m2.shape[0] + 1))) - {
            op.v for op in delta.ops if op.kind == "remove_vertex"}
        idx = [v - 1 for v in sorted(active2)]
        if primitive_wielandt(m2[np.ix_(idx, idx)]):
            return delta, m2, active2
    raise AssertionError("no valid delta in 500 draws")


def own_graph(m, active) -> WeightedDigraph:
    rows, cols = np.nonzero(m)
    edges = [(int(i) + 1, int(j) + 1, float(m[i, j])) for i, j in zip(rows, cols)]
    removed = set(range(1, m.shape[0] + 1)) - active
    return WeightedDigraph.from_edges(m.shape[0], edges, stochastic=True, removed=removed)


def test_long_stream_stays_equal_to_scratch_builds():
    rng = np.random.default_rng(83)
    m = base_matrix(rng)
    active = set(range(1, N0 + 1))
    state = StoredState.from_graph(own_graph(m, active))
    kinds, checks = set(), 0
    for u in range(1, UPDATES + 1):
        delta, m, active = next_delta(m, active, state.structural.members, rng)
        kinds |= {op.kind for op in delta.ops}
        state, _ = run_update(state, delta)
        assert abs(len(active) - N0) <= MAX_DEV
        assert state.graph.vertices() == tuple(sorted(active))
        if u % CHECK_EVERY:
            continue
        checks += 1
        assert np.abs(state.graph.matrix().real - m).max() <= TOL
        fresh = StoredState.from_graph(own_graph(m, active),
                                       structural=state.structural.members)
        assert np.abs(state.columns - fresh.columns).max() <= TOL
        assert np.abs(state.reduced_vector - fresh.reduced_vector).max() <= TOL
        assert np.abs(state.full_vector - fresh.full_vector).max() <= TOL
        assert state.eig_converged
    assert checks == UPDATES // CHECK_EVERY
    assert kinds == set(DeltaOp.KINDS)
    assert state.graph.removed


def test_stored_columns_match_extended_through_promotions_fallbacks_and_tombstones(
        tmp_path, monkeypatch):
    rng = np.random.default_rng(89)
    m = base_matrix(rng)
    active = set(range(1, N0 + 1))
    state = StoredState.from_graph(own_graph(m, active))
    promotions = fallbacks = 0
    for u in range(1, 41):
        delta, m, active = next_delta(m, active, state.structural.members, rng)
        with monkeypatch.context() as mp:
            if u % 2:
                # with the promotion search off, an edge that closes a cycle
                # outside the set forces a fresh structural-set search
                mp.setattr(update_module, "_reaches", lambda graph, start, goal, avoid: False)
            new, report = run_update(state, delta)
        grew = set(new.structural.members) - set(state.structural.members)
        fallbacks += report.structural_fallback
        promotions += bool(grew) and not report.structural_fallback
        state = new
        idx = [v - 1 for v in state.structural.members]
        assert state.columns.shape == (state.graph.n_vertices, len(idx))
        assert np.abs(state.columns - state.extended.entries[:, idx]).max() <= TOL
        if u % CHECK_EVERY == 0:
            path = str(tmp_path / f"state{u}")
            save_state(state, path)
            assert np.array_equal(load_state(path).columns, state.columns)
    assert promotions >= 1 and fallbacks >= 1
    assert state.graph.removed


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(8, 20),
       sizes=st.lists(st.integers(1, 3), max_size=12))
def test_random_delta_streams_stay_equal_to_scratch_builds(tmp_path_factory, seed, n, sizes):
    rng = np.random.default_rng(seed)
    state = StoredState.from_graph(random_stochastic_graph(n, 2.5, rng))
    for p in sizes:
        try:
            state, _ = run_update(state, random_delta(state.graph, rng, p))
        except DeltaError:
            continue
        assert scratch_equivalent(state)
        assert state.eig_converged
    path = str(tmp_path_factory.mktemp("stream") / "state")
    save_state(state, path)
    back = load_state(path)
    assert back.graph == state.graph
    assert back.structural.members == state.structural.members
    assert np.array_equal(back.columns, state.columns)
    assert np.array_equal(back.reduced_vector, state.reduced_vector)
    assert np.array_equal(back.full_vector, state.full_vector)


class StreamMachine(RuleBasedStateMachine):
    """One stored state along a stream of the package's random deltas, with
    refused deltas, abandoned sessions and save/load round trips between
    commits; the state always matches a scratch build."""

    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.saves = 0

    def teardown(self):
        self.dir.cleanup()

    def snapshot(self) -> list[np.ndarray]:
        """Copies of everything the state holds."""
        s = self.state
        return [np.array(x) for x in (s.graph.adjacency, sorted(s.graph.removed),
                                      s.structural.order, s.structural.cut, s.columns,
                                      s.reduced_vector, s.full_vector)]

    @initialize(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(8, 20))
    def build(self, seed, n):
        self.rng = np.random.default_rng(seed)
        self.state = StoredState.from_graph(random_stochastic_graph(n, 2.5, self.rng))

    @rule(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4))
    def commit(self, sizes):
        for p in sizes:
            base = self.state.graph
            try:
                self.state, _ = run_update(self.state, random_delta(base, self.rng, p))
            except DeltaError:
                pass
            # the committed graph's inherited lists, and its base graph's
            for g in (self.state.graph, base):
                assert list(g.edge_lists) == edge_lists_derived(g)

    @rule(p=st.integers(0, 2), bad=st.integers(0, 3), at=st.integers(0, 2))
    def refuse(self, p, bad, at):
        """A delta with one op that no graph takes fails whole."""
        g = self.state.graph
        v = g.vertices()[0]
        ops = list(random_delta(g, self.rng, p).ops) if p else []
        ops.insert(min(at, len(ops)), [DeltaOp.add_edge(v, v, 1.0), DeltaOp.remove_edge(v, v),
                                       DeltaOp.remove_vertex(0),
                                       DeltaOp.remove_vertex(g.n_vertices + 5)][bad])
        before = self.snapshot()
        with pytest.raises(DeltaError):
            run_update(self.state, GraphDelta(ops))
        assert all(map(np.array_equal, before, self.snapshot()))

    @rule(p=st.integers(1, 3), refresh=st.booleans())
    def abandon(self, p, refresh):
        """A session dropped after ``apply`` leaves its base state as it was."""
        before = self.snapshot()
        session = UpdateSession(self.state)
        try:
            session.apply(random_delta(self.state.graph, self.rng, p))
        except DeltaError:
            pass
        else:
            if refresh:
                session.refresh()
        assert all(map(np.array_equal, before, self.snapshot()))

    @rule()
    def save_and_load(self):
        self.saves += 1
        first, second = (Path(self.dir.name) / f"{self.saves}{t}" for t in "ab")
        save_state(self.state, str(first))
        back = load_state(str(first))
        assert back.graph == self.state.graph
        assert back.structural.members == self.state.structural.members
        for name in ("columns", "reduced_vector", "full_vector"):
            assert np.array_equal(getattr(back, name), getattr(self.state, name))
        save_state(back, str(second))
        assert (first / "state.json").read_bytes() == (second / "state.json").read_bytes()
        self.state = back

    @invariant()
    def matches_scratch_build(self):
        assert scratch_equivalent(self.state)


TestStreamMachine = StreamMachine.TestCase
TestStreamMachine.settings = settings(max_examples=50, stateful_step_count=20, deadline=None)
