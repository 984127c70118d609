import numpy as np
import pytest

from isoreduce import (DEFAULT_TOL, DegenerateRestrictionError, EigenPair,
                       NotPrimitiveError, SingularWeightError, WeightedDigraph,
                       compute_depths, find_structural_set, is_primitive,
                       lift_eigenvector, power_iteration,
                       reduced_matrix, verify_restriction)
from isoreduce import reduction as reduction_module
from isoreduce import spectral as spectral_module
from oracles import (IterationError, dense_eigenpairs, dominant_unit_vector,
                     primitive_wielandt, random_complex_graph, reduced_eigen_co_iteration)


def test_is_primitive_cases():
    assert not is_primitive(np.array([[0.0, 1.0], [1.0, 0.0]]))  # period 2
    assert is_primitive(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert is_primitive(np.array([[1.0]]))
    assert not is_primitive(np.array([[0.0]]))
    cyc = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    assert not is_primitive(cyc)  # period 3
    cyc[2, 1] = 1.0
    assert is_primitive(cyc)  # cycle lengths 2 and 3


def test_is_primitive_matches_wielandt_bound():
    rng = np.random.default_rng(18)
    supports = []
    for _ in range(300):
        n = int(rng.integers(1, 13))
        supports.append(rng.random((n, n)) < rng.uniform(0.05, 0.6))
    for n in range(2, 13):
        for period in (d for d in range(2, n + 1) if n % d == 0):
            # Block-cyclic: class k only points at class k + 1 (mod period),
            # so every cycle length is a multiple of the period.
            cls = rng.permutation(np.arange(n) % period)
            block = (cls[None, :] - cls[:, None]) % period == 1
            dense = block & (rng.random((n, n)) < 0.7)
            supports += [block, dense]
            chord = block.copy()
            chord[np.argmax(cls == 0), np.argmax(cls == 0)] = True
            supports.append(chord)
    results = set()
    for sup in supports:
        want = primitive_wielandt(sup)
        assert is_primitive(sup.astype(float) * rng.uniform(0.1, 1.0, sup.shape)) == want
        results.add(want)
    assert results == {True, False}


def test_power_iteration_rejects_nonprimitive():
    with pytest.raises(NotPrimitiveError):
        power_iteration(np.array([[0.0, 1.0], [1.0, 0.0]]), 100)


def test_power_iteration_symmetric_chain():
    pair = power_iteration(np.array([[0.5, 0.5], [0.5, 0.5]]), 100, 1e-14)
    assert pair.lambda0 == pytest.approx(1.0)
    assert np.allclose(pair.vector, [0.5, 0.5])
    assert pair.converged
    assert pair.normalization == "L1-positive"


def test_power_iteration_damped_cycle():
    cyc = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    damped = 0.85 * cyc + 0.15 / 3.0
    pair = power_iteration(damped, 2000, 1e-14)
    assert np.allclose(pair.vector, 1 / 3, atol=1e-10)
    lazy = power_iteration(cyc, 4000, 1e-13, assume_primitive=True, lazy=True)
    assert np.allclose(lazy.vector, 1 / 3, atol=1e-9)
    assert lazy.lambda0 == pytest.approx(1.0)


def test_power_iteration_cap_flags_nonconvergence():
    rng = np.random.default_rng(3)
    m = rng.uniform(0.1, 1.0, (6, 6))
    m /= m.sum(axis=0, keepdims=True)
    pair = power_iteration(m, 1, 1e-16)
    assert not pair.converged
    assert pair.iterations == 1
    assert pair.residual > 0


def test_verify_restriction_three_cycle(three_cycle):
    ss = compute_depths(three_cycle, [1], 1.0)
    pair = EigenPair(1.0, np.full(3, 1 / 3), (1, 2, 3))
    assert verify_restriction(three_cycle, ss, pair) < 1e-15


def test_verify_restriction_full_set_matches_input_residual():
    rng = np.random.default_rng(31)
    g = random_complex_graph(rng, 6, 0.4)
    lam, u = dense_eigenpairs(g.matrix())[0]
    ss = compute_depths(g, g.vertices(), lam)
    pair = EigenPair(lam, u, g.vertices(), "L2-unit")
    own = np.linalg.norm(g.matrix() @ u - lam * u)
    assert verify_restriction(g, ss, pair) == pytest.approx(own, abs=1e-12)


def test_verify_restriction_random_eigenpairs():
    rng = np.random.default_rng(32)
    worst = 0.0
    for _ in range(12):
        g = random_complex_graph(rng, 8, 0.35)
        for lam, u in dense_eigenpairs(g.matrix()):
            ss = find_structural_set(g, lam, 1e-8)
            pair = EigenPair(lam, u, g.vertices(), "L2-unit")
            worst = max(worst, verify_restriction(g, ss, pair))
    assert worst < 1e-9


def test_verify_restriction_degenerate_restriction(three_cycle):
    ss = compute_depths(three_cycle, [1], 1.0)
    bogus = EigenPair(1.0, np.array([0.0, 1.0, 0.0]), (1, 2, 3))
    with pytest.raises(DegenerateRestrictionError):
        verify_restriction(three_cycle, ss, bogus)


def test_lift_three_cycle(three_cycle):
    ss = compute_depths(three_cycle, [1], 1.0)
    pair = lift_eigenvector(three_cycle, ss, 1.0, [1.0])
    assert np.allclose(pair.vector, 1.0)
    assert pair.vertices == (1, 2, 3)
    assert pair.residual < 1e-14
    assert pair.normalization == "none"


def test_lift_converged_reads_its_residual(three_cycle):
    """A lift at a parameter that is no eigenvalue leaves a large residual
    and does not read as converged; the dominant lift does."""
    bad = lift_eigenvector(three_cycle, compute_depths(three_cycle, [1], 2.0), 2.0, [1.0])
    assert bad.residual > 1.0 and not bad.converged
    good = lift_eigenvector(three_cycle, compute_depths(three_cycle, [1], 1.0), 1.0, [1.0])
    assert good.residual <= DEFAULT_TOL and good.converged


def test_lift_full_set_is_identity():
    rng = np.random.default_rng(33)
    g = random_complex_graph(rng, 5, 0.4)
    ss = compute_depths(g, g.vertices(), 2.5)
    u = rng.normal(size=5) + 1j * rng.normal(size=5)
    pair = lift_eigenvector(g, ss, 2.5, u)
    assert np.allclose(pair.vector, u)


def test_lift_four_cycle_matches_oracle():
    g = WeightedDigraph.from_edges(
        4, [(4, 3, 1.0), (3, 2, 1.0), (2, 1, 1.0), (1, 4, 1.0)])
    ss = compute_depths(g, [1], 1.0)
    assert dict(ss.depth_of) == {1: 0, 2: 1, 3: 2, 4: 3}
    lifted = lift_eigenvector(g, ss, 1.0, [1.0]).vector
    pairs = dense_eigenpairs(g.matrix())
    lam, u = min(pairs, key=lambda p: abs(p[0] - 1.0))
    cos = abs(np.vdot(lifted, u)) / (np.linalg.norm(lifted) * np.linalg.norm(u))
    assert 1 - cos < 1e-12


def test_lift_determinism_and_positivity():
    rng = np.random.default_rng(34)
    from isoreduce import random_stochastic_graph
    g = random_stochastic_graph(10, 2.5, rng)
    ss = find_structural_set(g, 1.0)
    idx = [v - 1 for v in ss.members]
    u_s = dominant_unit_vector(g.matrix().real)[idx]
    first = lift_eigenvector(g, ss, 1.0, u_s).vector
    second = lift_eigenvector(g, ss, 1.0, u_s).vector
    assert np.array_equal(first, second)
    assert (first.real > 0).all()


def test_lift_singular_denominator():
    g = WeightedDigraph.from_edges(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0),
                                       (2, 2, 4.0)])
    ss = compute_depths(g, [1], 1.0)
    with pytest.raises(SingularWeightError):
        lift_eigenvector(g, ss, 4.0, [1.0])
    with pytest.raises(SingularWeightError):
        reduced_matrix(g, ss, 4.0)
    # a failed sweep is not remembered, before or after a good one
    reduced_matrix(g, ss, 1.0)
    for _ in range(3):
        with pytest.raises(SingularWeightError):
            reduced_matrix(g, ss, 4.0)
        with pytest.raises(SingularWeightError):
            lift_eigenvector(g, ss, 4.0, [1.0])


def test_lift_and_reduction_refuse_non_finite_input(three_cycle):
    ss = compute_depths(three_cycle, [1], 1.0)
    nan, inf = float("nan"), float("inf")
    for lam, u_s in [(nan, [1.0]), (inf, [1.0]), (complex(1, nan), [1.0]),
                     (1.0, [nan]), (1.0, [inf]), (1.0, [complex(1, -inf)])]:
        with pytest.raises(ValueError, match="not finite|non-finite"):
            lift_eigenvector(three_cycle, ss, lam, u_s)
    for lam in (nan, inf, -inf, complex(nan, 0)):
        with pytest.raises(ValueError, match="not finite"):
            reduced_matrix(three_cycle, ss, lam)


def test_lift_takes_the_reductions_member_sweep(monkeypatch):
    calls = []
    sweep = reduction_module._depth_sweep

    def counted(*args, **kw):
        terminal = args[3] if len(args) > 3 else None
        calls.append((args[2], None if terminal is None else terminal.shape))
        return sweep(*args, **kw)

    monkeypatch.setattr(reduction_module, "_depth_sweep", counted)
    monkeypatch.setattr(spectral_module, "_depth_sweep", counted)
    g = random_complex_graph(np.random.default_rng(38), 12, 0.3)
    lam = 0.3 + 0.7j
    ss = find_structural_set(g, lam)
    u_s = np.linspace(1, 2, len(ss.members)) - 0.5j
    # a reduction leaves its n x s sweep; the lift at its key takes it
    reduced_matrix(g, ss, lam)
    pair = lift_eigenvector(g, ss, lam, u_s)
    assert calls == [(lam, None)] and "_member_sweep" not in vars(g)
    # a lift with no remembered sweep, or another key's, sweeps one column
    # and leaves what the graph remembers as it was
    again = lift_eigenvector(g, ss, lam, u_s)
    reduced_matrix(g, ss, 0.5)
    other = lift_eigenvector(g, ss, lam, u_s)
    assert calls[1:] == [(lam, (12, 1)), (0.5, None), (lam, (12, 1))]
    assert vars(g)["_member_sweep"][0][2] == 0.5
    fresh = lift_eigenvector(WeightedDigraph.from_matrix(g.adjacency), ss, lam, u_s)
    assert np.array_equal(again.vector, fresh.vector) and np.array_equal(other.vector, fresh.vector)
    assert np.linalg.norm(pair.vector - fresh.vector) <= 1e-13 * np.linalg.norm(fresh.vector)
    assert abs(pair.residual - fresh.residual) <= 1e-13
    on_members = pair.vector[[g.vertices().index(v) for v in ss.members]]
    assert np.array_equal(on_members, u_s)


def test_remembered_sweep_matches_a_fresh_graph():
    rng = np.random.default_rng(39)
    m = (rng.random((10, 10)) < 0.3) * rng.normal(size=(10, 10))
    np.fill_diagonal(m, 2.0)
    g = WeightedDigraph.from_matrix(m)
    small = find_structural_set(g, 1.0)
    extra = next(v for v in g.vertices() if v not in small.members)
    big = compute_depths(g, small.members + (extra,), 1.0)
    # each call changes one part of the key: the set, lam, or lam's type alone
    calls = [(small, 1.0), (small, 1 + 0j), (small, 1.0), (big, 1.0), (small, 1.0),
             (small, 0.5), (small, 1.0), (big, np.complex128(1.0)), (big, np.float64(1.0)),
             (big, -0.25j), (big, 0.5), (small, 0.5), (small, 1 + 0j)]
    for ss, lam in calls:
        u_s = rng.normal(size=len(ss.members))
        fresh = WeightedDigraph.from_matrix(g.adjacency)
        got, want = reduced_matrix(g, ss, lam).entries, reduced_matrix(fresh, ss, lam).entries
        assert got.dtype == want.dtype == (float if np.isrealobj(lam) else complex)
        assert np.array_equal(got, want)
        got, want = lift_eigenvector(g, ss, lam, u_s), lift_eigenvector(fresh, ss, lam, u_s)
        assert np.array_equal(got.vector, want.vector) and got.residual == want.residual
        pair = EigenPair(lam, got.vector, got.vertices)
        assert verify_restriction(g, ss, pair) == verify_restriction(fresh, ss, pair)


def test_update_path_keeps_no_member_sweep():
    from isoreduce import StoredState, random_delta, random_stochastic_graph, run_update
    rng = np.random.default_rng(40)
    g = random_stochastic_graph(20, 2.5, rng)
    state = StoredState.from_graph(g)
    new, _ = run_update(state, random_delta(g, rng, 3))
    for graph in (g, new.graph):
        assert "_member_sweep" not in vars(graph)
    reduced_matrix(g, state.structural)
    assert not vars(g)["_member_sweep"][1].flags.writeable


def test_co_iteration_stochastic_fixed_point():
    from isoreduce import StoredState, random_stochastic_graph
    g = random_stochastic_graph(7, 2.5, np.random.default_rng(35))
    state = StoredState.from_graph(g)
    ss = state.structural
    lam, u = reduced_eigen_co_iteration(g, ss, 1.0, state.reduced_vector, 50, 1e-11)
    assert abs(lam - 1.0) < 1e-10


def test_co_iteration_scaled_cycle():
    g = WeightedDigraph.from_edges(3, [(1, 2, 2.0), (2, 3, 2.0), (3, 1, 2.0)])
    ss = compute_depths(g, [1], 2.0)
    lam, u = reduced_eigen_co_iteration(g, ss, 1.2, [1.0], 400, 1e-12)
    assert abs(lam - 2.0) < 1e-9
    assert np.allclose(u, [1.0])


def test_co_iteration_raw_update_oscillates():
    # relax=1 reproduces the raw update rule, which repels from this fixed
    # point; the damped default converges (previous test).
    g = WeightedDigraph.from_edges(3, [(1, 2, 2.0), (2, 3, 2.0), (3, 1, 2.0)])
    ss = compute_depths(g, [1], 2.0)
    with pytest.raises(IterationError) as info:
        reduced_eigen_co_iteration(g, ss, 1.2, [1.0], 200, 1e-12, relax=1.0)
    assert len(info.value.trace) > 2


def test_co_iteration_matches_dense_oracle():
    rng = np.random.default_rng(36)
    m = rng.uniform(0.2, 1.0, (6, 6))
    np.fill_diagonal(m, 0.0)
    g = WeightedDigraph.from_matrix(m)
    vals = np.linalg.eigvals(m)
    dom = vals[int(np.argmax(np.abs(vals)))].real
    ss = find_structural_set(g, dom)
    lam, _ = reduced_eigen_co_iteration(g, ss, dom * 1.3,
                                        np.ones(len(ss.members)), 500, 1e-12)
    assert abs(lam - dom) < 1e-6


def test_roundtrip_restriction_then_lift_collinear():
    rng = np.random.default_rng(37)
    for _ in range(10):
        g = random_complex_graph(rng, int(rng.integers(4, 10)), 0.35)
        for lam, u in dense_eigenpairs(g.matrix()):
            ss = find_structural_set(g, lam, 1e-8)
            u_s = np.array([u[v - 1] for v in ss.members])
            lifted = lift_eigenvector(g, ss, lam, u_s).vector
            cos = abs(np.vdot(lifted, u)) / (np.linalg.norm(lifted) * np.linalg.norm(u))
            assert 1 - cos < 1e-9
