import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoreduce import (AmbiguousStationaryError, MarkovChain, SimulationError,
                       find_structural_set, is_irreducible, random_stochastic_graph,
                       reduced_matrix_of_chain, simulate_stopped_chain,
                       stationary_distribution, taboo_matrix, taboo_probability,
                       total_variation_summary, verify_return_identity,
                       verify_stationary_restriction, within_sigma_fraction)
from isoreduce.markov import _taboo_steps
from oracles import stationary_bruteforce, taboo_bruteforce


def flip_chain() -> MarkovChain:
    return MarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]))


def cycle_chain() -> MarkovChain:
    return MarkovChain(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float))


def test_chain_validation():
    with pytest.raises(ValueError):
        MarkovChain(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        MarkovChain(np.array([[1.5, -0.5], [0.5, 0.5]]))


def test_chain_refuses_nan_entries():
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        MarkovChain(np.array([[0.5, np.nan], [0.5, 0.5]]))


def test_from_stochastic_graph_transposes(two_cycle):
    chain = MarkovChain.from_stochastic_graph(two_cycle)
    assert np.array_equal(chain.transition, two_cycle.matrix().real.T)
    back = chain.graph()
    assert np.array_equal(back.matrix().real, chain.transition)


def test_taboo_flip_chain():
    chain = flip_chain()
    assert taboo_probability(chain, [1], 1, 1, 2) == pytest.approx(1.0)
    assert taboo_probability(chain, [1], 1, 1, 1) == 0.0


def test_taboo_single_step_is_transition():
    rng = np.random.default_rng(41)
    g = random_stochastic_graph(6, 2.5, rng)
    chain = MarkovChain.from_stochastic_graph(g)
    for i in range(1, 7):
        for j in range(1, 7):
            assert taboo_probability(chain, [2, 3], i, j, 1) == chain.transition[i - 1, j - 1]


def test_taboo_deterministic_cycle():
    chain = cycle_chain()
    assert taboo_probability(chain, [1], 1, 1, 3) == pytest.approx(1.0)
    for n in (1, 2, 4, 5):
        assert taboo_probability(chain, [1], 1, 1, n) == 0.0


def test_taboo_matches_bruteforce():
    rng = np.random.default_rng(42)
    for _ in range(10):
        g = random_stochastic_graph(5, 2.0, rng)
        chain = MarkovChain.from_stochastic_graph(g)
        members = [1, 4]
        for n in range(1, 5):
            tb = taboo_matrix(chain, members, n)
            for i in (1, 3, 4):
                for j in (1, 2, 4):
                    want = taboo_bruteforce(chain.transition, members, i, j, n)
                    assert tb[i - 1, j - 1] == pytest.approx(want, abs=1e-12)


def test_taboo_probability_matrix_and_steps_agree():
    rng = np.random.default_rng(47)
    for members in ([1, 4], [2], [1, 2, 3, 4, 5]):
        chain = MarkovChain.from_stochastic_graph(random_stochastic_graph(5, 2.0, rng))
        steps = _taboo_steps(chain, members)
        for n in range(1, 7):
            tb = next(steps)
            assert np.array_equal(taboo_matrix(chain, members, n), tb)
            for i in range(1, 6):
                for j in range(1, 6):
                    assert taboo_probability(chain, members, i, j, n) == tb[i - 1, j - 1]
    with pytest.raises(ValueError):
        taboo_matrix(flip_chain(), [1], 0)


def test_return_identity_small_fixtures(two_cycle, three_cycle):
    ss2 = find_structural_set(two_cycle, 1.0)
    assert verify_return_identity(two_cycle, ss2) == 0.0
    ss3 = find_structural_set(three_cycle, 1.0)
    assert verify_return_identity(three_cycle, ss3) == 0.0


def test_return_identity_random():
    rng = np.random.default_rng(43)
    for _ in range(15):
        g = random_stochastic_graph(int(rng.integers(4, 9)), 2.5, rng)
        ss = find_structural_set(g, 1.0)
        assert verify_return_identity(g, ss) < 1e-12


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), extra=st.integers(1, 4))
def test_taboo_vanishes_beyond_max_branch_length(seed, extra):
    rng = np.random.default_rng(seed)
    g = random_stochastic_graph(6, 2.0, rng)
    chain = MarkovChain.from_stochastic_graph(g)
    members = find_structural_set(chain.graph(), 1.0).members
    comp = 6 - len(members)
    tb = taboo_matrix(chain, members, comp + 1 + extra)
    rows = [v - 1 for v in members]
    cols = [v - 1 for v in members]
    assert np.abs(tb[np.ix_(rows, cols)]).max() == 0.0


def test_simulate_flip_chain():
    sample = simulate_stopped_chain(flip_chain(), [1], 1000, seed=9)
    assert set(sample.visits) == {1}
    assert sample.empirical_transition.shape == (1, 1)
    assert sample.empirical_transition[0, 0] == 1.0


@pytest.mark.parametrize("steps", [0, -5])
def test_simulate_refuses_steps_below_one(steps):
    with pytest.raises(ValueError, match="steps"):
        simulate_stopped_chain(flip_chain(), [1], steps, seed=9)


@pytest.mark.parametrize("bad", [True, np.True_, 1.5, "1"])
def test_simulate_refuses_bad_state_ids(bad):
    with pytest.raises(ValueError):
        simulate_stopped_chain(flip_chain(), [1], 10, seed=9, start=bad)
    with pytest.raises(ValueError):
        simulate_stopped_chain(flip_chain(), [bad], 10, seed=9)


def test_simulate_takes_integer_valued_ids():
    a = simulate_stopped_chain(cycle_chain(), [np.int64(1), 2.0], 50, seed=9, start=3.0)
    b = simulate_stopped_chain(cycle_chain(), [1, 2], 50, seed=9, start=3)
    assert a.members == b.members == (1, 2)
    assert a.visits == b.visits and all(type(v) is int for v in a.visits)


@pytest.mark.parametrize("bad", [99, 0, -1, True, 1.5])
def test_taboo_refuses_states_outside_the_chain(bad):
    with pytest.raises(ValueError):
        taboo_matrix(cycle_chain(), [bad], 2)
    with pytest.raises(ValueError):
        taboo_probability(cycle_chain(), [bad], 1, 1, 3)
    with pytest.raises(ValueError):
        taboo_probability(cycle_chain(), [1], bad, 1, 3)


def test_simulate_full_set_observes_every_step():
    lazy = MarkovChain(np.array([[0.5, 0.5], [0.5, 0.5]]))
    sample = simulate_stopped_chain(lazy, [1, 2], 5000, seed=10)
    assert len(sample.visits) == 5001  # start state plus one per step
    assert sample.counts.sum() == 5000


def test_simulate_reproducible():
    chain = MarkovChain.from_stochastic_graph(
        random_stochastic_graph(6, 2.5, np.random.default_rng(44)))
    members = find_structural_set(chain.graph(), 1.0).members
    a = simulate_stopped_chain(chain, members, 20_000, seed=5)
    b = simulate_stopped_chain(chain, members, 20_000, seed=5)
    assert a.visits == b.visits
    assert np.array_equal(a.counts, b.counts)
    c = simulate_stopped_chain(chain, members, 20_000, seed=6)
    assert a.visits != c.visits


def test_simulate_stuck_raises():
    absorbing = MarkovChain(np.array([[1.0, 0.0], [0.5, 0.5]]))
    with pytest.raises(SimulationError):
        simulate_stopped_chain(absorbing, [2], 500, seed=1, start=1)


def test_simulated_frequencies_match_reduction():
    chain = MarkovChain.from_stochastic_graph(
        random_stochastic_graph(5, 2.5, np.random.default_rng(45)))
    members = find_structural_set(chain.graph(), 1.0).members
    expected = reduced_matrix_of_chain(chain, members)
    assert np.allclose(expected.sum(axis=1), 1.0, atol=1e-12)
    sample = simulate_stopped_chain(chain, members, 300_000, seed=11)
    assert within_sigma_fraction(sample, expected) >= 0.95
    assert total_variation_summary(sample, expected) < 0.01


def test_stationary_restriction_fixtures(two_cycle, three_cycle):
    chain2 = MarkovChain.from_stochastic_graph(two_cycle)
    assert verify_stationary_restriction(chain2, [1]) < 1e-15
    chain3 = MarkovChain.from_stochastic_graph(three_cycle)
    assert verify_stationary_restriction(chain3, [1]) < 1e-15


def test_stationary_restriction_random():
    rng = np.random.default_rng(46)
    for _ in range(10):
        g = random_stochastic_graph(10, 2.5, rng)
        chain = MarkovChain.from_stochastic_graph(g)
        members = find_structural_set(chain.graph(), 1.0).members
        assert verify_stationary_restriction(chain, members) < 1e-10
        q = stationary_distribution(chain)
        assert np.abs(q - stationary_bruteforce(chain.transition)).max() < 1e-10


def test_stationary_requires_irreducible():
    reducible = MarkovChain(np.array([[1.0, 0.0], [0.5, 0.5]]))
    assert not is_irreducible(reducible)
    with pytest.raises(AmbiguousStationaryError):
        stationary_distribution(reducible)


def test_stationary_restriction_rejects_complement_loops():
    chain = MarkovChain(np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        verify_stationary_restriction(chain, [2])
