"""Cost-savings experiments and the cross-module verification suite."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import IsoreduceError
from .generate import ExperimentConfig, random_delta, random_stochastic_graph
from .graph import WeightedDigraph, find_structural_set
from .markov import (MarkovChain, reduced_matrix_of_chain, simulate_stopped_chain,
                     verify_return_identity, verify_stationary_restriction, within_sigma_fraction)
from .reduction import branch_counts, reduced_matrix
from .spectral import lift_eigenvector, stationary_vector, verify_restriction
from .update import CostReport, StoredState, run_update, simplex_bound


@dataclass(frozen=True)
class TrialResult:
    trial: int
    ok: bool
    error: str = ""
    savings: float = float("nan")
    meets_meas: bool = False
    equivalence_ok: bool | None = None
    report: CostReport | None = None

    def to_dict(self) -> dict:
        out = {"trial": self.trial, "ok": self.ok, "error": self.error,
               "savings": self.savings, "meets_meas": self.meets_meas,
               "equivalence_ok": self.equivalence_ok}
        if self.report is not None:
            out["report"] = self.report.to_dict()
        return out


@dataclass(frozen=True)
class ExperimentSummary:
    config: ExperimentConfig
    results: tuple[TrialResult, ...]

    @property
    def savings(self) -> list[float]:
        return [r.savings for r in self.results if r.ok]

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def fraction_over(self, threshold: float = 0.70) -> float:
        good = self.savings
        if not good:
            return 0.0
        return sum(1 for s in good if s > threshold) / len(good)

    @property
    def fraction_meas(self) -> float:
        done = [r for r in self.results if r.ok]
        if not done:
            return 0.0
        return sum(1 for r in done if r.meets_meas) / len(done)

    def to_dict(self) -> dict:
        good = self.savings
        return {
            "config": {"n": self.config.n, "avg_degree": self.config.avg_degree,
                       "p": self.config.p, "ell": self.config.ell,
                       "trials": self.config.trials, "seed": self.config.seed},
            "completed": len(good),
            "failures": self.n_failures,
            "savings_mean": float(np.mean(good)) if good else None,
            "savings_min": min(good) if good else None,
            "savings_max": max(good) if good else None,
            "fraction_over_70": self.fraction_over(0.70),
            "fraction_meas": self.fraction_meas,
            "trials": [r.to_dict() for r in self.results],
        }

    def savings_csv(self) -> str:
        lines = ["trial,ok,savings,s,s_new,k,k_new,m,meets_meas"]
        for r in self.results:
            if r.ok and r.report is not None:
                rep = r.report
                lines.append(f"{r.trial},1,{r.savings:.6f},{rep.s},{rep.s_new},"
                             f"{rep.k},{rep.k_new},{rep.m},{int(r.meets_meas)}")
            else:
                lines.append(f"{r.trial},0,,,,,,,")
        return "\n".join(lines) + "\n"


#: Largest deviation from a scratch build, per field of
#: :meth:`StoredState.consistency_report`, at which a stored state still
#: counts as equal to it; ``extended`` bounds the stored columns ``E[:, S]``.
SCRATCH_BOUNDS = {"structural": 0.0, "extended": 1e-12,
                  "reduced_vector": 1e-6, "full_vector": 1e-6}


def _within_scratch_bounds(dev: dict[str, float]) -> bool:
    return all(dev.get(name, math.inf) <= bound for name, bound in SCRATCH_BOUNDS.items())


def scratch_equivalent(state: StoredState) -> bool:
    """Whether every stored field matches a fresh build within ``SCRATCH_BOUNDS``."""
    return _within_scratch_bounds(state.consistency_report())


def run_experiment(config: ExperimentConfig, *,
                   check_equivalence: bool | None = None) -> ExperimentSummary:
    """Generate graphs, apply random deltas, and collect cost reports.

    Per-trial failures (rejected deltas, generation retries exhausted) are
    recorded and the experiment continues.  Trials are seeded independently,
    so results do not depend on execution order.
    """
    check_eq = (config.n <= 15) if check_equivalence is None else check_equivalence
    results: list[TrialResult] = []
    for t in range(config.trials):
        rng = np.random.default_rng([config.seed, t])
        try:
            g = random_stochastic_graph(config.n, config.avg_degree, rng)
            state = StoredState.from_graph(g)
            delta = random_delta(g, rng, config.p)
            new_state, report = run_update(state, delta, ell=config.ell)
            report.validate()
            eq = scratch_equivalent(new_state) if check_eq else None
            results.append(TrialResult(t, True, "", report.savings,
                                       report.meets_meas, eq, report))
        except IsoreduceError as exc:
            results.append(TrialResult(t, False, f"{type(exc).__name__}: {exc}"))
    return ExperimentSummary(config, tuple(results))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # checks often compute ``passed`` with numpy, whose bool does not
        # serialize to JSON
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                           for c in self.checks]}


def _three_cycle() -> WeightedDigraph:
    return WeightedDigraph.from_edges(
        3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)], stochastic=True)


def _check_fixture() -> CheckResult:
    g = _three_cycle()
    state = StoredState.from_graph(g, structural=[1], assume_primitive=True)
    r2 = reduced_matrix(g, state.structural, 2.0).entries[0, 0]
    lifted = lift_eigenvector(g, state.structural, 1.0, [1.0])
    counts = branch_counts(g, state.structural)
    checks = [
        abs(r2 - 0.25) < 1e-15,
        counts == (6, 3),
        state.columns[0, 0] == 1.0,
        np.allclose(lifted.vector, 1.0),
    ]
    return CheckResult("fixture-three-cycle", all(checks),
                       f"reduced(2)={r2}, branches={counts[0]}")


def _check_roundtrip(seed: int, rounds: int) -> CheckResult:
    worst_res = 0.0
    worst_cos = 0.0
    for r in range(rounds):
        rng = np.random.default_rng([seed, 11, r])
        g = random_stochastic_graph(8, 2.5, rng)
        ss = find_structural_set(g, 1.0)
        mat, ids = g.active_matrix()
        pair = stationary_vector(mat.real)
        res = verify_restriction(g, ss, pair)
        worst_res = max(worst_res, res)
        u_s = np.array([pair.vector[ids.index(v)] for v in ss.members])
        lifted = lift_eigenvector(g, ss, 1.0, u_s)
        a = lifted.vector.real
        b = pair.vector
        cosang = abs(np.dot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        worst_cos = max(worst_cos, 1 - cosang)
    ok = worst_res < 1e-8 and worst_cos < 1e-8
    return CheckResult("restriction-roundtrip", ok,
                       f"max residual {worst_res:.2e}, max 1-|cos| {worst_cos:.2e}")


def _check_taboo(seed: int, rounds: int) -> CheckResult:
    worst = 0.0
    for r in range(rounds):
        rng = np.random.default_rng([seed, 13, r])
        g = random_stochastic_graph(8, 2.5, rng)
        ss = find_structural_set(g, 1.0)
        worst = max(worst, verify_return_identity(g, ss))
    return CheckResult("taboo-identity", worst < 1e-12, f"max deviation {worst:.2e}")


def _check_stationary(seed: int, rounds: int) -> CheckResult:
    worst = 0.0
    for r in range(rounds):
        rng = np.random.default_rng([seed, 17, r])
        g = random_stochastic_graph(8, 2.5, rng)
        chain = MarkovChain.from_stochastic_graph(g)
        members = find_structural_set(chain.graph(), 1.0).members
        worst = max(worst, verify_stationary_restriction(chain, members))
    return CheckResult("stationary-restriction", worst < 1e-10,
                       f"max deviation {worst:.2e}")


def _check_lemma(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 19])
    ok = True
    worst_gap = 0.0
    big_n = 100.0
    for m in range(1, 11):
        pts = np.sort(rng.uniform(0, big_n, (2000, m)), axis=1)
        pts = np.hstack([pts, np.full((2000, 1), big_n)])
        f = (pts[:, :-1] * np.diff(pts, axis=1)).sum(axis=1)
        bound = m * big_n ** 2 / (2 * (m + 1))
        ok = ok and bool((f <= bound + 1e-9).all())
        arith = [(t + 1) * big_n / (m + 1) for t in range(m + 1)]
        fa, ba = simplex_bound(arith)
        gap = abs(fa - ba)
        worst_gap = max(worst_gap, gap)
        ok = ok and gap < 1e-9
    return CheckResult("lemma-bound", ok, f"arithmetic-progression gap {worst_gap:.2e}")


def _check_incremental(seed: int, rounds: int) -> CheckResult:
    for r in range(rounds):
        rng = np.random.default_rng([seed, 23, r])
        try:
            g = random_stochastic_graph(12, 2.5, rng)
            state = StoredState.from_graph(g)
            delta = random_delta(g, rng, 2)
            new_state, _ = run_update(state, delta)
        except IsoreduceError as exc:
            return CheckResult("incremental-vs-scratch", False,
                               f"round {r}: {type(exc).__name__}: {exc}")
        if not scratch_equivalent(new_state):
            return CheckResult("incremental-vs-scratch", False,
                               f"round {r}: stored state differs from recomputation")
    return CheckResult("incremental-vs-scratch", True, f"{rounds} rounds equal")


def _check_simulation(seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, 29])
    g = random_stochastic_graph(6, 2.5, rng)
    chain = MarkovChain.from_stochastic_graph(g)
    members = find_structural_set(chain.graph(), 1.0).members
    expected = reduced_matrix_of_chain(chain, members)
    sample = simulate_stopped_chain(chain, members, 200_000, seed)
    frac = within_sigma_fraction(sample, expected)
    return CheckResult("stopped-chain-bands", frac >= 0.95,
                       f"{frac:.3f} of entries within 3 sigma")


def _check_state_dir(state_dir: str) -> CheckResult:
    from .io import load_state
    try:
        state = load_state(state_dir)
    except IsoreduceError as exc:
        return CheckResult("stored-state-consistency", False, str(exc))
    dev = state.consistency_report()
    detail = ", ".join(f"{k}={v:.2e}" if math.isfinite(v) else f"{k}=inf"
                       for k, v in dev.items())
    return CheckResult("stored-state-consistency", _within_scratch_bounds(dev), detail)


def _check_graph_file(path: str) -> CheckResult:
    from .generate import check_assumptions
    from .io import read_graph
    name = f"graph-file:{path}"
    try:
        g = read_graph(path, stochastic=True)
        check_assumptions(g)
        ss = find_structural_set(g, 1.0)
        dev = verify_return_identity(g, ss)
    except IsoreduceError as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, dev < 1e-12, f"taboo deviation {dev:.2e}")


def verify_suite(*, seed: int = 0, rounds: int = 5, state_dir: str | None = None,
                 graph_paths: tuple[str, ...] = ()) -> VerificationReport:
    """Run the named cross-module invariant checks; machine-readable results.

    Covers the restriction/lift round trip, the taboo identity, stationary
    restriction, the simplex cost bound, incremental-versus-scratch
    equality, a stopped-chain statistical check, and (optionally) stored
    states and graph files supplied by the caller.  ``rounds`` below 1 is a
    ``ValueError``: the round-based checks would check nothing.
    """
    if rounds < 1:
        raise ValueError(f"verify needs at least one round, got {rounds}")
    checks = [
        _check_fixture(),
        _check_roundtrip(seed, rounds),
        _check_taboo(seed, rounds),
        _check_stationary(seed, rounds),
        _check_lemma(seed),
        _check_incremental(seed, rounds),
        _check_simulation(seed),
    ]
    if state_dir is not None:
        checks.append(_check_state_dir(state_dir))
    for path in graph_paths:
        checks.append(_check_graph_file(path))
    return VerificationReport(tuple(checks))
