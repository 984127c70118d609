"""The benchmark's workloads: fixed inputs, the timed loop, oracle checks.

Every workload is a closed loop with one caller: an operation starts after
the previous one returned.  Operations are timed with ``perf_counter``
around the program's public calls only; input preparation, oracle checks
and (in traced runs) baselines sit outside the timed region.

The inputs of a workload are a fixed set of 40 to 105, drawn from fixed
pool seeds, and ``--seed`` draws the order they run in.  Per-input
cost varies by an order of magnitude between random graphs and deltas at
these sizes (branch counts grow exponentially with the complement's depth),
so runs are comparable only when they time the same inputs.  A run is made
of rounds; each round runs every input once, in a fresh seeded order.  An
untraced run goes on past ``--seconds`` until the first round is complete,
so every input is timed at least once; the metrics take each input's median
over its rounds, then quantiles over the inputs.

A shared host's speed drifts by up to 2x over tens of seconds, and no
within-run statistic of raw times survives that.  So each operation is
bracketed by two runs of a fixed reference kernel (:func:`reference_kernel`,
benchmark-owned dict and tuple work shaped like branch bookkeeping), and
the gated metrics are operation times in units of the kernel's median time
over the probes within ``REF_WINDOW_S`` of the operation ("ref").  Raw
seconds are kept in the run record.
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import os
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Iterator

import numpy as np

import inputs
import oracles
from spans import Tracer

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 7
#: Failure messages kept for the run record.
KEEP_FAILURES = 5
#: Seconds after which a run stops even with its first round incomplete.
HARD_STOP_S = 120.0
#: Seconds before and after an operation whose reference-kernel probes make
#: its reference time: wide enough to smooth the kernel's own jitter, narrow
#: next to the seconds-long phases of the host's speed.
REF_WINDOW_S = 0.5


def fresh_import():
    """Import ``isoreduce`` (and its ``io`` module) from scratch."""
    for name in [k for k in sys.modules if k == "isoreduce" or k.startswith("isoreduce.")]:
        del sys.modules[name]
    ir = importlib.import_module("isoreduce")
    importlib.import_module("isoreduce.io")
    return ir


@dataclass
class Context:
    """What a workload needs from the command line and the run."""

    seed: int
    seconds: float
    tracer: Tracer | None
    scratch: str


@dataclass
class Outcome:
    """Raw samples of one run; :mod:`run` turns them into metrics."""

    op_name: str
    setup: list[float] = field(default_factory=list)
    # every timed sample, all rounds, in seconds
    latency: list[float] = field(default_factory=list)
    op_time: list[float] = field(default_factory=list)
    # (input, start, end, latency, op time) of every sample
    samples: list[tuple] = field(default_factory=list)
    # (midpoint, seconds) of every reference-kernel probe, in time order
    probes: list[tuple[float, float]] = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # per committed update of the first round (update workloads)
    eig_err: list[float] = field(default_factory=list)
    unconverged: list[bool] = field(default_factory=list)
    # per input, first round
    branches: list[int] = field(default_factory=list)
    structural_size: list[int] = field(default_factory=list)
    max_depth: list[int] = field(default_factory=list)
    state_bytes: list[int] = field(default_factory=list)  # per first-round checkpoint
    # traced runs only
    traced_ops: list[str] = field(default_factory=list)
    traced_latency: list[float] = field(default_factory=list)
    paired_latency: list[float] = field(default_factory=list)
    reports: list[dict] = field(default_factory=list)
    promotions: list[int] = field(default_factory=list)
    power_matched: list[float] = field(default_factory=list)
    power_iters: list[int] = field(default_factory=list)
    rebuild: list[float] = field(default_factory=list)

    def probe(self) -> float:
        """Time one run of the reference kernel; return the clock after it."""
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.probes.append(((t0 + t1) / 2, t1 - t0))
        return t1

    def sample(self, key, start: float, latency: float, op_time: float) -> None:
        """An operation on input ``key`` timed since the probe that returned ``start``.

        Probes again, so every operation is bracketed.
        """
        end = time.perf_counter()
        self.probe()
        self.latency.append(latency)
        self.op_time.append(op_time)
        self.samples.append((key, start, end, latency, op_time))

    def in_ref(self) -> dict:
        """Per input, every round's ``(latency, op time)`` in units of the reference.

        An operation's reference is the median probe time over the probes
        from ``REF_WINDOW_S`` before it starts to ``REF_WINDOW_S`` after it
        ends, which include the two bracketing it.
        """
        mids = [m for m, _ in self.probes]
        per_key: dict = {}
        for key, start, end, latency, op_time in self.samples:
            lo = bisect.bisect_left(mids, start - REF_WINDOW_S)
            hi = bisect.bisect_right(mids, end + REF_WINDOW_S)
            ref = median(d for _, d in self.probes[lo:hi])
            per_key.setdefault(key, []).append((latency / ref, op_time / ref))
        return per_key

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < KEEP_FAILURES:
            self.failures.append(message)
        print(f"perfbench: {message}", file=sys.stderr)


def measuring(ctx: Context, out: Outcome, start: float) -> bool:
    """Whether the loop times another input.

    Until ``--seconds`` have passed and, in an untraced run, the first round
    is complete; a traced run, which gives no end-to-end metrics, stops on
    time.
    """
    elapsed = time.perf_counter() - start
    wanted = 1 if ctx.tracer is None else 0
    return elapsed < HARD_STOP_S and (elapsed < ctx.seconds or out.rounds < wanted)


def in_rounds(pool_size: int, seed: int) -> Iterator[tuple[int, int]]:
    """``(round, input index)`` forever; each round is a fresh seeded permutation."""
    rng = np.random.default_rng(seed)
    for r in itertools.count():
        for k in rng.permutation(pool_size):
            yield r, int(k)


def reference_kernel() -> int:
    """Fixed work, independent of the program, that the machine's speed is read off.

    Tuple keys into a dict, a set and a sort: the same kind of work as the
    program's branch bookkeeping, so it slows down with the program when
    other tenants contend for the core and its caches.
    """
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i % 89, i)
        table[key] = table.get(key[:2], 0.0) + 1.0
    return len(sorted(set(table)))


def timed(fn: Callable, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def set_up(ctx: Context, build: Callable) -> tuple[object, object, list[float]]:
    """Run the workload's set-up ``SETUP_REPS`` times from a fresh import.

    Returns the last imported package, the last set-up's result and the
    set-up times.  In traced runs the tracer is installed on each fresh
    import, inside the timed region.
    """
    times = []
    ir = built = None
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        ir = fresh_import()
        if ctx.tracer is not None:
            ctx.tracer.install()
        built = build(ir)
        times.append(time.perf_counter() - t0)
    return ir, built, times


@dataclass
class Program:
    """The program-side view of one op's plain-data inputs."""

    ir: object

    def graph(self, matrix: np.ndarray, *, stochastic: bool):
        return self.ir.WeightedDigraph.from_edges(
            matrix.shape[0], inputs.edges_of(matrix), stochastic=stochastic)

    def delta(self, ops):
        return self.ir.GraphDelta(tuple(self.ir.DeltaOp(*op) for op in ops))


def state_errors(state, own: np.ndarray) -> list[str]:
    """Oracle checks of a stored state against the benchmark's own matrix."""
    g = state.graph
    active = g.vertices()
    errs = []
    got = oracles.weight_matrix(g.n_vertices, g.weights)
    if got.shape != own.shape or np.abs(got - own).max() > oracles.MATRIX_TOL:
        errs.append("graph weights differ from the benchmark's own edit of the input")
        return errs
    members = state.structural.members
    if not oracles.complement_acyclic(own, members, active):
        errs.append(f"complement of structural set {members} has a cycle")
        return errs
    e = oracles.extended_error(own, members, active, state.extended.entries)
    if not e <= oracles.MATRIX_TOL:
        errs.append(f"extended matrix off the closed form by {e:.3g}")
    return errs


def eigvec_error(state, own: np.ndarray) -> float:
    """L1 distance of the committed full vector from the dense oracle's."""
    truth = oracles.perron_vector(own, state.graph.vertices())
    return float(np.abs(state.full_vector - truth).sum())


def reference_baselines(ir, out: Outcome, before, after, own: np.ndarray,
                        build_kwargs: dict) -> None:
    """Matched-residual dense power iteration and a scratch rebuild.

    The power iteration starts from the previous committed vector, as the
    update's reduced solve does, and stops at the residual the update
    reached (floored at roundoff).
    """
    active = [v - 1 for v in after.graph.vertices()]
    a = own[np.ix_(active, active)]
    target = max(oracles.l1_residual(a, after.full_vector[active]), 1e-14)
    prev = np.zeros(own.shape[0])
    prev[:before.full_vector.shape[0]] = before.full_vector
    (_, its), t = timed(oracles.power_to_residual, a, prev[active], target)
    out.power_matched.append(t)
    out.power_iters.append(its)
    _, t = timed(ir.StoredState.from_graph, after.graph, **build_kwargs)
    out.rebuild.append(t)


def record_update(out: Outcome, state, own: np.ndarray) -> None:
    """Counts of one committed update; ``own`` is the benchmark's matrix for it."""
    out.eig_err.append(eigvec_error(state, own))
    out.unconverged.append(not state.eig_converged)
    out.branches.append(len(state.branches))
    out.structural_size.append(len(state.structural.members))
    out.max_depth.append(state.structural.max_depth)


def record_traced(out: Outcome, op: str, latency: float) -> None:
    """A traced repeat of the operation just timed untraced, paired with it."""
    out.traced_ops.append(op)
    out.traced_latency.append(latency)
    out.paired_latency.append(out.latency[-1])


def record_update_reference(ctx: Context, ir, out: Outcome, before, after, report,
                            own: np.ndarray, build_kwargs: dict) -> None:
    """Report, promotions and reference baselines of one update, in a traced run."""
    out.reports.append(report.to_dict())
    fresh = set(after.structural.members) - set(before.structural.members)
    out.promotions.append(0 if report.structural_fallback else len(fresh))
    with ctx.tracer.pause():
        reference_baselines(ir, out, before, after, own, build_kwargs)


def run_rounds(ctx: Context, out: Outcome, items: Iterator[tuple]) -> Iterator[tuple]:
    """Pass on ``(round, ...)`` items until :func:`measuring` says stop.

    ``out.rounds`` counts the rounds completed; the clock starts when the
    first item is asked for.
    """
    start = time.perf_counter()
    for item in items:
        out.rounds = item[0]
        if not measuring(ctx, out, start):
            return
        yield item


def guarded(out: Outcome, label: str, fn: Callable):
    """Call ``fn``; an exception counts as a failed operation and returns None."""
    try:
        return fn()
    except Exception:  # the loop must go on; the failure is counted and shown
        out.fail(f"{label} raised:\n{traceback.format_exc()}")
        return None


# -- paper-ref ---------------------------------------------------------------

PAPER_N, PAPER_DEGREE, PAPER_P = 60, 2.5, 3
#: Trials: ``PAPER_GRAPHS`` graphs with ``PAPER_DELTAS`` deltas each.
PAPER_GRAPHS, PAPER_DELTAS, PAPER_POOL_SEED = 20, 2, 1
PAPER_BUILD = {"ell": 500, "tol": 1e-12}
PAPER_UPDATE = {"ell": 10}


def paper_pool() -> list[tuple[np.ndarray, list]]:
    """The fixed trials: a graph and one delta on it."""
    rng = np.random.default_rng(PAPER_POOL_SEED)
    graphs = [inputs.primitive_stochastic_matrix(PAPER_N, PAPER_DEGREE, rng)
              for _ in range(PAPER_GRAPHS)]
    return [(a, inputs.DeltaStream(a != 0, rng, p=PAPER_P).next_delta())
            for a in graphs for _ in range(PAPER_DELTAS)]


def paper_inputs(seed: int, pool: list | None = None
                 ) -> Iterator[tuple[int, int, np.ndarray, list]]:
    """Trials ``(round, pool index, matrix, delta ops)``."""
    pool = paper_pool() if pool is None else pool
    for r, k in in_rounds(len(pool), seed):
        yield r, k, *pool[k]


def paper_ref(ctx: Context) -> Outcome:
    out = Outcome("update")
    pool = paper_pool()
    ir, _, out.setup = set_up(ctx, lambda ir: ir.StoredState.from_graph(
        Program(ir).graph(pool[0][0], stochastic=True), **PAPER_BUILD))
    prog = Program(ir)
    for r, k, a, ops in run_rounds(ctx, out, paper_inputs(ctx.seed, pool)):
        g, delta = prog.graph(a, stochastic=True), prog.delta(ops)
        out.attempted += 1

        def trial():
            s, tb = timed(ir.StoredState.from_graph, g, **PAPER_BUILD)
            (s2, rep), tu = timed(ir.run_update, s, delta, **PAPER_UPDATE)
            return s, s2, rep, tb, tu

        start = out.probe()
        res = guarded(out, f"trial {r}.{k}", trial)
        if res is None:
            continue
        state, new, report, tb, tu = res
        own = oracles.apply_ops(a, ops)
        errs = state_errors(state, a) + state_errors(new, own)
        if errs:
            out.fail(f"trial {r}.{k}: " + "; ".join(errs))
            continue
        out.sample(k, start, tu, tb + tu)
        if r == 0:
            record_update(out, new, own)
        if ctx.tracer is not None:
            op = f"trial{r}.{k}"
            with ctx.tracer.operation(op):
                s = ir.StoredState.from_graph(g, **PAPER_BUILD)
                _, tu_traced = timed(ir.run_update, s, delta, **PAPER_UPDATE)
            record_traced(out, op, tu_traced)
            if r == 0:
                record_update_reference(ctx, ir, out, state, new, report, own, PAPER_BUILD)
    return out


# -- update-stream -----------------------------------------------------------

STREAM_N, STREAM_DEGREE, STREAM_P = 80, 2.5, 3
#: Base graph draw with ~6.4k branches.  Draws 0-9 of this generator at n=80
#: range from 5.8k to 49k branches (median ~20k); at the median an update
#: takes ~0.3 s, too slow for the >=100 updates a p90 needs in one round.
STREAM_BASE_SEED = 7
STREAM_DELTA_SEED = 3
STREAM_EPISODES, STREAM_EPISODE, STREAM_CHECKPOINT = 7, 15, 5
STREAM_MAX_DEV = 3


def stream_base() -> np.ndarray:
    return inputs.primitive_stochastic_matrix(
        STREAM_N, STREAM_DEGREE, np.random.default_rng(STREAM_BASE_SEED))


def stream_episodes(base: np.ndarray) -> list[list[list]]:
    """The fixed episodes: each a stream of deltas from the base graph."""
    rng = np.random.default_rng(STREAM_DELTA_SEED)
    episodes = []
    for _ in range(STREAM_EPISODES):
        stream = inputs.DeltaStream(base != 0, rng, p=STREAM_P, max_dev=STREAM_MAX_DEV)
        episodes.append([stream.next_delta() for _ in range(STREAM_EPISODE)])
    return episodes


def stream_inputs(seed: int) -> Iterator[tuple[int, int, int, list]]:
    """Deltas ``(round, episode, index, ops)``; each episode restarts from the base graph."""
    episodes = stream_episodes(stream_base())
    for r, e in in_rounds(len(episodes), seed):
        for u, ops in enumerate(episodes[e]):
            yield r, e, u, ops


def state_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path))


def same_state(a, b) -> bool:
    """Whether a loaded state carries exactly the saved state's data."""
    return (dict(a.graph.weights) == dict(b.graph.weights)
            and a.graph.removed == b.graph.removed
            and a.structural.members == b.structural.members
            and np.array_equal(a.extended.entries, b.extended.entries)
            and np.array_equal(a.full_vector, b.full_vector)
            and np.array_equal(a.reduced_vector, b.reduced_vector)
            and set(a.branches.branches) == set(b.branches.branches))


def update_stream(ctx: Context) -> Outcome:
    """One graph under a stream of deltas, checkpointed through ``io``.

    The stream is cut into ``STREAM_EPISODES`` episodes of
    ``STREAM_EPISODE`` updates that each start again from the set-up state;
    a round runs every episode once, and a run may stop within an episode.  An update's input is its
    ``(episode, index)``; its operation time includes the checkpoint that
    follows it every ``STREAM_CHECKPOINT`` updates.
    """
    out = Outcome("update")
    base = stream_base()
    ir, base_state, out.setup = set_up(ctx, lambda ir: ir.StoredState.from_graph(
        Program(ir).graph(base, stochastic=True)))
    prog = Program(ir)
    errs = state_errors(base_state, base)
    if errs:
        out.fail("set-up state: " + "; ".join(errs))
        return out
    ckdir = os.path.join(ctx.scratch, "state")
    broken = None
    for r, ep, u, ops in run_rounds(ctx, out, stream_inputs(ctx.seed)):
        if u == 0:
            state, own = base_state, base
        elif broken == (r, ep):
            continue
        label = f"update {r}.{ep}.{u}"
        delta = prog.delta(ops)
        out.attempted += 1
        start = out.probe()
        res = guarded(out, label, lambda: timed(ir.run_update, state, delta))
        if res is None:
            broken = (r, ep)
            continue
        (new, report), tu = res
        own2 = oracles.apply_ops(own, ops)
        errs = state_errors(new, own2)
        if errs:
            out.fail(f"{label}: " + "; ".join(errs))
            broken = (r, ep)
            continue
        op = f"update{r}.{ep}.{u}"
        op_time = tu
        prev, state, own = state, new, own2
        if u % STREAM_CHECKPOINT == STREAM_CHECKPOINT - 1:
            def checkpoint():
                ir.io.save_state(state, ckdir)
                return ir.io.load_state(ckdir)
            traced = ctx.tracer.operation(op) if ctx.tracer else nullcontext()
            with traced:
                res = guarded(out, f"checkpoint {r}.{ep}.{u}", lambda: timed(checkpoint))
            if res is None:
                broken = (r, ep)
                continue
            loaded, tc = res
            if r == 0:
                out.state_bytes.append(state_bytes(ckdir))
            shutil.rmtree(ckdir)
            if not same_state(loaded, state):
                out.fail(f"checkpoint {r}.{ep}.{u}: loaded state differs from the saved one")
                broken = (r, ep)
                continue
            state = loaded
            op_time += tc
        out.sample((ep, u), start, tu, op_time)
        if r == 0:
            record_update(out, new, own2)
        if ctx.tracer is not None:
            with ctx.tracer.operation(op):
                _, tu_traced = timed(ir.run_update, prev, delta)
            record_traced(out, op, tu_traced)
            if r == 0:
                record_update_reference(ctx, ir, out, prev, new, report, own2, {})
    return out


# -- reduce-lift -------------------------------------------------------------

QUERY_N, QUERY_DEGREE = 60, 2.5
QUERY_GRAPHS, QUERY_POOL_SEED, QUERY_PAIRS = 20, 2, 3


def query_pool() -> list[tuple[np.ndarray, complex, np.ndarray]]:
    """The fixed queries ``(matrix, lambda, eigenvector)``: up to ``QUERY_PAIRS`` per graph."""
    rng = np.random.default_rng(QUERY_POOL_SEED)
    graphs = [inputs.eigen_graph(QUERY_N, QUERY_DEGREE, rng) for _ in range(QUERY_GRAPHS)]
    pool = []
    for eg in graphs:
        picks = rng.choice(len(eg.pairs), min(QUERY_PAIRS, len(eg.pairs)), replace=False)
        pool += [(eg.matrix, *eg.pairs[int(t)]) for t in sorted(picks)]
    return pool


def query_inputs(seed: int, pool: list | None = None
                 ) -> Iterator[tuple[int, int, np.ndarray, complex, np.ndarray]]:
    """Queries ``(round, pool index, matrix, lambda, eigenvector)``."""
    pool = query_pool() if pool is None else pool
    for r, k in in_rounds(len(pool), seed):
        yield r, k, *pool[k]


def query_errors(a: np.ndarray, lam: complex, x: np.ndarray, result) -> list[str]:
    """Oracle checks of one reduce-lift query's four outputs."""
    ss, red, lifted, chain_red = result
    members = ss.members
    everyone = range(1, a.shape[0] + 1)
    if not oracles.complement_acyclic(a, members, everyone):
        return [f"complement of structural set {members} has a cycle"]
    comp = sorted(set(everyone) - set(members))
    errs = []
    e = oracles.relative_error(red.entries, oracles.reduced_closed_form(a, members, members, comp, lam))
    if not e <= oracles.MATRIX_TOL:
        errs.append(f"R(lambda) off the closed form by {e:.3g}")
    e = oracles.lift_error(lifted.vector, x)
    if not e <= oracles.LIFT_TOL:
        errs.append(f"lifted eigenvector off the true one by {e:.3g}")
    p = oracles.row_normalized(a)
    e = oracles.relative_error(chain_red, oracles.reduced_closed_form(p, members, members, comp, 1.0).real)
    if not e <= oracles.MATRIX_TOL:
        errs.append(f"stopped-chain kernel off the closed form by {e:.3g}")
    return errs


def reduce_lift(ctx: Context) -> Outcome:
    out = Outcome("query")
    pool = query_pool()
    ir, _, out.setup = set_up(ctx, lambda ir: Program(ir).graph(pool[0][0], stochastic=False))
    prog = Program(ir)

    def query(g, lam, x, p):
        ss = ir.find_structural_set(g, lam)
        red = ir.reduced_matrix(g, ss, lam)
        lifted = ir.lift_eigenvector(g, ss, lam, x[[v - 1 for v in ss.members]])
        chain_red = ir.reduced_matrix_of_chain(ir.MarkovChain(p), ss.members)
        return ss, red, lifted, chain_red

    for r, k, a, lam, x in run_rounds(ctx, out, query_inputs(ctx.seed, pool)):
        g, p = prog.graph(a, stochastic=False), oracles.row_normalized(a)
        out.attempted += 1
        start = out.probe()
        res = guarded(out, f"query {r}.{k}", lambda: timed(query, g, lam, x, p))
        if res is None:
            continue
        result, tq = res
        errs = query_errors(a, lam, x, result)
        if errs:
            out.fail(f"query {r}.{k} (lambda {lam:.6g}): " + "; ".join(errs))
            continue
        out.sample(k, start, tq, tq)
        if r == 0:
            ss = result[0]
            out.structural_size.append(len(ss.members))
            out.max_depth.append(ss.max_depth)
        if ctx.tracer is not None:
            g2 = prog.graph(a, stochastic=False)
            op = f"query{r}.{k}"
            with ctx.tracer.operation(op):
                _, tq_traced = timed(query, g2, lam, x, p)
            record_traced(out, op, tq_traced)
    if ctx.tracer is not None:
        out.branches = [int(rec[5]["branches"]) for rec in ctx.tracer.spans
                        if rec[0] == "reduction.enumerate_branches" and rec[4]]
    return out


WORKLOADS = {
    "paper-ref": (paper_ref, paper_inputs),
    "update-stream": (update_stream, stream_inputs),
    "reduce-lift": (reduce_lift, query_inputs),
}
