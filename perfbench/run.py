"""Benchmark of isoreduce: build, incremental update and reduce/lift.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload update-stream --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics, timed with tracing off; with
``--trace 1`` it carries the per-layer metrics of a traced run, and the
spans are written under ``.perfbench-out/``.  The line before it is the run
record: machine facts, sample counts, the workload's own metric names,
failures and (traced) the reference baselines.  The exit code is 1 when an
oracle check failed or no operation completed, 2 when the program's source
is missing.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, fixed before numpy loads, so runs do not contend.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import numpy as np

import selfcheck
import workloads
from oracles import EIGVEC_TOL
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile (``0 < q < 1``).

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics.  It
    moves smoothly with the data, so where the inputs' costs leave a gap at
    ``q`` the estimate does not jump between the two sides of the gap from
    one run to the next, as the sample quantile does.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def per_input(out) -> tuple[list[float], list[float]]:
    """Each input's median latency and operation time over its rounds, in ref."""
    in_ref = out.in_ref()
    lat = [median(v[0] for v in vals) for vals in in_ref.values()]
    ops = [median(v[1] for v in vals) for vals in in_ref.values()]
    return lat, ops


def end_to_end(out) -> dict[str, tuple[float, str]]:
    """Set-up in seconds; latency and throughput in units of the reference kernel.

    Latency quantiles are taken over the inputs' medians; throughput is the
    number of inputs over the sum of their median operation times.
    """
    lat, ops = per_input(out)
    return {
        "setup_s": (median(out.setup), "s"),
        "latency_p50_ref": (hd_quantile(lat, 0.5), "ref"),
        "latency_p90_ref": (hd_quantile(lat, 0.9), "ref"),
        "ops_per_kref": (1000.0 * len(ops) / sum(ops), "ops/kref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _median(values) -> float:
    return float(median(values)) if len(values) else 0.0


def per_layer(out, tracer) -> dict[str, tuple[float, str]]:
    """Layer metrics of a traced run; 0 where the workload never enters a layer."""
    m: dict[str, tuple[float, str]] = {}
    for name in ("update.session", "update.apply", "update.refresh", "update.commit",
                 "update.from_graph",
                 "reduction.enumerate_branches", "reduction.extended_reduced_matrix",
                 "reduction.reduced_matrix", "graph.find_structural_set",
                 "graph.compute_depths", "graph.validate_structural",
                 "spectral.is_primitive", "spectral.power_iteration",
                 "spectral.lift_eigenvector", "markov.reduced_matrix_of_chain",
                 "io.save_state", "io.load_state"):
        m[f"{name}_s"] = (tracer.call_median(name), "s")
    reports = out.reports
    m["update.touched_branches"] = (_mean([r["measured"]["touched_branches"] for r in reports]), "count")
    m["update.weight_updates"] = (_mean([r["measured"]["weight_updates"] for r in reports]), "count")
    m["update.promotions"] = (_mean(out.promotions), "count")
    m["update.fallbacks"] = (_mean([r["structural_fallback"] for r in reports]), "fraction")
    m["reduction.branches"] = (_median(out.branches), "count")
    m["graph.structural_size"] = (_median(out.structural_size), "count")
    m["graph.max_depth"] = (_median(out.max_depth), "count")
    m["spectral.power_iterations"] = (tracer.count_median("spectral.power_iteration", "iterations"), "count")
    m["spectral.unconverged_commits"] = (_mean(out.unconverged), "fraction")
    m["io.state_bytes"] = (_median(out.state_bytes), "bytes")
    for layer, t in tracer.layer_self_means().items():
        m[f"self.{layer}_s"] = (t, "s")
    untraced = _median(out.paired_latency)
    power, rebuild = _median(out.power_matched), _median(out.rebuild)
    m["baseline.power_matched_s"] = (power, "s")
    m["baseline.power_matched_iters"] = (_median(out.power_iters), "count")
    m["baseline.rebuild_s"] = (rebuild, "s")
    m["model.savings"] = (_median([r["savings"] for r in reports]), "fraction")
    m["measured.savings_vs_power"] = (1.0 - untraced / power if power else 0.0, "fraction")
    m["measured.savings_vs_rebuild"] = (1.0 - untraced / rebuild if rebuild else 0.0, "fraction")
    m["eigvec_l1_err_p50"] = (_median(out.eig_err), "L1")
    m["eigvec_miss_frac"] = (_mean([e > EIGVEC_TOL for e in out.eig_err]), "fraction")
    m["trace.overhead_s"] = (trace_overhead(out), "s")
    return m


def trace_overhead(out) -> float:
    """Median of traced minus untraced latency, paired on the same input."""
    return _median([t - u for t, u in zip(out.traced_latency, out.paired_latency)])


def machine_facts() -> dict:
    head = ROOT / ".git" / "HEAD"
    revision = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            revision = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            revision = ref
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "git_revision": revision,
    }


def run_record(args, out, tracer) -> dict:
    op = out.op_name
    rec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(),
        "reference_kernel_ms": 1000.0 * _median([d for _, d in out.probes]),
        "samples": {"setup": len(out.setup), "inputs": len({s[0] for s in out.samples}),
                    "rounds": out.rounds, f"{op}_latency": len(out.latency),
                    "eigvec": len(out.eig_err)},
        "attempted": out.attempted, "failed": out.failed,
        "failed_frac": out.failed / out.attempted if out.attempted else None,
        "failures": out.failures,
    }
    if out.latency:
        rec["metrics"] = {
            f"{op}_p50_s": {"value": percentile(out.latency, 50), "unit": "s"},
            f"{op}_p90_s": {"value": percentile(out.latency, 90), "unit": "s"},
            "ops_per_s": {"value": len(out.op_time) / sum(out.op_time), "unit": "ops/s"},
        }
        if out.eig_err:
            rec["metrics"]["eigvec_miss_frac"] = {
                "value": _mean([e > EIGVEC_TOL for e in out.eig_err]), "unit": "fraction"}
    if tracer is not None and out.paired_latency:
        untraced = _median(out.paired_latency)
        rec["accounting"] = {f"{op}_p50_s_untraced": untraced,
                             "trace_overhead_s": trace_overhead(out),
                             "paired_samples": len(out.paired_latency)}
        if op == "update":
            steps = tracer.op_sums([f"update.{s}" for s in ("session", "apply", "refresh", "commit")])
            rec["accounting"]["session+apply+refresh+commit_s"] = _median(list(steps.values()))
            rec["accounting"]["gap_s"] = _median(
                [steps[k] - u for k, u in zip(out.traced_ops, out.paired_latency)])
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problems = selfcheck.run(args.workload, args.seed)
    if problems:
        for p in problems:
            print(f"perfbench: self-check failed: {p}", file=sys.stderr)
        return 1

    tracer = Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        ctx = workloads.Context(args.seed, args.seconds, tracer, scratch)
        out = workloads.WORKLOADS[args.workload][0](ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({"record": run_record(args, out, tracer)}))
    if not out.latency:
        print(json.dumps({"correct": False, "attempted": max(out.attempted, 1),
                          "failed": max(out.failed, 1), "metrics": {}}))
        return 1
    if tracer is not None:
        tracer.dump(str(OUT_DIR / f"spans-{args.workload}-{args.seed}.json"))
        metrics = per_layer(out, tracer)
    else:
        metrics = end_to_end(out)
    correct = out.failed == 0
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (ROOT / "src" / "isoreduce" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'isoreduce'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
