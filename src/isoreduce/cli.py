"""Command-line front end.

Subcommands: reduce, lift, update, simulate, bench, verify.  Exit codes:
0 success, 1 invariant/verification failure or a bench with no completed
trial, 2 invalid input.  Each subcommand takes the common flags it reads,
after its name: --format and --out on all, --tol (default from the
ISOREDUCE_TOL environment variable) on reduce, lift, update and simulate,
and --seed on simulate, bench and verify.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io
from .bench import run_experiment, verify_suite
from .exceptions import (DeltaError, GraphFormatError, IsoreduceError,
                         NonStochasticError, NotPrimitiveError, StructuralSetError)
from .generate import ExperimentConfig
from .graph import compute_depths, find_structural_set
from .markov import MarkovChain, reduced_matrix_of_chain, simulate_stopped_chain
from .reduction import (branch_counts, extended_reduced_matrix,
                        reduced_matrices_by_length, reduced_matrix)
from .spectral import lift_eigenvector
from .update import run_update


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        z = complex(*map(float, parts)) if len(parts) <= 2 else None
    except ValueError:
        z = None
    if z is None or not np.isfinite(z):
        raise argparse.ArgumentTypeError(f"expected finite RE or RE,IM, got {text!r}")
    return z


def _parse_tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    if not 0 <= tol < float("inf"):
        raise argparse.ArgumentTypeError(
            f"expected a finite non-negative tolerance, got {text!r}")
    return tol


def _parse_members(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vertex list {text!r}") from exc


def _emit(payload, args) -> None:
    text = io.dumps(payload) if args.format == "json" else io.render_table(payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _structural_for(graph, args, lam):
    if args.structural is not None:
        return compute_depths(graph, args.structural, lam, args.tol)
    return find_structural_set(graph, lam, args.tol)


def _complex_matrix(mat: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(mat, dtype=complex)]


def cmd_reduce(args) -> int:
    graph = io.read_graph(args.graph, stochastic=args.stochastic or None)
    lam = args.lam
    ss = _structural_for(graph, args, lam)
    n_branches, m_statistic = branch_counts(graph, ss)
    red = reduced_matrix(graph, ss, lam, tol=args.tol)
    payload = {
        "lambda": [lam.real, lam.imag],
        "members": list(ss.members),
        "max_depth": ss.max_depth,
        "n_branches": n_branches,
        "m_statistic": m_statistic,
        "reduced": _complex_matrix(red.entries),
    }
    if args.lengths:
        terms = reduced_matrices_by_length(graph, ss, lam, tol=args.tol)
        payload["by_length"] = {str(p): _complex_matrix(t) for p, t in enumerate(terms, 1)}
    if args.extended:
        ext = extended_reduced_matrix(graph, ss, tol=args.tol)
        payload["extended"] = ext.entries.tolist()
    _emit(payload, args)
    return 0


def cmd_lift(args) -> int:
    graph = io.read_graph(args.graph, stochastic=args.stochastic or None)
    vertices, values, _, lam_stored = io.read_vector(args.vector)
    lam = args.lam if args.lam is not None else lam_stored
    if lam is None:
        lam = 1.0
    ss = _structural_for(graph, args, lam)
    if tuple(vertices) != ss.members:
        raise GraphFormatError(
            f"vector is indexed by {vertices}, structural set is {list(ss.members)}")
    pair = lift_eigenvector(graph, ss, lam, values, tol=args.tol)
    payload = io.vector_to_dict(pair.vertices, pair.vector, pair.normalization, lam)
    payload["residual"] = pair.residual
    _emit(payload, args)
    return 0


def cmd_update(args) -> int:
    state = io.load_state(args.state)
    delta = io.read_delta(args.delta)
    new_state, report = run_update(state, delta, ell=args.ell, tol=args.tol)
    report.validate()
    if args.save:
        io.save_state(new_state, args.save)
    _emit(report.to_dict(), args)
    return 0


def cmd_simulate(args) -> int:
    graph = io.read_graph(args.graph, stochastic=True)
    chain = MarkovChain.from_stochastic_graph(graph)
    ss = _structural_for(chain.graph(), args, 1.0)
    sample = simulate_stopped_chain(chain, ss.members, args.steps, args.seed)
    expected = reduced_matrix_of_chain(chain, ss.members)
    payload = {
        "seed": sample.seed,
        "steps": sample.steps,
        "members": list(sample.members),
        "visits": len(sample.visits),
        "counts": sample.counts.tolist(),
        "empirical": sample.empirical_transition.tolist(),
        "expected": expected.tolist(),
    }
    _emit(payload, args)
    return 0


def cmd_bench(args) -> int:
    config = ExperimentConfig(n=args.n, avg_degree=args.avg_degree, p=args.p,
                              ell=args.ell, trials=args.trials, seed=args.seed)
    summary = run_experiment(config, check_equivalence=args.check_equivalence)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(summary.savings_csv())
    _emit(summary.to_dict(), args)
    bad_eq = any(r.equivalence_ok is False for r in summary.results)
    return 1 if bad_eq or not summary.savings else 0


def cmd_verify(args) -> int:
    report = verify_suite(seed=args.seed, rounds=args.rounds,
                          state_dir=args.state,
                          graph_paths=tuple(args.graphs or ()))
    _emit(report.to_dict(), args)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoreduce",
        description="Isospectral graph reduction, eigenvector lifting, and "
                    "incremental dominant-eigenvector updates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text, *, tol=False, seed=False):
        p = sub.add_parser(name, help=help_text)
        if tol:
            # argparse converts a string default only when the flag is absent
            p.add_argument("--tol", type=_parse_tolerance,
                           default=os.environ.get("ISOREDUCE_TOL", "1e-12"),
                           help="numeric tolerance (env ISOREDUCE_TOL overrides default)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    p = add_command("reduce", "reduced matrix over a structural set", tol=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--structural", type=_parse_members, default=None,
                   help="comma-separated members; searched when omitted")
    p.add_argument("--lam", type=_parse_complex, default=complex(1.0),
                   help="spectral parameter RE or RE,IM")
    p.add_argument("--extended", action="store_true",
                   help="include the all-pairs matrix (stochastic graphs)")
    p.add_argument("--lengths", action="store_true",
                   help="include the length-partitioned matrices")
    p.add_argument("--stochastic", action="store_true",
                   help="validate the input as stochastic")
    p.set_defaults(func=cmd_reduce)

    p = add_command("lift", "lift a reduced eigenvector to the full graph", tol=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--structural", type=_parse_members, default=None)
    p.add_argument("--lam", type=_parse_complex, default=None)
    p.add_argument("--vector", required=True, help="JSON eigenvector over the members")
    p.add_argument("--stochastic", action="store_true")
    p.set_defaults(func=cmd_lift)

    p = add_command("update", "apply a delta to a stored state", tol=True)
    p.add_argument("--state", required=True, help="state directory")
    p.add_argument("--delta", required=True, help="delta JSON file")
    p.add_argument("--ell", type=int, default=200, help="iterations the cost model charges")
    p.add_argument("--save", help="directory for the updated state")
    p.set_defaults(func=cmd_update)

    p = add_command("simulate", "stopped-chain sample of a stochastic graph",
                    tol=True, seed=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--structural", type=_parse_members, default=None)
    p.add_argument("--steps", type=int, default=100_000)
    p.set_defaults(func=cmd_simulate)

    p = add_command("bench", "random-graph cost-savings experiment", seed=True)
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--avg-degree", type=float, default=2.5)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--ell", type=int, default=10, help="iterations the cost model charges")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--csv", help="write per-trial savings as CSV")
    p.add_argument("--check-equivalence", action="store_true", default=None,
                   help="compare every trial against scratch recomputation "
                        "(default: only when n <= 15)")
    p.set_defaults(func=cmd_bench)

    p = add_command("verify", "run the named invariant checks", seed=True)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--state", help="stored-state directory to validate")
    p.add_argument("--graphs", nargs="*", help="stochastic graph files to check")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, NonStochasticError, DeltaError, NotPrimitiveError,
            StructuralSetError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except IsoreduceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
