"""Command-line entry point binding generators, engines and analyzers.

Exit codes: 0 success, 2 invalid input (an `InvalidInput` error, a
`ValueError`, or a file that cannot be read or written), 3 numerical
failure (a `NumericalFailure`: unbounded / ill-defined / failed fit or
descent), 4 internal assertion.  Every source of randomness requires an
explicit --seed; there is no wall-clock seeding.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench
from .cover import build_nerve, direct_tree, spanning_tree
from .errors import InvalidInput, InvalidInstance, NerveMPError, NumericalFailure
from .exactmp import (
    back_substitute,
    centralized_solve,
    local_solve,
    message_digest,
    regularize,
    run_message_passing,
)
from .instancefile import load_instance, save_instance, write_json
from .solubility import analysis_record, objective_task
from .surrogate import ApproxConfig, approx_message_passing, error_ratio

# Command-line names of the generator families and the surrogate kinds.
_KINDS = {
    "distributed-sampling": "distributed_sampling",
    "random-quadratic": "random_quadratic",
    "cover-stats": "cover_from_stats",
}
_SURROGATES = {"quadratic-ls": "quadratic_ls", "mlp": "one_hidden_layer"}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nervemp",
        description="Distributed graph-signal optimization via function-valued "
        "message passing over nerve skeletons.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate and write an instance file")
    g.add_argument("--fixture", choices=["eg32"], help="write a pinned fixture")
    g.add_argument(
        "--kind",
        choices=list(_KINDS),
        help="generator family",
    )
    g.add_argument("--t", type=int, default=4, help="subgraph count (random covers)")
    g.add_argument("--k", type=int, default=25, help="basis count (distributed sampling)")
    g.add_argument("--noise", type=float, default=None,
                   help="observation noise sigma (default: 0.05 * sqrt(k))")
    g.add_argument("--rows", type=str, default=None,
                   help="CSV file with per-subgraph x,y,s,v statistics rows")
    g.add_argument("--seed", type=int, default=None, help="root seed (required unless --fixture)")
    g.add_argument("--out", type=str, required=True, help="output instance path")

    r = sub.add_parser("run-exact", help="run exact message passing on an instance")
    r.add_argument("instance", type=str)
    r.add_argument("--root", type=int, default=0, help="root subgraph index (default: 0)")
    r.add_argument("--tree", choices=["bfs", "random", "max-overlap"], default="bfs",
                   help="spanning tree strategy (default: bfs from the lowest index)")
    r.add_argument("--regularize", type=float, default=None, metavar="EPS",
                   help="add a random positive diagonal drawn from (EPS/2, EPS]")
    r.add_argument("--seed", type=int, default=None,
                   help="root seed; required when any randomness is drawn")
    r.add_argument("--out", type=str, default=None, help="results JSON path")

    a = sub.add_parser("run-approx", help="run approximate message passing")
    a.add_argument("instance", type=str)
    a.add_argument("--root", type=int, default=0, help="root subgraph index (default: 0)")
    a.add_argument("--tree", choices=["bfs", "random", "max-overlap"], default="bfs",
                   help="spanning tree strategy (default: bfs)")
    a.add_argument("--m", type=int, default=80, help="samples per edge (default: 80)")
    a.add_argument("--surrogate", choices=list(_SURROGATES), default="quadratic-ls",
                   help="per-edge fit: full-quadratic least squares (exact on this "
                        "family) or a one-hidden-layer rectifier net (default: quadratic-ls)")
    a.add_argument("--box-radius", type=float, default=5.0,
                   help="sampling box half-width around each node's local center "
                        "(default: 5.0)")
    a.add_argument("--restarts", type=int, default=8,
                   help="root optimizer restarts (default: 8)")
    a.add_argument("--regularize", type=float, default=None, metavar="EPS",
                   help="add a random positive diagonal drawn from (EPS/2, EPS]")
    a.add_argument("--seed", type=int, required=True, help="root seed (required)")
    a.add_argument("--out", type=str, default=None)

    n = sub.add_parser("analyze", help="solubility analysis at a tree leaf")
    n.add_argument("instance", type=str)
    n.add_argument("--task", choices=["from-file", "objective"], default="from-file")
    n.add_argument("--leaf", type=int, required=True)
    n.add_argument("--root", type=int, default=None)
    n.add_argument("--tree", choices=["bfs", "random", "max-overlap"], default="bfs")
    n.add_argument("--seed", type=int, required=True)
    n.add_argument("--out", type=str, default=None)

    s = sub.add_parser("sweep", help="sweep k or m on the benchmark cover")
    s.add_argument("--k-list", type=str, default=None, help="comma-separated k values")
    s.add_argument("--m-list", type=str, default=None, help="comma-separated m values")
    s.add_argument("--k", type=int, default=25, help="fixed k for m sweeps")
    s.add_argument("--m", type=int, default=80, help="fixed m for k sweeps")
    s.add_argument("--surrogate", choices=list(_SURROGATES), default="mlp")
    s.add_argument("--repeats", type=int, default=1)
    s.add_argument("--noise", type=float, default=None)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", type=str, required=True, help="records CSV path")
    s.add_argument("--aggregate-out", type=str, default=None, help="aggregate CSV path")
    return p


def _load_for_run(args):
    """The instance, its quadratics (regularized when asked) and the directed
    tree that run-exact and run-approx work on."""
    instance = load_instance(args.instance)
    if instance.observations is None:
        raise InvalidInstance("instance carries no observations")
    quads = instance.quads
    if args.regularize is not None:
        if args.seed is None:
            raise ValueError("--regularize requires --seed")
        quads = regularize(quads, args.regularize, args.seed)
    strategy = args.tree.replace("-", "_")
    if strategy == "random" and args.seed is None:
        raise ValueError("--tree random requires --seed")
    nerve = build_nerve(instance.cover)
    stree = spanning_tree(nerve, strategy, instance.cover, root=args.root, seed=args.seed)
    return instance, quads, direct_tree(stree, args.root)


def _read_rows_csv(path: str):
    rows = []
    for k, line in enumerate(Path(path).read_text().splitlines()):
        line = line.strip()
        if not line or line.lower().startswith(("x", "#")):
            continue
        parts = [int(t) for t in line.split(",")]
        if len(parts) != 4:
            raise InvalidInstance(f"stats row {k} needs 4 integers, got {len(parts)}")
        rows.append(tuple(parts))
    if not rows:
        raise InvalidInstance(f"no statistics rows found in {path}")
    return tuple(rows)


def _cmd_gen(args) -> int:
    if args.fixture == "eg32":
        instance = bench.fixture_eg32()
    elif args.kind is not None:
        if args.seed is None:
            raise ValueError("generation with randomness requires --seed")
        instance = bench.generate_instance(bench.InstanceSpec(
            kind=_KINDS[args.kind], t=args.t, k=args.k, noise=args.noise, seed=args.seed,
            rows=_read_rows_csv(args.rows) if args.rows else None,
        ))
    else:
        raise ValueError("gen needs either --fixture or --kind")
    save_instance(instance, args.out)
    print(f"wrote instance with {instance.cover.graph.n} nodes, "
          f"{instance.cover.t} subgraphs to {args.out}")
    return 0


def _cmd_run_exact(args) -> int:
    instance, quads, dtree = _load_for_run(args)
    digests = {}
    run = run_message_passing(
        instance.cover, quads, instance.observations, dtree,
        on_message=lambda edge, msg: digests.__setitem__(edge, message_digest(msg)),
    )
    value, yhat, kernel = local_solve(run)
    central_value, _, _ = centralized_solve(instance.cover, quads, instance.observations)
    rel = abs(value - central_value) / max(1.0, abs(central_value))
    print(f"aggregated minimum {value!r}")
    print(f"centralized minimum {central_value!r} (relative gap {rel:.2e})")
    kdim = kernel.shape[1]
    if kdim:
        print(f"kernel report: minimizer set has {kdim} free direction(s)")
    minimizer = None
    if not any(rec.singular for rec in run.edge_records.values()) and kdim == 0:
        xfull = back_substitute(run, yhat)
        minimizer = [[int(v), float(xfull[v])] for v in instance.cover.graph.nodes]
    payload = {
        "value": value,
        "centralized_value": central_value,
        "root": args.root,
        "aggregated_vars": [int(v) for v in run.aggregated.vars],
        "minimizer": minimizer,
        "kernel_dim": kdim,
        "surviving_foreign_vars": [int(v) for v in run.surviving_foreign_vars],
        "edge_digests": [[int(i), int(j), d] for (i, j), d in sorted(digests.items())],
    }
    if args.out:
        write_json(args.out, payload)
    return 0


def _cmd_run_approx(args) -> int:
    instance, quads, dtree = _load_for_run(args)
    config = ApproxConfig(m=args.m, kind=_SURROGATES[args.surrogate], box_radius=args.box_radius,
                          restarts=args.restarts, seed=args.seed)
    value, yhat, diag = approx_message_passing(
        instance.cover, quads, instance.observations, dtree, config
    )
    run = run_message_passing(instance.cover, quads, instance.observations, dtree)
    exact_value, _, _ = local_solve(run)
    print(f"approximate minimum {value!r}")
    print(f"exact minimum {exact_value!r} (error ratio {error_ratio(value, exact_value):.4f}%)")
    payload = {
        "value": value,
        "exact_value": exact_value,
        "error_ratio_percent": error_ratio(value, exact_value),
        "yhat": [[int(v), float(x)] for v, x in sorted(yhat.items())],
        "diagnostics": diag,
    }
    if args.out:
        write_json(args.out, payload)
    return 0


def _cmd_analyze(args) -> int:
    instance = load_instance(args.instance)
    if args.task == "objective":
        task = objective_task()
    else:
        if instance.task is None:
            raise InvalidInstance("instance carries no task; use --task objective")
        task = instance.task
    nerve = build_nerve(instance.cover)
    strategy = args.tree.replace("-", "_")
    stree = spanning_tree(nerve, strategy, instance.cover, seed=args.seed)
    record = analysis_record(
        instance.cover, instance.quads, task, stree, args.leaf,
        root=args.root, seed=args.seed,
    )
    flag = record["flag"]
    lhs = record["S_i"] - record["b_alpha"]
    rhs = record["S"] - record["dim_M"]
    print(f"leaf {record['leaf']}: |S_i| - b_alpha = {lhs} "
          f"{'>' if flag else '<='} {rhs} = |S| - dim_M "
          f"-> insolubility flag {flag}")
    print(f"direct solubility test at root {record['root']}: {record['direct_test']}")
    if args.out:
        write_json(args.out, record)
    return 0


def _cmd_sweep(args) -> int:
    k_list = [int(t) for t in args.k_list.split(",")] if args.k_list else None
    m_list = [int(t) for t in args.m_list.split(",")] if args.m_list else None
    spec = bench.InstanceSpec(kind="distributed_sampling", k=args.k,
                              noise=args.noise, seed=args.seed)
    config = ApproxConfig(m=args.m, kind=_SURROGATES[args.surrogate], seed=args.seed)
    records, aggregates = bench.run_experiment(
        spec, config, k_list=k_list, m_list=m_list,
        repeats=args.repeats, seed=args.seed,
    )
    Path(args.out).write_text(bench.records_csv(records))
    if args.aggregate_out:
        Path(args.aggregate_out).write_text(bench.aggregates_csv(aggregates))
    for a in aggregates:
        print(f"sweep point {a['sweep_point']}: mean R {a['mean_R']:.4f}% "
              f"(std {a['std_R']:.4f}, n={a['n']})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "run-exact": _cmd_run_exact,
        "run-approx": _cmd_run_approx,
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (InvalidInput, ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 4
    except NerveMPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
