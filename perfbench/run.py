"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload exact-t800 --seed 1 --seconds 32 --trace 0

Run from the repository root; the program is imported from `src/`.  The
untraced run (`--trace 0`) reports the end-to-end metrics, the traced run
(`--trace 1`) the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when the run
completed, whether or not every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Set-up is repeated and its median reported, so that one slow repetition
# does not decide the figure.  The import is timed in fresh interpreters,
# since a process imports a module only once.
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, nervemp; "
                "print(time.perf_counter() - t)")
# One BLAS thread: on a 2-vCPU guest two threads were no faster on any
# workload and spread record-mlp's op time twice as wide.
BLAS_THREADS = 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def run_op(workload, state, arg):
    """Time one op and check its answer; returns (seconds, answer, failure)."""
    t0 = time.perf_counter()
    try:
        answer = workload.op(state, arg)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return time.perf_counter() - t0, None, f"raised {exc!r}"
    seconds = time.perf_counter() - t0
    return seconds, answer, workload.check(state, arg, answer)


def import_seconds() -> float:
    """Median time to import numpy and nervemp in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def op_p50(times, kinds: int) -> float:
    """Median op time per op kind (position in the cycle), averaged over kinds.

    The kinds of one workload differ in cost by up to 2x (the tree
    strategies of exact-t800), so the plain median of all ops is the median
    of the middle kind's few samples; this uses every sample and weights
    each kind equally.  Where a cycle has few repeats it is close to the
    mean, which averages over the host's speed swings within a run; the
    plain median jumps between fast and slow spells.
    """
    return statistics.fmean(statistics.median(times[k::kinds]) for k in range(kinds))


def measure(workload, state, seconds, tracer=None):
    """Whole cycles of ops, as many as bring the timed phase closest to `seconds`.

    Whole cycles keep the mix of ops, and so `ops_per_s`, the same from run
    to run, and make the per-op counts of a traced run repeat exactly.  In a
    traced run each op also runs untraced on the same inputs, before or
    after the traced op in turn; the two timings give the tracing overhead.
    """
    cycle = workload.cycle(state)
    # The first ops of a process run up to a third slower (first calls,
    # memory growth); one untimed op absorbs that.
    run_op(workload, state, cycle[0])
    times, answers, failures = [], [], []
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    cycles = 0
    while True:
        for arg in cycle:
            j = len(times)
            if tracer is None:
                dt, answer, failure = run_op(workload, state, arg)
            else:
                if j % 2 == 0:
                    untraced_s += run_op(workload, state, arg)[0]
                tracer.op = j
                tracer.install()
                try:
                    tracer.open("op")
                    try:
                        dt, answer, failure = run_op(workload, state, arg)
                    finally:
                        tracer.close()
                finally:
                    tracer.uninstall()
                traced_s += dt
                if j % 2 == 1:
                    untraced_s += run_op(workload, state, arg)[0]
            times.append(dt)
            answers.append(answer)
            failures.append(failure)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / cycles >= seconds:
            break
    if None not in answers:
        for i in workload.check_all(answers):
            failures[i] = failures[i] or "missed the band over the run's records"
    overhead = traced_s / untraced_s - 1.0 if tracer is not None else None
    return times, answers, failures, elapsed, overhead


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nervemp", "__init__.py")):
        print(f"error: {SRC}/nervemp not found; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)

    import numpy as np
    import nervemp  # noqa: F401
    import_s = import_seconds()

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args, np)
    print("env " + json.dumps(env, sort_keys=True))

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            state = workload.setup(args.seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    times, answers, failures, elapsed, overhead = measure(
        workload, state, args.seconds, tracer)
    attempted = len(times)
    failed = sum(f is not None for f in failures)
    for j, reason in enumerate(failures):
        if reason is not None:
            print(f"op {j} failed: {reason}")
    ratios = [a["R_percent"] for a in answers if isinstance(a, dict) and "R_percent" in a]
    error_ratio_pct = statistics.fmean(ratios) if ratios else 0.0

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": op_p50(times, len(workload.cycle(state))), "unit": "s"},
            "ops_per_s": {"value": (attempted - failed) / elapsed, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        metrics = tracer.metrics(attempted, SETUP_REPEATS)
        metrics["error_ratio_pct"] = {"value": error_ratio_pct, "unit": "%"}
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        spans_path = os.path.join(
            workloads.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        print(f"spans {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")

    print(f"ops {attempted} failed {failed} fail_ratio {failed / attempted:.4f} "
          f"error_ratio_pct {error_ratio_pct:.6g} timed_s {elapsed:.3f}")
    print("op_times_s " + " ".join(f"{t:.4f}" for t in times))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
