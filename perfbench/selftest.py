"""Show that every correctness check accepts a right answer and rejects a
deliberately perturbed one.

    python3 perfbench/selftest.py

Run from the repository root.  Prints one line per case and exits 1 if any
check accepts a perturbed answer or rejects a right one.
"""

from __future__ import annotations

import copy
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import nervemp  # noqa: E402
import nervemp.bench as bench  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def exact_cases():
    """A small exact-t800 look-alike: right answer, then three perturbations."""
    t, seed = 30, 0
    cover = bench.gen_random_cover(t, seed, extra_edge_prob=2.0 / t)
    quads = nervemp.regularize(bench.gen_random_quads(cover, seed + 1), 1e-3, seed + 2)
    obs = bench.gen_random_observations(cover, seed + 3)
    stree = nervemp.spanning_tree(nervemp.build_nerve(cover), "bfs", cover)
    run = nervemp.run_message_passing(cover, quads, obs, nervemp.direct_tree(stree, 0))
    value, yhat, _ = nervemp.local_solve(run)
    x = nervemp.back_substitute(run, yhat)
    free = next(v for v in cover.graph.nodes if v not in obs)
    moved = x.copy()
    moved[free] += 1e-3
    observed = x.copy()
    observed[cover.s_order[0]] += 1e-3

    def check(value, x, singular):
        return checks.exact_failure(cover, quads, obs, value, x, singular)

    yield "exact: right answer", check(value, x, 0), True
    yield "exact: free node moved by 1e-3", check(value, moved, 0), False
    yield "exact: observed node moved by 1e-3", check(value, observed, 0), False
    yield "exact: minimum off by 1e-6 relative", check(value * (1 + 1e-6) + 1e-6, x, 0), False
    yield "exact: one singular edge", check(value, x, 1), False


def band_failure(records):
    failing = checks.mlp_band_failures(records)
    return f"records {sorted(failing)} miss the band" if failing else None


def harness_cases():
    rec = {"k": 50, "R_percent": 0.5}
    yield "mlp: R = 7%", checks.mlp_failure(dict(rec, R_percent=7.0)), True
    yield "mlp: R = inf", checks.mlp_failure(dict(rec, R_percent=float("inf"))), False
    records = [{"k": 25, "R_percent": 7.0}, {"k": 50, "R_percent": 0.4},
               {"k": 25, "R_percent": 9.0}]
    yield "mlp band: means 8% and 0.4%", band_failure(records), True
    records[2] = {"k": 25, "R_percent": 30.0}
    yield "mlp band: k=25 mean 18.5%", band_failure(records), False


def solubility_cases():
    with open(workloads.PINNED_SOLUBILITY) as fh:
        pinned = json.load(fh)[0]
    rec = copy.deepcopy(pinned)
    yield "solubility: pinned record", checks.solubility_failure(rec, pinned), True
    both = dict(rec, flag=True, direct_test=True)
    yield "solubility: flag and direct test both true", checks.solubility_failure(both), False
    off = dict(rec, b_alpha=rec["b_alpha"] + 1)
    yield "solubility: b_alpha off by one", checks.solubility_failure(off), False
    drift = dict(rec, d_jet=rec["d_jet"] + 1, b_alpha=rec["b_alpha"] + 1)
    yield "solubility: consistent but not the pinned record", \
        checks.solubility_failure(drift, pinned), False


def main() -> int:
    bad = 0
    for cases in (exact_cases(), harness_cases(), solubility_cases()):
        for label, failure, should_pass in cases:
            passed = failure is None
            ok = passed == should_pass
            bad += not ok
            verdict = "accepted" if passed else "rejected"
            print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
                  + ("" if passed else f" ({failure})"))
    print(f"selftest: {bad} unexpected verdict(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
