"""The one command that prints everything the benchmark measures.

    python3 perfbench/report.py [--seeds 1,2] [--seconds 32] [--out FILE]

Run from the repository root.  Runs the check self-test, then every
workload once untraced (end-to-end metrics) and once traced (per-layer
metrics) per seed, each in its own process so that peak RSS belongs to one
workload alone.  Prints every metric by name with its unit; with `--out`
also writes the environment and all results as JSON (this is how
`baseline.json` was made).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact-t800", "record-mlp", "solubility-t20")


def run(script, *args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{script} {' '.join(args)} exited with {proc.returncode}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1,2")
    p.add_argument("--seconds", default="32")
    p.add_argument("--out")
    args = p.parse_args(argv)

    lines = run("selftest.py")
    print("\n".join(lines))
    results = {"selftest": lines[-1], "seconds": float(args.seconds), "runs": []}
    for seed in args.seeds.split(","):
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                out = run("run.py", "--workload", workload, "--seed", seed,
                          "--seconds", args.seconds, "--trace", trace)
                env = json.loads(out[0].removeprefix("env "))
                result = json.loads(out[-1])
                print(f"== {workload} seed {seed} trace {trace}: "
                      f"correct {result['correct']}, {result['failed']} of "
                      f"{result['attempted']} ops failed")
                for name, m in result["metrics"].items():
                    print(f"   {name} {m['value']:.6g} {m['unit']}")
                results["environment"] = {k: v for k, v in env.items()
                                          if k not in ("workload", "seed", "trace")}
                results["runs"].append({"workload": workload, "seed": int(seed),
                                        "trace": int(trace), "result": result})
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
