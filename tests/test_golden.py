"""Byte identity: a fixed command set reproduces its recorded outputs.

`tests/golden/manifest.json` maps each command line to the SHA-256 of its
stdout and of each file it writes (null for a file it must not write), and
to its exit code.  Sweep records are hashed with the `wall_ms` column
removed.  The commands run in order through `cli.main`, in one scratch
directory, so later commands read the instances earlier ones wrote.

The bits depend on numpy and the BLAS build, so the manifest records both
and the test fails, naming both versions, when either differs.  They also
depend on the BLAS thread count (a threaded least-squares fit on a few
hundred samples rounds differently), so the command set runs in one child
interpreter with one BLAS thread, as the benchmark does.  A change that
alters an output by design regenerates the manifest with

    PYTHONPATH=src python tests/test_golden.py

which prints every command whose entry differs from the manifest it
replaces; CHANGES.md lists each of them with its reason.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"

COMMANDS = [
    "gen --fixture eg32 --out eg32.json",
    "gen --kind random-quadratic --t 6 --seed 3 --out rq.json",
    "gen --kind distributed-sampling --k 25 --seed 7 --out ds.json",
    "gen --kind cover-stats --seed 5 --out cs.json",
    "run-exact eg32.json --root 1 --out ex-eg32-bfs.json",
    "run-exact eg32.json --root 0 --tree max-overlap --regularize 1e-3 --seed 4"
    " --out ex-eg32-mo-reg.json",
    "run-exact rq.json --root 1 --out ex-rq-bfs.json",
    "run-exact rq.json --root 1 --tree max-overlap --out ex-rq-mo.json",
    "run-exact rq.json --root 2 --regularize 1e-3 --seed 4 --out ex-rq-bfs-reg.json",
    "run-exact ds.json --root 1 --tree max-overlap --regularize 1e-3 --seed 4"
    " --out ex-ds-mo-reg.json",
    "run-approx rq.json --m 60 --seed 3 --out ap-rq-ls.json",
    "run-approx eg32.json --root 1 --m 40 --surrogate mlp --regularize 1e-2 --seed 9"
    " --out ap-eg32-mlp.json",
    "run-approx rq.json --root 2 --tree max-overlap --m 40 --surrogate mlp --seed 5"
    " --out ap-rq-mo-mlp.json",
    "analyze eg32.json --leaf 0 --seed 2 --out an-eg32-linear.json",
    "analyze eg32.json --leaf 0 --task objective --seed 2 --out an-eg32-objective.json",
    "sweep --m-list 20,40 --k 3 --surrogate quadratic-ls --repeats 2 --seed 4"
    " --out sw-m.csv --aggregate-out sw-m-agg.csv",
    "sweep --k-list 3 --m 20 --surrogate mlp --seed 4 --out sw-k.csv",
    # exit 2: a cover-stats instance carries no observations
    "run-exact cs.json --out ex-cs.json",
    # exit 3: 3 samples cannot identify a quadratic message
    "run-approx rq.json --m 3 --seed 1 --out ap-rq-fail.json",
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path):
    if not path.exists():
        return None
    data = path.read_bytes()
    lines = data.decode().splitlines()
    if lines and "wall_ms" in lines[0].split(","):
        col = lines[0].split(",").index("wall_ms")
        rows = [line.split(",") for line in lines]
        data = "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows).encode()
    return _sha256(data)


def _run_in_process(workdir: Path) -> dict:
    """Versions and the entry of every command, run in `workdir`."""
    import numpy as np

    from nervemp.cli import main

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "commands": {},
    }
    os.chdir(workdir)
    for command in COMMANDS:
        argv = command.split()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        outs = [argv[k + 1] for k, a in enumerate(argv) if a in ("--out", "--aggregate-out")]
        result["commands"][command] = {
            "exit_code": code,
            "stdout": _sha256(stdout.getvalue().encode()),
            "files": {name: _file_digest(workdir / name) for name in outs},
        }
    return result


def run_commands(workdir: Path) -> dict:
    """`_run_in_process` in a child interpreter with one BLAS thread, on
    the same import path as this one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, __file__, "--run-in", str(workdir)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout)


def test_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    result = run_commands(tmp_path)
    recorded = {key: manifest[key] for key in ("numpy", "blas")}
    running = {key: result[key] for key in ("numpy", "blas")}
    assert recorded == running, (
        f"the manifest was recorded under {recorded}, this run has {running}; "
        "regenerate it and check every changed entry"
    )
    assert list(manifest["commands"]) == COMMANDS
    changed = [c for c in COMMANDS if result["commands"][c] != manifest["commands"][c]]
    assert not changed, f"outputs differ from the manifest for: {changed}"


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run-in"]:
        print(json.dumps(_run_in_process(Path(sys.argv[2]))))
    else:
        old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {"commands": {}}
        with tempfile.TemporaryDirectory() as scratch:
            manifest = run_commands(Path(scratch))
        MANIFEST.parent.mkdir(exist_ok=True)
        MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
        print(f"wrote {len(COMMANDS)} entries to {MANIFEST}")
        for command in COMMANDS:
            if old["commands"].get(command) != manifest["commands"][command]:
                print(f"changed: {command}")
