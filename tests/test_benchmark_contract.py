"""The benchmark's contract with the package.

`perfbench/` wraps package functions by name and checks answers with its
own code, so renaming or deleting what it binds breaks the benchmark
without breaking any other test.  These tests read `perfbench/` and write
nothing into it.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import nervemp
from nervemp.bench import fixture_eg32

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", PERFBENCH / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name_and_restores_it(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    layertrace = _layertrace()
    originals = {
        (module, name): getattr(sys.modules[module], name)
        for module, name, _ in layertrace.FUNCTIONS
    }
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        for (module, name), fn in originals.items():
            assert getattr(sys.modules[module], name) is not fn, f"{module}.{name}"
        inst = fixture_eg32()
        cover = inst.cover
        stree = nervemp.spanning_tree(nervemp.build_nerve(cover), "bfs", cover)
        nervemp.run_message_passing(
            cover, inst.quads, inst.observations, nervemp.direct_tree(stree, 1)
        )
    finally:
        tracer.uninstall()
    for (module, name), fn in originals.items():
        assert getattr(sys.modules[module], name) is fn, f"{module}.{name}"
    assert tracer.counts[("setup", "exactmp.run_message_passing")] == 1
    assert tracer.counts[("setup", "cover.compute_partitions")] == 1
    assert tracer.maxima[("setup", "exactmp.max_message_dim")] >= 1


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
