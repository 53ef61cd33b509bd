"""Outside-in tracing of nervemp's public functions.

`Tracer.install()` rebinds every public function listed in `FUNCTIONS` at
every place it is bound (a function imported into another module is a
second binding, so `nervemp.bench.centralized_solve` and
`nervemp.solubility.centralized_solve` are both wrapped), wraps the
`QuadFunc` methods in `METHODS`, and counts `numpy.linalg` decompositions by
the nervemp module that calls them.  `uninstall()` restores every original
binding, so untraced code runs with no wrapper at all.

Spans (name, start, end, parent, op) are kept in memory and written out by
`write_spans` when the run ends.  A span's self time is its duration minus
the durations of its child spans.  Nothing under `src/` is modified.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

import nervemp.bench  # noqa: F401  (loads every module whose bindings are rebound)
from nervemp.quadform import QuadFunc

# (module, attribute, span name).  Several functions may share a span name
# when they do the same job for different callers.
FUNCTIONS = (
    ("nervemp.cover", "build_nerve", "cover.build_nerve"),
    ("nervemp.cover", "spanning_tree", "cover.spanning_tree"),
    ("nervemp.cover", "compute_partitions", "cover.compute_partitions"),
    ("nervemp.exactmp", "run_message_passing", "exactmp.run_message_passing"),
    ("nervemp.exactmp", "local_solve", "exactmp.local_solve"),
    ("nervemp.exactmp", "back_substitute", "exactmp.back_substitute"),
    ("nervemp.exactmp", "centralized_solve", "exactmp.centralized_solve"),
    ("nervemp.surrogate", "sample_message", "surrogate.sample_message"),
    ("nervemp.surrogate", "fit_surrogate", "surrogate.fit_surrogate"),
    # What approx_message_passing does outside its children is mostly the
    # root descent, hence the span name.
    ("nervemp.surrogate", "approx_message_passing", "surrogate.root_self"),
    ("nervemp.solubility", "jet_profile", "solubility.jet_profile"),
    ("nervemp.solubility", "global_problem_map", "solubility.global_problem_map"),
    ("nervemp.solubility", "direct_solubility_test", "solubility.direct_solubility_test"),
    ("nervemp.bench", "run_experiment", "bench.run_experiment"),
    ("nervemp.bench", "gen_random_cover", "bench.cover_build"),
    ("nervemp.bench", "random_nerve_for_stats", "bench.cover_build"),
    ("nervemp.bench", "cover_from_stats", "bench.cover_build"),
    ("nervemp.instancefile", "load_instance", "instancefile.load"),
)

METHODS = (
    ("__init__", "quadform.init"),
    ("add", "quadform.add"),
    ("embed", "quadform.embed"),
    ("fix_vars", "quadform.fix_vars"),
    ("partial_minimize", "quadform.partial_minimize"),
    ("global_minimize", "quadform.global_minimize"),
)

# numpy.linalg entry points that factor a matrix.
DECOMPOSITIONS = (
    "cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd",
)

# Per-layer metrics: name -> (unit, how it is derived).  "self" is span self
# time per op, "calls" span count per op, "count" a summed counter per op,
# "max" a maximum over ops, "setup_self"/"setup_count" the same per set-up.
LAYER_METRICS = {
    "quadform.init_calls": ("count", "calls", "quadform.init"),
    "quadform.init_s": ("s", "self", "quadform.init"),
    "quadform.factorizations": ("count", "count", "quadform.factorizations"),
    "quadform.factor_flops": ("flop", "count", "quadform.factor_flops"),
    "quadform.partial_minimize_s": ("s", "self", "quadform.partial_minimize"),
    "quadform.add_s": ("s", "self", "quadform.add"),
    "quadform.embed_s": ("s", "self", "quadform.embed"),
    "quadform.fix_vars_s": ("s", "self", "quadform.fix_vars"),
    "quadform.global_minimize_s": ("s", "self", "quadform.global_minimize"),
    "cover.build_nerve_s": ("s", "self", "cover.build_nerve"),
    "cover.spanning_tree_s": ("s", "self", "cover.spanning_tree"),
    "cover.compute_partitions_s": ("s", "self", "cover.compute_partitions"),
    "cover.compute_partitions_calls": ("count", "calls", "cover.compute_partitions"),
    "exactmp.run_message_passing_s": ("s", "self", "exactmp.run_message_passing"),
    "exactmp.back_substitute_s": ("s", "self", "exactmp.back_substitute"),
    "exactmp.local_solve_s": ("s", "self", "exactmp.local_solve"),
    "exactmp.max_message_dim": ("count", "max", "exactmp.max_message_dim"),
    "exactmp.max_elim_dim": ("count", "max", "exactmp.max_elim_dim"),
    "exactmp.singular_edges": ("count", "count", "exactmp.singular_edges"),
    "exactmp.centralized_solve_s": ("s", "self", "exactmp.centralized_solve"),
    "exactmp.centralized_solve_calls": ("count", "calls", "exactmp.centralized_solve"),
    "exactmp.factorizations": ("count", "count", "exactmp.factorizations"),
    "surrogate.fit_surrogate_s": ("s", "self", "surrogate.fit_surrogate"),
    "surrogate.mlp_epochs": ("count", "count", "surrogate.mlp_epochs"),
    "surrogate.fit_residual_max": ("abs", "max", "surrogate.fit_residual_max"),
    "surrogate.sample_message_s": ("s", "self", "surrogate.sample_message"),
    "surrogate.samples": ("count", "count", "surrogate.samples"),
    "surrogate.root_self_s": ("s", "self", "surrogate.root_self"),
    "surrogate.factorizations": ("count", "count", "surrogate.factorizations"),
    "solubility.jet_profile_s": ("s", "self", "solubility.jet_profile"),
    "solubility.global_problem_map_s": ("s", "self", "solubility.global_problem_map"),
    "solubility.direct_solubility_test_s": ("s", "self", "solubility.direct_solubility_test"),
    "solubility.factorizations": ("count", "count", "solubility.factorizations"),
    "bench.run_experiment_s": ("s", "self", "bench.run_experiment"),
    "bench.cover_build_s": ("s", "self", "bench.cover_build"),
    "instancefile.load_s": ("s", "setup_self", "instancefile.load"),
    "instancefile.bytes": ("B", "setup_count", "instancefile.bytes"),
}


def _observe_run(tracer, run, args):
    for (i, _), rec in run.edge_records.items():
        tracer.raise_max("exactmp.max_message_dim", len(run.messages[i].vars))
        tracer.raise_max("exactmp.max_elim_dim", len(rec.argmin.eliminated))
        tracer.count("exactmp.singular_edges", int(rec.singular))


def _observe_fit(tracer, fitted, args):
    tracer.count("surrogate.mlp_epochs", getattr(fitted, "epochs", 0))
    tracer.raise_max("surrogate.fit_residual_max", float(fitted.fit_residual))


def _observe_samples(tracer, samples, args):
    tracer.count("surrogate.samples", samples.m)


def _observe_load(tracer, instance, args):
    tracer.count("instancefile.bytes", os.path.getsize(args[0]))


OBSERVERS = {
    "exactmp.run_message_passing": _observe_run,
    "surrogate.fit_surrogate": _observe_fit,
    "surrogate.sample_message": _observe_samples,
    "instancefile.load": _observe_load,
}


def _factor_flops(a) -> int:
    """m * n * min(m, n) per matrix (n^3 when square), times the batch."""
    shape = np.shape(a)
    if len(shape) < 2:
        return 1
    m, n = shape[-2:]
    return math.prod(shape[:-2]) * m * n * min(m, n)


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self):
        self.op = -1  # -1 while setting up, else the op id
        self.spans = []  # [name, start, end, parent, op]
        self._stack = []  # [span index, start, child time]
        self.self_s = defaultdict(float)  # (phase, name) -> seconds
        self.counts = defaultdict(float)  # (phase, name) -> count
        self.maxima = defaultdict(float)  # (phase, name) -> max
        self._originals = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    @property
    def _phase(self) -> str:
        return "setup" if self.op < 0 else "op"

    def count(self, name: str, value=1):
        self.counts[(self._phase, name)] += value

    def raise_max(self, name: str, value):
        key = (self._phase, name)
        self.maxima[key] = max(self.maxima[key], value)

    def open(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append([len(self.spans) - 1, time.perf_counter(), 0.0])

    def close(self):
        end = time.perf_counter()
        idx, start, child = self._stack.pop()
        span = self.spans[idx]
        span[1], span[2] = start, end
        duration = end - start
        self.self_s[(self._phase, span[0])] += duration - child
        self.counts[(self._phase, span[0])] += 1
        if self._stack:
            self._stack[-1][2] += duration

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name):
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if observe is not None:
                observe(tracer, result, args)
            return result

        return traced

    def _wrap_decomposition(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("nervemp."):
                layer = caller.split(".")[1]
                tracer.count(f"{layer}.factorizations")
                tracer.count(f"{layer}.factor_flops", _factor_flops(a))
            return fn(a, *args, **kwargs)

        return counted

    def _rebind(self, owner, attribute, replacement):
        self._originals.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        if self._originals:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "nervemp" or n.startswith("nervemp.")]
        for module_name, attribute, span in FUNCTIONS:
            original = getattr(sys.modules[module_name], attribute)
            wrapper = self._wrap(original, span)
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, bound_name, wrapper)
        for attribute, span in METHODS:
            self._rebind(QuadFunc, attribute,
                         self._wrap(getattr(QuadFunc, attribute), span))
        for name in DECOMPOSITIONS:
            self._rebind(np.linalg, name,
                         self._wrap_decomposition(getattr(np.linalg, name)))

    def uninstall(self):
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, n_ops: int, n_setups: int) -> dict:
        """Every metric of LAYER_METRICS, normalized per op or per set-up."""
        out = {}
        for metric, (unit, how, source) in LAYER_METRICS.items():
            if how == "self":
                value = self.self_s[("op", source)] / n_ops
            elif how in ("calls", "count"):
                value = self.counts[("op", source)] / n_ops
            elif how == "max":
                value = self.maxima[("op", source)]
            elif how == "setup_self":
                value = self.self_s[("setup", source)] / n_setups
            else:  # setup_count
                value = self.counts[("setup", source)] / n_setups
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path: str):
        """One JSON list [name, start, end, parent, op] per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
