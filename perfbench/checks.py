"""Correctness checks on the answers the benchmark times.

Each check returns None when the answer is right and a one-line reason when
it is not.  They are computed independently of the code under test: the
exact check assembles the global objective's value and gradient itself by
a scatter-add over the local quadratics, O(sum |V_i|^2) with no dense n x n
matrix.  `selftest.py` shows that every check rejects a perturbed answer.
"""

from __future__ import annotations

import math

import numpy as np

# The exact engine must reproduce the global minimum to this relative
# accuracy (acceptance criterion 1).
VALUE_RTOL = 1e-8
# Gradient of the global objective over the unobserved nodes, relative to
# the magnitude of the terms that sum to it.
STATIONARITY_RTOL = 1e-8
# Criterion 5 band for the one-hidden-layer surrogate, on the mean per k.
MLP_MAX_MEAN_R_PERCENT = 15.0


def exact_failure(cover, quads, observations, value, x, singular_edges) -> str | None:
    """Is x the global minimizer and value the global minimum?"""
    if singular_edges:
        return f"{singular_edges} singular elimination block(s)"
    x = np.asarray(x, dtype=float)
    if x.shape != (cover.graph.n,) or not np.all(np.isfinite(x)):
        return "signal is not a finite vector over all nodes"
    if not math.isfinite(value):
        return "minimum is not finite"
    for v in cover.s_order:
        if x[v] != observations[v]:
            return f"signal differs from the observation at node {v}"
    grad = np.zeros(cover.graph.n)
    scale = np.zeros(cover.graph.n)
    objective = 0.0
    for q in quads:
        idx = np.fromiter(q.vars, dtype=int, count=len(q.vars))
        xi = x[idx]
        Ax = q.A @ xi
        objective += float(xi @ Ax + q.b @ xi + q.c)
        grad[idx] += 2.0 * Ax + q.b
        scale[idx] += 2.0 * np.abs(q.A) @ np.abs(xi) + np.abs(q.b)
    free = np.ones(cover.graph.n, dtype=bool)
    free[list(cover.s_order)] = False
    excess = np.abs(grad[free]) - STATIONARITY_RTOL * (1.0 + scale[free])
    if excess.size and excess.max() > 0:
        return f"gradient {np.abs(grad[free]).max():.3g} over the free nodes is not zero"
    if abs(objective - value) > VALUE_RTOL * max(1.0, abs(value)):
        return f"objective {objective!r} at the signal differs from the minimum {value!r}"
    return None


def mlp_failure(record) -> str | None:
    r = record["R_percent"]
    if not (math.isfinite(r) and r >= 0.0):
        return f"R = {r!r}% is not a finite ratio"
    return None


def mlp_band_failures(records) -> set[int]:
    """Indices of records whose basis count k misses the mean-R band."""
    by_k: dict[int, list[int]] = {}
    for i, rec in enumerate(records):
        by_k.setdefault(rec["k"], []).append(i)
    failing = set()
    for idx in by_k.values():
        mean = sum(records[i]["R_percent"] for i in idx) / len(idx)
        if not mean <= MLP_MAX_MEAN_R_PERCENT:
            failing.update(idx)
    return failing


def solubility_failure(record, pinned=None) -> str | None:
    """Criterion 8 consistency, the b_alpha identity, and the pinned record."""
    if record["flag"] and record["direct_test"]:
        return "insolubility flag set although the direct test finds the task soluble"
    if record["b_alpha"] != record["d_jet"] - record["n_free"]:
        return "b_alpha differs from d_jet - n_free"
    if pinned is not None and record != pinned:
        return f"record differs from the pinned record {pinned}"
    return None
