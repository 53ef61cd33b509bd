"""The four pinned workloads.

Every input is generated from the workload seed; the program receives only
generated inputs.  `setup(seed)` builds the inputs, `cycle(state)` lists the
op arguments in the order ops repeat, `op(state, arg)` is the timed call
into nervemp, and `check(state, arg, answer)` returns None or the reason the
answer is wrong.  Ops reach nervemp through module attributes, so a traced
run sees every call.

Why each workload was chosen is in README.md and in each `why`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import nervemp
import nervemp.bench as bench

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
PINNED_SOLUBILITY = os.path.join(HERE, "pinned_solubility.json")
DEFAULT_SEED = 1
# Each workload's structure (cover, nerve, trees) is pinned by this seed;
# --seed draws the values on it (quadratics, basis signals, observations).
# The work an op does depends on the structure, so pinning it keeps one
# run comparable with the next whatever the seed.
STRUCTURE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    cycle: Callable
    op: Callable
    check: Callable
    # Checks over all answers of a run; returns indices of failed ops.
    check_all: Callable = field(default=lambda answers: set())


# -- exact-t800 ---------------------------------------------------------------

EXACT_T = 800
EXACT_STRATEGIES = ("bfs", "max_overlap", "random")


def _exact_setup(seed):
    cover = bench.gen_random_cover(EXACT_T, STRUCTURE_SEED, extra_edge_prob=2.0 / EXACT_T)
    quads = bench.gen_random_quads(cover, seed + 1)
    observations = bench.gen_random_observations(cover, seed + 3)
    generated = nervemp.Instance(cover=cover, quads=quads, observations=observations)
    # The instance-file round trip that `nervemp run-exact` performs.
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"instance-{os.getpid()}.json")
    try:
        nervemp.save_instance(generated, path)
        loaded = nervemp.load_instance(path)
    finally:
        os.remove(path)
    if loaded.observations != observations or any(
        a.vars != b.vars or not (a.A == b.A).all() or not (a.b == b.b).all() or a.c != b.c
        for a, b in zip(loaded.quads, quads)
    ):
        raise AssertionError("instance file round trip changed the instance")
    return {
        "seed": seed,
        "cover": loaded.cover,
        "quads": nervemp.regularize(loaded.quads, 1e-3, seed + 2),
        "observations": loaded.observations,
    }


def _exact_op(state, strategy):
    cover = state["cover"]
    nerve = nervemp.build_nerve(cover)
    stree = nervemp.spanning_tree(nerve, strategy, cover, root=0, seed=STRUCTURE_SEED)
    dtree = nervemp.direct_tree(stree, 0)
    run = nervemp.run_message_passing(cover, state["quads"], state["observations"], dtree)
    value, yhat, _ = nervemp.local_solve(run)
    x = nervemp.back_substitute(run, yhat)
    singular = sum(rec.singular for rec in run.edge_records.values())
    return value, x, singular


def _exact_check(state, strategy, answer):
    value, x, singular = answer
    return checks.exact_failure(
        state["cover"], state["quads"], state["observations"], value, x, singular
    )


# -- record-mlp -------------------------------------------------------------------

SWEEP_M = 80
# The one-hidden-layer pipeline at k = 25 fails on some value draws: the
# inner descent raises InnerOptimizationFailed (2 of 31 draws on the pinned
# nerve) and single records reach R = 23%.  At k = 50 it did neither in
# 31 draws (R 0.3-0.7%), so record-mlp runs k = 50 only.
MLP_K = 50
# Value draws per run.  Criterion 5 states its band on the mean over
# repeats; the run checks it on the mean over its draws.  Seven draws of
# 4-5 s make one cycle of about one run's length.
MLP_DRAWS = 7


# run_experiment draws the cover's shared-node allocation and the values
# from one seed.  The allocation sets the widest message domain, and with
# it the record's cost (the identifiability threshold on the pinned nerve
# ranges from 231 to 378).  The harness seeds are therefore the first
# seeds from 1000 * --seed whose threshold is 276 (a 22-variable widest
# domain), one per op of the cycle.  Each op thus times its own value
# draw: a record's cost depends on the draw, and a run that times several
# draws depends less on any one of them.
HARNESS_THRESHOLD = 276
# Seeds 1-30 needed 9 to 27 candidates to find eight; the whole window is
# scanned whatever the seed, so that set-up does the same work on every seed.
HARNESS_WINDOW = 64


def harness_seeds(seed, nerve, count) -> list[int]:
    rows = bench.DEFAULT_STATS_ROWS
    found = []
    for candidate in range(1000 * seed, 1000 * seed + HARNESS_WINDOW):
        cover = bench.cover_from_stats(rows, nerve, seed=candidate)
        stree = nervemp.spanning_tree(nervemp.build_nerve(cover), "bfs", cover, root=0)
        dtree = nervemp.direct_tree(stree, 0)
        if nervemp.identifiability_threshold(cover, dtree) == HARNESS_THRESHOLD:
            found.append(candidate)
    if len(found) < count:
        raise ValueError(f"fewer than {count} of the {HARNESS_WINDOW} harness seeds "
                         f"from {1000 * seed} have the pinned widest message domain")
    return found[:count]


def _mlp_setup(seed):
    nerve = bench.random_nerve_for_stats(bench.DEFAULT_STATS_ROWS, STRUCTURE_SEED)
    return {"seeds": harness_seeds(seed, nerve, MLP_DRAWS), "nerve": nerve}


def _mlp_op(state, seed):
    spec = bench.InstanceSpec(kind="distributed_sampling", k=MLP_K, nerve=state["nerve"],
                              seed=seed)
    config = nervemp.ApproxConfig(m=SWEEP_M, kind="one_hidden_layer", seed=seed)
    records, _ = bench.run_experiment(spec, config, k_list=[MLP_K], seed=seed)
    return records[0]


# -- solubility-t20 -------------------------------------------------------------

SOLUBILITY_T = 20
SOLUBILITY_K = 20


def _solubility_setup(seed):
    cover = bench.gen_random_cover(SOLUBILITY_T, STRUCTURE_SEED,
                                   extra_edge_prob=2.0 / SOLUBILITY_T)
    quads, task, _ = bench.gen_distributed_sampling(cover, SOLUBILITY_K, seed + 1)
    quads = nervemp.regularize(quads, 1e-2, seed + 2)
    stree = nervemp.spanning_tree(nervemp.build_nerve(cover), "bfs", cover)
    leaves = [i for i in stree.nodes if sum(i in e for e in stree.edges) == 1]
    pinned = None
    if seed == DEFAULT_SEED:
        with open(PINNED_SOLUBILITY) as fh:
            pinned = {rec["leaf"]: rec for rec in json.load(fh)}
    return {"seed": seed, "cover": cover, "quads": quads, "task": task,
            "stree": stree, "leaves": leaves, "pinned": pinned}


def _solubility_op(state, leaf):
    return nervemp.analysis_record(
        state["cover"], state["quads"], state["task"], state["stree"], leaf,
        seed=state["seed"],
    )


def _solubility_check(state, leaf, record):
    pinned = state["pinned"][leaf] if state["pinned"] is not None else None
    return checks.solubility_failure(record, pinned)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-t800",
            why="structure and exact engine do all the work; tree strategy varies the "
                "elimination fronts (n~4700, ~1540 nerve edges)",
            setup=_exact_setup,
            cycle=lambda state: list(EXACT_STRATEGIES),
            op=_exact_op,
            check=_exact_check,
        ),
        Workload(
            name="record-mlp",
            why="one-hidden-layer surrogate record per op, k=50, seven value draws a run: "
                "training and inner descent dominate, exact engine idle",
            setup=_mlp_setup,
            cycle=lambda state: state["seeds"],
            op=_mlp_op,
            check=lambda state, seed, record: checks.mlp_failure(record),
            check_all=checks.mlp_band_failures,
        ),
        Workload(
            name="solubility-t20",
            why="only workload that exercises solubility: one analysis record per BFS "
                "leaf (jet profile, global problem map, direct test)",
            setup=_solubility_setup,
            cycle=lambda state: list(state["leaves"]),
            op=_solubility_op,
            check=_solubility_check,
        ),
    )
}
