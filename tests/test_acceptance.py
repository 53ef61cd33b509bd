"""Acceptance suite: one test per criterion, one pass/fail line each.

Every tolerance is pinned here; nothing is deferred to calibration.  Run
with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np

from nervemp.bench import (
    InstanceSpec,
    fixture_eg32,
    fixture_triangle,
    gen_random_cover,
    gen_random_observations,
    gen_random_quads,
    run_experiment,
)
from nervemp.cover import build_nerve, direct_tree, spanning_tree
from nervemp.errors import UnboundedBelow
from nervemp.exactmp import (
    centralized_solve,
    local_solve,
    regularize,
    run_message_passing,
)
from nervemp.quadform import QuadFunc
from nervemp.solubility import (
    b_alpha,
    direct_solubility_test,
    global_problem_map,
    insolubility_check,
    jet_profile,
    linear_task,
)
from nervemp.surrogate import (
    ApproxConfig,
    approx_message_passing,
    identifiability_threshold,
)


def _report(criterion: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {status}: {detail} ({time.perf_counter() - t0:.1f}s)")
    assert ok, f"criterion {criterion}: {detail}"


def _random_regularized(seed: int, t: int, eps: float = 1e-3):
    cover = gen_random_cover(t, seed, extra_edge_prob=0.2)
    quads = regularize(gen_random_quads(cover, seed + 1), eps, seed + 2)
    obs = gen_random_observations(cover, seed + 3)
    return cover, quads, obs


def test_criterion_1_exactness():
    """Tree-structured elimination equals the centralized solve, and the
    local argmin restricts the global one, over 50 regularized instances,
    every root, and all three tree strategies."""
    t0 = time.perf_counter()
    worst_val, worst_arg = 0.0, 0.0
    for i in range(50):
        t = 2 + i % 5
        cover, quads, obs = _random_regularized(3000 + 17 * i, t)
        assert cover.graph.n <= 40 and cover.t <= 6
        cval, xhat, _ = centralized_solve(cover, quads, obs)
        nerve = build_nerve(cover)
        for strategy, kw in (("bfs", {}), ("random", {"seed": i}), ("max_overlap", {})):
            stree = spanning_tree(nerve, strategy, cover, **kw)
            for root in range(cover.t):
                run = run_message_passing(cover, quads, obs, direct_tree(stree, root))
                value, yhat, _ = local_solve(run)
                rel = abs(value - cval) / max(1.0, abs(cval))
                worst_val = max(worst_val, rel)
                arg = max(
                    (abs(y - xhat[v]) for v, y in zip(run.aggregated.vars, yhat)),
                    default=0.0,
                )
                worst_arg = max(worst_arg, arg)
    ok = worst_val <= 1e-8 and worst_arg <= 1e-6
    _report(1, ok, f"value gap {worst_val:.2e} <= 1e-8, argmin gap {worst_arg:.2e} <= 1e-6", t0)


def test_criterion_2_pinned_fixture():
    """The pinned two-cluster instance: zero leaf message family, the
    affine global problem map, b_alpha = -2, the 4 > 3 flag, and the failed
    direct test at the far root."""
    t0 = time.perf_counter()
    inst = fixture_eg32()
    cover, quads, task = inst.cover, inst.quads, inst.task
    stree = spanning_tree(build_nerve(cover), "bfs", cover)
    dt = direct_tree(stree, 1)
    prof = jet_profile(cover, quads, dt, 0)
    rng = np.random.default_rng(7)
    coeff_max = max(
        float(np.max(np.abs(prof.evaluator(rng.standard_normal(4)))))
        for _ in range(100)
    )
    gpm = global_problem_map(cover, quads, task)
    map_err = max(
        float(np.max(np.abs(gpm.matrix - np.array([[1.0, 0.0, -1.0, 0.0]])))),
        float(np.max(np.abs(gpm.offset))),
    )
    ba = b_alpha(prof)
    flag, report = insolubility_check(cover, quads, task, stree, 0)
    direct = direct_solubility_test(cover, quads, task, 1, stree)
    ok = (
        coeff_max <= 1e-10
        and map_err <= 1e-8
        and ba == -2
        and flag
        and report["lhs"] == 4
        and report["rhs"] == 3
        and direct is False
    )
    _report(
        2,
        ok,
        f"|coeffs| {coeff_max:.1e} <= 1e-10, map err {map_err:.1e} <= 1e-8, "
        f"b_alpha {ba} = -2, flag {report['lhs']} > {report['rhs']}, direct {direct}",
        t0,
    )


def test_criterion_3_elimination_oracles():
    """Generalized Schur elimination against the KKT and grid oracles, and
    coefficient-wise elimination-order independence, on 200 random PSD
    quadratics."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    ys = np.arange(-5.0, 5.0 + 0.005, 0.01)
    mesh = np.meshgrid(ys, ys, indexing="ij")
    worst_kkt, worst_grid, worst_order = 0.0, 0.0, 0.0
    for i in range(200):
        n = 2 + i % 7
        G = rng.standard_normal((n, n))
        A = G @ G.T / n + 0.1 * np.eye(n)
        q = QuadFunc(tuple(range(n)), (A + A.T) / 2.0, 0.2 * rng.standard_normal(n),
                     float(rng.standard_normal()))
        n_elim = min(1 + i % 4, n - 1)
        elim = sorted(int(v) for v in rng.choice(n, size=n_elim, replace=False))
        msg, _ = q.partial_minimize(elim)
        keep = [v for v in q.vars if v not in set(elim)]
        for _ in range(2):
            x = 0.3 * rng.standard_normal(len(keep))
            yi = [q.vars.index(v) for v in elim]
            ki = [q.vars.index(v) for v in keep]
            A_yy = q.A[np.ix_(yi, yi)]
            rhs = -(q.A[np.ix_(yi, ki)] @ x + 0.5 * q.b[yi])
            y_star, *_ = np.linalg.lstsq(A_yy, rhs, rcond=None)
            full = np.empty(n)
            full[ki], full[yi] = x, y_star
            kkt_val = q.evaluate_batch(full[None])[0]
            got = msg.evaluate_batch(x[None])[0]
            worst_kkt = max(worst_kkt, abs(got - kkt_val) / max(1.0, abs(kkt_val)))
            if n_elim <= 2:
                assert np.max(np.abs(y_star)) < 4.5
                sub = q.fix_vars(dict(zip(keep, x)))
                if n_elim == 1:
                    vals = sub.A[0, 0] * ys**2 + sub.b[0] * ys + sub.c
                else:
                    Y1, Y2 = mesh
                    vals = (
                        sub.A[0, 0] * Y1**2 + 2 * sub.A[0, 1] * Y1 * Y2
                        + sub.A[1, 1] * Y2**2 + sub.b[0] * Y1 + sub.b[1] * Y2 + sub.c
                    )
                worst_grid = max(worst_grid, abs(float(vals.min()) - got))
        if n_elim >= 2:
            staged, _ = q.partial_minimize(elim[:1])
            staged, _ = staged.partial_minimize(elim[1:])
            scale = max(1.0, float(np.max(np.abs(msg.A))))
            worst_order = max(
                worst_order,
                float(np.max(np.abs(staged.A - msg.A))) / scale,
                float(np.max(np.abs(staged.b - msg.b))) / max(1.0, float(np.max(np.abs(msg.b)))),
                abs(staged.c - msg.c) / max(1.0, abs(msg.c)),
            )
    ok = worst_kkt <= 1e-9 and worst_grid <= 1e-3 and worst_order <= 1e-9
    _report(
        3,
        ok,
        f"KKT gap {worst_kkt:.2e} <= 1e-9, grid gap {worst_grid:.2e} <= 1e-3, "
        f"order gap {worst_order:.2e} <= 1e-9",
        t0,
    )


def test_criterion_4_surrogate_oracle_reduction():
    """Full-quadratic least-squares surrogates reproduce exact message
    passing to 1e-5 relative on the fixtures and 20 random regularized
    instances."""
    t0 = time.perf_counter()
    cases = []
    eg = fixture_eg32()
    tri = fixture_triangle()
    cases.append(("pinned-pair", eg.cover, eg.quads, eg.observations))
    cases.append(("triangle", tri.cover, tri.quads, tri.observations))
    cases.append(("pinned-pair-reg", eg.cover, regularize(eg.quads, 1e-3, 0), eg.observations))
    cases.append(("triangle-reg", tri.cover, regularize(tri.quads, 1e-3, 0), tri.observations))
    for i in range(20):
        cover, quads, obs = _random_regularized(5000 + 31 * i, 2 + i % 4)
        cases.append((f"random-{i}", cover, quads, obs))
    worst = 0.0
    for name, cover, quads, obs in cases:
        stree = spanning_tree(build_nerve(cover), "bfs", cover)
        dt = direct_tree(stree, 0)
        m = -(-identifiability_threshold(cover, dt) * 5 // 4)
        cfg = ApproxConfig(m=m, kind="quadratic_ls", seed=1234)
        value, _, _ = approx_message_passing(cover, quads, obs, dt, cfg)
        run = run_message_passing(cover, quads, obs, dt)
        exact, _, _ = local_solve(run)
        rel = abs(value - exact) / max(1.0, abs(exact))
        worst = max(worst, rel)
    ok = worst <= 1e-5
    _report(4, ok, f"worst relative gap {worst:.2e} <= 1e-5 over {len(cases)} cases", t0)


def test_criterion_5_benchmark_band():
    """On the twelve-subgraph statistics cover: the rectifier-surrogate
    pipeline stays within the 15% band for every basis count, and the
    quadratic surrogate stays numerically exact."""
    t0 = time.perf_counter()
    spec = InstanceSpec(kind="distributed_sampling", seed=0)
    k_list = [25, 30, 35, 40, 45, 50]
    mlp_cfg = ApproxConfig(m=80, kind="one_hidden_layer", seed=0)
    _, mlp_aggs = run_experiment(spec, mlp_cfg, k_list=k_list, repeats=5, seed=2025)
    qls_cfg = ApproxConfig(m=80, kind="quadratic_ls", seed=0)
    _, qls_aggs = run_experiment(spec, qls_cfg, k_list=k_list, repeats=5, seed=2025)
    mlp_means = {a["sweep_point"]: a["mean_R"] for a in mlp_aggs}
    qls_means = {a["sweep_point"]: a["mean_R"] for a in qls_aggs}
    ok = all(mlp_means[k] <= 15.0 for k in k_list) and all(
        qls_means[k] <= 0.01 for k in k_list
    )
    detail = (
        "mlp mean R% " + str({k: round(v, 2) for k, v in mlp_means.items()})
        + " <= 15, qls max " + f"{max(qls_means.values()):.1e} <= 0.01"
    )
    _report(5, ok, detail, t0)


def test_criterion_6_sample_count_trend():
    """More transmitted samples help: at the largest basis count the mean
    error ratio at m = 80 beats m = 20, with the halving guard."""
    t0 = time.perf_counter()
    spec = InstanceSpec(kind="distributed_sampling", k=50, seed=0)
    cfg = ApproxConfig(kind="one_hidden_layer", seed=0)
    _, aggs = run_experiment(spec, cfg, m_list=[20, 80], repeats=5, seed=2026)
    r20 = next(a["mean_R"] for a in aggs if a["sweep_point"] == 20)
    r80 = next(a["mean_R"] for a in aggs if a["sweep_point"] == 80)
    ok = (r80 < r20) and (r80 <= 0.5 * r20 or (r80 < 1.0 and r20 < 1.0))
    _report(
        6,
        ok,
        f"mean R(m=80) {r80:.4f}% < R(m=20) {r20:.4f}% "
        f"and ({r80:.4f} <= {0.5 * r20:.4f} or both < 1%)",
        t0,
    )


def test_criterion_7_morse_regularization():
    """After diagonal regularization every elimination block along every
    rooted tree is strictly positive definite; no unbounded minimization
    occurs across 100 seeds x 10 rank-deficient instances."""
    t0 = time.perf_counter()
    instances = []
    for i in range(10):
        cover = gen_random_cover(3, 7000 + i, extra_edge_prob=0.3)
        quads = gen_random_quads(cover, 7100 + i, rank_deficient=True)
        obs = gen_random_observations(cover, 7200 + i)
        stree = spanning_tree(build_nerve(cover), "bfs", cover)
        instances.append((cover, quads, obs, stree))
    min_eig = float("inf")
    unbounded = 0
    for reg_seed in range(100):
        for cover, quads, obs, stree in instances:
            reg = regularize(quads, 1e-3, reg_seed)
            for root in range(cover.t):
                try:
                    run = run_message_passing(cover, reg, obs, direct_tree(stree, root))
                except UnboundedBelow:
                    unbounded += 1
                    continue
                for rec in run.edge_records.values():
                    if np.isfinite(rec.argmin.min_eig):
                        min_eig = min(min_eig, rec.argmin.min_eig)
    ok = unbounded == 0 and min_eig > 0.0
    _report(7, ok, f"no unbounded runs ({unbounded}), min block eigenvalue {min_eig:.2e} > 0", t0)


def _chain_cover(spec_rows):
    """Clusters in a chain, each adjacent pair bridged by one shared node.

    Each row is (observable count, private count).  The single-node bridges
    bottleneck the leaf messages, which is the regime where the dimension
    criterion has force: a leaf's coefficient family can carry at most
    msg_dim + 1 jet dimensions, so observations beyond that are provably
    lost.  Tail clusters are sized so that their full-jet-rank leaves stay
    below the inequality (no vacuous flags).
    """
    from nervemp.cover import Graph, SubgraphCover

    ids = iter(range(1000))
    t = len(spec_rows)
    bridges = [next(ids) for _ in range(t - 1)]
    members, observables = [], []
    for ci, (n_obs, n_y) in enumerate(spec_rows):
        s = [next(ids) for _ in range(n_obs)]
        y = [next(ids) for _ in range(n_y)]
        v = s + y
        if ci > 0:
            v.append(bridges[ci - 1])
        if ci < t - 1:
            v.append(bridges[ci])
        members.append(sorted(v))
        observables.append(s)
    n = next(ids)
    edges = []
    for v in members:
        edges += [(v[i], v[i + 1]) for i in range(len(v) - 1)]
    return SubgraphCover(Graph(n, edges), members, observables)


def test_criterion_8_criterion_consistency():
    """An insolubility flag at a leaf implies the direct row-space test
    fails at every other root, over 20 regularized linear-task instances
    with bottlenecked leaves; both tests are deterministic under fixed
    seeds."""
    t0 = time.perf_counter()
    flagged = 0
    checked = 0
    counterexamples = []
    for i in range(20):
        seed = 8000 + 41 * i
        dim_m = 1 + i % 2
        if i % 2 == 0:
            rows = [(3 + (i // 2) % 2, 1 + (i // 4) % 2), (1, 1)]
        else:
            rows = [(4, 1 + (i // 2) % 2), (1, 1), (1, 1)]
        cover = _chain_cover(rows)
        quads = regularize(gen_random_quads(cover, seed + 1), 1e-3, seed + 2)
        rng = np.random.default_rng(seed + 3)
        task = linear_task(rng.standard_normal((dim_m, cover.graph.n)))
        stree = spanning_tree(build_nerve(cover), "bfs", cover)
        leaves = [
            v for v in range(cover.t) if sum(1 for e in stree.edges if v in e) == 1
        ]
        for leaf in leaves:
            flag, report = insolubility_check(cover, quads, task, stree, leaf)
            flag2, report2 = insolubility_check(cover, quads, task, stree, leaf)
            assert (flag, report) == (flag2, report2)  # deterministic
            if not flag:
                continue
            flagged += 1
            for root in range(cover.t):
                if root == leaf:
                    continue
                checked += 1
                d1 = direct_solubility_test(cover, quads, task, root, stree, seed=seed)
                d2 = direct_solubility_test(cover, quads, task, root, stree, seed=seed)
                assert d1 == d2  # deterministic
                if d1:
                    counterexamples.append((i, leaf, root))
    ok = flagged >= 3 and checked >= 3 and not counterexamples
    _report(
        8,
        ok,
        f"{flagged} flags, {checked} implication checks, "
        f"{len(counterexamples)} counterexamples",
        t0,
    )
