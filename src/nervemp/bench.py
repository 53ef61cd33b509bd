"""Instance generators, pinned fixtures, and the experiment harness.

Generators are pure functions of (spec, seed).  The harness sweeps the
basis count k or the per-edge sample count m, runs the exact and the
approximate pipeline on each generated instance, and emits CSV records
with the error ratio R per run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .cover import (
    Graph,
    NerveSkeleton,
    SubgraphCover,
    build_nerve,
    direct_tree,
    spanning_tree,
)
from .errors import InfeasibleStats
from .exactmp import centralized_solve, regularize
from .instancefile import Instance
from .quadform import QuadFunc, subspace_distance_quad
from .solubility import TaskSpec, linear_task
from .surrogate import (
    ApproxConfig,
    approx_message_passing,
    error_ratio,
    identifiability_threshold,
)

# Per-subgraph intersection statistics (|X_i|, |Y_i|, |S_i|, |V_i|) of the
# twelve-subgraph benchmark cover.
DEFAULT_STATS_ROWS = (
    (4, 6, 12, 22),
    (12, 4, 10, 26),
    (6, 6, 14, 26),
    (6, 8, 12, 26),
    (12, 6, 10, 28),
    (14, 8, 6, 28),
    (10, 4, 12, 26),
    (8, 2, 14, 24),
    (6, 6, 12, 24),
    (10, 6, 10, 26),
    (4, 8, 13, 25),
    (4, 8, 14, 26),
)


# Harness recipe.  Once k reaches max |V_i| every local span is complete,
# the objective is identically zero, and the error ratio loses its
# denominator, so the harness regularizes every instance it generates.
REGULARIZE_EPS = 1e-2
BOX_SCALE = 0.3  # sampling box radius per unit of observation RMS


@dataclass(frozen=True)
class InstanceSpec:
    """What to generate: `kind` (random_quadratic, distributed_sampling or
    cover_from_stats), subgraph count `t`, basis count `k`, cover statistics
    `rows` and `nerve` (default: benchmark rows, seeded nerve), `noise`, `seed`."""

    kind: str
    t: int = 4
    k: int = 25
    rows: tuple | None = None
    nerve: tuple | None = None
    noise: float | None = None
    seed: int = 0


def _chain_edges(nodes) -> list[tuple[int, int]]:
    nodes = sorted(nodes)
    return [(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]


def _layout_cover(shared, local) -> SubgraphCover:
    """Cover from node counts: `shared` lists ((i, j), count) per nerve edge,
    in sorted edge order, and `local` lists (private, observed) per subgraph.

    Node ids are dealt out in that order: the shared nodes of each nerve edge,
    then each subgraph's private nodes followed by its observed ones.  The
    graph chains every subgraph's nodes in id order.
    """
    members: list[list[int]] = [[] for _ in local]
    next_id = 0
    for (i, j), count in shared:
        ids = range(next_id, next_id + count)
        members[i].extend(ids)
        members[j].extend(ids)
        next_id += count
    observables = []
    for i, (n_private, n_observed) in enumerate(local):
        members[i].extend(range(next_id, next_id + n_private + n_observed))
        next_id += n_private
        observables.append(range(next_id, next_id + n_observed))
        next_id += n_observed
    edges = [e for m in members for e in _chain_edges(m)]
    return SubgraphCover(Graph(next_id, edges), members, observables)


def gen_random_cover(
    t: int,
    seed: int,
    extra_edge_prob: float = 0.25,
    y_range: tuple[int, int] = (1, 2),
    s_range: tuple[int, int] = (1, 2),
) -> SubgraphCover:
    """Random connected cover; each nerve edge gets one or two shared nodes."""
    rng = np.random.default_rng(seed)
    nerve_edges = set()
    for i in range(1, t):
        nerve_edges.add((int(rng.integers(0, i)), i))
    # One coin per pair (i, j), i < j, outside the tree, in row-major
    # order; each row's coins are drawn in one call.  Earlier rows add no
    # pair (i, .), so `later` excludes exactly the tree pairs.
    for i in range(t):
        later = [j for j in range(i + 1, t) if (i, j) not in nerve_edges]
        coins = rng.random(len(later))
        nerve_edges.update((i, j) for j, c in zip(later, coins) if c < extra_edge_prob)
    shared = [(e, int(rng.integers(1, 3))) for e in sorted(nerve_edges)]
    local = [
        (int(rng.integers(y_range[0], y_range[1] + 1)),
         int(rng.integers(s_range[0], s_range[1] + 1)))
        for _ in range(t)
    ]
    return _layout_cover(shared, local)


def gen_random_quads(
    cover: SubgraphCover, seed: int, rank_deficient: bool = False
) -> tuple[QuadFunc, ...]:
    """Random PSD quadratics per subgraph; optionally rank-deficient."""
    rng = np.random.default_rng(seed)
    quads = []
    for i in range(cover.t):
        vs = cover.subgraphs[i]
        n = len(vs)
        r = max(1, n - int(rng.integers(1, max(2, n)))) if rank_deficient else n
        G = rng.standard_normal((n, r))
        A = G @ G.T / max(1, n)
        if rank_deficient:
            b = rng.standard_normal(n)
        else:
            b = A @ rng.standard_normal(n)  # stays bounded below
        quads.append(QuadFunc(vs, (A + A.T) / 2.0, b, float(rng.standard_normal())))
    return tuple(quads)


def gen_random_observations(cover: SubgraphCover, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {v: float(rng.standard_normal()) for v in cover.s_order}


def gen_distributed_sampling(
    cover: SubgraphCover, k: int, seed: int, noise: float | None = None
) -> tuple[tuple[QuadFunc, ...], TaskSpec, dict]:
    """Local squared-distance objectives to the spans of k random signals.

    Draws k standard-normal basis signals z_j, sets each f_i to the squared
    distance between x and its projection onto span(z_j restricted to V_i),
    and observes a random combination of the z_j plus N(0, noise^2) noise.
    The task is the least-squares coefficient map pinv(Z).
    When `noise` is None it defaults to 0.05 * sqrt(k), five percent of the
    analytic signal scale.
    """
    n = cover.graph.n
    if k < 1:
        raise ValueError(f"basis count {k} must be at least 1")
    if noise is not None and not (np.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise {noise} must be finite and non-negative")
    if k > n:
        raise ValueError(f"basis count {k} exceeds node count {n}")
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, k))
    quads = tuple(
        subspace_distance_quad([Z[list(vs), j] for j in range(k)], vs)
        for vs in cover.subgraphs
    )
    r_true = rng.standard_normal(k)
    x_true = Z @ r_true
    sigma = 0.05 * np.sqrt(k) if noise is None else float(noise)
    observations = {
        v: float(x_true[v] + sigma * rng.standard_normal()) for v in cover.s_order
    }
    task = linear_task(np.linalg.pinv(Z))
    return quads, task, observations


def fixture_eg32() -> Instance:
    """Pinned two-subgraph instance on seven nodes with a rank-3 basis.

    Nodes 0..6 carry, in order, the two observables and the private node of
    the first subgraph, the shared node, then the two observables and the
    private node of the second subgraph.  The first subgraph's message is
    identically zero, so the linear task (node2 - node6) cannot be solved
    from the second subgraph's local argmin.
    """
    v1 = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    v2 = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    v3 = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    subgraphs = [(0, 1, 2, 3), (3, 4, 5, 6)]
    observables = [(0, 1), (4, 5)]
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (5, 6)]
    graph = Graph(7, edges)
    cover = SubgraphCover(graph, subgraphs, observables)
    quads = tuple(
        subspace_distance_quad([v[list(vs)] for v in (v1, v2, v3)], vs)
        for vs in subgraphs
    )
    L = np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0]])
    task = linear_task(L)
    x = v1 + 2.0 * v2 + 3.0 * v3  # consistent signal; the optimum is 0
    observations = {v: float(x[v]) for v in (0, 1, 4, 5)}
    return Instance(cover=cover, quads=quads, task=task, observations=observations)


def fixture_triangle(seed: int = 7) -> Instance:
    """Three pairwise-overlapping subgraphs with strictly convex quadratics."""
    subgraphs = [(0, 1, 6, 7), (2, 3, 6, 8), (4, 5, 7, 8)]
    observables = [(0,), (2,), (4,)]
    edges = []
    for vs in subgraphs:
        edges.extend(_chain_edges(vs))
    graph = Graph(9, edges)
    cover = SubgraphCover(graph, subgraphs, observables)
    rng = np.random.default_rng(seed)
    quads = []
    for vs in subgraphs:
        n = len(vs)
        G = rng.standard_normal((n, n))
        A = G @ G.T / n + 0.5 * np.eye(n)
        quads.append(QuadFunc(vs, (A + A.T) / 2.0, rng.standard_normal(n), 0.0))
    observations = {v: float(rng.standard_normal()) for v in cover.s_order}
    return Instance(cover=cover, quads=tuple(quads), task=None, observations=observations)


def _allocate_shared(rows, nerve_edges, rng) -> dict | None:
    """Integer weights >= 1 per nerve edge with weighted degrees |X_i|.

    Degree-1 nodes pin their edge weight exactly, so those are peeled first;
    the remainder is filled by a largest-remainder greedy with seeded ties.
    """
    t = len(rows)
    adj: dict[int, set] = {i: set() for i in range(t)}
    for i, j in nerve_edges:
        adj[i].add(j)
        adj[j].add(i)
    target = [rows[i][0] for i in range(t)]
    for i in range(t):
        if not adj[i] and target[i] != 0:
            return None
    weights: dict[tuple[int, int], int] = {}
    while True:
        leaves = [i for i in range(t) if len(adj[i]) == 1]
        if not leaves:
            break
        i = leaves[0]
        (j,) = adj[i]
        w = target[i]
        if w < 1:
            return None
        weights[tuple(sorted((i, j)))] = w
        target[i] = 0
        target[j] -= w
        adj[i].clear()
        adj[j].discard(i)
        if not adj[j] and target[j] != 0:
            return None
    core_edges = [e for e in nerve_edges if tuple(sorted(e)) not in weights]
    for e in core_edges:
        weights[tuple(sorted(e))] = 1
        target[e[0]] -= 1
        target[e[1]] -= 1
    if any(x < 0 for x in target) or sum(target) % 2 == 1:
        return None
    guard = sum(target) + 1
    while sum(target) > 0 and guard > 0:
        guard -= 1
        pool = sorted((i for i in range(t) if target[i] > 0),
                      key=lambda i: (-target[i], i))
        u = pool[int(rng.integers(min(2, len(pool))))] if len(pool) > 1 else pool[0]
        cands = [v for v in adj[u] if target[v] > 0]
        if not cands:
            return None
        best = max(target[v] for v in cands)
        tops = [v for v in cands if target[v] == best]
        v = tops[int(rng.integers(len(tops)))]
        weights[tuple(sorted((u, v)))] += 1
        target[u] -= 1
        target[v] -= 1
    return weights if sum(target) == 0 else None


def cover_from_stats(rows, nerve_edges, seed: int = 0, attempts: int = 200) -> SubgraphCover:
    """Build a cover matching per-subgraph statistics over a given nerve.

    Shared nodes are allocated along nerve edges (each shared node lies in
    exactly two subgraphs) with seeded randomization.  Rows whose counts
    satisfy |X|+|Y|+|S| < |V| receive extra exclusive non-observable nodes.
    Raises InfeasibleStats when no allocation exists.
    """
    rows = tuple(tuple(int(x) for x in r) for r in rows)
    t = len(rows)
    for idx, (x, y, s, v) in enumerate(rows):
        if min(x, y, s, v) < 0 or x + y + s > v:
            raise InfeasibleStats(f"row {idx}: |X|+|Y|+|S| exceeds |V|")
    nerve_edges = tuple(sorted(tuple(sorted(e)) for e in nerve_edges))
    for i, j in nerve_edges:
        if not (0 <= i < j < t):
            raise InfeasibleStats(f"nerve edge ({i}, {j}) names an unknown subgraph")
    weights = None
    for attempt in range(attempts):
        rng = np.random.default_rng([seed, attempt])
        weights = _allocate_shared(rows, nerve_edges, rng)
        if weights is not None:
            break
    if weights is None:
        raise InfeasibleStats(
            "no shared-node allocation matches the |X| column on this nerve"
        )
    return _layout_cover(
        [(e, weights[e]) for e in nerve_edges],
        [(v - x - s, s) for x, _, s, v in rows],
    )


def random_nerve_for_stats(rows, seed: int) -> tuple:
    """Seeded random connected nerve whose degrees can carry the |X| column.

    Pairs |X_i| shared-node stubs uniformly at random (configuration model),
    so the weighted degree matches by construction; retries until the
    resulting nerve is simple enough, connected, and allocatable.
    """
    t = len(rows)
    x = [r[0] for r in rows]
    if sum(x) % 2 == 1:
        raise InfeasibleStats("total intersection count must be even")
    stubs = np.repeat(np.arange(t), x)
    for attempt in range(500):
        rng = np.random.default_rng([seed, 1000 + attempt])
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        edges = tuple(sorted({tuple(sorted((int(a), int(b)))) for a, b in pairs}))
        nerve = NerveSkeleton(t=t, edges=edges)
        if not nerve.is_connected():
            continue
        try:
            cover_from_stats(rows, edges, seed=seed, attempts=20)
        except InfeasibleStats:
            continue
        return edges
    raise InfeasibleStats("no random nerve admits the requested statistics")


def generate_instance(spec: InstanceSpec) -> Instance:
    """Instance from an InstanceSpec; a pure function of it (seed included)."""
    if spec.kind == "random_quadratic":
        cover = gen_random_cover(spec.t, spec.seed)
        quads = gen_random_quads(cover, spec.seed + 1)
        obs = gen_random_observations(cover, spec.seed + 2)
        return Instance(cover=cover, quads=quads, task=None, observations=obs)
    if spec.kind in ("distributed_sampling", "cover_from_stats"):
        rows = spec.rows if spec.rows is not None else DEFAULT_STATS_ROWS
        nerve = spec.nerve or random_nerve_for_stats(rows, spec.seed)
        cover = cover_from_stats(rows, nerve, seed=spec.seed)
        if spec.kind == "cover_from_stats":
            quads = tuple(QuadFunc.zero(vs) for vs in cover.subgraphs)
            return Instance(cover=cover, quads=quads, task=None, observations=None)
        quads, task, obs = gen_distributed_sampling(cover, spec.k, spec.seed + 1, spec.noise)
        return Instance(cover=cover, quads=quads, task=task, observations=obs)
    raise ValueError(f"unknown instance kind {spec.kind!r}")


def _observation_rms(observations: dict) -> float:
    vals = np.array(list(observations.values()), dtype=float)
    return float(np.sqrt(np.mean(vals**2))) if vals.size else 1.0


def run_experiment(
    spec: InstanceSpec,
    config: ApproxConfig,
    k_list=None,
    m_list=None,
    repeats: int = 1,
    seed: int = 0,
) -> tuple[list[dict], list[dict]]:
    """Sweep k (basis count) or m (samples per edge) and collect R records.

    The cover (seeded), its BFS tree rooted at subgraph 0 and the
    quadratic-ls sample floor are fixed across the sweep; each sweep point
    and repeat regenerates the basis signals and observations with a
    derived seed, regularizes them with REGULARIZE_EPS, runs the centralized
    oracle and the approximate pipeline with a box radius of BOX_SCALE times
    the observations' RMS, and records the error ratio.  Returns (records,
    per-point aggregates).
    """
    if (k_list is None) == (m_list is None):
        raise ValueError("exactly one of k_list / m_list must be given")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    sweep = [("k", k) for k in k_list] if k_list is not None else [("m", m) for m in m_list]
    rows = spec.rows if spec.rows is not None else DEFAULT_STATS_ROWS
    nerve = spec.nerve or random_nerve_for_stats(rows, seed)
    cover = cover_from_stats(rows, nerve, seed=seed)
    dtree = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 0)
    # The quadratic fit needs m above identifiability on every edge; a 25%
    # margin keeps the widest edge's interpolation problem well conditioned.
    floor = 0
    if config.kind == "quadratic_ls":
        floor = int(-(-identifiability_threshold(cover, dtree) * 5 // 4))
    records = []
    for p_idx, (axis, point) in enumerate(sweep):
        for rep in range(repeats):
            run_seed = int(np.random.default_rng([seed, p_idx, rep]).integers(2**63))
            k = point if axis == "k" else spec.k
            m = point if axis == "m" else config.m
            quads, _, obs = gen_distributed_sampling(cover, k, run_seed, spec.noise)
            quads = regularize(quads, REGULARIZE_EPS, run_seed)
            truth, _, _ = centralized_solve(cover, quads, obs)
            run_cfg = replace(config, m=max(m, floor), seed=run_seed,
                              box_radius=BOX_SCALE * _observation_rms(obs))
            t0 = time.perf_counter()
            approx, _, _ = approx_message_passing(cover, quads, obs, dtree, run_cfg)
            wall_ms = (time.perf_counter() - t0) * 1000.0
            records.append({
                "k": k,
                "m": run_cfg.m,
                "seed": run_seed,
                "exact_value": truth,
                "approx_value": approx,
                "R_percent": error_ratio(approx, truth),
                "wall_ms": wall_ms,
            })
    aggregates = []
    for p_idx, (axis, point) in enumerate(sweep):
        chunk = records[p_idx * repeats : (p_idx + 1) * repeats]
        rs = np.array([r["R_percent"] for r in chunk])
        aggregates.append({
            "sweep_point": point,
            "mean_R": float(rs.mean()),
            "std_R": float(rs.std()),
            "n": len(chunk),
        })
    return records, aggregates


def records_csv(records) -> str:
    lines = ["k,m,seed,exact_value,approx_value,R_percent,wall_ms"]
    for r in records:
        lines.append(
            f"{r['k']},{r['m']},{r['seed']},{r['exact_value']!r},"
            f"{r['approx_value']!r},{r['R_percent']!r},{r['wall_ms']!r}"
        )
    return "\n".join(lines) + "\n"


def aggregates_csv(aggregates) -> str:
    lines = ["sweep_point,mean_R,std_R,n"]
    for a in aggregates:
        lines.append(f"{a['sweep_point']},{a['mean_R']!r},{a['std_R']!r},{a['n']}")
    return "\n".join(lines) + "\n"
