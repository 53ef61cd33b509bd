"""Tasks, global problems, jet-coefficient ranks and solubility tests.

A task is either a linear map tau(x) = Lx + d on full signals or the scalar
objective value.  For linear tasks on quadratic objectives the global
problem s -> tau(xhat(s)) is affine and is read off the argmin map of one
partial minimization over the unobserved nodes.  The jet analysis works at
order 2, which determines a quadratic message completely, and estimates the
generic rank of the coefficient map s -> (A, b, c) of a leaf's message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .cover import SpanningTree, SubgraphCover, compute_partitions, direct_tree
from .errors import IllDefinedTask
from .exactmp import _fix_observations, centralized_solve, local_solve, run_message_passing
from .quadform import QuadFunc, quad_sum

JET_SAMPLES = 32
JET_FD_STEP = 1e-3
RANK_TOL = 1e-8


@dataclass(frozen=True)
class TaskSpec:
    """A task on full graph signals: linear map or the objective value."""

    kind: str
    L: np.ndarray | None = None
    d: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "linear":
            if self.L is None:
                raise ValueError("linear task requires a matrix L")
            L = np.asarray(self.L, dtype=float)
            if L.ndim != 2:
                raise ValueError("L must be a matrix")
            d = np.zeros(L.shape[0]) if self.d is None else np.asarray(self.d, dtype=float)
            if d.shape != (L.shape[0],):
                raise ValueError("offset d must have one entry per row of L")
            object.__setattr__(self, "L", L)
            object.__setattr__(self, "d", d)
        elif self.kind == "objective_value":
            if self.L is not None or self.d is not None:
                raise ValueError("objective task carries no matrix")
        else:
            raise ValueError(f"unknown task kind {self.kind!r}")

    @property
    def dim_m(self) -> int:
        return 1 if self.kind == "objective_value" else self.L.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind != "linear":
            raise ValueError("only linear tasks evaluate pointwise; the "
                             "objective task needs the objective itself")
        return self.L @ np.asarray(x, dtype=float) + self.d


def linear_task(L, d=None) -> TaskSpec:
    return TaskSpec(kind="linear", L=np.asarray(L, dtype=float),
                    d=None if d is None else np.asarray(d, dtype=float))


def objective_task() -> TaskSpec:
    return TaskSpec(kind="objective_value")


@dataclass(frozen=True)
class GlobalProblemMap:
    """Affine map s -> tau(xhat(s)) with s ordered by sorted observable node."""

    s_order: tuple[int, ...]
    matrix: np.ndarray
    offset: np.ndarray

    def apply(self, s: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(s, dtype=float) + self.offset


@dataclass(frozen=True)
class JetProfile:
    """Sampled rank data of a leaf message's coefficient family."""

    leaf: int
    evaluator: Callable = field(repr=False)
    jacobians: tuple = field(repr=False)
    d_jet: int
    msg_dim: int
    eliminated_count: int
    n_free: int
    s_order: tuple[int, ...]


def task_welldefined(
    cover: SubgraphCover, quads: Sequence[QuadFunc], task: TaskSpec
) -> tuple[bool, np.ndarray | None]:
    """Is tau constant on the constrained minimizer set for every s?

    Returns the verdict and, when ill-defined, a violating kernel direction
    embedded over V.
    """
    if task.kind == "objective_value":
        return True, None
    # The kernel of the constrained problem does not depend on s; it is
    # embedded over V with zero rows at the observable nodes.
    _, _, kernel = centralized_solve(cover, quads, {v: 0.0 for v in cover.s_order})
    if kernel.shape[1] == 0:
        return True, None
    image = task.L @ kernel
    worst = float(np.max(np.abs(image))) if image.size else 0.0
    if worst <= 1e-8:
        return True, None
    col = int(np.argmax(np.max(np.abs(image), axis=0)))
    return False, kernel[:, col]


def global_problem_map(
    cover: SubgraphCover, quads: Sequence[QuadFunc], task: TaskSpec
) -> GlobalProblemMap:
    """Recover the affine map s -> tau(xhat(s)) in closed form.

    One partial minimization of the assembled objective over the unobserved
    nodes gives the argmin map xhat_free(s) = M s + m, so tau(xhat(s)) =
    (L_S + L_free M) s + L_free m + d.  Only linear tasks admit the affine
    representation.
    """
    if task.kind != "linear":
        raise ValueError("the objective task's global problem is quadratic in s; "
                         "no affine map exists")
    ok, _ = task_welldefined(cover, quads, task)
    if not ok:
        raise IllDefinedTask("task is not constant on the minimizer set")
    free = set(cover.graph.nodes) - cover.observable_set
    _, amap = quad_sum(quads, cover.graph.nodes).partial_minimize(free)
    # amap.inputs are the observable nodes in node order, i.e. s_order.
    L_free = task.L[:, list(amap.eliminated)]
    matrix = task.L[:, list(amap.inputs)] + L_free @ amap.M
    offset = L_free @ amap.m + task.d
    return GlobalProblemMap(s_order=cover.s_order, matrix=matrix, offset=offset)


def _leaf_message_coeffs(cover, quads, dtree, leaf, partition):
    """Coefficient vector (A flat, b, c) of the leaf's message at given s."""

    def evaluator(s_vec: np.ndarray) -> np.ndarray:
        obs = dict(zip(cover.s_order, np.asarray(s_vec, dtype=float).tolist()))
        h = _fix_observations(quads[leaf], obs, cover.observables[leaf])
        y_present = [v for v in partition.y_vars if v in h.vars]
        msg, _ = h.partial_minimize(y_present)
        return np.concatenate([msg.A.reshape(-1), msg.b, [msg.c]])

    return evaluator


def jet_profile(
    cover: SubgraphCover,
    quads: Sequence[QuadFunc],
    dtree,
    leaf: int,
    n_samples: int = JET_SAMPLES,
    step: float = JET_FD_STEP,
    seed: int = 0,
) -> JetProfile:
    """Generic rank of the leaf message's coefficient map s -> (A, b, c).

    Finite-difference Jacobians at seeded random observation points; the
    reported rank is the maximum numerical rank (SVD, 1e-8 * sigma_max)
    over the samples.  Central differences are exact here because message
    coefficients are polynomial in s.
    """
    if dtree.children[leaf]:
        raise ValueError(f"node {leaf} is not a leaf of the directed tree")
    if leaf == dtree.root:
        raise ValueError("the root sends no message; pick a non-root leaf")
    partition = compute_partitions(cover, dtree)[(leaf, dtree.parent[leaf])]
    evaluator = _leaf_message_coeffs(cover, quads, dtree, leaf, partition)
    s_order = cover.s_order
    ns = len(s_order)
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n_samples, ns))
    jacobians = []
    d_jet = 0
    coeff_scale = 1.0
    for p in points:
        coeff_scale = max(coeff_scale, float(np.max(np.abs(evaluator(p)), initial=0.0)))
        cols = []
        for k in range(ns):
            e = np.zeros(ns)
            e[k] = step
            cols.append((evaluator(p + e) - evaluator(p - e)) / (2.0 * step))
        J = np.stack(cols, axis=1) if cols else np.zeros((evaluator(p).size, 0))
        jacobians.append(J)
        if J.size:
            sv = np.linalg.svd(J, compute_uv=False)
            if sv.size and sv[0] > 0:
                # Absolute floor keeps float noise in an identically-zero
                # coefficient map from registering as rank.
                tol = max(RANK_TOL * sv[0], RANK_TOL * coeff_scale)
                d_jet = max(d_jet, int(np.sum(sv > tol)))
    msg_dim = len(partition.x_vars) + len(partition.z_vars)
    n_free = len(cover.subgraphs[leaf]) - len(cover.observables[leaf])
    coeff_count = msg_dim * msg_dim + msg_dim + 1
    assert d_jet <= min(ns, coeff_count)
    return JetProfile(
        leaf=leaf,
        evaluator=evaluator,
        jacobians=tuple(jacobians),
        d_jet=d_jet,
        msg_dim=msg_dim,
        eliminated_count=len(partition.y_vars),
        n_free=n_free,
        s_order=s_order,
    )


def b_alpha(profile: JetProfile, definition_literal: bool = False) -> int:
    """Jet-image dimension minus the leaf's free-variable domain dimension.

    The default convention subtracts the pre-elimination free domain
    dimension |V_i| - |S_i|, which is the reading that measures how much
    observation information survives in the message.  The literal variant
    subtracts the message domain dimension instead, leaving d_jet.
    """
    if definition_literal:
        return profile.d_jet
    return profile.d_jet - profile.n_free


def insolubility_check(
    cover: SubgraphCover,
    quads: Sequence[QuadFunc],
    task: TaskSpec,
    stree: SpanningTree,
    leaf: int,
    seed: int = 0,
) -> tuple[bool, dict]:
    """Dimension-count insolubility criterion at a tree leaf.

    Flags when |S_i| - b_alpha > |S| - dim(M).  A true flag is
    tree-independent: insolubility then holds along every spanning tree.
    The genericity (submersion) hypotheses are assumed, not verified.
    """
    adj = [e for e in stree.edges if leaf in e]
    if len(adj) != 1:
        raise ValueError(f"node {leaf} is not a leaf of the spanning tree")
    head = adj[0][0] if adj[0][1] == leaf else adj[0][1]
    dtree = direct_tree(stree, head)
    profile = jet_profile(cover, quads, dtree, leaf, seed=seed)
    ba = b_alpha(profile)
    s_i = len(cover.observables[leaf])
    s_total = len(cover.s_order)
    lhs = s_i - ba
    rhs = s_total - task.dim_m
    # The objective-value problem is always locally soluble (re-arranging
    # the order of minimization), so the dimension count never overrides
    # that guarantee.
    objective_guaranteed = task.kind == "objective_value"
    flag = (lhs > rhs) and not objective_guaranteed
    report = {
        "leaf": leaf,
        "S_i": s_i,
        "d_jet": profile.d_jet,
        "n_free": profile.n_free,
        "b_alpha": ba,
        "S": s_total,
        "dim_M": task.dim_m,
        "lhs": lhs,
        "rhs": rhs,
        "flag": flag,
        "objective_guaranteed": objective_guaranteed,
        "tree_independent": True,
        "genericity_assumed": True,
    }
    return flag, report


def _local_affine_map(cover, quads, dtree):
    """Rows of s -> (yhat_root(s), s_root) as [linear part | offset]."""
    s_order = cover.s_order
    ns = len(s_order)

    def solve(s_vec):
        obs = dict(zip(s_order, s_vec.tolist()))
        run = run_message_passing(cover, quads, obs, dtree)
        _, yhat, _ = local_solve(run)
        return run.aggregated.vars, yhat

    agg_vars, y0 = solve(np.zeros(ns))
    lin = np.zeros((len(agg_vars), ns))
    for k in range(ns):
        e = np.zeros(ns)
        e[k] = 1.0
        _, yk = solve(e)
        lin[:, k] = yk - y0
    rows = [np.concatenate([lin, y0[:, None]], axis=1)] if len(agg_vars) else []
    root_obs = cover.observables[dtree.root]
    for v in root_obs:
        sel = np.zeros(ns + 1)
        sel[s_order.index(v)] = 1.0
        rows.append(sel[None, :])
    rows.append(np.concatenate([np.zeros(ns), [1.0]])[None, :])  # constant row
    return np.concatenate(rows, axis=0)


def _num_rank(X: np.ndarray) -> int:
    if X.size == 0:
        return 0
    sv = np.linalg.svd(X, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > RANK_TOL * sv[0]))


def direct_solubility_test(
    cover: SubgraphCover,
    quads: Sequence[QuadFunc],
    task: TaskSpec,
    root: int,
    stree: SpanningTree,
    seed: int = 0,
    n_check: int = 5,
) -> bool:
    """Can the global problem be read off the root's local argmin?

    Linear tasks: true iff the rows of the global problem map lie in the
    affine row space of s -> (yhat_root(s), s_root).  The objective task is
    checked by value equality between the aggregated and centralized minima.
    """
    dtree = direct_tree(stree, root)
    if task.kind == "objective_value":
        rng = np.random.default_rng(seed)
        for _ in range(n_check):
            s = rng.standard_normal(len(cover.s_order))
            obs = dict(zip(cover.s_order, s.tolist()))
            run = run_message_passing(cover, quads, obs, dtree)
            local_val, _, _ = local_solve(run)
            central_val, _, _ = centralized_solve(cover, quads, obs)
            if abs(local_val - central_val) > 1e-8 * max(1.0, abs(central_val)):
                return False
        return True
    gpm = global_problem_map(cover, quads, task)
    M = _local_affine_map(cover, quads, dtree)
    phi = np.concatenate([gpm.matrix, gpm.offset[:, None]], axis=1)
    return _num_rank(np.concatenate([M, phi], axis=0)) == _num_rank(M)


def analysis_record(
    cover: SubgraphCover,
    quads: Sequence[QuadFunc],
    task: TaskSpec,
    stree: SpanningTree,
    leaf: int,
    root: int | None = None,
    seed: int = 0,
) -> dict:
    """Flat analysis record combining the criterion and the direct test."""
    flag, report = insolubility_check(cover, quads, task, stree, leaf, seed=seed)
    if root is None:
        adj = [e for e in stree.edges if leaf in e]
        root = adj[0][0] if adj[0][1] == leaf else adj[0][1]
    direct = direct_solubility_test(cover, quads, task, root, stree, seed=seed)
    record = {k: report[k] for k in
              ("leaf", "S_i", "d_jet", "n_free", "b_alpha", "S", "dim_M", "flag")}
    record["direct_test"] = direct
    record["root"] = root
    return record
