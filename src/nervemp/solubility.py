"""Tasks, global problems, jet-coefficient ranks and solubility tests.

A task is either a linear map tau(x) = Lx + d on full signals or the scalar
objective value.  For linear tasks on quadratic objectives the global
problem s -> tau(xhat(s)) is affine and is read off the argmin map of one
partial minimization over the unobserved nodes.  The jet analysis works at
order 2, which determines a quadratic message completely, and computes the
generic rank of the coefficient map s -> (A, b, c) of a leaf's message from
one elimination that keeps the observations as variables.  The direct test
reads the root's argmin map s -> yhat_root(s) off the assembled objective
the same way, without running the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .cover import SpanningTree, SubgraphCover, compute_partitions, direct_tree
from .errors import IllDefinedTask
from .exactmp import _check_inputs, centralized_solve, local_solve, run_message_passing
from .quadform import QuadFunc, quad_sum

RANK_TOL = 1e-8
# Random observation points at which the objective task's direct test
# compares the aggregated and centralized minima.
OBJECTIVE_CHECKS = 5


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


def linear_task(L, d=None) -> TaskSpec:
    return TaskSpec(kind="linear", L=L, d=d)


def objective_task() -> TaskSpec:
    return TaskSpec(kind="objective_value")


@dataclass(frozen=True)
class GlobalProblemMap:
    """Affine map s -> tau(xhat(s)) with s ordered by sorted observable node."""

    matrix: np.ndarray
    offset: np.ndarray


@dataclass(frozen=True)
class JetProfile:
    """Rank data of a leaf message's coefficient family s -> (A, b, c)."""

    evaluator: Callable = field(repr=False)
    d_jet: int
    n_free: int


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
    representation.  A nonsingular eliminated block has an empty kernel, so
    every task is well defined on it: the centralized oracle behind
    `task_welldefined` runs only when the block is singular.
    """
    if task.kind != "linear":
        raise ValueError("the objective task's global problem is quadratic in s; "
                         "no affine map exists")
    _check_inputs(cover, quads)
    free = set(cover.graph.nodes) - cover.observable_set
    _, amap = quad_sum(quads, cover.graph.nodes).partial_minimize(free)
    if amap.singular and not task_welldefined(cover, quads, task)[0]:
        raise IllDefinedTask("task is not constant on the minimizer set")
    # amap.inputs are the observable nodes in node order, i.e. s_order.
    L_free = task.L[:, list(amap.eliminated)]
    matrix = task.L[:, list(amap.inputs)] + L_free @ amap.M
    offset = L_free @ amap.m + task.d
    return GlobalProblemMap(matrix=matrix, offset=offset)


def jet_profile(
    cover: SubgraphCover, quads: Sequence[QuadFunc], dtree, leaf: int
) -> JetProfile:
    """Generic rank of the leaf message's coefficient map s -> (A, b, c).

    Eliminating the leaf's y-set from its quadratic with the observables
    kept as variables gives Q(w, s_i) once.  Fixing s gives the message
    A = Q_ww, b = Q_w + 2 Q_ws s, c = s'Q_ss s + Q_s's + Q_c, so the
    Jacobian is [B; (2Cs + g)'] with B = 2 Q_ws, C = Q_ss, g = Q_s, and its
    generic rank is rank(B) + [rank([B; C; g']) > rank(B)].  Ranks are
    numerical (SVD, RANK_TOL * sigma_max) with the absolute floor
    RANK_TOL * max(1, largest |coefficient of Q|), which keeps float noise
    in an identically-zero message family from registering as rank.  The
    evaluator is the map s -> (A flat, b, c) itself, from Q.fix_vars.

    The leaf's split is read off the cover, on which alone it depends (see
    `compute_partitions`): the message keeps V_i's nodes that lie in another
    subgraph and eliminates its other unobserved nodes.  This is why the
    insolubility flag is tree-independent.
    """
    if dtree.children[leaf]:
        raise ValueError(f"node {leaf} is not a leaf of the directed tree")
    if leaf == dtree.root:
        raise ValueError("the root sends no message; pick a non-root leaf")
    y_vars = [v for v in cover.subgraphs[leaf]
              if len(cover.subgraphs_containing(v)) == 1 and v not in cover.observable_set]
    q = quads[leaf]
    Q, _ = q.partial_minimize(v for v in y_vars if v in q.vars)
    s_vars = [v for v in Q.vars if v in cover.observables[leaf]]
    si = [k for k, v in enumerate(Q.vars) if v in s_vars]
    wi = [k for k, v in enumerate(Q.vars) if v not in s_vars]
    B = 2.0 * Q.A[np.ix_(wi, si)]
    C = Q.A[np.ix_(si, si)]
    g = Q.b[si]
    floor = RANK_TOL * max(1.0, np.max(np.abs(Q.A), initial=0.0),
                           np.max(np.abs(Q.b), initial=0.0), abs(Q.c))
    rank_b = _num_rank(B, floor)
    d_jet = rank_b + int(_num_rank(np.vstack([B, C, g[None, :]]), floor) > rank_b)

    def evaluator(s_vec: np.ndarray) -> np.ndarray:
        obs = dict(zip(cover.s_order, np.asarray(s_vec, dtype=float).tolist()))
        msg = Q.fix_vars({v: obs[v] for v in s_vars})
        return np.concatenate([msg.A.reshape(-1), msg.b, [msg.c]])

    return JetProfile(
        evaluator=evaluator,
        d_jet=d_jet,
        n_free=len(cover.subgraphs[leaf]) - len(cover.observables[leaf]),
    )


def b_alpha(profile: JetProfile) -> int:
    """Jet-image dimension minus the leaf's free-variable domain dimension.

    Subtracting the pre-elimination free domain dimension |V_i| - |S_i|
    measures how much observation information survives in the message; the
    literal reading, which subtracts the message domain dimension, leaves
    `profile.d_jet`.
    """
    return profile.d_jet - profile.n_free


def _leaf_neighbour(stree: SpanningTree, leaf: int) -> int:
    """The one tree neighbour of `leaf`; ValueError when `leaf` is no leaf."""
    adj = [e for e in stree.edges if leaf in e]
    if len(adj) != 1:
        raise ValueError(f"node {leaf} is not a leaf of the spanning tree")
    u, v = adj[0]
    return u if v == leaf else v


def insolubility_check(
    cover: SubgraphCover,
    quads: Sequence[QuadFunc],
    task: TaskSpec,
    stree: SpanningTree,
    leaf: int,
) -> tuple[bool, dict]:
    """Dimension-count insolubility criterion at a tree leaf.

    Flags when |S_i| - b_alpha > |S| - dim(M).  A true flag is
    tree-independent: insolubility then holds along every spanning tree.
    The genericity (submersion) hypotheses are assumed, not verified.
    """
    dtree = direct_tree(stree, _leaf_neighbour(stree, leaf))
    profile = jet_profile(cover, quads, dtree, leaf)
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
    }
    return flag, report


def _local_affine_map(cover, quads, dtree):
    """Rows of s -> (yhat_root(s), s_root, 1) as [linear part | offset].

    By exactness the aggregated message is the assembled objective
    minimized over the union of the tree's y-sets.  Minimizing that over
    the remaining unobserved variables gives the root's minimum-norm
    argmin yhat_root(s) = M s + m in closed form, with no engine run.
    """
    elim = set().union(*(p.y_vars for p in compute_partitions(cover, dtree).values()))
    agg, _ = quad_sum(quads, cover.graph.nodes).partial_minimize(elim)
    _, amap = agg.partial_minimize(set(agg.vars) - cover.observable_set)
    # amap.inputs are the observable nodes in node order, i.e. s_order.
    ns = len(cover.s_order)
    select = np.eye(ns + 1)
    root_rows = [cover.s_order.index(v) for v in cover.observables[dtree.root]]
    return np.concatenate([
        np.concatenate([amap.M, amap.m[:, None]], axis=1),
        select[root_rows],
        select[-1:],  # constant row
    ])


def _num_rank(X: np.ndarray, floor: float = 0.0) -> int:
    """Singular values above RANK_TOL * sigma_max and above `floor`."""
    if X.size == 0:
        return 0
    sv = np.linalg.svd(X, compute_uv=False)
    return int(np.sum(sv > max(RANK_TOL * sv[0], floor)))


def direct_solubility_test(
    cover: SubgraphCover,
    quads: Sequence[QuadFunc],
    task: TaskSpec,
    root: int,
    stree: SpanningTree,
    seed: int = 0,
) -> bool:
    """Can the global problem be read off the root's local argmin?

    Linear tasks: true iff the rows of the global problem map lie in the
    affine row space of s -> (yhat_root(s), s_root).  The objective task is
    checked by value equality between the aggregated and centralized minima.
    """
    dtree = direct_tree(stree, root)
    if task.kind == "objective_value":
        rng = np.random.default_rng(seed)
        for _ in range(OBJECTIVE_CHECKS):
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
    flag, report = insolubility_check(cover, quads, task, stree, leaf)
    if root is None:
        root = _leaf_neighbour(stree, leaf)
    direct = direct_solubility_test(cover, quads, task, root, stree, seed=seed)
    record = {k: report[k] for k in
              ("leaf", "S_i", "d_jet", "n_free", "b_alpha", "S", "dim_M", "flag")}
    record["direct_test"] = direct
    record["root"] = root
    return record
