"""Exact message passing on a directed nerve tree.

Leaves emit the partial minimization of their observation-fixed local
quadratic; interior nodes sum incoming messages with their own function
(observables substituted the moment the function is incorporated) and
eliminate their y-set before forwarding.  The root's sum is the aggregated
message.  Scheduling is a deterministic post-order traversal by node index,
with summation in fixed child-index order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cover import DirectedTree, EdgePartition, SubgraphCover, compute_partitions
from .errors import MissingVariable, NonUniqueArgmin, UnboundedBelow
from .quadform import ArgminMap, QuadFunc, quad_sum


@dataclass(frozen=True)
class EdgeRecord:
    """What happened when one message crossed one directed edge."""

    edge: tuple[int, int]
    partition: EdgePartition
    argmin: ArgminMap

    @property
    def yy_min_eig(self) -> float:
        return self.argmin.min_eig

    @property
    def singular(self) -> bool:
        return self.argmin.singular


@dataclass(frozen=True)
class MessagePassingRun:
    """Immutable record of one complete run: one message per node."""

    cover: SubgraphCover
    dtree: DirectedTree
    observations: dict
    messages: dict
    edge_records: dict
    aggregated: QuadFunc
    report: dict


def _fix_observations(q: QuadFunc, obs: Mapping, nodes) -> QuadFunc:
    fixed = {v: obs[v] for v in nodes if v in q.vars}
    return q.fix_vars(fixed) if fixed else q


def run_message_passing(
    cover: SubgraphCover,
    quads: Sequence[QuadFunc],
    observations: Mapping,
    dtree: DirectedTree,
) -> MessagePassingRun:
    if len(quads) != cover.t:
        raise ValueError(f"{len(quads)} quadratics for {cover.t} subgraphs")
    for v in cover.observable_set:
        if v not in observations:
            raise MissingVariable(f"observation missing for node {v}")
    partitions = compute_partitions(cover, dtree)
    messages: dict[int, QuadFunc] = {}
    records: dict[tuple[int, int], EdgeRecord] = {}
    aggregated = None
    for i in dtree.postorder():
        own = _fix_observations(quads[i], observations, cover.observables[i])
        h = quad_sum([own] + [messages[c] for c in dtree.children[i]])
        if i == dtree.root:
            aggregated = h
            messages[i] = h
            continue
        j = dtree.parent[i]
        part = partitions[(i, j)]
        try:
            msg, amap = h.partial_minimize(v for v in part.y_vars if v in h.vars)
        except UnboundedBelow as exc:
            raise UnboundedBelow(
                f"message along edge ({i} -> {j}) is unbounded below", edge=(i, j)
            ) from exc
        messages[i] = msg
        records[(i, j)] = EdgeRecord(edge=(i, j), partition=part, argmin=amap)
    assert len(records) == len(dtree.edges), "one message must cross each tree edge"
    surviving = tuple(v for v in aggregated.vars if v not in cover.node_set(dtree.root))
    report = {"root": dtree.root, "surviving_foreign_vars": surviving}
    return MessagePassingRun(
        cover=cover,
        dtree=dtree,
        observations=dict(observations),
        messages=messages,
        edge_records=records,
        aggregated=aggregated,
        report=report,
    )


def local_solve(run: MessagePassingRun) -> tuple[float, np.ndarray, np.ndarray]:
    """Minimize the aggregated message; minimizer is aligned with its vars."""
    return run.aggregated.global_minimize()


def back_substitute(run: MessagePassingRun, yhat_root: np.ndarray) -> np.ndarray:
    """Replay the per-edge argmin maps from the root outward.

    `yhat_root` is `local_solve`'s minimizer over the aggregated vars.
    Recovers every eliminated variable and returns the full signal over V.
    Requires every elimination block to have been nonsingular.
    """
    for rec in run.edge_records.values():
        if rec.singular:
            raise NonUniqueArgmin(
                f"elimination block at edge {rec.edge} was singular"
            )
    y = np.asarray(yhat_root, dtype=float).reshape(-1)
    if y.shape[0] != len(run.aggregated.vars):
        raise ValueError(
            f"root minimizer has length {y.shape[0]}, expected {len(run.aggregated.vars)}"
        )
    assign = {v: float(x) for v, x in run.observations.items()}
    assign.update(zip(run.aggregated.vars, y.tolist()))
    for i in reversed(run.dtree.postorder()):
        if i == run.dtree.root:
            continue
        rec = run.edge_records[(i, run.dtree.parent[i])]
        assign.update(rec.argmin.apply(assign))
    # Nodes absent from every local quadratic are free with no objective;
    # the minimum-norm convention places them at zero, like the
    # centralized solver.
    touched = set()
    for q in (run.messages[c] for c in run.dtree.nodes):
        touched.update(q.vars)
    out = np.empty(run.cover.graph.n)
    for v in run.cover.graph.nodes:
        if v not in assign:
            if v in touched:
                raise AssertionError(
                    f"node {v} was never assigned during back substitution"
                )
            assign[v] = 0.0
        out[v] = assign[v]
    return out


def centralized_solve(
    cover: SubgraphCover, quads: Sequence[QuadFunc], observations: Mapping
) -> tuple[float, np.ndarray, np.ndarray]:
    """Embed everything over V, fix all observations, minimize globally.

    Returns (value, full minimizer over V, kernel basis embedded over V with
    zero rows at the observable nodes).
    """
    total = quad_sum(quads, cover.graph.nodes)
    s_nodes = cover.s_order
    for v in s_nodes:
        if v not in observations:
            raise MissingVariable(f"observation missing for node {v}")
    fixed = total.fix_vars({v: observations[v] for v in s_nodes})
    value, xfree, kernel = fixed.global_minimize()
    xhat = np.empty(cover.graph.n)
    for v in s_nodes:
        xhat[v] = float(observations[v])
    for v, x in zip(fixed.vars, xfree):
        xhat[v] = x
    kernel_full = np.zeros((cover.graph.n, kernel.shape[1]))
    for row, v in enumerate(fixed.vars):
        kernel_full[v, :] = kernel[row, :]
    return value, xhat, kernel_full


def regularize(quads: Sequence[QuadFunc], eps: float, seed: int) -> tuple[QuadFunc, ...]:
    """Add a random positive-definite diagonal to every local quadratic.

    Per function and per variable, a coefficient a_v is drawn uniformly from
    (eps/2, eps] and a_v * v^2 is added.  Every elimination block along
    every directed tree then becomes strictly positive definite.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"regularization strength {eps} must be finite and positive")
    rng = np.random.default_rng(seed)
    out = []
    for q in quads:
        n = len(q.vars)
        coeffs = eps - rng.uniform(0.0, eps / 2.0, size=n)
        out.append(QuadFunc(q.vars, q.A + np.diag(coeffs), q.b, q.c))
    return tuple(out)


def message_digest(q: QuadFunc) -> str:
    """Stable hex digest of a message's coefficients, for regression files."""
    h = hashlib.sha256()
    h.update(repr(q.vars).encode())
    h.update(np.ascontiguousarray(q.A).tobytes())
    h.update(np.ascontiguousarray(q.b).tobytes())
    h.update(np.float64(q.c).tobytes())
    return h.hexdigest()
