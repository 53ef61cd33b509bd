"""Exact message passing on a directed nerve tree.

Leaves emit the partial minimization of their observation-fixed local
quadratic; interior nodes sum incoming messages with their own function
(observables substituted the moment the function is incorporated) and
eliminate their y-set before forwarding.  The root's sum is the aggregated
message.  Scheduling is a deterministic post-order traversal by node index,
with summation in fixed child-index order.

A run has two passes, as a sparse direct solver splits its symbolic and
numeric factorizations (George & Liu 1981; Davis 2006, ch. 4).  The shape
of every message is fixed by the cover, the tree and the quadratics'
variable tuples before any number is read, so `_plan` works it out once:
for each node, the variables its sum holds, laid out as those its edge
keeps followed by those it eliminates, and the integer positions at which
its observation-fixed own block and each child's message are added.  Each
sum is then a frontal matrix (Duff & Reid 1983) whose kept and eliminated
blocks are slices.  Both engines walk that one plan: `_walk` fixes the
observations at the planned positions, hands each node its children's
messages and names the edge of a failure, and an engine's `send` makes the
message.  The exact `send` only adds arrays at the planned positions and
eliminates the sum's trailing block, in the order and with the arithmetic
of `fix_vars`, `quad_sum` and `partial_minimize`, so its messages equal
theirs bit for bit; the approximate one samples and fits a surrogate.
`back_substitute` replays the argmin maps by node index into one vector.

A message is consumed once, by the sum of the node it is sent to, so the
numeric pass keeps only the live frontier, as a multifrontal solver frees
each update matrix once its parent has assembled it (Liu 1986): a message
lives from its elimination until its parent's sum has added it.  The
finished run keeps the argmin maps, the variables each message was over
and the aggregated message.  A caller that wants the coefficients passes
`on_message`, which sees every message as it is made.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .cover import DirectedTree, SubgraphCover, compute_partitions
from .errors import InvalidInstance, MissingVariable, NonUniqueArgmin, NumericalFailure
from .quadform import ArgminMap, QuadFunc, _assemble, quad_sum


@dataclass(frozen=True)
class EdgeRecord:
    """What happened when one message crossed one directed edge."""

    argmin: ArgminMap

    @property
    def singular(self) -> bool:
        return self.argmin.singular


class _Step(NamedTuple):
    """One node's share of the plan.  Positions are 1-D integer arrays;
    `placed` indexes the node's sum, which is over `held`."""

    node: int
    edge: tuple | None  # (node, parent); None at the root
    fixed_vars: tuple  # the own quadratic's observed variables
    own_fixed: np.ndarray  # their positions in the quadratic
    own_vars: tuple  # its other variables
    own_keep: np.ndarray  # their positions in the quadratic
    held: tuple  # keep + elim, the variables of the node's sum
    placed: tuple  # where the own block, then each child's message, is added
    keep: tuple  # the message's variables and the eliminated ones, each in
    elim: tuple  # the own block's order when every term shares it, else sorted


@dataclass(frozen=True)
class _Plan:
    """Every node's step in post-order, root last, and the sizes the
    numeric pass will realize: the sum over edges of the message dimension
    x, of the entries x^2 of its matrix, and of y^3 + y^2 x + x^2 y for y
    eliminated variables."""

    steps: tuple
    message_dims: int
    message_entries: int
    elimination_cost: int


class _IndexBuffer:
    """Hands out 1-D position vectors as consecutive slices of a few large
    buffers.  A plan holds thousands of small index vectors through the
    whole numeric pass; as separate heap blocks they would sit between the
    pass's large arrays and fragment the heap, so that peak RSS grows from
    one run to the next."""

    CHUNK = 1 << 16

    def __init__(self):
        self._buf = np.empty(0, dtype=np.intp)
        self._used = 0

    def __call__(self, items) -> np.ndarray:
        n = len(items)
        if self._used + n > self._buf.size:
            self._buf = np.empty(max(self.CHUNK, n), dtype=np.intp)
            self._used = 0
        view = self._buf[self._used : self._used + n]
        view[:] = items
        self._used += n
        return view


def _plan(cover: SubgraphCover, quads: Sequence[QuadFunc], dtree: DirectedTree) -> _Plan:
    """The elimination plan of `run_message_passing` on checked inputs.

    An observable node lies in one subgraph only, so the variables of
    quadratic i that lie in S are exactly those `fix_vars` fixes with S_i.
    """
    partitions = compute_partitions(cover, dtree)
    positions = _IndexBuffer()
    observed = cover.observable_set
    sent: dict[int, tuple] = {}  # node -> its message's variables
    steps = []
    dims = entries = cost = 0
    for i in dtree.postorder():
        q_vars = quads[i].vars
        fi = [p for p, v in enumerate(q_vars) if v in observed]
        ki = [p for p, v in enumerate(q_vars) if v not in observed] if fi else range(len(q_vars))
        own = tuple(q_vars[p] for p in ki) if fi else q_vars
        terms = [own] + [sent[c] for c in dtree.children[i]]
        order = own if all(t == own for t in terms) else tuple(sorted(set().union(*terms)))
        edge = None if i == dtree.root else (i, dtree.parent[i])
        y_set = frozenset(partitions[edge].y_vars) if edge else frozenset()
        keep = tuple(v for v in order if v not in y_set)
        elim = tuple(v for v in order if v in y_set)
        held = keep + elim
        pos = {v: p for p, v in enumerate(held)}
        steps.append(_Step(
            node=i, edge=edge,
            fixed_vars=tuple(q_vars[p] for p in fi), own_fixed=positions(fi),
            own_vars=own, own_keep=positions(ki),
            held=held, placed=tuple(positions([pos[v] for v in t]) for t in terms),
            keep=keep, elim=elim,
        ))
        if edge:
            sent[i] = keep
            x, y = len(keep), len(elim)
            dims += x
            entries += x * x
            cost += y**3 + y * y * x + x * x * y
    return _Plan(tuple(steps), dims, entries, cost)


class MessageShape(NamedTuple):
    """What a finished run keeps of a message: the variables it was over."""

    vars: tuple


@dataclass(frozen=True)
class MessagePassingRun:
    """Immutable record of one complete run.

    The run keeps no message coefficients.  Per tree edge it keeps the
    argmin map in `edge_records` and, keyed by the edge's tail, the
    variables of the message in `messages`; the root's sum is
    `aggregated`."""

    cover: SubgraphCover
    dtree: DirectedTree
    observations: dict
    messages: dict  # tail -> MessageShape
    edge_records: dict  # (tail, head) -> EdgeRecord
    aggregated: QuadFunc
    surviving_foreign_vars: tuple  # aggregated vars outside the root's subgraph


def _check_inputs(
    cover: SubgraphCover, quads: Sequence[QuadFunc], observations: Mapping | None = None
) -> None:
    """The entry rules the solvers and the loader share: one quadratic per
    subgraph, each over nodes of its own subgraph, and, when `observations`
    is given, a value for every observable node."""
    if len(quads) != cover.t:
        raise InvalidInstance(f"{len(quads)} quadratics declared for {cover.t} subgraphs")
    for i, q in enumerate(quads):
        extra = set(q.vars) - cover.node_set(i)
        if extra:
            raise InvalidInstance(f"quadratic {i} uses nodes {sorted(extra)} outside subgraph {i}")
    if observations is None:
        return
    for v in cover.s_order:
        if v not in observations:
            raise MissingVariable(f"observation missing for node {v}")


def _walk(cover: SubgraphCover, quads: Sequence[QuadFunc], observations: Mapping,
          dtree: DirectedTree, send: Callable) -> tuple:
    """The upward pass of both engines: `send(step, own, children)` makes each
    non-root node's message from its step, its observation-fixed quadratic
    and its children's messages in child-index order, and a failure there
    names the edge.  Returns the root's (step, own, children)."""
    _check_inputs(cover, quads, observations)
    frontier: dict = {}  # sent, not yet taken by the parent
    for step in _plan(cover, quads, dtree).steps:
        own = quads[step.node]
        if step.fixed_vars:
            f = np.array([float(observations[v]) for v in step.fixed_vars])
            own = own._fix_at(step.own_vars, step.own_keep, step.own_fixed, f)
        children = [frontier.pop(c) for c in dtree.children[step.node]]
        if step.edge is None:
            return step, own, children  # the root, last in post-order
        try:
            frontier[step.node] = send(step, own, children)
        except NumericalFailure as exc:
            raise exc.at("message along edge ({} -> {})".format(*step.edge), step.edge) from exc


def run_message_passing(
    cover: SubgraphCover,
    quads: Sequence[QuadFunc],
    observations: Mapping,
    dtree: DirectedTree,
    *,
    on_message: Callable[[tuple, QuadFunc], object] | None = None,
) -> MessagePassingRun:
    """Pass the messages up `dtree` and sum them at its root.

    `on_message(edge, msg)`, when given, is called with each message as it
    is made, in post-order; `edge` is (tail, head).  The run drops each
    message once its parent's sum has added it.
    """
    shapes: dict[int, MessageShape] = {}
    records: dict[tuple[int, int], EdgeRecord] = {}

    def send(step, own, children):
        h = _assemble(step.held, zip(step.placed, [own, *children]))
        children.clear()  # the messages are freed before the elimination's temporaries
        msg, amap = h._minimize_front(len(step.keep))
        if on_message is not None:
            on_message(step.edge, msg)
        shapes[step.node] = MessageShape(step.keep)
        records[step.edge] = EdgeRecord(argmin=amap)
        return msg

    root, own, children = _walk(cover, quads, observations, dtree, send)
    h = _assemble(root.held, zip(root.placed, [own, *children]))
    return MessagePassingRun(
        cover=cover,
        dtree=dtree,
        observations=dict(observations),
        messages=shapes,
        edge_records=records,
        aggregated=h,
        surviving_foreign_vars=tuple(
            v for v in h.vars if v not in cover.node_set(dtree.root)
        ),
    )


def local_solve(run: MessagePassingRun) -> tuple[float, np.ndarray, np.ndarray]:
    """Minimize the aggregated message; minimizer is aligned with its vars."""
    try:
        return run.aggregated.global_minimize()
    except NumericalFailure as exc:
        raise exc.at(f"minimization at root {run.dtree.root}") from exc


def back_substitute(run: MessagePassingRun, yhat_root: np.ndarray) -> np.ndarray:
    """Replay the per-edge argmin maps from the root outward.

    `yhat_root` is `local_solve`'s minimizer over the aggregated vars; a
    wrong length or a non-finite entry raises ValueError.
    Recovers every eliminated variable and returns the full signal over V.
    Requires every elimination block to have been nonsingular.
    """
    for edge, rec in run.edge_records.items():
        if rec.singular:
            raise NonUniqueArgmin(f"elimination block at edge {edge} was singular")
    y = np.asarray(yhat_root, dtype=float).reshape(-1)
    if y.shape[0] != len(run.aggregated.vars):
        raise ValueError(
            f"root minimizer has length {y.shape[0]}, expected {len(run.aggregated.vars)}"
        )
    if not np.isfinite(y).all():
        raise ValueError("root minimizer must be finite")
    # Nodes absent from every local quadratic are free with no objective;
    # the minimum-norm convention places them at zero, like the
    # centralized solver.
    out = np.zeros(run.cover.graph.n)
    assigned = np.zeros(out.shape, dtype=bool)
    s_order = list(run.cover.s_order)
    out[s_order] = [float(run.observations[v]) for v in s_order]
    root_ids = np.array(run.aggregated.vars, dtype=np.intp)
    out[root_ids] = y
    assigned[s_order] = assigned[root_ids] = True
    for i in reversed(run.dtree.postorder()[:-1]):
        amap = run.edge_records[(i, run.dtree.parent[i])].argmin
        x_ids = np.array(amap.inputs, dtype=np.intp)
        y_ids = np.array(amap.eliminated, dtype=np.intp)
        if not assigned[x_ids].all():
            v = x_ids[~assigned[x_ids]][0]
            raise AssertionError(f"node {v} was never assigned during back substitution")
        out[y_ids] = amap.M @ out[x_ids] + amap.m if x_ids.size else amap.m
        assigned[y_ids] = True
    return out


def centralized_solve(
    cover: SubgraphCover, quads: Sequence[QuadFunc], observations: Mapping
) -> tuple[float, np.ndarray, np.ndarray]:
    """Embed everything over V, fix all observations, minimize globally.

    Returns (value, full minimizer over V, kernel basis embedded over V with
    zero rows at the observable nodes).
    """
    _check_inputs(cover, quads, observations)
    total = quad_sum(quads, cover.graph.nodes)
    s_nodes = cover.s_order
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
