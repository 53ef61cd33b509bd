"""Sampled messages, surrogate fits, and approximate message passing.

One exchange per tree edge: the sender samples its message on a box,
transmits the samples, and the receiver fits a surrogate (full quadratic
least squares or a one-hidden-layer rectifier network).  Everything is
seeded; per-edge streams derive from (root seed, edge id) so runs are
bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .cover import DirectedTree, SubgraphCover, compute_partitions
from .errors import (
    DimensionMismatch,
    InnerOptimizationFailed,
    InvalidInstance,
    SingularFit,
    UnboundedBelow,
)
from .exactmp import _fix_observations
from .quadform import QuadFunc, quad_sum

# Stream tags for deriving independent per-edge generators from one seed.
_TAG_SAMPLE = 1
_TAG_FIT = 2
_TAG_OPT = 3

ARMIJO_C1 = 1e-4
STEP_GROW = 1.25
STEP_COLLAPSE = 1e-12
GRAD_TOL = 1e-5
DESCENT_STEPS = 5000
STEP0 = 1.0
INNER_RESTARTS = 2
HIDDEN_WIDTH = 64
LEARNING_RATE = 1e-1
MOMENTUM = 0.9
ERROR_RATIO_FLOOR = 1e-6


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, *tags])


@dataclass(frozen=True)
class SampleSet:
    """m sampled evaluations of a message over a per-variable box."""

    variables: tuple
    box: tuple  # ((lo, hi), ...) per variable
    inputs: np.ndarray
    outputs: np.ndarray
    edge: tuple[int, int] | None = None

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        outputs = np.asarray(self.outputs, dtype=float).reshape(-1)
        if inputs.ndim != 2 or inputs.shape[1] != len(self.variables):
            raise DimensionMismatch(
                f"inputs shape {inputs.shape} does not match {len(self.variables)} variables"
            )
        if outputs.shape[0] != inputs.shape[0]:
            raise DimensionMismatch("one output per input point required")
        if inputs.shape[0] < 1:
            raise ValueError("a sample set needs at least one point")
        for d, (lo, hi) in enumerate(self.box):
            col = inputs[:, d]
            if np.any(col < lo - 1e-12) or np.any(col > hi + 1e-12):
                raise ValueError(f"sample outside box in dimension {d}")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    def to_wire(self) -> str:
        """Byte-stable text form: header lines then one `x...,y` row per sample."""
        e = self.edge if self.edge is not None else (-1, -1)
        lines = [
            f"edge:{e[0]},{e[1]}",
            "vars:" + ",".join(str(v) for v in self.variables),
            "box:" + ";".join(f"{repr(float(lo))},{repr(float(hi))}" for lo, hi in self.box),
        ]
        for x, y in zip(self.inputs, self.outputs):
            lines.append(",".join(repr(float(t)) for t in x) + "," + repr(float(y)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_wire(cls, text: str) -> "SampleSet":
        """Parse `to_wire` text; InvalidInstance names the first bad line."""
        numbered = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln]

        def parse(h, prefix, conv, width=None):
            k, line = numbered[h] if h < len(numbered) else (h + 1, "")
            if not line.startswith(prefix):
                raise InvalidInstance(f"sample wire line {k}: expected the {prefix!r} header")
            field = line.removeprefix(prefix).replace(";", ",")
            try:
                values = tuple(conv(t) for t in field.split(",")) if field else ()
                if width is not None and len(values) != width:
                    raise ValueError(f"{len(values)} values, expected {width}")
            except ValueError as exc:
                raise InvalidInstance(f"sample wire line {k}: {line!r}: {exc}") from None
            return values

        e = parse(0, "edge:", int, 2)
        variables = parse(1, "vars:", int)
        bounds = parse(2, "box:", float, 2 * len(variables))
        box = tuple(zip(bounds[::2], bounds[1::2]))
        rows = [parse(h, "", float, len(variables) + 1) for h in range(3, len(numbered))]
        inputs = np.array([r[:-1] for r in rows], dtype=float).reshape(len(rows), len(variables))
        outputs = np.array([r[-1] for r in rows], dtype=float)
        edge = None if e == (-1, -1) else e
        return cls(variables=variables, box=box, inputs=inputs, outputs=outputs, edge=edge)


@dataclass(frozen=True)
class ApproxConfig:
    """One approximate run: `m` samples per edge, surrogate `kind`
    ("quadratic_ls" or "one_hidden_layer"), sampling `box_radius`, root
    descent `restarts`, network training `epochs` and root `seed`.  The rest
    of the recipe is the module constants DESCENT_STEPS, STEP0,
    INNER_RESTARTS, HIDDEN_WIDTH, LEARNING_RATE and MOMENTUM."""

    m: int = 80
    kind: str = "quadratic_ls"
    box_radius: float = 5.0
    restarts: int = 8
    epochs: int = 4000
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one sample per edge")
        if self.kind not in ("quadratic_ls", "one_hidden_layer"):
            raise ValueError(f"unknown surrogate kind {self.kind!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if not (np.isfinite(self.box_radius) and self.box_radius > 0):
            raise ValueError(f"box radius must be finite and positive, got {self.box_radius}")


def quad_coeff_count(dim: int) -> int:
    """Dimension of the full quadratic monomial basis in `dim` variables."""
    return 1 + dim + dim * (dim + 1) // 2


def identifiability_threshold(cover: SubgraphCover, dtree: DirectedTree) -> int:
    """Smallest m that identifies a quadratic on every edge's message domain."""
    partitions = compute_partitions(cover, dtree)
    dims = [len(p.x_vars) + len(p.z_vars) for p in partitions.values()]
    return max((quad_coeff_count(d) for d in dims), default=1)


@dataclass(frozen=True)
class QuadSurrogate:
    """Least-squares quadratic fit; exact for quadratic messages."""

    variables: tuple
    quad: QuadFunc
    fit_residual: float

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        return self.quad.evaluate_batch(X)


@dataclass(frozen=True)
class MLPSurrogate:
    """One hidden rectifier layer on standardized inputs and outputs."""

    variables: tuple
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: float
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float
    fit_residual: float
    epochs: int

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        Z = (np.asarray(X, dtype=float) - self.x_mean) / self.x_scale
        H = np.maximum(Z @ self.W1 + self.b1, 0.0)
        return self.y_mean + self.y_scale * (H @ self.W2 + self.b2)

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        Z = (np.asarray(X, dtype=float) - self.x_mean) / self.x_scale
        pre = Z @ self.W1 + self.b1
        mask = (pre > 0).astype(float)
        dZ = (mask * self.W2) @ self.W1.T
        return self.y_scale * dZ / self.x_scale


def sample_message(
    h: Callable[[np.ndarray], np.ndarray],
    box: Sequence,
    m: int,
    seed,
    variables: tuple,
    edge: tuple[int, int] | None = None,
) -> SampleSet:
    """m i.i.d. uniform points in the box, evaluated through `h` (batched)."""
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    X = rng.uniform(size=(m, len(box))) * (hi - lo) + lo
    y = np.asarray(h(X), dtype=float).reshape(-1)
    return SampleSet(variables=variables, box=box, inputs=X, outputs=y, edge=edge)


def _quad_features(X: np.ndarray) -> np.ndarray:
    m, d = X.shape
    cols = [np.ones((m, 1)), X]
    for i in range(d):
        for j in range(i, d):
            cols.append((X[:, i] * X[:, j])[:, None])
    return np.concatenate(cols, axis=1)


def _fit_quadratic_ls(samples: SampleSet) -> QuadSurrogate:
    d = len(samples.variables)
    ncoef = quad_coeff_count(d)
    if samples.m < ncoef:
        raise SingularFit(
            f"{samples.m} samples cannot identify {ncoef} quadratic coefficients"
        )
    F = _quad_features(samples.inputs)
    sv = np.linalg.svd(F, compute_uv=False)
    if sv.size == 0 or sv[0] == 0 or np.sum(sv > 1e-10 * sv[0]) < ncoef:
        raise SingularFit("sample design matrix is rank-deficient beyond ridge rescue")
    # Ridge solved through the augmented system: same minimizer as the
    # normal equations but without squaring the condition number.
    F_aug = np.concatenate([F, np.sqrt(1e-10) * np.eye(ncoef)], axis=0)
    y_aug = np.concatenate([samples.outputs, np.zeros(ncoef)])
    theta, *_ = np.linalg.lstsq(F_aug, y_aug, rcond=None)
    c = float(theta[0])
    b = theta[1 : 1 + d]
    A = np.zeros((d, d))
    k = 1 + d
    for i in range(d):
        for j in range(i, d):
            if i == j:
                A[i, i] = theta[k]
            else:
                A[i, j] = A[j, i] = theta[k] / 2.0
            k += 1
    resid = float(np.sqrt(np.mean((F @ theta - samples.outputs) ** 2)))
    quad = QuadFunc(samples.variables, A, b, c)
    return QuadSurrogate(variables=samples.variables, quad=quad, fit_residual=resid)


def _fit_mlp(samples: SampleSet, config: ApproxConfig, seed) -> MLPSurrogate:
    X = samples.inputs
    y = samples.outputs
    d = X.shape[1]
    H = HIDDEN_WIDTH
    x_mean = X.mean(axis=0)
    x_scale = X.std(axis=0)
    x_scale = np.where(x_scale < 1e-12, 1.0, x_scale)
    y_mean = float(y.mean())
    y_scale = float(y.std())
    if y_scale < 1e-12:
        y_scale = 1.0
    Z = (X - x_mean) / x_scale
    t = (y - y_mean) / y_scale
    rng = np.random.default_rng(seed)
    a1 = np.sqrt(6.0 / (d + H))
    a2 = np.sqrt(6.0 / (H + 1))
    W1 = rng.uniform(-a1, a1, size=(d, H))
    b1 = np.zeros(H)
    W2 = rng.uniform(-a2, a2, size=H)
    b2 = 0.0
    vW1 = np.zeros_like(W1)
    vb1 = np.zeros_like(b1)
    vW2 = np.zeros_like(W2)
    vb2 = 0.0
    m = X.shape[0]
    lr = LEARNING_RATE
    mom = MOMENTUM
    loss = float("inf")
    for _ in range(config.epochs):
        # Nesterov lookahead: gradient at the momentum-extrapolated point.
        lW1, lb1, lW2, lb2 = W1 + mom * vW1, b1 + mom * vb1, W2 + mom * vW2, b2 + mom * vb2
        pre = Z @ lW1 + lb1
        act = np.maximum(pre, 0.0)
        pred = act @ lW2 + lb2
        err = pred - t
        loss = float(np.mean(err**2))
        gpred = 2.0 * err / m
        gW2 = act.T @ gpred
        gb2 = float(gpred.sum())
        gact = np.outer(gpred, lW2)
        gpre = gact * (pre > 0)
        gW1 = Z.T @ gpre
        gb1 = gpre.sum(axis=0)
        vW1 = mom * vW1 - lr * gW1
        vb1 = mom * vb1 - lr * gb1
        vW2 = mom * vW2 - lr * gW2
        vb2 = mom * vb2 - lr * gb2
        W1 = W1 + vW1
        b1 = b1 + vb1
        W2 = W2 + vW2
        b2 = b2 + vb2
    return MLPSurrogate(
        variables=samples.variables,
        W1=W1, b1=b1, W2=W2, b2=float(b2),
        x_mean=x_mean, x_scale=x_scale,
        y_mean=y_mean, y_scale=y_scale,
        fit_residual=float(np.sqrt(loss)) * y_scale,
        epochs=config.epochs,
    )


def fit_surrogate(samples: SampleSet, config: ApproxConfig, seed):
    """Fit the surrogate of kind `config.kind` to the samples."""
    if config.kind == "quadratic_ls":
        return _fit_quadratic_ls(samples)
    return _fit_mlp(samples, config, seed)


class _NodeObjective:
    """Sum of exact quadratic and fitted surrogate terms over a var set."""

    def __init__(self, variables: tuple, quads: Sequence[QuadFunc], mlps: Sequence[MLPSurrogate]):
        self.variables = variables
        self.index = {v: i for i, v in enumerate(variables)}
        self.quad = quad_sum(quads, variables)
        self.mlps = list(mlps)
        self._mlp_idx = [
            np.array([self.index[v] for v in s.variables], dtype=int) for s in self.mlps
        ]

    @property
    def has_mlp(self) -> bool:
        return bool(self.mlps)

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        out = self.quad.evaluate_batch(X)
        for s, idx in zip(self.mlps, self._mlp_idx):
            out = out + s.evaluate_batch(X[:, idx])
        return out

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        g = self.quad.gradient_batch(X)
        for s, idx in zip(self.mlps, self._mlp_idx):
            g[:, idx] += s.gradient_batch(X[:, idx])
        return g


def _batched_descent(fun, grad, X0, precond, bound):
    """Projected descent with per-row Armijo backtracking / growth.

    `precond` maps a batch of gradients to descent directions; the inverse
    of the known quadratic block makes the loop a damped Newton method on
    the smooth part, which plain gradient steps cannot match on
    ill-conditioned blocks within the budget.  `bound` is a (lo, hi) pair
    that clips iterates per coordinate: surrogate sums are only
    trustworthy on the sampling domain, and rectifier surrogates can slope
    downward forever outside it.  Convergence per row: gradient norm below
    tolerance, step collapse (projected stationarity or a nonsmooth kink),
    or no objective improvement over a 100-step window.
    """
    X = np.array(X0, dtype=float)
    f = fun(X)
    step = np.full(X.shape[0], STEP0)
    step_max = max(1e3 * STEP0, 1.0)
    converged = np.zeros(X.shape[0], dtype=bool)
    last_improve = f.copy()
    since_improve = np.zeros(X.shape[0], dtype=int)
    checkpoint = f.copy()
    window_gain = np.full(X.shape[0], np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(DESCENT_STEPS):
            active = ~converged
            if not active.any():
                break
            g = grad(X)
            gn = np.sqrt(np.einsum("bi,bi->b", g, g))
            cand = X - step[:, None] * precond(g)
            np.clip(cand, bound[0], bound[1], out=cand)
            move = X - cand
            decrease = np.einsum("bi,bi->b", g, move)
            fc = fun(cand)
            ok = active & np.isfinite(fc) & (fc <= f - ARMIJO_C1 * decrease) & (fc < f)
            X[ok] = cand[ok]
            f[ok] = fc[ok]
            step[ok] = np.minimum(step[ok] * STEP_GROW, step_max)
            rej = active & ~ok
            step[rej] *= 0.5
            improved = ok & (f < last_improve - 1e-9 * (1.0 + np.abs(last_improve)))
            last_improve[improved] = f[improved]
            since_improve[improved] = 0
            since_improve[active & ~improved] += 1
            converged |= (gn <= GRAD_TOL) | (step < STEP_COLLAPSE) | (since_improve > 100)
            if (it + 1) % 100 == 0:
                # windowed stall check: crawling below 1e-7 relative per
                # hundred steps counts as converged in value
                window_gain = (checkpoint - f) / (1.0 + np.abs(f))
                converged |= active & (window_gain < 1e-7)
                checkpoint = f.copy()
        g = grad(X)
        gn = np.sqrt(np.einsum("bi,bi->b", g, g))
    # A row counts as failed only when it is still making material progress
    # at the end of the budget (or produced non-finite values).
    settled = (
        converged
        | (gn <= GRAD_TOL)
        | (step < STEP_COLLAPSE)
        | (np.isfinite(f) & (window_gain < 1e-5))
    )
    return X, f, settled


def _minimize_over(objective: _NodeObjective, free_vars, bounds, restarts, rng,
                   fixed_batch=None):
    """Minimize the objective over `free_vars` with multi-start descent.

    `bounds` is a (lo, hi) pair of arrays over the free variables; starts
    are drawn uniformly inside and iterates stay clipped to it.  With
    `fixed_batch` (m x n_fixed values of the retained variables) the same
    descent runs per retained sample; restarts multiply the batch.
    Pure-quadratic objectives are minimized exactly instead.
    """
    n_free = len(free_vars)
    free_idx = np.array([objective.index[v] for v in free_vars], dtype=int)
    fixed_vars = [v for v in objective.variables if v not in set(free_vars)]
    if fixed_batch is None:
        assert not fixed_vars, "root optimization must cover all variables"
        m = 1
        base = np.zeros((1, len(objective.variables)))
    else:
        fixed_idx = np.array([objective.index[v] for v in fixed_vars], dtype=int)
        m = fixed_batch.shape[0]
        base = np.zeros((m, len(objective.variables)))
        base[:, fixed_idx] = fixed_batch
    if not objective.has_mlp:
        # Pure quadratic: the exact minimizer is available; use it.
        if fixed_batch is None:
            value, minimizer, _ = objective.quad.global_minimize()
            return np.full(1, value), minimizer[None, :]
        msg, _ = objective.quad.partial_minimize(list(free_vars))
        cols = [fixed_vars.index(v) for v in msg.vars]
        return msg.evaluate_batch(fixed_batch[:, cols]), None
    if n_free == 0:
        return objective.evaluate_batch(base), base
    lo, hi = bounds
    R = restarts
    base_rep = np.repeat(base, R, axis=0)
    X0 = rng.uniform(size=(m * R, n_free)) * (hi - lo) + lo

    def fun(Xf):
        full = base_rep.copy()
        full[:, free_idx] = Xf
        return objective.evaluate_batch(full)

    def grad(Xf):
        full = base_rep.copy()
        full[:, free_idx] = Xf
        return objective.gradient_batch(full)[:, free_idx]

    # Damped-Newton preconditioner from the exact quadratic block: the
    # rectifier terms are piecewise linear, so the smooth curvature is
    # entirely in the quadratic and is known in closed form.
    H = 2.0 * objective.quad.A[np.ix_(free_idx, free_idx)]
    eigs = np.linalg.eigvalsh(H) if n_free else np.zeros(1)
    delta = 1e-8 * (1.0 + float(eigs[-1])) if eigs.size else 1e-8
    P = np.linalg.inv(H + delta * np.eye(n_free))

    def precond(G):
        return G @ P

    Xf, fvals, settled = _batched_descent(fun, grad, X0, precond, (lo, hi))
    if not settled.all():
        raise InnerOptimizationFailed(
            "descent exhausted its budget with gradient norm above tolerance"
        )
    fvals = fvals.reshape(m, R)
    Xf = Xf.reshape(m, R, n_free)
    best = np.argmin(fvals, axis=1)
    best_vals = fvals[np.arange(m), best]
    best_pts = base.copy()
    best_pts[:, free_idx] = Xf[np.arange(m), best]
    return best_vals, best_pts


def _local_center(objective: _NodeObjective) -> np.ndarray:
    """Sampling-box center: the minimizer of the node's exact quadratic part.

    The quadratic part (own function plus any quadratic child surrogates) is
    the locally available guess of where the node's variables settle; the
    zero signal is the fallback when even that part is unbounded.
    """
    try:
        _, minimizer, _ = objective.quad.global_minimize()
        return minimizer
    except UnboundedBelow:
        return np.zeros(len(objective.variables))


def approx_message_passing(
    cover: SubgraphCover,
    quads: Sequence[QuadFunc],
    observations: Mapping,
    dtree: DirectedTree,
    config: ApproxConfig,
) -> tuple[float, dict, dict]:
    """Approximate message passing: sample, transmit, fit, aggregate, optimize.

    Traversal and variable splits are identical to the exact engine; the
    only difference is that each edge carries a SampleSet and the receiver
    works with the fitted surrogate.  Sampling boxes have radius
    `config.box_radius` around the node's current center (the minimizer of
    its exact quadratic part).  Returns the optimized value, the root
    argmin as a dict, and per-edge diagnostics.
    """
    partitions = compute_partitions(cover, dtree)
    surrogates: dict[int, object] = {}
    edge_diag = []
    seed = config.seed
    r = config.box_radius
    for i in dtree.postorder():
        own = _fix_observations(quads[i], observations, cover.observables[i])
        quad_terms = [own]
        mlp_terms = []
        for c in dtree.children[i]:
            s = surrogates[c]
            if isinstance(s, QuadSurrogate):
                quad_terms.append(s.quad)
            else:
                mlp_terms.append(s)
        variables = tuple(sorted(set().union(*(q.vars for q in quad_terms),
                                             *(s.variables for s in mlp_terms))))
        objective = _NodeObjective(variables, quad_terms, mlp_terms)
        center = _local_center(objective)
        if i == dtree.root:
            rng = _rng(seed, _TAG_OPT, i)
            vals, pts = _minimize_over(
                objective, variables, (center - r, center + r), config.restarts, rng
            )
            value = float(vals[0])
            yhat = dict(zip(variables, pts[0].tolist())) if pts is not None else {}
            diagnostics = {
                "edges": edge_diag,
                "exchanges": len(edge_diag),
                "root_dim": len(variables),
                "root_restarts": config.restarts if objective.has_mlp else 0,
            }
            return value, yhat, diagnostics
        j = dtree.parent[i]
        part = partitions[(i, j)]
        retained = tuple(sorted(set(part.x_vars) | set(part.z_vars)))
        y_vars = tuple(v for v in part.y_vars if v in variables)
        ret_idx = [objective.index[v] for v in retained]
        y_idx = [objective.index[v] for v in y_vars]
        box = tuple(
            (float(center[p] - r), float(center[p] + r)) for p in ret_idx
        )
        y_bounds = (center[y_idx] - r, center[y_idx] + r)

        def message_fn(X, _obj=objective, _y=y_vars, _yb=y_bounds, _i=i):
            rng_in = _rng(seed, _TAG_OPT, _i, 0)
            vals, _ = _minimize_over(_obj, _y, _yb, INNER_RESTARTS, rng_in, fixed_batch=X)
            return vals

        samples = sample_message(
            message_fn, box, config.m, _rng(seed, _TAG_SAMPLE, i, j),
            variables=retained, edge=(i, j),
        )
        fitted = fit_surrogate(samples, config, _rng(seed, _TAG_FIT, i, j))
        surrogates[i] = fitted
        edge_diag.append({
            "edge": (i, j),
            "m": samples.m,
            "kind": config.kind,
            "fit_residual": float(fitted.fit_residual),
            "message_dim": len(retained),
        })
    raise AssertionError("traversal ended without reaching the root")


def error_ratio(approx_value: float, truth_value: float) -> float:
    """|approx - truth| / max(|truth|, ERROR_RATIO_FLOOR), in percent."""
    return 100.0 * abs(approx_value - truth_value) / max(abs(truth_value), ERROR_RATIO_FLOOR)
