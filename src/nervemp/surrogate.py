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
from .errors import (DimensionMismatch, InnerOptimizationFailed, NumericalFailure,
                     SingularFit, UnboundedBelow)
from .exactmp import _check_inputs, _fix_observations
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
EPOCH_CAP = 500
PLATEAU_WINDOW = 100
PLATEAU_RTOL = 1e-6
LEARNING_RATE = 1e-1
MOMENTUM = 0.9
# Candidate ridges of the rectifier output layer, half a decade apart;
# generalized cross-validation picks one per fit.
RIDGE_GRID = np.logspace(-12.0, 2.0, 29)
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

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        outputs = np.asarray(self.outputs, dtype=float).reshape(-1)
        if inputs.ndim != 2 or inputs.shape[1] != len(self.variables):
            raise DimensionMismatch(
                f"inputs shape {inputs.shape} does not match {len(self.variables)} variables"
            )
        if len(self.box) != len(self.variables):
            raise DimensionMismatch(
                f"box has {len(self.box)} intervals for {len(self.variables)} variables"
            )
        if outputs.shape[0] != inputs.shape[0]:
            raise DimensionMismatch("one output per input point required")
        if inputs.shape[0] < 1:
            raise ValueError("a sample set needs at least one point")
        if not (np.isfinite(inputs).all() and np.isfinite(outputs).all()):
            raise ValueError("sample inputs and outputs must be finite")
        for d, (lo, hi) in enumerate(self.box):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"box interval {d} is ({lo}, {hi}), not finite with lo <= hi")
            col = inputs[:, d]
            if np.any(col < lo - 1e-12) or np.any(col > hi + 1e-12):
                raise ValueError(f"sample outside box in dimension {d}")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @property
    def m(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class ApproxConfig:
    """One approximate run: `m` samples per edge, surrogate `kind`
    ("quadratic_ls" or "one_hidden_layer"), sampling `box_radius`, root
    descent `restarts` and root `seed`.  The rest of the recipe is the
    module constants DESCENT_STEPS, STEP0, INNER_RESTARTS, HIDDEN_WIDTH,
    EPOCH_CAP, PLATEAU_WINDOW, PLATEAU_RTOL, LEARNING_RATE, MOMENTUM and
    RIDGE_GRID."""

    m: int = 80
    kind: str = "quadratic_ls"
    box_radius: float = 5.0
    restarts: int = 8
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

    quad: QuadFunc
    fit_residual: float

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        return self.quad.evaluate_batch(X)


@dataclass(frozen=True)
class MLPSurrogate:
    """One hidden rectifier layer on standardized inputs and outputs;
    `epochs` is the number of training epochs the fit used."""

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


def sample_message(
    h: Callable[[np.ndarray], np.ndarray],
    box: Sequence,
    m: int,
    seed,
    variables: tuple,
) -> SampleSet:
    """m i.i.d. uniform points in the box, evaluated through `h` (batched)."""
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    X = rng.uniform(size=(m, len(box))) * (hi - lo) + lo
    y = np.asarray(h(X), dtype=float).reshape(-1)
    return SampleSet(variables=variables, box=box, inputs=X, outputs=y)


def _quad_features(X: np.ndarray) -> np.ndarray:
    iu, ju = np.triu_indices(X.shape[1])
    return np.concatenate([np.ones((X.shape[0], 1)), X, X[:, iu] * X[:, ju]], axis=1)


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
    # theta lists the upper triangle; symmetrizing keeps the squares on the
    # diagonal and splits each cross term evenly between A[i, j] and A[j, i].
    A = np.zeros((d, d))
    A[np.triu_indices(d)] = theta[1 + d :]
    resid = float(np.sqrt(np.mean((F @ theta - samples.outputs) ** 2)))
    quad = QuadFunc(samples.variables, (A + A.T) / 2.0, b, c)
    return QuadSurrogate(quad=quad, fit_residual=resid)


def _fit_mlp(samples: SampleSet, seed) -> MLPSurrogate:
    """One hidden rectifier layer: a short training run of every weight,
    then the output layer in closed form.

    Full-batch Nesterov momentum trains all weights until the training loss
    has not improved by a relative PLATEAU_RTOL for PLATEAU_WINDOW epochs,
    or for at most EPOCH_CAP epochs.  For fixed hidden weights the output
    layer is a linear least-squares problem (variable projection: Golub &
    Pereyra, SIAM J. Numer. Anal. 1973), so (W2, b2) is then set to the
    ridge solution over F = [relu(Z W1 + b1), 1], read off one SVD of F.
    The ridge is the point of RIDGE_GRID that minimizes generalized
    cross-validation (Golub, Heath & Wahba, Technometrics 1979), computed
    from the same SVD.
    """
    X = samples.inputs
    y = samples.outputs
    m, d = X.shape
    H = HIDDEN_WIDTH
    x_mean = X.mean(axis=0)
    x_scale = X.std(axis=0)
    x_scale = np.where(x_scale < 1e-12, 1.0, x_scale)
    y_mean = float(y.mean())
    y_scale = float(y.std())
    if y_scale < 1e-12:
        y_scale = 1.0
    t = (y - y_mean) / y_scale
    # The hidden bias rides as the weight of a constant last input column,
    # and the output bias as the weight of a constant last feature column,
    # so all weights form one flat vector [W1; b1 | W2, b2].
    Z1 = np.ones((m, d + 1))
    Z1[:, :d] = (X - x_mean) / x_scale
    F = np.ones((m, H + 1))
    rng = np.random.default_rng(seed)
    a1 = np.sqrt(6.0 / (d + H))
    a2 = np.sqrt(6.0 / (H + 1))
    n1 = (d + 1) * H
    weights = np.zeros(n1 + H + 1)
    weights[: d * H] = rng.uniform(-a1, a1, size=d * H)
    weights[n1 : n1 + H] = rng.uniform(-a2, a2, size=H)
    velocity = np.zeros_like(weights)
    grad = np.empty_like(weights)
    g1, g2 = grad[:n1].reshape(d + 1, H), grad[n1:]
    best, stalled, epochs = np.inf, 0, 0
    # A step size too large for the data makes the weights blow up; that is
    # reported here, as a failed fit, before the SVD meets it.
    with np.errstate(over="ignore", invalid="ignore"):
        while epochs < EPOCH_CAP and stalled < PLATEAU_WINDOW:
            # Nesterov lookahead: gradient at the momentum-extrapolated point.
            look = weights + MOMENTUM * velocity
            w2 = look[n1:]
            pre = Z1 @ look[:n1].reshape(d + 1, H)
            np.maximum(pre, 0.0, out=F[:, :H])
            err = F @ w2 - t
            loss = float(err @ err)
            if not np.isfinite(loss):
                raise SingularFit(f"training loss turned non-finite at epoch {epochs + 1}")
            gpred = err * (2.0 / m)
            np.matmul(gpred, F, out=g2)
            np.matmul(Z1.T, (gpred[:, None] * w2[:H]) * (pre > 0), out=g1)
            velocity *= MOMENTUM
            velocity -= LEARNING_RATE * grad
            weights += velocity
            epochs += 1
            if loss < best * (1.0 - PLATEAU_RTOL):
                best, stalled = loss, 0
            else:
                stalled += 1
        if not np.isfinite(weights).all():
            raise SingularFit(f"training weights turned non-finite at epoch {epochs}")
    W1 = weights[:n1].reshape(d + 1, H)
    np.maximum(Z1 @ W1, 0.0, out=F[:, :H])
    U, sv, Vt = np.linalg.svd(F, full_matrices=False)
    proj = U.T @ t
    # GCV(lam) = m |(I - S_lam) t|^2 / (m - tr S_lam)^2 with the ridge
    # smoother S_lam = U diag(s^2 / (s^2 + lam)) U^T; the part of t outside
    # the range of U is left in the residual at every lam.
    shrink = sv**2 / (sv**2 + RIDGE_GRID[:, None])
    outside = max(float(t @ t - proj @ proj), 0.0)
    rss = np.sum(((1.0 - shrink) * proj) ** 2, axis=1) + outside
    with np.errstate(divide="ignore", invalid="ignore"):
        gcv = m * rss / (m - shrink.sum(axis=1)) ** 2
    ridge = RIDGE_GRID[np.argmin(np.where(np.isfinite(gcv), gcv, np.inf))]
    out = Vt.T @ (sv / (sv**2 + ridge) * proj)
    err = F @ out - t
    return MLPSurrogate(
        variables=samples.variables,
        W1=W1[:d], b1=W1[d], W2=out[:H], b2=float(out[H]),
        x_mean=x_mean, x_scale=x_scale,
        y_mean=y_mean, y_scale=y_scale,
        fit_residual=float(np.sqrt(np.mean(err**2))) * y_scale,
        epochs=epochs,
    )


def fit_surrogate(samples: SampleSet, config: ApproxConfig, seed):
    """Fit the surrogate of kind `config.kind` to the samples."""
    if config.kind == "quadratic_ls":
        return _fit_quadratic_ls(samples)
    return _fit_mlp(samples, seed)


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

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        out = self.quad.evaluate_batch(X)
        for s, idx in zip(self.mlps, self._mlp_idx):
            out = out + s.evaluate_batch(X[:, idx])
        return out

    def reduced(self, free_idx, Xk: np.ndarray):
        """Value and gradient over the variables at `free_idx` alone, one
        row per row of `Xk` (values of the other variables, in objective
        order).

        The fixed coordinates fold into per-row offsets, computed once: the
        quadratic becomes Xf A_ff Xf' + lin Xf' + const with the per-row
        lin = b_f + 2 X_k A_kf and const = the quadratic at the fixed part,
        and the rectifier children become one stacked hidden layer over the
        free columns, with input weights W1 / x_scale, a per-row
        pre-activation offset that absorbs b1, the centering and the fixed
        coordinates, and output weights y_scale W2.  The returned callable
        maps a batch Xf of free values to (values, gradients) in one pass.
        The objective has at least one rectifier child; a pure quadratic is
        minimized in closed form instead.
        """
        n = len(self.variables)
        free = np.asarray(free_idx, dtype=int)
        is_free = np.zeros(n, dtype=bool)
        is_free[free] = True
        keep = np.flatnonzero(~is_free)
        n_free = free.size
        pos = np.empty(n, dtype=int)
        pos[free] = np.arange(n_free)
        pos[keep] = np.arange(keep.size)
        A, b = self.quad.A, self.quad.b
        A_kf = A[np.ix_(keep, free)]
        lin = b[free] + 2.0 * Xk @ A_kf
        const = ((Xk @ A[np.ix_(keep, keep)]) * Xk).sum(axis=1) + Xk @ b[keep] + self.quad.c
        Ws, offsets, w2s = [A[np.ix_(free, free)]], [], []
        for s, idx in zip(self.mlps, self._mlp_idx):
            W_in = s.W1 / s.x_scale[:, None]
            on_free = is_free[idx]
            W = np.zeros((n_free, W_in.shape[1]))
            W[pos[idx[on_free]]] = W_in[on_free]
            Ws.append(W)
            offsets.append(s.b1 - s.x_mean @ W_in + Xk[:, pos[idx[~on_free]]] @ W_in[~on_free])
            w2s.append(s.y_scale * s.W2)
            const = const + (s.y_mean + s.y_scale * s.b2)
        # One product gives the quadratic's Xf A_ff and every pre-activation.
        AW = np.concatenate(Ws, axis=1)
        W_out = AW[:, n_free:].T
        offset = np.concatenate(offsets, axis=1)
        w2 = np.concatenate(w2s)

        def value_and_gradient(Xf):
            # The hidden layer is worked in place in the product's buffer:
            # pre-activations, rectified units, then the masked output weights.
            T = Xf @ AW
            XA, hidden = T[:, :n_free], T[:, n_free:]
            hidden += offset
            np.maximum(hidden, 0.0, out=hidden)
            value = np.einsum("bi,bi->b", XA + lin, Xf) + hidden @ w2 + const
            np.multiply(hidden > 0, w2, out=hidden)
            return value, 2.0 * XA + lin + hidden @ W_out

        return value_and_gradient


def _batched_descent(fun_grad, X0, P, bound):
    """Projected descent with per-row Armijo backtracking / growth.

    `fun_grad` maps a batch of rows to their values and gradients in one
    pass.  It runs once at the start and once per iteration, on the
    candidate rows; a row whose step is rejected keeps its point and so its
    gradient.  The descent direction of a gradient row g is g @ P; with P
    the inverse of the known quadratic block the loop is a damped Newton
    method on the smooth part, which plain gradient steps cannot match on
    ill-conditioned blocks within the budget.  `bound` is a (lo, hi) pair
    that clips iterates per coordinate: surrogate sums are only
    trustworthy on the sampling domain, and rectifier surrogates can slope
    downward forever outside it.  Convergence per row: gradient norm below
    tolerance, step collapse (projected stationarity or a nonsmooth kink),
    or no objective improvement over a 100-step window.  Returns per row the
    final point, its value, whether it settled and its gradient norm.
    """
    X = np.array(X0, dtype=float)
    f, g = fun_grad(X)
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
            gn = np.sqrt(np.einsum("bi,bi->b", g, g))
            cand = X - step[:, None] * (g @ P)
            np.clip(cand, bound[0], bound[1], out=cand)
            move = X - cand
            decrease = np.einsum("bi,bi->b", g, move)
            fc, gc = fun_grad(cand)
            ok = active & np.isfinite(fc) & (fc <= f - ARMIJO_C1 * decrease) & (fc < f)
            X[ok] = cand[ok]
            f[ok] = fc[ok]
            g[ok] = gc[ok]
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
        gn = np.sqrt(np.einsum("bi,bi->b", g, g))
    # A row counts as failed only when it is still making material progress
    # at the end of the budget (or produced non-finite values).
    settled = (
        converged
        | (gn <= GRAD_TOL)
        | (step < STEP_COLLAPSE)
        | (np.isfinite(f) & (window_gain < 1e-5))
    )
    return X, f, settled, gn


def _minimize_over(objective: _NodeObjective, free_idx, fixed_batch, bounds, restarts, rng):
    """Minimize the objective over the variables at `free_idx`, once per row
    of `fixed_batch` (m x n_fixed values of the other variables, in objective
    order), with multi-start descent; the root passes one empty row.

    `bounds` is a (lo, hi) pair of arrays over the free variables; starts
    are drawn uniformly inside and iterates stay clipped to it.  Restarts
    multiply the batch.  The descent runs over the free variables only:
    `_NodeObjective.reduced` folds each row's fixed coordinates into per-row
    offsets once, and each step is one value-and-gradient pass.
    Pure-quadratic objectives are minimized exactly instead, and return
    values only.
    """
    m, n_free = fixed_batch.shape[0], len(free_idx)
    keep = [k for k in range(len(objective.variables)) if k not in free_idx]
    base = np.zeros((m, len(objective.variables)))
    base[:, keep] = fixed_batch
    if not objective.mlps:
        # Pure quadratic: the exact minimizer is available; use it.  The
        # message is evaluated on the gathered copy base[:, keep], whose
        # layout fixes the einsum summation order.
        msg, _ = objective.quad.partial_minimize(objective.variables[k] for k in free_idx)
        return msg.evaluate_batch(base[:, keep]), None
    if n_free == 0:
        return objective.evaluate_batch(base), base
    lo, hi = bounds
    R = restarts
    X0 = rng.uniform(size=(m * R, n_free)) * (hi - lo) + lo
    # Damped-Newton preconditioner from the exact quadratic block: the
    # rectifier terms are piecewise linear, so the smooth curvature is
    # entirely in the quadratic and is known in closed form.
    H = 2.0 * objective.quad.A[np.ix_(free_idx, free_idx)]
    delta = 1e-8 * (1.0 + float(np.linalg.eigvalsh(H)[-1]))
    P = np.linalg.inv(H + delta * np.eye(n_free))
    Xf, fvals, settled, gnorm = _batched_descent(
        objective.reduced(free_idx, np.repeat(fixed_batch, R, axis=0)), X0, P, (lo, hi),
    )
    if not settled.all():
        raise InnerOptimizationFailed(
            "descent exhausted its budget with gradient norm above tolerance: "
            f"{np.count_nonzero(~settled)} of {settled.size} rows unsettled, "
            f"largest gradient norm {gnorm[~settled].max():.3g}"
        )
    fvals = fvals.reshape(m, R)
    Xf = Xf.reshape(m, R, n_free)
    best = np.argmin(fvals, axis=1)
    best_vals = fvals[np.arange(m), best]
    best_pts = base.copy()
    best_pts[:, free_idx] = Xf[np.arange(m), best]
    return best_vals, best_pts


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
    its exact quadratic part).  A node whose terms are all quadratic is
    minimized in closed form: every node under quadratic least squares, and
    the leaves under the rectifier surrogate.  Returns the optimized value,
    the root argmin as a dict, and per-edge diagnostics.
    """
    _check_inputs(cover, quads, observations)
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
        # The center is the minimizer of the quadratic part (own function
        # plus quadratic child surrogates), the locally available guess of
        # where the node's variables settle; the zero signal is the fallback
        # when even that part is unbounded.  At a pure-quadratic root it is
        # the answer, so there unboundedness is the result.
        try:
            value, center, _ = objective.quad.global_minimize()
        except UnboundedBelow:
            if i == dtree.root and not mlp_terms:
                raise
            center = np.zeros(len(variables))
        if i == dtree.root:
            yhat = center
            if mlp_terms:
                try:
                    vals, pts = _minimize_over(
                        objective, np.arange(len(variables)), np.zeros((1, 0)),
                        (center - r, center + r), config.restarts, _rng(seed, _TAG_OPT, i),
                    )
                except NumericalFailure as exc:
                    raise exc.at(f"minimization at root {i}") from exc
                value, yhat = float(vals[0]), pts[0]
            return value, dict(zip(variables, yhat.tolist())), {
                "edges": edge_diag, "exchanges": len(edge_diag),
            }
        j = dtree.parent[i]
        y_idx = [objective.index[v] for v in partitions[(i, j)].y_vars if v in objective.index]
        ret_idx = [k for k in range(len(variables)) if k not in y_idx]
        retained = tuple(variables[k] for k in ret_idx)
        box = tuple((float(center[p] - r), float(center[p] + r)) for p in ret_idx)
        y_bounds = (center[y_idx] - r, center[y_idx] + r)

        def message_fn(X):
            rng_in = _rng(seed, _TAG_OPT, i, 0)
            return _minimize_over(objective, y_idx, X, y_bounds, INNER_RESTARTS, rng_in)[0]

        try:
            samples = sample_message(
                message_fn, box, config.m, _rng(seed, _TAG_SAMPLE, i, j), variables=retained,
            )
            fitted = fit_surrogate(samples, config, _rng(seed, _TAG_FIT, i, j))
        except NumericalFailure as exc:
            raise exc.at(f"message along edge ({i} -> {j})", (i, j)) from exc
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
