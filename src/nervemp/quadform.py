"""Convex quadratics over named variable sets, closed under message passing.

The fixed convention throughout the package is

    q(x) = x' A x + b' x + c        (no 1/2 factor on A)

with A symmetric positive semidefinite.  Partial minimization is the
generalized Schur complement

    A~ = A_xx - A_xy A_yy+ A_yx,  b~ = b_x - A_xy A_yy+ b_y,
    c~ = c - b_y' A_yy+ b_y / 4,

where A_yy+ is the pseudoinverse with eigenvalues within
RANK_RCOND * sigma_max of zero treated as zero.

Two routines carry the algebra of the whole package.  `quad_sum` assembles
a sum of quadratics by one scatter-add (`embed` and `add` are its one- and
two-term cases).  `_eliminate`, behind `partial_minimize` and
`global_minimize`, applies the eliminated block's pseudoinverse to a stacked
right-hand side.  The block's eigenvalues alone give its smallest eigenvalue
and singular flag; a nonsingular block is then solved by one LU
factorization, and only a singular one is diagonalized, for its
pseudoinverse, its kernel and the unboundedness test.  It owns the
elimination tolerances RANK_RCOND and UNBOUNDED_TOL.

`quad_sum` and `fix_vars` work out from variable names which positions to
add or fix, then call `_assemble` and `_fix_at`, which take those positions
as integer arrays.  An elimination reads a front, a quadratic laid out with
its kept variables first and its eliminated ones last, so that A_xx, A_xy,
A_yy, b_x and b_y are slices, as in a multifrontal solver's frontal matrix
(Duff & Reid 1983).  `partial_minimize` gathers its quadratic into that
layout once and calls `_minimize_front`.  The exact engine, whose positions
and layouts are fixed before any number is read, assembles each sum as a
front and calls the position forms directly, so both do the same arithmetic.

Inputs are validated once, at the boundary.  The public constructor checks
distinct variables, finite coefficients, symmetry to SYM_TOL and PSD to
PSD_TOL.  Sums, principal submatrices and Schur complements of PSD matrices
are PSD, so the quadratics that `quad_sum`, `fix_vars` and
`partial_minimize` build from existing ones skip the symmetry and PSD
tests (they are exactly symmetric); only their finiteness is checked, and a
front gathered from a checked quadratic, a principal permutation of it, is
not checked again.  PSD is checked, to the same PSD_TOL, on every block
`_eliminate` factors, and an indefinite block raises UnboundedBelow.  By
Haynsworth's inertia additivity, inertia(H) = inertia(H_yy) +
inertia(H / H_yy) for a nonsingular H_yy, so a negative direction of an
intermediate reaches some eliminated block or the final `global_minimize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, MissingVariable, UnboundedBelow, UnknownVariable

# Construction tolerances (absolute asymmetry bound, relative PSD slack).
SYM_TOL = 1e-12
PSD_TOL = 1e-9
# Pseudoinverse, kernel and singular-flag cutoff, relative to the largest
# eigenvalue magnitude of the eliminated block.
RANK_RCOND = 1e-10
# Kernel component of b larger than this (relative to 1 + |b|) means -inf.
UNBOUNDED_TOL = 1e-8


def _sym(A: np.ndarray) -> np.ndarray:
    return (A + A.T) / 2.0


@dataclass(frozen=True)
class ArgminMap:
    """Affine minimizer map y*(x) = M x + m for the eliminated block.

    `inputs` are the retained variables, `eliminated` the minimized ones.
    `min_eig` is the smallest eigenvalue of the eliminated block and
    `singular` says it lies within RANK_RCOND * sigma_max of zero, so the
    minimizer is not unique (M and m then give the minimum-norm one).
    """

    eliminated: tuple
    inputs: tuple
    M: np.ndarray
    m: np.ndarray
    min_eig: float = float("inf")
    singular: bool = False


def _finite(A: np.ndarray, b: np.ndarray, c) -> float:
    c = float(c)
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c)):
        raise ValueError("A, b and c must be finite")
    return c


def _indefinite(w: np.ndarray) -> bool:
    """Ascending eigenvalues w reach below -PSD_TOL * (1 + sigma_max)."""
    return w[0] < -PSD_TOL * (1.0 + max(abs(w[0]), abs(w[-1])))


class QuadFunc:
    """q(x) = x'Ax + b'x + c over an ordered tuple of variables.

    The constructor rejects duplicate variables, non-finite coefficients,
    asymmetry beyond SYM_TOL and a negative eigenvalue beyond PSD_TOL, and
    stores the symmetrized A.  What this module derives from constructed
    quadratics comes from `_trusted`, which checks finiteness only; PSD_TOL
    is then enforced where `_eliminate` factors a block.
    """

    __slots__ = ("vars", "A", "b", "c")

    def __init__(self, variables: Iterable, A, b, c):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variables in {variables}")
        n = len(variables)
        A = np.asarray(A, dtype=float).reshape(n, n)
        b = np.asarray(b, dtype=float).reshape(n)
        c = _finite(A, b, c)
        if n and np.max(np.abs(A - A.T)) > SYM_TOL:
            raise ValueError("A is asymmetric beyond tolerance")
        A = _sym(A)
        if n:
            w = np.linalg.eigvalsh(A)
            if _indefinite(w):
                raise ValueError(f"A is not positive semidefinite (lambda_min={w[0]:g})")
        self._set(variables, A, b, c)

    @classmethod
    def _trusted(cls, variables: tuple, A: np.ndarray, b: np.ndarray, c) -> "QuadFunc":
        """A quadratic this module derived from constructed ones.

        `variables` are distinct and A is an exactly symmetric float array,
        as a scatter-add of symmetric blocks, a principal submatrix and a
        symmetrized Schur complement are; only finiteness is checked (a sum
        can overflow, a fixed value can be NaN).
        """
        q = object.__new__(cls)
        q._set(variables, A, b, _finite(A, b, c))
        return q

    def _set(self, variables, A, b, c):
        for name, value in zip(self.__slots__, (variables, A, b, c)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # value semantics: immutable
        raise AttributeError("QuadFunc is immutable")

    def __repr__(self):
        return f"QuadFunc(vars={self.vars}, c={self.c:g})"

    @classmethod
    def zero(cls, variables: Iterable = ()) -> "QuadFunc":
        return quad_sum((), variables)

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.vars):
            raise DimensionMismatch(
                f"batch has shape {X.shape}, expected (*, {len(self.vars)})"
            )
        return ((X @ self.A) * X).sum(axis=1) + X @ self.b + self.c

    def embed(self, superset: Iterable) -> "QuadFunc":
        return quad_sum([self], superset)

    def add(self, other: "QuadFunc") -> "QuadFunc":
        return quad_sum([self, other])

    def fix_vars(self, fixed: Mapping) -> "QuadFunc":
        known = set(self.vars)
        unknown = [v for v in fixed if v not in known]
        if unknown:
            raise UnknownVariable(f"cannot fix unknown variables {unknown}")
        ki = [i for i, v in enumerate(self.vars) if v not in fixed]
        fi = [i for i, v in enumerate(self.vars) if v in fixed]
        f = np.array([float(fixed[self.vars[i]]) for i in fi])
        return self._fix_at(tuple(self.vars[i] for i in ki), ki, fi, f)

    def _fix_at(self, keep: tuple, ki, fi, f: np.ndarray) -> "QuadFunc":
        """`fix_vars` by position: the variables at positions `fi` take the
        values `f`, and the result is over those at `ki`, named `keep`."""
        rows = self.A.take(ki, 0)
        A_kk = rows.take(ki, 1)
        A_kf = rows.take(fi, 1)
        A_ff = self.A.take(fi, 0).take(fi, 1)
        b_new = self.b[ki] + 2.0 * A_kf @ f
        c_new = float(f @ A_ff @ f + self.b[fi] @ f + self.c)
        return QuadFunc._trusted(keep, A_kk, b_new, c_new)

    def partial_minimize(self, elim: Iterable) -> tuple["QuadFunc", ArgminMap]:
        elim = set(elim)
        unknown = elim - set(self.vars)
        if unknown:
            raise UnknownVariable(f"cannot eliminate unknown variables {sorted(unknown)}")
        order = [i for i, v in enumerate(self.vars) if v not in elim]
        nx = len(order)
        order += [i for i, v in enumerate(self.vars) if v in elim]
        front = self
        if order != sorted(order):
            # A principal permutation of a checked quadratic: no re-check.
            front = object.__new__(QuadFunc)
            front._set(tuple(self.vars[i] for i in order),
                       self.A.take(order, 0).take(order, 1), self.b[order], self.c)
        return front._minimize_front(nx)

    def _minimize_front(self, nx: int) -> tuple["QuadFunc", ArgminMap]:
        """`partial_minimize` of a front laid out kept-then-eliminated: the
        first `nx` variables are kept and the rest eliminated, so A_xx,
        A_xy, A_yy, b_x and b_y are slices of A and b."""
        keep, ys = self.vars[:nx], self.vars[nx:]
        if not ys:
            return self, ArgminMap((), keep, np.zeros((0, nx)), np.zeros(0))
        A_xy, b_y = self.A[:nx, nx:], self.b[nx:]
        # One solve against the stacked [-A_yx | -b_y / 2] gives M and m.
        rhs = -np.column_stack((A_xy.T, 0.5 * b_y))
        Z, _, min_eig, singular = _eliminate(self.A[nx:, nx:], rhs, b_y, np.linalg.norm(self.b))
        M, m = Z[:, :-1], Z[:, -1]
        A_new = _sym(self.A[:nx, :nx] + A_xy @ M)
        b_new = self.b[:nx] + 2.0 * (A_xy @ m)
        c_new = float(self.c + 0.5 * (b_y @ m))
        amap = ArgminMap(ys, keep, M, m, min_eig, singular)
        return QuadFunc._trusted(keep, A_new, b_new, c_new), amap

    def global_minimize(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Minimum value, minimum-norm minimizer, and kernel basis of A.

        The kernel columns span the direction set of the full minimizer
        affine subspace.  Raises UnboundedBelow when b has a kernel component.
        """
        n = len(self.vars)
        if n == 0:
            return self.c, np.zeros(0), np.zeros((0, 0))
        x, kernel, _, _ = _eliminate(self.A, -0.5 * self.b, self.b, np.linalg.norm(self.b))
        return float(self.c + 0.5 * (self.b @ x)), x, kernel


def _eliminate(A_yy: np.ndarray, rhs: np.ndarray, b_y: np.ndarray, b_norm: float):
    """The elimination kernel: Z = A_yy+ rhs for the PSD block A_yy.

    Returns (Z, kernel, min_eig, singular).  The block is singular when its
    smallest eigenvalue lies within RANK_RCOND * sigma_max of zero.  A
    nonsingular block has an empty kernel and Z comes from one LU solve.  A
    singular block is diagonalized: eigenvalues within the cutoff span the
    kernel and are dropped from the pseudoinverse.  Raises UnboundedBelow,
    carrying the block's size and smallest eigenvalue, when the block is
    indefinite (its smallest eigenvalue lies below
    -PSD_TOL * (1 + sigma_max)) or when b_y has a kernel component larger
    than UNBOUNDED_TOL * (1 + b_norm), b_norm being the norm of the whole
    linear term.
    """
    w = np.linalg.eigvalsh(A_yy)
    if _indefinite(w):
        raise _unbounded("the eliminated block is indefinite", w)
    if w[0] > RANK_RCOND * max(abs(w[0]), abs(w[-1])):
        return np.linalg.solve(A_yy, rhs), np.zeros((len(w), 0)), float(w[0]), False
    # Singular: the eigenvectors give the kernel and the pseudoinverse.
    w, V = np.linalg.eigh(A_yy)
    cutoff = RANK_RCOND * max(abs(w[0]), abs(w[-1]))
    live = np.abs(w) > cutoff
    kernel = V[:, ~live]
    if np.linalg.norm(kernel.T @ b_y) > UNBOUNDED_TOL * (1.0 + b_norm):
        raise _unbounded(
            "the linear term has a component in the kernel of the eliminated block", w
        )
    # Scaling V in one temporary keeps the peak at three blocks: V, V / w, P.
    P = (V * np.divide(1.0, w, out=np.zeros_like(w), where=live)) @ V.T
    return P @ rhs, kernel, float(w[0]), bool(w[0] <= cutoff)


def _unbounded(reason: str, w: np.ndarray) -> UnboundedBelow:
    """The failure of a block with ascending eigenvalues w, naming its size
    and smallest eigenvalue."""
    return UnboundedBelow(
        f"minimum is -inf: {reason} (eliminating {len(w)} variables, "
        f"block smallest eigenvalue {w[0]:.6g})", block_size=len(w), min_eig=float(w[0]),
    )


def quad_sum(terms: Iterable[QuadFunc], variables: Iterable | None = None) -> QuadFunc:
    """Sum of quadratics, assembled by one scatter-add.

    The sum is over `variables` when given, and every term's variables must
    lie in it.  Otherwise it is over the terms' common variable tuple when
    they all share one, else over the sorted union.  Terms are added in
    order onto zeros, so the result equals the chained `add` of the terms.
    """
    terms = tuple(terms)
    if variables is None:
        orders = {q.vars for q in terms}
        variables = orders.pop() if len(orders) == 1 else tuple(sorted(set().union(*orders)))
    variables = tuple(variables)
    pos = {v: i for i, v in enumerate(variables)}
    if len(pos) != len(variables):
        raise ValueError(f"duplicate variables in {variables}")
    placed = []
    for q in terms:
        missing = [v for v in q.vars if v not in pos]
        if missing:
            raise MissingVariable(f"variables {missing} not in superset {variables}")
        placed.append((np.array([pos[v] for v in q.vars], dtype=np.intp), q))
    return _assemble(variables, placed)


def _assemble(variables: tuple, placed: Iterable) -> QuadFunc:
    """`quad_sum` by position: each (positions, quadratic) pair is added,
    in order, onto zeros over `variables` at those 1-D integer positions."""
    n = len(variables)
    A = np.zeros((n, n))
    b = np.zeros(n)
    c = 0.0
    for idx, q in placed:
        A[idx[:, None], idx] += q.A
        b[idx] += q.b
        c += q.c
    return QuadFunc._trusted(variables, A, b, c)


def subspace_distance_quad(vectors: Sequence, variables: Iterable) -> QuadFunc:
    """Squared distance to the span of `vectors`: q(x) = ||(I - P)x||^2.

    A = I - P is the complement of the orthogonal projector onto the span,
    hence symmetric, PSD and idempotent; b = 0 and c = 0.
    """
    variables = tuple(variables)
    n = len(variables)
    vectors = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    for v in vectors:
        if v.shape[0] != n:
            raise DimensionMismatch(
                f"basis vector has length {v.shape[0]}, expected {n}"
            )
    if not vectors:
        return QuadFunc(variables, np.eye(n), np.zeros(n), 0.0)
    Z = np.stack(vectors, axis=1)
    u, s, _ = np.linalg.svd(Z, full_matrices=False)
    if s.size and s[0] > 0:
        Q = u[:, s > s[0] * 1e-12]
    else:
        Q = u[:, :0]
    A = _sym(np.eye(n) - Q @ Q.T)
    return QuadFunc(variables, A, np.zeros(n), 0.0)
