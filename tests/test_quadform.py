"""Quadratic-function core: oracles, Schur elimination, invariants.

Independent oracles used here:
    - term-by-term double-loop evaluation,
    - KKT solve (least squares on the gradient) plus substitution,
    - dense grid search over the eliminated block.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nervemp.errors import (
    DimensionMismatch,
    MissingVariable,
    UnboundedBelow,
    UnknownVariable,
)
from nervemp.quadform import (
    PSD_TOL,
    RANK_RCOND,
    UNBOUNDED_TOL,
    ArgminMap,
    QuadFunc,
    _eliminate,
    _sym,
    quad_sum,
    subspace_distance_quad,
)


def random_psd(n, rng, ridge=0.1):
    G = rng.standard_normal((n, n))
    A = G @ G.T / n + ridge * np.eye(n)
    return (A + A.T) / 2.0


def random_quad(n, rng, ridge=0.1, b_scale=0.2):
    A = random_psd(n, rng, ridge)
    b = b_scale * rng.standard_normal(n)
    return QuadFunc(tuple(range(n)), A, b, float(rng.standard_normal()))


def eval_double_loop(q, x):
    total = q.c
    for i in range(len(q.vars)):
        total += q.b[i] * x[i]
        for j in range(len(q.vars)):
            total += x[i] * q.A[i, j] * x[j]
    return total


def value_at(q, x):
    """q at one point, evaluated as a one-row batch."""
    return q.evaluate_batch(np.reshape(np.asarray(x, dtype=float), (1, -1)))[0]


class TestEvaluate:
    def test_square_at_three(self):
        q = QuadFunc(("x",), [[1.0]], [0.0], 0.0)
        assert value_at(q, [3.0]) == 9.0

    def test_zero_quadratic(self):
        q = QuadFunc.zero((0, 1, 2))
        assert value_at(q, [4.0, -1.0, 7.0]) == 0.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = random_quad(5, rng)
            x = rng.standard_normal(5)
            expect = eval_double_loop(q, x)
            assert abs(value_at(q, x) - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_dimension_mismatch(self):
        q = QuadFunc((0, 1), np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(DimensionMismatch):
            q.evaluate_batch([[1.0]])

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(1)
        q = random_quad(4, rng)
        X = rng.standard_normal((10, 4))
        batch = q.evaluate_batch(X)
        for row, val in zip(X, batch):
            assert abs(value_at(q, row) - val) < 1e-12


class TestEmbed:
    def test_square_into_two_vars(self):
        q = QuadFunc(("x",), [[1.0]], [0.0], 0.0)
        q2 = q.embed(("x", "y"))
        assert value_at(q2, [3.0, 7.0]) == 9.0

    def test_identity_embedding(self):
        rng = np.random.default_rng(2)
        q = random_quad(3, rng)
        q2 = q.embed(q.vars)
        assert np.array_equal(q.A, q2.A) and np.array_equal(q.b, q2.b)

    def test_marginal_evaluation_oracle(self):
        rng = np.random.default_rng(3)
        q = random_quad(4, rng)
        sup = (0, 1, 2, 3, 9, 11)
        q2 = q.embed(sup)
        for _ in range(1000):
            x = rng.standard_normal(6)
            expect = value_at(q, x[:4])
            assert abs(value_at(q2, x) - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_missing_variable(self):
        q = QuadFunc((0, 5), np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(MissingVariable):
            q.embed((0, 1, 2))


class TestAdd:
    def test_two_squares(self):
        qx = QuadFunc(("x",), [[1.0]], [0.0], 0.0)
        qy = QuadFunc(("y",), [[1.0]], [0.0], 0.0)
        q = qx.add(qy)
        assert q.vars == ("x", "y")
        assert np.array_equal(q.A, np.eye(2))

    def test_add_zero(self):
        rng = np.random.default_rng(4)
        q = random_quad(3, rng)
        z = QuadFunc.zero(q.vars)
        s = q.add(z)
        assert np.array_equal(s.A, q.A) and s.c == q.c

    def test_pointwise_sum_oracle(self):
        rng = np.random.default_rng(5)
        q1 = QuadFunc((0, 2, 4), random_psd(3, rng), rng.standard_normal(3), 1.5)
        q2 = QuadFunc((1, 2, 3), random_psd(3, rng), rng.standard_normal(3), -0.5)
        s = q1.add(q2)
        assert s.vars == (0, 1, 2, 3, 4)
        pos = {v: i for i, v in enumerate(s.vars)}
        for _ in range(1000):
            x = rng.standard_normal(5)
            expect = (value_at(q1, [x[pos[v]] for v in q1.vars])
                      + value_at(q2, [x[pos[v]] for v in q2.vars]))
            assert abs(value_at(s, x) - expect) <= 1e-12 * max(1.0, abs(expect))


class TestQuadSum:
    def _bytes(self, q):
        return repr(q.vars), q.A.tobytes(), q.b.tobytes(), np.float64(q.c).tobytes()

    def test_equals_chained_add_bitwise(self):
        rng = np.random.default_rng(14)
        shared = (7, 2, 5)  # deliberately unsorted
        same = [QuadFunc(shared, random_psd(3, rng), rng.standard_normal(3),
                         float(rng.standard_normal())) for _ in range(3)]
        mixed = same + [QuadFunc((5, 0), random_psd(2, rng), rng.standard_normal(2), 0.25)]
        for terms in (same, mixed):
            chained = terms[0]
            for q in terms[1:]:
                chained = chained.add(q)
            assert self._bytes(quad_sum(terms)) == self._bytes(chained)
        assert quad_sum(same).vars == shared
        assert quad_sum(mixed).vars == (0, 2, 5, 7)

    def test_explicit_variables_equal_embedded_sum(self):
        rng = np.random.default_rng(15)
        q1 = random_quad(3, rng)
        q2 = QuadFunc((2, 4), random_psd(2, rng), rng.standard_normal(2), 1.0)
        sup = (4, 0, 9, 2, 1)
        expect = QuadFunc.zero(sup).add(q1.embed(sup)).add(q2.embed(sup))
        assert self._bytes(quad_sum([q1, q2], sup)) == self._bytes(expect)

    def test_missing_variable(self):
        q = QuadFunc((0, 5), np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(MissingVariable):
            quad_sum([q], (0, 1))


class TestFixVars:
    def test_shift_square(self):
        # (x - y)^2 with y = 2 becomes (x - 2)^2
        q = QuadFunc(("x", "y"), [[1.0, -1.0], [-1.0, 1.0]], [0.0, 0.0], 0.0)
        fixed = q.fix_vars({"y": 2.0})
        assert fixed.vars == ("x",)
        for x in (-1.0, 0.0, 3.5):
            assert abs(value_at(fixed, [x]) - (x - 2.0) ** 2) < 1e-12

    def test_fix_all(self):
        rng = np.random.default_rng(6)
        q = random_quad(3, rng)
        x = rng.standard_normal(3)
        const = q.fix_vars(dict(zip(q.vars, x)))
        assert const.vars == ()
        assert abs(const.c - value_at(q, x)) < 1e-12

    def test_partial_fix_oracle(self):
        rng = np.random.default_rng(7)
        q = random_quad(5, rng)
        fixed_vals = {1: 0.7, 3: -1.1}
        f = q.fix_vars(fixed_vals)
        assert f.vars == (0, 2, 4)
        for _ in range(1000):
            x = rng.standard_normal(3)
            full = np.empty(5)
            full[[0, 2, 4]] = x
            full[1], full[3] = 0.7, -1.1
            expect = value_at(q, full)
            assert abs(value_at(f, x) - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_unknown_variable(self):
        q = QuadFunc((0,), [[1.0]], [0.0], 0.0)
        with pytest.raises(UnknownVariable):
            q.fix_vars({3: 1.0})


def kkt_oracle(q, elim, x):
    """Solve grad_y = 0 by least squares and substitute; independent of Schur."""
    keep = [v for v in q.vars if v not in elim]
    ys = [v for v in q.vars if v in elim]
    ki = [q.vars.index(v) for v in keep]
    yi = [q.vars.index(v) for v in ys]
    A_yy = q.A[np.ix_(yi, yi)]
    A_yx = q.A[np.ix_(yi, ki)]
    rhs = -(A_yx @ x + 0.5 * q.b[yi])
    y, *_ = np.linalg.lstsq(A_yy, rhs, rcond=None)
    full = np.empty(len(q.vars))
    full[ki] = x
    full[yi] = y
    return value_at(q, full), y


class TestPartialMinimize:
    def test_complete_the_square(self):
        # min_y (x - y)^2 + y^2 = x^2 / 2 at y = x / 2
        q = QuadFunc(("x", "y"), [[1.0, -1.0], [-1.0, 2.0]], [0.0, 0.0], 0.0)
        msg, amap = q.partial_minimize(["y"])
        assert msg.vars == ("x",)
        assert abs(msg.A[0, 0] - 0.5) < 1e-12
        assert abs(amap.M[0, 0] - 0.5) < 1e-12

    def test_zero_message_from_deficient_projector(self):
        # distance to a span whose restriction to the kept variable is onto
        w = np.array([1.0, 0.0, -1.0, -1.0]) / np.sqrt(3.0)
        A = np.outer(w, w)
        q = QuadFunc((0, 1, 2, 3), A, np.zeros(4), 0.0)
        fixed = q.fix_vars({0: 1.3, 1: -0.4})
        msg, _ = fixed.partial_minimize([2])
        assert abs(msg.A[0, 0]) < 1e-10
        assert abs(msg.b[0]) < 1e-10
        assert abs(msg.c) < 1e-10

    def test_kkt_and_grid_oracles(self):
        rng = np.random.default_rng(8)
        ys = np.arange(-5.0, 5.0 + 0.005, 0.01)
        for trial in range(25):
            n = int(rng.integers(3, 6))
            q = random_quad(n, rng)
            n_elim = 1 + trial % 2
            elim = list(rng.choice(n, size=n_elim, replace=False))
            msg, amap = q.partial_minimize(elim)
            for _ in range(2):
                x = 0.3 * rng.standard_normal(n - n_elim)
                kkt_val, y_star = kkt_oracle(q, set(elim), x)
                assert np.max(np.abs(y_star)) < 4.5  # grid must contain the argmin
                got = value_at(msg, x)
                assert abs(got - kkt_val) <= 1e-9 * max(1.0, abs(kkt_val))
                keep = [v for v in q.vars if v not in set(elim)]
                sub = q.fix_vars(dict(zip(keep, x)))
                if n_elim == 1:
                    vals = sub.A[0, 0] * ys**2 + sub.b[0] * ys + sub.c
                else:
                    Y1, Y2 = np.meshgrid(ys, ys, indexing="ij")
                    vals = (
                        sub.A[0, 0] * Y1**2
                        + 2.0 * sub.A[0, 1] * Y1 * Y2
                        + sub.A[1, 1] * Y2**2
                        + sub.b[0] * Y1
                        + sub.b[1] * Y2
                        + sub.c
                    )
                assert abs(vals.min() - got) <= 1e-3

    def test_argmin_map_gradient_condition(self):
        rng = np.random.default_rng(9)
        q = random_quad(5, rng)
        msg, amap = q.partial_minimize([1, 4])
        x = rng.standard_normal(3)
        y = dict(zip(amap.eliminated, amap.M @ x + amap.m))
        full = {**dict(zip(amap.inputs, x)), **y}
        vec = np.array([full[v] for v in q.vars])
        grad = 2.0 * q.A @ vec + q.b
        yi = [q.vars.index(v) for v in amap.eliminated]
        assert np.max(np.abs(grad[yi])) < 1e-9

    def test_unbounded_below(self):
        q = QuadFunc((0, 1), [[1.0, 0.0], [0.0, 0.0]], [0.0, 1.0], 0.0)
        with pytest.raises(UnboundedBelow):
            q.partial_minimize([1])

    def test_min_eig_is_smallest_eigenvalue_of_the_block(self):
        rng = np.random.default_rng(16)
        q = random_quad(6, rng)
        _, amap = q.partial_minimize([4, 1, 3])
        yi = [q.vars.index(v) for v in amap.eliminated]
        w = np.linalg.eigvalsh(q.A[np.ix_(yi, yi)])
        assert abs(amap.min_eig - w[0]) <= 1e-12 * abs(w[-1])
        assert not amap.singular

    def test_rank_deficient_block_is_singular(self):
        # y1 and y2 enter only through y1 + y2: the eliminated block has rank 1
        q = QuadFunc((0, 1, 2), [[1, 1, -1], [1, 1, -1], [-1, -1, 1.0]], np.zeros(3), 0.0)
        msg, amap = q.partial_minimize([0, 1])
        assert amap.singular
        assert abs(amap.min_eig) <= 1e-12
        assert abs(value_at(msg, [1.0])) <= 1e-12  # y1 + y2 = x is attainable

    def test_empty_elimination_is_identity(self):
        rng = np.random.default_rng(10)
        q = random_quad(3, rng)
        msg, amap = q.partial_minimize([])
        assert msg is q and amap.eliminated == ()


class TestSubspaceDistance:
    def test_full_span_gives_zero(self):
        basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        q = subspace_distance_quad(basis, (0, 1))
        assert np.max(np.abs(q.A)) < 1e-12

    def test_empty_basis_gives_identity(self):
        q = subspace_distance_quad([], (0, 1, 2))
        assert np.array_equal(q.A, np.eye(3))

    def test_zero_exactly_on_span(self):
        rng = np.random.default_rng(11)
        basis = [rng.standard_normal(5) for _ in range(3)]
        q = subspace_distance_quad(basis, tuple(range(5)))
        combo = 1.7 * basis[0] - 0.3 * basis[1] + 2.2 * basis[2]
        assert abs(value_at(q, combo)) < 1e-10
        off = combo + np.linalg.svd(np.stack(basis, 1), full_matrices=True)[0][:, -1]
        assert value_at(q, off) > 1e-2

    def test_projector_idempotent(self):
        rng = np.random.default_rng(12)
        basis = [rng.standard_normal(6) for _ in range(2)]
        q = subspace_distance_quad(basis, tuple(range(6)))
        assert np.max(np.abs(q.A @ q.A - q.A)) < 1e-10


class TestGlobalMinimize:
    def test_shifted_square(self):
        q = QuadFunc(("x",), [[1.0]], [2.0], 1.0)
        value, minimizer, kernel = q.global_minimize()
        assert abs(value) < 1e-12
        assert abs(minimizer[0] + 1.0) < 1e-12
        assert kernel.shape[1] == 0

    def test_zero_quadratic_full_kernel(self):
        q = QuadFunc.zero((0, 1, 2))
        value, minimizer, kernel = q.global_minimize()
        assert value == 0.0
        assert np.array_equal(minimizer, np.zeros(3))
        assert kernel.shape == (3, 3)

    def test_gradient_and_grid_oracles(self):
        rng = np.random.default_rng(13)
        ys = np.arange(-5.0, 5.0 + 0.005, 0.01)
        for _ in range(10):
            q = random_quad(2, rng)
            value, minimizer, kernel = q.global_minimize()
            grad = 2.0 * q.A @ minimizer + q.b
            assert np.linalg.norm(grad) <= 1e-9
            Y1, Y2 = np.meshgrid(ys, ys, indexing="ij")
            vals = (
                q.A[0, 0] * Y1**2
                + 2.0 * q.A[0, 1] * Y1 * Y2
                + q.A[1, 1] * Y2**2
                + q.b[0] * Y1
                + q.b[1] * Y2
                + q.c
            )
            assert np.max(np.abs(minimizer)) < 5.0
            assert abs(vals.min() - value) <= 1e-3

    def test_unbounded(self):
        q = QuadFunc((0,), [[0.0]], [1.0], 0.0)
        with pytest.raises(UnboundedBelow):
            q.global_minimize()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_elimination_order_independence(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 7))
    q = random_quad(n, rng)
    vs = list(rng.choice(n, size=3, replace=False))
    one_shot, _ = q.partial_minimize(vs)
    staged, _ = q.partial_minimize(vs[:1])
    staged, _ = staged.partial_minimize(vs[1:])
    assert staged.vars == one_shot.vars
    scale = max(1.0, float(np.max(np.abs(one_shot.A))))
    assert np.max(np.abs(staged.A - one_shot.A)) <= 1e-9 * scale
    assert np.max(np.abs(staged.b - one_shot.b)) <= 1e-9 * max(1.0, float(np.max(np.abs(one_shot.b))))
    assert abs(staged.c - one_shot.c) <= 1e-9 * max(1.0, abs(one_shot.c))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_min_fubini(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    q = random_quad(n, rng)
    elim = list(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    direct, _, _ = q.global_minimize()
    partial, _ = q.partial_minimize(elim)
    via, _, _ = partial.global_minimize()
    assert abs(direct - via) <= 1e-9 * max(1.0, abs(direct))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_psd_closure_of_schur(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    G = rng.standard_normal((n, max(1, n - 2)))
    A = G @ G.T / n
    q = QuadFunc(tuple(range(n)), (A + A.T) / 2.0, A @ rng.standard_normal(n), 0.0)
    elim = list(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    msg, _ = q.partial_minimize(elim)
    w = np.linalg.eigvalsh(msg.A)
    assert w[0] >= -PSD_TOL * (1.0 + max(abs(w[0]), abs(w[-1])))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_diagonal_shift_prevents_unbounded(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    G = rng.standard_normal((n, 1))
    A = G @ G.T / n
    q = QuadFunc(tuple(range(n)), (A + A.T) / 2.0, rng.standard_normal(n), 0.0)
    shifted = QuadFunc(q.vars, q.A + 1e-3 * np.eye(n), q.b, q.c)
    for r in range(1, n):
        elim = list(rng.choice(n, size=r, replace=False))
        msg, _ = shifted.partial_minimize(elim)
        if len(msg.vars):
            assert np.linalg.eigvalsh(msg.A)[0] > -1e-12


def _pinv_reference(A_yy, b_y, b_norm):
    """The eigh / explicit pseudoinverse elimination the solve path replaced:
    (P, kernel, min_eig, singular), or the UnboundedBelow reason."""
    w, V = np.linalg.eigh(A_yy)
    sigma = max(abs(w[0]), abs(w[-1]))
    if w[0] < -PSD_TOL * (1.0 + sigma):
        return "indefinite"
    cutoff = RANK_RCOND * sigma
    live = np.abs(w) > cutoff
    kernel = V[:, ~live]
    if np.linalg.norm(kernel.T @ b_y) > UNBOUNDED_TOL * (1.0 + b_norm):
        return "kernel"
    P = (V * np.divide(1.0, w, out=np.zeros_like(w), where=live)) @ V.T
    return P, kernel, float(w[0]), bool(w[0] <= cutoff)


ELIMINATION_KINDS = ("full_rank", "rank_deficient", "above_cutoff", "below_cutoff", "indefinite")


def _block_of_kind(kind, n, sigma, rng):
    """An n x n symmetric block with largest eigenvalue sigma whose smallest
    eigenvalues are set by `kind` relative to the singular cutoff."""
    w = sigma * rng.uniform(0.1, 1.0, n)
    w[-1] = sigma
    if kind == "rank_deficient":
        w[:int(rng.integers(1, n))] = 0.0
    elif kind == "above_cutoff":
        w[0] = 10.0 * RANK_RCOND * sigma
    elif kind == "below_cutoff":
        w[0] = 0.1 * RANK_RCOND * sigma
    elif kind == "indefinite":
        w[0] = -100.0 * PSD_TOL * (1.0 + sigma)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (V * w) @ V.T
    return (A + A.T) / 2.0


def _near(got, want, rtol, *terms):
    """got equals want within rtol of the magnitudes that sum to want."""
    scale = np.linalg.norm(want) + sum(np.linalg.norm(t) for t in terms)
    return np.linalg.norm(np.asarray(got) - want) <= rtol * scale


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ELIMINATION_KINDS), st.integers(min_value=0, max_value=10_000))
def test_elimination_matches_the_pseudoinverse_formulas(kind, seed):
    """partial_minimize and global_minimize agree with the eigh / explicit
    pseudoinverse formulas on blocks that are well conditioned, rank
    deficient, just above or just below the singular cutoff, or indefinite:
    the same singular flag and UnboundedBelow decision, min_eig within
    1e-12 sigma_max, and M, m, the message and the minimizer within 1e-9
    relative.  Just above the cutoff the block's condition number kappa is
    1e9, and 1e-9 is out of reach: a backward-stable solve (LU with a
    backward error of gamma_3n, Higham 2002, Thm 9.4) or eigh is accurate
    only to about n kappa eps, so 10 n kappa eps is added to the 1e-9."""
    rng = np.random.default_rng(seed)
    ny, nx = int(rng.integers(2, 7)), int(rng.integers(0, 4))
    sigma = float(10.0 ** rng.integers(-3, 4))
    A_yy = _block_of_kind(kind, ny, sigma, rng)
    A_xx = random_psd(nx, rng) if nx else np.zeros((0, 0))
    A_xy = rng.standard_normal((nx, ny))
    b_y = A_yy @ rng.standard_normal(ny) if rng.integers(2) else rng.standard_normal(ny)
    b = np.concatenate([rng.standard_normal(nx), b_y])
    c = float(rng.standard_normal())
    H = np.block([[A_xx, A_xy], [A_xy.T, A_yy]])
    q = QuadFunc._trusted(tuple(range(nx + ny)), H, b, c)
    ys = tuple(range(nx, nx + ny))
    block = QuadFunc._trusted(ys, A_yy, b_y, c)
    ref = _pinv_reference(A_yy, b_y, np.linalg.norm(b))
    block_ref = _pinv_reference(A_yy, b_y, np.linalg.norm(b_y))
    if isinstance(block_ref, str):
        with pytest.raises(UnboundedBelow, match=block_ref):
            block.global_minimize()
    if isinstance(ref, str):
        assert kind in ("rank_deficient", "below_cutoff", "indefinite")
        with pytest.raises(UnboundedBelow, match=ref):
            q.partial_minimize(ys)
        return
    P, kernel, min_eig, singular = ref
    assert kind != "indefinite"
    assert singular == (kind in ("rank_deficient", "below_cutoff"))
    w = np.linalg.eigvalsh(A_yy)
    live = np.abs(w) > RANK_RCOND * sigma
    rtol = 1e-9 + 10 * ny * np.finfo(float).eps * sigma / np.min(np.abs(w[live]))

    msg, amap = q.partial_minimize(ys)
    assert (amap.singular, msg.vars) == (singular, tuple(range(nx)))
    assert abs(amap.min_eig - min_eig) <= 1e-12 * sigma
    m = -0.5 * P @ b_y
    assert _near(amap.M, -P @ A_xy.T, rtol) and _near(amap.m, m, rtol)
    S = A_xy @ P @ A_xy.T
    assert _near(msg.A, A_xx - S, rtol, A_xx, S)
    assert _near(msg.b, b[:nx] - A_xy @ (P @ b_y), rtol, b[:nx], A_xy @ (P @ b_y))
    quarter = 0.25 * b_y @ P @ b_y
    assert _near(msg.c, c - quarter, rtol, c, quarter)

    if not isinstance(block_ref, str):
        value, x, got_kernel = block.global_minimize()
        assert got_kernel.shape == kernel.shape
        assert _near(x, m, rtol)
        assert _near(value, c - quarter, rtol, c, quarter)


class TestConstructionInvariants:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QuadFunc((0, 1), [[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0], 0.0)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            QuadFunc((0,), [[-1.0]], [0.0], 0.0)

    @pytest.mark.parametrize("A, b, c", [
        ([[1.0, np.nan], [np.nan, 1.0]], [0.0, 0.0], 0.0),
        (np.eye(2), [0.0, np.inf], 0.0),
        (np.eye(2), [0.0, 0.0], -np.inf),
    ])
    def test_rejects_non_finite(self, A, b, c):
        with pytest.raises(ValueError, match="finite"):
            QuadFunc((0, 1), A, b, c)

    def test_rejects_duplicate_vars(self):
        with pytest.raises(ValueError):
            QuadFunc((0, 0), np.eye(2), np.zeros(2), 0.0)

    def test_immutable(self):
        q = QuadFunc((0,), [[1.0]], [0.0], 0.0)
        with pytest.raises(AttributeError):
            q.c = 5.0


class TestDerivedQuadratics:
    """What quad_sum, fix_vars and partial_minimize build skips the symmetry
    and PSD tests; PSD is enforced on each block that is eliminated."""

    def test_indefinite_block_is_unbounded_below(self):
        q = QuadFunc._trusted((0, 1, 2), np.diag([1.0, -0.5, 2.0]), np.zeros(3), 0.0)
        with pytest.raises(UnboundedBelow, match="indefinite") as exc_info:
            q.partial_minimize([1, 2])
        assert exc_info.value.block_size == 2 and exc_info.value.min_eig == -0.5
        with pytest.raises(UnboundedBelow, match="indefinite") as exc_info:
            q.global_minimize()
        assert exc_info.value.block_size == 3 and exc_info.value.min_eig == -0.5

    def test_rounding_level_negative_eigenvalue_is_accepted(self):
        q = QuadFunc._trusted((0, 1), np.diag([1.0, -1e-12]), np.zeros(2), 0.0)
        _, amap = q.partial_minimize([1])
        assert amap.singular
        assert q.global_minimize()[0] == 0.0

    def test_duplicate_named_variables_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            quad_sum([QuadFunc((0,), [[1.0]], [0.0], 0.0)], (0, 1, 0))

    def test_fixing_a_nan_rejected(self):
        q = QuadFunc((0, 1), np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="finite"):
            q.fix_vars({0: np.nan})

    def test_overflowing_sum_rejected(self):
        q = QuadFunc((0,), [[1.0]], [0.0], 1e308)
        with pytest.raises(ValueError, match="finite"):
            quad_sum([q, q])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_derived_quadratics_equal_the_validated_constructor_bitwise(seed):
    """Sums, fixings and Schur complements are exactly symmetric, so the
    public constructor (symmetrize, check PSD) would store the same bits."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    p = random_quad(n, rng)
    q = random_quad(n, rng)
    q = QuadFunc(tuple(range(1, n + 1)), q.A, q.b, q.c)
    total = quad_sum([p, q])
    picks = [int(v) for v in rng.permutation(total.vars)]
    k = int(rng.integers(1, n))
    fixed = total.fix_vars({v: float(rng.standard_normal()) for v in picks[:k]})
    msg, _ = total.partial_minimize(picks[k:2 * k])
    for r in (total, fixed, msg):
        checked = QuadFunc(r.vars, r.A, r.b, r.c)
        assert np.array_equal(r.A, r.A.T)
        assert np.array_equal(checked.A, r.A) and np.array_equal(checked.b, r.b)
        assert checked.c == r.c


def _gathered_minimize(q, elim):
    """partial_minimize as it was before fronts were laid out
    kept-then-eliminated: A_xx, A_xy, A_yy, b_x and b_y are gathered from q
    at the kept and eliminated positions, each in q's order, with `take`."""
    elim = set(elim)
    xi = [i for i, v in enumerate(q.vars) if v not in elim]
    yi = [i for i, v in enumerate(q.vars) if v in elim]
    keep = tuple(q.vars[i] for i in xi)
    ys = tuple(q.vars[i] for i in yi)
    if not ys:
        return q, ArgminMap((), keep, np.zeros((0, len(keep))), np.zeros(0))
    rows = q.A.take(xi, 0)
    A_xx = rows.take(xi, 1)
    A_xy = rows.take(yi, 1)
    A_yy = q.A.take(yi, 0).take(yi, 1)
    b_y = q.b[yi]
    rhs = -np.column_stack((A_xy.T, 0.5 * b_y))
    Z, _, min_eig, singular = _eliminate(A_yy, rhs, b_y, np.linalg.norm(q.b))
    M, m = Z[:, :-1], Z[:, -1]
    A_new = _sym(A_xx + A_xy @ M)
    b_new = q.b[xi] + 2.0 * (A_xy @ m)
    c_new = float(q.c + 0.5 * (b_y @ m))
    amap = ArgminMap(ys, keep, M, m, min_eig, singular)
    return QuadFunc._trusted(keep, A_new, b_new, c_new), amap


def _elimination_bytes(minimize, q, elim):
    """Everything a partial minimization returns, as comparable bytes, or
    the type and message of what it raised."""
    try:
        msg, amap = minimize(q, elim)
    except Exception as exc:
        return type(exc), str(exc)
    return (msg.vars, msg.A.shape, msg.A.tobytes(), msg.b.tobytes(), np.float64(msg.c).tobytes(),
            amap.eliminated, amap.inputs, amap.M.shape, amap.M.tobytes(), amap.m.tobytes(),
            np.float64(amap.min_eig).tobytes(), amap.singular)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=30), rank=st.integers(min_value=0, max_value=30),
       ridge=st.booleans(), b_in_range=st.booleans(),
       elim_kind=st.sampled_from(("empty", "full", "random")),
       seed=st.integers(min_value=0, max_value=10_000))
def test_front_elimination_equals_the_gathered_elimination_bitwise(
        n, rank, ridge, b_in_range, elim_kind, seed):
    """partial_minimize, which lays its quadratic out kept-then-eliminated
    and reads the blocks as slices, returns the same bytes as the former
    gather-based elimination, or raises the same error with the same
    message: on rank-deficient and regularized matrices, with b in the range
    of A or generic, scrambled variable names, and empty, full or random
    elimination sets."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, min(rank, n))) * 10.0 ** int(rng.integers(-2, 3))
    A = G @ G.T
    if ridge:
        A += np.diag(rng.uniform(1e-3, 1e-1, n))
    b = A @ rng.standard_normal(n) if b_in_range else rng.standard_normal(n)
    names = [int(v) for v in rng.permutation(3 * n)[:n]]
    q = QuadFunc(names, A, b, float(rng.standard_normal()))
    if elim_kind == "empty":
        elim = []
    elif elim_kind == "full":
        elim = list(rng.permutation(names))
    else:
        share = rng.uniform()
        elim = [v for v in names if rng.random() < share]
    want = _elimination_bytes(_gathered_minimize, q, elim)
    assert _elimination_bytes(QuadFunc.partial_minimize, q, elim) == want
