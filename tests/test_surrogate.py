"""Sampling, surrogate fits and approximate message passing.

The load-bearing check is the oracle reduction: with full-quadratic least
squares surrogates and enough samples, the approximate pipeline recovers
the exact messages and therefore the exact optimum.
"""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nervemp.bench import (
    fixture_triangle,
    gen_random_cover,
    gen_random_observations,
    gen_random_quads,
)
from nervemp.cover import Graph, SubgraphCover, build_nerve, direct_tree, spanning_tree
from nervemp import surrogate
from nervemp.errors import (DimensionMismatch, InnerOptimizationFailed, SingularFit,
                            UnboundedBelow)
from nervemp.exactmp import local_solve, regularize, run_message_passing
from nervemp.quadform import QuadFunc
from nervemp.surrogate import (
    ApproxConfig,
    MLPSurrogate,
    QuadSurrogate,
    SampleSet,
    approx_message_passing,
    error_ratio,
    fit_surrogate,
    identifiability_threshold,
    quad_coeff_count,
    sample_message,
)


class TestSampleMessage:
    def test_constant_zero_message(self):
        ss = sample_message(lambda X: np.zeros(X.shape[0]), [(-1, 1)], 7, 0, variables=(4,))
        assert np.array_equal(ss.outputs, np.zeros(7))

    def test_square_on_seeded_points(self):
        ss = sample_message(lambda X: X[:, 0] ** 2, [(-1, 1)], 5, 3, variables=(0,))
        assert np.allclose(ss.outputs, ss.inputs[:, 0] ** 2)
        assert np.all(np.abs(ss.inputs) <= 1.0)
        again = sample_message(lambda X: X[:, 0] ** 2, [(-1, 1)], 5, 3, variables=(0,))
        assert np.array_equal(ss.inputs, again.inputs)

    def test_quadratic_matches_evaluate_oracle(self):
        rng = np.random.default_rng(5)
        G = rng.standard_normal((3, 3))
        q = QuadFunc((0, 1, 2), (G @ G.T + G.T @ G) / 6 + np.eye(3), rng.standard_normal(3), 0.5)
        ss = sample_message(q.evaluate_batch, [(-2, 2)] * 3, 50, 11, variables=q.vars)
        for x, y in zip(ss.inputs, ss.outputs):
            assert abs(q.evaluate(x) - y) <= 1e-12 * max(1.0, abs(y))

    @pytest.mark.parametrize("box", [((-1, 1),), ((-1, 1), (-1, 1), (-1, 1))])
    def test_box_of_the_wrong_length_rejected(self, box):
        with pytest.raises(DimensionMismatch, match="intervals for 2 variables"):
            SampleSet(variables=(0, 1), box=box, inputs=np.zeros((3, 2)), outputs=np.zeros(3))

    @pytest.mark.parametrize("box, inputs, outputs, message", [
        ([(-1, 1)], [[np.nan]], [0.0], "inputs and outputs must be finite"),
        ([(-1, 1)], [[np.inf]], [0.0], "inputs and outputs must be finite"),
        ([(-1, 1)], [[0.0]], [np.nan], "inputs and outputs must be finite"),
        ([(-1, 1)], [[0.0]], [-np.inf], "inputs and outputs must be finite"),
        ([(np.nan, np.inf)], [[0.0]], [0.0], "box interval 0 is (nan, inf)"),
        ([(-1, np.inf)], [[0.0]], [0.0], "box interval 0 is (-1, inf)"),
        ([(1, -1)], [[0.0]], [0.0], "box interval 0 is (1, -1)"),
    ])
    def test_non_finite_or_inverted_rejected(self, box, inputs, outputs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SampleSet(variables=(0,), box=tuple(box), inputs=np.array(inputs),
                      outputs=np.array(outputs))


class TestFitQuadraticLS:
    def test_recovers_exact_coefficients(self):
        rng = np.random.default_rng(7)
        G = rng.standard_normal((4, 4))
        q = QuadFunc((0, 1, 2, 3), G @ G.T / 4 + 0.2 * np.eye(4), rng.standard_normal(4), -1.3)
        m = quad_coeff_count(4)
        ss = sample_message(q.evaluate_batch, [(-3, 3)] * 4, m + 10, 2, variables=q.vars)
        fit = fit_surrogate(ss, ApproxConfig(kind="quadratic_ls"), 0)
        assert isinstance(fit, QuadSurrogate)
        assert np.max(np.abs(fit.quad.A - q.A)) <= 1e-6
        assert np.max(np.abs(fit.quad.b - q.b)) <= 1e-6
        assert abs(fit.quad.c - q.c) <= 1e-6

    def test_constant_samples_give_constant_surrogate(self):
        ss = sample_message(lambda X: np.full(X.shape[0], 2.5), [(-1, 1)] * 2, 20, 4,
                            variables=(0, 1))
        fit = fit_surrogate(ss, ApproxConfig(kind="quadratic_ls"), 0)
        probe = np.array([[0.3, -0.4], [0.9, 0.1]])
        assert np.max(np.abs(fit.evaluate_batch(probe) - 2.5)) <= 1e-8

    def test_too_few_samples_raise(self):
        ss = sample_message(lambda X: X[:, 0] ** 2, [(-1, 1)] * 3, 5, 0, variables=(0, 1, 2))
        with pytest.raises(SingularFit):
            fit_surrogate(ss, ApproxConfig(kind="quadratic_ls"), 0)

    def test_degenerate_design_raises(self):
        inputs = np.zeros((20, 2))  # all samples identical
        ss = SampleSet(variables=(0, 1), box=((-1, 1), (-1, 1)),
                       inputs=inputs, outputs=np.zeros(20))
        with pytest.raises(SingularFit):
            fit_surrogate(ss, ApproxConfig(kind="quadratic_ls"), 0)


class TestFitMLP:
    def test_square_fit_under_pilot_tolerance(self):
        ss = sample_message(lambda X: X[:, 0] ** 2, [(-2, 2)], 80, 42, variables=(0,))
        fit = fit_surrogate(ss, ApproxConfig(kind="one_hidden_layer"), 7)
        assert isinstance(fit, MLPSurrogate)
        grid = np.linspace(-2.0, 2.0, 100)[:, None]
        err = np.max(np.abs(fit.evaluate_batch(grid) - grid[:, 0] ** 2))
        assert err <= 0.05

    def test_constant_samples_give_constant_surrogate(self):
        """Constant samples standardize to zero targets, whose ridge solution
        is the zero output layer: the surrogate is the constant itself."""
        ss = sample_message(lambda X: np.full(X.shape[0], -4.0), [(-1, 1)], 30, 1,
                            variables=(0,))
        fit = fit_surrogate(ss, ApproxConfig(kind="one_hidden_layer"), 0)
        assert fit.fit_residual <= 1e-6
        assert not fit.W2.any() and fit.b2 == 0.0
        probe = np.linspace(-1, 1, 11)[:, None]
        assert np.array_equal(fit.evaluate_batch(probe), np.full(11, -4.0))

    def test_plateau_stops_an_easy_fit_before_the_cap(self):
        """Three samples of a square: the training loss falls to the rounding
        floor and stays there, so the plateau stop ends the run early and
        `epochs` says when."""
        ss = sample_message(lambda X: X[:, 0] ** 2, [(-1, 1)], 3, 1, variables=(0,))
        fit = fit_surrogate(ss, ApproxConfig(kind="one_hidden_layer"), 1)
        assert surrogate.PLATEAU_WINDOW <= fit.epochs < surrogate.EPOCH_CAP

    @pytest.mark.parametrize("m, dim", [(80, 1), (80, 6), (20, 6)])
    def test_output_layer_solves_the_ridge_normal_equations(self, m, dim):
        """(W2, b2) is the ridge solution over F = [relu(Z W1 + b1), 1] for a
        ridge on the fixed grid, including with fewer samples than features."""
        ss = sample_message(lambda X: np.sin(X).sum(axis=1) + X[:, 0] ** 2,
                            [(-2, 2)] * dim, m, 9, variables=tuple(range(dim)))
        fit = fit_surrogate(ss, ApproxConfig(kind="one_hidden_layer"), 3)
        Z = (ss.inputs - fit.x_mean) / fit.x_scale
        F = np.concatenate([np.maximum(Z @ fit.W1 + fit.b1, 0.0), np.ones((m, 1))], axis=1)
        t = (ss.outputs - fit.y_mean) / fit.y_scale
        theta = np.append(fit.W2, fit.b2)
        rhs = F.T @ t
        rel = min(
            np.linalg.norm((F.T @ F + ridge * np.eye(F.shape[1])) @ theta - rhs)
            for ridge in surrogate.RIDGE_GRID
        ) / np.linalg.norm(rhs)
        assert rel <= 1e-10

    def test_diverging_training_is_a_failed_fit(self, monkeypatch):
        """A step size too large for the data drives the training loss to
        infinity: the fit fails as SingularFit, not in the SVD after it,
        and no overflow warning escapes."""
        monkeypatch.setattr(surrogate, "LEARNING_RATE", 1.0)
        ss = sample_message(lambda X: (X**2).sum(axis=1), [(-1, 1)] * 3, 40, 0,
                            variables=(0, 1, 2))
        with pytest.raises(SingularFit, match="training loss turned non-finite at epoch"):
            fit_surrogate(ss, ApproxConfig(kind="one_hidden_layer"), 1)

    def test_same_seed_fits_are_bit_identical(self):
        ss = sample_message(lambda X: X[:, 0] * X[:, 1], [(-2, 2)] * 2, 40, 5, variables=(0, 1))
        fits = [fit_surrogate(ss, ApproxConfig(kind="one_hidden_layer"), 11) for _ in range(2)]
        for name in ("W1", "b1", "W2"):
            assert np.array_equal(getattr(fits[0], name), getattr(fits[1], name))
        assert (fits[0].b2, fits[0].epochs, fits[0].fit_residual) == (
            fits[1].b2, fits[1].epochs, fits[1].fit_residual)

    def test_analytic_gradient_matches_finite_differences(self):
        """The reduced gradient of an objective that is the fit alone, with
        every variable free, is the fit's gradient."""
        ss = sample_message(lambda X: X[:, 0] ** 2 + 0.5 * X[:, 1], [(-2, 2)] * 2, 80, 9,
                            variables=(0, 1))
        fit = fit_surrogate(ss, ApproxConfig(kind="one_hidden_layer"), 3)
        X = np.array([[0.4, -0.9], [-1.2, 1.1]])
        objective = surrogate._NodeObjective((0, 1), [], [fit])
        _, g = objective.reduced([0, 1], np.zeros((2, 0)))(X)
        for d in range(2):
            e = np.zeros(2)
            e[d] = 1e-6
            num = (fit.evaluate_batch(X + e) - fit.evaluate_batch(X - e)) / 2e-6
            assert np.max(np.abs(g[:, d] - num)) < 1e-4


def _random_node_objective(seed, modes, root):
    """A node objective over 2-6 variables: a PSD quadratic plus one fitted
    rectifier child per entry of `modes`, whose variables are all free, all
    fixed or mixed.  Returns the objective, the free indices and the fixed
    rows (one empty row when `root`, all variables free)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    variables = tuple(sorted(rng.choice(50, size=n, replace=False).tolist()))
    if root:
        free, modes = np.arange(n), ["free"] * len(modes)
    else:
        free = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
    fixed = np.setdiff1d(np.arange(n), free)
    G = rng.standard_normal((n, n))
    quad = QuadFunc(variables, G @ G.T / n, rng.standard_normal(n), rng.standard_normal())
    mlps = []
    for mode in modes:
        if mode == "free":
            idx = rng.choice(free, size=int(rng.integers(1, free.size + 1)), replace=False)
        elif mode == "fixed":
            idx = rng.choice(fixed, size=int(rng.integers(1, fixed.size + 1)), replace=False)
        else:
            rest = rng.choice(n, size=int(rng.integers(0, n - 1)), replace=False)
            idx = np.unique(np.concatenate([[rng.choice(free), rng.choice(fixed)], rest]))
            rng.shuffle(idx)
        a, c = rng.standard_normal((2, idx.size))
        ss = sample_message(lambda X: np.sin(X @ a) + (X @ c) ** 2, [(-3, 3)] * idx.size, 12,
                            int(rng.integers(2**31)), variables=tuple(variables[k] for k in idx))
        mlps.append(fit_surrogate(ss, ApproxConfig(kind="one_hidden_layer"),
                                  int(rng.integers(2**31))))
    rows = 1 if root else 5
    fixed_rows = rng.uniform(-3, 3, size=(rows, fixed.size))
    return surrogate._NodeObjective(variables, [quad], mlps), free, fixed_rows


class TestReducedObjective:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.lists(st.sampled_from(["free", "fixed", "mixed"]), min_size=1, max_size=3),
           st.booleans())
    def test_value_and_gradient_match_the_embedded_objective(self, seed, modes, root):
        """The reduced value equals the objective at the embedded points, and
        the reduced gradient matches central differences of the objective
        (away from the rectifier kinks, where it is one-sided)."""
        objective, free, fixed_rows = _random_node_objective(seed, modes, root)
        n = len(objective.variables)
        rows = fixed_rows.shape[0]
        rng = np.random.default_rng(seed + 1)
        Xf = rng.uniform(-3, 3, size=(rows, free.size))
        embed = np.zeros((rows, n))
        embed[:, free] = Xf
        embed[:, np.setdiff1d(np.arange(n), free)] = fixed_rows
        value, grad = objective.reduced(free, fixed_rows)(Xf)
        full = objective.evaluate_batch(embed)
        assert np.all(np.abs(value - full) <= 1e-12 * (1.0 + np.abs(full)))

        def hidden_signs(X):
            return np.concatenate(
                [((X[:, idx] - s.x_mean) / s.x_scale @ s.W1 + s.b1) > 0
                 for s, idx in zip(objective.mlps, objective._mlp_idx)], axis=1)

        h = 1e-6
        for d, k in enumerate(free):
            step = np.zeros(n)
            step[k] = h
            smooth = (hidden_signs(embed + step) == hidden_signs(embed - step)).all(axis=1)
            num = (objective.evaluate_batch(embed + step)
                   - objective.evaluate_batch(embed - step)) / (2 * h)
            assert np.all(np.abs(grad[smooth, d] - num[smooth]) <= 1e-6 * (1.0 + np.abs(full[smooth])))


class TestInnerDescent:
    @staticmethod
    def _recording(monkeypatch):
        """Replace the descent with one that counts the value-and-gradient
        passes of each call and keeps its pass and its result."""
        descent = surrogate._batched_descent
        runs = []

        def recording(fun_grad, X0, P, bound):
            run = {"passes": 0, "fun_grad": fun_grad}
            runs.append(run)

            def counted(X):
                run["passes"] += 1
                return fun_grad(X)
            run["result"] = descent(counted, X0, P, bound)
            return run["result"]
        monkeypatch.setattr(surrogate, "_batched_descent", recording)
        return runs

    @pytest.mark.parametrize("steps", [0, 1, 3])
    def test_one_pass_per_step_plus_one_at_the_start(self, monkeypatch, steps):
        """With a budget too short to settle, the first descent (edge 0 -> 1)
        runs every step of it, and evaluates one pass per step and one at
        its start."""
        runs = self._recording(monkeypatch)
        monkeypatch.setattr(surrogate, "DESCENT_STEPS", steps)
        inst = fixture_triangle()
        dt = direct_tree(spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 1)
        cfg = ApproxConfig(m=10, kind="one_hidden_layer", seed=1)
        with pytest.raises(InnerOptimizationFailed):
            approx_message_passing(inst.cover, inst.quads, inst.observations, dt, cfg)
        assert [run["passes"] for run in runs] == [steps + 1]

    def test_returned_gradient_norms_are_those_of_the_returned_points(self, monkeypatch):
        """A row keeps the gradient of the last point it accepted, so the
        norms the descent returns are a fresh pass's at its final points, on
        the inner descent and on the root's."""
        runs = self._recording(monkeypatch)
        inst = fixture_triangle()
        dt = direct_tree(spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 1)
        cfg = ApproxConfig(m=10, kind="one_hidden_layer", seed=1)
        approx_message_passing(inst.cover, inst.quads, inst.observations, dt, cfg)
        assert [len(run["result"][0]) for run in runs] == [10 * surrogate.INNER_RESTARTS,
                                                           cfg.restarts]
        for run in runs:
            X, f, settled, gnorm = run["result"]
            value, grad = run["fun_grad"](X)
            assert 2 <= run["passes"] <= surrogate.DESCENT_STEPS + 1
            assert settled.all()
            assert np.array_equal(value, f)
            assert np.array_equal(np.sqrt(np.einsum("bi,bi->b", grad, grad)), gnorm)


class TestApproxMessagePassing:
    def test_quadratic_ls_reduces_to_exact(self):
        inst = fixture_triangle()
        stree = spanning_tree(build_nerve(inst.cover), "bfs", inst.cover)
        dt = direct_tree(stree, 0)
        m = identifiability_threshold(inst.cover, dt)
        cfg = ApproxConfig(m=m, kind="quadratic_ls", seed=5)
        value, yhat, diag = approx_message_passing(
            inst.cover, inst.quads, inst.observations, dt, cfg
        )
        run = run_message_passing(inst.cover, inst.quads, inst.observations, dt)
        exact, _, _ = local_solve(run)
        assert abs(value - exact) <= 1e-5 * max(1.0, abs(exact))

    def test_single_subgraph_no_sampling(self):
        g = Graph(2, [(0, 1)])
        cover = SubgraphCover(g, [(0, 1)], [(0,)])
        quads = (QuadFunc((0, 1), [[1.0, 0.2], [0.2, 2.0]], [0.0, 1.0], 0.0),)
        obs = {0: 1.0}
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 0)
        cfg = ApproxConfig(m=10, kind="quadratic_ls", seed=1)
        value, yhat, diag = approx_message_passing(cover, quads, obs, dt, cfg)
        assert diag["exchanges"] == 0
        run = run_message_passing(cover, quads, obs, dt)
        exact, _, _ = local_solve(run)
        assert abs(value - exact) < 1e-12

    def test_failed_fit_names_the_edge(self):
        inst = fixture_triangle()
        dt = direct_tree(spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 0)
        cfg = ApproxConfig(m=2, kind="quadratic_ls", seed=5)
        with pytest.raises(SingularFit, match=r"edge \(\d+ -> \d+\): 2 samples cannot"):
            approx_message_passing(inst.cover, inst.quads, inst.observations, dt, cfg)

    def test_unsettled_descent_names_the_edge_and_counts_the_rows(self, monkeypatch):
        """With no descent steps every inner row keeps its start, whose
        gradient is above tolerance: all m x INNER_RESTARTS rows of the
        edge's sampling descent are unsettled."""
        monkeypatch.setattr(surrogate, "DESCENT_STEPS", 0)
        inst = fixture_triangle()
        dt = direct_tree(spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 1)
        cfg = ApproxConfig(m=10, kind="one_hidden_layer", seed=1)
        with pytest.raises(InnerOptimizationFailed) as exc_info:
            approx_message_passing(inst.cover, inst.quads, inst.observations, dt, cfg)
        rows = 10 * surrogate.INNER_RESTARTS
        found = re.search(r"message along edge \(0 -> 1\): .*: (\d+) of (\d+) rows unsettled, "
                          r"largest gradient norm (\S+)$", str(exc_info.value))
        assert found, str(exc_info.value)
        assert (int(found[1]), int(found[2])) == (rows, rows)
        assert float(found[3]) > surrogate.GRAD_TOL
        assert exc_info.value.edge == (0, 1)

    def test_unbounded_edge_names_the_edge_and_the_block(self):
        """The exact engine's unbounded chain: the leaf's message is sampled
        through a partial minimization whose block is unbounded."""
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        cover = SubgraphCover(g, [(0, 1, 2), (2, 3)], [(), ()])
        quads = (
            QuadFunc((0, 1, 2), np.diag([2.0, 1e-12, 1.0]), [0.0, 1.0, 0.0], 0.0),
            QuadFunc((2, 3), np.eye(2), np.zeros(2), 0.0),
        )
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 1)
        with pytest.raises(UnboundedBelow) as exc_info:
            approx_message_passing(cover, quads, {}, dt, ApproxConfig(m=10, seed=1))
        exc = exc_info.value
        assert (exc.edge, exc.block_size, exc.min_eig) == ((0, 1), 2, 1e-12)
        assert "message along edge (0 -> 1): minimum is -inf" in str(exc)
        assert "eliminating 2 variables" in str(exc)
        assert "smallest eigenvalue 1e-12" in str(exc)

    @pytest.mark.parametrize("kind", ["quadratic_ls", "one_hidden_layer"])
    def test_unbounded_root_raises(self, kind):
        """A one-subgraph instance whose linear term lies in the kernel of A:
        the pure-quadratic root has no minimum, under either surrogate."""
        cover = SubgraphCover(Graph(2, [(0, 1)]), [(0, 1)], [()])
        quads = (QuadFunc((0, 1), [[1.0, 0.0], [0.0, 0.0]], [0.0, 1.0], 0.0),)
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 0)
        with pytest.raises(UnboundedBelow):
            approx_message_passing(cover, quads, {}, dt, ApproxConfig(m=10, kind=kind, seed=1))

    def test_root_factors_its_block_once(self, monkeypatch):
        """Under quadratic least squares each node factors its quadratic part
        once for the sampling center, and the root reads its answer off that
        factorization: one global_minimize per node, one eigh per node and
        one per edge message."""
        inst = fixture_triangle()
        dt = direct_tree(spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 0)
        cfg = ApproxConfig(m=identifiability_threshold(inst.cover, dt), kind="quadratic_ls",
                           seed=5)
        calls = Counter()

        def counting(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        counting(QuadFunc, "global_minimize")
        counting(np.linalg, "eigh")
        approx_message_passing(inst.cover, inst.quads, inst.observations, dt, cfg)
        assert calls["global_minimize"] == inst.cover.t == 3
        assert calls["eigh"] == inst.cover.t + len(dt.edges) == 5

    def test_single_exchange_per_edge(self):
        cover = gen_random_cover(5, seed=50)
        quads = regularize(gen_random_quads(cover, 51), 1e-2, 0)
        obs = gen_random_observations(cover, 52)
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 0)
        cfg = ApproxConfig(m=identifiability_threshold(cover, dt), kind="quadratic_ls", seed=2)
        _, _, diag = approx_message_passing(cover, quads, obs, dt, cfg)
        assert diag["exchanges"] == len(dt.edges)
        assert len({tuple(d["edge"]) for d in diag["edges"]}) == len(dt.edges)

    def test_deterministic_for_fixed_seed(self):
        inst = fixture_triangle()
        dt = direct_tree(spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 1)
        cfg = ApproxConfig(m=40, kind="one_hidden_layer", seed=77, box_radius=3.0)
        v1, y1, _ = approx_message_passing(inst.cover, inst.quads, inst.observations, dt, cfg)
        v2, y2, _ = approx_message_passing(inst.cover, inst.quads, inst.observations, dt, cfg)
        assert v1 == v2
        assert y1 == y2

    def test_mlp_run_lands_near_exact(self):
        # the optimum here is small against the message dynamic range, so
        # the relative band is intentionally coarse
        inst = fixture_triangle()
        dt = direct_tree(spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 0)
        run = run_message_passing(inst.cover, inst.quads, inst.observations, dt)
        exact, _, _ = local_solve(run)
        cfg = ApproxConfig(m=80, kind="one_hidden_layer", seed=3, box_radius=2.0)
        value, _, _ = approx_message_passing(inst.cover, inst.quads, inst.observations, dt, cfg)
        assert error_ratio(value, exact) < 25.0


class TestErrorRatio:
    def test_exact_match_is_zero(self):
        assert error_ratio(3.25, 3.25) == 0.0

    def test_five_percent(self):
        assert abs(error_ratio(105.0, 100.0) - 5.0) < 1e-12

    def test_guard_near_zero_truth(self):
        assert error_ratio(1e-9, 0.0) == 100.0 * 1e-9 / 1e-6


class TestIdentifiability:
    def test_coefficient_count(self):
        assert quad_coeff_count(0) == 1
        assert quad_coeff_count(1) == 3
        assert quad_coeff_count(3) == 10

    def test_threshold_covers_every_edge(self):
        cover = gen_random_cover(6, seed=6, extra_edge_prob=0.4)
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 0)
        from nervemp.cover import compute_partitions

        dims = [len(p.x_vars) + len(p.z_vars) for p in compute_partitions(cover, dt).values()]
        assert identifiability_threshold(cover, dt) == max(quad_coeff_count(d) for d in dims)
