"""Sampling, surrogate fits, approximate message passing, wire format.

The load-bearing check is the oracle reduction: with full-quadratic least
squares surrogates and enough samples, the approximate pipeline recovers
the exact messages and therefore the exact optimum.
"""

import re

import numpy as np
import pytest

from nervemp.bench import (
    fixture_triangle,
    gen_random_cover,
    gen_random_observations,
    gen_random_quads,
)
from nervemp.cover import Graph, SubgraphCover, build_nerve, direct_tree, spanning_tree
from nervemp.errors import InvalidInstance, SingularFit
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
        ss = sample_message(lambda X: np.full(X.shape[0], -4.0), [(-1, 1)], 30, 1,
                            variables=(0,))
        fit = fit_surrogate(ss, ApproxConfig(kind="one_hidden_layer"), 0)
        assert fit.fit_residual <= 1e-6  # interpolates the constant samples
        probe = np.linspace(-1, 1, 11)[:, None]
        # small wiggle between samples is inherent to the interpolation
        assert np.max(np.abs(fit.evaluate_batch(probe) + 4.0)) <= 0.02

    def test_analytic_gradient_matches_finite_differences(self):
        ss = sample_message(lambda X: X[:, 0] ** 2 + 0.5 * X[:, 1], [(-2, 2)] * 2, 80, 9,
                            variables=(0, 1))
        fit = fit_surrogate(ss, ApproxConfig(kind="one_hidden_layer", epochs=500), 3)
        X = np.array([[0.4, -0.9], [-1.2, 1.1]])
        g = fit.gradient_batch(X)
        for d in range(2):
            e = np.zeros(2)
            e[d] = 1e-6
            num = (fit.evaluate_batch(X + e) - fit.evaluate_batch(X - e)) / 2e-6
            assert np.max(np.abs(g[:, d] - num)) < 1e-4


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
        cfg = ApproxConfig(m=40, kind="one_hidden_layer", seed=77, box_radius=3.0, epochs=300)
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


class TestWireFormat:
    def test_round_trip_is_byte_stable(self):
        rng = np.random.default_rng(0)
        ss = sample_message(lambda X: X[:, 0] * X[:, 1], [(-2.5, 2.5), (-1.0, 3.5)],
                            9, 13, variables=(4, 7), edge=(2, 0))
        wire = ss.to_wire()
        back = SampleSet.from_wire(wire)
        assert back.variables == ss.variables
        assert back.edge == ss.edge
        assert back.box == ss.box
        assert np.array_equal(back.inputs, ss.inputs)
        assert np.array_equal(back.outputs, ss.outputs)
        assert back.to_wire() == wire

    def test_header_shape(self):
        ss = sample_message(lambda X: np.zeros(len(X)), [(-1, 1)], 2, 5,
                            variables=(3,), edge=(1, 2))
        lines = ss.to_wire().splitlines()
        assert lines[0] == "edge:1,2"
        assert lines[1] == "vars:3"
        assert len(lines) == 3 + 2


    @pytest.mark.parametrize("text, message", [
        ("", "line 1: expected the 'edge:' header"),
        ("edge:1,2\nbox:-1.0,1.0\n0.5,1.0\n", "line 2: expected the 'vars:' header"),
        ("edge:1,2\nvars:3\nbox:-1.0,1.0\n0.5,1.0\n0.5,abc\n",
         "line 5: '0.5,abc': could not convert string to float"),
        ("edge:1,2\nvars:3,4\nbox:-1.0,1.0;-1.0,1.0\n\n0.5,0.25\n",
         "line 5: '0.5,0.25': 2 values, expected 3"),
    ])
    def test_malformed_text_names_the_line(self, text, message):
        with pytest.raises(InvalidInstance, match=re.escape(message)):
            SampleSet.from_wire(text)


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
