"""Exact message passing: exactness, reconstruction, regularization.

The centralized solver acts as the oracle throughout: embedding every
local function over the full graph, fixing the observations, and
minimizing in one shot must agree with any tree-structured elimination.
"""

import dataclasses
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nervemp.bench import (
    fixture_eg32,
    fixture_triangle,
    gen_random_cover,
    gen_random_observations,
    gen_random_quads,
)
from nervemp.cover import (
    Graph,
    SpanningTree,
    SubgraphCover,
    build_nerve,
    compute_partitions,
    direct_tree,
    spanning_tree,
)
from nervemp import cover as cover_module, exactmp
from nervemp.errors import InvalidInstance, MissingVariable, NonUniqueArgmin, UnboundedBelow
from nervemp.exactmp import (
    back_substitute,
    centralized_solve,
    local_solve,
    message_digest,
    regularize,
    run_message_passing,
)
from nervemp.quadform import QuadFunc, quad_sum
from nervemp.surrogate import ApproxConfig, approx_message_passing


def random_instance(t, seed, rank_deficient=False, **cover_kw):
    cover = gen_random_cover(t, seed, **cover_kw)
    quads = gen_random_quads(cover, seed + 1, rank_deficient=rank_deficient)
    obs = gen_random_observations(cover, seed + 2)
    return cover, quads, obs


class TestRunMessagePassing:
    def test_triangle_both_trees_agree_with_direct_minimum(self):
        """The aggregated minimum equals the direct minimum of the summed
        leaf messages plus the root function, on both spanning trees."""
        inst = fixture_triangle()
        cover, quads, obs = inst.cover, inst.quads, inst.observations
        cval, _, _ = centralized_solve(cover, quads, obs)
        star = SpanningTree(nodes=(0, 1, 2), edges=((0, 1), (0, 2)), complement=((1, 2),))
        chain = SpanningTree(nodes=(0, 1, 2), edges=((1, 2), (0, 2)), complement=((0, 1),))
        for stree in (star, chain):
            run = run_message_passing(cover, quads, obs, direct_tree(stree, 0))
            value, _, _ = run.aggregated.global_minimize()
            assert abs(value - cval) <= 1e-8 * max(1.0, abs(cval))
        # star tree: two concurrent leaf messages summed at the root; each
        # leaf retains its shared nodes with the root AND with the
        # complement-edge neighbor
        run = run_message_passing(cover, quads, obs, direct_tree(star, 0))
        assert run.messages[1].vars == (6, 8)
        assert run.messages[2].vars == (7, 8)
        assert run.aggregated.vars == (1, 6, 7, 8)  # root private + all shared
        own = quads[0].fix_vars({v: obs[v] for v in cover.observables[0]})
        manual = own + run.messages[1] + run.messages[2]
        direct, _, _ = manual.global_minimize()
        agg, _, _ = run.aggregated.global_minimize()
        assert abs(direct - agg) < 1e-12

    def test_single_subgraph_passthrough(self):
        g = Graph(3, [(0, 1), (1, 2)])
        cover = SubgraphCover(g, [(0, 1, 2)], [(0,)])
        rng = np.random.default_rng(0)
        A = np.eye(3) + 0.1
        quads = (QuadFunc((0, 1, 2), (A + A.T) / 2, rng.standard_normal(3), 0.0),)
        obs = {0: 1.5}
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 0)
        run = run_message_passing(cover, quads, obs, dt)
        assert run.edge_records == {}
        expect = quads[0].fix_vars(obs)
        assert np.allclose(run.aggregated.A, expect.A)
        assert np.allclose(run.aggregated.b, expect.b)

    def test_exactness_on_random_regularized_instances(self):
        for seed in range(20):
            t = 2 + seed % 4
            cover, quads, obs = random_instance(t, 1000 + seed)
            quads = regularize(quads, 1e-3, seed)
            cval, xhat, _ = centralized_solve(cover, quads, obs)
            nerve = build_nerve(cover)
            for strategy, kw in (("bfs", {}), ("random", {"seed": seed}), ("max_overlap", {})):
                stree = spanning_tree(nerve, strategy, cover, **kw)
                for root in range(cover.t):
                    run = run_message_passing(cover, quads, obs, direct_tree(stree, root))
                    value, yhat, kernel = local_solve(run)
                    assert abs(value - cval) <= 1e-8 * max(1.0, abs(cval))
                    for var, y in zip(run.aggregated.vars, yhat):
                        assert abs(y - xhat[var]) <= 1e-6

    def test_messages_are_psd_and_single_exchange(self):
        cover, quads, obs = random_instance(5, 77)
        quads = regularize(quads, 1e-3, 0)
        stree = spanning_tree(build_nerve(cover), "bfs", cover)
        dt = direct_tree(stree, 0)
        run = run_message_passing(cover, quads, obs, dt)
        assert len(run.edge_records) == len(dt.edges)
        for i, msg in run.messages.items():
            if len(msg.vars):
                assert np.linalg.eigvalsh(msg.A)[0] >= -1e-9 * (
                    1 + np.abs(np.linalg.eigvalsh(msg.A)).max()
                )

    def test_missing_observation_rejected(self):
        inst = fixture_eg32()
        dt = direct_tree(spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 1)
        with pytest.raises(MissingVariable):
            run_message_passing(inst.cover, inst.quads, {0: 1.0}, dt)

    def test_quadratic_outside_its_subgraph_rejected_by_every_solver(self):
        """Quadratic 0 also covers node 3, which only subgraph 2 holds: the
        loader's rule, applied by both engines and the oracle."""
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        cover = SubgraphCover(g, [(0, 1), (1, 2), (2, 3)], [(0,), (), (3,)])
        quads = (
            QuadFunc((0, 1, 3), np.eye(3), [1.0, -1.0, 0.5], 0.0),
            QuadFunc((1, 2), np.eye(2), [0.0, 1.0], 0.0),
            QuadFunc((2, 3), np.eye(2), [-1.0, 0.0], 0.0),
        )
        obs = {0: 1.0, 3: -2.0}
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 1)
        message = re.escape("quadratic 0 uses nodes [3] outside subgraph 0")
        with pytest.raises(InvalidInstance, match=message):
            run_message_passing(cover, quads, obs, dt)
        with pytest.raises(InvalidInstance, match=message):
            approx_message_passing(cover, quads, obs, dt, ApproxConfig(m=10, seed=1))
        with pytest.raises(InvalidInstance, match=message):
            centralized_solve(cover, quads, obs)

    def test_quadratic_count_rejected_by_every_solver(self):
        """One quadratic short: the loader's rule and message, applied by
        both engines and the oracle."""
        inst = fixture_triangle()
        quads = inst.quads[:-1]
        dt = direct_tree(spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 0)
        message = re.escape("2 quadratics declared for 3 subgraphs")
        with pytest.raises(InvalidInstance, match=message):
            run_message_passing(inst.cover, quads, inst.observations, dt)
        with pytest.raises(InvalidInstance, match=message):
            approx_message_passing(inst.cover, quads, inst.observations, dt,
                                   ApproxConfig(m=10, seed=1))
        with pytest.raises(InvalidInstance, match=message):
            centralized_solve(inst.cover, quads, inst.observations)

    def test_unbounded_reports_the_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        cover = SubgraphCover(g, [(0, 1), (1, 2)], [(), ()])
        # node 0 is private to the leaf and purely linear: min over it is -inf
        quads = (
            QuadFunc((0, 1), np.zeros((2, 2)), [1.0, 0.0], 0.0),
            QuadFunc((1, 2), np.eye(2), np.zeros(2), 0.0),
        )
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 1)
        with pytest.raises(UnboundedBelow) as exc_info:
            run_message_passing(cover, quads, {}, dt)
        assert exc_info.value.edge == (0, 1)

    def test_unbounded_names_the_edge_and_the_block(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        cover = SubgraphCover(g, [(0, 1, 2), (2, 3)], [(), ()])
        # nodes 0 and 1 are private to the leaf; node 1 has curvature far
        # below the singular cutoff and a linear term, so min over it is -inf
        quads = (
            QuadFunc((0, 1, 2), np.diag([2.0, 1e-12, 1.0]), [0.0, 1.0, 0.0], 0.0),
            QuadFunc((2, 3), np.eye(2), np.zeros(2), 0.0),
        )
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 1)
        with pytest.raises(UnboundedBelow) as exc_info:
            run_message_passing(cover, quads, {}, dt)
        exc = exc_info.value
        assert (exc.edge, exc.block_size, exc.min_eig) == ((0, 1), 2, 1e-12)
        assert "(0 -> 1)" in str(exc)
        assert "eliminating 2 variables" in str(exc)
        assert "smallest eigenvalue 1e-12" in str(exc)


class TestLocalSolve:
    def test_strictly_convex_unique(self):
        cover, quads, obs = random_instance(3, 5)
        quads = regularize(quads, 1e-2, 0)
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 0)
        run = run_message_passing(cover, quads, obs, dt)
        _, _, kernel = local_solve(run)
        assert kernel.shape[1] == 0

    def test_pinned_fixture_free_direction(self):
        """At the second cluster's root the minimizer set is a line with a
        free private-node direction."""
        inst = fixture_eg32()
        dt = direct_tree(spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 1)
        run = run_message_passing(inst.cover, inst.quads, inst.observations, dt)
        value, yhat, kernel = local_solve(run)
        assert abs(value) < 1e-8
        assert kernel.shape[1] == 1
        y2_row = run.aggregated.vars.index(6)
        assert abs(kernel[y2_row, 0]) > 0.1  # node 6 is genuinely free


class TestBackSubstitute:
    def test_two_subgraph_path(self):
        cover, quads, obs = random_instance(2, 31)
        quads = regularize(quads, 1e-2, 1)
        cval, xhat, _ = centralized_solve(cover, quads, obs)
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 0)
        run = run_message_passing(cover, quads, obs, dt)
        _, yhat, _ = local_solve(run)
        xfull = back_substitute(run, yhat)
        assert np.max(np.abs(xfull - xhat)) <= 1e-6

    def test_single_subgraph_identity(self):
        g = Graph(2, [(0, 1)])
        cover = SubgraphCover(g, [(0, 1)], [(0,)])
        quads = (QuadFunc((0, 1), np.eye(2), np.zeros(2), 0.0),)
        obs = {0: 2.0}
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 0)
        run = run_message_passing(cover, quads, obs, dt)
        _, yhat, _ = local_solve(run)
        xfull = back_substitute(run, yhat)
        assert xfull[0] == 2.0 and abs(xfull[1]) < 1e-12

    def test_twenty_random_instances_match_centralized(self):
        for seed in range(20):
            cover, quads, obs = random_instance(2 + seed % 4, 400 + seed)
            quads = regularize(quads, 1e-3, seed)
            _, xhat, _ = centralized_solve(cover, quads, obs)
            stree = spanning_tree(build_nerve(cover), "bfs", cover)
            run = run_message_passing(cover, quads, obs, direct_tree(stree, seed % cover.t))
            value, yhat, _ = local_solve(run)
            xfull = back_substitute(run, yhat)
            assert np.max(np.abs(xfull - xhat)) <= 1e-6
            total = QuadFunc.zero(cover.graph.nodes)
            for q in quads:
                total = total + q.embed(cover.graph.nodes)
            assert abs(total.evaluate(xfull) - value) <= 1e-8 * max(1.0, abs(value))

    def test_node_unused_by_any_quadratic_reconstructs_to_zero(self):
        g = Graph(3, [(0, 1), (1, 2)])
        cover = SubgraphCover(g, [(0, 1, 2)], [(0,)])
        quads = (QuadFunc((0, 1), [[1.0, 0.2], [0.2, 2.0]], [0.0, 1.0], 0.0),)
        obs = {0: 1.0}
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 0)
        run = run_message_passing(cover, quads, obs, dt)
        _, yhat, _ = local_solve(run)
        xfull = back_substitute(run, yhat)
        _, xhat_c, _ = centralized_solve(cover, quads, obs)
        assert xfull[2] == 0.0
        assert np.max(np.abs(xfull - xhat_c)) <= 1e-9

    def test_needs_no_messages(self):
        """The argmin maps and the aggregated message are all that
        back-substitution reads."""
        cover, quads, obs = random_instance(6, 410)
        quads = regularize(quads, 1e-3, 2)
        stree = spanning_tree(build_nerve(cover), "bfs", cover)
        for root in range(cover.t):
            run = run_message_passing(cover, quads, obs, direct_tree(stree, root))
            _, yhat, _ = local_solve(run)
            bare = dataclasses.replace(run, messages={})
            assert np.array_equal(back_substitute(bare, yhat), back_substitute(run, yhat))

    def test_singular_elimination_raises(self):
        # two private nodes enter the leaf only through their sum, so the
        # eliminated block is singular and reconstruction must refuse
        g = Graph(4, [(0, 2), (1, 2), (2, 3)])
        cover = SubgraphCover(g, [(0, 1, 2), (2, 3)], [(), ()])
        q1 = QuadFunc((0, 1, 2), [[1, 1, -1], [1, 1, -1], [-1, -1, 1.0]], np.zeros(3), 0.0)
        q2 = QuadFunc((2, 3), [[1, -1], [-1, 2.0]], np.zeros(2), 0.0)
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 1)
        run = run_message_passing(cover, (q1, q2), {}, dt)
        assert run.edge_records[(0, 1)].singular
        _, yhat, _ = local_solve(run)
        with pytest.raises(NonUniqueArgmin, match=r"edge \(0, 1\) was singular"):
            back_substitute(run, yhat)

    def test_root_minimizer_of_wrong_length_is_rejected(self):
        inst = fixture_triangle()
        dt = direct_tree(spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 0)
        run = run_message_passing(inst.cover, inst.quads, inst.observations, dt)
        _, yhat, _ = local_solve(run)
        for bad in (yhat[:-1], np.append(yhat, 0.0)):
            with pytest.raises(ValueError, match="root minimizer has length"):
                back_substitute(run, bad)


class TestCentralizedSolve:
    def test_all_zero_quadratics(self):
        g = Graph(3, [(0, 1), (1, 2)])
        cover = SubgraphCover(g, [(0, 1, 2)], [(0,)])
        quads = (QuadFunc.zero((0, 1, 2)),)
        value, xhat, kernel = centralized_solve(cover, quads, {0: 3.0})
        assert value == 0.0
        assert xhat[0] == 3.0
        assert kernel.shape[1] == 2  # both free nodes unconstrained

    def test_pinned_fixture_consistent_observation(self):
        inst = fixture_eg32()
        value, _, _ = centralized_solve(inst.cover, inst.quads, inst.observations)
        assert abs(value) < 1e-10

    def test_gradient_certificate(self):
        cover, quads, obs = random_instance(4, 999)
        quads = regularize(quads, 1e-3, 3)
        value, xhat, _ = centralized_solve(cover, quads, obs)
        total = QuadFunc.zero(cover.graph.nodes)
        for q in quads:
            total = total + q.embed(cover.graph.nodes)
        grad = 2.0 * total.A @ xhat + total.b
        free = [v for v in cover.graph.nodes if v not in set(cover.s_order)]
        assert np.max(np.abs(grad[free])) <= 1e-9 * (1 + np.abs(grad).max())


class TestRegularize:
    def test_zero_message_becomes_strictly_convex(self):
        inst = fixture_eg32()
        quads = regularize(inst.quads, 1e-3, 0)
        fixed = quads[0].fix_vars({0: 1.0, 1: -2.0})
        msg, _ = fixed.partial_minimize([2])
        assert msg.vars == (3,)
        assert np.linalg.eigvalsh(msg.A)[0] > 0
        assert abs(msg.A[0, 0]) > 1e-5  # no longer the zero function

    def test_already_strict_stays_strict(self):
        inst = fixture_triangle()
        quads = regularize(inst.quads, 1e-3, 0)
        for q in quads:
            assert np.linalg.eigvalsh(q.A)[0] > 0

    def test_coefficients_in_declared_interval(self):
        inst = fixture_triangle()
        eps = 1e-3
        quads = regularize(inst.quads, eps, 5)
        for before, after in zip(inst.quads, quads):
            diff = np.diag(after.A - before.A)
            assert np.all(diff > eps / 2) and np.all(diff <= eps)
            assert np.max(np.abs((after.A - before.A) - np.diag(diff))) == 0.0

    def test_rank_deficient_instances_become_solvable(self):
        failures = 0
        for seed in range(10):
            cover, quads, obs = random_instance(3, 600 + seed, rank_deficient=True)
            reg = regularize(quads, 1e-3, seed)
            stree = spanning_tree(build_nerve(cover), "bfs", cover)
            for root in range(cover.t):
                run = run_message_passing(cover, reg, obs, direct_tree(stree, root))
                for rec in run.edge_records.values():
                    assert rec.argmin.min_eig > 0
        assert failures == 0

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            regularize(fixture_triangle().quads, 0.0, 0)


class TestRunReport:
    def test_surviving_foreign_variable_is_flagged(self):
        cover = fixture_triangle().cover
        inst = fixture_triangle()
        star = SpanningTree(nodes=(0, 1, 2), edges=((0, 1), (0, 2)), complement=((1, 2),))
        run = run_message_passing(cover, inst.quads, inst.observations, direct_tree(star, 0))
        # node 8 is shared by the two leaf clusters only; it survives at the root
        assert 8 in run.surviving_foreign_vars

    def test_message_digest_is_stable(self):
        inst = fixture_triangle()
        dt = direct_tree(
            spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 0
        )
        run1 = run_message_passing(inst.cover, inst.quads, inst.observations, dt)
        run2 = run_message_passing(inst.cover, inst.quads, inst.observations, dt)
        assert set(run1.messages) == {i for i, _ in run1.edge_records}
        for i in run1.messages:
            assert message_digest(run1.messages[i]) == message_digest(run2.messages[i])


FACTORIZATIONS = ("cholesky", "eig", "eigh", "eigvals", "eigvalsh", "inv",
                  "lstsq", "pinv", "qr", "solve", "svd")


def test_exact_pipeline_factors_each_block_once(monkeypatch):
    """Messages are not re-validated: run_message_passing, local_solve and
    back_substitute make no eigvalsh call and one eigh per tree edge plus
    one for the root, and no other factorization."""
    cover = gen_random_cover(50, 1, extra_edge_prob=2 / 50)
    quads = regularize(gen_random_quads(cover, 2), 1e-3, 3)
    obs = gen_random_observations(cover, 4)
    dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 0)
    calls = Counter()
    for name in FACTORIZATIONS:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    run = run_message_passing(cover, quads, obs, dt)
    _, yhat, _ = local_solve(run)
    back_substitute(run, yhat)
    assert calls["eigvalsh"] == 0
    assert calls["eigh"] <= len(dt.edges) + 1
    assert set(calls) <= {"eigh"}


def test_exact_pipeline_builds_the_partitions_once(monkeypatch):
    """The elimination plan carries the edge partitions: one
    run_message_passing -> local_solve -> back_substitute computes them once,
    in run_message_passing, and back_substitute computes none."""
    cover = gen_random_cover(20, 3, extra_edge_prob=2 / 20)
    quads = regularize(gen_random_quads(cover, 4), 1e-3, 5)
    obs = gen_random_observations(cover, 6)
    dt = direct_tree(spanning_tree(build_nerve(cover), "random", cover, seed=7), 2)
    calls = []

    def counted(*args, _fn=compute_partitions):
        calls.append(args)
        return _fn(*args)

    for module in (exactmp, cover_module):
        monkeypatch.setattr(module, "compute_partitions", counted)
    run = run_message_passing(cover, quads, obs, dt)
    assert len(calls) == 1
    _, yhat, _ = local_solve(run)
    back_substitute(run, yhat)
    assert len(calls) == 1


def _reference_run(cover, quads, obs, dtree):
    """The exact engine written with the public set-based operations: fix
    each own quadratic's observables, sum it with the children's messages,
    eliminate the edge's y-set.  Returns the messages, the argmin maps and
    the aggregated message."""
    partitions = compute_partitions(cover, dtree)
    messages, maps = {}, {}
    for i in dtree.postorder():
        fixed = {v: obs[v] for v in cover.observables[i] if v in quads[i].vars}
        own = quads[i].fix_vars(fixed) if fixed else quads[i]
        h = quad_sum([own] + [messages[c] for c in dtree.children[i]])
        if i == dtree.root:
            return messages, maps, h
        edge = (i, dtree.parent[i])
        messages[i], maps[edge] = h.partial_minimize(
            v for v in partitions[edge].y_vars if v in h.vars)


def _reference_back_substitute(cover, obs, dtree, maps, aggregated, yhat):
    assign = {v: float(obs[v]) for v in cover.s_order}
    assign.update(zip(aggregated.vars, yhat.tolist()))
    for i in reversed(dtree.postorder()[:-1]):
        assign.update(maps[(i, dtree.parent[i])].apply(assign))
    return np.array([assign.get(v, 0.0) for v in cover.graph.nodes])


def _scrambled(quads, seed):
    """The same kind of quadratics with each variable order shuffled and,
    in some, one variable dropped (a principal submatrix stays PD), so that
    sums keep a lone term's own order and y-sets name absent nodes."""
    rng = np.random.default_rng(seed)
    out = []
    for q in quads:
        order = rng.permutation(len(q.vars))
        if len(order) > 1 and rng.random() < 0.3:
            order = order[1:]
        out.append(QuadFunc([q.vars[k] for k in order], q.A[np.ix_(order, order)],
                            q.b[order], q.c))
    return tuple(out)


@settings(max_examples=15, deadline=None)
@given(t=st.integers(min_value=2, max_value=30), seed=st.integers(min_value=0, max_value=10_000),
       root_pick=st.integers(min_value=0, max_value=10_000), scramble=st.booleans())
def test_plan_driven_run_equals_the_set_based_traversal(t, seed, root_pick, scramble):
    """For every tree strategy and a random root, every message, argmin map
    and the aggregated message of run_message_passing equal, bit for bit,
    those of the set-based reference traversal, back-substitution equals
    the reference replay, and the plan's predicted message sizes and
    elimination cost are the realized ones."""
    cover, quads, obs = random_instance(t, seed)
    if scramble:
        quads = _scrambled(quads, seed)
    nerve = build_nerve(cover)
    for strategy in ("bfs", "random", "max_overlap"):
        dtree = direct_tree(spanning_tree(nerve, strategy, cover, seed=seed), root_pick % t)
        run = run_message_passing(cover, quads, obs, dtree)
        messages, maps, aggregated = _reference_run(cover, quads, obs, dtree)
        assert run.messages.keys() == messages.keys()
        for i, msg in messages.items():
            assert message_digest(run.messages[i]) == message_digest(msg)
        assert run.edge_records.keys() == maps.keys()
        for edge, want in maps.items():
            got = run.edge_records[edge].argmin
            assert (got.eliminated, got.inputs) == (want.eliminated, want.inputs)
            assert got.M.tobytes() == want.M.tobytes() and got.M.shape == want.M.shape
            assert got.m.tobytes() == want.m.tobytes()
            assert (got.min_eig, got.singular) == (want.min_eig, want.singular)
        assert message_digest(run.aggregated) == message_digest(aggregated)
        plan = exactmp._plan(cover, quads, dtree)
        assert plan.message_dims == sum(len(m.vars) for m in messages.values())
        assert plan.message_entries == sum(m.A.size for m in messages.values())
        sizes = [(len(a.inputs), len(a.eliminated)) for a in maps.values()]
        assert plan.elimination_cost == sum(y**3 + y * y * x + x * x * y for x, y in sizes)
        _, yhat, _ = local_solve(run)
        want_x = _reference_back_substitute(cover, obs, dtree, maps, aggregated, yhat)
        assert back_substitute(run, yhat).tobytes() == want_x.tobytes()


def _coeffs(q):
    return np.concatenate([q.A.ravel(), q.b, [q.c]])


@settings(max_examples=10, deadline=None)
@given(t=st.integers(min_value=2, max_value=30), seed=st.integers(min_value=0, max_value=10_000))
def test_every_tree_and_root_matches_the_oracle(t, seed):
    """On a regularized random cover, every spanning-tree strategy and every
    root reproduce the centralized minimum and argmin, and each unobserved
    variable is eliminated at exactly one edge or survives to the root.
    At each edge s/x/y/z are disjoint, together they are the variables the
    tail held (its own quadratic's and its children's messages'), and the
    argmin map eliminates y in terms of x and z.  At one root per tree, the
    aggregated message equals the assembled objective minimized over the
    union of the y-sets."""
    cover, quads, obs = random_instance(t, seed)
    quads = regularize(quads, 1e-3, seed)
    cval, xhat, _ = centralized_solve(cover, quads, obs)
    used = set().union(*(q.vars for q in quads)) - cover.observable_set
    assembled = quad_sum(quads, cover.graph.nodes)
    s_obs = {v: obs[v] for v in cover.s_order}
    nerve = build_nerve(cover)
    for strategy in ("bfs", "random", "max_overlap"):
        stree = spanning_tree(nerve, strategy, cover, seed=seed)
        for root in range(cover.t):
            dtree = direct_tree(stree, root)
            run = run_message_passing(cover, quads, obs, dtree)
            partitions = compute_partitions(cover, dtree)
            value, yhat, _ = local_solve(run)
            assert abs(value - cval) <= 1e-8 * max(1.0, abs(cval))
            xfull = back_substitute(run, yhat)
            assert np.max(np.abs(xfull - xhat)) <= 1e-6
            placed = Counter(run.aggregated.vars)
            for (i, j), rec in run.edge_records.items():
                placed.update(rec.argmin.eliminated)
                p = partitions[(i, j)]
                flat = p.s_vars + p.x_vars + p.y_vars + p.z_vars
                assert len(flat) == len(set(flat))
                held = set(quads[i].vars)
                for c in dtree.children[i]:
                    held.update(run.messages[c].vars)
                assert set(flat) == held
                assert set(rec.argmin.eliminated) <= set(p.y_vars)
                assert set(rec.argmin.inputs) <= set(p.x_vars + p.z_vars)
            assert placed == Counter(used)
            if root != seed % cover.t:
                continue  # the assembled elimination is one n-variable eigh per root
            elim = set().union(*(partitions[e].y_vars for e in run.edge_records))
            closed, _ = assembled.partial_minimize(elim)
            closed = closed.fix_vars(s_obs)
            engine = run.aggregated.embed(closed.vars)
            gap = np.max(np.abs(_coeffs(engine) - _coeffs(closed)))
            assert gap <= 1e-8 * max(1.0, np.max(np.abs(_coeffs(closed))))
