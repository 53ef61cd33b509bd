"""Tasks, global problem maps, jet ranks, and the two solubility tests.

Core claims verified here:
    - well-definedness matches the kernel criterion, and on two-cluster
      sampling instances it matches the 2k = |overlap| + |S| dimension count;
    - the global problem map is affine-exact against the centralized oracle;
    - the jet rank of an identically-zero message family is 0, giving the
      pinned b_alpha = -2 and the insolubility inequality 4 > 3;
    - the objective task is always solvable locally, and tasks supported on
      root variables pass the direct row-space test.
"""

import numpy as np
import pytest

from nervemp.bench import (
    fixture_eg32,
    fixture_triangle,
    gen_distributed_sampling,
    gen_random_cover,
    gen_random_quads,
)
from nervemp.cover import (
    Graph,
    SubgraphCover,
    build_nerve,
    compute_partitions,
    direct_tree,
    spanning_tree,
)
from nervemp.errors import IllDefinedTask
from nervemp.exactmp import centralized_solve, regularize
from nervemp.quadform import QuadFunc
from nervemp.solubility import (
    b_alpha,
    direct_solubility_test,
    global_problem_map,
    insolubility_check,
    jet_profile,
    linear_task,
    objective_task,
    task_welldefined,
)


def two_cluster_sampling(n1, n2, overlap, n_obs, k, seed):
    """Two clusters sharing `overlap` nodes, n_obs observables each."""
    total = n1 + n2 - overlap
    v1 = tuple(range(n1))
    v2 = tuple(range(n1 - overlap, total))
    edges = [(i, i + 1) for i in range(total - 1)]
    cover = SubgraphCover(
        Graph(total, edges), [v1, v2], [v1[:n_obs], v2[-n_obs:]]
    )
    quads, task, obs = gen_distributed_sampling(cover, k, seed, noise=0.0)
    return cover, quads, task, obs


def _full_rank_leaf_instance():
    """Leaf 0 eliminates node 2; its message's linear term is a bijective
    image of its two observations."""
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    cover = SubgraphCover(g, [(0, 1, 2), (2, 3)], [(0, 1), ()])
    A1 = np.array([[2.0, 0.3, 0.4], [0.3, 1.5, 0.2], [0.4, 0.2, 1.8]])
    quads = (
        QuadFunc((0, 1, 2), A1, np.zeros(3), 0.0),
        QuadFunc((2, 3), np.eye(2), np.zeros(2), 0.0),
    )
    return cover, quads


def _jet_cases():
    """(cover, quads, directed tree, leaf) over the fixtures, the full-rank
    example and random regularized covers, every root and every leaf."""
    eg = fixture_eg32()
    tri = fixture_triangle()
    instances = [(eg.cover, eg.quads), (tri.cover, tri.quads), _full_rank_leaf_instance()]
    for seed in range(6):
        cover = gen_random_cover(2 + seed % 4, seed=1200 + seed)
        instances.append((cover, regularize(gen_random_quads(cover, seed), 1e-3, seed)))
    for cover, quads in instances:
        stree = spanning_tree(build_nerve(cover), "bfs", cover)
        for root in range(cover.t):
            dt = direct_tree(stree, root)
            for leaf in dt.nodes:
                if leaf != root and not dt.children[leaf]:
                    yield cover, quads, dt, leaf


def _fd_jet_rank(prof, n_points=8, step=1e-3, seed=0):
    """Reference jet rank: central differences of the coefficient map at
    seeded points, SVD rank above 1e-8 * sigma_max and above the absolute
    floor 1e-8 * max(1, largest |coefficient|), maximized over the points."""
    ns = len(prof.s_order)
    if ns == 0:
        return 0
    points = np.random.default_rng(seed).standard_normal((n_points, ns))
    scale = max(1.0, max(np.max(np.abs(prof.evaluator(p))) for p in points))
    rank = 0
    for p in points:
        J = np.stack([(prof.evaluator(p + step * e) - prof.evaluator(p - step * e)) / (2 * step)
                      for e in np.eye(ns)], axis=1)
        sv = np.linalg.svd(J, compute_uv=False)
        rank = max(rank, int(np.sum(sv > max(1e-8 * sv[0], 1e-8 * scale))))
    return rank


class TestTaskWelldefined:
    def test_strictly_convex_always_welldefined(self):
        inst = fixture_triangle()
        L = np.zeros((2, 9))
        L[0, 1] = 1.0
        L[1, 3] = -2.0
        ok, cert = task_welldefined(inst.cover, inst.quads, linear_task(L))
        assert ok and cert is None

    def test_pinned_fixture_difference_task(self):
        inst = fixture_eg32()
        ok, cert = task_welldefined(inst.cover, inst.quads, inst.task)
        assert ok

    def test_violating_direction_is_certified(self):
        inst = fixture_eg32()
        L = np.zeros((1, 7))
        L[0, 6] = 1.0  # reads the free private node directly
        ok, cert = task_welldefined(inst.cover, inst.quads, linear_task(L))
        assert not ok
        assert cert is not None and abs(cert[6]) > 0.05
        assert np.all(cert[[0, 1, 4, 5]] == 0.0)

    def test_objective_task_always_welldefined(self):
        inst = fixture_eg32()
        ok, _ = task_welldefined(inst.cover, inst.quads, objective_task())
        assert ok

    def test_dimension_count_on_two_cluster_sampling(self):
        """Uniqueness threshold: well-defined iff 2k <= |V1 & V2| + |S|."""
        for k, overlap, n_obs, seed in [
            (2, 1, 1, 0), (2, 1, 2, 1), (3, 2, 2, 2), (3, 1, 2, 3),
            (4, 2, 2, 4), (4, 3, 3, 5), (2, 2, 1, 6), (3, 3, 1, 7),
        ]:
            cover, quads, task, _ = two_cluster_sampling(7, 7, overlap, n_obs, k, seed)
            ok, _ = task_welldefined(cover, quads, task)
            expected = 2 * k <= overlap + 2 * n_obs
            assert ok == expected, (k, overlap, n_obs, ok, expected)


class TestGlobalProblemMap:
    def test_pinned_fixture_map(self):
        inst = fixture_eg32()
        gpm = global_problem_map(inst.cover, inst.quads, inst.task)
        assert gpm.s_order == (0, 1, 4, 5)
        assert np.max(np.abs(gpm.matrix - np.array([[1.0, 0.0, -1.0, 0.0]]))) <= 1e-8
        assert np.max(np.abs(gpm.offset)) <= 1e-8

    def test_identity_selector_on_observables(self):
        inst = fixture_triangle()
        s_order = inst.cover.s_order
        L = np.zeros((len(s_order), 9))
        for r, v in enumerate(s_order):
            L[r, v] = 1.0
        gpm = global_problem_map(inst.cover, inst.quads, linear_task(L))
        assert np.max(np.abs(gpm.matrix - np.eye(len(s_order)))) <= 1e-8
        assert np.max(np.abs(gpm.offset)) <= 1e-8

    def test_affine_exact_against_centralized_oracle(self):
        cover = gen_random_cover(4, seed=42)
        quads = regularize(gen_random_quads(cover, 43), 1e-2, 0)
        rng = np.random.default_rng(44)
        L = rng.standard_normal((2, cover.graph.n))
        d = rng.standard_normal(2)
        task = linear_task(L, d)
        gpm = global_problem_map(cover, quads, task)
        for _ in range(200):
            s = rng.standard_normal(len(cover.s_order))
            obs = dict(zip(cover.s_order, s.tolist()))
            _, xhat, _ = centralized_solve(cover, quads, obs)
            expect = L @ xhat + d
            assert np.max(np.abs(gpm.apply(s) - expect)) <= 1e-8

    def test_objective_task_has_no_affine_map(self):
        inst = fixture_triangle()
        with pytest.raises(ValueError):
            global_problem_map(inst.cover, inst.quads, objective_task())

    def test_illdefined_task_rejected(self):
        inst = fixture_eg32()
        L = np.zeros((1, 7))
        L[0, 6] = 1.0
        with pytest.raises(IllDefinedTask):
            global_problem_map(inst.cover, inst.quads, linear_task(L))


class TestJetProfile:
    def test_zero_message_family_has_rank_zero(self):
        inst = fixture_eg32()
        dt = direct_tree(spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 1)
        prof = jet_profile(inst.cover, inst.quads, dt, 0)
        assert prof.d_jet == 0
        assert prof.n_free == 2
        assert prof.msg_dim == 1
        assert prof.eliminated_count == 1

    def test_full_rank_observation_dependence(self):
        """A leaf whose message linear term is a bijective image of its
        observations has jet rank |S_i|."""
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        cover = SubgraphCover(g, [(0, 1, 2), (2, 3)], [(0, 1), ()])
        A1 = np.array([[2.0, 0.3, 0.4], [0.3, 1.5, 0.2], [0.4, 0.2, 1.8]])
        quads = (
            __import__("nervemp").QuadFunc((0, 1, 2), A1, np.zeros(3), 0.0),
            __import__("nervemp").QuadFunc((2, 3), np.eye(2), np.zeros(2), 0.0),
        )
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 1)
        prof = jet_profile(cover, quads, dt, 0)
        assert prof.d_jet == 2

    def test_closed_form_rank_matches_finite_differences(self):
        """d_jet equals the numerical rank of central-difference Jacobians
        of the coefficient map, maximized over seeded points."""
        for cover, quads, dt, leaf in _jet_cases():
            prof = jet_profile(cover, quads, dt, leaf)
            assert prof.d_jet == _fd_jet_rank(prof), (cover.t, dt.root, leaf)

    def test_evaluator_is_the_fixed_then_minimized_leaf_quadratic(self):
        rng = np.random.default_rng(31)
        for cover, quads, dt, leaf in _jet_cases():
            prof = jet_profile(cover, quads, dt, leaf)
            part = compute_partitions(cover, dt)[(leaf, dt.parent[leaf])]
            q = quads[leaf]
            for _ in range(3):
                s = rng.standard_normal(len(cover.s_order))
                obs = dict(zip(cover.s_order, s.tolist()))
                h = q.fix_vars({v: obs[v] for v in cover.observables[leaf] if v in q.vars})
                msg, _ = h.partial_minimize(v for v in part.y_vars if v in h.vars)
                expect = np.concatenate([msg.A.reshape(-1), msg.b, [msg.c]])
                got = prof.evaluator(s)
                assert got.shape == expect.shape
                assert np.max(np.abs(got - expect)) <= 1e-9 * max(1.0, np.max(np.abs(expect)))

    def test_rejects_non_leaf(self):
        cover = gen_random_cover(4, seed=2, extra_edge_prob=0.0)
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 0)
        interior = [i for i in dt.nodes if dt.children[i] and i != 0]
        if interior:
            with pytest.raises(ValueError):
                jet_profile(cover, gen_random_quads(cover, 3), dt, interior[0])
        with pytest.raises(ValueError):
            jet_profile(cover, gen_random_quads(cover, 3), dt, 0)


class TestBAlpha:
    def test_pinned_fixture_value(self):
        inst = fixture_eg32()
        dt = direct_tree(spanning_tree(build_nerve(inst.cover), "bfs", inst.cover), 1)
        prof = jet_profile(inst.cover, inst.quads, dt, 0)
        assert b_alpha(prof) == -2
        assert prof.d_jet == 0

    def test_constant_message_without_eliminations(self):
        g = Graph(3, [(0, 1), (1, 2)])
        cover = SubgraphCover(g, [(0, 1), (1, 2)], [(), ()])
        quads = (
            __import__("nervemp").QuadFunc.zero((0, 1)),
            __import__("nervemp").QuadFunc((1, 2), np.eye(2), np.zeros(2), 0.0),
        )
        dt = direct_tree(spanning_tree(build_nerve(cover), "bfs", cover), 1)
        prof = jet_profile(cover, quads, dt, 0)
        assert prof.d_jet == 0
        assert b_alpha(prof) == -prof.n_free


class TestInsolubilityCheck:
    def test_pinned_fixture_inequality(self):
        inst = fixture_eg32()
        stree = spanning_tree(build_nerve(inst.cover), "bfs", inst.cover)
        flag, report = insolubility_check(inst.cover, inst.quads, inst.task, stree, 0)
        assert flag
        assert report["lhs"] == 4 and report["rhs"] == 3
        assert report["b_alpha"] == -2 and report["S_i"] == 2
        assert report["tree_independent"] and report["genericity_assumed"]

    def test_objective_task_never_flags_strictly_convex(self):
        for seed in range(20):
            cover = gen_random_cover(2 + seed % 3, seed=800 + seed)
            quads = regularize(gen_random_quads(cover, seed), 1e-2, seed)
            stree = spanning_tree(build_nerve(cover), "bfs", cover)
            leaves = [i for i in range(cover.t)
                      if sum(1 for e in stree.edges if i in e) == 1]
            for leaf in leaves:
                flag, report = insolubility_check(
                    cover, quads, objective_task(), stree, leaf
                )
                assert not flag, report

    def test_wide_task_with_high_b_alpha_cannot_flag(self):
        """With dim(M) = |S| the right side is zero, so b_alpha >= |S_i|
        makes the inequality unsatisfiable.  The literal jet-image convention
        reaches b_alpha = |S_i| at a full-jet-rank leaf."""
        inst = fixture_triangle()
        quads = regularize(inst.quads, 1e-2, 0)
        s_order = inst.cover.s_order
        task = linear_task(np.eye(9)[[v for v in s_order], :])
        stree = spanning_tree(build_nerve(inst.cover), "bfs", inst.cover)
        dt = direct_tree(stree, 0)
        prof = jet_profile(inst.cover, quads, dt, 1)
        ba_lit = prof.d_jet
        s_i = len(inst.cover.observables[1])
        assert ba_lit >= s_i  # full-rank leaf under the literal convention
        assert not (s_i - ba_lit > len(s_order) - task.dim_m)

    def test_rejects_non_leaf_of_tree(self):
        inst = fixture_triangle()
        stree = spanning_tree(build_nerve(inst.cover), "bfs", inst.cover)
        with pytest.raises(ValueError):
            insolubility_check(inst.cover, inst.quads, objective_task(), stree, 0)

    def test_full_jet_rank_flag_is_not_conclusive(self):
        """When the leaf's jet family carries every observation dimension
        (d_jet = |S_i|), the flag can still fire through the free-domain
        term, yet a linear read-out may exist: the dimension count is a
        heuristic under unverified genericity hypotheses, not a proof."""
        cover = gen_random_cover(2, 8000, extra_edge_prob=0.0, y_range=(2, 4), s_range=(1, 2))
        quads = regularize(gen_random_quads(cover, 8001), 1e-3, 8002)
        rng = np.random.default_rng(8003)
        task = linear_task(rng.standard_normal((1, cover.graph.n)))
        stree = spanning_tree(build_nerve(cover), "bfs", cover)
        flag, report = insolubility_check(cover, quads, task, stree, 0)
        assert flag and report["d_jet"] == report["S_i"]
        assert direct_solubility_test(cover, quads, task, 1, stree, seed=8000)


class TestDirectSolubilityTest:
    def test_pinned_fixture_fails_at_far_root(self):
        inst = fixture_eg32()
        stree = spanning_tree(build_nerve(inst.cover), "bfs", inst.cover)
        assert direct_solubility_test(inst.cover, inst.quads, inst.task, 1, stree) is False

    def test_objective_task_always_passes(self):
        inst = fixture_eg32()
        stree = spanning_tree(build_nerve(inst.cover), "bfs", inst.cover)
        for root in (0, 1):
            assert direct_solubility_test(
                inst.cover, inst.quads, objective_task(), root, stree, seed=3
            )
        inst3 = fixture_triangle()
        stree3 = spanning_tree(build_nerve(inst3.cover), "bfs", inst3.cover)
        assert direct_solubility_test(
            inst3.cover, inst3.quads, objective_task(), 2, stree3, seed=3
        )

    def test_task_on_root_variables_passes(self):
        for seed in range(5):
            cover = gen_random_cover(3, seed=900 + seed)
            quads = regularize(gen_random_quads(cover, seed), 1e-2, seed)
            root = seed % 3
            rng = np.random.default_rng(seed)
            L = np.zeros((2, cover.graph.n))
            root_nodes = sorted(cover.node_set(root))
            for r in range(2):
                for v in root_nodes:
                    L[r, v] = rng.standard_normal()
            stree = spanning_tree(build_nerve(cover), "bfs", cover)
            assert direct_solubility_test(cover, quads, linear_task(L), root, stree)

    def test_illdefined_task_rejected(self):
        inst = fixture_eg32()
        L = np.zeros((1, 7))
        L[0, 6] = 1.0
        stree = spanning_tree(build_nerve(inst.cover), "bfs", inst.cover)
        with pytest.raises(IllDefinedTask):
            direct_solubility_test(inst.cover, inst.quads, linear_task(L), 1, stree)
