"""Generators, pinned fixtures, stats covers, and the experiment harness."""

import hashlib

import numpy as np
import pytest

from nervemp.bench import (
    DEFAULT_STATS_ROWS,
    InstanceSpec,
    _layout_cover,
    aggregates_csv,
    cover_from_stats,
    fixture_eg32,
    gen_distributed_sampling,
    gen_random_cover,
    generate_instance,
    random_nerve_for_stats,
    records_csv,
    run_experiment,
)
from nervemp.cover import build_nerve
from nervemp.errors import InfeasibleStats
from nervemp.exactmp import centralized_solve
from nervemp.instancefile import dumps, loads
from nervemp.solubility import global_problem_map
from nervemp.surrogate import ApproxConfig


class TestDistributedSampling:
    def test_consistent_noiseless_observation_has_zero_minimum(self):
        cover = gen_random_cover(3, seed=4)
        quads, task, obs = gen_distributed_sampling(cover, 3, seed=5, noise=0.0)
        value, _, _ = centralized_solve(cover, quads, obs)
        assert abs(value) <= 1e-9

    def test_full_basis_gives_identically_zero_objective(self):
        cover = gen_random_cover(2, seed=6)
        n = cover.graph.n
        quads, _, _ = gen_distributed_sampling(cover, n, seed=7, noise=0.0)
        for q in quads:
            assert np.max(np.abs(q.A)) <= 1e-9

    def test_matrices_are_projector_complements(self):
        cover = gen_random_cover(3, seed=8)
        quads, _, _ = gen_distributed_sampling(cover, 2, seed=9, noise=0.1)
        for q in quads:
            assert np.max(np.abs(q.A @ q.A - q.A)) <= 1e-10

    def test_default_noise_scales_with_sqrt_k(self):
        cover = gen_random_cover(3, seed=10)
        q1, t1, obs1 = gen_distributed_sampling(cover, 4, seed=11)
        q2, t2, obs2 = gen_distributed_sampling(cover, 4, seed=11, noise=0.05 * np.sqrt(4))
        assert obs1 == obs2

    def test_rejects_oversized_basis(self):
        cover = gen_random_cover(2, seed=12)
        with pytest.raises(ValueError):
            gen_distributed_sampling(cover, cover.graph.n + 1, seed=0)


class TestFixtureEg32:
    def test_global_problem_map(self):
        inst = fixture_eg32()
        gpm = global_problem_map(inst.cover, inst.quads, inst.task)
        assert np.max(np.abs(gpm.matrix - [[1.0, 0.0, -1.0, 0.0]])) <= 1e-8

    def test_leaf_message_is_the_zero_function(self):
        inst = fixture_eg32()
        rng = np.random.default_rng(0)
        for _ in range(10):
            fixed = inst.quads[0].fix_vars({0: rng.standard_normal(), 1: rng.standard_normal()})
            msg, _ = fixed.partial_minimize([2])
            assert abs(msg.A[0, 0]) <= 1e-10 and abs(msg.b[0]) <= 1e-10 and abs(msg.c) <= 1e-10

    def test_file_bytes_are_pinned(self):
        digest = hashlib.sha256(dumps(fixture_eg32()).encode()).hexdigest()
        assert digest == (
            "02b4b1b992e2a392258ead11c5e0eb53acb664860878f141ebf49e2ac308cf58"
        )

    def test_round_trips_through_file_format(self):
        text = dumps(fixture_eg32())
        assert dumps(loads(text)) == text


def measure_stats(cover):
    """Re-measure (|X_i|, |Y_i|, |S_i|, |V_i|) from a cover: the reference
    that `cover_from_stats` is checked against."""
    rows = []
    for i in range(cover.t):
        vs = cover.node_set(i)
        others = set()
        for j in range(cover.t):
            if j != i:
                others |= cover.node_set(j)
        x = len(vs & others)
        s = len(cover.observables[i])
        rows.append((x, len(vs) - x - s, s, len(vs)))
    return tuple(rows)


class TestCoverFromStats:
    def test_first_benchmark_row_reproduced(self):
        nerve = random_nerve_for_stats(DEFAULT_STATS_ROWS, seed=0)
        cover = cover_from_stats(DEFAULT_STATS_ROWS, nerve, seed=0)
        assert measure_stats(cover)[0] == (4, 6, 12, 22)

    def test_all_rows_reproduced_and_nerve_matches(self):
        nerve = random_nerve_for_stats(DEFAULT_STATS_ROWS, seed=3)
        cover = cover_from_stats(DEFAULT_STATS_ROWS, nerve, seed=3)
        assert measure_stats(cover) == DEFAULT_STATS_ROWS
        assert build_nerve(cover).edges == nerve

    def test_single_subgraph_row(self):
        cover = cover_from_stats([(0, 2, 1, 3)], (), seed=0)
        assert cover.t == 1 and cover.graph.n == 3
        assert measure_stats(cover) == ((0, 2, 1, 3),)

    def test_slack_rows_get_extra_private_nodes(self):
        cover = cover_from_stats([(1, 1, 1, 5), (1, 1, 1, 3)], ((0, 1),), seed=0)
        rows = measure_stats(cover)
        assert rows[0][3] == 5 and rows[0][0] == 1 and rows[0][2] == 1

    def test_infeasible_when_x_exceeds_capacity(self):
        # a leaf-pair nerve forces edge weight = |X| on both ends
        with pytest.raises(InfeasibleStats):
            cover_from_stats([(3, 1, 1, 5), (1, 1, 1, 3)], ((0, 1),), seed=0)

    def test_infeasible_odd_total(self):
        with pytest.raises(InfeasibleStats):
            cover_from_stats([(2, 1, 1, 4), (1, 1, 1, 3)], ((0, 1),), seed=0)

    def test_generated_cover_is_deterministic(self):
        nerve = random_nerve_for_stats(DEFAULT_STATS_ROWS, seed=5)
        c1 = cover_from_stats(DEFAULT_STATS_ROWS, nerve, seed=5)
        c2 = cover_from_stats(DEFAULT_STATS_ROWS, nerve, seed=5)
        assert c1.subgraphs == c2.subgraphs and c1.observables == c2.observables


class TestGenerateInstance:
    def test_random_quadratic_is_pure_function_of_spec(self):
        spec = InstanceSpec(kind="random_quadratic", t=4, seed=9)
        a = generate_instance(spec)
        b = generate_instance(spec)
        assert dumps(a) == dumps(b)

    def test_cover_stats_kind_carries_zero_quads(self):
        spec = InstanceSpec(kind="cover_from_stats", rows=((1, 1, 1, 3), (1, 1, 1, 3)),
                            nerve=((0, 1),), seed=0)
        inst = generate_instance(spec)
        for q in inst.quads:
            assert np.max(np.abs(q.A)) == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_instance(InstanceSpec(kind="nonsense"))


class TestRunExperiment:
    def test_oracle_sweep_has_vanishing_error(self):
        spec = InstanceSpec(
            kind="distributed_sampling",
            rows=((2, 2, 2, 6), (2, 2, 2, 6), (2, 2, 2, 6)),
            nerve=((0, 1), (0, 2), (1, 2)),
            seed=0,
        )
        config = ApproxConfig(kind="quadratic_ls", seed=0)
        records, aggs = run_experiment(spec, config, k_list=[3, 4], repeats=1, seed=21)
        assert len(records) == 2
        for r in records:
            assert r["R_percent"] <= 1e-5 * 100.0

    def test_table_shaped_records_and_aggregates(self):
        spec = InstanceSpec(
            kind="distributed_sampling",
            rows=((2, 2, 2, 6), (2, 2, 2, 6), (2, 2, 2, 6)),
            nerve=((0, 1), (0, 2), (1, 2)),
            seed=0,
        )
        config = ApproxConfig(kind="quadratic_ls", seed=0)
        records, aggs = run_experiment(spec, config, k_list=[2, 3, 4], repeats=2, seed=5)
        assert [a["sweep_point"] for a in aggs] == [2, 3, 4]
        assert all(a["n"] == 2 for a in aggs)
        csv = records_csv(records)
        header = csv.splitlines()[0]
        assert header == "k,m,seed,exact_value,approx_value,R_percent,wall_ms"
        assert len(csv.splitlines()) == 1 + 6
        agg_csv = aggregates_csv(aggs)
        assert agg_csv.splitlines()[0] == "sweep_point,mean_R,std_R,n"

    def test_m_sweep_uses_fixed_k(self):
        spec = InstanceSpec(
            kind="distributed_sampling",
            rows=((2, 2, 2, 6), (2, 2, 2, 6)),
            nerve=((0, 1),),
            k=3,
            seed=0,
        )
        config = ApproxConfig(kind="quadratic_ls", seed=0)
        records, _ = run_experiment(spec, config, m_list=[30, 40], repeats=1, seed=1)
        assert all(r["k"] == 3 for r in records)
        assert records[0]["m"] >= 30 and records[1]["m"] >= 40

    def test_exactly_one_sweep_axis(self):
        spec = InstanceSpec(kind="distributed_sampling", seed=0)
        config = ApproxConfig()
        with pytest.raises(ValueError):
            run_experiment(spec, config, repeats=1, seed=0)
        with pytest.raises(ValueError):
            run_experiment(spec, config, k_list=[2], m_list=[3], repeats=1, seed=0)


class TestRandomCoverSizes:
    def test_sizes_stay_moderate(self):
        for seed in range(10):
            cover = gen_random_cover(6, seed=seed)
            assert cover.graph.n <= 40
            assert build_nerve(cover).is_connected()


def _scalar_draw_cover(t, seed, extra_edge_prob):
    """Reference generator: one scalar coin per pair outside the tree."""
    rng = np.random.default_rng(seed)
    nerve_edges = set()
    for i in range(1, t):
        nerve_edges.add((int(rng.integers(0, i)), i))
    for i in range(t):
        for j in range(i + 1, t):
            if (i, j) not in nerve_edges and rng.random() < extra_edge_prob:
                nerve_edges.add((i, j))
    shared = [(e, int(rng.integers(1, 3))) for e in sorted(nerve_edges)]
    local = [(int(rng.integers(1, 3)), int(rng.integers(1, 3))) for _ in range(t)]
    return _layout_cover(shared, local)


@pytest.mark.parametrize("t, seed, p", [
    (800, 1, 2 / 800), (20, 1, 0.1), (6, 3, 0.25), (30, 7, 0.4),
    (1, 0, 0.25), (2, 5, 1.0), (50, 9, 0.0), (200, 2, 0.5),
])
def test_row_coins_match_scalar_draws(t, seed, p):
    got = gen_random_cover(t, seed, extra_edge_prob=p)
    want = _scalar_draw_cover(t, seed, p)
    assert got.subgraphs == want.subgraphs
    assert got.observables == want.observables
    assert got.graph.edges == want.graph.edges
