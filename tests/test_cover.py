"""Covers, nerves, trees and variable partitions.

The brute-force oracle for nerve construction checks every node pair; the
partition checks replay the worked three-cluster setup where a shared node
is carried along as a z-variable and eliminated one hop later.
"""

import pytest
from hypothesis import given, settings, strategies as st

from nervemp.bench import (
    DEFAULT_STATS_ROWS,
    cover_from_stats,
    fixture_eg32,
    fixture_triangle,
    gen_random_cover,
    random_nerve_for_stats,
)
from nervemp.cover import (
    EdgePartition,
    Graph,
    NerveSkeleton,
    SpanningTree,
    SubgraphCover,
    _root_free_nodes,
    build_nerve,
    compute_partitions,
    direct_tree,
    spanning_tree,
)
from nervemp.errors import DisconnectedNerve, InvalidInstance


class TestGraphValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInstance):
            Graph(3, [(0, 0)])

    def test_rejects_undeclared_endpoint(self):
        with pytest.raises(InvalidInstance):
            Graph(2, [(0, 5)])

    def test_normalizes_edges(self):
        g = Graph(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == ((0, 2), (1, 2))


class TestCoverValidation:
    def test_requires_full_coverage(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(InvalidInstance, match="not covered"):
            SubgraphCover(g, [(0, 1)], [()])

    def test_observables_must_be_subgraph_nodes(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidInstance, match="not a node of subgraph"):
            SubgraphCover(g, [(0, 1), (1, 2)], [(2,), ()])

    def test_observables_must_be_exclusive(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidInstance, match="also lies in subgraph"):
            SubgraphCover(g, [(0, 1), (1, 2)], [(1,), ()])

    def test_empty_observable_sets_are_allowed(self):
        g = Graph(2, [(0, 1)])
        cover = SubgraphCover(g, [(0, 1)], [()])
        assert cover.s_order == ()


def _pairwise_nerve(cover):
    """The nerve by definition: every subgraph pair (i < j) that intersects."""
    return tuple(
        (i, j)
        for i in range(cover.t)
        for j in range(i + 1, cover.t)
        if cover.node_set(i) & cover.node_set(j)
    )


class TestBuildNerve:
    def test_three_pairwise_overlaps_give_complete_graph(self):
        cover = fixture_triangle().cover
        nerve = build_nerve(cover)
        assert nerve.edges == ((0, 1), (0, 2), (1, 2))

    def test_single_subgraph(self):
        g = Graph(2, [(0, 1)])
        cover = SubgraphCover(g, [(0, 1)], [(0,)])
        nerve = build_nerve(cover)
        assert nerve.t == 1 and nerve.edges == ()

    def test_matches_bruteforce_intersection_oracle(self):
        cover = gen_random_cover(8, seed=123)
        nerve = build_nerve(cover)
        expected = set()
        for i in range(8):
            for j in range(i + 1, 8):
                if any(v in cover.node_set(j) for v in cover.subgraphs[i]):
                    expected.add((i, j))
        assert set(nerve.edges) == expected

    def test_equals_pairwise_definition_on_eg32(self):
        cover = fixture_eg32().cover
        assert build_nerve(cover).edges == _pairwise_nerve(cover)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_equals_pairwise_definition_on_random_covers(self, data):
        n = data.draw(st.integers(min_value=1, max_value=30))
        t = data.draw(st.integers(min_value=1, max_value=12))
        member = data.draw(st.lists(
            st.sets(st.integers(min_value=0, max_value=t - 1), min_size=1),
            min_size=n, max_size=n,
        ))
        subgraphs = [[v for v in range(n) if i in member[v]] for i in range(t)]
        cover = SubgraphCover(Graph(n, []), subgraphs, [()] * t)
        assert build_nerve(cover).edges == _pairwise_nerve(cover)

    def test_relabeling_symmetry(self):
        cover = gen_random_cover(5, seed=9)
        nerve = build_nerve(cover)
        perm = [3, 0, 4, 1, 2]  # new index of each old subgraph
        cover2 = SubgraphCover(
            cover.graph,
            [cover.subgraphs[perm.index(i)] for i in range(5)],
            [cover.observables[perm.index(i)] for i in range(5)],
        )
        nerve2 = build_nerve(cover2)
        mapped = {tuple(sorted((perm[i], perm[j]))) for i, j in nerve.edges}
        assert set(nerve2.edges) == mapped


class TestSpanningTree:
    def test_complete_graph_leaves_one_complement_edge(self):
        cover = fixture_triangle().cover
        nerve = build_nerve(cover)
        t1 = spanning_tree(nerve, "bfs", cover)
        t2 = spanning_tree(nerve, "random", cover, seed=0)
        for t in (t1, t2):
            assert len(t.edges) == 2 and len(t.complement) == 1
        assert t1.edges != t2.edges or t1.complement != t2.complement

    def test_single_node(self):
        g = Graph(1, [])
        cover = SubgraphCover(g, [(0,)], [(0,)])
        tree = spanning_tree(build_nerve(cover), "bfs", cover)
        assert tree.edges == () and tree.complement == ()

    def test_edge_count_on_random_nerve(self):
        cover = gen_random_cover(12, seed=5, extra_edge_prob=0.4)
        nerve = build_nerve(cover)
        for strategy, kw in (("bfs", {}), ("random", {"seed": 2}), ("max_overlap", {})):
            tree = spanning_tree(nerve, strategy, cover, **kw)
            assert len(tree.edges) == 11
            assert len(tree.complement) == len(nerve.edges) - 11

    def test_max_overlap_prefers_heavier_edges(self):
        # two candidate edges; the heavier overlap must be kept
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        cover = SubgraphCover(
            g, [(0, 1, 2), (1, 2, 3), (2, 3, 4, 5)], [(0,), (), (5,)]
        )
        nerve = build_nerve(cover)
        assert set(nerve.edges) == {(0, 1), (0, 2), (1, 2)}
        tree = spanning_tree(nerve, "max_overlap", cover)
        # |V0 & V1| = 2, |V1 & V2| = 2, |V0 & V2| = 1 -> drop (0, 2)
        assert set(tree.edges) == {(0, 1), (1, 2)}
        assert tree.complement == ((0, 2),)

    def test_disconnected_nerve(self):
        g = Graph(4, [(0, 1), (2, 3)])
        cover = SubgraphCover(g, [(0, 1), (2, 3)], [(0,), (2,)])
        with pytest.raises(DisconnectedNerve):
            spanning_tree(build_nerve(cover), "bfs", cover)

    def test_random_requires_seed(self):
        cover = fixture_triangle().cover
        with pytest.raises(ValueError):
            spanning_tree(build_nerve(cover), "random", cover)

    @pytest.mark.parametrize("strategy", ["random", "max_overlap"])
    def test_disconnected_nerve_under_other_strategies(self, strategy):
        g = Graph(4, [(0, 1), (2, 3)])
        cover = SubgraphCover(g, [(0, 1), (2, 3)], [(0,), (2,)])
        with pytest.raises(DisconnectedNerve, match="the nerve skeleton is not connected"):
            spanning_tree(build_nerve(cover), strategy, cover, seed=0)

    def test_unknown_strategy(self):
        cover = fixture_triangle().cover
        with pytest.raises(ValueError, match="unknown spanning tree strategy 'dfs'"):
            spanning_tree(build_nerve(cover), "dfs", cover)

    def test_max_overlap_requires_the_cover(self):
        nerve = build_nerve(fixture_triangle().cover)
        with pytest.raises(ValueError, match="max_overlap strategy requires the cover"):
            spanning_tree(nerve, "max_overlap")

    @pytest.mark.parametrize("t, edges, connected", [
        (0, (), True),
        (1, (), True),
        (2, (), False),
        (2, ((0, 1),), True),
        (4, ((0, 1), (2, 3)), False),
        (4, ((0, 3), (1, 3), (1, 2)), True),
    ])
    def test_is_connected(self, t, edges, connected):
        assert NerveSkeleton(t=t, edges=edges).is_connected() is connected


class TestDirectTree:
    def test_path_rooted_at_end(self):
        cover = gen_random_cover(3, seed=1, extra_edge_prob=0.0)
        nerve = build_nerve(cover)
        stree = spanning_tree(nerve, "bfs", cover)
        dt = direct_tree(stree, 2)
        for tail, head in dt.edges:
            assert dt.parent[tail] == head
        # walking parents from any node reaches the root
        for node in dt.nodes:
            seen = set()
            while node != 2:
                assert node not in seen
                seen.add(node)
                node = dt.parent[node]

    def test_triangle_chain_orientation(self):
        # the chain tree 1 - 2 - 0 rooted at 0 orients as 1 -> 2 -> 0
        t2 = SpanningTree(nodes=(0, 1, 2), edges=((1, 2), (0, 2)), complement=((0, 1),))
        dt = direct_tree(t2, 0)
        assert set(dt.edges) == {(1, 2), (2, 0)}

    def test_root_has_out_degree_zero(self):
        cover = gen_random_cover(7, seed=3)
        stree = spanning_tree(build_nerve(cover), "bfs", cover)
        for root in range(7):
            dt = direct_tree(stree, root)
            tails = [t for t, _ in dt.edges]
            assert root not in tails
            assert len(dt.edges) == 6

    def test_rejects_edges_that_do_not_span(self):
        stree = SpanningTree(nodes=(0, 1, 2), edges=((0, 1),), complement=())
        with pytest.raises(InvalidInstance, match="tree edges do not span all nodes"):
            direct_tree(stree, 0)


def _reaches(dt, n, i):
    """Whether walking parents from tree node n reaches i (n is in i's subtree)."""
    while n != i and n != dt.root:
        n = dt.parent[n]
    return n == i


class TestPartitions:
    def test_pinned_two_subgraph_edge(self):
        inst = fixture_eg32()
        stree = spanning_tree(build_nerve(inst.cover), "bfs", inst.cover)
        dt = direct_tree(stree, 1)
        part = compute_partitions(inst.cover, dt)[(0, 1)]
        assert part.s_vars == (0, 1)
        assert part.x_vars == (3,)
        assert part.y_vars == (2,)
        assert part.z_vars == ()

    def test_leaf_with_empty_complement(self):
        cover = gen_random_cover(4, seed=8, extra_edge_prob=0.0)
        stree = spanning_tree(build_nerve(cover), "bfs", cover)
        assert stree.complement == ()
        dt = direct_tree(stree, 0)
        leaf = [i for i in dt.nodes if not dt.children[i] and i != 0][0]
        part = compute_partitions(cover, dt)[(leaf, dt.parent[leaf])]
        expected_x = sorted(cover.node_set(leaf) & cover.node_set(dt.parent[leaf]))
        assert list(part.x_vars) == expected_x

    def test_triangle_z_variable_rides_one_hop(self):
        """On the chain tree, the shared node of the two lower clusters is
        eliminated at the middle node, while the rider from the far cluster
        survives as a z-variable."""
        cover = fixture_triangle().cover
        # chain 1 - 2 - 0 rooted at 0; complement edge (0, 1)
        t2 = SpanningTree(nodes=(0, 1, 2), edges=((1, 2), (0, 2)), complement=((0, 1),))
        dt = direct_tree(t2, 0)
        # nodes: cluster 0 = {0,1,6,7}, cluster 1 = {2,3,6,8}, cluster 2 = {4,5,7,8}
        parts = compute_partitions(cover, dt)
        p12 = parts[(1, 2)]
        assert p12.x_vars == (6, 8)  # shared with root cluster and tree head
        assert p12.y_vars == (3,)
        p20 = parts[(2, 0)]
        assert p20.x_vars == (7,)
        assert 8 in p20.y_vars  # shared by the two lower clusters only
        assert p20.z_vars == (6,)  # rider owned by the complement edge

    def test_four_way_split_properties(self):
        for seed in range(6):
            cover = gen_random_cover(6, seed=seed, extra_edge_prob=0.35)
            stree = spanning_tree(build_nerve(cover), "bfs", cover)
            for root in (0, 3):
                dt = direct_tree(stree, root)
                parts = compute_partitions(cover, dt)
                for (i, j), part in parts.items():
                    groups = [part.s_vars, part.x_vars, part.y_vars, part.z_vars]
                    flat = [v for g in groups for v in g]
                    assert len(flat) == len(set(flat))  # pairwise disjoint
                    held = set(cover.node_set(i))
                    for c in dt.children[i]:
                        held.update(parts[(c, i)].x_vars + parts[(c, i)].z_vars)
                    assert set(flat) == held
                    assert set(part.x_vars) <= cover.node_set(i)
                    subtree_union = set()
                    for n in dt.nodes:
                        if _reaches(dt, n, i):
                            subtree_union |= cover.node_set(n)
                    assert set(part.y_vars) <= subtree_union

    def test_each_variable_eliminated_at_most_once(self):
        for seed in range(6):
            cover = gen_random_cover(6, seed=100 + seed, extra_edge_prob=0.35)
            stree = spanning_tree(build_nerve(cover), "bfs", cover)
            for root in range(cover.t):
                dt = direct_tree(stree, root)
                parts = compute_partitions(cover, dt)
                seen = []
                for part in parts.values():
                    seen.extend(part.y_vars)
                assert len(seen) == len(set(seen))

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
        extra_edge_prob=st.floats(min_value=0.0, max_value=1.0),
        strategy=st.sampled_from(["bfs", "random", "max_overlap"]),
    )
    def test_partitions_match_their_definition(self, t, seed, extra_edge_prob, strategy):
        """Every split equals the definition written out edge by edge."""
        cover = gen_random_cover(t, seed, extra_edge_prob=extra_edge_prob)
        stree = spanning_tree(build_nerve(cover), strategy, cover, seed=seed)
        V = cover.node_set
        for root in range(t):
            dt = direct_tree(stree, root)
            parts = compute_partitions(cover, dt)
            assert set(parts) == set(dt.edges)
            for (i, j), part in parts.items():
                beyond = set(V(j))
                for u, w in dt.complement:
                    if i in (u, w):
                        beyond |= V(w if u == i else u)
                x = V(i) & beyond
                held = set(V(i))
                for c in dt.children[i]:
                    held |= set(parts[(c, i)].x_vars + parts[(c, i)].z_vars)
                y = {
                    v for v in held - x
                    if v not in cover.observable_set
                    and all(_reaches(dt, k, i) for k in cover.subgraphs_containing(v))
                }
                s = set(cover.observables[i])
                z = held - s - x - y
                assert part == EdgePartition(
                    s_vars=tuple(sorted(s)),
                    x_vars=tuple(sorted(x)),
                    y_vars=tuple(sorted(y)),
                    z_vars=tuple(sorted(z)),
                )


def _property_cover(kind, seed, t, extra_edge_prob):
    if kind == "eg32":
        return fixture_eg32().cover
    if kind == "triangle":
        return fixture_triangle().cover
    if kind == "stats":
        nerve = random_nerve_for_stats(DEFAULT_STATS_ROWS, seed)
        return cover_from_stats(DEFAULT_STATS_ROWS, nerve, seed=seed)
    return gen_random_cover(t, seed, extra_edge_prob=extra_edge_prob)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "stats", "eg32", "triangle"]),
    t=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
    extra_edge_prob=st.floats(min_value=0.0, max_value=1.0),
    strategy=st.sampled_from(["bfs", "random", "max_overlap"]),
)
def test_root_free_nodes_are_the_free_nodes_no_partition_eliminates(
    kind, t, seed, extra_edge_prob, strategy
):
    """The root-only rule names exactly the unobserved nodes outside every
    edge's y-set, on every tree and root."""
    cover = _property_cover(kind, seed, t, extra_edge_prob)
    stree = spanning_tree(build_nerve(cover), strategy, cover, seed=seed)
    free = set(cover.graph.nodes) - cover.observable_set
    for root in range(cover.t):
        dt = direct_tree(stree, root)
        eliminated = set().union(*(p.y_vars for p in compute_partitions(cover, dt).values()))
        assert _root_free_nodes(cover, dt) == free - eliminated
