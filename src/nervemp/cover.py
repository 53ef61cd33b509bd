"""Graphs, subgraph covers, nerve skeletons, trees and variable splits.

Node identifiers are dense integers 0..n-1; every iteration order is fixed
by node / subgraph index so all downstream computations are deterministic.
All objects are immutable values after construction.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedNerve, InvalidInstance


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected graph on nodes 0..n-1 without self-loops."""

    __slots__ = ("nodes", "edges")

    def __init__(self, n_nodes: int, edges):
        if n_nodes < 0:
            raise InvalidInstance(f"node count {n_nodes} is negative")
        normed = set()
        for k, (u, v) in enumerate(edges):
            if u == v:
                raise InvalidInstance(f"edge {k} is a self-loop at node {u}")
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise InvalidInstance(f"edge {k} = ({u}, {v}) leaves 0..{n_nodes - 1}")
            normed.add(_norm_edge(u, v))
        self.nodes = tuple(range(n_nodes))
        self.edges = tuple(sorted(normed))

    @property
    def n(self) -> int:
        return len(self.nodes)


class SubgraphCover:
    """A graph with t covering subgraphs and disjoint observable sets S_i.

    One pass over the subgraphs builds the node -> subgraph index, off which
    coverage and observable exclusivity are read.  `s_order` lists every
    observable node, sorted: the coordinate order of R^|S|.
    """

    __slots__ = (
        "graph", "subgraphs", "observables", "s_order", "observable_set",
        "_vsets", "_node_subgraphs",
    )

    def __init__(self, graph: Graph, subgraphs, observables):
        subgraphs = tuple(tuple(sorted(set(s))) for s in subgraphs)
        observables = tuple(tuple(sorted(set(s))) for s in observables)
        if len(subgraphs) < 1:
            raise InvalidInstance("a cover needs at least one subgraph")
        if len(observables) != len(subgraphs):
            raise InvalidInstance(
                f"{len(observables)} observable sets for {len(subgraphs)} subgraphs"
            )
        node_subgraphs: dict[int, list[int]] = {v: [] for v in graph.nodes}
        for i, s in enumerate(subgraphs):
            for v in s:
                if v not in node_subgraphs:
                    raise InvalidInstance(f"subgraph {i} contains undeclared node {v}")
                node_subgraphs[v].append(i)
        missing = [v for v, ids in node_subgraphs.items() if not ids]
        if missing:
            raise InvalidInstance(f"nodes {missing} are not covered by any subgraph")
        for i, obs in enumerate(observables):
            for v in obs:
                ids = node_subgraphs.get(v, ())
                if i not in ids:
                    raise InvalidInstance(
                        f"observable {v} of subgraph {i} is not a node of subgraph {i}"
                    )
                others = [j for j in ids if j != i]
                if others:
                    raise InvalidInstance(
                        f"observable {v} of subgraph {i} also lies in subgraph {others[0]}"
                    )
        self.graph = graph
        self.subgraphs = subgraphs
        self.observables = observables
        self.s_order = tuple(sorted(v for obs in observables for v in obs))
        self.observable_set = frozenset(self.s_order)
        self._vsets = tuple(frozenset(s) for s in subgraphs)
        self._node_subgraphs = {v: tuple(ids) for v, ids in node_subgraphs.items()}

    @property
    def t(self) -> int:
        return len(self.subgraphs)

    def node_set(self, i: int) -> frozenset:
        return self._vsets[i]

    def subgraphs_containing(self, v: int) -> tuple[int, ...]:
        return self._node_subgraphs[v]


@dataclass(frozen=True)
class NerveSkeleton:
    """One node per subgraph, an edge wherever two subgraphs intersect."""

    t: int
    edges: tuple[tuple[int, int], ...]

    def is_connected(self) -> bool:
        return self.t <= 1 or len(_bfs_parents(self.t, self.edges, 0)) == self.t - 1


@dataclass(frozen=True)
class SpanningTree:
    """Undirected spanning tree of a nerve skeleton plus its complement."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    complement: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DirectedTree:
    """Spanning tree with every edge oriented toward the root."""

    root: int
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # (tail, head) = (child, parent)
    parent: dict
    children: dict
    complement: tuple[tuple[int, int], ...]

    def postorder(self) -> tuple[int, ...]:
        """Children (in index order) before parents; root last."""
        order = []
        stack = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            else:
                stack.append((node, True))
                for c in reversed(self.children[node]):
                    stack.append((c, False))
        return tuple(order)


@dataclass(frozen=True)
class EdgePartition:
    """Variable split (s, x, y, z) of the function held at an edge's tail."""

    s_vars: tuple[int, ...]
    x_vars: tuple[int, ...]
    y_vars: tuple[int, ...]
    z_vars: tuple[int, ...]


def build_nerve(cover: SubgraphCover) -> NerveSkeleton:
    """Edges (i, j), i < j, sorted: the subgraph pairs sharing some node."""
    edges = set()
    for ids in cover._node_subgraphs.values():
        if len(ids) > 1:
            edges.update(itertools.combinations(ids, 2))
    return NerveSkeleton(t=cover.t, edges=tuple(sorted(edges)))


def _bfs_parents(t: int, edges, start: int) -> dict[int, int]:
    """Parent of each node that a breadth-first search over 0..t-1 reaches
    from `start`, neighbours taken in index order; `start` has none."""
    adj = [[] for _ in range(t)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent: dict[int, int] = {}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in sorted(adj[u]):
            if w != start and w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


class _UnionFind:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.p[ra] = rb
        return True


def spanning_tree(
    nerve: NerveSkeleton,
    strategy: str = "bfs",
    cover: SubgraphCover | None = None,
    root: int | None = None,
    seed: int | None = None,
) -> SpanningTree:
    """Spanning tree of the nerve plus its complement edge set.

    Strategies: "bfs" from `root` (default: lowest index), "random" with a
    mandatory seed, and "max_overlap" which picks a maximum-weight tree
    with weight |V_i & V_j| and lexicographic (i, j) tie-breaking.
    """
    if not nerve.is_connected():
        raise DisconnectedNerve("the nerve skeleton is not connected")
    if root is not None and not (0 <= root < nerve.t):
        raise ValueError(f"root {root} is not a nerve node (t = {nerve.t})")
    nodes = tuple(range(nerve.t))
    if nerve.t == 1:
        return SpanningTree(nodes=nodes, edges=(), complement=())
    if strategy == "bfs":
        parent = _bfs_parents(nerve.t, nerve.edges, 0 if root is None else root)
        tree = [_norm_edge(w, p) for w, p in parent.items()]
    elif strategy == "random":
        if seed is None:
            raise ValueError("random spanning tree requires a seed")
        rng = np.random.default_rng(seed)
        order = list(nerve.edges)
        rng.shuffle(order)
        uf = _UnionFind(nerve.t)
        tree = [e for e in order if uf.union(*e)]
    elif strategy == "max_overlap":
        if cover is None:
            raise ValueError("max_overlap strategy requires the cover")
        weighted = sorted(
            nerve.edges,
            key=lambda e: (-len(cover.node_set(e[0]) & cover.node_set(e[1])), e),
        )
        uf = _UnionFind(nerve.t)
        tree = [e for e in weighted if uf.union(*e)]
    else:
        raise ValueError(f"unknown spanning tree strategy {strategy!r}")
    tree_set = set(tree)
    complement = tuple(e for e in nerve.edges if e not in tree_set)
    return SpanningTree(nodes=nodes, edges=tuple(sorted(tree_set)), complement=complement)


def direct_tree(stree: SpanningTree, root: int) -> DirectedTree:
    """Orient every tree edge toward `root`."""
    if root not in stree.nodes:
        raise ValueError(f"root {root} is not a tree node")
    parent = _bfs_parents(len(stree.nodes), stree.edges, root)
    if len(parent) != len(stree.nodes) - 1:
        raise InvalidInstance("tree edges do not span all nodes")
    edges = tuple(sorted(parent.items()))
    children: dict[int, tuple[int, ...]] = {i: () for i in stree.nodes}
    for child, p in edges:
        children[p] += (child,)
    return DirectedTree(
        root=root,
        nodes=stree.nodes,
        edges=edges,
        parent=parent,
        children=children,
        complement=stree.complement,
    )


def compute_partitions(cover: SubgraphCover, dtree: DirectedTree) -> dict:
    """EdgePartition for every directed edge of the tree, keyed by (tail, head).

    For edge (g_i -> g_j), where g_i holds V_i together with the x and z
    variables of each child's edge into g_i:
      s = S_i;
      x = V_i & (V_j | union of V_k over complement edges (g_i, g_k));
      y = held non-observable variables outside x whose containing subgraphs
          all lie in the subtree rooted at g_i;
      z = the remaining held variables.
    A subtree is the contiguous post-order range that ends at its root, so
    the y test compares that range with the lowest and highest post-order
    position among a variable's containing subgraphs.

    A leaf holds V_i alone and meets every other subgraph through its one
    tree edge or a complement edge, so x is V_i's nodes in another subgraph,
    y its other unobserved nodes and z is empty: a leaf's split depends on
    the cover alone, which is why the insolubility flag is tree-independent.
    """
    order = dtree.postorder()
    pos = {i: p for p, i in enumerate(order)}
    first: dict[int, int] = {}  # post-order position where each subtree starts
    span = {}  # lowest and highest position of the subgraphs holding each node
    for v, ids in cover._node_subgraphs.items():
        where = [pos[k] for k in ids]
        span[v] = (min(where), max(where))
    comp_neighbors: dict[int, list[int]] = {i: [] for i in dtree.nodes}
    for u, v in dtree.complement:
        comp_neighbors[u].append(v)
        comp_neighbors[v].append(u)
    partitions: dict[tuple[int, int], EdgePartition] = {}
    for i in order[:-1]:  # the root, last, sends no message
        kids = dtree.children[i]
        first[i] = first[kids[0]] if kids else pos[i]
        vi = cover.node_set(i)
        held = set(vi)
        for c in kids:
            part = partitions[(c, i)]
            held.update(part.x_vars, part.z_vars)
        j = dtree.parent[i]
        x_set = vi & cover.node_set(j)
        for k in comp_neighbors[i]:
            x_set |= vi & cover.node_set(k)
        s_set = frozenset(cover.observables[i])
        lo, hi = first[i], pos[i]
        y_set = frozenset(
            v
            for v in held - x_set - cover.observable_set
            if lo <= span[v][0] and span[v][1] <= hi
        )
        z_set = held - s_set - x_set - y_set
        partitions[(i, j)] = EdgePartition(
            s_vars=tuple(sorted(s_set)),
            x_vars=tuple(sorted(x_set)),
            y_vars=tuple(sorted(y_set)),
            z_vars=tuple(sorted(z_set)),
        )
    return partitions
