"""Graph representation and the topological toolkit against oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradenet.errors import InvalidArgumentError
from gradenet.graph import (
    _TIE_EPS,
    Graph,
    _dense_betweenness,
    _dense_clustering,
    connected_components,
    girvan_newman,
)
from conftest import (
    betweenness_all,
    brute_betweenness,
    brute_clustering,
    clustering_all,
    clustering_coefficient,
    copy_graph,
    degree,
    dense_betweenness_oracle,
    dict_edge_betweenness,
    edge_betweenness,
    graph_from_adjacency,
    has_edge,
    modularity,
    predecessor_girvan_newman,
    random_graph,
    remove_edge,
    whole_graph_girvan_newman,
)


def path_graph(n):
    return Graph(edges=[(i, i + 1) for i in range(n - 1)])


def test_graph_basics():
    g = Graph(nodes=[3, 1], edges=[(1, 2)])
    assert g.nodes() == [1, 2, 3]
    assert g.edges() == [(1, 2)]
    assert has_edge(g, 2, 1)
    assert degree(g, 1) == 1 and degree(g, 3) == 0
    with pytest.raises(InvalidArgumentError):
        g.add_edge(1, 1)
    with pytest.raises(KeyError):
        degree(g, 99)


def test_degree_sum_equals_twice_edges():
    rng = np.random.default_rng(0)
    for _ in range(30):
        g = random_graph(rng)
        assert sum(degree(g, v) for v in g.nodes()) == 2 * g.number_of_edges()


def test_subgraph_and_copy():
    g = Graph(edges=[(1, 2), (2, 3), (3, 4)])
    sub = g.subgraph([1, 2, 3])
    assert sub.edges() == [(1, 2), (2, 3)]
    clone = copy_graph(g)
    remove_edge(clone, 1, 2)
    assert has_edge(g, 1, 2) and not has_edge(clone, 1, 2)


def test_clustering_fixtures():
    triangle = Graph(edges=[(0, 1), (1, 2), (0, 2)])
    assert clustering_coefficient(triangle, 0) == 1.0
    path = path_graph(3)
    assert clustering_coefficient(path, 1) == 0.0
    assert clustering_coefficient(path, 0) == 0.0  # degree-1 convention
    paw = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
    assert clustering_coefficient(paw, 2) == pytest.approx(1.0 / 3.0)


def test_betweenness_fixtures():
    path = path_graph(5)
    bc = betweenness_all(path)
    assert bc[0] == 0.0 and bc[2] == 4.0  # center of P5 covers 4 pairs
    star = Graph(edges=[("h", f"l{i}") for i in range(4)])
    bc = betweenness_all(star)
    assert bc["h"] == 6.0  # all leaf pairs route through the hub
    square = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    bc = betweenness_all(square)
    assert all(v == pytest.approx(0.5) for v in bc.values())


def test_metrics_match_oracles_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(120):
        g = random_graph(rng)
        expected_bc = brute_betweenness(g)
        actual_bc = betweenness_all(g)
        for v in g.nodes():
            assert actual_bc[v] == pytest.approx(expected_bc[v], abs=1e-9)
            assert clustering_coefficient(g, v) == pytest.approx(
                brute_clustering(g, v), abs=1e-9
            )
        assert clustering_all(g) == pytest.approx(
            {v: brute_clustering(g, v) for v in g.nodes()}, abs=1e-9
        )


def test_connected_components_ordering():
    g = Graph(nodes=["z"], edges=[("a", "b"), ("c", "d"), ("d", "e")])
    comps = connected_components(g)
    assert comps == [["c", "d", "e"], ["a", "b"], ["z"]]


def test_edge_betweenness_bridge():
    # two triangles joined by a bridge: the bridge carries all 9 cross pairs
    g = Graph(edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    eb = edge_betweenness(g)
    assert eb[(2, 3)] == max(eb.values())
    assert eb[(2, 3)] == pytest.approx(9.0)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=12))
@settings(max_examples=200, deadline=None)
def test_edge_betweenness_matches_dict_oracle(seed, max_nodes):
    g = random_graph(np.random.default_rng(seed), max_nodes=max_nodes)
    expected = dict_edge_betweenness(g)
    actual = edge_betweenness(g)
    assert actual.keys() == expected.keys()
    for e, value in expected.items():
        assert actual[e] == pytest.approx(value, abs=1e-9)


def adjacency(n, edges):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def grid(rows, cols):
    right = [(k, k + 1) for k in range(rows * cols) if (k + 1) % cols]
    down = [(k, k + cols) for k in range(rows * cols - cols)]
    return adjacency(rows * cols, right + down)


def hypercube(dim):
    n = 2**dim
    return adjacency(n, [(u, u | 1 << k) for u in range(n) for k in range(dim) if not u >> k & 1])


def cycle(n):
    return adjacency(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(p, q):
    return adjacency(p + q, [(u, v) for u in range(p) for v in range(p, p + q)])


def path(n):
    return adjacency(n, [(i, i + 1) for i in range(n - 1)])


def random_tree(n, rng):
    return adjacency(n, [(int(rng.integers(v)), v) for v in range(1, n)])


@st.composite
def betweenness_inputs(draw):
    """Adjacency arrays: random graphs of 0..16 nodes (isolated nodes and
    disconnected ones included), tie-heavy symmetric graphs (grids, the
    hypercubes up to Q4, cycles, K_{p,q}) and deep ones (paths, cycles and
    random trees of up to 40 nodes, whose sweeps run 10 or more levels), as
    1..3 disjoint copies under a random node order."""
    kind = draw(
        st.sampled_from(["random", "grid", "hypercube", "cycle", "bipartite", "path", "tree"])
    )
    if kind == "random":
        n = draw(st.integers(min_value=0, max_value=16))
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
        a = np.triu(rng.random((n, n)) < density, 1).astype(float)
        a = a + a.T
    elif kind == "grid":
        a = grid(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    elif kind == "hypercube":
        a = hypercube(draw(st.integers(0, 4)))
    elif kind == "cycle":
        a = cycle(draw(st.integers(3, 40)))
    elif kind == "bipartite":
        a = complete_bipartite(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    elif kind == "path":
        a = path(draw(st.integers(1, 40)))
    else:
        n = draw(st.integers(1, 40))
        a = random_tree(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    a = np.kron(np.eye(draw(st.integers(1, 3))), a)
    order = draw(st.permutations(range(len(a))))
    return a[np.ix_(order, order)]


@given(betweenness_inputs())
@example(np.zeros((0, 0)))
@example(np.zeros((1, 1)))
@example(np.zeros((2, 2)))
@example(adjacency(2, [(0, 1)]))
@example(path(40))
@example(cycle(40))
@settings(max_examples=300, deadline=None)
def test_dense_betweenness_matches_predecessor_oracle(a):
    expected_nodes, expected_edges = dense_betweenness_oracle(a, edges=True)
    # the edge call leaves node totals out, so they come from the node call
    no_nodes, edges, seen = _dense_betweenness(a, edges=True)
    assert no_nodes is None
    assert np.array_equal(edges, expected_edges)
    nodes, no_edges, node_seen = _dense_betweenness(a, edges=False)
    assert np.array_equal(nodes, expected_nodes)
    assert no_edges is None
    assert np.array_equal(node_seen, seen)
    # seen is the reachability matrix: true exactly within a component
    component = np.empty(len(a), dtype=int)
    for k, members in enumerate(connected_components(graph_from_adjacency(range(len(a)), a))):
        component[list(members)] = k
    assert seen.dtype == bool
    assert np.array_equal(seen, component[:, None] == component[None, :])


@st.composite
def adjacency_stacks(draw):
    """Stacks (k, n, n) of adjacency arrays of one size n in 0..14, k in 1..6.

    A stack mixes random graphs of several densities (isolated nodes and
    disconnected ones included), paths on part of the nodes and random
    trees, under random node orders, so its matrices' sweeps end at
    different BFS depths.
    """
    n = draw(st.integers(min_value=0, max_value=14))
    stack = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        kind = draw(st.sampled_from(["random", "path", "tree"]))
        a = np.zeros((n, n))
        if kind == "random":
            density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
            a = np.triu(rng.random((n, n)) < density, 1).astype(float)
            a = a + a.T
        elif kind == "path" and n:
            size = draw(st.integers(min_value=1, max_value=n))
            a[:size, :size] = path(size)
        elif n:
            a = random_tree(n, rng)
        order = draw(st.permutations(range(n)))
        stack.append(a[np.ix_(order, order)])
    return np.array(stack)


@given(adjacency_stacks())
@example(np.zeros((1, 0, 0)))
@example(np.zeros((3, 1, 1)))
@example(np.stack([adjacency(2, [(0, 1)]), np.zeros((2, 2))]))
@example(np.stack([path(12), adjacency(12, []), cycle(12), np.kron(np.eye(3), cycle(4))]))
@settings(max_examples=300, deadline=None)
def test_stacked_kernels_match_each_matrix_alone(stack):
    # bit for bit: a stacked call gives each matrix what a call on it alone
    # gives, also in a stack of stacks
    for a in (stack, np.stack([stack, stack[::-1]])):
        lead = a.shape[:-2]
        alone = a.reshape((math.prod(lead),) + a.shape[-2:])
        for edges in (False, True):
            stacked = _dense_betweenness(a, edges=edges)
            singles = zip(*(_dense_betweenness(m, edges=edges) for m in alone))
            for part, single in zip(stacked, singles):
                if part is None:
                    assert all(s is None for s in single)
                else:
                    assert part.shape == lead + single[0].shape
                    assert np.array_equal(part.reshape((len(alone),) + single[0].shape), single)
        clustering = _dense_clustering(a)
        assert clustering.shape == a.shape[:-1]
        assert np.array_equal(clustering.reshape(alone.shape[:-1]), [_dense_clustering(m) for m in alone])


def test_modularity_fixtures():
    two_triangles = Graph(edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert modularity(two_triangles, [{0, 1, 2}, {3, 4, 5}]) == pytest.approx(0.5)
    assert modularity(two_triangles, [{0, 1, 2, 3, 4, 5}]) == pytest.approx(0.0)
    edgeless = Graph(nodes=[1, 2])
    assert modularity(edgeless, [{1}, {2}]) == 0.0
    with pytest.raises(InvalidArgumentError):
        modularity(two_triangles, [{0, 1}, {1, 2, 3, 4, 5}])
    with pytest.raises(InvalidArgumentError):
        modularity(two_triangles, [{0, 1, 2}])


def two_cliques_with_bridge(k):
    g = Graph()
    left = [f"a{i}" for i in range(k)]
    right = [f"b{i}" for i in range(k)]
    for side in (left, right):
        for u, v in itertools.combinations(side, 2):
            g.add_edge(u, v)
    g.add_edge(left[0], right[0])
    return g, set(left), set(right)


def test_girvan_newman_two_cliques():
    g, left, right = two_cliques_with_bridge(8)
    partition = girvan_newman(g)
    assert set(map(frozenset, partition.communities)) == {
        frozenset(left),
        frozenset(right),
    }
    assert partition.modularity_q == pytest.approx(
        modularity(g, [left, right]), abs=1e-12
    )


def test_girvan_newman_disconnected_start():
    two_triangles = Graph(edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    partition = girvan_newman(two_triangles)
    assert set(map(frozenset, partition.communities)) == {
        frozenset({0, 1, 2}),
        frozenset({3, 4, 5}),
    }
    assert partition.modularity_q == pytest.approx(0.5, abs=1e-12)


def test_girvan_newman_deterministic():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_graph(rng)
        first = girvan_newman(g)
        second = girvan_newman(g)
        assert first.communities == second.communities
        assert first.dendrogram == second.dendrogram


def assert_matches_whole_graph_oracle(g):
    actual = girvan_newman(g)
    for scorer in (edge_betweenness, dict_edge_betweenness):
        expected = whole_graph_girvan_newman(g, scorer)
        assert actual.communities == expected.communities
        assert actual.dendrogram == expected.dendrogram
        assert actual.modularity_q == expected.modularity_q


@st.composite
def gn_graphs(draw):
    """Graphs of 0..14 nodes, int or str labels, including isolated nodes,
    edgeless graphs and disconnected starts; or two disjoint copies of one
    random graph of 0..8 nodes under one random relabelling of all their
    nodes, whose equal edge-betweenness maxima in two parts test the tie
    rule across parts."""
    copies = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(min_value=0, max_value=14 if copies == 1 else 8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
    # str(v) sorts 10 before 2, so label order differs from insertion order
    label = draw(st.sampled_from([int, str]))
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density]
    # copy c names node v label(names[c * n + v]), so the copies interleave in
    # label order and either may hold the smallest tied edge
    names = draw(st.permutations(range(copies * n)))
    g = Graph(nodes=map(label, range(copies * n)))
    for c in range(copies):
        for u, v in pairs:
            g.add_edge(label(names[c * n + u]), label(names[c * n + v]))
    return g


def complete(nodes):
    return list(itertools.combinations(nodes, 2))


TIE_HEAVY = {
    "C8": Graph(edges=[(i, (i + 1) % 8) for i in range(8)]),
    "K5": Graph(edges=complete(range(5))),
    "K3,3": Graph(edges=[(u, v) for u in range(3) for v in range(3, 6)]),
    "2K4": Graph(edges=complete(range(4)) + complete(range(4, 8))),
}


@pytest.mark.parametrize("name", sorted(TIE_HEAVY))
def test_girvan_newman_tie_heavy_matches_whole_graph_oracle(name):
    assert_matches_whole_graph_oracle(TIE_HEAVY[name])


@given(gn_graphs())
@settings(max_examples=300, deadline=None)
def test_girvan_newman_matches_whole_graph_oracle(g):
    assert_matches_whole_graph_oracle(g)


@st.composite
def predecessor_gn_graphs(draw):
    """A disjoint union of one to three parts of at most 30 nodes in all,
    each a random graph at any density, a single node, or one of the
    tie-heavy C_n, K_n, K_{a,b}, grids and 2K4, under one random int or str
    relabelling of all nodes."""
    parts, room = [], 30
    for _ in range(draw(st.integers(1, 3))):
        if not room:
            break
        kind = draw(
            st.sampled_from(["random", "single", "cycle", "complete", "bipartite", "grid", "2K4"])
        )
        if kind == "random":
            n = draw(st.integers(1, room))
            rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
            a = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 1.0)), 1).astype(float)
            a = a + a.T
        elif kind == "cycle" and room >= 3:
            a = cycle(draw(st.integers(3, room)))
        elif kind == "complete":
            n = draw(st.integers(1, room))
            a = adjacency(n, complete(range(n)))
        elif kind == "bipartite" and room >= 2:
            p = draw(st.integers(1, room - 1))
            a = complete_bipartite(p, draw(st.integers(1, room - p)))
        elif kind == "grid":
            rows = draw(st.integers(1, min(room, 6)))
            a = grid(rows, draw(st.integers(1, room // rows)))
        elif kind == "2K4" and room >= 8:
            a = adjacency(8, complete(range(4)) + complete(range(4, 8)))
        else:
            a = np.zeros((1, 1))
        parts.append(a)
        room -= len(a)
    a = scipy.linalg.block_diag(*parts)
    order = draw(st.permutations(range(len(a))))
    label = draw(st.sampled_from([int, str]))
    return graph_from_adjacency(map(label, range(len(a))), a[np.ix_(order, order)])


@given(predecessor_gn_graphs())
@example(Graph())
@example(Graph(nodes=["z"]))
@example(TIE_HEAVY["C8"])
@example(TIE_HEAVY["K5"])
@example(TIE_HEAVY["K3,3"])
@example(TIE_HEAVY["2K4"])
@example(graph_from_adjacency(range(30), grid(5, 6)))
@settings(max_examples=200, deadline=None)
def test_girvan_newman_matches_predecessor_oracle(g):
    actual = girvan_newman(g)
    expected = predecessor_girvan_newman(g)
    # communities, dendrogram and Q; == on floats leaves out only the sign of zero
    assert actual == expected
    assert actual.modularity_q.hex() == expected.modularity_q.hex()


@given(gn_graphs())
@example(TIE_HEAVY["C8"])
@example(TIE_HEAVY["K5"])
@example(TIE_HEAVY["K3,3"])
@example(TIE_HEAVY["2K4"])
@settings(max_examples=300, deadline=None)
def test_girvan_newman_q_is_modularity_of_best_level(g):
    partition = girvan_newman(g)
    assert partition.modularity_q == modularity(g, partition.communities)
    for _, parts in partition.dendrogram:
        assert modularity(g, parts) <= partition.modularity_q + _TIE_EPS


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_girvan_newman_dendrogram_refinement(seed):
    g = random_graph(np.random.default_rng(seed))
    partition = girvan_newman(g)
    assert frozenset().union(*partition.communities or [frozenset()]) == frozenset(
        g.nodes()
    ) or not g.nodes()
    assert -1.0 <= partition.modularity_q <= 1.0
    # single-community modularity of a connected graph is 0; the best
    # partition can never score below the component partition it starts from
    base = connected_components(g)
    assert partition.modularity_q >= modularity(g, base) - 1e-12
    previous = [set(c) for c in base]
    for _, parts in partition.dendrogram:
        assert len(parts) >= len(previous) >= 1
        # refinement: every new community sits inside one old community
        parts = [set(c) for c in parts]
        for community in parts:
            assert any(community <= old for old in previous)
        previous = parts


def test_girvan_newman_one_kernel_call_per_removal(monkeypatch):
    calls = []

    def counting(a, *, edges):
        calls.append(a.shape[0])
        return _dense_betweenness(a, edges=edges)

    monkeypatch.setattr("gradenet.graph._dense_betweenness", counting)
    bridged, _, _ = two_cliques_with_bridge(4)
    bridged.add_node("z")  # an isolated node: a starting component without an edge
    for g in [bridged, *TIE_HEAVY.values()]:
        calls.clear()
        girvan_newman(g)
        # one call on the whole graph, then one per removal
        assert len(calls) == g.number_of_edges() + 1
