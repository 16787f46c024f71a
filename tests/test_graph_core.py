"""Graph representation and the topological toolkit against oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradenet import (
    Graph,
    InvalidArgumentError,
    betweenness_all,
    clustering_all,
    connected_components,
    edge_betweenness,
    girvan_newman,
    modularity,
)
from conftest import (
    brute_betweenness,
    brute_clustering,
    clustering_coefficient,
    degree,
    dict_edge_betweenness,
    random_graph,
    whole_graph_girvan_newman,
)


def path_graph(n):
    return Graph(edges=[(i, i + 1) for i in range(n - 1)])


def test_graph_basics():
    g = Graph(nodes=[3, 1], edges=[(1, 2)])
    assert g.nodes() == [1, 2, 3]
    assert g.edges() == [(1, 2)]
    assert g.has_edge(2, 1)
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
    clone = g.copy()
    clone.remove_edge(1, 2)
    assert g.has_edge(1, 2) and not clone.has_edge(1, 2)


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
    assert comps == [{"c", "d", "e"}, {"a", "b"}, {"z"}]


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
    edgeless graphs and disconnected starts."""
    n = draw(st.integers(min_value=0, max_value=14))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
    # str(v) sorts 10 before 2, so label order differs from insertion order
    label = draw(st.sampled_from([int, str]))
    g = Graph(nodes=map(label, range(n)))
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < density:
            g.add_edge(label(u), label(v))
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
    previous = [frozenset(c) for c in base]
    for _, parts in partition.dendrogram:
        assert len(parts) >= len(previous) >= 1
        # refinement: every new community sits inside one old community
        for community in parts:
            assert any(community <= old for old in previous)
        previous = parts
