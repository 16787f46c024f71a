"""Randomized graph families and the seeded stream machinery."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradenet.errors import InvalidArgumentError
from gradenet.graph import Graph, _adjacency_matrix
from gradenet.nullmodels import (
    NullModelSpec,
    SeedStream,
    er_gnm,
    generate_null,
    max_edges,
    random_geometric,
    SwapChain,
    _smallest_pairs,
    spec_for,
)
from conftest import (
    graph_er_gnm,
    graph_from_adjacency,
    graph_random_geometric,
    graph_switch_randomize,
    random_graph,
    switch_randomize,
)


def test_seed_stream_reproducible():
    stream = SeedStream.from_seed(5)
    a = stream.child(3).generator().random(4)
    b = stream.child(3).generator().random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, stream.child(4).generator().random(4))
    assert stream.child(1).child(2).generator().random() == stream.child(1, 2).generator().random()
    with pytest.raises(InvalidArgumentError):
        SeedStream.from_seed(-1)


def test_er_gnm_exact_counts():
    rng = np.random.default_rng(0)
    g = graph_from_adjacency(range(12), er_gnm(12, 20, rng, 1)[0])
    assert g.number_of_nodes() == 12
    assert g.number_of_edges() == 20
    assert all(u != v for u, v in g.edges())


def test_er_gnm_bounds():
    rng = np.random.default_rng(0)
    complete = graph_from_adjacency(range(5), er_gnm(5, 10, rng, 1)[0])
    assert complete.number_of_edges() == 10  # complete K5
    assert graph_from_adjacency([], er_gnm(0, 0, rng, 1)[0]).number_of_nodes() == 0
    with pytest.raises(InvalidArgumentError):
        er_gnm(5, 11, rng, 1)
    with pytest.raises(InvalidArgumentError):
        er_gnm(-1, 0, rng, 1)


def test_er_gnm_uniformity_smoke():
    # every labeled 3-node, 1-edge graph appears with frequency ~1/3
    from collections import Counter

    rng = np.random.default_rng(1)
    counts = Counter(
        tuple(graph_from_adjacency(range(3), er_gnm(3, 1, rng, 1)[0]).edges()) for _ in range(3000)
    )
    assert set(counts) == {((0, 1),), ((0, 2),), ((1, 2),)}
    assert all(abs(c / 3000 - 1 / 3) < 0.05 for c in counts.values())


def test_er_gnm_stack_uniform_over_two_edge_graphs():
    # the 15 graphs with two edges on 4 labeled nodes, drawn as stacks of 40
    # from one generator: Pearson's chi-square against the uniform law; 36.12
    # is its quantile at p = 1e-3 for 14 degrees of freedom
    rng = np.random.default_rng(17)
    samples, count = 15_000, 15
    stacks = [er_gnm(4, 2, rng, size=40) for _ in range(samples // 40)]
    upper = np.concatenate(stacks)[:, np.triu(np.ones((4, 4), dtype=bool), 1)]
    assert (upper.sum(axis=1) == 2).all()
    observed = np.unique(upper, axis=0, return_counts=True)[1]
    assert len(observed) == count
    expected = samples / count
    assert ((observed - expected) ** 2 / expected).sum() < 36.12


def test_switch_randomize_preserves_degrees():
    rng = np.random.default_rng(2)
    for _ in range(25):
        g = random_graph(rng, max_nodes=12)
        shuffled = graph_from_adjacency(
            g.nodes(), switch_randomize(_adjacency_matrix(g)[1], 5.0, rng)
        )
        assert shuffled.number_of_edges() == g.number_of_edges()
        for v in g.nodes():
            assert len(shuffled.neighbors(v)) == len(g.neighbors(v))
        assert all(u != v for u, v in shuffled.edges())


def test_switch_randomize_small_inputs():
    rng = np.random.default_rng(3)
    single = Graph(edges=[(0, 1)])
    shuffled = switch_randomize(_adjacency_matrix(single)[1], 10.0, rng)
    assert graph_from_adjacency([0, 1], shuffled).edges() == [(0, 1)]
    for multiplier in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidArgumentError):
            switch_randomize(_adjacency_matrix(single)[1], multiplier, rng)


def test_switch_randomize_mixing():
    """Multiplier 10 rewires at least 10% of edges in >= 95% of replicates."""
    rng = np.random.default_rng(4)
    g = graph_from_adjacency(range(100), er_gnm(100, 300, rng, 1)[0])
    original = set(g.edges())
    moved_enough = 0
    for _ in range(100):
        shuffled = graph_from_adjacency(
            g.nodes(), switch_randomize(_adjacency_matrix(g)[1], 10.0, rng)
        )
        changed = len(original - set(shuffled.edges())) / len(original)
        moved_enough += changed >= 0.10
    assert moved_enough >= 95


def test_random_geometric_edges_match_positions():
    rng = np.random.default_rng(5)
    g = graph_from_adjacency(range(40), random_geometric(40, 100, rng, 1)[0])
    # the positions are the generator's first draw; the 100 edges are the
    # closest pairs, so no pair left out is closer than a joined one
    positions = np.random.default_rng(5).random((40, 2))
    distance = lambda u, v: math.dist(positions[u], positions[v])
    edges = set(g.edges())
    others = set(itertools.combinations(range(40), 2)) - edges
    assert len(edges) == 100
    assert max(distance(u, v) for u, v in edges) <= min(distance(u, v) for u, v in others)


def test_random_geometric_extremes():
    rng = np.random.default_rng(6)
    empty = graph_from_adjacency(range(10), random_geometric(10, 0, rng, 1)[0])
    assert empty.number_of_edges() == 0
    complete = graph_from_adjacency(range(10), random_geometric(10, 45, rng, 1)[0])
    assert complete.number_of_edges() == 45
    assert graph_from_adjacency([], random_geometric(0, 0, rng, 1)[0]).number_of_nodes() == 0
    for n, m in ((10, 46), (10, -1), (-1, 0)):
        with pytest.raises(InvalidArgumentError):
            random_geometric(n, m, rng, 1)


@pytest.mark.parametrize("model", ["er", "grg"])
@pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (2, 0), (2, 1), (6, 0), (6, 15), (30, 147)])
def test_er_and_grg_replicates_have_exactly_m_edges(model, n, m):
    spec = NullModelSpec(kind=model, n=n, m=m)
    stack = generate_null(spec, np.random.default_rng(n + m), 25)
    assert stack.shape == (25, n, n) and stack.dtype == bool
    assert np.array_equal(stack, stack.swapaxes(1, 2))
    assert not stack.diagonal(axis1=1, axis2=2).any()
    assert (np.count_nonzero(stack, axis=(1, 2)) == 2 * m).all()


def test_smallest_pairs_exact_where_keys_tie():
    # a threshold at the m-th key would join every tied pair
    keys = np.array([[0.5] * 10, [0.0, 1.0] * 5])
    stack = _smallest_pairs(5, 3, 2, lambda: keys)
    assert (np.count_nonzero(stack, axis=(1, 2)) == 6).all()
    assert np.array_equal(stack, stack.swapaxes(1, 2))


@pytest.mark.parametrize("model", ["er", "degseq", "grg"])
def test_generate_null_deterministic(model):
    rng = np.random.default_rng(9)
    g = graph_from_adjacency(range(25), er_gnm(25, 60, rng, 1)[0])
    stream = SeedStream.from_seed(10)
    spec = spec_for(model, _adjacency_matrix(g)[1])
    source = None if spec.source is None else spec.source.copy()

    def draw(i):
        # a DEGSEQ draw is the first sample of a fresh chain
        chain = None if source is None else SwapChain(spec.source, spec.swap_multiplier)
        a = generate_null(spec, stream.child(i).generator(), 1, chain)[0]
        return graph_from_adjacency(g.nodes(), a)

    first, second = draw(0), draw(0)
    assert first.edges() == second.edges()
    # the draws read the DEGSEQ source adjacency and leave it as it was
    assert (spec.source is None) == (model != "degseq")
    if source is not None:
        assert np.array_equal(spec.source, source)
    other = draw(1)
    assert first.nodes() == other.nodes()


def test_spec_for_unknown_model():
    g = Graph(edges=[(0, 1)])
    with pytest.raises(InvalidArgumentError):
        spec_for("config", _adjacency_matrix(g)[1])
    with pytest.raises(InvalidArgumentError):
        generate_null(NullModelSpec(kind="??", n=2, m=1), np.random.default_rng(0), 1)


def test_generate_null_refuses_another_specs_chain():
    a = er_gnm(12, 20, np.random.default_rng(3), 1)[0]
    spec = spec_for("degseq", a, swap_multiplier=4.0)
    rng = np.random.default_rng(4)
    assert generate_null(spec, rng, 1, SwapChain(a, 4.0)).shape == (1, *a.shape)
    # DEGSEQ draws only from a chain: a missing one fails the same check
    for chain in (SwapChain(a.copy(), 4.0), SwapChain(a, 5.0), None):
        with pytest.raises(InvalidArgumentError, match="swap chain"):
            generate_null(spec, rng, 1, chain)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=9))
@settings(max_examples=60, deadline=None)
def test_er_gnm_property(seed, n):
    rng = np.random.default_rng(seed)
    limit = n * (n - 1) // 2
    m = int(rng.integers(0, limit + 1))
    g = graph_from_adjacency(range(n), er_gnm(n, m, np.random.default_rng(seed), 1)[0])
    assert g.number_of_nodes() == n
    assert g.number_of_edges() == m
    for u, v in g.edges():
        assert u != v
        assert u in g.neighbors(v) and v in g.neighbors(u)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_switch_randomize_property(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, max_nodes=10)
    shuffled = graph_from_adjacency(
        g.nodes(), switch_randomize(_adjacency_matrix(g)[1], 3.0, rng)
    )
    degrees = lambda graph: sorted((v, len(graph.neighbors(v))) for v in graph.nodes())
    assert degrees(shuffled) == degrees(g)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(["er", "degseq", "grg"]),
)
@settings(max_examples=80, deadline=None)
def test_a_stack_holds_successive_single_draws(seed, n, size, model):
    # a stack of k replicates equals k stacks of one from one generator, in
    # order, and leaves the generator where they leave it
    limit = max_edges(n)
    m = int(np.random.default_rng(seed).integers(0, limit + 1))
    a = er_gnm(n, m, np.random.default_rng(0), 1)[0]
    spec = spec_for(model, a)

    def chain():
        return SwapChain(spec.source, spec.swap_multiplier) if model == "degseq" else None

    rng_stack, rng_single = np.random.default_rng(seed), np.random.default_rng(seed)
    stack = generate_null(spec, rng_stack, size, chain())
    single = chain()
    expected = np.concatenate([generate_null(spec, rng_single, 1, single) for _ in range(size)])
    assert stack.shape == (size, n, n) and stack.dtype == bool
    assert np.array_equal(stack, expected)
    assert rng_stack.random() == rng_single.random()


def assert_same_draws(array_fn, graph_fn, seed):
    """array_fn and the Graph oracle graph_fn give one edge set and leave one RNG state."""
    rng_array = np.random.default_rng(seed)
    rng_graph = np.random.default_rng(seed)
    a = array_fn(rng_array)
    g = graph_fn(rng_graph)
    _, expected = _adjacency_matrix(g)
    assert a.dtype == bool
    assert np.array_equal(a, expected > 0)
    assert rng_array.random() == rng_graph.random()


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=12))
@settings(max_examples=60, deadline=None)
def test_er_gnm_matches_graph_oracle(seed, n):
    m = int(np.random.default_rng(seed).integers(0, n * (n - 1) // 2 + 1))
    assert_same_draws(lambda r: er_gnm(n, m, r, 1)[0], lambda r: graph_er_gnm(n, m, r), seed)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=12), st.data())
@settings(max_examples=60, deadline=None)
def test_random_geometric_matches_graph_oracle(seed, n, data):
    m = data.draw(st.integers(min_value=0, max_value=max_edges(n)))
    assert_same_draws(
        lambda r: random_geometric(n, m, r, 1)[0], lambda r: graph_random_geometric(n, m, r), seed
    )


def test_er_gnm_matches_graph_oracle_at_ladder_size():
    # the triangle mask fills edges in the order of graph_er_gnm's np.triu_indices
    for seed in range(200):
        assert_same_draws(
            lambda r: er_gnm(30, 147, r, 1)[0], lambda r: graph_er_gnm(30, 147, r), seed
        )


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_er_and_grg_match_graph_oracles(n):
    for m in range(n * (n - 1) // 2 + 1):
        assert_same_draws(lambda r: er_gnm(n, m, r, 1)[0], lambda r: graph_er_gnm(n, m, r), 11)
        assert_same_draws(
            lambda r: random_geometric(n, m, r, 1)[0], lambda r: graph_random_geometric(n, m, r), 12
        )


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.5, 1.0, 3.0, 10.0]),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_switch_randomize_matches_graph_oracle(seed, multiplier, string_labels):
    g = random_graph(np.random.default_rng(seed), max_nodes=12)
    if string_labels:
        # "v10" sorts before "v2": the array follows graph.nodes() order
        name = lambda v: f"v{v}"
        g = Graph(nodes=map(name, g.nodes()), edges=[(name(u), name(v)) for u, v in g.edges()])
    assert_same_draws(
        lambda r: switch_randomize(_adjacency_matrix(g)[1], multiplier, r),
        lambda r: graph_switch_randomize(g, multiplier, r),
        seed + 1,
    )


@pytest.mark.parametrize(
    "graph",
    [
        Graph(nodes=range(3)),
        Graph(edges=[(0, 1)]),
        Graph(nodes=["x"], edges=[("b", "a")]),
    ],
    ids=["edgeless", "one-edge", "one-edge-isolated"],
)
def test_switch_randomize_single_edge_matches_graph_oracle(graph):
    assert_same_draws(
        lambda r: switch_randomize(_adjacency_matrix(graph)[1], 10.0, r),
        lambda r: graph_switch_randomize(graph, 10.0, r),
        13,
    )


def _complete_minus(k: int, missing=()) -> Graph:
    pairs = itertools.combinations(range(k), 2)
    return Graph(edges=[(u, v) for u, v in pairs if (u, v) not in missing])


@pytest.mark.parametrize(
    "graph",
    [_complete_minus(5), _complete_minus(6), _complete_minus(8, {(0, 1), (2, 3)})],
    ids=["5", "6", "8-minus-01-23"],
)
def test_switch_randomize_complete_graph_matches_graph_oracle(graph):
    # K5 and K6 admit no swap at all; in K8 without two disjoint edges about
    # 0.3 % of proposals are accepted
    assert_same_draws(
        lambda r: switch_randomize(_adjacency_matrix(graph)[1], 10.0, r),
        lambda r: graph_switch_randomize(graph, 10.0, r),
        14,
    )


@pytest.mark.parametrize(
    "m, multiplier",
    [(256, 16.0), (256, 4097 / 256), (300, 20.0)],
    ids=["one-full-block", "one-past-block", "two-blocks"],
)
def test_switch_randomize_across_block_boundary_matches_graph_oracle(m, multiplier):
    # the chain draws its proposals in blocks of 4096: 4096, 4097 and 6000
    # proposals here, on (40, m)
    g = graph_from_adjacency(range(40), er_gnm(40, m, np.random.default_rng(m), 1)[0])
    assert_same_draws(
        lambda r: switch_randomize(_adjacency_matrix(g)[1], multiplier, r),
        lambda r: graph_switch_randomize(g, multiplier, r),
        16,
    )


def _realizations(degrees) -> list:
    """Every simple graph on range(len(degrees)) with this degree sequence, as an adjacency."""
    n = len(degrees)
    out = []
    for edges in itertools.combinations(itertools.combinations(range(n), 2), sum(degrees) // 2):
        a = np.zeros((n, n), dtype=bool)
        a[tuple(np.array(edges).T)] = True
        a |= a.T
        if a.sum(axis=1).tolist() == list(degrees):
            out.append(a)
    return out


# critical values are chi-square quantiles at p = 1e-3 for (realizations - 1)
# degrees of freedom, fixed before the test was run; two triangles offer 72
# valid proposals and a hexagon 48, so a chain that counts only accepted
# swaps over-weights the triangles by half
REALIZATION_CASES = pytest.mark.parametrize(
    "degrees, count, critical",
    [((3, 3, 2, 2, 2, 2), 54, 90.57), ((2, 2, 2, 2, 2, 2), 70, 111.06)],
    ids=["332222", "222222"],
)


def _chi_square_over_realizations(degrees, count, draw) -> float:
    """Pearson's chi-square of 20,000 draws against the uniform law on the realizations."""
    realizations = _realizations(degrees)
    assert len(realizations) == count
    index = {a.tobytes(): k for k, a in enumerate(realizations)}
    _, source = _adjacency_matrix(graph_from_adjacency(range(len(degrees)), realizations[0]))
    samples = 20_000
    observed = np.zeros(count)
    for a in draw(source, samples):
        observed[index[a.tobytes()]] += 1
    expected = samples / count
    return ((observed - expected) ** 2 / expected).sum()


@REALIZATION_CASES
def test_switch_randomize_uniform_over_realizations(degrees, count, critical):
    rng = np.random.default_rng(15)
    draw = lambda source, samples: (switch_randomize(source, 20.0, rng) for _ in range(samples))
    assert _chi_square_over_realizations(degrees, count, draw) < critical


@REALIZATION_CASES
def test_swap_chain_uniform_over_realizations(degrees, count, critical):
    # successive samples of one thinned chain, as a DEGSEQ ensemble draws them;
    # their correlation widens the statistic's spread: over seeds 15-22 it
    # averaged 56.5 and 77.7 here, against 54.8 and 70.4 for independent
    # draws (53 and 69 degrees of freedom)
    rng = np.random.default_rng(15)

    def draw(source, samples):
        chain = SwapChain(source, 20.0)
        return (chain.sample(rng, 1)[0] for _ in range(samples))

    assert _chi_square_over_realizations(degrees, count, draw) < critical
