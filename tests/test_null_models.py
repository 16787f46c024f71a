"""Randomized graph families and the seeded stream machinery."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from gradenet.errors import InvalidArgumentError
from gradenet.graph import Graph, _adjacency_matrix
from gradenet.nullmodels import (
    NullModelSpec,
    SeedStream,
    _pair_distance_cdf,
    calibrate_radius,
    er_gnm,
    generate_null,
    max_edges,
    random_geometric,
    SwapChain,
    spec_for,
)
from conftest import (
    graph_er_gnm,
    graph_from_adjacency,
    graph_random_geometric,
    graph_switch_randomize,
    monte_carlo_radius,
    random_graph,
    switch_randomize,
)


def test_seed_stream_reproducible():
    stream = SeedStream.from_seed(5)
    a = stream.generator(3).random(4)
    b = stream.generator(3).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, stream.generator(4).random(4))
    assert stream.child(1).generator(2).random() == stream.generator(1, 2).random()
    with pytest.raises(InvalidArgumentError):
        SeedStream.from_seed(-1)


def test_er_gnm_exact_counts():
    rng = np.random.default_rng(0)
    g = graph_from_adjacency(range(12), er_gnm(12, 20, rng))
    assert g.number_of_nodes() == 12
    assert g.number_of_edges() == 20
    assert all(u != v for u, v in g.edges())


def test_er_gnm_bounds():
    rng = np.random.default_rng(0)
    complete = graph_from_adjacency(range(5), er_gnm(5, 10, rng))
    assert complete.number_of_edges() == 10  # complete K5
    assert graph_from_adjacency([], er_gnm(0, 0, rng)).number_of_nodes() == 0
    with pytest.raises(InvalidArgumentError):
        er_gnm(5, 11, rng)
    with pytest.raises(InvalidArgumentError):
        er_gnm(-1, 0, rng)


def test_er_gnm_uniformity_smoke():
    # every labeled 3-node, 1-edge graph appears with frequency ~1/3
    from collections import Counter

    rng = np.random.default_rng(1)
    counts = Counter(
        tuple(graph_from_adjacency(range(3), er_gnm(3, 1, rng)).edges()) for _ in range(3000)
    )
    assert set(counts) == {((0, 1),), ((0, 2),), ((1, 2),)}
    assert all(abs(c / 3000 - 1 / 3) < 0.05 for c in counts.values())


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
    g = graph_from_adjacency(range(100), er_gnm(100, 300, rng))
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
    g = graph_from_adjacency(range(40), random_geometric(40, 0.3, rng))
    # the positions are the generator's first draw
    positions = np.random.default_rng(5).random((40, 2))
    expected = set()
    for u in range(40):
        for v in range(u + 1, 40):
            du = positions[u][0] - positions[v][0]
            dv = positions[u][1] - positions[v][1]
            if math.hypot(du, dv) <= 0.3:
                expected.add((u, v))
    assert set(g.edges()) == expected


def test_random_geometric_extremes():
    rng = np.random.default_rng(6)
    assert graph_from_adjacency(range(10), random_geometric(10, 0.0, rng)).number_of_edges() == 0
    complete = graph_from_adjacency(range(10), random_geometric(10, math.sqrt(2.0), rng))
    assert complete.number_of_edges() == 45
    with pytest.raises(InvalidArgumentError):
        random_geometric(10, -0.1, rng)


def test_calibrate_radius_hits_target():
    stream = SeedStream.from_seed(7)
    radius = calibrate_radius(50, 100)
    fresh = [
        graph_from_adjacency(
            range(50), random_geometric(50, radius, stream.generator(1, i))
        ).number_of_edges()
        for i in range(200)
    ]
    assert abs(np.mean(fresh) - 100) <= 0.05 * 100


def test_calibrate_radius_extremes():
    assert calibrate_radius(10, 0) == 0.0
    assert calibrate_radius(10, 45) == math.sqrt(2.0)
    with pytest.raises(InvalidArgumentError):
        calibrate_radius(10, 46)


def test_pair_distance_cdf_shape():
    at_one = _pair_distance_cdf(1.0)
    assert _pair_distance_cdf(math.nextafter(1.0, 2.0)) == pytest.approx(at_one, abs=1e-12)
    assert _pair_distance_cdf(math.nextafter(1.0, 0.0)) == pytest.approx(at_one, abs=1e-12)
    assert _pair_distance_cdf(0.0) == 0.0
    assert _pair_distance_cdf(math.sqrt(2.0)) == pytest.approx(1.0, abs=1e-12)
    grid = np.linspace(0.0, math.sqrt(2.0), 20_001)
    values = np.array([_pair_distance_cdf(r) for r in grid])
    # near sqrt(2), 1 - F shrinks like (sqrt(2) - r)^4 and drops below float
    # resolution; what still moves there is rounding in the formula
    assert np.diff(values).min() >= -4 * np.finfo(float).eps


def test_pair_distance_cdf_matches_sampled_pairs():
    rng = np.random.default_rng(12)
    radii = (0.05, 0.2, 0.5, 0.9, 1.1, 1.3)
    point_sets = [rng.random((2000, 2)) for _ in range(4)]
    fractions = np.mean([[np.mean(pdist(p) <= r) for r in radii] for p in point_sets], axis=0)
    for r, fraction in zip(radii, fractions):
        assert fraction == pytest.approx(_pair_distance_cdf(r), rel=0.05), r


@given(st.integers(min_value=3, max_value=120), st.data())
@settings(max_examples=200, deadline=None)
def test_calibrate_radius_exact_in_expectation(n, data):
    limit = max_edges(n)
    m = data.draw(st.integers(min_value=1, max_value=limit - 1))
    r = calibrate_radius(n, m)
    assert limit * _pair_distance_cdf(r) >= m > limit * _pair_distance_cdf(math.nextafter(r, 0.0))


def _probe_mean_edges(n: int, radius: float, seed: int, samples: int) -> float:
    # the Monte Carlo oracle's probe: mean edge count over the point sets it draws
    rng = np.random.default_rng(seed)
    return float(
        np.mean([np.count_nonzero(pdist(rng.random((n, 2))) <= radius) for _ in range(samples)])
    )


# samples put the oracle's 1 % band at about 4 standard errors of its probe mean
@pytest.mark.parametrize("n, m, samples", [(30, 147, 2500), (60, 600, 1000), (120, 1500, 500)])
def test_calibrate_radius_inside_monte_carlo_band(n, m, samples):
    oracle = monte_carlo_radius(n, m, np.random.default_rng(n), samples=samples)
    for radius in (oracle, calibrate_radius(n, m)):
        assert abs(_probe_mean_edges(n, radius, n, samples) - m) <= 0.01 * m, radius


@pytest.mark.parametrize("model", ["er", "degseq", "grg"])
def test_generate_null_deterministic(model):
    rng = np.random.default_rng(9)
    g = graph_from_adjacency(range(25), er_gnm(25, 60, rng))
    stream = SeedStream.from_seed(10)
    spec = spec_for(model, _adjacency_matrix(g)[1])
    source = None if spec.source is None else spec.source.copy()

    def draw(i):
        # a DEGSEQ draw is the first sample of a fresh chain
        chain = None if source is None else SwapChain(spec.source, spec.swap_multiplier)
        return graph_from_adjacency(g.nodes(), generate_null(spec, stream.generator(i), chain))

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
        generate_null(NullModelSpec(kind="??", n=2, m=1), np.random.default_rng(0))


def test_generate_null_refuses_another_specs_chain():
    a = er_gnm(12, 20, np.random.default_rng(3))
    spec = spec_for("degseq", a, swap_multiplier=4.0)
    rng = np.random.default_rng(4)
    assert generate_null(spec, rng, SwapChain(a, 4.0)).shape == a.shape
    # DEGSEQ draws only from a chain: a missing one fails the same check
    for chain in (SwapChain(a.copy(), 4.0), SwapChain(a, 5.0), None):
        with pytest.raises(InvalidArgumentError, match="swap chain"):
            generate_null(spec, rng, chain)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=9))
@settings(max_examples=60, deadline=None)
def test_er_gnm_property(seed, n):
    rng = np.random.default_rng(seed)
    limit = n * (n - 1) // 2
    m = int(rng.integers(0, limit + 1))
    g = graph_from_adjacency(range(n), er_gnm(n, m, np.random.default_rng(seed)))
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
    assert_same_draws(lambda r: er_gnm(n, m, r), lambda r: graph_er_gnm(n, m, r), seed)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=0.0, max_value=1.5),
)
@settings(max_examples=60, deadline=None)
def test_random_geometric_matches_graph_oracle(seed, n, radius):
    assert_same_draws(
        lambda r: random_geometric(n, radius, r),
        lambda r: graph_random_geometric(n, radius, r),
        seed,
    )


def test_er_gnm_matches_graph_oracle_at_ladder_size():
    # the triangle mask fills edges in the order of graph_er_gnm's np.triu_indices
    for seed in range(200):
        assert_same_draws(lambda r: er_gnm(30, 147, r), lambda r: graph_er_gnm(30, 147, r), seed)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tiny_er_and_grg_match_graph_oracles(n):
    for m in range(n * (n - 1) // 2 + 1):
        assert_same_draws(lambda r: er_gnm(n, m, r), lambda r: graph_er_gnm(n, m, r), 11)
    for radius in (0.0, 0.5, math.sqrt(2.0)):
        assert_same_draws(
            lambda r: random_geometric(n, radius, r),
            lambda r: graph_random_geometric(n, radius, r),
            12,
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
    g = graph_from_adjacency(range(40), er_gnm(40, m, np.random.default_rng(m)))
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
        return (chain.sample(rng) for _ in range(samples))

    assert _chi_square_over_realizations(degrees, count, draw) < critical
