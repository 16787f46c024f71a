"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from gradenet import Graph, InvalidArgumentError
from gradenet.nullmodels import max_edges

# verdict lines collected by the acceptance-test decorator, printed once
# pytest's capture has ended so they survive fd-level capturing
ACCEPTANCE_VERDICTS: list = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_VERDICTS:
        terminalreporter.write_line(line)

# Four-campaign snapshot in the ingest CSV schema (no titanium column).
SNAPSHOT_CSV = """\
campaign,grade,width_mm,thickness_mm,carbon,manganese,silicon
A,1,1800,55,0.010,0.010,0.005
A,2,1750,65,0.010,0.020,0.015
B,3,1800,65,0.020,0.020,0.010
B,4,1750,70,0.020,0.010,0.025
"""

# Worked transaction example: {A,B}, {A,C,D,E}, {B,C,D,F}, {A,B,C,D}
WORKED_ITEMSETS = [
    {"A", "B"},
    {"A", "C", "D", "E"},
    {"B", "C", "D", "F"},
    {"A", "B", "C", "D"},
]


@pytest.fixture
def snapshot_csv() -> str:
    return SNAPSHOT_CSV


@pytest.fixture
def worked_itemsets():
    return [set(s) for s in WORKED_ITEMSETS]


def all_shortest_paths(graph: Graph, s, t):
    """Every geodesic from s to t by exhaustive simple-path enumeration."""
    paths = []
    best = [None]

    def extend(path):
        if best[0] is not None and len(path) - 1 > best[0]:
            return
        v = path[-1]
        if v == t:
            length = len(path) - 1
            if best[0] is None or length < best[0]:
                best[0] = length
                paths.clear()
            if length == best[0]:
                paths.append(tuple(path))
            return
        for w in sorted(graph.neighbors(v)):
            if w not in path:
                extend(path + [w])

    extend([s])
    return paths


def brute_betweenness(graph: Graph) -> dict:
    """Raw Freeman betweenness by explicit geodesic enumeration."""
    nodes = graph.nodes()
    totals = dict.fromkeys(nodes, 0.0)
    for s, t in itertools.combinations(nodes, 2):
        paths = all_shortest_paths(graph, s, t)
        if not paths:
            continue
        for v in nodes:
            if v in (s, t):
                continue
            through = sum(1 for path in paths if v in path)
            totals[v] += through / len(paths)
    return totals


def edge_key(u, v):
    """Canonical unordered representation of an edge."""
    return (u, v) if u <= v else (v, u)


def dict_edge_betweenness(graph: Graph) -> dict:
    """Brandes edge-betweenness over unordered pairs, one source at a time.

    The dict/deque implementation that the dense kernel replaced.
    """
    eb = {e: 0.0 for e in graph.edges()}
    for s in graph.nodes():
        stack = []
        pred = {v: [] for v in graph._adj}
        sigma = dict.fromkeys(graph._adj, 0.0)
        dist = dict.fromkeys(graph._adj, -1)
        sigma[s] = 1.0
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in graph.neighbors(v):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    pred[w].append(v)
        delta = dict.fromkeys(graph._adj, 0.0)
        while stack:
            w = stack.pop()
            for v in pred[w]:
                c = sigma[v] / sigma[w] * (1.0 + delta[w])
                eb[edge_key(v, w)] += c
                delta[v] += c
    return {e: val / 2.0 for e, val in eb.items()}


def brute_clustering(graph: Graph, node) -> float:
    """Watts-Strogatz clustering by explicit neighbor-pair counting."""
    nbrs = sorted(graph.neighbors(node))
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = sum(1 for u, v in itertools.combinations(nbrs, 2) if graph.has_edge(u, v))
    return 2.0 * links / (k * (k - 1))


def random_graph(rng: np.random.Generator, max_nodes: int = 7) -> Graph:
    """A random simple graph with 1..max_nodes nodes for oracle checks."""
    n = int(rng.integers(1, max_nodes + 1))
    g = Graph(nodes=range(n))
    if n >= 2:
        pairs = list(itertools.combinations(range(n), 2))
        keep = rng.random(len(pairs)) < rng.random()
        for (u, v), k in zip(pairs, keep):
            if k:
                g.add_edge(u, v)
    return g


def kendall_exhaustive(x, y):
    """Tau-b via direct pair counting, the textbook definition."""
    n = len(x)
    concordant = discordant = tied_x = tied_y = 0
    for i, j in itertools.combinations(range(n), 2):
        dx = (x[i] > x[j]) - (x[i] < x[j])
        dy = (y[i] > y[j]) - (y[i] < y[j])
        if dx == 0:
            tied_x += 1
        if dy == 0:
            tied_y += 1
        if dx * dy > 0:
            concordant += 1
        elif dx * dy < 0:
            discordant += 1
    n0 = n * (n - 1) / 2.0
    denom = ((n0 - tied_x) * (n0 - tied_y)) ** 0.5
    if denom == 0:
        return None
    return (concordant - discordant) / denom


def graph_from_adjacency(labels, a) -> Graph:
    """The Graph on `labels` whose edges are the nonzero upper-triangle entries of `a`."""
    labels = list(labels)
    rows, cols = np.nonzero(np.triu(a))
    return Graph(
        nodes=labels,
        edges=[(labels[i], labels[j]) for i, j in zip(rows.tolist(), cols.tolist())],
    )


# The Graph-building null-model generators that the adjacency-array
# generators in gradenet.nullmodels replaced; the array versions must match
# them edge for edge and leave the generator in the same state.


def graph_er_gnm(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Uniform simple graph with exactly n nodes and m edges."""
    if n < 0:
        raise InvalidArgumentError("node count must be non-negative")
    limit = max_edges(n)
    if not (0 <= m <= limit):
        raise InvalidArgumentError(f"edge count {m} outside [0, {limit}]")
    g = Graph(nodes=range(n))
    if m == 0:
        return g
    rows, cols = np.triu_indices(n, k=1)
    chosen = rng.choice(limit, size=m, replace=False)
    for k in chosen:
        g.add_edge(int(rows[k]), int(cols[k]))
    return g


def graph_switch_randomize(
    graph: Graph, swap_multiplier: float = 10.0, rng: np.random.Generator | None = None
) -> Graph:
    """Degree-preserving double-edge-swap randomization.

    Performs ceil(swap_multiplier * m) successful swaps: two edges with four
    distinct endpoints are rewired iff neither replacement edge exists.
    Graphs with no swappable edge pair come back as a plain copy.
    """
    if swap_multiplier <= 0:
        raise InvalidArgumentError("swap multiplier must be positive")
    rng = rng if rng is not None else np.random.default_rng()
    result = graph.copy()
    edges = result.edges()
    m = len(edges)
    if m < 2:
        return result
    target = math.ceil(swap_multiplier * m)
    edge_set = set(edges)
    successes = 0
    attempts = 0
    max_attempts = max(10_000, 200 * target)
    block = 4096
    while successes < target and attempts < max_attempts:
        idx = rng.integers(0, m, size=(block, 2))
        flips = rng.integers(0, 2, size=(block, 2))
        for (i, j), (fi, fj) in zip(idx.tolist(), flips.tolist()):
            attempts += 1
            if successes >= target or attempts > max_attempts:
                break
            if i == j:
                continue
            a, b = edges[i]
            c, d = edges[j]
            if fi:
                a, b = b, a
            if fj:
                c, d = d, c
            if a == c or a == d or b == c or b == d:
                continue
            new1 = (a, d) if a <= d else (d, a)
            new2 = (c, b) if c <= b else (b, c)
            if new1 in edge_set or new2 in edge_set:
                continue
            edge_set.discard(edges[i])
            edge_set.discard(edges[j])
            edge_set.add(new1)
            edge_set.add(new2)
            result.remove_edge(*edges[i])
            result.remove_edge(*edges[j])
            result.add_edge(*new1)
            result.add_edge(*new2)
            edges[i] = new1
            edges[j] = new2
            successes += 1
    return result


def graph_random_geometric(n: int, radius: float, rng: np.random.Generator) -> Graph:
    """Uniform points in the unit square joined when within the radius.

    Euclidean, non-toroidal.
    """
    if n < 0:
        raise InvalidArgumentError("node count must be non-negative")
    if radius < 0:
        raise InvalidArgumentError("radius must be non-negative")
    positions = rng.random((n, 2))
    g = Graph(nodes=range(n))
    if n >= 2:
        rows, cols = np.triu_indices(n, k=1)
        close = pdist(positions) <= radius
        for k in np.flatnonzero(close):
            g.add_edge(int(rows[k]), int(cols[k]))
    return g
