"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np
import pytest

from gradenet import Graph

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
