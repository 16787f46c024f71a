"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import re
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from gradenet import (
    CommunityPartition,
    CoSelectionGraph,
    Graph,
    GradenetError,
    GroupSummary,
    InvalidArgumentError,
    ParseError,
    TransactionSet,
    UndefinedZScoreError,
    connected_components,
    edge_betweenness,
    modularity,
)
from gradenet.exports import _GRAPHML_NS
from gradenet.graph import _TIE_EPS, _freeze_partition
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


def whole_graph_girvan_newman(graph: Graph, edge_betweenness=edge_betweenness):
    """Girvan-Newman rescoring the whole graph after every removal.

    The `Graph`-copy loop that the component-local `girvan_newman` replaced;
    `edge_betweenness` is the scorer it calls, the dense wrapper by default.
    """
    base = _freeze_partition(connected_components(graph))
    best_q = modularity(graph, base)
    best = base
    work = graph.copy()
    dendrogram = []
    prev_count = len(base)
    while work.number_of_edges() > 0:
        eb = edge_betweenness(work)
        top = max(eb.values())
        target = min(e for e, v in eb.items() if v >= top - _TIE_EPS)
        work.remove_edge(*target)
        parts = _freeze_partition(connected_components(work))
        dendrogram.append((target, parts))
        if len(parts) > prev_count:
            q = modularity(graph, parts)
            if q > best_q + _TIE_EPS:
                best_q = q
                best = parts
            prev_count = len(parts)
    return CommunityPartition(
        communities=best, modularity_q=best_q, dendrogram=tuple(dendrogram)
    )


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


# Scalar reference functions the package itself does not use: single-pair
# supports and lift, per-node degree and clustering, one z-score, and the
# GraphML/DOT readers that check exported networks round-trip.


@dataclass(frozen=True)
class RuleStats:
    """Support and lift figures for one unordered item pair."""

    item_a: str
    item_b: str
    support_a: float
    support_b: float
    support_pair: float
    lift: float


def support_single(item, transactions: TransactionSet) -> float:
    total = len(transactions)
    if total == 0:
        raise InvalidArgumentError("support is undefined for an empty transaction set")
    count = sum(1 for _, items in transactions.transactions if item in items)
    return count / total


def support_pair(item_a, item_b, transactions: TransactionSet) -> float:
    if item_a == item_b:
        raise InvalidArgumentError("pair support requires two distinct items")
    total = len(transactions)
    if total == 0:
        raise InvalidArgumentError("support is undefined for an empty transaction set")
    count = sum(
        1 for _, items in transactions.transactions if item_a in items and item_b in items
    )
    return count / total


class UndefinedLiftError(GradenetError):
    """Lift is undefined because a singleton support is zero."""


def lift(item_a, item_b, transactions: TransactionSet) -> float:
    sa = support_single(item_a, transactions)
    sb = support_single(item_b, transactions)
    if sa == 0 or sb == 0:
        raise UndefinedLiftError(
            f"lift({item_a!r}, {item_b!r}) undefined: zero singleton support"
        )
    return support_pair(item_a, item_b, transactions) / (sa * sb)


def pair_stats(item_a, item_b, transactions: TransactionSet) -> RuleStats:
    a, b = sorted((item_a, item_b))
    sa = support_single(a, transactions)
    sb = support_single(b, transactions)
    sp = support_pair(a, b, transactions)
    return RuleStats(a, b, sa, sb, sp, lift(a, b, transactions))


def degree(graph: Graph, node) -> int:
    if not graph.has_node(node):
        raise KeyError(node)
    return len(graph.neighbors(node))


def clustering_coefficient(graph: Graph, node) -> float:
    """Watts-Strogatz local clustering; 0 by convention for degree < 2."""
    if not graph.has_node(node):
        raise KeyError(node)
    nbrs = graph.neighbors(node)
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = 0
    for u in nbrs:
        links += len(graph.neighbors(u) & nbrs)
    # each neighbor-neighbor edge counted twice
    return links / (k * (k - 1))


def zscore(x: float, replicates) -> float:
    """(x - mean) / population std over the finite replicate values."""
    arr = np.asarray(replicates, dtype=float)
    arr = arr[np.isfinite(arr)]
    if len(arr) < 2:
        raise InvalidArgumentError("at least 2 finite replicates required")
    sigma = float(arr.std())
    if sigma == 0.0:
        raise UndefinedZScoreError("ensemble standard deviation is zero")
    return (x - float(arr.mean())) / sigma


def graphml_loads(text: str):
    """Node and edge sets from a GraphML document."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"invalid GraphML: {exc}") from exc
    ns = {"g": _GRAPHML_NS}
    nodes = [el.get("id") for el in root.findall(".//g:node", ns)]
    edges = [
        tuple(sorted((el.get("source"), el.get("target"))))
        for el in root.findall(".//g:edge", ns)
    ]
    return sorted(nodes), sorted(edges)


_DOT_EDGE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*--\s*"((?:[^"\\]|\\.)*)"')
_DOT_NODE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*(?:\[[^\]]*\])?\s*;')


def _dot_unescape(label: str) -> str:
    return label.replace('\\"', '"').replace("\\\\", "\\")


def dot_loads(text: str):
    """Node and edge sets from DOT text in this package's output dialect."""
    nodes = set()
    edges = set()
    for line in text.splitlines():
        edge_match = _DOT_EDGE.match(line)
        if edge_match:
            u, v = (_dot_unescape(s) for s in edge_match.groups())
            nodes.update((u, v))
            edges.add(tuple(sorted((u, v))))
            continue
        node_match = _DOT_NODE.match(line)
        if node_match:
            nodes.add(_dot_unescape(node_match.group(1)))
    return sorted(nodes), sorted(edges)


# The per-stage rebuild that the one-pass stage view replaced: every stage
# re-filters the campaigns and records and recounts every item pair and
# attribute sum from scratch; group summaries and pruning rescan the
# records once per group.


def rebuild_graph(
    transactions: TransactionSet,
    records=(),
    min_support: float = 0.0,
    min_lift: float = 1.0,
) -> CoSelectionGraph:
    """Build the co-selection network from transactions.

    Nodes are items that occur at least once and reach min_support. An edge
    (a, b) exists iff the pair co-occurs, its support reaches min_support
    and its lift reaches min_lift. Empty transactions give an empty graph.
    """
    if not (0.0 <= min_support <= 1.0):
        raise InvalidArgumentError("min_support must be in [0, 1]")
    if not math.isfinite(min_lift):
        raise InvalidArgumentError("min_lift must be finite")
    total = len(transactions)
    if total == 0:
        return CoSelectionGraph(Graph(), {}, {}, min_support, min_lift)

    single = Counter()
    pairs = Counter()
    for _, items in transactions.transactions:
        ordered = sorted(items)
        single.update(ordered)
        pairs.update(combinations(ordered, 2))

    node_set = {item for item, c in single.items() if c / total >= min_support}
    g = Graph(nodes=sorted(node_set))
    edge_lift = {}
    for (a, b), c in sorted(pairs.items()):
        if a not in node_set or b not in node_set:
            continue
        sp = c / total
        if sp < min_support:
            continue
        value = sp / ((single[a] / total) * (single[b] / total))
        if value >= min_lift:
            g.add_edge(a, b)
            edge_lift[(a, b)] = value

    sums = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(lambda: defaultdict(int))
    for rec in records:
        if rec.item not in node_set:
            continue
        for name, value in rec.attributes.items():
            sums[rec.item][name] += value
            counts[rec.item][name] += 1
    node_attributes = {
        item: {name: sums[item][name] / counts[item][name] for name in sorted(sums[item])}
        for item in sorted(sums)
    }
    return CoSelectionGraph(g, edge_lift, node_attributes, min_support, min_lift)


def rebuild_stage_networks(
    records,
    transactions: TransactionSet,
    assignment,
    min_support: float = 0.0,
    min_lift: float = 1.0,
) -> tuple:
    """One cumulative co-selection graph per observation window, each built from scratch."""
    missing = [cid for cid, _ in transactions.transactions if cid not in assignment.window_of]
    if missing:
        raise InvalidArgumentError(
            f"window assignment does not cover campaign {missing[0]!r}"
        )
    stages = []
    for s in range(assignment.window_count):
        included = {
            cid
            for cid, _ in transactions.transactions
            if assignment.window_of[cid] <= s
        }
        sub_transactions = tuple(
            (cid, items) for cid, items in transactions.transactions if cid in included
        )
        universe = frozenset().union(*(items for _, items in sub_transactions)) \
            if sub_transactions else frozenset()
        sub_records = [rec for rec in records if rec.campaign_id in included]
        stages.append(
            rebuild_graph(
                TransactionSet(sub_transactions, universe),
                sub_records,
                min_support=min_support,
                min_lift=min_lift,
            )
        )
    return tuple(stages)


def rescan_group_summary(groups, records, transactions: TransactionSet) -> list:
    """Per group: item count, slab/campaign frequency, attribute means."""
    known_items = {rec.item for rec in records}
    seen = set()
    for group in groups:
        group = set(group)
        if group & seen:
            raise InvalidArgumentError("groups must be disjoint")
        unknown = group - known_items
        if unknown:
            raise InvalidArgumentError(f"group contains unknown item {min(unknown)!r}")
        seen |= group
    total_records = len(records)
    total_campaigns = len(transactions)
    summaries = []
    for group in groups:
        group = set(group)
        group_records = [rec for rec in records if rec.item in group]
        campaigns = sum(
            1 for _, items in transactions.transactions if items & group
        )
        sums: dict = {}
        counts: dict = {}
        for rec in group_records:
            for name, value in rec.attributes.items():
                sums[name] = sums.get(name, 0.0) + value
                counts[name] = counts.get(name, 0) + 1
        summaries.append(
            GroupSummary(
                items=len(group),
                slab_frequency=len(group_records) / total_records if total_records else 0.0,
                campaign_frequency=campaigns / total_campaigns if total_campaigns else 0.0,
                attribute_means={name: sums[name] / counts[name] for name in sorted(sums)},
            )
        )
    return summaries


def rescan_prune_minor_groups(
    graph: Graph,
    partition,
    records,
    slab_frequency_floor: float,
) -> Graph:
    """Subgraph induced by groups whose slab frequency reaches the floor."""
    if not (0.0 <= slab_frequency_floor <= 1.0):
        raise InvalidArgumentError("slab frequency floor must be in [0, 1]")
    nodes = set(graph.nodes())
    covered = set()
    for group in partition:
        covered |= set(group)
    if covered != nodes:
        raise InvalidArgumentError("partition does not cover the graph's nodes")
    total_records = len(records)
    keep = set()
    for group in partition:
        group = set(group)
        count = sum(1 for rec in records if rec.item in group)
        frequency = count / total_records if total_records else 0.0
        if frequency >= slab_frequency_floor:
            keep |= group
    return graph.subgraph(keep)
