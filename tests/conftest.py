"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import math
import re
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict, deque, namedtuple
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import ndtr

from gradenet.errors import (
    GradenetError,
    InsufficientDataError,
    InvalidArgumentError,
    ParseError,
    SchemaError,
)
from gradenet.evolution import CoSelectionGraph, stage_networks
from gradenet.exports import _GRAPHML_NS, _GRAPHML_TYPES, _node_data
from gradenet.graph import (
    _TIE_EPS,
    CommunityPartition,
    Graph,
    _adjacency_matrix,
    _dense_betweenness,
    _dense_clustering,
    connected_components,
)
from gradenet.nullmodels import SwapChain, generate_null, max_edges
from gradenet.records import (
    _NONNEGATIVE,
    _POSITIVE,
    ATTRIBUTE_COLUMNS,
    CAMPAIGN_COLUMN,
    ITEM_COLUMN,
    RecordTable,
)
from gradenet.stats import (
    STATISTICS,
    _row_kendall,
    _row_midranks,
    _row_pearson,
    _t_p_value,
    metric_vectors,
)
from gradenet.synth import ProductionRecord

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


# Label-keyed views of the package's kernels that only the tests call: one
# co-selection graph, per-node clustering and betweenness, per-edge
# betweenness, and the Graph copy, edge removal and lookups that only the
# oracles below use.


def copy_graph(graph: Graph) -> Graph:
    """An independent copy of `graph`."""
    g = Graph()
    g._adj = {v: set(nbrs) for v, nbrs in graph._adj.items()}
    return g


def remove_edge(graph: Graph, u, v) -> None:
    graph._adj[u].discard(v)
    graph._adj[v].discard(u)


def has_node(graph: Graph, v) -> bool:
    return v in graph._adj


def has_edge(graph: Graph, u, v) -> bool:
    return u in graph._adj and v in graph._adj[u]


def build_graph(
    records: RecordTable,
    min_support: float = 0.0,
    min_lift: float = 1.0,
) -> CoSelectionGraph:
    """The co-selection network of every campaign of `records`: `stage_networks` with one stage.

    The stage is the campaign codes up to the largest one with rows, so a
    table taken down to a prefix of campaign codes gives that prefix's network.
    """
    end = int(records.campaign.max()) + 1 if len(records) else 0
    return stage_networks(records, (end,), min_support, min_lift).stages[0]


def clustering_all(graph: Graph) -> dict:
    """Local clustering coefficient of every node."""
    labels, a = _adjacency_matrix(graph)
    return dict(zip(labels, _dense_clustering(a).tolist()))


def betweenness_all(graph: Graph) -> dict:
    """Raw Freeman betweenness over unordered node pairs, endpoints excluded."""
    labels, a = _adjacency_matrix(graph)
    values = _dense_betweenness(a, edges=False)[0]
    return dict(zip(labels, values.tolist()))


def edge_betweenness(graph: Graph) -> dict:
    """Brandes edge-betweenness over unordered pairs."""
    labels, a = _adjacency_matrix(graph)
    index = {v: i for i, v in enumerate(labels)}
    eb = _dense_betweenness(a, edges=True)[1]
    return {(u, v): float(eb[index[u], index[v]]) for u, v in graph.edges()}


def dense_betweenness_oracle(
    a: np.ndarray, *, edges: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """All-sources Brandes accumulation, vectorized over sources.

    The kernel that `graph._dense_betweenness` replaced, kept as it was: it
    tracks integer BFS distances and recomputes each level's masks and
    masked path counts in the backward sweep.

    Returns node betweenness and, when `edges` is true, the symmetric matrix
    of edge betweenness (zero off the edges), both over unordered pairs;
    otherwise None in place of the matrix.
    """
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), (np.zeros((0, 0)) if edges else None)
    dist = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    sigma = np.eye(n)
    frontier = np.eye(n, dtype=bool)
    level = 0
    while True:
        paths = np.where(frontier, sigma, 0.0) @ a
        new = (paths > 0) & (dist < 0)
        if not new.any():
            break
        level += 1
        dist[new] = level
        sigma[new] = paths[new]
        frontier = new
    delta = np.zeros((n, n))
    edge = np.zeros((n, n)) if edges else None
    safe_sigma = np.where(sigma > 0, sigma, 1.0)
    for lev in range(level, 0, -1):
        at_level = dist == lev
        coeff = np.where(at_level, (1.0 + delta) / safe_sigma, 0.0)
        spread = coeff @ a
        parent = np.where(dist == lev - 1, sigma, 0.0)
        # edge[v, w] += sum over s with dist_sv = lev - 1, dist_sw = lev
        # of sigma_sv * (1 + delta_sw) / sigma_sw
        if edges:
            edge += parent.T @ coeff
        delta += parent * spread
    totals = delta.sum(axis=0) - np.diagonal(delta)
    return totals / 2.0, ((edge + edge.T) * a / 2.0 if edges else None)


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


def modularity(graph: Graph, partition) -> float:
    """Newman-Girvan Q = sum_c (e_cc - a_c^2); 0 for edgeless graphs.

    The set walk that `girvan_newman` used before it read Q from its
    component ids; it also checks that `partition` is a partition of the
    graph's nodes.
    """
    nodes = set(graph._adj)
    covered = set()
    for community in partition:
        community = set(community)
        if community & covered:
            raise InvalidArgumentError("partition communities are not disjoint")
        if not community <= nodes:
            raise InvalidArgumentError("partition contains unknown nodes")
        covered |= community
    if covered != nodes:
        raise InvalidArgumentError("partition does not cover the node set")
    m = graph.number_of_edges()
    if m == 0:
        return 0.0
    q = 0.0
    for community in partition:
        community = set(community)
        internal = 0
        degree_sum = 0
        for v in community:
            nbrs = graph.neighbors(v)
            degree_sum += len(nbrs)
            internal += len(nbrs & community)
        q += internal / (2.0 * m) - (degree_sum / (2.0 * m)) ** 2
    return q


def _freeze_partition(components) -> tuple:
    return tuple(components)


def whole_graph_girvan_newman(graph: Graph, edge_betweenness=edge_betweenness):
    """Girvan-Newman rescoring the whole graph after every removal.

    The `Graph`-copy loop that the component-local `girvan_newman` replaced;
    `edge_betweenness` is the scorer it calls, the dense wrapper by default.
    """
    base = _freeze_partition(connected_components(graph))
    best_q = modularity(graph, base)
    best = base
    work = copy_graph(graph)
    dendrogram = []
    prev_count = len(base)
    while work.number_of_edges() > 0:
        eb = edge_betweenness(work)
        top = max(eb.values())
        target = min(e for e, v in eb.items() if v >= top - _TIE_EPS)
        remove_edge(work, *target)
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


def predecessor_girvan_newman(graph: Graph) -> CommunityPartition:
    """Girvan-Newman with a dict of parts and a dict of scored parts.

    The part-id version that the one-record-per-part `girvan_newman`
    replaced, kept verbatim below this paragraph; the two must agree bit
    for bit. Divisive community detection by iterated max-edge-betweenness
    removal.

    The returned communities are the dendrogram level with maximal
    modularity; on ties the level with fewer communities wins. A
    disconnected graph starts from its component partition.

    Each part keeps its sorted member indices, its own contiguous
    adjacency block, its edge-betweenness block and that block's maximum,
    its sorted labels and its modularity term. A removal changes scores
    only inside the part that held the edge, so it edits that part's block
    in place and makes one kernel call on it. Brandes on a block that has
    fallen apart scores each part on its own, so `split` slices a call's
    blocks by its reachability matrix, as it slices the first call, on the
    whole graph, into the components.
    """
    # a stays the graph before any removal: each part edits its own copy
    labels, a = _adjacency_matrix(graph)
    degree = a.sum(axis=1)
    remaining = int(np.count_nonzero(a)) // 2
    # Newman-Girvan Q = sum_c (e_cc - a_c^2), counted on the graph before
    # any removal; an edgeless graph has Q = 0, as then every count is 0
    two_m = 2.0 * remaining or 1.0
    # part id -> (sort key: minus its size, then its first member; labels;
    # Q term)
    parts = {}
    # part id -> (members, adjacency block, edge-betweenness block, its
    # maximum) for each part of two or more nodes, which, being connected,
    # holds an edge
    scored = {}

    def set_part(k: int, members: np.ndarray, block: np.ndarray, eb) -> None:
        # twice the internal edges and the degree sum, as exact integers
        internal = int(np.count_nonzero(a[members[:, None], members]))
        degree_sum = int(degree[members].sum())
        term = internal / two_m - (degree_sum / two_m) ** 2
        listed = members.tolist()
        parts[k] = ((-len(listed), listed[0]), [labels[t] for t in listed], term)
        if len(listed) > 1:
            scored[k] = (members, block, eb, eb.max())
        else:
            scored.pop(k, None)

    def split(k: int, members: np.ndarray, block: np.ndarray, eb, seen) -> None:
        # a part per first reached node; the first keeps id k, the rest take new ids
        first = seen.argmax(axis=1)
        for root in np.unique(first).tolist():
            rows = np.flatnonzero(first == root)
            sub = rows[:, None], rows
            set_part(k, members[rows], block[sub], eb[sub])
            k = len(parts)

    def level() -> tuple:
        # largest first, then smallest label; Q summed in that order from 0.0.
        # No two parts share a first member, so the sort reads only the keys
        order = sorted(parts.values())
        q = 0.0
        for part in order:
            q += part[2]
        return tuple(part[1] for part in order), q

    if len(labels):  # argmax has no first reached node in an empty matrix
        _, eb, seen = _dense_betweenness(a, edges=True)
        split(0, np.arange(len(labels)), a, eb, seen)
    partition, best_q = level()
    best = partition
    dendrogram = []
    while remaining:
        cut = max(top for *_, top in scored.values()) - _TIE_EPS
        # each eb block is symmetric, zero off the edges and at least 1 on
        # them, and its members are sorted, so its first tied entry in
        # row-major order is its smallest tied edge, with p < q; the removed
        # edge is the smallest (i, j) of those over all parts
        tied = []
        for k, (members, _, eb, top) in scored.items():
            if top >= cut:
                p, q = divmod(int(np.argmax(eb >= cut)), len(members))
                tied.append((int(members[p]), int(members[q]), k, p, q))
        i, j, k, p, q = min(tied)
        members, block = scored[k][:2]
        block[p, q] = block[q, p] = 0.0
        remaining -= 1
        _, eb, seen = _dense_betweenness(block, edges=True)
        if seen[p, q]:
            scored[k] = (members, block, eb, eb.max())
        else:
            split(k, members, block, eb, seen)
            partition, split_q = level()
            if split_q > best_q + _TIE_EPS:
                best_q = split_q
                best = partition
        dendrogram.append(((labels[i], labels[j]), partition))
    return CommunityPartition(
        communities=best, modularity_q=best_q, dendrogram=tuple(dendrogram)
    )


def brute_clustering(graph: Graph, node) -> float:
    """Watts-Strogatz clustering by explicit neighbor-pair counting."""
    nbrs = sorted(graph.neighbors(node))
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = sum(1 for u, v in itertools.combinations(nbrs, 2) if has_edge(graph, u, v))
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


def loop_midranks(values) -> np.ndarray:
    """Ranks starting at 1, ties receiving the average of their positions.

    The loop that `stats._row_midranks` replaced, kept as it was: it indexes the
    numpy array once per comparison and writes each tie group separately.
    """
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr))
    i = 0
    n = len(arr)
    while i < n:
        j = i
        while j + 1 < n and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


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


def t_p_value_oracle(r, n):
    """Two-sided p-value of a correlation r over n pairs, 2·P(T > |t|) with T ~ t(n - 2)."""
    if abs(r) >= 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return float(2 * sps.t.sf(abs(t), n - 2))


def normal_p_value_oracle(z):
    """Two-sided p-value 2·P(Z > |z|) with Z standard normal."""
    return float(2 * sps.norm.sf(abs(z)))


def kendall_z_oracle(x, y):
    """|S| / sd(S) for Kendall's S = concordant - discordant, by pair and tie counting.

    Every part of the tie-corrected null variance is an exact integer ratio,
    so summed in this order it equals the vectorised value bit for bit.
    """
    n = len(x)
    s = sum(
        ((x[i] > x[j]) - (x[i] < x[j])) * ((y[i] > y[j]) - (y[i] < y[j]))
        for i, j in itertools.combinations(range(n), 2)
    )
    t = Counter(x).values()
    u = Counter(y).values()
    v0 = n * (n - 1) * (2 * n + 5)
    vt = sum(k * (k - 1) * (2 * k + 5) for k in t)
    vu = sum(k * (k - 1) * (2 * k + 5) for k in u)
    v1 = sum(k * (k - 1) for k in t) * sum(k * (k - 1) for k in u) / (2 * n * (n - 1))
    v2 = (
        sum(k * (k - 1) * (k - 2) for k in t)
        * sum(k * (k - 1) * (k - 2) for k in u)
        / (9 * n * (n - 1) * (n - 2))
    )
    return abs(s) / math.sqrt((v0 - vt - vu) / 18 + v1 + v2)


class UndefinedCorrelationError(GradenetError):
    """A correlation is undefined (zero variance or all-tied input)."""


# The scalar correlation path that `stats.node_metric_correlations` ran
# before it scored a graph as a stack of one replicate through
# `stats._replicate_values`, kept as it was: `correlation` on one vector
# pair, and `scalar_node_metric_correlations`, which the new path must
# equal cell for cell.
@dataclass(frozen=True)
class CorrelationResult:
    value: float
    p_value: float
    sample_size: int


def midranks(values) -> np.ndarray:
    """Ranks starting at 1, ties receiving the average of their positions."""
    return _row_midranks(np.asarray(values, dtype=float)[None])[0]


def _check_samples(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise InvalidArgumentError("sequences must have equal length")
    if len(x) < 3:
        raise InvalidArgumentError("at least 3 observations required")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidArgumentError("correlation arguments must be finite")
    return x, y


def pearson(x, y) -> CorrelationResult:
    x, y = _check_samples(x, y)
    r = float(_row_pearson(x[None], y[None])[0])
    if math.isnan(r):
        raise UndefinedCorrelationError("zero variance in a correlation argument")
    return CorrelationResult(r, _t_p_value(r, len(x)), len(x))


def spearman(x, y) -> CorrelationResult:
    x, y = _check_samples(x, y)
    return pearson(midranks(x), midranks(y))


def kendall(x, y) -> CorrelationResult:
    """Tau-b with tie correction; p-value from the normal approximation."""
    x, y = _check_samples(x, y)
    n = len(x)
    tau, num = (float(v[0]) for v in _row_kendall(x[None], y[None]))
    if math.isnan(tau):
        raise UndefinedCorrelationError("all-tied sequence in kendall tau")

    def tie_sizes(values):
        _, counts = np.unique(values, return_counts=True)
        return counts.astype(float)

    t_sizes = tie_sizes(x)
    u_sizes = tie_sizes(y)
    v0 = n * (n - 1) * (2 * n + 5)
    vt = float((t_sizes * (t_sizes - 1) * (2 * t_sizes + 5)).sum())
    vu = float((u_sizes * (u_sizes - 1) * (2 * u_sizes + 5)).sum())
    v1 = (
        float((t_sizes * (t_sizes - 1)).sum())
        * float((u_sizes * (u_sizes - 1)).sum())
        / (2.0 * n * (n - 1))
    )
    v2 = (
        float((t_sizes * (t_sizes - 1) * (t_sizes - 2)).sum())
        * float((u_sizes * (u_sizes - 1) * (u_sizes - 2)).sum())
        / (9.0 * n * (n - 1) * (n - 2))
    )
    # null variance of num: positive, as both samples are finite and not all tied
    var = (v0 - vt - vu) / 18.0 + v1 + v2
    p = float(2.0 * ndtr(-abs(num) / math.sqrt(var)))
    return CorrelationResult(tau, min(1.0, p), n)


CORRELATIONS = {"pearson": pearson, "spearman": spearman, "kendall": kendall}


def correlation(x, y, kind: str) -> CorrelationResult:
    try:
        fn = CORRELATIONS[kind]
    except KeyError:
        raise InvalidArgumentError(f"unknown correlation kind {kind!r}") from None
    return fn(x, y)


def scalar_node_metric_correlations(a: np.ndarray, kind: str = "spearman") -> dict:
    """{statistic: cell} of COR_D_BC and COR_CC_BC over the non-isolated rows."""
    *metrics, keep = metric_vectors(a)
    count = int(keep.sum())
    if count < 3:
        raise InsufficientDataError(f"need at least 3 non-isolated nodes, got {count}")
    deg, cvec, bvec = (v[keep] for v in metrics)
    cells = {}
    for name, x in zip(STATISTICS, (deg, cvec)):
        try:
            result = correlation(x, bvec, kind)
        except UndefinedCorrelationError:
            cells[name] = {"undefined": "constant metric vector"}
        else:
            n = result.sample_size
            cells[name] = {"value": result.value, "p_value": result.p_value, "n": n}
    return cells


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
    """Uniform simple graph with exactly n nodes and m edges.

    One uniform key per pair i < j in row-major order; the edges are the
    pairs of the m smallest keys, found here by a full sort.
    """
    if n < 0:
        raise InvalidArgumentError("node count must be non-negative")
    limit = max_edges(n)
    if not (0 <= m <= limit):
        raise InvalidArgumentError(f"edge count {m} outside [0, {limit}]")
    g = Graph(nodes=range(n))
    if m == 0:
        return g
    rows, cols = np.triu_indices(n, k=1)
    chosen = np.argsort(rng.random(limit))[:m]
    for k in chosen:
        g.add_edge(int(rows[k]), int(cols[k]))
    return g


def graph_switch_randomize(
    graph: Graph, swap_multiplier: float = 10.0, rng: np.random.Generator | None = None
) -> Graph:
    """Degree-preserving double-edge-swap randomization.

    Runs exactly ceil(swap_multiplier * m) proposals, drawn in blocks of at
    most 4096: edges i and j, read as (a, b) and (c, d) after their flips,
    become (a, d) and (c, b) iff a, b, c, d are distinct and neither
    replacement edge exists. A rejected proposal keeps the graph.
    """
    if not 0 < swap_multiplier < math.inf:
        raise InvalidArgumentError("swap multiplier must be positive and finite")
    rng = rng if rng is not None else np.random.default_rng()
    result = copy_graph(graph)
    edges = [list(e) for e in result.edges()]
    m = len(edges)
    if m < 2:
        return result
    proposals = math.ceil(swap_multiplier * m)
    block = 4096
    for start in range(0, proposals, block):
        size = min(block, proposals - start)
        idx = rng.integers(0, m, size=(size, 2))
        flips = rng.integers(0, 2, size=(size, 2))
        for (i, j), (fi, fj) in zip(idx.tolist(), flips.tolist()):
            a, b = edges[i][fi], edges[i][1 - fi]
            c, d = edges[j][fj], edges[j][1 - fj]
            if len({a, b, c, d}) < 4:
                continue
            if has_edge(result, a, d) or has_edge(result, c, b):
                continue
            remove_edge(result, a, b)
            remove_edge(result, c, d)
            result.add_edge(a, d)
            result.add_edge(c, b)
            edges[i][1 - fi] = d
            edges[j][1 - fj] = b
    return result


def graph_random_geometric(n: int, m: int, rng: np.random.Generator) -> Graph:
    """n uniform points in the unit square, the m closest pairs joined.

    Euclidean, non-toroidal. Each pair i < j, in row-major order, has its
    squared distance as key; the edges are the pairs of the m smallest keys,
    found here by a full sort. Draws nothing when m == 0.
    """
    if n < 0:
        raise InvalidArgumentError("node count must be non-negative")
    limit = max_edges(n)
    if not (0 <= m <= limit):
        raise InvalidArgumentError(f"edge count {m} outside [0, {limit}]")
    g = Graph(nodes=range(n))
    if m == 0:
        return g
    positions = rng.random((n, 2)).tolist()
    pairs = list(itertools.combinations(range(n), 2))
    keys = []
    for i, j in pairs:
        dx = positions[i][0] - positions[j][0]
        dy = positions[i][1] - positions[j][1]
        keys.append(dx * dx + dy * dy)
    for k in np.argsort(keys)[:m]:
        g.add_edge(*pairs[k])
    return g


# Campaigns as market-basket transactions, the view the pair counter read
# before it counted from the record table: one frozenset of items per
# campaign. The scalar supports and the rebuild oracles below read it.


@dataclass(frozen=True)
class TransactionSet:
    """Campaigns viewed as market-basket transactions."""

    transactions: tuple  # ((campaign_id, frozenset of items), ...)
    item_universe: frozenset

    def __len__(self) -> int:
        return len(self.transactions)


def group_campaigns(table: RecordTable) -> TransactionSet:
    """One transaction per campaign that has rows, in order of first appearance."""
    itemsets: dict = {}
    for c, i in zip(table.campaign.tolist(), table.item.tolist()):
        itemsets.setdefault(table.campaign_labels[c], set()).add(table.item_labels[i])
    transactions = tuple((cid, frozenset(items)) for cid, items in itemsets.items())
    return TransactionSet(transactions, frozenset().union(*itemsets.values()))


def itemsets_table(itemsets) -> RecordTable:
    """A table of campaigns t0, t1, ... with one row per item of each non-empty item set."""
    itemsets = [sorted(s) for s in itemsets]
    if any(not s for s in itemsets):
        raise InvalidArgumentError("transactions must be non-empty item sets")
    return record_table(
        [ProductionRecord(f"t{c}", item, {}) for c, items in enumerate(itemsets) for item in items]
    )


def from_itemsets(itemsets) -> TransactionSet:
    """Transactions t0, t1, ... holding the given non-empty item sets."""
    return group_campaigns(itemsets_table(itemsets))


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
    if not has_node(graph, node):
        raise KeyError(node)
    return len(graph.neighbors(node))


def clustering_coefficient(graph: Graph, node) -> float:
    """Watts-Strogatz local clustering; 0 by convention for degree < 2."""
    if not has_node(graph, node):
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


class UndefinedZScoreError(GradenetError):
    """A z-score is undefined because the ensemble standard deviation is zero."""


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


# The Pearson formula `stats._row_pearson` replaced: its sums are 1-D `@`
# products, BLAS `ddot`, so their last bits depend on the BLAS kernel.
# `_row_pearson` must stay within a relative 1e-12 of it where both variance
# sums and their product are normal floats, as on every metric row. Like
# that kernel, it calls an argument constant when its minimum equals its
# maximum. Elsewhere, which no graph reaches, it raises FloatingPointError.
def _pearson_value(x: np.ndarray, y: np.ndarray) -> float:
    if x.min() == x.max() or y.min() == y.max():
        raise UndefinedCorrelationError("zero variance in a correlation argument")
    xc, yc = x - x.mean(), y - y.mean()
    vx, vy = float(xc @ xc), float(yc @ yc)
    if not all(np.finfo(float).tiny <= v < math.inf for v in (vx, vy, vx * vy)):
        raise FloatingPointError("a variance sum or their product is not a normal float")
    r = float(xc @ yc) / math.sqrt(vx * vy)
    return min(1.0, max(-1.0, r))


# The formula of `stats._row_pearson` on one row pair: (r, vx, vy), the two
# variance sums. Where vx, vy and their product are normal floats, as on
# every metric row, `_row_pearson` must return these bits; elsewhere, which
# no graph reaches, neither gives a meaningful r.
def einsum_pearson_value(x: np.ndarray, y: np.ndarray) -> tuple:
    x, y = x[None], y[None]
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    vx = np.einsum("ij,ij->i", xc, xc)[0]
    vy = np.einsum("ij,ij->i", yc, yc)[0]
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        r = np.einsum("ij,ij->i", xc, yc)[0] / np.sqrt(vx * vy)
        return min(1.0, max(-1.0, float(r))), float(vx), float(vy)


def _kendall_tau(x: np.ndarray, y: np.ndarray):
    """(tau-b, concordant minus discordant pairs) with tie correction."""
    n = len(x)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(n, k=1)
    prod = dx[iu] * dy[iu]
    num = float(prod.sum())  # concordant minus discordant
    n0 = n * (n - 1) / 2.0
    tx = float((dx[iu] == 0).sum())
    ty = float((dy[iu] == 0).sum())
    denom = math.sqrt((n0 - tx) * (n0 - ty))
    if denom == 0.0:
        raise UndefinedCorrelationError("all-tied sequence in kendall tau")
    return min(1.0, max(-1.0, num / denom)), num


def switch_randomize(a: np.ndarray, swap_multiplier: float, rng: np.random.Generator) -> np.ndarray:
    """The first sample of a fresh `SwapChain`: ceil(swap_multiplier * m) swap proposals."""
    return SwapChain(a, swap_multiplier).sample(rng, 1)[0]


def kept_metric_vectors(a: np.ndarray):
    """`metric_vectors` of one adjacency restricted to its non-isolated rows, or None below 3."""
    *metrics, keep = metric_vectors(a)
    return tuple(v[keep] for v in metrics) if keep.sum() >= 3 else None


def loop_replicate_values(vectors, kind: str):
    """({statistic: values}, {statistic: dropped}) replicate by replicate.

    The scoring loop `stats.ensemble_zscores` ran before it batched its
    replicates, with each Pearson value from the scalar `pearson` on one
    replicate: `vectors` holds each replicate's `kept_metric_vectors`, or
    None for a replicate below 3 non-isolated nodes; each statistic's
    defined values stay in replicate order.
    """
    values = {name: [] for name in STATISTICS}
    dropped = {name: 0 for name in STATISTICS}
    for triple in vectors:
        if triple is None:
            for name in STATISTICS:
                dropped[name] += 1
            continue
        deg, cvec, bvec = triple
        if kind == "spearman":
            deg, cvec, bvec = loop_midranks(deg), loop_midranks(cvec), loop_midranks(bvec)
        for name, x in zip(STATISTICS, (deg, cvec)):
            try:
                if kind == "kendall":
                    values[name].append(_kendall_tau(x, bvec)[0])
                else:
                    values[name].append(pearson(x, bvec).value)
            except UndefinedCorrelationError:
                dropped[name] += 1
    return values, dropped


def loop_ensemble_zscores(empirical, spec, replicates, kind="spearman", *, stream) -> dict:
    """`stats.ensemble_zscores` of an ER or GRG spec, one replicate at a time.

    The per-replicate path that the stacked one replaced: replicate after
    replicate is drawn from the one `stream.generator()`, measured alone
    and scored by `loop_replicate_values`.
    """
    if replicates < 2:
        raise InvalidArgumentError("at least 2 replicates required")
    rng = stream.generator()
    vectors = [kept_metric_vectors(generate_null(spec, rng, 1)[0]) for _ in range(replicates)]
    values, dropped = loop_replicate_values(vectors, kind)
    cells = {}
    for name in STATISTICS:
        vals = np.asarray(values[name])
        if "undefined" in empirical[name]:
            cells[name] = {"undefined": "empirical correlation undefined"}
        elif dropped[name] * 2 > replicates:
            reason = f"degenerate: {dropped[name]} of {replicates} replicates undefined"
            cells[name] = {"undefined": reason}
        elif vals.min() == vals.max():
            cells[name] = {"undefined": "zero ensemble standard deviation"}
        else:
            value, mean, std = empirical[name]["value"], float(vals.mean()), float(vals.std())
            cells[name] = {
                "empirical": value,
                "mean": mean,
                "std": std,
                "z": (value - mean) / std,
                "dropped": dropped[name],
                "replicates": replicates,
            }
    return cells


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


def element_tree_graphml_dumps(cograph: CoSelectionGraph, node_annotations=None) -> str:
    """The ElementTree writer that `graphml_dumps` replaced; its text must match byte for byte."""
    node_data = _node_data(cograph, node_annotations)
    types = {}
    for row in node_data.values():
        for name, value in row.items():
            types.setdefault(name, set()).add(type(value))
    root = ET.Element("graphml", xmlns=_GRAPHML_NS)
    for name in sorted(types):
        (kind,) = types[name] if len(types[name]) == 1 else (str,)
        ET.SubElement(
            root,
            "key",
            attrib={
                "id": name,
                "for": "node",
                "attr.name": name,
                "attr.type": _GRAPHML_TYPES.get(kind, "string"),
            },
        )
    ET.SubElement(
        root,
        "key",
        attrib={"id": "lift", "for": "edge", "attr.name": "lift", "attr.type": "double"},
    )
    graph_el = ET.SubElement(root, "graph", attrib={"id": "G", "edgedefault": "undirected"})
    for node in cograph.graph.nodes():
        node_el = ET.SubElement(graph_el, "node", attrib={"id": str(node)})
        for name in sorted(node_data[node]):
            data_el = ET.SubElement(node_el, "data", attrib={"key": name})
            data_el.text = str(node_data[node][name])
    for (u, v), lift in cograph.edge_lift.items():
        edge_el = ET.SubElement(graph_el, "edge", attrib={"source": str(u), "target": str(v)})
        data_el = ET.SubElement(edge_el, "data", attrib={"key": "lift"})
        data_el.text = repr(lift)
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


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

Rebuilt = namedtuple("Rebuilt", "graph edge_lift node_attributes")


def rebuild_graph(
    transactions: TransactionSet,
    records=(),
    min_support: float = 0.0,
    min_lift: float = 1.0,
) -> Rebuilt:
    """Build the co-selection network from transactions.

    Nodes are items that occur at least once and reach min_support. An edge
    (a, b) exists iff the pair co-occurs, its support reaches min_support
    and its lift reaches min_lift. Empty transactions give an empty graph.
    `node_attributes` maps each node with records to its attribute means.
    """
    if not (0.0 <= min_support <= 1.0):
        raise InvalidArgumentError("min_support must be in [0, 1]")
    if not math.isfinite(min_lift):
        raise InvalidArgumentError("min_lift must be finite")
    total = len(transactions)
    if total == 0:
        return Rebuilt(Graph(), {}, {})

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
    return Rebuilt(g, edge_lift, node_attributes)


def rebuild_stage_networks(
    records,
    transactions: TransactionSet,
    window_of: dict,
    window_count: int,
    min_support: float = 0.0,
    min_lift: float = 1.0,
) -> tuple:
    """One cumulative co-selection graph per observation window, each built from scratch.

    `window_of` maps every campaign id of the transactions to its window.
    """
    stages = []
    for s in range(window_count):
        included = {cid for cid, _ in transactions.transactions if window_of[cid] <= s}
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


# The stage count that `evolution.stage_networks` replaced, kept as it was:
# each stage adds B.T @ B, the float product of the 0/1 campaign x item
# incidence of its new campaigns, in blocks of campaigns. Its products run
# in BLAS; every sum is a small integer, so every count is exact.
_BLOCK_CAMPAIGNS = 2048


def block_stage_networks(
    records: RecordTable,
    ends: tuple,
    min_support: float = 0.0,
    min_lift: float = 1.0,
) -> tuple:
    """One CoSelectionGraph per stage end, from block products of the incidence matrix."""
    labels = records.item_labels
    order = sorted(range(len(labels)), key=labels.__getitem__)
    names = [labels[i] for i in order]
    rank = np.empty(len(labels), np.intp)
    rank[order] = np.arange(len(labels))
    campaign, items = records.campaign_items
    counts = np.zeros((len(labels), len(labels)), np.int64)
    stages = []
    total = 0
    for end in ends:
        for lo in range(total, end, _BLOCK_CAMPAIGNS):
            hi = min(lo + _BLOCK_CAMPAIGNS, end)
            a, z = np.searchsorted(campaign, (lo, hi)).tolist()
            block = np.zeros((hi - lo, len(labels)))
            block[campaign[a:z] - lo, rank[items[a:z]]] = 1.0
            counts += (block.T @ block).astype(np.int64)
        total = end
        single = counts.diagonal()
        i, j = np.nonzero(np.triu(counts, 1))
        support = counts[i, j] / total
        lift = support / ((single[i] / total) * (single[j] / total))
        keep = (support >= min_support) & (lift >= min_lift)
        pairs = zip(i[keep].tolist(), j[keep].tolist(), lift[keep].tolist())
        edge_lift = {(names[a], names[b]): value for a, b, value in pairs}
        occurs = np.flatnonzero(single)
        nodes = [names[k] for k in occurs[single[occurs] / total >= min_support].tolist()]
        stages.append(CoSelectionGraph(Graph(nodes=nodes, edges=edge_lift), edge_lift))
    return tuple(stages)


def copied_group_summary(groups, records: RecordTable) -> list:
    """The group summary that `group_summary` replaced, over a copy of the stage's rows.

    One `bin_means` over every row of `records`, with a bin for the rows of
    no group, and a campaign x group matrix over every campaign label.
    """
    groups = [set(group) for group in groups]
    known_items = records.item_counts().keys()
    group_of: dict = {}
    for g, group in enumerate(groups):
        if group & group_of.keys():
            raise InvalidArgumentError("groups must be disjoint")
        unknown = group - known_items
        if unknown:
            raise InvalidArgumentError(f"group contains unknown item {min(unknown)!r}")
        group_of.update(dict.fromkeys(group, g))
    outside = len(groups)  # the bin of rows whose item is in no group
    code_group = np.array([group_of.get(v, outside) for v in records.item_labels], np.intp)
    row_group = code_group[records.item]
    slabs, means = records.bin_means(row_group, outside + 1)
    seen = np.zeros((len(records.campaign_labels), outside + 1), dtype=bool)
    seen[records.campaign, row_group] = True
    campaigns = seen[:, :outside].sum(axis=0).tolist()
    total_records = len(records)
    total_campaigns = int(seen.any(axis=1).sum())
    return [
        {
            "items": len(group),
            "slab_frequency": slabs[g] / total_records if total_records else 0.0,
            "campaign_frequency": campaigns[g] / total_campaigns if total_campaigns else 0.0,
            "attribute_means": means[g],
        }
        for g, group in enumerate(groups)
    ]


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
            {
                "items": len(group),
                "slab_frequency": len(group_records) / total_records if total_records else 0.0,
                "campaign_frequency": campaigns / total_campaigns if total_campaigns else 0.0,
                "attribute_means": {name: sums[name] / counts[name] for name in sorted(sums)},
            }
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


# The row parser that the columnar one replaced: one ProductionRecord with
# its own attribute dict per row. The RecordTable must hold the same
# values, and malformed input must fail with the same exception and message.


def row_parse_records(csv_text: str, item_column: str = ITEM_COLUMN) -> list:
    """Parse CSV text into ProductionRecords, preserving file order.

    Extra columns are ignored. A column that is read must appear exactly
    once in the header. The attribute columns are the standard ones in the
    header.
    """
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("input has no header row") from None
    header = [h.strip() for h in header]
    attribute_columns = [c for c in ATTRIBUTE_COLUMNS if c in header]
    for required in (CAMPAIGN_COLUMN, item_column, *attribute_columns):
        if required not in header:
            raise SchemaError(f"missing required column: {required}")
        if header.count(required) > 1:
            raise SchemaError(f"duplicate column: {required}")
    col = {name: header.index(name) for name in header}
    width = max(col[c] for c in (CAMPAIGN_COLUMN, item_column, *attribute_columns))

    records = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) <= width:
            raise ParseError(f"row {line_no}: expected {len(header)} fields, got {len(row)}")
        campaign = row[col[CAMPAIGN_COLUMN]].strip()
        item = row[col[item_column]].strip()
        if not campaign:
            raise ParseError(f"row {line_no}: empty campaign cell")
        if not item:
            raise ParseError(f"row {line_no}: empty item cell")
        attributes = {}
        for name in attribute_columns:
            cell = row[col[name]].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"row {line_no}: non-numeric value {cell!r} in column {name}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"row {line_no}: non-finite value in column {name}")
            if name in _POSITIVE and value <= 0:
                raise ParseError(f"row {line_no}: column {name} must be > 0")
            if name in _NONNEGATIVE and value < 0:
                raise ParseError(f"row {line_no}: column {name} must be >= 0")
            attributes[name] = value
        records.append(
            ProductionRecord(
                campaign_id=campaign,
                item=item,
                attributes=attributes,
            )
        )
    return records


def record_table(records, names=None) -> RecordTable:
    """The RecordTable holding `records` (ProductionRecords with equal attribute sets)."""
    if names is None:
        names = list(records[0].attributes) if records else []
    campaigns = {rec.campaign_id: None for rec in records}
    items = {rec.item: None for rec in records}
    campaign_code = {label: c for c, label in enumerate(campaigns)}
    item_code = {label: c for c, label in enumerate(items)}
    return RecordTable(
        tuple(campaigns),
        tuple(items),
        np.array([campaign_code[rec.campaign_id] for rec in records], np.intp),
        np.array([item_code[rec.item] for rec in records], np.intp),
        {name: np.array([rec.attributes[name] for rec in records], float) for name in names},
    )


def take(table: RecordTable, rows) -> RecordTable:
    """The rows that `rows` (a boolean mask or row indices) selects, same labels."""
    columns = {name: column[rows] for name, column in table.attributes.items()}
    return dataclasses.replace(
        table, campaign=table.campaign[rows], item=table.item[rows], attributes=columns
    )


def table_records(table: RecordTable) -> list:
    """The table's rows as ProductionRecords, attributes in column order."""
    columns = {name: column.tolist() for name, column in table.attributes.items()}
    return [
        ProductionRecord(
            campaign_id=table.campaign_labels[c],
            item=table.item_labels[i],
            attributes={name: column[row] for name, column in columns.items()},
        )
        for row, (c, i) in enumerate(zip(table.campaign.tolist(), table.item.tolist()))
    ]


def assert_table_matches(table: RecordTable, records) -> None:
    """The table holds exactly `records`: labels in first-appearance order, bit-equal values."""
    assert table.campaign.dtype == table.item.dtype == np.intp
    assert all(column.dtype == np.float64 for column in table.attributes.values())
    assert table.campaign_labels == tuple(dict.fromkeys(rec.campaign_id for rec in records))
    assert table.item_labels == tuple(dict.fromkeys(rec.item for rec in records))
    assert len(table) == len(records)
    assert repr(table_records(table)) == repr(records)
