"""Simple undirected graphs and the topological toolkit used throughout.

Degree, clustering coefficient, Freeman betweenness, connected components,
edge-betweenness community detection and modularity. All metrics treat the
graph as unweighted and are deterministic. Node and edge betweenness both
come from one Brandes kernel, `_dense_betweenness`, a sweep over all
sources at once on the dense adjacency matrix. Girvan-Newman calls that
kernel directly on one adjacency array, and after each edge removal it
rescores only the component that held the edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

_TIE_EPS = 1e-12


class Graph:
    """Simple undirected graph with hashable, sortable node labels."""

    def __init__(self, nodes=(), edges=()):
        self._adj: dict = {}
        for v in nodes:
            self.add_node(v)
        for u, v in edges:
            self.add_edge(u, v)

    def add_node(self, v) -> None:
        self._adj.setdefault(v, set())

    def add_edge(self, u, v) -> None:
        if u == v:
            raise InvalidArgumentError(f"self-loop on node {u!r} not allowed")
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    def remove_edge(self, u, v) -> None:
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def has_node(self, v) -> bool:
        return v in self._adj

    def has_edge(self, u, v) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v) -> set:
        return self._adj[v]

    def nodes(self) -> list:
        return sorted(self._adj)

    def edges(self) -> list:
        out = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u <= v:
                    out.append((u, v))
        out.sort()
        return out

    def number_of_nodes(self) -> int:
        return len(self._adj)

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        return g

    def subgraph(self, nodes) -> "Graph":
        keep = set(nodes)
        g = Graph()
        g._adj = {v: self._adj[v] & keep for v in keep}
        return g

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.number_of_nodes()}, m={self.number_of_edges()})"


@dataclass(frozen=True)
class CommunityPartition:
    """Best-modularity division plus the full divisive dendrogram."""

    communities: tuple
    modularity_q: float
    dendrogram: tuple = field(default=())

    def ordered(self) -> list:
        """Communities as sorted member lists, largest first, then smallest label."""
        return sorted((sorted(c) for c in self.communities), key=lambda c: (-len(c), c[0]))


def clustering_all(graph: Graph) -> dict:
    labels, a = _adjacency_matrix(graph)
    if not labels:
        return {}
    return dict(zip(labels, _dense_clustering(a).tolist()))


def betweenness_all(graph: Graph) -> dict:
    """Raw Freeman betweenness over unordered node pairs, endpoints excluded."""
    labels, a = _adjacency_matrix(graph)
    if not labels:
        return {}
    values, _ = _dense_betweenness(a, edges=False)
    return dict(zip(labels, values.tolist()))


def _adjacency_matrix(graph: Graph):
    labels = graph.nodes()
    index = {v: i for i, v in enumerate(labels)}
    n = len(labels)
    a = np.zeros((n, n))
    for u, v in graph.edges():
        i, j = index[u], index[v]
        a[i, j] = 1.0
        a[j, i] = 1.0
    return labels, a


def _dense_clustering(a: np.ndarray) -> np.ndarray:
    """Local clustering of every row of a float 0/1 adjacency matrix."""
    k = a.sum(axis=1)
    closed = ((a @ a) * a).sum(axis=1)  # (A^3)_ii = twice the neighbor edges
    denom = k * (k - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0, closed / np.where(denom > 0, denom, 1.0), 0.0)


def _dense_betweenness(a: np.ndarray, *, edges: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """All-sources Brandes accumulation, vectorized over sources.

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


def connected_components(graph: Graph) -> list:
    """Maximal connected node sets, largest first, then smallest label."""
    seen = set()
    components = []
    for start in graph.nodes():
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in graph.neighbors(v):
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        components.append(comp)
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def edge_betweenness(graph: Graph) -> dict:
    """Brandes edge-betweenness over unordered pairs."""
    labels, a = _adjacency_matrix(graph)
    index = {v: i for i, v in enumerate(labels)}
    _, eb = _dense_betweenness(a, edges=True)
    return {(u, v): float(eb[index[u], index[v]]) for u, v in graph.edges()}


def modularity(graph: Graph, partition) -> float:
    """Newman-Girvan Q = sum_c (e_cc - a_c^2); 0 for edgeless graphs."""
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
    return tuple(frozenset(c) for c in components)


def girvan_newman(graph: Graph) -> CommunityPartition:
    """Divisive community detection by iterated max-edge-betweenness removal.

    The returned communities are the dendrogram level with maximal
    modularity; on ties the level with fewer communities wins. A
    disconnected graph starts from its component partition.

    The loop works on one adjacency array with a per-node component id and
    a cached edge-betweenness matrix. A removal changes scores only inside
    the component that held the edge, so only that component, or the two
    it splits into, is rescored.
    """
    labels, a = _adjacency_matrix(graph)
    base = _freeze_partition(connected_components(graph))
    best_q = modularity(graph, base)
    best = parts = base
    index = {v: i for i, v in enumerate(labels)}
    comp = np.empty(len(labels), dtype=np.intp)
    eb = np.zeros_like(a)
    for k, community in enumerate(base):
        members = np.sort([index[v] for v in community])
        comp[members] = k
        _rescore(a, eb, members)
    dendrogram = []
    remaining = graph.number_of_edges()
    while remaining:
        # eb is zero off the edges and at least 1 on them; labels are sorted,
        # so the first (i, j) in row-major order is the smallest tied edge
        tied = np.triu(eb >= eb.max() - _TIE_EPS, 1)
        i, j = np.argwhere(tied)[0].tolist()
        a[i, j] = a[j, i] = 0.0
        eb[i, j] = eb[j, i] = 0.0
        remaining -= 1
        members = np.flatnonzero(comp == comp[i])
        reached = _reachable(a[np.ix_(members, members)], np.searchsorted(members, i))
        if reached[np.searchsorted(members, j)]:
            _rescore(a, eb, members)
        else:
            comp[members[~reached]] = len(parts)
            _rescore(a, eb, members[reached])
            _rescore(a, eb, members[~reached])
            groups = [np.flatnonzero(comp == k) for k in range(len(parts) + 1)]
            groups.sort(key=lambda g: (-len(g), g[0]))
            parts = tuple(frozenset(labels[t] for t in g.tolist()) for g in groups)
            q = modularity(graph, parts)
            if q > best_q + _TIE_EPS:
                best_q = q
                best = parts
        dendrogram.append(((labels[i], labels[j]), parts))
    return CommunityPartition(
        communities=best, modularity_q=best_q, dendrogram=tuple(dendrogram)
    )


def _rescore(a: np.ndarray, eb: np.ndarray, members: np.ndarray) -> None:
    """Overwrite the edge betweenness of one component's block of `eb`."""
    block = np.ix_(members, members)
    eb[block] = _dense_betweenness(a[block], edges=True)[1]


def _reachable(a: np.ndarray, start: int) -> np.ndarray:
    """Nodes of adjacency array `a` reachable from row `start`, by BFS."""
    seen = np.zeros(a.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = a[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen
