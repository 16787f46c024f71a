"""Simple undirected graphs and the topological toolkit used throughout.

Degree, clustering coefficient, Freeman betweenness, connected components
and edge-betweenness community detection. All metrics treat the graph as
unweighted and are deterministic. Node and edge betweenness both
come from one Brandes kernel, `_dense_betweenness`, a sweep over all
sources at once on the dense adjacency matrix that also returns which
nodes each source reaches. Girvan-Newman calls that kernel directly on one
adjacency array: each edge removal makes one call on the component that
held the edge, which rescores it and shows whether it split.
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


def _dense_betweenness(
    a: np.ndarray, *, edges: bool
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """All-sources Brandes accumulation, vectorized over sources.

    Returns node betweenness; when `edges` is true, the symmetric matrix of
    edge betweenness (zero off the edges), otherwise None; both over
    unordered pairs. Last comes the bool reachability matrix `seen`, with
    `seen[s, v]` true when v is reachable from s, so on a block that has
    fallen apart each part's scores and members come from one call.

    The forward sweep keeps each level's frontier and its path counts for
    the backward sweep, so memory grows with the number of BFS levels.
    """
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), (np.zeros((0, 0)) if edges else None), np.zeros((0, 0), dtype=bool)
    seen = np.eye(n, dtype=bool)
    frontiers = [seen.copy()]
    # sigma masked to each level's frontier: the shortest-path counts from
    # every source to the nodes at that distance, zero elsewhere
    layers = [seen.astype(float)]
    while True:
        paths = layers[-1] @ a
        new = (paths > 0) & ~seen
        if not new.any():
            break
        seen |= new
        frontiers.append(new)
        # the counts are finite and non-negative, so masking by product is exact
        paths *= new
        layers.append(paths)
    delta = np.zeros((n, n))
    edge = np.zeros((n, n)) if edges else None
    coeff = np.empty((n, n))
    for lev in range(len(layers) - 1, 0, -1):
        coeff.fill(0.0)
        np.divide(1.0 + delta, layers[lev], out=coeff, where=frontiers[lev])
        spread = coeff @ a
        parent = layers[lev - 1]
        # edge[v, w] += sum over s with dist_sv = lev - 1, dist_sw = lev
        # of sigma_sv * (1 + delta_sw) / sigma_sw
        if edges:
            edge += parent.T @ coeff
        delta += parent * spread
    totals = delta.sum(axis=0) - np.diagonal(delta)
    return totals / 2.0, ((edge + edge.T) * a / 2.0 if edges else None), seen


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


def girvan_newman(graph: Graph) -> CommunityPartition:
    """Divisive community detection by iterated max-edge-betweenness removal.

    The returned communities are the dendrogram level with maximal
    modularity; on ties the level with fewer communities wins. A
    disconnected graph starts from its component partition.

    The loop works on one adjacency array with a per-node part id and a
    cached edge-betweenness matrix. A removal changes scores only inside
    the part that held the edge, so each removal makes one kernel call on
    that part's block. The call's reachability matrix tells whether the
    block split and which nodes left; Brandes on a block that fell apart
    already scores each part on its own. Each part keeps its sorted member
    indices, its block, its frozen labels and its modularity term, so a
    split recomputes only the two parts it makes.
    """
    labels, a = _adjacency_matrix(graph)
    original = a > 0
    degree = a.sum(axis=1)
    remaining = int(np.count_nonzero(a)) // 2
    # Newman-Girvan Q = sum_c (e_cc - a_c^2), counted on the graph before
    # any removal; an edgeless graph has Q = 0, as then every count is 0
    two_m = 2.0 * remaining or 1.0
    comp = np.empty(len(labels), dtype=np.intp)
    parts = {}  # part id -> (members, block, labels, Q term)

    def set_part(k: int, members: np.ndarray) -> None:
        block = np.ix_(members, members)
        comp[members] = k
        # twice the internal edges and the degree sum, as exact integers
        internal = int(np.count_nonzero(original[block]))
        degree_sum = int(degree[members].sum())
        term = internal / two_m - (degree_sum / two_m) ** 2
        parts[k] = (members, block, frozenset(labels[t] for t in members.tolist()), term)

    def level() -> tuple:
        # largest first, then smallest label; Q summed in that order from 0.0
        order = sorted(parts, key=lambda k: (-len(parts[k][0]), parts[k][0][0]))
        q = 0.0
        for k in order:
            q += parts[k][3]
        return tuple(parts[k][2] for k in order), q

    index = {v: i for i, v in enumerate(labels)}
    eb = np.zeros_like(a)
    for k, community in enumerate(connected_components(graph)):
        set_part(k, np.sort([index[v] for v in community]))
        if len(community) > 1:
            block = parts[k][1]
            eb[block] = _dense_betweenness(a[block], edges=True)[1]
    partition, best_q = level()
    best = partition
    dendrogram = []
    while remaining:
        # eb is symmetric, zero off the edges and at least 1 on them, and
        # labels are sorted, so the first tied entry in row-major order is
        # the smallest tied edge, with i < j
        i, j = divmod(int(np.argmax(eb >= eb.max() - _TIE_EPS)), len(labels))
        a[i, j] = a[j, i] = 0.0
        remaining -= 1
        k = int(comp[i])
        members, block = parts[k][:2]
        _, eb[block], seen = _dense_betweenness(a[block], edges=True)
        reached = seen[np.searchsorted(members, i)]
        if not reached[np.searchsorted(members, j)]:
            set_part(len(parts), members[~reached])
            set_part(k, members[reached])
            partition, q = level()
            if q > best_q + _TIE_EPS:
                best_q = q
                best = partition
        dendrogram.append(((labels[i], labels[j]), partition))
    return CommunityPartition(
        communities=best, modularity_q=best_q, dendrogram=tuple(dendrogram)
    )
