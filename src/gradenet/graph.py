"""Simple undirected graphs and the topological toolkit used throughout.

Degree, clustering coefficient, Freeman betweenness, connected components
and edge-betweenness community detection. All metrics treat the graph as
unweighted and are deterministic. Node and edge betweenness both
come from one Brandes kernel, `_dense_betweenness`, a sweep over all
sources at once on the dense adjacency matrix that also returns which
nodes each source reaches. Girvan-Newman keeps one adjacency block and one
edge-betweenness block per part: each edge removal edits the block of the
part that held the edge and makes one kernel call on it, which rescores
the part and shows whether it split.
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
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    """All-sources Brandes accumulation, vectorized over sources.

    With `edges` false, returns node betweenness and None; with `edges`
    true, None and the symmetric matrix of edge betweenness (zero off the
    edges); both over unordered pairs. Last comes the bool reachability
    matrix `seen`, with `seen[s, v]` true when v is reachable from s, so on
    a block that has fallen apart each part's scores and members come from
    one call.

    The forward sweep keeps each level's frontier and its path counts for
    the backward sweep, so memory grows with the number of BFS levels.
    Level 1 is `a` itself: each neighbour of a source has one shortest path.
    """
    n = a.shape[0]
    if n == 0:
        empty = np.zeros((0, 0))
        return (None, empty, empty > 0) if edges else (np.zeros(0), None, empty > 0)
    # 1.0 where a node is not yet reached from the source, 0.0 where it is
    unseen = 1.0 - a
    unseen.flat[:: n + 1] = 0.0
    # each level's frontier, from level 2 on; level 1 is where a > 0
    frontiers = [None, None]
    # sigma masked to each level's frontier: the shortest-path counts from
    # every source to the nodes at that distance, zero elsewhere
    layers = [None, a]
    # on a connected block the sweep ends when every node is reached, with no
    # further product to show that the next level is empty
    left = np.count_nonzero(unseen)
    while left:
        paths = layers[-1] @ a
        # the counts are finite and non-negative, so masking by product is exact
        paths *= unseen
        new = paths > 0
        reached = np.count_nonzero(new)
        if not reached:
            break
        left -= reached
        unseen -= new
        frontiers.append(new)
        layers.append(paths)
    delta = np.zeros((n, n))
    edge = np.zeros((n, n)) if edges else None
    coeff = np.empty((n, n))
    for lev in range(len(layers) - 1, 1, -1):
        coeff.fill(0.0)
        np.divide(1.0 + delta, layers[lev], out=coeff, where=frontiers[lev])
        spread = coeff @ a
        parent = layers[lev - 1]
        # edge[v, w] += sum over s with dist_sv = lev - 1, dist_sw = lev
        # of sigma_sv * (1 + delta_sw) / sigma_sw
        if edges:
            edge += parent.T @ coeff
        delta += parent * spread
    # level 1: sigma is 1 on the neighbours and the parent is the source
    coeff = (1.0 + delta) * a
    seen = unseen == 0.0
    if edges:
        edge += coeff
        return None, (edge + edge.T) * a / 2.0, seen
    # only the source's own dependency, on the diagonal, changes
    delta.flat[:: n + 1] = (coeff @ a).flat[:: n + 1]
    totals = delta.sum(axis=0) - np.diagonal(delta)
    return totals / 2.0, None, seen


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

    Each part keeps its sorted member indices, its own contiguous
    adjacency block, its edge-betweenness block and that block's maximum,
    its frozen labels and its modularity term. A removal changes scores
    only inside the part that held the edge, so it edits that part's block
    in place and makes one kernel call on it, whose result becomes the
    part's edge-betweenness block. The call's reachability matrix tells
    whether the block split and which nodes left; Brandes on a block that
    fell apart already scores each part on its own, so a split slices both
    blocks and recomputes only the two parts it makes.
    """
    # a stays the graph before any removal: each part edits its own copy
    labels, a = _adjacency_matrix(graph)
    degree = a.sum(axis=1)
    remaining = int(np.count_nonzero(a)) // 2
    # Newman-Girvan Q = sum_c (e_cc - a_c^2), counted on the graph before
    # any removal; an edgeless graph has Q = 0, as then every count is 0
    two_m = 2.0 * remaining or 1.0
    parts = {}  # part id -> (members, labels, Q term)
    # part id -> (members, adjacency block, edge-betweenness block, its
    # maximum) for each part of two or more nodes, which, being connected,
    # holds an edge
    scored = {}

    def set_part(k: int, members: np.ndarray, block: np.ndarray, eb) -> None:
        # twice the internal edges and the degree sum, as exact integers
        internal = int(np.count_nonzero(a[np.ix_(members, members)]))
        degree_sum = int(degree[members].sum())
        term = internal / two_m - (degree_sum / two_m) ** 2
        parts[k] = (members, frozenset(labels[t] for t in members.tolist()), term)
        if len(members) > 1:
            scored[k] = (members, block, eb, eb.max())
        else:
            scored.pop(k, None)

    def level() -> tuple:
        # largest first, then smallest label; Q summed in that order from 0.0
        order = sorted(parts, key=lambda k: (-len(parts[k][0]), parts[k][0][0]))
        q = 0.0
        for k in order:
            q += parts[k][2]
        return tuple(parts[k][1] for k in order), q

    index = {v: i for i, v in enumerate(labels)}
    for k, community in enumerate(connected_components(graph)):
        members = np.sort([index[v] for v in community])
        block = a[np.ix_(members, members)]
        eb = _dense_betweenness(block, edges=True)[1] if len(members) > 1 else None
        set_part(k, members, block, eb)
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
        reached = seen[p]
        if reached[q]:
            scored[k] = (members, block, eb, eb.max())
        else:
            for part, keep in ((len(parts), ~reached), (k, reached)):
                sub = np.ix_(keep, keep)
                set_part(part, members[keep], block[sub], eb[sub])
            partition, split_q = level()
            if split_q > best_q + _TIE_EPS:
                best_q = split_q
                best = partition
        dendrogram.append(((labels[i], labels[j]), partition))
    return CommunityPartition(
        communities=best, modularity_q=best_q, dendrogram=tuple(dendrogram)
    )
