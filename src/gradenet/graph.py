"""Simple undirected graphs and the topological toolkit used throughout.

Degree, clustering coefficient, Freeman betweenness, connected components
and edge-betweenness community detection. All metrics treat the graph as
unweighted and are deterministic. Node and edge betweenness both
come from one Brandes kernel, `_dense_betweenness`, a sweep over all
sources at once on the dense adjacency matrix that also returns which
nodes each source reaches. It and `_dense_clustering` take a stack
(..., n, n) of adjacency matrices and treat each matrix on its own, so a
null-model ensemble is measured a stack at a time; one matrix is a stack
of one. Girvan-Newman keeps one adjacency block and one
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
    """Best-modularity division plus the full divisive dendrogram.

    `communities` and each dendrogram level are tuples of sorted label
    lists, largest first, then smallest label: the order the report writes.
    """

    communities: tuple
    modularity_q: float
    dendrogram: tuple = field(default=())


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
    """Local clustering of every row of a float 0/1 adjacency matrix, or of each in a stack."""
    k = a.sum(axis=-1)
    closed = ((a @ a) * a).sum(axis=-1)  # (A^3)_ii = twice the neighbor edges
    denom = k * (k - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0, closed / np.where(denom > 0, denom, 1.0), 0.0)


def _dense_betweenness(
    a: np.ndarray, *, edges: bool
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    """All-sources Brandes accumulation, vectorized over sources.

    `a` is one float 0/1 adjacency matrix (n, n) or a stack (..., n, n) of
    them. With `edges` false, returns node betweenness (..., n) and None;
    with `edges` true, None and the symmetric matrices of edge betweenness
    (zero off the edges); both over unordered pairs. Last comes the bool
    reachability `seen`, with `seen[..., s, v]` true when v is reachable
    from s, so on a block that has fallen apart each part's scores and
    members come from one call.

    The forward sweep keeps each level's frontier and its path counts for
    the backward sweep, so memory grows with the number of BFS levels.
    Level 1 is `a` itself: each neighbour of a source has one shortest path.
    A stack sweeps to its deepest matrix's last level; a shallower matrix
    has an empty frontier there, whose terms are exact zeros, so each
    matrix gets the bits that a call on it alone gives.
    """
    n = a.shape[-1]
    # each matrix as one row, in which every (n + 1)-th entry is diagonal;
    # a reshape to it is a view of a C-ordered array
    flat = a.shape[:-2] + (n * n,)
    # 1.0 where a node is not yet reached from the source, 0.0 where it is
    unseen = np.subtract(1.0, a, order="C")
    unseen.reshape(flat)[..., :: n + 1] = 0.0
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
    delta = np.zeros(a.shape)
    edge = np.zeros(a.shape) if edges else None
    coeff = np.empty(a.shape)
    for lev in range(len(layers) - 1, 1, -1):
        coeff.fill(0.0)
        np.divide(1.0 + delta, layers[lev], out=coeff, where=frontiers[lev])
        spread = coeff @ a
        parent = layers[lev - 1]
        # edge[v, w] += sum over s with dist_sv = lev - 1, dist_sw = lev
        # of sigma_sv * (1 + delta_sw) / sigma_sw
        if edges:
            edge += parent.swapaxes(-1, -2) @ coeff
        delta += parent * spread
    # level 1: sigma is 1 on the neighbours and the parent is the source
    coeff = (1.0 + delta) * a
    seen = unseen == 0.0
    if edges:
        edge += coeff
        return None, (edge + edge.swapaxes(-1, -2)) * a / 2.0, seen
    # only the source's own dependency, on the diagonal, changes
    delta.reshape(flat)[..., :: n + 1] = (coeff @ a).reshape(flat)[..., :: n + 1]
    totals = delta.sum(axis=-2) - delta.reshape(flat)[..., :: n + 1]
    return totals / 2.0, None, seen


def connected_components(graph: Graph) -> list:
    """Maximal connected node sets as sorted label lists, largest first, then smallest label."""
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
        components.append(sorted(comp))
    components.sort(key=lambda c: (-len(c), c[0]))
    return components


def girvan_newman(graph: Graph) -> CommunityPartition:
    """Divisive community detection by iterated max-edge-betweenness removal.

    The returned communities are the dendrogram level with maximal
    modularity; on ties the level with fewer communities wins. A
    disconnected graph starts from its component partition.

    Each part is one record, holding its own adjacency block. A removal
    edits the block of the part that held the edge and makes one kernel
    call on it: a part left whole takes the new scores, and `split` slices
    one that fell apart into new records by the call's reachability, as it
    slices the first call, on the whole graph, into the components. The
    kernel runs per part because whole-graph calls, with the same output,
    made GN 25-80 % slower.
    """
    # a stays the graph before any removal: each part edits its own copy
    labels, a = _adjacency_matrix(graph)
    degree = a.sum(axis=1)
    remaining = int(np.count_nonzero(a)) // 2
    # Newman-Girvan Q = sum_c (e_cc - a_c^2), counted on the graph before
    # any removal; an edgeless graph has Q = 0, as then every count is 0
    two_m = 2.0 * remaining or 1.0
    # one record per part: [sort key: minus its size, then its first member;
    # sorted labels; Q term; sorted member indices; adjacency block;
    # edge-betweenness block; its maximum]. Every edge scores at least 1, so
    # while an edge remains a single node's maximum of 0 never reaches the cut
    parts = []

    def split(members: np.ndarray, block: np.ndarray, eb, seen) -> None:
        # a record per first reached node
        first = seen.argmax(axis=1)
        for root in np.unique(first).tolist():
            rows = np.flatnonzero(first == root)
            sub = rows[:, None], rows
            own, own_eb = members[rows], eb[sub]
            # twice the internal edges and the degree sum, as exact integers
            internal = int(np.count_nonzero(a[own[:, None], own]))
            term = internal / two_m - (int(degree[own].sum()) / two_m) ** 2
            listed = own.tolist()
            key, names = (-len(listed), listed[0]), [labels[t] for t in listed]
            parts.append([key, names, term, own, block[sub], own_eb, own_eb.max()])

    def level() -> tuple:
        # largest first, then smallest label; Q summed in that order from 0.0.
        # No two parts share a first member, so the sort reads only the keys
        parts.sort()
        q = 0.0
        for part in parts:
            q += part[2]
        return tuple(part[1] for part in parts), q

    if len(labels):  # argmax has no first reached node in an empty matrix
        _, eb, seen = _dense_betweenness(a, edges=True)
        split(np.arange(len(labels)), a, eb, seen)
    partition, best_q = level()
    best = partition
    dendrogram = []
    while remaining:
        cut = max(part[6] for part in parts) - _TIE_EPS
        # each eb block is symmetric, zero off the edges and at least 1 on
        # them, and its members are sorted, so its first tied entry in
        # row-major order is its smallest tied edge, with p < q; the removed
        # edge is the smallest (i, j) of those over all parts
        tied = []
        for k, (_, _, _, members, _, eb, top) in enumerate(parts):
            if top >= cut:
                p, q = divmod(int(np.argmax(eb >= cut)), len(members))
                tied.append((int(members[p]), int(members[q]), k, p, q))
        i, j, k, p, q = min(tied)
        part = parts[k]
        block = part[4]
        block[p, q] = block[q, p] = 0.0
        remaining -= 1
        _, eb, seen = _dense_betweenness(block, edges=True)
        if seen[p, q]:
            part[5:] = eb, eb.max()
        else:
            del parts[k]
            split(part[3], block, eb, seen)
            partition, split_q = level()
            if split_q > best_q + _TIE_EPS:
                best_q = split_q
                best = partition
        dendrogram.append(((labels[i], labels[j]), partition))
    return CommunityPartition(
        communities=best, modularity_q=best_q, dendrogram=tuple(dendrogram)
    )
