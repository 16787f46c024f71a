"""Pairwise association rules and the co-selection graph.

Rules are symmetric item pairs; an edge is drawn when the pair co-occurs,
passes the support floor and its lift reaches the threshold (lift > 1 being
the "more often than expected by chance" boundary). Lift is kept as an edge
attribute but all topology metrics treat the graph as unweighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .graph import Graph

_BLOCK_CAMPAIGNS = 2048


@dataclass(frozen=True)
class CoSelectionGraph:
    """Co-selection network plus per-edge lift."""

    graph: Graph
    edge_lift: dict  # (a, b) with a < b -> lift, one key per graph edge, in sorted order


def cumulative_graphs(records, ends, min_support: float, min_lift: float) -> list:
    """One co-selection graph per stage: the campaign codes below end, for end in ends (ascending).

    Nodes are items that occur and reach min_support; an edge (a, b) needs
    a pair that co-occurs, reaches min_support and has lift >= min_lift.
    Supports count campaigns, from a running item x item count that each
    stage extends by B.T @ B over the 0/1 campaign x item incidence B of
    its new campaigns, so each campaign is counted once.
    """
    if not (0.0 <= min_support <= 1.0):
        raise InvalidArgumentError("min_support must be in [0, 1]")
    if not math.isfinite(min_lift):
        raise InvalidArgumentError("min_lift must be finite")
    labels = records.item_labels
    # counts run in sorted-label order, so the upper triangle is the sorted edge list
    order = sorted(range(len(labels)), key=labels.__getitem__)
    names = [labels[i] for i in order]
    rank = np.empty(len(labels), np.intp)
    rank[order] = np.arange(len(labels))
    campaign, items = records.campaign_items
    counts = np.zeros((len(labels), len(labels)), np.int64)
    graphs = []
    total = 0
    for end in ends:
        # B in blocks of campaigns, so its size does not grow with the campaign count
        for lo in range(total, end, _BLOCK_CAMPAIGNS):
            hi = min(lo + _BLOCK_CAMPAIGNS, end)
            a, z = np.searchsorted(campaign, (lo, hi)).tolist()
            block = np.zeros((hi - lo, len(labels)))
            block[campaign[a:z] - lo, rank[items[a:z]]] = 1.0
            counts += (block.T @ block).astype(np.int64)  # small integer sums are exact
        total = end
        single = counts.diagonal()
        i, j = np.nonzero(np.triu(counts, 1))
        support = counts[i, j] / total
        lift = support / ((single[i] / total) * (single[j] / total))
        # a pair reaching min_support has both items reaching it too
        keep = (support >= min_support) & (lift >= min_lift)
        pairs = zip(i[keep].tolist(), j[keep].tolist(), lift[keep].tolist())
        edge_lift = {(names[a], names[b]): value for a, b, value in pairs}
        occurs = np.flatnonzero(single)
        nodes = [names[k] for k in occurs[single[occurs] / total >= min_support].tolist()]
        graphs.append(CoSelectionGraph(Graph(nodes=nodes, edges=edge_lift), edge_lift))
    return graphs
