"""Pairwise association rules and the co-selection graph.

Rules are symmetric item pairs; an edge is drawn when the pair co-occurs,
passes the support floor and its lift reaches the threshold (lift > 1 being
the "more often than expected by chance" boundary). Lift is kept as an edge
attribute but all topology metrics treat the graph as unweighted.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidArgumentError
from .graph import Graph


@dataclass(frozen=True)
class CoSelectionGraph:
    """Co-selection network plus per-edge lift and per-node attribute means."""

    graph: Graph
    edge_lift: dict  # (a, b) with a < b -> lift
    node_attributes: dict  # item -> {attribute -> mean over its records}


def cumulative_graphs(
    transactions, ends, records, min_support: float, min_lift: float
) -> list:
    """One co-selection graph per prefix transactions[:end] for end in ends (ascending).

    Transaction i is campaign code i of `records`, so a prefix of
    transactions is a prefix of campaign codes. Nodes are items that occur
    and reach min_support; an edge (a, b) needs a pair that co-occurs,
    reaches min_support and has lift >= min_lift. Counts run on from prefix
    to prefix, so each campaign is counted once. Graph s averages the
    attributes of the records with campaign code < ends[s].
    """
    if not (0.0 <= min_support <= 1.0):
        raise InvalidArgumentError("min_support must be in [0, 1]")
    if not math.isfinite(min_lift):
        raise InvalidArgumentError("min_lift must be finite")
    labels = records.item_labels
    single, pairs = Counter(), Counter()
    graphs = []
    total = 0
    for end in ends:
        for _, items in transactions[total:end]:
            ordered = sorted(items)
            single.update(ordered)
            pairs.update(combinations(ordered, 2))
        total = end
        # a pair reaching min_support has both items reaching it too
        edge_lift = {}
        for (a, b), c in sorted(pairs.items()):
            sp = c / total
            value = sp / ((single[a] / total) * (single[b] / total))
            if sp >= min_support and value >= min_lift:
                edge_lift[(a, b)] = value
        nodes = sorted(item for item, c in single.items() if c / total >= min_support)
        # records of later campaigns fall in the extra bin len(labels)
        bins = np.where(records.campaign < end, records.item, len(labels))
        means = dict(zip(labels, records.bin_means(bins, len(labels) + 1)[1]))
        node_attributes = {item: means[item] for item in nodes if means.get(item)}
        g = Graph(nodes=nodes, edges=edge_lift)
        graphs.append(CoSelectionGraph(g, edge_lift, node_attributes))
    return graphs

