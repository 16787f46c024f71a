"""Cumulative-window co-selection networks, node age, and group contributions.

Stage s is the co-selection graph built from all campaigns in windows
0..s. Windows are runs of consecutive campaign codes, so stage s is the
campaigns with code < ends[s]: the final stage equals the full-data
network and node sets grow monotonically (edge sets need not: cumulative
lift can cross the threshold in either direction).

Edges are symmetric association rules: an edge is drawn when an item pair
co-occurs, passes the support floor and its lift reaches the threshold
(lift > 1 being the "more often than expected by chance" boundary). Lift
is kept as an edge attribute but all topology metrics treat the graph as
unweighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .graph import Graph
from .records import RecordTable

_BLOCK_CAMPAIGNS = 2048


@dataclass(frozen=True)
class CoSelectionGraph:
    """Co-selection network plus per-edge lift."""

    graph: Graph
    edge_lift: dict  # (a, b) with a < b -> lift, one key per graph edge, in sorted order


@dataclass(frozen=True)
class StageSeries:
    """The one stage view: stage s holds the campaigns with code < ends[s]."""

    stages: tuple  # CoSelectionGraph per stage, one per window
    ends: tuple  # campaign count of each stage, ascending


def stage_networks(
    records: RecordTable,
    ends: tuple,
    min_support: float = 0.0,
    min_lift: float = 1.0,
) -> StageSeries:
    """One cumulative co-selection graph per stage end of `assign_windows`, in one pass.

    Stage s is the campaigns with code < ends[s] (ends ascending). Nodes
    are items that occur and reach min_support; an edge (a, b) needs a
    pair that co-occurs, reaches min_support and has lift >= min_lift.
    Supports count campaigns, from a running item x item count that each
    stage extends by B.T @ B over the 0/1 campaign x item incidence B of
    its new campaigns in `records.campaign_items`, so each campaign is
    counted once.
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
    stages = []
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
        stages.append(CoSelectionGraph(Graph(nodes=nodes, edges=edge_lift), edge_lift))
    return StageSeries(tuple(stages), ends)


def node_age(series: StageSeries) -> dict:
    """First stage index at which each final-stage node appears."""
    if not series.stages:
        raise InvalidArgumentError("stage series is empty")
    ages = {}
    for s, cograph in enumerate(series.stages):
        for v in cograph.graph.nodes():
            ages.setdefault(v, s)
    final_nodes = set(series.stages[-1].graph.nodes())
    return {v: age for v, age in sorted(ages.items()) if v in final_nodes}


def group_summary(groups, records: RecordTable, rows) -> list:
    """One report cell per group of a stage: item count, slab/campaign frequency, attribute means.

    `rows` is the stage's boolean row mask over `records` (in the pipeline,
    `records.campaign < end`). Only the selected rows of the groups' items
    are gathered: their slab counts and attribute means come from one
    `RecordTable.bin_means`, and a group's campaigns are the distinct
    campaigns of its rows. The frequencies are out of the selected rows and
    the distinct campaigns among them. A cell holds the keys `items`,
    `slab_frequency`, `campaign_frequency` and `attribute_means`.
    """
    groups = [set(group) for group in groups]
    code = {label: c for c, label in enumerate(records.item_labels)}
    code_group = np.full(len(code), -1, np.intp)  # -1: the item is in no group
    for g, group in enumerate(groups):
        code_group[[code[v] for v in group if v in code]] = g
    picked = np.flatnonzero(rows & (code_group >= 0)[records.item])
    item = records.item[picked]
    present = np.bincount(item, minlength=len(code))
    known_items = {records.item_labels[c] for c in np.flatnonzero(present).tolist()}
    seen: set = set()
    for group in groups:
        if group & seen:
            raise InvalidArgumentError("groups must be disjoint")
        unknown = group - known_items
        if unknown:
            raise InvalidArgumentError(f"group contains unknown item {min(unknown)!r}")
        seen |= group
    row_group = code_group[item]
    slabs, means = records.bin_means(row_group, len(groups), picked)
    width = max(len(groups), 1)
    pairs = np.unique(records.campaign[picked] * width + row_group)
    campaigns = np.bincount(pairs % width, minlength=len(groups)).tolist()
    total_records = int(np.count_nonzero(rows))
    total_campaigns = int(np.count_nonzero(np.bincount(records.campaign[rows])))
    return [
        {
            "items": len(group),
            "slab_frequency": slabs[g] / total_records if total_records else 0.0,
            "campaign_frequency": campaigns[g] / total_campaigns if total_campaigns else 0.0,
            "attribute_means": means[g],
        }
        for g, group in enumerate(groups)
    ]


def prune_minor_groups(
    graph: Graph,
    groups,
    summaries,
    slab_frequency_floor: float,
) -> Graph:
    """Subgraph induced by the groups whose slab frequency reaches the floor.

    `summaries` is `group_summary(groups, records, rows)`, one cell per group.
    """
    if not (0.0 <= slab_frequency_floor <= 1.0):
        raise InvalidArgumentError("slab frequency floor must be in [0, 1]")
    if set().union(*groups) != set(graph.nodes()):
        raise InvalidArgumentError("partition does not cover the graph's nodes")
    keep = set()
    for group, summary in zip(groups, summaries, strict=True):
        if summary["slab_frequency"] >= slab_frequency_floor:
            keep.update(group)
    return graph.subgraph(keep)
