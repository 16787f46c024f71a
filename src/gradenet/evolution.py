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
from .records import RecordTable, _distinct


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
    Supports count campaigns, from a running item x item count, upper
    triangle and diagonal, that each stage extends by one `np.bincount` of
    the pair codes of its new campaigns' rows in `records.campaign_items`:
    a row paired with itself and with each later row of its campaign.
    Each campaign is counted once, and every count is an exact integer.
    """
    if not (0.0 <= min_support <= 1.0):
        raise InvalidArgumentError("min_support must be in [0, 1]")
    if not math.isfinite(min_lift):
        raise InvalidArgumentError("min_lift must be finite")
    labels = records.item_labels
    size = len(labels)
    # counts run in sorted-label order, so the upper triangle is the sorted edge list
    order = sorted(range(size), key=labels.__getitem__)
    names = [labels[i] for i in order]
    rank = np.empty(size, np.intp)
    rank[order] = np.arange(size)
    campaign, items = records.campaign_items
    counts = np.zeros((size, size), np.int64)
    stages = []
    total = 0
    for end in ends:
        a, z = np.searchsorted(campaign, (total, end)).tolist()
        codes = _pair_codes(campaign[a:z], rank[items[a:z]], size)
        counts += np.bincount(codes, minlength=size * size).reshape(size, size)
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


def _pair_codes(campaign: np.ndarray, rank: np.ndarray, size: int) -> np.ndarray:
    """The code lo * size + hi of each row with itself and with each later row of its campaign.

    `campaign` is sorted, so a campaign's rows are consecutive and the rows
    d apart in one campaign are among those d - 1 apart; lo and hi are the
    smaller and larger of the two rows' ranks.
    """
    codes = [rank * (size + 1)]
    at = np.arange(len(campaign))
    for d in range(1, len(campaign)):
        at = at[at < len(campaign) - d]
        at = at[campaign[at + d] == campaign[at]]
        if not len(at):
            break
        lo, hi = rank[at], rank[at + d]
        codes.append(np.minimum(lo, hi) * size + np.maximum(lo, hi))
    return np.concatenate(codes)


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
    pairs = _distinct(records.campaign[picked] * width + row_group)
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
