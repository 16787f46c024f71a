"""Cumulative-window stage networks, node age, and group contributions.

Stage s is the co-selection graph built from all campaigns in windows
0..s. Windows are runs of consecutive campaign codes, so stage s is the
campaigns with code < ends[s]: the final stage equals the full-data
network and node sets grow monotonically (edge sets need not: cumulative
lift can cross the threshold in either direction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError
from .graph import Graph
from .mining import cumulative_graphs
from .records import RecordTable


@dataclass(frozen=True)
class StageSeries:
    """The one stage view: stage s holds the campaigns with code < ends[s]."""

    stages: tuple  # CoSelectionGraph per stage, one per window
    ends: tuple  # campaign count of each stage, ascending
    records: RecordTable = field(repr=False)  # every record, in file order

    def stage_records(self, s: int) -> RecordTable:
        """The records of stage s's campaigns, in file order."""
        return self.records.take(self.records.campaign < self.ends[s])


def stage_networks(
    records: RecordTable,
    ends: tuple,
    min_support: float = 0.0,
    min_lift: float = 1.0,
) -> StageSeries:
    """One cumulative co-selection graph per stage end of `assign_windows`, in one pass.

    Stage s is the campaigns with code < ends[s]; pair counts run on from
    stage to stage over `records.campaign_items()`.
    """
    stages = cumulative_graphs(records, ends, min_support, min_lift)
    return StageSeries(tuple(stages), ends, records)


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


def group_summary(groups, records: RecordTable) -> list:
    """One report cell per group: item count, slab/campaign frequency, attribute means.

    A cell holds the keys `items`, `slab_frequency`, `campaign_frequency`
    and `attribute_means`. Slab counts and attribute means come from one
    `RecordTable.bin_means` over the records. A group's campaigns are the
    distinct campaigns of its rows, out of the distinct campaigns of all rows.
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


def prune_minor_groups(
    graph: Graph,
    groups,
    summaries,
    slab_frequency_floor: float,
) -> Graph:
    """Subgraph induced by the groups whose slab frequency reaches the floor.

    `summaries` is `group_summary(groups, records)`, one cell per group.
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
