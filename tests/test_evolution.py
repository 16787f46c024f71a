"""Stage networks, node age, group summaries and pruning."""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradenet.errors import InvalidArgumentError
from gradenet.evolution import group_summary, node_age, prune_minor_groups, stage_networks
from gradenet.graph import Graph
from gradenet.records import _distinct, assign_windows, parse_records
from gradenet.synth import ProductionRecord
from conftest import (
    block_stage_networks,
    build_graph,
    copied_group_summary,
    group_campaigns,
    rebuild_graph,
    rebuild_stage_networks,
    record_table,
    rescan_group_summary,
    rescan_prune_minor_groups,
    table_records,
    take,
)


def make_series(csv_text, windows, min_lift=1.0):
    records = parse_records(csv_text)
    return stage_networks(records, assign_windows(records, windows), min_lift=min_lift)


LATE_CSV = "campaign,grade\n" + "".join(
    f"c{i},A\nc{i},B\n" for i in range(4)
) + "c4,A\nc4,B\nc4,C\nc5,B\nc5,C\n"


def test_stage_networks_cumulative():
    series = make_series(LATE_CSV, 3)
    assert len(series.stages) == 3
    node_sets = [set(cg.graph.nodes()) for cg in series.stages]
    assert node_sets[0] <= node_sets[1] <= node_sets[2]
    assert "C" not in node_sets[0]
    assert "C" in node_sets[2]


def test_node_age():
    series = make_series(LATE_CSV, 3)
    ages = node_age(series)
    assert ages["A"] == 0 and ages["B"] == 0
    assert ages["C"] > 0
    for stage, cograph in enumerate(series.stages):
        for v in cograph.graph.nodes():
            if v in ages:
                assert ages[v] <= stage


def every_row(records):
    return np.ones(len(records), bool)


def test_group_summary_snapshot(snapshot_csv):
    records = parse_records(snapshot_csv)
    summaries = group_summary([{"1", "2"}, {"3", "4"}], records, every_row(records))
    low, high = summaries
    assert low["items"] == 2 and high["items"] == 2
    assert low["slab_frequency"] == pytest.approx(0.5)
    assert low["campaign_frequency"] == pytest.approx(0.5)
    assert low["attribute_means"]["carbon"] == pytest.approx(0.010)
    assert high["attribute_means"]["carbon"] == pytest.approx(0.020)
    assert low["slab_frequency"] + high["slab_frequency"] == pytest.approx(1.0, abs=1e-12)


def test_group_summary_validation(snapshot_csv):
    records = parse_records(snapshot_csv)
    rows = every_row(records)
    with pytest.raises(InvalidArgumentError, match="disjoint"):
        group_summary([{"1"}, {"1", "2"}], records, rows)
    with pytest.raises(InvalidArgumentError, match="unknown item 'nope'"):
        group_summary([{"nope"}], records, rows)
    # items 3 and 4 have rows only in campaign B, which the first stage leaves out
    with pytest.raises(InvalidArgumentError, match="unknown item '3'"):
        group_summary([{"1", "2"}, {"3"}], records, records.campaign < 1)


def test_prune_minor_groups(snapshot_csv):
    records = parse_records(snapshot_csv)
    graph = Graph(edges=[("1", "2"), ("3", "4")])
    partition = [{"1", "2"}, {"3", "4"}]
    summaries = group_summary(partition, records, every_row(records))
    assert set(prune_minor_groups(graph, partition, summaries, 0.0).nodes()) == {
        "1", "2", "3", "4",
    }
    skewed = take(records, [0, 1, 2, 3] * 3 + [0] * 8)
    pruned = prune_minor_groups(
        graph, partition, group_summary(partition, skewed, every_row(skewed)), 0.4
    )
    assert set(pruned.nodes()) == {"1", "2"}
    with pytest.raises(InvalidArgumentError):
        prune_minor_groups(graph, [{"1", "2"}], summaries[:1], 0.1)
    with pytest.raises(InvalidArgumentError):
        prune_minor_groups(graph, partition, summaries, 1.5)


@st.composite
def campaign_table(draw):
    campaigns = draw(st.integers(min_value=2, max_value=12))
    rows = []
    for c in range(campaigns):
        size = draw(st.integers(min_value=1, max_value=4))
        items = draw(
            st.sets(st.sampled_from("ABCDEF"), min_size=size, max_size=size)
        )
        rows.extend((f"c{c}", item) for item in sorted(items))
    return rows


@given(campaign_table(), st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_stage_monotonicity_property(rows, windows):
    text = "campaign,grade\n" + "".join(f"{c},{i}\n" for c, i in rows)
    records = parse_records(text)
    transactions = group_campaigns(records)
    if windows > len(transactions):
        return
    series = stage_networks(records, assign_windows(records, windows))
    previous = set()
    for cograph in series.stages:
        current = set(cograph.graph.nodes())
        assert previous <= current
        previous = current
    assert current == set(transactions.item_universe)
    ages = node_age(series)
    assert set(ages) == current


# Attribute values whose running sums round, cancel to zero, or stay -0.0.
ATTRIBUTE_VALUES = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, -0.1, 1e-17, 1.0 / 3.0, 2.5e3])


@st.composite
def interleaved_records(draw):
    """Records of 1-10 campaigns in shuffled file order, so campaigns interleave.

    Every record has the same attribute columns, as in a parsed table, and
    an item may have several records in one campaign.
    """
    campaigns = draw(st.integers(min_value=1, max_value=10))
    names = draw(st.sampled_from([("x", "y"), ("x", "y"), ("x",), ()]))
    rows = []
    for c in range(campaigns):
        for item in draw(st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=5)):
            rows.append((f"c{c}", item, {name: draw(ATTRIBUTE_VALUES) for name in names}))
    rows = draw(st.permutations(rows))
    return [
        ProductionRecord(campaign_id=cid, item=item, attributes=attrs)
        for cid, item, attrs in rows
    ]


def assert_same_graph(new, old, means):
    """`new` matches the rebuilt `old`, and `means` (the stage's `item_means()`) its node means."""
    assert new.graph.nodes() == old.graph.nodes()
    assert new.graph.edges() == old.graph.edges()
    # reprs, so a numpy scalar among the lifts or means fails
    assert repr(new.edge_lift) == repr(old.edge_lift)
    node_means = {v: means[v] for v in new.graph.nodes() if means[v]}
    assert repr(node_means) == repr(old.node_attributes)


@given(
    interleaved_records(),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([0.0, 0.0, 0.2, 0.5]),
    st.sampled_from([0.0, 1.0, 1.5]),
)
@settings(max_examples=300, deadline=None)
def test_stage_networks_match_rebuild_oracle(records, windows, min_support, min_lift):
    table = record_table(records)
    transactions = group_campaigns(table)
    windows = min(windows, len(transactions))
    ends = assign_windows(table, windows)
    window_of = {
        cid: bisect_right(ends, i) for i, (cid, _) in enumerate(transactions.transactions)
    }
    series = stage_networks(table, ends, min_support, min_lift)
    oracle = rebuild_stage_networks(
        records, transactions, window_of, windows, min_support, min_lift
    )
    assert series.ends == ends
    assert len(series.stages) == len(oracle) == windows
    for s, (new, old) in enumerate(zip(series.stages, oracle)):
        stage = take(table, table.campaign < series.ends[s])
        assert_same_graph(new, old, stage.item_means())
        included = {cid for cid, w in window_of.items() if w <= s}
        assert table_records(stage) == [
            rec for rec in records if rec.campaign_id in included
        ]


@given(interleaved_records(), st.sampled_from([0.0, 0.3]), st.sampled_from([0.0, 1.0, 2.0]))
@settings(max_examples=150, deadline=None)
def test_build_graph_matches_rebuild_oracle(records, min_support, min_lift):
    # the first campaigns, up to the one of the middle row, with all their records
    table = record_table(records)
    prefix = take(table, table.campaign <= table.campaign[len(records) // 2])
    transactions = group_campaigns(prefix)
    included = {cid for cid, _ in transactions.transactions}
    assert_same_graph(
        build_graph(prefix, min_support, min_lift),
        rebuild_graph(
            transactions,
            [rec for rec in records if rec.campaign_id in included],
            min_support,
            min_lift,
        ),
        prefix.item_means(),
    )


@given(interleaved_records(), st.data())
@settings(max_examples=200, deadline=None)
def test_group_summary_and_prune_match_rescan_oracles(records, data):
    # a stage's rows: some of the campaigns, not a prefix of their codes
    full = record_table(records)
    kept = data.draw(st.sets(st.integers(0, len(full.campaign_labels) - 1), min_size=1))
    rows = np.isin(full.campaign, sorted(kept))
    table = take(full, rows)
    records = table_records(table)
    transactions = group_campaigns(table)
    items = sorted(transactions.item_universe)
    # label 4 leaves an item in no group, as the items outside the selected component are
    labels = data.draw(st.lists(st.integers(0, 4), min_size=len(items), max_size=len(items)))
    groups = [[v for v, g in zip(items, labels) if g == k] for k in range(4)]
    groups = [group for group in groups if group]
    summaries = group_summary(groups, full, rows)
    assert repr(summaries) == repr(rescan_group_summary(groups, records, transactions))
    assert repr(summaries) == repr(copied_group_summary(groups, table))
    graph = Graph(nodes=[v for group in groups for v in group])
    floor = data.draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
    assert prune_minor_groups(graph, groups, summaries, floor) == rescan_prune_minor_groups(
        graph, groups, records, floor
    )


@st.composite
def sized_campaigns(draw):
    """Records of 1-12 campaigns of 1-12 rows each over 14 items, in shuffled file order.

    A campaign may repeat an item, and may hold a single item.
    """
    rows = []
    for c in range(draw(st.integers(min_value=1, max_value=12))):
        size = draw(st.integers(min_value=1, max_value=12))
        items = draw(st.lists(st.sampled_from("ABCDEFGHIJKLMN"), min_size=size, max_size=size))
        rows += [(f"c{c}", item) for item in items]
    return [ProductionRecord(cid, item, {}) for cid, item in draw(st.permutations(rows))]


# single-item campaigns and one that repeats A: A in 3 of 5, B in 2, both in 1, lift 5/6
ONE_STAGE = [ProductionRecord(c, item, {}) for c, item in zip("0123444", "ABACABA")]


@given(
    sized_campaigns(),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0.0, 0.0, 0.2, 0.5]),
    st.sampled_from([0.0, 1.0, 1.5]),
)
@example(ONE_STAGE, 1, 0.0, 1.0)
@example(ONE_STAGE, 1, 0.0, 0.5)
@settings(max_examples=300, deadline=None)
def test_stage_networks_match_block_product_oracle(records, windows, min_support, min_lift):
    table = record_table(records)
    ends = assign_windows(table, min(windows, len(table.campaign_labels)))
    series = stage_networks(table, ends, min_support, min_lift)
    oracle = block_stage_networks(table, ends, min_support, min_lift)
    assert len(series.stages) == len(oracle) == len(ends)
    for new, old in zip(series.stages, oracle):
        assert new.graph.nodes() == old.graph.nodes()
        assert new.graph.edges() == old.graph.edges()
        assert repr(new.edge_lift) == repr(old.edge_lift)


def int64_arrays():
    return st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=60).map(
        lambda values: np.array(values, np.int64)
    )


@given(int64_arrays(), st.sampled_from(["drawn", "sorted", "few"]))
@example(np.array([], np.int64), "drawn")
@settings(max_examples=300)
def test_distinct_matches_np_unique(keys, shape):
    # drawn keys come in no order; "few" folds them onto five values, so most repeat
    if shape == "sorted":
        keys = np.sort(keys)
    elif shape == "few":
        keys = keys % 5
    distinct = _distinct(keys)
    assert distinct.dtype == keys.dtype
    assert distinct.tolist() == np.unique(keys).tolist()
