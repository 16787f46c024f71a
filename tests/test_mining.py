"""Support, lift and co-selection graph construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradenet import (
    InvalidArgumentError,
    TransactionSet,
    build_graph,
    parse_records,
    group_campaigns,
)
from conftest import UndefinedLiftError, lift, pair_stats, support_pair, support_single


def test_worked_example_supports(worked_itemsets):
    ts = TransactionSet.from_itemsets(worked_itemsets)
    assert support_single("C", ts) == 0.75
    assert support_single("D", ts) == 0.75
    assert support_pair("C", "D", ts) == 0.75
    assert lift("C", "D", ts) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert build_graph(ts).edge_lift[("C", "D")] == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_lift_symmetry(worked_itemsets):
    ts = TransactionSet.from_itemsets(worked_itemsets)
    assert lift("A", "B", ts) == lift("B", "A", ts)
    assert support_pair("A", "B", ts) == support_pair("B", "A", ts)


def test_lift_undefined_for_absent_item(worked_itemsets):
    ts = TransactionSet.from_itemsets(worked_itemsets)
    with pytest.raises(UndefinedLiftError):
        lift("A", "Z", ts)


def test_support_rejects_degenerate_input(worked_itemsets):
    ts = TransactionSet.from_itemsets(worked_itemsets)
    with pytest.raises(InvalidArgumentError):
        support_pair("A", "A", ts)
    empty = TransactionSet((), frozenset())
    with pytest.raises(InvalidArgumentError):
        support_single("A", empty)


def test_pair_stats_consistency(worked_itemsets):
    ts = TransactionSet.from_itemsets(worked_itemsets)
    stats = pair_stats("D", "C", ts)
    assert (stats.item_a, stats.item_b) == ("C", "D")
    assert stats.lift == stats.support_pair / (stats.support_a * stats.support_b)
    assert build_graph(ts, min_lift=0.0).edge_lift[("C", "D")] == stats.lift


def test_build_graph_snapshot(snapshot_csv):
    records = parse_records(snapshot_csv)
    cograph = build_graph(group_campaigns(records), records)
    assert cograph.graph.edges() == [("1", "2"), ("3", "4")]
    assert cograph.edge_lift[("1", "2")] == pytest.approx(2.0)
    assert cograph.node_attributes["1"]["carbon"] == pytest.approx(0.010)


def test_build_graph_empty():
    cograph = build_graph(TransactionSet((), frozenset()))
    assert cograph.graph.number_of_nodes() == 0


def test_build_graph_thresholds(worked_itemsets):
    ts = TransactionSet.from_itemsets(worked_itemsets)
    cograph = build_graph(ts, min_lift=4.0 / 3.0)
    assert ("C", "D") in cograph.edge_lift
    cograph_strict = build_graph(ts, min_lift=4.0 / 3.0 + 1e-9)
    assert ("C", "D") not in cograph_strict.edge_lift


def test_build_graph_validates_thresholds(worked_itemsets):
    ts = TransactionSet.from_itemsets(worked_itemsets)
    with pytest.raises(InvalidArgumentError):
        build_graph(ts, min_support=1.5)
    with pytest.raises(InvalidArgumentError):
        build_graph(ts, min_lift=float("nan"))


itemsets_strategy = st.lists(
    st.sets(st.sampled_from("ABCDEFG"), min_size=1, max_size=5),
    min_size=1,
    max_size=25,
)


@given(itemsets_strategy)
@settings(max_examples=150)
def test_support_bounds_property(itemsets):
    ts = TransactionSet.from_itemsets(itemsets)
    edge_lift = build_graph(ts, min_lift=0.0).edge_lift
    items = sorted(ts.item_universe)
    for i, a in enumerate(items):
        sa = support_single(a, ts)
        assert 0.0 < sa <= 1.0
        for b in items[i + 1 :]:
            sb = support_single(b, ts)
            sp = support_pair(a, b, ts)
            assert sp <= min(sa, sb) + 1e-15
            value = lift(a, b, ts)
            assert value == pytest.approx(sp / (sa * sb), abs=1e-12)
            assert value <= 1.0 / max(sa, sb) + 1e-12
            if sp > 0:
                assert edge_lift[(a, b)] == pytest.approx(sp / (sa * sb), abs=1e-12)
            else:
                assert (a, b) not in edge_lift


@given(
    itemsets_strategy,
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=100)
def test_threshold_monotonicity_property(itemsets, min_support, min_lift):
    ts = TransactionSet.from_itemsets(itemsets)
    loose = build_graph(ts, min_support=min_support, min_lift=min_lift)
    tighter = build_graph(ts, min_support=min_support, min_lift=min_lift + 0.25)
    assert set(tighter.graph.edges()) <= set(loose.graph.edges())
    higher_support = build_graph(
        ts, min_support=min(1.0, min_support + 0.25), min_lift=min_lift
    )
    assert set(higher_support.graph.edges()) <= set(loose.graph.edges())


def test_independence_calibration():
    """Independently included items give mean pairwise lift near 1."""
    import numpy as np

    rng = np.random.default_rng(7)
    items = [f"i{k}" for k in range(6)]
    itemsets = []
    for _ in range(10_000):
        chosen = {item for item in items if rng.random() < 0.4}
        if chosen:
            itemsets.append(chosen)
    ts = TransactionSet.from_itemsets(itemsets)
    lifts = [
        lift(a, b, ts)
        for i, a in enumerate(items)
        for b in items[i + 1 :]
    ]
    assert abs(sum(lifts) / len(lifts) - 1.0) < 0.05
