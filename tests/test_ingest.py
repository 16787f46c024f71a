"""CSV ingestion, campaign grouping, window assignment, histograms."""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradenet import (
    InvalidArgumentError,
    ParseError,
    SchemaError,
    TransactionSet,
    assign_windows,
    campaign_diversity_histogram,
    group_campaigns,
    parse_records,
    slabs_per_item_histogram,
)


def test_parse_snapshot(snapshot_csv):
    records = parse_records(snapshot_csv)
    assert [rec.campaign_id for rec in records] == ["A", "A", "B", "B"]
    assert [rec.item for rec in records] == ["1", "2", "3", "4"]
    assert records[0].attributes == {
        "width_mm": 1800.0,
        "thickness_mm": 55.0,
        "carbon": 0.010,
        "manganese": 0.010,
        "silicon": 0.005,
    }
    assert [rec.sequence_index for rec in records] == [0, 1, 2, 3]


def test_parse_ignores_extra_columns(snapshot_csv):
    text = snapshot_csv.replace("campaign,", "note,campaign,").replace(
        "\nA,", "\nx,A,"
    ).replace("\nB,", "\nx,B,")
    records = parse_records(text)
    assert len(records) == 4
    assert records[0].campaign_id == "A"


def test_parse_missing_column():
    with pytest.raises(SchemaError, match="missing required column: grade"):
        parse_records("campaign,carbon\nA,0.1\n")


def test_parse_duplicate_read_column():
    for header in ("campaign,grade,grade", "campaign,campaign,grade", "campaign,grade,carbon,carbon"):
        width = header.count(",") + 1
        row = ",".join(["A", "1", "0.1", "0.2"][:width])
        with pytest.raises(SchemaError, match="duplicate column"):
            parse_records(f"{header}\n{row}\n")
    # a repeated column that is never read stays harmless
    records = parse_records("note,campaign,grade,note\nx,A,1,y\n")
    assert [(r.campaign_id, r.item) for r in records] == [("A", "1")]


def test_parse_empty_input():
    with pytest.raises(SchemaError):
        parse_records("")


def test_parse_bad_rows(snapshot_csv):
    with pytest.raises(ParseError, match="row 2"):
        parse_records("campaign,grade,carbon\nA,1,abc\n")
    with pytest.raises(ParseError, match="must be > 0"):
        parse_records("campaign,grade,width_mm\nA,1,0\n")
    with pytest.raises(ParseError, match="must be >= 0"):
        parse_records("campaign,grade,carbon\nA,1,-0.1\n")
    with pytest.raises(ParseError, match="non-finite"):
        parse_records("campaign,grade,carbon\nA,1,inf\n")
    with pytest.raises(ParseError, match="empty campaign"):
        parse_records("campaign,grade,carbon\n,1,0.1\n")
    with pytest.raises(ParseError, match="expected"):
        parse_records("campaign,grade,carbon\nA,1\n")


def test_parse_custom_item_column():
    text = "campaign,grade,width_mm,carbon\nA,1,1800,0.01\nA,2,1750,0.01\n"
    records = parse_records(text, item_column="width_mm")
    assert [rec.item for rec in records] == ["1800", "1750"]


def test_group_campaigns_membership(snapshot_csv):
    records = parse_records(snapshot_csv)
    transactions = group_campaigns(records)
    assert len(transactions) == 2
    by_id = dict(transactions.transactions)
    for rec in records:
        assert rec.item in by_id[rec.campaign_id]
    assert transactions.item_universe == frozenset("1234")


def test_group_campaigns_first_appearance_order():
    text = "campaign,grade\nB,1\nA,2\nB,3\n"
    transactions = group_campaigns(parse_records(text))
    assert [cid for cid, _ in transactions.transactions] == ["B", "A"]
    assert dict(transactions.transactions)["B"] == frozenset({"1", "3"})


def test_assign_windows_balanced():
    transactions = TransactionSet.from_itemsets([{"x"}] * 10)
    assignment = assign_windows(transactions, 3)
    sizes = [0, 0, 0]
    for w in assignment.window_of.values():
        sizes[w] += 1
    assert sizes == [4, 3, 3]  # remainder goes to the earliest windows
    windows = [assignment.window_of[cid] for cid, _ in transactions.transactions]
    assert windows == sorted(windows)


def test_assign_windows_bounds():
    transactions = TransactionSet.from_itemsets([{"x"}] * 3)
    with pytest.raises(InvalidArgumentError):
        assign_windows(transactions, 0)
    with pytest.raises(InvalidArgumentError):
        assign_windows(transactions, 4)


def test_histograms(snapshot_csv):
    records = parse_records(snapshot_csv)
    transactions = group_campaigns(records)
    assert campaign_diversity_histogram(transactions) == {2: 2}
    assert slabs_per_item_histogram(records) == {"1": 1, "2": 1, "3": 1, "4": 1}


@st.composite
def record_rows(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    campaigns = draw(
        st.lists(
            st.sampled_from([f"c{i}" for i in range(8)]), min_size=n, max_size=n
        )
    )
    items = draw(
        st.lists(st.sampled_from(list(string.ascii_uppercase[:9])), min_size=n, max_size=n)
    )
    return list(zip(campaigns, items))


@given(record_rows())
@settings(max_examples=100)
def test_histogram_totals_property(rows):
    text = "campaign,grade\n" + "".join(f"{c},{i}\n" for c, i in rows)
    records = parse_records(text)
    transactions = group_campaigns(records)
    assert sum(campaign_diversity_histogram(transactions).values()) == len(transactions)
    assert sum(slabs_per_item_histogram(records).values()) == len(records)
    # every record's item belongs to its campaign's transaction
    by_id = dict(transactions.transactions)
    assert all(rec.item in by_id[rec.campaign_id] for rec in records)


@given(record_rows(), st.integers(min_value=1, max_value=8))
@settings(max_examples=100)
def test_window_property(rows, window_count):
    text = "campaign,grade\n" + "".join(f"{c},{i}\n" for c, i in rows)
    transactions = group_campaigns(parse_records(text))
    if window_count > len(transactions):
        with pytest.raises(InvalidArgumentError):
            assign_windows(transactions, window_count)
        return
    assignment = assign_windows(transactions, window_count)
    sizes = [0] * window_count
    for w in assignment.window_of.values():
        sizes[w] += 1
    assert max(sizes) - min(sizes) <= 1
    order = [assignment.window_of[cid] for cid, _ in transactions.transactions]
    assert order == sorted(order)
