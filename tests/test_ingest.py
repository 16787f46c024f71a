"""CSV ingestion, campaign grouping, window assignment, histograms."""

from __future__ import annotations

import csv
import gc
import os
import string
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradenet
from gradenet import records as records_module
from gradenet.errors import InvalidArgumentError, ParseError, SchemaError
from gradenet.exports import records_csv_dumps
from gradenet.nullmodels import SeedStream
from gradenet.records import (
    assign_windows,
    campaign_diversity_histogram,
    parse_records,
    slabs_per_item_histogram,
)
from gradenet.synth import generate, planted_two_band_config
from conftest import (
    assert_table_matches,
    group_campaigns,
    itemsets_table,
    row_parse_records,
    table_records,
    take,
)


def test_parse_snapshot(snapshot_csv):
    table = parse_records(snapshot_csv)
    assert table.campaign_labels == ("A", "B")
    assert table.item_labels == ("1", "2", "3", "4")
    assert table.campaign.tolist() == [0, 0, 1, 1]
    assert table.item.tolist() == [0, 1, 2, 3]
    assert list(table.attributes) == ["width_mm", "thickness_mm", "carbon", "manganese", "silicon"]
    assert {name: column[0] for name, column in table.attributes.items()} == {
        "width_mm": 1800.0,
        "thickness_mm": 55.0,
        "carbon": 0.010,
        "manganese": 0.010,
        "silicon": 0.005,
    }
    assert len(table) == 4
    assert_table_matches(table, row_parse_records(snapshot_csv))


def test_parse_ignores_byte_order_mark(snapshot_csv):
    table = parse_records("\ufeff" + snapshot_csv)
    assert_table_matches(table, table_records(parse_records(snapshot_csv)))


def test_take_keeps_labels(snapshot_csv):
    table = parse_records(snapshot_csv)
    part = take(table, table.campaign == 1)
    assert (part.campaign_labels, part.item_labels) == (table.campaign_labels, table.item_labels)
    assert [(r.campaign_id, r.item) for r in table_records(part)] == [("B", "3"), ("B", "4")]
    assert part.attributes["carbon"].tolist() == [0.020, 0.020]


def test_parse_ignores_extra_columns(snapshot_csv):
    text = snapshot_csv.replace("campaign,", "note,campaign,").replace(
        "\nA,", "\nx,A,"
    ).replace("\nB,", "\nx,B,")
    records = table_records(parse_records(text))
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
    records = table_records(parse_records("note,campaign,grade,note\nx,A,1,y\n"))
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
    table = parse_records(text, item_column="width_mm")
    assert [rec.item for rec in table_records(table)] == ["1800", "1750"]


def test_group_campaigns_membership(snapshot_csv):
    table = parse_records(snapshot_csv)
    transactions = group_campaigns(table)
    assert len(transactions) == 2
    by_id = dict(transactions.transactions)
    for rec in table_records(table):
        assert rec.item in by_id[rec.campaign_id]
    assert transactions.item_universe == frozenset("1234")
    campaign, item = table.campaign_items
    assert campaign.tolist() == [0, 0, 1, 1] and item.tolist() == [0, 1, 2, 3]


def test_group_campaigns_first_appearance_order():
    text = "campaign,grade\nB,1\nA,2\nB,3\n"
    table = parse_records(text)
    transactions = group_campaigns(table)
    assert [cid for cid, _ in transactions.transactions] == ["B", "A"]
    assert dict(transactions.transactions)["B"] == frozenset({"1", "3"})
    # campaign code i is the i-th campaign to appear, so the pairs sort by appearance
    pairs = zip(*(column.tolist() for column in table.campaign_items))
    labelled = [(table.campaign_labels[c], table.item_labels[i]) for c, i in pairs]
    assert labelled == [("B", "1"), ("B", "3"), ("A", "2")]


def test_assign_windows_balanced():
    table = itemsets_table([{"x"}] * 10)
    # window sizes 4, 3, 3: the remainder goes to the earliest windows
    assert assign_windows(table, 3) == (4, 7, 10)


def test_assign_windows_bounds():
    table = itemsets_table([{"x"}] * 3)
    with pytest.raises(InvalidArgumentError):
        assign_windows(table, 0)
    with pytest.raises(InvalidArgumentError):
        assign_windows(table, 4)


def test_histograms(snapshot_csv):
    table = parse_records(snapshot_csv)
    assert campaign_diversity_histogram(table) == {2: 2}
    assert slabs_per_item_histogram(table) == {"1": 1, "2": 1, "3": 1, "4": 1}


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
    table = parse_records(text)
    transactions = group_campaigns(table)
    histogram = campaign_diversity_histogram(table)
    assert sum(histogram.values()) == len(transactions)
    oracle = Counter(len(items) for _, items in transactions.transactions)
    # equal reprs: keys and counts are Python ints, keys ascending
    assert repr(histogram) == repr(dict(sorted(oracle.items())))
    assert sum(slabs_per_item_histogram(table).values()) == len(table)
    # each campaign's transaction holds exactly its records' items
    records = table_records(table)
    expected: dict = {}
    for rec in records:
        expected.setdefault(rec.campaign_id, set()).add(rec.item)
    assert dict(transactions.transactions) == expected
    assert [cid for cid, _ in transactions.transactions] == list(
        dict.fromkeys(rec.campaign_id for rec in records)
    )
    # transaction i is campaign code i
    assert [cid for cid, _ in transactions.transactions] == list(table.campaign_labels)
    assert transactions.item_universe == frozenset(rec.item for rec in records)
    # campaign_items is the same membership as (code, code) pairs, sorted
    pairs = list(zip(*(column.tolist() for column in table.campaign_items)))
    assert pairs == sorted(set(zip(table.campaign.tolist(), table.item.tolist())))


@given(record_rows(), st.integers(min_value=1, max_value=8))
@settings(max_examples=100)
def test_window_property(rows, window_count):
    text = "campaign,grade\n" + "".join(f"{c},{i}\n" for c, i in rows)
    table = parse_records(text)
    transactions = group_campaigns(table)
    if window_count > len(transactions):
        with pytest.raises(InvalidArgumentError):
            assign_windows(table, window_count)
        return
    ends = assign_windows(table, window_count)
    assert len(ends) == window_count and ends[-1] == len(transactions)
    sizes = [end - start for start, end in zip((0, *ends), ends)]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)


# Cells for the parser-oracle test: mostly valid numbers, some edge and bad ones.
# float() reads 1_000, .5, 5., +1 and a full-width 1, and rejects 0x10 and 1e.
GOOD_NUMBERS = ["1", "2.5", "0.25", "1e3", " 7 ", '"4.5"']
EDGE_NUMBERS = ["0", "0.0", "-0.0", "-1", "abc", "inf", "-inf", "nan", "", "1_0"] + [
    "1_000", "0x10", ".5", "5.", "+1", "1e", "\uff11"
]
LABELS = ["A", "B", "c1", " x y ", "2.5", '"a,b"']
# quoted line ends, padding that str.strip() removes, NUL, a lone surrogate
ODD_LABELS = ['"p\nq"', '"r\r\ns"', "\u00a0A", "B\u2003", "a\x00b", "c\x00", "\ud800"]
HEADER_OPTIONAL = ["carbon", "width_mm", "thickness_mm", "x", " note", "silicon", '"a\nb"']


@st.composite
def parser_inputs(draw):
    """CSV text and parser arguments, valid or malformed in the header or any row."""
    header = ["campaign", "grade"] + draw(
        st.lists(st.sampled_from(HEADER_OPTIONAL), max_size=4, unique=True)
    )
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(["campaign", "grade"])))
    if draw(st.integers(0, 9)) == 0:
        header.append(draw(st.sampled_from(header)) + " ")
    header = draw(st.permutations(header))
    quoted = [f'"{name}"' if draw(st.integers(0, 9)) == 0 else name for name in header]
    lines = [",".join(quoted)]
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["full"] * 6 + ["blank", "spaces", "short", "long"]))
        if shape == "blank":
            lines.append("")
            continue
        if shape == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "\u00a0"])))
            continue
        cells = []
        for name in header:
            if name.strip() in ("campaign", "grade"):
                pool = LABELS * 4 + ["", " "] + ODD_LABELS
            else:
                pool = GOOD_NUMBERS * 8 + EDGE_NUMBERS
            cells.append(draw(st.sampled_from(pool)))
        if shape == "short":
            cells = cells[: draw(st.integers(0, len(cells)))]
        elif shape == "long":
            cells += ["extra"] * draw(st.integers(1, 2))
        lines.append(",".join(cells))
    kwargs = {}
    names = [name.strip() for name in header if name.strip() != "campaign"]
    if draw(st.booleans()):
        kwargs["item_column"] = draw(st.sampled_from(names * 3 + ["note", "titanium"]))
    if draw(st.booleans()):
        kwargs["attribute_columns"] = draw(
            st.lists(st.sampled_from(names * 3 + ["titanium"]), max_size=3)
        )
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, "", eol * 2]))
    if draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    return text, kwargs


def outcome(parse, text, kwargs):
    try:
        return parse(text, **kwargs), None
    except Exception as exc:  # any difference in what is raised must show
        return None, (type(exc), str(exc))


@given(parser_inputs())
@settings(max_examples=600, deadline=None)
def test_parse_matches_row_parser_oracle(case):
    text, kwargs = case
    table, error = outcome(parse_records, text, kwargs)
    # parse_records drops one leading byte-order mark, the oracle reads what follows
    records, oracle_error = outcome(row_parse_records, text.removeprefix("\ufeff"), kwargs)
    if oracle_error is not None and oracle_error[0] is csv.Error:
        # text csv.reader cannot split (a lone "\r" line end) is a ParseError of the row loop
        oracle_error = (ParseError, f"malformed CSV: {oracle_error[1]}")
    assert error == oracle_error
    if error is None:
        assert_table_matches(table, records)


def test_lone_carriage_returns_raise_parse_error():
    with pytest.raises(ParseError, match="^malformed CSV: new-line character seen"):
        parse_records("campaign,grade,carbon\rc1,g,0.1\r")


@pytest.mark.parametrize("header", ["campaign,grade,carbon", '"campaign",grade,carbon'])
def test_column_total_overflow_is_refused_at_parse(header):
    # each grade's mean is finite; only the column's row-order total overflows.
    # The quoted header sends the text through the row loop, the plain one through numpy.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match="^column carbon: values too large to average$"):
            parse_records(f"{header}\nc1,A,1e308\nc2,B,1e308\n")
        table = parse_records(f"{header}\nc1,A,1e308\nc2,B,7e307\n")
    assert table.attributes["carbon"].tolist() == [1e308, 7e307]


def planted_csv() -> str:
    config = planted_two_band_config(grades_per_band=10, campaign_count=600)
    return records_csv_dumps(generate(config, SeedStream.from_seed(0).generator()))


@pytest.mark.parametrize("eol, quote", [("\n", ""), ("\r\n", '"')])
def test_generated_input_takes_the_column_reader(monkeypatch, eol, quote):
    lines = planted_csv().splitlines()
    cells = (line.split(",", 1) for line in lines[1:])
    text = eol.join([lines[0], *(f"{quote}{label}{quote},{rest}" for label, rest in cells), ""])
    expected = row_parse_records(text)

    def row_loop(*args):
        raise AssertionError("the row loop ran")

    # the oracle test above compares two readers only if valid input reaches numpy's reader
    monkeypatch.setattr(records_module, "_read_rows", row_loop)
    assert_table_matches(parse_records(text), expected)


def test_labels_that_strip_alike_share_a_code(monkeypatch):
    # "c2 " comes first, then " c1"; "c2", "c1 " and "c1" first appear later
    text = "campaign,grade,carbon\nc2 ,A,0.1\n c1,B ,0.2\nc2,A,0.3\nc1 , B,0.4\nc1,B,0.5\n"
    expected = records_module._read_rows(text, "grade", None)
    assert expected.campaign_labels == ("c2", "c1") and expected.item_labels == ("A", "B")
    assert expected.campaign.tolist() == [0, 1, 0, 1, 1]
    assert expected.item.tolist() == [0, 1, 0, 1, 1]

    def row_loop(*args):
        raise AssertionError("the row loop ran")

    with monkeypatch.context() as patch:
        patch.setattr(records_module, "_read_rows", row_loop)
        table = parse_records(text)
    assert_table_matches(table, table_records(expected))
    # a label that is blank after strip leaves the column reader for the row loop's error
    blank = text + "  ,A,0.6\n"
    with pytest.raises(ParseError) as caught:
        records_module._read_rows(blank, "grade", None)
    with pytest.raises(ParseError) as parsed:
        parse_records(blank)
    assert str(parsed.value) == str(caught.value) == "row 7: empty campaign cell"


@pytest.mark.parametrize("item_column", ["carbon", "campaign"])
def test_column_reader_reads_a_label_column_twice(monkeypatch, item_column):
    # carbon is both the item label and an attribute, so its column is read
    # once for codes and once for floats; with item_column="campaign" one
    # column holds both labels. Numeric labels show a code read as a number.
    text = "campaign,grade,carbon\n7,A,0.25\n7,B,0.5\n3,A,0.25\n5,B,1e-3\n3,C,0.5\n"
    expected = row_parse_records(text, item_column=item_column)

    def row_loop(*args):
        raise AssertionError("the row loop ran")

    monkeypatch.setattr(records_module, "_read_rows", row_loop)
    table = parse_records(text, item_column=item_column)
    assert_table_matches(table, expected)
    assert table.campaign.tolist() == [0, 0, 1, 2, 1]
    if item_column == "carbon":
        assert table.item_labels == ("0.25", "0.5", "1e-3")
        assert table.item.tolist() == [0, 1, 0, 2, 1]
        assert table.attributes["carbon"].tolist() == [0.25, 0.5, 0.25, 1e-3, 0.5]
    else:
        assert table.item_labels == table.campaign_labels == ("7", "3", "5")
        assert table.item.tolist() == table.campaign.tolist()


def test_parse_and_mine_warn_nothing(tmp_path, snapshot_csv):
    blank_lines = snapshot_csv.replace("\n", "\n\n")
    header_only = snapshot_csv.split("\n", 1)[0] + "\n\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in (snapshot_csv, blank_lines, blank_lines.replace("\n", "\r\n"), header_only):
            parse_records(text)
    path = tmp_path / "blank_lines.csv"
    path.write_text(blank_lines, encoding="utf-8")
    src = str(Path(gradenet.__file__).resolve().parents[1])
    path_entries = filter(None, (src, os.environ.get("PYTHONPATH")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))
    run = subprocess.run(
        [sys.executable, "-m", "gradenet.cli", "mine", str(path), "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert (run.returncode, run.stderr) == (0, "")


def test_parse_peaks_under_200_bytes_per_row():
    text = planted_csv()
    rows = text.count("\n") - 1
    gc.collect()
    tracemalloc.start()
    try:
        table = parse_records(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == rows
    # the text takes about 50 bytes per row here; numpy's reader peaks at about 146 bytes
    # per row, and a UCS-4 io.StringIO of the text would add 200 (the row loop peaks at 299)
    assert peak / rows < 200


def test_parse_retains_under_150_bytes_per_row():
    text = planted_csv()
    rows = text.count("\n") - 1
    assert 4000 <= rows <= 7000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = parse_records(text)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(table) == rows
    # the row parser keeps about 590 bytes per row here; six floats and two codes need 64
    assert retained / rows < 150
