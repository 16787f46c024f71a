"""CLI subcommands, exports, report structure and exit codes."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradenet
from gradenet.cli import build_parser, main
from gradenet.errors import InvalidArgumentError
from gradenet.evolution import CoSelectionGraph
from gradenet.exports import dot_dumps, graphml_dumps, records_csv_dumps
from gradenet.graph import Graph, _adjacency_matrix, girvan_newman
from gradenet.nullmodels import MODELS, SeedStream, spec_for
from gradenet.pipeline import AnalysisConfig, run_analysis, zscore_rows
from gradenet.records import RecordTable, parse_records
from gradenet.stats import STATISTICS, ensemble_zscores, node_metric_correlations
from gradenet.synth import generate, planted_two_band_config

from conftest import (
    SNAPSHOT_CSV,
    assert_table_matches,
    build_graph,
    dot_loads,
    element_tree_graphml_dumps,
    graphml_loads,
    row_parse_records,
    table_records,
)

SYNTH_CONFIG = {
    "bands": [
        {
            "name": "low",
            "interval": [0.0, 0.1],
            "items": {
                f"L{i}": {"carbon": 0.01 * (i + 1), "width_mm": 1500.0}
                for i in range(4)
            },
        },
        {
            "name": "high",
            "interval": [0.15, 0.3],
            "items": {
                f"H{i}": {"carbon": 0.15 + 0.03 * i, "width_mm": 1600.0}
                for i in range(4)
            },
        },
    ],
    "campaign_count": 60,
    "campaign_size": [2, 3],
}


@pytest.fixture
def input_csv(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(SNAPSHOT_CSV, encoding="utf-8")
    return path


def test_mine_outputs(tmp_path, input_csv):
    out = tmp_path / "out"
    assert main(["mine", str(input_csv), "--out", str(out)]) == 0
    for name in (
        "network.graphml",
        "network.dot",
        "edges.csv",
        "hist_campaign_diversity.csv",
        "hist_slabs_per_grade.csv",
    ):
        assert (out / name).exists()
    nodes, edges = graphml_loads((out / "network.graphml").read_text())
    assert nodes == ["1", "2", "3", "4"]
    assert edges == [("1", "2"), ("3", "4")]
    dot_nodes, dot_edges = dot_loads((out / "network.dot").read_text())
    assert (dot_nodes, dot_edges) == (nodes, edges)
    assert (out / "edges.csv").read_text().splitlines()[0] == "item_a,item_b,lift"


def test_byte_order_mark_is_ignored(tmp_path, input_csv):
    bom_csv = tmp_path / "bom.csv"
    bom_csv.write_text("\ufeff" + SNAPSHOT_CSV, encoding="utf-8")
    for name, path in (("plain", input_csv), ("bom", bom_csv)):
        assert main(["mine", str(path), "--out", str(tmp_path / name)]) == 0
    for output in sorted((tmp_path / "plain").iterdir()):
        assert (tmp_path / "bom" / output.name).read_bytes() == output.read_bytes()
    report = run_analysis(bom_csv.read_text(encoding="utf-8"), AnalysisConfig(windows=2, ensemble=5))
    # the digest is of the input as given, mark included
    assert report["input"]["sha256"] == hashlib.sha256(bom_csv.read_bytes()).hexdigest()
    assert report["input"]["records"] == 4


def test_lone_carriage_returns_are_a_data_error(tmp_path, capsys):
    # line ends reach parse_records as written, so the CLI refuses what it refuses
    lone_cr = tmp_path / "cr.csv"
    lone_cr.write_bytes(b"campaign,grade\rc1,A\rc1,B\rc2,B\r")
    for command in ("mine", "analyze"):
        capsys.readouterr()
        assert main([command, str(lone_cr), "--out", str(tmp_path / command)]) == 2
        assert "data error" in capsys.readouterr().err


def test_label_quoted_across_crlf_is_read_as_written(tmp_path, monkeypatch):
    text = 'campaign,grade\r\n"c\r\n1",A\r\n"c\r\n1",B\r\nc2,B\r\n'
    path = tmp_path / "crlf.csv"
    path.write_bytes(text.encode("utf-8"))
    tables = []

    def recording(csv_text, **kwargs):
        tables.append(parse_records(csv_text, **kwargs))
        return tables[-1]

    monkeypatch.setattr("gradenet.cli.parse_records", recording)
    assert main(["mine", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "c\r\n1" in tables[0].campaign_labels
    assert table_records(tables[0]) == table_records(parse_records(text))


def test_crlf_input_digest_is_the_file_digest(tmp_path, input_csv):
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(input_csv.read_bytes().replace(b"\n", b"\r\n"))
    out = tmp_path / "report"
    assert main(["analyze", str(crlf), "--windows", "2", "--ensemble", "5", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["input"]["sha256"] == hashlib.sha256(crlf.read_bytes()).hexdigest()


def test_export_round_trip_preserves_graph():
    records = parse_records(SNAPSHOT_CSV)
    cograph = build_graph(records)
    for dumps, loads in ((graphml_dumps, graphml_loads), (dot_dumps, dot_loads)):
        nodes, edges = loads(dumps(cograph))
        assert nodes == cograph.graph.nodes()
        assert edges == cograph.graph.edges()


# a DOT ID: an alphabetic name, a numeral (which has no exponent) or a quoted string
_DOT_ID = re.compile(r'[A-Za-z_][A-Za-z_0-9]*|-?(\.[0-9]+|[0-9]+(\.[0-9]*)?)|"(?:[^"\\]|\\.)*"')
_DOT_ATTRIBUTE = re.compile(r'([^\s=,\[\]]+)=("(?:[^"\\]|\\.)*"|[^,\]]*)')


def dot_attributes(text: str) -> list:
    """Every name=value pair inside the brackets of DOT text."""
    return [
        pair
        for line in text.splitlines()
        if "[" in line
        for pair in _DOT_ATTRIBUTE.findall(line[line.index("[") :])
    ]


def test_dot_attribute_values_are_dot_ids(tmp_path):
    # a titanium mean of 5e-05 and a lift of 1e-05 print with an exponent
    path = tmp_path / "titanium.csv"
    path.write_text(
        "campaign,grade,carbon,titanium\nc1,A,0.1,0.00005\nc1,B,0.2,0.00005\nc2,A,0.1,0.0\n",
        encoding="utf-8",
    )
    assert main(["mine", str(path), "--windows", "2", "--out", str(tmp_path / "out")]) == 0
    mined = (tmp_path / "out" / "network.dot").read_text(encoding="utf-8")
    cograph = build_graph(parse_records(path.read_text(encoding="utf-8")))
    tiny = dataclasses.replace(cograph, edge_lift={("A", "B"): 1e-05})
    text = mined + dot_dumps(tiny, {"A": {"carbon": -0.5, "community": "0.1"}})
    pairs = dot_attributes(text)
    assert {name for name, _ in pairs} >= {"age", "carbon", "community", "component", "lift"}
    for name, value in pairs:
        assert _DOT_ID.fullmatch(name), name
        assert _DOT_ID.fullmatch(value), (name, value)
    assert ("titanium", '"5e-05"') in pairs and ("lift", '"1e-05"') in pairs


def test_graphml_keys_declare_the_type_of_their_values(tmp_path):
    path = tmp_path / "typed.csv"
    path.write_text(
        "campaign,grade,carbon,titanium\nc1,A,0.1,0.00005\nc1,B,0.2,0.00005\n"
        "c2,A,0.1,0.0\nc3,C,0.3,0.0\nc3,D,0.4,0.0\n",
        encoding="utf-8",
    )
    assert main(["mine", str(path), "--windows", "2", "--out", str(tmp_path / "out")]) == 0
    root = ET.parse(tmp_path / "out" / "network.graphml").getroot()
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    declared = {key.get("id"): key.get("attr.type") for key in root.findall("g:key", ns)}
    assert declared == {
        "age": "int",
        "carbon": "double",
        "community": "string",
        "component": "int",
        "lift": "double",
        "titanium": "double",
    }
    read = {"int": int, "double": float, "string": str}
    data = root.findall(".//g:data", ns)
    assert {d.get("key") for d in data} == declared.keys()
    for d in data:
        read[declared[d.get("key")]](d.text)  # raises unless the text is of its type


# text with every character XML escapes, quotes, tab, CR, LF and non-ASCII
XML_TEXT = st.text(
    st.sampled_from(list("&<>\"'\t\r\n ") + ["A", "z", "0", "é", "€", "\u2003"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=6,
)
NODE_VALUES = st.one_of(st.integers(-3, 10**6), st.floats(), XML_TEXT)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_graphml_matches_element_tree_oracle(data):
    labels = sorted(data.draw(st.lists(XML_TEXT, max_size=6, unique=True)))
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edge_lift = {pair: data.draw(st.floats(0.0, 1e6)) for pair in sorted(chosen)}
    cograph = CoSelectionGraph(Graph(nodes=labels, edges=edge_lift), edge_lift)
    # a node left out of the annotations, or given {}, has no data
    annotations = data.draw(
        st.dictionaries(
            st.sampled_from(labels) if labels else st.nothing(),
            st.dictionaries(XML_TEXT, NODE_VALUES, max_size=3),
        )
    )
    for node_annotations in (annotations, None):
        text = graphml_dumps(cograph, node_annotations)
        assert text == element_tree_graphml_dumps(cograph, node_annotations)


def test_records_csv_round_trip():
    records = row_parse_records(SNAPSHOT_CSV)
    assert_table_matches(parse_records(records_csv_dumps(records)), records)


def test_analyze_outputs(tmp_path, input_csv):
    out = tmp_path / "report"
    code = main(
        [
            "analyze",
            str(input_csv),
            "--out",
            str(out),
            "--windows",
            "2",
            "--ensemble",
            "30",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["input"]["campaigns"] == 2
    assert report["config"]["seed"] == 7
    assert len(report["stages"]) == 2
    final = report["stages"][-1]
    assert sorted(map(sorted, final["components"])) == [["1", "2"], ["3", "4"]]
    assert (out / "zscores.csv").read_text().startswith("stage,scope,model,statistic")


def test_analyze_byte_identical_reports(tmp_path, input_csv):
    args = ["analyze", str(input_csv), "--windows", "2", "--ensemble", "20"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "report.json").read_bytes()
    second = (tmp_path / "b" / "report.json").read_bytes()
    assert first == second


def test_synth_command(tmp_path):
    config_path = tmp_path / "planner.json"
    config_path.write_text(json.dumps(SYNTH_CONFIG), encoding="utf-8")
    out = tmp_path / "synthetic"
    assert main(["synth", str(config_path), "--seed", "3", "--out", str(out)]) == 0
    table = parse_records((out / "records.csv").read_text())
    assert {item[0] for item in table.item_labels} == {"L", "H"}
    # synth output feeds straight back into analyze
    out2 = tmp_path / "analysis"
    code = main(
        [
            "analyze",
            str(out / "records.csv"),
            "--out",
            str(out2),
            "--windows",
            "3",
            "--ensemble",
            "25",
        ]
    )
    assert code == 0


def test_exit_codes(tmp_path, input_csv, capsys):
    assert main([]) == 1  # missing subcommand
    assert main(["mine", str(input_csv)]) == 1  # missing --out
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("campaign,grade\nA,\n", encoding="utf-8")
    assert main(["mine", str(bad_csv), "--out", str(tmp_path / "o1")]) == 2
    missing_column = tmp_path / "cols.csv"
    missing_column.write_text("foo,bar\n1,2\n", encoding="utf-8")
    assert main(["mine", str(missing_column), "--out", str(tmp_path / "o2")]) == 2
    duplicate_column = tmp_path / "dup.csv"
    duplicate_column.write_text("campaign,grade,grade\nA,1,2\nA,3,4\n", encoding="utf-8")
    assert main(["mine", str(duplicate_column), "--out", str(tmp_path / "o6")]) == 2
    assert main(["mine", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o3")]) == 2
    invalid_utf8 = tmp_path / "utf8.csv"
    invalid_utf8.write_bytes(b"campaign,grade\nA,\xff\n")
    for command in ("mine", "analyze"):
        capsys.readouterr()
        assert main([command, str(invalid_utf8), "--out", str(tmp_path / command)]) == 2
        assert "data error" in capsys.readouterr().err
    # finite cells whose per-item sum overflows: no mean may come out infinite
    huge = tmp_path / "huge.csv"
    huge.write_text("campaign,grade,carbon\nc1,A,1e308\nc1,B,1e308\nc2,A,1e308\n", encoding="utf-8")
    for command in ("mine", "analyze"):
        capsys.readouterr()
        out = tmp_path / f"huge_{command}"
        assert main([command, str(huge), "--windows", "1", "--out", str(out)]) == 2
        assert "data error: column carbon" in capsys.readouterr().err
        assert not out.exists()
    # the overflow lies only in the rows of grade C, outside the selected A-B community
    outside = tmp_path / "outside.csv"
    outside.write_text(
        "campaign,grade,carbon\nc1,A,0.1\nc1,B,0.2\nc2,C,1e308\nc3,C,1e308\n", encoding="utf-8"
    )
    for command in ("mine", "analyze"):
        capsys.readouterr()
        out = tmp_path / f"outside_{command}"
        assert main([command, str(outside), "--windows", "1", "--out", str(out)]) == 2
        assert "data error: column carbon" in capsys.readouterr().err
        assert not out.exists()
    negative_windows = ["mine", str(input_csv), "--out", str(tmp_path / "o7"), "--windows", "-3"]
    assert main(negative_windows) == 1
    assert not (tmp_path / "o7").exists()
    bad_config = tmp_path / "bad.json"
    bad_config.write_text("{not json", encoding="utf-8")
    assert main(["synth", str(bad_config), "--out", str(tmp_path / "o4")]) == 1
    # so is a value of the wrong type or shape: a message, not a TypeError or ValueError
    low, high = SYNTH_CONFIG["bands"]
    malformed = [
        {"bands": [{**low, "items": {"x": {"carbon": "0.5"}}}, high]},
        {"bands": [{**low, "weights": dict.fromkeys(low["items"], "w")}, high]},
        {"campaign_size": [1]},
        {"campaign_size": [1.5, 2.5]},
        {"campaign_count": 2.9},
        {"campaign_count": "3"},
        {"late_items": {"L1": 1.7}},
        {"cross_band_rate": "0.5"},
    ]
    # an item label that ingest would refuse ("") or merge ("L0 " with "L0") is invalid input
    padded = [
        {"bands": [{**low, "items": {**low["items"], label: low["items"]["L0"]}}, high]}
        for label in ("", "L0 ")
    ]
    for change in malformed + padded:
        bad_config.write_text(json.dumps({**SYNTH_CONFIG, **change}), encoding="utf-8")
        capsys.readouterr()
        assert main(["synth", str(bad_config), "--out", str(tmp_path / "o4")]) == 1, change
        error = capsys.readouterr().err
        reason = "item label" if change in padded else "malformed planner config: "
        assert error.startswith(f"gradenet: invalid input: {reason}"), change
    bad_config.write_text(json.dumps({**SYNTH_CONFIG, "late_items": {"L1": -5}}), encoding="utf-8")
    capsys.readouterr()
    assert main(["synth", str(bad_config), "--out", str(tmp_path / "o4")]) == 1
    assert "late item activation indices must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o4").exists()
    code = main(
        [
            "analyze",
            str(input_csv),
            "--out",
            str(tmp_path / "o5"),
            "--windows",
            "99",
        ]
    )
    assert code == 1  # more windows than campaigns
    analyze = ["analyze", str(input_csv), "--windows", "2", "--ensemble", "20"]
    bad_options = [
        ["--swap-multiplier", "0"],
        ["--swap-multiplier", "-1"],
        ["--swap-multiplier", "nan"],
        ["--swap-multiplier", "inf"],
        ["--component", "min-mean:carbn"],  # not a parsed column
        ["--component", "min-mean:"],
        ["--models", "er,er"],  # the second ER run would overwrite the first
        ["--models", ","],  # no model at all
    ]
    for i, option in enumerate(bad_options):
        out = tmp_path / f"bad{i}"
        assert main(analyze + option + ["--out", str(out)]) == 1, option
        assert not (out / "report.json").exists(), option
    capsys.readouterr()


def test_option_defaults_are_analysis_config_defaults():
    parser = build_parser()
    analyze = vars(parser.parse_args(["analyze", "x", "--out", "o"]))
    fields = {f.name for f in dataclasses.fields(AnalysisConfig)}
    assert set(analyze) - fields == {"command", "input", "out"}
    assert AnalysisConfig(**{name: analyze[name] for name in fields}) == AnalysisConfig()
    # mine shares three options with analyze; its --windows 0 builds one stage
    mine = vars(parser.parse_args(["mine", "x", "--out", "o"]))
    shared = ("item_column", "min_support", "min_lift")
    assert {name: mine[name] for name in shared} == {name: analyze[name] for name in shared}
    assert mine["windows"] == 0


def test_mine_header_only_csv(tmp_path):
    # --windows 0 builds one stage over every campaign, here none
    header_only = tmp_path / "empty.csv"
    header_only.write_text("campaign,grade\n", encoding="utf-8")
    assert main(["mine", str(header_only), "--windows", "0", "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "edges.csv").read_text(encoding="utf-8") == "item_a,item_b,lift\n"
    assert (tmp_path / "o" / "network.dot").read_text(encoding="utf-8") == "graph coselection {\n}\n"


def analyze_under_hash_seed(hash_seed: str, out: Path, *args: str) -> list:
    """The report and z-score bytes of `gradenet analyze *args` in a child with PYTHONHASHSEED."""
    src = str(Path(gradenet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-m", "gradenet.cli", "analyze", *args, "--out", str(out)],
        env=env,
        check=True,
    )
    return [(out / name).read_bytes() for name in ("report.json", "zscores.csv")]


def test_analyze_identical_across_hash_seeds(tmp_path, input_csv):
    outputs = [
        analyze_under_hash_seed(
            hash_seed, tmp_path / f"hash{hash_seed}",
            str(input_csv), "--windows", "2", "--ensemble", "50", "--seed", "13",
        )
        for hash_seed in ("0", "12345")
    ]
    assert outputs[0] == outputs[1]


def test_min_mean_selector_identical_across_hash_seeds(tmp_path):
    # two triangles with the same carbon means, 0.1 + 0.2 + 0.3 summed in
    # set order: a tie that the larger-first, least-label rule gives to a
    tie_csv = tmp_path / "tie.csv"
    tie_csv.write_text(
        "campaign,grade,carbon\n"
        + "".join(f"c{g},{g}{i},0.{i}\n" for g in "ab" for i in (1, 2, 3)),
        encoding="utf-8",
    )
    outputs = []
    for hash_seed in ("0", "6"):
        out = tmp_path / f"hash{hash_seed}"
        outputs.append(
            analyze_under_hash_seed(
                hash_seed, out, str(tie_csv), "--windows", "1", "--ensemble", "5",
                "--component", "min-mean:carbon",
            )
        )
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["stages"][0]["selected_component"] == ["a1", "a2", "a3"]
    assert outputs[0] == outputs[1]


def test_analyze_rejects_non_finite_report(tmp_path, input_csv, monkeypatch, capsys):
    def nan_report(csv_text, config):
        report = run_analysis(csv_text, config)
        report["stages"][0]["ensembles"]["full"]["er"]["COR_D_BC"]["z"] = float("nan")
        return report

    monkeypatch.setattr("gradenet.cli.run_analysis", nan_report)
    out = tmp_path / "nan"
    args = ["analyze", str(input_csv), "--out", str(out), "--windows", "2", "--ensemble", "20"]
    assert main(args) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_report_cell_completeness(snapshot_csv):
    config = AnalysisConfig(windows=2, ensemble=20, seed=1)
    report = run_analysis(snapshot_csv, config)
    for entry in report["stages"]:
        for scope in ("full", "pruned"):
            block = entry["ensembles"][scope]
            for model in report["config"]["models"]:
                assert set(block[model]) == set(STATISTICS)
                for cell in block[model].values():
                    assert "z" in cell or "undefined" in cell
    rows = zscore_rows(report)
    assert len(rows) == 1 + 2 * 2 * 3 * 2  # header, then stages x scopes x models x statistics


def test_stage_without_component_has_every_key(tmp_path, input_csv):
    # each grade is in one of the two campaigns: under support 1.0 the stage has no node
    lone = tmp_path / "lone.csv"
    lone.write_text("campaign,grade\nc1,A\nc2,B\n", encoding="utf-8")
    stages = {}
    for name, path, support in (("lone", lone, "1.0"), ("snapshot", input_csv, "0.0")):
        args = ["--windows", "1", "--min-support", support, "--ensemble", "2"]
        assert main(["analyze", str(path), *args, "--out", str(tmp_path / name)]) == 0
        (stages[name],) = json.loads((tmp_path / name / "report.json").read_text())["stages"]
    empty, stage = stages["lone"], stages["snapshot"]
    assert empty["components"] == [] and stage["selected_component"] == ["1", "2"]
    assert len(empty) == 12 and empty.keys() == stage.keys()
    kept = {
        "selected_component": None,
        "communities": None,
        "group_summaries": [],
        "pruned_core": None,
        "correlations": {},
        "ensembles": {},
    }
    assert {key: empty[key] for key in kept} == kept
    # it has no cell, so zscores.csv holds its header only
    lines = (tmp_path / "lone" / "zscores.csv").read_text().splitlines()
    assert lines == ["stage,scope,model,statistic,empirical,mean,std,z,dropped,defined"]


def test_zscores_csv_reads_back_as_the_report_cells(tmp_path):
    path = tmp_path / "scope.csv"
    path.write_text(scope_csv(), encoding="utf-8")
    out = tmp_path / "out"
    args = ["--windows", "3", "--ensemble", "5", "--min-lift", "1.5", "--prune-floor", "0.2"]
    assert main(["analyze", str(path), *args, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    with open(out / "zscores.csv", newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    values = ["empirical", "mean", "std", "z", "dropped"]
    assert header == ["stage", "scope", "model", "statistic", *values, "defined"]
    cells = sum(
        len(block[model]) for entry in report["stages"]
        for block in entry["ensembles"].values() for model in block
    )
    assert len(rows) == cells
    assert {row[-1] for row in rows} == {"true", "false"}  # both kinds of row are read
    for row in rows:
        assert len(row) == len(header)
        stage, scope, model, statistic = row[:4]
        cell = report["stages"][int(stage)]["ensembles"][scope][model][statistic]
        if row[-1] == "true":
            assert row[4:-1] == [repr(cell[value]) for value in values]
        else:
            assert row[-1] == "false" and "undefined" in cell
            assert row[4:-1] == [""] * len(values)


# three stages: pruning removes 3 of 8 items in the first two, none in the last
SCOPE_CONFIG = AnalysisConfig(windows=3, ensemble=5, min_lift=1.5, prune_floor=0.2)


def scope_csv() -> str:
    config = planted_two_band_config(
        grades_per_band=8,
        campaign_count=200,
        campaign_size=(2, 4),
        cross_band_rate=0.1,
        uniform_popularity=False,
    )
    return records_csv_dumps(generate(config, SeedStream.from_seed(0).generator()))


def test_stage_loop_copies_no_records(tmp_path, monkeypatch):
    tables = []
    computed = []
    init, campaign_items = RecordTable.__init__, RecordTable.campaign_items.func

    def counting_init(table, *args, **kwargs):
        tables.append(table)
        init(table, *args, **kwargs)

    def counting_campaign_items(table):
        computed.append(table)
        return campaign_items(table)

    monkeypatch.setattr(RecordTable, "__init__", counting_init)
    monkeypatch.setattr(RecordTable.campaign_items, "func", counting_campaign_items)
    path = tmp_path / "scope.csv"
    path.write_text(scope_csv(), encoding="utf-8")
    analyze = ["analyze", str(path), "--windows", "3", "--ensemble", "5", "--min-lift", "1.5"]
    assert main(analyze + ["--component", "largest", "--out", str(tmp_path / "largest")]) == 0
    report = json.loads((tmp_path / "largest" / "report.json").read_text())
    assert [len(entry["group_summaries"]) for entry in report["stages"]] == [2, 3, 1]
    # the stage build and the diversity histogram share one campaign_items of one table
    assert len(tables) == 1 and len(computed) == 1
    # the min-mean: selector reads each stage's rows of that table through a mask
    out = tmp_path / "min_mean"
    assert main(analyze + ["--component", "min-mean:carbon", "--out", str(out)]) == 0
    assert len(tables) == 2 and len(computed) == 2


def test_each_scope_graph_is_scored_once(monkeypatch):
    scored = []

    def counting(graph):
        scored.append(graph.nodes())
        return _adjacency_matrix(graph)

    # the pipeline builds one adjacency matrix per scope it scores
    monkeypatch.setattr("gradenet.pipeline._adjacency_matrix", counting)
    report = run_analysis(scope_csv(), SCOPE_CONFIG)
    removed = [entry["pruned_core"]["removed_items"] for entry in report["stages"]]
    assert removed == [3, 3, 0]
    expected = []
    for entry in report["stages"]:
        expected.append(entry["selected_component"])
        if entry["pruned_core"]["removed_items"]:
            expected.append(entry["pruned_core"]["nodes"])
    assert scored == expected


def test_ensemble_cells_carry_the_scope_correlation():
    report = run_analysis(scope_csv(), SCOPE_CONFIG)
    checked = 0
    for entry in report["stages"]:
        for scope in ("full", "pruned"):
            correlations = entry["correlations"][scope]
            for block in entry["ensembles"][scope].values():
                for name, cell in block.items():
                    if "z" in cell:
                        assert cell["empirical"] == correlations[name]["value"]
                        checked += 1
    assert checked > 0


def test_two_node_component_draws_no_replicate(snapshot_csv, monkeypatch):
    def no_replicate(*args):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr("gradenet.stats.generate_null", no_replicate)
    config = AnalysisConfig(windows=1, ensemble=20, component="min-mean:carbon")
    entry = run_analysis(snapshot_csv, config)["stages"][0]
    assert entry["selected_component"] == ["1", "2"]
    reason = "need at least 3 non-isolated nodes, got 2"
    undefined = dict.fromkeys(STATISTICS, {"undefined": reason})
    for scope in ("full", "pruned"):
        assert entry["correlations"][scope] == undefined
        assert entry["ensembles"][scope] == dict.fromkeys(MODELS, undefined)


# six campaigns of A, B and C, a triangle, in three stages of two
TRIANGLES_CSV = "campaign,grade\n" + "".join(f"c{i},A\nc{i},B\nc{i},C\n" for i in range(6))
# at --min-lift 0.5, stages of two campaigns: the path A-B-C twice, then the
# triangle on the same nodes, then the edge C-D as well
REPEATED_CSV = "campaign,grade\n" + "".join(
    f"c{c},{a}\nc{c},{b}\n" for c, (a, b) in enumerate(["AB", "BC"] * 2 + ["AC"] * 2 + ["CD"] * 2)
)


def test_all_undefined_scope_draws_no_replicate(monkeypatch):
    # in a triangle every degree, clustering and betweenness is equal, so
    # both empirical cells are undefined and no ensemble cell has a z
    config = AnalysisConfig(windows=3, ensemble=5)
    entry = run_analysis(TRIANGLES_CSV, config)["stages"][0]
    assert entry["selected_component"] == ["A", "B", "C"]
    _, a = _adjacency_matrix(Graph(edges=[("A", "B"), ("A", "C"), ("B", "C")]))
    empirical = node_metric_correlations(a)
    assert entry["correlations"]["full"] == empirical
    expected = {
        model: ensemble_zscores(
            empirical, spec_for(model, a), config.ensemble, stream=SeedStream.from_seed(0)
        )
        for model in MODELS
    }

    def no_replicate(*args):
        raise AssertionError("a replicate was drawn")

    monkeypatch.setattr("gradenet.stats.generate_null", no_replicate)
    for entry in run_analysis(TRIANGLES_CSV, config)["stages"]:
        assert entry["ensembles"] == {"full": expected, "pruned": expected}


def test_unchanged_component_reuses_its_partition(monkeypatch):
    calls = []

    def counting(graph):
        calls.append(graph)
        return girvan_newman(graph)

    monkeypatch.setattr("gradenet.pipeline.girvan_newman", counting)
    config = AnalysisConfig(windows=4, ensemble=5, min_lift=0.5)
    report = run_analysis(REPEATED_CSV, config)
    selected = [entry["selected_component"] for entry in report["stages"]]
    assert selected == [["A", "B", "C"]] * 3 + [["A", "B", "C", "D"]]
    assert [graph.number_of_edges() for graph in calls] == [2, 3, 4]
    # with no graph equal to another, every stage runs Girvan-Newman
    monkeypatch.setattr(Graph, "__eq__", lambda graph, other: False)
    assert run_analysis(REPEATED_CSV, config) == report
    assert len(calls) == 3 + 4


def test_analyze_component_selector(snapshot_csv):
    config = AnalysisConfig(windows=1, ensemble=20, component="min-mean:carbon")
    report = run_analysis(snapshot_csv, config)
    assert report["stages"][0]["selected_component"] == ["1", "2"]
    config_high = AnalysisConfig(windows=1, ensemble=20, component="largest")
    report_high = run_analysis(snapshot_csv, config_high)
    assert report_high["stages"][0]["selected_component"] == ["1", "2"]


def test_analyze_component_selector_rejects_unknown_attribute(snapshot_csv):
    with pytest.raises(InvalidArgumentError):
        run_analysis(snapshot_csv, AnalysisConfig(windows=1, component="min-mean:carbn"))
    with pytest.raises(InvalidArgumentError):
        AnalysisConfig(component="min-mean:").validate()


def test_analyze_node_ages(snapshot_csv):
    report = run_analysis(snapshot_csv, AnalysisConfig(windows=2, ensemble=20))
    assert report["node_ages"] == {"1": 0, "2": 0, "3": 1, "4": 1}
