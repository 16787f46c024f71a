"""The benchmark's workloads: how each input is generated, run and checked.

Each workload's input is generated from the workload seed by
`gradenet.synth`, outside any timing; the program receives only the CSV.
`check` returns the correctness problems of one run's output directory
(empty when the run is correct). Sizes marked `smoke` are the tiny ones
the benchmark's own test uses.
"""

from __future__ import annotations

import csv
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

STATISTICS = ("COR_D_BC", "COR_CC_BC")
SCOPES = ("full", "pruned")
GRAPHML_NS = "{http://graphml.graphdrawing.org/xmlns}"

# The count each workload may scale, fixed here for the benchmark.
PLANTED_ENSEMBLE = 25
INGEST_CAMPAIGNS = 20000
# planted-ensemble runs on the acceptance suite's planted data. Its true
# within-band lift (about 1.89) lies just under --min-lift 2.0, so which
# edges exist is decided by sampling noise: across data seeds the selected
# component's edge count ranges from about 88 to 143, and the run's work
# with it. The workload seed therefore drives the null-model RNG (--seed).
PLANTED_DATA_SEED = 2


@dataclass(frozen=True)
class Input:
    """A generated input: its CSV text and the facts the checks need."""

    csv_text: str
    campaigns: int
    band_items: list  # sorted item labels per planted band
    late_items: list


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each was chosen."""

    name: str
    planner: Callable  # smoke -> gradenet.synth.PlannerConfig
    args: Callable  # (seed, smoke) -> CLI arguments after the input and --out
    check: Callable  # (output dir, Input) -> list of problems
    data_seed: int | None = None  # fixed data seed; None: the workload seed


def generate_input(workload: Workload, seed: int, smoke: bool) -> Input:
    from gradenet.exports import records_csv_dumps
    from gradenet.nullmodels import SeedStream
    from gradenet.synth import generate

    config = workload.planner(smoke)
    data_seed = seed if workload.data_seed is None else workload.data_seed
    records = generate(config, SeedStream.from_seed(data_seed).generator())
    return Input(
        csv_text=records_csv_dumps(records),
        campaigns=len({rec.campaign_id for rec in records}),
        band_items=sorted(sorted(band.items) for band in config.bands),
        late_items=sorted(config.late_items),
    )


def _strict_json(path: Path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def _analyze_problems(out: Path):
    """Strict-JSON and full-grid checks; returns (report or None, problems)."""
    try:
        report = _strict_json(out / "report.json")
    except (OSError, ValueError) as exc:
        return None, [f"report.json unreadable as strict JSON: {exc}"]
    problems = []
    models = report["config"]["models"]
    for entry in report["stages"]:
        for scope in SCOPES:
            block = entry.get("ensembles", {}).get(scope, {})
            for model in models:
                for statistic in STATISTICS:
                    cell = block.get(model, {}).get(statistic)
                    if cell is None or ("z" not in cell and "undefined" not in cell):
                        problems.append(
                            f"stage {entry['stage']} {scope}/{model}/{statistic} cell missing"
                        )
    if not (out / "zscores.csv").is_file():
        problems.append("zscores.csv missing")
    return report, problems


# planted-ensemble: the reference run of the acceptance suite.

def _planted_planner(smoke):
    from gradenet.synth import planted_two_band_config

    if smoke:
        return planted_two_band_config(
            grades_per_band=8, campaign_count=600, late_per_band=1, late_activation=400
        )
    return planted_two_band_config(
        grades_per_band=30, campaign_count=5000, late_per_band=2, late_activation=3500
    )


def _planted_args(seed, smoke):
    return [
        "analyze", "--windows", "4" if smoke else "10", "--min-lift", "2.0",
        "--models", "er,degseq,grg", "--corr", "spearman",
        "--ensemble", "3" if smoke else str(PLANTED_ENSEMBLE), "--seed", str(seed),
    ]


def _planted_check(out, data):
    report, problems = _analyze_problems(out)
    if report is None:
        return problems
    final = sorted(sorted(c) for c in report["stages"][-1]["components"])
    if final != data.band_items:
        problems.append("final-stage components differ from the planted bands")
    for item in data.late_items:
        if report["node_ages"].get(item, 0) <= 0:
            problems.append(f"late item {item} has no positive node age")
    return problems


# gn-dense: Girvan-Newman on two dense components, then the network exports.

def _gn_planner(smoke):
    from gradenet.synth import planted_two_band_config

    return planted_two_band_config(
        grades_per_band=10 if smoke else 40,
        campaign_count=300 if smoke else 3000,
        uniform_popularity=False,
        campaign_size=(3, 8),
    )


def _gn_args(seed, smoke):
    return ["mine", "--windows", "10", "--min-lift", "1.5"]


def _gn_check(out, data):
    try:
        root = ET.parse(out / "network.graphml").getroot()
        with open(out / "edges.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))[1:]
    except (OSError, ET.ParseError) as exc:
        return [f"network outputs unreadable: {exc}"]
    problems = []
    nodes = {}
    for el in root.iter(f"{GRAPHML_NS}node"):
        nodes[el.get("id")] = {d.get("key"): d.text for d in el.iter(f"{GRAPHML_NS}data")}
    graphml_edges = sorted(
        tuple(sorted((el.get("source"), el.get("target"))))
        for el in root.iter(f"{GRAPHML_NS}edge")
    )
    csv_edges = sorted(tuple(sorted(row[:2])) for row in rows)
    if graphml_edges != csv_edges:
        problems.append("GraphML edge set differs from edges.csv")
    if {v for e in csv_edges for v in e} - set(nodes):
        problems.append("edges.csv names a node missing from the GraphML")
    missing = sorted(v for v, data_ in nodes.items() if not data_.get("community"))
    if missing:
        problems.append(f"{len(missing)} nodes without a community, e.g. {missing[0]}")
    if not nodes:
        problems.append("GraphML has no nodes")
    return problems


# ingest-long: many campaigns over many small bands, so parsing and stage
# building dominate and every selected component is a complete K6.

def _ingest_planner(smoke):
    from gradenet.synth import Band, PlannerConfig

    bands = []
    for b in range(20):
        low = round(0.01 + 0.02 * b, 6)
        high = round(low + 0.015, 6)
        items = {
            f"B{b:02d}G{g}": {
                "width_mm": 1000.0 + 50.0 * g,
                "thickness_mm": 40.0 + 2.0 * b,
                "carbon": round(low + 0.0025 * g, 6),
                "manganese": round(0.2 + 0.01 * g, 6),
                "silicon": round(0.01 + 0.001 * b, 6),
                "titanium": round(0.001 * g, 6),
            }
            for g in range(6)
        }
        bands.append(Band(name=f"band{b:02d}", attribute="carbon", interval=(low, high), items=items))
    return PlannerConfig(
        bands=tuple(bands),
        campaign_count=2000 if smoke else INGEST_CAMPAIGNS,
        campaign_size=(2, 5),
        cross_band_rate=0.02,
        slabs_per_item=(1, 3),
    )


def _ingest_args(seed, smoke):
    return ["analyze", "--windows", "20", "--ensemble", "2", "--seed", str(seed)]


def _ingest_check(out, data):
    report, problems = _analyze_problems(out)
    if report is None:
        return problems
    counts = [entry["campaigns"] for entry in report["stages"]]
    if any(b < a for a, b in zip(counts, counts[1:])):
        problems.append("stage campaign counts decrease")
    if not counts or counts[-1] != data.campaigns:
        problems.append(
            f"last stage holds {counts[-1] if counts else None} campaigns, input has {data.campaigns}"
        )
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted-ensemble", _planted_planner, _planted_args, _planted_check, PLANTED_DATA_SEED
        ),
        Workload("gn-dense", _gn_planner, _gn_args, _gn_check),
        Workload("ingest-long", _ingest_planner, _ingest_args, _ingest_check),
    )
}


def report_metrics(out: Path) -> dict:
    """Deterministic statistics the traced run reports from report.json (0 for mine).

    `stats.z_within2_frac` is acceptance 6's statistic: the share of
    pruned-scope cells with a defined |z| < 2.
    """
    path = out / "report.json"
    report = _strict_json(path) if path.is_file() else {"stages": []}
    dropped = attempted = undefined = pruned = within = 0
    for entry in report["stages"]:
        for scope, block in entry.get("ensembles", {}).items():
            for model_block in block.values():
                for cell in model_block.values():
                    if "undefined" in cell:
                        undefined += 1
                    else:
                        dropped += cell["dropped"]
                        attempted += cell["replicates"]
                    if scope == "pruned":
                        pruned += 1
                        within += cell.get("z") is not None and abs(cell["z"]) < 2.0
    return {
        "stats.dropped_ratio": dropped / attempted if attempted else 0.0,
        "stats.undefined_cells": undefined,
        "stats.z_within2_frac": within / pruned if pruned else 0.0,
    }
