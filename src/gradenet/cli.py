"""Command line interface: mine, analyze, synth.

Exit codes: 0 success, 1 usage/validation, 2 data/schema, 3 internal.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import (
    GenerationError,
    GradenetError,
    InvalidArgumentError,
    ParseError,
    SchemaError,
)
from .evolution import node_age, stage_networks
from .exports import (
    dot_dumps,
    edges_csv_dumps,
    graphml_dumps,
    histogram_csv_dumps,
    records_csv_dumps,
    zscores_csv_dumps,
)
from .graph import connected_components, girvan_newman
from .nullmodels import SeedStream
from .pipeline import MODELS, AnalysisConfig, run_analysis, zscore_rows
from .records import (
    assign_windows,
    campaign_diversity_histogram,
    parse_records,
    slabs_per_item_histogram,
)
from .synth import PlannerConfig, generate


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _model_list(text: str) -> tuple:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gradenet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--item-column", default="grade")
        p.add_argument("--min-support", type=float, default=0.0)
        p.add_argument("--min-lift", type=float, default=1.0)
        p.add_argument("--out", type=Path, required=True, help="output directory")

    mine = sub.add_parser("mine", help="build the co-selection network and histograms")
    mine.add_argument("input", type=Path)
    add_common(mine)
    mine.add_argument(
        "--windows", type=int, default=0,
        help="when > 0, also compute node ages over this many windows",
    )

    analyze = sub.add_parser("analyze", help="full pipeline with null-model z-scores")
    analyze.add_argument("input", type=Path)
    add_common(analyze)
    analyze.add_argument("--windows", type=int, default=10)
    analyze.add_argument("--ensemble", type=int, default=1000)
    analyze.add_argument("--models", type=_model_list, default=MODELS)
    analyze.add_argument(
        "--corr", dest="correlation", choices=("pearson", "spearman", "kendall"),
        default="spearman",
    )
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--prune-floor", type=float, default=0.01)
    analyze.add_argument(
        "--component", default="largest",
        help="'largest' or 'min-mean:<attribute>' (e.g. min-mean:carbon)",
    )
    analyze.add_argument(
        "--swap-multiplier", type=float, default=10.0,
        help="DEGSEQ swap proposals per edge",
    )

    synth = sub.add_parser("synth", help="generate synthetic records from a planner config")
    synth.add_argument("config", type=Path)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(directory: Path, name: str, text: str) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(text, encoding="utf-8")


def _annotations(cograph, table, ages=None):
    """Node data per item: its attribute means over `table`, component, community and age."""
    annotations = table.item_means()
    for i, component in enumerate(connected_components(cograph.graph)):
        subgraph = cograph.graph.subgraph(component)
        for j, community in enumerate(girvan_newman(subgraph).ordered()):
            for node in community:
                annotations[node].update(component=i, community=f"{i}.{j}")
    if ages is not None:
        for node, age in ages.items():
            annotations[node]["age"] = age
    return annotations


def cmd_mine(args) -> int:
    if args.windows < 0:
        raise InvalidArgumentError("windows must be >= 0")
    table = parse_records(_read_text(args.input), item_column=args.item_column)
    # --windows 0: no node ages, and one stage over every campaign (even none)
    ends = assign_windows(table, args.windows) if args.windows else (len(table.campaign_labels),)
    series = stage_networks(table, ends, min_support=args.min_support, min_lift=args.min_lift)
    cograph = series.stages[-1]
    ages = node_age(series) if args.windows else None
    annotations = _annotations(cograph, table, ages)
    out = args.out
    _write(out, "network.graphml", graphml_dumps(cograph, annotations))
    _write(out, "network.dot", dot_dumps(cograph, annotations))
    _write(out, "edges.csv", edges_csv_dumps(cograph))
    _write(
        out,
        "hist_campaign_diversity.csv",
        histogram_csv_dumps(
            campaign_diversity_histogram(table), "grades_per_campaign", "campaigns"
        ),
    )
    _write(
        out,
        "hist_slabs_per_grade.csv",
        histogram_csv_dumps(slabs_per_item_histogram(table), "grade", "slabs"),
    )
    return 0


def cmd_analyze(args) -> int:
    fields = dataclasses.fields(AnalysisConfig)
    config = AnalysisConfig(**{f.name: getattr(args, f.name) for f in fields})
    report = run_analysis(_read_text(args.input), config)
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise GradenetError(f"report holds a non-finite number: {exc}") from exc
    _write(args.out, "report.json", text + "\n")
    _write(args.out, "zscores.csv", zscores_csv_dumps(zscore_rows(report)))
    return 0


def cmd_synth(args) -> int:
    try:
        data = json.loads(_read_text(args.config))
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"malformed planner config: {exc}") from exc
    config = PlannerConfig.from_dict(data)
    records = generate(config, SeedStream.from_seed(args.seed).generator())
    _write(args.out, "records.csv", records_csv_dumps(records))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    handlers = {"mine": cmd_mine, "analyze": cmd_analyze, "synth": cmd_synth}
    try:
        return handlers[args.command](args)
    except (SchemaError, ParseError) as exc:
        print(f"gradenet: data error: {exc}", file=sys.stderr)
        return 2
    except (InvalidArgumentError, GenerationError) as exc:
        print(f"gradenet: invalid input: {exc}", file=sys.stderr)
        return 1
    except GradenetError as exc:
        print(f"gradenet: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
