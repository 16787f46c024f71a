"""End-to-end orchestration of the six analysis steps into one report.

Per cumulative stage: build the co-selection network, locate components,
select the component of interest, detect its communities, summarize their
production contribution, prune negligible communities, and score the full
and pruned graphs against the configured null-model ensembles. Everything
is deterministic given the seed, so the report is byte-reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

from .errors import InsufficientDataError, InvalidArgumentError
from .evolution import group_summary, node_age, prune_minor_groups, stage_networks
from .graph import _adjacency_matrix, connected_components, girvan_newman
from .nullmodels import MODELS, SeedStream, spec_for
from .records import (
    ITEM_COLUMN,
    assign_windows,
    campaign_diversity_histogram,
    parse_records,
    slabs_per_item_histogram,
)
from .stats import CORRELATIONS, STATISTICS, ensemble_zscores, node_metric_correlations

# the value columns of zscores.csv: the fields of a defined z-score cell
_ZSCORE_VALUES = ("empirical", "mean", "std", "z", "dropped")


@dataclasses.dataclass(frozen=True)
class AnalysisConfig:
    item_column: str = ITEM_COLUMN
    windows: int = 10
    min_support: float = 0.0
    min_lift: float = 1.0
    ensemble: int = 1000
    models: tuple = MODELS
    correlation: str = "spearman"
    seed: int = 0
    prune_floor: float = 0.01
    component: str = "largest"  # or "min-mean:<attribute>"
    swap_multiplier: float = 10.0

    def validate(self) -> None:
        if self.windows < 1:
            raise InvalidArgumentError("windows must be >= 1")
        if self.ensemble < 2:
            raise InvalidArgumentError("ensemble size must be >= 2")
        if not self.models:
            raise InvalidArgumentError("models must name at least one null model")
        unknown = [m for m in self.models if m not in MODELS]
        if unknown:
            raise InvalidArgumentError(f"unknown null model {unknown[0]!r}")
        if len(set(self.models)) < len(self.models):
            raise InvalidArgumentError("models must not repeat a null model")
        if self.correlation not in CORRELATIONS:
            raise InvalidArgumentError(f"unknown correlation {self.correlation!r}")
        if not (0.0 <= self.prune_floor <= 1.0):
            raise InvalidArgumentError("prune floor must be in [0, 1]")
        if not 0 < self.swap_multiplier < math.inf:
            raise InvalidArgumentError("swap multiplier must be positive and finite")
        if self.component != "largest" and (
            not self.component.startswith("min-mean:") or self.component == "min-mean:"
        ):
            raise InvalidArgumentError(
                "component selector must be 'largest' or 'min-mean:<attribute>'"
            )


def _select_component(components, table, rows, selector: str):
    """The largest component, or the one whose items' means of the attribute average lowest.

    The means are over the stage's records, the rows that the boolean mask
    `rows` selects from `table`. `math.fsum` makes that average independent
    of the set's order, so of the hash seed. Ties go to the larger
    component, then to the least label.
    """
    if not components:
        return None
    if selector == "largest":
        return components[0]
    attribute = selector.split(":", 1)[1]
    _, means = table.bin_means(table.item[rows], len(table.item_labels), rows)
    means = dict(zip(table.item_labels, means))

    def mean_attribute(component):
        return math.fsum(means[v][attribute] for v in component) / len(component)

    return min(components, key=lambda c: (mean_attribute(c), -len(c), c[0]))


def _score(graph, config: AnalysisConfig, stream: SeedStream) -> tuple:
    """(correlation entry, {model: {statistic: cell}}) of one scope graph.

    The graph's adjacency, built here once, is what the stats and null-model
    layers read. Below 3 non-isolated nodes every cell gives that reason and
    no replicate is drawn.
    """
    _, a = _adjacency_matrix(graph)
    try:
        empirical = node_metric_correlations(a, config.correlation)
    except InsufficientDataError as exc:
        undefined = {name: {"undefined": str(exc)} for name in STATISTICS}
        return undefined, dict.fromkeys(config.models, undefined)
    ensembles = {}
    for model in config.models:
        spec = spec_for(model, a, swap_multiplier=config.swap_multiplier)
        ensembles[model] = ensemble_zscores(
            empirical,
            spec,
            config.ensemble,
            config.correlation,
            stream=stream.child(MODELS.index(model)),
        )
    return empirical, ensembles


def run_analysis(csv_text: str, config: AnalysisConfig) -> dict:
    """Run the full pipeline on CSV text and return the report dict."""
    config.validate()
    digest = hashlib.sha256(csv_text.encode("utf-8")).hexdigest()
    table = parse_records(csv_text, item_column=config.item_column)
    if config.component != "largest" and table:
        attribute = config.component.split(":", 1)[1]
        if attribute not in table.attributes:
            raise InvalidArgumentError(f"unknown component attribute {attribute!r}")
    series = stage_networks(
        table,
        assign_windows(table, config.windows),
        min_support=config.min_support,
        min_lift=config.min_lift,
    )
    base_stream = SeedStream.from_seed(config.seed)

    stages = []
    # the last selected component graph and its partition: GN is a pure
    # function of the graph, so a stage whose component is unchanged reuses it
    previous = None, None
    for s, cograph in enumerate(series.stages):
        components = connected_components(cograph.graph)
        rows = table.campaign < series.ends[s]
        selected = _select_component(components, table, rows, config.component)
        # a stage without a component keeps these values of its last six keys
        entry = {
            "stage": s,
            "windows_included": s + 1,
            "campaigns": series.ends[s],
            "nodes": cograph.graph.number_of_nodes(),
            "edges": cograph.graph.number_of_edges(),
            "components": components,
            "selected_component": selected,
            "communities": None,
            "group_summaries": [],
            "pruned_core": None,
            "correlations": {},
            "ensembles": {},
        }
        stages.append(entry)
        if selected is None:
            continue
        component_graph = cograph.graph.subgraph(selected)
        if component_graph == previous[0]:
            partition = previous[1]
        else:
            partition = girvan_newman(component_graph)
            previous = component_graph, partition
        communities = partition.communities
        summaries = group_summary(communities, table, rows)
        pruned_graph = prune_minor_groups(
            component_graph, communities, summaries, config.prune_floor
        )
        entry["communities"] = {
            "count": len(communities),
            "modularity": partition.modularity_q,
            "members": communities,
        }
        entry["group_summaries"] = [{"community": i, **cell} for i, cell in enumerate(summaries)]
        entry["pruned_core"] = {
            "nodes": pruned_graph.nodes(),
            "removed_items": len(selected) - pruned_graph.number_of_nodes(),
        }
        full = _score(component_graph, config, base_stream.child(s, 0))
        if pruned_graph.number_of_nodes() == len(selected):
            # pruning removed nothing; the pruned scope is the same computation
            # and shares the full scope's result rather than re-simulating it
            pruned = full
        else:
            pruned = _score(pruned_graph, config, base_stream.child(s, 1))
        entry["correlations"] = {"full": full[0], "pruned": pruned[0]}
        entry["ensembles"] = {"full": full[1], "pruned": pruned[1]}

    report = {
        "input": {
            "sha256": digest,
            "records": len(table),
            "campaigns": len(table.campaign_labels),
            "items": len(table.item_labels),
        },
        "config": dataclasses.asdict(config),
        "histograms": {
            "campaign_diversity": {
                str(k): v for k, v in campaign_diversity_histogram(table).items()
            },
            "slabs_per_item": slabs_per_item_histogram(table),
        },
        "stages": stages,
        "node_ages": node_age(series),
    }
    return report


def zscore_rows(report: dict) -> list:
    """The report's ensemble grid as tidy rows, the header row first."""
    rows = [["stage", "scope", "model", "statistic", *_ZSCORE_VALUES, "defined"]]
    for entry in report["stages"]:
        for scope, block in entry["ensembles"].items():
            for model in report["config"]["models"]:
                for statistic in STATISTICS:
                    cell = block[model][statistic]
                    key = [entry["stage"], scope, model, statistic]
                    if "undefined" in cell:
                        rows.append(key + [""] * len(_ZSCORE_VALUES) + ["false"])
                    else:
                        rows.append(key + [repr(cell[f]) for f in _ZSCORE_VALUES] + ["true"])
    return rows
