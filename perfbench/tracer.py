"""Span recording around gradenet's layer boundaries, from outside the package.

`install` replaces each public function named in `PATCHES` by a wrapper
that records one span per call: its name, start, end, parent span and a few
counts. The wrapper is put where the caller looks the name up (for example
`gradenet.pipeline.girvan_newman`, not `gradenet.graph.girvan_newman`), so
nothing inside `src/` changes. Spans stay in memory; the caller writes them
out when the run ends.

A span's self time is its duration minus the time its direct children
cover. `layer_metrics` sums self times and counts into the per-layer
metrics that `BENCHMARK.json` lists.
"""

from __future__ import annotations

import functools
import importlib
import time


def _size(graph):
    """(nodes, edges) of a gradenet Graph or a square adjacency array."""
    if hasattr(graph, "number_of_nodes"):
        return graph.number_of_nodes(), graph.number_of_edges()
    shape = getattr(graph, "shape", None)
    if shape is not None and len(shape) == 2:
        return shape[0], int(graph.astype(bool).sum()) // 2
    return None, None


def _graph_arg(args, kwargs, result):
    n, m = _size(args[0] if args else kwargs.get("graph"))
    return {"n": n, "m": m}


def _spec_arg(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    return {"model": spec.kind.lower(), "n": spec.n, "m": spec.m}


def _spec_result(args, kwargs, result):
    return {"model": result.kind.lower(), "n": result.n, "m": result.m}


def _ensemble(args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    replicates = args[2] if len(args) > 2 else kwargs["replicates"]
    return {"model": spec.kind.lower(), "replicates": replicates}


def _build_graph(args, kwargs, result):
    records = args[1] if len(args) > 1 else kwargs.get("records", ())
    return {"rows": len(records), "edges_out": result.graph.number_of_edges()}


def _stages(args, kwargs, result):
    return {"stages": len(result.stages)}


def _length(args, kwargs, result):
    return {"items": len(result)}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute, span name, counts). Each entry patches the name in the
# module that calls it; a name missing from its module is skipped, so the
# benchmark keeps running when a later change removes or moves a function.
PATCHES = (
    ("gradenet.cli", "run_analysis", "pipeline.run_analysis", None),
    ("gradenet.cli", "zscore_rows", "pipeline.zscore_rows", None),
    ("gradenet.cli", "_annotations", "cli.annotations", None),
    ("gradenet.cli", "parse_records", "records.parse", _length),
    ("gradenet.pipeline", "parse_records", "records.parse", _length),
    ("gradenet.cli", "group_campaigns", "records.group", _length),
    ("gradenet.pipeline", "group_campaigns", "records.group", _length),
    ("gradenet.cli", "assign_windows", "records.other", None),
    ("gradenet.pipeline", "assign_windows", "records.other", None),
    ("gradenet.cli", "campaign_diversity_histogram", "records.other", None),
    ("gradenet.pipeline", "campaign_diversity_histogram", "records.other", None),
    ("gradenet.cli", "slabs_per_item_histogram", "records.other", None),
    ("gradenet.pipeline", "slabs_per_item_histogram", "records.other", None),
    ("gradenet.cli", "build_graph", "mining.build_graph", _build_graph),
    ("gradenet.evolution", "build_graph", "mining.build_graph", _build_graph),
    ("gradenet.cli", "stage_networks", "evolution.stage_networks", _stages),
    ("gradenet.pipeline", "stage_networks", "evolution.stage_networks", _stages),
    ("gradenet.cli", "node_age", "evolution.node_age", None),
    ("gradenet.pipeline", "node_age", "evolution.node_age", None),
    ("gradenet.pipeline", "group_summary", "evolution.group_summary", None),
    ("gradenet.pipeline", "prune_minor_groups", "evolution.prune", None),
    ("gradenet.cli", "connected_components", "graph.components", None),
    ("gradenet.pipeline", "connected_components", "graph.components", None),
    ("gradenet.cli", "girvan_newman", "graph.gn", _graph_arg),
    ("gradenet.pipeline", "girvan_newman", "graph.gn", _graph_arg),
    ("gradenet.graph", "edge_betweenness", "graph.edge_betweenness", _graph_arg),
    ("gradenet.pipeline", "spec_for", "nullmodels.spec", _spec_result),
    ("gradenet.stats", "generate_null", "nullmodels.generate", _spec_arg),
    ("gradenet.pipeline", "ensemble_zscores", "stats.ensemble", _ensemble),
    ("gradenet.pipeline", "node_metric_correlations", "stats.empirical_corr", None),
    ("gradenet.stats", "metric_vectors", "stats.metric_vectors", None),
    ("gradenet.cli", "graphml_dumps", "exports.dumps", _text_bytes),
    ("gradenet.cli", "dot_dumps", "exports.dumps", _text_bytes),
    ("gradenet.cli", "edges_csv_dumps", "exports.dumps", _text_bytes),
    ("gradenet.cli", "histogram_csv_dumps", "exports.dumps", _text_bytes),
    ("gradenet.cli", "zscores_csv_dumps", "exports.dumps", _text_bytes),
)

ROOT_SPAN = "cli.main"
MODELS = ("er", "degseq", "grg")


class Recorder:
    """In-memory spans: [name, parent index or -1, start, end, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counts=None):
        """`fn` recording one span per call; `counts(args, kwargs, result)` gives its counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        return wrapper


def install(recorder: Recorder) -> list:
    """Patch every name in PATCHES; return the (module, attribute) pairs skipped."""
    skipped = []
    for module_name, attribute, span_name, counts in PATCHES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attribute, None)
        if fn is None:
            skipped.append((module_name, attribute))
            continue
        setattr(module, attribute, recorder.wrap(span_name, fn, counts))
    return skipped


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, start, end, _) in enumerate(spans)]


def nesting_violations(spans, tolerance: float = 1e-6) -> list:
    """Spans whose direct children cover more than the span itself, or lie outside it."""
    bad = []
    for i, own in enumerate(self_times(spans)):
        if own < -tolerance:
            bad.append(i)
    for i, (_, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            p_start, p_end = spans[parent][2], spans[parent][3]
            if start < p_start - tolerance or end > p_end + tolerance:
                bad.append(i)
    return sorted(set(bad))


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _key(span) -> str:
    """The span's name, with its null model appended when it has one."""
    return f"{span[0]}.{span[4]['model']}" if "model" in span[4] else span[0]


def _self_by_key(spans) -> dict:
    sums: dict = {}
    for span, own in zip(spans, self_times(spans)):
        sums[_key(span)] = sums.get(_key(span), 0.0) + own
    return sums


def layer_metrics(spans) -> dict:
    """Per-layer self times (s), call counts and per-call costs from the spans."""
    self_s = _self_by_key(spans)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(_key(span), []).append(span)
    calls = {key: len(group) for key, group in by_name.items()}

    def total(key, field):
        return sum(span[4].get(field) or 0 for span in by_name.get(key, ()))

    def mean_of(key, field):
        return _mean([span[4][field] for span in by_name.get(key, ()) if span[4].get(field) is not None])

    def ms_per_call(key):
        return 1000.0 * self_s.get(key, 0.0) / calls[key] if calls.get(key) else 0.0

    out = {}
    for model in MODELS:
        key = f"nullmodels.generate.{model}"
        out[f"nullmodels.generate_s.{model}"] = self_s.get(key, 0.0)
        out[f"nullmodels.replicates.{model}"] = calls.get(key, 0)
        out[f"nullmodels.spec_s.{model}"] = self_s.get(f"nullmodels.spec.{model}", 0.0)
        out[f"nullmodels.ms_per_replicate.{model}"] = ms_per_call(key)
    generated = [s for s in spans if s[0] == "nullmodels.generate"]
    out["nullmodels.replicate_mean_n"] = _mean([s[4]["n"] for s in generated])
    out["nullmodels.replicate_mean_m"] = _mean([s[4]["m"] for s in generated])

    out["stats.metric_vectors_s"] = self_s.get("stats.metric_vectors", 0.0)
    out["stats.metric_vectors_calls"] = calls.get("stats.metric_vectors", 0)
    out["stats.ensemble_self_s"] = sum(self_s.get(f"stats.ensemble.{m}", 0.0) for m in MODELS)
    out["stats.empirical_corr_s"] = self_s.get("stats.empirical_corr", 0.0)

    out["graph.gn_s"] = self_s.get("graph.gn", 0.0)
    out["graph.gn_calls"] = calls.get("graph.gn", 0)
    out["graph.edge_betweenness_s"] = self_s.get("graph.edge_betweenness", 0.0)
    out["graph.edge_betweenness_calls"] = calls.get("graph.edge_betweenness", 0)
    out["graph.ms_per_edge_betweenness"] = ms_per_call("graph.edge_betweenness")
    out["graph.edge_betweenness_mean_n"] = mean_of("graph.edge_betweenness", "n")
    out["graph.edge_betweenness_mean_m"] = mean_of("graph.edge_betweenness", "m")
    out["graph.components_s"] = self_s.get("graph.components", 0.0)

    out["mining.build_graph_s"] = self_s.get("mining.build_graph", 0.0)
    out["mining.build_graph_calls"] = calls.get("mining.build_graph", 0)
    out["mining.edges_out"] = total("mining.build_graph", "edges_out")

    stage_build = [s for s in spans if s[0] == "evolution.stage_networks"]
    stages = sum(s[4]["stages"] for s in stage_build)
    out["evolution.stage_networks_s"] = self_s.get("evolution.stage_networks", 0.0)
    out["evolution.group_summary_s"] = self_s.get("evolution.group_summary", 0.0)
    out["evolution.prune_s"] = self_s.get("evolution.prune", 0.0)
    out["evolution.node_age_s"] = self_s.get("evolution.node_age", 0.0)
    out["evolution.ms_per_stage_build"] = (
        1000.0 * sum(s[3] - s[2] for s in stage_build) / stages if stages else 0.0
    )
    stage_rows = [
        s[4]["rows"] for s in spans
        if s[0] == "mining.build_graph" and s[1] >= 0 and spans[s[1]][0] == "evolution.stage_networks"
    ]
    out["evolution.stage_build_mean_rows"] = _mean(stage_rows)

    out["records.parse_s"] = self_s.get("records.parse", 0.0)
    out["records.rows"] = total("records.parse", "items")
    out["records.group_s"] = self_s.get("records.group", 0.0)
    out["records.campaigns"] = total("records.group", "items")
    out["records.other_s"] = self_s.get("records.other", 0.0)

    run_analysis = [s for s in spans if s[0] == "pipeline.run_analysis"]
    out["pipeline.run_analysis_s"] = sum((s[3] - s[2] for s in run_analysis), 0.0)
    out["pipeline.self_s"] = self_s.get("pipeline.run_analysis", 0.0) + self_s.get(
        "pipeline.zscore_rows", 0.0
    )

    out["exports.dumps_s"] = self_s.get("exports.dumps", 0.0)
    out["exports.bytes"] = total("exports.dumps", "bytes")

    out["cli.self_s"] = self_s.get(ROOT_SPAN, 0.0)
    out["cli.annotations_s"] = self_s.get("cli.annotations", 0.0)
    return out


def top_self_times(spans, count: int = 5) -> list:
    """The largest (span key, self seconds) pairs, model-labelled spans split by model."""
    return sorted(_self_by_key(spans).items(), key=lambda kv: -kv[1])[:count]
