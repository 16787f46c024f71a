"""Acceptance gate: eight end-to-end criteria, one printed verdict each.

Each criterion records one `ACCEPTANCE <n> (<name>): PASS|FAIL` line that
is echoed to the terminal after the run, so the gate can be read off a
plain `pytest` run.
"""

from __future__ import annotations

import functools
import itertools
import json
import time

import numpy as np
import pytest

from gradenet.cli import main
from gradenet.exports import records_csv_dumps
from gradenet.graph import Graph, _adjacency_matrix, connected_components, girvan_newman
from gradenet.nullmodels import NullModelSpec, SeedStream, er_gnm, random_geometric
from gradenet.pipeline import AnalysisConfig, run_analysis
from gradenet.records import parse_records
from gradenet.stats import (
    STATISTICS,
    _replicate_values,
    _row_midranks,
    _row_pearson,
    ensemble_zscores,
    node_metric_correlations,
)
from gradenet.synth import generate, planted_two_band_config

from conftest import (
    ACCEPTANCE_VERDICTS,
    SNAPSHOT_CSV,
    WORKED_ITEMSETS,
    betweenness_all,
    brute_betweenness,
    brute_clustering,
    build_graph,
    clustering_all,
    clustering_coefficient,
    from_itemsets,
    graph_from_adjacency,
    itemsets_table,
    kendall_exhaustive,
    lift,
    modularity,
    random_graph,
    switch_randomize,
)


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_VERDICTS.append(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            ACCEPTANCE_VERDICTS.append(f"ACCEPTANCE {number} ({name}): PASS")

        return wrapper

    return decorate


@criterion(1, "metric oracle equivalence")
def test_acceptance_1_metric_oracles():
    started = time.time()
    rng = np.random.default_rng(1)
    for _ in range(100):
        g = random_graph(rng, max_nodes=7)
        expected = brute_betweenness(g)
        actual = betweenness_all(g)
        clustering = clustering_all(g)
        for v in g.nodes():
            assert abs(actual[v] - expected[v]) <= 1e-9
            assert abs(clustering[v] - brute_clustering(g, v)) <= 1e-9
            assert abs(clustering_coefficient(g, v) - brute_clustering(g, v)) <= 1e-9
    assert time.time() - started < 10.0


@criterion(2, "formula fixtures")
def test_acceptance_2_formula_fixtures():
    ts = from_itemsets(WORKED_ITEMSETS)
    assert lift("C", "D", ts) == pytest.approx(4.0 / 3.0, abs=1e-12)
    cograph = build_graph(itemsets_table(WORKED_ITEMSETS))
    assert cograph.edge_lift[("C", "D")] == pytest.approx(4.0 / 3.0, abs=1e-12)

    records = parse_records(SNAPSHOT_CSV)
    cograph = build_graph(records)
    components = connected_components(cograph.graph)
    assert [sorted(c) for c in components] == [["1", "2"], ["3", "4"]]
    item_means = records.item_means()
    means = []
    for component in components:
        carbons = [item_means[v]["carbon"] for v in sorted(component)]
        means.append(sum(carbons) / len(carbons))
    assert means[0] == pytest.approx(0.010, abs=1e-12)
    assert means[1] == pytest.approx(0.020, abs=1e-12)


@criterion(3, "community recovery")
def test_acceptance_3_community_recovery():
    g = Graph()
    left = [f"a{i}" for i in range(8)]
    right = [f"b{i}" for i in range(8)]
    for side in (left, right):
        for u, v in itertools.combinations(side, 2):
            g.add_edge(u, v)
    g.add_edge(left[0], right[0])
    partition = girvan_newman(g)
    assert set(map(frozenset, partition.communities)) == {
        frozenset(left),
        frozenset(right),
    }

    two_triangles = Graph(edges=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    q = modularity(two_triangles, [{0, 1, 2}, {3, 4, 5}])
    assert abs(q - 0.5) <= 1e-12
    assert abs(girvan_newman(two_triangles).modularity_q - 0.5) <= 1e-12


@pytest.mark.slow
@criterion(4, "null-model structure")
def test_acceptance_4_null_models():
    started = time.time()
    stream = SeedStream.from_seed(4)
    source = graph_from_adjacency(
        range(100), er_gnm(100, 300, stream.child(0).generator(), 1)[0]
    )
    source_degrees = sorted(
        (v, len(source.neighbors(v))) for v in source.nodes()
    )
    for i in range(1000):
        replica = graph_from_adjacency(
            range(100), er_gnm(100, 300, stream.child(1, i).generator(), 1)[0]
        )
        assert replica.number_of_nodes() == 100
        assert replica.number_of_edges() == 300
        assert all(u != v for u, v in replica.edges())
    _, source_adjacency = _adjacency_matrix(source)
    for i in range(1000):
        shuffled = graph_from_adjacency(
            source.nodes(), switch_randomize(source_adjacency, 10.0, stream.child(2, i).generator())
        )
        assert (
            sorted((v, len(shuffled.neighbors(v))) for v in shuffled.nodes())
            == source_degrees
        )
    for i in range(200):
        geometric = graph_from_adjacency(
            range(100), random_geometric(100, 300, stream.child(4, i).generator(), 1)[0]
        )
        assert geometric.number_of_edges() == 300
        assert all(u != v for u, v in geometric.edges())
    assert time.time() - started < 60.0


@criterion(5, "z-score self-consistency")
def test_acceptance_5_zscore_self_consistency():
    stream = SeedStream.from_seed(99)
    spec = NullModelSpec(kind="er", n=20, m=50)
    z_values = {"COR_D_BC": [], "COR_CC_BC": []}
    for trial in range(200):
        a = er_gnm(20, 50, stream.child(trial, 0).generator(), 1)[0]
        g = graph_from_adjacency(range(20), a)
        empirical = node_metric_correlations(_adjacency_matrix(g)[1])
        cells = ensemble_zscores(empirical, spec, 200, stream=stream.child(trial, 1))
        for name, cell in cells.items():
            if "z" in cell:
                z_values[name].append(cell["z"])
    for name, values in z_values.items():
        assert len(values) >= 190, name
        assert abs(float(np.mean(values))) < 0.15, name


@pytest.mark.slow
@criterion(6, "end-to-end planted recovery")
def test_acceptance_6_planted_recovery():
    started = time.time()
    config = planted_two_band_config(
        grades_per_band=30,
        campaign_count=5000,
        late_per_band=2,
        late_activation=3500,
    )
    records = generate(config, SeedStream.from_seed(2).generator())
    csv_text = records_csv_dumps(records)
    # min_lift = 2.0 is the within-band independence boundary here: a
    # campaign picks one of the two bands first, which doubles every
    # within-band lift relative to global independence.
    report = run_analysis(
        csv_text,
        AnalysisConfig(windows=10, ensemble=1000, seed=11, min_lift=2.0),
    )

    # (a) exactly two components, aligned with the planted bands
    components = report["stages"][-1]["components"]
    assert len(components) == 2
    band_items = [sorted(band.items) for band in config.bands]
    assert sorted(map(sorted, components)) == sorted(band_items)

    # (b) pruned-core z-scores: |z| < 2 in at least 80% of cells
    total = 0
    within = 0
    for entry in report["stages"]:
        for model_block in entry["ensembles"]["pruned"].values():
            for cell in model_block.values():
                total += 1
                z = cell.get("z")
                if z is not None and abs(z) < 2.0:
                    within += 1
    assert total == 10 * 3 * 2
    assert within / total >= 0.80, f"{within}/{total} cells within |z| < 2"

    # (c) planted late items have strictly positive node age
    for item in config.late_items:
        assert report["node_ages"][item] > 0, item

    assert time.time() - started < 600.0


@criterion(7, "determinism")
def test_acceptance_7_determinism(tmp_path):
    input_path = tmp_path / "records.csv"
    input_path.write_text(SNAPSHOT_CSV, encoding="utf-8")
    args = [
        "analyze",
        str(input_path),
        "--windows",
        "2",
        "--ensemble",
        "50",
        "--seed",
        "13",
    ]
    assert main(args + ["--out", str(tmp_path / "first")]) == 0
    assert main(args + ["--out", str(tmp_path / "second")]) == 0
    first = (tmp_path / "first" / "report.json").read_bytes()
    second = (tmp_path / "second" / "report.json").read_bytes()
    assert first == second
    json.loads(first)  # the report is valid JSON


@criterion(8, "correlation identities")
def test_acceptance_8_correlation_identities():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 500:
        n = int(rng.integers(3, 9))
        x = rng.integers(0, 5, size=n).astype(float).tolist()
        y = rng.integers(0, 5, size=n).astype(float).tolist()
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        # one replicate whose degree row is x and betweenness row y, all kept
        rows = np.array([x]), np.array([y])
        metrics = rows[0], rows[0], rows[1], np.ones((1, n), dtype=bool)
        s = _replicate_values(metrics, "spearman", STATISTICS[:1])[0][STATISTICS[0]]
        assert s[0] == _row_pearson(*(_row_midranks(v) for v in rows))[0]
        tau = _replicate_values(metrics, "kendall", STATISTICS[:1])[0][STATISTICS[0]]
        assert tau[0] == pytest.approx(kendall_exhaustive(x, y), abs=1e-12)
        checked += 1
