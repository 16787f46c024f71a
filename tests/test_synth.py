"""Synthetic planner: planted bands, late items, config validation."""

from __future__ import annotations

import pytest

from gradenet.errors import GenerationError, InvalidArgumentError
from gradenet.graph import connected_components
from gradenet.nullmodels import SeedStream
from gradenet.synth import Band, PlannerConfig, generate, planted_two_band_config
from conftest import build_graph, group_campaigns, record_table


def small_config(**overrides):
    return planted_two_band_config(
        grades_per_band=6, campaign_count=200, campaign_size=(2, 4), **overrides
    )


def test_generate_deterministic():
    config = small_config()
    first = generate(config, SeedStream.from_seed(1).generator())
    second = generate(config, SeedStream.from_seed(1).generator())
    assert first == second
    third = generate(config, SeedStream.from_seed(2).generator())
    assert first != third


def test_band_purity_and_components():
    config = small_config()
    records = generate(config, SeedStream.from_seed(3).generator())
    band_of = {
        item: band.name for band in config.bands for item in band.items
    }
    table = record_table(records)
    transactions = group_campaigns(table)
    for _, items in transactions.transactions:
        assert len({band_of[item] for item in items}) == 1
    cograph = build_graph(table)
    means = table.item_means()
    components = connected_components(cograph.graph)
    assert len(components) == 2
    for component in components:
        assert len({band_of[item] for item in component}) == 1
        carbons = [means[v]["carbon"] for v in component]
        band = next(b for b in config.bands if band_of[min(component)] == b.name)
        low, high = band.interval
        assert low <= sum(carbons) / len(carbons) <= high


def test_cross_band_mixing():
    config = small_config(cross_band_rate=0.5)
    records = generate(config, SeedStream.from_seed(4).generator())
    band_of = {item: band.name for band in config.bands for item in band.items}
    transactions = group_campaigns(record_table(records))
    mixed = sum(
        1
        for _, items in transactions.transactions
        if len({band_of[item] for item in items}) > 1
    )
    assert 0.3 < mixed / len(transactions) < 0.7


def test_late_items_absent_before_activation():
    config = small_config(late_per_band=1, late_activation=100)
    records = generate(config, SeedStream.from_seed(5).generator())
    late = set(config.late_items)
    assert late == {"L05", "H05"}
    for rec in records:
        if rec.item in late:
            assert int(rec.campaign_id[1:]) >= 100
    assert any(rec.item in late for rec in records)


def test_single_item_band():
    config = PlannerConfig(
        bands=(
            Band("only", "carbon", (0.0, 0.1), {"X": {"carbon": 0.05}}),
        ),
        campaign_count=5,
        campaign_size=(1, 3),
    )
    records = generate(config, SeedStream.from_seed(6).generator())
    assert {rec.item for rec in records} == {"X"}
    table = record_table(records)
    cograph = build_graph(table)
    assert cograph.graph.nodes() == ["X"]
    assert cograph.graph.number_of_edges() == 0


def test_generation_error_when_no_eligible_items():
    config = PlannerConfig(
        bands=(
            Band("only", "carbon", (0.0, 0.1), {"X": {"carbon": 0.05}}),
        ),
        campaign_count=5,
        late_items={"X": 3},
    )
    with pytest.raises(GenerationError):
        generate(config, SeedStream.from_seed(0).generator())


def test_config_validation():
    band = Band("a", "carbon", (0.0, 0.1), {"X": {"carbon": 0.05}})
    overlapping = Band("b", "carbon", (0.05, 0.2), {"Y": {"carbon": 0.1}})
    with pytest.raises(InvalidArgumentError, match="overlap"):
        PlannerConfig(bands=(band, overlapping), campaign_count=5).validate()
    with pytest.raises(InvalidArgumentError):
        PlannerConfig(bands=(band,), campaign_count=0).validate()
    with pytest.raises(InvalidArgumentError):
        PlannerConfig(bands=(band,), campaign_count=5, cross_band_rate=1.5).validate()
    with pytest.raises(InvalidArgumentError):
        PlannerConfig(bands=(band,), campaign_count=5, campaign_size=(0, 2)).validate()
    with pytest.raises(InvalidArgumentError, match="not present"):
        PlannerConfig(bands=(band,), campaign_count=5, late_items={"Z": 1}).validate()
    bad_weights = Band("a", "carbon", (0.0, 0.1), {"X": {"carbon": 0.05}}, {"Y": 1.0})
    with pytest.raises(InvalidArgumentError, match="weights"):
        PlannerConfig(bands=(bad_weights,), campaign_count=5).validate()
    outside = Band("a", "carbon", (0.0, 0.1), {"X": {"carbon": 0.5}})
    with pytest.raises(InvalidArgumentError, match="outside"):
        PlannerConfig(bands=(outside,), campaign_count=5).validate()


def test_from_dict_round_trip():
    data = {
        "bands": [
            {
                "name": "low",
                "interval": [0.0, 0.1],
                "items": {"X": {"carbon": 0.05}, "Y": {"carbon": 0.08}},
            }
        ],
        "campaign_count": 10,
        "campaign_size": [1, 2],
    }
    config = PlannerConfig.from_dict(data)
    assert config.bands[0].attribute == "carbon"
    records = generate(config, SeedStream.from_seed(0).generator())
    assert records
    with pytest.raises(InvalidArgumentError, match="malformed"):
        PlannerConfig.from_dict({"bands": []})  # campaign_count missing
    with pytest.raises(InvalidArgumentError):
        PlannerConfig.from_dict({"bands": [], "campaign_count": 5})


def test_heavy_tailed_default_popularity():
    config = small_config(uniform_popularity=False)
    records = generate(config, SeedStream.from_seed(7).generator())
    from gradenet.records import slabs_per_item_histogram

    histogram = slabs_per_item_histogram(record_table(records))
    low_band = sorted(k for k in histogram if k.startswith("L"))
    # 1/rank weights: the first item of a band is produced far more often
    assert histogram[low_band[0]] > 2 * histogram[low_band[-1]]
