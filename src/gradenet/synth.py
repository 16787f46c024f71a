"""Synthetic production records with planted selection structure.

A configurable stand-in for an expert planner: items live in disjoint
attribute bands (carbon by default), campaigns draw items from a single
home band by popularity weight, optionally inject a rare out-of-band item,
and some items only become available late in the record stream. The
output uses the same CSV schema the ingest module consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import GenerationError, InvalidArgumentError


@dataclass(frozen=True, slots=True)
class ProductionRecord:
    """One generated slab row, as `exports.records_csv_dumps` writes it."""

    campaign_id: str
    item: str
    attributes: MappingProxyType  # read-only, shared by every record of the item


@dataclass(frozen=True)
class Band:
    """A group of items whose banding attribute lies in a common interval."""

    name: str
    attribute: str
    interval: tuple  # (low, high), inclusive
    items: dict  # item label -> {attribute name -> value}
    weights: dict | None = None  # item label -> positive popularity weight


@dataclass(frozen=True)
class PlannerConfig:
    bands: tuple
    campaign_count: int
    campaign_size: tuple = (2, 6)  # uniform inclusive bounds
    cross_band_rate: float = 0.0
    late_items: dict = field(default_factory=dict)  # item -> activation campaign index
    slabs_per_item: tuple = (1, 1)

    def validate(self) -> None:
        if self.campaign_count < 1:
            raise InvalidArgumentError("campaign_count must be >= 1")
        if not self.bands:
            raise InvalidArgumentError("at least one band required")
        if not (0.0 <= self.cross_band_rate <= 1.0):
            raise InvalidArgumentError("cross_band_rate must be in [0, 1]")
        lo, hi = self.campaign_size
        if not (1 <= lo <= hi):
            raise InvalidArgumentError("campaign_size bounds must satisfy 1 <= min <= max")
        slo, shi = self.slabs_per_item
        if not (1 <= slo <= shi):
            raise InvalidArgumentError("slabs_per_item bounds must satisfy 1 <= min <= max")
        seen_items: set = set()
        by_attribute: dict = {}
        attr_keys = None
        for band in self.bands:
            if not band.items:
                raise InvalidArgumentError(f"band {band.name!r} has no items")
            low, high = band.interval
            if not low <= high:
                raise InvalidArgumentError(f"band {band.name!r} interval is inverted")
            by_attribute.setdefault(band.attribute, []).append((low, high, band.name))
            for item, attrs in band.items.items():
                if not item or item != item.strip():  # ingest would refuse or merge it
                    raise InvalidArgumentError(f"item label {item!r} is empty or padded")
                if item in seen_items:
                    raise InvalidArgumentError(f"item {item!r} appears in two bands")
                seen_items.add(item)
                keys = frozenset(attrs)
                if attr_keys is None:
                    attr_keys = keys
                elif keys != attr_keys:
                    raise InvalidArgumentError(
                        f"item {item!r} attribute columns differ from other items"
                    )
                if band.attribute not in attrs:
                    raise InvalidArgumentError(
                        f"item {item!r} lacks the band attribute {band.attribute!r}"
                    )
                if not low <= attrs[band.attribute] <= high:
                    raise InvalidArgumentError(
                        f"item {item!r} value outside band {band.name!r} interval"
                    )
            if band.weights is not None:
                if set(band.weights) != set(band.items):
                    raise InvalidArgumentError(
                        f"band {band.name!r} weights do not match its items"
                    )
                if any(w <= 0 for w in band.weights.values()):
                    raise InvalidArgumentError("popularity weights must be positive")
        for attribute, intervals in by_attribute.items():
            intervals.sort()
            for (_, high_a, name_a), (low_b, _, name_b) in zip(intervals, intervals[1:]):
                if low_b <= high_a:
                    raise InvalidArgumentError(
                        f"bands {name_a!r} and {name_b!r} overlap on {attribute!r}"
                    )
        unknown_late = set(self.late_items) - seen_items
        if unknown_late:
            raise InvalidArgumentError(
                f"late item {min(unknown_late)!r} not present in any band"
            )
        if any(index < 0 for index in self.late_items.values()):
            raise InvalidArgumentError("late item activation indices must be >= 0")

    @classmethod
    def from_dict(cls, data: dict) -> "PlannerConfig":
        try:
            bands = tuple(
                Band(
                    name=b["name"],
                    attribute=b.get("attribute", "carbon"),
                    interval=_numbers(tuple(b["interval"])),
                    items={item: _numbers(dict(a)) for item, a in dict(b["items"]).items()},
                    weights=_numbers(dict(b["weights"])) if b.get("weights") else None,
                )
                for b in data["bands"]
            )
            config = cls(
                bands=bands,
                campaign_count=_numbers((data["campaign_count"],), int)[0],
                campaign_size=_numbers(tuple(data.get("campaign_size", (2, 6))), int),
                cross_band_rate=_numbers((data.get("cross_band_rate", 0.0),))[0],
                late_items=_numbers(dict(data.get("late_items", {})), int),
                slabs_per_item=_numbers(tuple(data.get("slabs_per_item", (1, 1))), int),
            )
            config.validate()  # a value of the wrong type or shape fails here, if not before
        except InvalidArgumentError:  # a well-formed value that breaks a rule says which
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"malformed planner config: {exc}") from exc
        return config


def _numbers(values, kind=(int, float)):
    """`values`, a tuple or dict of JSON numbers of `kind` (a bool is none), or TypeError."""
    for v in values.values() if isinstance(values, dict) else values:
        if isinstance(v, bool) or not isinstance(v, kind):
            raise TypeError(f"not {'an integer' if kind is int else 'a number'}: {v!r}")
    return values


def _band_weights(band: Band) -> dict:
    if band.weights is not None:
        return band.weights
    # heavy-tailed default so the slabs-per-item histogram is right-skewed
    return {item: 1.0 / rank for rank, item in enumerate(sorted(band.items), start=1)}


def generate(config: PlannerConfig, rng: np.random.Generator) -> list:
    """Draw campaigns sequentially and return their slab records."""
    config.validate()
    weights = {band.name: _band_weights(band) for band in config.bands}
    # one read-only attribute mapping per item, shared by all its records
    item_attrs = {i: MappingProxyType(dict(a)) for b in config.bands for i, a in b.items.items()}
    records: list = []
    size_lo, size_hi = config.campaign_size
    slab_lo, slab_hi = config.slabs_per_item
    width = max(5, len(str(config.campaign_count)))
    for c in range(config.campaign_count):
        campaign_id = f"C{c:0{width}d}"
        band = config.bands[int(rng.integers(0, len(config.bands)))]
        k = int(rng.integers(size_lo, size_hi + 1))
        eligible = sorted(
            item
            for item in band.items
            if config.late_items.get(item, 0) <= c
        )
        if not eligible:
            raise GenerationError(
                f"band {band.name!r} has no eligible items at campaign {c}"
            )
        p = np.array([weights[band.name][item] for item in eligible])
        p = p / p.sum()
        count = min(k, len(eligible))
        chosen = [str(item) for item in rng.choice(eligible, size=count, replace=False, p=p)]
        if len(config.bands) > 1 and rng.random() < config.cross_band_rate:
            others = sorted(
                (other.name, item)
                for other in config.bands
                if other.name != band.name
                for item in other.items
                if config.late_items.get(item, 0) <= c
            )
            if others:
                q = np.array([weights[name][item] for name, item in others])
                q = q / q.sum()
                _, extra = others[int(rng.choice(len(others), p=q))]
                if extra not in chosen:
                    chosen.append(extra)
        for item in chosen:
            record = ProductionRecord(campaign_id, item, item_attrs[item])
            records.extend([record] * int(rng.integers(slab_lo, slab_hi + 1)))  # one per slab
    return records


def planted_two_band_config(
    grades_per_band: int = 30,
    campaign_count: int = 5000,
    campaign_size: tuple = (3, 8),
    cross_band_rate: float = 0.0,
    late_per_band: int = 0,
    late_activation: int = 0,
    uniform_popularity: bool = True,
    slabs_per_item: tuple = (1, 2),
) -> PlannerConfig:
    """Two carbon bands (low/high) with optional late peripheral items."""

    def make_items(prefix: str, low: float, high: float) -> dict:
        span = high - low
        items = {}
        for i in range(grades_per_band):
            carbon = low + span * (i + 0.5) / grades_per_band
            items[f"{prefix}{i:02d}"] = {
                "width_mm": 1500.0 + 10.0 * i,
                "thickness_mm": 50.0 + 0.5 * i,
                "carbon": round(carbon, 6),
                "manganese": round(0.01 + 0.0005 * i, 6),
                "silicon": round(0.005 + 0.0003 * i, 6),
                "titanium": round(0.001 + 0.0001 * i, 6),
            }
        return items

    bands = []
    late_items = {}
    for prefix, low, high in (("L", 0.005, 0.095), ("H", 0.155, 0.295)):
        items = make_items(prefix, low, high)
        weights = {item: 1.0 for item in items} if uniform_popularity else None
        bands.append(
            Band(
                name="low" if prefix == "L" else "high",
                attribute="carbon",
                interval=(low, high),
                items=items,
                weights=weights,
            )
        )
        for i in range(late_per_band):
            late_items[f"{prefix}{grades_per_band - 1 - i:02d}"] = late_activation
    return PlannerConfig(
        bands=tuple(bands),
        campaign_count=campaign_count,
        campaign_size=campaign_size,
        cross_band_rate=cross_band_rate,
        late_items=late_items,
        slabs_per_item=slabs_per_item,
    )
