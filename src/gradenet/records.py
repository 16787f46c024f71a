"""Ingestion of production records and the descriptive first-pass views.

CSV rows are slabs: a campaign label, an item label (steel grade by
default) and numeric attributes. File row order is taken as the
chronological order; observation windows are assigned per campaign so a
campaign is never split across windows.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass

from .errors import InvalidArgumentError, ParseError, SchemaError

CAMPAIGN_COLUMN = "campaign"
ITEM_COLUMN = "grade"
ATTRIBUTE_COLUMNS = (
    "width_mm",
    "thickness_mm",
    "carbon",
    "manganese",
    "silicon",
    "titanium",
)
# sign constraints enforced at parse time, keyed by column name
_POSITIVE = {"width_mm", "thickness_mm"}
_NONNEGATIVE = {"carbon", "manganese", "silicon", "titanium"}


@dataclass(frozen=True)
class ProductionRecord:
    """One slab/order row in chronological file order."""

    sequence_index: int
    campaign_id: str
    item: str
    attributes: dict

    def __post_init__(self):
        if not self.campaign_id:
            raise ParseError("campaign id must be non-empty")
        if not self.item:
            raise ParseError("item label must be non-empty")


@dataclass(frozen=True)
class TransactionSet:
    """Campaigns viewed as market-basket transactions."""

    transactions: tuple  # ((campaign_id, frozenset of items), ...)
    item_universe: frozenset

    def __len__(self) -> int:
        return len(self.transactions)

    @classmethod
    def from_itemsets(cls, itemsets, ids=None) -> "TransactionSet":
        """Build from bare item sets; mainly for tests and fixtures."""
        itemsets = [frozenset(s) for s in itemsets]
        if any(not s for s in itemsets):
            raise InvalidArgumentError("transactions must be non-empty item sets")
        if ids is None:
            ids = [f"t{i}" for i in range(len(itemsets))]
        universe = frozenset().union(*itemsets) if itemsets else frozenset()
        return cls(tuple(zip(ids, itemsets)), universe)


@dataclass(frozen=True)
class WindowAssignment:
    """Chronological split of campaigns into equally-sized windows."""

    window_count: int
    window_of: dict  # campaign_id -> window index


def parse_records(
    csv_text: str,
    item_column: str = ITEM_COLUMN,
    attribute_columns=None,
    campaign_column: str = CAMPAIGN_COLUMN,
) -> list:
    """Parse CSV text into ProductionRecords, preserving file order.

    Extra columns are ignored. A column that is read must appear exactly
    once in the header. When attribute_columns is None, the standard
    attribute columns present in the header are used.
    """
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("input has no header row") from None
    header = [h.strip() for h in header]
    if attribute_columns is None:
        attribute_columns = [c for c in ATTRIBUTE_COLUMNS if c in header]
    for required in (campaign_column, item_column, *attribute_columns):
        if required not in header:
            raise SchemaError(f"missing required column: {required}")
        if header.count(required) > 1:
            raise SchemaError(f"duplicate column: {required}")
    col = {name: header.index(name) for name in header}
    width = max(col[c] for c in (campaign_column, item_column, *attribute_columns))

    records = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) <= width:
            raise ParseError(f"row {line_no}: expected {len(header)} fields, got {len(row)}")
        campaign = row[col[campaign_column]].strip()
        item = row[col[item_column]].strip()
        if not campaign:
            raise ParseError(f"row {line_no}: empty campaign cell")
        if not item:
            raise ParseError(f"row {line_no}: empty item cell")
        attributes = {}
        for name in attribute_columns:
            cell = row[col[name]].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"row {line_no}: non-numeric value {cell!r} in column {name}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"row {line_no}: non-finite value in column {name}")
            if name in _POSITIVE and value <= 0:
                raise ParseError(f"row {line_no}: column {name} must be > 0")
            if name in _NONNEGATIVE and value < 0:
                raise ParseError(f"row {line_no}: column {name} must be >= 0")
            attributes[name] = value
        records.append(
            ProductionRecord(
                sequence_index=len(records),
                campaign_id=campaign,
                item=item,
                attributes=attributes,
            )
        )
    return records


def group_campaigns(records) -> TransactionSet:
    """One transaction per campaign, in order of first appearance."""
    order = []
    items = {}
    for rec in records:
        if rec.campaign_id not in items:
            items[rec.campaign_id] = set()
            order.append(rec.campaign_id)
        items[rec.campaign_id].add(rec.item)
    transactions = tuple((cid, frozenset(items[cid])) for cid in order)
    universe = frozenset(rec.item for rec in records)
    return TransactionSet(transactions, universe)


def assign_windows(transactions: TransactionSet, window_count: int) -> WindowAssignment:
    """Split campaigns into contiguous windows, remainder to the earliest."""
    n = len(transactions)
    if window_count < 1:
        raise InvalidArgumentError("window_count must be >= 1")
    if window_count > n:
        raise InvalidArgumentError(
            f"window_count {window_count} exceeds campaign count {n}"
        )
    q, r = divmod(n, window_count)
    window_of = {}
    position = 0
    for w in range(window_count):
        size = q + 1 if w < r else q
        for cid, _ in transactions.transactions[position : position + size]:
            window_of[cid] = w
        position += size
    return WindowAssignment(window_count, window_of)


def campaign_diversity_histogram(transactions: TransactionSet) -> dict:
    """Histogram of the number of distinct items per campaign."""
    return dict(sorted(Counter(len(items) for _, items in transactions.transactions).items()))


def slabs_per_item_histogram(records) -> dict:
    """Record (slab) count per item."""
    return dict(sorted(Counter(rec.item for rec in records).items()))
