"""Ingestion of production records and the descriptive first-pass views.

CSV rows are slabs: a campaign label, an item label (steel grade by
default) and numeric attributes. File row order is taken as the
chronological order, and campaign codes follow first appearance, so the
first k campaign codes are the first k campaigns in time. Observation
windows are runs of consecutive campaign codes, so a campaign is never
split across windows and stage s (windows 0..s) is a prefix of codes.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
_NONBLANK = re.compile(r"\S")
# np.loadtxt arguments that read the rows after the header line as csv.reader does
_BODY = dict(delimiter=",", quotechar='"', comments=None, skiprows=1, ndmin=1, encoding="utf-8")


class _Codes(dict):
    """Label -> code in order of first appearance; a new label takes the next code."""

    def __missing__(self, label):
        self[label] = code = len(self)
        return code


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending: `np.unique` by a sort, not a hash."""
    keys = np.sort(keys)
    first = np.ones(len(keys), bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Parsed rows as columns, in file order.

    Row i is a slab of campaign `campaign_labels[campaign[i]]` and item
    `item_labels[item[i]]`, labels in order of first appearance, with a
    value in every attribute column.
    """

    campaign_labels: tuple
    item_labels: tuple
    campaign: np.ndarray  # intp code per row
    item: np.ndarray  # intp code per row
    attributes: dict  # attribute name -> float64 column, in parse order

    def __len__(self) -> int:
        return len(self.campaign)

    def item_counts(self) -> dict:
        """Row count per item label, for the items that have rows."""
        counts = np.bincount(self.item, minlength=len(self.item_labels)).tolist()
        return {label: n for label, n in zip(self.item_labels, counts) if n}

    @cached_property
    def campaign_items(self) -> tuple:
        """The distinct (campaign, item) code pairs as two code columns, sorted by campaign.

        Computed once per table; the stage build and the diversity histogram share it.
        """
        width = max(len(self.item_labels), 1)
        return np.divmod(_distinct(self.campaign * width + self.item), width)

    def bin_means(self, bins, size: int, rows=slice(None)) -> tuple:
        """Row count and {attribute: mean} per bin, for the rows `rows` selects binned by `bins`.

        `bins` holds one code below `size` per selected row, in row order.
        `np.bincount` adds each bin's values in row order from 0.0, as a
        running Python sum would. An empty bin has no means. A sum that
        overflows to infinity raises ParseError naming the attribute, so no
        mean is ever infinite.
        """
        counts = np.bincount(bins, minlength=size).tolist()
        names = sorted(self.attributes)
        sums = []
        for name in names:
            column = np.bincount(bins, self.attributes[name][rows], size)
            if not np.isfinite(column).all():
                raise ParseError(f"column {name}: values too large to average")
            sums.append(column.tolist())
        means = [
            {name: column[b] / n for name, column in zip(names, sums)} if n else {}
            for b, n in enumerate(counts)
        ]
        return counts, means

    def item_means(self) -> dict:
        """{item label: {attribute: mean}} over each item's rows in file order; {} for no rows."""
        return dict(zip(self.item_labels, self.bin_means(self.item, len(self.item_labels))[1]))


def parse_records(
    csv_text: str,
    item_column: str = ITEM_COLUMN,
    attribute_columns=None,
) -> RecordTable:
    """Parse CSV text into a RecordTable, preserving file order.

    Extra columns are ignored. A column that is read must appear exactly
    once in the header. When attribute_columns is None, the standard
    attribute columns present in the header are used. One leading UTF-8
    byte-order mark is dropped. Rows are checked one at a time, so the
    first bad cell in file order is the one reported.

    The body is read by numpy's C reader when it can be; any input that
    reader rejects or that fails a check goes to the row loop, which is
    the only code that reports a bad row.

    A column whose total, summed in row order, overflows raises ParseError.
    Every standard column is >= 0 and rounding is monotone, so no row-order
    sum over a subset of such a column's rows (a stage's, a group's or an
    item's) can overflow after that check.
    """
    try:
        table = _read_columns(csv_text, item_column, attribute_columns)
    except (ValueError, csv.Error):  # ValueError includes UnicodeError
        table = None
    if table is None:
        table = _read_rows(csv_text, item_column, attribute_columns)
    for name, column in table.attributes.items():
        with np.errstate(over="ignore"):  # an overflow is refused below, not warned of
            total = np.cumsum(column)[-1:]  # the row-order total; np.sum adds pairwise
        if not np.isfinite(total).all():
            raise ParseError(f"column {name}: values too large to average")
    return table


def _columns(header: list, item_column: str, attribute_columns) -> tuple:
    """The attribute columns to read and each header name's column, after the schema checks."""
    header = [h.strip() for h in header]
    if attribute_columns is None:
        attribute_columns = [c for c in ATTRIBUTE_COLUMNS if c in header]
    for required in (CAMPAIGN_COLUMN, item_column, *attribute_columns):
        if required not in header:
            raise SchemaError(f"missing required column: {required}")
        if header.count(required) > 1:
            raise SchemaError(f"duplicate column: {required}")
    return list(dict.fromkeys(attribute_columns)), {name: header.index(name) for name in header}


def _read_columns(csv_text: str, item_column: str, attribute_columns):
    """The table from np.loadtxt, or None where only the row loop can decide.

    The C reader splits, unquotes and skips blank lines as csv does, and
    reads a number only where float() reads the same value, so a table
    that passes every check of the row loop is the row loop's table. The
    first line is the header only when it holds no quote, which could carry
    a field over a line end. Text with a NUL is left to the row loop, as csv
    before Python 3.11 rejects it.
    """
    end = csv_text.find("\n") + 1
    first = csv_text[csv_text.startswith("\ufeff") : end]
    if not end or '"' in first or "\x00" in csv_text or not _NONBLANK.search(csv_text, end):
        return None
    names, col = _columns(next(csv.reader([first])), item_column, attribute_columns)
    campaign_at, item_at = col[CAMPAIGN_COLUMN], col[item_column]
    # raw label -> code in order of first appearance, one dict per label column
    labels = {campaign_at: _Codes(), item_at: _Codes()}
    # one field per label column, then one per attribute. Where usecols repeats
    # a column, numpy applies its converter at the first place only, so an
    # attribute that is also the item column is coded once and read as a float
    usecols = [*labels, *(col[name] for name in names)]
    dtype = np.dtype([("", np.intp)] * len(labels) + [("", np.float64)] * len(names))
    converters = {at: seen.__getitem__ for at, seen in labels.items()}
    data = csv_text.encode("utf-8")  # one UTF-8 copy: never a UCS-4 StringIO of the text
    # a row ends at a "\n" or at the end of the text, and the header takes one
    # "\n", so max_rows bounds the rows: numpy then allocates the array once,
    # where growing it would raise the peak. numpy warns that a blank line is
    # not counted towards max_rows, which changes nothing for a bound.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Input line", UserWarning)
        rows = np.loadtxt(
            io.BytesIO(data),
            dtype,
            usecols=usecols,
            converters=converters,
            max_rows=data.count(b"\n"),
            **_BODY,
        )
    del data  # freed before the copies, which lowers the peak
    fields = [rows[name].copy() for name in dtype.names]  # contiguous columns
    del rows
    codes = dict(zip(labels, fields))
    values = fields[len(labels) :]
    for at, raw in labels.items():
        if any(label != label.strip() for label in raw):
            # merge the labels that strip to the same text: the stripped labels
            # in order of first appearance, and each raw code mapped to its own
            stripped = {}
            merged = [stripped.setdefault(label.strip(), len(stripped)) for label in raw]
            codes[at] = np.array(merged, np.intp)[codes[at]]
            labels[at] = stripped
    campaigns, items = labels[campaign_at], labels[item_at]
    if "" in campaigns or "" in items or not all(np.isfinite(v).all() for v in values):
        return None
    for name, column in zip(names, values):
        low = column.min()
        if (name in _POSITIVE and low <= 0) or (name in _NONNEGATIVE and low < 0):
            return None
    return RecordTable(
        tuple(campaigns), tuple(items), codes[campaign_at], codes[item_at], dict(zip(names, values))
    )


def _csv_rows(csv_text: str):
    """csv.reader's rows of the text; a row it cannot split raises ParseError."""
    try:
        yield from csv.reader(io.StringIO(csv_text))
    except csv.Error as exc:  # e.g. a lone "\r" line end outside quotes
        raise ParseError(f"malformed CSV: {exc}") from exc


def _read_rows(csv_text: str, item_column: str, attribute_columns) -> RecordTable:
    """The row loop: csv.reader over the text, every cell checked in file order."""
    reader = _csv_rows(csv_text.removeprefix("\ufeff"))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("input has no header row") from None
    names, col = _columns(header, item_column, attribute_columns)
    width = max(col[c] for c in (CAMPAIGN_COLUMN, item_column, *names))

    campaign_codes, item_codes = {}, {}
    campaigns, items = array("q"), array("q")
    columns = {name: array("d") for name in names}
    checks = [(n, col[n], columns[n].append, n in _POSITIVE, n in _NONNEGATIVE) for n in columns]
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) <= width:
            raise ParseError(f"row {line_no}: expected {len(header)} fields, got {len(row)}")
        campaign = row[col[CAMPAIGN_COLUMN]].strip()
        item = row[col[item_column]].strip()
        if not campaign:
            raise ParseError(f"row {line_no}: empty campaign cell")
        if not item:
            raise ParseError(f"row {line_no}: empty item cell")
        for name, at, append, positive, nonnegative in checks:
            cell = row[at].strip()
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"row {line_no}: non-numeric value {cell!r} in column {name}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"row {line_no}: non-finite value in column {name}")
            if positive and value <= 0:
                raise ParseError(f"row {line_no}: column {name} must be > 0")
            if nonnegative and value < 0:
                raise ParseError(f"row {line_no}: column {name} must be >= 0")
            append(value)
        campaigns.append(campaign_codes.setdefault(campaign, len(campaign_codes)))
        items.append(item_codes.setdefault(item, len(item_codes)))
    codes = np.array(campaigns, np.intp), np.array(items, np.intp)
    floats = {name: np.frombuffer(column, np.float64) for name, column in columns.items()}
    return RecordTable(tuple(campaign_codes), tuple(item_codes), *codes, floats)


def assign_windows(table: RecordTable, window_count: int) -> tuple:
    """Stage ends for contiguous windows of the table's campaigns, remainder to the earliest.

    Entry s is the number of campaigns in windows 0..s, so stage s is the
    campaign codes below ends[s].
    """
    n = len(table.campaign_labels)
    if window_count < 1:
        raise InvalidArgumentError("window_count must be >= 1")
    if window_count > n:
        raise InvalidArgumentError(
            f"window_count {window_count} exceeds campaign count {n}"
        )
    q, r = divmod(n, window_count)
    return tuple((w + 1) * q + min(w + 1, r) for w in range(window_count))


def campaign_diversity_histogram(table: RecordTable) -> dict:
    """Histogram of the number of distinct items per campaign that has rows."""
    campaign, _ = table.campaign_items
    sizes, campaigns = np.unique(np.bincount(campaign), return_counts=True)
    return {k: n for k, n in zip(sizes.tolist(), campaigns.tolist()) if k}


def slabs_per_item_histogram(table: RecordTable) -> dict:
    """Record (slab) count per item."""
    return dict(sorted(table.item_counts().items()))
