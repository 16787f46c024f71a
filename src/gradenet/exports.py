"""File formats: records CSV, GraphML/DOT network exports, histogram CSVs.

The tests read the GraphML and DOT output back with minimal readers, so
exported node/edge sets are checked to round-trip.
"""

from __future__ import annotations

import csv
import io
import re

from .evolution import CoSelectionGraph
from .records import ATTRIBUTE_COLUMNS, CAMPAIGN_COLUMN, ITEM_COLUMN

_GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"
# the GraphML attr.type of a node value's Python type; any other is a string
_GRAPHML_TYPES = {int: "int", float: "double"}
# XML escapes of character data and of attribute values, as ElementTree writes them
_XML_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_XML_TEXT = str.maketrans(_XML_ESCAPES)
_XML_ATTRIBUTE = str.maketrans(
    _XML_ESCAPES | {'"': "&quot;", "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)
# a DOT numeral has no exponent
_DOT_NUMERAL = re.compile(r"-?(\.[0-9]+|[0-9]+(\.[0-9]*)?)")


def _csv_text(header: list, rows) -> str:
    """The header row, then `rows`, as CSV text whose lines end in a bare newline."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def records_csv_dumps(records) -> str:
    """Records in the ingest schema; attribute columns in schema order."""
    present = set()
    for rec in records:
        present.update(rec.attributes)
    columns = [c for c in ATTRIBUTE_COLUMNS if c in present]
    columns += sorted(present - set(ATTRIBUTE_COLUMNS))
    return _csv_text(
        [CAMPAIGN_COLUMN, ITEM_COLUMN, *columns],
        (
            [rec.campaign_id, rec.item]
            + [repr(rec.attributes[c]) if c in rec.attributes else "" for c in columns]
            for rec in records
        ),
    )


def _node_data(cograph: CoSelectionGraph, node_annotations: dict | None) -> dict:
    node_annotations = node_annotations or {}
    return {node: node_annotations.get(node, {}) for node in cograph.graph.nodes()}


def graphml_dumps(cograph: CoSelectionGraph, node_annotations: dict | None = None) -> str:
    """GraphML with node attribute data and lift as an edge attribute.

    A node key is declared `int` when all its values are ints (component,
    age), `double` when all are floats (attribute means), else `string`.
    The text is what ElementTree writes after `ET.indent`: a 2-space indent
    and an empty element closed as `<tag ... />`.
    """
    node_data = _node_data(cograph, node_annotations)
    types = {}
    for row in node_data.values():
        for name, value in row.items():
            types.setdefault(name, set()).add(type(value))
    lines = ["<?xml version='1.0' encoding='utf-8'?>", f'<graphml xmlns="{_GRAPHML_NS}">']
    for name in sorted(types):
        (kind,) = types[name] if len(types[name]) == 1 else (str,)
        key = name.translate(_XML_ATTRIBUTE)
        attr_type = _GRAPHML_TYPES.get(kind, "string")
        lines.append(f'  <key id="{key}" for="node" attr.name="{key}" attr.type="{attr_type}" />')
    lines.append('  <key id="lift" for="edge" attr.name="lift" attr.type="double" />')
    graph = '  <graph id="G" edgedefault="undirected"'
    if not node_data:  # no node, so no edge either
        lines.append(graph + " />")
    else:
        lines.append(graph + ">")
        for node, row in node_data.items():
            node_id = str(node).translate(_XML_ATTRIBUTE)
            if not row:
                lines.append(f'    <node id="{node_id}" />')
                continue
            lines.append(f'    <node id="{node_id}">')
            for name in sorted(row):
                key, text = name.translate(_XML_ATTRIBUTE), str(row[name]).translate(_XML_TEXT)
                data = f'<data key="{key}">{text}</data>' if text else f'<data key="{key}" />'
                lines.append("      " + data)
            lines.append("    </node>")
        for (u, v), lift in cograph.edge_lift.items():
            source, target = (str(x).translate(_XML_ATTRIBUTE) for x in (u, v))
            lines.append(f'    <edge source="{source}" target="{target}">')
            lines.append(f'      <data key="lift">{lift!r}</data>')
            lines.append("    </edge>")
        lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def _dot_quote(label) -> str:
    return '"' + str(label).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_id(text: str) -> str:
    """`text` as a DOT ID: a DOT numeral as it is, anything else (say 5e-05) quoted."""
    return text if _DOT_NUMERAL.fullmatch(text) else _dot_quote(text)


def dot_dumps(cograph: CoSelectionGraph, node_annotations: dict | None = None) -> str:
    node_data = _node_data(cograph, node_annotations)
    lines = ["graph coselection {"]
    for node in cograph.graph.nodes():
        attrs = ", ".join(
            f"{name}={_dot_id(str(node_data[node][name]))}" for name in sorted(node_data[node])
        )
        suffix = f" [{attrs}]" if attrs else ""
        lines.append(f"  {_dot_quote(node)}{suffix};")
    for (u, v), lift in cograph.edge_lift.items():
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)} [lift={_dot_id(repr(lift))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def edges_csv_dumps(cograph: CoSelectionGraph) -> str:
    rows = ([u, v, repr(lift)] for (u, v), lift in cograph.edge_lift.items())
    return _csv_text(["item_a", "item_b", "lift"], rows)


def histogram_csv_dumps(histogram: dict, key_name: str, value_name: str) -> str:
    return _csv_text([key_name, value_name], ([key, histogram[key]] for key in sorted(histogram)))


def zscores_csv_dumps(rows: list) -> str:
    """Tidy long-format z-score table for external plotting; `rows[0]` is the header."""
    return _csv_text(rows[0], rows[1:])
