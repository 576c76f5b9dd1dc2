"""Payload formats for the simulated REST APIs.

The paper's sources differ in format — "the Players API provides data in
JSON format while the Teams API in XML" (Figure 2).  This module encodes
record lists to JSON, XML and CSV and decodes them back, plus the
flattening step wrappers rely on: whatever the transport format, a wrapper
must deliver rows in first normal form (paper §2.2).

XML handling uses only :mod:`xml.etree.ElementTree` from the standard
library; nested JSON objects flatten with underscore-joined paths
(``{"stats": {"goals": 3}}`` → ``stats_goals``).
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET
from collections import abc
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "DECODE_ERRORS",
    "encode_json",
    "decode_json",
    "encode_xml",
    "decode_xml",
    "encode_csv",
    "decode_csv",
    "flatten_record",
    "flatten_records",
    "PayloadFormat",
]

Record = Dict[str, Any]

#: The formats the mock REST layer can serve.
PayloadFormat = str  # "json" | "xml" | "csv"


#: What the decoders below raise for a payload they cannot read:
#: malformed JSON (a ``ValueError``, as is JSON that is neither an array
#: nor an object), malformed XML or malformed CSV.
DECODE_ERRORS = (ValueError, ET.ParseError, csv.Error)


# --------------------------------------------------------------------- #
# JSON
# --------------------------------------------------------------------- #


def encode_json(records: Sequence[Mapping[str, Any]]) -> str:
    """Serialize records as a JSON array (stable key order)."""
    return json.dumps(list(records), indent=1, sort_keys=True)


def decode_json(payload: str) -> List[Record]:
    """Parse a JSON payload into a record list.

    Accepts a bare array, a single object, or the common REST envelope
    ``{"data": [...]}``.
    """
    parsed = json.loads(payload)
    if isinstance(parsed, list):
        return [dict(item) for item in parsed]
    if isinstance(parsed, dict):
        if isinstance(parsed.get("data"), list):
            return [dict(item) for item in parsed["data"]]
        return [parsed]
    raise ValueError("JSON payload is neither an array nor an object")


# --------------------------------------------------------------------- #
# XML
# --------------------------------------------------------------------- #


def encode_xml(
    records: Sequence[Mapping[str, Any]],
    item_tag: str = "item",
    root_tag: str = "items",
) -> str:
    """Serialize records as ``<items><item><k>v</k>...</item>...</items>``.

    Mirrors the Teams API excerpt in Figure 2 (``<team><id>25</id>...``).
    Nested dicts become nested elements; lists repeat the element.
    """
    root = ET.Element(root_tag)
    for record in records:
        item = ET.SubElement(root, item_tag)
        _dict_to_xml(item, record)
    return ET.tostring(root, encoding="unicode")


def _dict_to_xml(parent: ET.Element, record: Mapping[str, Any]) -> None:
    for key, value in record.items():
        if isinstance(value, Mapping):
            child = ET.SubElement(parent, str(key))
            _dict_to_xml(child, value)
        elif isinstance(value, (list, tuple)):
            for element in value:
                child = ET.SubElement(parent, str(key))
                if isinstance(element, Mapping):
                    _dict_to_xml(child, element)
                else:
                    child.text = _scalar_to_text(element)
        else:
            child = ET.SubElement(parent, str(key))
            child.text = _scalar_to_text(value)


def _scalar_to_text(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def decode_xml(payload: str) -> List[Record]:
    """Parse an XML payload (one level of item elements under the root).

    Leaf text is kept as strings — type recovery is the wrapper's job,
    exactly as with a real XML API.
    """
    root = ET.fromstring(payload)
    records: List[Record] = []
    for item in root:
        records.append(_xml_to_dict(item))
    return records


def _xml_to_dict(element: ET.Element) -> Record:
    record: Record = {}
    for child in element:
        if len(child):
            value: Any = _xml_to_dict(child)
        else:
            value = child.text if child.text is not None else ""
        if child.tag in record:
            existing = record[child.tag]
            if isinstance(existing, list):
                existing.append(value)
            else:
                record[child.tag] = [existing, value]
        else:
            record[child.tag] = value
    return record


# --------------------------------------------------------------------- #
# CSV
# --------------------------------------------------------------------- #


def encode_csv(records: Sequence[Mapping[str, Any]], columns: Optional[Sequence[str]] = None) -> str:
    """Serialize records as CSV with a header row."""
    if columns is None:
        seen: List[str] = []
        seen_set = set()
        for record in records:
            for key in record:
                if key not in seen_set:
                    seen_set.add(key)
                    seen.append(key)
        columns = seen
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(list(columns))
    for record in records:
        writer.writerow([_scalar_to_text(record.get(c)) for c in columns])
    return buffer.getvalue()


def decode_csv(payload: str) -> List[Record]:
    """Parse CSV into records (all values strings, as on the wire)."""
    reader = csv.reader(io.StringIO(payload))
    rows = list(reader)
    if not rows:
        return []
    header = rows[0]
    return [dict(zip(header, row)) for row in rows[1:]]


# --------------------------------------------------------------------- #
# flattening (1NF)
# --------------------------------------------------------------------- #


#: The exact value types a record may hold and still be flat already.
_FLAT_TYPES = frozenset({str, int, float, bool, type(None)})


def flatten_record(record: Mapping[str, Any], separator: str = "_") -> Record:
    """Flatten nested dicts into one level with joined keys.

    Lists of scalars are joined with ``|``; lists of dicts are indexed
    (``tags_0_name``).  The result satisfies the paper's 1NF assumption
    for wrapper output.  A record that is flat already (``str`` keys,
    scalar values of exactly the JSON types) comes back as a plain copy.
    """
    for key, value in record.items():
        if type(key) is not str or type(value) not in _FLAT_TYPES:
            flat: Record = {}
            _flatten_into(flat, "", dict(record), separator)
            return flat
    return dict(record)


def _flatten_into(flat: Record, prefix: str, value: Any, separator: str) -> None:
    if isinstance(value, abc.Mapping):
        for key, sub in value.items():
            _flatten_into(
                flat,
                f"{prefix}{separator}{key}" if prefix else str(key),
                sub,
                separator,
            )
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (abc.Mapping, list, tuple)) for v in value):
            flat[prefix] = "|".join(_scalar_to_text(v) for v in value)
        else:
            for index, element in enumerate(value):
                _flatten_into(flat, f"{prefix}{separator}{index}", element, separator)
    else:
        flat[prefix] = value


def flatten_records(records: Sequence[Mapping[str, Any]], separator: str = "_") -> List[Record]:
    """Flatten every record; see :func:`flatten_record`."""
    return [flatten_record(r, separator) for r in records]
