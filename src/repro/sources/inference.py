"""Signature inference: bootstrap a wrapper from a live endpoint.

"Data stewards must provide the definition of the wrapper, as well as
its signature" (paper §2.2) — but for plain REST collections the
signature is mechanically derivable: fetch a sample, decode whatever
format comes back, flatten to 1NF and take the union of keys.  This
module does exactly that, returning the inferred attribute list together
with per-attribute type/nullability statistics the steward can review.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from ..relational.types import AttrType, common_type, infer_type
from .formats import decode_csv, decode_json, decode_xml, flatten_record
from .restapi import MockRestServer

__all__ = ["AttributeProfile", "SignatureProfile", "infer_signature", "profile_attributes"]


@dataclass(frozen=True)
class AttributeProfile:
    """What the sample revealed about one flattened payload key."""

    name: str
    inferred_type: AttrType
    present: int
    nulls: int
    examples: Tuple[str, ...]

    @property
    def nullable(self) -> bool:
        """Whether the attribute was ever missing or null in the sample."""
        return self.nulls > 0


@dataclass(frozen=True)
class SignatureProfile:
    """The inferred signature of an endpoint."""

    path: str
    record_count: int
    attributes: Tuple[AttributeProfile, ...]

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        """The signature attribute names, in first-seen order."""
        return tuple(a.name for a in self.attributes)

    def describe(self) -> str:
        """A steward-facing rendering of the inferred signature."""
        lines = [f"{self.path}: {self.record_count} sample records"]
        for attribute in self.attributes:
            flags = []
            if attribute.nullable:
                flags.append("nullable")
            suffix = f" ({', '.join(flags)})" if flags else ""
            example = f" e.g. {attribute.examples[0]}" if attribute.examples else ""
            lines.append(
                f"  {attribute.name}: {attribute.inferred_type}{suffix}{example}"
            )
        return "\n".join(lines)


def profile_attributes(
    names: Sequence[str], records: Sequence[Mapping[str, Any]]
) -> Tuple[AttributeProfile, ...]:
    """Type, null count and up to three examples of each of ``names``
    over ``records``; a missing, None or empty value counts as null."""
    profiles: List[AttributeProfile] = []
    for name in names:
        inferred = AttrType.ANY
        present = 0
        nulls = 0
        examples: List[str] = []
        for record in records:
            value = record.get(name)
            if value is None or value == "":
                nulls += 1
                continue
            present += 1
            inferred = common_type(inferred, infer_type(value))
            if len(examples) < 3:
                rendered = repr(value)
                if rendered not in examples:
                    examples.append(rendered)
        profiles.append(
            AttributeProfile(
                name=name,
                inferred_type=inferred,
                present=present,
                nulls=nulls,
                examples=tuple(examples),
            )
        )
    return tuple(profiles)


def infer_signature(
    server: MockRestServer,
    path: str,
    params: Optional[Mapping[str, str]] = None,
    sample_limit: int = 100,
) -> SignatureProfile:
    """Fetch a sample from ``path`` and infer the wrapper signature.

    Raises :class:`repro.sources.restapi.HttpError` when the endpoint
    fails and :class:`ValueError` when the sample is empty (no schema can
    be inferred from nothing).
    """
    response = server.get_or_raise(path, params)
    if "json" in response.content_type:
        records = decode_json(response.body)
    elif "xml" in response.content_type:
        records = decode_xml(response.body)
    elif "csv" in response.content_type:
        records = decode_csv(response.body)
    else:
        raise ValueError(f"unsupported content type {response.content_type}")
    records = [flatten_record(r) for r in records[:sample_limit]]
    if not records:
        raise ValueError(f"endpoint {path} returned no records to sample")
    order: List[str] = []
    seen = set()
    for record in records:
        for key in record:
            if key not in seen:
                seen.add(key)
                order.append(key)
    return SignatureProfile(
        path=path, record_count=len(records), attributes=profile_attributes(order, records)
    )
