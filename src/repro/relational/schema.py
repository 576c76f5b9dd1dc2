"""Relation schemas: ordered, typed attribute lists.

A :class:`RelationSchema` is an ordered sequence of ``(name, type)`` pairs
with unique names.  Schemas support the operations the algebra needs:
projection, renaming, union compatibility and natural-join splitting.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .types import AttrType, common_type

__all__ = ["Attribute", "RelationSchema", "SchemaError", "unknown_attributes"]

#: The checks a plan operator's schema rule can fail.
UNKNOWN_RELATION = "unknown relation"
UNKNOWN_ATTRIBUTE = "unknown attribute"
UNION_INCOMPATIBLE = "union-incompatible"
DUPLICATE_COLUMN = "duplicate column"

#: One failed check: ``(check, message, subject)``; the subject is the
#: relation or attribute the check concerns, or ``""``.
Failure = Tuple[str, str, str]


class SchemaError(ValueError):
    """Raised for malformed schemas or incompatible schema operations.

    When a plan operator's schema rule fails (see
    :meth:`repro.relational.algebra.PlanNode.output_schema`),
    ``failures`` lists every check it failed and ``partial`` is the
    schema the operator still produces despite them (``None`` when it
    produces none).  Other schema errors carry no failures.
    """

    def __init__(
        self,
        message: str = "",
        failures: Sequence[Failure] = (),
        partial: Optional["RelationSchema"] = None,
    ) -> None:
        self.failures: Tuple[Failure, ...] = tuple(failures)
        self.partial = partial
        super().__init__(message or "; ".join(m for _, m, _ in self.failures))


def unknown_attributes(
    clause: str, names: Iterable[str], schema: "RelationSchema"
) -> List[Failure]:
    """An unknown-attribute failure for each of ``names`` (referenced by
    ``clause``) that ``schema`` lacks, in order."""
    return [
        (
            UNKNOWN_ATTRIBUTE,
            f"{clause} references {name!r}, but the input schema only has "
            f"{list(schema.names)}",
            name,
        )
        for name in names
        if name not in schema
    ]


class Attribute:
    """A named, typed column."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: AttrType = AttrType.ANY):
        if not name or not isinstance(name, str):
            raise SchemaError(f"attribute name must be a non-empty string: {name!r}")
        self.name = name
        self.type = type

    def renamed(self, new_name: str) -> "Attribute":
        """A copy with a different name."""
        return Attribute(new_name, self.type)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Attribute)
            and other.name == self.name
            and other.type == self.type
        )

    def __hash__(self) -> int:
        return hash((self.name, self.type))

    def __repr__(self) -> str:
        return f"Attribute({self.name!r}, {self.type})"


class RelationSchema:
    """An ordered list of uniquely named attributes."""

    def __init__(self, attributes: Iterable[Attribute]):
        self._attributes: Tuple[Attribute, ...] = tuple(attributes)
        names = tuple([a.name for a in self._attributes])
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            message = f"duplicate attribute names: {duplicates}"
            raise SchemaError(failures=[(DUPLICATE_COLUMN, message, "")])
        self._names = names
        self._index: Dict[str, int] = {name: i for i, name in enumerate(names)}

    @classmethod
    def of(cls, *names: str) -> "RelationSchema":
        """Shorthand: a schema of untyped attributes from names."""
        return cls(Attribute(n) for n in names)

    @classmethod
    def typed(cls, pairs: Sequence[Tuple[str, AttrType]]) -> "RelationSchema":
        """A schema from ``(name, type)`` pairs."""
        return cls(Attribute(n, t) for n, t in pairs)

    @property
    def names(self) -> Tuple[str, ...]:
        """Attribute names in order."""
        return self._names

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        """The attributes in order."""
        return self._attributes

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        """Position of ``name``; raises :class:`SchemaError` if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; schema has {list(self.names)}"
            ) from None

    def attribute(self, name: str) -> Attribute:
        """The attribute called ``name``."""
        return self._attributes[self.index_of(name)]

    def project(self, names: Sequence[str]) -> "RelationSchema":
        """Schema restricted (and reordered) to ``names``."""
        return RelationSchema(self.attribute(n) for n in names)

    def rename(self, mapping: Dict[str, str]) -> "RelationSchema":
        """Schema with attributes renamed per ``mapping`` (others kept)."""
        missing = set(mapping) - set(self.names)
        if missing:
            raise SchemaError(f"cannot rename unknown attributes: {sorted(missing)}")
        renamed = [
            a.renamed(mapping[a.name]) if a.name in mapping else a
            for a in self._attributes
        ]
        return RelationSchema(renamed)

    def union_compatible(self, other: "RelationSchema") -> bool:
        """Same attribute names in the same order (types may widen)."""
        return self.names == other.names

    def widen(self, other: "RelationSchema") -> "RelationSchema":
        """Positionally widen the types against a union-compatible schema."""
        if not self.union_compatible(other):
            message = (
                f"union branches disagree: {list(self.names)} vs {list(other.names)}"
            )
            raise SchemaError(failures=[(UNION_INCOMPATIBLE, message, "")])
        return RelationSchema(
            Attribute(a.name, common_type(a.type, b.type))
            for a, b in zip(self._attributes, other._attributes)
        )

    def joined(self, other: "RelationSchema") -> "RelationSchema":
        """A join's output schema: this schema's attributes in order, then
        the attributes of ``other`` whose names this schema lacks."""
        return RelationSchema(
            list(self._attributes)
            + [a for a in other._attributes if a.name not in self._index]
        )

    def join_split(
        self, other: "RelationSchema"
    ) -> Tuple[List[str], "RelationSchema"]:
        """For a natural join: (shared names, :meth:`joined` schema)."""
        shared = [n for n in self.names if n in other]
        return shared, self.joined(other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelationSchema)
            and other._attributes == self._attributes
        )

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        cols = ", ".join(f"{a.name}:{a.type}" for a in self._attributes)
        return f"RelationSchema({cols})"
