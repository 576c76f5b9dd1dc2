"""Relations: immutable bags of typed tuples under a schema.

A :class:`Relation` is the unit of data exchanged between wrappers and the
federated executor (the stand-in for the paper's "temporal SQLite tables",
§2.5).  Rows are plain tuples aligned with the schema; helper constructors
build relations from dict rows (wrapper output) with type inference.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .schema import Attribute, RelationSchema, SchemaError
from .types import AttrType, coerce, common_type, infer_type

__all__ = ["Relation"]

Row = Tuple[Any, ...]

#: The cell type of each exact Python type a wrapper row usually holds.
_TYPE_OF: Dict[type, AttrType] = {
    str: AttrType.STRING,
    int: AttrType.INTEGER,
    float: AttrType.FLOAT,
    bool: AttrType.BOOLEAN,
    type(None): AttrType.ANY,
}


def _column_types(rows: Sequence[Row], width: int) -> Tuple[List[AttrType], List[int]]:
    """Each column's common type, and the indices of the mixed columns.

    A column is typed from the distinct Python types in it: the common
    type is a join, so the order of observation does not matter.  A
    column is *mixed* when it holds two or more concrete types.  Any
    other Python type (an ``int`` subclass, an unsupported value) sends
    the whole relation through :func:`infer_type` cell by cell in row
    order, so the same :class:`TypeError` names the same value.
    """
    if not rows:
        return [AttrType.ANY] * width, []
    types: List[AttrType] = []
    mixed: List[int] = []
    for index, column in enumerate(zip(*rows)):
        try:
            observed = {_TYPE_OF[t] for t in set(map(type, column))}
        except KeyError:
            return _column_types_per_cell(rows, width)
        observed.discard(AttrType.ANY)
        types.append(functools.reduce(common_type, observed, AttrType.ANY))
        if len(observed) > 1:
            mixed.append(index)
    return types, mixed


def _column_types_per_cell(
    rows: Sequence[Row], width: int
) -> Tuple[List[AttrType], List[int]]:
    """:func:`_column_types` one cell at a time, for unusual values."""
    types = [AttrType.ANY] * width
    mixed: set = set()
    for row in rows:
        for index, value in enumerate(row):
            inferred = infer_type(value)
            if inferred is AttrType.ANY:
                continue  # NULL observes nothing
            current = types[index]
            if current is AttrType.ANY:
                types[index] = inferred
            elif inferred is not current:
                types[index] = common_type(current, inferred)
                mixed.add(index)
    return types, sorted(mixed)


class Relation:
    """A named bag of rows with a :class:`RelationSchema`."""

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[Sequence[Any]] = (),
        name: Optional[str] = None,
    ):
        self.schema = schema
        self.name = name
        width = len(schema)
        checked: List[Row] = []
        for row in rows:
            row_tuple = tuple(row)
            if len(row_tuple) != width:
                raise SchemaError(
                    f"row width {len(row_tuple)} != schema width {width}: {row_tuple!r}"
                )
            checked.append(row_tuple)
        # Frozen after validation: relations are shared across caches and
        # concurrent queries, so the row store must be immutable.
        self._rows: Tuple[Row, ...] = tuple(checked)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def of_checked(cls, schema: RelationSchema, rows: Tuple[Row, ...]) -> "Relation":
        """A relation over rows another relation has already checked.

        ``rows`` is such a relation's :attr:`rows` (a tuple of tuples)
        and ``schema`` has its width, so the rows are shared as they
        are: nothing is copied or checked again.  Rows from anywhere
        else go through the constructor.
        """
        relation = cls.__new__(cls)
        relation.schema = schema
        relation.name = None
        relation._rows = rows
        return relation

    @classmethod
    def from_dicts(
        cls,
        records: Sequence[Dict[str, Any]],
        attribute_order: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ) -> "Relation":
        """Build a relation from dict rows, inferring column types.

        ``attribute_order`` fixes the column order (and the full column
        set — missing keys become NULL); without it, columns appear in
        first-seen order across the records.
        """
        if attribute_order is None:
            seen: List[str] = []
            seen_set = set()
            for record in records:
                for key in record:
                    if key not in seen_set:
                        seen_set.add(key)
                        seen.append(key)
            attribute_order = seen
        names = list(attribute_order)
        rows = [tuple(map(record.get, names)) for record in records]
        return cls.from_rows(names, rows, name=name)

    @classmethod
    def from_rows(
        cls,
        names: Sequence[str],
        rows: List[Row],
        name: Optional[str] = None,
    ) -> "Relation":
        """Build a relation from tuple rows aligned with ``names``,
        inferring column types.

        Every column is typed from its values; a column holding several
        concrete types is coerced to their common type.  An unsupported
        value raises :class:`TypeError`, naming the first such value in
        row order.
        """
        types, mixed = _column_types(rows, len(names))
        schema = RelationSchema(Attribute(n, t) for n, t in zip(names, types))
        if not mixed:
            return cls(schema, rows, name=name)
        # Coerce only the mixed columns so a relation's rows always
        # conform to its schema (a mixed int/str column becomes
        # all-string, exactly as a widening union would make it).
        # coerce(v, T) is the identity whenever infer_type(v) is T (and
        # None passes through), so a column of one concrete type needs
        # no coercion — the overwhelmingly common case.
        mixed_at = [(i, types[i]) for i in mixed]
        coerced = []
        for row in rows:
            cells = list(row)
            for index, target in mixed_at:
                cells[index] = coerce(cells[index], target)
            coerced.append(tuple(cells))
        return cls(schema, coerced, name=name)

    @classmethod
    def empty(cls, schema: RelationSchema, name: Optional[str] = None) -> "Relation":
        """An empty relation over ``schema``."""
        return cls(schema, (), name=name)

    # ------------------------------------------------------------------ #
    # row access
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    @property
    def rows(self) -> Tuple[Row, ...]:
        """The rows as an immutable tuple of tuples.

        Immutability is load-bearing: cached relations (result cache,
        wrapper cache, executor memo) are handed to multiple queries
        concurrently, and a caller-side ``append`` on a shared list
        would silently corrupt every later read.
        """
        return self._rows

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        index = self.schema.index_of(name)
        return [row[index] for row in self._rows]

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Rows as dictionaries keyed by attribute name."""
        names = self.schema.names
        return [dict(zip(names, row)) for row in self._rows]

    def distinct(self) -> "Relation":
        """A duplicate-free copy preserving first-occurrence order."""
        seen = set()
        unique: List[Row] = []
        for row in self._rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        return Relation(self.schema, unique, name=self.name)

    def without_subsumed(self, optional_columns: Sequence[str]) -> "Relation":
        """Drop rows subsumed by a more-informative row.

        Row ``r`` is subsumed by ``r'`` when they agree on every column
        outside ``optional_columns`` and, on the optional columns, ``r``
        is NULL wherever it differs from ``r'`` (and strictly less
        informative overall).  This is the minimal-union semantics for
        incomplete information — what makes NULL-padded OPTIONAL branches
        of a UCQ behave like SPARQL OPTIONAL.
        """
        optional_indices = [self.schema.index_of(n) for n in optional_columns]
        if not optional_indices:
            return self
        mandatory_indices = [
            i for i in range(len(self.schema)) if i not in optional_indices
        ]
        groups: Dict[Tuple, List[Row]] = {}
        order: List[Tuple] = []
        for row in self._rows:
            key = tuple(row[i] for i in mandatory_indices)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)

        def subsumes(better: Row, worse: Row) -> bool:
            strictly = False
            for i in optional_indices:
                if worse[i] is None:
                    if better[i] is not None:
                        strictly = True
                elif worse[i] != better[i]:
                    return False
            return strictly

        kept: List[Row] = []
        for key in order:
            members = groups[key]
            for row in members:
                if not any(
                    other is not row and subsumes(other, row)
                    for other in members
                ):
                    kept.append(row)
        return Relation(self.schema, kept, name=self.name)

    def sorted(self) -> "Relation":
        """Rows sorted canonically (None first) — for stable display/tests."""

        def key(row: Row):
            return tuple((value is not None, str(value)) for value in row)

        return Relation(self.schema, sorted(self._rows, key=key), name=self.name)

    def coerced(self, target: RelationSchema) -> "Relation":
        """Rows coerced cell-by-cell to ``target``'s types (same names)."""
        if self.schema.names != target.names:
            raise SchemaError(
                f"cannot coerce {list(self.schema.names)} to {list(target.names)}"
            )
        coerced_rows = [
            tuple(
                coerce(value, attr.type)
                for value, attr in zip(row, target.attributes)
            )
            for row in self._rows
        ]
        return Relation(target, coerced_rows, name=self.name)

    def equal_as_set(self, other: "Relation") -> bool:
        """Set equality over rows (schema names must match)."""
        return (
            self.schema.names == other.schema.names
            and set(self._rows) == set(other._rows)
        )

    # ------------------------------------------------------------------ #
    # display
    # ------------------------------------------------------------------ #

    def to_table(self, max_width: int = 40) -> str:
        """Aligned text rendering (MDM's tabular query output, Table 1)."""
        headers = list(self.schema.names)
        body: List[List[str]] = []
        for row in self._rows:
            rendered = []
            for cell in row:
                text = "NULL" if cell is None else str(cell)
                if len(text) > max_width:
                    text = text[: max_width - 1] + "…"
                rendered.append(text)
            body.append(rendered)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]

        def fmt(cells: Sequence[str]) -> str:
            return " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells))

        lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(r) for r in body)
        return "\n".join(lines)

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"<Relation {label}({', '.join(self.schema.names)}) with {len(self)} rows>"
