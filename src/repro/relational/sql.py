"""Rendering algebra plans as SQL.

MDM's backend loads wrapper fragments into temporal SQLite tables and runs
the federated query there (paper §2.5).  This module renders an operator
tree into the SQL that *would* be shipped to SQLite, both for
documentation (the demo shows the generated expression to the analyst)
and for tests asserting plan shape.
"""

from __future__ import annotations


from .algebra import (
    Aggregate,
    Extend,
    Distinct,
    EquiJoin,
    NaturalJoin,
    PlanNode,
    Project,
    Rename,
    Scan,
    Select,
    Union,
)
from .executor import pushdown_predicate

__all__ = ["to_sql"]


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


class _SqlBuilder:
    """Builds a SELECT statement per plan subtree, nesting as needed."""

    def __init__(self):
        self._alias_counter = 0

    def _alias(self) -> str:
        self._alias_counter += 1
        return f"t{self._alias_counter}"

    def render(self, plan: PlanNode) -> str:
        if isinstance(plan, Scan):
            columns = "*"
            if plan.columns is not None:
                columns = ", ".join(_quote(n) for n in plan.columns)
            sql = f"SELECT {columns} FROM {_quote(plan.relation_name)}"
            if plan.filters:
                sql += f" WHERE {pushdown_predicate(plan.filters).sql()}"
            if plan.limit is not None:
                sql += f" LIMIT {plan.limit}"
            return sql
        if isinstance(plan, Project):
            inner = self.render(plan.child)
            cols = ", ".join(_quote(n) for n in plan.names)
            return f"SELECT {cols} FROM ({inner}) AS {self._alias()}"
        if isinstance(plan, Select):
            inner = self.render(plan.child)
            return (
                f"SELECT * FROM ({inner}) AS {self._alias()} "
                f"WHERE {plan.predicate.sql()}"
            )
        if isinstance(plan, Distinct):
            inner = self.render(plan.child)
            return f"SELECT DISTINCT * FROM ({inner}) AS {self._alias()}"
        if isinstance(plan, Rename):
            inner = self.render(plan.child)
            mapping = plan.mapping_dict()
            # Without child schema knowledge we select renamed columns
            # explicitly plus everything else via *; SQLite tolerates this
            # only when names are unique, so emit only the renames when the
            # child is a Scan whose schema we cannot see.  To stay
            # deterministic we render the renames and rely on the executor
            # for faithful semantics.
            cols = ", ".join(
                f"{_quote(old)} AS {_quote(new)}" for old, new in sorted(mapping.items())
            )
            return f"SELECT {cols} FROM ({inner}) AS {self._alias()}"
        if isinstance(plan, NaturalJoin):
            left = self.render(plan.left)
            right = self.render(plan.right)
            return (
                f"SELECT * FROM ({left}) AS {self._alias()} "
                f"NATURAL JOIN ({right}) AS {self._alias()}"
            )
        if isinstance(plan, EquiJoin):
            left = self.render(plan.left)
            right = self.render(plan.right)
            left_alias = self._alias()
            right_alias = self._alias()
            conditions = " AND ".join(
                f"{left_alias}.{_quote(l)} = {right_alias}.{_quote(r)}"
                for l, r in plan.pairs
            )
            return (
                f"SELECT * FROM ({left}) AS {left_alias} "
                f"JOIN ({right}) AS {right_alias} ON {conditions}"
            )
        if isinstance(plan, Union):
            left = self.render(plan.left)
            right = self.render(plan.right)
            return f"{left} UNION ALL {right}"
        if isinstance(plan, Aggregate):
            inner = self.render(plan.child)
            select_parts = [_quote(n) for n in plan.group_by]
            for function, column, alias in plan.metrics:
                operand = "*" if column == "*" else _quote(column)
                select_parts.append(
                    f"{function.upper()}({operand}) AS {_quote(alias)}"
                )
            sql = (
                f"SELECT {', '.join(select_parts)} FROM ({inner}) "
                f"AS {self._alias()}"
            )
            if plan.group_by:
                sql += " GROUP BY " + ", ".join(_quote(n) for n in plan.group_by)
            return sql
        if isinstance(plan, Extend):
            inner = self.render(plan.child)
            from .expressions import Const

            value_sql = Const(plan.value).sql()
            return (
                f"SELECT *, {value_sql} AS {_quote(plan.column)} "
                f"FROM ({inner}) AS {self._alias()}"
            )
        raise TypeError(f"unknown plan node {plan!r}")


def to_sql(plan: PlanNode) -> str:
    """The SQL text equivalent of ``plan`` (SQLite dialect)."""
    return _SqlBuilder().render(plan)
