"""Relational engine (SQLite-federation substitute) for the MDM reproduction.

Typical use::

    from repro.relational import Relation, Executor, Scan, Project, EquiJoin

    players = Relation.from_dicts([...], name="w1")
    executor = Executor({"w1": players})
    plan = Project(Scan("w1"), ("pName",))
    print(executor.execute(plan).to_table())
"""

from .algebra import (
    AGGREGATE_FUNCTIONS,
    Aggregate,
    Catalog,
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
    flatten_union,
    plan_key,
    union_all,
)
from .executor import ExecutionError, Executor
from .expressions import (
    And,
    Cmp,
    Col,
    Const,
    Expr,
    IsNull,
    NotExpr,
    Or,
    conjoin,
    conjuncts,
    rename_columns,
)
from .optimizer import (
    OptimizationStats,
    PlanOptimizer,
)
from .relation import Relation
from .schema import Attribute, RelationSchema, SchemaError
from .sql import to_sql
from .types import AttrType, coerce, common_type, infer_type

__all__ = [
    "Relation",
    "RelationSchema",
    "Attribute",
    "SchemaError",
    "AttrType",
    "infer_type",
    "coerce",
    "common_type",
    "PlanNode",
    "Scan",
    "Project",
    "Select",
    "NaturalJoin",
    "EquiJoin",
    "Rename",
    "Union",
    "Distinct",
    "Aggregate",
    "Extend",
    "AGGREGATE_FUNCTIONS",
    "union_all",
    "Catalog",
    "Executor",
    "ExecutionError",
    "Expr",
    "Col",
    "Const",
    "Cmp",
    "And",
    "Or",
    "NotExpr",
    "IsNull",
    "conjuncts",
    "conjoin",
    "rename_columns",
    "PlanOptimizer",
    "OptimizationStats",
    "plan_key",
    "flatten_union",
    "to_sql",
]
