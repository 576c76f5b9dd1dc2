"""Recursive-descent parser for the SPARQL subset.

Grammar coverage (sufficient for everything MDM generates from walks, plus
a comfortable margin for hand-written analyst queries):

- ``PREFIX`` / ``BASE`` prologue
- ``SELECT [DISTINCT] (?v... | *) WHERE { ... } [ORDER BY ...] [LIMIT n] [OFFSET n]``
- ``ASK { ... }`` and ``CONSTRUCT { template } WHERE { ... }``
- group graph patterns with triples blocks (``;`` and ``,`` abbreviations,
  ``a`` for ``rdf:type``, anonymous ``[...]`` nodes), ``FILTER``,
  ``OPTIONAL``, ``UNION``, ``MINUS``, ``GRAPH``, ``BIND``, ``VALUES``
- full expression grammar with ``||  &&  !  = != < <= > >= + - * /``,
  ``IN`` / ``NOT IN``, ``EXISTS`` / ``NOT EXISTS`` and the builtin
  functions implemented in :mod:`repro.sparql.functions`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..rdf.namespaces import NamespaceManager, RDF, default_namespace_manager
from ..rdf.ntriples import unescape_string
from ..rdf.terms import (
    BNode,
    IRI,
    Literal,
    Term,
    Triple,
    Variable,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
)
from .ast import (
    AggregateSpec,
    Arithmetic,
    AskQuery,
    BindPattern,
    BoolOp,
    Comparison,
    ConstructQuery,
    ExistsExpr,
    Expression,
    FilterPattern,
    FunctionCall,
    GraphPattern,
    GroupPattern,
    InExpr,
    MinusPattern,
    Not,
    OptionalPattern,
    OrderCondition,
    Pattern,
    Query,
    SelectQuery,
    TermExpr,
    TriplesBlock,
    UnionPattern,
    ValuesPattern,
)
from .tokens import SparqlSyntaxError, SparqlTokenizer

__all__ = ["parse_query", "SparqlParser", "SparqlSyntaxError"]

_BUILTIN_FUNCTIONS = frozenset(
    {
        "BOUND",
        "REGEX",
        "STR",
        "LANG",
        "LANGMATCHES",
        "DATATYPE",
        "STRLEN",
        "CONTAINS",
        "STRSTARTS",
        "STRENDS",
        "SUBSTR",
        "UCASE",
        "LCASE",
        "CONCAT",
        "REPLACE",
        "ISIRI",
        "ISURI",
        "ISLITERAL",
        "ISBLANK",
        "ISNUMERIC",
        "ABS",
        "CEIL",
        "FLOOR",
        "ROUND",
        "IF",
        "COALESCE",
        "SAMETERM",
    }
)


class SparqlParser:
    """Parses one query string into an AST :data:`Query`."""

    def __init__(self, text: str, namespaces: Optional[NamespaceManager] = None):
        self.tokens = SparqlTokenizer(text)
        self.namespaces = (
            namespaces.copy() if namespaces is not None else default_namespace_manager()
        )
        self.base = ""

    # -- entry point ------------------------------------------------------ #

    def parse(self) -> Query:
        """Parse the full query and require EOF afterwards."""
        self._parse_prologue()
        token = self.tokens.peek()
        if token.kind != "KEYWORD":
            raise self.tokens.error("expected SELECT, ASK or CONSTRUCT")
        if token.value == "SELECT":
            query = self._parse_select()
        elif token.value == "ASK":
            query = self._parse_ask()
        elif token.value == "CONSTRUCT":
            query = self._parse_construct()
        else:
            raise self.tokens.error(f"unsupported query form {token.value}")
        if self.tokens.peek().kind != "EOF":
            raise self.tokens.error("unexpected trailing content")
        return query

    def _parse_prologue(self) -> None:
        while self.tokens.at_keyword("PREFIX", "BASE"):
            keyword = self.tokens.next().value
            if keyword == "PREFIX":
                qname = self.tokens.expect("QNAME")
                prefix = qname.value.rstrip(":")
                iriref = self.tokens.expect("IRIREF")
                self.namespaces.bind(prefix, iriref.value[1:-1])
            else:
                iriref = self.tokens.expect("IRIREF")
                self.base = iriref.value[1:-1]

    # -- query forms ------------------------------------------------------ #

    _AGGREGATE_NAMES = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

    def _parse_select(self) -> SelectQuery:
        self.tokens.expect("KEYWORD", "SELECT")
        distinct = False
        if self.tokens.at_keyword("DISTINCT", "REDUCED"):
            distinct = self.tokens.next().value == "DISTINCT"
        variables: List[Variable] = []
        aggregates: List[AggregateSpec] = []
        if self.tokens.peek().kind == "OP" and self.tokens.peek().value == "*":
            self.tokens.next()
        else:
            while True:
                token = self.tokens.peek()
                if token.kind == "VAR":
                    variables.append(Variable(self.tokens.next().value))
                elif token.kind == "PUNCT" and token.value == "(":
                    aggregates.append(self._parse_aggregate_projection())
                else:
                    break
            if not variables and not aggregates:
                raise self.tokens.error("SELECT needs * or at least one variable")
        if self.tokens.at_keyword("WHERE"):
            self.tokens.next()
        where = self._parse_group_graph_pattern()
        order_by: Tuple[OrderCondition, ...] = ()
        group_by: List[Variable] = []
        limit: Optional[int] = None
        offset = 0
        while self.tokens.at_keyword("ORDER", "LIMIT", "OFFSET", "GROUP"):
            keyword = self.tokens.next().value
            if keyword == "ORDER":
                self.tokens.expect("KEYWORD", "BY")
                order_by = tuple(self._parse_order_conditions())
            elif keyword == "GROUP":
                self.tokens.expect("KEYWORD", "BY")
                while self.tokens.peek().kind == "VAR":
                    group_by.append(Variable(self.tokens.next().value))
                if not group_by:
                    raise self.tokens.error("GROUP BY needs at least one variable")
            elif keyword == "LIMIT":
                limit = int(self.tokens.expect("INTEGER").value)
            else:
                offset = int(self.tokens.expect("INTEGER").value)
        if aggregates:
            ungrouped = [v for v in variables if v not in group_by]
            if ungrouped:
                raise SparqlSyntaxError(
                    f"projected variables {[f'?{v.name}' for v in ungrouped]} "
                    "must appear in GROUP BY when aggregates are projected",
                    0,
                    0,
                )
        return SelectQuery(
            variables=tuple(variables),
            where=where,
            distinct=distinct,
            order_by=order_by,
            limit=limit,
            offset=offset,
            aggregates=tuple(aggregates),
            group_by=tuple(group_by),
        )

    def _parse_aggregate_projection(self) -> AggregateSpec:
        """Parse ``( FUNC([DISTINCT] ?v | *) AS ?alias )``."""
        self.tokens.expect("PUNCT", "(")
        name_token = self.tokens.next()
        if (
            name_token.kind != "NAME"
            or name_token.value.upper() not in self._AGGREGATE_NAMES
        ):
            raise SparqlSyntaxError(
                f"expected an aggregate function, got {name_token.value!r}",
                name_token.line,
                name_token.column,
            )
        function = name_token.value.upper()
        self.tokens.expect("PUNCT", "(")
        distinct = False
        if self.tokens.at_keyword("DISTINCT"):
            self.tokens.next()
            distinct = True
        variable: Optional[Variable] = None
        token = self.tokens.peek()
        if token.kind == "OP" and token.value == "*":
            self.tokens.next()
            if function != "COUNT":
                raise SparqlSyntaxError(
                    f"{function}(*) is not defined", token.line, token.column
                )
        else:
            variable = Variable(self.tokens.expect("VAR").value)
        self.tokens.expect("PUNCT", ")")
        self.tokens.expect("KEYWORD", "AS")
        alias = Variable(self.tokens.expect("VAR").value)
        self.tokens.expect("PUNCT", ")")
        return AggregateSpec(
            function=function, variable=variable, alias=alias, distinct=distinct
        )

    def _parse_order_conditions(self) -> List[OrderCondition]:
        conditions: List[OrderCondition] = []
        while True:
            if self.tokens.at_keyword("ASC", "DESC"):
                direction = self.tokens.next().value
                self.tokens.expect("PUNCT", "(")
                expr = self._parse_expression()
                self.tokens.expect("PUNCT", ")")
                conditions.append(OrderCondition(expr, descending=direction == "DESC"))
            elif self.tokens.peek().kind == "VAR":
                conditions.append(
                    OrderCondition(TermExpr(Variable(self.tokens.next().value)))
                )
            else:
                break
        if not conditions:
            raise self.tokens.error("ORDER BY needs at least one condition")
        return conditions

    def _parse_ask(self) -> AskQuery:
        self.tokens.expect("KEYWORD", "ASK")
        if self.tokens.at_keyword("WHERE"):
            self.tokens.next()
        return AskQuery(where=self._parse_group_graph_pattern())

    def _parse_construct(self) -> ConstructQuery:
        self.tokens.expect("KEYWORD", "CONSTRUCT")
        self.tokens.expect("PUNCT", "{")
        template: List[Triple] = []
        while not self.tokens.at_punct("}"):
            template.extend(self._parse_triples_same_subject())
            if self.tokens.at_punct("."):
                self.tokens.next()
        self.tokens.expect("PUNCT", "}")
        self.tokens.expect("KEYWORD", "WHERE")
        where = self._parse_group_graph_pattern()
        return ConstructQuery(template=tuple(template), where=where)

    # -- graph patterns --------------------------------------------------- #

    def _parse_group_graph_pattern(self) -> Pattern:
        self.tokens.expect("PUNCT", "{")
        members: List[Pattern] = []
        pending_triples: List[Triple] = []

        def flush_triples() -> None:
            if pending_triples:
                members.append(TriplesBlock(tuple(pending_triples)))
                pending_triples.clear()

        while not self.tokens.at_punct("}"):
            token = self.tokens.peek()
            if token.kind == "KEYWORD" and token.value == "FILTER":
                self.tokens.next()
                flush_triples()
                members.append(FilterPattern(self._parse_constraint()))
            elif token.kind == "KEYWORD" and token.value == "OPTIONAL":
                self.tokens.next()
                flush_triples()
                members.append(OptionalPattern(self._parse_group_graph_pattern()))
            elif token.kind == "KEYWORD" and token.value == "MINUS":
                self.tokens.next()
                flush_triples()
                members.append(MinusPattern(self._parse_group_graph_pattern()))
            elif token.kind == "KEYWORD" and token.value == "GRAPH":
                self.tokens.next()
                flush_triples()
                graph_term = self._parse_var_or_iri()
                members.append(
                    GraphPattern(graph_term, self._parse_group_graph_pattern())
                )
            elif token.kind == "KEYWORD" and token.value == "BIND":
                self.tokens.next()
                flush_triples()
                self.tokens.expect("PUNCT", "(")
                expr = self._parse_expression()
                self.tokens.expect("KEYWORD", "AS")
                var = Variable(self.tokens.expect("VAR").value)
                self.tokens.expect("PUNCT", ")")
                members.append(BindPattern(expr, var))
            elif token.kind == "KEYWORD" and token.value == "VALUES":
                self.tokens.next()
                flush_triples()
                members.append(self._parse_values())
            elif token.kind == "PUNCT" and token.value == "{":
                flush_triples()
                members.append(self._parse_union_chain())
            elif token.kind == "PUNCT" and token.value == ".":
                self.tokens.next()
            else:
                pending_triples.extend(self._parse_triples_same_subject())
        self.tokens.expect("PUNCT", "}")
        flush_triples()
        if len(members) == 1:
            return members[0]
        return GroupPattern(tuple(members))

    def _parse_union_chain(self) -> Pattern:
        first = self._parse_group_graph_pattern()
        alternatives = [first]
        while self.tokens.at_keyword("UNION"):
            self.tokens.next()
            alternatives.append(self._parse_group_graph_pattern())
        if len(alternatives) == 1:
            return first
        return UnionPattern(tuple(alternatives))

    def _parse_values(self) -> ValuesPattern:
        variables: List[Variable] = []
        multi = False
        if self.tokens.at_punct("("):
            multi = True
            self.tokens.next()
            while self.tokens.peek().kind == "VAR":
                variables.append(Variable(self.tokens.next().value))
            self.tokens.expect("PUNCT", ")")
        else:
            variables.append(Variable(self.tokens.expect("VAR").value))
        self.tokens.expect("PUNCT", "{")
        rows: List[Tuple[Optional[Term], ...]] = []
        while not self.tokens.at_punct("}"):
            if multi:
                self.tokens.expect("PUNCT", "(")
                row: List[Optional[Term]] = []
                while not self.tokens.at_punct(")"):
                    row.append(self._parse_data_value())
                self.tokens.expect("PUNCT", ")")
                if len(row) != len(variables):
                    raise self.tokens.error(
                        f"VALUES row has {len(row)} cells for {len(variables)} variables"
                    )
                rows.append(tuple(row))
            else:
                rows.append((self._parse_data_value(),))
        self.tokens.expect("PUNCT", "}")
        return ValuesPattern(tuple(variables), tuple(rows))

    def _parse_data_value(self) -> Optional[Term]:
        if self.tokens.at_keyword("UNDEF"):
            self.tokens.next()
            return None
        term = self._parse_term(allow_var=False)
        return term

    def _parse_var_or_iri(self) -> Union[IRI, Variable]:
        token = self.tokens.peek()
        if token.kind == "VAR":
            self.tokens.next()
            return Variable(token.value)
        term = self._parse_term(allow_var=False)
        if not isinstance(term, IRI):
            raise self.tokens.error("expected an IRI or variable")
        return term

    # -- triples ---------------------------------------------------------- #

    def _parse_triples_same_subject(self) -> List[Triple]:
        triples: List[Triple] = []
        subject = self._parse_term_or_bnode_list(triples)
        self._parse_property_list(subject, triples)
        return triples

    def _parse_term_or_bnode_list(self, triples: List[Triple]) -> Term:
        if self.tokens.at_punct("["):
            self.tokens.next()
            node = BNode()
            if not self.tokens.at_punct("]"):
                self._parse_property_list(node, triples)
            self.tokens.expect("PUNCT", "]")
            return node
        return self._parse_term()

    def _parse_property_list(self, subject: Term, triples: List[Triple]) -> None:
        while True:
            predicate = self._parse_verb()
            while True:
                obj = self._parse_term_or_bnode_list(triples)
                triples.append(Triple(subject, predicate, obj))
                if self.tokens.at_punct(","):
                    self.tokens.next()
                    continue
                break
            if self.tokens.at_punct(";"):
                self.tokens.next()
                nxt = self.tokens.peek()
                if nxt.kind == "PUNCT" and nxt.value in (".", "}", "]"):
                    break
                continue
            break

    def _parse_verb(self) -> Term:
        token = self.tokens.peek()
        if token.kind == "KEYWORD" and token.value == "A":
            self.tokens.next()
            return RDF.type
        if token.kind == "VAR":
            self.tokens.next()
            return Variable(token.value)
        term = self._parse_term(allow_var=False)
        if not isinstance(term, IRI):
            raise self.tokens.error("predicate must be an IRI or variable")
        return term

    def _parse_term(self, allow_var: bool = True) -> Term:
        token = self.tokens.peek()
        if token.kind == "VAR":
            if not allow_var:
                raise self.tokens.error("variable not allowed here")
            self.tokens.next()
            return Variable(token.value)
        if token.kind == "IRIREF":
            self.tokens.next()
            body = token.value[1:-1]
            if self.base and "://" not in body and not body.startswith("urn:"):
                return IRI(self.base + body)
            return IRI(body)
        if token.kind == "QNAME":
            self.tokens.next()
            try:
                return self.namespaces.expand(token.value)
            except KeyError as exc:
                raise SparqlSyntaxError(exc.args[0], token.line, token.column) from None
        if token.kind == "BNODE":
            self.tokens.next()
            return BNode(token.value[2:])
        if token.kind in ("STRING", "STRING_LONG"):
            return self._parse_literal()
        if token.kind == "INTEGER":
            self.tokens.next()
            return Literal(token.value, datatype=XSD_INTEGER)
        if token.kind == "DECIMAL":
            self.tokens.next()
            return Literal(token.value, datatype=XSD_DECIMAL)
        if token.kind == "DOUBLE":
            self.tokens.next()
            return Literal(token.value, datatype=XSD_DOUBLE)
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            self.tokens.next()
            return Literal(token.value.lower(), datatype=XSD_BOOLEAN)
        raise self.tokens.error(f"unexpected token {token.value!r} for a term")

    def _parse_literal(self) -> Literal:
        token = self.tokens.next()
        raw = token.value
        body = raw[3:-3] if token.kind == "STRING_LONG" else raw[1:-1]
        lexical = unescape_string(body)
        nxt = self.tokens.peek()
        if nxt.kind == "LANGTAG":
            self.tokens.next()
            return Literal(lexical, lang=nxt.value[1:])
        if nxt.kind == "HATHAT":
            self.tokens.next()
            dt = self._parse_term(allow_var=False)
            if not isinstance(dt, IRI):
                raise self.tokens.error("datatype must be an IRI")
            return Literal(lexical, datatype=dt.value)
        return Literal(lexical)

    # -- expressions ------------------------------------------------------ #

    def _parse_constraint(self) -> Expression:
        token = self.tokens.peek()
        if token.kind == "PUNCT" and token.value == "(":
            self.tokens.next()
            expr = self._parse_expression()
            self.tokens.expect("PUNCT", ")")
            return expr
        return self._parse_primary_expression()

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.tokens.peek().kind == "OP" and self.tokens.peek().value == "||":
            self.tokens.next()
            left = BoolOp("||", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_relational()
        while self.tokens.peek().kind == "OP" and self.tokens.peek().value == "&&":
            self.tokens.next()
            left = BoolOp("&&", left, self._parse_relational())
        return left

    def _parse_relational(self) -> Expression:
        left = self._parse_additive()
        token = self.tokens.peek()
        if token.kind == "OP" and token.value in ("=", "!=", "<", "<=", ">", ">="):
            self.tokens.next()
            return Comparison(token.value, left, self._parse_additive())
        if token.kind == "KEYWORD" and token.value == "IN":
            self.tokens.next()
            return InExpr(left, tuple(self._parse_expression_list()), negated=False)
        if (
            token.kind == "KEYWORD"
            and token.value == "NOT"
            and self.tokens.peek(1).kind == "KEYWORD"
            and self.tokens.peek(1).value == "IN"
        ):
            self.tokens.next()
            self.tokens.next()
            return InExpr(left, tuple(self._parse_expression_list()), negated=True)
        return left

    def _parse_expression_list(self) -> List[Expression]:
        self.tokens.expect("PUNCT", "(")
        items: List[Expression] = []
        if not self.tokens.at_punct(")"):
            items.append(self._parse_expression())
            while self.tokens.at_punct(","):
                self.tokens.next()
                items.append(self._parse_expression())
        self.tokens.expect("PUNCT", ")")
        return items

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self.tokens.peek().kind == "OP" and self.tokens.peek().value in ("+", "-"):
            op = self.tokens.next().value
            left = Arithmetic(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self.tokens.peek().kind == "OP" and self.tokens.peek().value in ("*", "/"):
            op = self.tokens.next().value
            left = Arithmetic(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expression:
        token = self.tokens.peek()
        if token.kind == "OP" and token.value == "!":
            self.tokens.next()
            return Not(self._parse_unary())
        if token.kind == "OP" and token.value == "-":
            self.tokens.next()
            return Arithmetic("-", TermExpr(Literal(0)), self._parse_unary())
        if token.kind == "OP" and token.value == "+":
            self.tokens.next()
            return self._parse_unary()
        return self._parse_primary_expression()

    def _parse_primary_expression(self) -> Expression:
        token = self.tokens.peek()
        if token.kind == "PUNCT" and token.value == "(":
            self.tokens.next()
            expr = self._parse_expression()
            self.tokens.expect("PUNCT", ")")
            return expr
        if token.kind == "NAME" and token.value.upper() in _BUILTIN_FUNCTIONS:
            return self._parse_function_call()
        if token.kind == "KEYWORD" and token.value == "EXISTS":
            self.tokens.next()
            return ExistsExpr(self._parse_group_graph_pattern(), negated=False)
        if (
            token.kind == "KEYWORD"
            and token.value == "NOT"
            and self.tokens.peek(1).kind == "KEYWORD"
            and self.tokens.peek(1).value == "EXISTS"
        ):
            self.tokens.next()
            self.tokens.next()
            return ExistsExpr(self._parse_group_graph_pattern(), negated=True)
        return TermExpr(self._parse_term())

    def _parse_function_call(self) -> FunctionCall:
        name = self.tokens.next().value.upper()
        args = self._parse_expression_list()
        return FunctionCall(name, tuple(args))


def parse_query(text: str, namespaces: Optional[NamespaceManager] = None) -> Query:
    """Parse ``text`` into an AST query, raising :class:`SparqlSyntaxError`."""
    return SparqlParser(text, namespaces).parse()
