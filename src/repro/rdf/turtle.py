"""Turtle codec: tokenizer, recursive-descent parser and pretty serializer.

The supported fragment covers everything MDM itself emits and consumes:

- ``@prefix`` / SPARQL-style ``PREFIX`` directives and ``@base``
- IRIs, QNames, blank node labels and anonymous ``[...]`` nodes
- literals with datatype (``^^``), language tags, and the numeric /
  boolean shorthands
- ``a`` for ``rdf:type``
- predicate-object lists (``;``) and object lists (``,``)

RDF collections ``( ... )`` are parsed into the standard
``rdf:first``/``rdf:rest`` linked list.

The serializer groups triples by subject, uses ``;``/``,`` grouping and
compacts IRIs against the graph's namespace manager, producing stable,
diff-friendly output (subjects and predicates sorted).
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional, Tuple

from .graph import Graph
from .namespaces import RDF, NamespaceManager
from .terms import (
    BNode,
    IRI,
    Literal,
    Term,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from .ntriples import unescape_string

__all__ = ["parse_turtle", "serialize_turtle", "TurtleParseError", "Tokenizer", "Token"]


class TurtleParseError(ValueError):
    """Raised on malformed Turtle/TriG input, with position context."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Token(NamedTuple):
    """One lexical token: ``kind`` in the set below, plus source position."""

    kind: str
    value: str
    line: int
    column: int


_TOKEN_SPEC = [
    ("COMMENT", r"#[^\n]*"),
    ("WS", r"[ \t\r\n]+"),
    ("IRIREF", r"<[^<>\"\s{}|^`\\]*>"),
    # Longest literal openers first.
    ("STRING_LONG", r'"""(?:[^"\\]|\\.|"(?!""))*"""' + r"|'''(?:[^'\\]|\\.|'(?!''))*'''"),
    ("STRING", r'"(?:[^"\\\n]|\\.)*"' + r"|'(?:[^'\\\n]|\\.)*'"),
    ("BNODE", r"_:[A-Za-z0-9_][A-Za-z0-9_.-]*"),
    ("LANGTAG", r"@[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*"),
    ("DOUBLE", r"[+-]?(?:\d+\.\d*[eE][+-]?\d+|\.?\d+[eE][+-]?\d+)"),
    ("DECIMAL", r"[+-]?\d*\.\d+"),
    ("INTEGER", r"[+-]?\d+"),
    ("HATHAT", r"\^\^"),
    ("QNAME", r"(?:[A-Za-z][A-Za-z0-9_-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?"),
    ("KEYWORD", r"@?[A-Za-z][A-Za-z0-9_]*"),
    ("PUNCT", r"[.;,\[\]\(\)\{\}]"),
]
_MASTER_RE = re.compile("|".join(f"(?P<{k}>{p})" for k, p in _TOKEN_SPEC))


class Tokenizer:
    """Turns Turtle/TriG source into a peekable token stream."""

    def __init__(self, text: str):
        self._tokens: List[Token] = []
        line, line_start = 1, 0
        pos = 0
        while pos < len(text):
            match = _MASTER_RE.match(text, pos)
            if match is None:
                raise TurtleParseError(
                    f"unexpected character {text[pos]!r}", line, pos - line_start + 1
                )
            kind = match.lastgroup or ""
            value = match.group()
            # "@prefix"/"@base" lex like language tags; re-kind them.
            if kind == "LANGTAG" and value.lower() in ("@prefix", "@base"):
                kind = "KEYWORD"
            if kind not in ("WS", "COMMENT"):
                self._tokens.append(Token(kind, value, line, pos - line_start + 1))
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = pos + value.rfind("\n") + 1
            pos = match.end()
        self._index = 0
        self._eof = Token("EOF", "", line, pos - line_start + 1)

    def peek(self, ahead: int = 0) -> Token:
        """The token ``ahead`` positions from the cursor (EOF beyond end)."""
        index = self._index + ahead
        return self._tokens[index] if index < len(self._tokens) else self._eof

    def next(self) -> Token:
        """Consume and return the next token."""
        token = self.peek()
        if token.kind != "EOF":
            self._index += 1
        return token

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        """Consume a token of ``kind`` (and ``value`` if given) or raise."""
        token = self.next()
        if token.kind != kind or (value is not None and token.value != value):
            wanted = f"{kind} {value!r}" if value else kind
            raise TurtleParseError(
                f"expected {wanted}, got {token.kind} {token.value!r}",
                token.line,
                token.column,
            )
        return token

    def error(self, message: str) -> TurtleParseError:
        token = self.peek()
        return TurtleParseError(message, token.line, token.column)


class TurtleParser:
    """Recursive-descent parser for the Turtle fragment described above.

    The same machinery is reused by :mod:`repro.rdf.trig`, which adds graph
    blocks on top.
    """

    def __init__(self, text: str, graph: Optional[Graph] = None):
        self.tokens = Tokenizer(text)
        self.graph = graph if graph is not None else Graph()
        self.namespaces: NamespaceManager = self.graph.namespaces
        self.base: str = ""

    # -- directives ------------------------------------------------------ #

    def _parse_directive(self) -> None:
        keyword = self.tokens.next().value.lower()
        if keyword in ("@prefix", "prefix"):
            qname = self.tokens.expect("QNAME")
            prefix = qname.value.rstrip(":")
            iriref = self.tokens.expect("IRIREF")
            self.namespaces.bind(prefix, iriref.value[1:-1])
            if keyword == "@prefix":
                self.tokens.expect("PUNCT", ".")
        elif keyword in ("@base", "base"):
            iriref = self.tokens.expect("IRIREF")
            self.base = iriref.value[1:-1]
            if keyword == "@base":
                self.tokens.expect("PUNCT", ".")
        else:
            raise self.tokens.error(f"unknown directive {keyword!r}")

    # -- terms ------------------------------------------------------------ #

    def _resolve_iri(self, raw: str) -> IRI:
        body = raw[1:-1]
        if self.base and "://" not in body and not body.startswith("urn:"):
            return IRI(self.base + body)
        return IRI(body)

    def _expand_qname(self, qname: str, token: Token) -> IRI:
        try:
            return self.namespaces.expand(qname)
        except KeyError as exc:
            raise TurtleParseError(exc.args[0], token.line, token.column) from None

    def parse_term(self, as_subject: bool = False) -> Term:
        """Parse one RDF term (possibly an anonymous bnode or collection)."""
        token = self.tokens.peek()
        if token.kind == "IRIREF":
            self.tokens.next()
            return self._resolve_iri(token.value)
        if token.kind == "QNAME":
            self.tokens.next()
            return self._expand_qname(token.value, token)
        if token.kind == "BNODE":
            self.tokens.next()
            return BNode(token.value[2:])
        if token.kind == "KEYWORD" and token.value == "a" and not as_subject:
            self.tokens.next()
            return RDF.type
        if token.kind == "KEYWORD" and token.value in ("true", "false"):
            self.tokens.next()
            return Literal(token.value, datatype=XSD_BOOLEAN)
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
        if token.kind == "PUNCT" and token.value == "[":
            return self._parse_anon_bnode()
        if token.kind == "PUNCT" and token.value == "(":
            return self._parse_collection()
        raise self.tokens.error(f"unexpected token {token.value!r} for a term")

    def _parse_literal(self) -> Literal:
        token = self.tokens.next()
        raw = token.value
        if token.kind == "STRING_LONG":
            body = raw[3:-3]
        else:
            body = raw[1:-1]
        lexical = unescape_string(body)
        nxt = self.tokens.peek()
        if nxt.kind == "LANGTAG":
            self.tokens.next()
            return Literal(lexical, lang=nxt.value[1:])
        if nxt.kind == "HATHAT":
            self.tokens.next()
            dt_token = self.tokens.peek()
            if dt_token.kind == "IRIREF":
                self.tokens.next()
                return Literal(lexical, datatype=dt_token.value[1:-1])
            if dt_token.kind == "QNAME":
                self.tokens.next()
                return Literal(lexical, datatype=self._expand_qname(dt_token.value, dt_token).value)
            raise self.tokens.error("expected datatype IRI after ^^")
        return Literal(lexical)

    def _parse_anon_bnode(self) -> BNode:
        self.tokens.expect("PUNCT", "[")
        node = BNode()
        if not (self.tokens.peek().kind == "PUNCT" and self.tokens.peek().value == "]"):
            self._parse_predicate_object_list(node)
        self.tokens.expect("PUNCT", "]")
        return node

    def _parse_collection(self) -> Term:
        self.tokens.expect("PUNCT", "(")
        items: List[Term] = []
        while not (self.tokens.peek().kind == "PUNCT" and self.tokens.peek().value == ")"):
            items.append(self.parse_term())
        self.tokens.expect("PUNCT", ")")
        if not items:
            return RDF.nil
        head = BNode()
        current = head
        for index, item in enumerate(items):
            self.graph.add((current, RDF.first, item))
            if index == len(items) - 1:
                self.graph.add((current, RDF.rest, RDF.nil))
            else:
                nxt = BNode()
                self.graph.add((current, RDF.rest, nxt))
                current = nxt
        return head

    # -- statements -------------------------------------------------------- #

    def _parse_predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self.parse_term()
            if not isinstance(predicate, IRI):
                raise self.tokens.error("predicate must be an IRI")
            while True:
                obj = self.parse_term()
                self.graph.add((subject, predicate, obj))
                if self.tokens.peek().kind == "PUNCT" and self.tokens.peek().value == ",":
                    self.tokens.next()
                    continue
                break
            if self.tokens.peek().kind == "PUNCT" and self.tokens.peek().value == ";":
                self.tokens.next()
                # A trailing ';' before '.' or ']' is legal Turtle.
                nxt = self.tokens.peek()
                if nxt.kind == "PUNCT" and nxt.value in (".", "]", "}"):
                    break
                continue
            break

    def parse_statement(self) -> None:
        """Parse one directive or triples statement."""
        token = self.tokens.peek()
        if token.kind == "KEYWORD" and token.value.lower() in (
            "@prefix",
            "prefix",
            "@base",
            "base",
        ):
            self._parse_directive()
            return
        subject = self.parse_term(as_subject=True)
        self._parse_predicate_object_list(subject)
        self.tokens.expect("PUNCT", ".")

    def parse(self) -> Graph:
        """Parse the whole document and return the populated graph."""
        while self.tokens.peek().kind != "EOF":
            self.parse_statement()
        return self.graph


def parse_turtle(text: str, graph: Optional[Graph] = None) -> Graph:
    """Parse a Turtle document into ``graph`` (a fresh one by default)."""
    return TurtleParser(text, graph).parse()


# ---------------------------------------------------------------------- #
# serialization
# ---------------------------------------------------------------------- #


def _render_term(term: Term, namespaces: NamespaceManager) -> str:
    if isinstance(term, IRI):
        if term == RDF.type:
            return "a"
        compact = namespaces.compact(term)
        return compact if compact is not None else term.n3()
    if isinstance(term, Literal):
        if term.datatype in (XSD_INTEGER, XSD_DECIMAL, XSD_BOOLEAN) and _is_plain(term):
            return term.lexical
        n3 = term.n3()
        if term.language is None and term.datatype != XSD_STRING:
            # Take the datatype from the term, not from the text: the
            # lexical form may itself contain "^^<".
            compact = namespaces.compact(IRI(term.datatype))
            if compact is not None:
                lexical = n3.removesuffix(f"^^<{term.datatype}>")
                return f"{lexical}^^{compact}"
        return n3
    return term.n3()


def _is_plain(literal: Literal) -> bool:
    """Whether the lexical form is valid for numeric/boolean shorthand."""
    lex = literal.lexical
    if literal.datatype == XSD_INTEGER:
        return bool(re.fullmatch(r"[+-]?\d+", lex))
    if literal.datatype == XSD_DECIMAL:
        return bool(re.fullmatch(r"[+-]?\d*\.\d+", lex))
    if literal.datatype == XSD_BOOLEAN:
        return lex in ("true", "false")
    return False


def _used_prefixes(graph: Graph) -> List[Tuple[str, str]]:
    used = set()
    for term in graph.terms():
        if isinstance(term, IRI):
            compact = graph.namespaces.compact(term)
            if compact is not None:
                used.add(compact.split(":", 1)[0])
        elif isinstance(term, Literal):
            compact = graph.namespaces.compact(IRI(term.datatype))
            if compact is not None:
                used.add(compact.split(":", 1)[0])
    return [(p, b) for p, b in graph.namespaces.prefixes() if p in used]


def serialize_turtle(graph: Graph, include_prefixes: bool = True) -> str:
    """Serialize ``graph`` as deterministic, subject-grouped Turtle."""
    lines: List[str] = []
    if include_prefixes:
        for prefix, base in _used_prefixes(graph):
            lines.append(f"@prefix {prefix}: <{base}> .")
        if lines:
            lines.append("")
    by_subject: dict = {}
    for s, p, o in graph:
        by_subject.setdefault(s, {}).setdefault(p, []).append(o)
    ns = graph.namespaces
    for subject in sorted(by_subject, key=lambda t: (t.__class__.__name__, str(t))):
        subject_text = _render_term(subject, ns) if not isinstance(subject, BNode) else subject.n3()
        predicate_map = by_subject[subject]
        predicate_lines: List[str] = []
        # rdf:type first, then alphabetical — conventional Turtle style.
        ordered = sorted(predicate_map, key=lambda p: (p != RDF.type, str(p)))
        for predicate in ordered:
            objects = sorted(predicate_map[predicate], key=lambda t: (t.__class__.__name__, str(t)))
            objects_text = ", ".join(_render_term(o, ns) for o in objects)
            predicate_lines.append(f"    {_render_term(predicate, ns)} {objects_text}")
        lines.append(subject_text + "\n" + " ;\n".join(predicate_lines) + " .")
    return "\n".join(lines) + ("\n" if lines else "")
