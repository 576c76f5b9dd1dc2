"""RDF term model: IRIs, blank nodes, literals, variables, triples and quads.

This module is the foundation of the :mod:`repro.rdf` substrate, the
pure-Python replacement for Apache Jena used by the original MDM system.
All terms are immutable, hashable value objects so they can live in the
hash-indexed triple store (:mod:`repro.rdf.graph`) and in SPARQL solution
bindings without copying.

The type hierarchy mirrors the RDF 1.1 abstract syntax:

``Term``
    abstract base of everything that can appear in a triple.
``IRI``
    an absolute or relative IRI reference.
``BNode``
    a blank node with a (locally unique) label.
``Literal``
    a lexical form plus optional datatype IRI or language tag.
``Variable``
    a SPARQL query variable (never appears in stored triples, only in
    patterns).

Plus the two statement shapes:

``Triple``
    ``(subject, predicate, object)``.
``Quad``
    a triple plus the named graph it belongs to (``graph is None`` for the
    default graph).
"""

from __future__ import annotations

import itertools
import re
import threading
from decimal import Decimal, InvalidOperation
from typing import Any, NamedTuple, Optional, Union

__all__ = [
    "Term",
    "IRI",
    "BNode",
    "Literal",
    "Variable",
    "Triple",
    "Quad",
    "TermPattern",
    "XSD_STRING",
    "XSD_INTEGER",
    "XSD_DECIMAL",
    "XSD_DOUBLE",
    "XSD_BOOLEAN",
    "RDF_LANGSTRING",
]

_XSD = "http://www.w3.org/2001/XMLSchema#"


class Term:
    """Abstract base class for all RDF terms.

    Concrete subclasses are :class:`IRI`, :class:`BNode`, :class:`Literal`
    and :class:`Variable`.  The class exists mainly for ``isinstance``
    checks and documentation; it carries no state.
    """

    __slots__ = ()

    def n3(self) -> str:
        """Return the N-Triples / Turtle serialization of this term."""
        raise NotImplementedError

    @property
    def is_concrete(self) -> bool:
        """Whether the term may be stored in a graph (i.e. not a variable)."""
        return True


#: What the N-Triples ``IRIREF`` production excludes (U+0000-U+0020 and
#: ``<>"{}|^`\``), plus the Unicode whitespace and line breaks the codecs
#: split on (``\s``, e.g. U+00A0 or U+2028).  An IRI holding one could be
#: written to a snapshot but never read back.
_IRI_EXCLUDED_RE = re.compile(r'[\x00-\x20\s<>"{}|^`\\]')


class IRI(Term):
    """An IRI reference, e.g. ``IRI("http://schema.org/SportsTeam")``.

    Equality and hashing are by string value, so two ``IRI`` objects built
    from the same string are interchangeable.  The hash is computed once:
    IRIs key every graph index, so they are hashed far more often than
    built.
    """

    __slots__ = ("_value", "_hash")

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise TypeError(f"IRI value must be str, got {type(value).__name__}")
        if not value:
            raise ValueError("IRI value must be non-empty")
        if _IRI_EXCLUDED_RE.search(value):
            raise ValueError(f"invalid character in IRI: {value!r}")
        self._value = value
        self._hash = hash(("IRI", value))

    def __reduce__(self):
        # The stored hash is valid only in the process that computed it;
        # an unpickled IRI rehashes under its own process's hash seed.
        return (IRI, (self._value,))

    @property
    def value(self) -> str:
        """The IRI string."""
        return self._value

    def n3(self) -> str:
        return f"<{self._value}>"

    def local_name(self) -> str:
        """Heuristic local name: the part after the last ``#`` or ``/``."""
        for sep in ("#", "/"):
            if sep in self._value:
                tail = self._value.rsplit(sep, 1)[1]
                if tail:
                    return tail
        return self._value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IRI) and other._value == self._value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"IRI({self._value!r})"

    def __str__(self) -> str:
        return self._value

    def __lt__(self, other: "Term") -> bool:
        return _term_sort_key(self) < _term_sort_key(other)


_bnode_counter = itertools.count()
_bnode_lock = threading.Lock()

_BNODE_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")


class BNode(Term):
    """A blank node.

    ``BNode()`` mints a fresh process-unique label; ``BNode("b0")`` wraps an
    explicit label (used by the parsers).  Labels are compared textually, so
    blank-node identity is per-label, matching how a single parsed document
    behaves.
    """

    __slots__ = ("_label",)

    def __init__(self, label: Optional[str] = None):
        if label is None:
            with _bnode_lock:
                label = f"b{next(_bnode_counter)}"
        if not isinstance(label, str):
            raise TypeError("BNode label must be str")
        if not _BNODE_LABEL_RE.match(label):
            raise ValueError(f"invalid blank node label: {label!r}")
        self._label = label

    @property
    def label(self) -> str:
        """The blank node label (without the ``_:`` prefix)."""
        return self._label

    def n3(self) -> str:
        return f"_:{self._label}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BNode) and other._label == self._label

    def __hash__(self) -> int:
        return hash(("BNode", self._label))

    def __repr__(self) -> str:
        return f"BNode({self._label!r})"

    def __str__(self) -> str:
        return f"_:{self._label}"

    def __lt__(self, other: "Term") -> bool:
        return _term_sort_key(self) < _term_sort_key(other)


XSD_STRING = _XSD + "string"
XSD_INTEGER = _XSD + "integer"
XSD_DECIMAL = _XSD + "decimal"
XSD_DOUBLE = _XSD + "double"
XSD_BOOLEAN = _XSD + "boolean"
RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"

_NUMERIC_DATATYPES = frozenset(
    {
        XSD_INTEGER,
        XSD_DECIMAL,
        XSD_DOUBLE,
        _XSD + "float",
        _XSD + "long",
        _XSD + "int",
        _XSD + "short",
        _XSD + "byte",
        _XSD + "nonNegativeInteger",
        _XSD + "positiveInteger",
        _XSD + "unsignedLong",
        _XSD + "unsignedInt",
    }
)

_LANG_TAG_RE = re.compile(r"^[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*$")


class Literal(Term):
    """An RDF literal: a lexical form with a datatype or language tag.

    Construction accepts either a string lexical form (with optional
    ``datatype`` / ``lang``) or a native Python value, whose datatype is
    inferred:

    >>> Literal(42).datatype
    'http://www.w3.org/2001/XMLSchema#integer'
    >>> Literal("hola", lang="es").language
    'es'

    ``to_python()`` converts back to the closest native type.
    """

    __slots__ = ("_lexical", "_datatype", "_language")

    def __init__(
        self,
        value: Union[str, int, float, bool, Decimal],
        datatype: Optional[str] = None,
        lang: Optional[str] = None,
    ):
        if datatype is not None and lang is not None:
            raise ValueError("a literal cannot have both a datatype and a language tag")
        if isinstance(datatype, IRI):
            datatype = datatype.value
        if isinstance(value, bool):  # bool before int: bool is an int subclass
            lexical = "true" if value else "false"
            datatype = datatype or XSD_BOOLEAN
        elif isinstance(value, int):
            lexical = str(value)
            datatype = datatype or XSD_INTEGER
        elif isinstance(value, float):
            lexical = repr(value)
            datatype = datatype or XSD_DOUBLE
        elif isinstance(value, Decimal):
            lexical = str(value)
            datatype = datatype or XSD_DECIMAL
        elif isinstance(value, str):
            lexical = value
        else:
            raise TypeError(f"unsupported literal value type: {type(value).__name__}")

        if lang is not None:
            if not _LANG_TAG_RE.match(lang):
                raise ValueError(f"invalid language tag: {lang!r}")
            self._language: Optional[str] = lang.lower()
            self._datatype = RDF_LANGSTRING
        else:
            self._language = None
            self._datatype = datatype or XSD_STRING
        self._lexical = lexical

    @property
    def lexical(self) -> str:
        """The lexical form, e.g. ``"170.18"``."""
        return self._lexical

    @property
    def datatype(self) -> str:
        """The datatype IRI string (``xsd:string`` when untyped)."""
        return self._datatype

    @property
    def language(self) -> Optional[str]:
        """The language tag (lowercased) or ``None``."""
        return self._language

    @property
    def is_numeric(self) -> bool:
        """Whether the datatype is one of the XSD numeric types."""
        return self._datatype in _NUMERIC_DATATYPES

    def to_python(self) -> Any:
        """Convert to a native Python value; falls back to the lexical form.

        Invalid lexical forms for a numeric/boolean datatype degrade
        gracefully to the raw string rather than raising, mirroring how RDF
        stores treat ill-typed literals as opaque.
        """
        dt = self._datatype
        lex = self._lexical
        try:
            if dt == XSD_INTEGER or dt in _NUMERIC_DATATYPES and dt not in (
                XSD_DECIMAL,
                XSD_DOUBLE,
                _XSD + "float",
            ):
                return int(lex)
            if dt in (XSD_DOUBLE, _XSD + "float"):
                return float(lex)
            if dt == XSD_DECIMAL:
                return Decimal(lex)
            if dt == XSD_BOOLEAN:
                if lex in ("true", "1"):
                    return True
                if lex in ("false", "0"):
                    return False
                return lex
        except (ValueError, InvalidOperation):
            return lex
        return lex

    def n3(self) -> str:
        escaped = (
            self._lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        # Remaining control characters and the exotic Unicode line breaks
        # (NEL, LS, PS, VT, FF -- all split by str.splitlines) must be
        # \\uXXXX-escaped so the line-oriented codecs stay line-oriented.
        escaped = "".join(
            f"\\u{ord(ch):04X}"
            if ord(ch) < 0x20 or ord(ch) in (0x85, 0x2028, 0x2029)
            else ch
            for ch in escaped
        )
        body = f'"{escaped}"'
        if self._language is not None:
            return f"{body}@{self._language}"
        if self._datatype != XSD_STRING:
            return f"{body}^^<{self._datatype}>"
        return body

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and other._lexical == self._lexical
            and other._datatype == self._datatype
            and other._language == self._language
        )

    def __hash__(self) -> int:
        return hash(("Literal", self._lexical, self._datatype, self._language))

    def __repr__(self) -> str:
        if self._language:
            return f"Literal({self._lexical!r}, lang={self._language!r})"
        if self._datatype != XSD_STRING:
            return f"Literal({self._lexical!r}, datatype={self._datatype!r})"
        return f"Literal({self._lexical!r})"

    def __str__(self) -> str:
        return self._lexical

    def __lt__(self, other: "Term") -> bool:
        return _term_sort_key(self) < _term_sort_key(other)


_VARIABLE_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class Variable(Term):
    """A SPARQL variable such as ``?playerName``.

    Variables are *not* concrete: they may appear in triple patterns and
    query ASTs but never inside a stored :class:`Triple`.
    """

    __slots__ = ("_name",)

    def __init__(self, name: str):
        if name.startswith("?") or name.startswith("$"):
            name = name[1:]
        if not _VARIABLE_NAME_RE.match(name):
            raise ValueError(f"invalid variable name: {name!r}")
        self._name = name

    @property
    def name(self) -> str:
        """The variable name without the leading ``?``."""
        return self._name

    @property
    def is_concrete(self) -> bool:
        return False

    def n3(self) -> str:
        return f"?{self._name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and other._name == self._name

    def __hash__(self) -> int:
        return hash(("Variable", self._name))

    def __repr__(self) -> str:
        return f"Variable({self._name!r})"

    def __str__(self) -> str:
        return f"?{self._name}"

    def __lt__(self, other: "Term") -> bool:
        return _term_sort_key(self) < _term_sort_key(other)


def _term_sort_key(term: Term) -> tuple:
    """Total order over terms: BNode < IRI < Literal < Variable, then text."""
    if isinstance(term, BNode):
        return (0, term.label)
    if isinstance(term, IRI):
        return (1, term.value)
    if isinstance(term, Literal):
        return (2, term.lexical, term.datatype, term.language or "")
    if isinstance(term, Variable):
        return (3, term.name)
    raise TypeError(f"not a Term: {term!r}")


#: A term or ``None`` wildcard, as accepted by graph pattern matching.
TermPattern = Optional[Term]


class Triple(NamedTuple):
    """An RDF statement ``(subject, predicate, object)``.

    Being a ``NamedTuple`` it unpacks naturally::

        for s, p, o in graph:
            ...
    """

    subject: Term
    predicate: Term
    object: Term

    def n3(self) -> str:
        """N-Triples serialization (without the trailing newline)."""
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def is_concrete(self) -> bool:
        """True when no component is a :class:`Variable`."""
        return (
            self.subject.is_concrete
            and self.predicate.is_concrete
            and self.object.is_concrete
        )

    def variables(self) -> set:
        """The set of :class:`Variable` components (possibly empty)."""
        return {t for t in self if isinstance(t, Variable)}


class Quad(NamedTuple):
    """A triple in a named graph; ``graph is None`` means the default graph."""

    subject: Term
    predicate: Term
    object: Term
    graph: Optional[IRI]

    @property
    def triple(self) -> Triple:
        """The graph-less view of this quad."""
        return Triple(self.subject, self.predicate, self.object)

    def n3(self) -> str:
        """N-Quads serialization (without the trailing newline)."""
        parts = [self.subject.n3(), self.predicate.n3(), self.object.n3()]
        if self.graph is not None:
            parts.append(self.graph.n3())
        return " ".join(parts) + " ."


def validate_triple(subject: Term, predicate: Term, obj: Term) -> Triple:
    """Check RDF well-formedness and return the :class:`Triple`.

    Subjects must be IRIs or blank nodes, predicates IRIs, and objects any
    concrete term.  Raises :class:`TypeError` otherwise.
    """
    if not isinstance(subject, (IRI, BNode)):
        raise TypeError(f"triple subject must be IRI or BNode, got {subject!r}")
    if not isinstance(predicate, IRI):
        raise TypeError(f"triple predicate must be IRI, got {predicate!r}")
    if not isinstance(obj, (IRI, BNode, Literal)):
        raise TypeError(f"triple object must be IRI, BNode or Literal, got {obj!r}")
    return Triple(subject, predicate, obj)
