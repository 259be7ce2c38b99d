"""Output knowledge graph: node minting, triple assembly, serialization.

Every node gets a deterministic IRI, so building the same corpus twice (in
any record order) serializes byte-identically.  Blank nodes are never used.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from urllib.parse import quote, unquote

from . import utf8
from .ontology import (
    ClassDef,
    OntologySchema,
    PropertyDef,
    SourceOntology,
    XSD_DATETIME,
    XSD_STRING,
)

DEFAULT_BASE_IRI = "https://example.org/archonto/"
CRM_NAMESPACE = "http://www.cidoc-crm.org/cidoc-crm/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD_NAMESPACE = "http://www.w3.org/2001/XMLSchema#"

# Second IRI segment reserved for corpus-wide vocabulary individuals; the
# role segment of such nodes is the (uppercase) class identifier, which can
# never collide with the lowercase role names used for per-record nodes.
SHARED_SEGMENT = "shared"

_IRI_DATATYPES = {XSD_NAMESPACE + "string": XSD_STRING, XSD_NAMESPACE + "dateTime": XSD_DATETIME}

# What follows a literal's quoted text, by datatype tag, in each format.  Any
# other datatype is a foreign IRI read from input and is written in full.
_NT_SUFFIXES = {XSD_STRING: "", XSD_DATETIME: f"^^<{XSD_NAMESPACE}dateTime>"}
_TURTLE_SUFFIXES = {XSD_STRING: "", XSD_DATETIME: "^^xsd:dateTime"}

# Characters an N-Triples IRIREF may not hold unescaped (RDF 1.1 N-Triples).
_IRI_EXCLUDED = r'\x00-\x20<>"{}|^`\\'
_IRI_FORBIDDEN = re.compile(f"[{_IRI_EXCLUDED}]")
# An absolute IRI starts with a scheme (RFC 3987); N-Triples allows no other.
_IRI_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")


class GraphError(ValueError):
    pass


class NodeClassConflict(GraphError):
    def __init__(self, iri: str, existing: str, requested: str) -> None:
        super().__init__(
            f"node {iri} already asserted as {existing}, re-minted as {requested}"
        )


class NTriplesParseError(GraphError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, slots=True)
class Literal:
    """A typed literal value; datatype is a tag from the schema ranges."""

    text: str
    datatype: str = XSD_STRING


@dataclass(frozen=True, slots=True)
class NodeRef:
    iri: str
    asserted_class: str


@dataclass(frozen=True, slots=True)
class Triple:
    subject: NodeRef
    predicate: str
    object: NodeRef | Literal


# Bounded: a run repeats few segments (roles, discriminators, shared terms)
# very often, while the distinct reference codes grow with the corpus.
@lru_cache(maxsize=1024)
def _encode(segment: str) -> str:
    return quote(segment, safe="")


@dataclass(frozen=True)
class _TermTable:
    """Class and property IRIs of one schema under one base IRI, both ways,
    and the Turtle prefixed name of each of those IRIs."""

    class_iris: dict[str, str]
    property_iris: dict[str, str]
    class_ids: dict[str, str]
    property_ids: dict[str, str]
    turtle_names: dict[str, str]


# Keyed by schema identity and base IRI: a run uses one or two of each, while
# every record of a migration builds its own Graph.
@lru_cache(maxsize=16)
def _term_table(schema: OntologySchema, base_iri: str) -> _TermTable:
    ontology = base_iri + "ontology/"

    def names(term: ClassDef | PropertyDef) -> tuple[str, str]:
        local = f"{term.identifier}_{term.label.replace(' ', '_')}"
        if term.source is SourceOntology.CIDOC:
            return CRM_NAMESPACE + local, "crm:" + local
        return ontology + local, "aont:" + local

    class_names = {c.identifier: names(c) for c in schema.classes}
    property_names = {p.identifier: names(p) for p in schema.properties}
    class_iris = {ident: iri for ident, (iri, _) in class_names.items()}
    property_iris = {ident: iri for ident, (iri, _) in property_names.items()}
    return _TermTable(
        class_iris,
        property_iris,
        {v: k for k, v in class_iris.items()},
        {v: k for k, v in property_iris.items()},
        dict((*class_names.values(), *property_names.values())),
    )


# Characters N-Triples literals must escape; most texts hold none of them,
# and the search is cheaper than a translate that changes nothing.
_LITERAL_ESCAPED = re.compile(r'[\\"\x00-\x1f]')
_LITERAL_ESCAPES = {code: f"\\u{code:04X}" for code in range(0x20)} | {
    ord("\\"): "\\\\",
    ord('"'): '\\"',
    ord("\n"): "\\n",
    ord("\r"): "\\r",
    ord("\t"): "\\t",
}


def _escape_literal(text: str) -> str:
    if _LITERAL_ESCAPED.search(text) is None:
        return text
    return text.translate(_LITERAL_ESCAPES)


def _literal(text: str, datatype: str, suffixes: Mapping[str, str]) -> str:
    suffix = suffixes.get(datatype)
    return f'"{_escape_literal(text)}"' + (f"^^<{datatype}>" if suffix is None else suffix)


# The escapes of RDF 1.1 N-Triples: ECHAR and UCHAR.
_ECHARS = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_UNESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")


def _unescape_literal(text: str, line: int) -> str:
    def sub(match: re.Match[str]) -> str:
        code = match.group(1)
        if code in _ECHARS:
            return _ECHARS[code]
        if code[0] not in "uU" or len(code) == 1:
            raise NTriplesParseError(f"unknown escape \\{code} in a literal", line)
        point = int(code[1:], 16)
        if point > 0x10FFFF or 0xD800 <= point <= 0xDFFF:
            raise NTriplesParseError(f"escape \\{code} is not a Unicode scalar value", line)
        return chr(point)

    return _UNESCAPE_RE.sub(sub, text) if "\\" in text else text


class Graph:
    """Triple set plus node index; single-writer during construction."""

    def __init__(self, schema: OntologySchema, base_iri: str = DEFAULT_BASE_IRI) -> None:
        bad = _IRI_FORBIDDEN.search(base_iri)
        if bad is not None:
            raise GraphError(
                f"base IRI {base_iri!r} holds {bad.group()!r}, which an IRI may not contain"
            )
        if _IRI_SCHEME.match(base_iri) is None:
            raise GraphError(f"base IRI {base_iri!r} has no scheme; it must be an absolute IRI")
        self.schema = schema
        self.base_iri = base_iri.rstrip("/") + "/"
        self._nodes: dict[str, NodeRef] = {}
        self._triples: set[Triple] = set()

    # -- content views -----------------------------------------------------

    @property
    def triples(self) -> frozenset[Triple]:
        """Snapshot of the triples; later additions and removals do not show."""
        return frozenset(self._triples)

    @property
    def node_index(self) -> Mapping[str, NodeRef]:
        """Live read-only view of the nodes by IRI; later mints show at once."""
        return MappingProxyType(self._nodes)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    # -- node minting -------------------------------------------------------

    def mint_node(
        self, record_ref: str, role: str, discriminator: str, class_id: str
    ) -> NodeRef:
        """Deterministic node IRI: base/record_ref/role/discriminator (encoded)."""
        if not record_ref:
            raise GraphError("record_ref must be non-empty")
        self.schema.class_def(class_id)
        iri = (
            self.base_iri
            + _encode(record_ref)
            + "/"
            + _encode(role)
            + "/"
            + _encode(discriminator)
        )
        return self.register_node(NodeRef(iri, class_id))

    def mint_shared(self, class_id: str, term: str) -> NodeRef:
        """Corpus-wide individual of a type-like class, keyed by its term."""
        return self.mint_node(SHARED_SEGMENT, class_id, term, class_id)

    def register_node(self, node: NodeRef) -> NodeRef:
        existing = self._nodes.get(node.iri)
        if existing is not None:
            if existing.asserted_class != node.asserted_class:
                raise NodeClassConflict(
                    node.iri, existing.asserted_class, node.asserted_class
                )
            return existing
        self._nodes[node.iri] = node
        return node

    def shared_term(self, node: NodeRef) -> tuple[str, str] | None:
        """Decode (class_id, term) for shared vocabulary individuals."""
        prefix = self.base_iri + SHARED_SEGMENT + "/"
        if not node.iri.startswith(prefix):
            return None
        rest = node.iri[len(prefix) :].split("/")
        if len(rest) != 2:
            return None
        class_id, term = unquote(rest[0]), unquote(rest[1])
        if not self.schema.has_class(class_id):
            return None
        return class_id, term

    # -- triple assembly -----------------------------------------------------

    def add_triple(self, subject: NodeRef, predicate: str, obj: NodeRef | Literal) -> Triple:
        """Insert with set semantics and return the triple; range kinds are
        checked by validation (or, in strict mode, by the engine)."""
        self.schema.property_def(predicate)
        self.register_node(subject)
        if isinstance(obj, NodeRef):
            self.register_node(obj)
        triple = Triple(subject, predicate, obj)
        self._triples.add(triple)
        return triple

    def remove_triple(self, triple: Triple) -> None:
        self._triples.discard(triple)

    def absorb(self, other: Graph) -> None:
        """Merge another graph built against the same schema and base IRI."""
        if other.base_iri != self.base_iri:
            raise GraphError("cannot merge graphs with different base IRIs")
        for node in other._nodes.values():
            self.register_node(node)
        self._triples.update(other._triples)

    def copy(self) -> Graph:
        clone = Graph(self.schema, self.base_iri)
        clone._nodes = dict(self._nodes)
        clone._triples = set(self._triples)
        return clone

    def property_iri(self, property_id: str) -> str:
        self.schema.property_def(property_id)
        return _term_table(self.schema, self.base_iri).property_iris[property_id]

    # -- serialization ----------------------------------------------------------

    def _sorted_rows(self) -> list[tuple[str, str, int, str, str]]:
        """Every statement as (subject, predicate, is_literal, object IRI or
        literal text, datatype or ""), in output order.

        The plain tuple is its own sort key.  Unknown classes and properties
        (foreign input) keep their IRI, and untyped nodes get no type
        assertion, so parse -> serialize round-trips faithfully.
        """
        terms = _term_table(self.schema, self.base_iri)
        class_iris, property_iris = terms.class_iris, terms.property_iris
        rows: list[tuple[str, str, int, str, str]] = [
            (node.iri, RDF_TYPE, 0, class_iris.get(node.asserted_class, node.asserted_class), "")
            for node in self._nodes.values()
            if node.asserted_class
        ]
        for triple in self._triples:
            subject, obj = triple.subject.iri, triple.object
            predicate = property_iris.get(triple.predicate, triple.predicate)
            if isinstance(obj, Literal):
                rows.append((subject, predicate, 1, obj.text, obj.datatype))
            else:
                rows.append((subject, predicate, 0, obj.iri, ""))
        rows.sort()
        return rows

    def serialize(self, format: str = "ntriples") -> bytes:
        """Deterministic N-Triples or Turtle; one type assertion per node."""
        rows = self._sorted_rows()
        if format == "ntriples":
            lines = [
                f"<{s}> <{p}> {_literal(o, dt, _NT_SUFFIXES) if lit else f'<{o}>'} ."
                for s, p, lit, o, dt in rows
            ]
        elif format == "turtle":
            lines = [
                f"@prefix aont: <{self.base_iri}ontology/> .",
                f"@prefix crm: <{CRM_NAMESPACE}> .",
                '@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .',
                f"@prefix xsd: <{XSD_NAMESPACE}> .",
                "",
            ]
            # Only schema terms get a prefixed name: a node IRI's path may
            # hold a '/', which a prefixed name's local part may not.
            names = _term_table(self.schema, self.base_iri).turtle_names
            lines += [
                f"<{s}> {'a' if p == RDF_TYPE else names.get(p) or f'<{p}>'} "
                f"{_literal(o, dt, _TURTLE_SUFFIXES) if lit else names.get(o) or f'<{o}>'} ."
                for s, p, lit, o, dt in rows
            ]
        else:
            raise GraphError(f"unsupported serialization format: {format}")
        return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")

    # -- deserialization -----------------------------------------------------------

    # N-Triples whitespace is space and tab only; other Unicode spaces are
    # not separators.  A literal holds no raw CR (nor LF, which ends a line).
    _NT_LINE = re.compile(
        rf"^<([^{_IRI_EXCLUDED}]+)>[ \t]+<([^{_IRI_EXCLUDED}]+)>[ \t]+"
        rf"(?:<([^{_IRI_EXCLUDED}]+)>|\"((?:[^\"\\\r]|\\.)*)\"(?:\^\^<([^{_IRI_EXCLUDED}]+)>)?)"
        r"[ \t]*\.$"
    )

    @classmethod
    def from_ntriples(
        cls,
        data: bytes | str,
        schema: OntologySchema,
        base_iri: str = DEFAULT_BASE_IRI,
    ) -> Graph:
        """Rebuild a graph from N-Triples produced by :meth:`serialize`.

        Unknown predicate or class IRIs are preserved verbatim so validation
        can report them; untyped nodes get an empty asserted class.  Each IRI
        has one :class:`NodeRef`, shared by every triple that names it, and
        one class: a second type line with another class is a parse error.
        """
        graph = cls(schema, base_iri)
        terms = _term_table(graph.schema, graph.base_iri)
        nodes = graph._nodes
        statements: list[tuple[str, str, str | None, str | None, str | None]] = []
        # Only space, tab and the CR of a CRLF are trimmed.
        for number, raw in utf8.lines(data, NTriplesParseError):
            line = raw.strip(" \t\r")
            if not line or line.startswith("#"):
                continue
            match = cls._NT_LINE.match(line)
            if match is None:
                raise NTriplesParseError("not a valid N-Triples statement", number)
            s_iri, p_iri, o_iri, o_text, o_dt = match.groups()
            if p_iri != RDF_TYPE:
                if o_text is not None:
                    o_text = _unescape_literal(o_text, number)
                statements.append((s_iri, p_iri, o_iri, o_text, o_dt))
            elif o_iri is None:
                raise NTriplesParseError("rdf:type object must be an IRI", number)
            else:
                class_id = terms.class_ids.get(o_iri, o_iri)
                if nodes.setdefault(s_iri, NodeRef(s_iri, class_id)).asserted_class != class_id:
                    raise NTriplesParseError(
                        f"<{s_iri}> is typed again with another class; a node has one class",
                        number,
                    )

        # Untyped nodes are made on first use, after every type line is read.
        def node(iri: str) -> NodeRef:
            ref = nodes.get(iri)
            if ref is None:
                ref = nodes[iri] = NodeRef(iri, "")
            return ref

        property_ids = terms.property_ids
        for s_iri, p_iri, o_iri, o_text, o_dt in statements:
            obj: NodeRef | Literal
            if o_iri is not None:
                obj = node(o_iri)
            else:
                datatype = _IRI_DATATYPES.get(o_dt, o_dt) if o_dt else XSD_STRING
                obj = Literal(o_text or "", datatype)
            graph._triples.add(Triple(node(s_iri), property_ids.get(p_iri, p_iri), obj))
        return graph
