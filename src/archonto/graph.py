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

from .ontology import (
    LITERAL_RANGES,
    OntologySchema,
    SourceOntology,
    UnknownClassError,
    UnknownPropertyError,
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

_DATATYPE_IRIS = {
    XSD_STRING: XSD_NAMESPACE + "string",
    XSD_DATETIME: XSD_NAMESPACE + "dateTime",
}
_IRI_DATATYPES = {iri: tag for tag, iri in _DATATYPE_IRIS.items()}

# Characters an N-Triples IRIREF may not hold unescaped (RDF 1.1 N-Triples).
_IRI_EXCLUDED = r'\x00-\x20<>"{}|^`\\'
_IRI_FORBIDDEN = re.compile(f"[{_IRI_EXCLUDED}]")


class GraphError(ValueError):
    pass


class NodeClassConflict(GraphError):
    def __init__(self, iri: str, existing: str, requested: str) -> None:
        super().__init__(
            f"node {iri} already asserted as {existing}, re-minted as {requested}"
        )


class StrictRangeError(GraphError):
    pass


class NTriplesParseError(GraphError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Literal:
    """A typed literal value; datatype is a tag from the schema ranges."""

    text: str
    datatype: str = XSD_STRING


@dataclass(frozen=True)
class NodeRef:
    iri: str
    asserted_class: str


@dataclass(frozen=True)
class Triple:
    subject: NodeRef
    predicate: str
    object: NodeRef | Literal


# Bounded: a run repeats few segments (roles, discriminators, shared terms)
# very often, while the distinct reference codes grow with the corpus.
@lru_cache(maxsize=1024)
def _encode(segment: str) -> str:
    return quote(segment, safe="")


# Characters N-Triples literals must escape; most texts hold none of them.
_LITERAL_ESCAPED = re.compile(r'[\\"\x00-\x1f]')


def _escape_literal(text: str) -> str:
    if _LITERAL_ESCAPED.search(text) is None:
        return text
    out = []
    for ch in text:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


_UNESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")


def _unescape_literal(text: str) -> str:
    def sub(match: re.Match[str]) -> str:
        code = match.group(1)
        if code[0] in "uU":
            return chr(int(code[1:], 16))
        return {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}.get(code, code)

    return _UNESCAPE_RE.sub(sub, text)


class Graph:
    """Triple set plus node index; single-writer during construction."""

    def __init__(
        self,
        schema: OntologySchema,
        base_iri: str = DEFAULT_BASE_IRI,
        strict: bool = False,
    ) -> None:
        bad = _IRI_FORBIDDEN.search(base_iri)
        if bad is not None:
            raise GraphError(
                f"base IRI {base_iri!r} holds {bad.group()!r}, which an IRI may not contain"
            )
        self.schema = schema
        self.base_iri = base_iri.rstrip("/") + "/"
        self.strict = strict
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
        """Insert with set semantics and return the triple; strict mode rejects
        range-kind mismatches."""
        prop = self.schema.property_def(predicate)
        if self.strict:
            literal_range = prop.range in LITERAL_RANGES
            if literal_range and isinstance(obj, NodeRef):
                raise StrictRangeError(
                    f"{predicate} expects a {prop.range} literal, got node {obj.iri}"
                )
            if not literal_range and isinstance(obj, Literal):
                raise StrictRangeError(
                    f"{predicate} expects a {prop.range} node, got literal {obj.text!r}"
                )
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
        clone = Graph(self.schema, self.base_iri, self.strict)
        clone._nodes = dict(self._nodes)
        clone._triples = set(self._triples)
        return clone

    # -- term IRIs ------------------------------------------------------------

    def class_iri(self, class_id: str) -> str:
        cls = self.schema.class_def(class_id)
        local = f"{cls.identifier}_{cls.label.replace(' ', '_')}"
        if cls.source is SourceOntology.CIDOC:
            return CRM_NAMESPACE + local
        return self.base_iri + "ontology/" + local

    def property_iri(self, property_id: str) -> str:
        prop = self.schema.property_def(property_id)
        local = f"{prop.identifier}_{prop.label.replace(' ', '_')}"
        if prop.source is SourceOntology.CIDOC:
            return CRM_NAMESPACE + local
        return self.base_iri + "ontology/" + local

    # -- serialization ----------------------------------------------------------

    def _type_iri(self, class_id: str) -> str | None:
        # Unknown classes (foreign input) keep their IRI; untyped nodes get
        # no type assertion, so parse -> serialize round-trips faithfully.
        if not class_id:
            return None
        try:
            return self.class_iri(class_id)
        except UnknownClassError:
            return class_id

    def _predicate_iri(self, property_id: str) -> str:
        # Unknown properties (foreign input) keep their IRI.
        try:
            return self.property_iri(property_id)
        except UnknownPropertyError:
            return property_id

    def _sorted_rows(self) -> list[tuple[str, str, int, str, str]]:
        """Every statement as (subject, predicate, is_literal, object IRI or
        literal text, datatype or ""), in output order.

        The plain tuple is its own sort key.  Term IRIs are looked up once per
        distinct class or property.
        """
        nodes = self._nodes.values()
        type_iris = {c: self._type_iri(c) for c in {node.asserted_class for node in nodes}}
        pred_iris = {p: self._predicate_iri(p) for p in {t.predicate for t in self._triples}}
        rows: list[tuple[str, str, int, str, str]] = []
        for node in nodes:
            type_iri = type_iris[node.asserted_class]
            if type_iri is not None:
                rows.append((node.iri, RDF_TYPE, 0, type_iri, ""))
        for triple in self._triples:
            subject, predicate, obj = triple.subject.iri, pred_iris[triple.predicate], triple.object
            if isinstance(obj, Literal):
                rows.append((subject, predicate, 1, obj.text, obj.datatype))
            else:
                rows.append((subject, predicate, 0, obj.iri, ""))
        rows.sort()
        return rows

    @staticmethod
    def _nt_object(is_literal: int, value: str, datatype: str) -> str:
        if is_literal:
            text = f'"{_escape_literal(value)}"'
            if datatype != XSD_STRING:
                return f"{text}^^<{_DATATYPE_IRIS.get(datatype, datatype)}>"
            return text
        return f"<{value}>"

    def _turtle_term(self, iri: str) -> str:
        if iri.startswith(CRM_NAMESPACE):
            return "crm:" + iri[len(CRM_NAMESPACE) :]
        onto = self.base_iri + "ontology/"
        if iri.startswith(onto):
            return "aont:" + iri[len(onto) :]
        return f"<{iri}>"

    def serialize(self, format: str = "ntriples") -> bytes:
        """Deterministic N-Triples or Turtle; one type assertion per node."""
        rows = self._sorted_rows()
        if format == "ntriples":
            lines = [
                f"<{s}> <{p}> {self._nt_object(lit, o, dt)} ." for s, p, lit, o, dt in rows
            ]
            return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
        if format == "turtle":
            prefixes = [
                f"@prefix aont: <{self.base_iri}ontology/> .",
                f"@prefix crm: <{CRM_NAMESPACE}> .",
                '@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .',
                f"@prefix xsd: <{XSD_NAMESPACE}> .",
            ]
            lines = []
            for s, p, lit, o, dt in rows:
                if p == RDF_TYPE:
                    pred = "a"
                else:
                    pred = self._turtle_term(p)
                if lit:
                    obj = f'"{_escape_literal(o)}"'
                    if dt == XSD_DATETIME:
                        obj += "^^xsd:dateTime"
                    elif dt != XSD_STRING:
                        obj += f"^^<{dt}>"
                else:
                    obj = self._turtle_term(o)
                lines.append(f"<{s}> {pred} {obj} .")
            return ("\n".join(prefixes + [""] + lines) + "\n").encode("utf-8")
        raise GraphError(f"unsupported serialization format: {format}")

    # -- deserialization -----------------------------------------------------------

    # N-Triples whitespace is space and tab only; other Unicode spaces are
    # not separators.
    _NT_LINE = re.compile(
        rf"^<([^{_IRI_EXCLUDED}]+)>[ \t]+<([^{_IRI_EXCLUDED}]+)>[ \t]+"
        rf"(?:<([^{_IRI_EXCLUDED}]+)>|\"((?:[^\"\\]|\\.)*)\"(?:\^\^<([^{_IRI_EXCLUDED}]+)>)?)"
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
        can report them; untyped nodes get an empty asserted class.
        """
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        graph = cls(schema, base_iri)
        class_by_iri = {graph.class_iri(c.identifier): c.identifier for c in schema.classes}
        prop_by_iri = {
            graph.property_iri(p.identifier): p.identifier for p in schema.properties
        }
        parsed: list[tuple[int, str, str, str | None, str | None, str | None]] = []
        types: dict[str, str] = {}
        # LF only: splitlines() would also break on U+2028, U+0085 and other
        # separators the writer leaves raw inside literals.  Only space, tab
        # and the CR of a CRLF are trimmed.
        for number, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip(" \t\r")
            if not line or line.startswith("#"):
                continue
            match = cls._NT_LINE.match(line)
            if match is None:
                raise NTriplesParseError("not a valid N-Triples statement", number)
            s_iri, p_iri, o_iri, o_text, o_dt = match.groups()
            if p_iri == RDF_TYPE:
                if o_iri is None:
                    raise NTriplesParseError("rdf:type object must be an IRI", number)
                types[s_iri] = class_by_iri.get(o_iri, o_iri)
                continue
            parsed.append((number, s_iri, p_iri, o_iri, o_text, o_dt))
        for number, s_iri, p_iri, o_iri, o_text, o_dt in parsed:
            subject = NodeRef(s_iri, types.get(s_iri, ""))
            predicate = prop_by_iri.get(p_iri, p_iri)
            obj: NodeRef | Literal
            if o_iri is not None:
                obj = NodeRef(o_iri, types.get(o_iri, ""))
            else:
                datatype = _IRI_DATATYPES.get(o_dt, o_dt) if o_dt else XSD_STRING
                obj = Literal(_unescape_literal(o_text or ""), datatype)
            graph.register_node(subject)
            if isinstance(obj, NodeRef):
                graph.register_node(obj)
            graph._triples.add(Triple(subject, predicate, obj))
        for iri, class_id in types.items():
            graph.register_node(NodeRef(iri, class_id))
        return graph
