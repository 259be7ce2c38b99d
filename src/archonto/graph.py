"""Output knowledge graph: node minting, triple assembly, serialization.

Every node gets a deterministic IRI, so building the same corpus twice (in
any record order) serializes byte-identically.  Blank nodes are never used.
"""

from __future__ import annotations

import io
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import BinaryIO
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


class _Suffixes(dict):
    """What follows a literal's quoted text, by datatype tag, in one format.
    Any other datatype is a foreign IRI read from input and is written in full."""

    def __missing__(self, datatype: str) -> str:
        return f"^^<{datatype}>"


_NT_SUFFIXES = _Suffixes({XSD_STRING: "", XSD_DATETIME: f"^^<{XSD_NAMESPACE}dateTime>"})
_TURTLE_SUFFIXES = _Suffixes({XSD_STRING: "", XSD_DATETIME: "^^xsd:dateTime"})

# Rows rendered and encoded per write, about 80 KB of N-Triples: the writer never
# holds the whole output, and a chunk's strings stay under glibc's 128 KiB mmap
# threshold (1.2 MB chunks wrote slower and moved the peak RSS of equal runs by 6 MB).
_WRITE_CHUNK = 512

# Characters an N-Triples IRIREF may not hold unescaped (RDF 1.1 N-Triples),
# and the lone surrogates no UTF-8 output can hold.
_IRI_EXCLUDED = r'\x00-\x20<>"{}|^`\\\ud800-\udfff'
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


class NTriplesParseError(GraphError, utf8.LineError):
    """Raised at the first line of a graph input that is not valid N-Triples."""


# How a graph stores a statement: (subject IRI, predicate IRI, 1 for a
# literal object else 0, object IRI or literal text, datatype tag or "").
# CPython does not track a tuple of strings and small ints for garbage
# collection, and the tuple is its own sort key in output order.
_Row = tuple[str, str, int, str, str]


# quote(c, safe="") of each ASCII character by code: one translate encodes ASCII text.
_ASCII_QUOTED = [quote(chr(code), safe="") for code in range(128)]


# Bounded: a run repeats few segments (roles, discriminators, shared terms)
# very often, while the distinct reference codes grow with the corpus.
@lru_cache(maxsize=1024)
def _encode(segment: str) -> str:
    return segment.translate(_ASCII_QUOTED) if segment.isascii() else quote(segment, safe="")


# The README's "IRI scheme" is built and read by these three alone; base_iri ends in "/".
def record_prefix(base_iri: str, reference: str) -> str:
    """``<base>/<reference>/``, the prefix of every node of one record."""
    if not reference:
        raise GraphError("record_ref must be non-empty")
    return base_iri + _encode(reference) + "/"


def shared_prefix(base_iri: str, class_id: str) -> str:
    """``<base>/shared/<class>/``, the prefix of a class's corpus-wide individuals."""
    return record_prefix(base_iri, SHARED_SEGMENT) + _encode(class_id) + "/"


def decode_node(base_iri: str, iri: str) -> tuple[str, str, str] | None:
    """Decoded (reference, role, discriminator) of a node IRI, ("shared", class,
    term) for a shared node, else None; only the encoder's spelling of a reference decodes."""
    segments = iri[len(base_iri) :].split("/")
    if not iri.startswith(base_iri) or len(segments) != 3 or not segments[0]:
        return None
    reference, role, discriminator = map(unquote, segments)
    return (reference, role, discriminator) if _encode(reference) == segments[0] else None


@dataclass(frozen=True)
class _TermTable:
    """Class and property IRIs of one schema under one base IRI, both ways,
    and the Turtle prefixed name of each of those IRIs."""

    class_iris: dict[str, str]
    property_iris: dict[str, str]
    class_ids: dict[str, str]
    property_ids: dict[str, str]
    turtle_names: dict[str, str]
    ontology: str  # the extension ontologies' namespace


# Characters N-Triples literals must escape.
_LITERAL_ESCAPED = re.compile(r'[\\"\x00-\x1f]')
_LITERAL_ESCAPES = {code: f"\\u{code:04X}" for code in range(0x20)} | {
    ord("\\"): "\\\\",
    ord('"'): '\\"',
    ord("\n"): "\\n",
    ord("\r"): "\\r",
    ord("\t"): "\\t",
}


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
    """Statement rows plus node index; single-writer during construction.

    Node classes live in the node index alone; a row names its nodes by IRI.
    """

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
        # Each node's class id by IRI, "" for an untyped node.
        self._nodes: dict[str, str] = {}
        # A dict for its insertion order, which `_sorted_rows` relies on.
        self._triples: dict[_Row, None] = {}

    @cached_property
    def _terms(self) -> _TermTable:
        ontology = self.base_iri + "ontology/"

        def names(term: ClassDef | PropertyDef) -> tuple[str, str]:
            local = f"{term.identifier}_{term.label.replace(' ', '_')}"
            if term.source is SourceOntology.CIDOC:
                return CRM_NAMESPACE + local, "crm:" + local
            return ontology + local, "aont:" + local

        class_names = {c.identifier: names(c) for c in self.schema.classes}
        property_names = {p.identifier: names(p) for p in self.schema.properties}
        class_iris = {ident: iri for ident, (iri, _) in class_names.items()}
        property_iris = {ident: iri for ident, (iri, _) in property_names.items()}
        return _TermTable(
            class_iris,
            property_iris,
            {v: k for k, v in class_iris.items()},
            {v: k for k, v in property_iris.items()},
            dict((*class_names.values(), *property_names.values())),
            ontology,
        )

    # -- content views -----------------------------------------------------

    @property
    def triples(self) -> frozenset[_Row]:
        """Snapshot of the stored rows, made on each call; later additions
        and removals do not show."""
        return frozenset(self._triples)

    @property
    def node_index(self) -> Mapping[str, str]:
        """Live read-only view of each node's class id ("" when untyped) by
        IRI; later mints show at once."""
        return MappingProxyType(self._nodes)

    def __len__(self) -> int:
        return len(self._triples)

    # -- nodes ----------------------------------------------------------------

    def mint_node(
        self, record_ref: str, role: str, discriminator: str, class_id: str
    ) -> str:
        """Deterministic node IRI: base/record_ref/role/discriminator (encoded)."""
        prefix = record_prefix(self.base_iri, record_ref)
        self.schema.class_def(class_id)
        return self.register_node(prefix + _encode(role) + "/" + _encode(discriminator), class_id)

    def mint_shared(self, class_id: str, term: str) -> str:
        """Corpus-wide individual of a type-like class, keyed by its term."""
        return self.mint_node(SHARED_SEGMENT, class_id, term, class_id)

    def register_node(self, iri: str, class_id: str) -> str:
        """Claim the node at ``iri`` as a ``class_id`` and return ``iri``; a
        node already there with another class is a conflict."""
        existing = self._nodes.setdefault(iri, class_id)
        if existing != class_id:
            raise NodeClassConflict(iri, existing, class_id)
        return iri

    def shared_term(self, iri: str) -> tuple[str, str] | None:
        """Decode (class_id, term) for shared vocabulary individuals."""
        decoded = decode_node(self.base_iri, iri)
        if decoded is None or decoded[0] != SHARED_SEGMENT:
            return None
        return decoded[1:] if self.schema.has_class(decoded[1]) else None

    # -- rows -------------------------------------------------------------------

    def add_triple(
        self, subject: str, predicate_id: str, obj: str, datatype: str | None = None
    ) -> _Row:
        """Store and return the row of one statement, with set semantics.
        Without ``datatype``, ``obj`` is the IRI of a node; with one, it is
        literal text of that datatype.  Range kinds are checked by
        validation (or, in strict mode, by the engine)."""
        predicate = self._terms.property_iris.get(predicate_id)
        if predicate is None:
            self.schema.property_def(predicate_id)
        if datatype is None:
            row, named = (subject, predicate, 0, obj, ""), (subject, obj)
        else:
            row, named = (subject, predicate, 1, obj, datatype), (subject,)
        for iri in named:
            if iri not in self._nodes:
                raise GraphError(f"node {iri} is not in the graph")
        self._triples[row] = None
        return row

    def remove_triple(self, row: _Row) -> None:
        self._triples.pop(row, None)

    def copy(self) -> Graph:
        clone = Graph(self.schema, self.base_iri)
        clone._nodes = dict(self._nodes)
        clone._triples = dict(self._triples)
        return clone

    # -- serialization ----------------------------------------------------------

    def _sorted_rows(self) -> list[_Row]:
        """The stored rows plus one type row per typed node, in output order.

        Unknown classes and properties (foreign input) keep their IRI, and
        untyped nodes get no type assertion, so parse -> serialize
        round-trips faithfully.
        """
        class_iris = self._terms.class_iris
        rows: list[_Row] = [
            (iri, RDF_TYPE, 0, class_iris.get(class_id, class_id), "")
            for iri, class_id in self._nodes.items()
            if class_id
        ]
        rows.extend(self._triples)
        # Arrival order depends on how the graph was built, so this sort
        # alone makes the output order.  A migrated graph's rows arrive one
        # record's block at a time, in record order: runs the sort finds.
        rows.sort()
        return rows

    def write(self, sink: BinaryIO, format: str = "ntriples") -> None:
        """Write deterministic N-Triples or Turtle, one type assertion per
        node, to a binary file object, ``_WRITE_CHUNK`` rows per write."""
        terms = self._terms
        if format == "ntriples":
            header, suffixes = "", _NT_SUFFIXES
            predicates = {iri: f"<{iri}>" for iri in (*terms.property_iris.values(), RDF_TYPE)}
            objects = {iri: f"<{iri}>" for iri in terms.class_iris.values()}
        elif format == "turtle":
            header = (
                f"@prefix aont: <{terms.ontology}> .\n"
                f"@prefix crm: <{CRM_NAMESPACE}> .\n"
                "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
                f"@prefix xsd: <{XSD_NAMESPACE}> .\n\n"
            )
            # Only schema terms get a prefixed name: a node IRI's path may
            # hold a '/', which a prefixed name's local part may not.
            objects, suffixes = terms.turtle_names, _TURTLE_SUFFIXES
            predicates = {**objects, RDF_TYPE: "a"}  # 'a' is a predicate form only
        else:
            raise GraphError(f"unsupported serialization format: {format}")
        sink.write(header.encode("utf-8"))
        rows = self._sorted_rows()
        # Most literal texts hold no character to escape, and the search is
        # cheaper than a translate that changes nothing.  Each line is one
        # f-string, which builds no string per part.
        search, escapes = _LITERAL_ESCAPED.search, _LITERAL_ESCAPES
        for start in range(0, len(rows), _WRITE_CHUNK):
            chunk = [
                f"""<{s}> {predicates.get(p) or f'<{p}>'} {
                    f'"{o if search(o) is None else o.translate(escapes)}"{suffixes[dt]}'
                    if lit else objects.get(o) or f'<{o}>'} ."""
                for s, p, lit, o, dt in rows[start : start + _WRITE_CHUNK]
            ]
            chunk.append("")  # the last line's LF, with no second copy of the text
            sink.write("\n".join(chunk).encode("utf-8"))

    def serialize(self, format: str = "ntriples") -> bytes:
        """The bytes :meth:`write` writes, as one object."""
        buffer = io.BytesIO()
        self.write(buffer, format)
        return buffer.getvalue()

    # -- deserialization -----------------------------------------------------------

    # One line of a block, as exactly one of three forms: a statement, a blank
    # or comment line, or anything else (the last group: not a statement).
    # N-Triples whitespace is space and tab only; other Unicode spaces are not
    # separators.  Space, tab and CR (as of a CRLF) may pad either end of a
    # line.  A literal holds no raw CR (nor LF, which ends a line), nor a lone
    # surrogate, which no UTF-8 output can hold.  An IRI is matched as anything
    # up to its '>', which the regex engine scans with its one-character loop;
    # the reader refuses the first sight of an IRI that holds a character
    # `_IRI_FORBIDDEN` finds.  Only an IRI can hold an LF, so a match that
    # runs on past its line is refused at that line: the same line and
    # message as a pattern that refused the IRI itself.
    _NT_LINE = re.compile(
        r"^[ \t\r]*<([^>]+)>[ \t]+<([^>]+)>[ \t]+"
        r"(?:<([^>]+)>|\"([^\"\\\r\n\ud800-\udfff]*(?:\\.[^\"\\\r\n\ud800-\udfff]*)*)\""
        r"(?:\^\^<([^>]+)>)?)[ \t]*\.[ \t\r]*$"
        r"|^[ \t\r]*(?:#.*)?$"
        r"|^(.*)$",
        re.MULTILINE,
    )

    @classmethod
    def from_ntriples(
        cls,
        data: bytes | str,
        schema: OntologySchema,
        base_iri: str = DEFAULT_BASE_IRI,
    ) -> Graph:
        """Rebuild a graph from N-Triples produced by :meth:`serialize`.

        Predicate IRIs, and class IRIs the schema does not name, are kept
        verbatim so validation can report unknown ones; untyped nodes get
        the class id "".  Each IRI has one string, shared by its node and by
        every row that names it, and one class: a second type line with
        another class is a parse error.  The input is read a block of lines
        at a time, with one lazy scan per block, and the first fault in line
        order is the one raised.  Each distinct IRI is checked once, on the
        line where it is first seen, before anything else on that line.
        """
        graph = cls(schema, base_iri)
        terms = graph._terms
        nodes, rows = graph._nodes, graph._triples
        # Each IRI that passed its check, by what it names; kept for this read only.
        iris: dict[str, str] = {}  # node IRI -> its one string
        predicates = {RDF_TYPE: RDF_TYPE}  # predicate IRI -> its one string
        classes: dict[str, str] = {}  # class IRI -> class id
        datatypes = dict(_IRI_DATATYPES)  # datatype IRI -> datatype tag

        def checked(iri: str, number: int) -> str:
            if _IRI_FORBIDDEN.search(iri) is not None:
                raise NTriplesParseError("not a valid N-Triples statement", number)
            return iri

        # A node named before its type line is untyped until that line.
        def node_iri(iri: str, number: int) -> str:
            known = iris.get(iri)
            if known is None:
                known = iris[iri] = checked(iri, number)
                nodes[iri] = ""
            return known

        # Written output is sorted by subject, so a run of lines shares one.
        last_subject = subject = ""
        for first, block in utf8.blocks(data, NTriplesParseError):
            # One match per line up to the first that runs on, which is
            # refused.  Lazily: a line whose IRI is left open scans on to the
            # next '>', and findall would repeat that from every later line.
            for number, match in enumerate(cls._NT_LINE.finditer(block), first):
                s_iri, p_iri, o_iri, o_text, o_dt, bad = match.groups()
                if not s_iri:
                    if bad:
                        raise NTriplesParseError("not a valid N-Triples statement", number)
                    continue
                # Every IRI of the line is checked before any other fault.
                if s_iri != last_subject:
                    last_subject, subject = s_iri, node_iri(s_iri, number)
                predicate = predicates.get(p_iri)
                if predicate is None:
                    predicate = predicates[p_iri] = checked(p_iri, number)
                if o_iri:
                    if predicate != RDF_TYPE:
                        rows[subject, predicate, 0, node_iri(o_iri, number), ""] = None
                        continue
                    class_id = classes.get(o_iri)
                    if class_id is None:
                        checked(o_iri, number)
                        class_id = classes[o_iri] = terms.class_ids.get(o_iri, o_iri)
                    typed = nodes[subject]
                    if not typed:
                        nodes[subject] = class_id
                    elif typed != class_id:
                        raise NTriplesParseError(
                            f"<{s_iri}> is typed again with another class; a node has one class",
                            number,
                        )
                    continue
                datatype = XSD_STRING
                if o_dt:
                    datatype = datatypes.get(o_dt)
                    if datatype is None:
                        datatype = datatypes[o_dt] = checked(o_dt, number)
                if predicate == RDF_TYPE:
                    raise NTriplesParseError("rdf:type object must be an IRI", number)
                rows[subject, predicate, 1, _unescape_literal(o_text, number), datatype] = None
        return graph
