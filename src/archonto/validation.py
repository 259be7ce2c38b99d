"""Graph validation: schema conformance, vocabularies, lexical forms, nesting.

All problems are reported as findings, never raised; equal graphs always
produce byte-identical reports.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import datetime

from .graph import Graph, Literal, NodeRef, Triple
from .ontology import LITERAL_RANGES, OntologySchema, XSD_DATETIME
from .vocabulary import LevelNestingGraph, VocabularyRegistry

ERROR = "error"
WARNING = "warning"

DOMAIN_VIOLATION = "domain-violation"
RANGE_VIOLATION = "range-violation"
VOCABULARY_VIOLATION = "vocabulary-violation"
DATETIME_LEXICAL = "datetime-lexical"
NESTING_VIOLATION = "nesting-violation"
ARP12_CARDINALITY = "arp12-cardinality"
REGEX_MISMATCH = "regex-mismatch"
UNKNOWN_PROPERTY = "unknown-property"
UNKNOWN_CLASS = "unknown-class"
INVERSE_MISSING = "inverse-missing"

FINDING_CODES = frozenset(
    {
        DOMAIN_VIOLATION,
        RANGE_VIOLATION,
        VOCABULARY_VIOLATION,
        DATETIME_LEXICAL,
        NESTING_VIOLATION,
        ARP12_CARDINALITY,
        REGEX_MISMATCH,
        UNKNOWN_PROPERTY,
        UNKNOWN_CLASS,
        INVERSE_MISSING,
    }
)
_WARNING_CODES = frozenset({ARP12_CARDINALITY, INVERSE_MISSING})

# ASCII digits only: \d would also take other scripts' digits, which int() reads.
_DATETIME_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})")


def validate_datetime(text: str) -> bool:
    """Exact YYYY-MM-DDThh:mm:ss check denoting a real proleptic-Gregorian instant."""
    match = _DATETIME_RE.fullmatch(text)
    if match is None:
        return False
    year, month, day, hour, minute, second = (int(g) for g in match.groups())
    if hour > 23 or minute > 59 or second > 59:
        return False
    try:
        datetime(year, month, day, hour, minute, second)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class ValidationFinding:
    severity: str
    code: str
    subject: str
    involved: str
    message: str

    def sort_key(self) -> tuple[str, str, str, str]:
        return (self.subject, self.code, self.involved, self.message)

    def line(self) -> str:
        return f"{self.severity}\t{self.code}\t{self.subject}\t{self.message}"


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[ValidationFinding, ...]

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for f in self.findings if f.severity == WARNING)

    @property
    def errors(self) -> tuple[ValidationFinding, ...]:
        return tuple(f for f in self.findings if f.severity == ERROR)

    def lines(self) -> list[str]:
        return [finding.line() for finding in self.findings]

    def text(self) -> str:
        if not self.findings:
            return "no findings\n"
        body = "\n".join(
            f"{f.severity}: {f.code} at {f.subject} ({f.involved}): {f.message}"
            for f in self.findings
        )
        summary = f"{self.error_count} error(s), {self.warning_count} warning(s)"
        return f"{body}\n{summary}\n"


class _Collector:
    def __init__(self) -> None:
        self.findings: list[ValidationFinding] = []

    def add(self, code: str, subject: str, involved: str, message: str) -> None:
        severity = WARNING if code in _WARNING_CODES else ERROR
        self.findings.append(
            ValidationFinding(severity, code, subject, involved, message)
        )


# Triples by predicate, holding the graph's own Triple objects.
_Index = dict[str, list[Triple]]


def _known_class(schema: OntologySchema, class_id: str) -> bool:
    return bool(class_id) and schema.has_class(class_id)


def _check_triples(index: _Index, schema: OntologySchema, out: _Collector) -> None:
    for predicate, triples in index.items():
        prop = schema.property_def(predicate) if schema.has_property(predicate) else None
        for triple in triples:
            subject, obj = triple.subject, triple.object
            if prop is None:
                out.add(
                    UNKNOWN_PROPERTY,
                    subject.iri,
                    predicate,
                    f"property {predicate} is not declared in the schema",
                )
                continue
            if _known_class(schema, subject.asserted_class) and not schema.is_subclass(
                subject.asserted_class, prop.domain
            ):
                out.add(
                    DOMAIN_VIOLATION,
                    subject.iri,
                    predicate,
                    f"subject class {subject.asserted_class} is outside the "
                    f"domain {prop.domain} of {predicate}",
                )
            if prop.range in LITERAL_RANGES:
                if isinstance(obj, NodeRef):
                    out.add(
                        RANGE_VIOLATION,
                        subject.iri,
                        predicate,
                        f"{predicate} expects a {prop.range} literal, found node {obj.iri}",
                    )
                elif prop.range == XSD_DATETIME and not validate_datetime(obj.text):
                    out.add(
                        DATETIME_LEXICAL,
                        subject.iri,
                        predicate,
                        f"literal {obj.text!r} does not match YYYY-MM-DDThh:mm:ss",
                    )
            elif isinstance(obj, Literal):
                out.add(
                    RANGE_VIOLATION,
                    subject.iri,
                    predicate,
                    f"{predicate} expects a {prop.range} node, found literal {obj.text!r}",
                )
            elif _known_class(schema, obj.asserted_class) and not schema.is_subclass(
                obj.asserted_class, prop.range
            ):
                out.add(
                    RANGE_VIOLATION,
                    subject.iri,
                    predicate,
                    f"object class {obj.asserted_class} is outside the "
                    f"range {prop.range} of {predicate}",
                )


def _check_nodes(
    graph: Graph,
    nodes: Mapping[str, NodeRef],
    schema: OntologySchema,
    registry: VocabularyRegistry,
    out: _Collector,
) -> None:
    for iri, node in nodes.items():
        if not _known_class(schema, node.asserted_class):
            out.add(
                UNKNOWN_CLASS,
                iri,
                node.asserted_class or "(untyped)",
                f"node class {node.asserted_class or '(untyped)'} is not declared",
            )
            continue
        shared = graph.shared_term(node)
        if shared is not None:
            class_id, term = shared
            if registry.contains(class_id, term) is False:
                out.add(
                    VOCABULARY_VIOLATION,
                    iri,
                    class_id,
                    f"term {term!r} is not in the vocabulary bound to {class_id}",
                )


def _document_levels(graph: Graph, arp12: list[Triple]) -> dict[str, str]:
    # A document with several ARP12 edges already gets a cardinality finding;
    # take the smallest term so the nesting check stays deterministic.
    levels: dict[str, str] = {}
    for triple in arp12:
        if not isinstance(triple.object, NodeRef):
            continue
        shared = graph.shared_term(triple.object)
        if shared is not None and shared[0] == "ARE1":
            current = levels.get(triple.subject.iri)
            if current is None or shared[1] < current:
                levels[triple.subject.iri] = shared[1]
    return levels


def _check_documents(
    graph: Graph,
    index: _Index,
    nodes: Mapping[str, NodeRef],
    schema: OntologySchema,
    nesting: LevelNestingGraph,
    out: _Collector,
) -> None:
    arp12 = index.get("ARP12", [])
    arp12_counts = Counter(triple.subject.iri for triple in arp12)
    for iri, node in nodes.items():
        if not _known_class(schema, node.asserted_class):
            continue
        if not schema.is_subclass(node.asserted_class, "E31"):
            continue
        count = arp12_counts[iri]
        if count == 0:
            out.add(
                ARP12_CARDINALITY, iri, "ARP12", "document has no level of description"
            )
        elif count > 1:
            out.add(
                ARP12_CARDINALITY,
                iri,
                "ARP12",
                f"document has {count} levels of description",
            )
    levels = _document_levels(graph, arp12)
    for triple in index.get("P165", ()):
        if not isinstance(triple.object, NodeRef):
            continue
        child_level = levels.get(triple.subject.iri)
        parent_level = levels.get(triple.object.iri)
        if child_level is None or parent_level is None:
            continue
        if child_level not in nesting.terms or parent_level not in nesting.terms:
            continue
        if not nesting.allows(parent_level, child_level):
            out.add(
                NESTING_VIOLATION,
                triple.subject.iri,
                "P165",
                f"level {child_level!r} may not nest under {parent_level!r}",
            )


def _check_regex_strings(index: _Index, nodes: Mapping[str, NodeRef], out: _Collector) -> None:
    values: dict[str, list[str]] = {}
    for triple in index.get("DOP7", ()):
        if isinstance(triple.object, Literal):
            values.setdefault(triple.subject.iri, []).append(triple.object.text)
    for triple in index.get("DOP4", ()):
        iri, pattern = triple.subject.iri, triple.object
        node = nodes.get(iri)
        if not isinstance(pattern, Literal) or node is None or node.asserted_class != "DOE16":
            continue
        try:
            compiled = re.compile(pattern.text)
        except re.error as exc:
            out.add(
                REGEX_MISMATCH, iri, "DOP4", f"invalid pattern {pattern.text!r}: {exc}"
            )
            continue
        for value in values.get(iri, ()):
            if compiled.fullmatch(value) is None:
                out.add(
                    REGEX_MISMATCH,
                    iri,
                    "DOP4",
                    f"value {value!r} does not match pattern {pattern.text!r}",
                )


def _check_inverses(index: _Index, schema: OntologySchema, out: _Collector) -> None:
    edges = {
        predicate: {
            (t.subject.iri, t.object.iri)
            for t in index.get(predicate, ())
            if isinstance(t.object, NodeRef)
        }
        for pair in schema.inverse_pairs
        for predicate in pair
    }
    for left, right in schema.inverse_pairs:
        for a, b in ((left, right), (right, left)):
            for subject, obj in edges[a]:
                if (obj, subject) not in edges[b]:
                    out.add(INVERSE_MISSING, subject, a, f"{a} edge lacks the inverse {b} edge")


def validate_graph(
    graph: Graph,
    schema: OntologySchema,
    registry: VocabularyRegistry,
    nesting: LevelNestingGraph,
) -> ValidationReport:
    """Run every check over a graph and return the ordered findings."""
    nodes = graph.node_index
    index: _Index = {}
    for triple in graph.triples:
        index.setdefault(triple.predicate, []).append(triple)
    out = _Collector()
    _check_triples(index, schema, out)
    _check_nodes(graph, nodes, schema, registry, out)
    _check_documents(graph, index, nodes, schema, nesting, out)
    _check_regex_strings(index, nodes, out)
    _check_inverses(index, schema, out)
    # Findings with equal sort keys are equal, so this sort alone fixes the order.
    return ValidationReport(tuple(sorted(out.findings, key=lambda f: f.sort_key())))
