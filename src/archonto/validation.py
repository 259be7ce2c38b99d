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

from .graph import SHARED_SEGMENT, Graph, _Row, record_prefix
from .ontology import LITERAL_RANGES, OntologySchema, XSD_DATETIME
from .vocabulary import LEVEL_CLASS, LevelNestingGraph, VocabularyRegistry

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

# ASCII digits only: \d would also take other scripts' digits.  The hour's
# range is in the pattern: ISO 8601 also writes midnight as 24:00, which this
# check refuses whatever a Python's fromisoformat makes of it.
_DATETIME_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-9]{2}:[0-9]{2}")


def validate_datetime(text: str) -> bool:
    """Exact YYYY-MM-DDThh:mm:ss check denoting a real proleptic-Gregorian instant."""
    if _DATETIME_RE.fullmatch(text) is None:
        return False
    try:
        datetime.fromisoformat(text)
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


# The graph's own rows by predicate id: (subject IRI, predicate IRI,
# is_literal, object IRI or literal text, datatype tag or "").
_Index = dict[str, list[_Row]]


def _within(schema: OntologySchema, class_id: str, ancestor: str) -> bool | None:
    """Whether a class lies within an ancestor; None for an empty or unknown class."""
    return schema.is_subclass(class_id, ancestor) if schema.has_class(class_id) else None


def _check_triples(
    index: _Index,
    nodes: Mapping[str, str],
    schema: OntologySchema,
    out: _Collector,
) -> None:
    for predicate, rows in index.items():
        if not schema.has_property(predicate):
            for subject, *_ in rows:
                out.add(
                    UNKNOWN_PROPERTY,
                    subject,
                    predicate,
                    f"property {predicate} is not declared in the schema",
                )
            continue
        prop = schema.property_def(predicate)
        literal_range = prop.range in LITERAL_RANGES
        # A predicate's rows hold few distinct (subject class, object class)
        # pairs, None standing for a literal object.  Each pair is judged once,
        # and the rows are walked only to report a pair at fault or to check
        # the lexical form of dateTime literals.
        pairs = {
            (nodes[subject], None if literal else nodes[obj])
            for subject, _, literal, obj, _ in rows
        }
        outside_domain = {s for s, _ in pairs if _within(schema, s, prop.domain) is False}
        outside_range = set() if literal_range else {
            o for _, o in pairs if o is not None and _within(schema, o, prop.range) is False
        }
        misplaced = any((o is None) is not literal_range for _, o in pairs)
        if not (outside_domain or outside_range or misplaced or prop.range == XSD_DATETIME):
            continue
        for subject, _, literal, obj, _ in rows:
            subject_class = nodes[subject]
            if subject_class in outside_domain:
                out.add(
                    DOMAIN_VIOLATION,
                    subject,
                    predicate,
                    f"subject class {subject_class} is outside the "
                    f"domain {prop.domain} of {predicate}",
                )
            if literal_range:
                if not literal:
                    out.add(
                        RANGE_VIOLATION,
                        subject,
                        predicate,
                        f"{predicate} expects a {prop.range} literal, found node {obj}",
                    )
                elif prop.range == XSD_DATETIME and not validate_datetime(obj):
                    out.add(
                        DATETIME_LEXICAL,
                        subject,
                        predicate,
                        f"literal {obj!r} does not match YYYY-MM-DDThh:mm:ss",
                    )
            elif literal:
                out.add(
                    RANGE_VIOLATION,
                    subject,
                    predicate,
                    f"{predicate} expects a {prop.range} node, found literal {obj!r}",
                )
            else:
                object_class = nodes[obj]
                if object_class in outside_range:
                    out.add(
                        RANGE_VIOLATION,
                        subject,
                        predicate,
                        f"object class {object_class} is outside the "
                        f"range {prop.range} of {predicate}",
                    )


def _check_nodes(
    graph: Graph,
    nodes: Mapping[str, str],
    schema: OntologySchema,
    registry: VocabularyRegistry,
    out: _Collector,
) -> None:
    shared_prefix = record_prefix(graph.base_iri, SHARED_SEGMENT)
    for iri, asserted in nodes.items():
        if not schema.has_class(asserted):
            out.add(
                UNKNOWN_CLASS,
                iri,
                asserted or "(untyped)",
                f"node class {asserted or '(untyped)'} is not declared",
            )
            continue
        shared = graph.shared_term(iri) if iri.startswith(shared_prefix) else None
        if shared is not None:
            class_id, term = shared
            if registry.contains(class_id, term) is False:
                out.add(
                    VOCABULARY_VIOLATION,
                    iri,
                    class_id,
                    f"term {term!r} is not in the vocabulary bound to {class_id}",
                )


def _document_levels(
    graph: Graph, arp12: list[_Row]
) -> dict[str, str]:
    # The rows name few level nodes: each distinct one is decoded once.
    level_terms: dict[str, str] = {}
    for obj in {obj for _, _, literal, obj, _ in arp12 if not literal}:
        shared = graph.shared_term(obj)
        if shared is not None and shared[0] == LEVEL_CLASS:
            level_terms[obj] = shared[1]
    # A document with several ARP12 edges already gets a cardinality finding;
    # take the smallest term so the nesting check stays deterministic.
    levels: dict[str, str] = {}
    for subject, _, literal, obj, _ in arp12:
        term = None if literal else level_terms.get(obj)
        if term is not None and (subject not in levels or term < levels[subject]):
            levels[subject] = term
    return levels


def _check_documents(
    graph: Graph,
    index: _Index,
    nodes: Mapping[str, str],
    schema: OntologySchema,
    nesting: LevelNestingGraph,
    out: _Collector,
) -> None:
    arp12 = index.get("ARP12", [])
    arp12_counts = Counter(row[0] for row in arp12)
    documents = {class_id for class_id in set(nodes.values()) if _within(schema, class_id, "E31")}
    for iri, class_id in nodes.items():
        if class_id not in documents:
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
    for subject, _, literal, obj, _ in index.get("P165", ()):
        if literal:
            continue
        # A document with no level (None) lies outside the nesting graph too.
        child_level = levels.get(subject)
        parent_level = levels.get(obj)
        if child_level not in nesting.terms or parent_level not in nesting.terms:
            continue
        if not nesting.allows(parent_level, child_level):
            out.add(
                NESTING_VIOLATION,
                subject,
                "P165",
                f"level {child_level!r} may not nest under {parent_level!r}",
            )


def _check_regex_strings(index: _Index, nodes: Mapping[str, str], out: _Collector) -> None:
    values: dict[str, list[str]] = {}
    for subject, _, literal, text, _ in index.get("DOP7", ()):
        if literal:
            values.setdefault(subject, []).append(text)
    for iri, _, literal, pattern, _ in index.get("DOP4", ()):
        if not literal or nodes.get(iri) != "DOE16":
            continue
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            out.add(REGEX_MISMATCH, iri, "DOP4", f"invalid pattern {pattern!r}: {exc}")
            continue
        for value in values.get(iri, ()):
            if compiled.fullmatch(value) is None:
                out.add(
                    REGEX_MISMATCH,
                    iri,
                    "DOP4",
                    f"value {value!r} does not match pattern {pattern!r}",
                )


def _check_inverses(index: _Index, schema: OntologySchema, out: _Collector) -> None:
    edges = {
        predicate: {
            (subject, obj)
            for subject, _, literal, obj, _ in index.get(predicate, ())
            if not literal
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
    nodes, index = graph._nodes, graph._rows_by_predicate()
    out = _Collector()
    _check_triples(index, nodes, schema, out)
    _check_nodes(graph, nodes, schema, registry, out)
    _check_documents(graph, index, nodes, schema, nesting, out)
    _check_regex_strings(index, nodes, out)
    _check_inverses(index, schema, out)
    # Findings with equal sort keys are equal, so this sort alone fixes the order.
    return ValidationReport(tuple(sorted(out.findings, key=lambda f: f.sort_key())))
