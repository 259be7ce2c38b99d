"""Graph validation: schema conformance, vocabularies, lexical forms, nesting.

All problems are reported as findings, never raised; equal graphs always
produce byte-identical reports.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from datetime import datetime

from .graph import SHARED_SEGMENT, Graph, _Row, record_prefix
from .ontology import LITERAL_RANGES, OntologySchema, PropertyDef, XSD_DATETIME
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
    code: str
    subject: str
    involved: str
    message: str

    @property
    def severity(self) -> str:
        return WARNING if self.code in _WARNING_CODES else ERROR

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


# The graph's own rows by the kind the triple check judges: (predicate IRI,
# subject class, object class or None for a literal).
_Kinds = dict[tuple[str, str, str | None], list[_Row]]
# The rows of one predicate id, its IRI's and its bare id's alike.
_RowsOf = Callable[[str], list[_Row]]

_Findings = list[ValidationFinding]

# A finding that every row of one kind gets: its code, the judged text, and
# how the row's object ends the message (str or repr), or None if it does not.
_Judged = tuple[str, str, Callable[[str], str] | None]


def _within(schema: OntologySchema, class_id: str, ancestor: str) -> bool | None:
    """Whether a class lies within an ancestor; None for an empty or unknown class."""
    return schema.is_subclass(class_id, ancestor) if schema.has_class(class_id) else None


def _judge(
    schema: OntologySchema,
    predicate: str,
    prop: PropertyDef | None,
    subject_class: str,
    object_class: str | None,
) -> tuple[_Judged, ...]:
    """The findings every row of one kind of a predicate's rows gets; an
    undeclared predicate (no ``prop``) is judged like any other."""
    if prop is None:
        return ((UNKNOWN_PROPERTY, f"property {predicate} is not declared in the schema", None),)
    judged = []
    if _within(schema, subject_class, prop.domain) is False:
        judged.append((DOMAIN_VIOLATION, f"subject class {subject_class} is outside the "
                       f"domain {prop.domain} of {predicate}", None))
    if prop.range in LITERAL_RANGES:
        if object_class is not None:
            judged.append((RANGE_VIOLATION, f"{predicate} expects a {prop.range} literal, "
                           "found node ", str))
    elif object_class is None:
        judged.append((RANGE_VIOLATION, f"{predicate} expects a {prop.range} node, "
                       "found literal ", repr))
    elif _within(schema, object_class, prop.range) is False:
        judged.append((RANGE_VIOLATION, f"object class {object_class} is outside the "
                       f"range {prop.range} of {predicate}", None))
    return tuple(judged)


def _check_triples(
    kinds: _Kinds,
    property_ids: Mapping[str, str],
    schema: OntologySchema,
    out: _Findings,
) -> None:
    # Each kind is judged once; its rows are walked only for a finding that
    # every one of them gets, and to check the lexical form of dateTime literals.
    for (iri, subject_class, object_class), rows in kinds.items():
        predicate = property_ids.get(iri, iri)
        prop = schema.property_def(predicate) if schema.has_property(predicate) else None
        for code, text, shown in _judge(schema, predicate, prop, subject_class, object_class):
            for subject, _, _, obj, _ in rows:
                message = text if shown is None else text + shown(obj)
                out.append(ValidationFinding(code, subject, predicate, message))
        if object_class is None and prop is not None and prop.range == XSD_DATETIME:
            for subject, _, _, obj, _ in rows:
                if not validate_datetime(obj):
                    out.append(ValidationFinding(DATETIME_LEXICAL, subject, predicate,
                                                 f"literal {obj!r} does not match YYYY-MM-DDThh:mm:ss"))


def _check_nodes(
    graph: Graph,
    nodes: Mapping[str, str],
    schema: OntologySchema,
    registry: VocabularyRegistry,
    out: _Findings,
) -> None:
    shared_prefix = record_prefix(graph.base_iri, SHARED_SEGMENT)
    for iri, asserted in nodes.items():
        if not schema.has_class(asserted):
            out.append(ValidationFinding(
                UNKNOWN_CLASS,
                iri,
                asserted or "(untyped)",
                f"node class {asserted or '(untyped)'} is not declared",
            ))
            continue
        shared = graph.shared_term(iri) if iri.startswith(shared_prefix) else None
        if shared is not None:
            class_id, term = shared
            if registry.contains(class_id, term) is False:
                out.append(ValidationFinding(
                    VOCABULARY_VIOLATION,
                    iri,
                    class_id,
                    f"term {term!r} is not in the vocabulary bound to {class_id}",
                ))


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
    rows_of: _RowsOf,
    nodes: Mapping[str, str],
    schema: OntologySchema,
    nesting: LevelNestingGraph,
    out: _Findings,
) -> None:
    arp12 = rows_of("ARP12")
    arp12_counts = Counter(row[0] for row in arp12)
    documents = {class_id for class_id in set(nodes.values()) if _within(schema, class_id, "E31")}
    for iri, class_id in nodes.items():
        if class_id not in documents:
            continue
        count = arp12_counts[iri]
        if count == 0:
            out.append(ValidationFinding(
                ARP12_CARDINALITY, iri, "ARP12", "document has no level of description"
            ))
        elif count > 1:
            out.append(ValidationFinding(
                ARP12_CARDINALITY,
                iri,
                "ARP12",
                f"document has {count} levels of description",
            ))
    levels = _document_levels(graph, arp12)
    for subject, _, literal, obj, _ in rows_of("P165"):
        if literal:
            continue
        # A document with no level (None) lies outside the nesting graph too.
        child_level = levels.get(subject)
        parent_level = levels.get(obj)
        if child_level not in nesting.terms or parent_level not in nesting.terms:
            continue
        if not nesting.allows(parent_level, child_level):
            out.append(ValidationFinding(
                NESTING_VIOLATION,
                subject,
                "P165",
                f"level {child_level!r} may not nest under {parent_level!r}",
            ))


def _check_regex_strings(rows_of: _RowsOf, nodes: Mapping[str, str], out: _Findings) -> None:
    values: dict[str, list[str]] = {}
    for subject, _, literal, text, _ in rows_of("DOP7"):
        if literal:
            values.setdefault(subject, []).append(text)
    for iri, _, literal, pattern, _ in rows_of("DOP4"):
        if not literal or nodes.get(iri) != "DOE16":
            continue
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            out.append(ValidationFinding(
                REGEX_MISMATCH, iri, "DOP4", f"invalid pattern {pattern!r}: {exc}"
            ))
            continue
        for value in values.get(iri, ()):
            if compiled.fullmatch(value) is None:
                out.append(ValidationFinding(
                    REGEX_MISMATCH,
                    iri,
                    "DOP4",
                    f"value {value!r} does not match pattern {pattern!r}",
                ))


def _check_inverses(rows_of: _RowsOf, schema: OntologySchema, out: _Findings) -> None:
    edges = {predicate: {(s, o) for s, _, literal, o, _ in rows_of(predicate) if not literal}
             for pair in schema.inverse_pairs for predicate in pair}
    for left, right in schema.inverse_pairs:
        for a, b in ((left, right), (right, left)):
            for subject, obj in edges[a]:
                if (obj, subject) not in edges[b]:
                    out.append(ValidationFinding(
                        INVERSE_MISSING, subject, a, f"{a} edge lacks the inverse {b} edge"
                    ))


def validate_graph(
    graph: Graph,
    schema: OntologySchema,
    registry: VocabularyRegistry,
    nesting: LevelNestingGraph,
) -> ValidationReport:
    """Run every check over a graph and return the ordered findings."""
    nodes, property_ids = graph._nodes, graph._terms.property_ids
    # One pass groups the stored rows (not copies) by the kind the triple check judges.
    kinds: _Kinds = defaultdict(list)
    for row in graph._triples:
        kinds[row[1], nodes[row[0]], None if row[2] else nodes[row[3]]].append(row)

    def rows_of(predicate: str) -> list[_Row]:
        return [row for (iri, _, _), rows in kinds.items()
                if property_ids.get(iri, iri) == predicate for row in rows]

    out: _Findings = []
    _check_triples(kinds, property_ids, schema, out)
    _check_nodes(graph, nodes, schema, registry, out)
    _check_documents(graph, rows_of, nodes, schema, nesting, out)
    _check_regex_strings(rows_of, nodes, out)
    _check_inverses(rows_of, schema, out)
    # Findings with equal sort keys are equal, so this sort alone fixes the order.
    return ValidationReport(tuple(sorted(out, key=lambda f: f.sort_key())))
