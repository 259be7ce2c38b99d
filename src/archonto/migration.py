"""Rule application engine: ISAD(G) records to ArchOnto graphs.

Rule choice that the mapping language cannot express lives here: title rules
are picked by title type, date rules by date shape (interval vs single
instant), dimension rules by entry kind, and the description-date rule runs
once per date type.  Node identity is deterministic, and :func:`_node` is its
one owner (the README's "IRI scheme" lists the rules).

Literal emission follows the data-object pattern: when a data property's
domain is a DataObject class and the current node is not, the engine inserts
the carrier node and links it with L2DO hasValue.
"""

from __future__ import annotations

import calendar
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from .graph import DEFAULT_BASE_IRI, Graph, GraphError, Literal, NodeRef, Triple
from .mdl import BindMode, MdlRule, Path, PathStep, RuleSet
from .ontology import (
    LITERAL_RANGES,
    OntologySchema,
    SourceOntology,
    XSD_STRING,
)
from .records import PARENT_FIELD, IsadRecord, RecordTree
from .validation import validate_datetime
from .vocabulary import VocabularyRegistry

# Classes minted at most once per record regardless of how many rule
# applications touch them.
SINGLETON_CLASSES = frozenset({"E31", "E22", "E33", "E12", "E65"})

TYPE_ROOT = "E55"
DOCUMENT_CLASS = "E31"
LINK_PROPERTY = "L2DO"

# Non-blank textual elements copied verbatim onto the document node.
ISAD_FALLBACK_MAP: tuple[tuple[str, str], ...] = (
    ("1.1", "ISAD3"),
    ("1.2", "ISAD1"),
    ("1.3", "ISAD5"),
    ("1.4", "ISAD2"),
    ("1.5", "ISAD6"),
    ("2.2", "ISAD7"),
    ("2.3", "ISAD8"),
    ("2.4", "ISAD26"),
    ("3.1", "ISAD9"),
    ("3.3", "ISAD27"),
    ("3.4", "ISAD19"),
    ("4.1", "ISAD10"),
    ("4.2", "ISAD24"),
    ("4.3", "ISAD14"),
    ("4.4", "ISAD20"),
    ("5.2", "ISAD16"),
    ("5.3", "ISAD15"),
    ("5.4", "ISAD17"),
    ("6.1", "ISAD18"),
    ("7.3", "ISAD21"),
    ("title_type", "ISAD4"),
    ("physical_location", "ISAD11"),
    ("previous_location", "ISAD12"),
    ("original_numbering", "ISAD13"),
    ("description_creation_date", "ISAD21"),
    ("description_last_modification", "ISAD22"),
)


class MigrationError(ValueError):
    pass


class UnboundVariableError(MigrationError):
    def __init__(self, variable: str) -> None:
        super().__init__(
            f"variable {variable} is unbound (was the document rule applied first?)"
        )
        self.variable = variable


class StrictVocabularyError(MigrationError):
    def __init__(self, class_id: str, term: str) -> None:
        super().__init__(f"term {term!r} is not in the vocabulary bound to {class_id}")
        self.class_id = class_id
        self.term = term


class StrictRangeError(MigrationError):
    """Strict mode's refusal of a literal on a node range, or a node on a literal range."""


class DateTextError(MigrationError):
    def __init__(self, text: str) -> None:
        super().__init__(f"cannot interpret date text {text!r}")
        self.text = text


# -- date widening -----------------------------------------------------------

# Year, month or day precision; a full timestamp is left to validate_datetime.
_PARTIAL_DATE_RE = re.compile(r"([0-9]{4})(?:-([0-9]{2})(?:-([0-9]{2}))?)?")


def widen_date_text(text: str, position: str) -> str:
    """Widen year / month / day precision dates to full timestamps.

    ``position`` is ``start``, ``end`` or ``single``; start and single widen
    to the earliest instant of the stated span, end to the latest.  Every
    result must pass :func:`validate_datetime`.
    """
    value = text.strip()
    match = _PARTIAL_DATE_RE.fullmatch(value)
    if match is not None:
        year, month, day = match.groups()
        if position in ("start", "single"):
            value = f"{year}-{month or '01'}-{day or '01'}T00:00:00"
        else:
            month = month or "12"
            if day is None and "01" <= month <= "12":
                day = f"{calendar.monthrange(int(year), int(month))[1]:02d}"
            value = f"{year}-{month}-{day or '01'}T23:59:59"  # a bad month fails below
    if not validate_datetime(value):
        raise DateTextError(text)
    return value


# -- rule application ----------------------------------------------------------


@dataclass(frozen=True)
class Application:
    """One firing of a rule: its capture values, and the terms that name the
    nodes of some classes.  A blank value or term marks an absent optional
    part: every path that reads it is skipped."""

    key: str
    captures: dict[str, str] = field(default_factory=dict)
    class_terms: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class TraceEntry:
    rule_no: int
    application: str | None
    triples: tuple[Triple, ...]
    note: str | None = None


@dataclass(frozen=True)
class RecordProblem:
    reference: str
    severity: str
    message: str

    def line(self) -> str:
        return f"{self.reference}\t{self.severity}\t{self.message}"


@dataclass
class MigrationContext:
    """Per-record state threaded through rule applications."""

    record: IsadRecord
    graph: Graph
    schema: OntologySchema
    registry: VocabularyRegistry
    strict: bool = False
    anchors: dict[str, NodeRef] = field(default_factory=dict)
    value_owners: dict[tuple[str, str], int] = field(default_factory=dict)
    trace: list[TraceEntry] = field(default_factory=list)
    problems: list[RecordProblem] = field(default_factory=list)

    def warn(self, message: str) -> None:
        self.problems.append(
            RecordProblem(self.record.reference_code, "warning", message)
        )


def _role(class_id: str) -> str:
    return class_id.lower()


def _node(
    ctx: MigrationContext, class_id: str, term: str | None, key: str, rule_no: int
) -> NodeRef:
    """The node of ``class_id`` that application ``key`` of rule ``rule_no``
    names by ``term``: the engine's one identity policy.

    * no term: a structural node, once per record for a singleton class
      (``<ref>/e31/1``) and once per application otherwise;
    * a term of a class under E55 Type: a type-like node shared corpus-wide,
      checked against the class's vocabulary in strict mode;
    * any other term: a value node keyed by the term, owned by the first rule
      that mints it; another rule minting the same value gets the role
      ``<class>.<rule>`` and a node of its own.
    """
    if term is None:
        disc = "1" if class_id in SINGLETON_CLASSES else key
        return ctx.graph.mint_node(ctx.record.reference_code, _role(class_id), disc, class_id)
    term = term.strip()
    if ctx.schema.is_subclass(class_id, TYPE_ROOT):
        if ctx.strict and ctx.registry.contains(class_id, term) is False:
            raise StrictVocabularyError(class_id, term)
        return ctx.graph.mint_shared(class_id, term)
    role = _role(class_id)
    if ctx.value_owners.setdefault((class_id, term), rule_no) != rule_no:
        role += f".{rule_no}"
    return ctx.graph.mint_node(ctx.record.reference_code, role, term, class_id)


def _reads_blank(path: Path, app: Application) -> bool:
    """Whether a node step reads a blank capture or names a class with a blank term."""
    for step in path[0::2]:
        binding = step.binding
        if binding is not None and binding.mode is not BindMode.ASSIGN_LITERAL:
            if app.captures.get(binding.value) == "":
                return True
        if app.class_terms.get(step.ident) == "":
            return True
    return False


def apply_rule(ctx: MigrationContext, rule: MdlRule, app: Application) -> list[Triple]:
    """Apply one rule firing; returns the triples it emitted.

    A path is its start node, then ``(edge, node)`` hops: the parser makes
    steps alternate, puts a node at both ends and an emission only last.
    A variable is looked up in the nodes this firing assigned, then in the
    captures, then in the document rule's anchors.
    """
    captures, anchors, terms = app.captures, ctx.anchors, app.class_terms
    mint = partial(_node, ctx, key=app.key, rule_no=rule.rule_no)
    assigned: dict[str, NodeRef] = {}

    def resolve(step: PathStep, edge: str | None) -> NodeRef | Literal:
        binding = step.binding
        if binding is None:
            return mint(step.ident, terms.get(step.ident))
        mode, var = binding.mode, binding.value
        if mode is BindMode.ASSIGN_LITERAL:
            return mint(step.ident, terms.get(step.ident, var))
        if mode is BindMode.EMIT:
            if var not in captures:
                raise UnboundVariableError(var)
            datatype = ctx.schema.property_def(edge).range
            return Literal(captures[var], datatype if datatype in LITERAL_RANGES else XSD_STRING)
        if var in assigned:
            return assigned[var]
        if var in captures:
            if mode is BindMode.DEREF:
                # A textual binding dereferences to the document node of the
                # record that text names (e.g. a parent reference).
                return ctx.graph.mint_node(
                    captures[var], _role(DOCUMENT_CLASS), "1", DOCUMENT_CLASS
                )
            node = assigned[var] = mint(step.ident, captures[var])
            return node
        if var in anchors:
            return anchors[var]
        if mode is BindMode.DEREF:
            raise UnboundVariableError(var)
        node = assigned[var] = mint(step.ident, terms.get(step.ident))
        return node

    paths = rule.paths
    if "" in captures.values() or "" in terms.values():
        paths = tuple(path for path in paths if not _reads_blank(path, app))
    emitted: list[Triple] = []
    for path in paths:
        subject = resolve(path[0], None)
        for edge, step in zip(path[1::2], path[2::2]):
            target = resolve(step, edge.ident)
            prop = ctx.schema.property_def(edge.ident)
            is_literal = isinstance(target, Literal)
            if ctx.strict and prop.has_literal_range is not is_literal:
                got = f"literal {target.text!r}" if is_literal else f"node {target.iri}"
                kind = "literal" if prop.has_literal_range else "node"
                raise StrictRangeError(f"{edge.ident} expects a {prop.range} {kind}, got {got}")
            if (
                is_literal
                and prop.has_literal_range
                and not ctx.schema.is_subclass(subject.asserted_class, prop.domain)
                and ctx.schema.class_def(prop.domain).source is SourceOntology.DATAOBJECT
            ):
                carrier = mint(prop.domain, None)
                emitted.append(ctx.graph.add_triple(subject, LINK_PROPERTY, carrier))
                subject = carrier
            emitted.append(ctx.graph.add_triple(subject, edge.ident, target))
            subject = target
    if rule.selector.name == "ISAD":
        anchors.update(assigned)
    return emitted


# -- selector adapters ---------------------------------------------------------


def _widens(text: str, position: str) -> bool:
    try:
        widen_date_text(text, position)
    except DateTextError:
        return False
    return True


def _widen_or_warn(
    ctx: MigrationContext, text: str, position: str, element: str
) -> str | None:
    try:
        return widen_date_text(text, position)
    except DateTextError:
        ctx.warn(
            f"{element}: date text {text!r} is not usable; "
            "kept as legacy text only"
        )
        return None


def _date_applications(ctx: MigrationContext, rule: MdlRule) -> list[Application]:
    interval = (("production_date_start", "start"), ("production_date_end", "end"))
    if len(rule.selector.captures) == 2:
        key, fields = "interval", interval
    else:
        key, fields = "instant", (("production_date_single", "single"),)
    texts = [ctx.record.text(element) for element, _ in fields]
    if not all(texts):
        return []
    widened = [
        _widen_or_warn(ctx, text, position, "production date")
        for text, (_, position) in zip(texts, fields)
    ]
    if None in widened:
        return []
    # One Production has one time-span, and an interval that is written (both
    # ends widen) wins over an instant.
    if key == "instant" and all(_widens(ctx.record.text(e), p) for e, p in interval):
        ctx.warn(f"production date: single date {texts[0]!r} ignored for the interval")
        return []
    return [Application(key, dict(zip(rule.selector.captures, widened)))]


# Description dates: application key, element, warning label, class terms
# (the modification date names its date type in place of the rule's literal).
_DESCRIPTION_DATES = (
    ("creation", "description_creation_date", "description creation date", {}),
    ("modification", "description_last_modification", "description last modification",
     {"ARE6": "Last Modification"}),
)


def _description_date_applications(
    ctx: MigrationContext, rule: MdlRule
) -> list[Application]:
    apps = []
    for key, element, label, class_terms in _DESCRIPTION_DATES:
        text = ctx.record.text(element)
        widened = _widen_or_warn(ctx, text, "single", label) if text else None
        if widened is not None:
            apps.append(Application(key, {rule.selector.captures[0]: widened}, class_terms))
    return apps


def _measure_applications(
    ctx: MigrationContext, rule: MdlRule, *, kind: str
) -> list[Application]:
    capture = rule.selector.captures[0]
    entries = [e for e in ctx.record.value("dimensions") or [] if e.get("kind", "dimension") == kind]
    apps = []
    for index, entry in enumerate(entries, start=1):
        raw_value = entry.get("value")
        value = str(raw_value).strip() if raw_value is not None else ""
        unit = (entry.get("unit") or "").strip()
        if value or unit:
            apps.append(Application(str(index), {capture: value}, {"E58": unit}))
    return apps


def _term_list_applications(
    ctx: MigrationContext, rule: MdlRule, *, element: str
) -> list[Application]:
    capture = rule.selector.captures[0]
    terms = ctx.record.value(element) or []
    return [
        Application(str(index), {capture: term.strip()})
        for index, term in enumerate(terms, start=1)
        if term.strip()
    ]


def _element_applications(
    ctx: MigrationContext, rule: MdlRule, *, element: str, title_type: str | None = None
) -> list[Application]:
    """One application for a non-blank scalar element; the title rules also
    require the record's title type (an unset type counts as ``absent``)."""
    record = ctx.record
    if title_type is not None and (record.text("title_type") or "absent") != title_type:
        return []
    value = record.parent_reference if element == PARENT_FIELD else record.text(element)
    return [Application("1", {rule.selector.captures[0]: value})] if value else []


def _creator_applications(ctx: MigrationContext, rule: MdlRule) -> list[Application]:
    apps = []
    for index, entry in enumerate(ctx.record.value("creators") or [], start=1):
        name = (entry.get("name") or "").strip()
        role = (entry.get("role") or "").strip()
        if not name:
            ctx.warn(f"creator entry {index} has no name; skipped")
            continue
        apps.append(Application(str(index), dict(zip(rule.selector.captures, (name, role)))))
    return apps


# Selector name -> adapter yielding a rule's applications to one record.
# The dispatcher calls an adapter only when the selector has captures.
_ADAPTERS: dict[str, Callable[[MigrationContext, MdlRule], list[Application]]] = {
    "Description Level": partial(_element_applications, element="1.4"),
    "Reference Code": partial(_element_applications, element="1.1"),
    "Title": partial(_element_applications, element="1.2", title_type="absent"),
    "Formal Title": partial(_element_applications, element="1.2", title_type="formal"),
    "Supplied Title": partial(_element_applications, element="1.2", title_type="supplied"),
    "Production Date": _date_applications,
    "Dimension": partial(_measure_applications, kind="dimension"),
    "Extension": partial(_measure_applications, kind="extension"),
    "Support": partial(_term_list_applications, element="supports"),
    "Language": partial(_term_list_applications, element="languages"),
    "Physical Location": partial(_element_applications, element="physical_location"),
    "Original Numbering": partial(_element_applications, element="original_numbering"),
    "Previous Location": partial(_element_applications, element="previous_location"),
    "Creation Date": _description_date_applications,
    "Parent Record": partial(_element_applications, element=PARENT_FIELD),
    "Creator": _creator_applications,
}


def _applications_for(ctx: MigrationContext, rule: MdlRule) -> list[Application] | None:
    """The rule's applications to the record; None for an unknown selector."""
    if rule.selector.name == "ISAD":
        return [Application("1")]
    adapter = _ADAPTERS.get(rule.selector.name)
    if adapter is None:
        return None
    return adapter(ctx, rule) if rule.selector.captures else []


# -- record and corpus drivers ---------------------------------------------------


@dataclass
class RecordMigration:
    graph: Graph
    trace: tuple[TraceEntry, ...]
    problems: tuple[RecordProblem, ...]


def migrate_record(
    record: IsadRecord,
    rules: RuleSet,
    schema: OntologySchema,
    registry: VocabularyRegistry,
    *,
    base_iri: str = DEFAULT_BASE_IRI,
    strict: bool = False,
) -> RecordMigration:
    """Apply the rule set to one (already resolved) record; a rule's migration
    or graph error is raised as ``MigrationError("rule N (key): reason")``."""
    graph = Graph(schema, base_iri)
    ctx = MigrationContext(record, graph, schema, registry, strict)
    for rule in rules.application_order:
        apps = _applications_for(ctx, rule)
        if apps is None:
            ctx.warn(f"rule {rule.rule_no}: no engine adapter for selector "
                     f"{rule.selector.name!r}; rule skipped")
            ctx.trace.append(TraceEntry(rule.rule_no, None, (), "unknown selector"))
            continue
        if not apps:
            ctx.trace.append(TraceEntry(rule.rule_no, None, (), "element blank; skipped"))
            continue
        for app in apps:
            try:
                triples = apply_rule(ctx, rule, app)
            except (MigrationError, GraphError) as exc:
                raise MigrationError(f"rule {rule.rule_no} ({app.key}): {exc}") from exc
            ctx.trace.append(TraceEntry(rule.rule_no, app.key, tuple(triples)))
    return RecordMigration(graph, tuple(ctx.trace), tuple(ctx.problems))


def attach_isad_fallback(record: IsadRecord, graph: Graph) -> Graph:
    """Copy every mapped non-blank textual element verbatim onto the document."""
    document = graph.mint_node(
        record.reference_code, _role(DOCUMENT_CLASS), "1", DOCUMENT_CLASS
    )
    for element, property_id in ISAD_FALLBACK_MAP:
        value = record.value(element)
        if not isinstance(value, str) or not value.strip():
            continue
        if element == "title_type" and value.strip() == "absent":
            continue
        graph.add_triple(document, property_id, Literal(value))
    return graph


@dataclass
class MigrationResult:
    graph: Graph
    problems: tuple[RecordProblem, ...]
    record_count: int

    @property
    def has_errors(self) -> bool:
        return any(problem.severity == "error" for problem in self.problems)

    def report_lines(self) -> list[str]:
        return [problem.line() for problem in self.problems]


def migrate_tree(
    tree: RecordTree,
    rules: RuleSet,
    schema: OntologySchema,
    registry: VocabularyRegistry,
    *,
    base_iri: str = DEFAULT_BASE_IRI,
    strict: bool = False,
    fail_fast: bool = False,
) -> MigrationResult:
    """Migrate every record of a resolved tree into one deterministic graph.
    A record that raises adds no triple, only one ``error`` problem; with
    ``fail_fast`` it stops the run."""
    graph = Graph(schema, base_iri)
    problems: list[RecordProblem] = []
    for reference in sorted(tree.records):
        record = tree.records[reference]
        try:
            outcome = migrate_record(
                record, rules, schema, registry, base_iri=base_iri, strict=strict
            )
            attach_isad_fallback(record, outcome.graph)
            graph.absorb(outcome.graph)
        except (MigrationError, GraphError) as exc:
            if fail_fast:
                raise MigrationError(f"record {reference}: {exc}") from exc
            problems.append(RecordProblem(reference, "error", str(exc)))
            continue
        problems.extend(outcome.problems)
    problems.sort(key=lambda p: (p.reference, p.severity, p.message))
    return MigrationResult(graph, tuple(problems), len(tree.records))
