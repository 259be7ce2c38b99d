"""Rule application engine: ISAD(G) records to ArchOnto graphs.

Rule choice that the mapping language cannot express lives here: title rules
are picked by title type, date rules by date shape (interval vs single
instant), dimension rules by entry kind, and the description-date rule runs
once per date type.  Each rule is compiled once per run into a plan of plain
tuples holding all it needs from the schema; a per-record emitter walks the
plans and writes rows straight into the run's one graph.  Node identity is
deterministic (the README's "IRI scheme" lists the rules), and every node
the engine names is claimed through ``Graph.register_node``, the one check
that an IRI keeps one class.

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
from typing import NamedTuple

from .graph import DEFAULT_BASE_IRI, SHARED_SEGMENT, Graph, GraphError
from .graph import _encode, _term_table
from .mdl import BindMode, MdlRule, PathStep, RuleSet, StepKind
from .ontology import LITERAL_RANGES, XSD_STRING, OntologySchema, SourceOntology
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
    ("1.1", "ISAD3"), ("1.2", "ISAD1"), ("1.3", "ISAD5"), ("1.4", "ISAD2"), ("1.5", "ISAD6"),
    ("2.2", "ISAD7"), ("2.3", "ISAD8"), ("2.4", "ISAD26"),
    ("3.1", "ISAD9"), ("3.3", "ISAD27"), ("3.4", "ISAD19"),
    ("4.1", "ISAD10"), ("4.2", "ISAD24"), ("4.3", "ISAD14"), ("4.4", "ISAD20"),
    ("5.2", "ISAD16"), ("5.3", "ISAD15"), ("5.4", "ISAD17"), ("6.1", "ISAD18"), ("7.3", "ISAD21"),
    ("title_type", "ISAD4"), ("physical_location", "ISAD11"), ("previous_location", "ISAD12"),
    ("original_numbering", "ISAD13"), ("description_creation_date", "ISAD21"),
    ("description_last_modification", "ISAD22"),
)


class MigrationError(ValueError):
    pass


class UnboundVariableError(MigrationError):
    def __init__(self, variable: str) -> None:
        super().__init__(f"variable {variable} is unbound (was the document rule applied first?)")


class DateTextError(MigrationError):
    def __init__(self, text: str) -> None:
        super().__init__(f"cannot interpret date text {text!r}")


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


# -- rule plans ----------------------------------------------------------------


@dataclass(frozen=True)
class Application:
    """One firing of a rule: its capture values, and the terms that name the
    nodes of some classes.  A blank value or term marks an absent optional
    part: every path that reads it is skipped."""

    key: str
    captures: dict[str, str] = field(default_factory=dict)
    class_terms: dict[str, str] = field(default_factory=dict)


class TraceEntry(NamedTuple):
    rule_no: int
    application: str | None
    triples: int  # rows the firing wrote
    note: str | None = None


# Node step kinds besides a class node with no binding (None).
_LITERAL, _DEREF, _EMIT = BindMode.ASSIGN_LITERAL, BindMode.DEREF, BindMode.EMIT
_DATAOBJECT = SourceOntology.DATAOBJECT


# What the emitter needs to find or mint the node of one node step.
class _Step(NamedTuple):
    kind: BindMode | None
    var: str | None  # the bound variable, or the literal term
    class_id: str  # for a dereference, E31: the document a capture names
    role: str  # encoded role segment
    alt_role: str  # encoded role of a value node that another rule owns
    shared: str | None  # IRI prefix of the individuals of a class under E55
    singleton: bool
    rule_no: int


# A rule's plan is (rule, paths, whether it is an ISAD rule, whose assignments
# become the record's anchors).  A path is (start step, hops, the captures and
# the classes whose blank value or term skips it).  A hop is (predicate IRI,
# step, datatype of an emitted literal, strict mode's refusal less what it
# got, and (L2DO IRI, DataObject step) for the carrier of a literal).
_RulePlan = tuple[MdlRule, tuple, bool]


def _compile_rule(rule: MdlRule, schema: OntologySchema, base_iri: str) -> _RulePlan:
    """Look up once what every firing of ``rule`` needs from the schema."""
    property_iris = _term_table(schema, base_iri).property_iris
    shared = base_iri + _encode(SHARED_SEGMENT) + "/"

    def step(path_step: PathStep) -> _Step:
        binding = path_step.binding
        kind, var = (binding.mode, binding.value) if binding else (None, None)
        class_id = DOCUMENT_CLASS if kind is _DEREF else path_step.ident or ""
        role = _role(class_id) if class_id else ""
        type_like = class_id and schema.is_subclass(class_id, TYPE_ROOT)
        shared_prefix = f"{shared}{_encode(class_id)}/" if type_like else None
        return _Step(kind, var, class_id, _encode(role), _encode(f"{role}.{rule.rule_no}"),
                     shared_prefix, class_id in SINGLETON_CLASSES, rule.rule_no)

    def hop(edge: PathStep, node: PathStep) -> tuple:
        prop, target = schema.property_def(edge.ident), step(node)
        literal_range, emits = prop.has_literal_range, target.kind is _EMIT
        carrier = mismatch = None
        if emits and literal_range and schema.class_def(prop.domain).source is _DATAOBJECT:
            carrier = property_iris[LINK_PROPERTY], step(PathStep(StepKind.NODE, prop.domain))
        if literal_range is not emits:
            kind = "literal" if literal_range else "node"
            mismatch = f"{edge.ident} expects a {prop.range} {kind}, got "
        datatype = prop.range if prop.range in LITERAL_RANGES else XSD_STRING
        return property_iris[edge.ident], target, datatype, mismatch, carrier

    paths = []
    for path in rule.paths:
        nodes = path[0::2]
        reads = tuple(s.binding.value for s in nodes if s.binding and s.binding.mode is not _LITERAL)
        classes = tuple(s.ident for s in nodes if s.ident is not None)
        hops = tuple(hop(edge, node) for edge, node in zip(path[1::2], path[2::2]))
        paths.append((step(path[0]), hops, reads, classes))
    return rule, tuple(paths), rule.selector.name == "ISAD"


def _compile(rules: RuleSet, schema: OntologySchema, base_iri: str) -> tuple[_RulePlan, ...]:
    """The plans of a rule set, in application order, for one run."""
    return tuple(_compile_rule(rule, schema, base_iri) for rule in rules.application_order)


def range_mismatches(rules: RuleSet, schema: OntologySchema) -> list[str]:
    """``rule N: ...`` for each hop that emits a literal on a node range or
    a node on a literal range, by rule number.  Strict migration refuses a
    record that fires such a hop; otherwise its rows are written and
    validation reports them."""
    found = [
        (rule.rule_no,
         f"rule {rule.rule_no}: {mismatch}a {'literal' if step.kind is _EMIT else 'node'}")
        for rule, paths, _ in _compile(rules, schema, DEFAULT_BASE_IRI)
        for _, hops, _, _ in paths
        for _, step, _, mismatch, _ in hops
        if mismatch is not None
    ]
    return [line for _, line in sorted(found, key=lambda pair: pair[0])]


# -- rule application ----------------------------------------------------------


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
    registry: VocabularyRegistry
    strict: bool = False
    anchors: dict[str, str] = field(default_factory=dict)
    value_owners: dict[tuple[str, str], int] = field(default_factory=dict)
    trace: list[TraceEntry] = field(default_factory=list)
    problems: list[RecordProblem] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.prefix = self.graph.base_iri + _encode(self.record.reference_code) + "/"

    def warn(self, message: str) -> None:
        self.problems.append(RecordProblem(self.record.reference_code, "warning", message))


def _role(class_id: str) -> str:
    return class_id.lower()


def _node(ctx: MigrationContext, step: _Step, term: str | None, key: str) -> str:
    """The IRI of the node of ``step`` that application ``key`` names by ``term``.  No
    term: a structural node, once per record for a singleton class and once
    per application otherwise.  A term of a class under E55 Type: a node
    shared corpus-wide, checked against the vocabulary in strict mode.  Any
    other term: a value node, owned by the first rule that mints the term;
    another rule gets the role ``<class>.<rule>`` and a node of its own."""
    if term is None:
        iri = ctx.prefix + step.role + ("/1" if step.singleton else "/" + _encode(key))
    else:
        term = term.strip()
        if step.shared is not None:
            if ctx.strict and ctx.registry.contains(step.class_id, term) is False:
                raise MigrationError(
                    f"term {term!r} is not in the vocabulary bound to {step.class_id}"
                )
            iri = step.shared + _encode(term)
        else:
            owner = ctx.value_owners.setdefault((step.class_id, term), step.rule_no)
            role = step.role if owner == step.rule_no else step.alt_role
            iri = ctx.prefix + role + "/" + _encode(term)
    return ctx.graph.register_node(iri, step.class_id)


def _resolve(ctx: MigrationContext, step: _Step, app: Application, assigned: dict) -> str:
    """The node IRI of a step that is not an emission.  A variable is looked up
    in the nodes this firing assigned, then in the captures, then in the
    document rule's anchors."""
    kind, var = step.kind, step.var
    if kind is None or kind is _LITERAL:
        return _node(ctx, step, app.class_terms.get(step.class_id, var), app.key)
    node = assigned.get(var)
    if node is not None:
        return node
    captures = app.captures
    if var in captures:
        if kind is _DEREF:
            # Text dereferences to the document of the record it names (a parent).
            iri = ctx.graph.base_iri + _encode(captures[var]) + "/" + step.role + "/1"
            return ctx.graph.register_node(iri, DOCUMENT_CLASS)
        node = assigned[var] = _node(ctx, step, captures[var], app.key)
        return node
    node = ctx.anchors.get(var)
    if node is not None:
        return node
    if kind is _DEREF:
        raise UnboundVariableError(var)
    node = assigned[var] = _node(ctx, step, app.class_terms.get(step.class_id), app.key)
    return node


def _emit(ctx: MigrationContext, paths: tuple, document: bool, app: Application) -> int:
    """Write one firing into the run's graph; returns the rows written.  A
    path is its start node, then ``(edge, node)`` hops: the parser makes steps
    alternate, puts a node at both ends and an emission only last."""
    if not ctx.record.reference_code:
        raise GraphError("record_ref must be non-empty")
    captures, terms, rows, strict = app.captures, app.class_terms, ctx.graph._triples, ctx.strict
    nodes, is_subclass = ctx.graph._nodes, ctx.graph.schema.is_subclass
    if "" in captures.values() or "" in terms.values():
        paths = [path for path in paths
                 if "" not in map(captures.get, path[2]) and "" not in map(terms.get, path[3])]
    assigned: dict[str, str] = {}
    count = 0
    for start, hops, _, _ in paths:
        subject = _resolve(ctx, start, app, assigned)
        for predicate, step, datatype, mismatch, carrier in hops:
            count += 1
            if step.kind is not _EMIT:
                target = _resolve(ctx, step, app, assigned)
                if strict and mismatch is not None:
                    raise MigrationError(f"{mismatch}node {target}")
                rows[subject, predicate, 0, target, ""] = None
                subject = target
                continue
            if step.var not in captures:
                raise UnboundVariableError(step.var)
            text = captures[step.var]
            if strict and mismatch is not None:
                raise MigrationError(f"{mismatch}literal {text!r}")
            if carrier is not None and not is_subclass(nodes[subject], carrier[1].class_id):
                node = _node(ctx, carrier[1], None, app.key)
                rows[subject, carrier[0], 0, node, ""] = None
                subject, count = node, count + 1
            rows[subject, predicate, 1, text, datatype] = None
    if document:
        ctx.anchors.update(assigned)
    return count


# -- selector adapters ---------------------------------------------------------


def _widen(ctx: MigrationContext, text: str, position: str, element: str | None) -> str | None:
    """The widened date text, or None; the warning names ``element``, if given."""
    try:
        return widen_date_text(text, position)
    except DateTextError:
        if element is not None:
            ctx.warn(f"{element}: date text {text!r} is not usable; kept as legacy text only")
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
    positions = [position for _, position in fields]
    widened = [_widen(ctx, text, p, "production date") for text, p in zip(texts, positions)]
    if None in widened:
        return []
    # One Production has one time-span, and an interval that is written (both
    # ends widen) wins over an instant.
    if key == "instant" and all(_widen(ctx, ctx.record.text(e), p, None) for e, p in interval):
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


def _description_date_applications(ctx: MigrationContext, rule: MdlRule) -> list[Application]:
    apps = []
    for key, element, label, class_terms in _DESCRIPTION_DATES:
        text = ctx.record.text(element)
        widened = _widen(ctx, text, "single", label) if text else None
        if widened is not None:
            apps.append(Application(key, {rule.selector.captures[0]: widened}, class_terms))
    return apps


def _measure_applications(ctx: MigrationContext, rule: MdlRule, *, kind: str) -> list[Application]:
    capture = rule.selector.captures[0]
    entries = ctx.record.value("dimensions") or []
    entries = [e for e in entries if e.get("kind", "dimension") == kind]
    apps = []
    for index, entry in enumerate(entries, start=1):
        raw_value = entry.get("value")
        value = str(raw_value).strip() if raw_value is not None else ""
        unit = (entry.get("unit") or "").strip()
        if value or unit:
            apps.append(Application(str(index), {capture: value}, {"E58": unit}))
    return apps


def _term_list_applications(ctx: MigrationContext, rule: MdlRule, *, element: str) -> list:
    capture = rule.selector.captures[0]
    terms = [term.strip() for term in ctx.record.value(element) or []]
    return [Application(str(i), {capture: term}) for i, term in enumerate(terms, start=1) if term]


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
    run: tuple[tuple[_RulePlan, ...], Graph] | None = None,
) -> RecordMigration:
    """Apply the rule set to one (already resolved) record; a rule's migration
    or graph error is raised as ``MigrationError("rule N (key): reason")``.
    Without ``run``, one run's plans (see :func:`_compile`) and graph, both are made anew."""
    graph = run[1] if run else Graph(schema, base_iri)
    plans = run[0] if run else _compile(rules, schema, graph.base_iri)
    ctx = MigrationContext(record, graph, registry, strict)
    for rule, paths, document in plans:
        apps = _applications_for(ctx, rule)
        if apps is None:
            ctx.warn(f"rule {rule.rule_no}: no engine adapter for selector "
                     f"{rule.selector.name!r}; rule skipped")
        if not apps:
            note = "unknown selector" if apps is None else "element blank; skipped"
            ctx.trace.append(TraceEntry(rule.rule_no, None, 0, note))
            continue
        for app in apps:
            try:
                count = _emit(ctx, paths, document, app)
            except (MigrationError, GraphError) as exc:
                raise MigrationError(f"rule {rule.rule_no} ({app.key}): {exc}") from exc
            ctx.trace.append(TraceEntry(rule.rule_no, app.key, count))
    return RecordMigration(graph, tuple(ctx.trace), tuple(ctx.problems))


def attach_isad_fallback(record: IsadRecord, graph: Graph) -> Graph:
    """Copy every mapped non-blank textual element verbatim onto the document."""
    document = graph.mint_node(record.reference_code, _role(DOCUMENT_CLASS), "1", DOCUMENT_CLASS)
    property_iris, rows = _term_table(graph.schema, graph.base_iri).property_iris, graph._triples
    for element, property_id in ISAD_FALLBACK_MAP:
        value = record.value(element)
        text = value.strip() if isinstance(value, str) else ""
        if text and not (element == "title_type" and text == "absent"):
            rows[document, property_iris[property_id], 1, value, XSD_STRING] = None
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
    A record that raises is undone, and adds only one ``error`` problem; with
    ``fail_fast`` it stops the run."""
    graph = Graph(schema, base_iri)
    run = _compile(rules, schema, graph.base_iri), graph
    problems: list[RecordProblem] = []
    for reference in sorted(tree.records):
        record = tree.records[reference]
        marks = len(graph._nodes), len(graph._triples)
        try:
            outcome = migrate_record(
                record, rules, schema, registry, base_iri=base_iri, strict=strict, run=run
            )
            attach_isad_fallback(record, graph)
        except (MigrationError, GraphError) as exc:
            # A record only adds to both insertion-ordered dicts: pop back to the marks.
            for table, mark in zip((graph._nodes, graph._triples), marks):
                for _ in range(len(table) - mark):
                    table.popitem()
            if fail_fast:
                raise MigrationError(f"record {reference}: {exc}") from exc
            problems.append(RecordProblem(reference, "error", str(exc)))
            continue
        problems.extend(outcome.problems)
    problems.sort(key=lambda p: (p.reference, p.severity, p.message))
    return MigrationResult(graph, tuple(problems), len(tree.records))
