"""Rule application engine: ISAD(G) records to ArchOnto graphs.

Rule choice that the mapping language cannot express lives here: title rules
are picked by title type, date rules by date shape (interval vs single
instant), dimension rules by entry kind, and the description-date rule runs
once per date type.

When a run starts (``_Run.start``), each rule gets its plan: the rule, its
kernel and the adapter that yields its firings as plain ``(key, captures,
terms)`` tuples.  A kernel is one generated Python function, ``fire(ctx,
app)``, that writes one firing's rows straight into the run's one graph and
returns their count.  Every kernel opens with the same head (its
application and its record's prefix, anchors and value owners), then each
path's skip test, node lookups, rows and carrier checks as straight-line
code.  A variable lives in a local that starts as None, and
each use of it is one lookup, made while the local is None.  Input text
never becomes source: the source holds only the template's text and
generated names, and every class id, role, IRI prefix, property IRI,
literal term, variable name, the rule number and the base IRI reach the
function as values bound to names ``k0``, ``k1``, ...  Strict mode holds for
a whole run, so only a strict run's kernels hold its refusals; a record's
context holds only the record.  Each distinct source is compiled once per
process (``_factory``, an ``lru_cache``), so a run only generates text and
binds its graph's dicts, its shared-node memo, ``Graph.register_node`` and,
if strict, its vocabulary check into a fresh kernel, whose code has the file
name ``<archonto rule N>``.  A record's rule trace is made only when
``RecordMigration.trace`` is read: ``migrate_tree`` makes none.

Node identity is deterministic (the README's "IRI scheme" lists the rules):
the kernels and each record's context hold prefixes built by
``graph.record_prefix`` and ``graph.shared_prefix``, and every node the
engine names is claimed through ``Graph.register_node``, the one check that
an IRI keeps one class.  A claim that succeeded holds while its node stays
in the node map, so a shared node is claimed, and its claim remembered, by
one statement once per run, and again only after a refused record's undoing
removed it; every other claim is made each time its node is named.

Literal emission follows the data-object pattern: when a data property's
domain is a DataObject class and the current node is not, the engine inserts
the carrier node and links it with L2DO hasValue.
"""

from __future__ import annotations

import calendar
import re
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .graph import DEFAULT_BASE_IRI, Graph, GraphError, _encode, record_prefix, shared_prefix
from .mdl import BindMode, MdlRule, PathStep, RuleSet, StepKind
from .ontology import LITERAL_RANGES, XSD_STRING, OntologySchema, SourceOntology
from .records import IsadRecord, RecordTree
from .validation import validate_datetime
from .vocabulary import VocabularyRegistry

# Classes minted at most once per record regardless of how many rule
# applications touch them.
SINGLETON_CLASSES = frozenset({"E31", "E22", "E33", "E12", "E65"})

TYPE_ROOT = "E55"
DOCUMENT_CLASS = "E31"
LINK_PROPERTY = "L2DO"

# Element -> property of the non-blank texts copied verbatim onto the document.
ISAD_FALLBACK_MAP: dict[str, str] = {
    "1.1": "ISAD3", "1.2": "ISAD1", "1.3": "ISAD5", "1.4": "ISAD2", "1.5": "ISAD6", "2.2": "ISAD7",
    "2.3": "ISAD8", "2.4": "ISAD26", "3.1": "ISAD9", "3.3": "ISAD27", "3.4": "ISAD19",
    "4.1": "ISAD10", "4.2": "ISAD24", "4.3": "ISAD14", "4.4": "ISAD20", "5.2": "ISAD16",
    "5.3": "ISAD15", "5.4": "ISAD17", "6.1": "ISAD18", "7.3": "ISAD21", "title_type": "ISAD4",
    "physical_location": "ISAD11", "previous_location": "ISAD12", "original_numbering": "ISAD13",
    "description_creation_date": "ISAD21", "description_last_modification": "ISAD22",
}


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


_NO_VALUES: Mapping[str, str] = MappingProxyType({})

# One firing of a rule: (key, capture values by some capture names, terms that
# name the nodes of some classes); a blank one marks a part whose paths skip.
Application = tuple[str, Mapping[str, str], Mapping[str, str]]


class TraceEntry(NamedTuple):
    rule_no: int
    application: str | None
    triples: int  # rows the firing wrote
    note: str | None = None


# Node step kinds besides a class node with no binding (None).
_LITERAL, _DEREF, _EMIT = BindMode.ASSIGN_LITERAL, BindMode.DEREF, BindMode.EMIT
_DATAOBJECT = SourceOntology.DATAOBJECT


# What a kernel needs to find or mint the node of one node step.
class _Step(NamedTuple):
    kind: BindMode | None
    var: str | None  # the bound variable, or the literal term
    class_id: str  # for a dereference, E31: the document a capture names
    role: str  # encoded role segment
    alt_role: str  # encoded role of a value node that another rule owns
    shared: str | None  # IRI prefix of the individuals of a class under E55
    singleton: bool


def _paths(rule: MdlRule, graph: Graph) -> tuple:
    """Look up once what every firing of ``rule`` into ``graph`` needs from its
    schema.  A path is (start step, hops, the captures and the classes whose
    blank value or term skips it).  A hop is (predicate IRI, step, datatype of
    an emitted literal, strict mode's refusal less what it got, and (L2DO IRI,
    DataObject step) for the carrier of a literal)."""
    schema, property_iris = graph.schema, graph._terms.property_iris

    def step(path_step: PathStep) -> _Step:
        binding = path_step.binding
        kind, var = (binding.mode, binding.value) if binding else (None, None)
        class_id = DOCUMENT_CLASS if kind is _DEREF else path_step.ident or ""
        role = _role(class_id) if class_id else ""
        type_like = class_id and schema.is_subclass(class_id, TYPE_ROOT)
        shared = shared_prefix(graph.base_iri, class_id) if type_like else None
        return _Step(kind, var, class_id, _encode(role), _encode(f"{role}.{rule.rule_no}"),
                     shared, class_id in SINGLETON_CLASSES)

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
    return tuple(paths)


def range_mismatches(rules: RuleSet, schema: OntologySchema) -> list[str]:
    """``rule N: ...`` for each hop that emits a literal on a node range or
    a node on a literal range, by rule number.  Strict migration refuses a
    record that fires such a hop; otherwise its rows are written and
    validation reports them."""
    graph = Graph(schema)
    found = [
        (rule.rule_no,
         f"rule {rule.rule_no}: {mismatch}a {'literal' if step.kind is _EMIT else 'node'}")
        for rule in rules.application_order
        for _, hops, _, _ in _paths(rule, graph)
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
class _Run:
    """One migration run: its graph and its rule plans, whose kernels hold
    what holds for all its records (strict mode, the vocabularies and the
    shared-node memo)."""

    graph: Graph
    plans: tuple[_RulePlan, ...]

    @classmethod
    def start(cls, rules: RuleSet, schema: OntologySchema, base_iri: str,
              registry: VocabularyRegistry, strict: bool) -> _Run:
        graph = Graph(schema, base_iri)
        values = dict(register=graph.register_node, nodes=graph._nodes, rows=graph._triples,
                      memo={}, is_subclass=schema.is_subclass, base=graph.base_iri)
        if strict:
            values["contains"] = registry.contains
        plans = tuple((rule, _kernel(rule, graph, values), _adapter(rule))
                      for rule in rules.application_order)
        return cls(graph, plans)


class MigrationContext:
    """Per-record state threaded through rule applications: the record's IRI
    prefix, the anchors (variable -> node IRI), the value-node owners ((class,
    term) -> rule number), problems."""

    __slots__ = ("record", "prefix", "anchors", "value_owners", "problems")

    def __init__(self, record: IsadRecord, base_iri: str) -> None:
        self.record = record
        self.prefix = record_prefix(base_iri, record.reference_code)
        self.anchors, self.value_owners, self.problems = {}, {}, []

    def warn(self, message: str) -> None:
        self.problems.append(RecordProblem(self.record.reference_code, "warning", message))


def _role(class_id: str) -> str:
    return class_id.lower()


_DOCUMENT_ROLE = _encode(_role(DOCUMENT_CLASS))


# -- rule kernels ----------------------------------------------------------------

# A rule's plan is (rule, its kernel, the adapter that yields its applications
# to a record).
_Kernel = Callable[["MigrationContext", Application], int]
_Adapter = Callable[["MigrationContext", MdlRule], Sequence[Application]]
_RulePlan = tuple[MdlRule, _Kernel, _Adapter]


# What a kernel reads of its run, bound when the run starts.
_RUN_NAMES = ("register", "nodes", "rows", "memo", "is_subclass", "base")

# The head of every firing: its application and what it reads of its
# record's context.
_HEAD = (
    "        key, captures, terms = app",
    "        prefix, anchors, owners = ctx.prefix, ctx.anchors, ctx.value_owners",
)


class _KernelSource:
    """The source of one rule's firing function, ``fire(ctx, app)``, which
    does for the rule's paths what a walk of them would decide step by step.

    The source holds only this template's text and generated names: each
    value taken from the rule, the schema or the base IRI (class ids, roles,
    IRI prefixes and predicate IRIs, literal terms, variable names, the rule
    number, row counts) is a name ``k<i>`` in the function's namespace
    (``values``).  A variable lives in a local ``v<i>``, None at the top of
    the firing, and each use of it is looked up while the local is None; only
    the selector's captures are looked for among an application's captures,
    as those are the only names an application can carry.  Only a strict
    run's source holds strict mode's refusals."""

    def __init__(self, rule: MdlRule, paths: tuple, strict: bool) -> None:
        self.values: dict[str, object] = {}
        self._strict = strict
        self._names: dict[tuple[type, object], str] = {}
        self._rule = self.k(rule.rule_no)
        self._captures = frozenset(rule.selector.captures)
        self._locals: dict[str, str] = {}
        self._temps = 0
        self._body: list[str] = []
        for path in paths:
            self._path(*path)
        if rule.selector.name == "ISAD":
            self._anchor(paths)
        total = self.k(sum(len(hops) for _, hops, _, _ in paths))
        run_names = (*_RUN_NAMES, "contains") if strict else _RUN_NAMES
        head = [f"def kernel({', '.join((*self.values, *run_names))}):", "    def fire(ctx, app):",
                *_HEAD]
        if self._locals:
            head.append(f"        {' = '.join(self._locals.values())} = None")
        head.append(f"        count = {total}")
        self.text = "\n".join(head + self._body + ["        return count", "    return fire", ""])

    def k(self, value: object) -> str:
        name = self._names.get((type(value), value))
        if name is None:
            name = self._names[type(value), value] = f"k{len(self._names)}"
            self.values[name] = value
        return name

    def _line(self, depth: int, text: str) -> None:
        self._body.append("    " * (depth + 1) + text)

    def _temp(self) -> str:
        self._temps += 1
        return f"n{self._temps}"

    def _path(self, start: _Step, hops: tuple, reads: tuple, classes: tuple) -> None:
        """A path whose blank capture or class term can skip it runs under the skip test."""
        tests = [f"captures.get({self.k(v)}) == ''" for v in dict.fromkeys(reads)
                 if v in self._captures]
        tests += [f"terms.get({self.k(c)}) == ''" for c in dict.fromkeys(classes)]
        depth = 1
        if tests:
            test = tests[0] if len(tests) == 1 else f"({' or '.join(tests)})"
            self._line(1, f"if {test}:")
            self._line(2, f"count -= {self.k(len(hops))}")
            self._line(1, "else:")
            depth = 2
        subject = self._node_local(start, depth)
        for hop in hops:
            subject = self._hop(depth, subject, *hop)
            if subject is None:
                break

    def _hop(self, depth: int, subject: str, predicate: str, step: _Step, datatype: str,
             mismatch: str | None, carrier: tuple | None) -> str | None:
        """The next hop's subject, or None after a strict refusal, which ends the path."""
        k = self.k
        if step.kind is not _EMIT:
            target = self._node_local(step, depth)
            if mismatch is not None and self._strict:
                self._line(depth, f"raise MigrationError({k(mismatch + 'node ')} + {target})")
                return None
            self._line(depth, f"rows[{subject}, {k(predicate)}, 0, {target}, ''] = None")
            return target
        var = k(step.var)
        self._line(depth, f"if {var} not in captures:")
        self._line(depth + 1, f"raise UnboundVariableError({var})")
        self._line(depth, f"text = captures[{var}]")
        if mismatch is not None and self._strict:
            self._line(depth, f"raise MigrationError({k(mismatch + 'literal ')} + repr(text))")
            return None
        row = f"{k(predicate)}, 1, text, {k(datatype)}] = None"
        if carrier is None:
            self._line(depth, f"rows[{subject}, {row}")
            return subject
        link, node = carrier
        self._line(depth, f"if is_subclass(nodes[{subject}], {k(node.class_id)}):")
        self._line(depth + 1, f"rows[{subject}, {row}")
        self._line(depth, "else:")
        target = self._structural(node, depth + 1, self._temp())
        self._line(depth + 1, f"rows[{subject}, {k(link)}, 0, {target}, ''] = None")
        self._line(depth + 1, f"rows[{target}, {row}")
        self._line(depth + 1, "count += 1")
        return subject

    def _node_local(self, step: _Step, depth: int) -> str:
        """The local that holds the IRI of a node step once the lines written
        here have run."""
        if step.kind is None:
            return self._class_term(step, depth, self._temp())
        if step.kind is _LITERAL:
            term, literal = self.k(step.class_id), self.k(step.var)
            stripped = self.k(step.var.strip())
            self._line(depth, f"term = terms.get({term}, {literal}).strip() if terms else {stripped}")
            return self._valued(step, depth, self._temp())
        return self._variable(step, depth)

    def _variable(self, step: _Step, depth: int) -> str:
        """A variable, looked up while its local is None: a capture, then an
        anchor, then bound here (``{=V}``) or refused (``$V``).  A dereferenced
        capture is not kept in the local; an anchor found is, which changes
        nothing, as the anchors do not change during a firing."""
        k, var = self.k, step.var
        local, name = self._locals.setdefault(var, f"v{len(self._locals)}"), k(var)
        if step.kind is _DEREF and var in self._captures:
            target = self._temp()
            self._line(depth, f"if {local} is not None:")
            self._line(depth + 1, f"{target} = {local}")
            self._line(depth, f"elif {name} in captures:")
            document = f"record_prefix(base, captures[{name}]) + {k(step.role + '/1')}"
            self._line(depth + 1, f"{target} = register({document}, {k(DOCUMENT_CLASS)})")
            self._line(depth, "else:")
            self._line(depth + 1, f"{target} = {local} = anchors.get({name})")
            self._line(depth + 1, f"if {local} is None:")
            self._line(depth + 2, f"raise UnboundVariableError({name})")
            return target
        self._line(depth, f"if {local} is None:")
        depth += 1
        if step.kind is not _DEREF and var in self._captures:
            self._line(depth, f"if {name} in captures:")
            self._line(depth + 1, f"term = captures[{name}].strip()")
            self._valued(step, depth + 1, local)
            self._line(depth, "else:")
            depth += 1
        self._line(depth, f"{local} = anchors.get({name})")
        self._line(depth, f"if {local} is None:")
        if step.kind is _DEREF:
            self._line(depth + 1, f"raise UnboundVariableError({name})")
        else:
            self._class_term(step, depth + 1, local)
        return local

    def _class_term(self, step: _Step, depth: int, target: str) -> str:
        """A node named by the application's class term, if it has one."""
        self._line(depth, f"term = terms.get({self.k(step.class_id)}) if terms else None")
        self._line(depth, "if term is None:")
        self._structural(step, depth + 1, target)
        self._line(depth, "else:")
        self._line(depth + 1, "term = term.strip()")
        self._valued(step, depth + 1, target)
        return target

    def _structural(self, step: _Step, depth: int, target: str) -> str:
        """No term: once per record for a singleton class, else once per application."""
        k = self.k
        suffix = k(step.role + "/1") if step.singleton else f"{k(step.role + '/')} + enc(key)"
        self._line(depth, f"{target} = register(prefix + {suffix}, {k(step.class_id)})")
        return target

    def _valued(self, step: _Step, depth: int, target: str) -> str:
        """The node of the stripped ``term``: under E55 shared corpus-wide and
        claimed once per run (after a strict run's vocabulary check), else a
        value node of the rule that owns the term."""
        k, class_id = self.k, self.k(step.class_id)
        if step.shared is not None:
            shared = k(step.shared)
            self._line(depth, f"{target} = memo.get(({shared}, term))")
            self._line(depth, f"if {target} not in nodes:")
            if self._strict:
                refusal = f"{k('term ')} + repr(term) + {k(' is not in the vocabulary bound to ')}"
                self._line(depth + 1, f"if contains({class_id}, term) is False:")
                self._line(depth + 2, f"raise MigrationError({refusal} + {class_id})")
            claim = f"memo[{shared}, term] = register({shared} + enc(term), {class_id})"
            self._line(depth + 1, f"{target} = {claim}")
            return target
        own, other = k(step.role + "/"), k(step.alt_role + "/")
        owner = f"owners.setdefault(({class_id}, term), {self._rule})"
        self._line(depth, f"role = {own} if {owner} == {self._rule} else {other}")
        self._line(depth, f"{target} = register(prefix + role + enc(term), {class_id})")
        return target

    def _anchor(self, paths: tuple) -> None:
        """The document rule's bindings become the record's anchors."""
        bound = [s.var for start, hops, _, _ in paths for s in (start, *(h[1] for h in hops))
                 if s.kind is BindMode.ASSIGN]
        for var in dict.fromkeys(v for v in bound if v in self._locals):
            self._line(1, f"if {self._locals[var]} is not None:")
            self._line(2, f"anchors[{self.k(var)}] = {self._locals[var]}")


@lru_cache(maxsize=256)
def _factory(source: str, filename: str) -> Callable[..., _Kernel]:
    """Compile each distinct kernel source once per process.  The function it
    defines takes a run's values, and returns the kernel bound to them."""
    namespace = {"enc": _encode, "record_prefix": record_prefix,
                 "MigrationError": MigrationError, "UnboundVariableError": UnboundVariableError}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["kernel"]


def _kernel(rule: MdlRule, graph: Graph, run_values: dict[str, object]) -> _Kernel:
    """The firing function of ``rule`` bound to one run's values, a strict
    one if they hold the vocabulary check, ``contains``; a traceback through
    it names the rule as ``<archonto rule N>``."""
    source = _KernelSource(rule, _paths(rule, graph), "contains" in run_values)
    bind = _factory(source.text, f"<archonto rule {rule.rule_no}>")
    return bind(**source.values, **run_values)


# -- selector adapters ---------------------------------------------------------


def _widen(ctx: MigrationContext, text: str, position: str, element: str | None) -> str | None:
    """The widened date text, or None (blank text too); a warning names ``element``, if given."""
    if not text:
        return None
    try:
        return widen_date_text(text, position)
    except DateTextError:
        if element is not None:
            ctx.warn(f"{element}: date text {text!r} is not usable; kept as legacy text only")
        return None


def _text(elements: Mapping[str, object], element: str) -> str:
    value = elements.get(element)
    return value.strip() if isinstance(value, str) else ""


_INTERVAL = (("production_date_start", "start"), ("production_date_end", "end"))
_INSTANT = (("production_date_single", "single"),)


def _date_applications(ctx: MigrationContext, rule: MdlRule) -> Sequence[Application]:
    elements, captures = ctx.record.elements, rule.selector.captures
    key, fields = ("interval", _INTERVAL) if len(captures) == 2 else ("instant", _INSTANT)
    texts = [_text(elements, element) for element, _ in fields]
    if not all(texts):
        return ()
    widened = [_widen(ctx, text, p, "production date") for text, (_, p) in zip(texts, fields)]
    if None in widened:
        return ()
    # One Production has one time-span, and an interval that is written (both
    # ends widen) wins over an instant.
    if key == "instant" and all(_widen(ctx, _text(elements, e), p, None) for e, p in _INTERVAL):
        ctx.warn(f"production date: single date {texts[0]!r} ignored for the interval")
        return ()
    return ((key, dict(zip(captures, widened)), _NO_VALUES),)


# Description dates: application key, element, warning label, class terms
# (the modification date names its date type in place of the rule's literal).
_DESCRIPTION_DATES = (
    ("creation", "description_creation_date", "description creation date", _NO_VALUES),
    ("modification", "description_last_modification", "description last modification",
     MappingProxyType({"ARE6": "Last Modification"})),
)


def _description_date_applications(ctx: MigrationContext, rule: MdlRule) -> list[Application]:
    elements, apps = ctx.record.elements, []
    for key, element, label, class_terms in _DESCRIPTION_DATES:
        widened = _widen(ctx, _text(elements, element), "single", label)
        if widened is not None:
            apps.append((key, {rule.selector.captures[0]: widened}, class_terms))
    return apps


def _measure_adapter(kind: str) -> _Adapter:
    def applications(ctx: MigrationContext, rule: MdlRule) -> Sequence[Application]:
        entries = ctx.record.elements.get("dimensions")
        if not entries:
            return ()
        capture, apps = rule.selector.captures[0], []
        entries = [e for e in entries if e.get("kind", "dimension") == kind]
        for index, entry in enumerate(entries, start=1):
            raw_value = entry.get("value")
            value = str(raw_value).strip() if raw_value is not None else ""
            unit = (entry.get("unit") or "").strip()
            if value or unit:
                apps.append((str(index), {capture: value}, {"E58": unit}))
        return apps
    return applications


def _term_list_adapter(element: str) -> _Adapter:
    def applications(ctx: MigrationContext, rule: MdlRule) -> Sequence[Application]:
        terms = ctx.record.elements.get(element)
        if not terms:
            return ()
        capture, terms = rule.selector.captures[0], [term.strip() for term in terms]
        return [(str(i), {capture: t}, _NO_VALUES) for i, t in enumerate(terms, start=1) if t]
    return applications


def _element_adapter(element: str, title_type: str | None = None) -> _Adapter:
    """One application for a non-blank scalar element; the title rules also
    require the record's title type (an unset type counts as ``absent``)."""
    def applications(ctx: MigrationContext, rule: MdlRule) -> Sequence[Application]:
        elements = ctx.record.elements
        if title_type is not None and (_text(elements, "title_type") or "absent") != title_type:
            return ()
        value = elements.get(element)
        if isinstance(value, str) and (value := value.strip()):
            return (("1", {rule.selector.captures[0]: value}, _NO_VALUES),)
        return ()
    return applications


def _parent_applications(ctx: MigrationContext, rule: MdlRule) -> Sequence[Application]:
    parent = ctx.record.parent_reference
    return (("1", {rule.selector.captures[0]: parent}, _NO_VALUES),) if parent else ()


def _creator_applications(ctx: MigrationContext, rule: MdlRule) -> Sequence[Application]:
    captures, apps = rule.selector.captures, []
    for index, entry in enumerate(ctx.record.elements.get("creators") or (), start=1):
        name = (entry.get("name") or "").strip()
        role = (entry.get("role") or "").strip()
        if not name:
            ctx.warn(f"creator entry {index} has no name; skipped")
            continue
        apps.append((str(index), dict(zip(captures, (name, role))), _NO_VALUES))
    return apps


# Selector name -> adapter yielding a rule's applications to one record, read
# from its element map (a closure, if parametrised); see `_adapter`.
_ADAPTERS: dict[str, _Adapter] = {
    "Description Level": _element_adapter("1.4"),
    "Reference Code": _element_adapter("1.1"),
    "Title": _element_adapter("1.2", "absent"),
    "Formal Title": _element_adapter("1.2", "formal"),
    "Supplied Title": _element_adapter("1.2", "supplied"),
    "Production Date": _date_applications,
    "Dimension": _measure_adapter("dimension"),
    "Extension": _measure_adapter("extension"),
    "Support": _term_list_adapter("supports"),
    "Language": _term_list_adapter("languages"),
    "Physical Location": _element_adapter("physical_location"),
    "Original Numbering": _element_adapter("original_numbering"),
    "Previous Location": _element_adapter("previous_location"),
    "Creation Date": _description_date_applications,
    "Parent Record": _parent_applications,
    "Creator": _creator_applications,
}


_ISAD_APPLICATIONS = (("1", _NO_VALUES, _NO_VALUES),)


def _isad_applications(ctx: MigrationContext, rule: MdlRule) -> Sequence[Application]:
    return _ISAD_APPLICATIONS


def _no_applications(ctx: MigrationContext, rule: MdlRule) -> Sequence[Application]:
    return ()


def _unknown_selector(ctx: MigrationContext, rule: MdlRule) -> Sequence[Application]:
    ctx.warn(f"rule {rule.rule_no}: no engine adapter for selector "
             f"{rule.selector.name!r}; rule skipped")
    return ()


def _adapter(rule: MdlRule) -> _Adapter:
    """The adapter of the rule's selector: the ISAD rule fires once per record,
    a known selector without captures never, and an unknown one warns."""
    if rule.selector.name == "ISAD":
        return _isad_applications
    adapter = _ADAPTERS.get(rule.selector.name, _unknown_selector)
    if adapter is _unknown_selector or rule.selector.captures:
        return adapter
    return _no_applications


# -- record and corpus drivers ---------------------------------------------------


@dataclass
class RecordMigration:
    """One record's outcome; its rule trace is made when it is read, from each
    plan's applications, each followed by the row counts of its firings."""

    graph: Graph
    problems: tuple[RecordProblem, ...]
    _plans: tuple[_RulePlan, ...]
    _fired: list

    @property
    def trace(self) -> tuple[TraceEntry, ...]:
        """One entry per firing, in firing order, and one per rule that did not fire."""
        entries, fired = [], iter(self._fired)
        for rule, _, adapter in self._plans:
            apps = next(fired)
            if not apps:
                unknown = adapter is _unknown_selector
                note = "unknown selector" if unknown else "element blank; skipped"
                entries.append(TraceEntry(rule.rule_no, None, 0, note))
            entries.extend(TraceEntry(rule.rule_no, app[0], next(fired)) for app in apps)
        return tuple(entries)


def migrate_record(record: IsadRecord, rules: RuleSet, schema: OntologySchema,
                   registry: VocabularyRegistry, *, base_iri: str = DEFAULT_BASE_IRI,
                   strict: bool = False, run: _Run | None = None) -> RecordMigration:
    """Apply the rule set to one (already resolved) record; a rule's migration
    or graph error is raised as ``MigrationError("rule N (key): reason")``, and
    an empty reference code as ``GraphError`` before any rule fires.
    Without ``run`` (see :class:`_Run`), a run of this one record is made;
    a given run's base IRI, vocabularies and strictness hold."""
    if run is None:
        run = _Run.start(rules, schema, base_iri, registry, strict)
    ctx = MigrationContext(record, run.graph.base_iri)
    fired: list = []
    for rule, fire, adapter in run.plans:
        apps = adapter(ctx, rule)
        fired.append(apps)
        for app in apps:
            try:
                fired.append(fire(ctx, app))
            except (MigrationError, GraphError) as exc:
                raise MigrationError(f"rule {rule.rule_no} ({app[0]}): {exc}") from exc
    return RecordMigration(run.graph, tuple(ctx.problems), run.plans, fired)


def attach_isad_fallback(record: IsadRecord, graph: Graph) -> Graph:
    """Copy each mapped non-blank textual element the record holds verbatim onto the document."""
    iri = record_prefix(graph.base_iri, record.reference_code) + _DOCUMENT_ROLE + "/1"
    document = graph.register_node(iri, DOCUMENT_CLASS)
    property_iris, rows = graph._terms.property_iris, graph._triples
    for element, value in record.elements.items():
        property_id = ISAD_FALLBACK_MAP.get(element)
        text = value.strip() if property_id is not None and isinstance(value, str) else ""
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


def migrate_tree(tree: RecordTree, rules: RuleSet, schema: OntologySchema,
                 registry: VocabularyRegistry, *, base_iri: str = DEFAULT_BASE_IRI,
                 strict: bool = False, fail_fast: bool = False) -> MigrationResult:
    """Migrate every record of a resolved tree into one deterministic graph.
    A record that raises is undone, and adds only one ``error`` problem; with
    ``fail_fast`` it stops the run."""
    run = _Run.start(rules, schema, base_iri, registry, strict)
    graph = run.graph
    problems: list[RecordProblem] = []
    for reference in sorted(tree.records):
        record = tree.records[reference]
        marks = len(graph._nodes), len(graph._triples)
        try:
            outcome = migrate_record(record, rules, schema, registry, run=run)
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
