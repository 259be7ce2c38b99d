"""A reference for the generated rule kernels: each MDL path walked step by step.

``migrate_tree_reference`` migrates a resolved tree as ``migrate_tree`` does,
but fires a rule by walking its parsed paths one step at a time and asking
the schema at each step, where the engine runs the kernel it generated for
the rule.  It shares with the engine only what the generator does not
write: the selector adapters, the legacy-text fallback, and the graph and
its IRI scheme.  It keeps no memo: under strict mode a shared node's term is
checked against its vocabulary, and the node claimed, each time a step names
it.  A refused record is undone by restoring copies of the graph's node map
and rows taken before it.
"""

from __future__ import annotations

from archonto.graph import Graph, GraphError, _encode, record_prefix, shared_prefix
from archonto.mdl import BindMode, MdlRule, PathStep, StepKind
from archonto.migration import (
    DOCUMENT_CLASS,
    LINK_PROPERTY,
    SINGLETON_CLASSES,
    TYPE_ROOT,
    MigrationError,
    RecordProblem,
    UnboundVariableError,
    _adapter,
    attach_isad_fallback,
)
from archonto.ontology import LITERAL_RANGES, XSD_STRING, SourceOntology


class _RecordState:
    """One record's walk state; an adapter reads ``record`` and calls ``warn``."""

    def __init__(self, record, graph: Graph, registry, strict: bool) -> None:
        self.record, self.graph, self.registry, self.strict = record, graph, registry, strict
        self.prefix = record_prefix(graph.base_iri, record.reference_code)
        self.anchors: dict[str, str] = {}
        self.owners: dict[tuple[str, str], int] = {}
        self.problems: list[RecordProblem] = []

    def warn(self, message: str) -> None:
        self.problems.append(RecordProblem(self.record.reference_code, "warning", message))


def _node(state: _RecordState, rule_no: int, class_id: str, term: str | None, key: str) -> str:
    """The node of ``class_id`` that application ``key`` names by ``term``.
    No term: a structural node, once per record for a singleton class, else
    once per application.  A term of a class under E55: the corpus-wide
    shared node.  Any other term: a value node of the first rule to name the
    term, and of role ``<class>.<rule>`` for any later rule."""
    graph, role = state.graph, class_id.lower()
    if term is None:
        suffix = "1" if class_id in SINGLETON_CLASSES else _encode(key)
        return graph.register_node(state.prefix + _encode(role) + "/" + suffix, class_id)
    term = term.strip()
    if graph.schema.is_subclass(class_id, TYPE_ROOT):
        if state.strict and state.registry.contains(class_id, term) is False:
            raise MigrationError(f"term {term!r} is not in the vocabulary bound to {class_id}")
        shared = shared_prefix(graph.base_iri, class_id) + _encode(term)
        return graph.register_node(shared, class_id)
    if state.owners.setdefault((class_id, term), rule_no) != rule_no:
        role = f"{role}.{rule_no}"
    return graph.register_node(state.prefix + _encode(role) + "/" + _encode(term), class_id)


def _resolve(state: _RecordState, rule_no: int, step: PathStep, app, bound: dict) -> str:
    """The IRI of a node step that is not an emission.  A variable is looked
    up in the nodes this firing bound, then in the captures, then in the
    anchors of the document rule; ``{=V}`` binds one that none of them holds."""
    key, captures, terms = app
    binding = step.binding
    if binding is None or binding.mode is BindMode.ASSIGN_LITERAL:
        literal = binding.value if binding is not None else None
        return _node(state, rule_no, step.ident, terms.get(step.ident, literal), key)
    var, deref = binding.value, binding.mode is BindMode.DEREF
    if var in bound:
        return bound[var]
    if var in captures:
        if deref:  # the text names a record, whose document is the node
            document = record_prefix(state.graph.base_iri, captures[var]) + "e31/1"
            return state.graph.register_node(document, DOCUMENT_CLASS)
        bound[var] = _node(state, rule_no, step.ident, captures[var], key)
        return bound[var]
    if var in state.anchors:
        return state.anchors[var]
    if deref:
        raise UnboundVariableError(var)
    bound[var] = _node(state, rule_no, step.ident, terms.get(step.ident), key)
    return bound[var]


def _skips(path: tuple[PathStep, ...], app) -> bool:
    """A path with a node step that reads a blank capture or names a class
    whose class term is blank is skipped whole."""
    _, captures, terms = app
    for step in path[0::2]:
        binding = step.binding
        if binding is not None and binding.mode is not BindMode.ASSIGN_LITERAL:
            if captures.get(binding.value) == "":
                return True
        if step.ident is not None and terms.get(step.ident) == "":
            return True
    return False


def _fire(state: _RecordState, rule: MdlRule, app) -> None:
    """Write one application of ``rule`` into the graph, step by step."""
    key, captures, _ = app
    graph = state.graph
    schema, rows, predicates = graph.schema, graph._triples, graph._terms.property_iris
    bound: dict[str, str] = {}
    for path in rule.paths:
        if _skips(path, app):
            continue
        subject = _resolve(state, rule.rule_no, path[0], app, bound)
        for step in path[1:]:
            if step.kind is StepKind.EDGE:
                edge = schema.property_def(step.ident)
                predicate = predicates[step.ident]
                expected = "literal" if edge.has_literal_range else "node"
                refusal = f"{step.ident} expects a {edge.range} {expected}, got "
                continue
            emits = step.binding is not None and step.binding.mode is BindMode.EMIT
            mismatch = state.strict and edge.has_literal_range is not emits
            if not emits:
                target = _resolve(state, rule.rule_no, step, app, bound)
                if mismatch:
                    raise MigrationError(f"{refusal}node {target}")
                rows[subject, predicate, 0, target, ""] = None
                subject = target
                continue
            var = step.binding.value
            if var not in captures:
                raise UnboundVariableError(var)
            text = captures[var]
            if mismatch:
                raise MigrationError(f"{refusal}literal {text!r}")
            datatype = edge.range if edge.range in LITERAL_RANGES else XSD_STRING
            domain = edge.domain
            if (edge.has_literal_range
                    and schema.class_def(domain).source is SourceOntology.DATAOBJECT
                    and not schema.is_subclass(graph._nodes[subject], domain)):
                carrier = _node(state, rule.rule_no, domain, None, key)
                rows[subject, predicates[LINK_PROPERTY], 0, carrier, ""] = None
                subject = carrier
            rows[subject, predicate, 1, text, datatype] = None
    if rule.selector.name == "ISAD":
        state.anchors.update(bound)


def migrate_tree_reference(tree, rules, schema, registry, *, strict: bool = False):
    """The graph and the sorted problem list of ``migrate_tree(tree, rules,
    schema, registry, strict=strict)``, made without the generated kernels."""
    graph, problems = Graph(schema), []
    for reference in sorted(tree.records):
        record = tree.records[reference]
        nodes, rows = dict(graph._nodes), dict(graph._triples)
        try:
            state = _RecordState(record, graph, registry, strict)
            for rule in rules.application_order:
                for app in _adapter(rule)(state, rule):
                    try:
                        _fire(state, rule, app)
                    except (MigrationError, GraphError) as exc:
                        raise MigrationError(f"rule {rule.rule_no} ({app[0]}): {exc}") from exc
            attach_isad_fallback(record, graph)
        except (MigrationError, GraphError) as exc:
            graph._nodes, graph._triples = nodes, rows
            problems.append(RecordProblem(reference, "error", str(exc)))
            continue
        problems.extend(state.problems)
    problems.sort(key=lambda p: (p.reference, p.severity, p.message))
    return graph, problems
