"""Finding generation for every check and the datetime validator."""

import functools
import random

import pytest

from archonto.graph import Graph, Literal
from archonto.migration import attach_isad_fallback, migrate_record, migrate_tree
from archonto.ontology import XSD_DATETIME, ClassDef, OntologySchema, SourceOntology
from archonto.records import parse_corpus, resolve_inheritance
from archonto.validation import (
    ARP12_CARDINALITY,
    DATETIME_LEXICAL,
    DOMAIN_VIOLATION,
    INVERSE_MISSING,
    NESTING_VIOLATION,
    RANGE_VIOLATION,
    REGEX_MISMATCH,
    UNKNOWN_CLASS,
    UNKNOWN_PROPERTY,
    VOCABULARY_VIOLATION,
    validate_datetime,
    validate_graph,
)

from conftest import corpus_text, make_record, synthetic_corpus


def codes(report, severity=None):
    return {
        f.code
        for f in report.findings
        if severity is None or f.severity == severity
    }


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1813-07-12T00:00:00", True),
        ("2000-02-29T23:59:59", True),
        ("1900-02-29T00:00:00", False),  # 1900 is not a leap year
        ("1813-13-01T00:00:00", False),
        ("1813-00-01T00:00:00", False),
        ("1813-07-32T00:00:00", False),
        ("1813-07-12T24:00:00", False),
        ("1813-07-12T23:60:00", False),
        ("1813-07-12T23:59:60", False),
        ("1813-07-12", False),
        ("1813-7-12T00:00:00", False),
        ("0000-01-01T00:00:00", False),
        ("", False),
        ("\uff12\uff10\uff12\uff10-01-01T00:00:00", False),  # fullwidth digits
        ("1813-07-12T00:00:0\u0661", False),  # an Arabic-Indic digit
        ("1813-07-12T00:00:00\n", False),
    ],
)
def test_validate_datetime(text, expected):
    assert validate_datetime(text) is expected


def test_domain_violation_language_on_person(schema, registry, nesting):
    # oracle: the declared signature puts P72 on the linguistic-object side
    assert schema.property_signature("P72")[0] == "E33"
    graph = Graph(schema)
    person = graph.mint_node("PT/X", "e21", "Lino", "E21")
    language = graph.mint_shared("E56", "Portuguese")
    graph.add_triple(person, "P72", language)
    report = validate_graph(graph, schema, registry, nesting)
    assert DOMAIN_VIOLATION in codes(report, "error")


def test_lexical_violation_date_without_time(schema, registry, nesting):
    graph = Graph(schema)
    instant = graph.mint_node("PT/X", "doe10", "1", "DOE10")
    graph.add_triple(instant, "DOP8", Literal("1813-07-12", XSD_DATETIME))
    report = validate_graph(graph, schema, registry, nesting)
    assert codes(report, "error") == {DATETIME_LEXICAL}


@pytest.mark.parametrize("text", ["２０２０-01-01T00:00:00", "١٩٩٩-01-01T00:00:00"])
def test_lexical_violation_non_ascii_digits(schema, registry, nesting, text):
    graph = Graph(schema)
    instant = graph.mint_node("PT/X", "doe10", "1", "DOE10")
    graph.add_triple(instant, "DOP8", Literal(text, XSD_DATETIME))
    read = Graph.from_ntriples(graph.serialize(), schema)
    report = validate_graph(read, schema, registry, nesting)
    assert codes(report, "error") == {DATETIME_LEXICAL}


def test_clean_migrated_record_zero_errors(schema, registry, nesting, rules):
    record = make_record(
        "PT/TT/JIM",
        elements={
            "1.2": "Juízo da Índia e Mina",
            "title_type": "supplied",
            "1.4": "Fonds",
            "production_date_start": "1700",
            "production_date_end": "1833",
            "supports": ["Paper"],
            "5.4": "Publication notes text",
            "description_creation_date": "1989-10-25",
        },
    )
    outcome = migrate_record(record, rules, schema, registry)
    attach_isad_fallback(record, outcome.graph)
    report = validate_graph(outcome.graph, schema, registry, nesting)
    assert report.error_count == 0
    assert report.warning_count == 0


def test_subclass_aware_checks(schema, registry, nesting):
    graph = Graph(schema)
    appellation = graph.mint_node("PT/X", "e41", "1", "E41")
    person_name = graph.mint_node("PT/X", "doe17", "1", "DOE17")
    # L2DO range is the DataObject root; DOE17 satisfies it via the hierarchy
    graph.add_triple(appellation, "L2DO", person_name)
    # DOP5 domain is DOE17 itself
    graph.add_triple(person_name, "DOP5", Literal("Lino"))
    # DOP7 domain DOE8 is satisfied by the DOE17 subclass
    graph.add_triple(person_name, "DOP7", Literal("Lino"))
    report = validate_graph(graph, schema, registry, nesting)
    assert report.error_count == 0


def test_vocabulary_violation(schema, registry, nesting):
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    bogus = graph.mint_shared("ARE1", "Bogus Level")
    graph.add_triple(doc, "ARP12", bogus)
    report = validate_graph(graph, schema, registry, nesting)
    assert VOCABULARY_VIOLATION in codes(report, "error")


def test_unconstrained_class_not_checked(schema, registry, nesting):
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    kind = graph.mint_shared("E55", "anything goes")
    graph.add_triple(doc, "P2", kind)
    report = validate_graph(graph, schema, registry, nesting)
    assert VOCABULARY_VIOLATION not in codes(report)


def test_range_violations(schema, registry, nesting):
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    hmo = graph.mint_node("PT/X", "e22", "1", "E22")
    # literal where a node is required
    graph.add_triple(doc, "P128", Literal("not a node"))
    # node where a literal is required
    instant = graph.mint_node("PT/X", "doe10", "1", "DOE10")
    graph.add_triple(instant, "DOP8", hmo)
    # node of the wrong class
    graph.add_triple(doc, "P67", hmo)
    report = validate_graph(graph, schema, registry, nesting)
    range_findings = [f for f in report.findings if f.code == RANGE_VIOLATION]
    assert len(range_findings) == 3


def test_nesting_violation_on_parent_link(schema, registry, nesting, rules):
    corpus = "\n".join(
        [
            '{"1.1": "A", "1.4": "Item"}',
            '{"1.1": "A/B", "parent": "A", "1.4": "Fonds"}',
        ]
    )
    tree = parse_corpus(corpus)
    result = migrate_tree(tree, rules, schema, registry)
    report = validate_graph(result.graph, schema, registry, nesting)
    nestings = [f for f in report.findings if f.code == NESTING_VIOLATION]
    assert len(nestings) == 1
    assert "Fonds" in nestings[0].message and "Item" in nestings[0].message


def test_valid_nesting_no_finding(schema, registry, nesting, rules):
    corpus = "\n".join(
        [
            '{"1.1": "A", "1.4": "Fonds"}',
            '{"1.1": "A/B", "parent": "A", "1.4": "Serie"}',
            '{"1.1": "A/B/C", "parent": "A/B", "1.4": "Item"}',
        ]
    )
    result = migrate_tree(parse_corpus(corpus), rules, schema, registry)
    report = validate_graph(result.graph, schema, registry, nesting)
    assert NESTING_VIOLATION not in codes(report)


def test_arp12_cardinality_warnings(schema, registry, nesting):
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    graph.add_triple(doc, "ISAD1", Literal("untyped doc"))
    report = validate_graph(graph, schema, registry, nesting)
    assert codes(report, "warning") == {ARP12_CARDINALITY}
    assert report.error_count == 0
    graph.add_triple(doc, "ARP12", graph.mint_shared("ARE1", "Fonds"))
    graph.add_triple(doc, "ARP12", graph.mint_shared("ARE1", "Item"))
    report = validate_graph(graph, schema, registry, nesting)
    (finding,) = [f for f in report.findings if f.code == ARP12_CARDINALITY]
    assert "2" in finding.message


def test_regex_string_check(schema, registry, nesting):
    graph = Graph(schema)
    code = graph.mint_node("PT/X", "doe16", "1", "DOE16")
    graph.add_triple(code, "DOP4", Literal(r"PT(/[A-Z]+)+"))
    graph.add_triple(code, "DOP7", Literal("PT/TT/JIM"))
    report = validate_graph(graph, schema, registry, nesting)
    assert REGEX_MISMATCH not in codes(report)
    bad = graph.copy()
    mismatched = bad.mint_node("PT/X", "doe16", "2", "DOE16")
    bad.add_triple(mismatched, "DOP4", Literal(r"\d+"))
    bad.add_triple(mismatched, "DOP7", Literal("not digits"))
    report = validate_graph(bad, schema, registry, nesting)
    assert REGEX_MISMATCH in codes(report, "error")


def test_invalid_regex_reported(schema, registry, nesting):
    graph = Graph(schema)
    code = graph.mint_node("PT/X", "doe16", "1", "DOE16")
    graph.add_triple(code, "DOP4", Literal("(unclosed"))
    graph.add_triple(code, "DOP7", Literal("x"))
    report = validate_graph(graph, schema, registry, nesting)
    (finding,) = [f for f in report.findings if f.code == REGEX_MISMATCH]
    assert "invalid pattern" in finding.message


def test_unknown_property_and_class(schema, registry, nesting):
    data = (
        "<https://example.org/archonto/X/e31/1> "
        "<https://example.org/elsewhere/mystery> \"v\" .\n"
        "<https://example.org/archonto/X/thing/1> "
        "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        "<https://example.org/elsewhere/UnknownClass> .\n"
    )
    graph = Graph.from_ntriples(data, schema)
    report = validate_graph(graph, schema, registry, nesting)
    assert UNKNOWN_PROPERTY in codes(report, "error")
    assert UNKNOWN_CLASS in codes(report, "error")


def test_inverse_pair_warning(schema, registry, nesting):
    graph = Graph(schema)
    serie = graph.mint_shared("ARE1", "Serie")
    fonds = graph.mint_shared("ARE1", "Fonds")
    graph.add_triple(serie, "ARP8", fonds)
    report = validate_graph(graph, schema, registry, nesting)
    assert INVERSE_MISSING in codes(report, "warning")
    graph.add_triple(fonds, "ARP9", serie)
    report = validate_graph(graph, schema, registry, nesting)
    assert INVERSE_MISSING not in codes(report)


def test_report_determinism(schema, registry, nesting):
    def build() -> Graph:
        graph = Graph(schema)
        doc = graph.mint_node("PT/X", "e31", "1", "E31")
        graph.add_triple(doc, "ARP12", graph.mint_shared("ARE1", "Nope"))
        graph.add_triple(doc, "P128", Literal("wrong"))
        return graph

    report_a = validate_graph(build(), schema, registry, nesting)
    report_b = validate_graph(build(), schema, registry, nesting)
    assert report_a == report_b
    assert "\n".join(report_a.lines()) == "\n".join(report_b.lines())


def test_report_line_format(schema, registry, nesting):
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    graph.add_triple(doc, "ISAD1", Literal("x"))
    report = validate_graph(graph, schema, registry, nesting)
    (line,) = report.lines()
    severity, code, subject, message = line.split("\t", 3)
    assert severity == "warning"
    assert code == ARP12_CARDINALITY
    assert subject == doc.iri


def test_findings_ordered_by_subject_then_code(schema, registry, nesting):
    graph = Graph(schema)
    for ref in ("B", "A"):
        doc = graph.mint_node(ref, "e31", "1", "E31")
        graph.add_triple(doc, "ISAD1", Literal("x"))
    report = validate_graph(graph, schema, registry, nesting)
    subjects = [f.subject for f in report.findings]
    assert subjects == sorted(subjects)


def test_node_index_is_live_read_only_view(schema):
    graph = Graph(schema)
    nodes = graph.node_index
    with pytest.raises(TypeError):
        nodes["x"] = graph.mint_node("PT/X", "e31", "1", "E31")
    later = graph.mint_node("PT/Y", "e31", "1", "E31")
    assert nodes[later.iri] is later


@pytest.mark.parametrize("size", [10, 200])
def test_validation_reads_graph_views_a_fixed_number_of_times(
    schema, registry, nesting, rules, monkeypatch, size
):
    corpus = corpus_text(synthetic_corpus(random.Random(5), size))
    tree = resolve_inheritance(parse_corpus(corpus))
    graph = migrate_tree(tree, rules, schema, registry).graph
    reads = {"node_index": 0, "triples": 0}

    def counted(name):
        fget = Graph.__dict__[name].fget

        @functools.wraps(fget)
        def wrapper(self):
            reads[name] += 1
            return fget(self)

        return property(wrapper)

    for name in reads:
        monkeypatch.setattr(Graph, name, counted(name))
    validate_graph(graph, schema, registry, nesting)
    assert reads["node_index"] <= 2
    assert reads["triples"] <= 2


def test_class_unknown_to_the_validating_schema_is_a_finding(schema, registry, nesting):
    extra = ClassDef("E999", "Extra Thing", SourceOntology.CIDOC, "E1")
    wider = OntologySchema(
        {c.identifier: c for c in schema.classes} | {"E999": extra},
        {p.identifier: p for p in schema.properties},
        schema.inverse_pairs,
    )
    graph = Graph(wider)
    node = graph.mint_node("PT/X", "thing", "1", "E999")
    graph.add_triple(node, "P3", Literal("note"))
    report = validate_graph(graph, schema, registry, nesting)
    unknown = [f for f in report.findings if f.code == UNKNOWN_CLASS]
    assert [(f.subject, f.message) for f in unknown] == [
        (node.iri, "node class E999 is not declared")
    ]
