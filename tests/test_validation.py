"""Finding generation for every check and the datetime validator."""

import functools
import random
import re
from collections import Counter
from datetime import datetime

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archonto.graph import RDF_TYPE, XSD_NAMESPACE, Graph, GraphError
from archonto.migration import attach_isad_fallback, migrate_record, migrate_tree
from archonto.ontology import (
    LITERAL_RANGES,
    XSD_DATETIME,
    XSD_STRING,
    ClassDef,
    OntologySchema,
    SourceOntology,
)
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
    ValidationFinding,
    validate_datetime,
    validate_graph,
)

from conftest import (
    DATE_DEFECTS,
    SUPPORT_DEFECTS,
    corpus_text,
    make_record,
    ntriples_documents,
    synthetic_corpus,
    with_defects,
)


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


# The validator as it was before it asked datetime.fromisoformat, as the oracle.
_ORACLE_RE = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})")


def _validate_datetime_oracle(text: str) -> bool:
    match = _ORACLE_RE.fullmatch(text)
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


# Arabic-Indic, fullwidth, Devanagari and mathematical bold digits, which int() reads.
_NON_ASCII_DIGITS = ["\u0661", "\uff11", "\u0967", "\U0001D7CF"]


@st.composite
def _datetime_texts(draw) -> str:
    """YYYY-MM-DDThh:mm:ss with any two-digit field, often out of range, and
    sometimes one character swapped for a non-ASCII digit or a separator."""
    year = draw(st.one_of(st.integers(0, 9999), st.sampled_from([0, 1, 1900, 2000, 2023, 2024])))
    day = st.one_of(st.integers(0, 99), st.integers(27, 32))
    fields = [draw(st.integers(0, 99)) for _ in range(5)]
    fields[1] = draw(day)
    text = "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}".format(year, *fields)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text) - 1))
        swap = draw(st.sampled_from(_NON_ASCII_DIGITS + ["-", "T", ":", " ", "Z", "0"]))
        text = text[:at] + swap + text[at + 1 :]
    return text


@given(st.one_of(_datetime_texts(), st.text(max_size=24)))
@example("2024-02-29T00:00:00")
@example("2023-02-29T00:00:00")
@example("1900-02-29T23:59:59")
@example("2000-02-29T23:59:59")
@example("0000-01-01T00:00:00")
@example("0001-01-01T00:00:00")
@example("2000-01-01T24:00:00")
@example("2000-01-01T00:60:00")
@example("2000-01-01T00:00:60")
@example("2000-01-01T00:00:0\u0661")
@example("\uff12000-01-01T00:00:00")
@example("2000-01-01 00:00:00")
def test_validate_datetime_matches_the_field_by_field_check(text):
    assert validate_datetime(text) is _validate_datetime_oracle(text)


def test_domain_violation_language_on_person(schema, registry, nesting):
    # oracle: the declared signature puts P72 on the linguistic-object side
    assert schema.property_def("P72").domain == "E33"
    graph = Graph(schema)
    person = graph.mint_node("PT/X", "e21", "Lino", "E21")
    language = graph.mint_shared("E56", "Portuguese")
    graph.add_triple(person, "P72", language)
    report = validate_graph(graph, schema, registry, nesting)
    assert DOMAIN_VIOLATION in codes(report, "error")


def test_lexical_violation_date_without_time(schema, registry, nesting):
    graph = Graph(schema)
    instant = graph.mint_node("PT/X", "doe10", "1", "DOE10")
    graph.add_triple(instant, "DOP8", "1813-07-12", XSD_DATETIME)
    report = validate_graph(graph, schema, registry, nesting)
    assert codes(report, "error") == {DATETIME_LEXICAL}


@pytest.mark.parametrize("text", ["２０２０-01-01T00:00:00", "١٩٩٩-01-01T00:00:00"])
def test_lexical_violation_non_ascii_digits(schema, registry, nesting, text):
    graph = Graph(schema)
    instant = graph.mint_node("PT/X", "doe10", "1", "DOE10")
    graph.add_triple(instant, "DOP8", text, XSD_DATETIME)
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
    graph.add_triple(person_name, "DOP5", "Lino", XSD_STRING)
    # DOP7 domain DOE8 is satisfied by the DOE17 subclass
    graph.add_triple(person_name, "DOP7", "Lino", XSD_STRING)
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
    graph.add_triple(doc, "P128", "not a node", XSD_STRING)
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
    graph.add_triple(doc, "ISAD1", "untyped doc", XSD_STRING)
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
    graph.add_triple(code, "DOP4", r"PT(/[A-Z]+)+", XSD_STRING)
    graph.add_triple(code, "DOP7", "PT/TT/JIM", XSD_STRING)
    report = validate_graph(graph, schema, registry, nesting)
    assert REGEX_MISMATCH not in codes(report)
    bad = graph.copy()
    mismatched = bad.mint_node("PT/X", "doe16", "2", "DOE16")
    bad.add_triple(mismatched, "DOP4", r"\d+", XSD_STRING)
    bad.add_triple(mismatched, "DOP7", "not digits", XSD_STRING)
    report = validate_graph(bad, schema, registry, nesting)
    assert REGEX_MISMATCH in codes(report, "error")


def test_invalid_regex_reported(schema, registry, nesting):
    graph = Graph(schema)
    code = graph.mint_node("PT/X", "doe16", "1", "DOE16")
    graph.add_triple(code, "DOP4", "(unclosed", XSD_STRING)
    graph.add_triple(code, "DOP7", "x", XSD_STRING)
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
        graph.add_triple(doc, "P128", "wrong", XSD_STRING)
        return graph

    report_a = validate_graph(build(), schema, registry, nesting)
    report_b = validate_graph(build(), schema, registry, nesting)
    assert report_a == report_b
    assert "\n".join(report_a.lines()) == "\n".join(report_b.lines())


def test_report_line_format(schema, registry, nesting):
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    graph.add_triple(doc, "ISAD1", "x", XSD_STRING)
    report = validate_graph(graph, schema, registry, nesting)
    (line,) = report.lines()
    severity, code, subject, message = line.split("\t", 3)
    assert severity == "warning"
    assert code == ARP12_CARDINALITY
    assert subject == doc


def test_findings_ordered_by_subject_then_code(schema, registry, nesting):
    graph = Graph(schema)
    for ref in ("B", "A"):
        doc = graph.mint_node(ref, "e31", "1", "E31")
        graph.add_triple(doc, "ISAD1", "x", XSD_STRING)
    report = validate_graph(graph, schema, registry, nesting)
    subjects = [f.subject for f in report.findings]
    assert subjects == sorted(subjects)


def test_node_index_is_live_read_only_view(schema):
    graph = Graph(schema)
    nodes = graph.node_index
    with pytest.raises(TypeError):
        nodes["x"] = graph.mint_node("PT/X", "e31", "1", "E31")
    later = graph.mint_node("PT/Y", "e31", "1", "E31")
    assert nodes[later] == "E31"


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


@pytest.mark.parametrize("size", [10, 200])
def test_validation_asks_each_subclass_question_once_per_run(
    schema, registry, nesting, rules, monkeypatch, size
):
    # Validation judges each distinct class or class pair, not each row or
    # node, so one run puts the same questions to the schema, as often, for
    # 10 records as for 200. Nothing is kept between runs: a second run asks
    # them all again.
    asked = []
    is_subclass = OntologySchema.is_subclass

    def counted(self, child, ancestor):
        asked.append((child, ancestor))
        return is_subclass(self, child, ancestor)

    def graph_of(records):
        corpus = corpus_text(synthetic_corpus(random.Random(5), records))
        return migrate_tree(resolve_inheritance(parse_corpus(corpus)), rules, schema, registry).graph

    def ask(graph):
        asked.clear()
        report = validate_graph(graph, schema, registry, nesting)
        return report, Counter(asked)

    monkeypatch.setattr(OntologySchema, "is_subclass", counted)
    graph = graph_of(size)
    first, questions = ask(graph)
    assert questions
    assert ask(graph) == (first, questions)
    assert ask(graph_of(200 if size == 10 else 10))[1] == questions


def test_nesting_and_regex_checks_skip_what_they_cannot_judge(schema, registry, nesting):
    graph = Graph(schema)
    fonds, item, orphan, chapter = (
        graph.mint_node("PT/X", "e31", name, "E31") for name in ("fonds", "item", "orphan", "chapter")
    )
    outside = graph.mint_shared("ARE1", "Chapter")  # in no vocabulary and no nesting edge
    graph.add_triple(fonds, "ARP12", graph.mint_shared("ARE1", "Fonds"))
    graph.add_triple(item, "ARP12", graph.mint_shared("ARE1", "Item"))
    graph.add_triple(chapter, "ARP12", outside)
    # A literal object is no parent, even when its text names one whose level
    # would refuse the child.
    graph.add_triple(fonds, "P165", item, XSD_STRING)
    # A parent with no level, and a level outside the nesting graph either way.
    graph.add_triple(fonds, "P165", orphan)
    graph.add_triple(chapter, "P165", fonds)
    graph.add_triple(fonds, "P165", chapter)
    # A pattern on a node that is no DOE16 is not matched against its values.
    graph.add_triple(fonds, "DOP4", "[0-9]+", XSD_STRING)
    graph.add_triple(fonds, "DOP7", "abc", XSD_STRING)
    report = validate_graph(graph, schema, registry, nesting)
    assert {(f.code, f.subject, f.involved) for f in report.findings} == {
        (RANGE_VIOLATION, fonds, "P165"),
        (DOMAIN_VIOLATION, fonds, "DOP4"),
        (DOMAIN_VIOLATION, fonds, "DOP7"),
        (VOCABULARY_VIOLATION, outside, "ARE1"),
        (ARP12_CARDINALITY, orphan, "ARP12"),
    }


def test_class_unknown_to_the_validating_schema_is_a_finding(schema, registry, nesting):
    extra = ClassDef("E999", "Extra Thing", SourceOntology.CIDOC, "E1")
    wider = OntologySchema(
        {c.identifier: c for c in schema.classes} | {"E999": extra},
        {p.identifier: p for p in schema.properties},
        schema.inverse_pairs,
    )
    graph = Graph(wider)
    node = graph.mint_node("PT/X", "thing", "1", "E999")
    graph.add_triple(node, "P3", "note", XSD_STRING)
    report = validate_graph(graph, schema, registry, nesting)
    unknown = [f for f in report.findings if f.code == UNKNOWN_CLASS]
    assert [(f.subject, f.message) for f in unknown] == [
        (node, "node class E999 is not declared")
    ]


# -- the triple check against a walk of every row ----------------------------------

_TRIPLE_CODES = {UNKNOWN_PROPERTY, DOMAIN_VIOLATION, RANGE_VIOLATION, DATETIME_LEXICAL}


def _row_by_row_triple_findings(graph, schema):
    """The triple check as one walk of every row, with a branch per finding
    kind: each row's findings worked out on their own, with no judgement of
    the row's kind kept for the next row."""
    nodes, out = graph._nodes, []

    def outside(class_id, ancestor):
        return schema.has_class(class_id) and not schema.is_subclass(class_id, ancestor)

    for subject, predicate_iri, literal, obj, _ in graph._triples:
        predicate = graph._terms.property_ids.get(predicate_iri, predicate_iri)
        found = []
        if not schema.has_property(predicate):
            found.append((UNKNOWN_PROPERTY, f"property {predicate} is not declared in the schema"))
        else:
            prop = schema.property_def(predicate)
            if outside(nodes[subject], prop.domain):
                found.append((DOMAIN_VIOLATION, f"subject class {nodes[subject]} is outside the "
                              f"domain {prop.domain} of {predicate}"))
            if prop.range in LITERAL_RANGES:
                if not literal:
                    found.append((RANGE_VIOLATION,
                                  f"{predicate} expects a {prop.range} literal, found node {obj}"))
                elif prop.range == XSD_DATETIME and not validate_datetime(obj):
                    found.append((DATETIME_LEXICAL,
                                  f"literal {obj!r} does not match YYYY-MM-DDThh:mm:ss"))
            elif literal:
                found.append((RANGE_VIOLATION,
                              f"{predicate} expects a {prop.range} node, found literal {obj!r}"))
            elif outside(nodes[obj], prop.range):
                found.append((RANGE_VIOLATION, f"object class {nodes[obj]} is outside the "
                              f"range {prop.range} of {predicate}"))
        out += [ValidationFinding(code, subject, predicate, text) for code, text in found]
    return sorted(out, key=ValidationFinding.sort_key)


def _assert_triple_check_walks_every_row(graph, schema, registry, nesting):
    report = validate_graph(graph, schema, registry, nesting)
    found = [f for f in report.findings if f.code in _TRIPLE_CODES]
    assert found == _row_by_row_triple_findings(graph, schema)


@settings(max_examples=200, deadline=None)
@given(data=ntriples_documents())
def test_triple_check_of_a_read_graph_is_the_walk_of_every_row(schema, registry, nesting, data):
    try:
        graph = Graph.from_ntriples(data, schema)
    except GraphError:
        return
    _assert_triple_check_walks_every_row(graph, schema, registry, nesting)


# Foreign rows for a migrated graph: predicates declared (by IRI and by bare
# id) and not, node objects of every kind of class and literals with braces,
# a percent sign, and good and bad dateTime text.
_FOREIGN_PREDICATES = ("P128", "P3", "ISAD1", "DOP6", "DOP8", "ARP12", "P165")
_FOREIGN_NODES = ("https://other.example/x", "https://other.example/untyped")
_FOREIGN_TEXTS = ("{0} 100%", "1809-01-01T00:00:00", "1809-13-01T00:00:00", "note")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=1, max_value=12),
    dates=DATE_DEFECTS,
    bogus=SUPPORT_DEFECTS,
    foreign=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**16),
            st.integers(min_value=0, max_value=len(_FOREIGN_PREDICATES) + 1),
            st.one_of(st.integers(min_value=0, max_value=2**16), st.sampled_from(_FOREIGN_TEXTS)),
            st.booleans(),
            st.booleans(),
        ),
        max_size=12,
    ),
)
def test_triple_check_of_a_migrated_graph_is_the_walk_of_every_row(
    schema, registry, nesting, rules, seed, size, dates, bogus, foreign
):
    entries = with_defects(synthetic_corpus(random.Random(seed), size), dates, bogus)
    migrated = migrate_tree(resolve_inheritance(parse_corpus(corpus_text(entries))), rules,
                            schema, registry).graph
    nodes = sorted(migrated._nodes) + list(_FOREIGN_NODES)
    iris = migrated._terms.property_iris
    predicates = [iris[p] for p in _FOREIGN_PREDICATES] + ["P3", "https://other.example/p"]
    domains = {iris[p]: schema.property_def(p).domain for p in _FOREIGN_PREDICATES}
    lines = [f"<{_FOREIGN_NODES[0]}> <{RDF_TYPE}> <https://other.example/C> ."]
    for subject, predicate, obj, dated, fitting in foreign:
        predicate = predicates[predicate]
        # A subject in the predicate's domain, if asked and the graph has one.
        within = [n for n in nodes if migrated._nodes.get(n) == domains.get(predicate)]
        subjects = within if fitting and within else nodes
        if isinstance(obj, int):
            obj = f"<{nodes[obj % len(nodes)]}>"
        else:
            obj = f'"{obj}"' + (f"^^<{XSD_NAMESPACE}dateTime>" if dated else "")
        lines.append(f"<{subjects[subject % len(subjects)]}> <{predicate}> {obj} .")
    data = migrated.serialize() + "".join(line + "\n" for line in lines).encode("utf-8")
    graph = Graph.from_ntriples(data, schema)
    _assert_triple_check_walks_every_row(graph, schema, registry, nesting)
