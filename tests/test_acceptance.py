"""Acceptance criteria, one test per criterion with an explicit pass line."""

import json
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from archonto.graph import Graph, Literal, NodeRef, Triple
from archonto.mdl import BindMode, StepKind, parse_mdl, render_mdl
from archonto.migration import migrate_record, migrate_tree
from archonto.ontology import XSD_DATETIME
from archonto.records import DEFAULT_INHERITABLE, Provenance, parse_corpus, resolve_inheritance
from archonto.stats import usage_report
from archonto.validation import (
    ARP12_CARDINALITY,
    DATETIME_LEXICAL,
    DOMAIN_VIOLATION,
    VOCABULARY_VIOLATION,
    validate_datetime,
    validate_graph,
)

from conftest import (
    corpus_text,
    make_record,
    naive_inheritance,
    random_forest_tree,
    random_ruleset_text,
    synthetic_corpus,
)

REF = "PT/R"
DT = XSD_DATETIME


def _passed(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


# -- criterion 1: rule coverage ------------------------------------------------


def _anchors(g: Graph) -> tuple[NodeRef, NodeRef, NodeRef]:
    return (
        g.mint_node(REF, "e31", "1", "E31"),
        g.mint_node(REF, "e22", "1", "E22"),
        g.mint_node(REF, "e33", "1", "E33"),
    )


def _golden_case(schema, rule_no):
    """Minimal record plus the hand-transcribed triples of the rule's path."""
    g = Graph(schema)
    doc, hmo, lo = _anchors(g)
    elements: dict = {}
    parent = None
    expected: set[Triple] = set()
    if rule_no == 1:
        pass  # anchors only
    elif rule_no == 2:
        elements = {"1.4": "Fonds"}
        expected = {Triple(doc, "ARP12", g.mint_shared("ARE1", "Fonds"))}
    elif rule_no == 3:
        ident = g.mint_node(REF, "e42", REF, "E42")
        expected = {
            Triple(doc, "P1", ident),
            Triple(ident, "P2", g.mint_shared("ARE5", "Reference Code")),
        }
    elif rule_no in (4, 5, 6):
        title = "Juízo da Índia e Mina"
        kind = {4: None, 5: "formal", 6: "supplied"}[rule_no]
        cls = {4: "E35", 5: "ARE2", 6: "ARE3"}[rule_no]
        elements = {"1.2": title}
        if kind:
            elements["title_type"] = kind
        node = g.mint_node(REF, cls.lower(), "1", cls)
        carrier = g.mint_node(REF, "doe8", "1", "DOE8")
        expected = {
            Triple(doc, "P102", node),
            Triple(node, "L2DO", carrier),
            Triple(carrier, "DOP7", Literal(title)),
        }
    elif rule_no == 7:
        elements = {"production_date_start": "1700", "production_date_end": "1833"}
        production = g.mint_node(REF, "e12", "1", "E12")
        span = g.mint_node(REF, "e52", "interval", "E52")
        name = g.mint_node(REF, "e41", "interval", "E41")
        interval = g.mint_node(REF, "doe11", "interval", "DOE11")
        expected = {
            Triple(hmo, "P108", production),
            Triple(production, "P4", span),
            Triple(span, "P1", name),
            Triple(name, "L2DO", interval),
            Triple(interval, "DOP6", Literal("1700-01-01T00:00:00", DT)),
            Triple(interval, "DOP2", Literal("1833-12-31T23:59:59", DT)),
        }
    elif rule_no == 8:
        elements = {"production_date_single": "1813-07-12"}
        production = g.mint_node(REF, "e12", "1", "E12")
        span = g.mint_node(REF, "e52", "instant", "E52")
        name = g.mint_node(REF, "e41", "instant", "E41")
        instant = g.mint_node(REF, "doe10", "instant", "DOE10")
        expected = {
            Triple(hmo, "P108", production),
            Triple(production, "P4", span),
            Triple(span, "P1", name),
            Triple(name, "L2DO", instant),
            Triple(instant, "DOP8", Literal("1813-07-12T00:00:00", DT)),
        }
    elif rule_no in (9, 10):
        kind = "dimension" if rule_no == 9 else "extension"
        cls = "E54" if rule_no == 9 else "ARE4"
        elements = {"dimensions": [{"value": "25", "unit": "Centimeter", "kind": kind}]}
        measure = g.mint_node(REF, cls.lower(), "1", cls)
        expected = {
            Triple(hmo, "P43", measure),
            Triple(measure, "P91", g.mint_shared("E58", "Centimeter")),
            Triple(measure, "P90", Literal("25")),
        }
    elif rule_no == 11:
        elements = {"supports": ["Paper"]}
        expected = {Triple(hmo, "P45", g.mint_shared("E57", "Paper"))}
    elif rule_no == 12:
        elements = {"languages": ["Portuguese"]}
        expected = {Triple(lo, "P72", g.mint_shared("E56", "Portuguese"))}
    elif rule_no in (13, 14, 15):
        field, term, value = {
            13: ("physical_location", "Physical Location", "Armário 5"),
            14: ("original_numbering", "Original Numbering", "maço 12"),
            15: ("previous_location", "Previous Location", "AHU 3"),
        }[rule_no]
        elements = {field: value}
        ident = g.mint_node(REF, "e42", value, "E42")
        expected = {
            Triple(doc, "P1", ident),
            Triple(ident, "P2", g.mint_shared("ARE5", term)),
        }
    elif rule_no == 16:
        elements = {"description_creation_date": "1989-10-25"}
        creation = g.mint_node(REF, "e65", "1", "E65")
        span = g.mint_node(REF, "e52", "creation", "E52")
        name = g.mint_node(REF, "e41", "creation", "E41")
        instant = g.mint_node(REF, "doe10", "creation", "DOE10")
        expected = {
            Triple(lo, "P94", creation),
            Triple(creation, "P4", span),
            Triple(span, "P1", name),
            Triple(name, "L2DO", instant),
            Triple(instant, "DOP8", Literal("1989-10-25T00:00:00", DT)),
            Triple(instant, "P2", g.mint_shared("ARE6", "Creation Date")),
        }
    elif rule_no == 17:
        parent = "PT/PARENT"
        expected = {
            Triple(doc, "P165", g.mint_node(parent, "e31", "1", "E31")),
        }
    elif rule_no == 18:
        elements = {"creators": [{"name": "Lino", "role": "Producer"}]}
        production = g.mint_node(REF, "e12", "1", "E12")
        assoc = g.mint_node(REF, "pc14", "1", "PC14")
        person = g.mint_node(REF, "e21", "Lino", "E21")
        name = g.mint_node(REF, "e41", "1", "E41")
        person_name = g.mint_node(REF, "doe17", "1", "DOE17")
        expected = {
            Triple(hmo, "P108", production),
            Triple(assoc, "P01", production),
            Triple(assoc, "P02", person),
            Triple(person, "P1", name),
            Triple(name, "L2DO", person_name),
            Triple(person_name, "DOP5", Literal("Lino")),
            Triple(assoc, "P14.1", g.mint_shared("ARE8", "Producer")),
        }
    rule1 = {Triple(doc, "P128", hmo), Triple(doc, "P67", lo)}
    return elements, parent, rule1 | expected


def test_rule_coverage_goldens(schema, registry, rules):
    started = time.monotonic()
    for rule_no in range(1, 19):
        elements, parent, expected = _golden_case(schema, rule_no)
        record = make_record(REF, parent=parent, elements=elements)
        subset = rules.subset(1) if rule_no == 1 else rules.subset(1, rule_no)
        outcome = migrate_record(record, subset, schema, registry)
        assert not outcome.problems, (rule_no, outcome.problems)
        assert outcome.graph.triples == expected, f"rule {rule_no} triples differ"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"rule coverage took {elapsed:.2f}s"
    _passed("rule-coverage")


# -- criterion 2: figure-3 reconstruction ----------------------------------------


def _objects(graph, subject, predicate):
    return [t.object for t in graph.triples if t.subject == subject and t.predicate == predicate]


def test_figure3_reconstruction(schema, registry, nesting, rules):
    started = time.monotonic()
    ref = "PT/TT/JIM"
    entry = {
        "1.1": ref,
        "1.2": "Juízo da Índia e Mina",
        "title_type": "supplied",
        "1.4": "Fonds",
        "1.3": "1700-1833",
        "production_date_start": "1700",
        "production_date_end": "1833",
        "dimensions": [{"value": "742", "unit": "Centimeter", "kind": "dimension"}],
        "supports": ["Paper"],
        "5.4": "Nota de publicação sobre o fundo.",
        "description_creation_date": "1989-10-25",
    }
    tree = resolve_inheritance(parse_corpus(json.dumps(entry, ensure_ascii=False)))
    result = migrate_tree(tree, rules, schema, registry)
    graph = result.graph
    assert not result.problems

    doc = graph.mint_node(ref, "e31", "1", "E31")
    hmo = graph.mint_node(ref, "e22", "1", "E22")
    lo = graph.mint_node(ref, "e33", "1", "E33")

    # physical/conceptual split
    assert _objects(graph, doc, "P128") == [hmo]
    assert _objects(graph, doc, "P67") == [lo]

    # level of description
    (level,) = _objects(graph, doc, "ARP12")
    assert graph.shared_term(level) == ("ARE1", "Fonds")

    # supplied title through the string carrier
    (title,) = _objects(graph, doc, "P102")
    assert title.asserted_class == "ARE3"
    (carrier,) = _objects(graph, title, "L2DO")
    assert carrier.asserted_class == "DOE8"
    assert [o.text for o in _objects(graph, carrier, "DOP7")] == ["Juízo da Índia e Mina"]

    # reference code identifier typed 'Reference Code'
    identifiers = [o for o in _objects(graph, doc, "P1") if o.asserted_class == "E42"]
    assert len(identifiers) == 1
    (id_type,) = _objects(graph, identifiers[0], "P2")
    assert graph.shared_term(id_type) == ("ARE5", "Reference Code")

    # support and dimension on the physical object
    (support,) = _objects(graph, hmo, "P45")
    assert graph.shared_term(support) == ("E57", "Paper")
    (dimension,) = _objects(graph, hmo, "P43")
    assert dimension.asserted_class == "E54"
    assert [o.text for o in _objects(graph, dimension, "P90")] == ["742"]
    (unit,) = _objects(graph, dimension, "P91")
    assert graph.shared_term(unit) == ("E58", "Centimeter")

    # production interval under the production event
    (production,) = _objects(graph, hmo, "P108")
    (prod_span,) = _objects(graph, production, "P4")
    (prod_name,) = _objects(graph, prod_span, "P1")
    (interval,) = _objects(graph, prod_name, "L2DO")
    assert interval.asserted_class == "DOE11"
    assert [o.text for o in _objects(graph, interval, "DOP6")] == ["1700-01-01T00:00:00"]
    assert [o.text for o in _objects(graph, interval, "DOP2")] == ["1833-12-31T23:59:59"]

    # description creation date: E65 -> E52 -> E41 -> DOE10 Instant
    (creation,) = _objects(graph, lo, "P94")
    assert creation.asserted_class == "E65"
    (span,) = _objects(graph, creation, "P4")
    assert span.asserted_class == "E52"
    (span_name,) = _objects(graph, span, "P1")
    assert span_name.asserted_class == "E41"
    (instant,) = _objects(graph, span_name, "L2DO")
    assert instant.asserted_class == "DOE10"
    (stamp,) = _objects(graph, instant, "DOP8")
    assert validate_datetime(stamp.text)

    # verbatim legacy copies
    assert [o.text for o in _objects(graph, doc, "ISAD1")] == ["Juízo da Índia e Mina"]
    assert [o.text for o in _objects(graph, doc, "ISAD17")] == [
        "Nota de publicação sobre o fundo."
    ]

    report = validate_graph(graph, schema, registry, nesting)
    assert report.error_count == 0, report.lines()
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"figure-3 reconstruction took {elapsed:.2f}s"
    _passed("figure-3-reconstruction")


# -- criterion 3: determinism -------------------------------------------------------


def test_determinism_under_rerun_and_shuffle(schema, registry, rules):
    started = time.monotonic()
    rng = random.Random(20230711)
    entries = synthetic_corpus(rng, 100)
    text = corpus_text(entries)

    def run(corpus: str) -> bytes:
        tree = resolve_inheritance(parse_corpus(corpus))
        return migrate_tree(tree, rules, schema, registry).graph.serialize("ntriples")

    first = run(text)
    second = run(text)
    assert first == second
    lines = text.strip().splitlines()
    rng.shuffle(lines)
    shuffled = run("\n".join(lines) + "\n")
    assert shuffled == first
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"determinism check took {elapsed:.2f}s"
    _passed("determinism")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=40),
    order=st.randoms(use_true_random=False),
    dates=st.dictionaries(
        st.integers(min_value=0, max_value=39), st.sampled_from(("circa 1650", "1720")), max_size=8
    ),
    bogus=st.sets(st.integers(min_value=0, max_value=39), max_size=8),
    strict=st.booleans(),
)
def test_shuffled_corpus_gives_identical_graph_and_report(
    schema, registry, rules, seed, size, order, dates, bogus, strict
):
    """Any record order gives the same N-Triples and problem report.  Single
    dates, unusable or beside an interval, give the report some lines, and
    out-of-vocabulary supports make strict mode refuse some records."""
    entries = synthetic_corpus(random.Random(seed), size)
    for index, text in dates.items():
        if index < size:
            entries[index]["production_date_single"] = text
    for index in bogus:
        if index < size:
            entries[index]["supports"] = entries[index].get("supports", []) + [f"Bogus {index}"]

    def run(corpus: str) -> tuple[bytes, list[str]]:
        tree = resolve_inheritance(parse_corpus(corpus))
        result = migrate_tree(tree, rules, schema, registry, strict=strict)
        return result.graph.serialize("ntriples"), result.report_lines()

    lines = corpus_text(entries).splitlines()
    expected = run("\n".join(lines) + "\n")
    order.shuffle(lines)
    assert run("\n".join(lines) + "\n") == expected


# -- criterion 4: inheritance oracle --------------------------------------------------


def test_inheritance_matches_oracle_1000_trials():
    rng = random.Random(97)
    keys = sorted(DEFAULT_INHERITABLE)
    mismatches = 0
    for _ in range(1000):
        tree = random_forest_tree(rng, max_nodes=200, max_depth=6)
        resolved = resolve_inheritance(tree)
        oracle = naive_inheritance(tree, keys)
        for ref, expected in oracle.items():
            record = resolved.record(ref)
            for key in keys:
                if key in expected:
                    value, source = expected[key]
                    if record.elements.get(key) != value or record.provenance.get(
                        key
                    ) != Provenance(source):
                        mismatches += 1
                elif key in record.provenance:
                    mismatches += 1
    assert mismatches == 0
    _passed("inheritance-oracle")


# -- criterion 5: validation soundness under corruption ----------------------------------


def _clean_graph(trial, schema, registry, rules):
    levels = ("Fonds", "Serie", "File", "Item")
    record = {
        "1.1": f"PT/C{trial:03d}",
        "1.2": f"Unidade {trial}",
        "title_type": "supplied",
        "1.4": levels[trial % len(levels)],
        "production_date_single": f"{1500 + trial % 400:04d}-{1 + trial % 12:02d}-{1 + trial % 28:02d}",
    }
    tree = parse_corpus(json.dumps(record))
    return migrate_tree(tree, rules, schema, registry).graph


def _corrupt_domain(graph):
    target = next(t for t in graph.triples if t.predicate == "ARP12")
    wrong = next(n for n in graph.node_index.values() if n.asserted_class == "E22")
    graph.remove_triple(target)
    graph.add_triple(wrong, "ARP12", target.object)
    return DOMAIN_VIOLATION


def _corrupt_date(graph):
    target = next(t for t in graph.triples if t.predicate == "DOP8")
    graph.remove_triple(target)
    graph.add_triple(target.subject, "DOP8", Literal("1813-07-12", DT))
    return DATETIME_LEXICAL


def _corrupt_vocabulary(graph):
    target = next(t for t in graph.triples if t.predicate == "ARP12")
    graph.remove_triple(target)
    graph.add_triple(target.subject, "ARP12", graph.mint_shared("ARE1", "Bogus Level"))
    return VOCABULARY_VIOLATION


def _corrupt_double_level(graph):
    target = next(t for t in graph.triples if t.predicate == "ARP12")
    other = "Item" if graph.shared_term(target.object) != ("ARE1", "Item") else "File"
    graph.add_triple(target.subject, "ARP12", graph.mint_shared("ARE1", other))
    return ARP12_CARDINALITY


_CORRUPTIONS = (_corrupt_domain, _corrupt_date, _corrupt_vocabulary, _corrupt_double_level)


def test_validation_flags_exactly_the_injected_fault(schema, registry, nesting, rules):
    rng = random.Random(555)
    for trial in range(500):
        clean = _clean_graph(trial, schema, registry, rules)
        clean_report = validate_graph(clean, schema, registry, nesting)
        assert clean_report.error_count == 0, clean_report.lines()
        corrupted = clean.copy()
        corrupt = rng.choice(_CORRUPTIONS)
        expected = corrupt(corrupted)
        report = validate_graph(corrupted, schema, registry, nesting)
        error_codes = {f.code for f in report.errors}
        if expected == ARP12_CARDINALITY:
            assert error_codes == set(), report.lines()
            assert ARP12_CARDINALITY in {f.code for f in report.findings}
        else:
            assert error_codes == {expected}, (expected, report.lines())
    _passed("validation-corruption")


# -- criterion 6: MDL round-trip ------------------------------------------------------


def test_mdl_round_trip_builtins_and_fuzz(schema, rules):
    canonical = render_mdl(rules, schema)
    assert parse_mdl(canonical, schema) == rules
    assert render_mdl(parse_mdl(canonical, schema), schema) == canonical

    @settings(max_examples=250, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def fuzz(rng):
        ruleset = parse_mdl(random_ruleset_text(rng, schema, 4), schema)
        assert len(ruleset.rules) == 4
        rendered = render_mdl(ruleset, schema)
        reparsed = parse_mdl(rendered, schema)
        assert reparsed == ruleset
        assert render_mdl(reparsed, schema) == rendered
        # The shape the engine's hop walk relies on: nodes at even places and
        # at both ends, edges between them, an emission only last.
        for rule in ruleset.rules:
            for path in rule.paths:
                assert len(path) % 2 == 1
                assert [step.kind for step in path] == [
                    StepKind.EDGE if index % 2 else StepKind.NODE for index in range(len(path))
                ]
                assert all(
                    step.binding is None or step.binding.mode is not BindMode.EMIT
                    for step in path[:-1]
                )

    fuzz()
    _passed("mdl-round-trip")


# -- criterion 7: stats partition identity --------------------------------------------


def test_stats_partition_identity(schema, registry, rules):
    rng = random.Random(4242)
    tree = resolve_inheritance(parse_corpus(corpus_text(synthetic_corpus(rng, 40))))
    result = migrate_tree(tree, rules, schema, registry)
    report = usage_report(result.graph, schema)
    assert report.total_properties == len(result.graph)

    outcome = migrate_record(make_record("PT/X"), rules.subset(1), schema, registry)
    single = usage_report(outcome.graph, schema)
    assert sorted(single.class_counts) == [
        ("CIDOC CRM", "E22", 1),
        ("CIDOC CRM", "E31", 1),
        ("CIDOC CRM", "E33", 1),
    ]
    assert sorted(single.property_counts) == [
        ("CIDOC CRM", "P128", 1),
        ("CIDOC CRM", "P67", 1),
    ]
    _passed("stats-partition")


# -- criterion 8: datetime validator sweep ----------------------------------------------


def _days_in_month_oracle(year: int, month: int) -> int:
    table = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    if month == 2 and leap:
        return 29
    return table[month - 1]


def test_datetime_boundary_sweep():
    for year in (1600, 1700, 1900, 2000):
        for month in range(1, 13):
            for day in range(28, 32):
                text = f"{year:04d}-{month:02d}-{day:02d}T00:00:00"
                expected = day <= _days_in_month_oracle(year, month)
                assert validate_datetime(text) is expected, text
    # time-part boundaries
    assert validate_datetime("2000-01-01T23:59:59")
    assert not validate_datetime("2000-01-01T24:00:00")
    assert not validate_datetime("2000-01-01T00:60:00")
    assert not validate_datetime("2000-01-01T00:00:60")
    _passed("datetime-sweep")
