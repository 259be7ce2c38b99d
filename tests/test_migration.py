"""Rule engine behaviour: node identity, rule choice, fallback, tree driver."""

import heapq
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archonto import migration
from archonto.graph import GraphError, decode_node
from archonto.mdl import parse_mdl, render_mdl
from archonto.migration import (
    DateTextError,
    attach_isad_fallback,
    migrate_record,
    migrate_tree,
    widen_date_text,
    MigrationError,
    RecordProblem,
)
from archonto.ontology import XSD_STRING
from archonto.records import IsadRecord, RecordTree, parse_corpus, resolve_inheritance
from archonto.validation import validate_datetime, validate_graph

from conftest import (
    DATE_DEFECTS,
    SUPPORT_DEFECTS,
    corpus_text,
    make_record,
    objects,
    row,
    rows_of,
    synthetic_corpus,
    with_defects,
)


def migrate(record, rules, schema, registry, rule_nos=None, strict=False):
    ruleset = rules if rule_nos is None else rules.subset(*rule_nos)
    return migrate_record(record, ruleset, schema, registry, strict=strict)


# -- date widening ----------------------------------------------------------


@pytest.mark.parametrize(
    "text,position,expected",
    [
        ("1700", "start", "1700-01-01T00:00:00"),
        ("1833", "end", "1833-12-31T23:59:59"),
        ("1989-10", "start", "1989-10-01T00:00:00"),
        ("1989-10", "end", "1989-10-31T23:59:59"),
        ("1600-02", "end", "1600-02-29T23:59:59"),  # leap century year
        ("1700-02", "end", "1700-02-28T23:59:59"),  # non-leap century year
        ("1813-07-12", "single", "1813-07-12T00:00:00"),
        ("1813-07-12", "end", "1813-07-12T23:59:59"),
        ("1813-07-12T10:20:30", "single", "1813-07-12T10:20:30"),
    ],
)
def test_widen_date_text(text, position, expected):
    widened = widen_date_text(text, position)
    assert widened == expected
    assert validate_datetime(widened)


@pytest.mark.parametrize(
    "text", ["circa 1800", "1813-13-01", "1700-02-30", "18", "", "0000", "0000-05"]
)
def test_widen_rejects_bad_text(text):
    with pytest.raises(DateTextError):
        widen_date_text(text, "single")


# Digits of other scripts are digits to \d and to int(), but not to xsd:dateTime.
@pytest.mark.parametrize(
    "text",
    ["\uff12\uff10\uff12\uff10-01-01T00:00:00", "\u0661\u0669\u0669\u0669", "1999-\u0660\u0661",
     "1999-01-\u0660\u0661", "1999-01-01T0\u0661:00:00"],
)
@pytest.mark.parametrize("position", ["start", "end", "single"])
def test_widen_takes_ascii_digits_only(text, position):
    with pytest.raises(DateTextError):
        widen_date_text(text, position)


def test_numeric_dimension_value_stringified(schema, registry, rules):
    record = make_record(
        "PT/X", elements={"dimensions": [{"value": 25, "unit": "Gram", "kind": "dimension"}]}
    )
    graph = migrate(record, rules, schema, registry, [1, 9]).graph
    values = objects(graph, "P90")
    assert values == ["25"]


def test_year_range_round_trips_year():
    # widening convention check: the year must survive in both endpoints
    for year in (1400, 1700, 1833, 2000):
        start = widen_date_text(str(year), "start")
        end = widen_date_text(str(year), "end")
        assert re.match(rf"^{year:04d}-01-01T00:00:00$", start)
        assert re.match(rf"^{year:04d}-12-31T23:59:59$", end)


# -- single-rule behaviour -----------------------------------------------------


def test_rule_1_anchors(schema, registry, rules):
    record = make_record("PT/TT/JIM")
    outcome = migrate(record, rules, schema, registry, [1])
    graph = outcome.graph
    doc = graph.mint_node("PT/TT/JIM", "e31", "1", "E31")
    hmo = graph.mint_node("PT/TT/JIM", "e22", "1", "E22")
    lo = graph.mint_node("PT/TT/JIM", "e33", "1", "E33")
    assert graph.triples == {
        row(graph, doc, "P128", hmo),
        row(graph, doc, "P67", lo),
    }


def test_rule_2_level_shared_individual(schema, registry, rules):
    record = make_record("PT/TT/JIM", elements={"1.4": "Fonds"})
    graph = migrate(record, rules, schema, registry, [1, 2]).graph
    doc = graph.mint_node("PT/TT/JIM", "e31", "1", "E31")
    level = graph.mint_shared("ARE1", "Fonds")
    assert row(graph, doc, "ARP12", level) in graph.triples
    assert graph.shared_term(level) == ("ARE1", "Fonds")


def test_rule_2_blank_level_skips(schema, registry, rules):
    record = make_record("PT/TT/JIM")
    outcome = migrate(record, rules, schema, registry, [1, 2])
    assert not rows_of(outcome.graph, "ARP12")
    entry = next(e for e in outcome.trace if e.rule_no == 2)
    assert entry.triples == 0
    assert "skipped" in entry.note


def test_rule_3_reference_code(schema, registry, rules):
    record = make_record("PT/TT/JIM")
    graph = migrate(record, rules, schema, registry, [1, 3]).graph
    doc = graph.mint_node("PT/TT/JIM", "e31", "1", "E31")
    identifier = graph.mint_node("PT/TT/JIM", "e42", "PT/TT/JIM", "E42")
    kind = graph.mint_shared("ARE5", "Reference Code")
    assert row(graph, doc, "P1", identifier) in graph.triples
    assert row(graph, identifier, "P2", kind) in graph.triples


def test_title_rule_choice(schema, registry, rules):
    for title_type, class_id in (("formal", "ARE2"), ("supplied", "ARE3"), (None, "E35")):
        elements = {"1.2": "Juízo da Índia e Mina"}
        if title_type:
            elements["title_type"] = title_type
        record = make_record("PT/TT/JIM", elements=elements)
        graph = migrate(record, rules, schema, registry, [1, 4, 5, 6]).graph
        title_classes = [c for c in graph.node_index.values() if c in ("E35", "ARE2", "ARE3")]
        assert title_classes == [class_id]
        # title text flows through the string carrier
        literals = objects(graph, "DOP7")
        assert literals == ["Juízo da Índia e Mina"]
        assert rows_of(graph, "L2DO")


def test_interval_dates(schema, registry, rules):
    record = make_record(
        "PT/TT/JIM",
        elements={"production_date_start": "1700", "production_date_end": "1833"},
    )
    graph = migrate(record, rules, schema, registry, [1, 7, 8]).graph
    starts = objects(graph, "DOP6")
    ends = objects(graph, "DOP2")
    assert starts == ["1700-01-01T00:00:00"]
    assert ends == ["1833-12-31T23:59:59"]
    assert not rows_of(graph, "DOP8")
    interval = [n for n, class_id in graph.node_index.items() if class_id == "DOE11"]
    assert len(interval) == 1


def test_single_date(schema, registry, rules):
    record = make_record("PT/TT/JIM", elements={"production_date_single": "1813-07-12"})
    graph = migrate(record, rules, schema, registry, [1, 7, 8]).graph
    stamps = objects(graph, "DOP8")
    assert stamps == ["1813-07-12T00:00:00"]
    assert list(graph.node_index.values()).count("DOE10") == 1


def test_unparseable_date_reported_and_skipped(schema, registry, rules):
    record = make_record(
        "PT/TT/JIM",
        elements={"production_date_single": "circa 1800", "1.3": "circa 1800"},
    )
    outcome = migrate(record, rules, schema, registry)
    assert not rows_of(outcome.graph, "DOP8")
    assert any("circa 1800" in p.message for p in outcome.problems)
    attach_isad_fallback(record, outcome.graph)
    dates = objects(outcome.graph, "ISAD5")
    assert dates == ["circa 1800"]


def test_dimension_entries_mint_distinct_nodes(schema, registry, rules):
    record = make_record(
        "PT/TT/JIM",
        elements={
            "dimensions": [
                {"value": "25", "unit": "Centimeter", "kind": "dimension"},
                {"value": "3", "unit": "Pack", "kind": "dimension"},
                {"value": "120", "unit": "Centimeter", "kind": "extension"},
            ]
        },
    )
    graph = migrate(record, rules, schema, registry, [1, 9, 10]).graph
    dims = [n for n, class_id in graph.node_index.items() if class_id == "E54"]
    exts = [n for n, class_id in graph.node_index.items() if class_id == "ARE4"]
    assert len(dims) == 2 and len(exts) == 1
    values = sorted(objects(graph, "P90"))
    assert values == ["120", "25", "3"]
    units = set(objects(graph, "P91"))
    assert len(units) == 2  # Centimeter node shared between entries


def test_dimension_without_unit_or_value(schema, registry, rules):
    record = make_record(
        "PT/TT/JIM",
        elements={
            "dimensions": [
                {"value": "25", "kind": "dimension"},
                {"unit": "Gram", "kind": "dimension"},
            ]
        },
    )
    graph = migrate(record, rules, schema, registry, [1, 9]).graph
    assert len(rows_of(graph, "P90")) == 1
    assert len(rows_of(graph, "P91")) == 1


def test_supports_and_languages_shared(schema, registry, rules):
    record = make_record(
        "PT/TT/JIM",
        elements={"supports": ["Paper", "Parchment"], "languages": ["Portuguese"]},
    )
    graph = migrate(record, rules, schema, registry, [1, 11, 12]).graph
    hmo = graph.mint_node("PT/TT/JIM", "e22", "1", "E22")
    lo = graph.mint_node("PT/TT/JIM", "e33", "1", "E33")
    assert row(graph, hmo, "P45", graph.mint_shared("E57", "Paper")) in graph.triples
    assert row(graph, hmo, "P45", graph.mint_shared("E57", "Parchment")) in graph.triples
    assert row(graph, lo, "P72", graph.mint_shared("E56", "Portuguese")) in graph.triples


def test_identifier_rules(schema, registry, rules):
    record = make_record(
        "PT/TT/JIM",
        elements={
            "physical_location": "Armário 5",
            "original_numbering": "maço 12",
            "previous_location": "AHU 3",
        },
    )
    graph = migrate(record, rules, schema, registry, [1, 13, 14, 15]).graph
    typed = {
        (subject.rsplit("/", 1)[-1], graph.shared_term(obj)[1])
        for subject, _, _, obj, _ in rows_of(graph, "P2")
    }
    assert typed == {
        ("Arm%C3%A1rio%205", "Physical Location"),
        ("ma%C3%A7o%2012", "Original Numbering"),
        ("AHU%203", "Previous Location"),
    }


def test_description_dates_two_instants(schema, registry, rules):
    record = make_record(
        "PT/TT/JIM",
        elements={
            "description_creation_date": "1989-10-25",
            "description_last_modification": "2004-02-29",
        },
    )
    graph = migrate(record, rules, schema, registry, [1, 16]).graph
    creations = [n for n, class_id in graph.node_index.items() if class_id == "E65"]
    spans = [n for n, class_id in graph.node_index.items() if class_id == "E52"]
    instants = [n for n, class_id in graph.node_index.items() if class_id == "DOE10"]
    assert len(creations) == 1  # one creation event, two time-spans
    assert len(spans) == 2
    assert len(instants) == 2
    types = {graph.shared_term(obj)[1] for obj in objects(graph, "P2")}
    assert types == {"Creation Date", "Last Modification"}
    stamps = sorted(objects(graph, "DOP8"))
    assert stamps == ["1989-10-25T00:00:00", "2004-02-29T00:00:00"]


def test_description_date_single_instant(schema, registry, rules):
    record = make_record("PT/TT/JIM", elements={"description_creation_date": "1989"})
    graph = migrate(record, rules, schema, registry, [1, 16]).graph
    assert list(graph.node_index.values()).count("DOE10") == 1
    types = {graph.shared_term(obj)[1] for obj in objects(graph, "P2")}
    assert types == {"Creation Date"}


def test_creator_nary_pattern(schema, registry, rules):
    record = make_record(
        "PT/TT/JIM", elements={"creators": [{"name": "Lino", "role": "Producer"}]}
    )
    graph = migrate(record, rules, schema, registry, [1, 18]).graph
    assocs = [n for n, class_id in graph.node_index.items() if class_id == "PC14"]
    assert len(assocs) == 1
    assoc = assocs[0]
    production = graph.mint_node("PT/TT/JIM", "e12", "1", "E12")
    person = graph.mint_node("PT/TT/JIM", "e21", "Lino", "E21")
    role = graph.mint_shared("ARE8", "Producer")
    assert row(graph, assoc, "P01", production) in graph.triples
    assert row(graph, assoc, "P02", person) in graph.triples
    assert row(graph, assoc, "P14.1", role) in graph.triples
    names = objects(graph, "DOP5")
    assert names == ["Lino"]


def test_creator_without_role_drops_role_path(schema, registry, rules):
    record = make_record("PT/TT/JIM", elements={"creators": [{"name": "Lino"}]})
    graph = migrate(record, rules, schema, registry, [1, 18]).graph
    assert not rows_of(graph, "P14.1")
    assert rows_of(graph, "P02")


def test_creator_and_dates_share_production_event(schema, registry, rules):
    record = make_record(
        "PT/TT/JIM",
        elements={
            "production_date_start": "1700",
            "production_date_end": "1833",
            "creators": [{"name": "Lino", "role": "Producer"}],
        },
    )
    graph = migrate(record, rules, schema, registry, [1, 7, 8, 18]).graph
    productions = [n for n, class_id in graph.node_index.items() if class_id == "E12"]
    assert len(productions) == 1
    assert len(rows_of(graph, "P108")) == 1


def test_strict_vocabulary_violation(schema, registry, rules):
    record = make_record("PT/TT/JIM", elements={"1.4": "Bogus Level"})
    with pytest.raises(MigrationError, match=r"^rule 2 \(1\): term 'Bogus Level' is not"):
        migrate(record, rules, schema, registry, [1, 2], strict=True)
    tree = parse_corpus(_corpus({"1.1": "PT/TT/JIM", "1.4": "Bogus Level"}))
    strict = migrate_tree(tree, rules.subset(1, 2), schema, registry, strict=True)
    assert len(strict.graph) == 0 and not strict.graph.node_index
    assert [p.severity for p in strict.problems] == ["error"]
    lenient = migrate(record, rules, schema, registry, [1, 2], strict=False)
    assert rows_of(lenient.graph, "ARP12")


# -- the verbatim fallback ----------------------------------------------------------


def test_fallback_scope_and_title(schema, registry, rules):
    record = make_record(
        "PT/TT/JIM",
        elements={
            "1.2": "Juízo da Índia e Mina",
            "title_type": "supplied",
            "3.1": "Full scope text",
        },
    )
    outcome = migrate(record, rules, schema, registry)
    graph = attach_isad_fallback(record, outcome.graph)
    doc = graph.mint_node("PT/TT/JIM", "e31", "1", "E31")
    assert row(graph, doc, "ISAD9", "Full scope text", XSD_STRING) in graph.triples
    assert row(graph, doc, "ISAD1", "Juízo da Índia e Mina", XSD_STRING) in graph.triples
    assert row(graph, doc, "ISAD4", "supplied", XSD_STRING) in graph.triples
    # the structural title is present alongside the verbatim copy
    assert rows_of(graph, "P102")


def test_fallback_skips_blank_note(schema, registry, rules):
    record = make_record("PT/TT/JIM", elements={"6.1": "   "})
    graph = attach_isad_fallback(record, migrate(record, rules, schema, registry).graph)
    assert not rows_of(graph, "ISAD18")


def test_fallback_not_atomized(schema, registry, rules):
    text = "Long narrative.\nIt spans lines; it includes 1700-1833 and names."
    record = make_record("PT/TT/JIM", elements={"2.2": text})
    graph = attach_isad_fallback(record, migrate(record, rules, schema, registry).graph)
    values = objects(graph, "ISAD7")
    assert values == [text]


def test_not_started_elements_get_fallback_only(schema, registry, rules):
    record = make_record(
        "PT/TT/JIM",
        elements={
            "3.3": "annual accruals",
            "3.4": "chronological order",
            "4.1": "open access",
            "4.2": "reproduction on request",
        },
    )
    outcome = migrate(record, rules, schema, registry)
    baseline = set(outcome.graph.triples)
    graph = attach_isad_fallback(record, outcome.graph)
    added = {graph._terms.property_ids[p] for _, p, *_ in graph.triples - baseline}
    assert added == {"ISAD27", "ISAD19", "ISAD10", "ISAD24", "ISAD3"}


# -- tree driver ---------------------------------------------------------------


def _corpus(*entries) -> str:
    return "\n".join(json.dumps(e, ensure_ascii=False) for e in entries)


def test_parent_link_emitted(schema, registry, rules):
    tree = resolve_inheritance(
        parse_corpus(
            _corpus(
                {"1.1": "PT/F", "1.4": "Fonds"},
                {"1.1": "PT/F/S", "parent": "PT/F", "1.4": "Section"},
            )
        )
    )
    result = migrate_tree(tree, rules, schema, registry)
    graph = result.graph
    child = graph.mint_node("PT/F/S", "e31", "1", "E31")
    parent = graph.mint_node("PT/F", "e31", "1", "E31")
    assert row(graph, child, "P165", parent) in graph.triples


def test_single_record_no_parent_link(schema, registry, rules):
    tree = parse_corpus(_corpus({"1.1": "PT/F", "1.4": "Fonds"}))
    result = migrate_tree(tree, rules, schema, registry)
    assert not rows_of(result.graph, "P165")


def test_tree_count_equals_sum_of_records(schema, registry, rules):
    tree = resolve_inheritance(
        parse_corpus(
            _corpus(
                {"1.1": "PT/F", "1.4": "Fonds", "3.1": "scope", "supports": ["Paper"]},
                {"1.1": "PT/F/A", "parent": "PT/F", "1.4": "Section",
                 "production_date_single": "1813-07-12"},
                {"1.1": "PT/F/A/1", "parent": "PT/F/A", "1.4": "File",
                 "creators": [{"name": "Lino", "role": "Producer"}]},
            )
        )
    )
    result = migrate_tree(tree, rules, schema, registry)
    per_record = 0
    for ref in tree.records:
        outcome = migrate_record(tree.records[ref], rules, schema, registry)
        attach_isad_fallback(tree.records[ref], outcome.graph)
        per_record += len(outcome.graph)
    assert len(result.graph) == per_record


def test_shared_individuals_minted_once(schema, registry, rules):
    tree = parse_corpus(
        _corpus(
            {"1.1": "A", "1.4": "Fonds", "supports": ["Paper"]},
            {"1.1": "B", "1.4": "Fonds", "supports": ["Paper"]},
        )
    )
    result = migrate_tree(tree, rules, schema, registry)
    fonds_nodes = [
        n
        for n in result.graph.node_index
        if result.graph.shared_term(n) == ("ARE1", "Fonds")
    ]
    assert len(fonds_nodes) == 1
    paper_nodes = [
        n
        for n in result.graph.node_index
        if result.graph.shared_term(n) == ("E57", "Paper")
    ]
    assert len(paper_nodes) == 1


def test_an_empty_reference_is_refused_before_any_rule_fires(schema, registry, rules):
    record = IsadRecord("", None, {"1.4": "Fonds"})
    with pytest.raises(GraphError, match=r"^record_ref must be non-empty$"):
        migrate_record(record, rules, schema, registry)


def test_an_empty_reference_in_a_tree_is_one_error_and_writes_nothing(schema, registry, rules):
    tree = RecordTree({"": IsadRecord("", None, {"1.4": "Fonds"})}, {}, ("",))
    result = migrate_tree(tree, rules, schema, registry)
    assert result.problems == (RecordProblem("", "error", "record_ref must be non-empty"),)
    assert len(result.graph) == 0 and not result.graph.node_index


# References spelled like the shared segment, the ontology namespace, or one
# another once encoded (A/1 and A-1), or holding the escape character.
_SCHEME_SHAPED_REFERENCES = (
    {"1.1": "shared", "1.4": "Fonds", "languages": ["Portuguese"], "supports": ["Paper"]},
    {"1.1": "ontology", "1.4": "Fonds"},
    {"1.1": "A/1", "1.4": "File", "parent": "shared"},
    {"1.1": "A-1", "1.4": "Fonds"},
    {"1.1": "50%", "1.4": "Serie", "parent": "ontology"},
)


def test_references_shaped_like_the_scheme_decode_to_their_own_record(
    schema, registry, nesting, rules
):
    tree = resolve_inheritance(parse_corpus(_corpus(*_SCHEME_SHAPED_REFERENCES)))
    result = migrate_tree(tree, rules, schema, registry)
    graph = result.graph
    assert not result.problems
    assert validate_graph(graph, schema, registry, nesting).findings == ()
    kinds = set()
    for iri, class_id in graph.node_index.items():
        reference, role, discriminator = decode_node(graph.base_iri, iri)
        if schema.has_class(role):
            assert (reference, role) == ("shared", class_id)
            assert graph.shared_term(iri) == (role, discriminator)
        else:
            assert reference in tree.records
            assert role.split(".")[0] == class_id.lower()
            assert graph.shared_term(iri) is None
        kinds.add((reference, schema.has_class(role)))
    assert kinds == {(ref, False) for ref in tree.records} | {("shared", True)}
    own_document = graph.base_iri + "shared/e31/1"
    assert graph.node_index[own_document] == "E31"
    assert decode_node(graph.base_iri, own_document) == ("shared", "e31", "1")


def _assert_a_run_merges_its_parts(tree, part_of, rules, schema, registry, strict=False):
    """Migrating the records of ``tree`` apart, the i-th (in sorted order) in
    part ``part_of[i]``, gives what one run over them all gives."""
    whole = migrate_tree(tree, rules, schema, registry, strict=strict)
    grouped: dict[int, dict] = {}
    for reference, part in zip(sorted(tree.records), part_of):
        grouped.setdefault(part, {})[reference] = tree.records[reference]
    parts = [
        migrate_tree(RecordTree(records, {}, ()), rules, schema, registry, strict=strict)
        for records in grouped.values()
    ]
    lines = set(whole.graph.serialize().splitlines())
    assert lines == set().union(*(part.graph.serialize().splitlines() for part in parts))
    problems = sorted(line for part in parts for line in part.report_lines())
    assert sorted(whole.report_lines()) == problems
    # Rows, not rendered lines, give the writer's order; a row that two
    # parts share (a shared node's type, a parent's E31 type) comes once.
    merged = heapq.merge(*(part.graph._sorted_rows() for part in parts))
    assert whole.graph._sorted_rows() == [row for row, _ in itertools.groupby(merged)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=40),
    data=st.data(),
    dates=DATE_DEFECTS,
    bogus=SUPPORT_DEFECTS,
    strict=st.booleans(),
)
def test_a_run_is_the_merge_of_runs_over_any_split_of_its_records(
    schema, registry, rules, seed, size, data, dates, bogus, strict
):
    """Once inheritance is resolved, a record's output depends on that record
    alone: lines, problems and rows of the whole run are those of its parts."""
    entries = with_defects(synthetic_corpus(random.Random(seed), size), dates, bogus)
    tree = resolve_inheritance(parse_corpus(corpus_text(entries)))
    part_of = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    _assert_a_run_merges_its_parts(tree, part_of, rules, schema, registry, strict)


def test_references_shaped_like_the_scheme_merge_under_every_split(schema, registry, rules):
    # 'shared' shares its prefix with the shared nodes, and A%2F1 sorts
    # before A-1 encoded, though A-1 < A/1 raw.
    tree = resolve_inheritance(parse_corpus(_corpus(*_SCHEME_SHAPED_REFERENCES)))
    for part_of in itertools.product(range(3), repeat=len(tree.records)):
        _assert_a_run_merges_its_parts(tree, part_of, rules, schema, registry)


def test_monotonicity_of_added_elements(schema, registry, rules):
    base = make_record("PT/X", elements={"1.4": "Fonds"})
    extended = make_record("PT/X", elements={"1.4": "Fonds", "supports": ["Paper"]})
    graph_base = migrate(base, rules, schema, registry).graph
    graph_ext = migrate(extended, rules, schema, registry).graph
    assert graph_base.triples <= graph_ext.triples


def test_record_anchor_invariants(schema, registry, rules):
    tree = parse_corpus(
        _corpus(
            {"1.1": "A", "1.4": "Fonds"},
            {"1.1": "A/B", "parent": "A", "1.4": "Section"},
        )
    )
    result = migrate_tree(tree, rules, schema, registry)
    graph = result.graph
    for ref in ("A", "A/B"):
        doc = graph.mint_node(ref, "e31", "1", "E31")
        hmo = graph.mint_node(ref, "e22", "1", "E22")
        lo = graph.mint_node(ref, "e33", "1", "E33")
        assert row(graph, doc, "P128", hmo) in graph.triples
        assert row(graph, doc, "P67", lo) in graph.triples
        levels = objects(graph, "ARP12", doc)
        assert len(levels) == 1


def test_fail_fast_raises(schema, registry, rules):
    tree = parse_corpus(_corpus({"1.1": "A", "1.4": "Bogus"}))
    with pytest.raises(MigrationError):
        migrate_tree(tree, rules, schema, registry, strict=True, fail_fast=True)
    # without fail-fast the corpus completes and the problem is reported
    result = migrate_tree(tree, rules, schema, registry, strict=True)
    assert result.has_errors
    assert result.report_lines()[0].startswith("A\terror\t")


_TITLE_PATH = "$D1 -> P102 has title -> E35 Title -> DOP7 stringValue -> T"


@pytest.mark.parametrize(
    "path,predicate,message",
    [
        ("$D1 -> P128 is carried by -> T", "P128",
         "rule 4 (1): P128 expects a E22 node, got literal 'Unidade {ref}'"),
        ("$D1 -> P102 has title -> E35 Title -> DOP7 stringValue -> E22 Human-Made Object",
         "DOP7",
         "rule 4 (1): DOP7 expects a xsd:string literal, got node https://example.org/archonto/{ref}/e22/1"),
    ],
    ids=["literal-on-P128", "node-on-DOP7"],
)
def test_strict_range_kind_mismatch_refuses_each_record(
    schema, registry, rules, path, predicate, message
):
    text = render_mdl(rules, schema)
    assert _TITLE_PATH in text
    mismatched = parse_mdl(text.replace(_TITLE_PATH, path), schema)
    tree = parse_corpus(_corpus(*({"1.1": ref, "1.4": "Fonds", "1.2": f"Unidade {ref}"}
                                  for ref in ("A", "B"))))
    strict = migrate_tree(tree, mismatched, schema, registry, strict=True)
    assert strict.problems == tuple(
        RecordProblem(ref, "error", message.format(ref=ref)) for ref in ("A", "B")
    )
    assert len(strict.graph) == 0 and not strict.graph.node_index
    lenient = migrate_tree(tree, mismatched, schema, registry)
    assert not lenient.problems
    literal_range = schema.property_def(predicate).has_literal_range
    mismatches = [
        stored for stored in rows_of(lenient.graph, predicate)
        if bool(stored[2]) is not literal_range
    ]
    assert len(mismatches) == 2


@pytest.mark.parametrize(
    "entry,message",
    [
        ({"creators": [{"name": "Joao", "role": "Bogus"}]},
         "rule 18 (1): term 'Bogus' is not in the vocabulary bound to ARE8"),
        ({"dimensions": [{"value": 3, "unit": "Furlong", "kind": "dimension"}]},
         "rule 9 (1): term 'Furlong' is not in the vocabulary bound to E58"),
    ],
    ids=["creator-role", "dimension-unit"],
)
def test_strict_refusal_leaves_nothing_of_the_record(schema, registry, rules, entry, message):
    clean = {"1.1": "PT/B", "1.4": "Fonds", "supports": ["Paper"]}
    tree = parse_corpus(_corpus({"1.1": "PT/A", "1.4": "Fonds", **entry}, clean))
    result = migrate_tree(tree, rules, schema, registry, strict=True)
    assert result.report_lines() == [f"PT/A\terror\t{message}"]
    assert not any("/PT%2FA/" in iri for iri in result.graph.node_index)
    alone = migrate_tree(parse_corpus(_corpus(clean)), rules, schema, registry, strict=True)
    assert result.graph.serialize() == alone.graph.serialize()


@pytest.mark.parametrize("fail_fast", [False, True], ids=["filed", "fail-fast"])
def test_a_refused_record_is_undone_beyond_its_own_nodes(
    schema, registry, rules, monkeypatch, fail_fast
):
    first = {"1.1": "PT/A", "1.4": "Fonds", "supports": ["Paper"]}
    refused = {"1.1": "PT/B", "1.4": "Fonds", "supports": ["Parchment"], "languages": ["Klingon"]}
    alone = migrate_tree(parse_corpus(_corpus(first)), rules, schema, registry, strict=True).graph
    # Rule 11 claims the shared Parchment node before rule 12 refuses the record.
    order = [rule.rule_no for rule in rules.application_order]
    assert order.index(11) < order.index(12)
    outcomes = []
    real = migration.migrate_record

    def kept(*args, **kwargs):
        outcomes.append(real(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(migration, "migrate_record", kept)
    tree = parse_corpus(_corpus(first, refused))
    message = "rule 12 (1): term 'Klingon' is not in the vocabulary bound to E56"
    if fail_fast:
        with pytest.raises(MigrationError, match=re.escape(f"record PT/B: {message}")):
            migrate_tree(tree, rules, schema, registry, strict=True, fail_fast=True)
        graph = outcomes[0].graph
    else:
        result = migrate_tree(tree, rules, schema, registry, strict=True)
        assert result.report_lines() == [f"PT/B\terror\t{message}"]
        graph = result.graph
    assert len(outcomes) == 1 and all(outcome.graph is graph for outcome in outcomes)
    shared = graph.base_iri + "shared/E57/"
    assert shared + "Paper" in graph.node_index
    assert shared + "Parchment" not in graph.node_index
    assert list(graph.node_index.items()) == list(alone.node_index.items())
    assert graph.serialize() == alone.serialize()


def test_unbound_anchor_in_a_custom_rule_refuses_the_record(schema, registry):
    ruleset = parse_mdl(
        "RULE 1: ISAD{D1} =>\n  E31 Document{=D1}\n\n"
        "RULE 11: $D1 -> Support{SP} =>\n  $HMO1 -> P45 consists of -> E57 Material{=SP}\n",
        schema,
    )
    tree = parse_corpus(_corpus({"1.1": "A", "supports": ["Paper"]}, {"1.1": "B"}))
    result = migrate_tree(tree, ruleset, schema, registry)
    assert result.report_lines() == [
        "A\terror\trule 11 (1): variable HMO1 is unbound (was the document rule applied first?)"
    ]
    assert not any("/A/" in iri for iri in result.graph.node_index)
    assert result.graph.base_iri + "B/e31/1" in result.graph.node_index


def test_identifier_equal_to_the_reference_code_keeps_its_own_node(schema, registry, rules):
    tree = parse_corpus(_corpus({"1.1": "PT/A", "1.4": "Fonds", "physical_location": "PT/A"}))
    graph = migrate_tree(tree, rules, schema, registry).graph
    identifiers = [n for n, class_id in graph.node_index.items() if class_id == "E42"]
    assert len(identifiers) == 2
    types = []
    for node in identifiers:
        (term,) = objects(graph, "P2", node)
        types.append(graph.shared_term(term))
    assert sorted(types) == [("ARE5", "Physical Location"), ("ARE5", "Reference Code")]


def test_unwritten_interval_leaves_the_single_date(schema, registry, rules):
    tree = parse_corpus(_corpus({"1.1": "PT/A", "1.4": "Fonds", "production_date_start": "circa 1700",
                                 "production_date_end": "1750", "production_date_single": "1720"}))
    result = migrate_tree(tree, rules, schema, registry)
    (span,) = rows_of(result.graph, "P4")
    assert not span[2] and span[3].endswith("/e52/instant")
    assert result.report_lines() == [
        "PT/A\twarning\tproduction date: date text 'circa 1700' is not usable; "
        "kept as legacy text only"
    ]


def test_report_lines_format(schema, registry, rules):
    tree = parse_corpus(_corpus({"1.1": "A", "production_date_single": "someday"}))
    result = migrate_tree(tree, rules, schema, registry)
    (line,) = result.report_lines()
    ref, severity, message = line.split("\t", 2)
    assert (ref, severity) == ("A", "warning")
    assert "someday" in message


def test_fail_fast_stops_at_the_first_failing_record(schema, registry, rules, monkeypatch):
    calls = []
    real = migration.migrate_record

    def counted(record, *args, **kwargs):
        calls.append(record.reference_code)
        return real(record, *args, **kwargs)

    monkeypatch.setattr(migration, "migrate_record", counted)
    entries = [{"1.1": "A", "1.4": "Bogus"}]
    entries += [{"1.1": f"B{index:03d}", "1.4": "Fonds"} for index in range(200)]
    tree = parse_corpus(_corpus(*entries))
    with pytest.raises(MigrationError, match=r"^record A: .*'Bogus'"):
        migrate_tree(tree, rules, schema, registry, strict=True, fail_fast=True)
    assert calls == ["A"]


def test_fail_fast_raises_on_a_record_level_error(schema, registry, rules, monkeypatch):
    def conflict(ctx, rule):
        raise migration.GraphError("node conflict")

    monkeypatch.setitem(migration._ADAPTERS, "Reference Code", conflict)
    tree = parse_corpus(_corpus({"1.1": "A"}, {"1.1": "B"}))
    with pytest.raises(MigrationError, match=r"^record A: node conflict$"):
        migrate_tree(tree, rules, schema, registry, fail_fast=True)
    result = migrate_tree(tree, rules, schema, registry)
    assert result.report_lines() == ["A\terror\tnode conflict", "B\terror\tnode conflict"]


def test_programming_error_is_not_filed_as_a_problem(schema, registry, rules, monkeypatch):
    def broken(ctx, rule):
        raise TypeError("adapter bug")

    monkeypatch.setitem(migration._ADAPTERS, "Reference Code", broken)
    tree = parse_corpus(_corpus({"1.1": "A", "1.4": "Fonds"}))
    with pytest.raises(TypeError, match="adapter bug"):
        migrate_tree(tree, rules, schema, registry)


def test_node_class_conflict_is_a_record_error_and_leaves_nothing(
    schema, registry, rules, monkeypatch
):
    # With the creation event keyed like the production event, a record that
    # holds both a production date and a description date mints one IRI as
    # E12 and again as E65; a record with only the latter is unaffected.
    role = migration._role
    monkeypatch.setattr(
        migration, "_role", lambda class_id: role("E12" if class_id == "E65" else class_id)
    )
    tree = parse_corpus(
        _corpus(
            {"1.1": "A", "1.4": "Fonds", "production_date_single": "1813-07-12",
             "description_creation_date": "2001-01-01"},
            {"1.1": "B", "1.4": "Fonds", "description_creation_date": "2001-01-01"},
        )
    )
    result = migrate_tree(tree, rules, schema, registry)
    (line,) = result.report_lines()
    assert line.startswith("A\terror\t") and "already asserted as E12" in line
    assert not any("/A/" in iri for iri in result.graph.node_index)
    assert b"/A/" not in result.graph.serialize()
    assert result.graph.node_index[result.graph.base_iri + "B/e12/1"] == "E65"


def test_reordered_rule_file_applies_document_rule_first(schema, registry):
    reordered = parse_mdl(
        "RULE 3: $D1 -> Reference Code{RC} =>\n"
        "  $D1 -> P1 is identified by -> E42 Identifier{=RC}\n\n"
        "RULE 1: ISAD{D1} =>\n  E31 Document{=D1}\n",
        schema,
    )
    order = reordered.application_order
    assert order is reordered.application_order  # computed once per rule set
    assert [rule.rule_no for rule in order] == [1, 3]
    outcome = migrate_record(make_record("PT/X"), reordered, schema, registry)
    assert not outcome.problems
    assert [entry.rule_no for entry in outcome.trace] == [1, 3]


def test_rules_are_compiled_once_per_run(schema, registry, rules, monkeypatch):
    compiled = []
    real = migration._compile_rule

    def counted(rule, *args):
        compiled.append(rule.rule_no)
        return real(rule, *args)

    monkeypatch.setattr(migration, "_compile_rule", counted)
    tree = parse_corpus(corpus_text(synthetic_corpus(random.Random(5), 200)))
    result = migrate_tree(resolve_inheritance(tree), rules, schema, registry)
    assert not result.has_errors and len(result.graph) > 200 * len(rules.rules)
    assert sorted(compiled) == sorted(rule.rule_no for rule in rules.rules)
    compiled.clear()
    migrate_record(tree.record(min(tree.records)), rules, schema, registry)
    assert len(compiled) == len(rules.rules)  # a direct call compiles for itself


def test_trace_holds_every_triple_of_the_record(schema, registry, rules):
    # No two firings of this record write the same row, so the counts add up.
    outcome = migrate(make_record("PT/X", elements={"1.4": "Fonds"}), rules, schema, registry)
    assert sum(entry.triples for entry in outcome.trace) == len(outcome.graph)


def test_every_builtin_selector_has_an_adapter(rules):
    names = {rule.selector.name for rule in rules.rules} - {"ISAD"}
    assert names <= set(migration._ADAPTERS)


def test_unknown_selector_warns_and_emits_nothing(schema, registry):
    ruleset = parse_mdl(
        "RULE 1: ISAD{D1} =>\n  E31 Document{=D1}\n\n"
        "RULE 2: $D1 -> Mystery{M} =>\n  $D1 -> P2 has type -> E55 Type{=M}\n",
        schema,
    )
    outcome = migrate_record(make_record("PT/X", elements={"1.4": "Fonds"}), ruleset, schema, registry)
    assert [p.line() for p in outcome.problems] == [
        "PT/X\twarning\trule 2: no engine adapter for selector 'Mystery'; rule skipped"
    ]
    (entry,) = [e for e in outcome.trace if e.rule_no == 2]
    assert (entry.application, entry.triples, entry.note) == (None, 0, "unknown selector")
    assert not rows_of(outcome.graph, "P2")


def test_selector_without_captures_is_skipped_quietly(schema, registry):
    names = sorted(migration._ADAPTERS)
    ruleset = parse_mdl(
        "RULE 1: ISAD =>\n  E31 Document{=D1} -> P128 is carried by -> E22 Human-Made Object\n\n"
        + "\n\n".join(
            f"RULE {number}: $D1 -> {name} =>\n  $D1 -> P2 has type -> E55 Type"
            for number, name in enumerate(names, start=2)
        ),
        schema,
    )
    record = make_record(
        "PT/X",
        parent="PT",
        elements={"1.4": "Fonds", "1.2": "T", "production_date_single": "circa 1650",
                  "creators": [{"role": "Producer"}], "supports": ["Paper"]},
    )
    outcome = migrate_record(record, ruleset, schema, registry)
    assert outcome.problems == ()
    assert [(e.rule_no, e.note) for e in outcome.trace[1:]] == [
        (number, "element blank; skipped") for number in range(2, len(names) + 2)
    ]
    assert outcome.trace[0].triples  # the document rule fires without captures


# -- optional parts and variable lookup in custom rule files ----------------------


def _builtin_rules_with(schema, rules, *edits):
    """The built-in rules rendered to MDL, with each (old, new) text edit made once."""
    text = render_mdl(rules, schema)
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return parse_mdl(text, schema)


def test_one_capture_creator_rule_writes_its_role_path(schema, registry, rules):
    ruleset = _builtin_rules_with(
        schema, rules,
        ("Creator{CN, CR}", "Creator{CN}"),
        ("ARE8 Role Type{=CR}", "ARE8 Role Type"),
    )
    record = make_record("PT/X", elements={"creators": [{"name": "Lino", "role": "Producer"}]})
    graph = migrate(record, ruleset, schema, registry).graph
    role = graph.base_iri + "PT%2FX/are8/1"
    assert rows_of(graph, "P14.1") == [row(graph, graph.base_iri + "PT%2FX/pc14/1", "P14.1", role)]
    assert graph.node_index[role] == "ARE8"


def test_every_path_reading_a_blank_value_is_skipped(schema, registry, rules):
    ruleset = _builtin_rules_with(
        schema, rules,
        ("$DIM1 -> P90 has value -> DIM",
         "$DIM1 -> P90 has value -> DIM;\n  $DIM1 -> P3 has note -> DIM"),
    )
    dimensions = [{"unit": "Gram"}, {"value": "25", "unit": "Gram"}]
    record = make_record("PT/X", elements={"dimensions": dimensions})
    graph = migrate(record, ruleset, schema, registry).graph
    by_entry = sorted(
        (subject.rsplit("/", 1)[-1], predicate)
        for predicate in ("P3", "P90", "P91")
        for subject, *_ in rows_of(graph, predicate)
    )
    assert by_entry == [("1", "P91"), ("2", "P3"), ("2", "P90"), ("2", "P91")]


def test_a_capture_named_like_a_class_does_not_hide_the_class_term(schema, registry, rules):
    ruleset = _builtin_rules_with(
        schema, rules,
        ("Extension{EXT}", "Extension{E58}"),
        ("$E1 -> P90 has value -> EXT", "$E1 -> P1 is identified by -> E42 Identifier{=E58}"),
    )
    extensions = [{"value": " ", "unit": "Pack", "kind": "extension"},
                  {"value": "120", "kind": "extension"}]
    record = make_record("PT/X", elements={"dimensions": extensions})
    graph = migrate(record, ruleset, schema, registry).graph
    edges = sorted(
        (subject.rsplit("/", 1)[-1], predicate, obj.rsplit("/", 1)[-1])
        for predicate in ("P1", "P91")
        for subject, _, literal, obj, _ in rows_of(graph, predicate)
        if graph.node_index[subject] == "ARE4" and not literal
    )
    assert edges == [("1", "P91", "Pack"), ("2", "P1", "120")]


def test_a_capture_is_found_before_an_anchor_of_the_same_name(schema, registry, rules):
    ruleset = _builtin_rules_with(
        schema, rules,
        ("Parent Record{PR}", "Parent Record{HMO1}"),
        ("$D1 -> P165 incorporates -> $PR", "$D1 -> P165 incorporates -> $HMO1"),
    )
    tree = parse_corpus(_corpus({"1.1": "PT/A"}, {"1.1": "PT/A/B", "parent": "PT/A"}))
    graph = migrate_tree(tree, ruleset, schema, registry).graph
    assert rows_of(graph, "P165") == [
        row(graph, graph.base_iri + "PT%2FA%2FB/e31/1", "P165", graph.base_iri + "PT%2FA/e31/1")
    ]
