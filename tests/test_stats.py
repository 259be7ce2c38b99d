"""Usage accounting over migrated graphs."""

import random

from archonto.graph import Graph
from archonto.migration import migrate_record, migrate_tree
from archonto.ontology import XSD_STRING
from archonto.records import parse_corpus, resolve_inheritance
from archonto.stats import render_usage, usage_report

from conftest import corpus_text, make_record, synthetic_corpus


def test_empty_graph_all_zero(schema):
    report = usage_report(Graph(schema), schema)
    assert report.class_counts == ()
    assert report.property_counts == ()
    assert report.ontology_totals == ()
    assert report.total_properties == 0


def test_rule_1_only_counts(schema, registry, rules):
    record = make_record("PT/X")
    outcome = migrate_record(record, rules.subset(1), schema, registry)
    report = usage_report(outcome.graph, schema)
    assert sorted(report.class_counts) == [
        ("CIDOC CRM", "E22", 1),
        ("CIDOC CRM", "E31", 1),
        ("CIDOC CRM", "E33", 1),
    ]
    assert sorted(report.property_counts) == [
        ("CIDOC CRM", "P128", 1),
        ("CIDOC CRM", "P67", 1),
    ]
    assert report.ontology_totals == (("CIDOC CRM", 2),)


def test_partition_identity(schema, registry, rules):
    rng = random.Random(7)
    tree = resolve_inheritance(parse_corpus(corpus_text(synthetic_corpus(rng, 25))))
    result = migrate_tree(tree, rules, schema, registry)
    report = usage_report(result.graph, schema)
    assert report.total_properties == len(result.graph)
    assert sum(count for _, _, count in report.property_counts) == len(result.graph)


def test_sorted_by_count_then_id(schema, registry, rules):
    record = make_record(
        "PT/X",
        elements={"1.4": "Fonds", "supports": ["Paper"], "languages": ["Latin"]},
    )
    outcome = migrate_record(record, rules, schema, registry)
    report = usage_report(outcome.graph, schema)
    counts = [count for _, _, count in report.class_counts]
    assert counts == sorted(counts, reverse=True)
    for (_, id_a, count_a), (_, id_b, count_b) in zip(
        report.class_counts, report.class_counts[1:]
    ):
        if count_a == count_b:
            assert id_a < id_b


def test_unknown_ids_bucketed(schema):
    data = (
        "<https://example.org/archonto/X/e31/1> "
        "<https://example.org/elsewhere/mystery> \"v\" .\n"
    )
    graph = Graph.from_ntriples(data, schema)
    report = usage_report(graph, schema)
    assert ("unknown", "https://example.org/elsewhere/mystery", 1) in report.property_counts
    assert dict(report.ontology_totals)["unknown"] == 1


def test_tsv_rendering(schema):
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    graph.add_triple(doc, "ISAD1", "t", XSD_STRING)
    text = render_usage(usage_report(graph, schema), "tsv")
    lines = text.splitlines()
    assert "CIDOC CRM\tE31\t1" in lines
    assert "ISAD Ontology\tISAD1\t1" in lines
    assert "ISAD Ontology\t*\t1" in lines


def test_table_rendering(schema):
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    graph.add_triple(doc, "ISAD1", "t", XSD_STRING)
    text = render_usage(usage_report(graph, schema), "table")
    assert "Classes" in text
    assert "Properties" in text
    assert "Property totals by ontology" in text
    assert "total" in text


def test_empty_tsv_rendering(schema):
    assert render_usage(usage_report(Graph(schema), schema), "tsv") == ""


def test_untyped_and_foreign_class_nodes_count_as_unknown(schema):
    data = (
        '<https://example.org/archonto/X/e31/1> <https://example.org/elsewhere/mystery> "v" .\n'
        "<https://example.org/x/2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        "<https://example.org/elsewhere/Thing> .\n"
    )
    report = usage_report(Graph.from_ntriples(data, schema), schema)
    # Classes, then properties, then the totals by ontology.
    assert render_usage(report, "tsv") == (
        "unknown\t(untyped)\t1\n"
        "unknown\thttps://example.org/elsewhere/Thing\t1\n"
        "unknown\thttps://example.org/elsewhere/mystery\t1\n"
        "unknown\t*\t1\n"
    )
