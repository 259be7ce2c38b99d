"""Node minting, triple semantics and deterministic serialization."""

import gc
import io
import random
import re
from unittest import mock
from urllib.parse import quote

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archonto import (
    builtin_nesting,
    builtin_vocabularies,
    render_usage,
    usage_report,
    utf8,
    validate_graph,
)
from archonto.graph import (
    CRM_NAMESPACE,
    DEFAULT_BASE_IRI,
    RDF_TYPE,
    XSD_NAMESPACE,
    Graph,
    GraphError,
    NodeClassConflict,
    NTriplesParseError,
    _IRI_EXCLUDED,
    _encode,
    _unescape_literal,
    decode_node,
    record_prefix,
)
from archonto.migration import migrate_tree
from archonto.ontology import XSD_DATETIME, XSD_STRING, UnknownPropertyError, builtin_schema
from archonto.records import parse_corpus, resolve_inheritance

from conftest import (
    DOC,
    STATEMENT,
    TYPE_LINE,
    corpus_text,
    lines_one_at_a_time,
    ntriples_documents,
    row,
    synthetic_corpus,
)


@pytest.fixture()
def graph():
    return Graph(builtin_schema())


def test_mint_encodes_reference(graph):
    node = graph.mint_node("PT/TT/JIM", "doc", "1", "E31")
    assert node == "https://example.org/archonto/PT%2FTT%2FJIM/doc/1"
    assert graph.node_index[node] == "E31"


def test_mint_is_idempotent(graph):
    first = graph.mint_node("PT/TT/JIM", "doc", "1", "E31")
    second = graph.mint_node("PT/TT/JIM", "doc", "1", "E31")
    assert first == second
    assert len(graph.node_index) == 1


def test_mint_class_conflict(graph):
    graph.mint_node("PT/TT/JIM", "doc", "1", "E31")
    with pytest.raises(NodeClassConflict):
        graph.mint_node("PT/TT/JIM", "doc", "1", "E22")


def test_mint_requires_record_ref(graph):
    with pytest.raises(ValueError):
        graph.mint_node("", "doc", "1", "E31")


def test_shared_term_round_trip(graph):
    node = graph.mint_shared("ARE1", "Installation Unit")
    assert graph.shared_term(node) == ("ARE1", "Installation Unit")
    ordinary = graph.mint_node("PT/X", "e31", "1", "E31")
    assert graph.shared_term(ordinary) is None
    # Foreign IRIs: class and term decode from any escaping, but the shared
    # segment only as written.
    assert graph.shared_term(graph.base_iri + "shared/ARE1/%46onds") == ("ARE1", "Fonds")
    assert graph.shared_term(graph.base_iri + "%73hared/ARE1/Fonds") is None


@pytest.mark.parametrize(
    "iri",
    [DEFAULT_BASE_IRI + path
     for path in ("%73hared/ARE1/Fonds", "A/e31", "A/e31/1/2", "/e31/1", "ontology/E31_Document")]
    + ["https://example.org/other/A/e31/1"],
)
def test_decode_node_refuses_what_the_scheme_does_not_write(iri):
    assert decode_node(DEFAULT_BASE_IRI, iri) is None


def test_add_triple_set_semantics(graph):
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    hmo = graph.mint_node("PT/X", "e22", "1", "E22")
    graph.add_triple(doc, "P128", hmo)
    graph.add_triple(doc, "P128", hmo)
    assert len(graph) == 1


def test_add_triple_accepts_level_edge(graph):
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    level = graph.mint_shared("ARE1", "Fonds")
    graph.add_triple(doc, "ARP12", level)
    assert row(graph, doc, "ARP12", level) in graph.triples


def test_lenient_mode_defers_to_validation(graph):
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    instant = graph.mint_node("PT/X", "doe10", "1", "DOE10")
    graph.add_triple(instant, "DOP8", doc)  # wrong, but recorded
    assert len(graph) == 1


def test_empty_graph_serializes_empty(graph):
    assert graph.serialize("ntriples") == b""
    turtle = graph.serialize("turtle").decode()
    assert turtle.startswith("@prefix aont:")
    assert turtle.count("@prefix") == 4


def test_one_literal_triple_two_lines(graph):
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    graph.add_triple(doc, "ISAD1", "Juízo da Índia e Mina", XSD_STRING)
    lines = graph.serialize("ntriples").decode().splitlines()
    assert len(lines) == 2  # one type assertion, one data line
    assert sum("rdf-syntax-ns#type" in line for line in lines) == 1


def test_serialization_deterministic(graph):
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    hmo = graph.mint_node("PT/X", "e22", "1", "E22")
    graph.add_triple(doc, "P128", hmo)
    graph.add_triple(doc, "ISAD1", "title", XSD_STRING)
    clone = graph.copy()
    assert graph.serialize("ntriples") == clone.serialize("ntriples")
    assert graph.serialize("turtle") == clone.serialize("turtle")


def test_literal_escaping_round_trip():
    schema = builtin_schema()
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    tricky = 'line one\nline "two"\t\\backslash'
    graph.add_triple(doc, "ISAD18", tricky, XSD_STRING)
    data = graph.serialize("ntriples")
    parsed = Graph.from_ntriples(data, schema)
    (stored,) = parsed.triples
    assert stored[2:] == (1, tricky, XSD_STRING)


def test_datetime_literal_datatype(graph):
    instant = graph.mint_node("PT/X", "doe10", "1", "DOE10")
    graph.add_triple(instant, "DOP8", "1813-07-12T00:00:00", XSD_DATETIME)
    text = graph.serialize("ntriples").decode()
    assert '"1813-07-12T00:00:00"^^<http://www.w3.org/2001/XMLSchema#dateTime>' in text


def test_ntriples_round_trip_preserves_graph(graph):
    doc = graph.mint_node("PT/TT/JIM", "e31", "1", "E31")
    level = graph.mint_shared("ARE1", "Fonds")
    graph.add_triple(doc, "ARP12", level)
    graph.add_triple(doc, "ISAD1", "Juízo", XSD_STRING)
    data = graph.serialize("ntriples")
    parsed = Graph.from_ntriples(data, builtin_schema())
    assert parsed.triples == graph.triples
    assert dict(parsed.node_index) == dict(graph.node_index)
    assert parsed.serialize("ntriples") == data


def test_ntriples_parse_error_reports_line():
    with pytest.raises(NTriplesParseError) as exc:
        Graph.from_ntriples("<a> <b> .\n", builtin_schema())
    assert exc.value.line == 1


def test_unknown_predicate_survives_round_trip():
    schema = builtin_schema()
    data = (
        "<https://example.org/archonto/PT%2FX/e31/1> "
        "<https://example.org/elsewhere/mystery> "
        '"value" .\n'
    )
    parsed = Graph.from_ntriples(data, schema)
    (stored,) = parsed.triples
    assert stored[1] == "https://example.org/elsewhere/mystery"


def test_foreign_class_and_predicate_reserialize():
    schema = builtin_schema()
    data = (
        "<https://example.org/x/1> "
        "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        "<https://example.org/elsewhere/UnknownClass> .\n"
        "<https://example.org/x/1> <https://example.org/elsewhere/mystery> \"v\" .\n"
        "<https://example.org/untyped/1> <https://example.org/elsewhere/mystery> \"w\" .\n"
    )
    parsed = Graph.from_ntriples(data, schema)
    out = parsed.serialize("ntriples")
    assert Graph.from_ntriples(out, schema).serialize("ntriples") == out
    assert b"UnknownClass" in out


def test_bare_id_predicate_writes_back_byte_for_byte():
    # A predicate read as a schema property's bare id is kept as read; the
    # validator and the usage report still take it for that property.
    schema = builtin_schema()
    doc = "https://example.org/archonto/A/e31/1"
    typed = f"<{doc}> <{RDF_TYPE}> <{CRM_NAMESPACE}E31_Document> .\n"
    bare = f'<{doc}> <P3> "note" .\n' + typed
    full = f'<{doc}> <{CRM_NAMESPACE}P3_has_note> "note" .\n' + typed
    graphs = [Graph.from_ntriples(text, schema) for text in (bare, full)]
    assert [graph.serialize() for graph in graphs] == [bare.encode(), full.encode()]

    def reports(graph):
        findings = validate_graph(graph, schema, builtin_vocabularies(), builtin_nesting())
        return findings.text(), render_usage(usage_report(graph))

    assert reports(graphs[0]) == reports(graphs[1])
    # Rows under both names are checked and counted as one property's.
    type_node = f"<{CRM_NAMESPACE}E55_Type>"
    both = Graph.from_ntriples(
        f"<{doc}> <P3> <{doc}> .\n<{doc}> <{CRM_NAMESPACE}P3_has_note> {type_node} .\n" + typed,
        schema,
    )
    text, usage = reports(both)
    assert text.count("range-violation") == 2
    assert "P3  2" in usage


def test_node_ref_is_value_object(graph):
    # A node is named by its IRI string alone: equal mints are equal values.
    first = graph.mint_node("PT/X", "e31", "1", "E31")
    second = Graph(builtin_schema()).mint_node("PT/X", "e31", "1", "E31")
    assert type(first) is str and first == second
    assert len({first, second}) == 1


def test_every_node_gets_exactly_one_type_assertion(graph):
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    hmo = graph.mint_node("PT/X", "e22", "1", "E22")
    level = graph.mint_shared("ARE1", "Fonds")
    graph.add_triple(doc, "P128", hmo)
    graph.add_triple(doc, "ARP12", level)
    graph.add_triple(doc, "ISAD1", "t", XSD_STRING)
    lines = graph.serialize("ntriples").decode().splitlines()
    type_lines = [l for l in lines if "rdf-syntax-ns#type" in l]
    assert len(type_lines) == 3
    for node in (doc, hmo, level):
        assert sum(l.startswith(f"<{node}>") for l in type_lines) == 1


# U+2028, U+2029 and U+0085 are line breaks to str.splitlines, not to N-Triples.
LINE_SEPARATORS = ("\u2028", "\u2029", "\u0085")


@pytest.mark.parametrize("separator", LINE_SEPARATORS)
def test_line_separator_in_literal_round_trips(separator):
    schema = builtin_schema()
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    graph.add_triple(doc, "ISAD18", f"before{separator}after", XSD_STRING)
    data = graph.serialize("ntriples")
    parsed = Graph.from_ntriples(data, schema)
    assert parsed.triples == graph.triples
    assert dict(parsed.node_index) == dict(graph.node_index)
    assert parsed.serialize("ntriples") == data


@settings(deadline=None)
@given(st.text())
def test_any_literal_survives_serialize_read_serialize(text):
    schema = builtin_schema()
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    graph.add_triple(doc, "ISAD18", text, XSD_STRING)
    data = graph.serialize("ntriples")
    parsed = Graph.from_ntriples(data, schema)
    assert parsed.serialize("ntriples") == data
    assert (1, text, XSD_STRING) in {stored[2:] for stored in parsed.triples}


@pytest.mark.parametrize(
    "char", [" ", "\t", "\n", "\x00", "<", ">", '"', "{", "}", "|", "^", "`", "\\"]
)
def test_base_iri_with_forbidden_character_rejected(char):
    with pytest.raises(GraphError):
        Graph(builtin_schema(), f"https://ex.org/a{char}b/")


@pytest.mark.parametrize("base", ["foo", "foo/bar/", "/archonto/", "1http://ex.org/", ""])
def test_base_iri_without_scheme_rejected(base):
    with pytest.raises(GraphError):
        Graph(builtin_schema(), base)


def test_non_ascii_base_iri_round_trips():
    schema = builtin_schema()
    base = "https://ex.org/arquivo\u00a0s\u00e9rie/"
    graph = Graph(schema, base)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    graph.add_triple(doc, "ARP12", graph.mint_shared("ARE1", "Fonds"))
    data = graph.serialize("ntriples")
    assert Graph.from_ntriples(data, schema, base).serialize("ntriples") == data


@pytest.mark.parametrize("sep", [" ", "\t", " \t "])
def test_space_and_tab_separate_terms_and_are_trimmed(sep):
    line = f"{sep}{STATEMENT.format(sep=sep)}{sep}\r\n"
    assert len(Graph.from_ntriples(line, builtin_schema())) == 1


def test_em_space_between_terms_rejected():
    good = STATEMENT.format(sep=" ")
    bad = STATEMENT.format(sep="\u2003")
    with pytest.raises(NTriplesParseError) as exc:
        Graph.from_ntriples(f"{good}\n{bad}\n", builtin_schema())
    assert exc.value.line == 2


@pytest.mark.parametrize("where", ["start", "end"])
def test_ideographic_space_at_line_end_rejected(where):
    good = STATEMENT.format(sep=" ")
    bad = "\u3000" + good if where == "start" else good + "\u3000"
    with pytest.raises(NTriplesParseError) as exc:
        Graph.from_ntriples(f"{good}\n{good}\n{bad}\n", builtin_schema())
    assert exc.value.line == 3


# Characters an N-Triples IRIREF may not hold unescaped.
_IRIREF_FORBIDDEN = set('<>"{}|^`\\') | {chr(c) for c in range(0x21)}


@settings(deadline=None)
@given(
    term=st.text(),
    reference=st.sampled_from(["shared", "ontology", "A/1", "50%", "%2F"]) | st.text(min_size=1),
    role=st.text(),
    discriminator=st.text(),
)
@example(term="a/b", reference="PT/TT", role="e31", discriminator="1")
@example(term="100%", reference="%2F", role="e42.13", discriminator="100%")
@example(term="two words", reference="\U0001F4DC scroll", role="", discriminator="a/b")
@example(term="", reference="\u3000", role="%", discriminator="")
@example(term="Fonds", reference="shared", role="ARE1", discriminator="Fonds")
@example(term="x", reference="ontology", role="E31_Document", discriminator="")
def test_any_segment_encodes_and_round_trips(term, reference, role, discriminator):
    schema = builtin_schema()
    graph = Graph(schema)
    node = graph.mint_shared("E55", term)
    assert graph.shared_term(node) == ("E55", term)
    assert decode_node(graph.base_iri, node) == ("shared", "E55", term)
    assert not _IRIREF_FORBIDDEN & set(node)
    minted = Graph(schema).mint_node(reference, role, discriminator, "E31")
    assert minted.startswith(record_prefix(graph.base_iri, reference))
    assert decode_node(graph.base_iri, minted) == (reference, role, discriminator)
    doc = graph.mint_node(reference, "e31", "1", "E31")
    graph.add_triple(doc, "P2", node)
    data = graph.serialize("ntriples")
    assert Graph.from_ntriples(data, schema).serialize("ntriples") == data


# ASCII that quote() keeps, escapes, or must not mistake for an escape.
_ASCII_PIECES = st.sampled_from(
    ["%", "%2F", "/", "~", " ", "-", ".", "_", "\x00", "\x1f", "\x7f", "a", "Z", "9"]
)


@settings(deadline=None)
@given(st.lists(_ASCII_PIECES | st.text(max_size=3), max_size=8).map("".join))
@example("PT/TT/JIM 1")
@example("Antão, 50% ~/é\u3000\U0001F4DC")
def test_encode_is_quote_with_nothing_safe(segment):
    assert _encode.__wrapped__(segment) == quote(segment, safe="")
    assert _encode(segment) == quote(segment, safe="")


def _escape_per_character(text):
    named = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
    return "".join(
        named.get(ch) or (f"\\u{ord(ch):04X}" if ord(ch) < 0x20 else ch) for ch in text
    )


@settings(deadline=None)
@given(st.text())
def test_literal_escaping_matches_per_character_reference(text):
    graph = Graph(builtin_schema())
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    graph.add_triple(doc, "ISAD18", text, XSD_STRING)
    lines = graph.serialize("ntriples").decode().split("\n")
    expected = f'<{doc}> <{graph._terms.property_iris["ISAD18"]}> "{_escape_per_character(text)}" .'
    assert [line for line in lines if "ISAD18" in line] == [expected]


def test_add_triple_returns_the_triple(graph):
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    hmo = graph.mint_node("PT/X", "e22", "1", "E22")
    stored = graph.add_triple(doc, "P128", hmo)
    assert stored == row(graph, doc, "P128", hmo)
    assert stored in graph.triples


def test_reader_makes_one_node_per_iri():
    schema = builtin_schema()
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    hmo = graph.mint_node("PT/X", "e22", "1", "E22")
    graph.add_triple(doc, "P128", hmo)
    graph.add_triple(hmo, "P45", graph.mint_shared("E57", "Paper"))
    graph.add_triple(doc, "ISAD1", "Fundo", XSD_STRING)
    # A foreign node with no type line, named by two statements.
    foreign = "<https://other.example/a> <https://other.example/p> <https://other.example/b> ."
    data = graph.serialize("ntriples").decode() + foreign + "\n" + foreign.replace("/a>", "/c>")
    read = Graph.from_ntriples(data, schema)
    index = read.node_index
    assert index["https://other.example/b"] == ""
    assert index[hmo] == "E22"
    # The node map's own key strings, by value.
    keys = {iri: iri for iri in index}
    for subject, _, literal, obj, _ in read.triples:
        assert subject is keys[subject]
        if not literal:
            assert obj is keys[obj]


def test_graph_holds_no_gc_tracked_values(rules, registry):
    schema = builtin_schema()
    tree = resolve_inheritance(parse_corpus(corpus_text(synthetic_corpus(random.Random(4), 40))))
    migrated = migrate_tree(tree, rules, schema, registry).graph
    read = Graph.from_ntriples(migrated.serialize(), schema)
    # The collector untracks a tuple once it sees that it holds untracked values only.
    gc.collect()
    for graph in (migrated, read):
        assert len(graph) and graph._nodes
        assert not any(map(gc.is_tracked, graph._nodes.keys()))
        assert not any(map(gc.is_tracked, graph._nodes.values()))
        assert not any(map(gc.is_tracked, graph._triples))


def test_add_triple_takes_only_known_nodes_and_properties(graph):
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    stranger = graph.base_iri + "PT%2FX/e22/1"
    with pytest.raises(GraphError, match="not in the graph"):
        graph.add_triple(doc, "P128", stranger)
    with pytest.raises(GraphError, match="not in the graph"):
        graph.add_triple(stranger, "ISAD1", "t", XSD_STRING)
    with pytest.raises(UnknownPropertyError):
        graph.add_triple(doc, "P999", "t", XSD_STRING)
    # Literal text is not a node, however much it looks like an IRI.
    graph.add_triple(doc, "ISAD1", stranger, XSD_STRING)
    assert graph.triples == {row(graph, doc, "ISAD1", stranger, XSD_STRING)}
    assert list(graph.node_index) == [doc]


def test_each_base_iri_has_its_own_term_iris():
    schema = builtin_schema()
    bases = ("https://one.example/", "https://two.example/archive/")
    graphs = [Graph(schema, base) for base in bases]
    for graph in graphs:
        doc = graph.mint_node("PT/X", "e31", "1", "E31")
        graph.add_triple(doc, "ARP12", graph.mint_shared("ARE1", "Fonds"))
    # Interleaved, so a table cached for one base IRI would show in the other.
    outputs = [(g.serialize("ntriples").decode(), g.serialize("turtle").decode()) for g in graphs]
    for (base, other), (nt, ttl) in zip((bases, bases[::-1]), outputs):
        assert f"<{base}ontology/ARP12_has_level_of_description>" in nt
        assert f"<{base}ontology/ARE1_Level_of_Description>" in nt
        assert f"{other}ontology/" not in nt
        assert f"@prefix aont: <{base}ontology/> ." in ttl
        assert "aont:ARP12_has_level_of_description" in ttl
        own = Graph.from_ntriples(nt, schema, base)
        assert {own._terms.property_ids.get(p, p) for _, p, *_ in own.triples} == {"ARP12"}
        assert sorted(own.node_index.values()) == ["ARE1", "E31"]
        assert own.serialize("ntriples").decode() == nt
        foreign = Graph.from_ntriples(nt, schema, other)
        assert {foreign._terms.property_ids.get(p, p) for _, p, *_ in foreign.triples} == {
            f"{base}ontology/ARP12_has_level_of_description"
        }
        assert foreign.serialize("ntriples").decode() == nt


# -- RDF 1.1 N-Triples literal escapes and one class per node ---------------------

def _read_note(escaped: str) -> Graph:
    note = f'{DOC} <https://example.org/archonto/ontology/ISAD18_has_notes> "{escaped}" .'
    return Graph.from_ntriples(f"{TYPE_LINE}\n{note}\n", builtin_schema())


@pytest.mark.parametrize(
    "escaped,text",
    [
        (r"a\bb\fc", "a\bb\fc"),
        (r"\t\n\r\"\'\\", "\t\n\r\"'\\"),
        (r"é\U0001F600\U0010FFFF", "é\U0001F600\U0010FFFF"),
        ("no escapes", "no escapes"),
    ],
)
def test_reader_decodes_exactly_the_ntriples_escapes(escaped, text):
    (stored,) = _read_note(escaped).triples
    assert stored[2:] == (1, text, XSD_STRING)


@pytest.mark.parametrize(
    "escaped",
    [r"\x41", r"\a", r"\u12", r"\U0010", r"\U00110000", r"\uD800", r"\U0000DFFF", "a\rb"],
    ids=["x", "a", "short-u", "short-U", "above-max", "high-surrogate", "low-surrogate", "raw-cr"],
)
def test_reader_rejects_other_escapes_and_code_points(escaped):
    with pytest.raises(NTriplesParseError) as exc:
        _read_note(escaped)
    assert exc.value.line == 2


def test_second_type_line_with_another_class_is_a_parse_error():
    other = TYPE_LINE.replace("E31_Document", "E22_Human-Made_Object")
    read = Graph.from_ntriples(f"{TYPE_LINE}\n{TYPE_LINE}\n", builtin_schema())
    assert list(read.node_index.values()) == ["E31"]
    with pytest.raises(NTriplesParseError, match=r"^line 3: .* another class") as exc:
        Graph.from_ntriples(f"{TYPE_LINE}\n\n{other}\n", builtin_schema())
    assert exc.value.line == 3


def test_first_fault_in_line_order_wins_over_a_later_bad_byte():
    good = STATEMENT.format(sep=" ").encode()
    data = good + b"\nnot a statement\n# comment\n\n" + good.replace(b'"x"', b'"\xff"') + b"\n"
    with pytest.raises(NTriplesParseError) as exc:
        Graph.from_ntriples(data, builtin_schema())
    assert str(exc.value) == "line 2: not a valid N-Triples statement"


def test_foreign_terms_survive_read_remove_contains_and_write():
    base = "https://example.org/archonto/"
    note = f'{DOC} <{base}ontology/ISAD18_has_notes> "n" .'
    foreign_literal = f'{DOC} <https://other.example/p> "7"^^<https://other.example/dt> .'
    untyped_edge = f"{DOC} <https://other.example/q> <https://other.example/thing> ."
    data = "\n".join((TYPE_LINE, note, foreign_literal, untyped_edge)) + "\n"
    graph = Graph.from_ntriples(data, builtin_schema())
    assert graph.serialize() == data.encode()

    doc, thing = base + "PT/e31/1", "https://other.example/thing"
    assert (graph.node_index[doc], graph.node_index[thing]) == ("E31", "")
    literal = row(graph, doc, "https://other.example/p", "7", "https://other.example/dt")
    edge = row(graph, doc, "https://other.example/q", thing)
    assert graph.triples == {literal, edge, row(graph, doc, "ISAD18", "n", XSD_STRING)}
    assert literal in graph.triples and edge in graph.triples
    # The same IRIs with the node's IRI as literal text are another row.
    as_text = row(graph, doc, "https://other.example/q", thing, XSD_STRING)
    assert as_text not in graph.triples
    graph.remove_triple(as_text)
    assert len(graph) == 3

    graph.remove_triple(literal)
    assert literal not in graph.triples and edge in graph.triples and len(graph) == 2
    sink = io.BytesIO()
    graph.write(sink)
    assert sink.getvalue() == "\n".join((TYPE_LINE, note, untyped_edge)).encode() + b"\n"


def test_value_classes_have_slots(graph):
    # A node is its IRI string and a statement its row: neither has a __dict__.
    node = graph.mint_node("PT/X", "e31", "1", "E31")
    for value in (node, graph.node_index[node], graph.add_triple(node, "P3", "x", XSD_STRING)):
        assert not hasattr(value, "__dict__")


# -- the block reader against the per-line reader it replaced ----------------------

# The statement pattern of the reader that matched one trimmed line at a time.
_LINE_AT_A_TIME = re.compile(
    rf"^<([^{_IRI_EXCLUDED}]+)>[ \t]+<([^{_IRI_EXCLUDED}]+)>[ \t]+"
    rf"(?:<([^{_IRI_EXCLUDED}]+)>|\"((?:[^\"\\\r]|\\.)*)\"(?:\^\^<([^{_IRI_EXCLUDED}]+)>)?)"
    r"[ \t]*\.$"
)
_DATATYPES = {XSD_NAMESPACE + "string": XSD_STRING, XSD_NAMESPACE + "dateTime": XSD_DATETIME}


def _read_line_at_a_time(data: bytes | str, schema) -> tuple[list, list]:
    """The rows and the (IRI, class) nodes, in order, that decoding, trimming
    and matching one line at a time gives, or the NTriplesParseError."""
    terms = Graph(schema)._terms
    nodes: dict[str, str] = {}
    rows: dict[tuple, None] = {}
    for number, raw in lines_one_at_a_time(data, NTriplesParseError):
        line = raw.strip(" \t\r")
        if not line or line.startswith("#"):
            continue
        match = _LINE_AT_A_TIME.match(line)
        if match is None:
            raise NTriplesParseError("not a valid N-Triples statement", number)
        s_iri, p_iri, o_iri, o_text, o_dt = match.groups()
        if p_iri == RDF_TYPE:
            if o_iri is None:
                raise NTriplesParseError("rdf:type object must be an IRI", number)
            class_id = terms.class_ids.get(o_iri, o_iri)
            if nodes.get(s_iri, "") not in ("", class_id):
                raise NTriplesParseError(
                    f"<{s_iri}> is typed again with another class; a node has one class", number
                )
            nodes[s_iri] = class_id
            continue
        nodes.setdefault(s_iri, "")
        if o_iri is not None:
            nodes.setdefault(o_iri, "")
            rows[s_iri, p_iri, 0, o_iri, ""] = None
        else:
            datatype = _DATATYPES.get(o_dt, o_dt) if o_dt else XSD_STRING
            rows[s_iri, p_iri, 1, _unescape_literal(o_text, number), datatype] = None
    return list(rows), list(nodes.items())


def _outcome(read):
    try:
        return read()
    except NTriplesParseError as exc:
        return exc.line, str(exc)


@settings(max_examples=400, deadline=None)
@given(data=ntriples_documents(), size=st.integers(1, 64))
@example(data=f"{TYPE_LINE}\r\n\n# c\n{TYPE_LINE}\n".encode(), size=1)
@example(data=b"# a\n\n\xff\n", size=64)
# An IRI left open on the last line of a block, and inside one.
@example(data=f"{TYPE_LINE}\n<https://x/a\n{TYPE_LINE}\n".encode(), size=1)
@example(data=f"{TYPE_LINE}\n{DOC} <{RDF_TYPE}> <https://x/C\n{TYPE_LINE}\n", size=1)
@example(data=f"{TYPE_LINE}\n<https://x/a\n{TYPE_LINE}\n", size=64)
def test_block_reader_matches_the_line_at_a_time_reader(data, size):
    schema = builtin_schema()
    expected = _outcome(lambda: _read_line_at_a_time(data, schema))
    with mock.patch.object(utf8, "_BLOCK", size):
        graph = _outcome(lambda: Graph.from_ntriples(data, schema))
    if not isinstance(graph, Graph):
        assert graph == expected
        return
    assert (list(graph._triples), list(graph._nodes.items())) == expected
    # One string per IRI, the node map's key, held by every row that names
    # it, and one string per predicate.
    keys = {iri: iri for iri in graph._nodes}
    for subject, predicate, literal, obj, _ in graph._triples:
        assert subject is keys[subject]
        assert literal or obj is keys[obj]
    assert len({id(row[1]) for row in graph._triples}) == len({row[1] for row in graph._triples})


@pytest.mark.parametrize("data_type", [str, bytes])
@pytest.mark.parametrize(
    "opened",
    [
        "<https://x/a",
        f"{DOC} <https://x/p",
        f"{DOC} <https://x/p> <https://x/a",
        f'{DOC} <https://x/p> "x"^^<https://x/dt',
        f"{DOC} <{RDF_TYPE}> <https://x/C",
    ],
    ids=["subject", "predicate", "object", "datatype", "class"],
)
def test_an_iri_left_open_is_refused_at_its_own_line(opened, data_type):
    # The next line's '>' must not close the IRI: no statement spans lines.
    good = STATEMENT.format(sep=" ")
    data = f"{good}\n{opened}\n{good}\n"
    with pytest.raises(NTriplesParseError) as exc:
        Graph.from_ntriples(data if data_type is str else data.encode(), builtin_schema())
    assert str(exc.value) == "line 2: not a valid N-Triples statement"


@pytest.mark.parametrize(
    "line",
    [
        f'{DOC} <{RDF_TYPE}> "E31"^^<https://x/d{{t> .',
        TYPE_LINE.replace("E31_Document", "E22_{Human-Made_Object"),
        f'{DOC} <https://x/p> "\\x41"^^<https://x/d{{t> .',
        f'{DOC} <https://x/p{{> "\\x41" .',
        f'<https://x/s{{> <{RDF_TYPE}> "E31" .',
    ],
    ids=["type-literal", "retype", "escape", "escape-predicate", "type-literal-subject"],
)
def test_a_bad_iri_is_the_fault_of_its_line(line):
    # Each line also holds another fault that the reader would raise on its own.
    with pytest.raises(NTriplesParseError) as exc:
        Graph.from_ntriples(f"{TYPE_LINE}\n{line}\n", builtin_schema())
    assert str(exc.value) == "line 2: not a valid N-Triples statement"


def test_a_graph_of_several_blocks_reads_back_to_the_same_bytes():
    graph = Graph(builtin_schema())
    for number in range(1200):
        doc = graph.mint_node(f"PT/{number}", "e31", "1", "E31")
        graph.add_triple(doc, "ISAD18", f"nota \u2028 {number} é\U0001F600 \"q\" \\", XSD_STRING)
        graph.add_triple(doc, "P128", graph.mint_node(f"PT/{number}", "e22", "1", "E22"))
    data = graph.serialize()
    assert len(data) > 200 * 1024 and len(list(utf8.blocks(data, NTriplesParseError))) > 3
    assert Graph.from_ntriples(data, builtin_schema()).serialize() == data
