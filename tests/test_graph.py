"""Node minting, triple semantics and deterministic serialization."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archonto.graph import (
    Graph,
    GraphError,
    Literal,
    NodeClassConflict,
    NodeRef,
    NTriplesParseError,
    Triple,
)
from archonto.ontology import XSD_DATETIME, builtin_schema


@pytest.fixture()
def graph():
    return Graph(builtin_schema())


def test_mint_encodes_reference(graph):
    node = graph.mint_node("PT/TT/JIM", "doc", "1", "E31")
    assert node.iri == "https://example.org/archonto/PT%2FTT%2FJIM/doc/1"
    assert node.asserted_class == "E31"


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
    assert Triple(doc, "ARP12", level) in graph


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
    graph.add_triple(doc, "ISAD1", Literal("Juízo da Índia e Mina"))
    lines = graph.serialize("ntriples").decode().splitlines()
    assert len(lines) == 2  # one type assertion, one data line
    assert sum("rdf-syntax-ns#type" in line for line in lines) == 1


def test_serialization_deterministic(graph):
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    hmo = graph.mint_node("PT/X", "e22", "1", "E22")
    graph.add_triple(doc, "P128", hmo)
    graph.add_triple(doc, "ISAD1", Literal("title"))
    clone = graph.copy()
    assert graph.serialize("ntriples") == clone.serialize("ntriples")
    assert graph.serialize("turtle") == clone.serialize("turtle")


def test_literal_escaping_round_trip():
    schema = builtin_schema()
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    tricky = 'line one\nline "two"\t\\backslash'
    graph.add_triple(doc, "ISAD18", Literal(tricky))
    data = graph.serialize("ntriples")
    parsed = Graph.from_ntriples(data, schema)
    (triple,) = [t for t in parsed.triples]
    assert triple.object == Literal(tricky)


def test_datetime_literal_datatype(graph):
    instant = graph.mint_node("PT/X", "doe10", "1", "DOE10")
    graph.add_triple(instant, "DOP8", Literal("1813-07-12T00:00:00", XSD_DATETIME))
    text = graph.serialize("ntriples").decode()
    assert '"1813-07-12T00:00:00"^^<http://www.w3.org/2001/XMLSchema#dateTime>' in text


def test_ntriples_round_trip_preserves_graph(graph):
    doc = graph.mint_node("PT/TT/JIM", "e31", "1", "E31")
    level = graph.mint_shared("ARE1", "Fonds")
    graph.add_triple(doc, "ARP12", level)
    graph.add_triple(doc, "ISAD1", Literal("Juízo"))
    data = graph.serialize("ntriples")
    parsed = Graph.from_ntriples(data, builtin_schema())
    assert parsed.triples == graph.triples
    assert parsed.serialize("ntriples") == data


def test_ntriples_parse_error_reports_line():
    with pytest.raises(NTriplesParseError) as exc:
        Graph.from_ntriples("<a> <b> .\n", builtin_schema())
    assert exc.value.line == 1


def test_absorb_merges_and_detects_conflicts(graph):
    other = Graph(builtin_schema())
    doc = other.mint_node("PT/X", "e31", "1", "E31")
    other.add_triple(doc, "ISAD1", Literal("x"))
    graph.absorb(other)
    assert len(graph) == 1
    conflicting = Graph(builtin_schema())
    conflicting.mint_node("PT/X", "e31", "1", "E22")
    with pytest.raises(NodeClassConflict):
        graph.absorb(conflicting)


def test_unknown_predicate_survives_round_trip():
    schema = builtin_schema()
    data = (
        "<https://example.org/archonto/PT%2FX/e31/1> "
        "<https://example.org/elsewhere/mystery> "
        '"value" .\n'
    )
    parsed = Graph.from_ntriples(data, schema)
    (triple,) = list(parsed.triples)
    assert triple.predicate == "https://example.org/elsewhere/mystery"


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


def test_node_ref_is_value_object():
    assert NodeRef("x", "E31") == NodeRef("x", "E31")
    assert len({NodeRef("x", "E31"), NodeRef("x", "E31")}) == 1


def test_every_node_gets_exactly_one_type_assertion(graph):
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    hmo = graph.mint_node("PT/X", "e22", "1", "E22")
    level = graph.mint_shared("ARE1", "Fonds")
    graph.add_triple(doc, "P128", hmo)
    graph.add_triple(doc, "ARP12", level)
    graph.add_triple(doc, "ISAD1", Literal("t"))
    lines = graph.serialize("ntriples").decode().splitlines()
    type_lines = [l for l in lines if "rdf-syntax-ns#type" in l]
    assert len(type_lines) == 3
    for node in (doc, hmo, level):
        assert sum(l.startswith(f"<{node.iri}>") for l in type_lines) == 1


# U+2028, U+2029 and U+0085 are line breaks to str.splitlines, not to N-Triples.
LINE_SEPARATORS = ("\u2028", "\u2029", "\u0085")


@pytest.mark.parametrize("separator", LINE_SEPARATORS)
def test_line_separator_in_literal_round_trips(separator):
    schema = builtin_schema()
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    graph.add_triple(doc, "ISAD18", Literal(f"before{separator}after"))
    data = graph.serialize("ntriples")
    parsed = Graph.from_ntriples(data, schema)
    assert parsed.triples == graph.triples
    assert parsed.serialize("ntriples") == data


@settings(deadline=None)
@given(st.text())
def test_any_literal_survives_serialize_read_serialize(text):
    schema = builtin_schema()
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    graph.add_triple(doc, "ISAD18", Literal(text))
    data = graph.serialize("ntriples")
    parsed = Graph.from_ntriples(data, schema)
    assert parsed.serialize("ntriples") == data
    assert Literal(text) in {t.object for t in parsed.triples}


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


# N-Triples separates terms by space and tab only; other Unicode spaces are
# not whitespace to it.
_STATEMENT = (
    "<https://example.org/archonto/PT%2FX/e31/1>{sep}"
    "<https://example.org/archonto/ontology/ISAD1_has_title>{sep}"
    '"x" .'
)


@pytest.mark.parametrize("sep", [" ", "\t", " \t "])
def test_space_and_tab_separate_terms_and_are_trimmed(sep):
    line = f"{sep}{_STATEMENT.format(sep=sep)}{sep}\r\n"
    assert len(Graph.from_ntriples(line, builtin_schema())) == 1


def test_em_space_between_terms_rejected():
    good = _STATEMENT.format(sep=" ")
    bad = _STATEMENT.format(sep="\u2003")
    with pytest.raises(NTriplesParseError) as exc:
        Graph.from_ntriples(f"{good}\n{bad}\n", builtin_schema())
    assert exc.value.line == 2


@pytest.mark.parametrize("where", ["start", "end"])
def test_ideographic_space_at_line_end_rejected(where):
    good = _STATEMENT.format(sep=" ")
    bad = "\u3000" + good if where == "start" else good + "\u3000"
    with pytest.raises(NTriplesParseError) as exc:
        Graph.from_ntriples(f"{good}\n{good}\n{bad}\n", builtin_schema())
    assert exc.value.line == 3


# Characters an N-Triples IRIREF may not hold unescaped.
_IRIREF_FORBIDDEN = set('<>"{}|^`\\') | {chr(c) for c in range(0x21)}


@settings(deadline=None)
@given(term=st.text(), reference=st.text(min_size=1))
@example(term="a/b", reference="PT/TT")
@example(term="100%", reference="%2F")
@example(term="two words", reference="\U0001F4DC scroll")
@example(term="", reference="\u3000")
def test_any_segment_encodes_and_round_trips(term, reference):
    schema = builtin_schema()
    graph = Graph(schema)
    node = graph.mint_shared("E55", term)
    assert graph.shared_term(node) == ("E55", term)
    assert not _IRIREF_FORBIDDEN & set(node.iri)
    doc = graph.mint_node(reference, "e31", "1", "E31")
    graph.add_triple(doc, "P2", node)
    data = graph.serialize("ntriples")
    assert Graph.from_ntriples(data, schema).serialize("ntriples") == data


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
    graph.add_triple(doc, "ISAD18", Literal(text))
    lines = graph.serialize("ntriples").decode().split("\n")
    expected = f'<{doc.iri}> <{graph.property_iri("ISAD18")}> "{_escape_per_character(text)}" .'
    assert [line for line in lines if "ISAD18" in line] == [expected]


def test_add_triple_returns_the_triple(graph):
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    hmo = graph.mint_node("PT/X", "e22", "1", "E22")
    triple = graph.add_triple(doc, "P128", hmo)
    assert triple == Triple(doc, "P128", hmo)
    assert triple in graph


def test_reader_makes_one_node_per_iri():
    schema = builtin_schema()
    graph = Graph(schema)
    doc = graph.mint_node("PT/X", "e31", "1", "E31")
    hmo = graph.mint_node("PT/X", "e22", "1", "E22")
    graph.add_triple(doc, "P128", hmo)
    graph.add_triple(hmo, "P45", graph.mint_shared("E57", "Paper"))
    graph.add_triple(doc, "ISAD1", Literal("Fundo"))
    # A foreign node with no type line, named by two statements.
    foreign = "<https://other.example/a> <https://other.example/p> <https://other.example/b> ."
    data = graph.serialize("ntriples").decode() + foreign + "\n" + foreign.replace("/a>", "/c>")
    read = Graph.from_ntriples(data, schema)
    index = read.node_index
    assert index["https://other.example/b"].asserted_class == ""
    assert index[hmo.iri].asserted_class == "E22"
    for triple in read.triples:
        assert triple.subject is index[triple.subject.iri]
        if isinstance(triple.object, NodeRef):
            assert triple.object is index[triple.object.iri]


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
        assert {t.predicate for t in own.triples} == {"ARP12"}
        assert sorted(n.asserted_class for n in own.node_index.values()) == ["ARE1", "E31"]
        assert own.serialize("ntriples").decode() == nt
        foreign = Graph.from_ntriples(nt, schema, other)
        assert {t.predicate for t in foreign.triples} == {
            f"{base}ontology/ARP12_has_level_of_description"
        }
        assert foreign.serialize("ntriples").decode() == nt


# -- RDF 1.1 N-Triples literal escapes and one class per node ---------------------

_DOC = "<https://example.org/archonto/PT/e31/1>"
_TYPE_LINE = (
    f"{_DOC} <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://www.cidoc-crm.org/cidoc-crm/E31_Document> ."
)


def _read_note(escaped: str) -> Graph:
    note = f'{_DOC} <https://example.org/archonto/ontology/ISAD18_has_notes> "{escaped}" .'
    return Graph.from_ntriples(f"{_TYPE_LINE}\n{note}\n", builtin_schema())


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
    (triple,) = _read_note(escaped).triples
    assert triple.object == Literal(text)


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
    other = _TYPE_LINE.replace("E31_Document", "E22_Human-Made_Object")
    read = Graph.from_ntriples(f"{_TYPE_LINE}\n{_TYPE_LINE}\n", builtin_schema())
    assert [n.asserted_class for n in read.node_index.values()] == ["E31"]
    with pytest.raises(NTriplesParseError, match=r"^line 3: .* another class") as exc:
        Graph.from_ntriples(f"{_TYPE_LINE}\n\n{other}\n", builtin_schema())
    assert exc.value.line == 3


def test_first_fault_in_line_order_wins_over_a_later_bad_byte():
    good = _STATEMENT.format(sep=" ").encode()
    data = good + b"\nnot a statement\n# comment\n\n" + good.replace(b'"x"', b'"\xff"') + b"\n"
    with pytest.raises(NTriplesParseError) as exc:
        Graph.from_ntriples(data, builtin_schema())
    assert str(exc.value) == "line 2: not a valid N-Triples statement"


def test_value_classes_have_slots():
    node = NodeRef("https://example.org/a", "E31")
    for value in (Literal("x"), node, Triple(node, "P3", Literal("x"))):
        assert not hasattr(value, "__dict__")
