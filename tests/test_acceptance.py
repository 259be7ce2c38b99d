"""Acceptance criteria, one test per criterion with an explicit pass line."""

import contextlib
import io
import json
import random
import re
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from archonto.cli import main
from archonto.graph import DEFAULT_BASE_IRI, Graph, _encode
from archonto.mdl import BindMode, StepKind, parse_mdl, render_mdl
from archonto.migration import migrate_record, migrate_tree
from archonto.ontology import XSD_DATETIME, XSD_STRING
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
    DATE_DEFECTS,
    SUPPORT_DEFECTS,
    corpus_text,
    make_record,
    naive_inheritance,
    objects,
    random_forest_tree,
    random_ruleset_text,
    row,
    rows_of,
    synthetic_corpus,
    with_defects,
)

REF = "PT/R"
DT = XSD_DATETIME


def _passed(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


# -- criterion 1: rule coverage ------------------------------------------------


def _anchors(g: Graph) -> tuple[str, str, str]:
    return (
        g.mint_node(REF, "e31", "1", "E31"),
        g.mint_node(REF, "e22", "1", "E22"),
        g.mint_node(REF, "e33", "1", "E33"),
    )


def _golden_case(schema, rule_no):
    """Minimal record plus the hand-transcribed rows of the rule's path and
    the class of each node they name."""
    g = Graph(schema)
    doc, hmo, lo = _anchors(g)
    elements: dict = {}
    parent = None
    expected: set[tuple] = set()
    if rule_no == 1:
        pass  # anchors only
    elif rule_no == 2:
        elements = {"1.4": "Fonds"}
        expected = {row(g, doc, "ARP12", g.mint_shared("ARE1", "Fonds"))}
    elif rule_no == 3:
        ident = g.mint_node(REF, "e42", REF, "E42")
        expected = {
            row(g, doc, "P1", ident),
            row(g, ident, "P2", g.mint_shared("ARE5", "Reference Code")),
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
            row(g, doc, "P102", node),
            row(g, node, "L2DO", carrier),
            row(g, carrier, "DOP7", title, XSD_STRING),
        }
    elif rule_no == 7:
        elements = {"production_date_start": "1700", "production_date_end": "1833"}
        production = g.mint_node(REF, "e12", "1", "E12")
        span = g.mint_node(REF, "e52", "interval", "E52")
        name = g.mint_node(REF, "e41", "interval", "E41")
        interval = g.mint_node(REF, "doe11", "interval", "DOE11")
        expected = {
            row(g, hmo, "P108", production),
            row(g, production, "P4", span),
            row(g, span, "P1", name),
            row(g, name, "L2DO", interval),
            row(g, interval, "DOP6", "1700-01-01T00:00:00", DT),
            row(g, interval, "DOP2", "1833-12-31T23:59:59", DT),
        }
    elif rule_no == 8:
        elements = {"production_date_single": "1813-07-12"}
        production = g.mint_node(REF, "e12", "1", "E12")
        span = g.mint_node(REF, "e52", "instant", "E52")
        name = g.mint_node(REF, "e41", "instant", "E41")
        instant = g.mint_node(REF, "doe10", "instant", "DOE10")
        expected = {
            row(g, hmo, "P108", production),
            row(g, production, "P4", span),
            row(g, span, "P1", name),
            row(g, name, "L2DO", instant),
            row(g, instant, "DOP8", "1813-07-12T00:00:00", DT),
        }
    elif rule_no in (9, 10):
        kind = "dimension" if rule_no == 9 else "extension"
        cls = "E54" if rule_no == 9 else "ARE4"
        elements = {"dimensions": [{"value": "25", "unit": "Centimeter", "kind": kind}]}
        measure = g.mint_node(REF, cls.lower(), "1", cls)
        expected = {
            row(g, hmo, "P43", measure),
            row(g, measure, "P91", g.mint_shared("E58", "Centimeter")),
            row(g, measure, "P90", "25", XSD_STRING),
        }
    elif rule_no == 11:
        elements = {"supports": ["Paper"]}
        expected = {row(g, hmo, "P45", g.mint_shared("E57", "Paper"))}
    elif rule_no == 12:
        elements = {"languages": ["Portuguese"]}
        expected = {row(g, lo, "P72", g.mint_shared("E56", "Portuguese"))}
    elif rule_no in (13, 14, 15):
        field, term, value = {
            13: ("physical_location", "Physical Location", "Armário 5"),
            14: ("original_numbering", "Original Numbering", "maço 12"),
            15: ("previous_location", "Previous Location", "AHU 3"),
        }[rule_no]
        elements = {field: value}
        ident = g.mint_node(REF, "e42", value, "E42")
        expected = {
            row(g, doc, "P1", ident),
            row(g, ident, "P2", g.mint_shared("ARE5", term)),
        }
    elif rule_no == 16:
        elements = {"description_creation_date": "1989-10-25"}
        creation = g.mint_node(REF, "e65", "1", "E65")
        span = g.mint_node(REF, "e52", "creation", "E52")
        name = g.mint_node(REF, "e41", "creation", "E41")
        instant = g.mint_node(REF, "doe10", "creation", "DOE10")
        expected = {
            row(g, lo, "P94", creation),
            row(g, creation, "P4", span),
            row(g, span, "P1", name),
            row(g, name, "L2DO", instant),
            row(g, instant, "DOP8", "1989-10-25T00:00:00", DT),
            row(g, instant, "P2", g.mint_shared("ARE6", "Creation Date")),
        }
    elif rule_no == 17:
        parent = "PT/PARENT"
        expected = {
            row(g, doc, "P165", g.mint_node(parent, "e31", "1", "E31")),
        }
    elif rule_no == 18:
        elements = {"creators": [{"name": "Lino", "role": "Producer"}]}
        production = g.mint_node(REF, "e12", "1", "E12")
        assoc = g.mint_node(REF, "pc14", "1", "PC14")
        person = g.mint_node(REF, "e21", "Lino", "E21")
        name = g.mint_node(REF, "e41", "1", "E41")
        person_name = g.mint_node(REF, "doe17", "1", "DOE17")
        expected = {
            row(g, hmo, "P108", production),
            row(g, assoc, "P01", production),
            row(g, assoc, "P02", person),
            row(g, person, "P1", name),
            row(g, name, "L2DO", person_name),
            row(g, person_name, "DOP5", "Lino", XSD_STRING),
            row(g, assoc, "P14.1", g.mint_shared("ARE8", "Producer")),
        }
    rule1 = {row(g, doc, "P128", hmo), row(g, doc, "P67", lo)}
    return elements, parent, rule1 | expected, dict(g.node_index)


def test_rule_coverage_goldens(schema, registry, rules):
    started = time.monotonic()
    for rule_no in range(1, 19):
        elements, parent, expected, classes = _golden_case(schema, rule_no)
        record = make_record(REF, parent=parent, elements=elements)
        subset = rules.subset(1) if rule_no == 1 else rules.subset(1, rule_no)
        outcome = migrate_record(record, subset, schema, registry)
        assert not outcome.problems, (rule_no, outcome.problems)
        assert outcome.graph.triples == expected, f"rule {rule_no} triples differ"
        assert dict(outcome.graph.node_index) == classes, f"rule {rule_no} nodes differ"
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"rule coverage took {elapsed:.2f}s"
    _passed("rule-coverage")


# -- criterion 2: figure-3 reconstruction ----------------------------------------


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
    assert objects(graph, "P128", doc) == [hmo]
    assert objects(graph, "P67", doc) == [lo]

    # level of description
    (level,) = objects(graph, "ARP12", doc)
    assert graph.shared_term(level) == ("ARE1", "Fonds")

    # supplied title through the string carrier
    (title,) = objects(graph, "P102", doc)
    assert graph.node_index[title] == "ARE3"
    (carrier,) = objects(graph, "L2DO", title)
    assert graph.node_index[carrier] == "DOE8"
    assert objects(graph, "DOP7", carrier) == ["Juízo da Índia e Mina"]

    # reference code identifier typed 'Reference Code'
    identifiers = [o for o in objects(graph, "P1", doc) if graph.node_index[o] == "E42"]
    assert len(identifiers) == 1
    (id_type,) = objects(graph, "P2", identifiers[0])
    assert graph.shared_term(id_type) == ("ARE5", "Reference Code")

    # support and dimension on the physical object
    (support,) = objects(graph, "P45", hmo)
    assert graph.shared_term(support) == ("E57", "Paper")
    (dimension,) = objects(graph, "P43", hmo)
    assert graph.node_index[dimension] == "E54"
    assert objects(graph, "P90", dimension) == ["742"]
    (unit,) = objects(graph, "P91", dimension)
    assert graph.shared_term(unit) == ("E58", "Centimeter")

    # production interval under the production event
    (production,) = objects(graph, "P108", hmo)
    (prod_span,) = objects(graph, "P4", production)
    (prod_name,) = objects(graph, "P1", prod_span)
    (interval,) = objects(graph, "L2DO", prod_name)
    assert graph.node_index[interval] == "DOE11"
    assert objects(graph, "DOP6", interval) == ["1700-01-01T00:00:00"]
    assert objects(graph, "DOP2", interval) == ["1833-12-31T23:59:59"]

    # description creation date: E65 -> E52 -> E41 -> DOE10 Instant
    (creation,) = objects(graph, "P94", lo)
    assert graph.node_index[creation] == "E65"
    (span,) = objects(graph, "P4", creation)
    assert graph.node_index[span] == "E52"
    (span_name,) = objects(graph, "P1", span)
    assert graph.node_index[span_name] == "E41"
    (instant,) = objects(graph, "L2DO", span_name)
    assert graph.node_index[instant] == "DOE10"
    (stamp,) = objects(graph, "DOP8", instant)
    assert validate_datetime(stamp)

    # verbatim legacy copies
    assert objects(graph, "ISAD1", doc) == ["Juízo da Índia e Mina"]
    assert objects(graph, "ISAD17", doc) == [
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
    dates=DATE_DEFECTS,
    bogus=SUPPORT_DEFECTS,
    strict=st.booleans(),
)
def test_shuffled_corpus_gives_identical_graph_and_report(
    schema, registry, rules, seed, size, order, dates, bogus, strict
):
    """Any record order gives the same N-Triples and problem report.  Single
    dates, unusable or beside an interval, give the report some lines, and
    out-of-vocabulary supports make strict mode refuse some records."""
    entries = with_defects(synthetic_corpus(random.Random(seed), size), dates, bogus)

    def run(corpus: str) -> tuple[bytes, bytes, list[str]]:
        tree = resolve_inheritance(parse_corpus(corpus))
        result = migrate_tree(tree, rules, schema, registry, strict=strict)
        graph = result.graph
        return graph.serialize("ntriples"), graph.serialize("turtle"), result.report_lines()

    lines = corpus_text(entries).splitlines()
    expected = run("\n".join(lines) + "\n")
    ntriples, turtle, _ = expected
    assert _expand_turtle(turtle) == ntriples
    order.shuffle(lines)
    assert run("\n".join(lines) + "\n") == expected


_TURTLE_STATEMENT = re.compile(r'(<[^>]*>) (\S+) (?:("(?:[^"\\]|\\.)*")(?:\^\^(\S+))?|(\S+)) \.')


def _expand_turtle(data: bytes) -> bytes:
    """The writer's Turtle as N-Triples: the ``@prefix`` header dropped, ``a``
    written as ``rdf:type``, and each prefixed predicate, object or datatype
    written as its full IRI.  Literal text is left as it is."""
    header, _, body = data.decode("utf-8").partition("\n\n")
    prefixes = dict(re.findall(r"@prefix (\w+): <([^>]*)> \.", header))

    def iri(term: str) -> str:
        if term.startswith("<"):
            return term
        prefix, _, local = term.partition(":")
        return f"<{prefixes[prefix]}{local}>"

    lines = body.split("\n")
    assert lines[-1] == ""
    expanded = []
    for line in lines[:-1]:
        subject, predicate, text, datatype, obj = _TURTLE_STATEMENT.fullmatch(line).groups()
        predicate = iri("rdf:type" if predicate == "a" else predicate)
        if text is None:
            obj = iri(obj)
        else:
            obj = text + (f"^^{iri(datatype)}" if datatype else "")
        expanded.append(f"{subject} {predicate} {obj} .\n")
    return "".join(expanded).encode("utf-8")


def _add_row(graph, stored):
    """Store a row again through ``add_triple``, by its predicate's id."""
    subject, predicate, literal, obj, datatype = stored
    property_id = graph._terms.property_ids[predicate]
    return graph.add_triple(subject, property_id, obj, datatype if literal else None)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=40),
    dates=DATE_DEFECTS,
    bogus=SUPPORT_DEFECTS,
    strict=st.booleans(),
)
def test_row_store_writes_reads_and_rebuilds_the_same_graph(
    schema, registry, rules, seed, size, dates, bogus, strict
):
    """The streamed writer, the reader and the row snapshot agree with
    the stored rows, clean and with defects, and the Turtle expands to the
    N-Triples line for line."""
    entries = with_defects(synthetic_corpus(random.Random(seed), size), dates, bogus)
    tree = resolve_inheritance(parse_corpus(corpus_text(entries)))
    graph = migrate_tree(tree, rules, schema, registry, strict=strict).graph
    outputs = {}
    for format in ("ntriples", "turtle"):
        with tempfile.TemporaryFile() as sink:
            graph.write(sink, format)
            sink.seek(0)
            written = sink.read()
        outputs[format] = graph.serialize(format)
        assert written == outputs[format]
    assert _expand_turtle(outputs["turtle"]) == outputs["ntriples"]

    read = Graph.from_ntriples(outputs["ntriples"], schema)
    assert read.serialize() == outputs["ntriples"]
    snapshot = graph.triples
    assert read.triples == snapshot
    assert dict(read.node_index) == dict(graph.node_index)

    rebuilt = Graph(schema)
    for node, class_id in graph.node_index.items():
        rebuilt.register_node(node, class_id)
    for stored in snapshot:
        _add_row(rebuilt, stored)
    for format, data in outputs.items():
        assert rebuilt.serialize(format) == data


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=40),
    order=st.randoms(use_true_random=False),
    dates=DATE_DEFECTS,
    bogus=SUPPORT_DEFECTS,
)
def test_write_order_does_not_depend_on_arrival_order(
    schema, registry, rules, seed, size, order, dates, bogus
):
    """The row store keeps rows in arrival order; the writer's sort alone
    makes the output order.  A graph read from the shuffled N-Triples, its
    copy, and the copy with rows removed and added back (so they arrive
    last) all write the migrated graph's bytes, in both formats."""
    entries = with_defects(synthetic_corpus(random.Random(seed), size), dates, bogus)
    tree = resolve_inheritance(parse_corpus(corpus_text(entries)))
    graph = migrate_tree(tree, rules, schema, registry).graph
    expected = {format: graph.serialize(format) for format in ("ntriples", "turtle")}
    lines = expected["ntriples"].decode("utf-8").splitlines(keepends=True)
    order.shuffle(lines)
    shuffled = Graph.from_ntriples("".join(lines), schema)
    clone = shuffled.copy()
    moved = sorted(clone.triples, key=repr)
    order.shuffle(moved)
    moved = moved[: len(moved) // 2]
    for stored in moved:
        clone.remove_triple(stored)
    for stored in moved:
        _add_row(clone, stored)
    for format, data in expected.items():
        assert shuffled.serialize(format) == data
        assert clone.serialize(format) == data


def test_migrated_rows_arrive_one_record_at_a_time_in_record_order(schema, registry, rules):
    """What makes the writer's sort cheap: ``migrate_tree`` stores each
    record's rows as one block, the records in ``sorted(tree.records)``
    order, whatever the order of the corpus lines."""
    lines = corpus_text(synthetic_corpus(random.Random(11), 200)).splitlines()
    random.Random(11).shuffle(lines)
    tree = resolve_inheritance(parse_corpus("\n".join(lines) + "\n"))
    graph = migrate_tree(tree, rules, schema, registry).graph
    blocks = []
    for subject, *_ in graph._triples:
        assert subject.startswith(graph.base_iri)
        record = subject[len(graph.base_iri) :].split("/", 1)[0]
        if not blocks or blocks[-1] != record:
            blocks.append(record)
    assert blocks == [_encode(reference) for reference in sorted(tree.records)]


# Fragments of corpus text: controls, IRI delimiters, non-BMP characters,
# blanks, and terms and dates the rules and vocabularies know.
_TEXT = st.lists(
    st.sampled_from([
        "A", "z", "0", "/", "%", "#", "%2F", " ", "\t", "\n", "\r", "\x00", "\x1f", "\x7f",
        "\u2028", "\u00a0", "\ufeff", "\U0001F600", "\U0010FFFF", '"', "\\", "<", ">", "{",
        "é", "Fonds", "Serie", "Item", "Paper", "Latin", "Gram", "Producer", "1813-07-12", "1650",
    ]),
    max_size=4,
).map("".join)
_NOT_FINITE = "not finite"  # written to the corpus as the number 1e400
# What a field should not hold: a lone surrogate (json writes it as an
# escape), a number, a list for an object, an object for text, 1e400.
_WRONG = st.one_of(
    _TEXT.map(lambda text: text + "\ud800"),
    st.sampled_from(["\udfff", "A\udc80"]),
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.just(_NOT_FINITE),
    st.lists(_TEXT, max_size=2),
    st.dictionaries(_TEXT, _TEXT, max_size=2),
)
_TEXT_FIELDS = (
    "1.2", "1.3", "2.1", "3.1", "4.3", "title_type", "production_date_single",
    "production_date_start", "production_date_end", "physical_location", "original_numbering",
)
_ENTRY_FIELDS = {"dimensions": ("kind", "value", "unit"), "creators": ("name", "role")}
_ALL_FIELDS = (
    "1.1", "1.4", "parent", "supports", "languages", "9.9", *_TEXT_FIELDS, *_ENTRY_FIELDS
)


# Any JSON value, nested, with the corpus's field names among the keys.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False, allow_infinity=False)
    | _TEXT | st.just(_NOT_FINITE),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_ALL_FIELDS) | _TEXT, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _hostile_corpora(draw) -> str:
    """1-6 records of JSON Lines: a forest with odd text, plus up to two
    wrong values, at the top level or inside a dimension or creator entry.
    A record may instead be drawn whole as a JSON object of any nesting."""
    records: list[dict] = []
    for index in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 3)) == 0:
            records.append(draw(st.dictionaries(st.sampled_from(_ALL_FIELDS) | _TEXT, _JSON, max_size=6)))
            continue
        level = draw(st.sampled_from(["Fonds", "Serie", "Item", "Bogus"]))
        record = {"1.1": draw(_TEXT) + str(index), "1.4": level}
        if index and draw(st.booleans()):
            record["parent"] = draw(st.sampled_from(records)).get("1.1")
        record.update(draw(st.dictionaries(st.sampled_from(_TEXT_FIELDS), _TEXT, max_size=4)))
        for field in ("supports", "languages"):
            record[field] = draw(st.lists(_TEXT, max_size=2))
        for field, keys in _ENTRY_FIELDS.items():
            entry = st.fixed_dictionaries({}, optional=dict.fromkeys(keys, _TEXT))
            record[field] = draw(st.lists(entry, max_size=2))
        records.append(record)
    for _ in range(draw(st.integers(0, 2))):
        record, field = draw(st.sampled_from(records)), draw(st.sampled_from(_ALL_FIELDS))
        if field in _ENTRY_FIELDS and draw(st.booleans()):
            record[field] = [{draw(st.sampled_from(_ENTRY_FIELDS[field])): draw(_WRONG)}]
        else:
            record[field] = draw(_WRONG)
    text = "".join(json.dumps(record) + "\n" for record in records)
    return text.replace(json.dumps(_NOT_FINITE), "1e400")


_BASE_IRIS = st.sampled_from([
    None, "https://example.org/archonto/", "urn:x:", "http://a.org/%/#/", "https://x.org/é/",
    "https://x.org/\U0001F600/", "https://x.org/\udcff/", "https://x.org/a b/", "x",
])
_CLI_COMMANDS = {
    "ntriples": ["migrate", "--in"],
    "turtle": ["migrate", "--format", "turtle", "--in"],
    "validate": ["validate", "--corpus"],
    "stats": ["stats", "--corpus"],
}


def _run_cli(argv: list[str]) -> tuple[int, bytes, bytes]:
    """main's exit status, stdout and stderr, run in this process."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.TextIOWrapper(io.BytesIO())
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    out.flush()
    err.flush()
    return status, out.buffer.getvalue(), err.buffer.getvalue()


@settings(max_examples=100, deadline=None)
@given(text=_hostile_corpora(), base_iri=_BASE_IRIS)
def test_hostile_corpus_through_the_cli_exits_cleanly(schema, text, base_iri):
    """Each command exits 0 or 1 with output that our own readers take back,
    or exits 2 with one error line and no output file; nothing else."""
    base = [] if base_iri is None else ["--base-iri", base_iri]
    outputs = {}
    with tempfile.TemporaryDirectory() as workdir:
        corpus = Path(workdir, "corpus.jsonl")
        corpus.write_text(text, encoding="ascii")
        for name, command in _CLI_COMMANDS.items():
            out = Path(workdir, name)
            status, stdout, stderr = _run_cli([*command, str(corpus), *base, "--out", str(out)])
            assert stdout == b""
            if status == 2:
                assert re.fullmatch(rb"error: [^\n]*\n", stderr), stderr
                assert not out.exists()
            else:
                assert status in (0, 1)
                outputs[name] = out.read_bytes()
                outputs[name].decode("utf-8")
    if "ntriples" in outputs:
        ntriples = outputs["ntriples"]
        read = Graph.from_ntriples(ntriples, schema, base_iri or DEFAULT_BASE_IRI)
        assert read.serialize() == ntriples
        assert _expand_turtle(outputs["turtle"]) == ntriples


def test_turtle_of_a_foreign_graph_expands_to_its_ntriples(schema):
    """'a' abbreviates rdf:type in predicate position only: as an object the
    rdf:type IRI stays whole, while a class IRI as an object takes its prefix."""
    rdf_type = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    document = "<http://www.cidoc-crm.org/cidoc-crm/E31_Document>"
    ntriples = (
        f"<https://x.org/a> {rdf_type} {document} .\n"
        f"<https://x.org/a> <https://x.org/p> {rdf_type} .\n"
        f"<https://x.org/a> <https://x.org/q> {document} .\n"
    ).encode()
    graph = Graph.from_ntriples(ntriples, schema)
    assert graph.serialize() == ntriples
    turtle = graph.serialize("turtle")
    assert b"<https://x.org/p> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ." in turtle
    assert b"<https://x.org/q> crm:E31_Document ." in turtle
    assert _expand_turtle(turtle) == ntriples


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
    target = rows_of(graph, "ARP12")[0]
    wrong = next(n for n, class_id in graph.node_index.items() if class_id == "E22")
    graph.remove_triple(target)
    graph.add_triple(wrong, "ARP12", target[3])
    return DOMAIN_VIOLATION


def _corrupt_date(graph):
    target = rows_of(graph, "DOP8")[0]
    graph.remove_triple(target)
    graph.add_triple(target[0], "DOP8", "1813-07-12", DT)
    return DATETIME_LEXICAL


def _corrupt_vocabulary(graph):
    target = rows_of(graph, "ARP12")[0]
    graph.remove_triple(target)
    graph.add_triple(target[0], "ARP12", graph.mint_shared("ARE1", "Bogus Level"))
    return VOCABULARY_VIOLATION


def _corrupt_double_level(graph):
    target = rows_of(graph, "ARP12")[0]
    other = "Item" if graph.shared_term(target[3]) != ("ARE1", "Item") else "File"
    graph.add_triple(target[0], "ARP12", graph.mint_shared("ARE1", other))
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
