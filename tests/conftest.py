"""Shared fixtures and synthetic-data generators for the test suite."""

from __future__ import annotations

import codecs
import json
import random

import pytest
from hypothesis import strategies as st

from archonto import (
    builtin_nesting,
    builtin_rules,
    builtin_schema,
    builtin_vocabularies,
    parse_corpus,
)
from archonto.graph import CRM_NAMESPACE, RDF_TYPE, XSD_NAMESPACE
from archonto.mdl import render_mdl
from archonto.migration import _ADAPTERS
from archonto.records import DEFAULT_INHERITABLE, IsadRecord, RecordTree, is_blank


@pytest.fixture(scope="session")
def schema():
    return builtin_schema()


@pytest.fixture(scope="session")
def registry():
    return builtin_vocabularies()


@pytest.fixture(scope="session")
def nesting():
    return builtin_nesting()


@pytest.fixture(scope="session")
def rules():
    return builtin_rules()


def make_record(ref: str, parent: str | None = None, **extra) -> IsadRecord:
    """Build a record directly; element ids with dots go in via `extra['elements']`."""
    elements = dict(extra.pop("elements", {}))
    elements.update(extra)
    elements.setdefault("1.1", ref)
    return IsadRecord(ref, parent, elements)


# -- synthetic corpora ---------------------------------------------------------

LEVEL_CHILDREN = {
    "Fonds": ("Subfonds", "Section", "Serie"),
    "Subfonds": ("Serie",),
    "Section": ("Serie", "File"),
    "Serie": ("Installation Unit", "File", "Item"),
    "Installation Unit": ("File", "Item"),
    "File": ("Item",),
    "Item": (),
}

_SUPPORTS = ("Paper", "Parchment", "Photosensitive film")
_LANGUAGES = ("Portuguese", "Latin", "French", "Greek")
_UNITS = ("Centimeter", "Gram", "Pack")
_ROLES = ("Producer", "Material Author", "Recipient")
_NAMES = ("Lino", "Vasco Gomes", "Antão Santos", "Jerónima da Cruz")
_TEXTS = (
    "Registos relativos às rotas comerciais.",
    "Documentação transferida em 1911.",
    "Processos cíveis e petições diversas.",
    "Contém livros de receita e despesa.",
)


def synthetic_corpus(rng: random.Random, size: int) -> list[dict]:
    """Random but schema-conformant corpus entries (valid levels and nesting)."""
    entries: list[dict] = []
    placed: list[tuple[str, str]] = []  # (ref, level)
    for index in range(size):
        parents = [(r, lv) for r, lv in placed if LEVEL_CHILDREN[lv]]
        if not parents or rng.random() < 0.15:
            parent, level = None, "Fonds"
        else:
            parent, parent_level = rng.choice(parents)
            level = rng.choice(LEVEL_CHILDREN[parent_level])
        ref = f"PT/T{index:03d}"
        entry: dict = {"1.1": ref, "1.4": level}
        if parent is not None:
            entry["parent"] = parent
        title_kind = rng.choice(("formal", "supplied", "absent"))
        entry["1.2"] = f"Unidade {index}"
        if title_kind != "absent":
            entry["title_type"] = title_kind
        date_kind = rng.random()
        if date_kind < 0.4:
            start = rng.randint(1400, 1900)
            entry["production_date_start"] = str(start)
            entry["production_date_end"] = str(start + rng.randint(0, 200))
        elif date_kind < 0.7:
            entry["production_date_single"] = (
                f"{rng.randint(1400, 1900):04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
            )
        if rng.random() < 0.5:
            entry["dimensions"] = [
                {
                    "value": str(rng.randint(1, 800)),
                    "unit": rng.choice(_UNITS),
                    "kind": rng.choice(("dimension", "extension")),
                }
                for _ in range(rng.randint(1, 2))
            ]
        if rng.random() < 0.5:
            entry["supports"] = [rng.choice(_SUPPORTS)]
        if rng.random() < 0.5:
            entry["languages"] = sorted({rng.choice(_LANGUAGES) for _ in range(2)})
        if rng.random() < 0.4:
            entry["creators"] = [
                {"name": rng.choice(_NAMES), "role": rng.choice(_ROLES)}
            ]
        if rng.random() < 0.4:
            entry["physical_location"] = f"Armário {rng.randint(1, 40)}"
        if rng.random() < 0.5:
            entry["3.1"] = rng.choice(_TEXTS)
        if rng.random() < 0.3:
            entry["5.4"] = rng.choice(_TEXTS)
        if rng.random() < 0.4:
            entry["description_creation_date"] = (
                f"{rng.randint(1980, 2020):04d}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
            )
            if rng.random() < 0.5:
                entry["description_last_modification"] = (
                    f"{rng.randint(2020, 2024):04d}-01-{rng.randint(1, 28):02d}"
                )
        entries.append(entry)
        placed.append((ref, level))
    return entries


def corpus_text(entries: list[dict]) -> str:
    return "\n".join(json.dumps(entry, ensure_ascii=False) for entry in entries) + "\n"


# Defects for the corpus properties: a single production date (unusable, or
# beside an interval) and an out-of-vocabulary support, by record index.
DATE_DEFECTS = st.dictionaries(
    st.integers(min_value=0, max_value=39), st.sampled_from(("circa 1650", "1720")), max_size=8
)
SUPPORT_DEFECTS = st.sets(st.integers(min_value=0, max_value=39), max_size=8)


def with_defects(entries: list[dict], dates: dict[int, str], bogus: set[int]) -> list[dict]:
    for index, text in dates.items():
        if index < len(entries):
            entries[index]["production_date_single"] = text
    for index in bogus:
        if index < len(entries):
            entries[index]["supports"] = entries[index].get("supports", []) + [f"Bogus {index}"]
    return entries


# -- random forests for inheritance --------------------------------------------


def random_forest_tree(rng: random.Random, max_nodes: int = 200, max_depth: int = 6):
    """Random forest with randomly blanked inheritable elements."""
    size = rng.randint(1, max_nodes)
    keys = sorted(DEFAULT_INHERITABLE)
    lines = []
    depths: dict[str, int] = {}
    refs: list[str] = []
    for index in range(size):
        ref = f"R{index:03d}"
        eligible = [r for r in refs if depths[r] < max_depth]
        if not eligible or rng.random() < 0.25:
            parent = None
            depths[ref] = 1
        else:
            parent = rng.choice(eligible)
            depths[ref] = depths[parent] + 1
        entry: dict = {"1.1": ref}
        if parent is not None:
            entry["parent"] = parent
        for key in keys:
            roll = rng.random()
            if roll < 0.35:
                entry[key] = f"{key}-of-{ref}"
            elif roll < 0.45:
                entry[key] = "   "  # whitespace-only counts as blank
        lines.append(json.dumps(entry))
        refs.append(ref)
    return parse_corpus("\n".join(lines))


def naive_inheritance(tree: RecordTree, keys) -> dict[str, dict[str, tuple]]:
    """Independent oracle: root-to-leaf walk carrying current values."""
    keys = sorted(keys)
    resolved: dict[str, dict[str, tuple]] = {}

    def visit(ref: str, carried: dict[str, tuple]) -> None:
        record = tree.records[ref]
        own_view: dict[str, tuple] = {}
        carried_next = dict(carried)
        for key in keys:
            own = record.elements.get(key)
            if not is_blank(own):
                own_view[key] = (own, None)
                carried_next[key] = (own, ref)
            elif key in carried:
                own_view[key] = carried[key]
        resolved[ref] = own_view
        for child in tree.children.get(ref, ()):
            visit(child, carried_next)

    for root in tree.roots:
        visit(root, {})
    return resolved


# -- random MDL rules ------------------------------------------------------------

# Selectors the engine has an adapter for, with the captures their
# applications fill (a creator's name and role; the production date's
# interval ends, or its single date), then the document selector and names
# the engine does not know.
_SELECTOR_CAPTURES = {name: (1,) for name in _ADAPTERS} | {
    "Creator": (2, 1), "Production Date": (2, 1), "ISAD": (1, 0)
}
_UNKNOWN_SELECTORS = ("Element", "Data Field", "Some Value", "Field")
_LITERALS = ("Reference Code", "Value A", "nine 9", "x-y", "Outro valor")
_VAR_POOL = tuple(f"V{i}" for i in range(1, 10))


# Rules 1 and 2, rule 2 with an ARE5 literal of quotes, a backslash, braces,
# a hash, a percent sign, a variable reference and a Python call: rule text
# that must stay data.
HOSTILE_LITERAL = 'Ref "x" \\ {y} # 50% $D1 __import__("os").system("echo hi")'
HOSTILE_RULES = (
    "RULE 1: ISAD{D1} =>\n"
    "  E31 Document{=D1};\n"
    "  $D1 -> P128 is carried by -> E22 Human-Made Object{=HMO1};\n"
    "  $D1 -> P67 refers to -> E33 Linguistic Object{=LO1}\n"
    "\n"
    "RULE 2: $D1 -> Description Level{DL} =>\n"
    "  $D1 -> P1 is identified by -> E42 Identifier{=DL} -> P2 has type -> "
    f"ARE5 Identifier Type{{='{HOSTILE_LITERAL}'}}\n"
)


def random_ruleset_text(
    rng: random.Random, schema, rule_count: int, document_rule: bool = False
) -> str:
    """Generate syntactically valid MDL text (alternation and hygiene respected).
    Most selectors are ones the engine fires, with the number of captures its
    adapter fills, so the rules reach the engine; a few are unknown names.
    Half the sets start with the built-in document rule, every set with
    ``document_rule``; the random draws are the same either way."""
    class_ids = sorted(c.identifier for c in schema.classes)
    prop_ids = sorted(p.identifier for p in schema.properties)
    blocks = []
    if rng.random() < 0.5 or document_rule:  # the built-in rule that binds the anchors
        blocks.append(render_mdl(builtin_rules().subset(1), schema).rstrip("\n"))
    for rule_no in range(len(blocks) + 1, rule_count + 1):
        if rng.random() < 0.1:
            name = rng.choice(_UNKNOWN_SELECTORS) + f" {rng.randint(1, 9)}"
            captures = rng.sample(_VAR_POOL, rng.randint(0, 2))
        else:
            name = rng.choice(sorted(_SELECTOR_CAPTURES))
            captures = rng.sample(_VAR_POOL, rng.choice(_SELECTOR_CAPTURES[name]))
        defined = set(captures) | {"D1", "HMO1", "LO1"}
        selector = name
        if captures:
            selector += "{" + ", ".join(captures) + "}"
        if rng.random() < 0.5:
            selector = "$D1 -> " + selector

        def node_segment() -> str:
            class_id = rng.choice(class_ids)
            segment = class_id
            if rng.random() < 0.5:
                segment += f" {schema.class_def(class_id).label}"
            roll = rng.random()
            if roll < 0.3:
                var = rng.choice(_VAR_POOL + ("D1", "HMO1", "LO1"))
                segment += "{=" + var + "}"
                defined.add(var)
            elif roll < 0.45:
                segment += "{='" + rng.choice(_LITERALS) + "'}"
            return segment

        def edge_segment() -> str:
            prop_id = rng.choice(prop_ids)
            segment = prop_id
            if rng.random() < 0.5:
                segment += f" {schema.property_def(prop_id).label}"
            return segment

        paths = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.4:
                segments = [f"${rng.choice(sorted(defined))}"]
            else:
                segments = [node_segment()]
            for hop in range(rng.randint(0, 3)):
                segments.append(edge_segment())
                roll = rng.random()
                if roll < 0.2:
                    segments.append(f"${rng.choice(sorted(defined))}")
                elif roll < 0.35 and captures:
                    segments.append(rng.choice(captures))
                    break  # an emission (of a capture) ends the path
                else:
                    segments.append(node_segment())
            paths.append(" -> ".join(segments))
        blocks.append(f"RULE {rule_no}: {selector} =>\n  " + ";\n  ".join(paths))
    return "\n\n".join(blocks) + "\n"


def lines_one_at_a_time(data: bytes | str, error):
    """``(line number, text)`` of each line decoded on its own, the reference
    for the block decoder: a str splits as ``str.split("\\n")`` does, bytes
    lose a leading BOM and the empty piece after a final LF, and a bad byte
    raises ``error(message, line)`` when its line is reached."""
    if isinstance(data, str):
        yield from enumerate(data.split("\n"), start=1)
        return
    pieces = data.removeprefix(codecs.BOM_UTF8).split(b"\n")
    if pieces[-1] == b"":
        pieces.pop()
    for number, raw in enumerate(pieces, start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"invalid UTF-8 byte 0x{raw[exc.start]:02X}", number) from None
        yield number, text


# -- N-Triples documents, well-formed and faulty ------------------------------------

# N-Triples separates terms by space and tab only; other Unicode spaces are
# not whitespace to it.
STATEMENT = (
    "<https://example.org/archonto/PT%2FX/e31/1>{sep}"
    "<https://example.org/archonto/ontology/ISAD1_has_title>{sep}"
    '"x" .'
)


DOC = "<https://example.org/archonto/PT/e31/1>"
TYPE_LINE = (
    f"{DOC} <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://www.cidoc-crm.org/cidoc-crm/E31_Document> ."
)


_BASE = "https://example.org/archonto/"
_NODE_IRIS = st.sampled_from([
    _BASE + "PT/e31/1", _BASE + "PT/e22/1", _BASE + "PT%2FA/e31/1", "https://other.example/é",
    "urn:x:\U0001F600",
])
# Predicates of each range kind: string literal (ISAD18, and P3 by bare id),
# node (P128), dateTime literal (DOP8), and one the schema does not declare.
_PREDICATE_IRIS = st.sampled_from([
    _BASE + "ontology/ISAD18_has_notes", CRM_NAMESPACE + "P128_is_carried_by", "P3",
    _BASE + "ontology/DOP8_timestamp", "https://other.example/p",
])
# A datatype's IRI as a class is a foreign class, not the datatype's tag.
_CLASS_IRIS = st.sampled_from([
    CRM_NAMESPACE + "E31_Document", CRM_NAMESPACE + "E22_Human-Made_Object", "https://other.example/C",
    XSD_NAMESPACE + "string",
])
# Literal text: plain and multi-byte characters and the escapes N-Triples
# has; then, in a faulty document, escapes it does not have and a raw quote
# or CR, which end the statement badly.
_PIECES = ["a", " ", "é", "\U0001F600", "\u2028", "\\n", '\\"', "\\\\", "\\u00E9", "\\U0001F600", "\t"]
_BAD_PIECES = ["\\x41", "\\uD800", "\\", '"', "\r"]
_PADS = ["", " ", "\t", "\r", " \t\r"]
_SEPS = [" ", "\t", " \t "]
# A Unicode space that is not N-Triples whitespace, in faulty documents.
_BAD_SPACES = ["\u2003"]
# Characters an IRIREF may not hold, put into an IRI of a faulty document; a
# lone surrogate only in str input, since UTF-8 bytes cannot hold one.
_BAD_IRI_CHARS = [*'{}|^`\\<"', " ", "\t", "\x01"]
_SURROGATES = ["\ud800", "\udfff"]


@st.composite
def _ntriples_lines(draw, faulty: bool, text: bool) -> str:
    kinds = ["node", "literal", "literal", "type", "type", "comment", "blank"] + ["bad", "open"] * faulty
    kind = draw(st.sampled_from(kinds))
    literals = st.lists(st.sampled_from(_PIECES + _BAD_PIECES * faulty), max_size=6).map("".join)
    pad = st.sampled_from(_PADS + _BAD_SPACES * faulty)
    sep = draw(st.sampled_from(_SEPS + _BAD_SPACES * faulty))
    bad_chars = _BAD_IRI_CHARS + _SURROGATES * text

    def iri(pool, close: str = ">") -> str:
        value = draw(pool)
        if faulty and draw(st.integers(0, 5)) == 0:
            cut = draw(st.integers(0, len(value)))
            value = value[:cut] + draw(st.sampled_from(bad_chars)) + value[cut:]
        return f"<{value}{close}"

    def statement(kind: str, close: str = ">") -> str:
        subject = iri(_NODE_IRIS)
        if kind == "type":
            if faulty and draw(st.booleans()):
                obj = '"E31"' + (f"^^{iri(st.just(XSD_NAMESPACE + 'string'))}" if draw(st.booleans()) else "")
            else:
                obj = iri(_CLASS_IRIS, close)
            return f"{subject}{sep}<{RDF_TYPE}>{sep}{obj}"
        if kind == "node":
            obj = iri(_NODE_IRIS, close)
        else:
            datatype = draw(st.sampled_from(["", XSD_NAMESPACE + "dateTime", XSD_NAMESPACE + "string",
                                             "https://other.example/dt"]))
            obj = f'"{draw(literals)}"' + (f"^^{iri(st.just(datatype), close)}" if datatype else "")
        return f"{subject}{sep}{iri(_PREDICATE_IRIS)}{sep}{obj}"

    if kind == "comment":
        body = "# " + draw(literals)
    elif kind == "blank":
        body = ""
    elif kind == "bad":
        body = draw(st.sampled_from(["not a statement", "<a> <b> .", "<a> <b> <c>", "<a b> <c> <d> ."]))
    elif kind == "open":
        # An IRI left open at the end of its line, before a valid statement
        # whose '>' could close it if a match ran on past the LF.
        shape = draw(st.sampled_from(["subject", "predicate", "node", "type", "literal"]))
        if shape == "subject":
            opened = f"<{draw(_NODE_IRIS)}"
        elif shape == "predicate":
            opened = f"{iri(_NODE_IRIS)}{sep}<{draw(_PREDICATE_IRIS)}"
        else:
            opened = statement(shape, close="")
        body = opened + "\n" + draw(st.sampled_from([TYPE_LINE, STATEMENT.format(sep=" ")]))
    else:
        end = f"{sep}." if kind == "type" else f"{draw(st.sampled_from(['', ' ']))}."
        body = statement(kind) + end
    return draw(pad) + body + draw(pad)


@st.composite
def ntriples_documents(draw) -> bytes | str:
    """Statements, comments and blank lines, CRLF or LF, with or without a
    last LF; a faulty document may also hold bad lines, escapes and bytes,
    IRIs that hold a character an IRI may not, and IRIs left open."""
    faulty, text = draw(st.booleans()), draw(st.booleans())
    lines = draw(st.lists(_ntriples_lines(faulty, text), max_size=12))
    document = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if lines and draw(st.booleans()):
        document = document.removesuffix("\n")
    if text:
        return document
    data = document.encode("utf-8")
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    if faulty and draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[cut:]
    return data


# -- graph rows by property id -----------------------------------------------------


def row(graph, subject: str, predicate_id: str, obj: str, datatype: str | None = None) -> tuple:
    """The row that ``graph.add_triple(subject, predicate_id, obj, datatype)``
    stores: a node object without a datatype, a literal with one."""
    predicate = graph._terms.property_iris.get(predicate_id, predicate_id)
    if datatype is None:
        return (subject, predicate, 0, obj, "")
    return (subject, predicate, 1, obj, datatype)


def rows_of(graph, predicate_id: str) -> list[tuple]:
    """The graph's rows whose predicate is this property id (or foreign
    predicate IRI), in the order they were stored."""
    predicate = graph._terms.property_iris.get(predicate_id, predicate_id)
    return [stored for stored in graph._triples if stored[1] == predicate]


def objects(graph, predicate_id: str, subject: str | None = None) -> list[str]:
    """The object (node IRI or literal text) of each row with this property
    id, of ``subject`` only if given, in the order the rows were stored."""
    return [o for s, _, _, o, _ in rows_of(graph, predicate_id) if subject in (None, s)]
