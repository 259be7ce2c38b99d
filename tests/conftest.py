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

_SELECTOR_NAMES = ("Element", "Data Field", "Some Value", "Field")
_LITERALS = ("Reference Code", "Value A", "nine 9", "x-y", "Outro valor")
_VAR_POOL = tuple(f"V{i}" for i in range(1, 10))


def random_ruleset_text(rng: random.Random, schema, rule_count: int) -> str:
    """Generate syntactically valid MDL text (alternation and hygiene respected)."""
    class_ids = sorted(c.identifier for c in schema.classes)
    prop_ids = sorted(p.identifier for p in schema.properties)
    blocks = []
    for rule_no in range(1, rule_count + 1):
        captures = rng.sample(_VAR_POOL, rng.randint(0, 2))
        defined = set(captures) | {"D1", "HMO1", "LO1"}
        name = rng.choice(_SELECTOR_NAMES)
        if rng.random() < 0.5:
            name += f" {rng.randint(1, 9)}"
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
                var = rng.choice(_VAR_POOL)
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
