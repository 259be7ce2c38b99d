"""Corpus parsing, forest invariants and multilevel inheritance."""

import copy
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archonto.cli import main
from archonto.records import (
    CorpusError,
    DEFAULT_INHERITABLE,
    IsadRecord,
    Provenance,
    RecordTree,
    SCALAR_SUBFIELDS,
    is_blank,
    parse_corpus,
    resolve_inheritance,
)

from conftest import naive_inheritance, random_forest_tree


def _line(**fields) -> str:
    return json.dumps(fields)


def test_two_record_tree():
    corpus = "\n".join(
        [
            _line(**{"1.1": "PT/TT/JIM", "1.4": "Fonds"}),
            _line(**{"1.1": "PT/TT/JIM/E", "parent": "PT/TT/JIM", "1.4": "Section"}),
        ]
    )
    tree = parse_corpus(corpus)
    assert tree.roots == ("PT/TT/JIM",)
    assert tree.children["PT/TT/JIM"] == ("PT/TT/JIM/E",)
    assert tree.record("PT/TT/JIM/E").parent_reference == "PT/TT/JIM"


def test_empty_corpus():
    tree = parse_corpus("")
    assert len(tree) == 0
    assert tree.roots == ()


def test_self_parent_is_cyclic():
    with pytest.raises(CorpusError) as exc:
        parse_corpus(_line(**{"1.1": "A", "parent": "A"}))
    assert "cyclic" in str(exc.value)


def test_two_cycle_detected():
    corpus = "\n".join(
        [
            _line(**{"1.1": "A", "parent": "B"}),
            _line(**{"1.1": "B", "parent": "A"}),
        ]
    )
    with pytest.raises(CorpusError) as exc:
        parse_corpus(corpus)
    assert "cyclic" in str(exc.value)


def test_duplicate_reference_code():
    corpus = "\n".join([_line(**{"1.1": "A"}), _line(**{"1.1": "A"})])
    with pytest.raises(CorpusError) as exc:
        parse_corpus(corpus)
    assert exc.value.line == 2


def test_dangling_parent():
    with pytest.raises(CorpusError) as exc:
        parse_corpus(_line(**{"1.1": "A", "parent": "GHOST"}))
    assert "GHOST" in str(exc.value)


def test_unknown_element_rejected():
    with pytest.raises(CorpusError) as exc:
        parse_corpus(_line(**{"1.1": "A", "9.9": "nope"}))
    assert "9.9" in str(exc.value)


def test_blank_reference_code_rejected():
    with pytest.raises(CorpusError):
        parse_corpus(_line(**{"1.1": "  "}))


def test_malformed_json_reports_line():
    with pytest.raises(CorpusError) as exc:
        parse_corpus(_line(**{"1.1": "A"}) + "\n{broken\n")
    assert exc.value.line == 2


def test_bad_title_type_rejected():
    with pytest.raises(CorpusError):
        parse_corpus(_line(**{"1.1": "A", "title_type": "fancy"}))


def test_bad_dimension_kind_rejected():
    with pytest.raises(CorpusError):
        parse_corpus(_line(**{"1.1": "A", "dimensions": [{"value": "1", "kind": "girth"}]}))
    # A kind that is not text gets the same refusal, not a TypeError.
    for kind in ([], {}):
        with pytest.raises(CorpusError) as exc:
            parse_corpus(_line(**{"1.1": "A", "dimensions": [{"value": "1", "kind": kind}]}))
        assert "dimension kind must be dimension|extension" in str(exc.value)


def test_numeric_dimension_value_accepted():
    tree = parse_corpus(_line(**{"1.1": "A", "dimensions": [{"value": 25, "unit": "Gram"}]}))
    (entry,) = tree.record("A").elements["dimensions"]
    assert entry["value"] == 25


def test_non_string_parent_rejected():
    with pytest.raises(CorpusError) as exc:
        parse_corpus('{"1.1": "A", "parent": 7}')
    assert "parent" in str(exc.value)


def test_inherit_language_from_parent():
    corpus = "\n".join(
        [
            _line(**{"1.1": "F", "1.4": "Fonds", "4.3": "Portuguese"}),
            _line(**{"1.1": "F/1", "parent": "F", "1.4": "Serie"}),
        ]
    )
    tree = resolve_inheritance(parse_corpus(corpus))
    child = tree.record("F/1")
    assert child.elements["4.3"] == "Portuguese"
    assert child.provenance["4.3"] == Provenance("F")
    parent = tree.record("F")
    assert parent.provenance["4.3"] == Provenance(None)


def test_own_value_wins_over_parent():
    corpus = "\n".join(
        [
            _line(**{"1.1": "F", "3.1": "general scope"}),
            _line(**{"1.1": "F/1", "parent": "F", "3.1": "specific scope"}),
        ]
    )
    tree = resolve_inheritance(parse_corpus(corpus))
    assert tree.record("F/1").elements["3.1"] == "specific scope"
    assert tree.record("F/1").provenance["3.1"] == Provenance(None)


def test_nearest_ancestor_wins():
    corpus = "\n".join(
        [
            _line(**{"1.1": "A", "2.2": "top history"}),
            _line(**{"1.1": "A/B", "parent": "A", "2.2": "mid history"}),
            _line(**{"1.1": "A/B/C", "parent": "A/B"}),
        ]
    )
    tree = resolve_inheritance(parse_corpus(corpus))
    leaf = tree.record("A/B/C")
    assert leaf.elements["2.2"] == "mid history"
    assert leaf.provenance["2.2"] == Provenance("A/B")


def test_whitespace_only_counts_as_blank():
    corpus = "\n".join(
        [
            _line(**{"1.1": "A", "3.1": "real"}),
            _line(**{"1.1": "A/B", "parent": "A", "3.1": "   "}),
        ]
    )
    tree = resolve_inheritance(parse_corpus(corpus))
    assert tree.record("A/B").elements["3.1"] == "real"


def test_missing_everywhere_stays_absent():
    corpus = "\n".join([_line(**{"1.1": "A"}), _line(**{"1.1": "A/B", "parent": "A"})])
    tree = resolve_inheritance(parse_corpus(corpus))
    assert "3.1" not in tree.record("A/B").elements
    assert "3.1" not in tree.record("A/B").provenance


def test_identity_elements_not_in_default_set():
    assert not DEFAULT_INHERITABLE & {"1.1", "1.2", "1.4"}


def test_empty_list_inherits_and_own_list_is_kept():
    corpus = "\n".join(
        [
            _line(**{"1.1": "P", "1.4": "Fonds", "languages": ["Latin"]}),
            _line(**{"1.1": "P/1", "parent": "P", "1.4": "Serie", "languages": []}),
            _line(**{"1.1": "P/2", "parent": "P", "1.4": "Serie", "languages": ["French"]}),
        ]
    )
    tree = resolve_inheritance(parse_corpus(corpus), {"languages"})
    empty, own = tree.record("P/1"), tree.record("P/2")
    assert empty.elements["languages"] == ["Latin"]
    assert empty.provenance["languages"] == Provenance("P")
    assert empty.provenance["languages"].inherited
    assert own.elements["languages"] == ["French"]
    assert not own.provenance["languages"].inherited


def test_reference_code_refuses_to_inherit():
    tree = parse_corpus(_line(**{"1.1": "A"}))
    with pytest.raises(ValueError):
        resolve_inheritance(tree, {"1.1"})


@pytest.mark.parametrize("keys", [{"9.9"}, {"2.2", "parent"}, {"Title"}])
def test_unknown_inheritable_id_refused(keys):
    tree = parse_corpus(_line(**{"1.1": "A"}))
    with pytest.raises(CorpusError, match="cannot inherit unknown element id"):
        resolve_inheritance(tree, keys)


def test_custom_inheritable_set():
    corpus = "\n".join(
        [
            _line(**{"1.1": "A", "1.4": "Fonds", "3.1": "scope"}),
            _line(**{"1.1": "A/B", "parent": "A"}),
        ]
    )
    tree = resolve_inheritance(parse_corpus(corpus), {"1.4"})
    child = tree.record("A/B")
    assert child.elements["1.4"] == "Fonds"  # explicitly requested
    assert "3.1" not in child.elements  # not in the override set


def test_idempotence():
    corpus = "\n".join(
        [
            _line(**{"1.1": "A", "2.2": "history", "3.1": "scope"}),
            _line(**{"1.1": "A/B", "parent": "A", "3.1": "own scope"}),
            _line(**{"1.1": "A/B/C", "parent": "A/B"}),
        ]
    )
    once = resolve_inheritance(parse_corpus(corpus))
    twice = resolve_inheritance(once)
    assert twice == once


def test_locality():
    base = [
        {"1.1": "A", "3.1": "root scope"},
        {"1.1": "A/B", "parent": "A"},
        {"1.1": "X", "3.1": "other root"},
        {"1.1": "X/Y", "parent": "X"},
    ]
    changed = [dict(entry) for entry in base]
    changed[0]["3.1"] = "edited scope"
    resolved_base = resolve_inheritance(parse_corpus("\n".join(map(json.dumps, base))))
    resolved_changed = resolve_inheritance(
        parse_corpus("\n".join(map(json.dumps, changed)))
    )
    # only A's subtree differs
    assert resolved_base.record("X/Y") == resolved_changed.record("X/Y")
    assert resolved_base.record("A/B") != resolved_changed.record("A/B")


def _assert_matches_oracle(resolved, tree, keys):
    oracle = naive_inheritance(tree, keys)
    assert list(resolved.records) == list(tree.records)
    for ref, expected in oracle.items():
        record = resolved.record(ref)
        for key in keys:
            if key in expected:
                value, source = expected[key]
                assert record.elements.get(key) == value, (ref, key)
                assert record.provenance[key] == Provenance(source)
            else:
                assert key not in record.provenance


def test_matches_naive_oracle_small():
    rng = random.Random(42)
    for _ in range(25):
        tree = random_forest_tree(rng, max_nodes=30)
        _assert_matches_oracle(resolve_inheritance(tree), tree, DEFAULT_INHERITABLE)


_FOREST_KEYS = ("1.2", "1.4", "2.2", "3.1", "4.3", "5.4")
_FOREST_VALUES = ("value", "   ", "", "Fundo\u2028documental", "Contém\u0085livros")


@st.composite
def _forests(draw):
    """Corpus lines with random parent links: cycles, missing parents and
    blank lines included, so each line's number differs from its index."""
    size = draw(st.integers(1, 12))
    refs = [f"R{index}" for index in range(size)]
    faulty = draw(st.booleans())
    lines = []
    for index, ref in enumerate(refs):
        entry = {"1.1": ref}
        # Links to earlier records alone make a forest; any link may not.
        links = ["MISSING", *refs] if faulty else refs[:index]
        parent = draw(st.sampled_from([None, *links]))
        if parent is not None:
            entry["parent"] = parent
        for key in draw(st.sets(st.sampled_from(_FOREST_KEYS))):
            entry[key] = draw(st.sampled_from(_FOREST_VALUES)) + (" " + ref if draw(st.booleans()) else "")
        lines.extend([""] * draw(st.integers(0, 1)))
        lines.append(json.dumps(entry, ensure_ascii=False))
    return "\r\n".join(lines) if draw(st.booleans()) else "\n".join(lines)


def _expected_parse_error(text: str) -> str | None:
    """The first missing parent in file order; else the record where the walk
    up from the first record that no root reaches repeats."""
    numbered = [(n, json.loads(line)) for n, line in enumerate(text.split("\n"), 1) if line.strip()]
    line_of = {entry["1.1"]: n for n, entry in numbered}
    parent_of = {entry["1.1"]: entry.get("parent") for _, entry in numbered}
    for n, entry in numbered:
        if entry.get("parent") not in (None, *line_of):
            return f"line {n}: record {entry['1.1']!r} names missing parent {entry['parent']!r}"
    for ref in parent_of:
        chain: list[str] = []
        current = ref
        while current is not None and current not in chain:
            chain.append(current)
            current = parent_of[current]
        if current is not None:
            return f"line {line_of[current]}: cyclic parentage through {current!r}"
    return None


@settings(max_examples=300, deadline=None)
@given(
    text=_forests(),
    first=st.one_of(st.none(), st.sets(st.sampled_from(_FOREST_KEYS))),
    more=st.sets(st.sampled_from(_FOREST_KEYS)),
)
def test_random_forests_refused_or_resolved_as_the_naive_walk(text, first, more):
    expected_error = _expected_parse_error(text)
    if expected_error is not None:
        with pytest.raises(CorpusError) as exc:
            parse_corpus(text)
        assert str(exc.value) == expected_error
        return
    tree = parse_corpus(text)
    assert parse_corpus(text.encode("utf-8")) == tree
    keys = DEFAULT_INHERITABLE if first is None else first
    once = resolve_inheritance(tree, first)
    _assert_matches_oracle(once, tree, keys)
    # A second resolve with a larger set fills only the keys new to it.
    _assert_matches_oracle(resolve_inheritance(once, keys | more), tree, keys | more)


def test_first_fault_in_line_order_wins_over_a_later_bad_byte():
    data = (
        _line(**{"1.1": "A"}).encode()
        + b"\n{not json\n\n\n"
        + b'{"1.1": "\xff"}\n'
    )
    with pytest.raises(CorpusError) as exc:
        parse_corpus(data)
    assert str(exc.value) == "line 2: invalid JSON (Expecting property name enclosed in double quotes)"
    assert exc.value.line == 2


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
def test_line_separator_inside_corpus_string(separator):
    title = f"Fundo{separator}documental"
    raw = json.dumps({"1.1": "A", "1.2": title}, ensure_ascii=False)
    escaped = json.dumps({"1.1": "B", "1.2": title})
    tree = parse_corpus(raw + "\r\n" + escaped + "\n")
    assert tree.record("A").elements["1.2"] == title
    assert tree.record("B").elements["1.2"] == title


# Each refusal of a record's fields: (the record on line 2, the message).  A
# record with several faults gets the first in check order: the text fields
# (parent, the elements, the scalar sub-fields, each in table order), then
# title_type, the lists of strings, dimensions and creators.
_FIELD_REFUSALS = [
    ("[]", "record must be a JSON object"),
    ('{"1.1": "B", "9.9": "x"}', "unknown element id '9.9'"),
    ('{"1.1": "B", "1.2": 7, "parent": 7}', "parent must be a reference code string"),
    ('{"1.1": "B", "title_type": 7, "1.3": 7, "1.2": 7}', "element 1.2 must be a string"),
    ('{"1.1": "B", "previous_location": [], "title_type": {}}', "field title_type must be a string"),
    ('{"1.1": "B", "supports": [], "title_type": "fancy"}',
     "title_type must be one of ['absent', 'formal', 'supplied'], got 'fancy'"),
    ('{"1.1": "B", "supports": "Paper"}', "field supports must be a list of strings"),
    ('{"1.1": "B", "dimensions": 1, "languages": ["Latin", 7]}',
     "field languages must be a list of strings"),
    ('{"1.1": "B", "creators": 1, "dimensions": {}}', "field dimensions must be a list"),
    ('{"1.1": "B", "dimensions": ["1 cm"]}', "dimension entries must be objects"),
    ('{"1.1": "B", "dimensions": [{"kind": "girth", "value": []}]}',
     "dimension kind must be dimension|extension, got 'girth'"),
    ('{"1.1": "B", "dimensions": [{"value": true, "unit": 2}]}',
     "dimension value must be text or a number"),
    ('{"1.1": "B", "dimensions": [{"value": 1, "unit": 2}]}', "dimension unit must be text"),
    ('{"1.1": "B", "creators": {}}', "field creators must be a list"),
    ('{"1.1": "B", "creators": ["Lino"]}', "creator entries must be objects"),
    ('{"1.1": "B", "creators": [{"role": 7, "name": 7}]}', "creator name must be text"),
    ('{"1.1": "B", "creators": [{"name": "Lino", "role": []}]}', "creator role must be text"),
]


@pytest.mark.parametrize("record,message", _FIELD_REFUSALS)
def test_each_field_refusal_names_its_line_and_exits_2(tmp_path, capsys, record, message):
    corpus = _line(**{"1.1": "A", "1.4": "Fonds"}) + "\n" + record + "\n"
    with pytest.raises(CorpusError) as exc:
        parse_corpus(corpus)
    assert (str(exc.value), exc.value.line) == (f"line 2: {message}", 2)
    path, out = tmp_path / "corpus.jsonl", tmp_path / "graph.nt"
    path.write_text(corpus, encoding="utf-8")
    assert main(["migrate", "--in", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: line 2: {message}\n"
    assert not out.exists()


# What each field may hold and, for records with shape faults, what it may
# not.  A null drops a field; a list's fault may sit at any depth its check reads.
_NOT_TEXT = (7, 1.5, True, [], {}, ["x"])
_TEXT_OK = ("x", "", "  ", None)
_GOOD = {
    "title_type": ("formal", "supplied", "absent", "", None),
    "supports": ([], ["Paper"], None),
    "languages": (["Latin", "Greek"], None),
    "dimensions": ([], [{"value": 3, "unit": "Gram"}], [{"kind": "extension", "value": "2 m"}],
                   [{"value": None, "unit": None}, {}], None),
    "creators": ([{"name": "N", "role": "Producer"}], [{"name": None}], [{}], None),
}
_BAD = {
    "title_type": ("fancy", " formal", *_NOT_TEXT),
    "supports": ("Paper", 3, {}, ["Paper", 7], [None]),
    "languages": ("Latin", ["Latin", []]),
    "dimensions": (1, {}, ["1 cm"], [{"kind": "girth"}], [{"kind": []}], [{"value": True}],
                   [{"value": []}], [{"unit": 2}], [{"value": 1}, {"unit": []}]),
    "creators": ({}, "N", ["N"], [{"name": 7}], [{"role": []}], [{"name": "N", "role": 1}]),
}
_TEXT_KEYS = ("1.2", "1.3", "1.4", "2.2", "3.1", "5.4", "7.3", "production_date_end",
              "physical_location", "description_last_modification")
_UNKNOWN_KEYS = ("9.9", "1.10", "Parent", "")

# The 26 element ids by area (5, 4, 4, 5, 4, 1 and 3 elements), in order.
_ELEMENT_IDS = [f"{area}.{n}" for area, size in enumerate((5, 4, 4, 5, 4, 1, 3), 1)
                for n in range(1, size + 1)]
_TEXT_ORDER = (
    ("parent", "parent must be a reference code string"),
    *((key, f"element {key} must be a string") for key in _ELEMENT_IDS),
    *((key, f"field {key} must be a string") for key in SCALAR_SUBFIELDS),
)
_ALLOWED = {key for key, _ in _TEXT_ORDER} | set(_GOOD)


def _first_refusal(entry: dict) -> str | None:
    """A record's first shape fault, looked up field by field in the fixed
    order: unknown keys in line order, the text fields, the title type's
    value, supports and languages, dimensions, then creators."""
    for key in entry:
        if key not in _ALLOWED:
            return f"unknown element id {key!r}"
    for key, refusal in _TEXT_ORDER:
        if entry.get(key) is not None and not isinstance(entry[key], str):
            return refusal
    if entry.get("title_type") and entry["title_type"] not in ("formal", "supplied", "absent"):
        return ("title_type must be one of ['absent', 'formal', 'supplied'], "
                f"got {entry['title_type']!r}")
    for key in ("supports", "languages"):
        items = entry.get(key)
        if items is not None and not (
            isinstance(items, list) and all(isinstance(i, str) for i in items)
        ):
            return f"field {key} must be a list of strings"
    if entry.get("dimensions") is not None:
        if not isinstance(entry["dimensions"], list):
            return "field dimensions must be a list"
        for item in entry["dimensions"]:
            if not isinstance(item, dict):
                return "dimension entries must be objects"
            if item.get("kind", "dimension") not in ("dimension", "extension"):
                return f"dimension kind must be dimension|extension, got {item['kind']!r}"
            if item.get("value") is not None and type(item["value"]) not in (str, int, float):
                return "dimension value must be text or a number"
            if item.get("unit") is not None and not isinstance(item["unit"], str):
                return "dimension unit must be text"
    if entry.get("creators") is not None:
        if not isinstance(entry["creators"], list):
            return "field creators must be a list"
        for item in entry["creators"]:
            if not isinstance(item, dict):
                return "creator entries must be objects"
            for key in ("name", "role"):
                if item.get(key) is not None and not isinstance(item[key], str):
                    return f"creator {key} must be text"
    return None


@st.composite
def _faulty_corpora(draw) -> list[dict]:
    """1-6 records, each linked to an earlier one or to none, with valid
    fields, nulls and 0-3 faulty fields, all keys in random order."""
    entries = []
    for index in range(draw(st.integers(1, 6))):
        entry = {"1.1": f"R{index}"}
        for key in draw(st.sets(st.sampled_from((*_TEXT_KEYS, *_GOOD)), max_size=5)):
            entry[key] = draw(st.sampled_from(_GOOD.get(key, _TEXT_OK)))
        links = [f" R{i} " for i in range(index)]
        parent = draw(st.sampled_from([None, "", "  ", "no link", *links]))
        if parent != "no link":
            entry["parent"] = parent
        for _ in range(draw(st.integers(0, 3))):
            fault = draw(st.sampled_from(("unknown", "parent", "text", *_BAD)))
            if fault == "unknown":
                entry[draw(st.sampled_from(_UNKNOWN_KEYS))] = "x"
            elif fault in ("parent", "text"):
                key = "parent" if fault == "parent" else draw(st.sampled_from(_TEXT_KEYS))
                entry[key] = draw(st.sampled_from(_NOT_TEXT))
            else:
                entry[fault] = draw(st.sampled_from(_BAD[fault]))
        entries.append({key: entry[key] for key in draw(st.permutations(list(entry)))})
    return entries


@settings(max_examples=400, deadline=None)
@given(entries=_faulty_corpora(), as_bytes=st.booleans())
def test_faulty_records_are_refused_or_parsed_as_the_field_by_field_walk(entries, as_bytes):
    text = "\n".join(map(json.dumps, entries))
    data = text.encode("utf-8") if as_bytes else text
    refusals = [(n, r) for n, r in enumerate(map(_first_refusal, entries), 1) if r is not None]
    if refusals:
        line, refusal = refusals[0]
        with pytest.raises(CorpusError) as exc:
            parse_corpus(data)
        assert (str(exc.value), exc.value.line) == (f"line {line}: {refusal}", line)
        return
    tree = parse_corpus(data)
    assert [(ref, record.parent_reference, list(record.elements.items()))
            for ref, record in tree.records.items()] == [
        (entry["1.1"], (entry.get("parent") or "").strip() or None,
         [(key, value) for key, value in entry.items() if key != "parent" and value is not None])
        for entry in entries
    ]


_SURROGATE_REFUSALS = {
    "escaped in text": ('"1.2": "bad \\ud800 title"', "1.2"),
    "escaped in a key": ('"\\udfff": "x"', "\udfff"),
    "escaped in a creator": ('"creators": [{"name": "N \\udc00"}]', "creators"),
    "raw in text": ('"1.2": "bad \ud800 title"', "1.2"),
    "raw in a dimension": ('"dimensions": [{"unit": "\udfff"}]', "dimensions"),
}


@pytest.mark.parametrize("case", sorted(_SURROGATE_REFUSALS))
@pytest.mark.parametrize("as_bytes", [False, True])
def test_lone_surrogate_is_refused_in_str_and_bytes(case, as_bytes):
    field, element = _SURROGATE_REFUSALS[case]
    text = '{"1.1": "A"}\n{"1.1": "B", ' + field + "}\n"
    if as_bytes:  # a raw surrogate has no UTF-8 form: its bytes are refused first
        data = text.encode("utf-8", "surrogatepass")
        if case.startswith("raw"):
            element = None
    with pytest.raises(CorpusError) as exc:
        parse_corpus(data if as_bytes else text)
    message = (f"element {element!r} holds a lone surrogate" if element is not None
               else "invalid UTF-8 byte 0xED")
    assert (str(exc.value), exc.value.line) == (f"line 2: {message}", 2)


@pytest.mark.parametrize("data", ['{"1.1": "A", "1.2": "\\ud83d\\udcdc scroll"}',
                                  b'{"1.1": "A", "1.2": "\\ud83d\\udcdc scroll"}'])
def test_escaped_surrogate_pair_is_one_character(data):
    assert parse_corpus(data).record("A").elements["1.2"] == "\U0001F4DC scroll"


def _per_key_inheritance(tree: RecordTree, keys) -> dict[str, IsadRecord]:
    """The per-key walk: every record tests every inheritable key, in sorted
    order, against its own value and then its resolved parent's."""
    resolved: dict[str, IsadRecord] = {}
    stack = [(ref, None) for ref in tree.roots]
    while stack:
        reference, parent = stack.pop()
        record = tree.records[reference]
        elements, provenance = dict(record.elements), dict(record.provenance)
        for key in sorted(keys):
            if key in provenance:
                continue
            if not is_blank(elements.get(key)):
                provenance[key] = Provenance()
            elif parent is not None and not is_blank(parent.elements.get(key)):
                elements[key] = parent.elements[key]
                provenance[key] = Provenance(parent.provenance[key].source or parent.reference_code)
        record = resolved[reference] = IsadRecord(
            record.reference_code, record.parent_reference, elements, provenance
        )
        stack.extend((child, record) for child in tree.children[reference])
    return {ref: resolved[ref] for ref in tree.records}


# Inheritable keys of every kind: elements, a scalar subfield, list subfields.
_INHERITED_KEYS = ("1.2", "1.4", "2.2", "3.1", "4.3", "physical_location", "languages",
                   "supports", "dimensions", "creators")
_LIST_VALUES = {
    "languages": ([], ["Latin"], ["  "], ["Latin", "Portuguese"]),
    "supports": ([], ["Paper"]),
    "dimensions": ([], [{"value": 3, "unit": "Gram"}]),
    "creators": ([], [{"name": "N"}]),
}
_SCALAR_VALUES = ("value", "   ", "", "\t")


@st.composite
def _inheritance_forests(draw) -> RecordTree:
    """1-12 records, each linked to an earlier one or to none, holding blank,
    whitespace-only, empty-list and non-blank values in random key order."""
    lines = []
    for index in range(draw(st.integers(1, 12))):
        entry: dict = {"1.1": f"R{index}"}
        parent = draw(st.sampled_from([None, *range(index)]))
        if parent is not None:
            entry["parent"] = f"R{parent}"
        for key in draw(st.permutations(_INHERITED_KEYS))[: draw(st.integers(0, 6))]:
            value = draw(st.sampled_from(_LIST_VALUES.get(key, _SCALAR_VALUES)))
            entry[key] = value + f" {index}" if value == "value" else value
        lines.append(json.dumps(entry))
    return parse_corpus("\n".join(lines))


def _ordered(tree_records: dict[str, IsadRecord]) -> list:
    return [(ref, list(r.elements.items()), list(r.provenance.items()))
            for ref, r in tree_records.items()]


@settings(max_examples=300, deadline=None)
@given(
    tree=_inheritance_forests(),
    first=st.sets(st.sampled_from(_INHERITED_KEYS)),
    second=st.sets(st.sampled_from(_INHERITED_KEYS)),
)
def test_inheritance_equals_the_per_key_walk_key_order_included(tree, first, second):
    once = resolve_inheritance(tree, first)
    assert _ordered(once.records) == _ordered(_per_key_inheritance(tree, first))
    # Re-resolving with another set keeps what the first set recorded.
    twice = resolve_inheritance(once, second)
    assert _ordered(twice.records) == _ordered(_per_key_inheritance(once, second))
    assert _ordered(resolve_inheritance(once, first).records) == _ordered(once.records)


@settings(max_examples=200, deadline=None)
@given(tree=_inheritance_forests(), keys=st.sets(st.sampled_from(_INHERITED_KEYS)))
def test_inheritance_leaves_its_input_alone_and_copies_what_it_fills(tree, keys):
    before = copy.deepcopy(tree)
    resolved = resolve_inheritance(tree, keys)
    assert _ordered(tree.records) == _ordered(before.records)
    assert (tree.children, tree.roots) == (before.children, before.roots)
    for reference, record in resolved.records.items():
        if any(source.inherited for source in record.provenance.values()):
            assert record.elements is not tree.records[reference].elements
