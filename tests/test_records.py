"""Corpus parsing, forest invariants and multilevel inheritance."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archonto.records import (
    CorpusError,
    DEFAULT_INHERITABLE,
    Provenance,
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
