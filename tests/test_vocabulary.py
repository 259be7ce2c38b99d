"""Vocabulary membership, file loading and level nesting."""

import itertools

import pytest

from archonto.cli import main
from archonto.vocabulary import (
    LEVEL_CLASS,
    UnknownLevelError,
    VocabularyError,
    VocabularyRegistry,
    builtin_nesting,
    builtin_vocabularies,
    load_nesting,
    load_vocabularies,
)


@pytest.fixture(scope="module")
def registry():
    return builtin_vocabularies()


@pytest.fixture(scope="module")
def nesting():
    return builtin_nesting()


def test_builtin_level_terms(registry):
    vocab = registry.vocabulary("ARE1")
    for term in ("Fonds", "Series", "Section", "File", "Item"):
        assert term in vocab
    # the sample hierarchy uses these as levels too
    for term in ("Subfonds", "Serie", "Installation Unit"):
        assert term in vocab


def test_builtin_material_terms(registry):
    assert registry.contains("E57", "Paper") is True
    assert registry.contains("E57", "Parchment") is True


@pytest.mark.parametrize(
    "class_id,term,expected",
    [
        ("ARE8", "Producer", True),
        ("ARE8", "producer", False),
        ("ARE8", " Producer ", True),  # trimmed before matching
        ("E31", "anything", None),
        ("ARE6", "Creation Date", True),
        ("ARE6", "Last Modification", True),
        ("ARE6", "Exact dates", True),
        ("ARE9", "Creation Date", False),
        ("ARE5", "Reference Code", True),
        ("ARE5", "PT-LiBN", True),
        ("E98", "Kwanza", True),
    ],
)
def test_contains(registry, class_id, term, expected):
    assert registry.contains(class_id, term) is expected


def test_every_table_class_has_vocabulary(registry):
    for class_id in (
        "ARE1", "ARE2", "ARE3", "ARE5", "ARE6", "ARE7", "ARE8",
        "ARE11", "ARE13", "ARE14", "ARE15", "ARE16",
        "E56", "E57", "E58", "E98",
    ):
        assert registry.vocabulary(class_id) is not None


def test_empty_file_gives_empty_registry():
    registry = load_vocabularies(b"")
    assert registry.class_ids == ()
    assert registry.contains("ARE1", "Fonds") is None


def test_file_loading_and_comments():
    registry = load_vocabularies("# heading\nARE1\tFonds\nARE1\tItem\nE57\tVellum\n")
    assert registry.contains("ARE1", "Fonds") is True
    assert registry.contains("E57", "Vellum") is True
    assert registry.contains("E57", "Paper") is False


def test_file_parse_error_has_line_number():
    with pytest.raises(VocabularyError) as exc:
        load_vocabularies("ARE1\tFonds\nbroken line\n")
    assert exc.value.line == 2


def test_duplicate_term_rejected():
    with pytest.raises(VocabularyError) as exc:
        load_vocabularies("ARE1\tFonds\nARE1\tFonds\n")
    assert "duplicate" in str(exc.value)


@pytest.mark.parametrize(
    "parent,child,expected",
    [
        ("Fonds", "Section", True),
        ("Item", "Fonds", False),
        ("Fonds", "Fonds", False),
        ("Section", "File", True),
        ("Serie", "Item", True),
        ("File", "Item", True),
        ("Fonds", "File", True),  # transitive: Fonds > Section > File
        ("Fonds", "Item", True),
        ("File", "Serie", False),
    ],
)
def test_nesting_allows(nesting, parent, child, expected):
    assert nesting.allows(parent, child) is expected


def test_nesting_unknown_level(nesting):
    with pytest.raises(UnknownLevelError):
        nesting.allows("Fonds", "Bogus")
    with pytest.raises(UnknownLevelError):
        nesting.allows("Bogus", "Item")


def test_allows_agrees_with_lower_edge_closure(nesting):
    # independent recomputation through the inverse edge set
    from collections import defaultdict

    downward = defaultdict(set)
    for lower, upper in nesting.upper_edges:
        downward[upper].add(lower)

    def reachable_down(term):
        seen, stack = set(), [term]
        while stack:
            node = stack.pop()
            for nxt in downward.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    for parent in sorted(nesting.terms):
        down = reachable_down(parent)
        for child in sorted(nesting.terms):
            assert nesting.allows(parent, child) is (child in down)


def test_level_vocabulary_terms_are_nesting_nodes(registry, nesting):
    for term in registry.vocabulary(LEVEL_CLASS):
        assert term in nesting.terms


def test_nesting_file_loading(registry):
    graph = load_nesting("Fonds\tItem\n# comment\nSerie\tItem\n", registry)
    assert graph.allows("Fonds", "Item") is True
    assert graph.allows("Fonds", "Section") is False


def test_nesting_file_rejects_unknown_level(registry):
    with pytest.raises(VocabularyError) as exc:
        load_nesting("Fonds\tShelf\n", registry)
    assert exc.value.line == 1


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
def test_line_separator_inside_term(separator):
    registry = load_vocabularies(f"E57\tVellum{separator}sheet\r\nE57\tPaper\n")
    assert registry.contains("E57", f"Vellum{separator}sheet") is True
    assert registry.contains("E57", "Paper") is True


@pytest.mark.parametrize("loader", ["vocabulary", "nesting"])
def test_first_fault_in_line_order_wins_over_a_later_bad_byte(registry, loader):
    data = b"ARE1\tFonds\nbroken line\n\n# comment\nARE1\t\xffFonds\n"
    with pytest.raises(VocabularyError) as exc:
        if loader == "vocabulary":
            load_vocabularies(data)
        else:
            load_nesting(data.replace(b"ARE1\tFonds", b"Fonds\tSerie"), registry)
    assert exc.value.line == 2
    assert str(exc.value).startswith("line 2: expected ")


@pytest.mark.parametrize(
    "terms,message",
    [
        (("Fonds", ""), "vocabulary 'ARE1': term '' must be non-empty and trimmed"),
        (("Fonds ",), "vocabulary 'ARE1': term 'Fonds ' must be non-empty and trimmed"),
        (("Fonds", "Serie", "Fonds"), "vocabulary 'ARE1': duplicate term 'Fonds'"),
    ],
)
def test_registry_refuses_empty_untrimmed_or_duplicate_terms(terms, message):
    with pytest.raises(VocabularyError) as exc:
        VocabularyRegistry({"E57": ("Paper",), "ARE1": terms})
    assert str(exc.value) == message


def test_registry_holds_each_vocabulary_as_its_terms_in_order():
    registry = load_vocabularies("E57\tVellum\nARE1\tSerie\nE57\tPaper\n")
    assert registry.vocabulary("E57") == ("Vellum", "Paper")
    assert registry.vocabulary("ARE1") == ("Serie",)
    assert registry.vocabulary("E56") is None


def test_no_vocabulary_line_has_a_blank_class_id_or_term():
    # Each line is trimmed before it is cut at its tab, so neither field can
    # be blank: every short line of these characters (whitespace that str.strip
    # removes among them) is loaded or refused for its shape.
    alphabet = ("a", "#", "\t", " ", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u3000")
    for length in range(1, 5):
        for line in map("".join, itertools.product(alphabet, repeat=length)):
            try:
                registry = load_vocabularies(line)
            except VocabularyError as exc:
                assert str(exc) == "line 1: expected CLASS_ID<TAB>TERM"
                continue
            for class_id in registry.class_ids:
                assert class_id.strip() and all(term.strip() for term in registry.vocabulary(class_id))


# Each refusal of a vocabulary (--vocab) or nesting (--nesting) file: (the
# vocabulary file or None for the built-in one, the nesting file, message).
_FILE_REFUSALS = [
    ("ARE1\tFonds\nARE1 Serie\n", None, "line 2: expected CLASS_ID<TAB>TERM"),
    ("ARE1\tFonds\nARE1\tSerie\tFile\n", None, "line 2: expected CLASS_ID<TAB>TERM"),
    ("ARE1\tFonds\nARE1\tFonds\n", None, "line 2: duplicate term 'Fonds' for class ARE1"),
    ("E57\tPaper\n", "Fonds\tSerie\n", "registry has no level-of-description vocabulary"),
    (
        "ARE1\tFonds\nARE1\tSerie\n",
        "Fonds\tSerie\nFonds Serie\n",
        "line 2: expected UPPER_LEVEL<TAB>LOWER_LEVEL",
    ),
    (
        "ARE1\tFonds\nARE1\tSerie\n",
        "Fonds\tSerie\nFonds\tItem\n",
        "line 2: level 'Item' not in the ARE1 vocabulary",
    ),
    (None, "# levels\nBogus\tItem\n", "line 2: level 'Bogus' not in the ARE1 vocabulary"),
]


@pytest.mark.parametrize("vocab,nesting,message", _FILE_REFUSALS)
def test_each_file_refusal_names_its_line_and_exits_2(tmp_path, capsys, vocab, nesting, message):
    with pytest.raises(VocabularyError) as exc:
        registry = builtin_vocabularies() if vocab is None else load_vocabularies(vocab)
        if nesting is not None:
            load_nesting(nesting, registry)
    assert str(exc.value) == message
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "graph.nt"
    corpus.write_text('{"1.1": "A", "1.4": "Fonds"}\n', encoding="utf-8")
    argv = ["migrate", "--in", str(corpus), "--out", str(out)]
    for option, text in (("--vocab", vocab), ("--nesting", nesting)):
        if text is not None:
            (tmp_path / option[2:]).write_text(text, encoding="utf-8")
            argv += [option, str(tmp_path / option[2:])]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
