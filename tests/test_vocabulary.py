"""Vocabulary membership, file loading and level nesting."""

import pytest

from archonto.vocabulary import (
    LEVEL_CLASS,
    UnknownLevelError,
    VocabularyError,
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
        assert registry.has(class_id)


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


def test_nesting_symmetry(nesting):
    assert nesting.lower_edges == frozenset(
        (upper, lower) for lower, upper in nesting.upper_edges
    )


def test_allows_agrees_with_lower_edge_closure(nesting):
    # independent recomputation through the inverse edge set
    from collections import defaultdict

    downward = defaultdict(set)
    for upper, lower in nesting.lower_edges:
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
    for term in registry.vocabulary(LEVEL_CLASS).terms:
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
