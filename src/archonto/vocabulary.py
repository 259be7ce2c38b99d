"""Controlled vocabularies and the level-of-description nesting graph.

Term matching is exact and case-sensitive after whitespace trim: archival
vocabularies are authority-controlled, and a normalising matcher would mask
data errors the validator exists to surface.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator, Mapping
from functools import lru_cache

from . import utf8


class VocabularyError(utf8.LineError):
    """Raised for malformed vocabulary or nesting input."""


class UnknownLevelError(ValueError):
    def __init__(self, term: str) -> None:
        super().__init__(f"unknown level of description: {term!r}")
        self.term = term


class VocabularyRegistry:
    """Each bound class id's admissible terms, in table or file order, as the
    keys of a dict: the order and a hash lookup in one; immutable after load."""

    def __init__(self, vocabularies: Mapping[str, Collection[str]]) -> None:
        self._by_class: dict[str, dict[str, None]] = {}
        for class_id, terms in vocabularies.items():
            bucket = self._by_class[class_id] = {}
            for term in terms:
                if not term or term != term.strip():
                    raise VocabularyError(
                        f"vocabulary {class_id!r}: term {term!r} must be non-empty and trimmed"
                    )
                if term in bucket:
                    raise VocabularyError(f"vocabulary {class_id!r}: duplicate term {term!r}")
                bucket[term] = None

    def vocabulary(self, class_id: str) -> tuple[str, ...] | None:
        terms = self._by_class.get(class_id)
        return None if terms is None else tuple(terms)

    @property
    def class_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_class))

    def contains(self, class_id: str, term: str) -> bool | None:
        """Exact membership test; ``None`` means the class is unconstrained."""
        terms = self._by_class.get(class_id)
        if terms is None:
            return None
        return term.strip() in terms


# Table-derived vocabularies, each named in its comment.  ARE1 additionally
# carries the level terms the sample hierarchy uses (Subfonds, Serie,
# Installation Unit); ARE5 carries the identifier-type literals the migration
# rules assign; ARE6 carries the two description-date types alongside the
# period-type terms.
_BUILTIN_VOCABULARIES = {
    "ARE1": (  # Level of description
        "Fonds",
        "Series",
        "Section",
        "File",
        "Item",
        "Subfonds",
        "Serie",
        "Installation Unit",
    ),
    "ARE2": ("Formal", "Supplied"),  # Title Type
    "ARE3": ("Formal", "Supplied"),  # Title Type
    "ARE5": (  # Identifier of collective person/group
        "PT",
        "VCT",
        "AGH01",
        "161016",
        "ADLSB",
        "600084892",
        "PT-LiBN",
        "Reference Code",
        "Physical Location",
        "Original Numbering",
        "Previous Location",
    ),
    "ARE6": (  # Type of time period
        "Exact dates",
        "Inferred dates",
        "Predominant dates",
        "Creation Date",
        "Last Modification",
    ),
    "ARE7": (  # Type of name of collective person/group
        "Authorized form of name",
        "Another form of the name",
        "Parallel name form",
    ),
    "ARE8": ("Producer", "Material Author", "Recipient"),  # Role played
    "ARE9": ("Exact dates", "Inferred dates", "Predominant dates"),  # Type of time period
    "ARE11": ("Certificate", "Income book", "Patent"),  # Documentary Typology
    "ARE13": ("Education", "Science", "Law", "Management"),  # Subject
    # Type of jurisdictional entity
    "ARE14": ("Ocean", "Archipelago", "Mountain range", "Country", "District"),
    "ARE15": (  # Transfer of Custody / Acquisition Identifier
        "Purchase",
        "Giving",
        "Donation",
        "Deposit",
        "Swap",
        "Legacy",
        "Reintegration",
        "Transfer",
    ),
    "ARE16": ("Evaluation", "Expertise", "Financial management"),  # Event Type
    "E56": ("Portuguese", "Latin", "French", "Greek"),  # Language Identifier
    "E57": ("Paper", "Parchment", "Photosensitive film"),  # Support
    "E58": ("Centimeter", "Gram", "Byte", "Minute", "Pack"),  # Measurement Unit
    "E98": ("Euro", "Dollar", "Kwanza"),  # Currency
}

LEVEL_CLASS = "ARE1"

# Admissible nesting realised in the sample hierarchy, parent -> children.
_DEFAULT_NESTING = (
    ("Fonds", ("Subfonds", "Section", "Serie")),
    ("Subfonds", ("Serie",)),
    ("Section", ("Serie", "File")),
    ("Serie", ("Installation Unit", "File", "Item")),
    ("Installation Unit", ("File", "Item")),
    ("File", ("Item",)),
)


class LevelNestingGraph:
    """Which levels of description may nest inside which.

    Stored as upper edges ``(lower, upper)``; the lower-edge view is the
    derived inverse.  ``allows`` answers over the transitive closure, so a
    unit may sit under an ancestor level even when intermediate levels are
    not described.
    """

    def __init__(
        self, upper_edges: frozenset[tuple[str, str]], terms: frozenset[str]
    ) -> None:
        for lower, upper in sorted(upper_edges):
            if lower not in terms or upper not in terms:
                missing = lower if lower not in terms else upper
                raise VocabularyError(
                    f"nesting edge ({lower!r}, {upper!r}) uses term {missing!r} "
                    "outside the level-of-description vocabulary"
                )
        self.upper_edges = upper_edges
        self.terms = terms
        self._uppers = self._closure(upper_edges)

    @staticmethod
    def _closure(edges: frozenset[tuple[str, str]]) -> dict[str, frozenset[str]]:
        direct: dict[str, set[str]] = {}
        for lower, upper in edges:
            direct.setdefault(lower, set()).add(upper)
        closed: dict[str, frozenset[str]] = {}
        for start in direct:
            reached: set[str] = set()
            stack = list(direct[start])
            while stack:
                node = stack.pop()
                if node in reached:
                    continue
                reached.add(node)
                stack.extend(direct.get(node, ()))
            closed[start] = frozenset(reached)
        return closed

    def allows(self, parent_level: str, child_level: str) -> bool:
        """True iff a child-level unit may nest (transitively) under parent_level."""
        for level in (parent_level, child_level):
            if level not in self.terms:
                raise UnknownLevelError(level)
        return parent_level in self._uppers.get(child_level, ())


def builtin_vocabularies() -> VocabularyRegistry:
    return VocabularyRegistry(_BUILTIN_VOCABULARIES)


@lru_cache(maxsize=1)
def builtin_nesting() -> LevelNestingGraph:
    edges = frozenset(
        (child, parent) for parent, children in _DEFAULT_NESTING for child in children
    )
    terms = frozenset(_BUILTIN_VOCABULARIES[LEVEL_CLASS])
    return LevelNestingGraph(edges, terms)


def _field_pairs(data: bytes | str, shape: str) -> Iterator[tuple[int, str, str]]:
    """The two trimmed tab-separated fields of each line not blank or a comment."""
    for number, raw in utf8.lines(data, VocabularyError):
        line = raw.strip()
        if line and not line.startswith("#"):
            parts = line.split("\t")
            if len(parts) != 2:
                raise VocabularyError(f"expected {shape}", line=number)
            yield number, parts[0].strip(), parts[1].strip()


def load_vocabularies(data: bytes | str) -> VocabularyRegistry:
    """Parse ``CLASS_ID<TAB>TERM`` lines into a registry.

    An empty file yields an empty registry, making membership checks vacuous.
    """
    # Each class's terms as the keys of a dict: file order and a hash lookup.
    terms_by_class: dict[str, dict[str, None]] = {}
    for number, class_id, term in _field_pairs(data, "CLASS_ID<TAB>TERM"):
        bucket = terms_by_class.setdefault(class_id, {})
        if term in bucket:
            raise VocabularyError(
                f"duplicate term {term!r} for class {class_id}", line=number
            )
        bucket[term] = None
    return VocabularyRegistry(terms_by_class)


def load_nesting(data: bytes | str, registry: VocabularyRegistry) -> LevelNestingGraph:
    """Parse ``UPPER_LEVEL<TAB>LOWER_LEVEL`` lines against the ARE1 vocabulary."""
    vocab = registry.vocabulary(LEVEL_CLASS)
    if vocab is None:
        raise VocabularyError("registry has no level-of-description vocabulary")
    edges = set()
    for number, upper, lower in _field_pairs(data, "UPPER_LEVEL<TAB>LOWER_LEVEL"):
        for term in (upper, lower):
            if not registry.contains(LEVEL_CLASS, term):
                raise VocabularyError(
                    f"level {term!r} not in the {LEVEL_CLASS} vocabulary", line=number
                )
        edges.add((lower, upper))
    return LevelNestingGraph(frozenset(edges), frozenset(vocab))
