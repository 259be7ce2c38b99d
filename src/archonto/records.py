"""ISAD(G) corpus input: parsing, hierarchy checks, multilevel inheritance.

The corpus format is JSON Lines: one description unit per line, keyed by the
standard element identifiers ("1.1" .. "7.3") plus the atomised sub-fields
the migration rules consume.  Parent linkage is the explicit ``parent``
field; reference-code prefixes are never interpreted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import utf8

# The 26 description elements, by area.
ELEMENT_NAMES = {
    "1.1": "Reference code",
    "1.2": "Title",
    "1.3": "Dates",
    "1.4": "Level of description",
    "1.5": "Extent and medium",
    "2.1": "Name of creator",
    "2.2": "Administrative/biographical history",
    "2.3": "Archival history",
    "2.4": "Immediate source of acquisition or transfer",
    "3.1": "Scope and content",
    "3.2": "Appraisal, destruction and scheduling",
    "3.3": "Accruals",
    "3.4": "System of arrangement",
    "4.1": "Conditions governing access",
    "4.2": "Conditions governing reproduction",
    "4.3": "Language/scripts of material",
    "4.4": "Physical characteristics and technical requirements",
    "4.5": "Finding aids",
    "5.1": "Existence and location of originals",
    "5.2": "Existence and location of copies",
    "5.3": "Related units of description",
    "5.4": "Publication note",
    "6.1": "Note",
    "7.1": "Archivist's note",
    "7.2": "Rules or conventions",
    "7.3": "Date of description",
}

# Atomised sub-fields carrying rule-ready values.
SCALAR_SUBFIELDS = frozenset(
    {
        "title_type",
        "production_date_start",
        "production_date_end",
        "production_date_single",
        "physical_location",
        "original_numbering",
        "previous_location",
        "description_creation_date",
        "description_last_modification",
    }
)
LIST_SUBFIELDS = frozenset({"dimensions", "supports", "languages", "creators"})
PARENT_FIELD = "parent"

ALLOWED_FIELDS = (
    frozenset(ELEMENT_NAMES) | SCALAR_SUBFIELDS | LIST_SUBFIELDS | {PARENT_FIELD}
)

TITLE_TYPES = frozenset({"formal", "supplied", "absent"})
DIMENSION_KINDS = frozenset({"dimension", "extension"})

# Context, content/structure, access/use and allied-materials areas: the
# areas the non-repetition principle targets.
DEFAULT_INHERITABLE = frozenset(
    {
        "2.2", "2.3", "2.4",
        "3.1", "3.2", "3.3", "3.4",
        "4.1", "4.2", "4.3", "4.4", "4.5",
        "5.1", "5.2", "5.3", "5.4",
    }
)


class CorpusError(ValueError):
    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Provenance:
    """Where a resolved element value came from; ``source`` is None for own values."""

    source: str | None = None

    @property
    def inherited(self) -> bool:
        return self.source is not None


def is_blank(value: object) -> bool:
    if value is None:
        return True
    if isinstance(value, str):
        return not value.strip()
    if isinstance(value, (list, tuple)):
        return len(value) == 0
    return False


@dataclass(frozen=True)
class IsadRecord:
    """One unit of description with its element values."""

    reference_code: str
    parent_reference: str | None = None
    elements: dict[str, object] = field(default_factory=dict)
    provenance: dict[str, Provenance] = field(default_factory=dict)

    def value(self, key: str) -> object:
        return self.elements.get(key)

    def text(self, key: str) -> str:
        value = self.elements.get(key)
        return value.strip() if isinstance(value, str) else ""


@dataclass(frozen=True)
class RecordTree:
    """Forest of description units keyed by reference code."""

    records: dict[str, IsadRecord]
    children: dict[str, tuple[str, ...]]
    roots: tuple[str, ...]

    def record(self, reference: str) -> IsadRecord:
        return self.records[reference]

    def __len__(self) -> int:
        return len(self.records)


def _check_entry(obj: dict, line: int) -> None:
    for key in obj:
        if key not in ALLOWED_FIELDS:
            raise CorpusError(f"unknown element id {key!r}", line)
    parent = obj.get(PARENT_FIELD)
    if parent is not None and not isinstance(parent, str):
        raise CorpusError("parent must be a reference code string", line)
    for key in ELEMENT_NAMES:
        if key in obj and obj[key] is not None and not isinstance(obj[key], str):
            raise CorpusError(f"element {key} must be a string", line)
    for key in SCALAR_SUBFIELDS:
        if key in obj and obj[key] is not None and not isinstance(obj[key], str):
            raise CorpusError(f"field {key} must be a string", line)
    title_type = obj.get("title_type")
    if title_type and title_type not in TITLE_TYPES:
        raise CorpusError(
            f"title_type must be one of {sorted(TITLE_TYPES)}, got {title_type!r}", line
        )
    for key in ("supports", "languages"):
        items = obj.get(key)
        if items is None:
            continue
        if not isinstance(items, list) or any(not isinstance(i, str) for i in items):
            raise CorpusError(f"field {key} must be a list of strings", line)
    dimensions = obj.get("dimensions")
    if dimensions is not None:
        if not isinstance(dimensions, list):
            raise CorpusError("field dimensions must be a list", line)
        for entry in dimensions:
            if not isinstance(entry, dict):
                raise CorpusError("dimension entries must be objects", line)
            kind = entry.get("kind", "dimension")
            if kind not in DIMENSION_KINDS:
                raise CorpusError(f"dimension kind must be dimension|extension, got {kind!r}", line)
            value = entry.get("value")
            if value is not None and not isinstance(value, (str, int, float)):
                raise CorpusError("dimension value must be text or a number", line)
            unit = entry.get("unit")
            if unit is not None and not isinstance(unit, str):
                raise CorpusError("dimension unit must be text", line)
    creators = obj.get("creators")
    if creators is not None:
        if not isinstance(creators, list):
            raise CorpusError("field creators must be a list", line)
        for entry in creators:
            if not isinstance(entry, dict):
                raise CorpusError("creator entries must be objects", line)
            for key in ("name", "role"):
                if key in entry and entry[key] is not None and not isinstance(entry[key], str):
                    raise CorpusError(f"creator {key} must be text", line)


def parse_corpus(data: bytes | str) -> RecordTree:
    """Parse a JSON Lines corpus into a validated record forest."""
    records: dict[str, IsadRecord] = {}
    lines_by_ref: dict[str, int] = {}
    for number, raw in utf8.lines(data, CorpusError):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"invalid JSON ({exc.msg})", number) from None
        if not isinstance(obj, dict):
            raise CorpusError("record must be a JSON object", number)
        _check_entry(obj, number)
        reference = (obj.get("1.1") or "").strip()
        if not reference:
            raise CorpusError("element 1.1 (reference code) is required", number)
        if reference in records:
            raise CorpusError(f"duplicate reference code {reference!r}", number)
        parent = obj.get(PARENT_FIELD)
        parent = parent.strip() if isinstance(parent, str) and parent.strip() else None
        elements = {k: v for k, v in obj.items() if k != PARENT_FIELD and v is not None}
        records[reference] = IsadRecord(reference, parent, elements)
        lines_by_ref[reference] = number

    children: dict[str, list[str]] = {ref: [] for ref in records}
    roots = []
    for reference, record in records.items():
        parent = record.parent_reference
        if parent is None:
            roots.append(reference)
        elif parent in children:
            children[parent].append(reference)
        else:
            raise CorpusError(
                f"record {reference!r} names missing parent {parent!r}",
                lines_by_ref[reference],
            )
    # Every record no root reaches lies on a cycle or below one; the walk up
    # from the first of them in file order repeats a record of that cycle.
    reached = list(roots)
    for reference in reached:  # grows while it is read: a top-down walk
        reached.extend(children[reference])
    if len(reached) < len(records):
        reachable = set(reached)
        current = next(ref for ref in records if ref not in reachable)
        walked = set()
        while current not in walked:
            walked.add(current)
            current = records[current].parent_reference
        raise CorpusError(f"cyclic parentage through {current!r}", lines_by_ref[current])
    return RecordTree(
        records,
        {ref: tuple(kids) for ref, kids in children.items()},
        tuple(roots),
    )


def resolve_inheritance(
    tree: RecordTree, inheritable: frozenset[str] | set[str] | None = None
) -> RecordTree:
    """Fill blank inheritable elements from the nearest ancestor.

    Own (non-blank) values are never overwritten; each resolved element gets a
    provenance flag.  The operation is idempotent: elements whose provenance
    is already recorded are left untouched.  One top-down walk resolves each
    record after its parent, whose resolved value is the nearest ancestor's.
    """
    keys = frozenset(DEFAULT_INHERITABLE if inheritable is None else inheritable)
    if "1.1" in keys:
        raise CorpusError("element 1.1 (reference code) is per-unit and can never inherit")
    unknown = sorted(keys - (ALLOWED_FIELDS - {PARENT_FIELD}))
    if unknown:
        raise CorpusError(f"cannot inherit unknown element id {', '.join(map(repr, unknown))}")
    ordered_keys = sorted(keys)
    resolved: dict[str, IsadRecord] = {}
    stack: list[tuple[str, IsadRecord | None]] = [(ref, None) for ref in tree.roots]
    while stack:
        reference, parent = stack.pop()
        record = tree.records[reference]
        elements = dict(record.elements)
        provenance = dict(record.provenance)
        for key in ordered_keys:
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
    return RecordTree({ref: resolved[ref] for ref in tree.records}, dict(tree.children), tree.roots)
