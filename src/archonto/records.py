"""ISAD(G) corpus input: parsing, hierarchy checks, multilevel inheritance.

The corpus format is JSON Lines: one description unit per line, keyed by the
standard element identifiers ("1.1" .. "7.3") plus the atomised sub-fields
the migration rules consume.  Parent linkage is the explicit ``parent``
field; reference-code prefixes are never interpreted.
"""

from __future__ import annotations

import json
import math
import re
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

# Atomised sub-fields carrying rule-ready values, in the order they are checked.
SCALAR_SUBFIELDS = (
    "title_type",
    "production_date_start",
    "production_date_end",
    "production_date_single",
    "physical_location",
    "original_numbering",
    "previous_location",
    "description_creation_date",
    "description_last_modification",
)
LIST_SUBFIELDS = frozenset({"dimensions", "supports", "languages", "creators"})
PARENT_FIELD = "parent"

ALLOWED_FIELDS = (
    frozenset(ELEMENT_NAMES) | frozenset(SCALAR_SUBFIELDS) | LIST_SUBFIELDS | {PARENT_FIELD}
)

# The fields that hold text when present, with the refusal of each, in the
# order they are checked.
_TEXT_FIELDS = (
    (PARENT_FIELD, "parent must be a reference code string"),
    *((key, f"element {key} must be a string") for key in ELEMENT_NAMES),
    *((key, f"field {key} must be a string") for key in SCALAR_SUBFIELDS),
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


class CorpusError(utf8.LineError):
    """Raised for a malformed corpus, or a tree that cannot be resolved."""


@dataclass(frozen=True)
class Provenance:
    """Where a resolved element value came from; ``source`` is None for own values."""

    source: str | None = None

    @property
    def inherited(self) -> bool:
        return self.source is not None


_OWN = Provenance()  # frozen: one object serves every own value


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


_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")


def _finite(text: str) -> float:
    """The corpus's JSON number hook: RFC 8259 has no NaN or infinity, but
    ``json`` reads ``NaN`` and ``Infinity`` as such and overflows 1e400 to one."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


# One decoder for every line: ``json.loads`` would build one per call.
_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_finite)


def _has_surrogate(value: object) -> bool:
    """Whether a key or text at any depth of a JSON value holds a lone surrogate,
    which no RDF literal or IRI can hold (a ``\\ud800`` escape decodes to one).
    The walk keeps its own stack: nesting that ``json`` accepts cannot overflow it."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            if _SURROGATE_RE.search(item):
                return True
        elif isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
    return False


def _check_entry(obj: dict, line: int) -> None:
    for key in obj:
        if key not in ALLOWED_FIELDS:
            raise CorpusError(f"unknown element id {key!r}", line)
    for key, refusal in _TEXT_FIELDS:
        value = obj.get(key)
        if value is not None and not isinstance(value, str):
            raise CorpusError(refusal, line)
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
            if not isinstance(kind, str) or kind not in DIMENSION_KINDS:
                raise CorpusError(f"dimension kind must be dimension|extension, got {kind!r}", line)
            value = entry.get("value")
            # A JSON boolean reads as a bool, which Python counts as an int.
            if isinstance(value, bool) or not isinstance(value, (str, int, float, type(None))):
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
            if line.startswith("\ufeff"):  # the check json.loads makes before decoding
                raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
            obj = _DECODER.decode(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"invalid JSON ({exc.msg})", number) from None
        except ValueError as exc:  # _finite's refusal, or an int too long to convert
            raise CorpusError(str(exc), number) from None
        except RecursionError:
            raise CorpusError("JSON nested too deeply", number) from None
        if not isinstance(obj, dict):
            raise CorpusError("record must be a JSON object", number)
        # Only a \u escape, or a raw surrogate in str input, puts one in a value.
        if "\\u" in line or _SURROGATE_RE.search(line):
            for key, value in obj.items():
                if _has_surrogate(key) or _has_surrogate(value):
                    raise CorpusError(f"element {key!r} holds a lone surrogate", number)
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
    record after its parent, whose resolved value is the nearest ancestor's,
    reading not each inheritable key but the record's non-blank elements and
    its parent's provenance, which holds a key whose value is not blank.
    """
    keys = frozenset(DEFAULT_INHERITABLE if inheritable is None else inheritable)
    if "1.1" in keys:
        raise CorpusError("element 1.1 (reference code) is per-unit and can never inherit")
    unknown = sorted(keys - (ALLOWED_FIELDS - {PARENT_FIELD}))
    if unknown:
        raise CorpusError(f"cannot inherit unknown element id {', '.join(map(repr, unknown))}")
    resolved: dict[str, IsadRecord] = {}
    stack: list[tuple[str, IsadRecord | None]] = [(ref, None) for ref in tree.roots]
    while stack:
        reference, parent = stack.pop()
        record = tree.records[reference]
        elements = dict(record.elements)
        provenance = dict(record.provenance)
        gained = {key: _OWN for key, value in elements.items()
                  if key in keys and key not in provenance and not is_blank(value)}
        if parent is not None:
            for key, source in parent.provenance.items():
                if key in keys and key not in provenance and key not in gained:
                    gained[key] = source if source.source else Provenance(parent.reference_code)
        for key in sorted(gained):
            source = provenance[key] = gained[key]
            if source is not _OWN:
                elements[key] = parent.elements[key]
        record = resolved[reference] = IsadRecord(
            record.reference_code, record.parent_reference, elements, provenance
        )
        stack.extend((child, record) for child in tree.children[reference])
    return RecordTree({ref: resolved[ref] for ref in tree.records}, dict(tree.children), tree.roots)
