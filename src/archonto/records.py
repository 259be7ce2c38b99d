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

# The 26 description elements, one area a line (their names: README's corpus format).
ELEMENT_IDS = (
    "1.1", "1.2", "1.3", "1.4", "1.5",
    "2.1", "2.2", "2.3", "2.4",
    "3.1", "3.2", "3.3", "3.4",
    "4.1", "4.2", "4.3", "4.4", "4.5",
    "5.1", "5.2", "5.3", "5.4",
    "6.1",
    "7.1", "7.2", "7.3",
)

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

# Each allowed field: its rank in the refusal order and, for a field that
# holds text, its refusal of any other value (the lists are checked apart).
_FIELDS = {key: (rank, refusal) for rank, (key, refusal) in enumerate((
    (PARENT_FIELD, "parent must be a reference code string"),
    *((key, f"element {key} must be a string") for key in ELEMENT_IDS),
    *((key, f"field {key} must be a string") for key in SCALAR_SUBFIELDS),
    *((key, None) for key in sorted(LIST_SUBFIELDS)),
))}

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


def _check_entry(obj: dict, line: int) -> bool:
    """Refuse a record's first shape fault in README's order; say whether a field is null."""
    fault, null = None, False
    for key, value in obj.items():
        field = _FIELDS.get(key)
        if field is None:
            raise CorpusError(f"unknown element id {key!r}", line)
        if not isinstance(value, str):
            if value is None:
                null = True
            elif field[1] and (fault is None or field < fault):
                fault = field
    if fault:
        raise CorpusError(fault[1], line)
    title_type = obj.get("title_type")
    if title_type and title_type not in TITLE_TYPES:
        raise CorpusError(
            f"title_type must be one of {sorted(TITLE_TYPES)}, got {title_type!r}", line
        )
    for key in ("supports", "languages"):
        items = obj.get(key)
        if items is not None and not (isinstance(items, list) and all(isinstance(i, str) for i in items)):
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
    return null


def parse_corpus(data: bytes | str) -> RecordTree:
    """Parse a JSON Lines corpus into a validated record forest."""
    records: dict[str, IsadRecord] = {}
    lines_by_ref: dict[str, int] = {}
    scan, text = _DECODER.scan_once, isinstance(data, str)
    for number, raw in utf8.lines(data, CorpusError):
        line = raw.strip()
        if not line:
            continue
        try:
            try:
                obj, end = scan(line, 0)
            except StopIteration:
                end = None
            if end != len(line):  # a refusal, which decode raises as json.loads would
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
        # A lone surrogate comes from a \u escape, or raw in str input: UTF-8 bytes hold none.
        if "\\u" in line or text and _SURROGATE_RE.search(line):
            for key, value in obj.items():
                if _has_surrogate(key) or _has_surrogate(value):
                    raise CorpusError(f"element {key!r} holds a lone surrogate", number)
        null = _check_entry(obj, number)
        reference = (obj.get("1.1") or "").strip()
        if not reference:
            raise CorpusError("element 1.1 (reference code) is required", number)
        if reference in records:
            raise CorpusError(f"duplicate reference code {reference!r}", number)
        parent = (obj.pop(PARENT_FIELD, None) or "").strip() or None
        elements = {k: v for k, v in obj.items() if v is not None} if null else obj
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
    reading not each inheritable key but the record's inheritable elements and
    its parent's provenance, which holds a key whose value is not blank.  The
    result shares with ``tree``, which it never alters, what it does not change:
    a record that gains no provenance, or the elements of one that inherits none.
    """
    keys = frozenset(DEFAULT_INHERITABLE if inheritable is None else inheritable)
    if "1.1" in keys:
        raise CorpusError("element 1.1 (reference code) is per-unit and can never inherit")
    unknown = sorted(keys - (_FIELDS.keys() - {PARENT_FIELD}))
    if unknown:
        raise CorpusError(f"cannot inherit unknown element id {', '.join(map(repr, unknown))}")
    resolved: dict[str, IsadRecord] = {}
    stack: list[tuple] = [(ref, None, None) for ref in tree.roots]
    while stack:
        reference, parent, via_parent = stack.pop()  # via_parent is Provenance(parent)
        record = tree.records[reference]
        elements, provenance = record.elements, record.provenance
        gained = {key: _OWN for key in keys.intersection(elements)
                  if key not in provenance and not is_blank(elements[key])}
        if parent is not None:
            for key, source in parent.provenance.items():
                if key in keys and key not in provenance and key not in gained:
                    gained[key] = source if source.source else via_parent
        if gained:
            provenance = dict(provenance)
            for key in sorted(gained):
                source = provenance[key] = gained[key]
                if source is not _OWN:  # the first inherited value copies the elements
                    if elements is record.elements:
                        elements = dict(elements)
                    elements[key] = parent.elements[key]
            record = IsadRecord(record.reference_code, record.parent_reference, elements, provenance)
        resolved[reference] = record
        if tree.children[reference]:
            via = Provenance(reference)
            stack.extend((child, record, via) for child in tree.children[reference])
    return RecordTree({ref: resolved[ref] for ref in tree.records}, dict(tree.children), tree.roots)
