"""Seeded benchmark inputs: synthetic ISAD(G) corpora and a defect injector.

`synthetic_corpus` is a frozen copy of the test suite's generator
(`tests/conftest.py::synthetic_corpus`): for the same seed and size it emits
the same entries, so edits to the tests cannot shift the benchmark inputs.
`selfcheck.py` verifies the two still agree.  The copy keeps the list of
possible parents incrementally, which draws the same random numbers as the
original's per-record rescan but runs in linear time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

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
    parents: list[tuple[str, str]] = []  # placed (ref, level) that may have children
    for index in range(size):
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
        if LEVEL_CHILDREN[level]:
            parents.append((ref, level))
    return entries


def corpus_text(entries: list[dict]) -> str:
    return "\n".join(json.dumps(entry, ensure_ascii=False) for entry in entries) + "\n"


def shuffled(entries: list[dict], rng: random.Random) -> list[dict]:
    """A copy of the entries in another line order."""
    copy = list(entries)
    rng.shuffle(copy)
    return copy


# -- defect injection ----------------------------------------------------------

LANGUAGE = "unknown-language"
SUPPORT = "unknown-support"
DATE = "unusable-date"
NESTING = "nesting"
DEFECT_KINDS = (LANGUAGE, SUPPORT, DATE, NESTING)

# Date fields the engine widens; unusable text in either is reported once.
_DATE_FIELDS = ("production_date_single", "description_creation_date")
_BAD_DATES = ("circa 1650", "1650-13-45", "s.d.", "17th century")


@dataclass(frozen=True)
class Defect:
    reference: str
    kind: str
    field: str
    value: str


def inject_defects(
    entries: list[dict], rng: random.Random, share: float
) -> tuple[list[dict], tuple[Defect, ...]]:
    """Copy of `entries` with defects in `share` of them, plus the record of each.

    Every defect has a fixed, known effect on a non-strict migration and its
    validation (see `expected_counts`):

    * an unknown language or support term, unique per defect, mints a shared
      individual outside its vocabulary: one vocabulary-violation finding;
    * unusable text in one widened date field: one warning problem;
    * a non-root unit relabelled "Fonds", which may nest under no level: one
      nesting-violation finding on its link to its parent.  Every level nests
      (transitively) under Fonds, so its own children stay valid.
    """
    out = [dict(entry) for entry in entries]
    chosen = sorted(rng.sample(range(len(out)), round(share * len(out))))
    defects = []
    for number, index in enumerate(chosen):
        entry = out[index]
        kind = rng.choice(DEFECT_KINDS)
        if kind == NESTING and "parent" not in entry:
            kind = DATE
        if kind == LANGUAGE:
            field, value = "languages", f"Língua {number}"
            entry[field] = sorted(entry.get(field, []) + [value])
        elif kind == SUPPORT:
            field, value = "supports", f"Suporte {number}"
            entry[field] = sorted(entry.get(field, []) + [value])
        elif kind == DATE:
            field, value = rng.choice(_DATE_FIELDS), rng.choice(_BAD_DATES)
            entry[field] = value
        else:
            field, value = "1.4", "Fonds"
            entry[field] = value
        defects.append(Defect(entry["1.1"], kind, field, value))
    return out, tuple(defects)


def expected_counts(defects: tuple[Defect, ...]) -> dict[str, dict[str, int]]:
    """Finding and problem counts by code, derived from the injection record alone."""
    kinds = [defect.kind for defect in defects]
    findings = {
        "vocabulary-violation": kinds.count(LANGUAGE) + kinds.count(SUPPORT),
        "nesting-violation": kinds.count(NESTING),
    }
    problems = {"warning": kinds.count(DATE), "error": 0}
    return {
        "findings": {code: n for code, n in findings.items() if n},
        "problems": {severity: n for severity, n in problems.items() if n},
    }
