"""Byte-level pins of `archonto migrate` output.

The digests were recorded before the N-Triples writer took plain tuples and
segment encoding was memoised; any later change to the bytes shows here.
Regenerate them only for an intended change of the output format.
"""

import hashlib
import random
from pathlib import Path

import pytest

from archonto.cli import main

from conftest import corpus_text, synthetic_corpus

SAMPLE = Path(__file__).resolve().parent.parent / "sample" / "corpus.jsonl"
EMPTY = hashlib.sha256(b"").hexdigest()


def _sample() -> str:
    return SAMPLE.read_text(encoding="utf-8")


def _synthetic() -> str:
    return corpus_text(synthetic_corpus(random.Random(7), 300))


def _synthetic_with_problems() -> str:
    """The synthetic corpus with an unusable date in every tenth record and
    a term outside the language vocabulary in every fifteenth."""
    entries = synthetic_corpus(random.Random(7), 300)
    for index, entry in enumerate(entries):
        if index % 10 == 3:
            entry["production_date_single"] = "circa 1650"
        if index % 15 == 4:
            entry["languages"] = sorted(entry.get("languages", []) + [f"Língua {index}"])
    return corpus_text(entries)


# corpus -> (N-Triples, Turtle, problem report) SHA-256
PINS = {
    "sample": (
        _sample,
        "bb40d332e56f082954ec2b42179e4a4a75db6f6ffb2bac9285c57692f84f8e2b",
        "64d2e60987e48a06961a86be33c57fc25b845b1723943d5fea50b02d8584522f",
        EMPTY,
    ),
    "synthetic-7-300": (
        _synthetic,
        "37278990f4ea3bc557f116955adea695cf930f372e60e66c50c587bbd31306cc",
        "e245a124a19cb3278189aa19a214c0d93f6a337e1d052e4d22651d9da3098eb8",
        EMPTY,
    ),
    "synthetic-7-300-problems": (
        _synthetic_with_problems,
        "b45e51c4d228c2426615caf1eb52bcf0b645fef75083fb00d293be6156be96d4",
        "1dc6f39042d33b54dac2c8366dcc019370775b432aa5f2fb55bb7c1969a0b942",
        "f248967ab82f40ed3572fab725e615e6cf783d609f2fa09e357bdbc78a05f13f",
    ),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_migrate_output_bytes_are_pinned(tmp_path, name):
    build, nt_pin, ttl_pin, report_pin = PINS[name]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(build(), encoding="utf-8")
    nt, ttl, report = tmp_path / "g.nt", tmp_path / "g.ttl", tmp_path / "problems.tsv"
    main(["migrate", "--in", str(corpus), "--out", str(nt), "--report", str(report)])
    main(["migrate", "--in", str(corpus), "--out", str(ttl), "--format", "turtle"])
    assert (_sha256(nt), _sha256(ttl), _sha256(report)) == (nt_pin, ttl_pin, report_pin)
