"""Byte-level pins of the CLI outputs: `migrate`, `validate`, `stats` and the dumps.

The `migrate` digests were recorded before the N-Triples writer took plain
tuples and segment encoding was memoised, the others before vocabularies
became plain term tuples; any later change to the bytes shows here.
Regenerate them only for an intended change of the output format.
"""

import hashlib
import random
from pathlib import Path

import pytest

from archonto.cli import main
from archonto.mdl import parse_mdl
from archonto.migration import migrate_tree
from archonto.records import parse_corpus, resolve_inheritance

from conftest import corpus_text, random_ruleset_text, synthetic_corpus, with_defects

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


# `migrate --strict` of the corpus with problems: (N-Triples, problem report)
# SHA-256.  Strict mode refuses each record with a language outside the
# vocabulary, so the run exits 1.
STRICT_PINS = {
    "synthetic-7-300-problems": (
        _synthetic_with_problems,
        "c0da5c308fc8f671beb5766ed190f38594ad43bbc3ef45f22b6b74b16f7437fe",
        "ac3f88c300c095ff361f1bc87d9d3e4ed2221936b1c3a09cc8b70158f94d844d",
    ),
}


@pytest.mark.parametrize("name", sorted(STRICT_PINS))
def test_strict_migrate_output_bytes_are_pinned(tmp_path, name):
    build, nt_pin, report_pin = STRICT_PINS[name]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(build(), encoding="utf-8")
    nt, report = tmp_path / "g.nt", tmp_path / "problems.tsv"
    code = main(["migrate", "--strict", "--in", str(corpus), "--out", str(nt), "--report", str(report)])
    assert code == 1
    assert (_sha256(nt), _sha256(report)) == (nt_pin, report_pin)


# Outputs that read a graph back, of the corpus with problems: name ->
# (arguments after the subcommand, exit status, SHA-256 of the --out file).
# "GRAPH" stands for the N-Triples of `migrate` and "CORPUS" for the corpus.
# Validation finds the languages outside the vocabulary, so it exits 1.
INSPECT_PINS = {
    "validate-in-text": (
        ["validate", "--in", "GRAPH"],
        1,
        "68be88946621adecabe88b1e3b28a68586a20351d023a9ff466e3265b9a81eb1",
    ),
    "validate-in-tsv": (
        ["validate", "--in", "GRAPH", "--format", "tsv"],
        1,
        "cdd491decf629d37a4a9e4c912dfb7f8c0c7ba1625661f5684dd94412b7bd32d",
    ),
    "validate-corpus-text": (
        ["validate", "--corpus", "CORPUS"],
        1,
        "68be88946621adecabe88b1e3b28a68586a20351d023a9ff466e3265b9a81eb1",
    ),
    "stats-in-table": (
        ["stats", "--in", "GRAPH"],
        0,
        "c8937c23b5e17d48dd474d00ed99466c15f4c46becbf87d70983d386291cf463",
    ),
    "stats-in-tsv": (
        ["stats", "--in", "GRAPH", "--format", "tsv"],
        0,
        "e985ca479078a2e75f20a0296a2fbe39a73ad5670f9e55d1706bdaeebdcbbcc2",
    ),
}


@pytest.mark.parametrize("name", sorted(INSPECT_PINS))
def test_inspection_output_bytes_are_pinned(tmp_path, name):
    argv, exit_pin, out_pin = INSPECT_PINS[name]
    corpus, nt, out = tmp_path / "corpus.jsonl", tmp_path / "g.nt", tmp_path / "out.txt"
    corpus.write_text(_synthetic_with_problems(), encoding="utf-8")
    main(["migrate", "--in", str(corpus), "--out", str(nt)])
    paths = {"GRAPH": str(nt), "CORPUS": str(corpus)}
    code = main([paths.get(arg, arg) for arg in argv] + ["--out", str(out)])
    assert (code, _sha256(out)) == (exit_pin, out_pin)


# The built-in schema listing and rule set, as `--dump` writes them.
DUMP_PINS = {
    "schema": "2dc7b7c465b6bdd1bd82401c5f60a2f3a5ea6a981a8de6f7d621d94a16279517",
    "rules": "cd6fea716692e679b65b7ea085f5985459b2e86d1adccbae6bc5ad0fb8015aa0",
}


@pytest.mark.parametrize("command", sorted(DUMP_PINS))
def test_dump_output_bytes_are_pinned(tmp_path, command):
    out = tmp_path / "dump.txt"
    assert main([command, "--dump", "--out", str(out)]) == 0
    assert _sha256(out) == DUMP_PINS[command]


def _random_corpus(defects: bool) -> str:
    """A synthetic corpus; with defects, an unusable or shadowed single date in
    every tenth record, an out-of-vocabulary support in every tenth, and a
    blank measure unit and a blank creator role in every seventh."""
    entries = synthetic_corpus(random.Random(3), 120)
    if defects:
        dates = {index: ("circa 1650", "1720")[index % 2] for index in range(1, 120, 10)}
        with_defects(entries, dates, set(range(5, 120, 10)))
        for entry in entries[::7]:
            entry["dimensions"] = [{"value": "12", "unit": " "}, {"value": "3", "unit": "Gram"}]
            entry["creators"] = [{"name": "Lino", "role": ""}]
    return corpus_text(entries)


# Rule sets beyond the built-in ones, `random_ruleset_text` of seeds 0-99, on
# one corpus clean and with defects: (corpus, strict) -> SHA-256 of the
# N-Triples and the problem report of every rule set, in seed order.
RANDOM_RULE_PINS = {
    ("clean", False): "c9a2675b63647259bfbb6a8788befd525cf7f856e6fcb68f509dd8d55cf30b5f",
    ("clean", True): "ebe97c5972c96d640c5601e1c544fc7e9abf755f77ab5fe15dd9f21d07a5fd79",
    ("defects", False): "ac701604d8597dfcacb437d8bc90a5ae016c8c689c55cc940994046348d7613f",
    ("defects", True): "8d5b7ced07cea9d07b553d1d8b6ec5655386bb1a50b3ed328dab8521f55b1056",
}


@pytest.mark.parametrize("corpus,strict", sorted(RANDOM_RULE_PINS))
def test_random_rule_set_output_bytes_are_pinned(schema, registry, corpus, strict):
    tree = resolve_inheritance(parse_corpus(_random_corpus(corpus == "defects")))
    digest = hashlib.sha256()
    for seed in range(100):
        rng = random.Random(seed)
        ruleset = parse_mdl(random_ruleset_text(rng, schema, rng.randint(2, 6)), schema)
        result = migrate_tree(tree, ruleset, schema, registry, strict=strict)
        digest.update(result.graph.serialize())
        digest.update("".join(line + "\n" for line in result.report_lines()).encode("utf-8"))
    assert digest.hexdigest() == RANDOM_RULE_PINS[corpus, strict]


# A small foreign graph with one row of each kind the triple check judges: a
# subject outside the domain, a literal on a node range, a node on a literal
# range, an object class outside the range, a foreign and an untyped object,
# a bad dateTime, an undeclared predicate, and P3 named by its bare id beside
# its full IRI.  Literals hold braces and a percent sign, which a message
# must carry as they are.
_CRM, _ARCH = "http://www.cidoc-crm.org/cidoc-crm/", "https://example.org/archonto/"
_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
_DOC, _HMO = f"<{_ARCH}F/e31/1>", f"<{_ARCH}F/e22/1>"
_SPAN, _OTHER = f"<{_ARCH}F/doe11/1>", "<https://other.example/x>"
FOREIGN_GRAPH = "".join(line + " .\n" for line in (
    f"{_DOC} {_TYPE} <{_CRM}E31_Document>",
    f"{_HMO} {_TYPE} <{_CRM}E22_Human-Made_Object>",
    f"{_SPAN} {_TYPE} <{_ARCH}ontology/DOE11_Interval>",
    f"{_OTHER} {_TYPE} <https://other.example/C>",
    f'{_HMO} <{_ARCH}ontology/ISAD1_has_title> "title"',
    f'{_DOC} <{_CRM}P128_is_carried_by> "{{0}} 100%"',
    f"{_DOC} <{_ARCH}ontology/ISAD1_has_title> {_HMO}",
    f"{_DOC} <{_CRM}P128_is_carried_by> {_DOC}",
    f"{_DOC} <{_CRM}P128_is_carried_by> {_OTHER}",
    f"{_DOC} <{_CRM}P128_is_carried_by> <https://other.example/untyped>",
    f'{_SPAN} <{_ARCH}ontology/DOP6_startDateValue> "{{1809}}-13-01T00:00:00"'
    f"^^<http://www.w3.org/2001/XMLSchema#dateTime>",
    f'{_DOC} <https://other.example/p> "v"',
    f"{_HMO} <P3> {_DOC}",
    f'{_DOC} <{_CRM}P3_has_note> "note"',
))

# name -> (arguments after the subcommand, exit status, SHA-256 of the --out file)
FOREIGN_PINS = {
    "validate-in-text": (
        ["validate"],
        1,
        "614ea9bc414650fb9b62a53cd55cd81a17bcc63da29e6f617112675ab8796e12",
    ),
    "validate-in-tsv": (
        ["validate", "--format", "tsv"],
        1,
        "1b822136acbe37775ccf6b00de973696dede12f5627b5663cbfb8ec3f9b8121d",
    ),
    "stats-in-table": (
        ["stats"],
        0,
        "ed59dda92a455cce230e00706480641b15783d5e9c798876e203e145cf13caa7",
    ),
    "stats-in-tsv": (
        ["stats", "--format", "tsv"],
        0,
        "4ce5e1f19caf78b7eda5aac1ba866d522e24e3a940531b20577184a4c47fd31b",
    ),
}


@pytest.mark.parametrize("name", sorted(FOREIGN_PINS))
def test_foreign_graph_inspection_bytes_are_pinned(tmp_path, name):
    argv, exit_pin, out_pin = FOREIGN_PINS[name]
    graph, out = tmp_path / "g.nt", tmp_path / "out.txt"
    graph.write_text(FOREIGN_GRAPH, encoding="utf-8")
    code = main([*argv, "--in", str(graph), "--out", str(out)])
    assert (code, _sha256(out)) == (exit_pin, out_pin)
