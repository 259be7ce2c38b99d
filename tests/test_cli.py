"""Command-line behaviour: exit codes, determinism, file outputs."""

import codecs
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import archonto
from archonto.cli import main
from archonto.graph import Graph
from archonto.mdl import builtin_rules, parse_mdl
from archonto.ontology import builtin_schema
from archonto.records import parse_corpus
from archonto.vocabulary import builtin_vocabularies, load_nesting, load_vocabularies

from conftest import corpus_text, synthetic_corpus

SAMPLE = Path(__file__).resolve().parent.parent / "sample" / "corpus.jsonl"


@pytest.fixture()
def corpus_file(tmp_path):
    lines = [
        {"1.1": "PT/F", "1.2": "Fundo", "title_type": "supplied", "1.4": "Fonds",
         "4.3": "Portuguese", "languages": ["Portuguese"]},
        {"1.1": "PT/F/S", "parent": "PT/F", "1.4": "Serie",
         "production_date_single": "1813-07-12"},
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(json.dumps(l) for l in lines), encoding="utf-8")
    return path


def test_migrate_happy_path(tmp_path, corpus_file):
    out = tmp_path / "graph.nt"
    assert main(["migrate", "--in", str(corpus_file), "--out", str(out)]) == 0
    first = out.read_bytes()
    assert first
    assert main(["migrate", "--in", str(corpus_file), "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_migrate_turtle(tmp_path, corpus_file):
    out = tmp_path / "graph.ttl"
    assert main(
        ["migrate", "--in", str(corpus_file), "--out", str(out), "--format", "turtle"]
    ) == 0
    assert out.read_text(encoding="utf-8").startswith("@prefix aont:")


# Turtle's PN_LOCAL production (RDF 1.1 Turtle, section 6.5).
_PN_CHARS_U = (
    "A-Za-z_\u00C0-\u00D6\u00D8-\u00F6\u00F8-\u02FF\u0370-\u037D\u037F-\u1FFF"
    "\u200C-\u200D\u2070-\u218F\u2C00-\u2FEF\u3001-\uD7FF\uF900-\uFDCF"
    "\uFDF0-\uFFFD\U00010000-\U000EFFFF"
)
_PN_CHARS = _PN_CHARS_U + "\\-0-9\u00B7\u0300-\u036F\u203F-\u2040"
_PLX = r"(?:%[0-9A-Fa-f]{2}|\\[_~.\-!$&'()*+,;=/?#@%])"
_PN_LOCAL = re.compile(
    f"(?:[{_PN_CHARS_U}:0-9]|{_PLX})(?:(?:[{_PN_CHARS}.:]|{_PLX})*(?:[{_PN_CHARS}:]|{_PLX}))?"
)


def test_turtle_prefixed_names_are_valid_local_names(tmp_path):
    # A record named "ontology" mints nodes under the aont: namespace IRI.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"1.1": "ontology", "1.4": "Fonds"}\n', encoding="utf-8")
    out = tmp_path / "graph.ttl"
    assert main(["migrate", "--in", str(corpus), "--out", str(out), "--format", "turtle"]) == 0
    names = []
    for line in out.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("@prefix"):
            terms = re.sub(r'<[^>]*>|"(?:[^"\\]|\\.)*"(?:\^\^)?', " ", line).split()
            names += [term for term in terms if term not in ("a", ".")]
    assert "aont:ARE1_Level_of_Description" in names
    for name in names:
        prefix, _, local = name.partition(":")
        assert prefix in ("aont", "crm", "xsd") and _PN_LOCAL.fullmatch(local), name


def test_migrate_missing_corpus(tmp_path):
    assert main(["migrate", "--in", str(tmp_path / "nope.jsonl")]) == 2


def test_migrate_malformed_corpus(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    assert main(["migrate", "--in", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_migrate_strict_vocab_error(tmp_path):
    bad = tmp_path / "corpus.jsonl"
    bad.write_text('{"1.1": "A", "1.4": "Bogus"}\n', encoding="utf-8")
    out = tmp_path / "graph.nt"
    report = tmp_path / "problems.tsv"
    code = main(
        ["migrate", "--in", str(bad), "--out", str(out), "--strict",
         "--report", str(report)]
    )
    assert code == 1
    assert "A\terror\t" in report.read_text(encoding="utf-8")


def test_strict_refusal_exits_1_with_and_without_fail_fast(tmp_path, capsysbinary):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"1.1": "A", "1.4": "Fonds", "supports": ["Bogus"]}\n', encoding="utf-8")
    message = "rule 11 (1): term 'Bogus' is not in the vocabulary bound to E57"
    assert main(["migrate", "--in", str(corpus), "--strict"]) == 1
    assert capsysbinary.readouterr().err.decode() == f"A\terror\t{message}\n"
    assert main(["migrate", "--in", str(corpus), "--strict", "--fail-fast"]) == 1
    out, err = capsysbinary.readouterr()
    assert out == b"" and err.decode() == f"error: record A: {message}\n"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    assert main(["migrate", "--in", str(bad), "--strict", "--fail-fast"]) == 2


def test_validate_graph_with_bad_date(tmp_path, corpus_file):
    out = tmp_path / "graph.nt"
    main(["migrate", "--in", str(corpus_file), "--out", str(out)])
    text = out.read_text(encoding="utf-8")
    text = text.replace(
        '"1813-07-12T00:00:00"^^<http://www.w3.org/2001/XMLSchema#dateTime>',
        '"1813-07-12"',
    )
    broken = tmp_path / "broken.nt"
    broken.write_text(text, encoding="utf-8")
    report = tmp_path / "report.tsv"
    code = main(["validate", "--in", str(broken), "--out", str(report), "--format", "tsv"])
    assert code == 1
    body = report.read_text(encoding="utf-8")
    assert "datetime-lexical" in body


def test_validate_clean_graph(tmp_path, corpus_file):
    out = tmp_path / "graph.nt"
    main(["migrate", "--in", str(corpus_file), "--out", str(out)])
    assert main(["validate", "--in", str(out)]) == 0


def test_validate_clean_graph_tsv_is_empty(tmp_path, corpus_file):
    graph = tmp_path / "graph.nt"
    main(["migrate", "--in", str(corpus_file), "--out", str(graph)])
    report = tmp_path / "report.tsv"
    assert main(
        ["validate", "--in", str(graph), "--out", str(report), "--format", "tsv"]
    ) == 0
    assert report.read_bytes() == b""


def test_validate_corpus_mode(tmp_path, corpus_file):
    report = tmp_path / "report.txt"
    assert main(
        ["validate", "--corpus", str(corpus_file), "--out", str(report)]
    ) == 0
    assert "no findings" in report.read_text(encoding="utf-8")


def test_rules_dump_round_trips(tmp_path):
    out = tmp_path / "rules.mdl"
    assert main(["rules", "--dump", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert parse_mdl(text, builtin_schema()) == builtin_rules()


def test_rules_check(tmp_path, capsys):
    good = tmp_path / "good.mdl"
    good.write_text("RULE 1: ISAD{D1} =>\n  E31 Document{=D1}\n", encoding="utf-8")
    assert main(["rules", "--check", str(good)]) == 0
    assert "1 rule(s) OK" in capsys.readouterr().err
    bad = tmp_path / "bad.mdl"
    bad.write_text("RULE 1: X =>\n  E999 Unknown\n", encoding="utf-8")
    assert main(["rules", "--check", str(bad)]) == 2


def test_schema_dump(tmp_path):
    out = tmp_path / "schema.tsv"
    assert main(["schema", "--dump", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines == sorted(lines)
    schema = builtin_schema()
    assert len(lines) == len(schema.classes) + len(schema.properties)


def test_stats_from_corpus(tmp_path, corpus_file):
    out = tmp_path / "stats.tsv"
    assert main(
        ["stats", "--corpus", str(corpus_file), "--out", str(out), "--format", "tsv"]
    ) == 0
    assert "CIDOC CRM\tE31\t2" in out.read_text(encoding="utf-8")


def test_stats_from_graph(tmp_path, corpus_file):
    graph_path = tmp_path / "graph.nt"
    main(["migrate", "--in", str(corpus_file), "--out", str(graph_path)])
    out = tmp_path / "stats.txt"
    assert main(["stats", "--in", str(graph_path), "--out", str(out)]) == 0
    assert "Property totals by ontology" in out.read_text(encoding="utf-8")


def test_base_iri_env_override(tmp_path, corpus_file, monkeypatch):
    monkeypatch.setenv("ARCHONTO_BASE_IRI", "https://arquivos.example.pt/dados/")
    out = tmp_path / "graph.nt"
    assert main(["migrate", "--in", str(corpus_file), "--out", str(out)]) == 0
    assert "https://arquivos.example.pt/dados/PT%2FF/e31/1" in out.read_text("utf-8")


def test_base_iri_flag_beats_env(tmp_path, corpus_file, monkeypatch):
    monkeypatch.setenv("ARCHONTO_BASE_IRI", "https://env.example.org/")
    out = tmp_path / "graph.nt"
    assert main(
        ["migrate", "--in", str(corpus_file), "--out", str(out),
         "--base-iri", "https://flag.example.org/"]
    ) == 0
    assert "https://flag.example.org/" in out.read_text("utf-8")


def test_vocab_and_nesting_overrides(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"1.1": "A", "1.4": "Collection"}\n'
        '{"1.1": "A/B", "parent": "A", "1.4": "Piece"}\n',
        encoding="utf-8",
    )
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("ARE1\tCollection\nARE1\tPiece\n", encoding="utf-8")
    nesting = tmp_path / "nesting.tsv"
    nesting.write_text("Collection\tPiece\n", encoding="utf-8")
    report = tmp_path / "report.txt"
    code = main(
        ["validate", "--corpus", str(corpus), "--vocab", str(vocab),
         "--nesting", str(nesting), "--out", str(report)]
    )
    assert code == 0
    assert "no findings" in report.read_text(encoding="utf-8")


def test_rules_file_override(tmp_path, corpus_file):
    rules_path = tmp_path / "rules.mdl"
    rules_path.write_text(
        "RULE 1: ISAD{D1} =>\n"
        "  E31 Document{=D1};\n"
        "  $D1 -> P128 is carried by -> E22 Human-Made Object{=HMO1};\n"
        "  $D1 -> P67 refers to -> E33 Linguistic Object{=LO1}\n"
        "\n"
        "RULE 2: $D1 -> Description Level{DL} =>\n"
        "  $D1 -> ARP12 has level of description -> ARE1 Level of Description{=DL}\n",
        encoding="utf-8",
    )
    out = tmp_path / "graph.nt"
    assert main(
        ["migrate", "--in", str(corpus_file), "--out", str(out), "--rules", str(rules_path)]
    ) == 0
    text = out.read_text(encoding="utf-8")
    assert "ARP12" in text
    assert "P102" not in text  # title rules not in the override file


def test_migrate_stdout(corpus_file, capsysbinary):
    assert main(["migrate", "--in", str(corpus_file)]) == 0
    data = capsysbinary.readouterr().out
    parsed = Graph.from_ntriples(data, builtin_schema())
    assert len(parsed) > 0


def test_migrate_rejects_base_iri_with_space(tmp_path, corpus_file, capsys):
    out = tmp_path / "graph.nt"
    argv = ["migrate", "--in", str(corpus_file), "--out", str(out),
            "--base-iri", "https://ex.org/a b/"]
    assert main(argv) == 2
    assert not out.exists()
    assert "base IRI" in capsys.readouterr().err


def test_migrate_rejects_relative_base_iri(tmp_path, corpus_file, capsys):
    out = tmp_path / "graph.nt"
    argv = ["migrate", "--in", str(corpus_file), "--out", str(out), "--base-iri", "foo"]
    assert main(argv) == 2
    assert not out.exists()
    assert "has no scheme" in capsys.readouterr().err


@pytest.mark.parametrize("ensure_ascii", [True, False])
def test_line_separator_in_element_survives_migrate_and_validate(tmp_path, ensure_ascii):
    entry = {"1.1": "PT/F", "1.2": "Fundo", "title_type": "supplied", "1.4": "Fonds",
             "3.1": "linha um\u2028linha dois\u2029fim\u0085"}
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(entry, ensure_ascii=ensure_ascii) + "\n", encoding="utf-8")
    out = tmp_path / "graph.nt"
    assert main(["migrate", "--in", str(corpus), "--out", str(out)]) == 0
    assert main(["validate", "--in", str(out), "--out", str(tmp_path / "report.txt")]) == 0
    assert main(["stats", "--in", str(out), "--out", str(tmp_path / "stats.txt")]) == 0


@pytest.mark.parametrize(
    "spec,named", [("1.1", ["1.1"]), ("9.9,bogus", ["'9.9'", "'bogus'"]), ("1.4,parent", ["'parent'"])]
)
def test_migrate_rejects_bad_inherit_ids(tmp_path, corpus_file, capsys, spec, named):
    out = tmp_path / "graph.nt"
    assert main(["migrate", "--in", str(corpus_file), "--out", str(out), "--inherit", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(name in err for name in named)
    assert not out.exists()


def test_migrate_accepts_inherit_ids(tmp_path, corpus_file):
    out = tmp_path / "graph.nt"
    assert main(["migrate", "--in", str(corpus_file), "--out", str(out), "--inherit", "1.4, 4.3"]) == 0
    assert main(["migrate", "--in", str(corpus_file), "--out", str(out), "--inherit", "none"]) == 0


@pytest.mark.parametrize(
    "single,warning",
    [
        ("1720", "production date: single date '1720' ignored for the interval"),
        ("circa 1650", "production date: date text 'circa 1650' is not usable; "
                       "kept as legacy text only"),
    ],
    ids=["usable", "unusable"],
)
def test_interval_and_single_date_give_one_time_span(tmp_path, single, warning):
    entry = {"1.1": "PT/A", "1.4": "Fonds", "production_date_start": "1700",
             "production_date_end": "1750", "production_date_single": single}
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(entry) + "\n", encoding="utf-8")
    out, report = tmp_path / "graph.nt", tmp_path / "problems.tsv"
    assert main(["migrate", "--in", str(corpus), "--out", str(out), "--report", str(report)]) == 0
    has_time_span = f"> <{Graph(builtin_schema()).property_iri('P4')}> <"
    assert out.read_text(encoding="utf-8").count(has_time_span) == 1
    assert report.read_text(encoding="utf-8") == f"PT/A\twarning\t{warning}\n"
    assert main(["validate", "--in", str(out), "--out", str(tmp_path / "findings.txt")]) == 0


@pytest.mark.parametrize(
    "entry,label",
    [
        # Production dates keep their legacy text in 1.3 Dates.
        ({"production_date_single": "２０２０-01-01T00:00:00", "1.3": "２０２０-01-01T00:00:00"},
         "production date"),
        ({"description_creation_date": "١٩٩٩"}, "description creation date"),
    ],
    ids=["fullwidth", "arabic-indic"],
)
def test_date_with_non_ascii_digits_is_unusable_text(tmp_path, entry, label):
    text = next(iter(entry.values()))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"1.1": "A", "1.4": "Fonds", **entry}) + "\n", encoding="utf-8")
    out, report = tmp_path / "graph.nt", tmp_path / "problems.tsv"
    assert main(["migrate", "--in", str(corpus), "--out", str(out), "--report", str(report)]) == 0
    assert report.read_text(encoding="utf-8") == (
        f"A\twarning\t{label}: date text {text!r} is not usable; kept as legacy text only\n"
    )
    graph = out.read_text(encoding="utf-8")
    assert "dateTime" not in graph and graph.count(f'"{text}"') == 1
    assert main(["validate", "--in", str(out), "--out", str(tmp_path / "findings.txt")]) == 0


def _bad_byte_on_line_2(path, first_line: str) -> str:
    path.write_bytes(first_line.encode("utf-8") + b"\n\xff\n")
    return str(path)


@pytest.mark.parametrize("kind", ["corpus", "ntriples", "vocab", "nesting", "rules", "rules-check"])
def test_invalid_utf8_input_exits_2_naming_the_line(tmp_path, corpus_file, capsys, kind):
    corpus = str(corpus_file)
    if kind == "corpus":
        argv = ["migrate", "--in", _bad_byte_on_line_2(tmp_path / "c.jsonl", '{"1.1": "A"}')]
    elif kind == "ntriples":
        argv = ["validate", "--in", _bad_byte_on_line_2(tmp_path / "g.nt", "# graph")]
    elif kind == "vocab":
        argv = ["validate", "--corpus", corpus,
                "--vocab", _bad_byte_on_line_2(tmp_path / "v.tsv", "ARE1\tFonds")]
    elif kind == "nesting":
        argv = ["validate", "--corpus", corpus,
                "--nesting", _bad_byte_on_line_2(tmp_path / "n.tsv", "Fonds\tSerie")]
    elif kind == "rules":
        argv = ["migrate", "--in", corpus,
                "--rules", _bad_byte_on_line_2(tmp_path / "r.mdl", "# rules")]
    else:
        argv = ["rules", "--check", _bad_byte_on_line_2(tmp_path / "r.mdl", "# rules")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2: invalid UTF-8 byte 0xFF" in err
    assert err.count("\n") == 1


# Each line-based reader and the rules reader: (read, input text, comparable result).
_BOM_READERS = {
    "corpus": (parse_corpus, '{"1.1": "PT/A", "1.4": "Fonds"}\n', lambda tree: tree),
    "vocabulary": (
        load_vocabularies,
        "ARE1\tFonds\nARE1\tSerie\n",
        lambda reg: [(c, reg.vocabulary(c).terms) for c in reg.class_ids],
    ),
    "nesting": (
        lambda data: load_nesting(data, builtin_vocabularies()),
        "Fonds\tSerie\n",
        lambda nesting: nesting.lower_edges,
    ),
    "ntriples": (
        lambda data: Graph.from_ntriples(data, builtin_schema()),
        "<https://example.org/archonto/PT%2FA/e31/1> "
        '<https://example.org/archonto/ontology/ISAD1_has_title> "x" .\n',
        lambda graph: graph.serialize(),
    ),
    "rules": (parse_mdl, "RULE 1: ISAD{D1} =>\n  E31 Document{=D1}\n", lambda rules: rules),
}


@pytest.mark.parametrize("kind", sorted(_BOM_READERS))
def test_leading_byte_order_mark_is_dropped(kind):
    read, text, result = _BOM_READERS[kind]
    data = text.encode("utf-8")
    assert result(read(codecs.BOM_UTF8 + data)) == result(read(data))


def test_code_point_above_unicode_in_a_graph_exits_2(tmp_path, corpus_file, capsys):
    graph = tmp_path / "graph.nt"
    assert main(["migrate", "--in", str(corpus_file), "--out", str(graph)]) == 0
    text = graph.read_text(encoding="utf-8").replace('"Fundo"', r'"Fundo\U00110000"', 1)
    graph.write_text(text, encoding="utf-8")
    assert main(["validate", "--in", str(graph)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line ") and "not a Unicode scalar value" in err


def _cli_outputs(workdir: Path, hash_seed: str, corpora: dict[str, Path]) -> dict[str, bytes]:
    """Every output, stream and exit status of a fixed command list, each
    command in its own interpreter under the given PYTHONHASHSEED."""
    source = str(Path(archonto.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    workdir.mkdir()
    outputs = {}
    for name, corpus in corpora.items():
        graph = workdir / f"{name}.nt"
        commands = {
            "nt": ["migrate", "--in", str(corpus), "--out", str(graph),
                   "--report", str(workdir / f"{name}.nt.tsv")],
            "ttl": ["migrate", "--in", str(corpus), "--format", "turtle",
                    "--report", str(workdir / f"{name}.ttl.tsv")],
            "validate": ["validate", "--in", str(graph)],
            "stats": ["stats", "--in", str(graph)],
        }
        for label, argv in commands.items():
            run = subprocess.run([sys.executable, "-m", "archonto.cli", *argv],
                                 capture_output=True, env=env, check=False)
            outputs[f"{name} {label}"] = b"%d\n%s\n%s" % (run.returncode, run.stdout, run.stderr)
    for path in sorted(workdir.iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    entries = synthetic_corpus(random.Random(5), 40)
    entries[3]["production_date_single"] = "circa 1650"
    entries[7]["supports"] = ["Papiro"]  # outside the E57 vocabulary
    synthetic = tmp_path / "synthetic.jsonl"
    synthetic.write_text(corpus_text(entries), encoding="utf-8")
    corpora = {"sample": SAMPLE, "synthetic": synthetic}
    first = _cli_outputs(tmp_path / "seed0", "0", corpora)
    second = _cli_outputs(tmp_path / "seed1", "1", corpora)
    assert first == second
    assert b"vocabulary-violation" in first["synthetic validate"]
    assert b"circa 1650" in first["synthetic.nt.tsv"]
