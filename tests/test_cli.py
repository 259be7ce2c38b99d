"""Command-line behaviour: exit codes, determinism, file outputs."""

import codecs
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

import archonto
from archonto import cli, migration
from archonto.cli import main
from archonto.graph import Graph
from archonto.mdl import builtin_rules, parse_mdl, render_mdl
from archonto.ontology import builtin_schema
from archonto.records import parse_corpus
from archonto.vocabulary import (
    VocabularyRegistry,
    builtin_vocabularies,
    load_nesting,
    load_vocabularies,
)

from conftest import HOSTILE_RULES, corpus_text, synthetic_corpus

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


@pytest.mark.parametrize("command", ["rules", "migrate"])
def test_a_repeated_rule_number_is_an_input_error(tmp_path, capsys, corpus_file, command):
    rules, out = tmp_path / "dup.mdl", tmp_path / "g.nt"
    rules.write_text("RULE 1: ISAD{D1} =>\n  E31 Document{=D1}\n" * 2, encoding="utf-8")
    argv = {
        "rules": ["rules", "--check", str(rules)],
        "migrate": ["migrate", "--rules", str(rules), "--in", str(corpus_file), "--out", str(out)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: offset ") and err.count("\n") == 1, err
    assert err.endswith(": duplicate rule number 1\n")
    assert "Traceback" not in err
    assert not out.exists()


_TITLE_PATH = "$D1 -> P102 has title -> E35 Title -> DOP7 stringValue -> T"


@pytest.mark.parametrize(
    "path,warning",
    [
        ("$D1 -> P128 is carried by -> T",
         "warning: rule 4: P128 expects a E22 node, got a literal"),
        ("$D1 -> P102 has title -> E35 Title -> DOP7 stringValue -> E22 Human-Made Object",
         "warning: rule 4: DOP7 expects a xsd:string literal, got a node"),
    ],
    ids=["literal-on-P128", "node-on-DOP7"],
)
def test_rules_check_warns_of_each_range_kind_mismatch(tmp_path, capsys, path, warning):
    text = render_mdl(builtin_rules(), builtin_schema())
    assert _TITLE_PATH in text
    rules = tmp_path / "rules.mdl"
    rules.write_text(text.replace(_TITLE_PATH, path), encoding="utf-8")
    # Non-strict migration accepts such a rule, so the check still passes.
    assert main(["rules", "--check", str(rules)]) == 0
    count = len(builtin_rules().rules)
    assert capsys.readouterr().err.splitlines() == [warning, f"{rules}: {count} rule(s) OK"]


def test_rules_check_of_the_builtin_rules_warns_of_nothing(tmp_path, capsys):
    rules = tmp_path / "rules.mdl"
    assert main(["rules", "--dump", "--out", str(rules)]) == 0
    assert main(["rules", "--check", str(rules)]) == 0
    assert capsys.readouterr().err.splitlines() == [f"{rules}: 18 rule(s) OK"]


def test_rules_check_rejects_emission_of_a_non_capture(tmp_path, capsys):
    # Such a rule used to pass the check and then refuse every record.
    rules = tmp_path / "rules.mdl"
    rules.write_text(
        "RULE 1: ISAD{D1} =>\n  E31 Document{=D1}\n\n"
        "RULE 3: $D1 -> Reference Code{T} =>\n"
        "  $D1 -> P102 has title -> E35 Title{=X} -> DOP7 stringValue -> X\n",
        encoding="utf-8",
    )
    assert main(["rules", "--check", str(rules)]) == 2
    assert "rule 3: emission X is not a capture of the selector" in capsys.readouterr().err


@pytest.mark.parametrize("space", ["\t", " ", "\u2003"], ids=["tab", "space", "em space"])
def test_rules_check_refuses_a_word_after_an_emission(tmp_path, capsys, space):
    # An emission is one word, whatever whitespace follows it.
    rules = tmp_path / "rules.mdl"
    rules.write_text(
        "RULE 1: ISAD{D1} =>\n  E31 Document{=D1}\n\n"
        "RULE 4: $D1 -> Title{T} =>\n"
        f"  $D1 -> P102 has title -> E35 Title -> DOP7 stringValue -> T{space}X\n",
        encoding="utf-8",
    )
    assert main(["rules", "--check", str(rules)]) == 2
    assert f"unrecognised path segment {'T' + space + 'X'!r}" in capsys.readouterr().err


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


def test_rule_literals_that_read_as_code_stay_data(tmp_path, capfd):
    rules_path = tmp_path / "rules.mdl"
    rules_path.write_text(HOSTILE_RULES, encoding="utf-8")
    corpus = tmp_path / "one.jsonl"
    corpus.write_text('{"1.1": "PT/1", "1.4": "Fonds"}\n', encoding="utf-8")
    assert main(["rules", "--check", str(rules_path)]) == 0
    out = tmp_path / "graph.nt"
    capfd.readouterr()
    assert main(["migrate", "--in", str(corpus), "--rules", str(rules_path), "--out", str(out)]) == 0
    assert capfd.readouterr() == ("", "")
    node = (
        "<https://example.org/archonto/shared/ARE5/Ref%20%22x%22%20%5C%20%7By%7D%20%23%2050%25"
        "%20%24D1%20__import__%28%22os%22%29.system%28%22echo%20hi%22%29>"
    )
    data = out.read_bytes()
    assert f"{node} <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> " \
        "<https://example.org/archonto/ontology/ARE5_Identifier_Type> .\n".encode() in data
    # The bytes an interpreting engine wrote for this rule file.
    assert hashlib.sha256(data).hexdigest() == (
        "c289ca931190d1c7affe4ad628cab5dfdb2192e83d6b40e55ec17cc6d4d45ca2"
    )


def test_a_programming_error_in_an_adapter_propagates_through_main(
    tmp_path, corpus_file, monkeypatch
):
    def broken(ctx, rule):
        raise KeyError("adapter bug")

    monkeypatch.setitem(migration._ADAPTERS, "Reference Code", broken)
    with pytest.raises(KeyError, match="adapter bug"):
        main(["migrate", "--in", str(corpus_file), "--out", str(tmp_path / "graph.nt")])


def test_a_programming_error_in_a_kernel_propagates_through_main_naming_its_rule(
    tmp_path, corpus_file, monkeypatch
):
    def broken(self, class_id, term):
        raise KeyError("registry bug")

    # Strict mode asks the registry when rule 2 first claims the shared level node.
    monkeypatch.setattr(VocabularyRegistry, "contains", broken)
    with pytest.raises(KeyError, match="registry bug") as raised:
        main(["migrate", "--strict", "--in", str(corpus_file), "--out", str(tmp_path / "g.nt")])
    files = [frame.f_code.co_filename for frame, _ in traceback.walk_tb(raised.tb)]
    assert "<archonto rule 2>" in files


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


def test_unwritable_output_fails_before_any_record_is_migrated(tmp_path, corpus_file, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "migrate_tree", lambda *args, **kwargs: calls.append(args))
    missing = tmp_path / "missing"
    out, report = tmp_path / "graph.nt", tmp_path / "problems.tsv"
    for argv in (["--out", str(missing / "graph.nt"), "--report", str(report)],
                 ["--out", str(out), "--report", str(missing / "problems.tsv")]):
        assert main(["migrate", "--in", str(corpus_file), *argv]) == 2
        assert f"No such file or directory: '{missing}" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == [corpus_file]  # not the other file, nor a temporary one


@pytest.mark.parametrize(
    "command", [["validate", "--in"], ["stats", "--in"], ["rules", "--dump"], ["schema", "--dump"]]
)
def test_unwritable_out_fails_before_any_input_is_read(tmp_path, monkeypatch, capsys, command):
    calls = []
    monkeypatch.setattr(Graph, "from_ntriples", classmethod(lambda *args: calls.append("read")))
    monkeypatch.setattr(cli, "validate_graph", lambda *args: calls.append("validate"))
    monkeypatch.setattr(cli, "usage_report", lambda *args: calls.append("stats"))
    graph = tmp_path / "graph.nt"
    graph.write_bytes(b"")
    missing = tmp_path / "missing"
    argv = [*command, *([str(graph)] if command[1] == "--in" else []), "--out", str(missing / "x")]
    assert main(argv) == 2
    assert f"No such file or directory: '{missing}" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == [graph]


def test_out_that_is_no_regular_file_is_opened_in_place(tmp_path, corpus_file, capsys):
    directory = tmp_path / "graphs"
    directory.mkdir()
    (directory / "kept.nt").write_bytes(b"old\n")
    assert main(["migrate", "--in", str(corpus_file), "--out", str(directory)]) == 2
    real = os.path.realpath(directory)
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{real}'\n"
    assert list(directory.iterdir()) == [directory / "kept.nt"]
    assert (directory / "kept.nt").read_bytes() == b"old\n"
    assert main(["migrate", "--in", str(corpus_file), "--out", os.devnull]) == 0
    assert sorted(tmp_path.iterdir()) == [corpus_file, directory]


def test_stats_of_an_empty_graph(tmp_path, capsysbinary):
    graph = tmp_path / "empty.nt"
    graph.write_bytes(b"")
    assert main(["stats", "--in", str(graph)]) == 0
    assert capsysbinary.readouterr().out == (
        b"Classes\n  (none)\n\nProperties\n  (none)\n\nProperty totals by ontology\n  (none)\n"
    )
    assert main(["stats", "--in", str(graph), "--format", "tsv"]) == 0
    assert capsysbinary.readouterr().out == b""


def test_failed_migrate_leaves_no_file_and_a_good_one_only_its_outputs(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"1.1": "A", "1.4": "Bogus"}\n{"1.1": "B", "1.4": "Fonds"}\n', encoding="utf-8")
    out, report = tmp_path / "graph.nt", tmp_path / "problems.tsv"
    argv = ["migrate", "--in", str(corpus), "--out", str(out), "--report", str(report), "--strict"]
    assert main([*argv, "--fail-fast"]) == 1
    assert sorted(tmp_path.iterdir()) == [corpus]
    assert main(argv) == 1
    assert sorted(tmp_path.iterdir()) == [corpus, out, report]
    assert report.read_text(encoding="utf-8").startswith("A\terror\trule 2 (1): ")
    capsys.readouterr()


@pytest.mark.parametrize("link", [False, True])
def test_migrate_refuses_one_file_as_both_graph_and_report(tmp_path, capsys, link):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"1.1": "PT/1", "1.4": "Fonds", "production_date_single": "circa 1650"}\n',
                      encoding="utf-8")
    out = tmp_path / "out.txt"
    report = out
    if link:
        report = tmp_path / "report.txt"
        report.symlink_to(out)
    files = sorted(tmp_path.iterdir())
    for source in (corpus, tmp_path / "missing.jsonl"):  # refused before the input is read
        assert main(["migrate", "--in", str(source), "--out", str(out), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --out and --report name the same file: {report}\n"
        assert sorted(tmp_path.iterdir()) == files
    assert main(["migrate", "--in", str(corpus), "--out", os.devnull, "--report", os.devnull]) == 0


@pytest.mark.parametrize("link", [False, True])
@pytest.mark.parametrize(
    "command,source,output",
    [
        ("migrate", "--in", "--out"),
        ("migrate", "--in", "--report"),
        ("migrate", "--vocab", "--out"),
        ("migrate", "--nesting", "--report"),
        ("migrate", "--rules", "--out"),
        ("validate", "--in", "--out"),
        ("validate", "--corpus", "--out"),
        ("validate", "--nesting", "--out"),
        ("stats", "--in", "--out"),
        ("stats", "--corpus", "--out"),
        ("stats", "--vocab", "--out"),
        ("stats", "--rules", "--out"),
    ],
)
def test_an_output_that_names_an_input_file_is_refused(tmp_path, capsys, command, source, output, link):
    corpus, graph = tmp_path / "corpus.jsonl", tmp_path / "graph.nt"
    corpus.write_text('{"1.1": "A", "1.4": "Fonds", "1.2": "T"}\n', encoding="utf-8")
    assert main(["migrate", "--in", str(corpus), "--out", str(graph)]) == 0
    inputs = {"--in": corpus if command == "migrate" else graph, "--corpus": corpus,
              "--vocab": tmp_path / "vocab.tsv", "--nesting": tmp_path / "nesting.tsv",
              "--rules": tmp_path / "rules.mdl"}
    inputs["--vocab"].write_text("ARE1\tFonds\nARE1\tSerie\n", encoding="utf-8")
    inputs["--nesting"].write_text("Fonds\tSerie\n", encoding="utf-8")
    inputs["--rules"].write_text(render_mdl(builtin_rules(), builtin_schema()), encoding="utf-8")
    flags = [source] if source in ("--in", "--corpus") else ["--in", source]
    argv = [command, *(arg for flag in flags for arg in (flag, str(inputs[flag])))]
    named = inputs[source]
    if link:
        named = tmp_path / "link"
        named.symlink_to(inputs[source])
    assert main([*argv, output, str(tmp_path / "elsewhere")]) == 0  # a distinct output is written
    capsys.readouterr()
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    assert main([*argv, output, str(named)]) == 2
    assert capsys.readouterr() == ("", f"error: {output} names the {source} file: {named}\n")
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files


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
    has_time_span = f"> <{Graph(builtin_schema())._terms.property_iris['P4']}> <"
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
        lambda reg: [(c, reg.vocabulary(c)) for c in reg.class_ids],
    ),
    "nesting": (
        lambda data: load_nesting(data, builtin_vocabularies()),
        "Fonds\tSerie\n",
        lambda nesting: nesting.upper_edges,
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


# JSON text whose escape decodes to a lone surrogate (U+D800-U+DFFF), which no
# RDF text can hold, and the top-level element the error names.
_SURROGATE_RECORDS = {
    "reference code": ('{"1.1": "A\\ud800", "1.4": "Fonds"}', "1.1"),
    "title": ('{"1.1": "A", "1.2": "bad \\ud800 title", "1.4": "Fonds"}', "1.2"),
    "creator name": ('{"1.1": "A", "1.4": "Fonds", "creators": [{"name": "X\\udc00"}]}',
                     "creators"),
    "dimension unit": ('{"1.1": "A", "1.4": "Fonds", '
                       '"dimensions": [{"value": 3, "unit": "cm\\uDFFF"}]}', "dimensions"),
    "support": ('{"1.1": "A", "1.4": "Fonds", "supports": ["Paper\\ud83d"]}', "supports"),
    "nested key": ('{"1.1": "A", "1.4": "Fonds", '
                   '"dimensions": [{"value": 3, "unit": "cm", "\\ud800": 1}]}', "dimensions"),
}
_CORPUS_COMMANDS = {
    "migrate nt": ["migrate", "--in"],
    "migrate ttl": ["migrate", "--format", "turtle", "--in"],
    "validate": ["validate", "--corpus"],
    "stats": ["stats", "--corpus"],
}


@pytest.mark.parametrize("command", sorted(_CORPUS_COMMANDS))
@pytest.mark.parametrize("record", sorted(_SURROGATE_RECORDS))
def test_lone_surrogate_in_corpus_exits_2_and_writes_nothing(
    tmp_path, capsysbinary, record, command
):
    line, element = _SURROGATE_RECORDS[record]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"1.1": "Z", "1.4": "Fonds"}\n' + line + "\n", encoding="ascii")
    out = tmp_path / "out"
    assert main([*_CORPUS_COMMANDS[command], str(corpus), "--out", str(out)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.err == f"error: line 2: element {element!r} holds a lone surrogate\n".encode()
    assert captured.out == b""
    assert not out.exists()


@pytest.mark.parametrize("command", [*sorted(_CORPUS_COMMANDS), "validate --in"])
def test_base_iri_with_a_lone_surrogate_exits_2_and_writes_nothing(tmp_path, capsys, command):
    # The command line decodes a byte that is not UTF-8 to a lone surrogate
    # (surrogateescape), which no UTF-8 output can hold.
    corpus = tmp_path / "corpus.jsonl"
    # The support outside the E57 vocabulary gives validate a finding.
    corpus.write_text('{"1.1": "A", "1.4": "Fonds", "supports": ["Papiro"]}\n', encoding="utf-8")
    graph = tmp_path / "graph.nt"
    assert main(["migrate", "--in", str(corpus), "--out", str(graph)]) == 0
    capsys.readouterr()
    commands = {name: [*argv, str(corpus)] for name, argv in _CORPUS_COMMANDS.items()}
    commands["validate --in"] = ["validate", "--in", str(graph)]
    out = tmp_path / "out"
    assert main([*commands[command], "--base-iri", "https://x.org/\udcff/", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: base IRI 'https://x.org/\\udcff/' holds '\\udcff', which an IRI may not contain\n"
    )
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "value, message",
    [
        ("NaN", "number NaN is not finite"),
        ("Infinity", "number Infinity is not finite"),
        ("-Infinity", "number -Infinity is not finite"),
        ("1e400", "number 1e400 is not finite"),
        ("[" * 100_000, "JSON nested too deeply"),
        ("true", "dimension value must be text or a number"),
        ("false", "dimension value must be text or a number"),
    ],
    ids=["NaN", "Infinity", "-Infinity", "1e400", "deep nesting", "true", "false"],
)
def test_json_the_rdf_cannot_hold_exits_2_naming_the_line(tmp_path, capsysbinary, value, message):
    # RFC 8259 has no NaN or infinity; Python's json reads them, and 1e400 as inf.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"1.1": "Z", "1.4": "Fonds"}\n'
        f'{{"1.1": "A", "1.4": "Fonds", "dimensions": [{{"value": {value}, "unit": "Gram"}}]}}\n',
        encoding="ascii",
    )
    out = tmp_path / "graph.nt"
    assert main(["migrate", "--in", str(corpus), "--out", str(out)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.err == f"error: line 2: {message}\n".encode()
    assert captured.out == b"" and not out.exists()


def test_byte_order_mark_on_a_later_line_exits_2_naming_the_line(tmp_path, capsysbinary):
    # Only a leading byte order mark is dropped; one that starts line 2 is a JSON error.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(
        b'{"1.1": "Z", "1.4": "Fonds"}\n' + codecs.BOM_UTF8 + b'{"1.1": "A", "1.4": "Fonds"}\n'
    )
    out = tmp_path / "graph.nt"
    assert main(["migrate", "--in", str(corpus), "--out", str(out)]) == 2
    captured = capsysbinary.readouterr()
    assert captured.err == (
        b"error: line 2: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))\n"
    )
    assert captured.out == b"" and not out.exists()


def _python(args: list[str], hash_seed: str) -> subprocess.CompletedProcess:
    """Run a new interpreter that imports this package, under the given PYTHONHASHSEED."""
    source = str(Path(archonto.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, check=False)


def _cli_outputs(workdir: Path, hash_seed: str, corpora: dict[str, Path]) -> dict[str, bytes]:
    """Every output, stream and exit status of a fixed command list, each
    command in its own interpreter under the given PYTHONHASHSEED."""
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
            run = _python(["-m", "archonto.cli", *argv], hash_seed)
            # A command on a graph that migrate refused names the graph's path.
            stderr = run.stderr.replace(bytes(workdir), b"WORKDIR")
            outputs[f"{name} {label}"] = b"%d\n%s\n%s" % (run.returncode, run.stdout, stderr)
    for path in sorted(workdir.iterdir()):
        outputs[path.name] = path.read_bytes()
    return outputs


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    entries = synthetic_corpus(random.Random(5), 40)
    entries[3]["production_date_single"] = "circa 1650"
    entries[7]["supports"] = ["Papiro"]  # outside the E57 vocabulary
    synthetic = tmp_path / "synthetic.jsonl"
    synthetic.write_text(corpus_text(entries), encoding="utf-8")
    # Four shape errors in one record: the first one checked is reported.
    shape = tmp_path / "shape.jsonl"
    shape.write_text(
        '{"1.1": "A", "1.4": "Fonds", "title_type": 1, "physical_location": 2, '
        '"original_numbering": 3, "previous_location": 4}\n',
        encoding="utf-8",
    )
    corpora = {"sample": SAMPLE, "synthetic": synthetic, "shape": shape}
    first = _cli_outputs(tmp_path / "seed0", "0", corpora)
    second = _cli_outputs(tmp_path / "seed1", "1", corpora)
    assert first == second
    assert b"vocabulary-violation" in first["synthetic validate"]
    assert b"circa 1650" in first["synthetic.nt.tsv"]
    assert first["shape nt"] == b"2\n\nerror: line 1: field title_type must be a string\n"


def test_nesting_edge_errors_do_not_depend_on_the_hash_seed():
    # load_nesting checks its lines first; a library caller gets the edge check.
    nesting = (
        "from archonto.vocabulary import LevelNestingGraph, VocabularyError\n"
        "try:\n"
        "    LevelNestingGraph(frozenset({('c', 'z'), ('a', 'x'), ('b', 'y')}), frozenset())\n"
        "except VocabularyError as exc:\n"
        "    print(exc)\n"
    )
    assert {_python(["-c", nesting], str(seed)).stdout for seed in range(6)} == {
        b"nesting edge ('a', 'x') uses term 'a' outside the level-of-description vocabulary\n"
    }


def test_base_iri_from_real_argv_bytes_exits_2_and_writes_nothing(tmp_path):
    # An interpreter decodes an argv byte that is not UTF-8 to a lone
    # surrogate, which the base IRI check must refuse before any output.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"1.1": "A", "1.4": "Fonds"}\n', encoding="utf-8")
    out = tmp_path / "graph.nt"
    argv = ["-m", "archonto.cli", "migrate", "--in", str(corpus), "--out", str(out),
            "--base-iri", b"https://x.org/\xff/"]
    run = _python(argv, "0")
    assert run.returncode == 2
    assert run.stderr == (
        b"error: base IRI 'https://x.org/\\udcff/' holds '\\udcff', which an IRI may not contain\n"
    )
    assert run.stdout == b"" and list(tmp_path.iterdir()) == [corpus]


@pytest.mark.parametrize("command", ["validate", "stats"])
@pytest.mark.parametrize("inherit", [[], ["--inherit", "none"]], ids=["default", "none"])
def test_corpus_report_equals_migrate_then_in(tmp_path, command, inherit):
    # --inherit, hidden in the help of validate and stats, reaches their
    # in-memory migration: without inheritance the sample's usage differs.
    graph, by_in, by_corpus = tmp_path / "g.nt", tmp_path / "in.txt", tmp_path / "corpus.txt"
    assert main(["migrate", *inherit, "--in", str(SAMPLE), "--out", str(graph)]) == 0
    assert main([command, "--in", str(graph), "--out", str(by_in)]) == 0
    assert main([command, *inherit, "--corpus", str(SAMPLE), "--out", str(by_corpus)]) == 0
    assert by_corpus.read_bytes() == by_in.read_bytes()
    if command == "stats":
        inherited = tmp_path / "inherited.txt"
        other = [] if inherit else ["--inherit", "none"]
        assert main([command, *other, "--corpus", str(SAMPLE), "--out", str(inherited)]) == 0
        assert inherited.read_bytes() != by_corpus.read_bytes()
