"""Command-line behaviour: exit codes, determinism, file outputs."""

import json

import pytest

from archonto.cli import main
from archonto.graph import Graph
from archonto.mdl import builtin_rules, parse_mdl
from archonto.ontology import builtin_schema


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
