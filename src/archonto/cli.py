"""Command-line front-end for the migration pipeline.

Diagnostics go to stderr and data to the output path or stdout, so graphs
can be piped safely.  Exit status: 0 success, 1 validation errors or
refused records present, 2 input or parse failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .graph import DEFAULT_BASE_IRI, Graph, GraphError
from .mdl import MdlSyntaxError, builtin_rules, parse_mdl, render_mdl
from .migration import MigrationError, migrate_tree
from .ontology import builtin_schema
from .records import CorpusError, DEFAULT_INHERITABLE, parse_corpus, resolve_inheritance
from .stats import render_usage, usage_report
from .validation import validate_graph
from .vocabulary import (
    VocabularyError,
    builtin_nesting,
    builtin_vocabularies,
    load_nesting,
    load_vocabularies,
)

BASE_IRI_ENV = "ARCHONTO_BASE_IRI"

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT_ERROR = 2


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--base-iri",
        default=None,
        help=f"base IRI for minted nodes (default ${BASE_IRI_ENV} or {DEFAULT_BASE_IRI})",
    )
    parser.add_argument("--vocab", type=Path, help="vocabulary file override (CLASS<TAB>TERM)")
    parser.add_argument("--nesting", type=Path, help="nesting file override (UPPER<TAB>LOWER)")
    parser.add_argument("--rules", type=Path, help="MDL rule file override")


def _base_iri(args: argparse.Namespace) -> str:
    return args.base_iri or os.environ.get(BASE_IRI_ENV) or DEFAULT_BASE_IRI


def _load_environment(args: argparse.Namespace):
    schema = builtin_schema()
    if args.vocab is not None:
        registry = load_vocabularies(args.vocab.read_bytes())
    else:
        registry = builtin_vocabularies()
    if args.nesting is not None:
        nesting = load_nesting(args.nesting.read_bytes(), registry)
    else:
        nesting = builtin_nesting()
    if args.rules is not None:
        rules = parse_mdl(args.rules.read_bytes(), schema)
    else:
        rules = builtin_rules()
    return schema, registry, nesting, rules


def _parse_inheritable(spec: str | None) -> frozenset[str]:
    if spec is None:
        return frozenset(DEFAULT_INHERITABLE)
    if spec.strip().lower() == "none":
        return frozenset()
    return frozenset(part.strip() for part in spec.split(",") if part.strip())


def _write_output(data: bytes, out: Path | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
    else:
        out.write_bytes(data)


def _migrate_corpus(corpus_path: Path, args: argparse.Namespace, env):
    schema, registry, _nesting, rules = env
    tree = parse_corpus(Path(corpus_path).read_bytes())
    tree = resolve_inheritance(tree, _parse_inheritable(getattr(args, "inherit", None)))
    return migrate_tree(
        tree,
        rules,
        schema,
        registry,
        base_iri=_base_iri(args),
        strict=getattr(args, "strict", False),
        fail_fast=getattr(args, "fail_fast", False),
    )


def _cmd_migrate(args: argparse.Namespace) -> int:
    env = _load_environment(args)
    result = _migrate_corpus(args.in_path, args, env)
    report = "\n".join(result.report_lines())
    if args.report is not None:
        args.report.write_text(report + ("\n" if report else ""), encoding="utf-8")
    elif report:
        _diag(report)
    _write_output(result.graph.serialize(args.format), args.out)
    return EXIT_FINDINGS if result.has_errors else EXIT_OK


def _graph_for_inspection(args: argparse.Namespace, env) -> Graph:
    schema = env[0]
    if args.in_path is not None:
        return Graph.from_ntriples(
            Path(args.in_path).read_bytes(), schema, _base_iri(args)
        )
    result = _migrate_corpus(args.corpus_path, args, env)
    for line in result.report_lines():
        _diag(line)
    return result.graph


def _cmd_validate(args: argparse.Namespace) -> int:
    env = _load_environment(args)
    schema, registry, nesting, _rules = env
    graph = _graph_for_inspection(args, env)
    report = validate_graph(graph, schema, registry, nesting)
    text = "\n".join(report.lines()) if args.format == "tsv" else report.text().rstrip("\n")
    _write_output((text + "\n").encode("utf-8") if text else b"", args.out)
    return EXIT_FINDINGS if report.error_count else EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    env = _load_environment(args)
    graph = _graph_for_inspection(args, env)
    report = usage_report(graph, env[0])
    _write_output(render_usage(report, args.format).encode("utf-8"), args.out)
    return EXIT_OK


def _cmd_rules(args: argparse.Namespace) -> int:
    schema = builtin_schema()
    if args.check is not None:
        ruleset = parse_mdl(args.check.read_bytes(), schema)
        _diag(f"{args.check}: {len(ruleset.rules)} rule(s) OK")
        return EXIT_OK
    _write_output(render_mdl(builtin_rules(), schema).encode("utf-8"), args.out)
    return EXIT_OK


def _cmd_schema(args: argparse.Namespace) -> int:
    _write_output(builtin_schema().dump().encode("utf-8"), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archonto",
        description="Migrate ISAD(G) archival descriptions to the ArchOnto linked-data model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    migrate = sub.add_parser("migrate", help="corpus -> resolved tree -> graph")
    migrate.add_argument("--in", dest="in_path", type=Path, required=True, help="corpus (JSON Lines)")
    migrate.add_argument("--out", type=Path, help="graph output path (default stdout)")
    migrate.add_argument("--format", choices=("ntriples", "turtle"), default="ntriples")
    migrate.add_argument("--strict", action="store_true", help="reject violations during build")
    migrate.add_argument("--fail-fast", action="store_true", help="abort on the first failing record")
    migrate.add_argument(
        "--inherit",
        help="comma-separated inheritable element ids, or 'none' (default: descriptive areas)",
    )
    migrate.add_argument("--report", type=Path, help="write the record problem report here")
    _add_common(migrate)
    migrate.set_defaults(handler=_cmd_migrate)

    validate = sub.add_parser("validate", help="check a graph or a corpus migration")
    group = validate.add_mutually_exclusive_group(required=True)
    group.add_argument("--in", dest="in_path", type=Path, help="serialized graph (N-Triples)")
    group.add_argument("--corpus", dest="corpus_path", type=Path, help="corpus to migrate in memory")
    validate.add_argument("--out", type=Path, help="report output path (default stdout)")
    validate.add_argument("--format", choices=("text", "tsv"), default="text")
    validate.add_argument("--inherit", help=argparse.SUPPRESS)
    _add_common(validate)
    validate.set_defaults(handler=_cmd_validate)

    stats = sub.add_parser("stats", help="class/property usage report")
    group = stats.add_mutually_exclusive_group(required=True)
    group.add_argument("--in", dest="in_path", type=Path, help="serialized graph (N-Triples)")
    group.add_argument("--corpus", dest="corpus_path", type=Path, help="corpus to migrate in memory")
    stats.add_argument("--out", type=Path, help="output path (default stdout)")
    stats.add_argument("--format", choices=("table", "tsv"), default="table")
    stats.add_argument("--inherit", help=argparse.SUPPRESS)
    _add_common(stats)
    stats.set_defaults(handler=_cmd_stats)

    rules = sub.add_parser("rules", help="dump the built-in rules or check a rule file")
    rules.add_argument("--dump", action="store_true", help="print the built-in rules (default)")
    rules.add_argument("--check", type=Path, help="parse a rule file and report")
    rules.add_argument("--out", type=Path, help="output path (default stdout)")
    rules.set_defaults(handler=_cmd_rules)

    schema = sub.add_parser("schema", help="dump the schema listing")
    schema.add_argument("--dump", action="store_true", help="print the schema listing (default)")
    schema.add_argument("--out", type=Path, help="output path (default stdout)")
    schema.set_defaults(handler=_cmd_schema)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except MigrationError as exc:
        # Only the --fail-fast stop gets here: a refused record, as without it.
        _diag(f"error: {exc}")
        return EXIT_FINDINGS
    except (CorpusError, MdlSyntaxError, VocabularyError, GraphError, OSError) as exc:
        _diag(f"error: {exc}")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
