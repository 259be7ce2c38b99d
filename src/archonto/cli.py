"""Command-line front-end for the migration pipeline.

Diagnostics go to stderr and data to the output path or stdout, so graphs
can be piped safely.  Exit status: 0 success, 1 validation errors or
refused records present, 2 input or parse failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import secrets
import sys
from collections.abc import Iterator
from pathlib import Path
from typing import BinaryIO

from .graph import DEFAULT_BASE_IRI, Graph, GraphError
from .mdl import MdlSyntaxError, builtin_rules, parse_mdl, render_mdl
from .migration import MigrationError, migrate_tree, range_mismatches
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


@contextlib.contextmanager
def _output_file(path: Path) -> Iterator[BinaryIO]:
    """A binary sink that becomes ``path`` only if the block ends without an
    exception: a temporary file beside the target, renamed over it then and
    removed otherwise.  A target that exists and is no regular file (a
    device, a pipe or a directory) is opened, or refused, in place."""
    target = Path(os.path.realpath(path))
    if target.exists() and not target.is_file():
        with open(target, "wb") as sink:
            yield sink
        return
    temp = target.parent / f".{target.name}.{secrets.token_hex(8)}.tmp"
    try:
        sink = os.fdopen(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
    except OSError as exc:  # named by the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with sink:
            yield sink
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _sink(path: Path | None) -> contextlib.AbstractContextManager[BinaryIO]:
    """Standard output, or ``path`` through :func:`_output_file`.  Every
    command opens its outputs before it reads any input, so that a path that
    cannot be written fails at once, and each appears only on success."""
    if path is None:
        return contextlib.nullcontext(sys.stdout.buffer)
    return _output_file(path)


# Each input option's attribute, by flag.
_INPUTS = {"--in": "in_path", "--corpus": "corpus_path", "--vocab": "vocab", "--nesting": "nesting",
           "--rules": "rules"}


def _refuse_overwrite(args: argparse.Namespace) -> None:
    """Raise FileExistsError if an output, renamed over its real path, would
    replace a file the command reads or the other output."""
    out, report, real = args.out, getattr(args, "report", None), os.path.realpath
    if out and report and real(out) == real(report) and (os.path.isfile(out) or not os.path.exists(out)):
        raise FileExistsError(f"--out and --report name the same file: {report}")
    for name, target in (("--out", out), ("--report", report)):
        for flag, dest in _INPUTS.items():
            source = getattr(args, dest, None)
            if target and source and os.path.isfile(source) and real(target) == real(source):
                raise FileExistsError(f"{name} names the {flag} file: {target}")


def _cmd_migrate(args: argparse.Namespace) -> int:
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(_sink(args.out))
        report_file = None if args.report is None else stack.enter_context(_output_file(args.report))
        env = _load_environment(args)
        result = _migrate_corpus(args.in_path, args, env)
        report = "\n".join(result.report_lines())
        if report_file is not None:
            report_file.write((report + "\n" if report else "").encode("utf-8"))
        elif report:
            _diag(report)
        # Written in chunks: the whole output never exists as one bytes object.
        result.graph.write(out, args.format)
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
    with _sink(args.out) as out:
        env = _load_environment(args)
        schema, registry, nesting, _rules = env
        graph = _graph_for_inspection(args, env)
        report = validate_graph(graph, schema, registry, nesting)
        text = "\n".join(report.lines()) if args.format == "tsv" else report.text().rstrip("\n")
        out.write((text + "\n").encode("utf-8") if text else b"")
    return EXIT_FINDINGS if report.error_count else EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    with _sink(args.out) as out:
        env = _load_environment(args)
        graph = _graph_for_inspection(args, env)
        out.write(render_usage(usage_report(graph, env[0]), args.format).encode("utf-8"))
    return EXIT_OK


def _cmd_rules(args: argparse.Namespace) -> int:
    schema = builtin_schema()
    if args.check is not None:
        ruleset = parse_mdl(args.check.read_bytes(), schema)
        # Non-strict migration accepts these rules, so they only warn.
        for mismatch in range_mismatches(ruleset, schema):
            _diag(f"warning: {mismatch}")
        _diag(f"{args.check}: {len(ruleset.rules)} rule(s) OK")
        return EXIT_OK
    with _sink(args.out) as out:
        out.write(render_mdl(builtin_rules(), schema).encode("utf-8"))
    return EXIT_OK


def _cmd_schema(args: argparse.Namespace) -> int:
    with _sink(args.out) as out:
        out.write(builtin_schema().dump().encode("utf-8"))
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

    # The commands that read a graph, or migrate a corpus to one, and report
    # on it: name, help, --out help, formats (the first is the default), handler.
    for name, help_text, out_help, formats, handler in (
        ("validate", "check a graph or a corpus migration", "report output path (default stdout)",
         ("text", "tsv"), _cmd_validate),
        ("stats", "class/property usage report", "output path (default stdout)",
         ("table", "tsv"), _cmd_stats),
    ):
        inspect = sub.add_parser(name, help=help_text)
        group = inspect.add_mutually_exclusive_group(required=True)
        group.add_argument("--in", dest="in_path", type=Path, help="serialized graph (N-Triples)")
        group.add_argument("--corpus", dest="corpus_path", type=Path, help="corpus to migrate in memory")
        inspect.add_argument("--out", type=Path, help=out_help)
        inspect.add_argument("--format", choices=formats, default=formats[0])
        inspect.add_argument("--inherit", help=argparse.SUPPRESS)
        _add_common(inspect)
        inspect.set_defaults(handler=handler)

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
        _refuse_overwrite(args)  # before any input is read
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
