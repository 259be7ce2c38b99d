"""The measured pipeline: a fresh set-up of the package and one job per workload.

Each job calls the package's public functions in the order `archonto.cli`
calls them, from input bytes to output bytes.  Spans are opened around each
call into a layer through the `tracer` argument; an untraced job passes
`NO_TRACE`, whose spans cost one attribute lookup.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_MODULES = ("graph", "mdl", "migration", "ontology", "records", "stats", "validation", "vocabulary")


class _NoTrace:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NO_TRACE = _NoTrace()


@dataclass(frozen=True)
class SetupTimes:
    """Seconds spent importing the package and building each built-in."""

    import_s: float
    ontology_s: float
    vocabulary_s: float
    mdl_s: float

    @property
    def total_s(self) -> float:
        return self.import_s + self.ontology_s + self.vocabulary_s + self.mdl_s


# Modules loaded before the package was first imported; set by `fresh_setup`.
_loaded_before: set[str] | None = None


def _forget_package() -> None:
    """Drop the package and every module first loaded by importing it."""
    for name in [n for n in sys.modules if n not in _loaded_before]:
        del sys.modules[name]


def fresh_setup() -> tuple[SimpleNamespace, SetupTimes]:
    """Import `archonto` from this checkout's `src/` anew and build its built-ins.

    The package's modules, and the standard-library modules that only it
    imports, are dropped from `sys.modules` and the `re` cache is purged
    first, so each call pays what a new process pays for `import archonto`.
    Call once untimed first, which writes bytecode and fills the file cache.
    """
    global _loaded_before
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if _loaded_before is None:
        _loaded_before = set(sys.modules)
    _forget_package()
    re.purge()
    t0 = time.perf_counter()
    archonto = importlib.import_module("archonto")
    t1 = time.perf_counter()
    schema = archonto.builtin_schema()
    t2 = time.perf_counter()
    registry = archonto.builtin_vocabularies()
    nesting = archonto.builtin_nesting()
    t3 = time.perf_counter()
    rules = archonto.builtin_rules()
    t4 = time.perf_counter()
    location = Path(archonto.__file__).resolve()
    if location.parent != SRC / "archonto":
        raise ImportError(f"archonto was imported from {location}, not from {SRC}")
    env = SimpleNamespace(
        package=archonto,
        schema=schema,
        registry=registry,
        nesting=nesting,
        rules=rules,
        **{name: sys.modules[f"archonto.{name}"] for name in _MODULES},
    )
    return env, SetupTimes(t1 - t0, t2 - t1, t3 - t2, t4 - t3)


# -- jobs ------------------------------------------------------------------------


@dataclass
class JobOutput:
    """What one job produced, plus what the oracles and per-layer metrics read."""

    data: bytes
    report: bytes
    records: int
    graph: object
    problems: dict[str, int] = field(default_factory=dict)
    findings: dict[str, int] = field(default_factory=dict)
    tree: object = None
    usage: object = None


def _tally(values) -> dict[str, int]:
    counts: dict[str, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return dict(sorted(counts.items()))


def _problem_report(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def migrate_job(env, corpus: bytes, format: str, validate: bool, tracer=NO_TRACE) -> JobOutput:
    """`archonto migrate` (and, with `validate`, `validate --corpus`) in one pass."""
    with tracer.span("records.parse"):
        tree = env.records.parse_corpus(corpus)
    with tracer.span("records.inherit"):
        tree = env.records.resolve_inheritance(tree)
    with tracer.span("migration.migrate_tree"):
        result = env.migration.migrate_tree(tree, env.rules, env.schema, env.registry)
    suffix = "nt" if format == "ntriples" else "ttl"
    with tracer.span(f"graph.serialize_{suffix}"):
        data = result.graph.serialize(format)
    report = _problem_report(result.report_lines())
    findings: dict[str, int] = {}
    if validate:
        with tracer.span("validation.validate"):
            validation = env.validation.validate_graph(
                result.graph, env.schema, env.registry, env.nesting
            )
        report += validation.text().encode("utf-8")
        findings = _tally(f.code for f in validation.findings)
    return JobOutput(
        data=data,
        report=report,
        records=result.record_count,
        graph=result.graph,
        problems=_tally(p.severity for p in result.problems),
        findings=findings,
        tree=tree,
    )


def inspect_job(env, ntriples: bytes, records: int, tracer=NO_TRACE) -> JobOutput:
    """`archonto validate --in` then `archonto stats --in` on one graph."""
    with tracer.span("graph.read_nt"):
        graph = env.graph.Graph.from_ntriples(ntriples, env.schema)
    with tracer.span("validation.validate"):
        validation = env.validation.validate_graph(graph, env.schema, env.registry, env.nesting)
    with tracer.span("stats.usage"):
        usage = env.stats.usage_report(graph, env.schema)
        table = env.stats.render_usage(usage, "table")
    return JobOutput(
        data=table.encode("utf-8"),
        report=validation.text().encode("utf-8"),
        records=records,
        graph=graph,
        findings=_tally(f.code for f in validation.findings),
        usage=usage,
    )


# -- the same jobs through the command line ----------------------------------------


def _main(argv: list[str], allowed: tuple[int, ...]) -> None:
    cli = importlib.import_module("archonto.cli")
    diagnostics = io.StringIO()
    with contextlib.redirect_stderr(diagnostics):
        code = cli.main(argv)
    if code not in allowed:
        raise RuntimeError(f"archonto {argv[0]} exited with {code}: {diagnostics.getvalue()}")


def cli_job(workload: str, source: bytes, workdir: Path) -> tuple[bytes, bytes]:
    """Run the workload's job through `archonto.cli.main` with files in `workdir`.

    Returns (data, report) read back from the files the commands wrote.
    """
    given = workdir / ("graph.nt" if workload == "inspect_graph" else "corpus.jsonl")
    given.write_bytes(source)
    out, report = workdir / "out", workdir / "report"
    if workload == "migrate_clean":
        _main(["migrate", "--in", str(given), "--out", str(out), "--report", str(report)], (0,))
        return out.read_bytes(), report.read_bytes()
    if workload == "inspect_graph":
        _main(["validate", "--in", str(given), "--out", str(report)], (0,))
        _main(["stats", "--in", str(given), "--out", str(out)], (0,))
        return out.read_bytes(), report.read_bytes()
    found = workdir / "findings"
    _main(["migrate", "--in", str(given), "--out", str(out), "--format", "turtle",
                "--report", str(report)], (0,))
    # Validation errors are the expected outcome on this corpus: exit 1.
    _main(["validate", "--corpus", str(given), "--out", str(found)], (0, 1))
    return out.read_bytes(), report.read_bytes() + found.read_bytes()
