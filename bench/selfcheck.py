"""Checks of the benchmark itself; exits non-zero if any fails.

    python3 bench/selfcheck.py

* the frozen generator still emits what the test suite's generator emits;
* each workload's oracle accepts a correct output and rejects corrupted ones;
* the traced run's span tree nests, and a broken tree is caught;
* a small traced and untraced session report exactly the metrics named in
  `BENCHMARK.json`.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import run  # noqa: E402
from pipeline import ROOT, SRC, fresh_setup  # noqa: E402
from tracing import Tracer, instrument, nesting_errors  # noqa: E402
from workloads import WORKLOADS, check, digest, prepare  # noqa: E402

SMALL = 150
failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def check_generator() -> None:
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    for seed in (0, 1, 7, 123):
        for size in (0, 1, 40, SMALL, 1000):
            same = corpus.synthetic_corpus(random.Random(seed), size) == suite.synthetic_corpus(
                random.Random(seed), size
            )
            expect(same, f"generator matches the suite's for seed {seed}, size {size}")
    entries = corpus.synthetic_corpus(random.Random(3), 40)
    expect(corpus.corpus_text(entries) == suite.corpus_text(entries), "corpus_text matches the suite's")


def corruptions(workload: str, output):
    """(label, corrupted output, caught without a digest) the oracle must reject.

    A flipped byte is caught only by comparing digests; the other
    corruptions must also fail the workload's own checks.
    """
    flipped = output.data[:-2] + bytes([output.data[-2] ^ 1]) + output.data[-1:]
    yield "one output byte flipped", dataclasses.replace(output, data=flipped), False
    yield "report changed", dataclasses.replace(output, report=output.report + b"x"), False
    if workload == "migrate_clean":
        yield "a problem reported", dataclasses.replace(output, problems={"warning": 1}), True
    elif workload == "inspect_graph":
        yield "a finding reported", dataclasses.replace(output, findings={"domain-violation": 1}), True
        graph = output.graph.copy()
        graph.remove_triple(next(iter(graph.triples)))
        yield "a triple lost in reading", dataclasses.replace(output, graph=graph), True
        usage = dataclasses.replace(output.usage, property_counts=output.usage.property_counts[1:])
        yield "stats counts short of the triples", dataclasses.replace(output, usage=usage), True
    else:
        findings = dict(output.findings)
        findings["vocabulary-violation"] = findings.get("vocabulary-violation", 0) - 1
        yield "a finding missing", dataclasses.replace(output, findings=findings), True
        problems = {"warning": 1, "error": 1}
        yield "problems miscounted", dataclasses.replace(output, problems=problems), True


def check_oracles(env) -> None:
    for workload in WORKLOADS:
        prepared = prepare(env, workload, 5, SMALL)
        output = prepared.run(env, prepared.inputs[0])
        good = digest(output)
        expect(check(prepared, output, good, good) == [], f"{workload}: a correct output passes")
        for data in prepared.inputs[1:]:
            other = prepared.run(env, data)
            expect(check(prepared, other, good, None) == [], f"{workload}: a reordered input passes")
        for label, bad, structural in corruptions(workload, output):
            expect(check(prepared, bad, good, None) != [], f"{workload}: an earlier job's digest rejects {label}")
            expect(check(prepared, bad, None, good) != [], f"{workload}: the pin rejects {label}")
            if structural:
                expect(check(prepared, bad, None, None) != [], f"{workload}: the oracle alone rejects {label}")
    prepared = prepare(env, "migrate_dirty", 5, SMALL)
    kinds = {defect.kind for defect in prepared.defects}
    expect(kinds == set(corpus.DEFECT_KINDS), "the injector used every defect kind")


def check_spans(env) -> None:
    for workload in WORKLOADS:
        prepared = prepare(env, workload, 2, SMALL)
        tracer = Tracer()
        with instrument(env, tracer):
            with tracer.span("bench.job"):
                prepared.run(env, prepared.inputs[0], tracer)
        spans = tracer.spans
        expect(nesting_errors(spans) == [], f"{workload}: traced spans nest")
        parents = {spans[p][0] if p is not None else None for name, _, _, p in spans if name.startswith("validation.check.")}
        if workload != "migrate_clean":
            expect(parents == {"validation.validate"}, f"{workload}: checks nest under validate")
        records = [spans[p][0] for name, _, _, p in spans if name == "migration.migrate_record"]
        if workload != "inspect_graph":
            expect(set(records) == {"migration.migrate_tree"} and len(records) == SMALL,
                   f"{workload}: one migrate_record span per record under migrate_tree")
        self_total = sum(tracer.self_times().values())
        root = spans[0][2] - spans[0][1]
        expect(abs(self_total - root) < 1e-6, f"{workload}: layer self times add up to the job")
    base = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 5.0, 9.0, 0]]
    expect(nesting_errors(base) == [], "a well-formed tree passes")
    broken = {
        "child outside parent": base + [["d", 9.5, 11.0, 0]],
        "overlapping siblings": base + [["d", 8.0, 9.5, 0]],
        "unclosed span": base + [["d", 9.6, None, 0]],
        "parent after child": [["a", 0.0, 1.0, 1], ["b", 0.0, 2.0, None]],
    }
    for label, spans in broken.items():
        expect(nesting_errors(spans) != [], f"the nesting check catches: {label}")


def check_metric_names(env) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    for workload in WORKLOADS:
        prepared = prepare(env, workload, 1, SMALL)
        session = run.Session(env, prepared, None, True)
        session.loop(0, True)
        half_prepared = prepare(env, workload, 1, SMALL // 2)
        half = session.job(half_prepared.inputs[0], True, half_prepared)
        layer = run.per_layer(session, half, session.cli())
        plain = run.end_to_end(session)
        expect(session.failed == 0, f"{workload}: a small traced session passes its oracles")
        expect(set(plain) == end_to_end, f"{workload}: end-to-end metrics match BENCHMARK.json")
        expect(set(layer) == per_layer, f"{workload}: per-layer metrics match BENCHMARK.json "
               f"(extra {sorted(set(layer) - per_layer)}, missing {sorted(per_layer - set(layer))})")
        expect(all(v > 0 for v in plain.values()), f"{workload}: no end-to-end metric reads 0")


def main() -> int:
    env, _ = fresh_setup()
    print(f"package under test: {SRC}")
    check_generator()
    check_oracles(env)
    check_spans(env)
    check_metric_names(env)
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
