"""Benchmark of the archonto pipeline, one workload per process.

    python3 bench/run.py --workload migrate_clean --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's `src/`, never from an installed copy.  Jobs run one at a time
(closed loop, one client, no threads) for about `--seconds`; each output
goes through the workload's oracle.  Job and set-up times are scaled by a
reference task timed next to them, which takes out the drift of a shared
machine's speed (see `reference_s`).  The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`, which
holds the end-to-end metrics with `--trace 0` and the per-layer metrics
with `--trace 1`.  The traced run also writes its spans and counts to
`bench/out/trace-<workload>-seed<seed>.json`.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pipeline  # noqa: E402
from tracing import VALIDATION_CHECKS, Tracer, instrument, nesting_errors  # noqa: E402
from workloads import WORKLOADS, check, digest, load_pins, pin_for, prepare  # noqa: E402

OUT_DIR = pipeline.ROOT / "bench" / "out"
SETUPS_PER_JOB = 4
MIN_JOBS = 2
# End-to-end times are scaled to the machine speed at which the reference
# task takes this long, about its time on the 2-vCPU machine the baseline
# was recorded on (see `reference_s`).
REFERENCE_S = 0.17
REFERENCE_NODES = 60_000
REFERENCE_REPEATS = 3

# Every metric's unit, from the one place that declares the metrics.
UNITS = {
    metric["name"]: metric["unit"]
    for kind in ("end_to_end", "per_layer")
    for metric in json.loads((pipeline.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
}
# Per-layer span totals: metric name -> span name.
SPAN_METRICS = {
    "records.parse_s": "records.parse",
    "records.inherit_s": "records.inherit",
    "migration.migrate_s": "migration.migrate_tree",
    "graph.serialize_nt_s": "graph.serialize_nt",
    "graph.serialize_ttl_s": "graph.serialize_ttl",
    "graph.read_nt_s": "graph.read_nt",
    "validation.validate_s": "validation.validate",
    "stats.usage_s": "stats.usage",
}
LAYERS = ("bench", "records", "migration", "graph", "validation", "stats")
CALL_COUNTS = (
    "graph.node_index_calls",
    "graph.triples_view_calls",
    "graph.register_node_calls",
    "graph.mint_node_calls",
    "graph.add_triple_calls",
    "ontology.is_subclass_calls",
    "vocabulary.contains_calls",
    "vocabulary.allows_calls",
)
PROBLEM_SEVERITIES = ("warning", "error")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _reference_task() -> int:
    """Fixed pure-Python work that never calls the package.

    It builds a throw-away object graph, reads it in random order and runs
    a full collection over it: the memory traffic that dominates the
    pipeline, so that it slows down with the pipeline when a neighbour on
    the machine contends for the caches and memory.
    """
    nodes = [(i, f"urn:node:{i}", [i]) for i in range(REFERENCE_NODES)]
    rng = random.Random(REFERENCE_NODES)
    total = sum(nodes[rng.randrange(REFERENCE_NODES)][2][0] for _ in range(REFERENCE_NODES))
    gc.collect()
    return total


def reference_s() -> float:
    """The machine's present speed, as the median time of the reference task.

    A shared machine's speed drifts by up to 1.5x over minutes.  The drift
    slows the reference task and the jobs alike, so a job's time divided by
    the reference time next to it repeats better across runs than its wall
    time does; a change to the package moves the one and not the other.
    The speed also flickers within a second, hence the median of repeats.
    """
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        _reference_task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Session:
    """Runs jobs, checks every output and keeps what the metrics need."""

    def __init__(self, env, prepared, pin, traced: bool) -> None:
        self.env = env
        self.setups: list[pipeline.SetupTimes] = []
        self.prepared = prepared
        self.pin = pin
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None
        # Kept only when traced, for the command-line job to match.
        self.keep_output = traced
        self.first_output: tuple[bytes, bytes] | None = None
        self.triples = 0
        self.walls: list[float] = []
        # Untraced job and set-up times scaled to the reference speed.
        self.scaled_walls: list[float] = []
        self.scaled_setups: list[float] = []
        self.traced: list[tuple[Tracer, dict, float]] = []

    def job(self, data: bytes, traced: bool, prepared=None) -> tuple[Tracer, dict, float] | None:
        """One timed job and its oracle; returns (tracer, summary, wall) if it passed."""
        prepared = prepared or self.prepared
        main = prepared is self.prepared
        tracer = Tracer()
        self.attempted += 1
        gc.collect()
        try:
            if traced:
                with instrument(self.env, tracer):
                    start = time.perf_counter()
                    with tracer.span("bench.job"):
                        output = prepared.run(self.env, data, tracer)
                    wall = time.perf_counter() - start
            else:
                start = time.perf_counter()
                output = prepared.run(self.env, data)
                wall = time.perf_counter() - start
            errors = check(prepared, output, self.reference if main else None, self.pin if main else None)
            errors += nesting_errors(tracer.spans)
        except Exception:
            errors = [traceback.format_exc()]
        if errors:
            self.failed += 1
            log(f"job {self.attempted} failed its output check:\n  " + "\n  ".join(errors))
            return None
        log(f"job {self.attempted}: {wall:.4f} s{' traced' if traced else ''}")
        summary = summarize(output) if traced else {}
        if main:
            if self.reference is None:
                self.reference = digest(output)
                if self.keep_output:
                    self.first_output = (output.data, output.report)
                self.triples = len(output.graph)
            if traced:
                self.traced.append((tracer, summary, wall))
            else:
                self.walls.append(wall)
        return tracer, summary, wall

    def loop(self, seconds: float, trace: bool) -> None:
        """Jobs until the next would end after `seconds`; traced runs alternate.

        Each job is followed by `SETUPS_PER_JOB` timed set-ups, so that their
        median does not hang on one stretch of a shared machine's speed, and
        then by a reference measurement.  An untraced job is scaled by the
        mean of the references just before and after it, a set-up by the
        one just after it.
        """
        inputs = self.prepared.inputs
        start = time.perf_counter()
        before = reference_s()
        index = 0
        while True:
            began = time.perf_counter()
            traced = trace and index % 2 == 1
            data = inputs[(index // (2 if trace else 1)) % len(inputs)]
            passed = self.job(data, traced)
            setups = self.time_setups(SETUPS_PER_JOB)
            after = reference_s()
            if passed is not None and not traced:
                self.scaled_walls.append(passed[2] * REFERENCE_S / ((before + after) / 2))
            self.scaled_setups += [t.total_s * REFERENCE_S / after for t in setups]
            before = after
            index += 1
            now = time.perf_counter()
            if index >= max(MIN_JOBS, len(inputs)) and now - start + (now - began) > seconds:
                break

    def time_setups(self, count: int) -> list[pipeline.SetupTimes]:
        """Time `count` more set-ups of the package; jobs keep using `self.env`."""
        times = []
        for _ in range(count):
            gc.collect()
            times.append(pipeline.fresh_setup()[1])
        self.setups += times
        return times

    def cli(self) -> float:
        """The workload's job through `archonto.cli.main`; its output must match."""
        self.attempted += 1
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        gc.collect()
        try:
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
                start = time.perf_counter()
                produced = pipeline.cli_job(self.prepared.workload, self.prepared.inputs[0], Path(workdir))
                spent = time.perf_counter() - start
        except Exception:
            produced, spent = None, 0.0
            log(traceback.format_exc())
        if produced is None or produced != self.first_output:
            self.failed += 1
            log("the command-line job's output differs from the in-process job's")
        return spent


def summarize(output) -> dict:
    """Counts a traced job's output gives, taken after the wrappers are gone."""
    inherited = 0
    if output.tree is not None:
        inherited = sum(
            1
            for record in output.tree.records.values()
            for provenance in record.provenance.values()
            if provenance.inherited
        )
    return {
        "records.inherited_elements": inherited,
        "graph.triples": len(output.graph),
        "graph.nodes": len(output.graph.node_index),
        "graph.bytes_out": len(output.data) + len(output.report),
        **{f"migration.problems.{s}": output.problems.get(s, 0) for s in PROBLEM_SEVERITIES},
        "findings": dict(output.findings),
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(session: Session) -> dict[str, float]:
    log(f"unscaled: wall_s {_median(session.walls):.4f}, "
        f"setup_s {_median(t.total_s for t in session.setups):.5f}")
    wall = _median(session.scaled_walls)
    return {
        "wall_s": wall,
        "records_per_s": session.prepared.records / wall,
        "triples_per_s": session.triples / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": _median(session.scaled_setups),
    }


def per_layer(session: Session, half, cli_s: float) -> dict[str, float]:
    env = session.env
    setup_times = session.setups
    jobs = session.traced
    tracers = [tracer for tracer, _, _ in jobs]
    first_tracer, first_summary, _ = jobs[0]

    def span_median(span: str) -> float:
        return _median(t.totals().get(span, 0.0) for t in tracers)

    metrics: dict[str, float] = {}
    for key in ("records.inherited_elements", "graph.triples", "graph.nodes", "graph.bytes_out"):
        metrics[key] = first_summary[key]
    for metric, span in SPAN_METRICS.items():
        metrics[metric] = span_median(span)
    for check in VALIDATION_CHECKS:
        if check not in first_tracer.absent:
            metrics[f"validation.check.{check}_s"] = span_median(f"validation.check.{check}")
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = _median(t.self_times().get(layer, 0.0) for t in tracers)
    counts = first_tracer.counts
    for key in CALL_COUNTS:
        metrics[key] = counts.get(key, 0)
    for severity in PROBLEM_SEVERITIES:
        metrics[f"migration.problems.{severity}"] = first_summary[f"migration.problems.{severity}"]
    for rule in env.rules.rules:
        for outcome in ("fired", "blank_skipped", "errored"):
            key = f"migration.rule.{rule.rule_no}.{outcome}"
            metrics[key] = counts.get(key, 0)
    metrics["migration.fire_ratio"] = _ratio(
        counts.get("migration.applications_emitting", 0), counts.get("migration.rule_evaluations", 0)
    )
    for code in sorted(env.validation.FINDING_CODES):
        metrics[f"validation.findings.{code}"] = first_summary["findings"].get(code, 0)
    half_tracer = half[0] if half is not None else Tracer()
    for layer, span in (("migration", "migration.migrate_tree"), ("validation", "validation.validate")):
        metrics[f"{layer}.doubling_ratio"] = _ratio(
            span_median(span), half_tracer.totals().get(span, 0.0)
        )
    setup_total = _median(t.total_s for t in setup_times)
    for layer, attribute in (("ontology", "ontology_s"), ("vocabulary", "vocabulary_s"), ("mdl", "mdl_s")):
        metrics[f"{layer}.setup_share"] = _median(getattr(t, attribute) for t in setup_times) / setup_total
    metrics["cli.main_s"] = cli_s
    metrics["trace.overhead_s"] = _median(w for _, _, w in jobs) - _median(session.walls)
    metrics["trace.spans"] = len(first_tracer.spans)
    return metrics


def write_trace(session: Session, half, seed: int) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{session.prepared.workload}-seed{seed}.json"
    jobs = [dict(t.to_json(), wall_s=wall, traced=True) for t, _, wall in session.traced]
    if half is not None:
        jobs.append(dict(half[0].to_json(), wall_s=half[2], traced=True, half_size=True))
    body = {
        "workload": session.prepared.workload,
        "seed": seed,
        "untraced_walls_s": session.walls,
        "jobs": jobs,
    }
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pipeline.fresh_setup()  # untimed: writes bytecode, fills the file cache
        env, _ = pipeline.fresh_setup()
    except ImportError as exc:
        log(f"error: cannot import the package from {pipeline.SRC}: {exc}")
        return 2
    prepared = prepare(env, args.workload, args.seed)
    session = Session(env, prepared, pin_for(load_pins(), prepared), bool(args.trace))
    session.loop(args.seconds, bool(args.trace))
    metrics: dict[str, float] = {}
    if not session.walls:
        log("error: no job passed its output check")
    elif args.trace:
        half_prepared = prepare(env, args.workload, args.seed, prepared.records // 2)
        half = session.job(half_prepared.inputs[0], True, half_prepared)
        cli_s = session.cli()
        if session.traced:
            metrics = per_layer(session, half, cli_s)
            log(f"trace written to {write_trace(session, half, args.seed)}")
        else:
            log("error: no traced job passed its output check")
    else:
        metrics = end_to_end(session)
    # The result line is printed even when no job passed, so that the
    # failures are counted; such a run has no metrics and exits with 1.
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
