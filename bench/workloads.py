"""The three workloads: seeded inputs, the job each runs, and its output oracle."""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

from corpus import Defect, corpus_text, expected_counts, inject_defects, shuffled, synthetic_corpus
from pipeline import ROOT, JobOutput, NO_TRACE, fresh_setup, inspect_job, migrate_job

SIZES = {"migrate_clean": 6000, "inspect_graph": 1000, "migrate_dirty": 1000}
WORKLOADS = tuple(SIZES)
DEFECT_SHARE = 0.10
PINS_PATH = ROOT / "bench" / "pinned.json"
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Prepared:
    """A workload's generated inputs; jobs cycle through `inputs`."""

    workload: str
    seed: int
    records: int
    inputs: tuple[bytes, ...]
    defects: tuple[Defect, ...] = ()

    def run(self, env, data: bytes, tracer=NO_TRACE) -> JobOutput:
        if self.workload == "migrate_clean":
            return migrate_job(env, data, "ntriples", False, tracer)
        if self.workload == "inspect_graph":
            return inspect_job(env, data, self.records, tracer)
        return migrate_job(env, data, "turtle", True, tracer)


def _encode(entries: list[dict]) -> bytes:
    return corpus_text(entries).encode("utf-8")


def graph_input(seed: int, size: int) -> bytes:
    """N-Triples of the migrated clean corpus, made in a child process.

    The migration runs in its own process, so that it adds nothing to the
    memory high-water mark of the process that measures `inspect_graph`.
    """
    child = subprocess.run(
        [sys.executable, __file__, "--graph-input", str(seed), str(size)],
        capture_output=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if child.returncode != 0:
        raise RuntimeError(f"making the graph input failed:\n{child.stderr.decode(errors='replace')}")
    return child.stdout


def _write_graph_input(seed: int, size: int) -> None:
    env, _ = fresh_setup()
    entries = synthetic_corpus(random.Random(seed), size)
    tree = env.records.resolve_inheritance(env.records.parse_corpus(_encode(entries)))
    result = env.migration.migrate_tree(tree, env.rules, env.schema, env.registry)
    sys.stdout.buffer.write(result.graph.serialize("ntriples"))


def prepare(env, workload: str, seed: int, size: int | None = None) -> Prepared:
    """Generate the workload's inputs from `seed`; the package only receives them."""
    size = SIZES[workload] if size is None else size
    entries = synthetic_corpus(random.Random(seed), size)
    if workload == "migrate_clean":
        other = shuffled(entries, random.Random(f"{workload}-order-{seed}"))
        return Prepared(workload, seed, size, (_encode(entries), _encode(other)))
    if workload == "inspect_graph":
        return Prepared(workload, seed, size, (graph_input(seed, size),))
    if workload == "migrate_dirty":
        dirty, defects = inject_defects(entries, random.Random(f"{workload}-defects-{seed}"), DEFECT_SHARE)
        dirty = shuffled(dirty, random.Random(f"{workload}-order-{seed}"))
        return Prepared(workload, seed, size, (_encode(dirty),), defects)
    raise ValueError(f"unknown workload {workload!r}")


# -- oracles -------------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(output: JobOutput) -> dict[str, str]:
    return {"data": sha256(output.data), "report": sha256(output.report)}


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def pin_for(pins: dict, prepared: Prepared) -> dict[str, str] | None:
    return pins.get(prepared.workload, {}).get(str(prepared.seed))


def _check_clean(prepared: Prepared, output: JobOutput) -> list[str]:
    if output.problems:
        return [f"clean corpus produced problems {output.problems}"]
    return []


def _check_inspect(prepared: Prepared, output: JobOutput) -> list[str]:
    errors = []
    if output.findings:
        errors.append(f"clean graph produced findings {output.findings}")
    graph, usage = output.graph, output.usage
    if graph.serialize("ntriples") != prepared.inputs[0]:
        errors.append("serialize(read(input)) differs from the input bytes")
    triples, nodes = len(graph), len(graph.node_index)
    if sum(count for _, _, count in usage.property_counts) != triples:
        errors.append("stats property counts do not sum to the triple count")
    if usage.total_properties != triples:
        errors.append("stats ontology totals do not sum to the triple count")
    if sum(count for _, _, count in usage.class_counts) != nodes:
        errors.append("stats class counts do not sum to the node count")
    return errors


def _check_dirty(prepared: Prepared, output: JobOutput) -> list[str]:
    expected = expected_counts(prepared.defects)
    errors = []
    if output.findings != expected["findings"]:
        errors.append(f"findings {output.findings} != injected {expected['findings']}")
    if output.problems != expected["problems"]:
        errors.append(f"problems {output.problems} != injected {expected['problems']}")
    return errors


_CHECKS: dict[str, Callable[[Prepared, JobOutput], list[str]]] = {
    "migrate_clean": _check_clean,
    "inspect_graph": _check_inspect,
    "migrate_dirty": _check_dirty,
}


def check(
    prepared: Prepared,
    output: JobOutput,
    reference: dict[str, str] | None,
    pin: dict[str, str] | None,
) -> list[str]:
    """Every oracle of the workload; an empty list means the output is correct.

    `reference` is the digest of an earlier job of the same run: jobs on a
    reordered copy of the input must match it byte for byte.  `pin` is the
    committed digest for this seed, where one exists.
    """
    errors = _CHECKS[prepared.workload](prepared, output)
    got = digest(output)
    if reference is not None and got != reference:
        errors.append("output differs from an earlier job of this run")
    if pin is not None:
        for key, value in got.items():
            if pin[key] != value:
                errors.append(f"{key} SHA-256 {value} differs from the pinned {pin[key]}")
        if "input" in pin and sha256(prepared.inputs[0]) != pin["input"]:
            errors.append("input SHA-256 differs from the pinned one")
    return errors


if __name__ == "__main__":
    # python3 bench/workloads.py --graph-input SEED SIZE  (see `graph_input`)
    if sys.argv[1:2] != ["--graph-input"] or len(sys.argv) != 4:
        sys.exit("usage: workloads.py --graph-input SEED SIZE")
    _write_graph_input(int(sys.argv[2]), int(sys.argv[3]))
