"""In-memory spans and call counts for the traced run.

A span is `[name, start, end, parent]` with `parent` the index of the span
that was open when it started (None for a root).  Call counts come from
wrapping public methods for the duration of one traced job; `instrument`
restores every original on exit.
"""

from __future__ import annotations

import contextlib
import functools
import time

# Validation check functions to time, by the name used in the metric.
VALIDATION_CHECKS = ("triples", "nodes", "documents", "regex_strings", "inverses")

# (module attribute of env, class name, method, counter name)
COUNTED_METHODS = (
    ("graph", "Graph", "register_node", "graph.register_node_calls"),
    ("graph", "Graph", "mint_node", "graph.mint_node_calls"),
    ("graph", "Graph", "add_triple", "graph.add_triple_calls"),
    ("ontology", "OntologySchema", "is_subclass", "ontology.is_subclass_calls"),
    ("vocabulary", "VocabularyRegistry", "contains", "vocabulary.contains_calls"),
    ("vocabulary", "LevelNestingGraph", "allows", "vocabulary.allows_calls"),
)
# Properties that copy the whole graph on every access.
COUNTED_PROPERTIES = (
    ("graph", "Graph", "node_index", "graph.node_index_calls"),
    ("graph", "Graph", "triples", "graph.triples_view_calls"),
)

BLANK_NOTE = "element blank; skipped"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: set[str] = set()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- derived figures ---------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer (the span name up to its first dot), duration minus child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - inner)
        return out

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans
            ],
            "counts": dict(sorted(self.counts.items())),
            "absent": sorted(self.absent),
        }


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans must close, lie inside their parent, and not overlap their siblings."""
    errors = []
    last_end: dict[int | None, float] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {index} ({name}) is not closed after it opened")
            continue
        if parent is not None:
            if not 0 <= parent < index:
                errors.append(f"span {index} ({name}) names parent {parent}, not an earlier span")
                continue
            p_start, p_end = spans[parent][1], spans[parent][2]
            if p_end is None or start < p_start or end > p_end:
                errors.append(f"span {index} ({name}) lies outside its parent {parent}")
        if start < last_end.get(parent, float("-inf")):
            errors.append(f"span {index} ({name}) overlaps an earlier sibling")
        last_end[parent] = end
    return errors


def _rule_counts(tracer: Tracer, trace) -> None:
    """Fold one record's `TraceEntry` tuple into per-rule counts."""
    for entry in trace:
        prefix = f"migration.rule.{entry.rule_no}."
        if entry.application is None:
            if entry.note == BLANK_NOTE:
                tracer.add(prefix + "blank_skipped")
        elif entry.note is None:
            tracer.add(prefix + "fired")
        else:
            tracer.add(prefix + "errored")
        tracer.add("migration.rule_evaluations")
        if entry.triples:
            tracer.add("migration.applications_emitting")


@contextlib.contextmanager
def instrument(env, tracer: Tracer):
    """Wrap the package's functions and methods so they report into `tracer`."""
    restore: list[tuple[object, str, object]] = []

    def replace(owner, attribute: str, wrapper) -> None:
        restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def spanning(fn, name: str, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def counting(fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    try:
        migration = env.migration
        replace(
            migration,
            "migrate_record",
            spanning(
                migration.migrate_record,
                "migration.migrate_record",
                lambda outcome: _rule_counts(tracer, outcome.trace),
            ),
        )
        for check in VALIDATION_CHECKS:
            function = getattr(env.validation, f"_check_{check}", None)
            if function is None:
                tracer.absent.add(check)
                continue
            replace(env.validation, f"_check_{check}", spanning(function, f"validation.check.{check}"))
        for module, cls_name, method, key in COUNTED_METHODS:
            cls = getattr(getattr(env, module), cls_name)
            replace(cls, method, counting(cls.__dict__[method], key))
        for module, cls_name, prop, key in COUNTED_PROPERTIES:
            cls = getattr(getattr(env, module), cls_name)
            replace(cls, prop, property(counting(cls.__dict__[prop].fget, key)))
        yield tracer
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)
