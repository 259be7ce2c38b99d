"""The package names that the benchmark uses, checked in tier-1.

`bench/tracing.py` replaces each counted method and property on its class
for the length of a traced job, and `bench/selfcheck.py` corrupts a graph
read back through `Graph.copy` and `Graph.remove_triple`.  A rename or
deletion in the package would otherwise show only when the benchmark runs.
The traced run also folds each record's rule trace into its per-rule
counts with `_rule_counts`, so those counts are pinned here.
"""

import importlib
import importlib.util
import inspect
import random
from pathlib import Path

import pytest

from archonto import migration
from archonto.records import parse_corpus, resolve_inheritance

from conftest import corpus_text, synthetic_corpus, with_defects

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_MODULE = _tracing()


def _owner(module: str, cls_name: str):
    return getattr(importlib.import_module(f"archonto.{module}"), cls_name)


@pytest.mark.parametrize("module, cls_name, method, _key", _MODULE.COUNTED_METHODS)
def test_every_counted_method_is_a_function_of_its_class(module, cls_name, method, _key):
    assert inspect.isfunction(_owner(module, cls_name).__dict__.get(method))


@pytest.mark.parametrize("module, cls_name, prop, _key", _MODULE.COUNTED_PROPERTIES)
def test_every_counted_property_is_a_property_of_its_class(module, cls_name, prop, _key):
    assert isinstance(_owner(module, cls_name).__dict__.get(prop), property)


# Called by bench/selfcheck.py, which the tracer's lists do not name.
@pytest.mark.parametrize("method", ["copy", "remove_triple"])
def test_every_graph_method_the_self_check_calls_is_a_function(method):
    assert inspect.isfunction(_owner("graph", "Graph").__dict__.get(method))


# Per-rule counts that `_rule_counts` folds from the rule trace of every record
# of `synthetic_corpus(Random(0), 300)`, clean and with defects (unusable and
# competing single dates, out-of-vocabulary supports): rule -> (fired,
# blank_skipped), then the rule evaluations and the firings that wrote rows.
_DEFECTS = ({3: "circa 1650", 10: "1720", 17: "circa 1650", 25: "1720"}, {5, 12, 30})
_PINNED_RULE_COUNTS = {
    "clean": (
        {1: (300, 0), 2: (300, 0), 3: (300, 0), 4: (100, 200), 5: (109, 191), 6: (91, 209),
         7: (129, 171), 8: (74, 226), 9: (115, 201), 10: (128, 190), 11: (152, 148),
         12: (259, 153), 13: (129, 171), 14: (0, 300), 15: (0, 300), 16: (169, 185),
         17: (247, 53), 18: (108, 192)},
        5600, 2710,
    ),
    "defects": (
        {1: (300, 0), 2: (300, 0), 3: (300, 0), 4: (100, 200), 5: (109, 191), 6: (91, 209),
         7: (129, 171), 8: (75, 225), 9: (115, 201), 10: (128, 190), 11: (155, 146),
         12: (259, 153), 13: (129, 171), 14: (0, 300), 15: (0, 300), 16: (169, 185),
         17: (247, 53), 18: (108, 192)},
        5601, 2714,
    ),
}


@pytest.mark.parametrize("corpus", sorted(_PINNED_RULE_COUNTS))
def test_the_rule_trace_folds_to_the_pinned_counts(corpus, rules, schema, registry, monkeypatch):
    entries = synthetic_corpus(random.Random(0), 300)
    if corpus == "defects":
        entries = with_defects(entries, *_DEFECTS)
    tracer, real = _MODULE.Tracer(), migration.migrate_record

    def traced(*args, **kwargs):
        outcome = real(*args, **kwargs)
        _MODULE._rule_counts(tracer, outcome.trace)
        return outcome

    # migrate_tree calls migrate_record by module attribute, as the traced benchmark relies on.
    monkeypatch.setattr(migration, "migrate_record", traced)
    tree = resolve_inheritance(parse_corpus(corpus_text(entries)))
    migration.migrate_tree(tree, rules, schema, registry)
    counts = tracer.counts
    folded = {
        rule.rule_no: (counts.get(f"migration.rule.{rule.rule_no}.fired", 0),
                       counts.get(f"migration.rule.{rule.rule_no}.blank_skipped", 0))
        for rule in rules.rules
    }
    assert not any(key.endswith(".errored") for key in counts)
    assert (folded, counts["migration.rule_evaluations"],
            counts["migration.applications_emitting"]) == _PINNED_RULE_COUNTS[corpus]
