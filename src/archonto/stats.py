"""Usage accounting: class and property occurrence counts per source ontology."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .graph import Graph
from .ontology import OntologySchema

UNKNOWN_BUCKET = "unknown"


@dataclass(frozen=True)
class UsageReport:
    """Counts in descending order; ties broken by identifier."""

    class_counts: tuple[tuple[str, str, int], ...]
    property_counts: tuple[tuple[str, str, int], ...]
    ontology_totals: tuple[tuple[str, int], ...]

    @property
    def total_properties(self) -> int:
        return sum(count for _, count in self.ontology_totals)


def usage_report(graph: Graph, schema: OntologySchema | None = None) -> UsageReport:
    """Tally node classes and triple properties, grouped by source ontology.

    Type assertions added at serialization time are not triples and are not
    counted; only modelled statements are.
    """
    schema = schema or graph.schema
    class_tally = Counter(class_id or "(untyped)" for class_id in graph._nodes.values())
    # Rows by property id, a foreign predicate keeping its IRI: counted per IRI, then folded.
    property_ids, property_tally = graph._terms.property_ids, Counter[str]()
    for p, count in Counter(map(itemgetter(1), graph._triples)).items():
        property_tally[property_ids.get(p, p)] += count

    def ranked(tally: dict[str, int], terms) -> tuple[tuple[str, str, int], ...]:
        sources = {term.identifier: term.source.value for term in terms}
        rows = [(sources.get(i, UNKNOWN_BUCKET), i, count) for i, count in tally.items()]
        rows.sort(key=lambda row: (-row[2], row[1]))
        return tuple(rows)

    properties = ranked(property_tally, schema.properties)
    totals: dict[str, int] = {}
    for ontology, _, count in properties:
        totals[ontology] = totals.get(ontology, 0) + count
    return UsageReport(
        ranked(class_tally, schema.classes), properties,
        tuple(sorted(totals.items())),
    )


def render_usage(report: UsageReport, format: str = "table") -> str:
    """Aligned-column table or ONTOLOGY<TAB>ID<TAB>COUNT lines."""
    if format == "tsv":
        lines = [
            f"{ontology}\t{identifier}\t{count}"
            for ontology, identifier, count in report.class_counts + report.property_counts
        ]
        lines += [f"{ontology}\t*\t{count}" for ontology, count in report.ontology_totals]
        return "\n".join(lines) + ("\n" if lines else "")

    def section(title: str, rows: tuple[tuple[str, str, int], ...]) -> list[str]:
        lines = [title]
        if not rows:
            return lines + ["  (none)"]
        width_ontology = max(len(r[0]) for r in rows)
        width_id = max(len(r[1]) for r in rows)
        for ontology, identifier, count in rows:
            lines.append(
                f"  {ontology:<{width_ontology}}  {identifier:<{width_id}}  {count}"
            )
        return lines

    lines = section("Classes", report.class_counts)
    lines += [""]
    lines += section("Properties", report.property_counts)
    lines += ["", "Property totals by ontology"]
    if report.ontology_totals:
        width = max(len(o) for o, _ in report.ontology_totals)
        for ontology, count in report.ontology_totals:
            lines.append(f"  {ontology:<{width}}  {count}")
        lines.append(f"  {'total':<{width}}  {report.total_properties}")
    else:
        lines.append("  (none)")
    return "\n".join(lines) + "\n"
