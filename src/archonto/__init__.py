"""ArchOnto: CIDOC CRM-based archival data model and ISAD(G) migration engine."""

from .graph import DEFAULT_BASE_IRI, Graph
from .mdl import builtin_rules, parse_mdl, render_mdl
from .migration import (
    attach_isad_fallback,
    migrate_record,
    migrate_tree,
    widen_date_text,
)
from .ontology import OntologySchema, SourceOntology, builtin_schema
from .records import IsadRecord, RecordTree, parse_corpus, resolve_inheritance
from .stats import render_usage, usage_report
from .validation import validate_datetime, validate_graph
from .vocabulary import (
    LevelNestingGraph,
    VocabularyRegistry,
    builtin_nesting,
    builtin_vocabularies,
    load_nesting,
    load_vocabularies,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BASE_IRI",
    "Graph",
    "IsadRecord",
    "LevelNestingGraph",
    "OntologySchema",
    "RecordTree",
    "SourceOntology",
    "VocabularyRegistry",
    "attach_isad_fallback",
    "builtin_nesting",
    "builtin_rules",
    "builtin_schema",
    "builtin_vocabularies",
    "load_nesting",
    "load_vocabularies",
    "migrate_record",
    "migrate_tree",
    "parse_corpus",
    "parse_mdl",
    "render_mdl",
    "render_usage",
    "resolve_inheritance",
    "usage_report",
    "validate_datetime",
    "validate_graph",
    "widen_date_text",
    "__version__",
]
