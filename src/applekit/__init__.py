"""applekit: an applied-ethics knowledge toolkit.

An in-memory triple store with a deterministic Turtle reader/writer, schema
extraction, a forward-chaining materializer, a stratified rule engine that
produces moral verdicts, class-expression and conjunctive queries, and a
closed-world consistency validator, wrapped in one CLI.
"""

from .assets import AppleAssets, AssetError, CqCase, load_assets
from .cq import CqResult, format_cq_table, run_case, run_cq_suite
from .graph import Graph
from .materialize import materialize
from .query import (
    And,
    Anything,
    ANYTHING,
    Named,
    OneOf,
    PropertyPath,
    QueryParseError,
    SelectQuery,
    Some,
    TriplePattern,
    parse_class_expression,
    parse_select,
    retrieve_classes,
    retrieve_instances,
    select,
)
from .rules import (
    Firing,
    Rule,
    RuleError,
    Verdict,
    VerdictConflictError,
    classify_actions,
    evaluate_rules,
    evaluate_with_provenance,
    parse_rules,
)
from .schema import NameCatalog, Obligation, SchemaError, SchemaIndex, extract_schema, local_name
from .terms import PrefixMap, StructuralError, Term, Triple, blank, iri, literal
from .turtle import (
    ParseDiagnostic,
    ParsedDocument,
    TurtleParseError,
    canonical_ntriples,
    parse_document,
    parse_turtle,
    serialize_turtle,
)
from .validate import (
    ValidationReport,
    Violation,
    check_disjointness,
    check_obligations,
    inputs_digest,
    validate_graph,
)

__version__ = "0.1.0"

__all__ = [
    "ANYTHING",
    "And",
    "Anything",
    "AppleAssets",
    "AssetError",
    "CqCase",
    "CqResult",
    "Firing",
    "Graph",
    "NameCatalog",
    "Named",
    "Obligation",
    "OneOf",
    "ParseDiagnostic",
    "ParsedDocument",
    "PrefixMap",
    "PropertyPath",
    "QueryParseError",
    "Rule",
    "RuleError",
    "SchemaError",
    "SchemaIndex",
    "SelectQuery",
    "Some",
    "StructuralError",
    "Term",
    "Triple",
    "TriplePattern",
    "TurtleParseError",
    "ValidationReport",
    "Verdict",
    "VerdictConflictError",
    "Violation",
    "blank",
    "canonical_ntriples",
    "check_disjointness",
    "check_obligations",
    "classify_actions",
    "evaluate_rules",
    "evaluate_with_provenance",
    "extract_schema",
    "format_cq_table",
    "inputs_digest",
    "iri",
    "literal",
    "load_assets",
    "local_name",
    "materialize",
    "parse_class_expression",
    "parse_document",
    "parse_rules",
    "parse_select",
    "parse_turtle",
    "retrieve_classes",
    "retrieve_instances",
    "run_case",
    "run_cq_suite",
    "select",
    "serialize_turtle",
    "validate_graph",
]
