"""applekit: an applied-ethics knowledge toolkit.

An in-memory triple store with a deterministic Turtle reader/writer, schema
extraction, a forward-chaining materializer, a stratified rule engine that
produces moral verdicts, class-expression and conjunctive queries, and a
closed-world consistency validator, wrapped in one CLI.

``import applekit`` loads none of these layers.  Each public name, and each
layer module, is imported when it is first read from the package (PEP 562),
so ``from applekit import parse_turtle`` loads the Turtle layer and what it
depends on, and nothing else.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# The module defining each public name.
_EXPORTS = {
    "assets": ("AppleAssets", "CqCase", "load_assets"),
    "cq": ("CqResult", "format_cq_table", "run_case", "run_cq_suite"),
    "graph": ("Graph",),
    "materialize": ("materialize",),
    "query": (
        "ANYTHING",
        "And",
        "Anything",
        "Named",
        "OneOf",
        "PropertyPath",
        "SelectQuery",
        "Some",
        "TriplePattern",
        "parse_class_expression",
        "parse_select",
        "retrieve_classes",
        "retrieve_instances",
        "select",
    ),
    "rules": (
        "Firing",
        "Rule",
        "Verdict",
        "classify_actions",
        "evaluate_rules",
        "evaluate_with_provenance",
        "parse_rules",
    ),
    "schema": ("NameCatalog", "Obligation", "SchemaIndex", "extract_schema", "local_name"),
    "terms": (
        "AssetError",
        "PrefixMap",
        "QueryParseError",
        "RuleError",
        "SchemaError",
        "StructuralError",
        "Term",
        "Triple",
        "TurtleParseError",
        "VerdictConflictError",
        "blank",
        "iri",
        "literal",
    ),
    "turtle": (
        "ParseDiagnostic",
        "ParsedDocument",
        "canonical_ntriples",
        "parse_document",
        "parse_turtle",
        "serialize_turtle",
    ),
    "validate": (
        "ValidationReport",
        "Violation",
        "check_disjointness",
        "check_obligations",
        "inputs_digest",
        "validate_graph",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"vocab"}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)


class _Package(ModuleType):
    """The package's module type.  Importing a submodule binds its name in
    the package to it; where a public name is also a submodule's name
    (``materialize``), the package keeps the public name."""

    def __setattr__(self, name: str, value: object) -> None:
        if not (name in _HOME and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
