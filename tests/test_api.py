"""The public names: ``applekit.__all__``, the functions the benchmark traces
and the ``Graph`` surface, and the promise that library functions leave the
graph they are given unchanged.

The benchmark's tracer wraps functions by name, so a name deleted from the
package would break ``perfbench/run.py --trace`` without failing any other
test.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import applekit
from applekit.assets import load_assets
from applekit.graph import Graph
from applekit.materialize import materialize
from applekit.rules import classify_actions, evaluate_with_provenance
from applekit.validate import validate_graph


def _tracing():
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(layer, qualname):
    target = importlib.import_module(f"applekit.{layer}")
    for part in qualname.split("."):
        target = getattr(target, part, None)
    return callable(target)


def test_every_traced_function_resolves():
    traced = _tracing().LAYER_FUNCTIONS
    missing = [f"{layer}.{name}" for layer, names in traced.items() for name in names if not _resolves(layer, name)]
    assert missing == []


def test_every_public_name_resolves():
    missing = [name for name in applekit.__all__ if not hasattr(applekit, name)]
    assert missing == []


# The public names, in the order ``applekit.__all__`` lists them.
PUBLIC = """
    ANYTHING And Anything AppleAssets AssetError CqCase CqResult Firing Graph NameCatalog Named Obligation
    OneOf ParseDiagnostic ParsedDocument PrefixMap PropertyPath QueryParseError Rule RuleError SchemaError
    SchemaIndex SelectQuery Some StructuralError Term Triple TriplePattern TurtleParseError ValidationReport
    Verdict VerdictConflictError Violation blank canonical_ntriples check_disjointness check_obligations
    classify_actions evaluate_rules evaluate_with_provenance extract_schema format_cq_table inputs_digest iri
    literal load_assets local_name materialize parse_class_expression parse_document parse_rules parse_select
    parse_turtle retrieve_classes retrieve_instances run_case run_cq_suite select serialize_turtle validate_graph
""".split()
LAYERS = ("assets", "cq", "graph", "materialize", "query", "rules", "schema", "terms", "turtle", "validate", "vocab")


def test_public_names_are_the_layers_own_objects():
    """``from applekit import X`` gives the object its layer defines or
    re-exports, however the layers were imported before."""
    assert applekit.__all__ == PUBLIC
    homes = [importlib.import_module(f"applekit.{layer}") for layer in LAYERS]
    for name in PUBLIC:
        value = getattr(applekit, name)
        assert any(vars(home).get(name) is value for home in homes), name
    # The function, not the module of the same name that the line above imported.
    assert applekit.materialize is materialize
    star: dict = {}
    exec("from applekit import *", star)
    assert {name: star[name] for name in PUBLIC} == {name: getattr(applekit, name) for name in PUBLIC}


def test_dir_lists_the_public_names_and_layers():
    listed = dir(applekit)
    assert listed == sorted(listed)
    assert set(PUBLIC) | set(LAYERS) | {"__version__"} <= set(listed)
    assert all(getattr(applekit, layer) is importlib.import_module(f"applekit.{layer}")
               for layer in LAYERS if layer != "materialize")
    with pytest.raises(AttributeError):
        applekit.no_such_name


def test_graph_public_surface():
    """``Graph``'s public methods are exactly insert, match and copy, besides
    ``len``, ``in``, iteration and ``==``.

    A new public read needs a caller in ``src/`` or ``perfbench/``: one that
    only tests call belongs in the tests, as a scan over ``match()``.
    """
    public = {name for name in dir(Graph) if not name.startswith("_")}
    assert public == {"insert", "match", "copy"}


@pytest.mark.parametrize(
    "materialized, call",
    [
        (False, lambda graph, assets: materialize(graph, assets.schema)),
        (False, lambda graph, assets: validate_graph(graph, assets.schema)),
        (False, lambda graph, assets: validate_graph(graph)),
        (True, lambda graph, assets: evaluate_with_provenance(graph, assets.rules)),
        (True, lambda graph, assets: classify_actions(graph, assets.rules)),
    ],
    ids=["materialize", "validate_graph", "validate_graph-own-schema", "evaluate_with_provenance", "classify_actions"],
)
def test_public_functions_leave_their_input_unchanged(materialized, call):
    """Library functions copy their input; only the command line hands its
    own graph to the in-place entries."""
    assets = load_assets()
    graph = assets.combined()
    if materialized:  # the rules add verdicts only over the entailed types
        graph = materialize(graph, assets.schema)
    snapshot = graph.copy()
    call(graph, assets)
    assert graph == snapshot and len(graph) == len(snapshot)
