"""The public names: ``applekit.__all__``, the functions the benchmark traces
and the ``Graph`` surface.

The benchmark's tracer wraps functions by name, so a name deleted from the
package would break ``perfbench/run.py --trace`` without failing any other
test.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import applekit
from applekit.graph import Graph


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


def test_graph_public_surface():
    """``Graph``'s public methods are exactly insert, match and copy, besides
    ``len``, ``in``, iteration and ``==``.

    A new public read needs a caller in ``src/`` or ``perfbench/``: one that
    only tests call belongs in the tests, as a scan over ``match()``.
    """
    public = {name for name in dir(Graph) if not name.startswith("_")}
    assert public == {"insert", "match", "copy"}
