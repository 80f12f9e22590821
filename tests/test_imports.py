"""Import hygiene: each entry point loads only the modules it runs.

Each check starts a fresh interpreter and compares the modules it has
loaded with those of a bare interpreter started the same way, so modules
the interpreter or its site packages load anyway do not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import applekit
from applekit.assets import ASSET_ENV_VAR

SRC_DIR = Path(applekit.__file__).resolve().parents[1]
LAYERS = {"applekit." + name for name in (
    "assets", "cq", "graph", "materialize", "query", "rules", "schema", "terms", "turtle", "validate", "vocab")}


def loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code`` that a
    bare one does not."""

    def modules(body: str) -> set[str]:
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        env.pop(ASSET_ENV_VAR, None)
        script = body + "\nimport sys\nprint('\\n'.join(sys.modules))\n"
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        return set(result.stdout.split())

    return modules(code) - modules("")


def test_importing_the_package_loads_no_layer():
    assert {name for name in loaded_by("import applekit") if name.startswith("applekit.")} == set()


def test_importing_the_cli_loads_no_layer():
    assert loaded_by("import applekit.cli") & LAYERS == set()


# Each bundled command, with the modules it must not load.
NOT_LOADED = {
    ("reason",): {"applekit.rules", "applekit.query", "applekit.cq", "applekit.validate", "hashlib"},
    ("classify",): set(),
    ("validate",): {"applekit.rules", "applekit.cq"},
    ("query", "Agent"): {"applekit.rules"},
    ("query", "?x resolvedBy ?y", "--mode", "select"): {"applekit.rules"},
    ("cq",): {"applekit.rules"},
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED), ids=" ".join)
def test_a_bundled_command_loads_only_what_it_runs(command):
    argv = [*command, "--bundled", "-o", os.devnull]
    loaded = loaded_by(f"from applekit.cli import main\nassert main({argv!r}) == 0")
    assert "applekit.cli" in loaded
    assert loaded & (NOT_LOADED[command] | {"dataclasses"}) == set()
