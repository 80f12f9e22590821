"""Traced stand-in for ``python -m applekit.cli``, used by the cli-cold
workload's traced run:

    python perfbench/cli_child.py SPANS_FILE <applekit arguments...>

It times the import of applekit.cli, runs the command with every layer's
public functions wrapped, writes the spans to SPANS_FILE and exits with the
command's exit code.
"""

import json
import sys
import time

from tracing import Tracer

start = time.perf_counter()
import applekit.cli  # noqa: E402

import_s = time.perf_counter() - start
tracer = Tracer()
with tracer:
    code = applekit.cli.main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as out:
    json.dump({"import_s": import_s, "spans": tracer.spans}, out)
sys.exit(code)
