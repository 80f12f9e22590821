"""Spans around the public functions of each applekit layer.

The tracer patches the benchmark process only: it swaps each listed
function for a wrapper, in every applekit module that holds a reference to
it, and swaps the originals back on exit.  Each call records one span
(name, start, end, parent span, operation id, counts, error flag) in
memory; nothing is written until the benchmark asks for the spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped.  terms and vocab hold value types and
# constants only; their cost shows up inside these.
LAYER_FUNCTIONS = {
    "turtle": ("parse_document", "serialize_turtle", "canonical_ntriples"),
    "schema": ("extract_schema", "NameCatalog.from_graph"),
    "graph": ("Graph.copy",),
    "materialize": ("materialize",),
    "rules": ("parse_rules", "evaluate_with_provenance", "classify_actions"),
    "query": ("parse_class_expression", "parse_select", "retrieve_instances", "retrieve_classes", "select"),
    "validate": ("validate_graph", "check_disjointness", "check_obligations", "inputs_digest"),
    "cq": ("run_cq_suite",),
    "assets": ("load_assets",),
    "cli": ("main",),
}
LAYERS = tuple(LAYER_FUNCTIONS)


def _graph_arg(args, kwargs):
    return args[0] if args else kwargs["graph"]


# Counts taken at the call boundary, from arguments and results.
def _count_parse(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"turtle.bytes_in": len(text.encode("utf-8"))}


def _count_schema(args, kwargs, result):
    return {"schema.classes": len(result.classes), "schema.obligations": len(result.obligations)}


def _count_materialize(args, kwargs, result):
    given = len(_graph_arg(args, kwargs))
    return {"materialize.triples_in": given, "materialize.derived": len(result) - given}


def _count_evaluate(args, kwargs, result):
    out, firings = result
    return {"rules.firings": len(firings), "rules.derived": len(out) - len(_graph_arg(args, kwargs))}


def _count_rows(args, kwargs, result):
    return {"query.rows": len(result)}


COUNTERS = {
    "turtle.parse_document": _count_parse,
    "schema.extract_schema": _count_schema,
    "materialize.materialize": _count_materialize,
    "rules.evaluate_with_provenance": _count_evaluate,
    "rules.classify_actions": lambda a, k, r: {"rules.verdicts": len(r)},
    "query.retrieve_instances": _count_rows,
    "query.retrieve_classes": _count_rows,
    "query.select": _count_rows,
    "validate.validate_graph": lambda a, k, r: {"validate.violations": len(r.violations)},
}


class Tracer:
    """In-memory span recorder; use as a context manager to patch applekit."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, counts, error]
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def next_op(self) -> None:
        """Attribute the spans that follow to a new operation id."""
        self.op += 1

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        perf_counter = time.perf_counter
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, False]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        importlib.import_module("applekit")
        modules = [m for n, m in list(sys.modules.items()) if n == "applekit" or n.startswith("applekit.")]
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"applekit.{layer}")
            for qualname in names:
                span_name = f"{layer}.{qualname}"
                if "." in qualname:
                    owner_name, attr = qualname.split(".")
                    owner = getattr(module, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        self._set(owner, attr, classmethod(self._wrap(span_name, raw.__func__)))
                    else:
                        self._set(owner, attr, self._wrap(span_name, raw))
                    continue
                original = getattr(module, qualname)
                wrapped = self._wrap(span_name, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, key, wrapped)
        return self

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def unit_totals(spans: list[list], factors: dict[int, float]) -> dict[int, dict]:
    """Per operation id: total time and calls per span name, self time per
    layer, counts, and errors per span name.  Durations are multiplied by
    the operation's speed factor (see worker.calibrate)."""
    child_time = defaultdict(float)
    for name, start, end, parent, op, counts, error in spans:
        if parent >= 0:
            child_time[parent] += (end - start) * factors[op]
    units: dict[int, dict] = {}
    for index, (name, start, end, parent, op, counts, error) in enumerate(spans):
        unit = units.setdefault(op, {"time": defaultdict(float), "calls": defaultdict(list),
                                     "self": defaultdict(float), "counts": defaultdict(int),
                                     "errors": defaultdict(int)})
        duration = (end - start) * factors[op]
        unit["time"][name] += duration
        unit["calls"][name].append(duration)
        unit["self"][name.split(".")[0]] += duration - child_time[index]
        if counts:
            for key, value in counts.items():
                unit["counts"][key] += value
        if error:
            unit["errors"][name] += 1
    return units
