"""One workload process: program set-up, then a closed loop of operations.

run.py starts this script in a fresh interpreter for every set-up sample
and for the measured run:

    python perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --result FILE [--setup-only | --warmup]

The process is single-threaded and acts as one closed-loop client: the next
operation starts when the previous one has returned.  Inputs are generated
from the seed before the set-up clock starts; the set-up clock covers the
import of applekit and the program's own preparation.  Outputs are checked
after each operation, outside its timing.
"""

from __future__ import annotations

import argparse
import os
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import gen
from calibration import calibrate
from tracing import LAYERS, Tracer, unit_totals

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ASSETS = SRC / "applekit" / "assets"
RULES_FILE = ASSETS / "moral-verdict.rules"

VERDICT_COPIES = 160  # scenario copies in verdict-batch (about 6.5k asserted triples)
QUERY_COPIES = 200  # scenario copies behind query-stream
ONTOLOGY_INDIVIDUALS = 100  # individuals per subclass chain in reason-ingest (about 2.9k triples)
BLOCKS_PER_STEP = 8  # query-stream blocks per step (320 queries, under a second)
QUARTER = 4  # the scaling check reruns the traced workload at 1/QUARTER of its size
FLAG_RATIO = 8.0  # a layer whose time grows more than this at 4x input (twice linear) is flagged

OK, WRONG, FAILED, KNOWN_FAILURE = "ok", "wrong", "failed", "known-failure"

# The shared machine's speed changes by up to 2x within seconds, and CPU time
# changes with it, so raw times differ a lot between runs.  Set-up and every
# step are therefore bracketed by a fixed slice of interpreter work, and
# their times are reported at reference speed: scaled by the reference over
# the mean measured duration of the two slices around them.
# The references are the slices' typical durations on the machine the
# benchmark was built on, so calibrated times stay close to its wall times.
REFERENCE_SLICE_S = 0.027
# cli-cold's slice runs in a child process, interpreter start-up included.
REFERENCE_CHILD_S = 0.12


class Workload:
    """Base: subclasses generate inputs, prepare the program, and run steps.

    A step is the unit the loop stops on: one operation, or for
    query-stream BLOCKS_PER_STEP blocks of queries, or for cli-cold one
    cycle of commands.  run_step returns (latency, outcome) per operation.
    """

    asserted = 0  # asserted input triples one operation reads
    reference_s = REFERENCE_SLICE_S

    def calibrate(self) -> float:
        return calibrate()

    def __init__(self, work: Path, seed: int, scale: int) -> None:
        self.work = work

    def import_program(self) -> None:
        import applekit.cli  # noqa: F401  (every workload pays for the package import)

    def prepare(self) -> None:
        """Program-side set-up after the import."""

    def run_step(self, tracer: Tracer | None) -> list[tuple[float, str]]:
        raise NotImplementedError

    def final_check(self) -> bool:
        """Deep checks of the first outputs, run once after measuring."""
        return True

    def probe_graph(self):
        """The materialized graph the Graph.match probe runs on."""
        raise NotImplementedError


class _CliInProcess(Workload):
    """Operations are applekit.cli.main calls whose output files are checked:
    the first output of each kind is kept for the deep check, later ones
    must be byte-identical to it."""

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        self.first: dict[str, bytes] = {}

    def import_program(self) -> None:
        import applekit.cli

        self.cli = applekit.cli

    def _call(self, argv: list[str]) -> tuple[float, int]:
        start = time.perf_counter()
        code = self.cli.main(argv)
        return time.perf_counter() - start, code

    def _same_as_first(self, kind: str, path: Path) -> bool:
        data = path.read_bytes()
        if kind not in self.first:
            self.first[kind] = data
            return True
        return data == self.first[kind]

    def _parsed(self, path: Path):
        from applekit import parse_document

        return parse_document(path.read_text(encoding="utf-8")).graph

    def probe_graph(self):
        from applekit import extract_schema, materialize

        graph = self._parsed(self.input)
        return materialize(graph, extract_schema(graph))


class VerdictBatch(_CliInProcess):
    name = "verdict-batch"

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        self.copies = gen.scenario_copies(VERDICT_COPIES // scale, seed)
        self.input = work / f"verdict-{scale}.ttl"
        self.output = work / f"verdict-{scale}.json"
        if not self.input.exists():
            taxonomy = (ASSETS / "apple-taxonomy.ttl").read_text(encoding="utf-8")
            self.input.write_text(gen.scaled_scenario(taxonomy, self.copies), encoding="utf-8")

    def run_step(self, tracer):
        argv = ["classify", "-i", str(self.input), "--rules", str(RULES_FILE), "-o", str(self.output)]
        if tracer is not None:
            tracer.next_op()
        with tracer or nullcontext():
            latency, code = self._call(argv)
        if code != 0:
            return [(latency, FAILED)]
        return [(latency, OK if self._same_as_first("classify", self.output) else WRONG)]

    def final_check(self) -> bool:
        payload = json.loads(self.first["classify"])
        got = {
            v["action"]: (v["verdict_class"], ",".join(v["fired_rules"]), len(v["firings"]))
            for v in payload["verdicts"]
        }
        expected = {a: (cls, rule, n) for a, (cls, rule, n) in gen.expected_verdicts(self.copies).items()}
        self.asserted = len(self._parsed(self.input))
        return got == expected


class ReasonIngest(_CliInProcess):
    name = "reason-ingest"

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        self.onto = gen.ontology(ONTOLOGY_INDIVIDUALS // scale, seed)
        self.asserted = self.onto.asserted
        self.input = work / f"onto-{scale}.ttl"
        self.reasoned = work / f"onto-{scale}-reasoned.ttl"
        self.report = work / f"onto-{scale}-report.json"
        if not self.input.exists():
            self.input.write_text(self.onto.text, encoding="utf-8")

    def run_step(self, tracer):
        if tracer is not None:
            tracer.next_op()
        with tracer or nullcontext():
            reason_s, reason_code = self._call(["reason", "-i", str(self.input), "-o", str(self.reasoned)])
            validate_s, validate_code = self._call(
                ["validate", "--world", "closed", "-i", str(self.input), "-o", str(self.report)])
        latency = reason_s + validate_s
        expected_code = 4 if self.onto.errors else 0  # EXIT_CONSISTENCY on planted clashes
        if reason_code != 0 or validate_code != expected_code:
            return [(latency, FAILED)]
        same = self._same_as_first("reason", self.reasoned) & self._same_as_first("validate", self.report)
        return [(latency, OK if same else WRONG)]

    def final_check(self) -> bool:
        from applekit import extract_schema, materialize, parse_document

        reparsed = parse_document(self.first["reason"].decode("utf-8")).graph
        reference = self.probe_graph()
        closed = len(materialize(reparsed, extract_schema(reparsed))) == len(reparsed)
        report = json.loads(self.first["validate"])
        errors = {v["subject"] for v in report["violations"] if v["severity"] == "error"}
        warnings = {v["subject"] for v in report["violations"] if v["severity"] == "warning"}
        return (
            reparsed == reference
            and closed
            and report["counts"]["error"] == self.onto.errors
            and report["counts"]["warning"] == self.onto.warnings
            and errors == self.onto.clash_subjects
            and warnings == self.onto.warning_subjects
        )


class QueryStreamWorkload(Workload):
    name = "query-stream"

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        self.copies = gen.scenario_copies(QUERY_COPIES // scale, seed)
        self.input = work / f"query-{scale}.ttl"
        if not self.input.exists():
            taxonomy = (ASSETS / "apple-taxonomy.ttl").read_text(encoding="utf-8")
            self.input.write_text(gen.scaled_scenario(taxonomy, self.copies), encoding="utf-8")
        self.stream = gen.QueryStream(self.copies, (ASSETS / "cq-manifest.json").read_text(encoding="utf-8"), seed)

    def import_program(self) -> None:
        import applekit.cli  # noqa: F401

        # Module references, not functions, so a tracer's patches are seen.
        self.q, self.schema_mod, self.turtle, self.materialize_mod = (
            importlib.import_module(f"applekit.{name}") for name in ("query", "schema", "turtle", "materialize"))

    def prepare(self) -> None:
        graph = self.turtle.parse_document(self.input.read_text(encoding="utf-8")).graph
        self.schema = self.schema_mod.extract_schema(graph)
        self.catalog = self.schema_mod.NameCatalog.from_graph(graph, self.schema)
        self.graph = self.materialize_mod.materialize(graph, self.schema)
        self.asserted = len(graph)

    def run_step(self, tracer):
        q = self.q
        timed = []
        queries = [query for _ in range(BLOCKS_PER_STEP) for query in self.stream.block()]
        with tracer or nullcontext():
            for query in queries:
                if tracer is not None:
                    tracer.next_op()
                start = time.perf_counter()
                try:
                    if query.mode == "select":
                        parsed = q.parse_select(query.text, self.catalog)
                        rows = q.select(parsed, self.graph)
                    else:
                        expr = q.parse_class_expression(query.text, self.catalog)
                        if query.mode == "instances":
                            rows = q.retrieve_instances(expr, self.graph)
                        else:
                            rows = q.retrieve_classes(expr, self.schema, self.graph)
                except q.QueryParseError:
                    rows = None
                timed.append((time.perf_counter() - start, query, rows))
        results = []
        for latency, query, rows in timed:
            if rows is None:
                # parse_select rejects <absolute-iri> terms today; that known
                # defect counts as a failed operation, anything else is wrong.
                results.append((latency, KNOWN_FAILURE if query.kind == "iri-select" else FAILED))
                continue
            answer = frozenset(row[0] if isinstance(row, tuple) and len(row) == 1 else row for row in rows)
            results.append((latency, OK if answer == query.expected else WRONG))
        return results

    def probe_graph(self):
        return self.graph


class CliCold(Workload):
    name = "cli-cold"
    COMMANDS = (
        ("cq", "--bundled"),
        ("classify", "--bundled"),
        ("validate", "--bundled"),
        ("reason", "--bundled"),
        ("query", "Agent", "--bundled"),
        ("query", "?x resolvedBy ?y", "--mode", "select", "--bundled"),
    )

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        self.first: dict[tuple, bytes] = {}
        self.child_imports: list[tuple[int, float]] = []  # (operation id, seconds)
        self.peak_rss_kb = 0
        # The seed picks the command the cycle starts with.
        start = random.Random(seed).randrange(len(self.COMMANDS))
        self.commands = self.COMMANDS[start:] + self.COMMANDS[:start]

    reference_s = REFERENCE_CHILD_S

    def calibrate(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "calibration.py")], check=True, timeout=60)
        return time.perf_counter() - start

    def prepare(self) -> None:
        import applekit

        self.assets = applekit.load_assets()
        self.asserted = len(self.assets.taxonomy) + len(self.assets.scenario)

    def run_step(self, tracer):
        results = []
        for command in self.commands:
            if tracer is None:
                argv = [sys.executable, "-m", "applekit.cli", *command]
            else:
                tracer.next_op()
                spans_file = self.work / "child-spans.json"
                argv = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), *command]
            start = time.perf_counter()
            # The children inherit PYTHONPATH=src from run.py.
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as child:
                stdout = child.stdout.read()
                # wait4 gives this command's own peak RSS, where
                # RUSAGE_CHILDREN would mix in the calibration children.
                _, status, usage = os.wait4(child.pid, 0)
                child.returncode = os.waitstatus_to_exitcode(status)
            latency = time.perf_counter() - start
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            if tracer is not None:
                self._merge(tracer, spans_file)
            if child.returncode != 0:
                results.append((latency, FAILED))
                continue
            if command not in self.first:
                self.first[command] = stdout
            results.append((latency, OK if stdout == self.first[command] else WRONG))
        return results

    def _merge(self, tracer: Tracer, spans_file: Path) -> None:
        payload = json.loads(spans_file.read_text(encoding="utf-8"))
        self.child_imports.append((tracer.op, payload["import_s"]))
        base = len(tracer.spans)
        for name, start, end, parent, _, counts, error in payload["spans"]:
            tracer.spans.append([name, start, end, parent + base if parent >= 0 else -1, tracer.op, counts, error])

    def final_check(self) -> bool:
        from applekit import parse_document

        out = {command[:2]: text.decode("utf-8") for command, text in self.first.items()}
        classify = json.loads(out[("classify", "--bundled")])
        verdicts = [(v["action"].rsplit("#", 1)[1], v["verdict_class"].rsplit("#", 1)[1], v["fired_rules"])
                    for v in classify["verdicts"]]
        validate = json.loads(out[("validate", "--bundled")])
        agents = json.loads(out[("query", "Agent")])
        rows = json.loads(out[("query", "?x resolvedBy ?y")])["rows"]
        reasoned = parse_document(out[("reason", "--bundled")]).graph
        return (
            out[("cq", "--bundled")].endswith("10/10 competency questions passed\n")
            and verdicts == [("PrescribeOpioidPainkiller", "MorallyWrongAction", ["R1"])]
            and validate["counts"]["error"] == 0
            and [a.rsplit("#", 1)[1] for a in agents] == ["Doctor", "Patient"]
            and [[c.rsplit("#", 1)[1] for c in row] for row in rows] == [["Consent", "Principlism"], ["Deforestation", "DeepEcology"]]
            and len(reasoned) == self.assets.counts["materialized"]
        )

    def probe_graph(self):
        from applekit import materialize

        return materialize(self.assets.combined(), self.assets.schema)


WORKLOADS = {w.name: w for w in (VerdictBatch, QueryStreamWorkload, ReasonIngest, CliCold)}


def set_up(workload: Workload, tracer: Tracer | None) -> tuple[float, float, float]:
    """Import and prepare; return (set-up seconds, import seconds, speed
    factor), the times already at reference speed."""
    calibrate()  # the first slice warms the calibration code itself
    gc.collect()
    before = calibrate()
    start = time.perf_counter()
    workload.import_program()
    imported = time.perf_counter()
    with tracer or nullcontext():
        workload.prepare()
    done = time.perf_counter()
    gc.collect()
    factor = REFERENCE_SLICE_S / ((before + calibrate()) / 2)
    return (done - start) * factor, (imported - start) * factor, factor


def measure(workload: Workload, seconds: float, tracer: Tracer | None, min_steps: int = 1):
    """Closed loop until `seconds` of wall time have passed, stopping only at
    step boundaries.  With a tracer, steps alternate traced and untraced.

    Returns the samples (raw latency, outcome, traced, speed factor, step)
    and the speed factor of every traced operation id.
    """
    samples, factors = [], {}
    # Each step starts from an empty collector: otherwise the full
    # collections, whose timing depends on how many operations ran before,
    # make one operation's time depend on its index in the run.
    gc.collect()
    before = workload.calibrate()
    start = time.perf_counter()
    step = 0
    while step < min_steps or time.perf_counter() - start < seconds:
        traced = tracer is not None and step % 2 == 0
        first_op = tracer.op + 1 if traced else 0
        results = workload.run_step(tracer if traced else None)
        gc.collect()
        after = workload.calibrate()
        factor = workload.reference_s / ((before + after) / 2)
        samples.extend((latency, outcome, traced, factor, step) for latency, outcome in results)
        if traced:
            factors.update(dict.fromkeys(range(first_op, tracer.op + 1), factor))
        before = after
        step += 1
    return samples, factors


# ---------------------------------------------------------------------------
# Per-layer metrics from spans


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _fn_time(units, name: str) -> float:
    return _median(u["time"][name] for u in units if name in u["time"])


def _count(units, key: str) -> float:
    return _median(u["counts"][key] for u in units if key in u["counts"])


def _calls(units, *names: str) -> float:
    return _median(d for u in units for n in names for d in u["calls"].get(n, ()))


def _layer_cost(setup_unit, op_units) -> dict[str, float]:
    """Set-up self time plus mean self time per operation, per layer."""
    n = max(len(op_units), 1)
    return {
        layer: (setup_unit["self"].get(layer, 0.0) if setup_unit else 0.0)
        + sum(u["self"].get(layer, 0.0) for u in op_units) / n
        for layer in LAYERS
    }


def _provenance(units) -> float:
    return _median(u["time"]["rules.classify_actions"] - u["time"]["rules.evaluate_with_provenance"]
                   for u in units if "rules.classify_actions" in u["time"])


def layer_metrics(tracer: Tracer, factors: dict[int, float], import_s: float, workload: Workload, samples,
                  quarter: tuple[Tracer, dict[int, float]] | None, probe_us: float) -> dict[str, float]:
    units = unit_totals(tracer.spans, factors)
    setup_unit = units.get(0)
    op_units = [u for op, u in units.items() if op > 0]
    every = list(units.values())
    firings, derived = _count(every, "rules.firings"), _count(every, "rules.derived")
    parse_calls = sum(len(u["calls"].get(n, ())) for u in every
                      for n in ("query.parse_class_expression", "query.parse_select"))
    parse_errors = sum(u["errors"].get(n, 0) for u in every
                       for n in ("query.parse_class_expression", "query.parse_select"))
    traced = [lat * f for lat, outcome, was_traced, f, _ in samples if was_traced and outcome == OK]
    plain = [lat * f for lat, outcome, was_traced, f, _ in samples if not was_traced and outcome == OK]
    overhead = (_median(traced) - _median(plain)) if traced and plain else 0.0
    imports = [s * factors[op] for op, s in getattr(workload, "child_imports", ())] or [import_s]
    m = {
        "rules.evaluate_s": _fn_time(every, "rules.evaluate_with_provenance"),
        "rules.provenance_s": _provenance(every),
        "rules.firings": firings,
        "rules.derived": derived,
        "rules.useful_ratio": derived / firings if firings else 0.0,
        "rules.verdicts": _count(every, "rules.verdicts"),
        "materialize.busy_s": _fn_time(every, "materialize.materialize"),
        "materialize.triples_in": _count(every, "materialize.triples_in"),
        "materialize.derived": _count(every, "materialize.derived"),
        "turtle.parse_s": _fn_time(every, "turtle.parse_document"),
        "turtle.serialize_s": _fn_time(every, "turtle.serialize_turtle"),
        "turtle.bytes_in": _count(every, "turtle.bytes_in"),
        "schema.extract_s": _fn_time(every, "schema.extract_schema"),
        "schema.catalog_s": _fn_time(every, "schema.NameCatalog.from_graph"),
        "schema.classes": _count(every, "schema.classes"),
        "schema.obligations": _count(every, "schema.obligations"),
        "graph.match_us": probe_us,
        "graph.copy_s": _fn_time(every, "graph.Graph.copy"),
        "query.parse_us": _calls(every, "query.parse_class_expression", "query.parse_select") * 1e6,
        "query.instances_ms": _calls(every, "query.retrieve_instances") * 1e3,
        "query.classes_ms": _calls(every, "query.retrieve_classes") * 1e3,
        "query.select_ms": _calls(every, "query.select") * 1e3,
        "query.rows": _count(every, "query.rows"),
        "query.failed": parse_errors * gen.BLOCK_SIZE / parse_calls if parse_calls else 0.0,
        "validate.disjointness_s": _fn_time(every, "validate.check_disjointness"),
        "validate.obligations_s": _fn_time(every, "validate.check_obligations"),
        "validate.digest_s": _fn_time(every, "validate.inputs_digest"),
        "validate.violations": _count(every, "validate.violations"),
        "assets.load_ms": _fn_time(every, "assets.load_assets") * 1e3,
        "cli.import_ms": _median(imports) * 1e3,
        "cli.command_ms": _fn_time(every, "cli.main") * 1e3,
        "cq.suite_ms": _fn_time(every, "cq.run_cq_suite") * 1e3,
        "trace.overhead_ms": overhead * 1e3,
        "trace.overhead_pct": overhead / _median(plain) * 100 if plain and traced else 0.0,
    }
    full_cost = _layer_cost(setup_unit, op_units)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(u["self"].get(layer, 0.0) for u in op_units) / max(len(op_units), 1)
    ratios = {}
    if quarter is not None:
        q_units = unit_totals(quarter[0].spans, quarter[1])
        q_ops = [u for op, u in q_units.items() if op > 0]
        q_cost = _layer_cost(q_units.get(0), q_ops)
        ratios = {layer: full_cost[layer] / q_cost[layer] for layer in LAYERS if q_cost[layer] > 0}
        q_every = list(q_units.values())
        for key, fn in (("rules.evaluate", lambda us: _fn_time(us, "rules.evaluate_with_provenance")),
                        ("rules.provenance", _provenance)):
            small = fn(q_every)
            if small > 0:
                ratios[key] = fn(every) / small
    for layer in LAYERS:
        m[f"{layer}.scale_x"] = ratios.get(layer, 0.0)
    m["rules.evaluate_scale_x"] = ratios.get("rules.evaluate", 0.0)
    m["rules.provenance_scale_x"] = ratios.get("rules.provenance", 0.0)
    m["scale.flagged"] = float(sum(1 for r in ratios.values() if r > FLAG_RATIO))
    return m


def match_probe(graph, seed: int) -> float:
    """Median microseconds of Graph.match over seven bound/unbound shapes."""
    triples = list(graph)
    picks = random.Random(seed).sample(triples, min(40, len(triples)))
    perf_counter = time.perf_counter
    durations = []
    for t in picks:
        for s, p, o in ((t.s, t.p, t.o), (t.s, t.p, None), (t.s, None, t.o), (t.s, None, None),
                        (None, t.p, t.o), (None, t.p, None), (None, None, t.o)):
            start = perf_counter()
            graph.match(s, p, o)
            durations.append(perf_counter() - start)
    return statistics.median(durations) * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--warmup", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.work, args.seed, 1)
    if args.warmup:
        workload.import_program()
        args.result.write_text("{}", encoding="utf-8")
        return 0
    tracer = Tracer() if args.trace else None
    if args.setup_only or not isinstance(workload, CliCold):
        setup_s, import_s, factor = set_up(workload, tracer)
        if args.setup_only:
            args.result.write_text(json.dumps({"setup_s": setup_s}), encoding="utf-8")
            return 0
    else:
        # cli-cold's commands run in child processes.  A forked child's
        # ru_maxrss starts at its parent's RSS, so this process stays free of
        # applekit while it forks them; its set-up is sampled separately.
        import_s, factor = 0.0, 1.0

    samples, factors = measure(workload, args.seconds, tracer, min_steps=2 if tracer else 1)
    factors[0] = factor
    result = {}
    if isinstance(workload, CliCold):
        result["peak_rss_mb"] = workload.peak_rss_kb / 1024
        workload.prepare()  # the deep check and the probe need the bundled assets
    else:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["deep_check"] = workload.final_check()
    result["asserted"] = workload.asserted
    result["samples"] = samples
    if tracer is not None:
        quarter = None
        if not isinstance(workload, CliCold):
            small = WORKLOADS[args.workload](args.work, args.seed, QUARTER)
            small_tracer = Tracer()
            small_setup_factor = set_up(small, small_tracer)[2]
            small_factors = measure(small, args.seconds / QUARTER, small_tracer, min_steps=3)[1]
            small_factors[0] = small_setup_factor
            quarter = (small_tracer, small_factors)
        probe = match_probe(workload.probe_graph(), args.seed)
        result["layers"] = layer_metrics(tracer, factors, import_s, workload, samples, quarter, probe)
        result["flagged"] = sorted(name for name, value in result["layers"].items()
                                   if name.endswith("scale_x") and value > FLAG_RATIO)
        out_dir = HERE.parent / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"spans": tracer.spans, "quarter": quarter[0].spans if quarter else []}),
                              encoding="utf-8")
        result["spans_file"] = str(spans_path.relative_to(HERE.parent))
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
