"""Release gate: one test per shipped guarantee, each printing a PASS/FAIL line.

These tests restate every expected answer inline rather than trusting the
bundled manifests, so a regression in either the engines or the assets
trips them.
"""

import functools
import json
import random
import time

from applekit.assets import load_assets
from applekit.cli import main
from applekit.materialize import materialize
from applekit.query import retrieve_instances
from applekit.rules import classify_actions, evaluate_rules
from applekit.schema import extract_schema
from applekit.terms import Triple, iri
from applekit.turtle import parse_document, serialize_turtle
from applekit.validate import validate_graph
from applekit.vocab import APPLE

from _gen import graph_vocabulary, random_expression, random_graph, random_rules
from _oracles import brute_instances, ground_fixpoint, naive_materialize

MODSCI = "https://w3id.org/skgo/modsci#"
TRAFFIC = "http://www.sensormeasurement.appspot.com/ont/transport/traffic#"
POP = APPLE + "PrescribeOpioidPainkiller"


def criterion(number, label):
    """Print one human-readable verdict line per release criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(capsys, *args, **kwargs):
            try:
                detail = fn(capsys, *args, **kwargs)
            except BaseException as exc:
                with capsys.disabled():
                    print(f"\ncriterion {number} ({label}): FAIL — {exc}")
                raise
            with capsys.disabled():
                suffix = f" [{detail}]" if detail else ""
                print(f"\ncriterion {number} ({label}): PASS{suffix}")

        return wrapper

    return decorate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EXPECTED_CQ_ANSWERS = {
    "CQ1": {APPLE + "Consent"},
    "CQ2": {APPLE + "AcademicEthics", APPLE + "BusinessEthics"},
    "CQ3": {APPLE + "EnvironmentalEthics", MODSCI + "Bioethics"},
    "CQ4": {APPLE + "MorallyGreyAction"},
    "CQ5": {APPLE + "DeepEcology"},
    "CQ6": {APPLE + "Doctor", APPLE + "Patient"},
    "CQ7": {APPLE + "OpioidUseDisorder", APPLE + "PainRelief"},
    "CQ8": {
        APPLE + "BadConsequence",
        APPLE + "LongTermConsequence",
        APPLE + "SignificantConsequence",
    },
    "CQ9": {APPLE + "Nonmaleficence", APPLE + "Responsibility"},
    "CQ10": {APPLE + "ModerateConsequence"},
}


@criterion(1, "competency-question suite")
def test_cq_suite(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "cq", "--bundled", "--format", "json")
    elapsed = time.perf_counter() - start
    assert code == 0
    results = {case["id"]: case for case in json.loads(out)}
    assert set(results) == set(EXPECTED_CQ_ANSWERS)
    for cq_id, expected in EXPECTED_CQ_ANSWERS.items():
        case = results[cq_id]
        assert case["passed"], f"{cq_id} reported as failing"
        assert set(case["actual"]) == expected, f"{cq_id} actual != expected"
    assert elapsed < 1.0, f"suite took {elapsed:.2f}s"
    return f"10/10 in {elapsed:.2f}s"


@criterion(2, "scenario verdict")
def test_scenario_verdict(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "classify", "--bundled")
    elapsed = time.perf_counter() - start
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert len(verdicts) == 1, "expected exactly one verdict"
    (verdict,) = verdicts
    assert verdict["action"] == POP
    assert verdict["verdict_class"] == APPLE + "MorallyWrongAction"
    assert "R1" in verdict["fired_rules"]
    assert elapsed < 1.0, f"classification took {elapsed:.2f}s"
    return f"MorallyWrongAction via R1 in {elapsed:.2f}s"


@criterion(3, "consistency audit")
def test_consistency(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "validate", "--bundled", "--world", "closed")
    assert code == 0
    clean = json.loads(out)
    assert clean["counts"]["error"] == 0
    assert clean["counts"]["warning"] == 0

    clash = tmp_path / "clash.ttl"
    clash.write_text(
        f"@prefix apple: <{APPLE}> .\n"
        "apple:ConfusedSchool a apple:Consequentialism, apple:Deontology .\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        capsys, "validate", "--bundled", "-i", str(clash), "--world", "closed"
    )
    assert code == 4
    clashing = json.loads(out)
    assert clashing["counts"]["error"] == 1, "expected exactly one error"
    return "0 violations clean, 1 error with injected clash"


@criterion(4, "oracle equivalence on random graphs")
def test_oracle_equivalence(capsys):
    start = time.perf_counter()
    graphs = 0
    for seed in range(500):
        rng = random.Random(seed)
        graph = random_graph(rng)
        schema = extract_schema(graph)

        semi = materialize(graph, schema)
        naive = naive_materialize(graph, schema)
        assert sorted(semi, key=Triple.sort_key) == sorted(
            naive, key=Triple.sort_key
        ), f"materialization strategies disagree at seed {seed}"

        classes, props, individuals = graph_vocabulary(graph)
        assert classes and props and individuals, f"degenerate vocabulary at seed {seed}"

        expr = random_expression(rng, classes, props, individuals)
        assert retrieve_instances(expr, semi) == brute_instances(
            expr, semi
        ), f"instance retrieval disagrees with brute force at seed {seed}"

        rules = random_rules(rng, classes, props, individuals)
        derived = evaluate_rules(semi, rules)
        expected = ground_fixpoint(semi, rules)
        assert sorted(derived, key=Triple.sort_key) == sorted(
            expected, key=Triple.sort_key
        ), f"rule evaluation disagrees with grounding at seed {seed}"
        graphs += 1
    elapsed = time.perf_counter() - start
    assert graphs >= 500
    assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f}s"
    return f"{graphs} graphs, 0 mismatches, {elapsed:.1f}s"


@criterion(5, "round-trip and determinism")
def test_round_trip_and_determinism(capsys):
    assets = load_assets()
    for graph in (assets.taxonomy, assets.scenario):
        text = serialize_turtle(graph, assets.prefixes)
        reparsed = parse_document(text).graph
        assert set(reparsed) == set(graph), "serialize∘parse changed the triple set"
        assert serialize_turtle(reparsed, assets.prefixes) == text

    commands = [
        ("reason", "--bundled"),
        ("classify", "--bundled"),
        ("query", "Agent", "--bundled"),
        ("query", "EthicalPrinciple", "--bundled", "--mode", "classes"),
        ("query", "Deforestation resolvedBy ?x", "--bundled", "--mode", "select"),
        ("validate", "--bundled"),
        ("cq", "--bundled"),
    ]
    for argv in commands:
        code1, first, _ = run_cli(capsys, *argv)
        code2, second, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0, f"{argv[0]} exited nonzero"
        assert first == second, f"{argv[0]} output differs between runs"
        assert first, f"{argv[0]} produced no output"
    return f"{len(commands)} commands byte-identical on rerun"


# The scenario triples that are the sole remaining support for some
# closed-world obligation; deleting any one of them must raise a warning,
# and deleting anything else must not.
SOLE_WITNESS_TRIPLES = {
    (APPLE + "Deforestation", APPLE + "resolvedBy", APPLE + "DeepEcology"),
    (APPLE + "Doctor", TRAFFIC + "doesAction", POP),
    (APPLE + "Doctor", APPLE + "hasMoralIntention", APPLE + "GoodIntention"),
    (APPLE + "OpioidUseDisorder", APPLE + "hasSeverityOfConsequence", APPLE + "SignificantConsequence"),
    (APPLE + "PainRelief", APPLE + "hasSeverityOfConsequence", APPLE + "ModerateConsequence"),
    (POP, APPLE + "affects", APPLE + "Patient"),
    (POP, APPLE + "occursInEvent", APPLE + "DentalSurgeryAftercare"),
    (APPLE + "PrescriptionContext", APPLE + "describesEvent", APPLE + "DentalSurgeryAftercare"),
}

VERDICT_FLIP_REMOVALS = {
    (POP, APPLE + "violatesEthicalPrinciple", APPLE + "Nonmaleficence"),
    (APPLE + "OpioidUseDisorder", APPLE + "hasUtilityOfConsequence", APPLE + "BadConsequence"),
    (APPLE + "OpioidUseDisorder", APPLE + "hasSeverityOfConsequence", APPLE + "SignificantConsequence"),
}


def _scenario_without(assets, removed):
    graph = assets.taxonomy.copy()
    kept = 0
    for triple in assets.scenario:
        if (triple.s.value, triple.p.value, triple.o.value) in removed:
            continue
        graph.insert(triple)
        kept += 1
    scenario_size = sum(1 for _ in assets.scenario)
    assert kept == scenario_size - len(removed), "removal did not match the scenario"
    return graph


@criterion(6, "mutation sensitivity")
def test_mutation_sensitivity(capsys):
    assets = load_assets()
    warning_removals = set()
    for triple in assets.scenario:
        key = (triple.s.value, triple.p.value, triple.o.value)
        mutated = _scenario_without(assets, {key})
        report = validate_graph(mutated, assets.schema, mode="closed")
        assert report.error_count == 0, f"removal of {key} produced an error"
        if report.warning_count:
            warning_removals.add(key)
    assert warning_removals == SOLE_WITNESS_TRIPLES, (
        "warning-producing removals diverge from the sole-witness set:\n"
        f"unexpected: {sorted(warning_removals - SOLE_WITNESS_TRIPLES)}\n"
        f"missing: {sorted(SOLE_WITNESS_TRIPLES - warning_removals)}"
    )

    flipped = _scenario_without(assets, VERDICT_FLIP_REMOVALS)
    verdicts = classify_actions(materialize(flipped, assets.schema), assets.rules)
    assert len(verdicts) == 1
    assert verdicts[0].action == POP
    assert verdicts[0].verdict_class == APPLE + "MorallyGreyAction"
    return (
        f"{len(SOLE_WITNESS_TRIPLES)} load-bearing removals warn, "
        "verdict flips to MorallyGreyAction"
    )
