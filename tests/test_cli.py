"""End-to-end CLI behavior: outputs, formats, exit codes, determinism."""

import gc
import hashlib
import importlib.metadata
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from fnmatch import fnmatch
from pathlib import Path

import pytest

import applekit
from applekit import cli
from applekit.assets import (
    ASSET_ENV_VAR,
    COUNTS_FILE,
    CQ_MANIFEST_FILE,
    RULES_FILE,
    SCENARIO_FILE,
    TAXONOMY_FILE,
    asset_dir,
    load_assets,
    parse_cq_manifest,
)
from applekit.cli import main
from applekit.cq import run_cq_suite
from applekit.graph import Graph
from applekit.materialize import materialize
from applekit.terms import Triple, blank, iri
from applekit.turtle import parse_document, parse_turtle, serialize_turtle
from applekit.validate import inputs_digest
from applekit.vocab import APPLE

sys.path.insert(0, str(Path(__file__).parent))
from _gen import add_literals, random_graph, renamed_scenario_copies  # noqa: E402

SRC_DIR = Path(applekit.__file__).resolve().parents[1]
PYPROJECT = Path(applekit.__file__).resolve().parents[2] / "pyproject.toml"
ASSET_FILES = (
    TAXONOMY_FILE,
    SCENARIO_FILE,
    RULES_FILE,
    CQ_MANIFEST_FILE,
    COUNTS_FILE,
)

EX = "http://example.org/"
HEADER = (
    f"@prefix ex: <{EX}> .\n"
    "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def micro_ttl(tmp_path):
    path = tmp_path / "micro.ttl"
    path.write_text(
        HEADER + "ex:A rdfs:subClassOf ex:B .\nex:i a ex:A .\n", encoding="utf-8"
    )
    return path


class TestInputHandling:
    def test_no_inputs_is_config_error(self, capsys):
        code, _, err = run(capsys, "reason")
        assert code == 2
        assert "no inputs" in err

    def test_missing_file_is_config_error(self, capsys):
        code, _, err = run(capsys, "reason", "-i", "/nonexistent/x.ttl")
        assert code == 2
        assert "cannot read input file" in err

    @pytest.mark.parametrize(
        "argv,what",
        [
            (["reason", "-i"], "input file"),
            (["classify", "--bundled", "--rules"], "rules file"),
            (["cq", "--bundled", "--manifest"], "manifest"),
        ],
        ids=["input", "rules", "manifest"],
    )
    def test_undecodable_file_is_config_error(self, capsys, tmp_path, argv, what):
        path = tmp_path / "latin-1.txt"
        path.write_bytes("ex:caf\u00e9 .\n".encode("latin-1"))
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"applekit: cannot read {what} {path}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["classify"], "classify needs --rules FILE or --bundled"),
            (["classify", "--rules", "{missing}"], "cannot read rules file {missing}: "),
            (["cq", "--manifest", "{missing}"], "cannot read manifest {missing}: "),
        ],
        ids=["no-rule-source", "missing-rules", "missing-manifest"],
    )
    def test_rule_source_is_checked_before_any_input(self, capsys, tmp_path, argv, message):
        # Loading the input would fail with exit 1: it is a subclass cycle.
        cyclic = tmp_path / "cyclic.ttl"
        cyclic.write_text(HEADER + "ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:A .\n", encoding="utf-8")
        missing = tmp_path / "missing"
        code, out, err = run(capsys, *(arg.format(missing=missing) for arg in argv), "-i", str(cyclic))
        assert (code, out) == (2, "")
        assert err.startswith("applekit: " + message.format(missing=missing)) and err.count("\n") == 1, err

    @pytest.mark.parametrize("target", ["missing-parent", "directory"])
    @pytest.mark.parametrize("command", ["reason", "classify", "validate"])
    def test_unwritable_output_is_config_error(self, capsys, tmp_path, command, target):
        path = tmp_path / "no" / "such" / "out" if target == "missing-parent" else tmp_path
        code, out, err = run(capsys, command, "--bundled", "-o", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"applekit: cannot write output file {path}: ") and err.count("\n") == 1, err

    def test_schema_error_is_parse_error(self, capsys, tmp_path):
        cyclic = tmp_path / "cyclic.ttl"
        long_cycle = "".join(f"ex:C{i} rdfs:subClassOf ex:C{(i + 1) % 1500} .\n" for i in range(1500))
        for body in ("ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:A .\n", long_cycle):
            cyclic.write_text(HEADER + body, encoding="utf-8")
            code, out, err = run(capsys, "reason", "-i", str(cyclic))
            assert (code, out) == (1, "")
            assert err.startswith("applekit: subclass cycle detected: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", [("reason",), ("query", "Agent"), ("cq",)])
    def test_unparsable_bundled_asset_is_config_error(self, capsys, tmp_path, monkeypatch, command):
        assets = tmp_path / "assets"
        shutil.copytree(asset_dir(), assets)
        taxonomy = assets / TAXONOMY_FILE
        taxonomy.write_text(taxonomy.read_text(encoding="utf-8") + "apple:Broken apple:p 42 .\n", encoding="utf-8")
        monkeypatch.setenv(ASSET_ENV_VAR, str(assets))
        code, out, err = run(capsys, *command, "--bundled")
        assert (code, out) == (2, "")
        assert err.startswith(f"applekit: cannot parse bundled asset {taxonomy}:") and err.count("\n") == 1, err

    def test_parse_error_reports_file_line_column(self, capsys, tmp_path):
        bad = tmp_path / "bad.ttl"
        bad.write_text(HEADER + "ex:s ex:p 42 .\n", encoding="utf-8")
        code, _, err = run(capsys, "reason", "-i", str(bad))
        assert code == 1
        assert f"{bad}:4:11" in err
        assert "bare numeric literals" in err

    @pytest.mark.parametrize("escape", [r"\UFFFFFFFF", r"\U00110000", r"\uD800"])
    @pytest.mark.parametrize("command", ["reason", "validate"])
    def test_escape_outside_unicode_is_parse_error(self, capsys, tmp_path, command, escape):
        bad = tmp_path / "bad.ttl"
        bad.write_text(HEADER + f'ex:s ex:p "{escape}" .\n', encoding="utf-8")
        code, _, err = run(capsys, command, "-i", str(bad), "-o", str(tmp_path / "out"))
        assert code == 1
        assert f"{bad}:4:14: error: invalid \\{escape[1]} escape" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["reason", "classify", "validate"])
    def test_format_only_where_there_is_a_choice(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--bundled", "--format", "json"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_invalid_prefix_label_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.ttl"
        cases = (("_x", "@prefix _x: <http://a/> .\n"), ("ex.", "@prefix ex.: <http://a/> .\nex.:s ex.:p ex.:o .\n"))
        for label, text in cases:
            bad.write_text(text, encoding="utf-8")
            code, out, err = run(capsys, "reason", "-i", str(bad))
            assert code == 1 and out == ""
            assert f"{bad}:1:9: error: invalid prefix label: '{label}'" in err

    def test_multiple_inputs_are_unioned(self, capsys, tmp_path, micro_ttl):
        other = tmp_path / "other.ttl"
        other.write_text(HEADER + "ex:j a ex:A .\n", encoding="utf-8")
        code, out, _ = run(capsys, "reason", "-i", str(micro_ttl), "-i", str(other))
        assert code == 0
        assert "ex:i a ex:A, ex:B ." in out
        assert "ex:j a ex:A, ex:B ." in out

    def test_bundled_and_input_are_unioned(self, capsys, micro_ttl):
        # The micro namespace shares no term with the bundle, so the closure
        # of the union is the union of the two closures.
        code, both, _ = run(capsys, "reason", "--bundled", "-i", str(micro_ttl))
        assert code == 0
        _, bundled, _ = run(capsys, "reason", "--bundled")
        _, alone, _ = run(capsys, "reason", "-i", str(micro_ttl))
        union = Graph([*parse_turtle(bundled), *parse_turtle(alone)])
        assert parse_turtle(both) == union
        assert "ex:i a ex:A, ex:B ." in both


    def test_blank_labels_are_scoped_to_their_file(self, capsys, tmp_path):
        # The bundled taxonomy has a restriction _:needsDomain; a file's own
        # _:needsDomain is another node, renamed _:needsDomain_2.
        extra = tmp_path / "extra.ttl"
        extra.write_text(HEADER + "_:needsDomain owl:onProperty ex:p .\n", encoding="utf-8")
        code, out, err = run(capsys, "reason", "--bundled", "-i", str(extra))
        assert (code, err) == (0, "")
        assert "_:needsDomain_2 owl:onProperty ex:p ." in out
        _, bundled, _ = run(capsys, "reason", "--bundled")
        renamed = parse_turtle(HEADER + "_:needsDomain_2 owl:onProperty ex:p .\n")
        assert parse_turtle(out) == Graph([*parse_turtle(bundled), *renamed])

    def test_blank_labels_of_two_files_stay_apart(self, capsys, tmp_path):
        paths = []
        for name in ("one", "two", "three"):
            path = tmp_path / f"{name}.ttl"
            path.write_text(HEADER + f"_:x ex:p ex:{name} .\n_:x_2 ex:q ex:{name} .\n", encoding="utf-8")
            paths += ["-i", str(path)]
        code, out, _ = run(capsys, "reason", *paths)
        assert code == 0
        subjects = {t.s.value: t.o.value for t in parse_turtle(out) if t.p.value == EX + "p"}
        assert subjects == {"x": EX + "one", "x_3": EX + "two", "x_4": EX + "three"}
        seconds = {t.s.value: t.o.value for t in parse_turtle(out) if t.p.value == EX + "q"}
        assert seconds == {"x_2": EX + "one", "x_2_2": EX + "two", "x_2_3": EX + "three"}


# Digests of the bundled commands' stdout, and of the bundled input, pinned
# so that a change to the writers or to the digest cannot move a byte.  Each
# key is a command line (shell quoting) that runs with --bundled added.
GOLDEN_STDOUT_SHA256 = {
    "reason": "c4d64bc81cf7150573d6924761d02f404e67a628752e6eeafd34fe97ce454ee0",
    "classify": "62b738143ffc6aba9c75a755ddedd854b5d24c7e294069c649043671349aef12",
    "validate": "ba7f31d4407b7edddbb7c94576615be6a76faf9823c6b96f81b89fa0800a68dc",
    "cq": "26bf494e5e6238b10bff7e0937f9aeea668462e1dc6a1ceaf8374ccc87dc162b",
    "query Agent": "6b6bd68b6de7e7332837835a9bc54acce7431aae04b6d7860a8ccc1303f53183",
    "query '?x resolvedBy ?y' --mode select": "2d54e9d54611540c41bbafdbffc5e7c9ba4a82efb98b33a084ecc5c284cb98fc",
    "query Agent --format tsv": "70c2d042cbcf3d0886f969210553e4c7c2664ac5d46c453d2ae7138a4293ca36",
    "query '?x resolvedBy ?y' --mode select --format tsv": "82397dd45b8a1c69e3adcd09de3242128260a2513fc990669294af2fcb28a028",
    "query 'AppliedEthics and appliesTo some {ProfessionalDomain}' --mode classes": "a6dfd7845ee3aed952984a812d4a19d4abc60da90adb13d7c000ca749bf2f8c0",
    "cq --format json": "54128aa4fc179a081dee88fb3c895063ea51508a6dd1ac5bb43fa29394fb58ed",
    # The join runs the last pattern, the one with two constants, first.
    "query '?a upholdsEthicalPrinciple ?p . ?a hasConsequence ?c . ?c hasSeverityOfConsequence SignificantConsequence'"
    " --mode select": "92cfe793e6904679f97381586d7a6dbef68c3ac24f43c48026457c1feaad51dc",
}
GOLDEN_INPUTS_DIGEST = "524cf50f16e05e8adfb3d086d823be5748384cc9db002b179d181d1c17532972"


class TestGoldenOutput:
    @pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT_SHA256))
    def test_bundled_stdout(self, capsys, command):
        code, out, _ = run(capsys, *shlex.split(command), "--bundled")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT_SHA256[command]

    def test_bundled_inputs_digest(self):
        assert inputs_digest(load_assets().combined()) == GOLDEN_INPUTS_DIGEST


class TestReason:
    def test_writes_materialized_turtle(self, capsys, micro_ttl):
        code, out, _ = run(capsys, "reason", "-i", str(micro_ttl))
        assert code == 0
        # The derived type shows up in the subject's object list.
        assert "ex:i a ex:A, ex:B ." in out

    def test_output_file_option(self, capsys, tmp_path, micro_ttl):
        target = tmp_path / "out.ttl"
        code, out, _ = run(capsys, "reason", "-i", str(micro_ttl), "-o", str(target))
        assert code == 0
        assert out == ""
        assert "ex:i a ex:A, ex:B ." in target.read_text()

    def test_byte_identical_across_runs(self, capsys, micro_ttl):
        _, first, _ = run(capsys, "reason", "-i", str(micro_ttl))
        _, second, _ = run(capsys, "reason", "-i", str(micro_ttl))
        assert first == second


class TestQuery:
    def test_instances_json(self, capsys):
        code, out, _ = run(capsys, "query", "Agent", "--bundled")
        assert code == 0
        assert json.loads(out) == [APPLE + "Doctor", APPLE + "Patient"]

    def test_instances_tsv(self, capsys):
        code, out, _ = run(capsys, "query", "Agent", "--bundled", "--format", "tsv")
        assert code == 0
        assert out == f"{APPLE}Doctor\n{APPLE}Patient\n"

    def test_classes_mode(self, capsys):
        code, out, _ = run(
            capsys, "query", "AppliedEthics and appliesTo some {ProfessionalDomain}",
            "--bundled", "--mode", "classes",
        )
        assert code == 0
        assert json.loads(out) == [APPLE + "AcademicEthics", APPLE + "BusinessEthics"]

    def test_select_json(self, capsys):
        code, out, _ = run(
            capsys, "query", "Deforestation resolvedBy ?x", "--bundled", "--mode", "select"
        )
        assert code == 0
        assert json.loads(out) == {
            "variables": ["?x"],
            "rows": [[APPLE + "DeepEcology"]],
        }

    def test_select_tsv_joins_with_tabs(self, capsys):
        code, out, _ = run(
            capsys, "query", "?x issueInField ?f", "--bundled",
            "--mode", "select", "--format", "tsv",
        )
        assert code == 0
        lines = [line.split("\t") for line in out.splitlines()]
        assert all(len(parts) == 2 for parts in lines)
        assert [APPLE + "Consent", MODSCI_BIOETHICS] in lines

    def test_unknown_name_is_query_error(self, capsys):
        code, _, err = run(capsys, "query", "NoSuchClass", "--bundled")
        assert code == 3
        assert "unknown class name" in err

    def test_bad_select_is_query_error(self, capsys):
        code, _, err = run(capsys, "query", "?x p", "--bundled", "--mode", "select")
        assert code == 3
        assert "exactly 3" in err

    @pytest.mark.parametrize(
        "argv", [("<foo>",), ("?x a <foo>", "--mode", "select")], ids=["expression", "select"]
    )
    def test_relative_iri_is_query_error(self, capsys, argv):
        code, _, err = run(capsys, "query", *argv, "--bundled")
        assert code == 3
        assert "not absolute" in err and "offset" in err

    def test_select_with_absolute_iri(self, capsys):
        code, out, _ = run(
            capsys, "query", "?x a <http://schema.org/Action>", "--bundled", "--mode", "select"
        )
        assert code == 0
        assert json.loads(out)["rows"] == [[APPLE + "PrescribeOpioidPainkiller"]]

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "query", "Agent", "--bundled")
        _, second, _ = run(capsys, "query", "Agent", "--bundled")
        assert first == second


MODSCI_BIOETHICS = "https://w3id.org/skgo/modsci#Bioethics"


class TestClassify:
    def test_bundled_verdict_payload(self, capsys):
        code, out, _ = run(capsys, "classify", "--bundled")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"inputs_digest", "verdicts"}
        assert len(payload["inputs_digest"]) == 64
        (verdict,) = payload["verdicts"]
        assert verdict["action"] == APPLE + "PrescribeOpioidPainkiller"
        assert verdict["verdict_class"] == APPLE + "MorallyWrongAction"
        assert verdict["fired_rules"] == ["R1"]
        bound_principles = {f["bindings"]["p"] for f in verdict["firings"]}
        assert bound_principles == {APPLE + "Nonmaleficence", APPLE + "Responsibility"}

    def test_requires_rules_or_bundled(self, capsys, micro_ttl):
        code, _, err = run(capsys, "classify", "-i", str(micro_ttl))
        assert code == 2
        assert "--rules" in err

    def test_bad_rules_file_is_config_error(self, capsys, tmp_path):
        rules = tmp_path / "bad.rules"
        rules.write_text("R: upholdsEthicalPrinciple(?a, ?p) -> MorallyRightAction(?b) .\n")
        code, _, err = run(capsys, "classify", "--bundled", "--rules", str(rules))
        assert code == 2
        assert "not bound" in err

    def test_relative_iri_in_rule_is_rule_error(self, capsys, tmp_path):
        rules = tmp_path / "relative.rules"
        rules.write_text("R: Action(?a) -> <foo>(?a) .\n")
        code, _, err = run(capsys, "classify", "--bundled", "--rules", str(rules))
        assert code == 2
        assert "line 1" in err and "not absolute" in err

    def test_literal_head_subject_derives_nothing(self, capsys, tmp_path):
        data = tmp_path / "literal.ttl"
        data.write_text(
            HEADER + "ex:D a owl:Class . ex:p a owl:ObjectProperty .\nex:a ex:p \"lit\" .\n", encoding="utf-8"
        )
        rules = tmp_path / "literal.rules"
        rules.write_text("R: p(?x, ?y) -> D(?y) .\n", encoding="utf-8")
        code, out, err = run(capsys, "classify", "-i", str(data), "--rules", str(rules))
        assert code == 0, err
        assert json.loads(out)["verdicts"] == []

    def test_conflicting_verdicts_exit_consistency(self, capsys, tmp_path):
        rules = tmp_path / "conflict.rules"
        rules.write_text(
            "X1: upholdsEthicalPrinciple(?a, ?p) -> MorallyRightAction(?a) .\n"
            "X2: violatesEthicalPrinciple(?a, ?p) -> MorallyWrongAction(?a) .\n"
        )
        code, _, err = run(capsys, "classify", "--bundled", "--rules", str(rules))
        assert code == 4
        assert "contradictory verdicts" in err

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "classify", "--bundled")
        _, second, _ = run(capsys, "classify", "--bundled")
        assert first == second


class TestValidate:
    def test_clean_bundle(self, capsys):
        code, out, _ = run(capsys, "validate", "--bundled")
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "closed"
        assert payload["counts"] == {"error": 0, "warning": 0, "by_kind": {}}
        assert payload["violations"] == []

    def test_clash_exits_consistency(self, capsys, tmp_path):
        clash = tmp_path / "clash.ttl"
        clash.write_text(
            "@prefix apple: <https://purl.org/appliedethicsontology#> .\n"
            "apple:ConfusedSchool a apple:Consequentialism, apple:Deontology .\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "validate", "--bundled", "-i", str(clash))
        assert code == 4
        payload = json.loads(out)
        assert payload["counts"]["error"] == 1
        assert payload["counts"]["by_kind"]["disjointness-clash"] == 1

    def test_open_world_skips_obligations(self, capsys, tmp_path):
        lonely = tmp_path / "lonely.ttl"
        lonely.write_text(
            "@prefix apple: <https://purl.org/appliedethicsontology#> .\n"
            "@prefix schema: <http://schema.org/> .\n"
            "apple:MysteryAction a schema:Action .\n",
            encoding="utf-8",
        )
        closed_code, closed_out, _ = run(capsys, "validate", "--bundled", "-i", str(lonely))
        assert closed_code == 0  # warnings do not change the exit code
        assert json.loads(closed_out)["counts"]["warning"] > 0
        open_code, open_out, _ = run(
            capsys, "validate", "--bundled", "-i", str(lonely), "--world", "open"
        )
        assert open_code == 0
        assert json.loads(open_out)["counts"]["warning"] == 0


class TestCq:
    def test_bundled_suite_passes(self, capsys):
        code, out, _ = run(capsys, "cq", "--bundled")
        assert code == 0
        assert "10/10 competency questions passed" in out
        assert out.count("pass") >= 10

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "cq", "--bundled", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 10
        assert all(case["passed"] for case in payload)

    def test_failing_manifest_exits_nonzero(self, capsys, tmp_path):
        manifest = tmp_path / "cq.json"
        manifest.write_text(
            json.dumps(
                {
                    "cases": [
                        {
                            "id": "X1",
                            "question": "who is an agent",
                            "mode": "instances",
                            "query": "Agent",
                            "expected": [APPLE + "Doctor"],
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "cq", "--bundled", "--manifest", str(manifest))
        assert code == 1
        assert "FAIL" in out
        assert "0/1 competency questions passed" in out
        assert "expected" in out and "actual" in out

    def test_select_of_two_variables_joins_each_row_with_a_tab(self, capsys, tmp_path):
        case = {
            "id": "X2",
            "question": "which issue is resolved by which approach",
            "mode": "select",
            "query": "?x resolvedBy ?y",
            "expected": [
                APPLE + "Deforestation\t" + APPLE + "DeepEcology",
                APPLE + "Consent\t" + APPLE + "Principlism",
            ],
        }
        manifest = tmp_path / "cq.json"
        manifest.write_text(json.dumps({"cases": [case]}), encoding="utf-8")
        cases = parse_cq_manifest(manifest.read_text(encoding="utf-8"))
        assets = load_assets()
        graph = materialize(assets.combined(), assets.schema)
        (result,) = run_cq_suite(cases, graph, assets.schema, assets.catalog)
        assert result.passed and result.actual == tuple(sorted(case["expected"]))
        code, out, _ = run(capsys, "cq", "--bundled", "--manifest", str(manifest), "--format", "json")
        assert code == 0
        assert json.loads(out) == [result.to_json()]

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"cases": [7]},
            {"cases": [{"id": "X1", "mode": "instances", "query": "Agent", "expected": 3}]},
            {"cases": [{"id": "X1", "mode": "instances", "query": "Agent", "expected": APPLE + "Doctor"}]},
            {"cases": [{"id": "X1", "mode": "instances", "query": "Agent", "expected": [], "question": ["Who?"]}]},
            {"cases": [{"id": "X1", "mode": "instances", "query": "Agent", "expected": [], "reconstructed": "false"}]},
        ],
        ids=[
            "top-level-list", "case-not-object", "expected-number", "expected-string",
            "question-list", "reconstructed-string",
        ],
    )
    def test_misshaped_manifest_is_config_error(self, capsys, tmp_path, payload):
        manifest = tmp_path / "cq.json"
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run(capsys, "cq", "--bundled", "--manifest", str(manifest))
        assert (code, out) == (2, "")
        assert err.startswith("applekit: ") and "manifest" in err and err.count("\n") == 1, err


class TestInputPrefixes:
    """Prefixed names in queries and rules may use any prefix an input declares."""

    MY = "http://my.example/ns#"

    @pytest.fixture()
    def declared(self, tmp_path):
        path = tmp_path / "declared.ttl"
        path.write_text(
            f"@prefix my: <{self.MY}> .\n"
            "my:a a my:C, <http://schema.org/Action> .\nmy:a my:p my:b .\n"
            f"my:a <{APPLE}violatesEthicalPrinciple> my:b .\n",
            encoding="utf-8",
        )
        return path

    def test_class_expression(self, capsys, declared):
        code, out, err = run(capsys, "query", "my:C", "-i", str(declared))
        assert (code, err) == (0, "")
        assert json.loads(out) == [self.MY + "a"]

    def test_select(self, capsys, declared):
        code, out, err = run(capsys, "query", "?x my:p ?y", "--mode", "select", "-i", str(declared))
        assert (code, err) == (0, "")
        assert json.loads(out)["rows"] == [[self.MY + "a", self.MY + "b"]]

    def test_rule_file(self, capsys, tmp_path, declared):
        rules = tmp_path / "declared.rules"
        rules.write_text("R1: my:C(?x) -> apple:MorallyWrongAction(?x) .\n", encoding="utf-8")
        code, out, err = run(capsys, "classify", "--rules", str(rules), "-i", str(declared))
        assert (code, err) == (0, "")
        (verdict,) = json.loads(out)["verdicts"]
        assert (verdict["action"], verdict["fired_rules"]) == (self.MY + "a", ["R1"])


@pytest.fixture(scope="module")
def scenario_inputs(tmp_path_factory):
    """The taxonomy plus 2 and plus 8 renamed scenario copies, as Turtle."""
    assets = load_assets()
    folder = tmp_path_factory.mktemp("scenario-copies")
    paths = []
    for copies in (2, 8):
        graph = renamed_scenario_copies(assets.taxonomy, assets.scenario, copies)
        path = folder / f"copies-{copies}.ttl"
        path.write_text(serialize_turtle(graph, assets.prefixes), encoding="utf-8")
        paths.append(path)
    return paths


class TestOwnership:
    """A command parses its inputs into a graph only it holds and extends
    that graph in place; it never copies it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["reason"],
            ["classify", "--rules", str(asset_dir() / RULES_FILE)],
            ["validate"],
            ["query", "Agent"],
            ["cq"],
        ],
        ids=["reason", "classify", "validate", "query", "cq"],
    )
    def test_no_graph_copy(self, monkeypatch, tmp_path, argv):
        load_assets()  # the cached bundle cq reads its cases from
        inputs = ["-i", str(asset_dir() / TAXONOMY_FILE), "-i", str(asset_dir() / SCENARIO_FILE)]
        copies = []
        original = Graph.copy
        monkeypatch.setattr(Graph, "copy", lambda graph: copies.append(len(graph)) or original(graph))
        assert main([*argv, *inputs, "-o", str(tmp_path / "out")]) == 0
        assert copies == []

    @pytest.mark.parametrize("command", ["classify", "validate"])
    def test_digest_is_of_the_parsed_input(self, tmp_path, scenario_inputs, command):
        path = scenario_inputs[0]
        expected = inputs_digest(parse_document(path.read_text(encoding="utf-8")).graph)
        extra = ["--rules", str(asset_dir() / RULES_FILE)] if command == "classify" else []
        out = tmp_path / "out.json"
        assert main([command, *extra, "-i", str(path), "-o", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["inputs_digest"] == expected


def _exit_case(tmp_path, micro_ttl, code):
    """Arguments that make main return ``code``."""
    bad = tmp_path / "bad.ttl"
    bad.write_text(HEADER + "ex:s ex:p 42 .\n", encoding="utf-8")
    clash = tmp_path / "clash.ttl"
    clash.write_text(
        "@prefix apple: <https://purl.org/appliedethicsontology#> .\n"
        "apple:ConfusedSchool a apple:Consequentialism, apple:Deontology .\n",
        encoding="utf-8",
    )
    return {
        0: ["reason", "-i", str(micro_ttl)],
        1: ["reason", "-i", str(bad)],
        2: ["reason"],
        3: ["query", "NoSuchClass", "-i", str(micro_ttl)],
        4: ["validate", "--bundled", "-i", str(clash)],
    }[code]


class TestCollectorPause:
    """main switches the cyclic collector off while a command runs."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["classify", "--rules", str(asset_dir() / RULES_FILE)], 0),
            (["reason"], 0),
            (["validate"], 0),
            (["query", "Action"], 0),
            (["cq", "--bundled"], 0),
            (["query", "NoSuchClass"], 3),
            (["classify", "--rules", "{unknown_class_rules}"], 2),
        ],
        ids=["classify", "reason", "validate", "query", "cq", "query-error", "rule-error"],
    )
    def test_cyclic_garbage_does_not_grow_with_input(self, capsys, tmp_path, scenario_inputs, argv, code):
        # A command that left cycles holding its graphs would free them only
        # at the next collection, and they would grow with the input.
        rules = tmp_path / "unknown-class.rules"
        rules.write_text("R: Action(?a) -> NoSuchClass(?a) .\n", encoding="utf-8")
        argv = [arg.format(unknown_class_rules=rules) for arg in argv]
        cli._parser()  # built once per process, and argparse leaves cycles behind as it builds
        found = []
        for path in scenario_inputs:
            gc.collect()
            gc.disable()
            try:
                assert main([*argv, "-i", str(path), "-o", str(tmp_path / "out")]) == code
                found.append(gc.collect())
            finally:
                gc.enable()
        assert found[0] == found[1], found

    def test_handler_runs_with_the_collector_off(self, monkeypatch, micro_ttl):
        seen = []
        monkeypatch.setattr(cli, "_cmd_reason", lambda args: seen.append(gc.isenabled()) or 0)
        assert main(["reason", "-i", str(micro_ttl)]) == 0
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("code", [0, 1, 2, 3, 4])
    def test_restores_the_callers_collector_state(self, capsys, tmp_path, micro_ttl, enabled, code):
        argv = _exit_case(tmp_path, micro_ttl, code)
        if not enabled:
            gc.disable()
        try:
            assert main(argv) == code
            after = gc.isenabled()
        finally:
            gc.enable()
        assert after is enabled

    def test_restores_the_collector_when_a_command_raises(self, monkeypatch, micro_ttl):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_reason", broken)
        with pytest.raises(RuntimeError):
            main(["reason", "-i", str(micro_ttl)])
        assert gc.isenabled()


class TestOneParserPerProcess:
    COMMANDS = (("reason",), ("classify",), ("query", "Agent"), ("validate",), ("cq",))

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser() is not cli.build_parser()

    def test_back_to_back_commands_write_what_fresh_processes_write(self, tmp_path, micro_ttl):
        obligation = tmp_path / "obligation.ttl"
        obligation.write_text(
            HEADER + "ex:has a owl:ObjectProperty .\nex:B a owl:Class .\n"
            "ex:A a owl:Class ; rdfs:subClassOf _:r .\n"
            "_:r a owl:Restriction ; owl:onProperty ex:has ; owl:someValuesFrom ex:B .\n"
            "ex:i a ex:A .\n",
            encoding="utf-8",
        )
        runs = [
            ("validate", "--world", "closed", "-i", str(obligation)),
            ("validate", "--world", "open", "-i", str(obligation)),
            ("reason", "-i", str(micro_ttl), "-i", str(obligation)),
            ("reason", "-i", str(obligation)),
            ("validate", "-i", str(micro_ttl)),
        ]
        # argparse sets a list default on the namespace as it is; an append
        # that did not copy it first would change every later command's.
        defaults = [cli._parser().parse_args(command).input for command in self.COMMANDS]
        written = set()
        for k, argv in enumerate(runs):
            here, fresh = tmp_path / f"in-process-{k}", tmp_path / f"fresh-{k}"
            code = main([*argv, "-o", str(here)])
            result = _run_in_process([*argv, "-o", str(fresh)], {}, tmp_path)
            assert code == result.returncode == 0, result.stderr
            assert here.read_bytes() == fresh.read_bytes(), argv
            written.add(here.read_bytes())
            assert defaults == [[]] * len(self.COMMANDS)
            assert all(cli._parser().parse_args(c).input is d for c, d in zip(self.COMMANDS, defaults))
        assert len(written) == len(runs)  # each run's options took effect


def _read_pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)


def _declared_script(pyproject):
    """The ``applekit`` value of ``[project.scripts]`` as ``(module, attr)``."""
    scripts = pyproject.get("project", {}).get("scripts", {})
    assert "applekit" in scripts, "pyproject.toml declares no 'applekit' script"
    target = scripts["applekit"]
    match = re.fullmatch(r"\s*([\w.]+)\s*:\s*(\w+)\s*", target)
    assert match, f"script target {target!r} is not of the form module:attr"
    return match.group(1), match.group(2)


def _child_env():
    env = dict(os.environ)
    env.pop(ASSET_ENV_VAR, None)
    return env


def _run_in_process(argv, settings, cwd):
    """Run ``python -m applekit.cli`` from this checkout with the
    environment variables ``settings`` added."""
    env = _child_env()
    env["PYTHONPATH"] = str(SRC_DIR)
    env.update(settings)
    return subprocess.run(
        [sys.executable, "-m", "applekit.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=cwd,
    )


# The two processes of each pair.  Strings hash differently in each, and
# the second takes its memory from the system allocator, so its terms lie at
# other addresses: a term hashes by identity, so set order follows address.
PAIR_SETTINGS = ({"PYTHONHASHSEED": "0"}, {"PYTHONHASHSEED": "2", "PYTHONMALLOC": "malloc"})

# The commands acceptance criterion 5 reruns in one process.
CRITERION_5_COMMANDS = [
    ("reason", "--bundled"),
    ("classify", "--bundled"),
    ("query", "Agent", "--bundled"),
    ("query", "EthicalPrinciple", "--bundled", "--mode", "classes"),
    ("query", "Deforestation resolvedBy ?x", "--bundled", "--mode", "select"),
    ("validate", "--bundled"),
    ("cq", "--bundled"),
]

# S2 matches the edges S1 derives only in the joins those edges start, whose
# order follows set order.
RECURSIVE_RULES = (
    "S2: Action(?a), <http://example.org/viol>(?a, ?p) -> MorallyWrongAction(?a) .\n"
    "S1: violatesEthicalPrinciple(?a, ?p) -> <http://example.org/viol>(?a, ?p) .\n"
)


@pytest.fixture(scope="module")
def hash_order_inputs(tmp_path_factory):
    """Two input files where a writer or a query that skipped a sort would
    show string hashing: multi-object ``(s, p)`` groups, many subjects per
    ``(p, o)`` (renamed scenario copies share every class), literals that
    differ only in tag or datatype, and blank labels used in both files."""
    assets = load_assets()
    rng = random.Random(1501)
    one = add_literals(rng, renamed_scenario_copies(assets.taxonomy, assets.scenario, 12))
    two = add_literals(rng, random_graph(rng, max_triples=300, max_individuals=40))
    for graph in (one, two):
        for k in range(3):
            graph.insert(Triple(blank(f"shared{k}"), iri(EX + "p"), iri(f"{EX}o{rng.randint(0, 4)}")))
            graph.insert(Triple(blank("needsDomain"), iri(EX + "q"), blank(f"shared{k}")))
    folder = tmp_path_factory.mktemp("hash-order")
    paths = []
    for name, graph in (("one", one), ("two", two)):
        path = folder / f"{name}.ttl"
        path.write_text(serialize_turtle(graph, assets.prefixes), encoding="utf-8")
        paths.append(str(path))
    return ("-i", paths[0], "-i", paths[1])


class TestHashSeedIndependence:
    """Output is byte-identical in fresh processes under different
    ``PYTHONHASHSEED`` values and allocators, which a rerun in one process
    cannot show."""

    @pytest.mark.parametrize(
        "argv",
        CRITERION_5_COMMANDS,
        ids=["reason", "classify", "instances", "classes", "select", "validate", "cq"],
    )
    def test_criterion_5_commands(self, argv, tmp_path):
        first, second = (_run_in_process(argv, settings, tmp_path) for settings in PAIR_SETTINGS)
        assert first.returncode == second.returncode == 0, first.stderr + second.stderr
        assert first.stdout, f"{argv[0]} produced no output"
        assert first.stdout == second.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ("reason",),
            ("classify", "--rules", str(asset_dir() / RULES_FILE)),
            ("validate",),
            ("query", "?a violatesEthicalPrinciple ?p . ?a ?r ?o", "--mode", "select"),
        ],
        ids=["reason", "classify", "validate", "select"],
    )
    def test_generated_inputs(self, argv, hash_order_inputs, tmp_path):
        argv = (*argv, *hash_order_inputs)
        first, second = (_run_in_process(argv, settings, tmp_path) for settings in PAIR_SETTINGS)
        assert first.returncode == second.returncode, first.stderr + second.stderr
        assert first.stdout and first.stdout == second.stdout

    def test_recursive_rules_firing_order(self, tmp_path):
        rules = tmp_path / "recursive.rules"
        rules.write_text(RECURSIVE_RULES, encoding="utf-8")
        argv = ("classify", "--bundled", "--rules", str(rules))
        first, second = (_run_in_process(argv, settings, tmp_path) for settings in PAIR_SETTINGS)
        assert first.returncode == second.returncode == 0, first.stderr + second.stderr
        assert first.stdout == second.stdout
        (verdict,) = json.loads(first.stdout)["verdicts"]
        assert [f["bindings"]["p"] for f in verdict["firings"]] == [
            APPLE + "Nonmaleficence",
            APPLE + "Responsibility",
        ]


class TestConsoleScript:
    """The ``applekit`` command as packaged runs the bundled CQ suite.

    The declared entry point is checked from the checkout: the test writes
    the launcher an installer generates from ``[project.scripts]`` and runs
    it against this source tree, so no install is needed.  Where the
    package is installed, the script on PATH is checked as well.
    """

    @pytest.mark.skipif(
        not PYPROJECT.is_file(), reason="pyproject.toml not next to the package"
    )
    def test_entry_point_installed(self, tmp_path):
        pyproject = _read_pyproject()
        module, attr = _declared_script(pyproject)

        globs = pyproject["tool"]["setuptools"]["package-data"]["applekit"]
        for name in ASSET_FILES:
            assert any(fnmatch(f"assets/{name}", glob) for glob in globs), (
                f"assets/{name} is not shipped by package-data {globs}"
            )

        launcher = tmp_path / "applekit"
        launcher.write_text(
            f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n",
            encoding="utf-8",
        )
        env = _child_env()
        env["PYTHONPATH"] = str(SRC_DIR)
        result = subprocess.run(
            [sys.executable, str(launcher), "cq", "--bundled"],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "10/10" in result.stdout

    @pytest.mark.skipif(
        shutil.which("applekit") is None, reason="applekit is not installed"
    )
    def test_installed_script_on_path(self, tmp_path):
        exe = shutil.which("applekit")
        result = subprocess.run(
            [exe, "cq", "--bundled"],
            capture_output=True,
            text=True,
            timeout=120,
            env=_child_env(),
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "10/10" in result.stdout

        if not PYPROJECT.is_file():
            return
        try:
            dist = importlib.metadata.distribution("applekit")
        except importlib.metadata.PackageNotFoundError:
            return
        installed = {
            ep.name: ep.value
            for ep in dist.entry_points
            if ep.group == "console_scripts"
        }
        module, attr = _declared_script(_read_pyproject())
        assert installed.get("applekit") == f"{module}:{attr}"
