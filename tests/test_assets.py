"""Bundled asset integrity, environment override, and the name catalog."""

import re
import shutil
import sys
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _oracles import ambiguous_names  # noqa: E402

from applekit.assets import (
    ASSET_ENV_VAR,
    COUNTS_FILE,
    RULES_FILE,
    SCENARIO_FILE,
    TAXONOMY_FILE,
    AssetError,
    asset_dir,
    default_catalog,
    load_assets,
    parse_cq_manifest,
)
from applekit.cli import main
from applekit.materialize import materialize
from applekit.terms import Triple, iri
from applekit.vocab import (
    APPLE,
    DOES_ACTION,
    MODSCI,
    UPHOLDS_PRINCIPLE,
    VIOLATES_PRINCIPLE,
)

RDFS_SUBCLASSOF = "http://www.w3.org/2000/01/rdf-schema#subClassOf"


@pytest.fixture()
def asset_copy(tmp_path, monkeypatch):
    """A private copy of the bundle, selected via the environment override."""
    target = tmp_path / "assets"
    shutil.copytree(asset_dir(), target)
    monkeypatch.setenv(ASSET_ENV_VAR, str(target))
    return target


class TestIntegrity:
    def test_counts_match_manifest(self):
        assets = load_assets()
        assert len(assets.taxonomy) == assets.counts["taxonomy"]
        assert len(assets.scenario) == assets.counts["scenario"]

    def test_materialized_count_is_frozen(self):
        assets = load_assets()
        graph = materialize(assets.combined(), assets.schema)
        assert len(graph) == assets.counts["materialized"]

    def test_loader_caches_per_path(self):
        assert load_assets() is load_assets()

    def test_env_override_is_honored(self, asset_copy):
        assets = load_assets()
        assert len(assets.taxonomy) == assets.counts["taxonomy"]
        assert asset_dir() == asset_copy

    def test_tampered_graph_fails_integrity_check(self, asset_copy):
        scenario = asset_copy / SCENARIO_FILE
        extra = "\napple:Doctor apple:hasMoralIntention apple:SecondIntention .\n"
        scenario.write_text(scenario.read_text() + extra)
        with pytest.raises(AssetError, match="appear corrupted"):
            load_assets()

    def test_missing_file_reported(self, asset_copy):
        (asset_copy / RULES_FILE).unlink()
        with pytest.raises(AssetError, match="cannot read"):
            load_assets()

    def test_undecodable_file_reported(self, asset_copy):
        (asset_copy / RULES_FILE).write_bytes("# caf\u00e9\n".encode("latin-1"))
        with pytest.raises(AssetError, match="cannot read bundled asset"):
            load_assets()

    @pytest.mark.parametrize("name", [TAXONOMY_FILE, SCENARIO_FILE])
    def test_unparsable_graph_names_file_line_and_column(self, asset_copy, name):
        target = asset_copy / name
        text = target.read_text(encoding="utf-8")
        target.write_text(text + "apple:Broken apple:p 42 .\n", encoding="utf-8")
        line = text.count("\n") + 1
        with pytest.raises(AssetError, match=f"^cannot parse bundled asset {re.escape(str(target))}:{line}:22: error: bare numeric"):
            load_assets()

    def test_counts_entry_missing(self, asset_copy):
        (asset_copy / COUNTS_FILE).write_text('{"taxonomy": 230}')
        with pytest.raises(AssetError, match="no entry for 'scenario'"):
            load_assets()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("{nope", "asset count manifest is not valid JSON"),
            ("[230, 41, 298]", "must be a JSON object whose counts are integers"),
            ('{"taxonomy": "x"}', "must be a JSON object whose counts are integers"),
            ('{"taxonomy": 230.0, "scenario": 41, "materialized": 298}', "must be a JSON object whose counts"),
            ('{"taxonomy": 230, "scenario": true, "materialized": 298}', "must be a JSON object whose counts"),
        ],
        ids=["invalid-json", "list", "string-count", "float-count", "boolean-count"],
    )
    def test_misshaped_counts_manifest(self, asset_copy, tmp_path, capsys, text, message):
        (asset_copy / COUNTS_FILE).write_text(text)
        with pytest.raises(AssetError, match=message):
            load_assets()
        assert main(["reason", "--bundled", "-o", str(tmp_path / "out.ttl")]) == 2
        assert capsys.readouterr().err.startswith("applekit: asset count manifest")


class TestCqManifest:
    def test_bundled_manifest_shape(self):
        cases = load_assets().cq_cases
        assert [case.id for case in cases] == [f"CQ{i}" for i in range(1, 11)]
        assert all(case.mode in ("instances", "classes", "select") for case in cases)
        assert all(case.expected for case in cases)
        assert all(case.expected == tuple(sorted(case.expected)) for case in cases)
        assert [case.id for case in cases if case.reconstructed] == ["CQ10"]
        assert all(case.question for case in cases)

    def test_parse_rejects_bad_json(self):
        with pytest.raises(AssetError, match="not valid JSON"):
            parse_cq_manifest("{nope")

    def test_parse_rejects_missing_fields(self):
        with pytest.raises(AssetError, match="missing fields: expected, query"):
            parse_cq_manifest('{"cases": [{"id": "C1", "mode": "select"}]}')

    def test_parse_rejects_unknown_mode(self):
        with pytest.raises(AssetError, match="unknown mode"):
            parse_cq_manifest(
                '{"cases": [{"id": "C1", "mode": "ask", "query": "q", "expected": []}]}'
            )

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[]", "must be a JSON object whose cases are a list"),
            ('{"cases": {"id": "C1"}}', "must be a JSON object whose cases are a list"),
            ('{"cases": [7]}', "manifest case 1 is not a JSON object"),
            ('{"cases": [{"id": "C1", "mode": "select", "query": 7, "expected": []}]}', "case 1: id, mode and query"),
            ('{"cases": [{"id": "C1", "mode": "select", "query": "q", "expected": "ab"}]}', "case C1: expected must"),
            ('{"cases": [{"id": "C1", "mode": "select", "query": "q", "expected": 3}]}', "case C1: expected must"),
            ('{"cases": [{"id": "C1", "mode": "select", "query": "q", "expected": [1]}]}', "case C1: expected must"),
            (
                '{"cases": [{"id": "C1", "mode": "select", "query": "q", "expected": [], "question": 7}]}',
                "case 1: question must be a string",
            ),
            (
                '{"cases": [{"id": "C1", "mode": "select", "query": "q", "expected": [], "reconstructed": "false"}]}',
                "case 1: .* reconstructed true or false",
            ),
        ],
    )
    def test_parse_rejects_misshaped(self, text, message):
        with pytest.raises(AssetError, match=message):
            parse_cq_manifest(text)

    def test_parse_rejects_empty(self):
        with pytest.raises(AssetError, match="no cases"):
            parse_cq_manifest('{"cases": []}')

    def test_expected_values_are_sorted_on_load(self):
        cases = parse_cq_manifest(
            '{"cases": [{"id": "C1", "mode": "select", "query": "q", "expected": ["b", "a"]}]}'
        )
        assert cases[0].expected == ("a", "b")


class TestBundledFacts:
    def test_field_taxonomy_edge(self):
        assets = load_assets()
        assert (
            Triple(iri(MODSCI + "Bioethics"), iri(RDFS_SUBCLASSOF), iri(APPLE + "AppliedEthics"))
            in assets.taxonomy
        )

    def test_issue_resolution_edge(self):
        graph = load_assets().combined()
        assert (
            Triple(iri(APPLE + "Deforestation"), iri(APPLE + "resolvedBy"), iri(APPLE + "DeepEcology"))
            in graph
        )

    def test_doctor_does_exactly_one_action(self):
        graph = load_assets().combined()
        doctor = iri(APPLE + "Doctor")
        assert graph.match(doctor, iri(DOES_ACTION), None) == [
            Triple(doctor, iri(DOES_ACTION), iri(APPLE + "PrescribeOpioidPainkiller"))
        ]

    def test_schema_shape(self):
        schema = load_assets().schema
        ethics = (APPLE + "Consequentialism", APPLE + "Deontology", APPLE + "VirtueEthics")
        verdicts = (APPLE + "MorallyGreyAction", APPLE + "MorallyRightAction", APPLE + "MorallyWrongAction")
        assert schema.disjoint_pairs == set(combinations(ethics, 2)) | set(combinations(verdicts, 2))
        assert len(schema.obligations) == 16

    def test_prefixes_cover_all_namespaces(self):
        prefixes = load_assets().prefixes
        assert prefixes.namespace("apple") == APPLE
        assert prefixes.namespace("modsci") == MODSCI
        assert prefixes.compress(APPLE + "Doctor") == "apple:Doctor"


class TestCatalog:
    def test_no_ambiguous_bare_names(self):
        assert ambiguous_names(load_assets().catalog) == {}

    def test_plural_aliases_resolve(self):
        catalog = default_catalog()
        assert catalog.resolve("upholdsEthicalPrinciples", "property") == UPHOLDS_PRINCIPLE
        assert catalog.resolve("violatesEthicalPrinciples", "property") == VIOLATES_PRINCIPLE
        assert catalog.resolve("EthicalPrinciples", "class") == APPLE + "EthicalPrinciple"

    def test_punned_field_resolves_as_class(self):
        catalog = default_catalog()
        assert catalog.resolve("Bioethics", "class") == MODSCI + "Bioethics"
        with pytest.raises(KeyError):
            catalog.resolve("Bioethics", "individual")

    def test_default_catalog_is_bundle_catalog(self):
        assert default_catalog() is load_assets().catalog
