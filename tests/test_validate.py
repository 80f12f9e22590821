"""Disjointness clashes and closed-world obligation audits."""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _gen import add_obligations, random_graph  # noqa: E402
from _oracles import brute_violations  # noqa: E402

from applekit.assets import load_assets
from applekit.materialize import materialize
from applekit.schema import extract_schema
from applekit.terms import RDF_TYPE, Triple, iri
from applekit.turtle import parse_turtle
from applekit.validate import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    ValidationReport,
    check_disjointness,
    check_obligations,
    inputs_digest,
    validate_graph,
)

EX = "http://example.org/"
HEADER = (
    f"@prefix ex: <{EX}> .\n"
    "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
)


def materialized(text):
    graph = parse_turtle(HEADER + text)
    schema = extract_schema(graph)
    return materialize(graph, schema), schema


class TestDisjointness:
    def test_clash_reported_per_pair(self):
        graph, schema = materialized(
            "ex:A owl:disjointWith ex:B . ex:B owl:disjointWith ex:C . ex:A owl:disjointWith ex:C .\n"
            "ex:i a ex:A, ex:B, ex:C ."
        )
        violations = check_disjointness(graph, schema)
        assert len(violations) == 3
        assert all(v.kind == "disjointness-clash" for v in violations)
        assert all(v.severity == SEVERITY_ERROR for v in violations)
        assert {tuple(v.detail) for v in violations} == {
            (EX + "A", EX + "B"),
            (EX + "A", EX + "C"),
            (EX + "B", EX + "C"),
        }

    def test_no_clash_when_types_split_across_individuals(self):
        graph, schema = materialized(
            "ex:A owl:disjointWith ex:B . ex:i a ex:A . ex:j a ex:B ."
        )
        assert check_disjointness(graph, schema) == []

    def test_derived_types_can_clash(self):
        # The clash only exists after type inheritance lifts i into B.
        graph, schema = materialized(
            "ex:A owl:disjointWith ex:B . ex:SubB rdfs:subClassOf ex:B .\n"
            "ex:i a ex:A, ex:SubB ."
        )
        violations = check_disjointness(graph, schema)
        assert [tuple(v.detail) for v in violations] == [(EX + "A", EX + "B")]

    def test_message_names_both_classes(self):
        graph, schema = materialized("ex:A owl:disjointWith ex:B . ex:i a ex:A, ex:B .")
        (violation,) = check_disjointness(graph, schema)
        assert violation.subject == EX + "i"
        assert EX + "A" in violation.message() and EX + "B" in violation.message()


OBLIGATED = (
    "ex:C rdfs:subClassOf _:r .\n"
    "_:r a owl:Restriction ; owl:onProperty ex:p ; owl:someValuesFrom ex:D .\n"
    "ex:p a owl:ObjectProperty .\n"
)


class TestObligations:
    def test_missing_witness_warns_in_closed_mode(self):
        graph, schema = materialized(OBLIGATED + "ex:i a ex:C .")
        (violation,) = check_obligations(graph, schema)
        assert violation.kind == "unsatisfied-obligation"
        assert violation.severity == SEVERITY_WARNING
        assert violation.subject == EX + "i"
        assert violation.detail == (EX + "C", EX + "p", EX + "D")
        assert "closed-world" in violation.message()

    def test_witness_silences_warning(self):
        graph, schema = materialized(OBLIGATED + "ex:i a ex:C ; ex:p ex:w . ex:w a ex:D .")
        assert check_obligations(graph, schema) == []

    def test_edge_to_wrongly_typed_node_still_warns(self):
        graph, schema = materialized(OBLIGATED + "ex:i a ex:C ; ex:p ex:w . ex:w a ex:E .")
        assert len(check_obligations(graph, schema)) == 1

    def test_literal_objects_are_not_witnesses(self):
        graph, schema = materialized(OBLIGATED + 'ex:i a ex:C ; ex:p "text" .')
        assert len(check_obligations(graph, schema)) == 1

    def test_derived_witness_type_counts(self):
        # w is typed SubD; materialization lifts it into D, satisfying the check.
        graph, schema = materialized(
            OBLIGATED + "ex:SubD rdfs:subClassOf ex:D . ex:i a ex:C ; ex:p ex:w . ex:w a ex:SubD ."
        )
        assert check_obligations(graph, schema) == []

    def test_derived_edge_counts(self):
        # The p edge comes from a subproperty assertion plus propagation.
        graph, schema = materialized(
            OBLIGATED + "ex:sub rdfs:subPropertyOf ex:p .\n"
            "ex:i a ex:C ; ex:sub ex:w . ex:w a ex:D ."
        )
        assert check_obligations(graph, schema) == []

    def test_inherited_holders_audited(self):
        # i is typed SubC only; inheritance makes it a C, so the duty applies.
        graph, schema = materialized(OBLIGATED + "ex:SubC rdfs:subClassOf ex:C . ex:i a ex:SubC .")
        (violation,) = check_obligations(graph, schema)
        assert violation.subject == EX + "i"

    def test_open_mode_reports_nothing(self):
        graph, schema = materialized(OBLIGATED + "ex:i a ex:C .")
        assert check_obligations(graph, schema, mode="open") == []

    def test_unknown_mode_rejected(self):
        graph, schema = materialized(OBLIGATED)
        with pytest.raises(ValueError, match="mode"):
            check_obligations(graph, schema, mode="ajar")


class TestOracle:
    @pytest.mark.parametrize("mode", ["closed", "open"])
    def test_random_graphs_match_oracle(self, mode):
        checked = 0
        for seed in range(60):
            rng = random.Random(7000 + seed)
            graph = add_obligations(rng, random_graph(rng))
            schema = extract_schema(graph)
            report = validate_graph(graph, schema, mode)
            got = [(v.kind, v.severity, v.subject, v.detail) for v in report.violations]
            assert got == brute_violations(graph, schema, mode), seed
            checked += len(got)
        assert checked  # the random graphs do produce violations


class TestReport:
    def test_validate_graph_combines_checks(self):
        graph = parse_turtle(
            HEADER + OBLIGATED + "ex:A owl:disjointWith ex:B .\n"
            "ex:i a ex:A, ex:B, ex:C ."
        )
        report = validate_graph(graph)
        assert report.error_count == 1
        assert report.warning_count == 1
        assert report.counts_by_kind() == {
            "disjointness-clash": 1,
            "unsatisfied-obligation": 1,
        }
        assert report.mode == "closed"

    def test_open_mode_via_validate_graph(self):
        graph = parse_turtle(HEADER + OBLIGATED + "ex:i a ex:C .")
        report = validate_graph(graph, mode="open")
        assert report.violations == ()

    def test_json_shape(self):
        graph = parse_turtle(HEADER + OBLIGATED + "ex:i a ex:C .")
        report = validate_graph(graph)
        payload = report.to_json()
        assert set(payload) == {"mode", "inputs_digest", "counts", "violations"}
        assert payload["counts"] == {
            "error": 0,
            "warning": 1,
            "by_kind": {"unsatisfied-obligation": 1},
        }
        (violation,) = payload["violations"]
        assert set(violation) == {"kind", "severity", "subject", "detail", "message"}
        # render_json round-trips and ends with a newline.
        assert json.loads(report.render_json()) == payload
        assert report.render_json().endswith("\n")

    def test_render_is_byte_deterministic(self):
        text = HEADER + OBLIGATED + "ex:A owl:disjointWith ex:B . ex:i a ex:A, ex:B, ex:C ."
        one = validate_graph(parse_turtle(text)).render_json()
        triples = list(parse_turtle(text))
        from applekit.graph import Graph

        two = validate_graph(Graph(reversed(triples))).render_json()
        assert one == two

    def test_digest_covers_raw_input_not_materialization(self):
        graph = parse_turtle(HEADER + OBLIGATED + "ex:SubC rdfs:subClassOf ex:C . ex:i a ex:SubC .")
        report = validate_graph(graph)
        assert report.digest == inputs_digest(graph)
        schema = extract_schema(graph)
        bigger = materialize(graph, schema)
        assert len(bigger) > len(graph)
        assert inputs_digest(bigger) != report.digest

    def test_digest_is_content_addressed(self):
        g1 = parse_turtle(HEADER + "ex:s ex:p ex:o .")
        g2 = parse_turtle(f"@prefix zz: <{EX}> .\nzz:s zz:p zz:o .")
        assert inputs_digest(g1) == inputs_digest(g2)
        g3 = parse_turtle(HEADER + "ex:s ex:p ex:other .")
        assert inputs_digest(g1) != inputs_digest(g3)


class TestBundledData:
    def test_bundle_is_clean_in_closed_mode(self):
        assets = load_assets()
        report = validate_graph(assets.combined(), assets.schema)
        assert report.violations == ()

    def test_injected_clash_is_single_error(self):
        assets = load_assets()
        graph = assets.combined()
        apple = "https://purl.org/appliedethicsontology#"
        subject = apple + "ConfusedSchool"
        graph.insert(Triple(iri(subject), iri(RDF_TYPE), iri(apple + "Consequentialism")))
        graph.insert(Triple(iri(subject), iri(RDF_TYPE), iri(apple + "Deontology")))
        report = validate_graph(graph, assets.schema)
        errors = [v for v in report.violations if v.severity == SEVERITY_ERROR]
        assert len(errors) == 1
        assert errors[0].subject == subject
        assert set(errors[0].detail) == {apple + "Consequentialism", apple + "Deontology"}

    def test_report_type(self):
        assets = load_assets()
        assert isinstance(validate_graph(assets.combined(), assets.schema), ValidationReport)
