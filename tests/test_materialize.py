"""Forward-chaining entailment: each rule in isolation, then their fixpoint."""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from _gen import random_data_graph, random_graph  # noqa: E402
from _oracles import naive_materialize  # noqa: E402

from applekit.assets import load_assets
from applekit.materialize import (
    ALL_ENTAILMENT_RULES,
    DOMAIN_TYPING,
    INVERSE_PROPAGATION,
    RANGE_TYPING,
    SUBCLASS_TRANSITIVITY,
    SUBPROPERTY_PROPAGATION,
    TYPE_INHERITANCE,
    EntailmentRegime,
    entails,
    materialize,
)
from applekit.schema import extract_schema
from applekit.terms import RDF_TYPE, RDFS_SUBCLASSOF, Triple, iri, literal
from applekit.turtle import parse_turtle
from applekit.vocab import DOES_ACTION, IS_PARTICIPANT_IN

EX = "http://example.org/"
HEADER = (
    f"@prefix ex: <{EX}> .\n"
    "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
)
TYPE = iri(RDF_TYPE)
SUBCLASS = iri(RDFS_SUBCLASSOF)


def run(text, regime=None):
    graph = parse_turtle(HEADER + text)
    schema = extract_schema(graph)
    if regime is None:
        return materialize(graph, schema)
    return materialize(graph, schema, regime)


class TestIndividualRules:
    def test_subclass_transitivity(self):
        out = run(
            "ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C .",
            EntailmentRegime.only(SUBCLASS_TRANSITIVITY),
        )
        assert Triple(iri(EX + "A"), SUBCLASS, iri(EX + "C")) in out
        # No reflexive padding.
        assert Triple(iri(EX + "A"), SUBCLASS, iri(EX + "A")) not in out

    def test_type_inheritance(self):
        out = run(
            "ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C . ex:i a ex:A .",
            EntailmentRegime.only(TYPE_INHERITANCE),
        )
        assert Triple(iri(EX + "i"), TYPE, iri(EX + "B")) in out
        assert Triple(iri(EX + "i"), TYPE, iri(EX + "C")) in out

    def test_subproperty_propagation(self):
        out = run(
            "ex:p rdfs:subPropertyOf ex:q . ex:x ex:p ex:y .",
            EntailmentRegime.only(SUBPROPERTY_PROPAGATION),
        )
        assert Triple(iri(EX + "x"), iri(EX + "q"), iri(EX + "y")) in out

    def test_subproperty_carries_literal_objects(self):
        out = run(
            'ex:p rdfs:subPropertyOf ex:q . ex:x ex:p "v" .',
            EntailmentRegime.only(SUBPROPERTY_PROPAGATION),
        )
        assert Triple(iri(EX + "x"), iri(EX + "q"), literal("v")) in out

    def test_domain_typing(self):
        out = run(
            "ex:p rdfs:domain ex:D . ex:x ex:p ex:y .",
            EntailmentRegime.only(DOMAIN_TYPING),
        )
        assert Triple(iri(EX + "x"), TYPE, iri(EX + "D")) in out
        assert Triple(iri(EX + "y"), TYPE, iri(EX + "D")) not in out

    def test_range_typing_skips_literals(self):
        out = run(
            'ex:p rdfs:range ex:R . ex:x ex:p ex:y . ex:x ex:p "lit" .',
            EntailmentRegime.only(RANGE_TYPING),
        )
        assert Triple(iri(EX + "y"), TYPE, iri(EX + "R")) in out
        assert not any(t.s.is_literal() for t in out)
        assert len(out.match(None, TYPE, iri(EX + "R"))) == 1

    def test_inverse_propagation_both_directions(self):
        out = run(
            "ex:p owl:inverseOf ex:q . ex:a ex:p ex:b . ex:c ex:q ex:d .",
            EntailmentRegime.only(INVERSE_PROPAGATION),
        )
        assert Triple(iri(EX + "b"), iri(EX + "q"), iri(EX + "a")) in out
        assert Triple(iri(EX + "d"), iri(EX + "p"), iri(EX + "c")) in out

    def test_inverse_skips_literal_objects(self):
        out = run(
            'ex:p owl:inverseOf ex:q . ex:a ex:p "v" .',
            EntailmentRegime.only(INVERSE_PROPAGATION),
        )
        assert len(out) == len(parse_turtle(HEADER + 'ex:p owl:inverseOf ex:q . ex:a ex:p "v" .'))

    def test_asserted_subclass_chains_through_schema(self):
        # The subclass edge lives only in the data graph; the schema knows B < C.
        schema = extract_schema(parse_turtle(HEADER + "ex:B rdfs:subClassOf ex:C ."))
        data = parse_turtle(HEADER + "ex:A rdfs:subClassOf ex:B . ex:x a ex:A .")
        for out in (materialize(data, schema), naive_materialize(data, schema)):
            assert Triple(iri(EX + "A"), SUBCLASS, iri(EX + "C")) in out
            assert Triple(iri(EX + "x"), TYPE, iri(EX + "B")) in out
            assert Triple(iri(EX + "x"), TYPE, iri(EX + "C")) in out
            assert len(out) == 6

    def test_asserted_subproperty_chains_through_schema(self):
        schema = extract_schema(parse_turtle(HEADER + "ex:q rdfs:subPropertyOf ex:r ."))
        data = parse_turtle(HEADER + "ex:p rdfs:subPropertyOf ex:q . ex:x ex:p ex:y .")
        for out in (materialize(data, schema), naive_materialize(data, schema)):
            assert Triple(iri(EX + "x"), iri(EX + "q"), iri(EX + "y")) in out
            assert Triple(iri(EX + "x"), iri(EX + "r"), iri(EX + "y")) in out


class TestRegimes:
    def test_disabled_rules_do_not_fire(self):
        out = run(
            "ex:p rdfs:domain ex:D . ex:x ex:p ex:y .",
            EntailmentRegime.only(RANGE_TYPING),
        )
        assert Triple(iri(EX + "x"), TYPE, iri(EX + "D")) not in out

    def test_unknown_rule_name_rejected(self):
        with pytest.raises(ValueError, match="unknown entailment rule"):
            EntailmentRegime.only("spooky-inference")

    def test_rule_interaction_needs_both(self):
        # Deriving the supertype of an inverse-propagated edge's subject
        # requires inverse-propagation and domain-typing together.
        text = "ex:p owl:inverseOf ex:q . ex:q rdfs:domain ex:D . ex:a ex:p ex:b ."
        derived = Triple(iri(EX + "b"), TYPE, iri(EX + "D"))
        assert derived in run(text)
        assert derived not in run(text, EntailmentRegime.only(DOMAIN_TYPING))
        assert derived not in run(text, EntailmentRegime.only(INVERSE_PROPAGATION))

    def test_contains(self):
        regime = EntailmentRegime.only(DOMAIN_TYPING)
        assert DOMAIN_TYPING in regime
        assert RANGE_TYPING not in regime
        assert EntailmentRegime().enabled == ALL_ENTAILMENT_RULES


class TestFixpointProperties:
    def test_input_graph_never_mutated(self):
        graph = parse_turtle(HEADER + "ex:A rdfs:subClassOf ex:B . ex:i a ex:A .")
        before = list(graph)
        materialize(graph, extract_schema(graph))
        assert list(graph) == before

    def test_output_contains_input(self):
        graph = parse_turtle(HEADER + "ex:A rdfs:subClassOf ex:B . ex:i a ex:A .")
        out = materialize(graph, extract_schema(graph))
        assert all(t in out for t in graph)

    def test_idempotent(self):
        graph = parse_turtle(
            HEADER
            + "ex:A rdfs:subClassOf ex:B . ex:i a ex:A .\n"
            + "ex:p owl:inverseOf ex:q ; rdfs:domain ex:A . ex:x ex:p ex:y ."
        )
        schema = extract_schema(graph)
        once = materialize(graph, schema)
        assert materialize(once, schema) == once

    def test_strategies_agree_on_random_graphs(self):
        for seed in range(40):
            graph = random_graph(random.Random(seed))
            schema = extract_schema(graph)
            assert materialize(graph, schema) == naive_materialize(graph, schema), seed
            data = random_data_graph(random.Random(seed))
            assert materialize(data, schema) == naive_materialize(data, schema), seed

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_closed_under_its_own_schema(self, data_seed, schema_seed):
        # The data states only subclass and subproperty axioms, the ones
        # materialize reads from the data graph.
        schema = extract_schema(random_graph(random.Random(schema_seed)))
        out = materialize(random_data_graph(random.Random(data_seed)), schema)
        assert materialize(out, extract_schema(out)) == out

    def test_monotone_in_input(self):
        base = parse_turtle(HEADER + "ex:A rdfs:subClassOf ex:B . ex:i a ex:A .")
        bigger = base.copy()
        bigger.insert(Triple(iri(EX + "j"), TYPE, iri(EX + "A")))
        schema = extract_schema(bigger)
        small_out = materialize(base, schema)
        big_out = materialize(bigger, schema)
        assert all(t in big_out for t in small_out)


class TestEntails:
    def test_asserted_and_derived_and_absent(self):
        graph = parse_turtle(HEADER + "ex:A rdfs:subClassOf ex:B . ex:i a ex:A .")
        schema = extract_schema(graph)
        assert entails(graph, Triple(iri(EX + "i"), TYPE, iri(EX + "A")), schema)
        assert entails(graph, Triple(iri(EX + "i"), TYPE, iri(EX + "B")), schema)
        assert not entails(graph, Triple(iri(EX + "i"), TYPE, iri(EX + "Z")), schema)

    def test_bundled_inverse_entailment(self):
        assets = load_assets()
        combined = assets.combined()
        doctor = iri("https://purl.org/appliedethicsontology#Doctor")
        event = iri("https://purl.org/appliedethicsontology#DentalSurgeryAftercare")
        derived = Triple(doctor, iri(IS_PARTICIPANT_IN), event)
        assert derived not in combined
        assert entails(combined, derived, assets.schema)
        # doesAction < isParticipantIn would be wrong; check provenance is the
        # inverse axiom by disabling it.
        assert not entails(
            combined,
            derived,
            assets.schema,
            EntailmentRegime(ALL_ENTAILMENT_RULES - {INVERSE_PROPAGATION}),
        )
        action = iri("https://purl.org/appliedethicsontology#PrescribeOpioidPainkiller")
        assert Triple(doctor, iri(DOES_ACTION), action) in combined
