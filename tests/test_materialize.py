"""Forward-chaining entailment: each rule on a small input, then their fixpoint."""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from _gen import add_data_axioms, add_meta_axioms, random_data_graph, random_graph, typing_graph  # noqa: E402
from _oracles import naive_materialize  # noqa: E402
from test_graph import triples_built  # noqa: E402

from applekit.assets import load_assets
from applekit.graph import Graph
from applekit.materialize import materialize
from applekit.schema import extract_schema
from applekit.terms import OWL_INVERSE_OF, RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF, Triple, iri
from applekit.turtle import parse_turtle
from applekit.vocab import DOES_ACTION, IS_PARTICIPANT_IN

EX = "http://example.org/"
HEADER = (
    f"@prefix ex: <{EX}> .\n"
    "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
    "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
)
TYPE = iri(RDF_TYPE)
SUBCLASS = iri(RDFS_SUBCLASSOF)
SUBPROPERTY = iri(RDFS_SUBPROPERTYOF)


def run(text):
    graph = parse_turtle(HEADER + text)
    return materialize(graph, extract_schema(graph))


def expect(text, derived=""):
    """The input graph plus the derived triples, both given as Turtle."""
    return parse_turtle(HEADER + text + derived)


class TestIndividualRules:
    # All six rules always run, so each test pins the exact output: a rule
    # that fired where it should not would add a triple.
    def test_subclass_transitivity(self):
        text = "ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C ."
        # No reflexive padding.
        assert run(text) == expect(text, "ex:A rdfs:subClassOf ex:C .")

    def test_type_inheritance(self):
        text = "ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C . ex:i a ex:A ."
        assert run(text) == expect(text, "ex:A rdfs:subClassOf ex:C . ex:i a ex:B, ex:C .")

    def test_subproperty_propagation(self):
        text = "ex:p rdfs:subPropertyOf ex:q . ex:x ex:p ex:y ."
        assert run(text) == expect(text, "ex:x ex:q ex:y .")

    def test_subproperty_cycle_ends_and_derives_both_ways(self):
        text = (
            "ex:p rdfs:subPropertyOf ex:q . ex:q rdfs:subPropertyOf ex:p .\n"
            "ex:x ex:p ex:y . ex:a ex:q ex:b ."
        )
        assert run(text) == expect(text, "ex:x ex:q ex:y . ex:a ex:p ex:b .")

    def test_subproperty_carries_literal_objects(self):
        text = 'ex:p rdfs:subPropertyOf ex:q . ex:x ex:p "v" .'
        assert run(text) == expect(text, 'ex:x ex:q "v" .')

    def test_domain_typing(self):
        text = "ex:p rdfs:domain ex:D . ex:x ex:p ex:y ."
        assert run(text) == expect(text, "ex:x a ex:D .")

    def test_range_typing_skips_literals(self):
        text = 'ex:p rdfs:range ex:R . ex:x ex:p ex:y . ex:x ex:p "lit" .'
        assert run(text) == expect(text, "ex:y a ex:R .")

    def test_inverse_propagation_both_directions(self):
        text = "ex:p owl:inverseOf ex:q . ex:a ex:p ex:b . ex:c ex:q ex:d ."
        assert run(text) == expect(text, "ex:b ex:q ex:a . ex:d ex:p ex:c .")

    def test_inverse_of_builtin_property_both_directions(self):
        text = (
            "ex:hasMember owl:inverseOf rdf:type . ex:y a ex:D . ex:E ex:hasMember ex:z . "
            "ex:superOf owl:inverseOf rdfs:subClassOf . ex:A rdfs:subClassOf ex:D ."
        )
        derived = "ex:D ex:hasMember ex:y . ex:z a ex:E . ex:D ex:superOf ex:A ."
        assert run(text) == expect(text, derived)

    def test_inverse_skips_literal_objects(self):
        text = 'ex:p owl:inverseOf ex:q . ex:a ex:p "v" .'
        assert run(text) == expect(text)

    def test_asserted_subclass_chains_through_schema(self):
        # The subclass edge lives only in the data graph; the schema knows B < C.
        schema = extract_schema(parse_turtle(HEADER + "ex:B rdfs:subClassOf ex:C ."))
        data = parse_turtle(HEADER + "ex:A rdfs:subClassOf ex:B . ex:x a ex:A .")
        for out in (materialize(data, schema), naive_materialize(data, schema)):
            assert Triple(iri(EX + "A"), SUBCLASS, iri(EX + "C")) in out
            assert Triple(iri(EX + "x"), TYPE, iri(EX + "B")) in out
            assert Triple(iri(EX + "x"), TYPE, iri(EX + "C")) in out
            assert len(out) == 6

    def test_data_domain_and_inverse_apply_against_a_separate_schema(self):
        schema = extract_schema(parse_turtle(HEADER + "ex:B rdfs:subClassOf ex:C ."))
        text = "ex:p rdfs:domain ex:D . ex:p owl:inverseOf ex:q . ex:x ex:p ex:y ."
        data = parse_turtle(HEADER + text)
        derived = "ex:B rdfs:subClassOf ex:C . ex:x a ex:D . ex:y ex:q ex:x ."
        for out in (materialize(data, schema), naive_materialize(data, schema)):
            assert out == expect(text, derived)
            assert materialize(out, extract_schema(out)) == out

    def test_data_range_in_a_builtin_namespace_types_nothing(self):
        schema = extract_schema(parse_turtle(HEADER + "ex:B rdfs:subClassOf ex:C ."))
        text = "ex:p rdfs:range xsd:string . ex:r rdfs:range ex:R . ex:x ex:p ex:y . ex:x ex:r ex:z ."
        data = parse_turtle(HEADER + text)
        for out in (materialize(data, schema), naive_materialize(data, schema)):
            assert out == expect(text, "ex:B rdfs:subClassOf ex:C . ex:z a ex:R .")

    def test_asserted_subproperty_chains_through_schema(self):
        schema = extract_schema(parse_turtle(HEADER + "ex:q rdfs:subPropertyOf ex:r ."))
        data = parse_turtle(HEADER + "ex:p rdfs:subPropertyOf ex:q . ex:x ex:p ex:y .")
        for out in (materialize(data, schema), naive_materialize(data, schema)):
            assert Triple(iri(EX + "x"), iri(EX + "q"), iri(EX + "y")) in out
            assert Triple(iri(EX + "x"), iri(EX + "r"), iri(EX + "y")) in out


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
            rng = random.Random(seed)
            data = add_data_axioms(rng, random_data_graph(rng))
            assert materialize(data, schema) == naive_materialize(data, schema), seed

    def test_meta_vocabulary_agrees_with_naive(self):
        # Axioms on rdf:type and rdfs:subClassOf let one rule derive a triple
        # that a closure step must still process: a subproperty of rdf:type
        # derives a type triple whose supertypes are not derived yet.
        for seed in range(300):
            rng = random.Random(seed)
            graph = add_meta_axioms(rng, random_graph(rng))
            schema = extract_schema(graph)
            assert materialize(graph, schema) == naive_materialize(graph, schema), seed

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_closed_under_its_own_schema(self, data_seed, schema_seed):
        schema = extract_schema(random_graph(random.Random(schema_seed)))
        rng = random.Random(data_seed)
        out = materialize(add_data_axioms(rng, random_data_graph(rng)), schema)
        assert materialize(out, extract_schema(out)) == out

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_typing_shapes_agree_with_naive(self, seed):
        # Typing works a node at a time; these shapes give a node the same
        # class over many edges, or over several predicates at once.
        graph = typing_graph(random.Random(seed))
        for schema in (extract_schema(graph), extract_schema(Graph())):
            assert materialize(graph, schema) == naive_materialize(graph, schema)

    def test_monotone_in_input(self):
        base = parse_turtle(HEADER + "ex:A rdfs:subClassOf ex:B . ex:i a ex:A .")
        bigger = base.copy()
        bigger.insert(Triple(iri(EX + "j"), TYPE, iri(EX + "A")))
        schema = extract_schema(bigger)
        small_out = materialize(base, schema)
        big_out = materialize(bigger, schema)
        assert all(t in big_out for t in small_out)


def subclass_chain(depth, individuals):
    """Classes C0 < C1 < ... < C<depth> and individuals typed C<depth>."""
    graph = Graph()
    for k in range(depth):
        graph.insert(Triple(iri(f"{EX}C{k + 1}"), SUBCLASS, iri(f"{EX}C{k}")))
    for k in range(individuals):
        graph.insert(Triple(iri(f"{EX}x{k}"), TYPE, iri(f"{EX}C{depth}")))
    return graph


class TestDeriveOnce:
    def test_builds_only_the_triples_it_derives(self, monkeypatch):
        # The graph stores Terms, so deriving builds no Triple at all.
        assets = load_assets()
        cases = [(assets.combined(), assets.schema)]
        for depth in (10, 20, 40):
            chain = subclass_chain(depth, 50)
            cases.append((chain, extract_schema(chain)))
        for graph, schema in cases:
            out, built = triples_built(monkeypatch, lambda: materialize(graph, schema))
            assert built == 0 and len(out) > len(graph), len(graph)

    def test_each_individual_probes_its_ancestors_once(self, monkeypatch):
        # Every triple offered to the graph, one by one or as a set, is new:
        # re-applying type inheritance to the supertypes it derived, or
        # chaining the asserted subclass edges again, would offer some twice.
        offered = []  # (triples offered, triples new) per write
        add, add_objects = Graph._add, Graph._add_objects

        def counting_add(graph, s, p, o):
            new = add(graph, s, p, o)
            offered.append((1, int(new)))
            return new

        def counting_add_objects(graph, s, p, objects):
            new = add_objects(graph, s, p, objects)
            offered.append((len(objects), len(new)))
            return new

        monkeypatch.setattr(Graph, "_add", counting_add)
        monkeypatch.setattr(Graph, "_add_objects", counting_add_objects)
        for depth in (10, 20, 40):
            for individuals in (50, 100):
                chain = subclass_chain(depth, individuals)
                offered.clear()
                out = materialize(chain, extract_schema(chain))
                assert all(count == new for count, new in offered), depth
                derived = individuals * depth + depth * (depth - 1) // 2
                assert sum(count for count, _ in offered) == derived == len(out) - len(chain)
                for k in range(individuals):
                    assert len(out._match(iri(f"{EX}x{k}"), TYPE, None)) == depth + 1

    def test_superproperties_become_terms_only_where_read(self, monkeypatch):
        # On a chain p0 < p1 < ... < p<n> with one edge over p0, only p0's
        # superproperties are read; building each chain property's own set
        # as Terms would build n(n + 1)/2 of them.
        n = 600
        graph = Graph()
        for k in range(n):
            graph.insert(Triple(iri(f"{EX}p{k}"), SUBPROPERTY, iri(f"{EX}p{k + 1}")))
        graph.insert(Triple(iri(EX + "a"), iri(EX + "p0"), iri(EX + "b")))
        schema = extract_schema(graph)
        built = 0

        def counting_iri(value):
            nonlocal built
            built += 1
            return iri(value)

        # The package's name 'materialize' is the function, so the module is
        # reached through sys.modules.
        monkeypatch.setattr(sys.modules["applekit.materialize"], "iri", counting_iri)
        out = materialize(graph, schema)
        assert built < 2 * n, built
        for k in range(1, n + 1):
            assert out._has(iri(EX + "a"), iri(f"{EX}p{k}"), iri(EX + "b"))
        assert len(out) == len(graph) + n

    def test_superproperties_reached_only_through_an_inverse(self, monkeypatch):
        # The one edge is over p0, whose inverse q0 heads the chain: q0's
        # superproperties are first read from the inverse-derived triple.
        n = 600
        graph = inverse_then_subproperties(n)
        schema = extract_schema(graph)
        built = []
        monkeypatch.setattr(sys.modules["applekit.materialize"], "iri", lambda value: built.append(value) or iri(value))
        out = materialize(graph, schema)
        assert len(built) < 2 * n, len(built)
        for k in range(n + 1):
            assert out._has(iri(EX + "b"), iri(f"{EX}q{k}"), iri(EX + "a"))
        assert len(out) == len(graph) + n + 1

    # The naive oracle takes one step of the chain per pass, so the chain is
    # shorter than above.
    @pytest.mark.parametrize("cycle", [False, True], ids=["chain", "cycle"])
    def test_superproperties_through_an_inverse_agree_with_naive(self, cycle):
        graph = inverse_then_subproperties(100, cycle)
        schema = extract_schema(graph)
        out = materialize(graph, schema)
        assert out == naive_materialize(graph, schema)
        assert len(out) == len(graph) + (100 if cycle else 101)


def inverse_then_subproperties(n, cycle=False):
    """p0 inverseOf q0, q0 < q1 < ... < q<n> (or q<n - 1> < q0 on a cycle),
    and one edge a p0 b."""
    graph = Graph()
    graph.insert(Triple(iri(EX + "p0"), iri(OWL_INVERSE_OF), iri(EX + "q0")))
    for k in range(n):
        parent = k + 1 if not cycle else (k + 1) % n
        graph.insert(Triple(iri(f"{EX}q{k}"), SUBPROPERTY, iri(f"{EX}q{parent}")))
    graph.insert(Triple(iri(EX + "a"), iri(EX + "p0"), iri(EX + "b")))
    return graph


class TestEntails:
    def test_asserted_and_derived_and_absent(self):
        out = run("ex:A rdfs:subClassOf ex:B . ex:i a ex:A .")
        assert Triple(iri(EX + "i"), TYPE, iri(EX + "A")) in out
        assert Triple(iri(EX + "i"), TYPE, iri(EX + "B")) in out
        assert Triple(iri(EX + "i"), TYPE, iri(EX + "Z")) not in out

    def test_rule_interaction_needs_both(self):
        # Deriving the supertype of an inverse-propagated edge's subject
        # needs the inverse axiom and the domain axiom together.
        inverse = "ex:p owl:inverseOf ex:q . "
        domain = "ex:q rdfs:domain ex:D . "
        edge = "ex:a ex:p ex:b ."
        derived = Triple(iri(EX + "b"), TYPE, iri(EX + "D"))
        assert derived in run(inverse + domain + edge)
        assert derived not in run(domain + edge)
        assert derived not in run(inverse + edge)

    def test_bundled_inverse_entailment(self):
        assets = load_assets()
        combined = assets.combined()
        doctor = iri("https://purl.org/appliedethicsontology#Doctor")
        event = iri("https://purl.org/appliedethicsontology#DentalSurgeryAftercare")
        derived = Triple(doctor, iri(IS_PARTICIPANT_IN), event)
        assert derived not in combined
        assert derived in materialize(combined, assets.schema)
        # doesAction < isParticipantIn would be wrong; check provenance is the
        # inverse axiom by rebuilding the input without it.
        axioms = [x for x in combined if x.p == iri(OWL_INVERSE_OF) and x.o == iri(IS_PARTICIPANT_IN)]
        assert len(axioms) == 1
        without_inverse = Graph(x for x in combined if x != axioms[0])
        assert derived not in materialize(without_inverse, extract_schema(without_inverse))
        action = iri("https://purl.org/appliedethicsontology#PrescribeOpioidPainkiller")
        assert Triple(doctor, iri(DOES_ACTION), action) in combined
