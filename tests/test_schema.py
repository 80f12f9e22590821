"""Schema extraction: hierarchies, disjoint pairs, obligations, names."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _gen import (  # noqa: E402
    add_literals,
    add_meta_axioms,
    add_obligations,
    random_graph,
    renamed_scenario_copies,
    typing_graph,
)
from _oracles import ambiguous_names, brute_closure, catalog_by_scan  # noqa: E402

from applekit.assets import load_assets
from applekit.materialize import materialize
from applekit.query import LexError, offsets, tokenize
from applekit.schema import (
    NameCatalog,
    Obligation,
    SchemaError,
    _closure,
    _cycle,
    extract_schema,
    local_name,
)
from applekit.terms import PrefixMap, Triple, iri, literal
from applekit.turtle import parse_turtle
from applekit.validate import check_disjointness

EX = "http://example.org/"
HEADER = (
    f"@prefix ex: <{EX}> .\n"
    "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
)


def schema_of(text):
    return extract_schema(parse_turtle(HEADER + text))


def cycle_text(n):
    """A subclass cycle of ``n`` classes, ex:C0 to ex:C{n-1}."""
    return "".join(f"ex:C{i} rdfs:subClassOf ex:C{(i + 1) % n} .\n" for i in range(n))


def cycle_by_closure(pairs):
    """The cycle naming rule read off the oracle's closure: start at the
    smallest node above itself, step to the smallest parent the node is
    above, stop at a repeat."""
    above = brute_closure(pairs)
    on_cycle = [c for c, aboves in above.items() if c in aboves]
    if not on_cycle:
        return ()
    trail, seen = [min(on_cycle)], set()
    while trail[-1] not in seen:
        seen.add(node := trail[-1])
        trail.append(min(p for c, p in pairs if c == node != p and node in above.get(p, ())))
    return tuple(trail[trail.index(trail[-1]) :])


def random_pairs(rng):
    """``(child, parent)`` pairs over one or two disjoint node sets, with
    self-loops, cycles and, about half the time per part, a diamond."""
    pairs = set()
    for part in "ab"[: rng.randint(1, 2)]:
        nodes = [f"{part}{k}" for k in range(rng.randint(1, 10))]
        pairs |= {(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 14))}
        if len(nodes) >= 4 and rng.random() < 0.5:
            top, left, right, bottom = rng.sample(nodes, 4)
            pairs |= {(bottom, left), (bottom, right), (left, top), (right, top)}
    return frozenset(pairs)


def reason_capped(tmp_path, text, megabytes):
    """``applekit reason -i`` on ``text`` in a child whose address space is
    capped at ``megabytes``: the child's result and its output file."""
    resource = pytest.importorskip("resource")
    limit = resource.getrlimit(resource.RLIMIT_AS)
    path = tmp_path / "input.ttl"
    path.write_text(HEADER + text, encoding="utf-8")
    child = (
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[2]) * 2**20, hard))\n"
        "from applekit.cli import main\n"
        "sys.exit(main(['reason', '-i', sys.argv[1], '-o', sys.argv[1] + '.out']))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    argv = [sys.executable, "-c", child, str(path), str(megabytes)]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)
    assert resource.getrlimit(resource.RLIMIT_AS) == limit  # the cap acted on the child alone
    return result, tmp_path / "input.ttl.out"


class TestDetection:
    def test_classes_and_properties_from_declarations(self):
        s = schema_of(
            "ex:C a owl:Class . ex:p a owl:ObjectProperty .\n"
            "ex:d a owl:DatatypeProperty . ex:q a rdf:Property ."
        )
        assert s.classes == {EX + "C"}
        assert s.properties == {EX + "p", EX + "d", EX + "q"}

    def test_typing_an_individual_declares_its_class(self):
        s = schema_of("ex:alice a ex:Person .")
        assert EX + "Person" in s.classes
        assert EX + "alice" not in s.classes

    def test_axiom_participants_are_declared_implicitly(self):
        s = schema_of(
            "ex:A rdfs:subClassOf ex:B .\n"
            "ex:p rdfs:subPropertyOf ex:q .\n"
            "ex:r rdfs:domain ex:D ; rdfs:range ex:R ."
        )
        assert {EX + "A", EX + "B", EX + "D", EX + "R"} <= s.classes
        assert {EX + "p", EX + "q", EX + "r"} <= s.properties

    def test_builtins_never_listed(self):
        s = schema_of("ex:C rdfs:subClassOf owl:Thing . ex:p rdfs:subPropertyOf rdfs:label .")
        assert all("w3.org" not in c for c in s.classes)
        assert all("w3.org" not in p for p in s.properties)
        # The axioms themselves are still recorded.
        assert (EX + "C", "http://www.w3.org/2002/07/owl#Thing") in s.sub_class_of


class TestHierarchies:
    def setup_method(self):
        self.s = schema_of(
            "ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C .\n"
            "ex:p rdfs:subPropertyOf ex:q . ex:q rdfs:subPropertyOf ex:r ."
        )

    def test_superclasses_transitive_and_strict(self):
        assert self.s.superclasses(EX + "A") == {EX + "B", EX + "C"}
        assert self.s.superclasses(EX + "C") == frozenset()

    def test_is_subclass_reflexive(self):
        assert self.s.is_subclass(EX + "A", EX + "A")
        assert self.s.is_subclass(EX + "A", EX + "C")
        assert not self.s.is_subclass(EX + "C", EX + "A")

    def test_superproperties(self):
        assert self.s.superproperties(EX + "p") == {EX + "q", EX + "r"}
        assert self.s.is_subproperty(EX + "p", EX + "r")
        assert self.s.is_subproperty(EX + "p", EX + "p")

    def test_subproperty_cycle_is_its_own_ancestor(self):
        s = schema_of("ex:p rdfs:subPropertyOf ex:q . ex:q rdfs:subPropertyOf ex:p .")
        assert s.superproperties(EX + "p") == s.superproperties(EX + "q") == {EX + "p", EX + "q"}
        assert s.is_subproperty(EX + "p", EX + "q") and s.is_subproperty(EX + "q", EX + "p")

    def test_reflexive_subclass_assertion_tolerated(self):
        s = schema_of("ex:A rdfs:subClassOf ex:A .")
        assert not s.superclasses(EX + "A") - {EX + "A"}

    def test_two_node_cycle_rejected(self):
        with pytest.raises(SchemaError) as err:
            schema_of("ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:A .")
        assert str(err.value) == f"subclass cycle detected: {EX}A < {EX}B < {EX}A"

    def test_long_cycle_rejected_and_named(self):
        with pytest.raises(SchemaError) as err:
            schema_of(
                "ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C .\n"
                "ex:C rdfs:subClassOf ex:A ."
            )
        assert str(err.value) == f"subclass cycle detected: {EX}A < {EX}B < {EX}C < {EX}A"

    def test_cycle_is_named_from_its_smallest_class(self):
        # A0's chain enters the cycle at C, but the walk starts at B.
        with pytest.raises(SchemaError) as err:
            schema_of(
                "ex:A0 rdfs:subClassOf ex:C . ex:B rdfs:subClassOf ex:C .\n"
                "ex:C rdfs:subClassOf ex:D . ex:D rdfs:subClassOf ex:B ."
            )
        assert str(err.value) == f"subclass cycle detected: {EX}B < {EX}C < {EX}D < {EX}B"

    def test_deep_chain_is_extracted(self):
        s = schema_of("".join(f"ex:C{i} rdfs:subClassOf ex:C{i + 1} .\n" for i in range(1500)))
        assert len(s.superclasses(EX + "C0")) == 1500

    def test_deep_cycle_is_named(self):
        with pytest.raises(SchemaError) as err:
            schema_of("".join(f"ex:C{i} rdfs:subClassOf ex:C{(i + 1) % 1500} .\n" for i in range(1500)))
        names = [f"{EX}C{i}" for i in range(1500)] + [f"{EX}C0"]
        assert str(err.value) == "subclass cycle detected: " + " < ".join(names)

    def test_cycle_named_as_the_closure_names_it(self):
        found = 0
        for seed in range(400):
            rng = random.Random(seed)
            nodes = [f"n{k}" for k in range(rng.randint(1, 12))]
            pairs = frozenset((rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 20)))
            assert _cycle(pairs) == cycle_by_closure(pairs), seed
            found += bool(_cycle(pairs))
        assert 50 < found < 350

    def test_cycle_check_is_cached_by_the_pairs(self):
        # The check reads the closure, which is cached by the pair set.
        text = "ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C ."
        _closure.cache_clear()
        schema_of(text)
        schema_of(text)
        info = _closure.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_very_long_cycle_is_named_in_linear_time(self):
        graph = parse_turtle(HEADER + cycle_text(20000))
        _closure.cache_clear()
        started = time.perf_counter()
        with pytest.raises(SchemaError) as err:
            extract_schema(graph)
        elapsed = time.perf_counter() - started
        assert str(err.value).startswith(f"subclass cycle detected: {EX}C0 < {EX}C1 < {EX}C2 < ")
        assert str(err.value).count(" < ") == 20000
        assert elapsed < 1.0, elapsed

    def test_long_cycle_exits_in_bounded_memory(self, tmp_path):
        # A cycle's classes share one closure set, so the check needs memory
        # linear in the cycle; a set per class would hold 3,000 x 3,000
        # entries, over 300 MB, which the child's address space does not allow.
        result, _ = reason_capped(tmp_path, cycle_text(3000), 300)
        assert result.returncode == 1, result.stderr
        assert result.stderr.startswith(f"applekit: subclass cycle detected: {EX}C0 < {EX}C1 < ")

    def test_long_subproperty_cycle_reasons_in_bounded_memory(self, tmp_path):
        # A subproperty cycle is accepted, and its properties share one
        # closure set: a set per property would not fit under the cap.
        text = "".join(f"ex:p{i} rdfs:subPropertyOf ex:p{(i + 1) % 3000} .\n" for i in range(3000))
        result, out = reason_capped(tmp_path, text + "ex:a ex:p7 ex:b .\n", 300)
        assert result.returncode == 0, result.stderr
        graph = parse_turtle(out.read_text(encoding="utf-8"))
        edges = graph.match(iri(EX + "a"), None, iri(EX + "b"))
        assert {t.p.value for t in edges} == {f"{EX}p{i}" for i in range(3000)}

    def test_out_of_memory_is_its_own_exit_code(self, tmp_path):
        # A valid 1,500-class chain materializes about a million subclass
        # triples, more than 200 MB: exit 5 with one line, no traceback.
        text = "".join(f"ex:C{i} rdfs:subClassOf ex:C{i + 1} .\n" for i in range(1500))
        result, _ = reason_capped(tmp_path, text, 200)
        assert (result.returncode, result.stderr) == (5, "applekit: out of memory\n")

    def test_closure_built_once_per_command(self):
        # extract_schema builds the subclass closure; materialize of the same
        # graph reads it from the cache and builds only the subproperty one.
        graph = parse_turtle(HEADER + "ex:A rdfs:subClassOf ex:B . ex:p rdfs:subPropertyOf ex:q . ex:x a ex:A .")
        _closure.cache_clear()
        materialize(graph, extract_schema(graph))
        info = _closure.cache_info()
        assert (info.hits, info.misses) == (1, 2)

    def test_diamond_is_not_a_cycle(self):
        s = schema_of(
            "ex:A rdfs:subClassOf ex:B, ex:C .\n"
            "ex:B rdfs:subClassOf ex:D . ex:C rdfs:subClassOf ex:D ."
        )
        assert s.superclasses(EX + "A") == {EX + "B", EX + "C", EX + "D"}


class TestClosure:
    def test_matches_the_walk_oracle(self):
        kinds = {"cycle": 0, "self-loop": 0, "diamond": 0, "two parts": 0}
        for seed in range(400):
            pairs = random_pairs(random.Random(seed))
            for down in (False, True):
                assert _closure(pairs, down) == brute_closure(pairs, down), (seed, down)
            up = brute_closure(pairs)
            kinds["cycle"] += any(node in above for node, above in up.items())
            kinds["diamond"] += any(
                {a, *up.get(a, ())} & {b, *up.get(b, ())}
                for child, a in pairs for other, b in pairs if child == other and child not in (a, b) and a < b
            )
            kinds["self-loop"] += any(child == parent for child, parent in pairs)
            kinds["two parts"] += len({node[0] for pair in pairs for node in pair}) == 2
        assert all(50 < count < 350 for count in kinds.values()), kinds

    def test_a_component_shares_one_set(self):
        # Two cycles, one above the other, with a tail below each.
        pairs = frozenset(
            [(f"a{i}", f"a{(i + 1) % 50}") for i in range(50)]
            + [(f"b{i}", f"b{(i + 1) % 30}") for i in range(30)]
            + [("a3", "b0"), ("tail", "a0"), ("b7", "top")]
        )
        for down in (False, True):
            closure = _closure(pairs, down)
            for prefix in "ab":
                shared = {id(above) for node, above in closure.items() if node[0] == prefix}
                assert len(shared) == 1, (prefix, down)
            assert closure["a0"] is not closure["b0"]
        up = _closure(pairs)
        assert up["a0"] == {f"a{i}" for i in range(50)} | {f"b{i}" for i in range(30)} | {"top"}
        assert up["tail"] == up["a0"] and up["tail"] is not up["a0"]

    def test_down_is_the_inverse_of_up(self):
        # The meta axioms can put a property on a cycle through rdf:type or
        # rdfs:subClassOf.
        cycles = 0
        for seed in range(200):
            rng = random.Random(seed)
            schema = extract_schema(add_meta_axioms(rng, add_obligations(rng, random_graph(rng))))
            for pairs in (schema.sub_class_of, schema.sub_property_of):
                up, down = _closure(pairs), _closure(pairs, down=True)
                upward = {(node, above) for node, aboves in up.items() for above in aboves}
                assert upward == {(below, node) for node, belows in down.items() for below in belows}, seed
                cycles += any(node in aboves for node, aboves in up.items())
        assert cycles

    def test_keyed_by_the_pairs(self):
        s = schema_of("ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C .")
        assert s.superclasses(EX + "A") == {EX + "B", EX + "C"}
        cut = s._replace(sub_class_of=frozenset({(EX + "A", EX + "B")}))
        assert cut.superclasses(EX + "A") == {EX + "B"}
        assert s.superclasses(EX + "A") == {EX + "B", EX + "C"}


class TestDomainsRangesInverses:
    def test_domain_and_range_maps(self):
        s = schema_of("ex:p rdfs:domain ex:D1, ex:D2 ; rdfs:range ex:R .")
        assert s.domain_of[EX + "p"] == {EX + "D1", EX + "D2"}
        assert s.range_of[EX + "p"] == {EX + "R"}

    def test_datatype_ranges_skipped(self):
        s = schema_of("ex:p a owl:DatatypeProperty ; rdfs:range xsd:date .")
        assert EX + "p" not in s.range_of
        assert EX + "p" in s.properties

    def test_inverse_pairs_canonicalized(self):
        a = schema_of("ex:p owl:inverseOf ex:q .")
        b = schema_of("ex:q owl:inverseOf ex:p .")
        assert a.inverse_of == b.inverse_of == {(EX + "p", EX + "q")}


class TestDisjointness:
    def test_triangle_gives_three_pairs(self):
        s = schema_of(
            "ex:A owl:disjointWith ex:B . ex:B owl:disjointWith ex:C .\n"
            "ex:A owl:disjointWith ex:C . ex:D owl:disjointWith ex:E ."
        )
        assert s.disjoint_pairs == {
            (EX + "A", EX + "B"),
            (EX + "A", EX + "C"),
            (EX + "B", EX + "C"),
            (EX + "D", EX + "E"),
        }

    def test_open_path_gives_two_pairs(self):
        graph = parse_turtle(
            HEADER + "ex:A owl:disjointWith ex:B . ex:B owl:disjointWith ex:C . ex:i a ex:A, ex:C ."
        )
        s = extract_schema(graph)
        assert s.disjoint_pairs == {(EX + "A", EX + "B"), (EX + "B", EX + "C")}
        # A and C are not declared disjoint, so an individual in both is fine.
        assert check_disjointness(graph, s) == []

    def test_direction_and_self_assertions_ignored(self):
        s = schema_of("ex:B owl:disjointWith ex:A . ex:A owl:disjointWith ex:A .")
        assert s.disjoint_pairs == {(EX + "A", EX + "B")}


RESTRICTION = (
    "ex:C rdfs:subClassOf _:r .\n"
    "_:r a owl:Restriction ; owl:onProperty ex:p ; owl:someValuesFrom ex:F .\n"
    "ex:p a owl:ObjectProperty . ex:F a owl:Class .\n"
)


class TestObligations:
    def test_restriction_becomes_obligation(self):
        s = schema_of(RESTRICTION)
        assert s.obligations == (Obligation(EX + "C", EX + "p", EX + "F"),)

    def test_shared_restriction_node_applies_to_each_subclass(self):
        s = schema_of(RESTRICTION + "ex:D rdfs:subClassOf _:r .")
        assert {ob.on_class for ob in s.obligations} == {EX + "C", EX + "D"}
        assert len(s.obligations) == 2

    def test_inherited_obligations_follow_subclass_closure(self):
        s = schema_of(RESTRICTION + "ex:Sub rdfs:subClassOf ex:C .")
        # Sub inherits C's obligation; F, the filler, carries none.
        assert [ob for ob in s.obligations if s.is_subclass(EX + "Sub", ob.on_class)] == list(s.obligations)
        assert [ob for ob in s.obligations if s.is_subclass(EX + "F", ob.on_class)] == []

    def test_untyped_blank_superclass_rejected(self):
        with pytest.raises(SchemaError, match="owl:Restriction"):
            schema_of("ex:C rdfs:subClassOf _:x .")

    @pytest.mark.parametrize(
        "body",
        [
            "ex:C rdfs:subClassOf _:r .\n_:r a owl:Restriction ; owl:onProperty ex:p .\nex:p a owl:ObjectProperty .",
            "ex:C rdfs:subClassOf _:r .\n_:r a owl:Restriction ; owl:someValuesFrom ex:F .",
            RESTRICTION + "_:r owl:onProperty ex:q .\nex:q a owl:ObjectProperty .",
        ],
        ids=["missing-filler", "missing-property", "two-properties"],
    )
    def test_malformed_restrictions_rejected(self, body):
        with pytest.raises(SchemaError, match="exactly one"):
            schema_of(body)

    def test_builtin_obligation_property_rejected(self):
        with pytest.raises(SchemaError, match="undeclared property"):
            schema_of(
                "ex:C rdfs:subClassOf _:r .\n"
                "_:r a owl:Restriction ; owl:onProperty rdf:type ; owl:someValuesFrom ex:F ."
            )


class TestClassLevelTriples:
    def test_punned_edges_captured_builtin_predicates_skipped(self):
        s = schema_of(
            "ex:C a owl:Class ; ex:linksTo ex:D ; rdfs:label \"C\" .\n"
            "ex:i a ex:C ; ex:linksTo ex:D ."
        )
        subjects = {t.s.value for t in s.class_level_triples}
        predicates = {t.p.value for t in s.class_level_triples}
        assert subjects == {EX + "C"}
        assert predicates == {EX + "linksTo"}

    def test_extraction_is_order_independent(self):
        text = (
            "ex:A rdfs:subClassOf ex:B . ex:p rdfs:domain ex:A .\n"
            "ex:A owl:disjointWith ex:Z .\n" + RESTRICTION
        )
        base = extract_schema(parse_turtle(HEADER + text))
        triples = list(parse_turtle(HEADER + text))
        for seed in range(5):
            random.Random(seed).shuffle(triples)
            from applekit.graph import Graph

            assert extract_schema(Graph(triples)) == base


class TestLocalName:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("http://a.test/b#c", "c"),
            ("http://a.test/b/c", "c"),
            ("http://a.test/b", "b"),
            ("urn:x", "urn:x"),
            ("http://a.test/", "http://a.test/"),
        ],
    )
    def test_local_name(self, value, expected):
        assert local_name(value) == expected


CATALOG_GRAPH = (
    "ex:Person a owl:Class . ex:knows a owl:ObjectProperty .\n"
    "ex:alice a ex:Person .\n"
    "@prefix other: <http://other.test/> .\n"
    "other:Person a owl:Class ."
)


class TestNameCatalog:
    def setup_method(self):
        graph = parse_turtle(HEADER + CATALOG_GRAPH)
        self.catalog = NameCatalog.from_graph(graph, prefixes=PrefixMap({"ex": EX}))

    def test_bracketed_iri_passes_through(self):
        assert self.catalog.resolve(f"<{EX}anything>", "class") == EX + "anything"

    def test_prefixed_name_expands(self):
        assert self.catalog.resolve("ex:Whatever", "class") == EX + "Whatever"
        with pytest.raises(KeyError, match="undeclared prefix"):
            self.catalog.resolve("zz:X", "class")

    def test_bare_names_resolve_per_category(self):
        assert self.catalog.resolve("knows", "property") == EX + "knows"
        assert self.catalog.resolve("alice", "individual") == EX + "alice"

    def test_ambiguous_bare_name_lists_candidates(self):
        with pytest.raises(KeyError) as err:
            self.catalog.resolve("Person", "class")
        message = str(err.value)
        assert "ambiguous" in message
        assert EX + "Person" in message and "http://other.test/Person" in message

    def test_unknown_name_and_category(self):
        with pytest.raises(KeyError, match="unknown class name"):
            self.catalog.resolve("Nonexistent", "class")
        for name, categories in [("x", ("nope",)), ("nobody", ("individual", "nope")), ("ex:x", ("nope",))]:
            with pytest.raises(ValueError, match="unknown name category: 'nope'"):
                self.catalog.resolve(name, *categories)

    def test_categories_tried_in_order(self):
        assert self.catalog.resolve("alice", "class", "individual") == EX + "alice"
        with pytest.raises(KeyError, match="unknown individual name 'nobody'"):
            self.catalog.resolve("nobody", "class", "individual")

    @pytest.mark.parametrize(
        "name,needle",
        [("<foo>", "not absolute"), (f"<{EX}a b>", "forbidden character"), ("<>", "not absolute")],
    )
    def test_invalid_iris_are_key_errors(self, name, needle):
        with pytest.raises(KeyError, match=needle):
            self.catalog.resolve(name, "class")

    def test_punned_class_not_listed_as_individual(self):
        # ex:C is a class even where it is typed into another user class.
        graph = parse_turtle(HEADER + "ex:C a owl:Class, ex:Meta ; ex:p ex:D .\nex:Meta a owl:Class .\nex:i a ex:C .")
        catalog = NameCatalog.from_graph(graph)
        with pytest.raises(KeyError):
            catalog.resolve("C", "individual")
        assert catalog.resolve("C", "class") == EX + "C"
        assert catalog.resolve("i", "individual") == EX + "i"

    def test_ambiguous_names_report(self):
        assert ambiguous_names(self.catalog) == {
            "Person": {EX + "Person", "http://other.test/Person"}
        }

    def test_half_bracketed_name_is_a_bare_name(self):
        # Only '<' and '>' together make an IRI; "<abc" is looked up as a name.
        with pytest.raises(KeyError, match="unknown class name '<abc'"):
            self.catalog.resolve("<abc", "class")

    def test_unaliased_name_does_not_resolve(self):
        graph = parse_turtle(HEADER + "ex:Person a owl:Class .")
        catalog = NameCatalog.from_graph(graph, prefixes=PrefixMap({"ex": EX}))
        # The alias table has no entry for this name.
        with pytest.raises(KeyError):
            catalog.resolve("People", "class")


class TestCatalogAgainstScan:
    """``NameCatalog.from_graph`` reads each class's instances in the index;
    its tables must equal one pass over the type triples."""

    def test_bundled_assets(self):
        assets = load_assets()
        graph = assets.combined()
        schema = extract_schema(graph)
        assert NameCatalog.from_graph(graph, schema)._by_category == catalog_by_scan(graph, schema)

    @pytest.mark.parametrize("seed", range(60))
    def test_generated_graphs(self, seed):
        rng = random.Random(seed)
        for graph in (
            add_meta_axioms(rng, random_graph(rng)),
            add_literals(rng, typing_graph(rng)),
            renamed_scenario_copies(load_assets().taxonomy, load_assets().scenario, 1 + seed % 3),
        ):
            schema = extract_schema(graph)
            assert NameCatalog.from_graph(graph, schema)._by_category == catalog_by_scan(graph, schema)


class TestTokenize:
    @pytest.mark.parametrize(
        "text,tokens",
        [
            ("R1:Action(?a)->b.", ["R1:Action", "(", "?a", ")", "->", "b", "."]),
            ("ex:v1.2 x. a.->b", ["ex:v1.2", "x", ".", "a", ".", "->", "b"]),
            ("<http://e.org/a.b> . {x, y-z}", ["<http://e.org/a.b>", ".", "{", "x", ",", "y-z", "}"]),
            ("a # one. <two\nb # three", ["a", "b"]),
            ("  # only a comment", []),
        ],
    )
    def test_tokens(self, text, tokens):
        assert tokenize(text) == tokens

    def test_offsets(self):
        assert offsets("?x  p\n <i:j>") == [0, 4, 7, 12]

    @pytest.mark.parametrize(
        "text,needle,offset",
        [("a %", "unexpected character '%'", 2), ("a <b c", "unterminated '<'", 2), ("a ? b", "'?' must be", 2)],
    )
    def test_errors_carry_offset(self, text, needle, offset):
        with pytest.raises(LexError, match=needle) as err:
            list(tokenize(text))
        assert err.value.offset == offset
