"""Class-expression parsing, instance/class retrieval, conjunctive select."""

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _gen import add_meta_axioms, add_obligations, graph_vocabulary, random_expression, random_graph, random_select  # noqa: E402
from _oracles import brute_classes, brute_instances, brute_select, brute_solutions, brute_violations  # noqa: E402

from applekit.assets import load_assets
from applekit.graph import Graph
from applekit.materialize import materialize
from applekit.query import (
    ANYTHING,
    And,
    Named,
    OneOf,
    PropertyPath,
    QueryParseError,
    SelectQuery,
    Some,
    TriplePattern,
    _at_or_below,
    _instances,
    answer,
    parse_class_expression,
    parse_select,
    render_term,
    retrieve_classes,
    retrieve_instances,
    select,
    solutions,
)
from applekit.schema import NameCatalog, extract_schema
from applekit.terms import RDF_TYPE, PrefixMap, Term, Triple, blank, iri, literal
from applekit.turtle import parse_turtle
from applekit.validate import check_disjointness, check_obligations, validate_graph
from applekit.vocab import APPLE, UPHOLDS_PRINCIPLE, VIOLATES_PRINCIPLE

EX = "http://example.org/"
HEADER = (
    f"@prefix ex: <{EX}> .\n"
    "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
)
MICRO = HEADER + (
    "ex:A a owl:Class . ex:B a owl:Class . ex:F a owl:Class . ex:FF a owl:Class .\n"
    "ex:Sub rdfs:subClassOf ex:A . ex:F rdfs:subClassOf ex:FF .\n"
    "ex:p a owl:ObjectProperty . ex:q a owl:ObjectProperty . ex:p rdfs:subPropertyOf ex:q .\n"
    "ex:linksTo a owl:ObjectProperty .\n"
    "ex:A rdfs:subClassOf _:r .\n"
    "_:r a owl:Restriction ; owl:onProperty ex:p ; owl:someValuesFrom ex:F .\n"
    "ex:A ex:linksTo ex:B .\n"
    "ex:x a ex:A ; ex:p ex:y, \"lit\" .\n"
    "ex:y a ex:F . ex:z a ex:B ; ex:q ex:x .\n"
    "_:w ex:p ex:y .\n"
)


@pytest.fixture(scope="module")
def micro():
    graph = parse_turtle(MICRO)
    schema = extract_schema(graph)
    catalog = NameCatalog.from_graph(graph, schema, PrefixMap({"ex": EX}))
    return graph, schema, catalog


def parse(text, catalog):
    return parse_class_expression(text, catalog)


class TestExpressionParsing:
    def test_named(self, micro):
        _, _, catalog = micro
        assert parse("A", catalog) == Named(EX + "A")
        assert parse(f"<{EX}A>", catalog) == Named(EX + "A")
        assert parse("ex:NotDeclared", catalog) == Named(EX + "NotDeclared")

    def test_and_is_flat_nary(self, micro):
        _, _, catalog = micro
        assert parse("A and B and F", catalog) == And(
            (Named(EX + "A"), Named(EX + "B"), Named(EX + "F"))
        )

    def test_parens_group(self, micro):
        _, _, catalog = micro
        assert parse("(A and B) and F", catalog) == And(
            (And((Named(EX + "A"), Named(EX + "B"))), Named(EX + "F"))
        )

    def test_some_with_and_without_filler(self, micro):
        _, _, catalog = micro
        assert parse("p some F", catalog) == Some(PropertyPath(EX + "p"), Named(EX + "F"))
        assert parse("p some", catalog) == Some(PropertyPath(EX + "p"), ANYTHING)
        assert parse("p some and B", catalog) == And(
            (Some(PropertyPath(EX + "p"), ANYTHING), Named(EX + "B"))
        )

    def test_some_binds_tighter_than_and(self, micro):
        _, _, catalog = micro
        assert parse("A and p some F and B", catalog) == And(
            (Named(EX + "A"), Some(PropertyPath(EX + "p"), Named(EX + "F")), Named(EX + "B"))
        )

    def test_inverse_path(self, micro):
        _, _, catalog = micro
        assert parse("inverse p some B", catalog) == Some(
            PropertyPath(EX + "p", inverted=True), Named(EX + "B")
        )

    def test_nominals(self, micro):
        _, _, catalog = micro
        assert parse("{x, y}", catalog) == OneOf(frozenset({EX + "x", EX + "y"}))
        assert parse("p some {y}", catalog) == Some(
            PropertyPath(EX + "p"), OneOf(frozenset({EX + "y"}))
        )

    def test_parenthesized_filler(self, micro):
        _, _, catalog = micro
        assert parse("p some (F and B)", catalog) == Some(
            PropertyPath(EX + "p"), And((Named(EX + "F"), Named(EX + "B")))
        )

    def test_nested_restriction_filler(self, micro):
        _, _, catalog = micro
        assert parse("p some (inverse q some {z})", catalog) == Some(
            PropertyPath(EX + "p"),
            Some(PropertyPath(EX + "q", inverted=True), OneOf(frozenset({EX + "z"}))),
        )

    def test_bundled_cq_shapes_parse(self):
        # The bundled catalog resolves plural aliases onto the singular IRIs.
        expr = parse_class_expression(
            "Action and (upholdsEthicalPrinciples some) and (violatesEthicalPrinciples some)"
        )
        assert isinstance(expr, And) and len(expr.parts) == 3
        assert expr.parts[1] == Some(PropertyPath(UPHOLDS_PRINCIPLE), ANYTHING)
        assert expr.parts[2] == Some(PropertyPath(VIOLATES_PRINCIPLE), ANYTHING)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "A and",
            "and A",
            "Missing",
            "p some F extra",
            "{x y}",
            "(A and B",
            "inverse some F",
            "A %",
            "<http://unterminated",
            "p some ,",
            "<foo>",
            "p some <http://example.org/a b>",
        ],
    )
    def test_parse_errors(self, micro, text):
        _, _, catalog = micro
        with pytest.raises(QueryParseError) as err:
            parse(text, catalog)
        assert err.value.position is not None

    # One case or more for each place the front end raises: the expression
    # grammar, the token cursor, name resolution and the lexer.
    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("and A", "expected a class name, found 'and'", 0),
            ("p some some", "expected a class name, found 'some'", 7),
            ("inverse and some A", "expected a property name, found 'and'", 8),
            ("{x, inverse}", "expected an individual name, found 'inverse'", 4),
            ("A B", "unexpected trailing token 'B'", 2),
            ("A )", "unexpected trailing token ')'", 2),
            ("A and", "expected a class expression", 5),
            ("p some A and ", "expected a class expression", 13),
            ("inverse", "unexpected end of input", 7),
            ("(A", "unexpected end of input", 2),
            ("{x", "unexpected end of input", 2),
            ("inverse p A", "expected 'some', found 'A'", 10),
            ("{x y}", "expected '}', found 'y'", 3),
            ("(A B", "expected ')', found 'B'", 3),
            ("( )", "expected a class name, found ')'", 2),
            ("{,}", "expected an individual name, found ','", 1),
            ("inverse ( some A", "expected a property name, found '('", 8),
            ("Missing", "cannot resolve name 'Missing': unknown class name 'Missing'", 0),
            ("{nobody}", "cannot resolve name 'nobody': unknown class name 'nobody'", 1),
            ("zz:A", "cannot resolve name 'zz:A': undeclared prefix 'zz:' in name 'zz:A'", 0),
            ("A and <foo>", "cannot resolve name '<foo>': IRI is not absolute: 'foo'", 6),
            ("A %", "unexpected character '%'", 2),
            ("A <b", "unterminated '<'", 2),
            ("(A) ?", "'?' must be followed by a variable name", 4),
            ("", "empty class expression", 0),
            pytest.param("(" * 5000 + "A" + ")" * 5000, "parentheses nested deeper than 100", 100, id="nested-5000"),
        ],
    )
    def test_error_message_and_position(self, micro, text, message, position):
        _, _, catalog = micro
        with pytest.raises(QueryParseError) as err:
            parse(text, catalog)
        assert (str(err.value), err.value.position) == (f"{message} (at offset {position})", position)

    def test_error_position_reported(self, micro):
        _, _, catalog = micro
        with pytest.raises(QueryParseError, match="offset"):
            parse("A ^ B", catalog)

    def test_trailing_token_is_reported_where_it_starts(self):
        with pytest.raises(QueryParseError, match="unexpected trailing token 'Agent'") as err:
            parse_class_expression("Agent Agent")
        assert err.value.position == 6


class TestInstances:
    def test_named_extension(self, micro):
        graph, _, catalog = micro
        assert retrieve_instances(parse("A", catalog), graph) == [EX + "x"]

    def test_oneof_includes_unmentioned(self, micro):
        graph, _, catalog = micro
        expr = OneOf(frozenset({EX + "x", EX + "ghost"}))
        assert retrieve_instances(expr, graph) == [EX + "ghost", EX + "x"]

    def test_anything_is_graph_universe(self, micro):
        graph, _, catalog = micro
        got = retrieve_instances(ANYTHING, graph)
        assert EX + "x" in got and "_:w" in got
        assert all(not v.startswith('"') for v in got)

    def test_some_forward(self, micro):
        graph, _, catalog = micro
        assert retrieve_instances(parse("p some F", catalog), graph) == ["_:w", EX + "x"]
        assert retrieve_instances(parse("p some", catalog), graph) == ["_:w", EX + "x"]

    def test_some_inverse_drops_literal_subjects(self, micro):
        graph, _, catalog = micro
        # x --p--> "lit": the literal can never appear as a subject of the
        # inverted pair, and the query must not crash on it.
        assert retrieve_instances(parse("inverse p some {x}", catalog), graph) == [EX + "y"]

    def test_and_intersects(self, micro):
        graph, _, catalog = micro
        assert retrieve_instances(parse("A and p some F", catalog), graph) == [EX + "x"]
        assert retrieve_instances(parse("A and B", catalog), graph) == []

    def test_instances_are_sorted_strings(self, micro):
        graph, _, catalog = micro
        got = retrieve_instances(parse("p some", catalog), graph)
        assert got == sorted(got)

    def test_closed_world_no_inference_here(self, micro):
        graph, _, catalog = micro
        # Sub is a subclass of A but x is typed only A: instance retrieval
        # reads the graph as-is; any inheritance must come from materialization.
        assert retrieve_instances(parse("Sub", catalog), graph) == []

    def test_random_graphs_match_oracle(self):
        for seed in range(40):
            rng = random.Random(2000 + seed)
            graph = random_graph(rng)
            classes, props, inds = graph_vocabulary(graph)
            for _ in range(3):
                expr = random_expression(rng, classes, props, inds)
                got = retrieve_instances(expr, graph)
                want = brute_instances(expr, graph)
                assert got == want, (seed, expr)

    def test_monotone_under_insertion(self):
        for seed in range(15):
            rng = random.Random(3000 + seed)
            graph = random_graph(rng)
            classes, props, inds = graph_vocabulary(graph)
            expr = random_expression(rng, classes, props, inds)
            before = set(retrieve_instances(expr, graph))
            bigger = graph.copy()
            if inds and props:
                bigger.insert(Triple(iri(rng.choice(inds)), iri(rng.choice(props)), iri(rng.choice(inds))))
            if inds and classes:
                bigger.insert(Triple(iri(rng.choice(inds)), iri(RDF_TYPE), iri(rng.choice(classes))))
            assert before <= set(retrieve_instances(expr, bigger)), seed


def some_graph(inverted: bool, smaller: bool):
    """ex:p edges from ex:s0-ex:s5 to eight objects, two of them literals,
    and ex:F typed on the side a path of that direction reads, with fewer
    or more members than ex:p's eight objects.  Each ex:s is an ex:A, and
    ex:A carries the obligation ``ex:p some ex:F``."""
    side = "s" if inverted else "o"
    members = [f"ex:{side}0", f"ex:{side}1"] if smaller else [f"ex:{side}{i}" for i in range(6)] + [f"ex:x{i}" for i in range(6)]
    graph = parse_turtle(HEADER + (
        "ex:A a owl:Class . ex:F a owl:Class . ex:p a owl:ObjectProperty .\n"
        "ex:A rdfs:subClassOf _:r .\n"
        "_:r a owl:Restriction ; owl:onProperty ex:p ; owl:someValuesFrom ex:F .\n"
        'ex:s0 ex:p ex:o0, "v0" . ex:s1 ex:p ex:o1, "v1"@en . ex:s2 ex:p ex:o2, ex:o3 .\n'
        "ex:s3 ex:p ex:o3 . ex:s4 ex:p ex:o4, ex:o5 .\n"
    ) + "".join(f"ex:s{i} a ex:A .\n" for i in range(6)) + "".join(f"{m} a ex:F .\n" for m in members))
    return graph, frozenset(EX + m[3:] for m in members)


@pytest.mark.parametrize("smaller", [True, False], ids=["smaller-filler", "larger-filler"])
@pytest.mark.parametrize("inverted", [False, True], ids=["forward", "inverse"])
class TestSomeFromSmallerSide:
    """``p some F`` walks the filler's terms when it has fewer than p has
    objects, and p's object map otherwise."""

    def test_matches_oracle(self, inverted, smaller):
        graph, members = some_graph(inverted, smaller)
        for filler in (Named(EX + "F"), OneOf(members), And((Named(EX + "F"), ANYTHING))):
            assert (len(_instances(filler, graph)) < len(graph._by_object(iri(EX + "p")))) == smaller
            restriction = Some(PropertyPath(EX + "p", inverted), filler)
            for expr in (restriction, And((Named(EX + "A"), restriction))):
                got = retrieve_instances(expr, graph)
                assert got == brute_instances(expr, graph), expr
                assert all(not value.startswith('"') for value in got)

    def test_obligation_check_matches_oracle(self, inverted, smaller):
        graph, _ = some_graph(inverted, smaller)
        schema = extract_schema(graph)
        got = [(v.kind, v.severity, v.subject, v.detail) for v in validate_graph(graph, schema).violations]
        assert got and got == brute_violations(graph, schema)


class TestClasses:
    def test_named_returns_subtree(self, micro):
        graph, schema, catalog = micro
        assert retrieve_classes(parse("A", catalog), schema, graph) == [EX + "A", EX + "Sub"]

    def test_obligation_satisfies_restriction(self, micro):
        graph, schema, catalog = micro
        got = retrieve_classes(parse("p some F", catalog), schema, graph)
        assert got == [EX + "A", EX + "Sub"]

    def test_subproperty_widens_restriction(self, micro):
        graph, schema, catalog = micro
        assert EX + "A" in retrieve_classes(parse("q some F", catalog), schema, graph)

    def test_filler_subsumption(self, micro):
        graph, schema, catalog = micro
        assert EX + "A" in retrieve_classes(parse("p some FF", catalog), schema, graph)
        assert retrieve_classes(parse("p some B", catalog), schema, graph) == []

    def test_punned_edge_forward(self, micro):
        graph, schema, catalog = micro
        # Sub appears because it inherits A's punned edge.
        assert retrieve_classes(parse("linksTo some", catalog), schema, graph) == [EX + "A", EX + "Sub"]
        assert retrieve_classes(parse("linksTo some {B}", catalog), schema, graph) == [EX + "A", EX + "Sub"]

    def test_punned_edge_nominal_uses_individual_category(self, micro):
        graph, schema, catalog = micro
        # {B} parses only because punned IRIs fall back to the class table.
        expr = parse("linksTo some {B}", catalog)
        assert expr == Some(PropertyPath(EX + "linksTo"), OneOf(frozenset({EX + "B"})))

    def test_punned_edge_inverse(self, micro):
        graph, schema, catalog = micro
        assert retrieve_classes(parse("inverse linksTo some", catalog), schema, graph) == [EX + "B"]
        assert retrieve_classes(parse("inverse linksTo some {A}", catalog), schema, graph) == [EX + "B"]

    def test_inherited_punned_edge(self, micro):
        graph, schema, catalog = micro
        # Sub inherits A's punned linksTo edge (forward direction only).
        assert EX + "Sub" in retrieve_classes(parse("linksTo some", catalog), schema, graph)

    def test_anything_returns_all_classes(self, micro):
        graph, schema, catalog = micro
        assert retrieve_classes(ANYTHING, schema, graph) == sorted(schema.classes)

    @pytest.mark.parametrize("path", ["p", "linksTo", "inverse linksTo"])
    def test_filler_conjunct_with_no_members(self, micro, path):
        # ex:C is neither declared nor typed, so nothing is below it or in
        # it; in either conjunct order the filler accepts nothing.
        graph, schema, catalog = micro
        for filler in (f"(<{EX}C> and B)", f"(B and <{EX}C>)", f"(<{EX}C> and F)"):
            text = f"{path} some {filler}"
            expr = parse(text, catalog)
            assert answer(text, "classes", graph, schema, catalog) == (None, [])
            assert retrieve_classes(expr, schema, graph) == brute_classes(expr, schema, graph) == [], text

    def test_below_is_the_inverse_of_above(self):
        # Class retrieval walks the hierarchy down from a class; the
        # schema's public reads walk it up.
        for seed in range(200):
            rng = random.Random(seed)
            schema = extract_schema(add_meta_axioms(rng, add_obligations(rng, random_graph(rng))))
            universe = schema.classes
            for cls in sorted(universe):
                want = {c for c in universe if schema.is_subclass(c, cls)}
                assert _at_or_below({cls}, schema, universe) == want, (seed, cls)
            targets = set(rng.sample(sorted(universe), min(3, len(universe))))
            want = {c for c in universe if any(schema.is_subclass(c, t) for t in targets)}
            assert _at_or_below(targets, schema, universe) == want, seed

    def test_oneof_in_class_mode_matches_class_iris(self, micro):
        graph, schema, catalog = micro
        expr = OneOf(frozenset({EX + "A", EX + "x"}))
        assert retrieve_classes(expr, schema, graph) == [EX + "A"]

    def test_literal_object_satisfies_only_a_bare_some(self):
        graph = parse_turtle(HEADER + (
            "ex:A a owl:Class . ex:Sub rdfs:subClassOf ex:A .\n"
            'ex:note a owl:ObjectProperty . ex:A ex:note "text" .\n'
        ))
        schema = extract_schema(graph)
        for filler, want in ((ANYTHING, [EX + "A", EX + "Sub"]), (And((ANYTHING, ANYTHING)), [])):
            for expr in (Some(PropertyPath(EX + "note"), filler), Some(PropertyPath(EX + "note", True), filler)):
                got = retrieve_classes(expr, schema, graph)
                assert got == brute_classes(expr, schema, graph) == ([] if expr.path.inverted else want), expr

    def test_random_schemas_match_oracle(self):
        for seed in range(300):
            rng = random.Random(7000 + seed)
            graph, names = class_level_graph(rng)
            schema = extract_schema(graph)
            data = materialize(graph, schema) if rng.random() < 0.5 else graph
            if rng.random() < 0.25:
                # A hand-built schema may leave an obligation's filler undeclared.
                schema = schema._replace(classes=schema.classes - {ob.filler for ob in schema.obligations})
            for _ in range(4):
                expr = random_expression(rng, *names)
                assert retrieve_classes(expr, schema, data) == brute_classes(expr, schema, data), (seed, expr)


def class_level_graph(rng: random.Random):
    """A random schema with obligations and meta axioms, plus what class
    retrieval reads apart from instance retrieval: classes typed as
    instances (punning), edges from classes to individuals and back, and a
    literal object of a class-level edge.  Returns the graph and the
    (classes, properties, nominals) to draw expressions from; the nominals
    hold class IRIs too."""
    graph = add_meta_axioms(rng, add_obligations(rng, random_graph(rng)))
    classes, props, inds = graph_vocabulary(graph)
    for _ in range(rng.randint(0, 3)):
        graph.insert(Triple(iri(rng.choice(classes)), iri(RDF_TYPE), iri(rng.choice(classes))))
    for _ in range(rng.randint(0, 2) if inds else 0):
        graph.insert(Triple(iri(rng.choice(classes)), iri(rng.choice(props)), iri(rng.choice(inds))))
        graph.insert(Triple(iri(rng.choice(inds)), iri(rng.choice(props)), iri(rng.choice(classes))))
    graph.insert(Triple(iri(rng.choice(classes)), iri(rng.choice(props)), literal(f"v{rng.randint(0, 9)}")))
    return graph, (classes, props, inds + classes)


def nominal_filter_catalog(micro):
    return micro[2]


class TestSelectParsing:
    def test_basic_patterns(self, micro):
        _, _, catalog = micro
        query = parse_select("?s p ?o . ?o q x", catalog)
        assert query.variables == ("?s", "?o")
        assert query.patterns[0] == TriplePattern("?s", iri(EX + "p"), "?o")
        assert query.patterns[1] == TriplePattern("?o", iri(EX + "q"), iri(EX + "x"))

    def test_a_keyword_types(self, micro):
        _, _, catalog = micro
        query = parse_select("?s a A", catalog)
        assert query.patterns[0].p == iri(RDF_TYPE)
        assert query.patterns[0].o == iri(EX + "A")

    def test_object_names_fall_back_to_classes(self, micro):
        _, _, catalog = micro
        query = parse_select("?s linksTo B", catalog)
        assert query.patterns[0].o == iri(EX + "B")

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("?s p", "exactly 3"),
            ("?s p ?o extra", "exactly 3"),
            ("", "no patterns"),
            ("?s nosuch ?o", "unknown property"),
            ("?s p ?o . ?a q ?b", "not connected"),
            ("? p ?o", "variable name"),
            ("?s a <foo>", "not absolute"),
            ("?s <http://example.org/a b> ?o", "forbidden character"),
            ("?s <http://example.org/a{b> ?o", "forbidden character"),
            ("?s p ?o ; ?o q x", "unexpected character"),
            ("?s ( ?o", "expected a property name"),
        ],
    )
    def test_parse_errors(self, micro, text, needle):
        _, _, catalog = micro
        with pytest.raises(QueryParseError, match=needle) as err:
            parse_select(text, catalog)
        assert err.value.position is not None

    # One case or more for each place the select parser raises, and for
    # name resolution and the lexer under it.
    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("?s p", "pattern must have exactly 3 terms, found 2: '?s p'", 0),
            ("?s p ?o . ?o q", "pattern must have exactly 3 terms, found 2: '?o q'", 10),
            ("?s p ?o extra", "pattern must have exactly 3 terms, found 4: '?s p ?o extra'", 0),
            ("", "select query has no patterns", 0),
            (" . ", "select query has no patterns", 3),
            ("?s p ?o . ?a q ?b", "select patterns are not connected; variable groups: ?o,?s / ?a,?b", 10),
            ("?a p ?b . ?c p ?d . ?e p ?f . ?f q ?c",
             "select patterns are not connected; variable groups: ?a,?b / ?c,?d,?e,?f", 10),
            ("?a p ?b . ?c p ?d . ?e p ?f . ?f q ?a",
             "select patterns are not connected; variable groups: ?c,?d / ?a,?b,?e,?f", 10),
            ("?s nosuch ?o", "cannot resolve name 'nosuch': unknown property name 'nosuch'", 3),
            ("?s ( ?o", "expected a property name, found '('", 3),
            ("( p ?o", "expected an individual name, found '('", 0),
            ("?s p )", "expected an individual name, found ')'", 5),
            ("?s p nobody", "cannot resolve name 'nobody': unknown class name 'nobody'", 5),
            ("?s a <foo>", "cannot resolve name '<foo>': IRI is not absolute: 'foo'", 5),
            ("?s p ?o ; ?o q x", "unexpected character ';'", 8),
            ("? p ?o", "'?' must be followed by a variable name", 0),
            ("?s p ?o . ?o q <x", "unterminated '<'", 15),
        ],
    )
    def test_error_message_and_position(self, micro, text, message, position):
        _, _, catalog = micro
        with pytest.raises(QueryParseError) as err:
            parse_select(text, catalog)
        assert (str(err.value), err.value.position) == (f"{message} (at offset {position})", position)

    def test_trailing_dot_and_comments(self, micro):
        _, _, catalog = micro
        expected = parse_select("?s p ?o . ?o q x", catalog)
        assert parse_select("?s p ?o . ?o q x .", catalog) == expected
        assert parse_select("?s p ?o . # one. <two\n?o q x", catalog) == expected

    @pytest.mark.parametrize(
        "text",
        ["?x a <http://schema.org/Action>", "?x <http://xmlns.com/foaf/0.1/knows> ?y"],
    )
    def test_absolute_iris_match_oracle(self, text):
        # A '.' inside <...> belongs to the IRI, never to the pattern list.
        graph = parse_turtle(
            "@prefix schema: <http://schema.org/> .\n"
            "@prefix foaf: <http://xmlns.com/foaf/0.1/> .\n"
            f"@prefix ex: <{EX}> .\n"
            "ex:a a schema:Action ; foaf:knows ex:b . ex:b a schema:Person .\n"
            "ex:c a schema:Action ; foaf:knows ex:a, ex:b .\n"
        )
        query = parse_select(text, NameCatalog.from_graph(graph))
        rows = select(query, graph)
        assert rows and rows == brute_select(query, graph)

    def test_shared_constant_does_not_connect(self, micro):
        _, _, catalog = micro
        # Both patterns mention x, but connectivity is about shared variables.
        with pytest.raises(QueryParseError, match="not connected"):
            parse_select("?s p x . ?o q x", catalog)


class TestSelectEvaluation:
    def test_join_chain(self, micro):
        graph, _, catalog = micro
        rows = select(parse_select("?s q ?o . ?o p ?t", catalog), graph)
        # Rows sort lexicographically; the quoted literal sorts before IRIs.
        assert rows == [(EX + "z", EX + "x", '"lit"'), (EX + "z", EX + "x", EX + "y")]

    def test_constant_filter(self, micro):
        graph, _, catalog = micro
        assert select(parse_select("?s p y", catalog), graph) == [("_:w",), (EX + "x",)]

    def test_repeated_variable_requires_equality(self):
        graph = parse_turtle(HEADER + "ex:p a owl:ObjectProperty .\nex:n ex:p ex:n . ex:n ex:p ex:m .")
        catalog = NameCatalog.from_graph(graph, prefixes=PrefixMap({"ex": EX}))
        rows = select(parse_select("?x p ?x", catalog), graph)
        assert rows == [(EX + "n",)]

    def test_ground_query_returns_empty_row_or_nothing(self, micro):
        graph, _, catalog = micro
        assert select(parse_select("x p y", catalog), graph) == [()]
        assert select(parse_select("x p z", catalog), graph) == []

    def test_no_matches(self, micro):
        graph, _, catalog = micro
        assert select(parse_select("?s linksTo ?o . ?o linksTo ?t", catalog), graph) == []

    def test_rows_sorted_and_unique(self, micro):
        graph, _, catalog = micro
        rows = select(parse_select("?s p ?o", catalog), graph)
        assert rows == sorted(set(rows))

    def test_random_queries_match_oracle(self):
        for seed in range(40):
            rng = random.Random(4000 + seed)
            graph = random_graph(rng)
            _, props, inds = graph_vocabulary(graph)
            for _ in range(2):
                query = random_select(rng, props, inds)
                assert select(query, graph) == brute_select(query, graph), seed

    def test_pattern_order_does_not_change_rows(self):
        reordered = 0
        for seed in range(40):
            rng = random.Random(4100 + seed)
            graph = random_graph(rng)
            _, props, inds = graph_vocabulary(graph)
            query = random_select(rng, props, inds, constant_subjects=True)
            want = brute_select(query, graph)
            for order in itertools.permutations(query.patterns):
                assert select(SelectQuery(order, query.variables), graph) == want, (seed, order)
            # A later pattern with more constants runs before the first one.
            constants = [sum(isinstance(slot, Term) for slot in pattern) for pattern in query.patterns]
            reordered += max(constants) > constants[0]
        assert reordered

    def test_solutions_from_a_start_match_oracle(self):
        """The join rule bodies run from a fact's terms: every solution that
        agrees with ``start``, which may bind a literal or a term that is
        no predicate."""
        nonempty = 0
        for seed in range(60):
            rng = random.Random(4200 + seed)
            graph = random_graph(rng)
            _, props, inds = graph_vocabulary(graph)
            query = random_select(rng, props, inds, constant_subjects=True)
            every = brute_solutions(query.patterns, graph)
            terms = sorted({term for triple in graph for term in (triple.s, triple.p, triple.o)}, key=Term.sort_key)
            for _ in range(3):
                names = rng.sample(query.variables, rng.randint(1, len(query.variables)))
                source = rng.choice(every) if every and rng.random() < 0.6 else None
                start = {name: source[name] if source else rng.choice(terms) for name in names}
                got = {tuple(sorted(found.items())) for found in solutions(query.patterns, graph, dict(start))}
                want = {tuple(sorted(found.items())) for found in brute_solutions(query.patterns, graph, start)}
                assert got == want, (seed, query, start)
                nonempty += bool(want)
        assert nonempty


# ex:a's ex:p objects: an IRI, a literal, a blank node and ex:q, a stored
# predicate that is no subject.
GUARDED = HEADER + 'ex:a ex:p ex:b, "lit", _:n, ex:q .\nex:b ex:q ex:c . _:n ex:q ex:c .\n'
A, B, C, P, Q = (iri(EX + name) for name in ("a", "b", "c", "p", "q"))


class TestJoinGuards:
    """A bound variable meets a slot no stored triple can fill with its
    term: that branch gives no rows, whatever shape the probe has."""

    @pytest.mark.parametrize("second, want", [
        (TriplePattern("?y", Q, "?z"), [("_:n", EX + "c"), (EX + "b", EX + "c")]),
        (TriplePattern("?y", Q, C), [("_:n",), (EX + "b",)]),
        (TriplePattern("?y", "?r", "?z"), [("_:n", EX + "q", EX + "c"), (EX + "b", EX + "q", EX + "c")]),
        (TriplePattern("?y", "?r", C), [("_:n", EX + "q"), (EX + "b", EX + "q")]),
    ])
    def test_literal_in_subject_slot(self, second, want):
        graph = parse_turtle(GUARDED)
        first = TriplePattern(A, P, "?y")
        query = SelectQuery((first, second), tuple(dict.fromkeys(first.variables() + second.variables())))
        assert select(query, graph) == want == brute_select(query, graph)

    @pytest.mark.parametrize("second, want", [
        (TriplePattern("?x", "?r", "?y"), [(EX + "q", "_:n", EX + "c"), (EX + "q", EX + "b", EX + "c")]),
        (TriplePattern(B, "?r", "?y"), [(EX + "q", EX + "c")]),
        (TriplePattern("?x", "?r", C), [(EX + "q", "_:n"), (EX + "q", EX + "b")]),
        (TriplePattern(B, "?r", C), [(EX + "q",)]),
    ])
    def test_predicate_slot_holds_no_predicate(self, second, want):
        # ?r is also bound to ex:b, a literal and a blank node, none of them a predicate.
        graph = parse_turtle(GUARDED)
        first = TriplePattern(A, P, "?r")
        query = SelectQuery((first, second), tuple(dict.fromkeys(first.variables() + second.variables())))
        assert select(query, graph) == want == brute_select(query, graph)


LIT, NODE = literal("lit"), blank("n")
LOOPED = HEADER + "ex:a ex:p ex:a, ex:b . ex:b ex:p ex:a . ex:c ex:q ex:c .\n"


def solved(patterns, graph, start):
    """The solutions as a sorted list of sorted (variable, value) tuples."""
    return sorted(tuple(sorted((name, render_term(term)) for name, term in found.items())) for found in solutions(patterns, graph, start))


def brute_solved(patterns, graph, start):
    return sorted({tuple(sorted((name, render_term(term)) for name, term in found.items())) for found in brute_solutions(patterns, graph, start)})


class TestProbeShapes:
    """Each shape of probe a pattern with a constant predicate makes, from
    a start that binds a subject, an object or both, to an IRI, a literal,
    a blank node or ex:q, a stored predicate that is no subject."""

    @pytest.mark.parametrize("predicate, start, want", [
        (P, {"?x": A}, [EX + "b", EX + "q", '"lit"', "_:n"]),
        (Q, {"?x": B}, [EX + "c"]),
        (Q, {"?x": NODE}, [EX + "c"]),
        (P, {"?x": NODE}, []),
        (P, {"?x": LIT}, []),
        (Q, {"?x": Q}, []),
        (P, {"?x": C}, []),
    ])
    def test_subject_bound(self, predicate, start, want):
        graph = parse_turtle(GUARDED)
        patterns = (TriplePattern("?x", predicate, "?y"),)
        rows = [(("?x", render_term(start["?x"])), ("?y", y)) for y in want]
        assert solved(patterns, graph, start) == sorted(rows) == brute_solved(patterns, graph, start)

    @pytest.mark.parametrize("predicate, start, want", [
        (P, {"?y": LIT}, [EX + "a"]),
        (P, {"?y": NODE}, [EX + "a"]),
        (P, {"?y": Q}, [EX + "a"]),
        (Q, {"?y": C}, [EX + "b", "_:n"]),
        (Q, {"?y": LIT}, []),
        (Q, {"?y": Q}, []),
        (P, {"?y": A}, []),
    ])
    def test_object_bound(self, predicate, start, want):
        graph = parse_turtle(GUARDED)
        patterns = (TriplePattern("?x", predicate, "?y"),)
        rows = [(("?x", x), ("?y", render_term(start["?y"]))) for x in want]
        assert solved(patterns, graph, start) == sorted(rows) == brute_solved(patterns, graph, start)

    @pytest.mark.parametrize("predicate, x, y, holds", [
        (P, A, LIT, True),
        (P, A, NODE, True),
        (P, A, Q, True),
        (Q, NODE, C, True),
        (Q, LIT, C, False),
        (Q, Q, C, False),
        (P, A, C, False),
        (P, NODE, LIT, False),
    ])
    def test_both_bound(self, predicate, x, y, holds):
        graph = parse_turtle(GUARDED)
        patterns = (TriplePattern("?x", predicate, "?y"),)
        start = {"?x": x, "?y": y}
        want = [(("?x", render_term(x)), ("?y", render_term(y)))] if holds else []
        assert solved(patterns, graph, start) == want == brute_solved(patterns, graph, start)

    @pytest.mark.parametrize("start, want", [
        ({}, [EX + "a"]),
        ({"?x": A}, [EX + "a"]),
        ({"?x": B}, []),
        ({"?x": LIT}, []),
        ({"?x": Q}, []),
    ])
    def test_repeated_variable(self, start, want):
        graph = parse_turtle(LOOPED)
        patterns = (TriplePattern("?x", P, "?x"),)
        assert solved(patterns, graph, start) == [(("?x", x),) for x in want] == brute_solved(patterns, graph, start)

    @pytest.mark.parametrize("start, want", [
        ({}, [(EX + "b", EX + "q"), ("_:n", EX + "q")]),
        ({"?q": Q}, [(EX + "b", EX + "q"), ("_:n", EX + "q")]),
        ({"?q": P}, []),
        ({"?q": LIT}, []),
        ({"?x": NODE}, [("_:n", EX + "q")]),
        ({"?x": LIT}, []),
    ])
    def test_variable_predicate(self, start, want):
        graph = parse_turtle(GUARDED)
        patterns = (TriplePattern("?x", "?q", C),)
        rows = sorted((("?q", q), ("?x", x)) for x, q in want)
        assert solved(patterns, graph, start) == rows == brute_solved(patterns, graph, start)

    @pytest.mark.parametrize("expr", [
        And((Named(EX + "Empty"), Named(EX + "F"))),
        And((Named(EX + "F"), Named(EX + "Empty"))),
        And((Named(EX + "Empty"), OneOf(frozenset({EX + "y"})))),
        And((Some(PropertyPath(EX + "p"), Named(EX + "F")), Named(EX + "Empty"))),
        And((ANYTHING, Named(EX + "Empty"))),
        Some(PropertyPath(EX + "p"), Named(EX + "Empty")),
        Some(PropertyPath(EX + "p", True), And((Named(EX + "Empty"), Named(EX + "A")))),
    ])
    def test_class_without_members(self, micro, expr):
        graph, _, _ = micro
        assert retrieve_instances(expr, graph) == [] == brute_instances(expr, graph)


def index_snapshot(index):
    """A deep copy of one of the graph's nested indexes."""
    return {first: {second: frozenset(third) for second, third in inner.items()} for first, inner in index.items()}


class TestReadsNeverWrite:
    """Queries and checks read the graph's index sets in place; none of
    them may change one.  ``Graph.__eq__`` compares ``_spo`` alone, so both
    indexes are compared here."""

    def test_indexes_unchanged(self):
        answered = 0
        for seed in range(30):
            rng = random.Random(9100 + seed)
            raw = add_obligations(rng, random_graph(rng))
            schema = extract_schema(raw)
            graph = materialize(raw, schema)
            classes, props, inds = graph_vocabulary(graph)
            spo, pos = index_snapshot(graph._spo), index_snapshot(graph._pos)
            named = [Named(cls) for cls in classes]
            some = [Some(PropertyPath(prop, rng.random() < 0.5), rng.choice(named)) for prop in props]
            nominal = OneOf(frozenset(rng.sample(inds, min(3, len(inds)))))
            expressions = [
                *named,
                *some,
                nominal,
                And(tuple(named)) if len(named) > 1 else nominal,
                And((rng.choice(named), nominal)),
                *(And((rng.choice(named), part, rng.choice(named))) for part in some),
                *(random_expression(rng, classes, props, inds) for _ in range(6)),
            ]
            for expr in expressions:
                answered += bool(retrieve_instances(expr, graph))
                retrieve_classes(expr, schema, graph)
            for _ in range(6):
                query = random_select(rng, props, inds, constant_subjects=rng.random() < 0.5)
                answered += bool(select(query, graph))
            answered += bool(check_disjointness(graph, schema)) + bool(check_obligations(graph, schema))
            assert index_snapshot(graph._spo) == spo, seed
            assert index_snapshot(graph._pos) == pos, seed
        assert answered


class TestBundledQueries:
    def test_agent_query_uses_default_catalog(self):
        assets = load_assets()
        graph = materialize(assets.combined(), assets.schema)
        got = retrieve_instances(parse_class_expression("Agent"), graph)
        assert got == [APPLE + "Doctor", APPLE + "Patient"]

    def test_inverse_participation(self):
        assets = load_assets()
        graph = materialize(assets.combined(), assets.schema)
        expr = parse_class_expression("Agent and (isParticipantIn some {DentalSurgeryAftercare})")
        assert retrieve_instances(expr, graph) == [APPLE + "Doctor", APPLE + "Patient"]

    def test_nesting_to_the_bound_answers(self):
        assets = load_assets()
        graph = materialize(assets.combined(), assets.schema)
        for mode in ("instances", "classes"):
            want = answer("Agent", mode, graph, assets.schema, assets.catalog)
            assert answer("(" * 100 + "Agent" + ")" * 100, mode, graph, assets.schema, assets.catalog) == want
            answer("doesAction some (" * 100 + "Action" + ")" * 100, mode, graph, assets.schema, assets.catalog)


class TestAnswer:
    def test_each_mode(self, micro):
        graph, schema, catalog = micro
        assert answer("B", "instances", graph, schema, catalog) == (None, retrieve_instances(parse("B", catalog), graph))
        assert answer("B", "classes", graph, schema, catalog) == (None, retrieve_classes(parse("B", catalog), schema, graph))
        query = parse_select("?s p ?o", catalog)
        assert answer("?s p ?o", "select", graph, schema, catalog) == (("?s", "?o"), select(query, graph))

    def test_unknown_mode(self, micro):
        graph, schema, catalog = micro
        with pytest.raises(ValueError, match="unknown query mode: 'bogus'"):
            answer("B", "bogus", graph, schema, catalog)
