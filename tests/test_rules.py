"""Rule grammar, safety, stratified negation, provenance, verdicts."""

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _gen import assign_strata, graph_vocabulary, random_graph, random_rule_text, random_rules, renamed_scenario_copies  # noqa: E402
from _oracles import ground_firings, ground_fixpoint, stratification_violations  # noqa: E402

from applekit.assets import load_assets
from applekit.materialize import materialize
from applekit.query import TriplePattern
import applekit.rules as rules_module
from applekit.rules import (
    Rule,
    RuleError,
    VerdictConflictError,
    classify_actions,
    evaluate_rules,
    evaluate_with_provenance,
    parse_rules,
)
from applekit.schema import NameCatalog, extract_schema
from applekit.terms import RDF_TYPE, PrefixMap, Term, Triple, iri
from applekit.turtle import parse_turtle
from applekit.vocab import MORALLY_WRONG_ACTION

EX = "http://example.org/"
HEADER = (
    f"@prefix ex: <{EX}> .\n"
    "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
)
MICRO = HEADER + (
    "ex:C a owl:Class . ex:D a owl:Class . ex:E a owl:Class .\n"
    "ex:F a owl:Class . ex:G a owl:Class .\n"
    "ex:p a owl:ObjectProperty . ex:q a owl:ObjectProperty .\n"
    "ex:a a ex:C . ex:b a ex:C, ex:E . ex:c a ex:G . ex:d a ex:C .\n"
    "ex:a ex:p ex:b . ex:b ex:p ex:c . ex:a ex:p ex:c . ex:a ex:q ex:c .\n"
)
TYPE = iri(RDF_TYPE)


@pytest.fixture(scope="module")
def micro():
    graph = parse_turtle(MICRO)
    catalog = NameCatalog.from_graph(graph, prefixes=PrefixMap({"ex": EX}))
    return graph, catalog


def typed(graph, cls):
    return {t.s.value for t in graph.match(None, TYPE, iri(EX + cls))}


def instantiate(head, binding):
    """The rule head with each variable replaced by its bound term."""
    return Triple(*(binding[slot] if isinstance(slot, str) else slot for slot in head))


class TestParsing:
    def test_minimal_rule(self, micro):
        _, catalog = micro
        rules = parse_rules("R: C(?x) -> D(?x) .", catalog)
        assert len(rules) == 1
        rule = rules[0]
        assert rule.id == "R"
        assert rule.head == TriplePattern("x", TYPE, iri(EX + "D"))
        assert rule.positives == (TriplePattern("x", TYPE, iri(EX + "C")),)
        assert rule.negatives == ()
        assert rule.stratum == 0

    def test_atom_arity_picks_category(self, micro):
        _, catalog = micro
        (rule,) = parse_rules("R: p(?x, ?y) -> D(?x) .", catalog)
        assert rule.positives == (TriplePattern("x", iri(EX + "p"), "y"),)

    def test_both_spellings_of_a_class_atom_are_one_pattern(self, micro):
        _, catalog = micro
        text = f"R: C(?x), <{RDF_TYPE}>(?x, E) -> <{RDF_TYPE}>(?x, D) .\nS: C(?x), E(?x) -> D(?x) ."
        first, second = parse_rules(text, catalog)
        assert (first.positives, first.head) == (second.positives, second.head)

    def test_constant_resolution_falls_back_to_classes(self, micro):
        _, catalog = micro
        (rule,) = parse_rules("R: p(?x, b), q(?x, G) -> D(?x) .", catalog)
        assert rule.positives[0].o == iri(EX + "b")
        assert rule.positives[1].o == iri(EX + "G")

    def test_bracketed_iri_constant(self, micro):
        _, catalog = micro
        (rule,) = parse_rules(f"R: p(?x, <{EX}b>) -> D(?x) .", catalog)
        assert rule.positives[0].o == iri(EX + "b")

    def test_comments_and_blank_lines_ignored(self, micro):
        _, catalog = micro
        text = "# header. <not an iri\nR1: C(?x) -> D(?x) .\n\n# more.\nR2: E(?x) -> F(?x) . # R3: G(?x)"
        assert [r.id for r in parse_rules(text, catalog)] == ["R1", "R2"]

    @pytest.mark.parametrize("text", ["R1:C(?x) -> D(?x) .", "R1 : C(?x) -> D(?x).", "R1:ex:C(?x) -> D(?x) ."])
    def test_rule_id_colon_spacing(self, micro, text):
        _, catalog = micro
        (rule,) = parse_rules(text, catalog)
        assert rule.id == "R1"
        assert rule.positives == (TriplePattern("x", TYPE, iri(EX + "C")),)

    def test_dots_inside_iris_do_not_split(self, micro):
        _, catalog = micro
        for name in (f"<{EX}v1.2>", "ex:v1.2"):
            (rule,) = parse_rules(f"R: p(?x, {name}) -> D(?x) .", catalog)
            assert rule.positives[0].o == iri(EX + "v1.2")

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("C(?x) -> D(?x) .", "must start with 'id:'"),
            ("R: C(?x) -> D(?x) . R: E(?x) -> F(?x) .", "duplicate rule id"),
            ("R: C(?x) -> D(?x)", "terminating '.'"),
            ("R: C(?x) -> not D(?x) .", "negation is not allowed in a rule head"),
            ("R: C(?x) -> D(?x), E(?x) .", "unexpected trailing token"),
            ("R: C(?x) D(?x) -> E(?x) .", "expected"),
            ("R: Missing(?x) -> D(?x) .", "cannot resolve name"),
            ("R: C(?x, ?y, ?z) -> D(?x) .", "expected"),
            ("R: C(?) -> D(?x) .", "'?' must be followed"),
            ("R: C(?x) -> D(?x) @ .", "unexpected character"),
            ("R: C(?x) -> <foo>(?x) .", "not absolute"),
            ("R: C(?x), p(?x, <http://example.org/a b>) -> D(?x) .", "forbidden character"),
            ("R: C(?x), p(?x, <http://example.org/a{b>) -> D(?x) .", "forbidden character"),
            ("R: C(?x) -> D(<http://example.org/x .", "unterminated '<'"),
            ("R: ,(?x) -> D(?x) .", "rule R: expected a class name, found ','"),
        ],
        ids=[
            "no-id", "dup-id", "no-dot", "negated-head", "two-heads",
            "missing-arrow", "unknown-name", "arity", "bare-qmark", "bad-char",
            "relative-iri", "iri-with-space", "iri-with-brace", "unterminated-iri",
            "punctuation-predicate",
        ],
    )
    def test_grammar_errors(self, micro, text, needle):
        _, catalog = micro
        with pytest.raises(RuleError, match="line 1"):
            try:
                parse_rules(text, catalog)
            except RuleError as err:
                assert needle in str(err)
                raise

    def test_error_reports_correct_line(self, micro):
        _, catalog = micro
        with pytest.raises(RuleError, match="line 3"):
            parse_rules("# one\nR1: C(?x) -> D(?x) .\nR2: C(?x) -> Nope(?x) .", catalog)

    def test_leading_newline_counts_as_a_line(self, micro):
        _, catalog = micro
        with pytest.raises(RuleError, match="^line 2: rule R: cannot resolve name 'Nope'"):
            parse_rules("\nR: C(?x) -> Nope(?x) .", catalog)

    # The whole message of each kind of rule error, with the line of the
    # statement it is about; after a lexer fault, the statements before it
    # are read first.
    @pytest.mark.parametrize(
        "text,message",
        [
            ("R1: C(?x),\n Nope(?x) -> D(?x) .", "line 1: rule R1: cannot resolve name 'Nope': unknown class name 'Nope'"),
            ("R1: C(?x)\n -> not D(?x) .", "line 1: rule R1: negation is not allowed in a rule head"),
            ("R1: C(?x) -> D(?x) .\n R2: C(?x) ->\n D(?x) E(?x) .", "line 2: rule R2: unexpected trailing token 'E'"),
            ("R1: C(?x) -> D(?x) .\nR2: C(?x) ->", "line 2: rule is missing its terminating '.': 'R2: C(?x) ->'"),
            ("R1: C(?x) -> D(?x) .\nR2: C(?x) -> . ", "line 2: rule R2: unexpected end of input"),
            ("R1: C(?x) ->\n D(?x) .\nR2: C(?x) -> D(?x) .\nR1: C(?x) -> E(?x) .", "line 4: duplicate rule id 'R1'"),
            ("\n\nC(?x) -> D(?x) .", "line 3: rule must start with 'id:', found 'C(?x) -> D(?x)'"),
            ("# c\n# d\nR: C(?x) -> Nope(?x) .", "line 3: rule R: cannot resolve name 'Nope': unknown class name 'Nope'"),
            ("R1: C(?x) -> D(?x) .\nR2: C(?x) -> D(?y) .",
             "line 2: rule R2: head variable ?y is not bound by a positive body atom"),
            ("R1: C(?x), not D(?x) -> E(?x) .\nR2: E(?x) -> D(?x) .",
             "line 1: rule R1: rules are not stratifiable (cycle through negation)"),
            ("R: C(?x) -> D(?x) .\nR2: C(?x) -> D(?x) @ .", "line 2: unexpected character '@'"),
            ("R1: Nope(?x) -> D(?x) .\nR2: @", "line 1: rule R1: cannot resolve name 'Nope': unknown class name 'Nope'"),
            ("R1: C(?x) -> D(?x) .\n\n@", "line 3: unexpected character '@'"),
            ("R1: C(?x) -> D(?x) .\n%\nR2: C(?x) -> D(?x) .", "line 2: unexpected character '%'"),
            ("R1: C(?x) -> Nope(?x)\n@", "line 1: unexpected character '@'"),
            ("R1: C(?x) -> D(?x) .\nR2: C(?x) -> D(?x) . R3: C(?x) -> <broken", "line 2: unterminated '<'"),
            ("R1: C(?x) -> D(?x) .\n?\n", "line 2: '?' must be followed by a variable name"),
            ("R1: C(?x) -> D(?x) .\nR2: C(?x) -> D(?x) .\nR2: # c\n%", "line 3: unexpected character '%'"),
        ],
    )
    def test_error_message_and_line(self, micro, text, message):
        _, catalog = micro
        with pytest.raises(RuleError) as err:
            parse_rules(text, catalog)
        assert str(err.value) == message

    @pytest.mark.parametrize("bad", ["Nope(?x)", "D(?x) @"])
    def test_error_reports_line_of_statement(self, micro, bad):
        _, catalog = micro
        with pytest.raises(RuleError, match="^line 2:"):
            parse_rules(f"R1: C(?x) -> D(?x) .\nR2: C(?x),\n  E(?x)\n  -> {bad} .", catalog)


class TestSafety:
    @pytest.mark.parametrize(
        "text,needle",
        [
            ("R: C(?x) -> D(?y) .", "head variable ?y is not bound"),
            ("R: not C(?x) -> D(?x) .", "head variable ?x is not bound"),
            ("R: C(?x) -> D(_) .", "'_' cannot appear in a rule head"),
            ("R: C(?x), not p(?x, ?y) -> D(?x) .", "appears only in a negated atom"),
        ],
        ids=["unbound-head", "only-negative-binding", "wildcard-head", "negated-only-var"],
    )
    def test_unsafe_rules_rejected(self, micro, text, needle):
        _, catalog = micro
        with pytest.raises(RuleError, match="line 1"):
            try:
                parse_rules(text, catalog)
            except RuleError as err:
                assert needle in str(err)
                raise

    def test_wildcard_makes_unbound_negation_safe(self, micro):
        _, catalog = micro
        (rule,) = parse_rules("R: C(?x), not p(?x, _) -> D(?x) .", catalog)
        assert rule.negatives == (TriplePattern("x", iri(EX + "p"), None),)


class TestStratification:
    def test_negation_raises_stratum(self, micro):
        _, catalog = micro
        rules = parse_rules(
            "A0: C(?x) -> D(?x) .\nA1: C(?x), not D(?x) -> F(?x) .", catalog
        )
        assert [r.stratum for r in rules] == [0, 1]

    def test_positive_dependency_shares_stratum(self, micro):
        _, catalog = micro
        rules = parse_rules("A0: C(?x) -> D(?x) .\nA1: D(?x) -> F(?x) .", catalog)
        assert [r.stratum for r in rules] == [0, 0]

    def test_negation_over_edb_is_free(self, micro):
        _, catalog = micro
        (rule,) = parse_rules("R: C(?x), not E(?x) -> D(?x) .", catalog)
        assert rule.stratum == 0

    def test_negation_cycle_rejected(self, micro):
        _, catalog = micro
        with pytest.raises(RuleError, match="not stratifiable"):
            parse_rules(
                "A0: C(?x), not D(?x) -> F(?x) .\nA1: C(?x), not F(?x) -> D(?x) .",
                catalog,
            )

    def test_self_negation_rejected(self, micro):
        _, catalog = micro
        with pytest.raises(RuleError, match="not stratifiable"):
            parse_rules("R: C(?x), not D(?x) -> D(?x) .", catalog)

    @pytest.mark.parametrize("head", ["D(?x)", f"<{RDF_TYPE}>(?x, D)"])
    @pytest.mark.parametrize("negated", ["D(?x)", f"<{RDF_TYPE}>(?x, D)"])
    def test_negation_reads_either_spelling(self, micro, head, negated):
        graph, catalog = micro
        rules = parse_rules(f"R1: C(?x) -> {head} .\nR2: E(?x), not {negated} -> F(?x) .", catalog)
        assert [r.stratum for r in rules] == [0, 1]
        # b is a C and an E: R1 makes it a D first, so R2 never fires.
        for ordered in (rules, rules[::-1]):
            assert typed(evaluate_rules(graph, ordered), "F") == set()

    def test_wildcards_and_variables_overlap_every_constant(self, micro):
        _, catalog = micro
        rules = parse_rules(
            "A0: C(?x) -> p(?x, c) .\nA1: C(?x), not p(?x, _) -> D(?x) .\n"
            f"A2: <{RDF_TYPE}>(?x, ?c) -> F(?x) .",
            catalog,
        )
        assert [r.stratum for r in rules] == [0, 1, 1]
        with pytest.raises(RuleError, match="not stratifiable"):
            parse_rules(f"R: C(?x), not <{RDF_TYPE}>(?x, _) -> D(?x) .", catalog)

    def test_assign_strata_matches_parser(self, micro):
        _, catalog = micro
        parsed = parse_rules(
            "A0: C(?x) -> D(?x) .\nA1: C(?x), not D(?x) -> F(?x) .", catalog
        )
        rebuilt = assign_strata([Rule(r.id, r.positives, r.negatives, r.head) for r in parsed])
        assert [r.stratum for r in rebuilt] == [r.stratum for r in parsed]


class TestEvaluation:
    def test_negation_as_failure(self, micro):
        graph, catalog = micro
        out = evaluate_rules(graph, parse_rules("N: C(?x), not E(?x) -> D(?x) .", catalog))
        assert typed(out, "D") == {EX + "a", EX + "d"}

    def test_negated_atom_written_first(self, micro):
        graph, catalog = micro
        out = evaluate_rules(graph, parse_rules("N: not E(?x), C(?x) -> D(?x) .", catalog))
        assert typed(out, "D") == {EX + "a", EX + "d"}

    def test_wildcard_is_existential(self, micro):
        graph, catalog = micro
        out = evaluate_rules(graph, parse_rules("W: C(?x), not p(?x, _) -> D(?x) .", catalog))
        # a and b have outgoing p edges; d is the only C without one.
        assert typed(out, "D") == {EX + "d"}
        out2 = evaluate_rules(graph, parse_rules("P: p(_, ?y) -> D(?y) .", catalog))
        assert typed(out2, "D") == {EX + "b", EX + "c"}

    def test_constants_filter_bindings(self, micro):
        graph, catalog = micro
        out = evaluate_rules(graph, parse_rules("K: p(?x, c) -> D(?x) .", catalog))
        assert typed(out, "D") == {EX + "a", EX + "b"}

    def test_stratified_negation_sees_lower_fixpoint(self, micro):
        graph, catalog = micro
        rules = parse_rules(
            "A0: C(?x) -> D(?x) .\nA1: C(?x), not D(?x) -> F(?x) .", catalog
        )
        out = evaluate_rules(graph, rules)
        # Every C becomes D in stratum 0, so the negation in stratum 1 never fires.
        assert typed(out, "F") == set()

    def test_chaining_within_stratum(self, micro):
        _, catalog = micro
        # Without the asserted a-q-c edge, D(a) can only come from B0's
        # derived q, which B1 reads in the same stratum.
        graph = parse_turtle(MICRO.replace(" ex:a ex:q ex:c .", ""))
        q_edge = Triple(iri(EX + "a"), iri(EX + "q"), iri(EX + "c"))
        assert q_edge not in graph
        rules = parse_rules(
            "B0: p(?x, ?y), p(?y, ?z) -> q(?x, ?z) .\nB1: q(?x, ?y) -> D(?x) .",
            catalog,
        )
        assert {rule.stratum for rule in rules} == {0}
        out = evaluate_rules(graph, rules)
        assert q_edge in out
        assert EX + "a" in typed(out, "D")

    def test_binary_head(self, micro):
        graph, catalog = micro
        out = evaluate_rules(graph, parse_rules("B: p(?x, ?y) -> q(?y, ?x) .", catalog))
        assert Triple(iri(EX + "b"), iri(EX + "q"), iri(EX + "a")) in out

    def test_input_not_mutated_and_output_superset(self, micro):
        graph, catalog = micro
        before = list(graph)
        rules = parse_rules("N: C(?x) -> D(?x) .", catalog)
        out = evaluate_rules(graph, rules)
        assert len(out) > len(graph)
        evaluate_with_provenance(graph, rules)
        classify_actions(graph, rules)
        assert list(graph) == before
        assert all(t in out for t in graph)

    def test_no_rules_is_identity(self, micro):
        graph, _ = micro
        assert evaluate_rules(graph, []) == graph

    def test_evaluation_reaches_fixpoint(self, micro):
        graph, catalog = micro
        rules = parse_rules("B0: p(?x, ?y), p(?y, ?z) -> p(?x, ?z) .", catalog)
        out = evaluate_rules(graph, rules)
        assert evaluate_rules(out, rules) == out

    def test_a_fact_starts_no_join_from_a_pattern_it_cannot_match(self, micro, monkeypatch):
        # In stratum 1, S1 derives D(b) and D(c).  Each has the predicate of
        # S1's own C(?x) pattern but not its class, so it must start no join
        # of S1's body; it does start one of S2's, whose D(?x) it matches.
        graph, catalog = micro
        rules = parse_rules(
            "S0: q(?x, ?y) -> E(?y) .\n"
            "S1: C(?x), p(?x, ?y), not E(?x) -> D(?y) .\n"
            "S2: D(?x) -> F(?x) .",
            catalog,
        )
        assert [rule.stratum for rule in rules] == [0, 1, 1]
        solutions = rules_module.solutions
        started = []  # (body, start binding) of each join a new fact starts

        def counting(patterns, graph, start=None):
            if start is not None:
                started.append((patterns, {name: term.value for name, term in start.items()}))
            return solutions(patterns, graph, start)

        monkeypatch.setattr(rules_module, "solutions", counting)
        out = evaluate_rules(graph, rules)
        assert typed(out, "D") == {EX + "b", EX + "c"} and typed(out, "F") == {EX + "b", EX + "c"}
        body = {rule.id: rule.positives for rule in rules}
        assert [start for patterns, start in started if patterns == body["S1"]] == []
        assert sorted(start["x"] for patterns, start in started if patterns == body["S2"]) == [EX + "b", EX + "c"]


class TestProvenance:
    def test_firings_record_sorted_bindings(self, micro):
        graph, catalog = micro
        _, firings = evaluate_with_provenance(
            graph, parse_rules("B0: p(?x, ?y), q(?x, ?z) -> D(?x) .", catalog)
        )
        assert all([name for name, _ in f.bindings] == ["x", "y", "z"] for f in firings)

    def test_one_firing_per_distinct_binding(self, micro):
        graph, catalog = micro
        out, firings = evaluate_with_provenance(
            graph, parse_rules("M: p(?x, ?y) -> D(?x) .", catalog)
        )
        # a has two outgoing p edges, b one: three bindings, two derived triples.
        assert len(firings) == 3
        assert len({f.derived for f in firings}) == 2
        assert typed(out, "D") == {EX + "a", EX + "b"}

    def test_literal_head_subject_derives_nothing(self):
        graph = parse_turtle(MICRO + 'ex:a ex:p "lit" .\n')
        catalog = NameCatalog.from_graph(graph, prefixes=PrefixMap({"ex": EX}))
        out, firings = evaluate_with_provenance(graph, parse_rules("R: p(?x, ?y) -> D(?y) .", catalog))
        assert typed(out, "D") == {EX + "b", EX + "c"}
        assert sorted(dict(f.bindings)["y"].value for f in firings) == [EX + "b", EX + "c", EX + "c"]

    def test_firings_replay_into_derived_triples(self, micro):
        graph, catalog = micro
        rules = parse_rules(
            "B0: p(?x, ?y) -> q(?y, ?x) .\nB1: q(?x, ?y), not E(?x) -> D(?x) .",
            catalog,
        )
        out, firings = evaluate_with_provenance(graph, rules)
        by_id = {rule.id: rule for rule in rules}
        for firing in firings:
            assert firing.derived in out
            assert firing.derived == instantiate(by_id[firing.rule_id].head, dict(firing.bindings))


class TestRandomEquivalence:
    def test_engine_matches_grounding_oracle(self):
        # The seeds and rule orders of the firing sweep below: only these
        # make a rule match a head derived after its own seed join.
        for seed in range(120):
            rng = random.Random(1000 + seed)
            graph = random_graph(rng)
            materialized = materialize(graph, extract_schema(graph))
            rules = random_rules(rng, *graph_vocabulary(graph))
            expected = ground_fixpoint(materialized, rules)
            for ordered in (rules, rules[::-1]):
                assert evaluate_rules(materialized, ordered) == expected, seed

    def test_firings_match_grounding_oracle(self):
        # Many seeds: only about one in twelve yields a rule that matches a
        # head derived after the rule's own seed join.
        for seed in range(120):
            rng = random.Random(1000 + seed)
            graph = random_graph(rng)
            materialized = materialize(graph, extract_schema(graph))
            rules = random_rules(rng, *graph_vocabulary(graph))
            expected = ground_firings(materialized, rules)
            heads = {rule.id: rule.head for rule in rules}
            # In either order, a rule's matches on a head its stratum derives
            # come from the join that head starts, after the rule's seed join.
            for ordered in (rules, rules[::-1]):
                _, firings = evaluate_with_provenance(materialized, ordered)
                keys = [(f.rule_id, f.bindings) for f in firings]
                assert len(keys) == len(set(keys)), f"seed {seed}: a firing is repeated"
                assert set(keys) == expected, seed
                for firing in firings:
                    assert firing.derived == instantiate(heads[firing.rule_id], dict(firing.bindings)), seed


class TestRandomStratification:
    """Strata are checked against pattern overlap directly, not against the
    strata the engine computes, on rule sets that write class atoms both
    as ``H(?x)`` and as ``rdf:type(?x, H)``."""

    @staticmethod
    def cases():
        for seed in range(150):
            rng = random.Random(5000 + seed)
            graph = random_graph(rng)
            classes, props, _ = graph_vocabulary(graph)
            rules = parse_rules(random_rule_text(rng, classes, props), NameCatalog.from_graph(graph))
            yield seed, graph, rules

    def test_every_overlap_respects_the_strata(self):
        for seed, _, rules in self.cases():
            assert stratification_violations(rules) == [], seed

    def test_rule_order_does_not_change_the_result(self):
        for seed, graph, rules in self.cases():
            materialized = materialize(graph, extract_schema(graph))
            assert evaluate_rules(materialized, rules) == evaluate_rules(materialized, rules[::-1]), seed

    def test_firings_match_grounding_oracle(self):
        # Fewer seeds than above: a rule binding ?x, ?y and ?c makes the
        # oracle enumerate the universe cubed.  Some heads type a literal ?y.
        for seed, graph, rules in itertools.islice(self.cases(), 50):
            materialized = materialize(graph, extract_schema(graph))
            _, firings = evaluate_with_provenance(materialized, rules)
            assert {(f.rule_id, f.bindings) for f in firings} == ground_firings(materialized, rules), seed


class TestVerdicts:
    def test_bundled_scenario_verdict(self):
        assets = load_assets()
        graph = materialize(assets.combined(), assets.schema)
        verdicts = classify_actions(graph, assets.rules)
        assert len(verdicts) == 1
        verdict = verdicts[0]
        assert verdict.action.endswith("PrescribeOpioidPainkiller")
        assert verdict.verdict_class == MORALLY_WRONG_ACTION
        assert verdict.fired_rules == ("R1",)
        principls = {dict(f.bindings)["p"].value for f in verdict.firings}
        assert {p.split("#")[-1] for p in principls} == {"Nonmaleficence", "Responsibility"}

    def test_conflicting_rules_raise(self):
        assets = load_assets()
        graph = materialize(assets.combined(), assets.schema)
        conflicting = parse_rules(
            "X1: upholdsEthicalPrinciple(?a, ?p) -> MorallyRightAction(?a) .\n"
            "X2: violatesEthicalPrinciple(?a, ?p) -> MorallyWrongAction(?a) .\n"
        )
        with pytest.raises(VerdictConflictError) as err:
            classify_actions(graph, conflicting)
        assert err.value.action.endswith("PrescribeOpioidPainkiller")
        assert len(err.value.classes) == 2

    def test_unmatched_actions_omitted(self):
        assets = load_assets()
        graph = materialize(assets.combined(), assets.schema)
        assert classify_actions(graph, []) == []

    def test_shipped_rules_shape(self):
        rules = load_assets().rules
        assert [rule.id for rule in rules] == ["R1", "R2", "R3"]
        assert [rule.stratum for rule in rules] == [0, 1, 1]


class TestScaling:
    def test_classify_builds_terms_near_linearly(self, monkeypatch):
        # Counts work rather than time: Term constructor calls while
        # classifying k and 4k scenario copies, those that return an
        # existing term included.  A per-action scan of every firing calls
        # the constructor quadratically often in k.
        assets = load_assets()
        original = Term.__new__
        built = [0]

        def counting(cls, *args, **kwargs):
            built[0] += 1
            return original(cls, *args, **kwargs)

        def terms_built(copies):
            graph = renamed_scenario_copies(assets.taxonomy, assets.scenario, copies)
            materialized = materialize(graph, extract_schema(graph))
            built[0] = 0
            with monkeypatch.context() as patch:
                patch.setattr(Term, "__new__", counting)
                verdicts = classify_actions(materialized, assets.rules)
            assert len(verdicts) == copies
            return built[0]

        small, large = terms_built(50), terms_built(200)
        assert 0 < small and large <= 5 * small, (small, large)
