"""Turtle parsing, named unsupported-feature errors, and round-trip stability."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from applekit.assets import SCENARIO_FILE, TAXONOMY_FILE, asset_dir
from applekit.graph import Graph
from applekit.terms import (
    RDF_TYPE,
    XSD_NS,
    XSD_STRING,
    PrefixMap,
    StructuralError,
    Triple,
    blank,
    iri,
    literal,
)
from applekit import turtle
from applekit.turtle import (
    ParseDiagnostic,
    TurtleParseError,
    _lex,
    _Parser,
    canonical_ntriples,
    parse_document,
    parse_turtle,
    serialize_turtle,
)

from _gen import add_literals, random_graph
from _oracles import flat_ntriples, flat_sorted, flat_turtle, parsed, reference_parse
from test_graph import triples_built

EX = "http://example.org/"
HEADER = f"@prefix ex: <{EX}> .\n"


def parse(text):
    return parse_turtle(HEADER + text)


def objects(graph, s=None, p=None):
    """The objects of the triples matching ``(s, p, -)``, in match order."""
    return [triple.o for triple in graph.match(s, p)]


class TestBasics:
    def test_simple_statement(self):
        g = parse("ex:s ex:p ex:o .")
        assert list(g) == [Triple(iri(EX + "s"), iri(EX + "p"), iri(EX + "o"))]

    def test_a_is_rdf_type(self):
        g = parse("ex:s a ex:C .")
        assert g.match(None, iri(RDF_TYPE), None)[0].o == iri(EX + "C")

    def test_semicolon_and_comma_lists(self):
        g = parse("ex:s ex:p ex:o1, ex:o2 ; ex:q ex:o3 .")
        assert len(g) == 3
        assert objects(g, iri(EX + "s"), iri(EX + "p")) == [iri(EX + "o1"), iri(EX + "o2")]

    def test_trailing_semicolon_tolerated(self):
        g = parse("ex:s ex:p ex:o ; .")
        assert len(g) == 1

    def test_literals(self):
        g = parse('ex:s ex:p "plain", "tagged"@en, "typed"^^<' + XSD_NS + 'date> .')
        objs = objects(g, iri(EX + "s"), iri(EX + "p"))
        assert literal("plain") in objs
        assert literal("tagged", lang="en") in objs
        assert literal("typed", datatype=XSD_NS + "date") in objs

    def test_xsd_string_normalized_to_plain(self):
        g = parse(f'ex:s ex:p "x"^^<{XSD_NS}string> .')
        assert objects(g, iri(EX + "s"), iri(EX + "p")) == [literal("x")]

    def test_string_escapes(self):
        g = parse(r'ex:s ex:p "tab\there\nand \"quote\" A" .')
        assert objects(g, iri(EX + "s"), iri(EX + "p")) == [literal('tab\there\nand "quote" A')]

    def test_labeled_blank_nodes(self):
        g = parse("_:a ex:p _:b .")
        assert list(g) == [Triple(blank("a"), iri(EX + "p"), blank("b"))]

    @pytest.mark.parametrize(
        "text,column,first",
        [("_:-x ex:p ex:o .", 1, "-"), ("ex:s ex:p _:.y .", 11, "."), ("ex:s ex:p ex:o, _:-", 17, "-")],
    )
    def test_blank_label_cannot_start_with_a_dash_or_a_dot(self, text, column, first):
        with pytest.raises(TurtleParseError) as err:
            parse(text)
        assert err.value.diagnostic == ParseDiagnostic(2, column, f"blank node label cannot start with {first!r}")

    def test_comments_ignored_but_not_inside_iris(self):
        g = parse("# leading comment\nex:s ex:p <http://x.test/page#frag> . # trailing")
        assert objects(g, iri(EX + "s"), iri(EX + "p")) == [iri("http://x.test/page#frag")]

    def test_pname_trailing_dot_ends_statement(self):
        g = parse("ex:s ex:p ex:o.")
        assert len(g) == 1
        assert iri(EX + "o") in objects(g)

    def test_langtag_followed_by_statement_dot(self):
        g = parse('ex:s ex:p "x"@en.')
        assert objects(g) == [literal("x", lang="en")]

    def test_base_resolves_relative_iris(self):
        doc = parse_document("@base <http://b.test/dir/> .\n<s> <p> <../o> .")
        assert list(doc.graph) == [
            Triple(iri("http://b.test/dir/s"), iri("http://b.test/dir/p"), iri("http://b.test/o"))
        ]
        assert doc.base == "http://b.test/dir/"

    def test_relative_iri_without_base_fails(self):
        with pytest.raises(TurtleParseError, match="@base"):
            parse_turtle("<s> <http://x.test/p> <http://x.test/o> .")

    def test_prefix_rebinding_uses_latest(self):
        g = parse_turtle(
            "@prefix ex: <http://one.test/> .\n"
            "ex:s ex:p ex:o .\n"
            "@prefix ex: <http://two.test/> .\n"
            "ex:s ex:p ex:o .\n"
        )
        assert len(g) == 2
        assert iri("http://two.test/s") in {t.s for t in g}

    def test_rebinding_applies_in_every_position(self):
        # The parser reuses one Term per IRI; a rebound prefix or base must
        # still give new IRIs in subject, predicate and object alike.
        g = parse_turtle(
            "@prefix ex: <http://one.test/> .\n"
            "@base <http://one.test/> .\n"
            "ex:s ex:p ex:o . <s> <p> <o2> .\n"
            "@prefix ex: <http://two.test/> .\n"
            "@base <http://two.test/> .\n"
            "ex:s ex:p ex:o . <s> <p> <o2> .\n"
        )
        assert set(g) == {
            Triple(iri(ns + "s"), iri(ns + "p"), iri(ns + o))
            for ns in ("http://one.test/", "http://two.test/")
            for o in ("o", "o2")
        }

    def test_ntriples_input_accepted(self):
        g = parse_turtle(f'<{EX}s> <{EX}p> "v"@en .\n<{EX}s> <{EX}q> <{EX}o> .\n')
        assert len(g) == 2

    def test_empty_and_comment_only_documents(self):
        assert len(parse_turtle("")) == 0
        assert len(parse_turtle("# nothing here\n\n")) == 0


XSD_HEADER = HEADER + f"@prefix xsd: <{XSD_NS}> .\n"

# Texts where the steps and the token path meet: each must parse as the
# token-list parser parses it, to the same graph or the same diagnostic.
STEP_EDGES = {
    "comment-then-directive": HEADER + "# ex:a ex:b ex:c .\n@prefix ex2: <http://two.test/> .\nex2:s ex2:p ex2:o .\n",
    "comment-then-error": HEADER + "# ex:a ex:b ex:c .\nex:s ex:p 42 .\n",
    "comment-then-end": HEADER + "ex:s ex:p ex:o . # ex:a ex:b ex:c .",
    "comments-inside-a-statement": HEADER + "ex:s # c\n ex:p # c\n ex:o # c\n ; # c\n ex:q ex:r # c\n , ex:t # c\n .",
    "semi-dot": HEADER + "ex:s ex:p ex:o ; .\nex:t ex:p ex:o .",
    "semi-semi-dot": HEADER + "ex:s ex:p ex:o ;; .\nex:t ex:p ex:o .",
    "semi-semi-verb": HEADER + "ex:s ex:p ex:o ;; ex:q ex:r .",
    "comma-then-semi-dot": HEADER + "ex:s ex:p ex:o, ex:o2 ; .",
    "spaced-langtag": HEADER + 'ex:s ex:p "x" @en, "y"\n@en-GB .',
    "spaced-datatype": XSD_HEADER + 'ex:s ex:p "x" ^^ xsd:date, "y"^^ <http://x.test/t> .',
    "directive-word-as-tag": HEADER + 'ex:s ex:p "x" @base .',
    "a-prefix-verb": HEADER + "@prefix a: <http://a.test/> .\nex:s a:b ex:o ; a ex:C ; a: ex:o .",
    "a-then-iri": HEADER + "ex:s a<http://x.test/C>.",
    "prefix-rebound": HEADER + "ex:s ex:p ex:o .\n@prefix ex: <http://two.test/> .\nex:s ex:p ex:o .",
    "base-rebound": "@base <http://one.test/> .\n<s> <p> <o> .\n@base <http://two.test/> .\n<s> <p> <o> .",
    "name-with-dots-then-junk": HEADER + "ex:s ex:p ex:o.c ex:z .",
    "grammar-error-before-lex-error": HEADER + "ex:s ex:p ex:o ex:q .\nex:t ex:p 42 .",
    "escape-then-steps": HEADER + 'ex:s ex:p "a\\nb" , ex:o ; ex:q ex:r , ex:t ; a ex:C .',
    "escape-mid-statement": HEADER + 'ex:s ex:p ex:o , "a\\"b" , ex:o2 ; ex:q "c" @en ; ex:u ex:v .',
    "error-after-a-token-read-triple": HEADER + 'ex:s ex:p "a\\tb" , ex:o ; ex:q ex:r ex:t .',
    # Where a statement starts: the statement step, or a subject token.
    "undeclared-subject-prefix": HEADER + "ex:s ex:p ex:o .\nno:s ex:p ex:o .",
    "relative-subject": HEADER + "<s> ex:p ex:o .",
    "undeclared-verb-after-subject": HEADER + "ex:s no:p ex:o .",
    "undeclared-object-after-subject": HEADER + "ex:s ex:p no:o .",
    "undeclared-datatype-after-subject": HEADER + 'ex:s ex:p "x"^^no:t .',
    "relative-verb-after-subject": HEADER + "ex:s <p> ex:o .",
    "blank-dash-subject": HEADER + "_:-x ex:p ex:o .",
    "blank-dot-subject": HEADER + "_:.x ex:p ex:o .",
    "empty-blank-subject": HEADER + "_: ex:p ex:o .",
    "a-as-subject": HEADER + "a ex:p ex:o .",
    "two-term-statement": HEADER + "ex:s ex:p .",
    "comma-before-object": HEADER + "ex:s ex:p , ex:o .",
    "comment-between-subject-and-verb": HEADER + "ex:s # c\n ex:p ex:o .\nex:t ex:p ex:o , ex:u .",
    "escaped-first-object": HEADER + 'ex:s ex:p "a\\"b" ; ex:q ex:r .',
    "spaced-tag-first-object": HEADER + 'ex:s ex:p "x" @en , ex:o .\nex:t ex:p "y" ^^ ex:d ; ex:q ex:r .',
    "prefix-rebound-before-use": HEADER + "ex:s ex:p ex:o .\n@prefix ex: <http://two.test/> .ex:s ex:p ex:o.",
    "blank-subjects": HEADER + "_:b ex:p _:c .\n_:c ex:p _:b ; ex:q ex:o , _:b .",
    # Subjects read from tokens, where the statement step cannot start.
    "base-subject-then-comment": '@base <http://x.test/> .\n<s> # c\n <p> <o> .',
    "subject-at-the-end": HEADER + "ex:s ex:p ex:o .\nex:s",
    "numeric-verb-after-subject": HEADER + "ex:s 42 ex:o .",
    "blank-subject-then-comment": HEADER + "_:b # c\n ex:p ex:o .",
    "ntriples-forms": '<http://x.test/s> <http://x.test/p> "v"@en-GB .\n_:b0 <http://x.test/p> "1"^^<http://x.test/t> .',
}


@pytest.mark.parametrize("text", STEP_EDGES.values(), ids=STEP_EDGES.keys())
def test_step_edges_parse_as_the_token_list_parser(text):
    assert parsed(text) == reference_parse(text)


class TestStepEdges:
    def test_commented_statement_is_skipped(self):
        g = parse_turtle(STEP_EDGES["comment-then-directive"])
        assert list(g) == [Triple(iri("http://two.test/s"), iri("http://two.test/p"), iri("http://two.test/o"))]

    def test_comments_inside_a_statement(self):
        g = parse_turtle(STEP_EDGES["comments-inside-a-statement"])
        assert {(t.p.value, t.o.value) for t in g} == {(EX + "p", EX + "o"), (EX + "q", EX + "r"), (EX + "q", EX + "t")}

    def test_lexical_error_wins_over_an_earlier_grammar_error(self):
        with pytest.raises(TurtleParseError, match="bare numeric") as err:
            parse_turtle(STEP_EDGES["grammar-error-before-lex-error"])
        assert (err.value.line, err.value.column) == (3, 11)

    def test_spaced_tags_and_datatypes(self):
        g = parse_turtle(STEP_EDGES["spaced-langtag"])
        assert objects(g) == [literal("x", lang="en"), literal("y", lang="en-GB")]
        g = parse_turtle(STEP_EDGES["spaced-datatype"])
        assert objects(g) == [literal("x", datatype=XSD_NS + "date"), literal("y", datatype="http://x.test/t")]

    def test_a_prefix_is_not_the_a_keyword(self):
        g = parse_turtle(STEP_EDGES["a-prefix-verb"])
        assert {t.p.value for t in g} == {"http://a.test/b", "http://a.test/", RDF_TYPE}

    @pytest.mark.parametrize(
        "text", [STEP_EDGES["semi-semi-verb"], HEADER + "ex:s ex:p ex:o ; ; ex:q ex:r ."], ids=[";;", "; ;"]
    )
    def test_a_semicolon_run_goes_on_to_a_verb(self, text):
        g = parse_turtle(text)
        assert {(t.p.value, t.o.value) for t in g} == {(EX + "p", EX + "o"), (EX + "q", EX + "r")}

    def test_error_after_a_token_read_triple(self):
        with pytest.raises(TurtleParseError) as err:
            parse_turtle(STEP_EDGES["error-after-a-token-read-triple"])
        assert err.value.diagnostic == ParseDiagnostic(2, 37, "expected '.' to end the statement, found 'ex:t'")

    def test_only_the_triple_no_step_reads_is_read_from_tokens(self, monkeypatch):
        read = []
        parse_term = _Parser._parse_term

        def counting(parser, kinds, what):
            term = parse_term(parser, kinds, what)
            read.append(term)
            return term

        monkeypatch.setattr(_Parser, "_parse_term", counting)
        g = parse('ex:s ex:p "a\\nb" ; ex:q ex:r ; ex:u ex:v .')
        # The statement step cannot start this statement, so its subject is read from tokens too.
        assert len(g) == 3 and read == [iri(EX + "s"), iri(EX + "p"), literal("a\nb")]

    def test_an_ntriples_document_is_read_by_the_statement_step_alone(self, monkeypatch):
        class Counting:
            def __init__(self, pattern):
                self.pattern, self.matched = pattern, 0

            def match(self, text, pos):
                found = self.pattern.match(text, pos)
                self.matched += found is not None
                return found

        step = Counting(turtle._SUBJECT_VERB_OBJECT)
        lexed = []
        lex = turtle._lex

        def counting_lex(text, pos):
            token, end = lex(text, pos)
            lexed.append(token[0])
            return token, end

        monkeypatch.setattr(turtle, "_SUBJECT_VERB_OBJECT", step)
        monkeypatch.setattr(turtle, "_lex", counting_lex)
        rng = random.Random(5)
        graph = add_literals(rng, random_graph(rng, max_triples=200))
        graph.insert(Triple(blank("b1"), iri(EX + "p"), blank("b2")))
        graph.insert(Triple(blank("b2"), iri(RDF_TYPE), iri(EX + "C")))
        text = canonical_ntriples(graph)
        assert parse_turtle(text) == graph
        assert step.matched == text.count("\n") == len(graph)
        assert lexed == ["eof"]

    def test_base_rebound_gives_new_iris(self):
        g = parse_turtle(STEP_EDGES["base-rebound"])
        assert {t.s.value for t in g} == {"http://one.test/s", "http://two.test/s"}

    @pytest.mark.parametrize("base", ["urn:ex:", "tag:example.org,2024:"])
    def test_relative_iri_against_an_unresolvable_base_names_the_base(self, base):
        with pytest.raises(TurtleParseError) as err:
            parse_turtle(f"@base <{base}> .\n<s> <p> <o> .")
        assert err.value.diagnostic == ParseDiagnostic(2, 1, f"relative IRI <s> cannot be resolved against base <{base}>")

    @pytest.mark.parametrize("text", ["@base <http://[> .\n<s> <p> <o> .", "@base <http://b/> .\n<http://[s> <p> <o> ."])
    def test_a_host_left_open_is_a_parse_error(self, text):
        # urljoin raises ValueError on a '[' host left open, in the base or the IRI.
        with pytest.raises(TurtleParseError) as err:
            parse_turtle(text)
        assert (err.value.line, err.value.column) == (2, 1)


UNSUPPORTED = [
    ("ex:s ex:p [ ex:q ex:o ] .", "anonymous blank nodes"),
    ("ex:s ex:p ( ex:a ex:b ) .", "collections"),
    ("<< ex:s ex:p ex:o >> ex:q ex:r .", "quoted triples"),
    ('ex:s ex:p """long""" .', "triple-quoted"),
    ("ex:s ex:p 'single' .", "single-quoted"),
    ("ex:s ex:p 42 .", "bare numeric"),
    ("ex:s ex:p 3.14 .", "bare numeric"),
    ("ex:s ex:p true .", "bare boolean"),
    ("ex:s ex:p false .", "bare boolean"),
]


class TestErrors:
    @pytest.mark.parametrize("body,needle", UNSUPPORTED, ids=[n for _, n in UNSUPPORTED])
    def test_unsupported_features_named(self, body, needle):
        with pytest.raises(TurtleParseError) as err:
            parse(body)
        assert needle in str(err.value)
        assert "not supported" in str(err.value)

    def test_undeclared_prefix(self):
        with pytest.raises(TurtleParseError, match="undeclared prefix 'nope:'"):
            parse("nope:s ex:p ex:o .")

    def test_unknown_directive(self):
        # A word that cannot be a language tag is named as a bad directive...
        with pytest.raises(TurtleParseError, match="unknown directive or language tag '@2x'"):
            parse_turtle("@2x <http://x.test/> .")
        # ...while a tag-shaped one fails at the grammar level instead.
        with pytest.raises(TurtleParseError, match="expected a subject.*'import'"):
            parse_turtle("@import <http://x.test/> .")

    def test_invalid_prefix_label_has_a_position(self):
        # The lexer takes '_x' and 'ex.' as prefix labels; Turtle's PN_PREFIX
        # does not, and 'ex.:' written back out would fail other readers.
        cases = (("_x", "@prefix _x: <http://a/> ."), ("ex.", "@prefix ex.: <http://a/> .\nex.:s ex.:p ex.:o ."))
        for label, text in cases:
            with pytest.raises(TurtleParseError, match=f"invalid prefix label: '{label}'") as err:
                parse_turtle(text)
            assert (err.value.line, err.value.column) == (1, 9)

    def test_missing_dot(self):
        with pytest.raises(TurtleParseError, match="'\\.'"):
            parse("ex:s ex:p ex:o")

    def test_literal_subject_rejected_at_parse(self):
        with pytest.raises(TurtleParseError, match="subject"):
            parse('"lit" ex:p ex:o .')

    def test_literal_predicate_rejected_at_parse(self):
        with pytest.raises(TurtleParseError, match="predicate"):
            parse('ex:s "lit" ex:o .')

    def test_stray_caret(self):
        with pytest.raises(TurtleParseError, match="\\^"):
            parse('ex:s ex:p "v"^<http://x.test/t> .')

    def test_unterminated_string(self):
        with pytest.raises(TurtleParseError):
            parse('ex:s ex:p "never ends .')

    def test_unterminated_iri(self):
        with pytest.raises(TurtleParseError):
            parse("ex:s ex:p <http://x.test/open .")

    def test_bad_unicode_escape(self):
        with pytest.raises(TurtleParseError, match="hex digits"):
            parse(r'ex:s ex:p "\u00GG" .')

    @pytest.mark.parametrize("escape", [r"\UFFFFFFFF", r"\U00110000", r"\uD800", r"\uDFFF"])
    def test_escape_outside_unicode_scalar_values(self, escape):
        # Reported where the hex-digit error is: just after the escape letter.
        with pytest.raises(TurtleParseError, match=f"U\\+{escape[2:].lstrip('0')} is not a Unicode scalar value") as err:
            parse(f'ex:s ex:p "ab{escape}" .')
        assert (err.value.line, err.value.column) == (2, len('ex:s ex:p "ab\\u') + 1)

    def test_escapes_at_the_unicode_edges(self):
        g = parse(r'ex:s ex:p "\U0010FFFF\uD7FF\uE000" .')
        assert next(iter(g)).o == literal("\U0010FFFF\uD7FF\uE000")

    def test_error_positions_are_exact(self):
        with pytest.raises(TurtleParseError) as err:
            parse_turtle("@prefix ex: <http://example.org/> .\nex:s ex:p 42 .")
        assert err.value.line == 2
        assert err.value.column == 11  # the '4' of the offending literal

    @pytest.mark.parametrize(
        "tail,offset",
        [(" , 42 .", 4), ("$ .", 1), (".. .", 2)],
        ids=["after-space", "adjacent", "after-pushed-back-dots"],
    )
    def test_error_column_after_long_prefixed_name(self, tail, offset):
        # offset: 1-based position of the offending character within tail.
        name = "ex:" + "long_name-1.part" * 20
        line = "ex:s ex:p " + name + tail
        with pytest.raises(TurtleParseError) as err:
            parse_turtle(HEADER + line)
        assert (err.value.line, err.value.column) == (2, len("ex:s ex:p " + name) + offset)

    def test_diagnostic_render_format(self):
        diag = ParseDiagnostic(3, 7, "boom")
        assert diag.render("file.ttl") == "file.ttl:3:7: error: boom"
        with pytest.raises(TurtleParseError) as err:
            parse_turtle("@prefix broken")
        assert err.value.diagnostic.render().startswith("<input>:1:")


class TestSerialization:
    def test_layout_is_sorted_with_a_first(self):
        g = parse(
            "ex:zebra ex:p ex:o .\n"
            "ex:apple ex:zed ex:o2 ; a ex:C ; ex:alpha ex:o1 .\n"
        )
        text = serialize_turtle(g, PrefixMap({"ex": EX}))
        assert text == (
            f"@prefix ex: <{EX}> .\n"
            "\n"
            "ex:apple a ex:C ;\n"
            "    ex:alpha ex:o1 ;\n"
            "    ex:zed ex:o2 .\n"
            "\n"
            "ex:zebra ex:p ex:o .\n"
        )

    def test_all_prefixes_emitted_sorted(self):
        text = serialize_turtle(Graph(), PrefixMap({"b": EX + "b/", "a": EX + "a/"}))
        assert text.splitlines() == [
            f"@prefix a: <{EX}a/> .",
            f"@prefix b: <{EX}b/> .",
        ]

    def test_uncompressible_iris_use_angle_brackets(self):
        g = Graph([Triple(iri("http://nowhere.test/s"), iri(EX + "p"), literal("v", datatype=EX + "dt"))])
        text = serialize_turtle(g, PrefixMap({"ex": EX}))
        assert "<http://nowhere.test/s> ex:p \"v\"^^ex:dt ." in text
        bare = serialize_turtle(g, PrefixMap())
        assert '"v"^^<' + EX + "dt>" in bare

    def test_serializer_output_is_stable(self):
        g1 = parse("ex:s ex:p ex:o1, ex:o2 .\nex:t a ex:C .")
        g2 = Graph(list(reversed(list(g1))))
        pm = PrefixMap({"ex": EX})
        assert serialize_turtle(g1, pm) == serialize_turtle(g2, pm)

    def test_canonical_ntriples_sorted_and_reparsable(self):
        g = parse('ex:s ex:p "v"@en .\nex:a a ex:C .\n_:b ex:p ex:s .')
        nt = canonical_ntriples(g)
        lines = nt.splitlines()
        assert lines == sorted(lines) if lines[0].startswith("<") else True
        assert parse_turtle(nt) == g


def bundled_paths():
    return [asset_dir() / TAXONOMY_FILE, asset_dir() / SCENARIO_FILE]


class TestRoundTrip:
    @pytest.mark.parametrize("path", bundled_paths(), ids=lambda p: p.name)
    def test_bundled_assets_round_trip(self, path):
        doc = parse_document(path.read_text(encoding="utf-8"))
        text = serialize_turtle(doc.graph, doc.prefixes)
        again = parse_document(text)
        assert again.graph == doc.graph
        assert serialize_turtle(again.graph, again.prefixes) == text

    safe_text = st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20
    )
    local = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True)
    term = st.one_of(
        local.map(lambda s: iri(EX + s)),
        local.map(blank),
        st.builds(literal, safe_text),
        st.builds(lambda v: literal(v, lang="en"), safe_text),
        st.builds(lambda v: literal(v, datatype=XSD_NS + "date"), safe_text),
    )
    # Any label the reader takes after '_:', the ASCII part of Turtle's
    # BLANK_NODE_LABEL: '0', '_', 'a-', 'a.b', '_.-x'.
    label = st.from_regex(r"[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?", fullmatch=True)
    node = st.one_of(local.map(lambda s: iri(EX + s)), label.map(blank))

    @given(st.lists(st.builds(Triple, node, local.map(lambda s: iri(EX + s)), term), max_size=20))
    def test_random_graphs_round_trip(self, triples):
        g = Graph(triples)
        pm = PrefixMap({"ex": EX})
        text = serialize_turtle(g, pm)
        assert parse_turtle(text) == g
        # Serializing the reparsed graph reproduces the bytes exactly.
        assert serialize_turtle(parse_turtle(text), pm) == text

    # IRI tails over an alphabet holding every character Turtle's IRIREF excludes.
    wild_tail = st.text(alphabet='aZ9_.-:/#%~\u00e9\x01{}|^`\\\r<>" \n\t', max_size=4)
    wild_iri = st.one_of(local, wild_tail).map(lambda tail: EX + tail)

    @given(wild_tail)
    def test_iri_is_built_exactly_when_it_lexes_as_one_iriref(self, tail):
        value = EX + tail
        try:
            token, end = _lex(f"<{value}>", 0)
            lexes = token[0] == "iriref" and end == len(value) + 2
        except TurtleParseError:
            lexes = False
        try:
            iri(value)
            built = True
        except StructuralError:
            built = False
        assert built == lexes

    @given(st.lists(st.tuples(wild_iri, wild_iri, wild_iri, st.booleans()), max_size=12), wild_iri)
    def test_graphs_of_accepted_terms_round_trip(self, rows, namespace):
        triples = []
        for s, p, o, typed in rows:
            try:
                triples.append(Triple(iri(s), iri(p), literal("v", datatype=o) if typed else iri(o)))
            except StructuralError:
                pass  # a refused term enters no graph
        pm = PrefixMap({"ex": EX})
        try:
            pm.bind("w", namespace)
        except StructuralError:
            pass
        g = Graph(triples)
        assert parse_turtle(serialize_turtle(g, pm)) == g


class TestWritersAgainstFlatSort:
    """Iteration, canonical N-Triples and Turtle walk the index group by
    group; each must agree with one flat sort of the triples."""

    local = st.sampled_from(["a", "b", "c"])
    literal_text = st.text(alphabet='ab"\\\n\t é', max_size=6)
    subject = st.one_of(local.map(lambda s: iri(EX + s)), st.sampled_from([blank("b0"), blank("b1")]))
    predicate = st.one_of(local.map(lambda s: iri(EX + "p" + s)), st.just(iri(RDF_TYPE)))
    obj = st.one_of(
        subject,
        st.builds(literal, literal_text),
        st.builds(lambda v, tag: literal(v, lang=tag), literal_text, st.sampled_from(["en", "en-GB", "de"])),
        st.builds(
            lambda v, dt: literal(v, datatype=dt),
            literal_text,
            st.sampled_from([XSD_NS + "date", XSD_STRING, EX + "dt"]),
        ),
    )

    @given(st.lists(st.builds(Triple, subject, predicate, obj), max_size=30))
    def test_agree_with_the_flat_sort(self, triples):
        g = Graph(triples)
        pm = PrefixMap({"ex": EX})
        assert list(g) == flat_sorted(triples)
        assert canonical_ntriples(g) == flat_ntriples(triples)
        assert serialize_turtle(g, pm) == flat_turtle(triples, pm)
        assert parse_turtle(serialize_turtle(g, pm)) == g
        assert parse_turtle(canonical_ntriples(g)) == g

    def test_equal_values_order_by_kind(self):
        # Term order breaks a tie on the value by kind, a blank node or an
        # IRI before a literal, then by datatype and language tag, where a
        # missing one comes first.
        s, p = iri(EX + "s"), iri(EX + "p")
        triples = [Triple(s, p, o) for o in (
            iri("urn:x"),
            literal("urn:x"),
            blank("x"),
            literal("x"),
            literal("x", lang="de"),
            literal("x", lang="en"),
            literal("x", datatype=EX + "dt"),
            literal("x", datatype=XSD_NS + "date"),
        )]
        pm = PrefixMap({"ex": EX})
        for ordered in (triples, triples[::-1], triples[1::2] + triples[::2]):
            g = Graph(ordered)
            assert list(g) == flat_sorted(triples) == triples
            assert canonical_ntriples(g) == flat_ntriples(triples)
            assert serialize_turtle(g, pm) == flat_turtle(triples, pm)

    def test_xsd_string_literal_is_one_triple(self):
        s, p = iri(EX + "s"), iri(EX + "p")
        g = Graph([Triple(s, p, literal("x", datatype=XSD_STRING)), Triple(s, p, literal("x"))])
        assert len(g) == 1
        assert canonical_ntriples(g) == f'<{EX}s> <{EX}p> "x" .\n'
        text = serialize_turtle(g, PrefixMap({"ex": EX}))
        assert text.endswith('ex:s ex:p "x" .\n')
        assert parse_turtle(text) == g


def test_repeated_statement_builds_one_triple(monkeypatch):
    text = HEADER + "ex:s ex:p ex:o .\nex:s ex:p ex:o, ex:o .\n"
    graph, built = triples_built(monkeypatch, lambda: parse_turtle(text))
    assert len(graph) == 1 and built == 0
