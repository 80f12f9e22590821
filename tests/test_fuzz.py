"""Parser fuzzing: on any text each parser either succeeds or raises its own
documented error type, and that error says where the problem is.

Inputs are arbitrary text and text assembled from each language's tokens,
so that the fuzzer reaches the grammar as well as the lexer.  The Turtle
lexer is also checked against the character-walking oracle lexer, token by
token and diagnostic by diagnostic, on the fuzz corpus, the bundled assets
and small benchmark inputs, and so is the lexer the query and rule
languages share, on their three corpora.  The Turtle parser is checked against the
token-list parser on the same inputs, on the writers' output for random
graphs, and on those texts cut or spliced with a fuzz token.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from _oracles import CharLexer, QueryCharLexer, parsed, reference_parse, tokenize  # noqa: E402
from test_turtle import TestWritersAgainstFlatSort as W  # noqa: E402

from applekit.assets import asset_dir
from applekit.graph import Graph
from applekit.query import LexError, QueryParseError, parse_class_expression, parse_select
from applekit.query import offsets as query_offsets
from applekit.query import tokenize as query_tokenize
from applekit.rules import RuleError, parse_rules
from applekit.schema import NameCatalog
from applekit.terms import XSD_NS, PrefixMap, Triple
from applekit.turtle import TurtleParseError, canonical_ntriples, parse_document, parse_turtle, serialize_turtle
from applekit.vocab import DEFAULT_PREFIXES

EX = "http://example.org/"
CATALOG = NameCatalog.from_graph(
    parse_turtle(
        f"@prefix ex: <{EX}> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "ex:A a owl:Class . ex:B a owl:Class . ex:p a owl:ObjectProperty .\n"
        "ex:x a ex:A . ex:y a ex:B . ex:x ex:p ex:y .\n"
    ),
    prefixes=PrefixMap({"ex": EX}),
)

# Tokens every language shares, valid or not in it.
SHARED = ["(", ")", "{", "}", ",", ".", "->", "?", "?x", "<", ">", "#", "\n", " ", "@", "%", ":", "-", "_",
          f"<{EX}A>", "<foo>", f"<{EX}a b>", "ex:A", "zz:A", "A.b", "A."]
EXPRESSION = SHARED + ["A", "B", "p", "x", "and", "some", "inverse"]
SELECT = SHARED + ["?s", "?o", "a", "p", "x", "A", "ex:p", '"lit"']
RULES = SHARED + ["R1:", "R2", "A", "B", "p", "x", "?y", "not", f"<{EX}p>"]
TURTLE = SHARED + ["@prefix", "@prefix _x:", "@base", "ex:", f"<{EX}>", "ex:a", "a", ";", '"x"', "^^", "xsd:string", "@en",
                   "_:b", '"', "\\", "true", "1", "[", "<<", "'",
                   "\\n", "\\u00e9", "\\U0001F600", "\\UFFFFFFFF", "\\uD800", '"a\\"b"', "# c\n", "\r\n", "\t",
                   "ex:a.", "_:b..", "a.", "a..:x", "@en-US", '"""', "@prefix ex.:", "ex:a.b", "_:b.c", "@en.b"]


def texts(tokens):
    words = st.lists(st.sampled_from(tokens), max_size=14)
    return st.one_of(st.text(max_size=40), words.map(" ".join), words.map("".join))


FUZZ = settings(max_examples=400, deadline=None)


@FUZZ
@given(texts(EXPRESSION))
def test_class_expression_errors_carry_an_offset(text):
    try:
        parse_class_expression(text, CATALOG)
    except QueryParseError as err:
        assert err.position is not None and 0 <= err.position <= len(text)


@FUZZ
@given(texts(SELECT))
def test_select_errors_carry_an_offset(text):
    try:
        parse_select(text, CATALOG)
    except QueryParseError as err:
        assert err.position is not None and 0 <= err.position <= len(text)


@FUZZ
@given(texts(RULES))
def test_rule_errors_carry_a_line(text):
    try:
        parse_rules(text, CATALOG)
    except RuleError as err:
        match = re.match(r"line (\d+): ", str(err))
        assert match and 1 <= int(match.group(1)) <= text.count("\n") + 1


@FUZZ
@given(texts(TURTLE))
def test_turtle_errors_carry_line_and_column(text):
    try:
        parse_document(text)
    except TurtleParseError as err:
        assert 1 <= err.line <= text.count("\n") + 1 and err.column >= 1


# ---------------------------------------------------------------------------
# The query and rule lexer against the oracle


def _query_lexer(text):
    """The tokens as ``(text, offset)`` pairs, or the error's ``(message, offset)``."""
    try:
        tokens = query_tokenize(text)
    except LexError as err:
        return str(err), err.offset
    at = query_offsets(text)
    assert at[-1] == len(text)
    return list(zip(tokens, at[:-1], strict=True))


def _query_oracle(text):
    try:
        return QueryCharLexer(text).tokens()
    except LexError as err:
        return str(err), err.offset


@FUZZ
@given(st.one_of(texts(EXPRESSION), texts(SELECT), texts(RULES)))
def test_query_lexer_matches_oracle(text):
    assert _query_lexer(text) == _query_oracle(text)


# Names that end in or hold '.' and '-', arrows, '<' and '?' with nothing
# after them, comments (one after another, last, or before a fault), a
# '#' inside an IRI, and non-ASCII text.
QUERY_LEXER_EDGES = ["->", "a.->b", "<x", "?", "# c", "A.", "a-", "a->b", "a.-b", "a..b.", "a.-", "a-.>b", "?x.y",
                     "?x?y", "?-", "?:", ":", "a:b:c", "<a>b", "<a\nb> c", "x # c\ny", "x #", "", " \t\n", "- >",
                     "\u00e9t\u00e9", "\u00b2", "x\u2003y", "%", "a %", "{x,y}", "R1:A(?x)->B(?x).", "?x .. ?y",
                     "<a#b> # c", "a#b\nc", "#c\n#d\nA", "# c\n%", "A # c\n  # d"]


@pytest.mark.parametrize("text", QUERY_LEXER_EDGES)
def test_query_lexer_matches_oracle_on_edges(text):
    assert _query_lexer(text) == _query_oracle(text)


# ---------------------------------------------------------------------------
# The Turtle lexer against the oracle


def _position(text, offset):
    before = text[:offset]
    return before.count("\n") + 1, len(before.split("\n")[-1]) + 1


def _regex_lexer(text):
    try:
        return [(kind, value, *_position(text, offset)) for kind, value, offset in tokenize(text)]
    except TurtleParseError as err:
        return err.diagnostic


def _oracle_lexer(text):
    try:
        return [(t.kind, t.value, t.line, t.column) for t in CharLexer(text).tokens()]
    except TurtleParseError as err:
        return err.diagnostic


@FUZZ
@given(texts(TURTLE))
def test_turtle_lexer_matches_oracle(text):
    assert _regex_lexer(text) == _oracle_lexer(text)


# Inputs that random text seldom reaches: escapes cut short or out of range,
# a fault after an escape, and names, tags and IRIs at the end of the text.
LEXER_EDGES = ['"\\U0001F60"', '"\\u00e"', '"\\uD800', '"\\UFFFFFFFF\n"', '"ab\\', '"\\q"', '"\\\n"', '"a\\"b',
               '""""', "ex:a..", "_:.", "@", "@en-", "@en_GB", "a..:x.", "# c", "<a b>", "<a", "+1", "-x", "\u00b2", "^x",
               "_:-x", "_:.y", "_:-", "_:_.-x"]


@pytest.mark.parametrize("text", LEXER_EDGES)
def test_turtle_lexer_matches_oracle_on_edges(text):
    assert _regex_lexer(text) == _oracle_lexer(text)


def _documents():
    """The bundled Turtle files and small benchmark inputs."""
    for path in sorted(asset_dir().glob("*.ttl")):
        yield pytest.param(path.read_text(encoding="utf-8"), id=path.name)
    spec = importlib.util.spec_from_file_location("perfbench_gen", Path(__file__).parents[1] / "perfbench" / "gen.py")
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    taxonomy = (asset_dir() / "apple-taxonomy.ttl").read_text(encoding="utf-8")
    for seed in range(3):
        yield pytest.param(gen.scaled_scenario(taxonomy, gen.scenario_copies(3, seed)), id=f"scenario-{seed}")
        yield pytest.param(gen.ontology(10, seed).text, id=f"ontology-{seed}")


DOCUMENTS = list(_documents())


@pytest.mark.parametrize("text", DOCUMENTS)
def test_turtle_lexer_matches_oracle_on_documents(text):
    tokens = _regex_lexer(text)
    assert isinstance(tokens, list) and tokens == _oracle_lexer(text)


# ---------------------------------------------------------------------------
# The Turtle parser against the token-list oracle


def _spliced(data, text):
    """``text`` with a random span replaced by a fuzz token, or unchanged."""
    if not text or not data.draw(st.booleans()):
        return text
    start = data.draw(st.integers(0, len(text) - 1))
    end = data.draw(st.integers(start, min(len(text), start + 3)))
    return text[:start] + data.draw(st.sampled_from(TURTLE + [""])) + text[end:]


@FUZZ
@given(st.sampled_from(["", f"@prefix ex: <{EX}> .\n"]), texts(TURTLE))
def test_turtle_parser_matches_oracle(header, text):
    text = header + text
    assert parsed(text) == reference_parse(text)


# Statement-shaped texts, so that most of each is taken by the steps: a
# subject, a verb, an object, now and then a second verb and object after
# ';' or a second object after ',', and an end, all from short lists, with
# names that hold dots, whitespace or a comment between them, directives
# that rebind a name between statements, and now and then a missing end or
# one fuzz token spliced in.  A first object that no step reads (a string
# with an escape, a tag set apart) is read from tokens, and the steps take
# the second.
NODES = ["ex:a", "ex:a.b", "a:b", "_:b", "_:b.c", "<a>", f"<{EX}a>"]
OBJECTS = NODES + ['"x"', '"x"@en', '"x" @en.b', '"x"@base', '"x"^^xsd:string', '"x" ^^ ex:a.b', '"a\\"b"', "a"]
GAPS = [" ", "", "\n", "# ex:a ex:a ex:a .\n"]
ENDS = [" .", ".", " ;", ";", " , ex:a .", " ; .", ";;", ""]
DIRECTIVES = [f"@base <{EX}> .\n", "@base <http://b.test/> .\n", "@prefix ex: <http://b.test/> .\n"]
VERBS = ["a"] + NODES
second = st.one_of(
    st.just(""),
    st.tuples(*(st.sampled_from(part) for part in ([" ;", ";", ";;"], GAPS, VERBS, GAPS, OBJECTS))).map("".join),
    st.tuples(*(st.sampled_from(part) for part in ([" ,", ","], GAPS, OBJECTS))).map("".join),
)
statement = st.tuples(*(st.sampled_from(part) for part in (NODES, GAPS, VERBS, GAPS, OBJECTS)), second,
                      *(st.sampled_from(part) for part in (ENDS, GAPS)))
statements = st.lists(st.tuples(st.sampled_from([""] + DIRECTIVES), statement.map("".join)), min_size=1, max_size=4).map(
    lambda parts: "".join(map("".join, parts)))


@FUZZ
@given(statements, st.data())
def test_turtle_parser_matches_oracle_on_statements(text, data):
    text = _spliced(data, f"@prefix ex: <{EX}> .\n@prefix xsd: <{XSD_NS}> .\n" + text)
    assert parsed(text) == reference_parse(text)


@FUZZ
@given(st.lists(st.builds(Triple, W.subject, W.predicate, W.obj), max_size=12), st.data())
def test_turtle_parser_matches_oracle_on_written_graphs(triples, data):
    graph = Graph(triples)
    prefixes = data.draw(st.sampled_from([PrefixMap({"ex": EX}), DEFAULT_PREFIXES, PrefixMap()]))
    for text in (serialize_turtle(graph, prefixes), canonical_ntriples(graph)):
        text = _spliced(data, text)
        assert parsed(text) == reference_parse(text)


@settings(max_examples=25, deadline=None)
@given(st.data())
@pytest.mark.parametrize("text", DOCUMENTS)
def test_turtle_parser_matches_oracle_on_documents(text, data):
    text = _spliced(data, text)
    assert parsed(text) == reference_parse(text)
