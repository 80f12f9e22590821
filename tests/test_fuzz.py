"""Parser fuzzing: on any text each parser either succeeds or raises its own
documented error type, and that error says where the problem is.

Inputs are arbitrary text and text assembled from each language's tokens,
so that the fuzzer reaches the grammar as well as the lexer.  The Turtle
lexer is also checked against the character-walking oracle lexer, token by
token and diagnostic by diagnostic, on the fuzz corpus, the bundled assets
and small benchmark inputs.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from _oracles import CharLexer  # noqa: E402

from applekit.assets import asset_dir
from applekit.query import QueryParseError, parse_class_expression, parse_select
from applekit.rules import RuleError, parse_rules
from applekit.schema import NameCatalog
from applekit.terms import PrefixMap
from applekit.turtle import TurtleParseError, _tokenize, parse_document, parse_turtle

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
                   "ex:a.", "_:b..", "a.", "a..:x", "@en-US", '"""', "@prefix ex.:"]


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
# The Turtle lexer against the oracle


def _position(text, offset):
    before = text[:offset]
    return before.count("\n") + 1, len(before.split("\n")[-1]) + 1


def _regex_lexer(text):
    try:
        return [(kind, value, *_position(text, offset)) for kind, value, offset in _tokenize(text)]
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
               '""""', "ex:a..", "_:.", "@", "@en-", "@en_GB", "a..:x.", "# c", "<a b>", "<a", "+1", "-x", "\u00b2", "^x"]


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


@pytest.mark.parametrize("text", list(_documents()))
def test_turtle_lexer_matches_oracle_on_documents(text):
    tokens = _regex_lexer(text)
    assert isinstance(tokens, list) and tokens == _oracle_lexer(text)
