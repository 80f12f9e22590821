"""Parser fuzzing: on any text each parser either succeeds or raises its own
documented error type, and that error says where the problem is.

Inputs are arbitrary text and text assembled from each language's tokens,
so that the fuzzer reaches the grammar as well as the lexer.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from applekit.query import QueryParseError, parse_class_expression, parse_select
from applekit.rules import RuleError, parse_rules
from applekit.schema import NameCatalog
from applekit.terms import PrefixMap
from applekit.turtle import TurtleParseError, parse_document, parse_turtle

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
TURTLE = SHARED + ["@prefix", "@base", "ex:", f"<{EX}>", "ex:a", "a", ";", '"x"', "^^", "xsd:string", "@en",
                   "_:b", '"', "\\", "true", "1", "[", "<<", "'"]


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
