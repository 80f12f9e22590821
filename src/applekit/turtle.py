"""Turtle reader and writer for the subset of syntax the toolkit uses.

Supported: ``@prefix`` and ``@base`` directives, prefixed names, absolute
IRIs in angle brackets, the ``a`` keyword, object lists (comma), predicate
object lists (semicolon), labeled blank nodes (``_:name``), plain, typed,
and language-tagged string literals, and ``#`` comments.  N-Triples files
parse unchanged since the grammar is a superset.

Deliberately unsupported constructs fail loudly, each naming the feature:
anonymous blank nodes ``[ ]``, collections ``( )``, quoted triples ``<< >>``,
triple-quoted strings, single-quoted strings, and bare numeric or boolean
literals.

The writer is deterministic: prefixes, subjects, predicates, and objects are
all emitted in sorted order, with ``rdf:type`` rendered as ``a`` and sorted
first.  Parsing the output of :func:`serialize_turtle` yields a graph equal
to the one serialized.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from urllib.parse import urljoin

from .graph import Graph
from .terms import (
    RDF_TYPE,
    XSD_STRING,
    PrefixMap,
    Term,
    Triple,
    blank,
    escape_literal_value,
    iri,
    literal,
)
from .vocab import DEFAULT_PREFIXES


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    column: int
    message: str
    severity: str = "error"

    def render(self, source: str = "<input>") -> str:
        return f"{source}:{self.line}:{self.column}: {self.severity}: {self.message}"


class TurtleParseError(Exception):
    """Raised on the first syntax or reference error in a document."""

    def __init__(self, diagnostic: ParseDiagnostic) -> None:
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic

    @property
    def line(self) -> int:
        return self.diagnostic.line

    @property
    def column(self) -> int:
        return self.diagnostic.column


@dataclass
class ParsedDocument:
    graph: Graph
    prefixes: PrefixMap
    base: str | None = None
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)


_NAME_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NAME_RUN = re.compile(r"[A-Za-z0-9_.\-]*")
_STRING_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


@dataclass(frozen=True)
class _Token:
    kind: str
    value: object
    line: int
    column: int


class _Lexer:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def error(self, message: str, line: int | None = None, column: int | None = None) -> TurtleParseError:
        return TurtleParseError(
            ParseDiagnostic(line if line is not None else self.line, column if column is not None else self.column, message)
        )

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def _advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def _skip_space_and_comments(self) -> None:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "#":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def tokens(self) -> list[_Token]:
        out = []
        while True:
            token = self._next_token()
            out.append(token)
            if token.kind == "eof":
                return out

    def _next_token(self) -> _Token:
        self._skip_space_and_comments()
        if self.pos >= len(self.text):
            return _Token("eof", None, self.line, self.column)
        line, column = self.line, self.column
        ch = self._peek()
        if ch == "<":
            if self._peek(1) == "<":
                raise self.error("quoted triples ('<<') are not supported", line, column)
            return self._lex_iriref(line, column)
        if ch == '"':
            if self._peek(1) == '"' and self._peek(2) == '"':
                raise self.error('triple-quoted string literals (\'"""\') are not supported', line, column)
            return self._lex_string(line, column)
        if ch == "'":
            raise self.error("single-quoted string literals are not supported; use double quotes", line, column)
        if ch == "[":
            raise self.error("anonymous blank nodes ('[ ... ]') are not supported; use labeled blank nodes (_:name)", line, column)
        if ch == "(":
            raise self.error("collections ('( ... )') are not supported", line, column)
        if ch.isdigit() or (ch in "+-" and self._peek(1).isdigit()):
            raise self.error("bare numeric literals are not supported; quote the value and add a datatype", line, column)
        if ch == ".":
            self._advance()
            return _Token("dot", ".", line, column)
        if ch == ";":
            self._advance()
            return _Token("semi", ";", line, column)
        if ch == ",":
            self._advance()
            return _Token("comma", ",", line, column)
        if ch == "^":
            if self._peek(1) == "^":
                self._advance()
                self._advance()
                return _Token("caret", "^^", line, column)
            raise self.error("stray '^' (expected '^^' before a datatype IRI)", line, column)
        if ch == "@":
            return self._lex_at_word(line, column)
        if ch == "_" and self._peek(1) == ":":
            return self._lex_blank(line, column)
        if ch in _NAME_START or ch == ":":
            return self._lex_name(line, column)
        raise self.error(f"unexpected character {ch!r}", line, column)

    def _lex_iriref(self, line: int, column: int) -> _Token:
        self._advance()  # <
        chars = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated IRI (missing '>')", line, column)
            ch = self._advance()
            if ch == ">":
                return _Token("iriref", "".join(chars), line, column)
            if ch in '<"{}|^`\\ ' or ch in "\n\t\r":
                raise self.error(f"character {ch!r} is not allowed inside an IRI", line, column)
            chars.append(ch)

    def _lex_string(self, line: int, column: int) -> _Token:
        self._advance()  # opening quote
        chars = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string literal", line, column)
            ch = self._advance()
            if ch == '"':
                return _Token("string", "".join(chars), line, column)
            if ch == "\n":
                raise self.error("newline inside string literal (escape it as \\n)", line, column)
            if ch == "\\":
                chars.append(self._lex_escape(line, column))
            else:
                chars.append(ch)

    def _lex_escape(self, line: int, column: int) -> str:
        if self.pos >= len(self.text):
            raise self.error("unterminated escape sequence", line, column)
        ch = self._advance()
        if ch in _STRING_ESCAPES:
            return _STRING_ESCAPES[ch]
        if ch in "uU":
            width = 4 if ch == "u" else 8
            digits = self.text[self.pos : self.pos + width]
            if len(digits) < width or any(d not in "0123456789abcdefABCDEF" for d in digits):
                raise self.error(f"invalid \\{ch} escape (expected {width} hex digits)", self.line, self.column)
            for _ in range(width):
                self._advance()
            return chr(int(digits, 16))
        raise self.error(f"unknown escape sequence '\\{ch}'", self.line, self.column)

    def _lex_at_word(self, line: int, column: int) -> _Token:
        self._advance()  # @
        word = self._take_name_run()
        word, pushed = self._strip_trailing_dots(word)
        self._push_back(pushed)
        if word == "prefix":
            return _Token("prefix_kw", word, line, column)
        if word == "base":
            return _Token("base_kw", word, line, column)
        parts = word.split("-")
        if word and word[0].isalpha() and all(part.isalnum() for part in parts):
            return _Token("langtag", word, line, column)
        raise self.error(f"unknown directive or language tag '@{word}'", line, column)

    def _lex_blank(self, line: int, column: int) -> _Token:
        self._advance()  # _
        self._advance()  # :
        label = self._take_name_run()
        label, pushed = self._strip_trailing_dots(label)
        if not label:
            raise self.error("blank node label must be non-empty", line, column)
        self._push_back(pushed)
        return _Token("blank", label, line, column)

    def _lex_name(self, line: int, column: int) -> _Token:
        prefix = self._take_name_run()
        if self._peek() == ":":
            self._advance()
            local = self._take_name_run()
            local, pushed = self._strip_trailing_dots(local)
            self._push_back(pushed)
            return _Token("pname", (prefix, local), line, column)
        prefix, pushed = self._strip_trailing_dots(prefix)
        self._push_back(pushed)
        if prefix == "a":
            return _Token("a", "a", line, column)
        if prefix in ("true", "false"):
            raise self.error("bare boolean literals are not supported; quote the value and add a datatype", line, column)
        raise self.error(f"bare name {prefix!r} is not valid Turtle here (missing prefix or quotes?)", line, column)

    def _take_name_run(self) -> str:
        start = self.pos
        end = _NAME_RUN.match(self.text, start).end()
        # Name characters include no newline, so only the column moves.
        self.pos = end
        self.column += end - start
        return self.text[start:end]

    def _strip_trailing_dots(self, name: str) -> tuple[str, int]:
        pushed = 0
        while name.endswith("."):
            name = name[:-1]
            pushed += 1
        return name, pushed

    def _push_back(self, count: int) -> None:
        for _ in range(count):
            self.pos -= 1
            self.column -= 1


class _Parser:
    def __init__(self, text: str, base_prefixes: PrefixMap | None = None) -> None:
        self.tokens = _Lexer(text).tokens()
        self.index = 0
        self.prefixes = base_prefixes.copy() if base_prefixes is not None else PrefixMap()
        self.base: str | None = None
        self.graph = Graph()
        # One Term per distinct expanded IRI in this document, so repeated
        # names share a Term and its cached hash.  Keyed by the expanded
        # string, never the prefixed name, since a prefix may be rebound.
        self._iris: dict[str, Term] = {}

    def error(self, message: str, token: _Token | None = None) -> TurtleParseError:
        token = token or self._peek()
        return TurtleParseError(ParseDiagnostic(token.line, token.column, message))

    def _peek(self) -> _Token:
        return self.tokens[self.index]

    def _next(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def _expect(self, kind: str, what: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise self.error(f"expected {what}, found {_describe(token)}", token)
        return token

    def parse(self) -> ParsedDocument:
        while self._peek().kind != "eof":
            token = self._peek()
            if token.kind == "prefix_kw":
                self._parse_prefix_directive()
            elif token.kind == "base_kw":
                self._parse_base_directive()
            else:
                self._parse_triples()
        return ParsedDocument(self.graph, self.prefixes, self.base)

    def _parse_prefix_directive(self) -> None:
        self._next()
        name_token = self._expect("pname", "a prefix label like 'apple:'")
        prefix, local = name_token.value
        if local:
            raise self.error(f"prefix label must end at ':', found extra name part {local!r}", name_token)
        iri_token = self._expect("iriref", "a namespace IRI in angle brackets")
        self.prefixes.bind(prefix, self._resolve_iri(iri_token))
        self._expect("dot", "'.' after the @prefix directive")

    def _parse_base_directive(self) -> None:
        self._next()
        iri_token = self._expect("iriref", "a base IRI in angle brackets")
        self.base = self._resolve_iri(iri_token)
        self._expect("dot", "'.' after the @base directive")

    def _resolve_iri(self, token: _Token) -> str:
        raw = str(token.value)
        if self.base is not None:
            resolved = urljoin(self.base, raw)
        else:
            resolved = raw
        if ":" not in resolved:
            raise self.error(f"relative IRI <{raw}> needs a @base declaration", token)
        return resolved

    def _iri(self, value: str) -> Term:
        term = self._iris.get(value)
        if term is None:
            term = self._iris[value] = iri(value)
        return term

    def _parse_triples(self) -> None:
        subject = self._parse_subject()
        self._parse_predicate_object_list(subject)
        self._expect("dot", "'.' to end the statement")

    def _parse_predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self._parse_verb()
            while True:
                obj = self._parse_object()
                self.graph.insert(Triple(subject, predicate, obj))
                if self._peek().kind == "comma":
                    self._next()
                    continue
                break
            if self._peek().kind == "semi":
                self._next()
                # A trailing semicolon before '.' is tolerated.
                if self._peek().kind in ("dot", "semi"):
                    while self._peek().kind == "semi":
                        self._next()
                    return
                continue
            return

    def _parse_subject(self) -> Term:
        token = self._next()
        if token.kind == "iriref":
            return self._iri(self._resolve_iri(token))
        if token.kind == "pname":
            return self._iri(self._expand_pname(token))
        if token.kind == "blank":
            return blank(str(token.value))
        raise self.error(f"expected a subject (IRI, prefixed name, or blank node), found {_describe(token)}", token)

    def _parse_verb(self) -> Term:
        token = self._next()
        if token.kind == "a":
            return self._iri(RDF_TYPE)
        if token.kind == "iriref":
            return self._iri(self._resolve_iri(token))
        if token.kind == "pname":
            return self._iri(self._expand_pname(token))
        raise self.error(f"expected a predicate (IRI, prefixed name, or 'a'), found {_describe(token)}", token)

    def _parse_object(self) -> Term:
        token = self._next()
        if token.kind == "iriref":
            return self._iri(self._resolve_iri(token))
        if token.kind == "pname":
            return self._iri(self._expand_pname(token))
        if token.kind == "blank":
            return blank(str(token.value))
        if token.kind == "string":
            return self._finish_literal(str(token.value))
        raise self.error(f"expected an object (IRI, prefixed name, blank node, or literal), found {_describe(token)}", token)

    def _finish_literal(self, lexical: str) -> Term:
        token = self._peek()
        if token.kind == "langtag":
            self._next()
            return literal(lexical, lang=str(token.value))
        if token.kind == "caret":
            self._next()
            dt_token = self._next()
            if dt_token.kind == "iriref":
                datatype = self._resolve_iri(dt_token)
            elif dt_token.kind == "pname":
                datatype = self._expand_pname(dt_token)
            else:
                raise self.error(f"expected a datatype IRI after '^^', found {_describe(dt_token)}", dt_token)
            if datatype == XSD_STRING:
                return literal(lexical)  # simple literals are plain xsd:string
            return literal(lexical, datatype=datatype)
        return literal(lexical)

    def _expand_pname(self, token: _Token) -> str:
        prefix, local = token.value
        expanded = self.prefixes.expand(prefix, local)
        if expanded is None:
            raise self.error(f"undeclared prefix '{prefix}:'", token)
        return expanded


def _describe(token: _Token) -> str:
    if token.kind == "eof":
        return "end of input"
    if token.kind == "pname":
        prefix, local = token.value
        return f"'{prefix}:{local}'"
    return f"'{token.value}'"


def parse_document(text: str, base_prefixes: PrefixMap | None = None) -> ParsedDocument:
    """Parse a Turtle document, keeping its prefix table for later writing."""
    return _Parser(text, base_prefixes).parse()


def parse_turtle(text: str, base_prefixes: PrefixMap | None = None) -> Graph:
    """Parse a Turtle document into a graph; raise TurtleParseError on the first error."""
    return parse_document(text, base_prefixes).graph


def _render_term(term: Term, prefixes: PrefixMap) -> str:
    if term.kind == "iri":
        compressed = prefixes.compress(term.value)
        return compressed if compressed is not None else f"<{term.value}>"
    if term.kind == "blank":
        return f"_:{term.value}"
    quoted = f'"{escape_literal_value(term.value)}"'
    if term.lang is not None:
        return f"{quoted}@{term.lang}"
    if term.datatype is not None and term.datatype != XSD_STRING:
        dt = prefixes.compress(term.datatype)
        return f"{quoted}^^{dt}" if dt is not None else f"{quoted}^^<{term.datatype}>"
    return quoted


def serialize_turtle(graph: Graph, prefixes: PrefixMap | None = None) -> str:
    """Write a graph as Turtle with fully deterministic layout.

    Every bound prefix is emitted (sorted) even when unused, subjects and
    predicates appear in term order, and rdf:type is written as ``a`` ahead
    of all other predicates.
    """
    prefixes = prefixes if prefixes is not None else DEFAULT_PREFIXES
    lines = [f"@prefix {prefix}: <{namespace}> ." for prefix, namespace in prefixes.items()]
    rdf_type = iri(RDF_TYPE)

    by_subject: dict[Term, dict[Term, list[Term]]] = {}
    for triple in graph:
        by_subject.setdefault(triple.s, {}).setdefault(triple.p, []).append(triple.o)

    for subject in sorted(by_subject, key=Term.sort_key):
        lines.append("")
        predicates = sorted(by_subject[subject], key=Term.sort_key)
        if rdf_type in by_subject[subject]:
            predicates.remove(rdf_type)
            predicates.insert(0, rdf_type)
        subject_text = _render_term(subject, prefixes)
        parts = []
        for predicate in predicates:
            verb = "a" if predicate == rdf_type else _render_term(predicate, prefixes)
            objects = sorted(by_subject[subject][predicate], key=Term.sort_key)
            object_text = ", ".join(_render_term(o, prefixes) for o in objects)
            parts.append(f"{verb} {object_text}")
        if len(parts) == 1:
            lines.append(f"{subject_text} {parts[0]} .")
        else:
            lines.append(f"{subject_text} {parts[0]} ;")
            for part in parts[1:-1]:
                lines.append(f"    {part} ;")
            lines.append(f"    {parts[-1]} .")
    return "\n".join(lines) + "\n"


def canonical_ntriples(graph: Graph) -> str:
    """Sorted N-Triples text, the canonical form hashed into report digests."""
    return "".join(triple.n3() + "\n" for triple in graph)
