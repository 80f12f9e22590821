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

The lexer is one compiled master regex: each match skips whitespace and
comments, then takes one token.  Tokens carry only their offset; a line and
column are counted only when an error is reported.  Where no token starts,
a second look at that spot names the malformed or unsupported construct.

The writer is deterministic: prefixes, subjects, predicates, and objects are
all emitted in sorted order, with ``rdf:type`` rendered as ``a`` and sorted
first.  Parsing the output of :func:`serialize_turtle` yields a graph equal
to the one serialized.  Both writers walk the graph's subject index one
``(subject, predicate)`` group at a time (``Graph._sorted``), so subjects
and predicates are sorted once per group, not once per triple.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from urllib.parse import urljoin

from .graph import Graph
from .terms import (
    _LANGTAG,
    RDF_TYPE,
    PrefixMap,
    StructuralError,
    Term,
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

    def render(self, source: str = "<input>") -> str:
        return f"{source}:{self.line}:{self.column}: error: {self.message}"


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

# A string body up to its closing quote: any character but a quote, a
# backslash or a newline, and only well-formed escapes.
_STRING_BODY = r"""[^"\\\n]*(?:\\(?:[tbnrf"'\\]|u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})[^"\\\n]*)*"""
_IRI_BODY = r"""[^<>"{}|^`\\ \n\t\r]*"""
# A name run never ends with '.': trailing dots are left for the next token.
_NAME = r"[A-Za-z0-9_\-]*(?:\.+[A-Za-z0-9_\-]+)*"

# Each match skips whitespace and comments (group 1), then takes one token,
# or the end of the text.  It takes nothing where a malformed or unsupported
# construct starts, and _fail explains that spot.  A prefix label, unlike a
# local name, keeps its trailing dots ('ex.:a' has the prefix 'ex.').
_TOKEN = re.compile(
    r"([ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*)"
    r"(?:(?P<pname>(?!_:)(?P<prefix>[A-Za-z_][A-Za-z0-9_.\-]*|):(?P<local>" + _NAME + r"))"
    r"|(?P<dot>\.)|(?P<semi>;)|(?P<comma>,)"
    r'|"(?!"")(?P<string>' + _STRING_BODY + r')"'
    r"|<(?P<iriref>" + _IRI_BODY + r")>"
    r"|_:(?P<blank>" + _NAME + r")"
    r"|(?P<bare>[A-Za-z_]" + _NAME + r")"
    r"|@(?P<at>" + _NAME + r")"
    r"|(?P<caret>\^\^)"
    r"|(?P<eof>\Z))?"
)
_STRING_PREFIX = re.compile(_STRING_BODY)
_IRI_PREFIX = re.compile(_IRI_BODY)
_ESCAPE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)", re.DOTALL)

# Token kinds whose value is the text of their group.
_TEXT_KINDS = frozenset({"dot", "semi", "comma", "iriref", "caret"})
# A token is (kind, value, offset of its first character).
_Token = tuple[str, object, int]


def _error(text: str, offset: int, message: str) -> TurtleParseError:
    """The error at ``offset``; its line and column are counted only here."""
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return TurtleParseError(ParseDiagnostic(line, column, message))


def _tokenize(text: str) -> list[_Token]:
    """The tokens of a Turtle document, ending with one ``eof`` token."""
    tokens: list[_Token] = []
    append = tokens.append
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        start = match.end(1)
        if kind == "pname":
            append((kind, match.group("prefix", "local"), start))
        elif kind in _TEXT_KINDS:
            append((kind, match[kind], start))
        elif kind == "string":
            value = match["string"]
            if "\\" in value:
                value = _unescape(text, start + 1, match.end(kind))
            append((kind, value, start))
        elif kind == "bare":
            name = match[kind]
            if name != "a":
                if name in ("true", "false"):
                    raise _error(text, start, "bare boolean literals are not supported; quote the value and add a datatype")
                raise _error(text, start, f"bare name {name!r} is not valid Turtle here (missing prefix or quotes?)")
            append(("a", name, start))
        elif kind == "at":
            word = match[kind]
            if word in ("prefix", "base"):
                append((word + "_kw", word, start))
            elif _LANGTAG.fullmatch(word):
                append(("langtag", word, start))
            else:
                raise _error(text, start, f"unknown directive or language tag '@{word}'")
        elif kind == "blank":
            if not match[kind]:
                raise _error(text, start, "blank node label must be non-empty")
            append((kind, match[kind], start))
        elif kind == "eof":
            append((kind, None, start))
            return tokens
        else:
            raise _fail(text, start)
    raise AssertionError("the token pattern always matches")  # pragma: no cover


def _unescape(text: str, start: int, end: int) -> str:
    """Decode the escapes of the string body ``text[start:end]``."""
    pieces = []
    for match in _ESCAPE.finditer(text, start, end):
        pieces.append(text[start : match.start()])
        escape = match[1]
        if len(escape) == 1:
            pieces.append(_STRING_ESCAPES[escape])
        else:
            code = int(escape[1:], 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                message = f"invalid \\{escape[0]} escape (U+{code:04X} is not a Unicode scalar value)"
                raise _error(text, match.start() + 2, message)
            pieces.append(chr(code))
        start = match.end()
    pieces.append(text[start:end])
    return "".join(pieces)


def _fail(text: str, start: int) -> TurtleParseError:
    """The error for the text at ``start``, where no token starts."""
    ch = text[start]
    if ch == "<":
        if text.startswith("<<", start):
            return _error(text, start, "quoted triples ('<<') are not supported")
        end = _IRI_PREFIX.match(text, start + 1).end()
        if end == len(text):
            return _error(text, start, "unterminated IRI (missing '>')")
        return _error(text, start, f"character {text[end]!r} is not allowed inside an IRI")
    if ch == '"':
        if text.startswith('"""', start):
            return _error(text, start, 'triple-quoted string literals (\'"""\') are not supported')
        end = _STRING_PREFIX.match(text, start + 1).end()
        _unescape(text, start + 1, end)  # an escape before the fault is reported first
        if end == len(text):
            return _error(text, start, "unterminated string literal")
        if text[end] == "\n":
            return _error(text, start, "newline inside string literal (escape it as \\n)")
        # text[end] is the backslash of a malformed escape.
        if end + 1 == len(text):
            return _error(text, start, "unterminated escape sequence")
        letter = text[end + 1]
        if letter in "uU":
            width = 4 if letter == "u" else 8
            return _error(text, end + 2, f"invalid \\{letter} escape (expected {width} hex digits)")
        return _error(text, end + 2, f"unknown escape sequence '\\{letter}'")
    if ch == "'":
        return _error(text, start, "single-quoted string literals are not supported; use double quotes")
    if ch == "[":
        return _error(text, start, "anonymous blank nodes ('[ ... ]') are not supported; use labeled blank nodes (_:name)")
    if ch == "(":
        return _error(text, start, "collections ('( ... )') are not supported")
    if ch.isdigit() or (ch in "+-" and text[start + 1 : start + 2].isdigit()):
        return _error(text, start, "bare numeric literals are not supported; quote the value and add a datatype")
    if ch == "^":
        return _error(text, start, "stray '^' (expected '^^' before a datatype IRI)")
    return _error(text, start, f"unexpected character {ch!r}")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.prefixes = PrefixMap()
        self.base: str | None = None
        self.graph = Graph()
        # One Term per distinct expanded IRI in this document, so repeated
        # names share a Term and its cached hash.  Keyed by the expanded
        # string, never the prefixed name, since a prefix may be rebound.
        self._iris: dict[str, Term] = {}
        # The Term of each (prefix, local) name, emptied whenever a prefix
        # is bound.
        self._pnames: dict[tuple[str, str], Term] = {}
        self._type = self._iri(RDF_TYPE)

    def error(self, message: str, token: _Token | None = None) -> TurtleParseError:
        token = token or self._peek()
        return _error(self.text, token[2], message)

    def _peek(self) -> _Token:
        return self.tokens[self.index]

    def _next(self) -> _Token:
        token = self.tokens[self.index]
        if token[0] != "eof":
            self.index += 1
        return token

    def _expect(self, kind: str, what: str) -> _Token:
        token = self._next()
        if token[0] != kind:
            raise self.error(f"expected {what}, found {_describe(token)}", token)
        return token

    def parse(self) -> ParsedDocument:
        while True:
            kind = self._peek()[0]
            if kind == "eof":
                return ParsedDocument(self.graph, self.prefixes, self.base)
            if kind == "prefix_kw":
                self._parse_prefix_directive()
            elif kind == "base_kw":
                self._parse_base_directive()
            else:
                self._parse_triples()

    def _parse_prefix_directive(self) -> None:
        self._next()
        name_token = self._expect("pname", "a prefix label like 'apple:'")
        prefix, local = name_token[1]
        if local:
            raise self.error(f"prefix label must end at ':', found extra name part {local!r}", name_token)
        iri_token = self._expect("iriref", "a namespace IRI in angle brackets")
        namespace = self._resolve_iri(iri_token)
        try:
            self.prefixes.bind(prefix, namespace)
        except StructuralError as exc:  # a label the lexer takes but Turtle forbids, such as '_x'
            raise self.error(str(exc), name_token) from None
        self._pnames.clear()
        self._expect("dot", "'.' after the @prefix directive")

    def _parse_base_directive(self) -> None:
        self._next()
        iri_token = self._expect("iriref", "a base IRI in angle brackets")
        self.base = self._resolve_iri(iri_token)
        self._expect("dot", "'.' after the @base directive")

    def _resolve_iri(self, token: _Token) -> str:
        raw = token[1]
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

    def _pname(self, token: _Token) -> Term:
        term = self._pnames.get(token[1])
        if term is None:
            term = self._pnames[token[1]] = self._iri(self._expand_pname(token))
        return term

    def _parse_triples(self) -> None:
        subject = self._parse_subject()
        self._parse_predicate_object_list(subject)
        self._expect("dot", "'.' to end the statement")

    def _parse_predicate_object_list(self, subject: Term) -> None:
        add = self.graph._add
        tokens = self.tokens
        pnames = self._pnames
        rdf_type = self._type
        while True:
            # 'a' or a name seen before resolves with one dict probe; anything
            # else, errors included, goes through _parse_verb/_parse_object.
            kind, value, _ = tokens[self.index]
            predicate = rdf_type if kind == "a" else pnames.get(value) if kind == "pname" else None
            if predicate is None:
                predicate = self._parse_verb()
            else:
                self.index += 1
            while True:
                kind, value, _ = tokens[self.index]
                obj = pnames.get(value) if kind == "pname" else None
                if obj is None:
                    obj = self._parse_object()
                else:
                    self.index += 1
                add(subject, predicate, obj)
                if tokens[self.index][0] != "comma":
                    break
                self.index += 1
            if tokens[self.index][0] != "semi":
                return
            self.index += 1
            # A trailing semicolon before '.' is tolerated.
            if tokens[self.index][0] in ("dot", "semi"):
                while tokens[self.index][0] == "semi":
                    self.index += 1
                return

    def _parse_subject(self) -> Term:
        token = self._next()
        kind = token[0]
        if kind == "pname":
            return self._pname(token)
        if kind == "iriref":
            return self._iri(self._resolve_iri(token))
        if kind == "blank":
            return blank(token[1])
        raise self.error(f"expected a subject (IRI, prefixed name, or blank node), found {_describe(token)}", token)

    def _parse_verb(self) -> Term:
        token = self._next()
        kind = token[0]
        if kind == "pname":
            return self._pname(token)
        if kind == "a":
            return self._type
        if kind == "iriref":
            return self._iri(self._resolve_iri(token))
        raise self.error(f"expected a predicate (IRI, prefixed name, or 'a'), found {_describe(token)}", token)

    def _parse_object(self) -> Term:
        token = self._next()
        kind = token[0]
        if kind == "pname":
            return self._pname(token)
        if kind == "string":
            return self._finish_literal(token[1])
        if kind == "iriref":
            return self._iri(self._resolve_iri(token))
        if kind == "blank":
            return blank(token[1])
        raise self.error(f"expected an object (IRI, prefixed name, blank node, or literal), found {_describe(token)}", token)

    def _finish_literal(self, lexical: str) -> Term:
        kind, value, _ = self._peek()
        if kind == "langtag":
            self.index += 1
            return literal(lexical, lang=value)
        if kind == "caret":
            self.index += 1
            dt_token = self._next()
            if dt_token[0] == "iriref":
                datatype = self._resolve_iri(dt_token)
            elif dt_token[0] == "pname":
                datatype = self._expand_pname(dt_token)
            else:
                raise self.error(f"expected a datatype IRI after '^^', found {_describe(dt_token)}", dt_token)
            return literal(lexical, datatype=datatype)  # an xsd:string is a simple literal
        return literal(lexical)

    def _expand_pname(self, token: _Token) -> str:
        prefix, local = token[1]
        expanded = self.prefixes.expand(prefix, local)
        if expanded is None:
            raise self.error(f"undeclared prefix '{prefix}:'", token)
        return expanded


def _describe(token: _Token) -> str:
    kind, value, _ = token
    if kind == "eof":
        return "end of input"
    if kind == "pname":
        prefix, local = value
        return f"'{prefix}:{local}'"
    return f"'{value}'"


def parse_document(text: str) -> ParsedDocument:
    """Parse a Turtle document, keeping its prefix table for later writing."""
    return _Parser(text).parse()


def parse_turtle(text: str) -> Graph:
    """Parse a Turtle document into a graph; raise TurtleParseError on the first error."""
    return parse_document(text).graph


def _render_term(term: Term, prefixes: PrefixMap) -> str:
    if term.kind == "iri":
        compressed = prefixes.compress(term.value)
        return compressed if compressed is not None else f"<{term.value}>"
    if term.kind == "blank":
        return f"_:{term.value}"
    quoted = f'"{escape_literal_value(term.value)}"'
    if term.lang is not None:
        return f"{quoted}@{term.lang}"
    if term.datatype is not None:
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
    rendered: dict[Term, str] = {}

    def render(term: Term) -> str:
        text = rendered.get(term)
        if text is None:
            text = rendered[term] = _render_term(term, prefixes)
        return text

    # One statement per subject: its predicate-object parts, rdf:type first.
    for subject, groups in groupby(graph._sorted(), key=itemgetter(0)):
        parts: list[str] = []
        for _, predicate, objects in groups:
            object_text = ", ".join(render(o) for o in objects)
            if predicate.value == RDF_TYPE:
                parts.insert(0, f"a {object_text}")
            else:
                parts.append(f"{render(predicate)} {object_text}")
        lines.append("")
        subject_text = render(subject)
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
    lines = []
    subject = None
    for s, p, objects in graph._sorted():
        if s is not subject:
            subject, subject_text = s, s.n3()
        head = f"{subject_text} {p.n3()} "
        for o in objects:
            lines.append(f"{head}{o.n3()} .\n")
    return "".join(lines)
