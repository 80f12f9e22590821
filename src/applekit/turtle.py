"""Turtle reader and writer for the subset of syntax the toolkit uses.

Supported: ``@prefix`` and ``@base`` directives, prefixed names, absolute
IRIs in angle brackets, the ``a`` keyword, object lists (comma), predicate
object lists (semicolon), labeled blank nodes (``_:name``), plain, typed,
and language-tagged string literals, and ``#`` comments.  N-Triples files
parse unchanged since the grammar is a superset.  ``terms.py`` owns term
syntax: the reader takes its IRI body, name characters and language tag.

Deliberately unsupported constructs fail loudly, each naming the feature:
anonymous blank nodes ``[ ]``, collections ``( )``, quoted triples ``<< >>``,
triple-quoted strings, single-quoted strings, and bare numeric or boolean
literals.

One loop reads the text, one triple per pass.  At the start of a
statement the step pattern ``_SUBJECT_VERB_OBJECT`` takes a subject, a
verb, an object and the '.', ';' or ',' that ends the triple, so an
N-Triples line is one match.  After a subject or ';' the step pattern
``_VERB_OBJECT`` takes a verb, an object and its end; after ',' the step
pattern ``_OBJECT`` takes an object and its end.  Where the statement step
does not match, or a term in it does not resolve, the subject is one
``_TOKEN`` match and the other steps go on from there.  The raw text of
each term (``ex:a``, ``<iri>``, ``_:b``, ``a``)
resolves through one dict per document, emptied by every ``@prefix`` or
``@base``.  The steps are built from the sub-patterns of ``_TOKEN``, the
master regex of the lexer, so they take the same tokens, and a name in a
step is followed by no character that could lengthen it.  A comment before
a step runs to the end of its line (``#[^\\n]*(?=\\n|\\Z)``), so a step that
fails after a comment cannot backtrack into it and match its text; Python
3.10 has no atomic groups to say so.

Where no step matches, or a term in the match does not resolve, the same
pass reads that one triple from tokens: the verb and the object, then the
'.', ';' or ',' that ends it; the steps resume at the next triple.  That
covers a comment inside a triple, a string with an escape, a language tag
or datatype set apart from its string by whitespace, and every error.  A
run of ';' may be followed by a verb or by the '.' that ends the statement,
and is read from tokens too.  At the start of a statement, a directive,
the end of the text and a subject that does not resolve are read from
tokens as well.  Tokens are read lazily, one ``_TOKEN`` match at a time,
and carry only their offset; a line and column are counted only when an
error is reported.  Where no token starts, a second look at that spot names
the malformed or unsupported construct.  Before a grammar error is reported
the rest of the text is lexed, so that a lexical error anywhere is reported
first, as when the whole text was lexed ahead of the parse.

The writer is deterministic: prefixes, subjects, predicates, and objects are
all emitted in sorted order, with ``rdf:type`` rendered as ``a`` and sorted
first.  Parsing the output of :func:`serialize_turtle` yields a graph equal
to the one serialized.  Both writers walk the graph's subject index one
subject at a time (``Graph._sorted``), so subjects are sorted once, each
subject's predicates once, and each group's objects once, never every
triple by its nested key.  The Turtle writer renders each term once, into a
dict whose ``__missing__`` renders it, and reads the dict through ``map``,
so a term written before costs a lookup in C.
"""

from __future__ import annotations

import re
from typing import NamedTuple
from urllib.parse import urljoin

from .graph import Graph, _sorted_objects
from .terms import (
    _IRI_BODY,
    _LANGTAG,
    _NAME,
    _NAME_CHAR,
    RDF_TYPE,
    PrefixMap,
    StructuralError,
    Term,
    TurtleParseError,
    blank,
    escape_literal_value,
    iri,
    literal,
)
from .vocab import DEFAULT_PREFIXES


class ParseDiagnostic(NamedTuple):
    line: int
    column: int
    message: str

    def render(self, source: str = "<input>") -> str:
        return f"{source}:{self.line}:{self.column}: error: {self.message}"


class ParsedDocument:
    """A parsed document: its graph, its prefixes and its last ``@base``."""

    def __init__(self, graph: Graph, prefixes: PrefixMap, base: str | None = None) -> None:
        self.graph = graph
        self.prefixes = prefixes
        self.base = base

    def __repr__(self) -> str:
        return f"ParsedDocument(graph={self.graph!r}, prefixes={self.prefixes!r}, base={self.base!r})"


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
# A prefix label, unlike a local name, keeps its trailing dots ('ex.:a').
_PREFIX = r"(?:[A-Za-z_]" + _NAME_CHAR + r"*)?"
# Whitespace and comments.  A comment runs to the end of its line even when
# a longer pattern fails after it, so no step can match inside a comment.
_WS = r"[ \t\r\n]*(?:#[^\n]*(?=\n|\Z)[ \t\r\n]*)*"

# Each match skips whitespace and comments (group 1), then takes one token,
# or the end of the text.  It takes nothing where a malformed or unsupported
# construct starts, and _fail explains that spot.
_TOKEN = re.compile(
    r"(" + _WS + r")"
    r"(?:(?P<pname>(?!_:)(?P<prefix>" + _PREFIX + r"):(?P<local>" + _NAME + r"))"
    r"|(?P<dot>\.)|(?P<semi>;)|(?P<comma>,)"
    r'|"(?!"")(?P<string>' + _STRING_BODY + r')"'
    r"|<(?P<iriref>" + _IRI_BODY.pattern + r")>"
    r"|_:(?P<blank>" + _NAME + r")"
    r"|(?P<bare>[A-Za-z_]" + _NAME + r")"
    r"|@(?P<at>" + _NAME + r")"
    r"|(?P<caret>\^\^)"
    r"|(?P<eof>\Z))?"
)

# The steps take the same tokens as _TOKEN, several at a time, as raw text.
# A name is followed by no character that would lengthen it, so a failing
# step cannot backtrack into a shorter name.
_NAME_END = r"(?!" + _NAME_CHAR + _NAME + r")"
_PNAME = r"(?!_:)" + _PREFIX + r":" + _NAME + _NAME_END
_IRI = r"<" + _IRI_BODY.pattern + r">"
# Inside a step, between the tokens of one triple, only whitespace: a comment
# there, like a string with an escape or a tag or datatype set apart from
# its string, is read from tokens.
_SPACE = r"[ \t\r\n]*"
# An object, then the token that ends it: groups name, body, lang, datatype,
# end.
_OBJECT_END = (
    r"(?:(" + _PNAME + r"|" + _IRI + r"|_:" + _NAME + _NAME_END + r')|"(?!"")([^"\\\n]*)"'
    r"(?:@(" + _LANGTAG.pattern + r")" + _NAME_END + r"|\^\^(" + _PNAME + r"|" + _IRI + r"))?)"
    + _SPACE + r"([.;,])"
)
_VERB = r"(" + _PNAME + r"|" + _IRI + r"|a(?!:|" + _NAME_CHAR + r"))"
# At the start of a statement: a subject (group 1), a verb, an object and its
# end.
_SUBJECT_VERB_OBJECT = re.compile(
    _WS + r"(" + _PNAME + r"|" + _IRI + r"|_:" + _NAME + _NAME_END + r")" + _SPACE + _VERB + _SPACE + _OBJECT_END
)
# After a subject or ';': a verb (group 1), an object and its end.
_VERB_OBJECT = re.compile(_WS + _VERB + _SPACE + _OBJECT_END)
# After ',': an object and its end.
_OBJECT = re.compile(_WS + _OBJECT_END)

_ESCAPE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)", re.DOTALL)

# A token is (kind, value, offset of its first character).
_Token = tuple[str, object, int]


def _error(text: str, offset: int, message: str) -> TurtleParseError:
    """The error at ``offset``; its line and column are counted only here."""
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return TurtleParseError(ParseDiagnostic(line, column, message))


def _lex(text: str, pos: int) -> tuple[_Token, int]:
    """The token after ``pos`` and the offset where it ends; the ``eof``
    token at the end of the text."""
    match = _TOKEN.match(text, pos)
    kind = match.lastgroup
    start = match.end(1)
    if kind == "pname":
        token = (kind, match.group("prefix", "local"), start)
    elif kind in ("dot", "semi", "comma", "iriref", "caret"):
        token = (kind, match[kind], start)
    elif kind == "string":
        value = match["string"]
        if "\\" in value:
            value = _unescape(text, start + 1, match.end(kind))
        token = (kind, value, start)
    elif kind == "bare":
        name = match[kind]
        if name != "a":
            if name in ("true", "false"):
                raise _error(text, start, "bare boolean literals are not supported; quote the value and add a datatype")
            raise _error(text, start, f"bare name {name!r} is not valid Turtle here (missing prefix or quotes?)")
        token = ("a", name, start)
    elif kind == "at":
        word = match[kind]
        if word in ("prefix", "base"):
            token = (word + "_kw", word, start)
        elif _LANGTAG.fullmatch(word):
            token = ("langtag", word, start)
        else:
            raise _error(text, start, f"unknown directive or language tag '@{word}'")
    elif kind == "blank":
        label = match[kind]
        if not label:
            raise _error(text, start, "blank node label must be non-empty")
        if label[0] in "-.":
            raise _error(text, start, f"blank node label cannot start with {label[0]!r}")
        token = (kind, label, start)
    elif kind == "eof":
        token = (kind, None, start)
    else:
        raise _fail(text, start)
    return token, match.end()


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
        end = _IRI_BODY.match(text, start + 1).end()
        if end == len(text):
            return _error(text, start, "unterminated IRI (missing '>')")
        return _error(text, start, f"character {text[end]!r} is not allowed inside an IRI")
    if ch == '"':
        if text.startswith('"""', start):
            return _error(text, start, 'triple-quoted string literals (\'"""\') are not supported')
        end = re.compile(_STRING_BODY).match(text, start + 1).end()
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
    """One loop that reads a triple per pass: by a step, or from tokens.

    The loop keeps a statement's subject, and its predicate after ',', in
    locals.  A statement's first triple is one step, subject included,
    where that step matches and its terms resolve; otherwise its subject is
    one token.  Where no step matches, or a term in one cannot be resolved
    without an error, that pass reads the triple from tokens, one token at
    a time from where the step started, and the next pass tries the steps
    again.  A run of ';' may be followed by a verb or by '.'.  Directives
    and the end of the text are read from tokens at the start of a pass.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0  # where the next token is read
        self._ahead: tuple[_Token, int] | None = None  # the token at pos and its end, once peeked
        self.prefixes = PrefixMap()
        self.base: str | None = None
        self.graph = Graph()
        # The Term of each raw term text a step took ('ex:a', '<s>', '_:b',
        # 'a'), emptied by every directive.
        self._terms: dict[str, Term] = {}

    def parse(self) -> ParsedDocument:
        text, terms, add, node = self.text, self._terms, self.graph._add, self._node
        token_at, statement_at = _TOKEN.match, _SUBJECT_VERB_OBJECT.match
        verb_object_at, object_at = _VERB_OBJECT.match, _OBJECT.match
        pos = 0
        subject = None
        while True:
            o = None
            if subject is None:  # a statement starts: its first triple by one step, where its terms resolve
                match = statement_at(text, pos)
                if match is not None:
                    raw, verb, name, body, lang, datatype, end = match.groups()
                    subject = terms.get(raw) or node(raw)
                    if subject is not None:
                        p = terms.get(verb) or node(verb)
                        if p is not None:
                            o = (terms.get(name) or node(name)) if name is not None else self._literal(body, lang, datatype)
                if o is None:  # otherwise the subject is one token
                    match = token_at(text, pos)
                    subject = None
                    if match.lastgroup in ("pname", "iriref", "blank"):
                        raw = text[match.end(1) : match.end()]
                        subject = terms.get(raw) or node(raw)
                    if subject is None:  # a directive, the end of the text, or an error
                        self._seek(pos)
                        kind = self._peek()[0]
                        if kind == "eof":
                            return ParsedDocument(self.graph, self.prefixes, self.base)
                        if kind == "prefix_kw":
                            self._parse_prefix_directive()
                        elif kind == "base_kw":
                            self._parse_base_directive()
                        else:
                            self._parse_term(_SUBJECT_KINDS, _SUBJECT_WHAT)  # raises: no subject resolves here
                        pos = self.pos
                        continue
                    pos = match.end()
                    predicate, after_semi = None, False
            if o is None:  # one triple: by a step, where one matches and its terms resolve
                if predicate is None:
                    match = verb_object_at(text, pos)
                    if match is not None:
                        verb, name, body, lang, datatype, end = match.groups()
                        p = terms.get(verb) or node(verb)
                else:
                    match = object_at(text, pos)
                    if match is not None:
                        name, body, lang, datatype, end = match.groups()
                    p = predicate
                if match is not None and p is not None:
                    o = (terms.get(name) or node(name)) if name is not None else self._literal(body, lang, datatype)
            if o is not None:
                pos = match.end()
            else:  # otherwise from tokens, where the step started
                self._seek(pos)
                if predicate is None:
                    if after_semi and self._peek()[0] in ("semi", "dot"):  # a ';' run goes on to a verb or ends at '.'
                        if self._next()[0] == "dot":
                            subject = None
                        pos = self.pos
                        continue
                    p = self._parse_term(_VERB_KINDS, _VERB_WHAT)
                o = self._parse_term(_OBJECT_KINDS, _OBJECT_WHAT)
                token = self._next()
                if token[0] not in ("dot", "semi", "comma"):
                    raise self.error(f"expected '.' to end the statement, found {_describe(token)}", token)
                end, pos = token[1], self.pos
            add(subject, p, o)
            if end == ".":
                subject = None
            elif end == ",":
                predicate = p
            else:
                predicate, after_semi = None, True

    def _node(self, raw: str) -> Term | None:
        """The Term for the raw text of a name, an IRI, a blank node or 'a';
        None where resolving it fails, for the token path to report."""
        if raw.startswith("_:"):
            if len(raw) == 2 or raw[2] in "-.":
                return None
            term = self._terms[raw] = blank(raw[2:])
            return term
        if raw[0] == "<":
            value = self._resolved(raw[1:-1])
        elif raw == "a":
            value = RDF_TYPE
        else:
            prefix, _, local = raw.partition(":")
            value = self.prefixes.expand(prefix, local)
        if value is None:
            return None
        term = self._terms[raw] = iri(value)
        return term

    def _literal(self, body: str, lang: str | None, datatype: str | None) -> Term | None:
        if lang is not None:  # '@prefix' and '@base' are directives, for the token path to report
            return None if lang in ("prefix", "base") else literal(body, lang=lang)
        if datatype is None:
            return literal(body)
        dt = self._terms.get(datatype) or self._node(datatype)
        return None if dt is None else literal(body, datatype=dt.value)  # an xsd:string is a simple literal

    # The token path

    def _seek(self, pos: int) -> None:
        self.pos = pos
        self._ahead = None

    def error(self, message: str, token: _Token) -> TurtleParseError:
        # A lexical error anywhere in the text is reported ahead of any
        # grammar error, so the rest of the text is lexed first.
        pos = self.pos
        while True:
            later, pos = _lex(self.text, pos)
            if later[0] == "eof":
                return _error(self.text, token[2], message)

    def _peek(self) -> _Token:
        if self._ahead is None:
            self._ahead = _lex(self.text, self.pos)
        return self._ahead[0]

    def _next(self) -> _Token:
        token = self._peek()
        if token[0] != "eof":
            self._seek(self._ahead[1])
        return token

    def _expect(self, kind: str, what: str) -> _Token:
        token = self._next()
        if token[0] != kind:
            raise self.error(f"expected {what}, found {_describe(token)}", token)
        return token

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
        self._terms.clear()
        self._expect("dot", "'.' after the @prefix directive")

    def _parse_base_directive(self) -> None:
        self._next()
        iri_token = self._expect("iriref", "a base IRI in angle brackets")
        self.base = self._resolve_iri(iri_token)
        self._terms.clear()
        self._expect("dot", "'.' after the @base directive")

    def _resolved(self, raw: str) -> str | None:
        """``raw`` resolved against the base; None while it is still
        relative, or where urljoin rejects the base or ``raw`` (a host that
        opens '[' and does not close it)."""
        try:
            resolved = urljoin(self.base, raw) if self.base is not None else raw
        except ValueError:
            return None
        return resolved if ":" in resolved else None

    def _resolve_iri(self, token: _Token) -> str:
        resolved = self._resolved(token[1])
        if resolved is not None:
            return resolved
        if self.base is None:
            raise self.error(f"relative IRI <{token[1]}> needs a @base declaration", token)
        # urljoin resolves against a base only in the schemes it knows, not urn: or tag:.
        raise self.error(f"relative IRI <{token[1]}> cannot be resolved against base <{self.base}>", token)

    def _parse_term(self, kinds: tuple[str, ...], what: str) -> Term:
        token = self._next()
        kind = token[0]
        if kind not in kinds:
            raise self.error(f"expected {what}, found {_describe(token)}", token)
        if kind == "string":
            return self._finish_literal(token[1])
        # A name, an IRI, a blank node or 'a': its raw text resolves as in a step.
        raw = self.text[token[2] : self.pos]
        term = self._terms.get(raw) or self._node(raw)
        if term is not None:
            return term
        if kind == "iriref":
            self._resolve_iri(token)  # raises: the IRI does not resolve
        raise self.error(f"undeclared prefix '{token[1][0]}:'", token)

    def _finish_literal(self, lexical: str) -> Term:
        kind, value, _ = self._peek()
        if kind == "langtag":
            self._next()
            return literal(lexical, lang=value)
        if kind == "caret":
            self._next()
            datatype = self._parse_term(("iriref", "pname"), "a datatype IRI after '^^'").value
            return literal(lexical, datatype=datatype)  # an xsd:string is a simple literal
        return literal(lexical)


# The token kinds the token path takes in each position, and what it names
# when it finds another.
_SUBJECT_KINDS, _SUBJECT_WHAT = ("pname", "iriref", "blank"), "a subject (IRI, prefixed name, or blank node)"
_VERB_KINDS, _VERB_WHAT = ("pname", "a", "iriref"), "a predicate (IRI, prefixed name, or 'a')"
_OBJECT_KINDS = ("pname", "string", "iriref", "blank")
_OBJECT_WHAT = "an object (IRI, prefixed name, blank node, or literal)"


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
    """``term.n3()``, but an IRI or a datatype that ``prefixes`` compresses is a prefixed name."""
    if term.kind == "iri":
        compressed = prefixes.compress(term.value)
        if compressed is not None:
            return compressed
    elif term.datatype is not None:
        dt = prefixes.compress(term.datatype)
        if dt is not None:
            return f'"{escape_literal_value(term.value)}"^^{dt}'
    return term.n3()


_TYPE = iri(RDF_TYPE)  # held here, so every rdf:type term is this object
_NEXT_PART = " ;\n    "  # between the predicate-object parts of a statement


class _Rendered(dict):
    """Each term's Turtle text under ``prefixes``, rendered on its first
    lookup, so a later lookup through ``__getitem__`` stays in C."""

    __slots__ = ("prefixes",)

    def __init__(self, prefixes: PrefixMap) -> None:
        self.prefixes = prefixes

    def __missing__(self, term: Term) -> str:
        text = self[term] = _render_term(term, self.prefixes)
        return text


def serialize_turtle(graph: Graph, prefixes: PrefixMap | None = None) -> str:
    """Write a graph as Turtle with fully deterministic layout.

    Every bound prefix is emitted (sorted) even when unused, subjects and
    predicates appear in term order, and rdf:type is written as ``a`` ahead
    of all other predicates.
    """
    prefixes = prefixes if prefixes is not None else DEFAULT_PREFIXES
    lines = [f"@prefix {prefix}: <{namespace}> ." for prefix, namespace in prefixes.items()]
    render = _Rendered(prefixes).__getitem__
    # One statement per subject: its predicate-object parts, rdf:type first.
    for subject, by_p, predicates in graph._sorted():
        parts = []
        for predicate in predicates:
            object_text = ", ".join(map(render, _sorted_objects(by_p[predicate])))
            if predicate is _TYPE:
                parts.insert(0, "a " + object_text)
            else:
                parts.append(f"{render(predicate)} {object_text}")
        lines.append(f"\n{render(subject)} {_NEXT_PART.join(parts)} .")
    return "\n".join(lines) + "\n"


def canonical_ntriples(graph: Graph) -> str:
    """Sorted N-Triples text, the canonical form hashed into report digests."""
    lines = []
    for s, by_p, predicates in graph._sorted():
        subject_text = s.n3() + " "
        for p in predicates:
            head = f"{subject_text}{p.n3()} "
            for o in _sorted_objects(by_p[p]):
                lines.append(f"{head}{o.n3()} .\n")
    return "".join(lines)
