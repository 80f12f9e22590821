"""Class-expression queries and conjunctive select over the triple store.

The expression language is a compact Manchester-like grammar::

    expression := conjunct ('and' conjunct)*
    conjunct   := primary | restriction
    restriction:= path 'some' [primary]          (bare 'some' means any filler)
    path       := ['inverse'] property-name
    primary    := class-name | '{' name (',' name)* '}' | '(' expression ')'

Parentheses nest at most 100 deep (``_MAX_NESTING``); a deeper text is
a :class:`~applekit.terms.QueryParseError` at its first '(' past the bound.

Class expressions, select queries and the rule files of
:mod:`applekit.rules` share this module's front end.  :func:`tokenize`
returns the tokens as plain strings, from one pass of one regex;
:func:`statements` splits them at '.'; :class:`TokenCursor` reads them and
resolves names through a :class:`~applekit.schema.NameCatalog` (bare names,
registered aliases, prefixed names, or ``<iri>``); a parser given none uses
the bundled assets' catalog.  No offset is kept with a token: where an
error is raised, :func:`offsets` runs the same regex again to find it.  A
syntax error is one internal :class:`LexError` with an offset, which each
public parser converts once, to :class:`QueryParseError` or
:class:`RuleError`.  :func:`answer` is the one path from query text in a
mode to sorted rows, for the CLI and the competency questions.

Two retrieval modes share the AST.  Instance retrieval is extensional and
closed-world over a materialized graph: a restriction is satisfied by the
edges actually present.  Class retrieval is structural and reads the
schema.  A class C satisfies a class name at or above C, a nominal set
that lists C, a conjunction whose parts it all satisfies, ``p some F``
when C or a class above it has an obligation ``q some D`` with D
satisfying F or a class-level (punned) edge ``q o`` with o accepting F,
and ``inverse p some F`` when a class-level edge ``s q C`` with s
accepting F points at C itself; q is p or below it.  Any object accepts a
bare ``some``; another filler accepts the non-literal terms of its
instance extension and, for a class name alone or as a conjunct, the
declared classes below it.  :func:`_classes` and :func:`_accepted`
evaluate the two sides a set at a time.

``select`` evaluates a conjunctive basic-graph-pattern query and returns
sorted, duplicate-free rows; its patterns must share variables so the query
forms one connected component.

:func:`solutions` is the package's one pattern matcher: it joins triple
patterns through the graph's two indexes.  Each call plans its join once,
bound-first: it runs next the remaining pattern with the most fixed slots
(constants and variables already bound), taking ties in text order, and
extends tuple rows.  A pattern with a constant predicate and its subject
or object bound reads the index entries in place, every row in one
comprehension; any other pattern probes the graph through
``Graph._match`` once per row.  The plan depends only on the patterns and
which variables are bound; there is no cache, statistics table or option,
and nothing is kept between calls.  ``select`` projects the rows and
renders them a column at a time, rule bodies in :mod:`applekit.rules` are
matched by it, and the validator's checks in :mod:`applekit.validate` are
set operations over instance-retrieval extensions.

Class expressions only read.  :func:`_instances`, the one instance reader,
reads a class name's members in the graph's own index set; a conjunction
intersects its parts into a new set from the smallest, and ``p some F``
walks the smaller side: the filler's instances or p's object map.  Class
retrieval walks :func:`~applekit.schema._closure` down from a class, and
from p to the properties below it.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from operator import itemgetter
from typing import NamedTuple

from .graph import Graph
from .schema import NameCatalog, SchemaIndex, _closure, catalog_or_bundled
from .terms import RDF_TYPE, QueryParseError, Term, _Immutable, iri

_TYPE = iri(RDF_TYPE)


# ---------------------------------------------------------------------------
# AST


class PropertyPath(NamedTuple):
    iri: str
    inverted: bool = False


class Named(NamedTuple):
    iri: str


class OneOf(NamedTuple):
    iris: frozenset[str]


class Anything:
    """Any node.  Every instance is equal to ``ANYTHING``."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Anything:
            return NotImplemented
        return True

    def __hash__(self) -> int:
        return hash(Anything)

    def __repr__(self) -> str:
        return "Anything()"


ANYTHING = Anything()


class Some(NamedTuple):
    path: PropertyPath
    filler: ClassExpression = ANYTHING


class And(_Immutable):
    """A conjunction of two or more class expressions; it cannot be changed."""

    __slots__ = ("parts",)
    _noun = "an And"

    parts: tuple[ClassExpression, ...]

    def __init__(self, parts: tuple[ClassExpression, ...]) -> None:
        if len(parts) < 2:
            raise ValueError("And requires at least two conjuncts")
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not And:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"And(parts={self.parts!r})"

    def __reduce__(self) -> tuple:
        return (And, (self.parts,))


ClassExpression = Named | OneOf | Anything | Some | And


# ---------------------------------------------------------------------------
# The front end: one lexer, cursor and name resolver for class expressions,
# select queries and rule files.


class LexError(ValueError):
    """A syntax error in query or rule text, at ``offset``; the public
    parsers convert it to their own error types."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(message)
        self.offset = offset


PUNCTUATION = frozenset({"(", ")", "{", "}", ",", ".", "->"})

# The regex is searched, so whitespace, where it matches nothing, is
# skipped.  Each match is a token or a '#' comment (group 1), or, from where
# no token starts, the rest of the text.  No token starts with '#'.  A name
# may contain '.' but, like a Turtle local name, not end with one, so a '.'
# after a name ends a rule statement or a select pattern; a '-' in a name
# never takes the '>' of a following '->'.
_TOKEN = re.compile(
    r"(<[^>]*>|\?\w+|[\w:]+(?:(?:-(?!>)|\.+(?=[\w:]|-(?!>)))[\w:]*)*|->|[(){},.]|#[^\n]*)"
    r"|\S[\s\S]*"
)
_LEX_ERRORS = {"<": "unterminated '<'", "?": "'?' must be followed by a variable name"}


def tokenize(text: str) -> list[str]:
    """The tokens of query or rule text in order: ``<iri>``, ``?variable``,
    names, ``->`` and ``( ) { } , .``.  Whitespace and ``#`` comments are
    skipped.  Raises :class:`LexError` where no token starts."""
    tokens = _TOKEN.findall(text)
    if "" in tokens:  # the rest of the text, from where no token starts
        offsets(text)  # raises the LexError there
    if "#" in text:
        tokens = [token for token in tokens if token[0] != "#"]
    return tokens


def offsets(text: str) -> list[int]:
    """The offset of each token of ``text``, then ``len(text)``: the lexer's
    matches found again, for the position of an error.  Raises
    :class:`LexError` where no token starts."""
    at = []
    for match in _TOKEN.finditer(text):
        token = match[1]
        if token is None:
            bad = match[0][0]
            raise LexError(_LEX_ERRORS.get(bad, f"unexpected character {bad!r}"), match.start())
        if token[0] != "#":
            at.append(match.start())
    at.append(len(text))
    return at


def syntax_error(text: str, index: int, message: str) -> LexError:
    """The error at the ``index``-th token of ``text``, or at the end of the
    text for the index past the last token."""
    return LexError(message, offsets(text)[index])


class TokenCursor:
    """A read position in ``tokens``: the tokens of ``text`` from its
    ``base``-th token on, which a None token ends.  Names resolve through
    ``catalog``."""

    __slots__ = ("text", "tokens", "catalog", "base", "index")

    def __init__(self, text: str, tokens: list[str | None], catalog: NameCatalog, base: int = 0) -> None:
        self.text = text
        self.tokens = tokens
        self.catalog = catalog
        self.base = base
        self.index = 0

    def next(self) -> str:
        token = self.tokens[self.index]
        if token is None:
            raise self.error("unexpected end of input", self.index)
        self.index += 1
        return token

    def expect(self, text: str) -> None:
        token = self.tokens[self.index]
        if token != text:
            message = "unexpected end of input" if token is None else f"expected {text!r}, found {token!r}"
            raise self.error(message, self.index)
        self.index += 1

    def error(self, message: str, index: int) -> LexError:
        """The error at ``tokens[index]``."""
        return syntax_error(self.text, self.base + index, message)

    def resolve(self, index: int, what: str, categories: tuple[str, ...], refused: frozenset[str] = PUNCTUATION) -> str:
        """The IRI that ``tokens[index]`` names, tried in each of
        ``categories`` in turn.  A token in ``refused``, punctuation by
        default, is refused as not being ``what``."""
        name = self.tokens[index]
        if name in refused:
            raise self.error(f"expected {what}, found {name!r}", index)
        try:
            return self.catalog._resolve(name, categories)
        except KeyError as exc:
            raise self.error(f"cannot resolve name {name!r}: {exc.args[0]}", index) from None


# The categories a name is tried in, in turn.  Punned class IRIs may stand
# for individuals: in nominals, select subjects and objects, and rule
# arguments.
CLASSES, PROPERTIES, INDIVIDUALS = ("class",), ("property",), ("individual", "class")


def statements(tokens: list[str]) -> list[tuple[int, int]]:
    """The non-empty runs of tokens between '.' tokens, each as the indices
    ``(start, stop)`` of its first token and of the '.' after it, or
    ``len(tokens)`` for a last run that no '.' ends."""
    runs = []
    start = 0
    for _ in range(tokens.count(".")):
        stop = tokens.index(".", start)
        if stop > start:
            runs.append((start, stop))
        start = stop + 1
    if start < len(tokens):
        runs.append((start, len(tokens)))
    return runs


# ---------------------------------------------------------------------------
# Expression parsing


_NOT_NAMES = frozenset({"and", "some", "inverse"}) | PUNCTUATION  # the keywords, and punctuation

# The deepest nesting of parentheses a class expression may have.  Each level
# costs the parser three or four stack frames, so a fixed bound, not the
# stack the caller has left, decides which texts parse.
_MAX_NESTING = 100


class _ExpressionParser(TokenCursor):
    __slots__ = ("depth",)

    def name(self, what: str, categories: tuple[str, ...]) -> str:
        """The IRI the next token names; a keyword is not a name."""
        index = self.index
        self.next()
        return self.resolve(index, what, categories, _NOT_NAMES)

    def parse(self) -> ClassExpression:
        self.depth = 0
        expr = self.parse_expression()
        token = self.tokens[self.index]
        if token is not None:
            raise self.error(f"unexpected trailing token {token!r}", self.index)
        return expr

    def parse_expression(self) -> ClassExpression:
        parts = [self.parse_conjunct()]
        while self.tokens[self.index] == "and":
            self.index += 1
            parts.append(self.parse_conjunct())
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts))

    def parse_conjunct(self) -> ClassExpression:
        token = self.tokens[self.index]
        if token is None:
            raise self.error("expected a class expression", self.index)
        # A bare name is a restriction when followed by 'some', else a class.
        if token == "inverse" or self.tokens[self.index + 1] == "some":
            return self.parse_restriction()
        return self.parse_filler()

    def parse_restriction(self) -> Some:
        inverted = self.tokens[self.index] == "inverse"
        if inverted:
            self.index += 1
        prop = self.name("a property name", PROPERTIES)
        self.expect("some")
        filler: ClassExpression = ANYTHING
        if self.tokens[self.index] not in (None, ")", "and", ","):
            filler = self.parse_filler()
        return Some(PropertyPath(prop, inverted), filler)

    def parse_filler(self) -> ClassExpression:
        token = self.tokens[self.index]
        if token == "(":
            if self.depth == _MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {_MAX_NESTING}", self.index)
            self.depth += 1
            self.index += 1
            inner = self.parse_expression()
            self.expect(")")
            self.depth -= 1
            return inner
        if token == "{":
            self.index += 1
            return self.parse_nominals()
        return Named(self.name("a class name", CLASSES))

    def parse_nominals(self) -> OneOf:
        """The members of a nominal set after its '{', and its '}'."""
        iris = {self.name("an individual name", INDIVIDUALS)}
        while self.tokens[self.index] == ",":
            self.index += 1
            iris.add(self.name("an individual name", INDIVIDUALS))
        self.expect("}")
        return OneOf(frozenset(iris))


def parse_class_expression(text: str, catalog: NameCatalog | None = None) -> ClassExpression:
    """Parse a class expression; bare names resolve through the catalog
    (defaulting to the bundled assets' catalog)."""
    catalog = catalog_or_bundled(catalog)
    if not text.strip():
        raise QueryParseError("empty class expression", 0)
    try:
        tokens: list[str | None] = tokenize(text)
        tokens.append(None)
        return _ExpressionParser(text, tokens, catalog).parse()
    except LexError as exc:
        raise QueryParseError(str(exc), exc.offset) from None


# ---------------------------------------------------------------------------
# Instance retrieval (extensional, closed world)


_NO_MEMBERS: frozenset[Term] = frozenset()


def _instances(expr: ClassExpression, graph: Graph) -> set[Term] | frozenset[Term]:
    """The instances of ``expr``, for reading only: a class name's members
    are the graph's own index set, which the caller must neither change
    nor keep; any other expression's are a set built for this call."""
    if isinstance(expr, Named):
        return graph._by_object(_TYPE).get(iri(expr.iri), _NO_MEMBERS)
    if isinstance(expr, OneOf):
        # Nominals denote their members whether or not the graph mentions them.
        return {iri(value) for value in expr.iris}
    if isinstance(expr, Anything):
        return graph._nodes()
    if isinstance(expr, And):
        return _common([_instances(part, graph) for part in expr.parts])
    if isinstance(expr, Some):
        p = iri(expr.path.iri)
        edges = graph._by_object(p)
        targets = None if isinstance(expr.filler, Anything) else _instances(expr.filler, graph)
        # Walk the smaller side: every edge of p, or the filler's terms.
        if targets is not None and len(targets) < len(edges):
            if expr.path.inverted:
                spo, no_edges = graph._spo, {}
                return {o for s in targets for o in spo.get(s, no_edges).get(p, ()) if o.kind != "literal"}
            return {s for o in targets for s in edges.get(o, ())}
        if expr.path.inverted:
            return {
                o for o, subjects in edges.items()
                if o.kind != "literal" and (targets is None or not targets.isdisjoint(subjects))
            }
        return {s for o, subjects in edges.items() if targets is None or o in targets for s in subjects}
    raise TypeError(f"unknown expression node: {type(expr).__name__}")


def _common(sets: list[set | frozenset]) -> set | frozenset:
    """The members common to ``sets``, a new set, from the smallest one."""
    first, *rest = sorted(sets, key=len)
    return first.intersection(*rest)


def retrieve_instances(expr: ClassExpression, graph: Graph) -> list[str]:
    """Individuals satisfying the expression, as sorted IRI/blank strings."""
    return sorted(_rendered(_instances(expr, graph)))


# ---------------------------------------------------------------------------
# Class retrieval (structural, a set at a time)


def _classes(expr: ClassExpression, schema: SchemaIndex, graph: Graph, universe: frozenset[str]) -> set[str] | frozenset[str]:
    """The classes of ``universe`` that satisfy ``expr`` structurally."""
    if isinstance(expr, Named):
        return _at_or_below({expr.iri}, schema, universe)
    if isinstance(expr, OneOf):
        return universe & expr.iris
    if isinstance(expr, Anything):
        return universe
    if isinstance(expr, And):
        return _common([_classes(part, schema, graph, universe) for part in expr.parts])
    if isinstance(expr, Some):
        p = expr.path.iri
        below = {p, *_closure(schema.sub_property_of, down=True).get(p, ())}
        edges = [t for t in schema.class_level_triples if t.p.value in below]
        accepted = None if isinstance(expr.filler, Anything) else _accepted(expr.filler, schema, graph)
        if expr.path.inverted:
            return {t.o.value for t in edges if t.o.is_iri() and (accepted is None or t.s in accepted)} & universe
        fillers = _classes(expr.filler, schema, graph, universe)
        witnessed = {t.s.value for t in edges if accepted is None or t.o in accepted}
        witnessed.update(ob.on_class for ob in schema.obligations if ob.filler in fillers and ob.property in below)
        return _at_or_below(witnessed, schema, universe)
    raise TypeError(f"unknown expression node: {type(expr).__name__}")


def _at_or_below(targets: set[str], schema: SchemaIndex, universe: frozenset[str]) -> set[str]:
    """The classes of ``universe`` that are in ``targets`` or below one."""
    below = _closure(schema.sub_class_of, down=True)
    return set(targets).union(*[below.get(target, ()) for target in targets]) & universe


def _accepted(filler: ClassExpression, schema: SchemaIndex, graph: Graph) -> set[Term] | frozenset[Term]:
    """The terms a class-level edge may point at to satisfy ``filler``, which
    is not bare: its instances, where a class name also takes the declared
    classes below it.  No literal is among them."""
    if isinstance(filler, And):
        return _common([_accepted(part, schema, graph) for part in filler.parts])
    found = _instances(filler, graph)
    if isinstance(filler, Named):
        return found.union(map(iri, _at_or_below({filler.iri}, schema, schema.classes)))
    return found


def retrieve_classes(expr: ClassExpression, schema: SchemaIndex, graph: Graph) -> list[str]:
    """Declared classes structurally subsumed by the expression, sorted."""
    # An obligation's filler is tested as a class, so it is in the universe
    # even where a hand-built schema does not declare it.
    universe = schema.classes | {ob.filler for ob in schema.obligations}
    return sorted(_classes(expr, schema, graph, universe) & schema.classes)


# ---------------------------------------------------------------------------
# Conjunctive select


class TriplePattern(NamedTuple):
    """A triple pattern.  Each slot is a constant Term, a variable name
    (a str), or None: the wildcard, which matches any term and binds
    nothing."""

    s: Term | str | None
    p: Term | str | None
    o: Term | str | None

    def variables(self) -> list[str]:
        return [slot for slot in self if isinstance(slot, str)]

    def ground(self, binding: dict[str, Term]) -> list[Term | None]:
        """The slots with each bound variable replaced by its term; an
        unbound variable becomes a wildcard."""
        return [binding.get(slot) if isinstance(slot, str) else slot for slot in self]


def solutions(patterns: tuple[TriplePattern, ...], graph: Graph, start: dict[str, Term] | None = None) -> list[dict[str, Term]]:
    """Every binding that extends ``start`` (empty when not given) and under
    which all the patterns match triples of ``graph``.

    This is the package's one join.  It runs the patterns bound-first, not
    in the order given: next comes the remaining pattern with the most
    fixed slots, ties in the order given (see :func:`_join`).  The order is
    planned once per call and not cached.  A variable may stand in any
    slot, predicates included, and may repeat inside one pattern.  The same
    binding can appear more than once; callers that need a set collect the
    bindings into one.
    """
    start = {} if start is None else start
    at, rows = _join(patterns, graph, start)
    names = [slot for slot in at if isinstance(slot, str)]
    skip = len(at) - len(names) + 1  # None and the constants lead every row
    return [dict(zip(names, row[skip:])) for row in rows]


def _join(
    patterns: tuple[TriplePattern, ...], graph: Graph, start: dict[str, Term]
) -> tuple[dict[Term | str, int], list[tuple[Term | None, ...]]]:
    """The rows of every solution, and the row position of each constant
    and variable.

    A row is a tuple: None, the patterns' constants, the terms of
    ``start``, then each variable in the order the join binds it, so each
    slot of a pattern is read from the row at a position worked out once
    per pattern, an open slot from the leading None.  The join runs next
    the remaining pattern with the most fixed slots (a constant, or a
    variable bound by ``start`` or an earlier pattern), taking ties in the
    order given, and extends every row by it at once.  The order comes
    from the patterns alone: there is no statistics table, and nothing is
    kept between calls.
    """
    at: dict[Term | str, int] = {}
    for pattern in patterns:
        for slot in pattern:
            if isinstance(slot, Term):
                at.setdefault(slot, len(at) + 1)
    rows: list[tuple[Term | None, ...]] = [(None, *at, *start.values())]
    for name in start:
        at[name] = len(at) + 1
    remaining = list(patterns)
    while remaining:
        fixed = [(s in at) + (p in at) + (o in at) for s, p, o in remaining]
        rows = _extend(remaining.pop(fixed.index(max(fixed))), at, rows, graph)
    return at, rows


def _extend(
    pattern: TriplePattern, at: dict[Term | str, int], rows: list[tuple[Term | None, ...]], graph: Graph
) -> list[tuple[Term | None, ...]]:
    """Every row extended by each match of ``pattern``; ``at`` gains the
    position of each variable the pattern binds.

    A pattern with a constant predicate, no wildcard and its subject or
    object bound reads the graph's indexes in place: a bound
    subject's ``_spo`` entry, or the predicate's ``_pos`` entry, fetched
    once, at a bound object; with both bound it is a membership test.  Any
    other pattern probes the graph once per row through
    :meth:`Graph._match`.  Either way a term that is no key matches
    nothing, so a literal subject or a predicate that is not stored gives
    no rows, and the rows come out in the same order.
    """
    fixed = [at.get(slot, 0) for slot in pattern]  # a row position; 0, the leading None, for an open slot
    new: list[int] = []  # the open slots whose terms extend the row, in slot order
    repeats: list[tuple[int, int]] = []  # (slot, earlier slot) of a variable repeated in the pattern
    for k, slot in enumerate(pattern):
        if not fixed[k] and slot is not None:
            if slot in at:
                repeats.append((k, pattern.index(slot)))
            else:
                at[slot] = len(at) + 1
                new.append(k)
    s, _, o = fixed
    p = pattern.p
    # With the predicate constant, a repeated variable here is an open
    # subject and object, so no bound end: that pattern takes _match.
    if isinstance(p, Term) and (s or o) and None not in pattern:
        if o:
            subjects = graph._by_object(p)
            if s:
                return [row for row in rows if row[s] in subjects.get(row[o], ())]
            return [row + (x,) for row in rows for x in subjects.get(row[o], ())]
        spo, no_edges = graph._spo, {}
        return [row + (x,) for row in rows for x in spo.get(row[s], no_edges).get(p, ())]
    probe = itemgetter(*fixed)
    match = graph._match
    if not new:
        return [row for row in rows if match(*probe(row))]
    # The new slots of a matched triple, as one slice: any one, two or all three.
    cut = slice(new[0], new[-1] + 1, new[-1] - new[0] if len(new) == 2 else 1)
    return [
        row + triple[cut]
        for row in rows
        for triple in match(*probe(row))
        if not repeats or all(triple[k] is triple[j] for k, j in repeats)
    ]


class SelectQuery(NamedTuple):
    patterns: tuple[TriplePattern, ...]
    variables: tuple[str, ...]  # in first-appearance order


def parse_select(text: str, catalog: NameCatalog | None = None) -> SelectQuery:
    """Parse '?s p o . ?s p2 ?o2' style conjunctive patterns.

    Each pattern is three terms: ``?variables``, names or ``<iri>``s.  A
    '.' separates patterns and may also end the query.  Position
    determines the name category: subjects and objects resolve as
    individuals (falling back to classes, for punned IRIs), predicates as
    properties.  All patterns must share variables transitively.
    """
    catalog = catalog_or_bundled(catalog)
    patterns: list[TriplePattern] = []
    starts: list[int] = []  # the index of each pattern's first token
    variables: dict[str, None] = {}  # in first-appearance order
    connected = True  # each pattern shares a variable with those before it, or brings none
    try:
        tokens = tokenize(text)
        cursor = TokenCursor(text, tokens, catalog)  # for resolving names, not for reading
        for start, stop in statements(tokens):
            if stop - start != 3:
                at = offsets(text)
                chunk = text[at[start]:at[stop]].strip()
                raise LexError(f"pattern must have exactly 3 terms, found {stop - start}: {chunk!r}", at[start])
            s, p, o = tokens[start:stop]
            patterns.append(TriplePattern(
                s if s[0] == "?" else iri(cursor.resolve(start, "an individual name", INDIVIDUALS)),
                _TYPE if p == "a" else p if p[0] == "?" else iri(cursor.resolve(start + 1, "a property name", PROPERTIES)),
                o if o[0] == "?" else iri(cursor.resolve(start + 2, "an individual name", INDIVIDUALS)),
            ))
            starts.append(start)
            before = len(variables)
            shares = not variables.keys().isdisjoint((s, p, o))  # only variables are keys
            for token in (s, p, o):
                if token[0] == "?":
                    variables[token] = None
            if before and not shares and len(variables) > before:
                connected = False
        if not patterns:
            raise LexError("select query has no patterns", len(text))
        if not connected:  # the patterns may still meet through a later one
            _check_connected(cursor, patterns, starts)
    except LexError as exc:
        raise QueryParseError(str(exc), exc.offset) from None
    return SelectQuery(tuple(patterns), tuple(variables))


def _check_connected(cursor: TokenCursor, patterns: list[TriplePattern], starts: list[int]) -> None:
    """Raise unless the patterns' variables form one connected group; the
    error points at the first pattern outside the first group."""
    merged: list[tuple[int, set[str]]] = []  # (first pattern's token index, variables)
    for start, pattern in zip(starts, patterns):
        group = set(pattern.variables())
        if not group:
            continue
        for hit in [m for m in merged if m[1] & group]:
            group |= hit[1]
            start = min(start, hit[0])
            merged.remove(hit)
        merged.append((start, group))
    if len(merged) > 1:
        names = " / ".join(",".join(sorted(group)) for _, group in merged)
        second = sorted(start for start, _ in merged)[1]
        raise cursor.error(f"select patterns are not connected; variable groups: {names}", second)


def select(query: SelectQuery, graph: Graph) -> list[tuple[str, ...]]:
    """Evaluate a conjunctive query; rows are sorted and duplicate-free.

    An empty variable list yields one empty row when every ground pattern
    holds, and no rows otherwise.
    """
    at, rows = _join(query.patterns, graph, {})
    if not query.variables:
        return [()] if rows else []
    # Render a column at a time, then pair the columns up into rows.
    columns = [_rendered(map(itemgetter(at[var]), rows)) for var in query.variables]
    return sorted(set(zip(*columns)))


def render_term(term: Term) -> str:
    """A term as the package prints it in results: an IRI as its value, a
    blank node as ``_:label``, a literal in N-Triples form."""
    return term.value if term.kind == "iri" else term.n3()


def _rendered(terms: Iterable[Term]) -> list[str]:
    """Each term as :func:`render_term` prints it, with no call per IRI."""
    return [term.value if term.kind == "iri" else term.n3() for term in terms]


# ---------------------------------------------------------------------------
# Query text to answer


def answer(
    text: str, mode: str, graph: Graph, schema: SchemaIndex, catalog: NameCatalog
) -> tuple[tuple[str, ...] | None, list]:
    """Parse query text in ``mode`` and evaluate it over a materialized
    graph: the variables and sorted rows of a ``select``, or None and the
    sorted answers of a class expression in ``instances`` or ``classes``
    mode.  Raises ValueError for any other mode."""
    if mode == "select":
        query = parse_select(text, catalog)
        return query.variables, select(query, graph)
    expr = parse_class_expression(text, catalog)
    if mode == "instances":
        return None, retrieve_instances(expr, graph)
    if mode == "classes":
        return None, retrieve_classes(expr, schema, graph)
    raise ValueError(f"unknown query mode: {mode!r}")
