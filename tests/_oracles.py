"""Independent brute-force oracles.

Each oracle answers the same question as a production code path but by the
most direct method available (per-candidate recursion, full grounding
enumeration, cartesian products), sharing no logic with the code under
test.  Equivalence suites drive both sides over seeded random inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from urllib.parse import urljoin

from applekit.graph import Graph
from applekit.query import And, Anything, LexError, Named, OneOf, SelectQuery, Some
from applekit.rules import Rule
from applekit.schema import NameCatalog, SchemaIndex, local_name
from applekit.terms import (
    BUILTIN_NAMESPACES,
    OWL_DISJOINT_WITH,
    OWL_INVERSE_OF,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    XSD_STRING,
    PrefixMap,
    StructuralError,
    Term,
    Triple,
    blank,
    iri,
    literal,
    valid_local_name,
)
from applekit.turtle import ParseDiagnostic, ParsedDocument, TurtleParseError, _lex, parse_document

_TYPE = iri(RDF_TYPE)
_SUBCLASS = iri(RDFS_SUBCLASSOF)


# The characters N-Triples writes as a two-character escape in a literal.
_NAMED_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def ntriples_term(term: Term) -> str:
    """A term's N-Triples text, written out from the rule rather than read
    from the term: ``<v>`` for an IRI, ``_:v`` for a blank node, and for a
    literal its quoted value, where a backslash, a quote, a line feed, a
    carriage return and a tab take a two-character escape and every other
    character below U+0020 ``\\uXXXX``, then ``@tag``, or ``^^<dt>`` for a
    datatype other than ``xsd:string``."""
    if term.is_iri():
        return f"<{term.value}>"
    if term.is_blank():
        return f"_:{term.value}"
    quoted = ['"']
    for ch in term.value:
        if ch in _NAMED_ESCAPES:
            quoted.append(_NAMED_ESCAPES[ch])
        elif ord(ch) < 0x20:
            quoted.append("\\u%04X" % ord(ch))
        else:
            quoted.append(ch)
    quoted.append('"')
    if term.lang is not None:
        quoted.append("@" + term.lang)
    elif term.datatype is not None and term.datatype != XSD_STRING:
        quoted.append(f"^^<{term.datatype}>")
    return "".join(quoted)


def render_node(term: Term) -> str:
    return term.value if term.is_iri() else ntriples_term(term)


def compress_by_scan(prefixes: PrefixMap, iri_value: str) -> str | None:
    """``PrefixMap.compress`` by testing every binding: the longest namespace
    that leaves a valid local name, then the smallest prefix."""
    best: tuple[int, str, str] | None = None
    for prefix, namespace in prefixes.items():
        if iri_value.startswith(namespace) and len(namespace) < len(iri_value):
            local = iri_value[len(namespace):]
            if not valid_local_name(local):
                continue
            if best is None or len(namespace) > best[0] or (len(namespace) == best[0] and prefix < best[1]):
                best = (len(namespace), prefix, local)
    if best is None:
        return None
    return f"{best[1]}:{best[2]}"


# ---------------------------------------------------------------------------
# Class-expression satisfaction, one candidate at a time


def satisfies(term: Term, expr, graph: Graph) -> bool:
    if isinstance(expr, Named):
        return Triple(term, _TYPE, iri(expr.iri)) in graph if not term.is_literal() else False
    if isinstance(expr, OneOf):
        return term.is_iri() and term.value in expr.iris
    if isinstance(expr, Anything):
        # owl:Thing denotes the graph's universe: mentioned non-literal terms.
        return not term.is_literal() and (bool(graph.match(term, None, None)) or bool(graph.match(None, None, term)))
    if isinstance(expr, And):
        return all(satisfies(term, part, graph) for part in expr.parts)
    if isinstance(expr, Some):
        if term.is_literal():
            return False
        prop = iri(expr.path.iri)
        if not expr.path.inverted:
            for edge in graph.match(term, prop, None):
                if isinstance(expr.filler, Anything) or satisfies(edge.o, expr.filler, graph):
                    return True
            return False
        for edge in graph.match(None, prop, term):
            if isinstance(expr.filler, Anything) or satisfies(edge.s, expr.filler, graph):
                return True
        return False
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _nominal_terms(expr) -> set[Term]:
    if isinstance(expr, OneOf):
        return {iri(value) for value in expr.iris}
    if isinstance(expr, And):
        return set().union(*(_nominal_terms(part) for part in expr.parts))
    if isinstance(expr, Some):
        return _nominal_terms(expr.filler)
    return set()


def brute_instances(expr, graph: Graph) -> list[str]:
    # Scan the triples rather than read Graph._nodes, which production uses.
    candidates = _nominal_terms(expr)
    for triple in graph:
        candidates.add(triple.s)
        if triple.o.kind != "literal":
            candidates.add(triple.o)
    found = [term for term in candidates if satisfies(term, expr, graph)]
    return sorted(render_node(term) for term in found)


# ---------------------------------------------------------------------------
# Class retrieval, one candidate class at a time


def _ancestors(node: str, pairs) -> set[str]:
    """``node`` and everything above it, by walking the ``(child, parent)``
    pairs from ``node`` until no new parent turns up."""
    seen = {node}
    frontier = [node]
    while frontier:
        child = frontier.pop()
        for below, above in pairs:
            if below == child and above not in seen:
                seen.add(above)
                frontier.append(above)
    return seen


def brute_closure(pairs, down: bool = False) -> dict[str, frozenset[str]]:
    """``schema._closure``: each node with a step, up or, with ``down``,
    down, mapped to everything above each of its steps (the step itself
    included), reflexive pairs skipped, by one :func:`_ancestors` walk
    per step."""
    steps = {(parent, child) if down else (child, parent) for child, parent in pairs if child != parent}
    reach: dict[str, set[str]] = {}
    for node, nxt in steps:
        reach.setdefault(node, set()).update(_ancestors(nxt, steps))
    return {node: frozenset(found) for node, found in reach.items()}


def brute_classes(expr, schema: SchemaIndex, graph: Graph) -> list[str]:
    """``query.retrieve_classes`` by testing each declared class against the
    definition in the ``query`` module docstring, over closures this oracle
    walks itself.  An object of a class-level edge is tested with the
    instance oracle :func:`satisfies`."""

    def below(sub: str, sup: str, pairs) -> bool:
        return sup in _ancestors(sub, pairs)

    def accepts(obj: Term, filler) -> bool:
        if isinstance(filler, Anything):
            return True
        return not obj.is_literal() and instance_or_class(obj, filler)

    def instance_or_class(obj: Term, filler) -> bool:
        if isinstance(filler, And):
            return all(instance_or_class(obj, part) for part in filler.parts)
        if isinstance(filler, Named) and obj.is_iri() and obj.value in schema.classes:
            if below(obj.value, filler.iri, schema.sub_class_of):
                return True
        return satisfies(obj, filler, graph)

    def holds(cls: str, expr) -> bool:
        if isinstance(expr, Named):
            return below(cls, expr.iri, schema.sub_class_of)
        if isinstance(expr, OneOf):
            return cls in expr.iris
        if isinstance(expr, Anything):
            return True
        if isinstance(expr, And):
            return all(holds(cls, part) for part in expr.parts)
        if isinstance(expr, Some):
            path = expr.path
            if path.inverted:
                return any(
                    t.o.is_iri() and t.o.value == cls
                    and below(t.p.value, path.iri, schema.sub_property_of) and accepts(t.s, expr.filler)
                    for t in schema.class_level_triples
                )
            lineage = _ancestors(cls, schema.sub_class_of)
            return any(
                ob.on_class in lineage
                and below(ob.property, path.iri, schema.sub_property_of) and holds(ob.filler, expr.filler)
                for ob in schema.obligations
            ) or any(
                t.s.value in lineage
                and below(t.p.value, path.iri, schema.sub_property_of) and accepts(t.o, expr.filler)
                for t in schema.class_level_triples
            )
        raise TypeError(f"unknown expression node {type(expr).__name__}")

    return sorted(cls for cls in schema.classes if holds(cls, expr))


# ---------------------------------------------------------------------------
# Rule evaluation by full grounding enumeration


def _universe(graph: Graph, rules: list[Rule]) -> list[Term]:
    terms: set[Term] = set()
    for triple in graph:
        terms.add(triple.s)
        terms.add(triple.o)
    for rule in rules:
        for pattern in (*rule.positives, *rule.negatives, rule.head):
            terms.update(slot for slot in (pattern.s, pattern.o) if isinstance(slot, Term))
    return sorted(terms, key=Term.sort_key)


def _ground_pattern(pattern, assignment: dict[str, Term]):
    """The pattern's slots with each variable replaced by its assigned
    term; the wildcard stays None."""
    return tuple(assignment[slot] if isinstance(slot, str) else slot for slot in pattern)


def _pattern_holds(pattern, assignment: dict[str, Term], graph: Graph) -> bool:
    s, p, o = _ground_pattern(pattern, assignment)
    if s is not None and s.is_literal():
        return False
    return bool(graph.match(s, p, o))


def _body_assignments(rule: Rule, universe: list[Term], graph: Graph):
    """Every assignment of the rule's variables under which its body holds
    and its head has a non-literal subject: a triple cannot have a literal
    subject, so such an assignment derives nothing."""
    patterns = (*rule.positives, *rule.negatives, rule.head)
    variables = sorted({v for pattern in patterns for v in pattern.variables()})
    for combo in product(universe, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        if (
            all(_pattern_holds(pattern, assignment, graph) for pattern in rule.positives)
            and not any(_pattern_holds(pattern, assignment, graph) for pattern in rule.negatives)
            and not _ground_pattern(rule.head, assignment)[0].is_literal()
        ):
            yield assignment


def _ground_strata(graph: Graph, rules: list[Rule]):
    """Run each stratum to its fixpoint by full grounding; yield the
    stratum's rules, the term universe and the graph as the stratum leaves
    it."""
    out = graph.copy()
    universe = _universe(graph, rules)
    for stratum in sorted({rule.stratum for rule in rules}):
        group = [rule for rule in rules if rule.stratum == stratum]
        while True:
            changed = False
            for rule in group:
                for assignment in list(_body_assignments(rule, universe, out)):
                    if out.insert(Triple(*_ground_pattern(rule.head, assignment))):
                        changed = True
            if not changed:
                break
        yield group, universe, out


def stratification_violations(rules: list[Rule]) -> list[tuple[str, str, bool]]:
    """Every (reading rule id, read rule id, negated) whose strata break
    stratification.  A body pattern that overlaps another rule's head
    (slot by slot, no two constants differ) needs that rule in the same
    or a lower stratum, and strictly lower when the pattern is negated."""

    def overlap(a, b) -> bool:
        for x, y in zip(a, b):
            if isinstance(x, Term) and isinstance(y, Term) and x != y:
                return False
        return True

    broken = []
    for reader in rules:
        for negated, patterns in ((False, reader.positives), (True, reader.negatives)):
            for read in rules:
                if not any(overlap(pattern, read.head) for pattern in patterns):
                    continue
                if read.stratum > reader.stratum or (negated and read.stratum == reader.stratum):
                    broken.append((reader.id, read.id, negated))
    return broken


def ground_fixpoint(graph: Graph, rules: list[Rule]) -> Graph:
    """Evaluate stratified rules by enumerating every variable assignment."""
    out = graph.copy()
    for _, _, out in _ground_strata(graph, rules):
        pass
    return out


def ground_firings(graph: Graph, rules: list[Rule]) -> set[tuple[str, tuple[tuple[str, Term], ...]]]:
    """Every (rule id, sorted bindings) whose body holds in the graph at the
    end of that rule's stratum and whose head subject is not a literal."""
    firings = set()
    for group, universe, out in _ground_strata(graph, rules):
        for rule in group:
            for assignment in _body_assignments(rule, universe, out):
                firings.add((rule.id, tuple(sorted(assignment.items()))))
    return firings


# ---------------------------------------------------------------------------
# Conjunctive select by enumerating every assignment of the variables


def brute_solutions(patterns, graph: Graph, start: dict[str, Term] | None = None) -> list[dict[str, Term]]:
    """Every extension of ``start`` under which all the patterns hold: give
    each other variable every term of the graph in turn, and test a pattern
    against the set of stated triples once all its variables have a value."""
    stated = {(triple.s, triple.p, triple.o) for triple in graph}
    universe = sorted({term for spo in stated for term in spo}, key=Term.sort_key)
    assignment = dict(start or {})
    variables = [v for v in dict.fromkeys(v for pattern in patterns for v in pattern.variables()) if v not in assignment]
    # tests[i]: the patterns whose variables all have a value once variables[:i] do.
    tests: list[list] = [[] for _ in range(len(variables) + 1)]
    for pattern in patterns:
        tests[max((variables.index(v) + 1 for v in pattern.variables() if v in variables), default=0)].append(pattern)
    found: list[dict[str, Term]] = []

    def assign(index: int) -> None:
        if not all(
            tuple(assignment[slot] if isinstance(slot, str) else slot for slot in pattern) in stated
            for pattern in tests[index]
        ):
            return
        if index == len(variables):
            found.append(dict(assignment))
            return
        for term in universe:
            assignment[variables[index]] = term
            assign(index + 1)
        assignment.pop(variables[index], None)

    assign(0)
    return found


def brute_select(query: SelectQuery, graph: Graph) -> list[tuple[str, ...]]:
    """The sorted, duplicate-free projections of :func:`brute_solutions`."""
    rows = {tuple(render_node(found[v]) for v in query.variables) for found in brute_solutions(query.patterns, graph)}
    return sorted(rows)


# ---------------------------------------------------------------------------
# Materialization by naive re-application to a snapshot


def naive_materialize(graph: Graph, schema: SchemaIndex) -> Graph:
    """Materialize by re-applying every single-step entailment to the whole
    graph until nothing changes.  The graph's own subclass, subproperty,
    domain, range and inverse edges between IRIs count as axioms, next to
    the schema's; a range in a built-in namespace types nothing."""
    out = graph.copy()

    for child, parent in schema.sub_class_of:
        if child != parent:
            out.insert(Triple(iri(child), _SUBCLASS, iri(parent)))

    def stated(predicate):
        return {(t.s.value, t.o.value) for t in graph.match(None, iri(predicate), None) if t.s.is_iri() and t.o.is_iri()}

    def asserted(pairs, predicate):
        return {(a, b) for a, b in set(pairs) | stated(predicate) if a != b}

    def pairs(axioms):
        return {(p, c) for p, classes in axioms.items() for c in classes}

    asserted_subclass = asserted(schema.sub_class_of, RDFS_SUBCLASSOF)
    asserted_subprop = asserted(schema.sub_property_of, RDFS_SUBPROPERTYOF)
    domain_pairs = pairs(schema.domain_of) | stated(RDFS_DOMAIN)
    range_pairs = pairs(schema.range_of) | {
        (p, c) for p, c in stated(RDFS_RANGE) if not c.startswith(BUILTIN_NAMESPACES)
    }
    inverse_pairs = set(schema.inverse_of) | stated(OWL_INVERSE_OF)

    while True:
        additions: list[Triple] = []
        for triple in out:
            predicate = triple.p.value
            if predicate == RDFS_SUBCLASSOF and triple.s.is_iri() and triple.o.is_iri():
                for child, parent in asserted_subclass:
                    if child == triple.o.value and parent != triple.s.value:
                        additions.append(Triple(triple.s, _SUBCLASS, iri(parent)))
            if predicate == RDF_TYPE and triple.o.is_iri():
                for child, parent in asserted_subclass:
                    if child == triple.o.value:
                        additions.append(Triple(triple.s, _TYPE, iri(parent)))
            for child, parent in asserted_subprop:
                if child == predicate:
                    additions.append(Triple(triple.s, iri(parent), triple.o))
            for prop, cls in domain_pairs:
                if prop == predicate:
                    additions.append(Triple(triple.s, _TYPE, iri(cls)))
            if not triple.o.is_literal():
                for prop, cls in range_pairs:
                    if prop == predicate:
                        additions.append(Triple(triple.o, _TYPE, iri(cls)))
                for a, b in inverse_pairs:
                    if predicate == a:
                        additions.append(Triple(triple.o, iri(b), triple.s))
                    if predicate == b:
                        additions.append(Triple(triple.o, iri(a), triple.s))
        changed = False
        for new_triple in additions:
            changed = out.insert(new_triple) or changed
        if not changed:
            return out


# ---------------------------------------------------------------------------
# Validation by scanning every triple for every node


def brute_violations(graph: Graph, schema: SchemaIndex, mode: str = "closed") -> list[tuple]:
    """Both validator checks over the naive materialization, node by node:
    (kind, severity, subject, detail) tuples, sorted.  Disjoint pairs are
    read from the graph's own ``owl:disjointWith`` triples."""
    disjoint = {
        tuple(sorted((t.s.value, t.o.value)))
        for t in graph
        if t.p.value == OWL_DISJOINT_WITH and t.s.is_iri() and t.o.is_iri() and t.s != t.o
    }
    triples = set(naive_materialize(graph, schema))
    nodes = {t.s for t in triples} | {t.o for t in triples if not t.o.is_literal()}
    found = set()
    for node in nodes:
        types = {t.o.value for t in triples if t.s == node and t.p == _TYPE}
        for first, second in disjoint:
            if first in types and second in types:
                found.add(("disjointness-clash", "error", render_node(node), (first, second)))
        if mode != "closed":
            continue
        for ob in schema.obligations:
            witnessed = any(
                t.s == node and t.p.value == ob.property and Triple(t.o, _TYPE, iri(ob.filler)) in triples
                for t in triples
                if not t.o.is_literal()
            )
            if ob.on_class in types and not witnessed:
                found.add(("unsatisfied-obligation", "warning", render_node(node), (ob.on_class, ob.property, ob.filler)))
    return sorted(found)


# ---------------------------------------------------------------------------
# Term-ordered reads and canonical N-Triples by one flat sort


def flat_sorted(triples) -> list[Triple]:
    """The distinct triples, sorted by their nested key, as one list."""
    return sorted(set(triples), key=Triple.sort_key)


def flat_ntriples(triples) -> str:
    """Canonical N-Triples text: one line per distinct triple, all three
    terms rendered on every line, in the flat sort's order."""
    return "".join(f"{ntriples_term(t.s)} {ntriples_term(t.p)} {ntriples_term(t.o)} .\n" for t in flat_sorted(triples))


def flat_turtle(triples, prefixes: PrefixMap) -> str:
    """``serialize_turtle``'s text in the flat sort's order: every binding
    as a ``@prefix`` line, then one statement per subject, its ``rdf:type``
    objects first after ``a``, then each predicate's objects, with every
    name that :func:`compress_by_scan` shortens written prefixed."""

    def render(term: Term) -> str:
        if term.is_iri():
            return compress_by_scan(prefixes, term.value) or f"<{term.value}>"
        if term.is_literal() and term.datatype is not None:
            datatype = compress_by_scan(prefixes, term.datatype)
            if datatype is not None:
                return f"{ntriples_term(literal(term.value))}^^{datatype}"
        return ntriples_term(term)

    statements: dict[Term, dict[Term, list[str]]] = {}
    for t in flat_sorted(triples):
        statements.setdefault(t.s, {}).setdefault(t.p, []).append(render(t.o))
    out = [f"@prefix {prefix}: <{namespace}> .\n" for prefix, namespace in prefixes.items()]
    for subject, by_predicate in statements.items():
        parts = [f"a {', '.join(by_predicate.pop(_TYPE))}"] if _TYPE in by_predicate else []
        parts += [f"{render(p)} {', '.join(objects)}" for p, objects in by_predicate.items()]
        out.append(f"\n{render(subject)} " + " ;\n    ".join(parts) + " .\n")
    return "".join(out) or "\n"  # an empty document is one line break


# ---------------------------------------------------------------------------
# Turtle tokens, one character at a time
#
# The character-walking Turtle lexer that applekit.turtle used before its
# master regex, with the same check that a \u or \U escape names a Unicode
# scalar value.  It tracks line and column as it walks, and every token
# carries both.  The differential tests in test_fuzz.py require the two
# lexers to agree on every token and every diagnostic.


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
class CharToken:
    kind: str
    value: object
    line: int
    column: int


class CharLexer:
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

    def tokens(self) -> list[CharToken]:
        out = []
        while True:
            token = self._next_token()
            out.append(token)
            if token.kind == "eof":
                return out

    def _next_token(self) -> CharToken:
        self._skip_space_and_comments()
        if self.pos >= len(self.text):
            return CharToken("eof", None, self.line, self.column)
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
            return CharToken("dot", ".", line, column)
        if ch == ";":
            self._advance()
            return CharToken("semi", ";", line, column)
        if ch == ",":
            self._advance()
            return CharToken("comma", ",", line, column)
        if ch == "^":
            if self._peek(1) == "^":
                self._advance()
                self._advance()
                return CharToken("caret", "^^", line, column)
            raise self.error("stray '^' (expected '^^' before a datatype IRI)", line, column)
        if ch == "@":
            return self._lex_at_word(line, column)
        if ch == "_" and self._peek(1) == ":":
            return self._lex_blank(line, column)
        if ch in _NAME_START or ch == ":":
            return self._lex_name(line, column)
        raise self.error(f"unexpected character {ch!r}", line, column)

    def _lex_iriref(self, line: int, column: int) -> CharToken:
        self._advance()  # <
        chars = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated IRI (missing '>')", line, column)
            ch = self._advance()
            if ch == ">":
                return CharToken("iriref", "".join(chars), line, column)
            if ch in '<"{}|^`\\' or ch <= " ":
                raise self.error(f"character {ch!r} is not allowed inside an IRI", line, column)
            chars.append(ch)

    def _lex_string(self, line: int, column: int) -> CharToken:
        self._advance()  # opening quote
        chars = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string literal", line, column)
            ch = self._advance()
            if ch == '"':
                return CharToken("string", "".join(chars), line, column)
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
            code = int(digits, 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise self.error(f"invalid \\{ch} escape (U+{code:04X} is not a Unicode scalar value)", self.line, self.column)
            for _ in range(width):
                self._advance()
            return chr(code)
        raise self.error(f"unknown escape sequence '\\{ch}'", self.line, self.column)

    def _lex_at_word(self, line: int, column: int) -> CharToken:
        self._advance()  # @
        word = self._take_name_run()
        word, pushed = self._strip_trailing_dots(word)
        self._push_back(pushed)
        if word == "prefix":
            return CharToken("prefix_kw", word, line, column)
        if word == "base":
            return CharToken("base_kw", word, line, column)
        parts = word.split("-")
        if word and word[0].isalpha() and all(part.isalnum() for part in parts):
            return CharToken("langtag", word, line, column)
        raise self.error(f"unknown directive or language tag '@{word}'", line, column)

    def _lex_blank(self, line: int, column: int) -> CharToken:
        self._advance()  # _
        self._advance()  # :
        label = self._take_name_run()
        label, pushed = self._strip_trailing_dots(label)
        if not label:
            raise self.error("blank node label must be non-empty", line, column)
        if label[0] in "-.":
            raise self.error(f"blank node label cannot start with {label[0]!r}", line, column)
        self._push_back(pushed)
        return CharToken("blank", label, line, column)

    def _lex_name(self, line: int, column: int) -> CharToken:
        prefix = self._take_name_run()
        if self._peek() == ":":
            self._advance()
            local = self._take_name_run()
            local, pushed = self._strip_trailing_dots(local)
            self._push_back(pushed)
            return CharToken("pname", (prefix, local), line, column)
        prefix, pushed = self._strip_trailing_dots(prefix)
        self._push_back(pushed)
        if prefix == "a":
            return CharToken("a", "a", line, column)
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


# ---------------------------------------------------------------------------
# Query and rule tokens, one character at a time
#
# A reference for applekit.query.tokenize, written from the token shapes
# rather than from the lexer's regex, and walking the text as CharLexer
# walks Turtle.  A token is its text and the offset of its first character;
# where no token starts, the lexer raises LexError with that offset.  The
# differential test in test_fuzz.py requires the two lexers to agree on
# every token, offset and error.


def _word(ch: str) -> bool:
    """Is ``ch`` a regex ``\\w`` character: a Unicode letter or digit, or '_'?"""
    return ch.isalnum() or ch == "_"


class QueryCharLexer:
    """The tokens of the query and rule languages: ``<iri>``, ``?variable``,
    names, ``->`` and ``( ) { } , .``, after whitespace and ``#`` comments."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def tokens(self) -> list[tuple[str, int]]:
        out = []
        while True:
            self._skip_space_and_comments()
            if self.pos >= len(self.text):
                return out
            start = self.pos
            self._next_token()
            out.append((self.text[start:self.pos], start))

    def _skip_space_and_comments(self) -> None:
        while self.pos < len(self.text):
            ch = self._peek()
            if ch.isspace():
                self.pos += 1
            elif ch == "#":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self.pos += 1
            else:
                return

    def _next_token(self) -> None:
        ch = self._peek()
        if ch == "<":
            end = self.pos + 1
            while end < len(self.text) and self.text[end] != ">":
                end += 1
            if end == len(self.text):
                raise LexError("unterminated '<'", self.pos)
            self.pos = end + 1
        elif ch == "?":
            if not _word(self._peek(1)):
                raise LexError("'?' must be followed by a variable name", self.pos)
            self.pos += 1
            while _word(self._peek()):
                self.pos += 1
        elif ch == "-" and self._peek(1) == ">":
            self.pos += 2
        elif ch in "(){},.":
            self.pos += 1
        elif _word(ch) or ch == ":":
            self._name()
        else:
            raise LexError(f"unexpected character {ch!r}", self.pos)

    def _continues_name(self, offset: int) -> bool:
        """Does the character at ``offset`` ahead go on with a name?  A '-'
        does unless it starts '->'."""
        ch = self._peek(offset)
        return _word(ch) or ch == ":" or (ch == "-" and self._peek(offset + 1) != ">")

    def _name(self) -> None:
        # A name may hold '.' runs, but a run must be followed by more of the
        # name: a name never ends in '.'.
        while True:
            dots = 0
            while self._peek(dots) == ".":
                dots += 1
            if not self._continues_name(dots):
                return
            self.pos += dots + 1


# ---------------------------------------------------------------------------
# Turtle parsing over a whole-document token list
#
# The recursive-descent parser that applekit.turtle used before its step
# loop: it lexes the whole text into a token list first, so a lexical
# error anywhere wins over any grammar error, then walks the list.  One
# change: a relative IRI that a declared base cannot resolve names that
# base.  Its tokens come from turtle._lex one at a time, and test_fuzz.py
# checks those against CharLexer above.  The differential tests in
# test_fuzz.py and test_turtle.py require the two parsers to agree on the
# graph, prefixes and base, or on the diagnostic.


def tokenize(text: str) -> list[tuple[str, object, int]]:
    """The tokens of a Turtle document, ending with one ``eof`` token."""
    tokens, pos = [], 0
    while True:
        token, pos = _lex(text, pos)
        tokens.append(token)
        if token[0] == "eof":
            return tokens


def _token_error(text: str, offset: int, message: str) -> TurtleParseError:
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return TurtleParseError(ParseDiagnostic(line, column, message))


def _describe(token) -> str:
    kind, value, _ = token
    if kind == "eof":
        return "end of input"
    if kind == "pname":
        prefix, local = value
        return f"'{prefix}:{local}'"
    return f"'{value}'"


class TokenListParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0
        self.prefixes = PrefixMap()
        self.base: str | None = None
        self.graph = Graph()

    def error(self, message: str, token=None) -> TurtleParseError:
        token = token or self.tokens[self.index]
        return _token_error(self.text, token[2], message)

    def _peek(self):
        return self.tokens[self.index]

    def _next(self):
        token = self.tokens[self.index]
        if token[0] != "eof":
            self.index += 1
        return token

    def _expect(self, kind: str, what: str):
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
        except StructuralError as exc:
            raise self.error(str(exc), name_token) from None
        self._expect("dot", "'.' after the @prefix directive")

    def _parse_base_directive(self) -> None:
        self._next()
        iri_token = self._expect("iriref", "a base IRI in angle brackets")
        self.base = self._resolve_iri(iri_token)
        self._expect("dot", "'.' after the @base directive")

    def _resolve_iri(self, token) -> str:
        raw = token[1]
        try:
            resolved = urljoin(self.base, raw) if self.base is not None else raw
        except ValueError:  # a '[' host left open
            resolved = ""
        if ":" not in resolved:
            if self.base is None:
                raise self.error(f"relative IRI <{raw}> needs a @base declaration", token)
            raise self.error(f"relative IRI <{raw}> cannot be resolved against base <{self.base}>", token)
        return resolved

    def _parse_triples(self) -> None:
        subject = self._parse_subject()
        self._parse_predicate_object_list(subject)
        self._expect("dot", "'.' to end the statement")

    def _parse_predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self._parse_verb()
            while True:
                self.graph.insert(Triple(subject, predicate, self._parse_object()))
                if self._peek()[0] != "comma":
                    break
                self._next()
            if self._peek()[0] != "semi":
                return
            self._next()
            # A ';' run goes on to a verb, or ends the list before '.'.
            while self._peek()[0] == "semi":
                self._next()
            if self._peek()[0] == "dot":
                return

    def _parse_subject(self) -> Term:
        token = self._next()
        kind = token[0]
        if kind == "pname":
            return iri(self._expand_pname(token))
        if kind == "iriref":
            return iri(self._resolve_iri(token))
        if kind == "blank":
            return blank(token[1])
        raise self.error(f"expected a subject (IRI, prefixed name, or blank node), found {_describe(token)}", token)

    def _parse_verb(self) -> Term:
        token = self._next()
        kind = token[0]
        if kind == "pname":
            return iri(self._expand_pname(token))
        if kind == "a":
            return iri(RDF_TYPE)
        if kind == "iriref":
            return iri(self._resolve_iri(token))
        raise self.error(f"expected a predicate (IRI, prefixed name, or 'a'), found {_describe(token)}", token)

    def _parse_object(self) -> Term:
        token = self._next()
        kind = token[0]
        if kind == "pname":
            return iri(self._expand_pname(token))
        if kind == "string":
            return self._finish_literal(token[1])
        if kind == "iriref":
            return iri(self._resolve_iri(token))
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
            return literal(lexical, datatype=datatype)
        return literal(lexical)

    def _expand_pname(self, token) -> str:
        prefix, local = token[1]
        expanded = self.prefixes.expand(prefix, local)
        if expanded is None:
            raise self.error(f"undeclared prefix '{prefix}:'", token)
        return expanded


def _outcome(parse, text: str):
    try:
        document = parse(text)
    except TurtleParseError as err:
        return err.diagnostic
    return document.graph, document.prefixes.items(), document.base


def reference_parse(text: str):
    """The token-list parser's result as ``(graph, prefixes, base)``, or its
    diagnostic."""
    return _outcome(lambda t: TokenListParser(t).parse(), text)


def parsed(text: str):
    """``parse_document``'s result in the shape of :func:`reference_parse`."""
    return _outcome(parse_document, text)


# ---------------------------------------------------------------------------
# Name catalogs


def ambiguous_names(catalog: NameCatalog) -> dict[str, set[str]]:
    """Bare names that map to more than one IRI within a category."""
    out: dict[str, set[str]] = {}
    for table in catalog._by_category.values():
        for name, iris in table.items():
            if len(iris) > 1:
                out.setdefault(name, set()).update(iris)
    return out


def catalog_by_scan(graph: Graph, schema: SchemaIndex) -> dict[str, dict[str, set[str]]]:
    """``NameCatalog.from_graph``'s name tables, built one ``rdf:type``
    triple at a time: every class and property by local name, and every IRI
    subject typed into an IRI class outside the built-in namespaces that is
    not itself a class."""
    tables: dict[str, dict[str, set[str]]] = {"class": {}, "property": {}, "individual": {}}
    for category, values in (("class", schema.classes), ("property", schema.properties)):
        for value in values:
            tables[category].setdefault(local_name(value), set()).add(value)
    for t in graph.match(None, _TYPE, None):
        if not t.s.is_iri() or t.s.value in schema.classes or not t.o.is_iri():
            continue
        if not any(t.o.value.startswith(ns) for ns in BUILTIN_NAMESPACES):
            tables["individual"].setdefault(local_name(t.s.value), set()).add(t.s.value)
    return tables
