"""Stratified datalog-style rules over the triple store, and the moral
verdict classifier built on them.

A rule file is a sequence of '.'-terminated rules; ``#`` starts a comment::

    # severity gates the wrong-action verdict
    R1: Action(?a), violatesEthicalPrinciple(?a, ?p) -> MorallyWrongAction(?a) .

Each rule is ``id: body-atoms -> head-atom .`` where an atom is either
``Class(?v)`` or ``property(?v, ?w)``; arguments may be variables (``?x``),
the anonymous wildcard ``_``, bare or prefixed names resolved through a
:class:`~applekit.schema.NameCatalog`, or ``<absolute-iris>``.  ``not``
before a body atom negates it (negation as failure).  The lexer, cursor
and name resolver are :mod:`applekit.query`'s.  A :class:`RuleError`
starts ``line N:``, where N is the line of the first token of the
statement the error is about.

From parsing on, every atom is a :class:`~applekit.query.TriplePattern`:
``C(?x)`` is ``("x", rdf:type, C)``, so it and ``rdf:type(?x, C)`` are
one pattern, and ``p(?x, b)`` is ``("x", p, b)``.  A variable is its name
without the ``?``, the wildcard is None, and a constant is a Term.

Strata are computed, not declared, from pattern overlap: two patterns
overlap when, in each slot where both hold a constant, the constants are
equal.  A rule sits at or above every rule whose head one of its positive
patterns overlaps, and strictly above every rule whose head one of its
negated patterns overlaps.  Rules whose negations form a cycle are
rejected.  Evaluation runs strata in ascending order, each to its fixpoint
on :meth:`~applekit.graph.Graph._saturate`, the worklist the materializer
runs on too, and records a :class:`Firing` (rule id plus variable
bindings) for every distinct body match, so each derived triple can be
replayed.

A body is matched by the package's one join,
:func:`~applekit.query.solutions`.  A stratum starts with one join of each
rule's whole body.  Then each new triple is matched against the stratum's
positive patterns over its predicate whose constants it shares, and each
such body is joined again from the pattern's variables bound to the
triple's terms.  Negated patterns are checked after the join.

The canonical firing order, used for each verdict's firings, is by rule
id, then by the :meth:`~applekit.terms.Term.sort_key` of each bound term
in variable-name order.  It does not depend on evaluation order, so
``classify`` output is the same under every ``PYTHONHASHSEED`` and
wherever the terms lie in memory.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .graph import Graph
from .query import (
    CLASSES,
    INDIVIDUALS,
    PROPERTIES,
    LexError,
    TokenCursor,
    TriplePattern,
    offsets,
    solutions,
    statements,
    syntax_error,
    tokenize,
)
from .schema import catalog_or_bundled
from .terms import RDF_TYPE, RuleError, Term, Triple, VerdictConflictError, _Immutable, iri
from .vocab import ACTION, UPHOLDS_PRINCIPLE, VERDICT_CLASSES, VIOLATES_PRINCIPLE

_TYPE = iri(RDF_TYPE)


class Rule(NamedTuple):
    """``id: positives, not negatives -> head .`` with every atom a triple
    pattern: ``C(?x)`` is ``("x", rdf:type, C)`` and ``p(?x, b)`` is
    ``("x", p, b)``."""

    id: str
    positives: tuple[TriplePattern, ...]
    negatives: tuple[TriplePattern, ...]
    head: TriplePattern
    stratum: int = 0


class Firing(NamedTuple):
    """One successful body match: the rule, its bindings, and what it derived."""

    rule_id: str
    bindings: tuple[tuple[str, Term], ...]  # sorted by variable name
    derived: Triple


# ---------------------------------------------------------------------------
# Parsing


class _RuleParser(TokenCursor):
    """A reader of one rule statement: its tokens, then None."""

    __slots__ = ()

    def rule_id(self) -> str | None:
        """Read the leading 'id:'; 'R1:', 'R1 :' and 'R1:Action' all start
        rule R1.  None when the statement has no id."""
        first = self.next()
        if ":" not in first and (self.tokens[self.index] or "").startswith(":"):
            first += self.next()
        rule_id, colon, local = first.partition(":")
        if not colon or not rule_id or rule_id.startswith("<"):
            return None
        if local:  # the rest of the token is read next, in its place
            self.index -= 1
            self.tokens[self.index] = local
        return rule_id

    def parse(self, rule_id: str) -> Rule:
        positives: list[TriplePattern] = []
        negatives: list[TriplePattern] = []
        while True:
            if self.tokens[self.index] == "not":
                self.index += 1
                negatives.append(self.parse_atom())
            else:
                positives.append(self.parse_atom())
            if self.tokens[self.index] != ",":
                break
            self.index += 1
        self.expect("->")
        if self.tokens[self.index] == "not":
            raise self.error("negation is not allowed in a rule head", self.index)
        head = self.parse_atom()
        token = self.tokens[self.index]
        if token is not None:
            raise self.error(f"unexpected trailing token {token!r}", self.index)
        return Rule(rule_id, tuple(positives), tuple(negatives), head)

    def parse_atom(self) -> TriplePattern:
        """``C(s)`` as the pattern ``(s, rdf:type, C)``, ``p(s, o)`` as ``(s, p, o)``."""
        predicate = self.index
        self.next()
        self.expect("(")
        subject = self.parse_arg()
        if self.tokens[self.index] != ",":
            self.expect(")")
            return TriplePattern(subject, _TYPE, iri(self.resolve(predicate, "a class name", CLASSES)))
        self.index += 1
        obj = self.parse_arg()
        self.expect(")")
        return TriplePattern(subject, iri(self.resolve(predicate, "a property name", PROPERTIES)), obj)

    def parse_arg(self) -> Term | str | None:
        token = self.next()
        if token[0] == "?":
            return token[1:]
        if token == "_":
            return None
        return iri(self.resolve(self.index - 1, "an argument", INDIVIDUALS))


def _overlap(a: TriplePattern, b: TriplePattern) -> bool:
    """Could one triple match both patterns?  Slot by slot, two constants
    must be equal; a variable or wildcard on either side matches anything.
    A repeated variable is not checked, which can only add a dependency."""
    for k in (1, 0, 2):  # the predicate first, where most patterns differ
        x, y = a[k], b[k]
        if x is not y and isinstance(x, Term) and isinstance(y, Term):  # one Term per value
            return False
    return True


def _stratify(rules: list[Rule], starts: dict[str, int], text: str) -> list[Rule]:
    """Give each rule the lowest stratum at or above every rule whose head
    one of its positive patterns overlaps, and strictly above every rule
    whose head one of its negated patterns overlaps.  ``starts`` holds the
    index of the first token of each rule's statement in the tokens of
    ``text``; a cycle is reported there."""
    # (reading rule, rule read, 1 when read through negation else 0)
    needs = []
    for i, rule in enumerate(rules):
        for step, patterns in ((0, rule.positives), (1, rule.negatives)):
            for j, other in enumerate(rules):
                for pattern in patterns:
                    if _overlap(pattern, other.head):
                        needs.append((i, j, step))
                        break
    strata = [0] * len(rules)
    changed = True
    while changed:
        changed = False
        for i, j, step in needs:
            if strata[j] + step > strata[i]:
                strata[i] = strata[j] + step
                changed = True
                # Stratifiable rules need fewer strata than there are rules.
                if strata[i] >= len(rules):
                    rule_id = rules[i].id
                    message = f"rule {rule_id}: rules are not stratifiable (cycle through negation)"
                    raise syntax_error(text, starts[rule_id], message)
    return [rule._replace(stratum=stratum) for rule, stratum in zip(rules, strata)]


def parse_rules(text: str, catalog=None) -> list[Rule]:
    """Parse a rule file into stratified rules, in file order.

    ``catalog`` resolves bare names; when omitted, the catalog of the
    bundled assets is used.
    """
    catalog = catalog_or_bundled(catalog)
    rules: list[Rule] = []
    starts: dict[str, int] = {}  # the index of the first token of each rule's statement
    # An error names the line of the statement being read, from its first
    # token ``start``, or past the last one, of the error's own offset;
    # inside a rule it names the rule too (``where``).  The tokens are those
    # of ``lexed``: the text, or the part of it before a lexer error.
    lexed = text
    start: int | None = None
    where = ""
    try:
        try:
            tokens, lex_error = tokenize(text), None
        except LexError as exc:
            # The statements before a lexer error are read, and fail, first.
            # The text before the error has the same tokens on its own.
            lexed = text[:exc.offset]
            tokens, lex_error = tokenize(lexed), (exc.args[0], exc.offset)
        for start, stop in statements(tokens):
            if stop == len(tokens):  # no '.' ends the run
                if lex_error is not None:
                    raise LexError(*lex_error)
                at = offsets(lexed)[start]
                raise LexError(f"rule is missing its terminating '.': {text[at:].strip()[:60]!r}", at)
            parser = _RuleParser(lexed, [*tokens[start:stop], None], catalog, start)
            rule_id = parser.rule_id()
            if rule_id is None:
                at = offsets(lexed)
                raise LexError(f"rule must start with 'id:', found {text[at[start]:at[stop]].strip()[:40]!r}", at[start])
            if rule_id in starts:
                raise parser.error(f"duplicate rule id {rule_id!r}", 0)
            where = f"rule {rule_id}: "
            rule = parser.parse(rule_id)
            _check_safety(rule)
            where = ""
            rules.append(rule)
            starts[rule_id] = start
        start = None
        if lex_error is not None:
            raise LexError(*lex_error)
        return _stratify(rules, starts, lexed)
    except LexError as exc:
        line = text.count("\n", 0, exc.offset if start is None else offsets(lexed)[start]) + 1
        raise RuleError(f"line {line}: {where}{exc}") from None


def _check_safety(rule: Rule) -> None:
    # The errors are reported on the rule's statement, so their offset is 0.
    positive_vars = {slot for pattern in rule.positives for slot in pattern if isinstance(slot, str)}
    for slot in rule.head:
        if slot is None:
            raise LexError("'_' cannot appear in a rule head", 0)
        if isinstance(slot, str) and slot not in positive_vars:
            raise LexError(f"head variable ?{slot} is not bound by a positive body atom", 0)
    for pattern in rule.negatives:
        unbound = set(pattern.variables()) - positive_vars
        if unbound:
            raise LexError(
                f"variable ?{min(unbound)} appears only in a negated atom; bind it positively or use '_'", 0
            )


# ---------------------------------------------------------------------------
# Evaluation


def evaluate_with_provenance(graph: Graph, rules: list[Rule]) -> tuple[Graph, list[Firing]]:
    """Evaluate stratified rules to fixpoint; return the extended graph and
    one Firing per distinct (rule, binding) body match.

    A binding that grounds the head's subject to a literal derives nothing
    and records no Firing, since no triple has a literal subject.  Firings
    come in derivation order: strata ascending, then each rule's whole-body
    join, then the joins each new triple starts; the order within a join is
    unspecified.  The input graph is never mutated.
    """
    out = graph.copy()
    return out, _extend(out, rules)


def _extend(out: Graph, rules: list[Rule]) -> list[Firing]:
    """:func:`evaluate_with_provenance` on a graph the caller owns: the
    derived triples are inserted into ``out`` itself."""
    firings: list[Firing] = []
    seen: set[tuple[str, tuple[tuple[str, Term], ...]]] = set()

    def fire(rule: Rule, bindings: list[dict[str, Term]]) -> Iterator[tuple[Term, Term, Term]]:
        """Record a Firing for each new binding no negated pattern blocks; yield its head."""
        for binding in bindings:
            if any(out._match(*pattern.ground(binding)) for pattern in rule.negatives):
                continue
            bound = tuple(sorted(binding.items()))
            if (rule.id, bound) not in seen:
                seen.add((rule.id, bound))
                s, p, o = rule.head.ground(binding)
                if not s.is_literal():
                    firings.append(Firing(rule.id, bound, Triple(s, p, o)))
                    yield s, p, o

    for stratum in sorted({rule.stratum for rule in rules}):
        group = [rule for rule in rules if rule.stratum == stratum]
        # Each positive pattern under its predicate, a constant in every atom.
        readers: dict[Term, list[tuple[Rule, TriplePattern]]] = {}
        for rule in group:
            for pattern in rule.positives:
                readers.setdefault(pattern.p, []).append((rule, pattern))

        def derive(fact: tuple[Term, Term, Term]) -> Iterator[tuple[Term, Term, Term]]:
            """Join each body again from a pattern ``fact`` may match, its variables
            bound to the fact's terms; the join checks a repeated variable."""
            s, p, o = fact
            for rule, pattern in readers.get(p, ()):
                ps, _, po = pattern
                if (ps is s or not isinstance(ps, Term)) and (po is o or not isinstance(po, Term)):
                    start = {slot: term for slot, term in zip(pattern, fact) if isinstance(slot, str)}
                    yield from fire(rule, solutions(rule.positives, out, start))

        out._saturate([head for rule in group for head in fire(rule, solutions(rule.positives, out))], derive)
    return firings


def evaluate_rules(graph: Graph, rules: list[Rule]) -> Graph:
    """Evaluate rules over a (typically materialized) graph; pure function."""
    out, _ = evaluate_with_provenance(graph, rules)
    return out


class Verdict(_Immutable):
    """An action's verdict class and the rules that derived it.  Two
    verdicts are equal when all but their firings are; it cannot be changed."""

    __slots__ = ("action", "verdict_class", "fired_rules", "firings")
    _noun = "a Verdict"

    action: str
    verdict_class: str
    fired_rules: tuple[str, ...]
    firings: tuple[Firing, ...]

    def __init__(
        self, action: str, verdict_class: str, fired_rules: tuple[str, ...], firings: tuple[Firing, ...] = ()
    ) -> None:
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "verdict_class", verdict_class)
        object.__setattr__(self, "fired_rules", fired_rules)
        object.__setattr__(self, "firings", firings)

    def _compared(self) -> tuple:
        return (self.action, self.verdict_class, self.fired_rules)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Verdict:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self) -> int:
        return hash(self._compared())

    def __repr__(self) -> str:
        return (
            f"Verdict(action={self.action!r}, verdict_class={self.verdict_class!r}, "
            f"fired_rules={self.fired_rules!r}, firings={self.firings!r})"
        )

    def __reduce__(self) -> tuple:
        return (Verdict, (self.action, self.verdict_class, self.fired_rules, self.firings))


def _firing_order(firing: Firing) -> tuple:
    return (firing.rule_id, tuple(term.sort_key() for _, term in firing.bindings))


def classify_actions(graph: Graph, rules: list[Rule]) -> list[Verdict]:
    """Run the verdict rules and report one verdict per morally linked action.

    An action is morally linked when it is typed as an action and carries at
    least one upholds or violates edge.  Actions deriving into more than one
    verdict class raise :class:`VerdictConflictError`; actions matching no
    rule are omitted from the report.  Verdicts are sorted by action, and
    each verdict's firings by rule id, then by the sort keys of their bound
    terms in variable-name order.  The input graph is never mutated.
    """
    return _classify(graph.copy(), rules)


def _classify(final: Graph, rules: list[Rule]) -> list[Verdict]:
    """:func:`classify_actions` on a graph the caller owns: the rules'
    consequences are inserted into ``final`` itself."""
    firings = _extend(final, rules)
    by_derived: dict[Triple, list[Firing]] = {}
    for firing in firings:
        by_derived.setdefault(firing.derived, []).append(firing)
    action_type = iri(ACTION)
    verdict_types = [iri(vc) for vc in VERDICT_CLASSES]
    linked = {
        s
        for prop in (UPHOLDS_PRINCIPLE, VIOLATES_PRINCIPLE)
        for s, _, _ in final._match(None, iri(prop), None)
        if final._has(s, _TYPE, action_type)
    }
    verdicts: list[Verdict] = []
    for action in sorted(linked, key=Term.sort_key):
        found = [vc for vc in verdict_types if final._has(action, _TYPE, vc)]
        if len(found) > 1:
            raise VerdictConflictError(action.value, tuple(vc.value for vc in found))
        if not found:
            continue
        relevant = tuple(sorted(by_derived.get(Triple(action, _TYPE, found[0]), ()), key=_firing_order))
        rule_ids = tuple(sorted({f.rule_id for f in relevant}))
        verdicts.append(Verdict(action.value, found[0].value, rule_ids, relevant))
    return verdicts
