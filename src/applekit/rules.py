"""Stratified datalog-style rules over the triple store, and the moral
verdict classifier built on them.

A rule file is a sequence of '.'-terminated rules; ``#`` starts a comment::

    # severity gates the wrong-action verdict
    R1: Action(?a), violatesEthicalPrinciple(?a, ?p) -> MorallyWrongAction(?a) .

Each rule is ``id: body-atoms -> head-atom .`` where an atom is either
``Class(?v)`` or ``property(?v, ?w)``; arguments may be variables (``?x``),
the anonymous wildcard ``_``, bare or prefixed names resolved through a
:class:`~applekit.schema.NameCatalog`, or ``<absolute-iris>``.  ``not``
before a body atom negates it (negation as failure).

Strata are computed, not declared: a rule deriving predicate ``h`` must sit
strictly above every rule whose derived predicate ``h`` negates, and at or
above those it uses positively.  Rules whose negations form a cycle are
rejected.  Evaluation runs strata in ascending order, semi-naive within a
stratum, and records a :class:`Firing` (rule id plus variable bindings) for
every distinct body match, so each derived triple can be replayed.

Rule atoms are compiled once per evaluation into the triple patterns of
:mod:`applekit.query`, and a body is matched by its one join,
:func:`~applekit.query.solutions`.  Each round's new triples form a small
indexed graph (the delta), and the next round matches each positive atom
in turn against the delta first, so it looks up only the delta triples an
atom can match.  Negated atoms are checked after the join.

The canonical firing order, used for each verdict's firings, is by rule
id, then by the :meth:`~applekit.terms.Term.sort_key` of each bound term
in variable-name order.  It does not depend on evaluation order, so
``classify`` output is the same under every ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph
from .query import TriplePattern, solutions
from .schema import PUNCTUATION, LexError, Token, TokenCursor, tokenize
from .terms import RDF_TYPE, Term, Triple, iri
from .vocab import ACTION, UPHOLDS_PRINCIPLE, VERDICT_CLASSES, VIOLATES_PRINCIPLE

_TYPE = iri(RDF_TYPE)


class RuleError(Exception):
    """A rule file is syntactically or semantically unusable."""


class VerdictConflictError(RuleError):
    """An action was derived into more than one verdict class."""

    def __init__(self, action: str, classes: tuple[str, ...]) -> None:
        super().__init__(f"action {action} received contradictory verdicts: {', '.join(classes)}")
        self.action = action
        self.classes = classes


@dataclass(frozen=True)
class RuleArg:
    kind: str  # "var" | "const" | "any"
    value: str | None = None  # variable name or constant IRI

    def __str__(self) -> str:
        if self.kind == "var":
            return f"?{self.value}"
        if self.kind == "any":
            return "_"
        return f"<{self.value}>"


VAR = "var"
CONST = "const"
ANY = "any"


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[RuleArg, ...]
    negated: bool = False

    def __post_init__(self) -> None:
        if len(self.args) not in (1, 2):
            raise RuleError(f"atom over {self.predicate} must have 1 or 2 arguments")

    def is_class_atom(self) -> bool:
        return len(self.args) == 1

    def key(self) -> tuple[str, str]:
        """Predicate identity used for dependency analysis."""
        return ("class" if self.is_class_atom() else "prop", self.predicate)

    def variables(self) -> set[str]:
        return {arg.value for arg in self.args if arg.kind == VAR and arg.value is not None}


@dataclass(frozen=True)
class Rule:
    id: str
    body: tuple[Atom, ...]
    head: Atom
    stratum: int = 0


@dataclass(frozen=True)
class Firing:
    """One successful body match: the rule, its bindings, and what it derived."""

    rule_id: str
    bindings: tuple[tuple[str, Term], ...]  # sorted by variable name
    derived: Triple


# ---------------------------------------------------------------------------
# Parsing


def _statements(text: str):
    """Yield (line, tokens, end) for each '.'-terminated statement: the line
    of its first token, its tokens, and the offset of its '.'."""
    tokens: list[Token] = []
    line, counted = 1, 0  # newlines are counted up to offset `counted`

    def line_at(offset: int) -> int:
        nonlocal line, counted
        line += text.count("\n", counted, offset)
        counted = offset
        return line

    try:
        found, error = tokenize(text), None
    except LexError as exc:
        found, error = exc.tokens, exc
    # Statements before a lexer error are parsed, and fail, first.
    for token in found:
        if token.text != ".":
            tokens.append(token)
        elif tokens:
            yield line_at(tokens[0].offset), tokens, token.offset
            tokens = []
    if error is not None:
        raise RuleError(f"line {line_at((tokens[0] if tokens else error).offset)}: {error}")
    if tokens:
        leftover = text[tokens[0].offset:].strip()
        raise RuleError(f"line {line_at(tokens[0].offset)}: rule is missing its terminating '.': {leftover[:60]!r}")


def _split_rule_id(tokens: list[Token]) -> tuple[str | None, list[Token]]:
    """Split the leading 'id:' off a statement; 'R1:', 'R1 :' and
    'R1:Action' all start rule R1.  The id is None when there is none."""
    first, *rest = tokens
    if ":" not in first.text and rest and rest[0].text.startswith(":"):
        first, rest = Token((first.text + rest[0].text, first.offset)), rest[1:]
    rule_id, colon, local = first.text.partition(":")
    if not colon or not rule_id or rule_id.startswith("<"):
        return None, tokens
    if local:
        rest.insert(0, Token((local, first.offset + len(rule_id) + 1)))
    return rule_id, rest


class _RuleParser:
    def __init__(self, rule_id: str, tokens: list[Token], end: int, line: int, catalog) -> None:
        self.rule_id = rule_id
        self.line = line
        self.catalog = catalog
        self.cursor = TokenCursor(tokens, end, self.fail)

    def fail(self, message: str, offset: int | None = None) -> RuleError:
        return RuleError(f"line {self.line}: rule {self.rule_id}: {message}")

    def parse(self) -> tuple[tuple[Atom, ...], Atom]:
        body = [self.parse_atom(allow_not=True)]
        while self.cursor.peek() == ",":
            self.cursor.next()
            body.append(self.parse_atom(allow_not=True))
        self.cursor.expect("->")
        head = self.parse_atom(allow_not=False)
        if self.cursor.peek() is not None:
            raise self.fail(f"unexpected trailing token {self.cursor.peek()!r}")
        return tuple(body), head

    def parse_atom(self, allow_not: bool) -> Atom:
        negated = self.cursor.peek() == "not"
        if negated:
            if not allow_not:
                raise self.fail("negation is not allowed in a rule head")
            self.cursor.next()
        predicate = self.cursor.next()
        self.cursor.expect("(")
        args = [self.parse_arg()]
        if self.cursor.peek() == ",":
            self.cursor.next()
            args.append(self.parse_arg())
        self.cursor.expect(")")
        category = "class" if len(args) == 1 else "property"
        return Atom(self.cursor.resolve(predicate, self.catalog, category), tuple(args), negated)

    def parse_arg(self) -> RuleArg:
        token = self.cursor.next()
        if token.text.startswith("?"):
            return RuleArg(VAR, token.text[1:])
        if token.text == "_":
            return RuleArg(ANY)
        if token.text in PUNCTUATION:
            raise self.fail(f"expected an argument, found {token.text!r}")
        return RuleArg(CONST, self.cursor.resolve(token, self.catalog, "individual", "class"))


def _compute_strata(rules: list[tuple[str, tuple[Atom, ...], Atom]], line_of: dict[str, int]) -> dict[str, int]:
    idb = {head.key() for _, _, head in rules}
    stratum = {key: 0 for key in idb}
    limit = len(idb) + 1
    for _ in range(limit + 1):
        changed = False
        for rule_id, body, head in rules:
            head_key = head.key()
            needed = stratum[head_key]
            for atom in body:
                key = atom.key()
                if key not in idb:
                    continue
                lower_bound = stratum[key] + 1 if atom.negated else stratum[key]
                needed = max(needed, lower_bound)
            if needed > stratum[head_key]:
                stratum[head_key] = needed
                changed = True
                if needed > limit:
                    raise RuleError(
                        f"line {line_of[rule_id]}: rule {rule_id}: rules are not stratifiable "
                        f"(cycle through negation involving {head.predicate})"
                    )
        if not changed:
            return stratum
    raise RuleError("rules are not stratifiable (cycle through negation)")


def parse_rules(text: str, catalog=None) -> list[Rule]:
    """Parse a rule file into stratified rules, in file order.

    ``catalog`` resolves bare names; when omitted, the catalog of the
    bundled assets is used.
    """
    if catalog is None:
        from .assets import default_catalog

        catalog = default_catalog()
    parsed: list[tuple[str, tuple[Atom, ...], Atom]] = []
    line_of: dict[str, int] = {}
    for line, tokens, end in _statements(text):
        rule_id, tokens = _split_rule_id(tokens)
        if rule_id is None:
            statement = text[tokens[0].offset:end].strip()
            raise RuleError(f"line {line}: rule must start with 'id:', found {statement[:40]!r}")
        if rule_id in line_of:
            raise RuleError(f"line {line}: duplicate rule id {rule_id!r}")
        body, head = _RuleParser(rule_id, tokens, end, line, catalog).parse()
        _check_safety(rule_id, body, head, line)
        parsed.append((rule_id, body, head))
        line_of[rule_id] = line
    strata = _compute_strata(parsed, line_of)
    return [
        Rule(rule_id, body, head, strata[head.key()])
        for rule_id, body, head in parsed
    ]


def assign_strata(rules: list[Rule]) -> list[Rule]:
    """Recompute strata for rules built programmatically (ids must be unique)."""
    parsed = [(rule.id, rule.body, rule.head) for rule in rules]
    strata = _compute_strata(parsed, {rule.id: 0 for rule in rules})
    return [Rule(rule.id, rule.body, rule.head, strata[rule.head.key()]) for rule in rules]


def _check_safety(rule_id: str, body: tuple[Atom, ...], head: Atom, line: int) -> None:
    positive_vars: set[str] = set()
    for atom in body:
        if not atom.negated:
            positive_vars |= atom.variables()
    for arg in head.args:
        if arg.kind == ANY:
            raise RuleError(f"line {line}: rule {rule_id}: '_' cannot appear in a rule head")
        if arg.kind == VAR and arg.value not in positive_vars:
            raise RuleError(
                f"line {line}: rule {rule_id}: head variable ?{arg.value} is not bound by a positive body atom"
            )
    for atom in body:
        if atom.negated:
            unbound = atom.variables() - positive_vars
            if unbound:
                name = sorted(unbound)[0]
                raise RuleError(
                    f"line {line}: rule {rule_id}: variable ?{name} appears only in a negated atom; "
                    "bind it positively or use '_'"
                )


# ---------------------------------------------------------------------------
# Evaluation


# A compiled atom is a query pattern built once per evaluation: variables
# keep their names without the '?', and the wildcard '_' is None.


def _compile_atom(atom: Atom) -> TriplePattern:
    def slot(arg: RuleArg) -> Term | str | None:
        if arg.kind == CONST:
            return iri(arg.value)
        if arg.kind == VAR:
            return arg.value
        return None

    if atom.is_class_atom():
        return TriplePattern(slot(atom.args[0]), _TYPE, iri(atom.predicate))
    return TriplePattern(slot(atom.args[0]), iri(atom.predicate), slot(atom.args[1]))


@dataclass(frozen=True)
class _CompiledRule:
    id: str
    positives: tuple[TriplePattern, ...]
    negatives: tuple[TriplePattern, ...]
    head: TriplePattern


def _compile_rule(rule: Rule) -> _CompiledRule:
    return _CompiledRule(
        rule.id,
        tuple(_compile_atom(atom) for atom in rule.body if not atom.negated),
        tuple(_compile_atom(atom) for atom in rule.body if atom.negated),
        _compile_atom(rule.head),
    )


def _match_body(rule: _CompiledRule, graph: Graph, delta: Graph | None):
    """Yield every binding under which the rule body holds in ``graph``.

    With a delta (the triples the previous round added), yield only the
    bindings that use at least one delta triple: for each positive atom in
    turn, match that atom against the delta first and join the others
    against the whole graph.  A binding using several delta triples is
    yielded once per such atom; the caller drops the repeats.
    """
    positives = rule.positives
    if delta is None:
        orders = [positives]
    else:
        orders = [(positives[i], *positives[:i], *positives[i + 1:]) for i in range(len(positives))]
    for patterns in orders:
        for binding in solutions(patterns, graph, delta):
            if not any(graph._match(*atom.ground(binding)) for atom in rule.negatives):
                yield binding


def evaluate_with_provenance(graph: Graph, rules: list[Rule]) -> tuple[Graph, list[Firing]]:
    """Evaluate stratified rules to fixpoint; return the extended graph and
    one Firing per distinct (rule, binding) body match.

    Firings come in derivation order: strata ascending, then semi-naive
    rounds; the order within a round is unspecified.
    """
    out = graph.copy()
    firings: list[Firing] = []
    seen: set[tuple[str, tuple[tuple[str, Term], ...]]] = set()
    compiled = [_compile_rule(rule) for rule in rules]
    for stratum in sorted({rule.stratum for rule in rules}):
        group = [c for c, rule in zip(compiled, rules) if rule.stratum == stratum]
        delta: Graph | None = None
        while True:
            added = Graph()
            for rule in group:
                for binding in _match_body(rule, out, delta):
                    bound = tuple(sorted(binding.items()))
                    if (rule.id, bound) in seen:
                        continue
                    seen.add((rule.id, bound))
                    derived = Triple(*rule.head.ground(binding))
                    firings.append(Firing(rule.id, bound, derived))
                    if out.insert(derived):
                        added.insert(derived)
            if not added:
                break
            delta = added
    return out, firings


def evaluate_rules(graph: Graph, rules: list[Rule]) -> Graph:
    """Evaluate rules over a (typically materialized) graph; pure function."""
    out, _ = evaluate_with_provenance(graph, rules)
    return out


@dataclass(frozen=True)
class Verdict:
    action: str
    verdict_class: str
    fired_rules: tuple[str, ...]
    firings: tuple[Firing, ...] = field(compare=False, default=())


def _firing_order(firing: Firing) -> tuple:
    return (firing.rule_id, tuple(term.sort_key() for _, term in firing.bindings))


def classify_actions(graph: Graph, rules: list[Rule]) -> list[Verdict]:
    """Run the verdict rules and report one verdict per morally linked action.

    An action is morally linked when it is typed as an action and carries at
    least one upholds or violates edge.  Actions deriving into more than one
    verdict class raise :class:`VerdictConflictError`; actions matching no
    rule are omitted from the report.  Verdicts are sorted by action, and
    each verdict's firings by rule id, then by the sort keys of their bound
    terms in variable-name order.
    """
    final, firings = evaluate_with_provenance(graph, rules)
    by_derived: dict[Triple, list[Firing]] = {}
    for firing in firings:
        by_derived.setdefault(firing.derived, []).append(firing)
    action_type = iri(ACTION)
    verdict_types = [iri(vc) for vc in VERDICT_CLASSES]
    linked = {
        triple.s
        for prop in (UPHOLDS_PRINCIPLE, VIOLATES_PRINCIPLE)
        for triple in final._match(None, iri(prop), None)
        if Triple(triple.s, _TYPE, action_type) in final
    }
    verdicts: list[Verdict] = []
    for action in sorted(linked, key=Term.sort_key):
        found = [typed for typed in (Triple(action, _TYPE, vc) for vc in verdict_types) if typed in final]
        if len(found) > 1:
            raise VerdictConflictError(action.value, tuple(typed.o.value for typed in found))
        if not found:
            continue
        relevant = tuple(sorted(by_derived.get(found[0], ()), key=_firing_order))
        rule_ids = tuple(sorted({f.rule_id for f in relevant}))
        verdicts.append(Verdict(action.value, found[0].o.value, rule_ids, relevant))
    return verdicts
