"""Independent brute-force oracles.

Each oracle answers the same question as a production code path but by the
most direct method available (per-candidate recursion, full grounding
enumeration, cartesian products), sharing no logic with the code under
test.  Equivalence suites drive both sides over seeded random inputs.
"""

from __future__ import annotations

from itertools import product

from applekit.graph import Graph
from applekit.materialize import (
    DEFAULT_REGIME,
    DOMAIN_TYPING,
    INVERSE_PROPAGATION,
    RANGE_TYPING,
    SUBCLASS_TRANSITIVITY,
    SUBPROPERTY_PROPAGATION,
    TYPE_INHERITANCE,
    EntailmentRegime,
)
from applekit.query import And, Anything, Named, OneOf, SelectQuery, Some
from applekit.rules import ANY, CONST, VAR, Atom, Rule
from applekit.schema import SchemaIndex
from applekit.terms import RDF_TYPE, RDFS_SUBCLASSOF, Term, Triple, iri

_TYPE = iri(RDF_TYPE)
_SUBCLASS = iri(RDFS_SUBCLASSOF)


def render_node(term: Term) -> str:
    if term.is_iri():
        return term.value
    if term.is_blank():
        return f"_:{term.value}"
    return term.n3()


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
    candidates = set(graph.nodes()) | _nominal_terms(expr)
    found = [term for term in candidates if satisfies(term, expr, graph)]
    return sorted(render_node(term) for term in found)


# ---------------------------------------------------------------------------
# Rule evaluation by full grounding enumeration


def _universe(graph: Graph, rules: list[Rule]) -> list[Term]:
    terms: set[Term] = set()
    for triple in graph:
        terms.add(triple.s)
        terms.add(triple.o)
    for rule in rules:
        for atom in (*rule.body, rule.head):
            for arg in atom.args:
                if arg.kind == CONST:
                    terms.add(iri(arg.value))
    return sorted(terms, key=Term.sort_key)


def _ground_atom_pattern(atom: Atom, assignment: dict[str, Term]):
    def slot(arg):
        if arg.kind == CONST:
            return iri(arg.value)
        if arg.kind == VAR:
            return assignment[arg.value]
        return None  # anonymous wildcard

    if atom.is_class_atom():
        return (slot(atom.args[0]), _TYPE, iri(atom.predicate))
    return (slot(atom.args[0]), iri(atom.predicate), slot(atom.args[1]))


def _atom_holds(atom: Atom, assignment: dict[str, Term], graph: Graph) -> bool:
    s, p, o = _ground_atom_pattern(atom, assignment)
    if s is not None and s.is_literal():
        return False
    return bool(graph.match(s, p, o))


def _body_assignments(rule: Rule, universe: list[Term], graph: Graph):
    """Every assignment of the rule's variables under which its body holds."""
    variables = sorted({v for atom in rule.body for v in atom.variables()} | set(rule.head.variables()))
    for combo in product(universe, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        if all(_atom_holds(atom, assignment, graph) != atom.negated for atom in rule.body):
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
                    s, p, o = _ground_atom_pattern(rule.head, assignment)
                    if s.is_literal():
                        continue
                    if out.insert(Triple(s, p, o)):
                        changed = True
            if not changed:
                break
        yield group, universe, out


def ground_fixpoint(graph: Graph, rules: list[Rule]) -> Graph:
    """Evaluate stratified rules by enumerating every variable assignment."""
    out = graph.copy()
    for _, _, out in _ground_strata(graph, rules):
        pass
    return out


def ground_firings(graph: Graph, rules: list[Rule]) -> set[tuple[str, tuple[tuple[str, Term], ...]]]:
    """Every (rule id, sorted bindings) whose body holds in the graph at the
    end of that rule's stratum."""
    firings = set()
    for group, universe, out in _ground_strata(graph, rules):
        for rule in group:
            for assignment in _body_assignments(rule, universe, out):
                firings.add((rule.id, tuple(sorted(assignment.items()))))
    return firings


# ---------------------------------------------------------------------------
# Conjunctive select by cartesian enumeration


def brute_select(query: SelectQuery, graph: Graph) -> list[tuple[str, ...]]:
    variables = sorted({v for pattern in query.patterns for v in pattern.variables()})
    terms: set[Term] = set()
    for triple in graph:
        terms.update((triple.s, triple.p, triple.o))
    universe = sorted(terms, key=Term.sort_key)
    rows: set[tuple[str, ...]] = set()
    for combo in product(universe, repeat=len(variables)):
        assignment = dict(zip(variables, combo))
        ok = True
        for pattern in query.patterns:
            parts = []
            for slot in (pattern.s, pattern.p, pattern.o):
                parts.append(assignment[slot] if isinstance(slot, str) else slot)
            s, p, o = parts
            if s.is_literal() or p.kind != "iri":
                ok = False
                break
            if Triple(s, p, o) not in graph:
                ok = False
                break
        if ok:
            rows.add(tuple(render_node(assignment[v]) for v in query.variables))
    return sorted(rows)


# ---------------------------------------------------------------------------
# Materialization by naive re-application to a snapshot


def naive_materialize(graph: Graph, schema: SchemaIndex, regime: EntailmentRegime = DEFAULT_REGIME) -> Graph:
    """Materialize by re-applying every single-step entailment to the whole
    graph until nothing changes."""
    out = graph.copy()

    if SUBCLASS_TRANSITIVITY in regime:
        for child, parent in schema.sub_class_of:
            if child != parent:
                out.insert(Triple(iri(child), _SUBCLASS, iri(parent)))

    asserted_subclass = {(c, d) for c, d in schema.sub_class_of if c != d}
    asserted_subprop = {(p, q) for p, q in schema.sub_property_of if p != q}
    inverse_pairs = set(schema.inverse_of)

    while True:
        additions: list[Triple] = []
        for triple in out:
            predicate = triple.p.value
            if predicate == RDFS_SUBCLASSOF and SUBCLASS_TRANSITIVITY in regime:
                if triple.s.is_iri() and triple.o.is_iri():
                    for child, parent in asserted_subclass:
                        if child == triple.o.value and parent != triple.s.value:
                            additions.append(Triple(triple.s, _SUBCLASS, iri(parent)))
            if predicate == RDF_TYPE and TYPE_INHERITANCE in regime and triple.o.is_iri():
                for child, parent in asserted_subclass:
                    if child == triple.o.value:
                        additions.append(Triple(triple.s, _TYPE, iri(parent)))
            if SUBPROPERTY_PROPAGATION in regime:
                for child, parent in asserted_subprop:
                    if child == predicate:
                        additions.append(Triple(triple.s, iri(parent), triple.o))
            if DOMAIN_TYPING in regime:
                for cls in schema.domain_of.get(predicate, ()):
                    additions.append(Triple(triple.s, _TYPE, iri(cls)))
            if RANGE_TYPING in regime and not triple.o.is_literal():
                for cls in schema.range_of.get(predicate, ()):
                    additions.append(Triple(triple.o, _TYPE, iri(cls)))
            if INVERSE_PROPAGATION in regime and not triple.o.is_literal():
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
