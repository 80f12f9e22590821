"""Forward-chaining materialization of schema entailments.

Six entailment rules, always applied together (the RDFS/pD* rule set):

- ``subclass-transitivity``: the transitive closure of asserted subclass
  pairs, written back as subClassOf triples (reflexive pairs suppressed).
- ``type-inheritance``: an instance of a class is an instance of every
  ancestor class.
- ``subproperty-propagation``: an edge over a property also holds over
  every ancestor property.
- ``domain-typing``: the subject of a property edge gains the property's
  domain classes.
- ``range-typing``: the object of a property edge gains the property's
  range classes (skipped for literal objects).
- ``inverse-propagation``: an edge over a property yields the reversed
  edge over each declared inverse.

Axioms are read from a :class:`~applekit.schema.SchemaIndex`, so
materializing a data-only graph against a separately extracted schema
works.  The data graph's own ``rdfs:subClassOf``, ``rdfs:subPropertyOf``,
``rdfs:domain``, ``rdfs:range`` and ``owl:inverseOf`` edges between IRIs
are axioms too, read as :func:`~applekit.schema.extract_schema` reads them
(a range in a built-in namespace types nothing), and joined with the
schema's: each closure is computed once over both, so the output is closed
under its own schema.  Existential obligations are never skolemized; the
closed-world validator audits them instead.

Evaluation is one worklist, seeded with the input triples and the
closure's subclass pairs, that queues each derived triple once:

- Each pending triple carries the rule that first derived it.  The
  subclass and subproperty closures are computed up front, so a triple
  that ``subclass-transitivity``, ``type-inheritance`` or
  ``subproperty-propagation`` derived already has, from its source,
  everything that same rule would derive from it; that rule skips it.
  Every other rule runs on every triple.
- A candidate is an ``(s, p, o, rule)`` tuple, inserted into the graph
  as three Terms and queued as it is when new; no
  :class:`~applekit.terms.Triple` is built.
- The schema's IRIs are resolved, through one dict per call, to the Term
  objects the graph already holds, so index probes find their keys by
  identity.

:func:`materialize` copies its input; the command line hands its own
freshly parsed graph to ``_materialize``, which extends it in place.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph
from .schema import SchemaIndex, _cached_closure, _cached_inverse_map, _is_builtin
from .terms import (
    OWL_INVERSE_OF,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    Term,
    iri,
)

# Tags naming the rule that first derived a pending triple; None marks an
# input triple.
_TRANSITIVITY = "subclass-transitivity"
_INHERITANCE = "type-inheritance"
_SUBPROPERTY = "subproperty-propagation"
_DOMAIN = "domain-typing"
_RANGE = "range-typing"
_INVERSE = "inverse-propagation"


def _iri_pairs(graph: Graph, predicate: Term) -> frozenset[tuple[str, str]]:
    edges = graph._match(None, predicate, None)
    return frozenset((s.value, o.value) for s, _, o in edges if s.is_iri() and o.is_iri())


def _joined(axioms: dict[str, frozenset[str]], pairs) -> dict[str, set[str]]:
    """The schema's property -> classes map with the data's (property, class)
    pairs added."""
    out = {p: set(classes) for p, classes in axioms.items()}
    for p, cls in pairs:
        out.setdefault(p, set()).add(cls)
    return out


def materialize(graph: Graph, schema: SchemaIndex) -> Graph:
    """Return a new graph extended with every entailment.

    The schema's axioms apply, together with the subclass, subproperty,
    domain, range and inverse edges between IRIs that the graph itself
    asserts.  The input graph is never mutated.
    """
    return _materialize(graph.copy(), schema)


def _materialize(out: Graph, schema: SchemaIndex) -> Graph:
    """:func:`materialize` on a graph the caller owns: the entailments are
    inserted into ``out`` itself, which is returned."""
    # The graph's own Term per IRI, so that index probes with a schema IRI
    # find their key by identity: subjects, predicates, then each
    # predicate's objects.
    own = {t.value: t for index in (out._spo, out._pos, *out._pos.values()) for t in index if t.kind == "iri"}

    def term(value: str) -> Term:
        found = own.get(value)
        if found is None:
            found = own[value] = iri(value)
        return found

    rdf_type = term(RDF_TYPE)
    subclass = term(RDFS_SUBCLASSOF)

    # Every IRI a consequence can carry, built once per class or property.
    superclasses = _cached_closure(schema.sub_class_of | _iri_pairs(out, subclass))
    superproperties = _cached_closure(schema.sub_property_of | _iri_pairs(out, term(RDFS_SUBPROPERTYOF)))
    ancestors = {c: tuple(term(a) for a in parents) for c, parents in superclasses.items()}
    superprops = {p: tuple(term(q) for q in parents if q != p) for p, parents in superproperties.items()}
    partners = _cached_inverse_map(schema.inverse_of | _iri_pairs(out, term(OWL_INVERSE_OF)))
    inverses = {p: tuple(term(q) for q in qs) for p, qs in partners.items()}
    domain_of = _joined(schema.domain_of, _iri_pairs(out, term(RDFS_DOMAIN)))
    data_ranges = [(p, c) for p, c in _iri_pairs(out, term(RDFS_RANGE)) if not _is_builtin(c)]
    range_of = _joined(schema.range_of, data_ranges)
    domains = {p: tuple(term(c) for c in classes) for p, classes in domain_of.items()}
    ranges = {p: tuple(term(c) for c in classes) for p, classes in range_of.items()}

    pending: deque[tuple[Term, Term, Term, str | None]] = deque((s, p, o, None) for s, p, o in out._match())

    # The closure of the asserted pairs, including pairs the data graph
    # itself may not carry when the schema came from another graph.
    for child, parents in ancestors.items():
        child_term = term(child)
        for parent in parents:
            if parent.value != child and out._add(child_term, subclass, parent):
                pending.append((child_term, subclass, parent, _TRANSITIVITY))

    while pending:
        s, p, o, rule = pending.popleft()
        predicate = p.value
        derived: list[tuple[Term, Term, Term, str]] = []
        # ancestors and superprops are transitive closures, so a closure step
        # adds nothing to a triple it derived itself.
        if predicate == RDFS_SUBCLASSOF and rule != _TRANSITIVITY and s.kind == "iri" and o.kind == "iri":
            # A subclass edge asserted in the data graph chains through the
            # schema's closure even when the schema lacks that edge itself.
            for ancestor in ancestors.get(o.value, ()):
                if ancestor.value != s.value:
                    derived.append((s, subclass, ancestor, _TRANSITIVITY))
        if predicate == RDF_TYPE and rule != _INHERITANCE and o.kind == "iri":
            for ancestor in ancestors.get(o.value, ()):
                if ancestor.value != o.value:
                    derived.append((s, rdf_type, ancestor, _INHERITANCE))
        if rule != _SUBPROPERTY:
            for parent in superprops.get(predicate, ()):
                derived.append((s, parent, o, _SUBPROPERTY))
        for cls in domains.get(predicate, ()):
            derived.append((s, rdf_type, cls, _DOMAIN))
        if o.kind != "literal":
            for cls in ranges.get(predicate, ()):
                derived.append((o, rdf_type, cls, _RANGE))
            for partner in inverses.get(predicate, ()):
                derived.append((o, partner, s, _INVERSE))
        for candidate in derived:
            ds, dp, do, _ = candidate
            if out._add(ds, dp, do):
                pending.append(candidate)
    return out
