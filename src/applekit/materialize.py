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
works.  The data graph's own ``rdfs:subClassOf`` and
``rdfs:subPropertyOf`` edges between IRIs are axioms too: each closure is
computed once, over the schema's pairs and the data's together, so the
output is closed under its own subclass and subproperty edges.  The
data's domains, ranges and inverses are not read.  Existential
obligations are never skolemized; the closed-world validator audits them
instead.

Evaluation is semi-naive: a worklist seeded with the input triples, so
each consequence is derived once.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph
from .schema import SchemaIndex, _cached_closure
from .terms import RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF, Term, Triple, iri

_TYPE = iri(RDF_TYPE)
_SUBCLASS = iri(RDFS_SUBCLASSOF)
_SUBPROPERTY = iri(RDFS_SUBPROPERTYOF)


def _iri_pairs(graph: Graph, predicate: Term) -> frozenset[tuple[str, str]]:
    edges = graph._match(None, predicate, None)
    return frozenset((t.s.value, t.o.value) for t in edges if t.s.is_iri() and t.o.is_iri())


def materialize(graph: Graph, schema: SchemaIndex) -> Graph:
    """Return a new graph extended with every entailment.

    The schema's axioms apply, together with the subclass and subproperty
    edges between IRIs that the graph itself asserts.  The input graph is
    never mutated.
    """
    out = graph.copy()

    # Every IRI a consequence can carry, built once per class or property.
    superclasses = _cached_closure(schema.sub_class_of | _iri_pairs(graph, _SUBCLASS))
    superproperties = _cached_closure(schema.sub_property_of | _iri_pairs(graph, _SUBPROPERTY))
    ancestors = {c: tuple(iri(a) for a in parents) for c, parents in superclasses.items()}
    superprops = {p: tuple(iri(q) for q in parents if q != p) for p, parents in superproperties.items()}
    inverses = {p: tuple(iri(q) for q in schema.inverse_partners(p)) for p in schema.properties}
    domains = {p: tuple(iri(c) for c in classes) for p, classes in schema.domain_of.items()}
    ranges = {p: tuple(iri(c) for c in classes) for p, classes in schema.range_of.items()}

    pending: deque[Triple] = deque(out._match())

    # The closure of the asserted pairs, including pairs the data graph
    # itself may not carry when the schema came from another graph.
    for child, parents in ancestors.items():
        child_term = iri(child)
        for parent in parents:
            if parent.value != child:
                derived = Triple(child_term, _SUBCLASS, parent)
                if out.insert(derived):
                    pending.append(derived)

    while pending:
        triple = pending.popleft()
        predicate = triple.p.value
        derived: list[Triple] = []
        if predicate == RDFS_SUBCLASSOF and triple.s.is_iri() and triple.o.is_iri():
            # A subclass edge asserted in the data graph chains through the
            # schema's closure even when the schema lacks that edge itself.
            for ancestor in ancestors.get(triple.o.value, ()):
                if ancestor.value != triple.s.value:
                    derived.append(Triple(triple.s, _SUBCLASS, ancestor))
        if predicate == RDF_TYPE and triple.o.is_iri():
            for ancestor in ancestors.get(triple.o.value, ()):
                if ancestor.value != triple.o.value:
                    derived.append(Triple(triple.s, _TYPE, ancestor))
        for parent in superprops.get(predicate, ()):
            derived.append(Triple(triple.s, parent, triple.o))
        for cls in domains.get(predicate, ()):
            derived.append(Triple(triple.s, _TYPE, cls))
        if not triple.o.is_literal():
            for cls in ranges.get(predicate, ()):
                derived.append(Triple(triple.o, _TYPE, cls))
            for partner in inverses.get(predicate, ()):
                derived.append(Triple(triple.o, partner, triple.s))
        for new_triple in derived:
            if out.insert(new_triple):
                pending.append(new_triple)
    return out

