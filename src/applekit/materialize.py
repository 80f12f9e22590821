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
are axioms too, read by :func:`~applekit.schema.axiom_pairs` as
:func:`~applekit.schema.extract_schema` reads them, and joined with the
schema's: each closure is computed once over both, so the output is closed
under its own schema.  Existential obligations are never skolemized; the
closed-world validator audits them instead.

Evaluation is one loop of two phases, after the closure's subclass pairs
are written:

1. **Edge rules.**  A worklist runs ``subclass-transitivity``,
   ``subproperty-propagation`` and ``inverse-propagation``.  It is seeded
   with the triples whose predicate one of them reads, and it queues each
   derived triple once.  Each entry carries what derived it, so that it
   skips what its source already gave: a closure step adds nothing to a
   triple it derived itself, and the inverse of an inverse-derived triple
   over its source predicate is the source triple.  A candidate is an
   ``(s, p, o, origin)`` tuple, inserted into the graph as three Terms; no
   :class:`~applekit.terms.Triple` is built.
2. **Typing per node.**  The three typing rules depend on which predicates
   leave or reach a node and which types it has, not on how many edges
   there are.  Each property's domain and range classes are precomputed
   together with their ancestors, as is each class's ancestor set.  A
   subject needs the union of its predicates' domain sets and its types'
   ancestor sets; a non-literal object needs the range sets of the
   predicates that reach it.  :meth:`~applekit.graph.Graph._add_objects`
   writes each such set as one set difference against the node's types.

The type triples of phase 2 feed nothing but themselves, unless the
schema gives ``rdf:type`` a superproperty, an inverse, a domain or a range.
Then the phases alternate: phase 2's type triples are queued into phase 1
when ``rdf:type`` feeds an edge rule, and phase 2 runs again over every
node, until it adds nothing.

Terms are interned, so a schema IRI turned into a Term is the object the
graph already holds, and index probes and set differences hash in C.
:func:`materialize` copies its input; the command
line hands its own freshly parsed graph to ``_materialize``, which extends
it in place.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from .graph import Graph
from .schema import SchemaIndex, _cached_closure, _cached_inverse_map, axiom_pairs
from .terms import RDF_TYPE, RDFS_SUBCLASSOF, Term, iri

# Tags naming the closure rule that derived a pending triple.  A pending
# triple that inverse-propagation derived carries its source predicate's
# IRI instead, and an input triple None.  An IRI holds a ':' and the tags
# do not, so no tag equals a predicate's IRI.
_TRANSITIVITY = "subclass-transitivity"
_SUBPROPERTY = "subproperty-propagation"


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
    def terms(values: Iterable[str]) -> frozenset[Term]:
        return frozenset(map(iri, values))

    rdf_type = iri(RDF_TYPE)
    subclass = iri(RDFS_SUBCLASSOF)

    data = axiom_pairs(out)
    superclasses = _cached_closure(schema.sub_class_of | data.sub_class_of)
    superproperties = _cached_closure(schema.sub_property_of | data.sub_property_of)
    partners = _cached_inverse_map(schema.inverse_of | data.inverse_of)

    # Phase 1 tables, keyed by IRI: the Terms each edge rule derives with.
    ancestors = {c: tuple(map(iri, parents)) for c, parents in superclasses.items()}
    superprops = {p: tuple(iri(q) for q in parents if q != p) for p, parents in superproperties.items()}
    inverses = {p: tuple(map(iri, qs)) for p, qs in partners.items()}
    edge_rules = {RDFS_SUBCLASSOF, *superprops, *inverses}

    # Phase 2 tables, keyed by Term: each class's ancestors, and each
    # property's domain and range classes together with their ancestors.
    lineage = {iri(c): terms(parents) for c, parents in superclasses.items()}

    def with_ancestors(pairs: Iterable[tuple[str, str]]) -> dict[Term, frozenset[Term]]:
        classes: dict[str, set[str]] = {}
        for p, c in pairs:
            classes.setdefault(p, set()).update((c, *superclasses.get(c, ())))
        return {iri(p): terms(cs) for p, cs in classes.items()}

    schema_domains = ((p, c) for p, cs in schema.domain_of.items() for c in cs)
    schema_ranges = ((p, c) for p, cs in schema.range_of.items() for c in cs)
    domains = with_ancestors([*schema_domains, *data.domain])
    ranges = with_ancestors([*schema_ranges, *data.range])

    # With none of these, a type triple derives only types, which phase 2
    # closes in one pass.
    type_feeds_edges = RDF_TYPE in edge_rules
    type_is_typed = rdf_type in domains or rdf_type in ranges

    def edges(pending: deque) -> None:
        """Phase 1: run the edge rules to a fixpoint from ``pending``."""
        while pending:
            s, p, o, origin = pending.popleft()
            predicate = p.value
            derived: list[tuple[Term, Term, Term, str]] = []
            # ancestors and superprops are transitive closures, so a closure
            # step adds nothing to a triple it derived itself.
            if predicate == RDFS_SUBCLASSOF and origin is not _TRANSITIVITY and s.kind == "iri" and o.kind == "iri":
                # A derived subclass edge chains through the closure.
                for ancestor in ancestors.get(o.value, ()):
                    if ancestor.value != s.value:
                        derived.append((s, subclass, ancestor, _TRANSITIVITY))
            if origin is not _SUBPROPERTY:
                for parent in superprops.get(predicate, ()):
                    derived.append((s, parent, o, _SUBPROPERTY))
            if o.kind != "literal":
                for partner in inverses.get(predicate, ()):
                    # The inverse over the source predicate is the source.
                    if partner.value != origin:
                        derived.append((o, partner, s, predicate))
            for candidate in derived:
                ds, dp, do, _ = candidate
                if out._add(ds, dp, do) and dp.value in edge_rules:
                    pending.append(candidate)

    def types() -> list[tuple[Term, Iterable[Term]]]:
        """Phase 2: give every node the classes it needs; return each node
        that gained classes, with them."""
        spo, pos = out._spo, out._pos
        written = []
        for s, by_p in spo.items():
            needed: set[Term] = set()
            for p in by_p:
                classes = domains.get(p)
                if classes:
                    needed |= classes
            for cls in by_p.get(rdf_type, ()):
                classes = lineage.get(cls)
                if classes:
                    needed |= classes
            if needed:
                new = out._add_objects(s, rdf_type, needed)
                if new:
                    written.append((s, new))
        for p, classes in ranges.items():
            # A list: writing types adds keys to pos[p] when p is rdf:type.
            for o in [o for o in pos.get(p, ()) if o.kind != "literal"]:
                new = out._add_objects(o, rdf_type, classes)
                if new:
                    written.append((o, new))
        return written

    # The closure of the asserted pairs, including pairs the data graph
    # itself may not carry when the schema came from another graph.  The
    # graph's own pairs are already stored, and their input triples enter
    # phase 1 as closure steps: the closure holds what they chain to.
    pending: deque[tuple[Term, Term, Term, str | None]] = deque()
    for predicate in edge_rules:
        origin = _TRANSITIVITY if predicate == RDFS_SUBCLASSOF else None
        pending.extend((s, p, o, origin) for s, p, o in out._match(None, iri(predicate), None))
    for child, parents in ancestors.items():
        child_term = iri(child)
        for parent in parents:
            if parent.value != child and (child, parent.value) not in data.sub_class_of:
                out._add(child_term, subclass, parent)
                pending.append((child_term, subclass, parent, _TRANSITIVITY))

    while True:
        edges(pending)
        written = types()
        if not written or not (type_feeds_edges or type_is_typed):
            return out
        if type_feeds_edges:
            pending.extend((node, rdf_type, cls, None) for node, classes in written for cls in classes)
