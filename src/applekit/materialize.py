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
schema's: each hierarchy is one cached :func:`~applekit.schema._closure`
over both, so the output is closed under its own schema, and each of its
distinct sets (a cycle's nodes share one) becomes Terms once per call.
Existential obligations are never skolemized; the closed-world validator
audits them.

Evaluation is one loop of two phases:

1. **Edge rules.**  ``subclass-transitivity``, ``subproperty-propagation``
   and ``inverse-propagation`` run on :meth:`~applekit.graph.Graph._saturate`,
   the fixpoint loop of the verdict rules too, from the closure's subclass
   pairs the graph lacks and what the stored triples derive.  Each
   ``(s, p, o, origin)`` entry carries what derived it, so that it skips
   what its source already gave: a closure step adds nothing to a triple it
   derived itself, and the inverse of an inverse-derived triple over its
   source predicate is the source triple.
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
Then the phases alternate: phase 2's type triples enter phase 1 as what
they derive, and phase 2 runs again over every node, until it adds nothing.

Terms are interned, so a schema IRI turned into a Term is the object the
graph already holds, and index probes and set differences hash in C.
:func:`materialize` copies its input; the command
line hands its own freshly parsed graph to ``_materialize``, which extends
it in place.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from functools import cache

from .graph import Graph
from .schema import SchemaIndex, _closure, axiom_pairs
from .terms import RDF_TYPE, RDFS_SUBCLASSOF, Term, iri

# Tags naming the closure rule that derived an entry.  An entry that
# inverse-propagation derived carries its source predicate's Term instead.
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
    @cache  # per call, so the table dies with it; a cycle's nodes share one set
    def terms(values: frozenset[str], kind: type = frozenset) -> Collection[Term]:
        return kind(map(iri, values))

    rdf_type = iri(RDF_TYPE)
    subclass = iri(RDFS_SUBCLASSOF)

    data = axiom_pairs(out)
    superclasses = _closure(schema.sub_class_of | data.sub_class_of)
    superproperties = _closure(schema.sub_property_of | data.sub_property_of)

    # Keyed by Term: each class's ancestors, read by both phases, and each
    # property's superproperties (itself on a cycle: its step derives the
    # stored triple) and inverses.
    ancestors = {iri(c): terms(parents) for c, parents in superclasses.items()}
    superprops = {iri(p): terms(parents, tuple) for p, parents in superproperties.items()}
    inverses: dict[Term, set[Term]] = {}
    for a, b in schema.inverse_of | data.inverse_of:
        inverses.setdefault(iri(a), set()).add(iri(b))
        inverses.setdefault(iri(b), set()).add(iri(a))
    edge_rules = {subclass, *superprops, *inverses}

    # Phase 2: each property's domain and range classes, with their ancestors.
    def with_ancestors(pairs: Iterable[tuple[str, str]]) -> dict[Term, frozenset[Term]]:
        classes: dict[str, set[str]] = {}
        for p, c in pairs:
            classes.setdefault(p, set()).update((c, *superclasses.get(c, ())))
        return {iri(p): terms(frozenset(cs)) for p, cs in classes.items()}

    schema_domains = ((p, c) for p, cs in schema.domain_of.items() for c in cs)
    schema_ranges = ((p, c) for p, cs in schema.range_of.items() for c in cs)
    domains = with_ancestors([*schema_domains, *data.domain])
    ranges = with_ancestors([*schema_ranges, *data.range])

    # With none of these, a type triple derives only types, which phase 2
    # closes in one pass.
    type_feeds_edges = rdf_type in edge_rules
    type_is_typed = rdf_type in domains or rdf_type in ranges

    def edges(entry: tuple[Term, Term, Term, str | Term]) -> list[tuple[Term, Term, Term, str | Term]]:
        """Phase 1: the edge rules' candidates from one entry."""
        s, p, o, origin = entry
        derived = []
        # ancestors and superprops are transitive closures, so a closure
        # step adds nothing to a triple it derived itself.
        if p is subclass and origin is not _TRANSITIVITY and s.kind == "iri" and o.kind == "iri":
            # A derived subclass edge chains through the closure.
            for ancestor in ancestors.get(o, ()):
                if ancestor is not s:
                    derived.append((s, subclass, ancestor, _TRANSITIVITY))
        if origin is not _SUBPROPERTY:
            for parent in superprops.get(p, ()):
                derived.append((s, parent, o, _SUBPROPERTY))
        if o.kind != "literal":
            for partner in inverses.get(p, ()):
                # The inverse over the source predicate is the source.
                if partner is not origin:
                    derived.append((o, partner, s, p))
        return derived

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
                classes = ancestors.get(cls)
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

    # The closure's pairs the graph lacks (the schema may come from another
    # graph), then what the graph's triples over an edge rule's predicate,
    # and later phase 2's, derive as closure steps: the closure's pairs are
    # what a stored subclass edge chains to, and the tag skips no other rule.
    entries = [
        (child, subclass, parent, _TRANSITIVITY)
        for child, parents in ancestors.items()
        for parent in parents
        if parent is not child and not out._has(child, subclass, parent)
    ]
    for p in edge_rules:
        entries += [c for s, _, o in out._match(None, p, None) for c in edges((s, p, o, _TRANSITIVITY))]
    while True:
        out._saturate(entries, edges)
        written = types()
        if not written or not (type_feeds_edges or type_is_typed):
            return out
        entries = [c for node, classes in written for cls in classes for c in edges((node, rdf_type, cls, _TRANSITIVITY))]
