"""Schema extraction, and the names that queries and rules use.

The extractor reads subclass and subproperty assertions, property domains,
ranges and inverses, pairwise disjointness, existential obligations
written as labeled-blank-node restrictions, and class-level statements
made about class IRIs themselves (punning).  The result is a
:class:`SchemaIndex`, the single axiom source consulted by the
materializer, the class-expression engine, and the validator.  Both of its
hierarchies are read through one cached :func:`_closure`, walked up for
its public reads and the materializer, and down for class retrieval.
That closure is one strongly-connected-components pass whose components
each share one set, so a cycle costs memory linear in its length, and
:func:`_cycle` reads a subclass cycle off it, named by a walk from its
smallest class.

A :class:`NameCatalog` resolves the names written in class expressions,
select queries and rule files to IRIs; the lexer and parsers of those
languages are in :mod:`applekit.query` and :mod:`applekit.rules`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .graph import Graph
from .terms import (
    BUILTIN_NAMESPACES,
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_DISJOINT_WITH,
    OWL_INVERSE_OF,
    OWL_OBJECT_PROPERTY,
    OWL_ON_PROPERTY,
    OWL_RESTRICTION,
    OWL_SOME_VALUES_FROM,
    RDF_PROPERTY,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    PrefixMap,
    SchemaError,
    StructuralError,
    Term,
    Triple,
    iri,
)
from .vocab import DEFAULT_PREFIXES, NAME_ALIASES


class Obligation(NamedTuple):
    """An existential requirement: instances of ``on_class`` need a
    ``property`` link to some instance of ``filler``."""

    on_class: str
    property: str
    filler: str

    def sort_key(self) -> tuple[str, str, str]:
        return (self.on_class, self.property, self.filler)


def _is_builtin(iri_value: str) -> bool:
    return iri_value.startswith(BUILTIN_NAMESPACES)


def _edge_key(edge: tuple[Term, Term, Term]) -> tuple:
    """Triple.sort_key of an ``(s, p, o)`` tuple."""
    return (edge[0].sort_key(), edge[1].sort_key(), edge[2].sort_key())


class SchemaIndex(NamedTuple):
    sub_class_of: frozenset[tuple[str, str]]
    sub_property_of: frozenset[tuple[str, str]]
    domain_of: dict[str, frozenset[str]]
    range_of: dict[str, frozenset[str]]
    inverse_of: frozenset[tuple[str, str]]
    disjoint_pairs: frozenset[tuple[str, str]]
    obligations: tuple[Obligation, ...]
    class_level_triples: tuple[Triple, ...]
    classes: frozenset[str]
    properties: frozenset[str]

    def superclasses(self, cls: str) -> frozenset[str]:
        """Strict superclasses of ``cls`` under the transitive closure."""
        return _closure(self.sub_class_of).get(cls, frozenset())

    def is_subclass(self, sub: str, sup: str) -> bool:
        """Reflexive-transitive subclass test."""
        return sub == sup or sup in self.superclasses(sub)

    def superproperties(self, prop: str) -> frozenset[str]:
        return _closure(self.sub_property_of).get(prop, frozenset())

    def is_subproperty(self, sub: str, sup: str) -> bool:
        return sub == sup or sup in self.superproperties(sub)


@lru_cache(maxsize=64)
def _closure(pairs: frozenset[tuple[str, str]], down: bool = False) -> dict[str, frozenset[str]]:
    """Each node with a step in the ``(child, parent)`` pairs, up or, with
    ``down``, down, mapped to the nodes a walk from it reaches; a node is
    its own ancestor only on a cycle, since a reflexive pair is skipped.
    Keyed by the pairs, never by a schema.

    One iterative Tarjan pass pops each strongly connected component after
    those it reaches and gives it one set, shared by its members: their
    steps (the component itself, if it has two members or more) and the
    steps' sets.  A cycle so costs memory linear in its length."""
    step: dict[str, list[str]] = {}
    for child, parent in pairs:
        if child != parent:
            if down:
                child, parent = parent, child
            step.setdefault(child, []).append(parent)
    index: dict[str, int] = {}  # each node's visit order; a node without steps is never visited
    low: dict[str, int] = {}  # the least visit order a walk from it reaches on the stack
    closure: dict[str, frozenset[str]] = {}
    stack: list[str] = []
    for root in step:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(step[root]))]
        while work:
            node, todo = work[-1]
            for nxt in todo:
                if nxt not in index:
                    if nxt in step:
                        index[nxt] = low[nxt] = len(index)
                        stack.append(nxt)
                        work.append((nxt, iter(step[nxt])))
                        break
                elif nxt not in closure:  # still on the stack
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    above = work[-1][0]
                    low[above] = min(low[above], low[node])
                if low[node] == index[node]:  # node roots a component: pop it off the stack
                    members = [stack.pop()]
                    while members[-1] != node:
                        members.append(stack.pop())
                    steps = {nxt for member in members for nxt in step[member]}
                    shared = frozenset().union(steps, *[closure.get(nxt, ()) for nxt in steps])
                    closure.update(dict.fromkeys(members, shared))
    return closure


def _cycle(pairs: frozenset[tuple[str, str]]) -> tuple[str, ...]:
    """A cycle of the ``(child, parent)`` pairs as the walk that names it,
    its first class repeated at the end; empty when there is none.

    Read off :func:`_closure`.  A node is in its own set exactly when one
    scan of the pairs finds it a parent ``p`` whose set holds it, a parent
    on a cycle with it.  The walk starts at the smallest such node and steps
    to the smallest such parent until a node repeats."""
    closure = _closure(pairs)
    smallest: dict[str, str] = {}  # each node on a cycle: its smallest parent on one with it
    for child, parent in pairs:
        if child != parent and child in closure.get(parent, ()):
            smallest[child] = min(parent, smallest.get(child, parent))
    if not smallest:
        return ()
    trail, seen = [min(smallest)], set()
    while trail[-1] not in seen:
        seen.add(node := trail[-1])
        trail.append(smallest[node])
    return tuple(trail[trail.index(trail[-1]) :])


class AxiomPairs(NamedTuple):
    """The ``(subject, object)`` IRI pairs of a graph's subclass,
    subproperty, domain, range and inverse edges."""

    sub_class_of: frozenset[tuple[str, str]]
    sub_property_of: frozenset[tuple[str, str]]
    domain: frozenset[tuple[str, str]]
    range: frozenset[tuple[str, str]]
    inverse_of: frozenset[tuple[str, str]]


def axiom_pairs(graph: Graph) -> AxiomPairs:
    """The five pair sets that both :func:`extract_schema` and the
    materializer read from a graph, taking only edges between two IRIs.

    A range in a built-in namespace names a datatype, which types no
    instance, so it is dropped.  ``owl:inverseOf`` is symmetric, so each
    inverse pair is stored in sorted order.
    """

    def pairs(predicate: str) -> frozenset[tuple[str, str]]:
        edges = graph._match(None, iri(predicate), None)
        return frozenset((s.value, o.value) for s, _, o in edges if s.kind == "iri" and o.kind == "iri")

    return AxiomPairs(
        sub_class_of=pairs(RDFS_SUBCLASSOF),
        sub_property_of=pairs(RDFS_SUBPROPERTYOF),
        domain=pairs(RDFS_DOMAIN),
        range=frozenset(pair for pair in pairs(RDFS_RANGE) if not _is_builtin(pair[1])),
        inverse_of=frozenset((min(pair), max(pair)) for pair in pairs(OWL_INVERSE_OF)),
    )


def extract_schema(graph: Graph) -> SchemaIndex:
    """Build a SchemaIndex from a graph's schema-level triples.

    The result depends only on the set of triples, never their order.
    Subclass cycles (other than reflexive assertions) and malformed
    restriction nodes raise :class:`SchemaError`.  A cycle is named by a
    walk from the smallest class on one, each step to the smallest parent on
    a cycle with the class it leaves, until a class repeats.  The check
    reads the cached subclass closure that the schema's readers use.
    """
    type_iri = iri(RDF_TYPE)

    classes: set[str] = set()
    properties: set[str] = set()

    for s, _, o in graph._match(None, type_iri, None):
        if not o.is_iri():
            continue
        if o.value == OWL_CLASS and s.is_iri():
            classes.add(s.value)
        elif o.value in (OWL_OBJECT_PROPERTY, OWL_DATATYPE_PROPERTY, RDF_PROPERTY) and s.is_iri():
            properties.add(s.value)
        elif not _is_builtin(o.value):
            classes.add(o.value)

    restriction_nodes = {s for s, _, _ in graph._match(None, type_iri, iri(OWL_RESTRICTION)) if s.is_blank()}

    axioms = axiom_pairs(graph)
    for pairs, subjects, objects in (
        (axioms.sub_class_of, classes, classes),
        (axioms.sub_property_of, properties, properties),
        (axioms.domain, properties, classes),
        (axioms.range, properties, classes),
        (axioms.inverse_of, properties, properties),
    ):
        for s, o in pairs:
            subjects.add(s)
            objects.add(o)
    domain_of: dict[str, set[str]] = {}
    for p, c in axioms.domain:
        domain_of.setdefault(p, set()).add(c)
    range_of: dict[str, set[str]] = {}
    for p, c in axioms.range:
        range_of.setdefault(p, set()).add(c)

    restriction_supers: dict[Term, list[str]] = {}
    edges = graph._match(None, iri(RDFS_SUBCLASSOF), None)
    restricted = [edge for edge in edges if edge[0].kind == "iri" and edge[2].kind == "blank"]
    for s, _, o in sorted(restricted, key=_edge_key):  # sorted: decides the first error
        if o not in restriction_nodes:
            raise SchemaError(f"blank node _:{o.value} is used as a superclass but is not typed owl:Restriction")
        restriction_supers.setdefault(o, []).append(s.value)
        classes.add(s.value)

    disjoint_pairs: set[tuple[str, str]] = set()
    for s, _, o in graph._match(None, iri(OWL_DISJOINT_WITH), None):
        if s.is_iri() and o.is_iri() and s.value != o.value:
            first, second = sorted((s.value, o.value))
            disjoint_pairs.add((first, second))
            classes.add(s.value)
            classes.add(o.value)

    obligations: list[Obligation] = []
    for node in sorted(restriction_nodes, key=Term.sort_key):
        on_property = [o for _, _, o in graph._match(node, iri(OWL_ON_PROPERTY), None) if o.is_iri()]
        fillers = [o for _, _, o in graph._match(node, iri(OWL_SOME_VALUES_FROM), None) if o.is_iri()]
        if len(on_property) != 1 or len(fillers) != 1:
            raise SchemaError(
                f"restriction _:{node.value} needs exactly one owl:onProperty and one owl:someValuesFrom"
            )
        properties.add(on_property[0].value)
        classes.add(fillers[0].value)
        for on_class in restriction_supers.get(node, ()):
            obligations.append(Obligation(on_class, on_property[0].value, fillers[0].value))

    classes = {c for c in classes if not _is_builtin(c)}
    properties = {p for p in properties if not _is_builtin(p)}

    cycle = _cycle(axioms.sub_class_of)
    if cycle:
        raise SchemaError("subclass cycle detected: " + " < ".join(cycle))

    class_level = [Triple(*t) for c in classes for t in graph._match(iri(c)) if not _is_builtin(t[1].value)]

    for ob in obligations:
        if ob.property not in properties:
            raise SchemaError(f"obligation on {ob.on_class} names undeclared property {ob.property}")
        if ob.filler not in classes:
            raise SchemaError(f"obligation on {ob.on_class} names undeclared class {ob.filler}")

    return SchemaIndex(
        sub_class_of=axioms.sub_class_of,
        sub_property_of=axioms.sub_property_of,
        domain_of={p: frozenset(cs) for p, cs in sorted(domain_of.items())},
        range_of={p: frozenset(cs) for p, cs in sorted(range_of.items())},
        inverse_of=axioms.inverse_of,
        disjoint_pairs=frozenset(disjoint_pairs),
        obligations=tuple(sorted(obligations, key=Obligation.sort_key)),
        class_level_triples=tuple(sorted(class_level, key=Triple.sort_key)),
        classes=frozenset(classes),
        properties=frozenset(properties),
    )


def local_name(iri_value: str) -> str:
    """The part of an IRI after the last '#' or '/'."""
    for sep in ("#", "/"):
        if sep in iri_value:
            idx = iri_value.rfind(sep)
            if idx + 1 < len(iri_value):
                return iri_value[idx + 1:]
    return iri_value


class NameCatalog:
    """Resolve bare, aliased, prefixed, or bracketed names to IRIs.

    Bare names are matched against the local names of every class, property,
    and typed individual in a graph.  Ambiguous bare names resolve to an
    error listing the candidates rather than guessing.
    """

    def __init__(
        self,
        classes: dict[str, set[str]],
        properties: dict[str, set[str]],
        individuals: dict[str, set[str]],
        prefixes: PrefixMap | None = None,
    ) -> None:
        self._by_category = {"class": classes, "property": properties, "individual": individuals}
        self._prefixes = prefixes if prefixes is not None else DEFAULT_PREFIXES

    @classmethod
    def from_graph(cls, graph: Graph, schema: SchemaIndex | None = None,
                   prefixes: PrefixMap | None = None) -> "NameCatalog":
        if schema is None:
            schema = extract_schema(graph)
        classes: dict[str, set[str]] = {}
        properties: dict[str, set[str]] = {}
        individuals: dict[str, set[str]] = {}
        for c in schema.classes:
            classes.setdefault(local_name(c), set()).add(c)
        for p in schema.properties:
            properties.setdefault(local_name(p), set()).add(p)
        # Every IRI typed into an IRI class outside the built-in namespaces
        # that is not a class itself: each class is tested once, and its
        # instances are read in the index's own sets.
        typed = set().union(*(
            subjects
            for c, subjects in graph._by_object(iri(RDF_TYPE)).items()
            if c.kind == "iri" and not _is_builtin(c.value)
        ))
        for s in typed:
            if s.kind == "iri" and s.value not in schema.classes:
                individuals.setdefault(local_name(s.value), set()).add(s.value)
        return cls(classes, properties, individuals, prefixes)

    def resolve(self, name: str, category: str, *more: str) -> str:
        """Resolve a name as written in a query or rule to an IRI.

        Accepts ``<absolute-iri>``, ``prefix:local``, a bare local name, or
        an alias of one in ``vocab.NAME_ALIASES``.  A bare name is tried in
        each category in turn.  Raises KeyError with a readable message: the
        last category's for a bare name, or why an IRI is not a valid term.
        Raises ValueError for an unknown category, except where a bare name
        resolves in another one: only then are the categories not checked.
        """
        return self._resolve(name, (category, *more))

    def _resolve(self, name: str, categories: tuple[str, ...]) -> str:
        """:meth:`resolve`, with the categories in one tuple.  A bare name
        costs an alias probe, then a probe of each category's names until
        one holds it alone."""
        if ":" in name or name.startswith("<") and name.endswith(">"):
            return self._resolve_iri(name, categories)
        bare = NAME_ALIASES.get(name, name)
        for category in categories:
            candidates = self._by_category.get(category, {}).get(bare, ())
            if len(candidates) == 1:
                (value,) = candidates
                return value
        raise self._unresolved(bare, categories)

    def _check_categories(self, categories: tuple[str, ...]) -> None:
        for category in categories:
            if category not in self._by_category:
                raise ValueError(f"unknown name category: {category!r}")

    def _resolve_iri(self, name: str, categories: tuple[str, ...]) -> str:
        """The IRI of a bracketed or prefixed name, if it is a valid term."""
        self._check_categories(categories)
        if name.startswith("<") and name.endswith(">"):
            value = name[1:-1]
        else:
            prefix, _, local = name.partition(":")
            value = self._prefixes.expand(prefix, local)
            if value is None:
                raise KeyError(f"undeclared prefix '{prefix}:' in name {name!r}")
        try:
            iri(value)
        except StructuralError as exc:
            raise KeyError(str(exc)) from None
        return value

    def _unresolved(self, bare: str, categories: tuple[str, ...]) -> KeyError:
        """The error for a bare name that resolves in no category: the last
        category's."""
        self._check_categories(categories)
        category = categories[-1]
        candidates = self._by_category[category].get(bare, ())
        if candidates:
            return KeyError(f"{category} name {bare!r} is ambiguous between: {', '.join(sorted(candidates))}")
        return KeyError(f"unknown {category} name {bare!r}")


def catalog_or_bundled(catalog: NameCatalog | None) -> NameCatalog:
    """``catalog``, or the bundled assets' catalog when it is None."""
    if catalog is not None:
        return catalog
    from .assets import default_catalog

    return default_catalog()

