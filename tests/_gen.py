"""Seeded random generators for the oracle-equivalence suites.

Everything is driven by a caller-provided random.Random so runs are
reproducible from a single integer seed.  Generated schema triples keep
subclass and subproperty edges acyclic by construction (edges only point
from a higher index to a lower one).
"""

from __future__ import annotations

import random

from applekit.graph import Graph
from applekit.query import (
    ANYTHING,
    And,
    Named,
    OneOf,
    PropertyPath,
    SelectQuery,
    Some,
    TriplePattern,
)
from applekit.rules import Rule, _stratify
from applekit.terms import (
    OWL_CLASS,
    OWL_DISJOINT_WITH,
    OWL_INVERSE_OF,
    OWL_OBJECT_PROPERTY,
    OWL_ON_PROPERTY,
    OWL_RESTRICTION,
    OWL_SOME_VALUES_FROM,
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    XSD_NS,
    XSD_STRING,
    Term,
    Triple,
    blank,
    iri,
    literal,
)

NS = "http://test.example/gen#"


def random_graph(
    rng: random.Random,
    max_triples: int = 60,
    max_classes: int = 8,
    max_properties: int = 6,
    max_individuals: int = 12,
) -> Graph:
    """A random graph mixing schema and instance triples, <= max_triples."""
    n_classes = rng.randint(2, max_classes)
    n_props = rng.randint(1, max_properties)
    n_inds = rng.randint(2, max_individuals)
    classes = [iri(f"{NS}C{i}") for i in range(n_classes)]
    props = [iri(f"{NS}p{i}") for i in range(n_props)]
    individuals = [iri(f"{NS}i{i}") for i in range(n_inds)]
    if rng.random() < 0.3:
        individuals.append(blank(f"b{rng.randint(0, 2)}"))

    graph = Graph()
    rdf_type = iri(RDF_TYPE)

    # Declarations (cheap, and they anchor schema extraction).
    for cls in classes:
        graph.insert(Triple(cls, rdf_type, iri(OWL_CLASS)))
    for prop in props:
        graph.insert(Triple(prop, rdf_type, iri(OWL_OBJECT_PROPERTY)))

    # Acyclic subclass / subproperty edges: child index > parent index.
    for i in range(1, n_classes):
        if rng.random() < 0.55:
            graph.insert(Triple(classes[i], iri(RDFS_SUBCLASSOF), classes[rng.randrange(i)]))
    for i in range(1, n_props):
        if rng.random() < 0.4:
            graph.insert(Triple(props[i], iri(RDFS_SUBPROPERTYOF), props[rng.randrange(i)]))

    for prop in props:
        if rng.random() < 0.4:
            graph.insert(Triple(prop, iri(RDFS_DOMAIN), rng.choice(classes)))
        if rng.random() < 0.4:
            graph.insert(Triple(prop, iri(RDFS_RANGE), rng.choice(classes)))
    if n_props >= 2 and rng.random() < 0.5:
        a, b = rng.sample(range(n_props), 2)
        graph.insert(Triple(props[a], iri(OWL_INVERSE_OF), props[b]))
    if rng.random() < 0.4:
        a, b = rng.sample(range(n_classes), 2) if n_classes >= 2 else (0, 0)
        if a != b:
            graph.insert(Triple(classes[a], iri(OWL_DISJOINT_WITH), classes[b]))

    budget = max_triples - len(graph)
    for _ in range(max(0, rng.randint(budget // 2, budget))):
        roll = rng.random()
        if roll < 0.45:
            graph.insert(Triple(rng.choice(individuals), rdf_type, rng.choice(classes)))
        elif roll < 0.9:
            graph.insert(
                Triple(rng.choice(individuals), rng.choice(props), rng.choice(individuals))
            )
        else:
            graph.insert(
                Triple(rng.choice(individuals), rng.choice(props), literal(f"v{rng.randint(0, 9)}"))
            )
    return graph


def random_data_graph(rng: random.Random, max_triples: int = 40) -> Graph:
    """Instance triples plus subclass and subproperty edges between IRIs, over
    the vocabulary of :func:`random_graph` and with its edge direction
    (higher index to lower), so its edges and a random_graph schema's form
    no cycle together.  It states no other schema axiom."""
    classes = [iri(f"{NS}C{i}") for i in range(8)]
    props = [iri(f"{NS}p{i}") for i in range(6)]
    individuals = [iri(f"{NS}i{i}") for i in range(10)] + [blank("b0")]
    graph = Graph()
    for _ in range(rng.randint(1, max_triples)):
        roll = rng.random()
        if roll < 0.15:
            child = rng.randrange(1, len(classes))
            graph.insert(Triple(classes[child], iri(RDFS_SUBCLASSOF), classes[rng.randrange(child)]))
        elif roll < 0.25:
            child = rng.randrange(1, len(props))
            graph.insert(Triple(props[child], iri(RDFS_SUBPROPERTYOF), props[rng.randrange(child)]))
        elif roll < 0.6:
            graph.insert(Triple(rng.choice(individuals), iri(RDF_TYPE), rng.choice(classes)))
        elif roll < 0.9:
            graph.insert(Triple(rng.choice(individuals), rng.choice(props), rng.choice(individuals)))
        else:
            graph.insert(Triple(rng.choice(individuals), rng.choice(props), literal(f"v{rng.randint(0, 9)}")))
    return graph


def add_data_axioms(rng: random.Random, graph: Graph) -> Graph:
    """Add up to three each of ``rdfs:domain``, ``rdfs:range`` and
    ``owl:inverseOf`` edges over the :func:`random_data_graph` vocabulary,
    the axioms materialize also reads from the data graph; a range may name
    a datatype, which types nothing.  Kept apart from random_data_graph so
    the graphs existing seeds produce do not change."""
    classes = [iri(f"{NS}C{i}") for i in range(8)]
    props = [iri(f"{NS}p{i}") for i in range(6)]
    for _ in range(rng.randint(0, 3)):
        graph.insert(Triple(rng.choice(props), iri(RDFS_DOMAIN), rng.choice(classes)))
    for _ in range(rng.randint(0, 3)):
        target = iri(XSD_STRING) if rng.random() < 0.2 else rng.choice(classes)
        graph.insert(Triple(rng.choice(props), iri(RDFS_RANGE), target))
    for _ in range(rng.randint(0, 3)):
        graph.insert(Triple(rng.choice(props), iri(OWL_INVERSE_OF), rng.choice(props)))
    return graph


def add_obligations(rng: random.Random, graph: Graph) -> Graph:
    """Add one to three existential obligations to a :func:`random_graph`
    graph, each a labeled-blank-node ``owl:Restriction`` that a class is a
    subclass of, and up to two ``owl:disjointWith`` edges.  Kept apart from
    random_graph so the graphs existing seeds produce do not change."""
    classes, props, _ = graph_vocabulary(graph)
    for k in range(rng.randint(1, 3)):
        node = blank(f"r{k}")
        graph.insert(Triple(node, iri(RDF_TYPE), iri(OWL_RESTRICTION)))
        graph.insert(Triple(node, iri(OWL_ON_PROPERTY), iri(rng.choice(props))))
        graph.insert(Triple(node, iri(OWL_SOME_VALUES_FROM), iri(rng.choice(classes))))
        graph.insert(Triple(iri(rng.choice(classes)), iri(RDFS_SUBCLASSOF), node))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(classes, 2)
        graph.insert(Triple(iri(a), iri(OWL_DISJOINT_WITH), iri(b)))
    return graph


def add_meta_axioms(rng: random.Random, graph: Graph) -> Graph:
    """Add axioms about ``rdf:type`` and ``rdfs:subClassOf`` themselves to a
    :func:`random_graph` graph: a property below or above either one,
    domains and ranges on them, and an ``owl:inverseOf`` with either.  Up
    to two property edges between classes let a property below or inverse
    to ``rdfs:subClassOf`` derive subclass edges that chain.  Kept apart
    from random_graph so the graphs existing seeds produce do not change."""
    classes, props, _ = graph_vocabulary(graph)
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(classes, 2)
        graph.insert(Triple(iri(a), iri(rng.choice(props)), iri(b)))
    for meta in (iri(RDF_TYPE), iri(RDFS_SUBCLASSOF)):
        for predicate in (RDFS_SUBPROPERTYOF, OWL_INVERSE_OF):
            if rng.random() < 0.5:
                graph.insert(Triple(iri(rng.choice(props)), iri(predicate), meta))
        if rng.random() < 0.4:
            graph.insert(Triple(meta, iri(RDFS_SUBPROPERTYOF), iri(rng.choice(props))))
        for predicate in (RDFS_DOMAIN, RDFS_RANGE):
            if rng.random() < 0.3:
                graph.insert(Triple(meta, iri(predicate), iri(rng.choice(classes))))
    return graph


def typing_graph(rng: random.Random) -> Graph:
    """A graph of the shapes that typing a node at a time must get right:
    many parallel edges from one subject over predicates sharing a domain,
    one object reached over several range predicates that also carry
    literal objects, inverse pairs declared both ways (and a property its
    own inverse), and ``rdf:type`` with a domain or a range but no
    superproperty.  Subclass and subproperty edges point from a higher
    index to a lower one, so they form no cycle."""
    classes = [iri(f"{NS}C{i}") for i in range(6)]
    props = [iri(f"{NS}p{i}") for i in range(6)]
    nodes = [iri(f"{NS}i{i}") for i in range(6)] + [blank("b0")]
    graph = Graph()

    def add(s: Term, p: str | Term, o: Term) -> None:
        graph.insert(Triple(s, iri(p) if isinstance(p, str) else p, o))

    for i in range(1, len(classes)):
        if rng.random() < 0.5:
            add(classes[i], RDFS_SUBCLASSOF, classes[rng.randrange(i)])
    for i in range(1, len(props)):
        if rng.random() < 0.25:
            add(props[i], RDFS_SUBPROPERTYOF, props[rng.randrange(i)])
    shared = rng.choice(classes)
    for prop in rng.sample(props, rng.randint(2, 4)):
        add(prop, RDFS_DOMAIN, shared)
    for prop in rng.sample(props, rng.randint(2, 4)):
        add(prop, RDFS_RANGE, rng.choice(classes))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(props, 2)
        add(a, OWL_INVERSE_OF, b)
        add(b, OWL_INVERSE_OF, a)
    if rng.random() < 0.3:
        prop = rng.choice(props)
        add(prop, OWL_INVERSE_OF, prop)
    for predicate in (RDFS_DOMAIN, RDFS_RANGE):
        if rng.random() < 0.4:
            add(iri(RDF_TYPE), predicate, rng.choice(classes))

    hub = rng.choice(nodes)
    for _ in range(rng.randint(3, 12)):
        add(hub, rng.choice(props), rng.choice(nodes))
    target = rng.choice(nodes)
    for prop in rng.sample(props, rng.randint(2, 5)):
        add(rng.choice(nodes), prop, target)
        if rng.random() < 0.5:
            add(rng.choice(nodes), prop, literal(f"v{rng.randint(0, 2)}"))
    for _ in range(rng.randint(0, 6)):
        add(rng.choice(nodes), RDF_TYPE, rng.choice(classes))
    return graph


def add_literals(rng: random.Random, graph: Graph, count: int = 80) -> Graph:
    """Add ``count`` literal objects to subjects the graph already has, over
    two fresh properties: plain, language-tagged and datatyped forms of a
    few lexical values, so one subject's group can hold several literals
    that differ only in their tag or datatype.  Kept apart from the other
    generators so the graphs existing seeds produce do not change."""
    subjects = sorted({t.s for t in graph.match()}, key=Term.sort_key)
    props = [iri(f"{NS}label"), iri(f"{NS}note")]
    for _ in range(count):
        value, roll = f"v{rng.randint(0, 3)}", rng.random()
        if roll < 0.3:
            term = literal(value)
        elif roll < 0.65:
            term = literal(value, lang=rng.choice(("en", "de", "en-GB")))
        else:
            term = literal(value, datatype=XSD_NS + rng.choice(("token", "integer", "anyURI")))
        graph.insert(Triple(rng.choice(subjects), rng.choice(props), term))
    return graph


def graph_vocabulary(graph: Graph) -> tuple[list[str], list[str], list[str]]:
    """(classes, properties, individuals) IRIs seen in a generated graph."""
    classes = sorted({t.s.value for t in graph.match(None, iri(RDF_TYPE), iri(OWL_CLASS))})
    props = sorted({t.s.value for t in graph.match(None, iri(RDF_TYPE), iri(OWL_OBJECT_PROPERTY))})
    individuals = sorted(
        {
            t.s.value
            for t in graph.match(None, iri(RDF_TYPE), None)
            if t.s.is_iri() and t.o.is_iri() and t.o.value.startswith(NS)
        }
    )
    return classes, props, individuals


def random_expression(rng: random.Random, classes: list[str], props: list[str], individuals: list[str], depth: int = 2):
    """A random class expression over the given vocabulary."""
    choices = ["named", "oneof", "anything"]
    if depth > 0:
        choices += ["some", "some", "and"]
    kind = rng.choice(choices)
    if kind == "named" and classes:
        return Named(rng.choice(classes))
    if kind == "oneof" and individuals:
        count = min(len(individuals), rng.randint(1, 2))
        return OneOf(frozenset(rng.sample(individuals, count)))
    if kind == "some" and props:
        filler = ANYTHING if rng.random() < 0.3 else random_expression(rng, classes, props, individuals, depth - 1)
        return Some(PropertyPath(rng.choice(props), inverted=rng.random() < 0.4), filler)
    if kind == "and" and depth > 0:
        parts = tuple(random_expression(rng, classes, props, individuals, depth - 1) for _ in range(rng.randint(2, 3)))
        return And(parts)
    return ANYTHING


def random_select(rng: random.Random, props: list[str], individuals: list[str], constant_subjects: bool = False) -> SelectQuery:
    """A connected conjunctive query: patterns chain through a shared
    variable.  A pattern's object may repeat its subject variable
    (``?x p ?x``) and its predicate may be a variable (``?a ?p ?b``); a
    query has at most four variables, so the brute-force oracle stays fast.
    A pattern may have a constant object; with ``constant_subjects`` it may
    instead have a constant subject, its object then the shared variable
    (``i p ?x``), so a later pattern can have more fixed slots than an
    earlier one and the join's order differ from the text's.  Left off, it
    draws nothing from ``rng``, so seeded callers keep their queries."""
    n_patterns = rng.randint(1, 3)
    patterns: list[TriplePattern] = []
    current = "?v0"
    fresh = 1

    def variable() -> str:
        nonlocal fresh
        fresh += 1
        return f"?v{fresh - 1}"

    for _ in range(n_patterns):
        roll = rng.random()
        if constant_subjects and individuals and rng.random() < 0.2:
            patterns.append(TriplePattern(iri(rng.choice(individuals)), iri(rng.choice(props)), current))
            continue
        if individuals and roll < 0.25:
            obj = iri(rng.choice(individuals))
        elif roll < 0.4 or fresh == 4:
            obj = current
        else:
            obj = variable()
        predicate = variable() if fresh < 4 and rng.random() < 0.25 else iri(rng.choice(props))
        patterns.append(TriplePattern(current, predicate, obj))
        if isinstance(obj, str) and rng.random() < 0.7:
            current = obj
    order: list[str] = []
    for pattern in patterns:
        for var in pattern.variables():
            if var not in order:
                order.append(var)
    return SelectQuery(tuple(patterns), tuple(order))


def random_rules(rng: random.Random, classes: list[str], props: list[str], individuals: list[str]) -> list[Rule]:
    """1-3 stratified rules, safe by construction.

    Head predicates are fresh (H0, H1, ...) so rules can chain on and negate
    one another; negation only ever looks at lower-numbered heads or at
    vocabulary predicates, keeping the set stratifiable.
    """
    rdf_type = iri(RDF_TYPE)
    n_rules = rng.randint(1, 3)
    heads = [iri(f"{NS}H{i}") for i in range(n_rules)]
    rules: list[Rule] = []
    for k in range(n_rules):
        positives: list[TriplePattern] = []
        negatives: list[TriplePattern] = []
        # One guaranteed positive binder for ?x.
        if props and rng.random() < 0.6:
            positives.append(TriplePattern("x", iri(rng.choice(props)), "y"))
            binder_has_y = True
        elif classes:
            positives.append(TriplePattern("x", rdf_type, iri(rng.choice(classes))))
            binder_has_y = False
        else:
            positives.append(TriplePattern("x", rdf_type, heads[0]))
            binder_has_y = False
        # Optional extra positive pattern, possibly chaining on an earlier head.
        if rng.random() < 0.5:
            if k > 0 and rng.random() < 0.4:
                positives.append(TriplePattern("x", rdf_type, rng.choice(heads[:k])))
            elif classes:
                positives.append(TriplePattern("x", rdf_type, iri(rng.choice(classes))))
        # Optional constant or wildcard pattern.
        if props and individuals and rng.random() < 0.4:
            positives.append(TriplePattern("x", iri(rng.choice(props)), iri(rng.choice(individuals))))
        if props and rng.random() < 0.3:
            negatives.append(TriplePattern("x", iri(rng.choice(props)), None))
        # Optional stratified negation on an earlier head.
        if k > 0 and rng.random() < 0.5:
            negatives.append(TriplePattern("x", rdf_type, rng.choice(heads[:k])))
        # Heads alternate between class patterns and property patterns.
        if binder_has_y and rng.random() < 0.3:
            head = TriplePattern("x", heads[k], "y")
        else:
            head = TriplePattern("x", rdf_type, heads[k])
        rules.append(Rule(f"G{k}", tuple(positives), tuple(negatives), head))
    return assign_strata(rules)


def assign_strata(rules: list[Rule]) -> list[Rule]:
    """The rules with the strata :func:`applekit.rules.parse_rules` would
    give them, for rules built programmatically (ids must be unique)."""
    return _stratify(rules, {rule.id: 0 for rule in rules}, "")


def random_rule_text(rng: random.Random, classes: list[str], props: list[str]) -> str:
    """2-4 safe, stratifiable rules as the text of a rule file.

    Head classes are fresh (H0, H1, ...), and each class atom over a head
    is written ``H(?x)`` or ``rdf:type(?x, H)`` at random, in bodies and in
    heads, so a rule can read a head written the other way.  A rule reads
    only lower-numbered heads, except that the last rule may read every
    class head through ``rdf:type(?x, ?c)``.  A head typing ?y can meet a
    literal.  Every name is an ``<iri>``, so any catalog parses the text.
    """
    n_rules = rng.randint(2, 4)
    heads = [f"<{NS}H{i}>" for i in range(n_rules)]

    def member(cls: str, var: str = "?x") -> str:
        return f"<{RDF_TYPE}>({var}, {cls})" if rng.random() < 0.5 else f"{cls}({var})"

    lines = []
    for k in range(n_rules):
        has_y = rng.random() < 0.6
        body = [f"<{rng.choice(props)}>(?x, ?y)" if has_y else member(f"<{rng.choice(classes)}>")]
        if k > 0 and rng.random() < 0.4:
            body.append(member(rng.choice(heads[:k])))
        if k == n_rules - 1 and rng.random() < 0.3:
            body.append(f"<{RDF_TYPE}>(?x, ?c)")
        if rng.random() < 0.3:
            body.append(f"not {member(f'<{rng.choice(classes)}>')}")
        if rng.random() < 0.2:
            body.append(f"not <{rng.choice(props)}>(?x, _)")
        if k > 0 and rng.random() < 0.7:
            body.append(f"not {member(rng.choice(heads[:k]))}")
        roll = rng.random()
        if has_y and roll < 0.2:
            head = f"{heads[k]}(?x, ?y)"
        elif has_y and roll < 0.4:
            head = member(heads[k], "?y")
        else:
            head = member(heads[k])
        lines.append(f"G{k}: {', '.join(body)} -> {head} .")
    return "\n".join(lines) + "\n"


def renamed_scenario_copies(taxonomy: Graph, scenario: Graph, copies: int) -> Graph:
    """The taxonomy plus ``copies`` copies of the scenario graph.

    Copy k renames each individual that only the scenario mentions by
    appending ``_k`` to its IRI; taxonomy terms are shared by every copy.
    """
    shared = {term for t in taxonomy.match() for term in (t.s, t.o)}
    local = {t.s for t in scenario.match() if t.s not in shared}
    out = taxonomy.copy()
    for k in range(copies):
        renamed = {term: iri(f"{term.value}_{k}") for term in local}
        for t in scenario.match():
            out.insert(Triple(renamed.get(t.s, t.s), t.p, renamed.get(t.o, t.o)))
    return out
