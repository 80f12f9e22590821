"""Triple store: set semantics, index-backed matching, deterministic reads."""

from hypothesis import given
from hypothesis import strategies as st

from applekit.assets import load_assets
from applekit.graph import Graph
from applekit.materialize import materialize
from applekit.query import parse_class_expression, parse_select, retrieve_instances, select
from applekit.terms import Term, Triple, blank, iri, literal
from applekit.turtle import canonical_ntriples, serialize_turtle

EX = "http://example.org/"


def t(s, p, o):
    return Triple(iri(EX + s), iri(EX + p), iri(EX + o))


SUBJECTS = [iri(EX + n) for n in "suv"] + [blank("b")]
PREDICATES = [iri(EX + n) for n in "pq"]
OBJECTS = [iri(EX + n) for n in "ox"] + [literal("1"), literal("1", lang="en"), blank("b")]
triples_strategy = st.lists(
    st.builds(Triple, st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES), st.sampled_from(OBJECTS)),
    max_size=24,
)


def brute_match(triples, s, p, o):
    """Linear-scan reference for Graph.match."""
    hits = [
        x
        for x in triples
        if (s is None or x.s == s) and (p is None or x.p == p) and (o is None or x.o == o)
    ]
    return sorted(set(hits), key=Triple.sort_key)


class TestSetSemantics:
    def test_insert_reports_novelty(self):
        g = Graph()
        assert g.insert(t("s", "p", "o")) is True
        assert g.insert(t("s", "p", "o")) is False
        assert len(g) == 1

    def test_insert_rejects_non_triples(self):
        g = Graph()
        try:
            g.insert((iri(EX + "s"), iri(EX + "p"), iri(EX + "o")))
        except TypeError as exc:
            assert "Triple" in str(exc)
        else:
            raise AssertionError("tuple accepted")

    def test_contains_and_eq(self):
        g1 = Graph([t("s", "p", "o"), t("s", "p", "o2")])
        g2 = Graph([t("s", "p", "o2"), t("s", "p", "o")])
        assert t("s", "p", "o") in g1
        assert g1 == g2
        assert g1 != Graph()
        assert (g1 == 42) is False

    @given(triples_strategy, triples_strategy)
    def test_agrees_with_set_model(self, triples, others):
        g = Graph(triples)
        model = set(triples)
        assert len(g) == len(model)
        for x in triples + others:
            assert (x in g) == (x in model), x
        # A non-Triple is never a member, as with a plain set of Triples.
        assert all((x.s, x.p, x.o) not in g for x in triples)
        assert (g == Graph(others)) == (set(others) == model)
        assert g == Graph(reversed(triples)) == g.copy()
        assert len(g.copy()) == len(g)


def triples_built(monkeypatch, read):
    """Call ``read()``; return its result and the Triples constructed meanwhile."""
    original = Triple.__init__
    built = [0]

    def counting(triple, s, p, o):
        built[0] += 1
        original(triple, s, p, o)

    with monkeypatch.context() as patch:
        patch.setattr(Triple, "__init__", counting)
        result = read()
    return result, built[0]


class TestMatch:
    @given(triples_strategy, st.data())
    def test_every_bound_combination_agrees_with_scan(self, triples, data):
        g = Graph(triples)
        inside = sorted({term for x in triples for term in (x.s, x.p, x.o)}, key=Term.sort_key)
        outside = [iri(EX + "absent"), literal("2"), blank("c")]
        probe = st.sampled_from(inside + outside)
        for shape in range(8):
            s, p, o = (data.draw(probe) if shape & bit else None for bit in (4, 2, 1))
            expected = brute_match(triples, s, p, o)
            assert g.match(s, p, o) == expected, (s, p, o)
            hits = g._match(s, p, o)
            assert all(type(hit) is tuple and len(hit) == 3 for hit in hits), (s, p, o)
            assert len(hits) == len(set(hits)), (s, p, o)
            assert set(hits) == {(x.s, x.p, x.o) for x in expected}, (s, p, o)
        nodes = {x.s for x in triples} | {x.o for x in triples if x.o.kind != "literal"}
        assert g._nodes() == nodes

    def test_index_reads_build_no_triples(self, monkeypatch):
        # The store holds Terms: internal reads hand back term tuples, and
        # only the public match builds a Triple, one per hit.
        g = Graph([t("s", "p", "o"), t("s", "p", "x"), t("s", "q", "o"), t("u", "p", "o")])
        s, p, o = iri(EX + "s"), iri(EX + "p"), iri(EX + "o")
        for shape in range(8):
            probe = [s if shape & 4 else None, p if shape & 2 else None, o if shape & 1 else None]
            hits, built = triples_built(monkeypatch, lambda: g._match(*probe))
            assert built == 0 and hits and all(g._has(*hit) for hit in hits), probe
            public, built = triples_built(monkeypatch, lambda: g.match(*probe))
            assert built == len(public) == len(hits) and all(x in g for x in public), probe

        assets = load_assets()
        materialized = materialize(assets.combined(), assets.schema)
        agent = parse_class_expression("Agent", assets.catalog)
        found, built = triples_built(monkeypatch, lambda: retrieve_instances(agent, materialized))
        assert built == 0 and found

    def test_writers_and_select_build_no_triples(self, monkeypatch):
        assets = load_assets()
        materialized = materialize(assets.combined(), assets.schema)
        query = parse_select("Deforestation resolvedBy ?x", assets.catalog)
        for read in (
            lambda: canonical_ntriples(materialized),
            lambda: serialize_turtle(materialized),
            lambda: select(query, materialized),
        ):
            result, built = triples_built(monkeypatch, read)
            assert built == 0 and result

    def test_match_results_sorted(self):
        g = Graph([t("s", "p", "z"), t("s", "p", "a"), t("a", "p", "a")])
        assert g.match(None, iri(EX + "p"), None) == [t("a", "p", "a"), t("s", "p", "a"), t("s", "p", "z")]

    def test_impossible_probes_match_nothing(self):
        g = Graph([t("s", "p", "o")])
        assert g.match(literal("x"), None, None) == []
        assert g.match(None, blank("p"), None) == []
        assert g.match(literal("x"), iri(EX + "p"), iri(EX + "o")) == []

    @given(triples_strategy)
    def test_match_wildcard_equals_iteration(self, triples):
        g = Graph(triples)
        assert g.match(None, None, None) == list(g)
        assert len(list(g)) == len(g) == len(set(triples))


class TestAccessors:
    def setup_method(self):
        self.g = Graph(
            [
                t("s", "p", "o"),
                t("s", "q", "o"),
                Triple(iri(EX + "s"), iri(EX + "p"), literal("v")),
                Triple(blank("b"), iri(EX + "p"), iri(EX + "s")),
            ]
        )

    def test_nodes_excludes_literals_includes_blank_objects(self):
        nodes = self.g._nodes()
        assert literal("v") not in nodes
        assert blank("b") in nodes and iri(EX + "o") in nodes

    def test_copy_is_deep_for_indexes(self):
        before = self.g.match()
        clone = self.g.copy()
        clone.insert(t("new", "p", "o"))
        clone.insert(t("s", "p", "new"))
        clone.insert(t("s", "new", "o"))
        assert len(clone) == len(self.g) + 3
        assert self.g.match() == before and len(self.g) == len(before)
        assert t("new", "p", "o") not in self.g and t("s", "p", "new") not in self.g
        assert self.g.match(None, iri(EX + "p"), iri(EX + "o")) == [t("s", "p", "o")]

    @given(triples_strategy)
    def test_construction_order_is_irrelevant(self, triples):
        forward = Graph(triples)
        backward = Graph(reversed(triples))
        assert forward == backward
        assert list(forward) == list(backward)
        assert forward._nodes() == backward._nodes()
