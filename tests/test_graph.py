"""Triple store: set semantics, index-backed matching, deterministic reads."""

import random

from hypothesis import given
from hypothesis import strategies as st

from applekit.assets import load_assets
from applekit.graph import Graph
from applekit.materialize import materialize
from applekit.query import parse_class_expression, retrieve_instances
from applekit.terms import Term, Triple, blank, iri, literal

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

    def test_remove_reports_presence(self):
        g = Graph([t("s", "p", "o")])
        assert g.remove(t("s", "p", "o")) is True
        assert g.remove(t("s", "p", "o")) is False
        assert len(g) == 0
        assert g.match(None, None, None) == []

    def test_contains_and_eq(self):
        g1 = Graph([t("s", "p", "o"), t("s", "p", "o2")])
        g2 = Graph([t("s", "p", "o2"), t("s", "p", "o")])
        assert t("s", "p", "o") in g1
        assert g1 == g2
        assert g1 != Graph()
        assert (g1 == 42) is False

    @given(triples_strategy)
    def test_insert_remove_inverse(self, triples):
        g = Graph()
        for x in triples:
            g.insert(x)
        for x in set(triples):
            assert g.remove(x)
        assert len(g) == 0
        # Indexes must be fully cleaned, not just emptied sets.
        assert g.match(None, None, None) == []
        assert g.subjects() == [] and g.predicates() == []


def triples_built(monkeypatch, read):
    """Call ``read()``; return its result and the Triples constructed meanwhile."""
    original = Triple.__post_init__
    built = [0]

    def counting(triple):
        built[0] += 1
        original(triple)

    with monkeypatch.context() as patch:
        patch.setattr(Triple, "__post_init__", counting)
        result = read()
    return result, built[0]


class TestMatch:
    def test_every_bound_combination_agrees_with_scan(self):
        rng = random.Random(4)
        triples = [
            Triple(rng.choice(SUBJECTS), rng.choice(PREDICATES), rng.choice(OBJECTS))
            for _ in range(40)
        ]
        g = Graph(triples)
        probes_s = SUBJECTS + [None, iri(EX + "absent")]
        probes_p = PREDICATES + [None, iri(EX + "absent")]
        probes_o = OBJECTS + [None, literal("2")]

        def agrees(stored):
            for s in probes_s:
                for p in probes_p:
                    for o in probes_o:
                        assert g.match(s, p, o) == brute_match(stored, s, p, o), (s, p, o)

        agrees(triples)
        # Delete in small batches, removing equal copies rather than the
        # inserted objects, and re-check every index after each batch.
        remaining = sorted(set(triples), key=Triple.sort_key)
        rng.shuffle(remaining)
        while remaining:
            for gone in remaining[:3]:
                assert g.remove(Triple(gone.s, gone.p, gone.o))
            del remaining[:3]
            agrees(remaining)

    def test_index_reads_build_no_triples(self, monkeypatch):
        # Reads hand back the stored Triples; rebuilding one per result
        # would cost a construction and a hash per row.
        g = Graph([t("s", "p", "o"), t("s", "p", "x"), t("s", "q", "o"), t("u", "p", "o")])
        s, p, o = iri(EX + "s"), iri(EX + "p"), iri(EX + "o")
        for shape in range(8):
            probe = [s if shape & 4 else None, p if shape & 2 else None, o if shape & 1 else None]
            hits, built = triples_built(monkeypatch, lambda: g.match(*probe))
            assert built == 0 and hits and all(x in g for x in hits), probe

        assets = load_assets()
        materialized = materialize(assets.combined(), assets.schema)
        agent = parse_class_expression("Agent", assets.catalog)
        found, built = triples_built(monkeypatch, lambda: retrieve_instances(agent, materialized))
        assert built == 0 and found

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

    def test_subjects_objects_distinct_sorted(self):
        assert self.g.subjects(p=iri(EX + "p")) == [blank("b"), iri(EX + "s")]
        assert self.g.objects(s=iri(EX + "s")) == [iri(EX + "o"), literal("v")]

    def test_nodes_excludes_literals_includes_blank_objects(self):
        nodes = self.g.nodes()
        assert literal("v") not in nodes
        assert blank("b") in nodes and iri(EX + "o") in nodes
        assert nodes == sorted(nodes, key=Term.sort_key)

    def test_predicates(self):
        assert self.g.predicates() == [iri(EX + "p"), iri(EX + "q")]

    def test_copy_is_deep_for_indexes(self):
        clone = self.g.copy()
        clone.insert(t("new", "p", "o"))
        clone.remove(t("s", "p", "o"))
        assert t("new", "p", "o") not in self.g
        assert t("s", "p", "o") in self.g
        assert self.g.match(iri(EX + "s"), iri(EX + "p"), None) != clone.match(iri(EX + "s"), iri(EX + "p"), None)

    @given(triples_strategy)
    def test_construction_order_is_irrelevant(self, triples):
        forward = Graph(triples)
        backward = Graph(reversed(triples))
        assert forward == backward
        assert list(forward) == list(backward)
        assert forward.nodes() == backward.nodes()
