"""Term, Triple, and PrefixMap invariants."""

import copy
import gc
import json
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import applekit
from applekit import terms
from applekit.terms import (
    XSD_NS,
    PrefixMap,
    StructuralError,
    Term,
    Triple,
    XSD_STRING,
    blank,
    escape_literal_value,
    iri,
    json_text,
    literal,
    valid_local_name,
)
from applekit.turtle import ParseDiagnostic, TurtleParseError, parse_turtle

sys.path.insert(0, str(Path(__file__).parent))
from _oracles import compress_by_scan  # noqa: E402

EX = "http://example.org/"
# What Turtle's IRIREF excludes besides '<', '>', '"', space, '\n' and '\t'.
IRIREF_EXCLUDED = "{}|^`\\\r"
# Control characters, which IRIREF excludes too (U+0000-U+0020).
IRIREF_CONTROLS = "\x00\x01\x1f"


class TestTermConstruction:
    def test_iri_requires_colon(self):
        with pytest.raises(StructuralError, match="not absolute"):
            iri("no-scheme")

    @pytest.mark.parametrize(
        "bad",
        [
            "http://x/<a>", "http://x/a b", 'http://x/"q', "http://x/\n",
            *(f"http://x/a{ch}b" for ch in IRIREF_EXCLUDED + IRIREF_CONTROLS),
        ],
    )
    def test_iri_rejects_forbidden_characters(self, bad):
        with pytest.raises(StructuralError, match="forbidden"):
            iri(bad)

    @pytest.mark.parametrize("ch", IRIREF_CONTROLS)
    def test_turtle_iriref_rejects_control_characters(self, ch):
        with pytest.raises(TurtleParseError) as err:
            parse_turtle(f"<http://x/a{ch}b> <http://x/p> <http://x/o> .")
        assert err.value.diagnostic == ParseDiagnostic(1, 1, f"character {ch!r} is not allowed inside an IRI")

    def test_blank_label_must_be_nonempty(self):
        with pytest.raises(StructuralError):
            blank("")

    @pytest.mark.parametrize("label", ["a b", "urn:x", "a.", ".", "é", "a\nb", "-x", ".y", "-"])
    def test_blank_label_must_read_back_after_underscore_colon(self, label):
        with pytest.raises(StructuralError, match="cannot be written after '_:'"):
            blank(label)

    def test_literal_cannot_have_datatype_and_lang(self):
        with pytest.raises(StructuralError, match="both"):
            literal("x", datatype=XSD_STRING, lang="en")

    def test_unknown_kind_rejected(self):
        with pytest.raises(StructuralError, match="unknown term kind"):
            Term("uri", EX + "a")

    def test_non_literals_cannot_carry_literal_metadata(self):
        with pytest.raises(StructuralError):
            Term("iri", EX + "a", lang="en")
        with pytest.raises(StructuralError):
            Term("blank", "b", datatype=XSD_STRING)

    def test_xsd_string_literal_is_the_simple_literal(self):
        typed, plain = literal("x", datatype=XSD_STRING), literal("x")
        assert typed == plain and hash(typed) == hash(plain) and typed.datatype is None
        assert len({typed, plain}) == 1
        assert typed.sort_key() == plain.sort_key()

    @pytest.mark.parametrize(
        "datatype",
        ["", "integer", "http://x/a b", "http://x/<dt>", *(f"http://x/d{ch}t" for ch in IRIREF_EXCLUDED + IRIREF_CONTROLS)],
    )
    def test_datatype_must_be_an_absolute_iri(self, datatype):
        with pytest.raises(StructuralError, match="literal datatype is not an absolute IRI"):
            literal("v", datatype=datatype)

    @pytest.mark.parametrize("lang", ["", "en us", "-en", "en-", "e\n", "en_GB"])
    def test_language_tag_must_be_well_formed(self, lang):
        with pytest.raises(StructuralError, match="invalid language tag"):
            literal("v", lang=lang)

    @pytest.mark.parametrize("lang", ["en", "en-GB", "zh-Hant-TW", "x-private1"])
    def test_well_formed_language_tags_accepted(self, lang):
        assert literal("v", lang=lang).n3() == f'"v"@{lang}'

    def test_terms_are_hashable_values(self):
        assert iri(EX + "a") == iri(EX + "a")
        assert len({iri(EX + "a"), iri(EX + "a"), blank("a"), literal("a")}) == 3


class TestTermRendering:
    def test_n3_forms(self):
        assert iri(EX + "a").n3() == f"<{EX}a>"
        assert blank("b0").n3() == "_:b0"
        assert literal("hi").n3() == '"hi"'
        assert literal("hi", lang="en").n3() == '"hi"@en'
        assert literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer").n3().endswith("XMLSchema#integer>")

    def test_xsd_string_renders_as_plain(self):
        assert literal("x", datatype=XSD_STRING).n3() == '"x"'

    def test_escapes(self):
        assert escape_literal_value('say "hi"\n') == 'say \\"hi\\"\\n'
        assert escape_literal_value("tab\there") == "tab\\there"
        assert escape_literal_value("\x01") == "\\u0001"
        assert literal('a\\b').n3() == '"a\\\\b"'

    @given(st.text(max_size=40))
    def test_escaped_output_has_no_raw_specials(self, value):
        escaped = escape_literal_value(value)
        assert "\n" not in escaped and "\r" not in escaped
        # Every quote is preceded by a backslash.
        for i, ch in enumerate(escaped):
            if ch == '"':
                assert i > 0 and escaped[i - 1] == "\\"


class TestOrdering:
    def test_kind_order_breaks_value_ties(self):
        # An IRI holds a ':' and a blank label cannot, so each ties on the
        # value with a literal only.
        b, i_ = blank("x"), iri("same:x")
        assert sorted([literal("x"), b], key=Term.sort_key) == [b, literal("x")]
        assert sorted([literal("same:x"), i_], key=Term.sort_key) == [i_, literal("same:x")]

    def test_sort_is_deterministic_on_metadata(self):
        plain = literal("v")
        tagged = literal("v", lang="en")
        typed = literal("v", datatype=XSD_STRING)
        ordered = sorted([tagged, typed, plain], key=Term.sort_key)
        assert ordered == sorted([plain, typed, tagged], key=Term.sort_key)

    @given(st.lists(st.sampled_from([iri(EX + c) for c in "abc"] + [blank("x"), literal("a")]), max_size=6))
    def test_sort_key_total_order_is_stable(self, terms):
        once = sorted(terms, key=Term.sort_key)
        assert sorted(once, key=Term.sort_key) == once


class TestTriple:
    def test_literal_subject_rejected(self):
        with pytest.raises(StructuralError, match="subject"):
            Triple(literal("x"), iri(EX + "p"), iri(EX + "o"))

    @pytest.mark.parametrize("pred", [blank("p"), literal("p")])
    def test_non_iri_predicate_rejected(self, pred):
        with pytest.raises(StructuralError, match="predicate"):
            Triple(iri(EX + "s"), pred, iri(EX + "o"))

    def test_n3_line(self):
        t = Triple(iri(EX + "s"), iri(EX + "p"), literal("v", lang="en"))
        assert t.n3() == f'<{EX}s> <{EX}p> "v"@en .'


# Keyword arguments for Term; drawn twice, they build separate equal Terms.
iri_args = st.builds(dict, kind=st.just("iri"), value=st.sampled_from([EX + c for c in "abc"] + ["urn:x", "same:x"]))
node_args = iri_args | st.builds(dict, kind=st.just("blank"), value=st.sampled_from(["b0", "b1", "x"]))
# Literal text, sometimes the value of a node above.
literal_text = st.text(max_size=8) | st.sampled_from(["x", "same:x"])
term_args = (
    node_args
    | st.builds(dict, kind=st.just("literal"), value=literal_text)
    | st.builds(dict, kind=st.just("literal"), value=literal_text, lang=st.sampled_from(["en", "de"]))
    | st.builds(dict, kind=st.just("literal"), value=literal_text, datatype=st.just(XSD_STRING))
)


def normalised(args):
    """Term keyword arguments with an ``xsd:string`` datatype dropped."""
    return {key: value for key, value in args.items() if (key, value) != ("datatype", XSD_STRING)}


class TestHashContract:
    @given(term_args, term_args)
    def test_equal_terms_hash_equal(self, a, b):
        first, second = Term(**a), Term(**a)
        assert first == second and hash(first) == hash(second)
        # An xsd:string datatype is the simple literal's, so the model drops it.
        assert (first == Term(**b)) == (normalised(a) == normalised(b))

    @given(node_args, iri_args, term_args)
    def test_equal_triples_hash_equal(self, s, p, o):
        first = Triple(Term(**s), Term(**p), Term(**o))
        second = Triple(Term(**s), Term(**p), Term(**o))
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1

    @given(term_args)
    def test_hash_is_outside_repr_and_equality(self, args):
        term = Term(**args)
        # A Term's repr shows its four fields and nothing else.
        fields_ = normalised(args)
        assert repr(term) == "Term(kind=%r, value=%r, datatype=%r, lang=%r)" % (
            fields_["kind"], fields_["value"], fields_.get("datatype"), fields_.get("lang"))
        s, p = iri(EX + "s"), iri(EX + "p")
        triple, twin = Triple(s, p, term), Triple(s, p, term)
        object.__setattr__(twin, "_hash", triple._hash + 1)
        # Exact, since a literal's own text may contain "_hash".
        assert repr(triple) == f"Triple(s={s!r}, p={p!r}, o={term!r})"
        assert triple == twin

    @pytest.mark.parametrize("value", [iri(EX + "a"), Triple(iri(EX + "s"), iri(EX + "p"), literal("v"))])
    def test_every_field_is_frozen(self, value):
        # Terms and Triples are plain slots classes holding their fields
        # only, and no attribute of either can be set or deleted.
        if isinstance(value, Triple):
            assert Triple.__slots__ == ("s", "p", "o", "_hash")
            names = ["s", "p", "o", "_hash", "unknown"]
        else:
            assert Term.__slots__ == ("kind", "value", "datatype", "lang", "__weakref__")
            names = ["kind", "value", "datatype", "lang", "unknown"]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name, None))
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert not hasattr(value, "__dict__")

    def test_unpickling_recomputes_the_hash(self):
        # String hashes differ between processes, so a pickled hash would be
        # stale in the process that loads it.
        code = (
            "import pickle, sys\n"
            "from applekit.terms import Triple, iri, literal\n"
            f"t = Triple(iri({EX + 's'!r}), iri({EX + 'p'!r}), literal('v', lang='en'))\n"
            "sys.stdout.write(pickle.dumps(t).hex())\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="7", PYTHONPATH=str(Path(applekit.__file__).resolve().parents[1]))
        dumped = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        loaded = pickle.loads(bytes.fromhex(dumped.stdout))
        local = Triple(iri(EX + "s"), iri(EX + "p"), literal("v", lang="en"))
        assert loaded == local and hash(loaded) == hash(local) and loaded in {local}


class TestInterning:
    """One live Term per distinct (kind, value, datatype, lang)."""

    @given(term_args, term_args)
    def test_equal_arguments_give_one_object(self, a, b):
        term = Term(**a)
        # An xsd:string literal is the plain literal.
        assert Term(**a) is term and Term(**normalised(a)) is term
        assert (Term(**b) is term) == (normalised(a) == normalised(b))

    def test_pickle_copy_and_deepcopy_give_the_interned_object(self):
        values = [iri(EX + "a"), blank("b0"), literal("v", lang="en"), literal("5", datatype=XSD_NS + "integer")]
        for term in values:
            assert pickle.loads(pickle.dumps(term)) is term
            assert copy.copy(term) is term and copy.deepcopy(term) is term
        triple = Triple(values[1], values[0], values[2])
        for twin in (pickle.loads(pickle.dumps(triple)), copy.deepcopy(triple)):
            assert twin == triple
            assert twin.s is values[1] and twin.p is values[0] and twin.o is values[2]

    def test_unpickling_from_another_process_gives_the_interned_object(self):
        code = (
            "import pickle, sys\n"
            "from applekit.terms import iri, literal\n"
            f"sys.stdout.write(pickle.dumps([iri({EX + 'a'!r}), literal('v', lang='en')]).hex())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(applekit.__file__).resolve().parents[1]))
        dumped = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        loaded = pickle.loads(bytes.fromhex(dumped.stdout))
        assert loaded[0] is iri(EX + "a") and loaded[1] is literal("v", lang="en")

    def test_table_shrinks_back_when_terms_are_dropped(self):
        gc.collect()
        gc.disable()  # no other term dies between the counts
        try:
            before = len(terms._interned)
            fresh = [iri(f"urn:shrink:{i}") for i in range(10_000)]
            assert len(terms._interned) == before + len(fresh)
            del fresh
            assert len(terms._interned) == before
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: iri("no-scheme"),
            lambda: literal("v", lang="en us"),
            lambda: Term("blank", "b", datatype=XSD_STRING),
        ],
        ids=["iri", "literal", "blank"],
    )
    def test_a_rejected_term_leaves_no_entry(self, build):
        gc.collect()
        gc.disable()
        try:
            before = set(terms._interned)
            with pytest.raises(StructuralError):
                build()
            assert set(terms._interned) == before
        finally:
            gc.enable()

    def test_threads_building_the_same_terms_get_one_object(self):
        values = [f"urn:race:{i}" for i in range(2_000)]
        workers = 4
        start = threading.Barrier(workers)
        built: list[list[Term] | None] = [None] * workers

        def build(slot):
            start.wait(timeout=30)
            built[slot] = [iri(value) for value in values]

        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        first = built[0]
        assert first is not None and [term.value for term in first] == values
        for other in built[1:]:
            assert other is not None and all(a is b for a, b in zip(first, other, strict=True))


class TestPrefixMap:
    def test_bind_expand_roundtrip(self):
        pm = PrefixMap({"ex": EX})
        assert pm.expand("ex", "thing") == EX + "thing"
        assert pm.expand("nope", "thing") is None
        assert "ex" in pm and len(pm) == 1

    def test_invalid_bindings_rejected(self):
        pm = PrefixMap()
        with pytest.raises(StructuralError):
            pm.bind("9bad", EX)
        with pytest.raises(StructuralError):
            pm.bind("ok", "not-absolute")
        # PN_PREFIX: a '.' may sit inside a label but not end it.
        with pytest.raises(StructuralError, match="invalid prefix label: 'ex.'"):
            PrefixMap({"ex.": EX})
        assert PrefixMap({"e.x": EX}).expand("e.x", "a") == EX + "a"

    @pytest.mark.parametrize("ch", '<>" \n\t' + IRIREF_EXCLUDED + IRIREF_CONTROLS)
    def test_namespace_rejects_forbidden_characters(self, ch):
        with pytest.raises(StructuralError, match="namespace is not an absolute IRI"):
            PrefixMap().bind("ok", f"http://x/n{ch}s/")

    def test_empty_prefix_allowed(self):
        pm = PrefixMap({"": EX})
        assert pm.expand("", "a") == EX + "a"
        assert pm.compress(EX + "a") == ":a"

    def test_compress_prefers_longest_namespace(self):
        pm = PrefixMap({"base": EX, "deep": EX + "sub/"})
        assert pm.compress(EX + "sub/x") == "deep:x"
        assert pm.compress(EX + "x") == "base:x"

    def test_compress_ties_break_alphabetically(self):
        pm = PrefixMap({"zz": EX, "aa": EX})
        assert pm.compress(EX + "x") == "aa:x"

    def test_compress_refuses_unwritable_locals(self):
        pm = PrefixMap({"ex": EX})
        assert pm.compress(EX + "has space") is None
        assert pm.compress(EX + "trailing.") is None
        assert pm.compress(EX) is None  # empty local name

    def test_items_sorted_and_copy_independent(self):
        pm = PrefixMap({"b": EX + "b/", "a": EX + "a/"})
        assert [p for p, _ in pm.items()] == ["a", "b"]
        clone = pm.copy()
        clone.bind("c", EX + "c/")
        assert "c" not in pm

    def test_valid_local_name(self):
        assert valid_local_name("abc-1.x")
        assert not valid_local_name("ends.")
        assert not valid_local_name("")
        assert not valid_local_name("has space")

    @given(st.data())
    def test_compress_agrees_with_the_scan(self, data):
        # Namespaces that end inside a local name ('x/a', 'x/a.') as well as
        # at '/' or '#', and IRIs that extend a bound namespace or not.
        piece = st.text(alphabet="ab1/#.-_: ", max_size=4)
        namespace = st.builds("urn:x/{}".format, piece.filter(lambda tail: " " not in tail))
        bindings = data.draw(st.dictionaries(st.sampled_from(["", "a", "b", "ex", "e.x"]), namespace, max_size=4))
        prefixes = PrefixMap(bindings)
        bound = sorted(bindings.values())
        for _ in range(3):
            head = data.draw(st.sampled_from(bound) | namespace if bound else namespace)
            value = head + data.draw(piece)
            assert prefixes.compress(value) == compress_by_scan(prefixes, value), (bindings, value)
            rebound = data.draw(st.sampled_from(["", "a", "z"]))
            prefixes.bind(rebound, data.draw(namespace))


# Strings that exercise every escape: quotes, backslashes, control
# characters, non-ASCII text and lone surrogates.
json_strings = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀'),
    st.characters(blacklist_categories=()),
), max_size=8)
json_payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), json_strings),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_strings, children, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonText:
    @given(json_payloads)
    def test_equals_indented_sorted_dumps(self, payload):
        assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)

    def test_empty_containers_and_nesting(self):
        payload = {"b": [], "a": {}, "c": [{}, [[]], ("x", 1, None, True)], "": {"z": 1.5, "y": False}}
        assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)

    def test_unwritable_value_is_refused_as_json_does(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json_text({"a": [object()]})
