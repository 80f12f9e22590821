"""The value records callers compare, hash, print and rebuild.

Each record below is immutable, equal to another exactly when its compared
fields are equal, hashes consistently with that equality, and prints as
``Name(field=value, ...)``.  A ``Verdict`` leaves its firings out of
equality and hashing, but not out of its ``repr``.
"""

import copy
import pickle

import pytest

from applekit.query import (
    ANYTHING,
    And,
    Anything,
    Named,
    OneOf,
    PropertyPath,
    Some,
    TriplePattern,
    parse_class_expression,
)
from applekit.rules import Firing, Rule, Verdict
from applekit.schema import Obligation
from applekit.terms import Triple, iri
from applekit.validate import Violation

EX = "http://example.org/"


def assert_value_semantics(make, *variants):
    """``make()`` builds equal records; each variant differs in one field."""
    first, second = make(), make()
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    for variant in variants:
        assert first != variant and variant != first
        assert len({first, variant}) == 2


def assert_frozen(record, *names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


class TestViolation:
    def make(self, **changes):
        fields = dict(kind="disjointness-clash", severity="error", subject=EX + "i", detail=(EX + "A", EX + "B"))
        return Violation(**{**fields, **changes})

    def test_value_semantics(self):
        assert_value_semantics(
            self.make,
            self.make(kind="unsatisfied-obligation"),
            self.make(severity="warning"),
            self.make(subject=EX + "j"),
            self.make(detail=(EX + "B", EX + "A")),
        )

    def test_repr_and_frozen(self):
        violation = self.make()
        assert repr(violation) == (
            f"Violation(kind='disjointness-clash', severity='error', subject='{EX}i', "
            f"detail=('{EX}A', '{EX}B'))"
        )
        assert_frozen(violation, "kind", "severity", "subject", "detail")
        assert Violation("disjointness-clash", "error", EX + "i", (EX + "A", EX + "B")) == violation


class TestObligation:
    def test_value_semantics(self):
        assert_value_semantics(
            lambda: Obligation(EX + "C", EX + "p", EX + "D"),
            Obligation(EX + "X", EX + "p", EX + "D"),
            Obligation(EX + "C", EX + "q", EX + "D"),
            Obligation(EX + "C", EX + "p", EX + "X"),
        )

    def test_repr_keywords_and_frozen(self):
        obligation = Obligation(on_class=EX + "C", property=EX + "p", filler=EX + "D")
        assert repr(obligation) == f"Obligation(on_class='{EX}C', property='{EX}p', filler='{EX}D')"
        assert obligation.sort_key() == (EX + "C", EX + "p", EX + "D")
        assert_frozen(obligation, "on_class", "property", "filler")


class TestClassExpressions:
    def test_value_semantics(self):
        assert_value_semantics(lambda: Named(EX + "A"), Named(EX + "B"))
        assert_value_semantics(lambda: OneOf(frozenset({EX + "a", EX + "b"})), OneOf(frozenset({EX + "a"})))
        assert_value_semantics(lambda: PropertyPath(EX + "p"), PropertyPath(EX + "p", True), PropertyPath(EX + "q"))
        assert_value_semantics(
            lambda: Some(PropertyPath(EX + "p"), Named(EX + "A")),
            Some(PropertyPath(EX + "p")),
            Some(PropertyPath(EX + "p", True), Named(EX + "A")),
        )
        assert_value_semantics(
            lambda: And((Named(EX + "A"), Named(EX + "B"))),
            And((Named(EX + "B"), Named(EX + "A"))),
            And((Named(EX + "A"), Named(EX + "B"), Named(EX + "C"))),
        )

    def test_anything_is_one_value(self):
        assert Anything() == ANYTHING and hash(Anything()) == hash(ANYTHING)
        assert Some(PropertyPath(EX + "p")).filler == ANYTHING
        assert PropertyPath(EX + "p").inverted is False

    def test_repr(self):
        path = PropertyPath(EX + "p", True)
        assert repr(path) == f"PropertyPath(iri='{EX}p', inverted=True)"
        assert repr(ANYTHING) == "Anything()"
        assert repr(Named(EX + "A")) == f"Named(iri='{EX}A')"
        assert repr(OneOf(frozenset({EX + "a"}))) == f"OneOf(iris=frozenset({{'{EX}a'}}))"
        assert repr(Some(path)) == f"Some(path={path!r}, filler=Anything())"
        assert repr(And((Named(EX + "A"), ANYTHING))) == f"And(parts=(Named(iri='{EX}A'), Anything()))"

    def test_and_needs_two_conjuncts(self):
        with pytest.raises(ValueError):
            And((Named(EX + "A"),))
        with pytest.raises(ValueError):
            And(())

    def test_frozen(self):
        assert_frozen(Named(EX + "A"), "iri")
        assert_frozen(OneOf(frozenset()), "iris")
        assert_frozen(PropertyPath(EX + "p"), "iri", "inverted")
        assert_frozen(Some(PropertyPath(EX + "p")), "path", "filler")
        assert_frozen(And((Named(EX + "A"), Named(EX + "B"))), "parts")

    def test_parsing_twice_gives_equal_values(self):
        text = "Action and (violatesEthicalPrinciple some EthicalPrinciple) and inverse doesAction some Agent"
        first, second = parse_class_expression(text), parse_class_expression(text)
        assert first == second and hash(first) == hash(second)


def firing(rule_id="R1", obj=EX + "A"):
    a = iri(EX + "a")
    return Firing(rule_id, (("a", a),), Triple(a, iri(EX + "type"), iri(obj)))


class TestFiring:
    def test_value_semantics(self):
        a = iri(EX + "a")
        assert_value_semantics(
            firing,
            firing(rule_id="R2"),
            firing(obj=EX + "B"),
            Firing("R1", (("b", a),), firing().derived),
        )

    def test_repr_and_frozen(self):
        f = firing()
        assert repr(f) == f"Firing(rule_id='R1', bindings=(('a', {iri(EX + 'a')!r}),), derived={f.derived!r})"
        assert_frozen(f, "rule_id", "bindings", "derived")


class TestVerdict:
    def test_equality_and_hash_ignore_firings(self):
        bare = Verdict(EX + "a", EX + "Wrong", ("R1",))
        fired = Verdict(EX + "a", EX + "Wrong", ("R1",), (firing(),))
        assert bare.firings == ()
        assert bare == fired and hash(bare) == hash(fired)
        assert len({bare, fired}) == 1
        assert_value_semantics(
            lambda: Verdict(EX + "a", EX + "Wrong", ("R1",), (firing(),)),
            Verdict(EX + "b", EX + "Wrong", ("R1",)),
            Verdict(EX + "a", EX + "Right", ("R1",)),
            Verdict(EX + "a", EX + "Wrong", ("R1", "R2")),
        )

    def test_repr_shows_firings_and_frozen(self):
        f = firing()
        verdict = Verdict(action=EX + "a", verdict_class=EX + "Wrong", fired_rules=("R1",), firings=(f,))
        assert repr(verdict) == (
            f"Verdict(action='{EX}a', verdict_class='{EX}Wrong', fired_rules=('R1',), firings=({f!r},))"
        )
        assert_frozen(verdict, "action", "verdict_class", "fired_rules", "firings")


class TestRule:
    HEAD = TriplePattern("x", iri(EX + "type"), iri(EX + "D"))
    BODY = (TriplePattern("x", iri(EX + "type"), iri(EX + "C")),)

    def test_value_semantics(self):
        rule = Rule("R", self.BODY, (), self.HEAD)
        assert rule.stratum == 0
        assert_value_semantics(lambda: Rule("R", self.BODY, (), self.HEAD), Rule("R", self.BODY, (), self.HEAD, 1))
        assert_frozen(rule, "id", "positives", "negatives", "head", "stratum")

    def test_replace_gives_a_new_rule(self):
        rule = Rule("R", self.BODY, (), self.HEAD)
        raised = rule._replace(stratum=2)
        assert raised == Rule("R", self.BODY, (), self.HEAD, 2)
        assert rule.stratum == 0 and raised is not rule


@pytest.mark.parametrize(
    "record, noun",
    [
        (iri(EX + "a"), "an interned Term"),
        (Triple(iri(EX + "s"), iri(EX + "p"), iri(EX + "o")), "a Triple"),
        (And((Named(EX + "A"), Named(EX + "B"))), "an And"),
        (Verdict(EX + "a", EX + "Wrong", ("R1",)), "a Verdict"),
    ],
)
def test_frozen_slots_records_name_field_and_class(record, noun):
    # The slots records share one refusal; each names its own class.
    for name in ("unknown", *record.__slots__[:1]):
        with pytest.raises(AttributeError) as assigned:
            setattr(record, name, None)
        assert str(assigned.value) == f"cannot assign to field {name!r} of {noun}"
        with pytest.raises(AttributeError) as deleted:
            delattr(record, name)
        assert str(deleted.value) == f"cannot delete field {name!r} of {noun}"


@pytest.mark.parametrize(
    "record",
    [
        And((Named(EX + "A"), Some(PropertyPath(EX + "p", True), Named(EX + "B")))),
        Verdict(EX + "a", EX + "Wrong", ("R1", "R2"), (firing(), firing("R2"))),
    ],
    ids=["And", "Verdict"],
)
def test_slots_records_copy_and_pickle(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and repr(twin) == repr(record)  # a Verdict's firings are in its repr
        assert_frozen(twin, *record.__slots__)
