"""Seeded input generators for the benchmark workloads.

The seed picks structure (which copies are wrong, grey or right, which
principles an action touches, which individual sits where), never size:
every count below is fixed, so two seeds give inputs of the same size and
nearly the same amount of work.  Nothing here imports applekit; the
expected answers are derived from the generator's own model of the data,
so the program under test never checks itself.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

APPLE = "https://purl.org/appliedethicsontology#"
SCHEMA = "http://schema.org/"
TRAFFIC = "http://www.sensormeasurement.appspot.com/ont/transport/traffic#"

PRINCIPLES = ("Justice", "Nonmaleficence", "Beneficence", "Autonomy", "Responsibility", "Transparency")

# Subjects that only bioethics-scenario.ttl defines; each copy renames them
# with a "_k" suffix.  apple:Deforestation is a taxonomy individual, so its
# one scenario triple is emitted once, unrenamed.
SCENARIO_LOCALS = (
    "Doctor", "Patient", "GoodIntention", "MedicalPractitionerRole", "PatientRole",
    "PrescribeOpioidPainkiller", "OpioidUseDisorder", "PainRelief", "DentalSurgeryAftercare",
    "PostSurgeryRecoveryPeriod", "DentalClinic", "PrescriptionContext",
)
_LOCAL_RE = re.compile(r"\b(" + "|".join(SCENARIO_LOCALS) + r")\b")

# The bundled scenario itself: the action upholds Beneficence, violates
# Responsibility and Nonmaleficence, and its bad consequence is significant.
BUNDLED_UPHOLDS = ("Beneficence",)
BUNDLED_VIOLATES = ("Nonmaleficence", "Responsibility")

WRONG, GREY, RIGHT = "wrong", "grey", "right"
VERDICT_CLASS = {WRONG: APPLE + "MorallyWrongAction", GREY: APPLE + "MorallyGreyAction", RIGHT: APPLE + "MorallyRightAction"}
VERDICT_RULE = {WRONG: "R1", GREY: "R2", RIGHT: "R3"}

_PREFIXES = """\
@prefix apple: <https://purl.org/appliedethicsontology#> .
@prefix airo: <https://w3id.org/AIRO#> .
@prefix copart: <http://www.ontologydesignpatterns.org/cp/owl/coparticipation.owl#> .
@prefix ex: <http://contextus.net/ontology/ontomedia/core/expression#> .
@prefix modsci: <https://w3id.org/skgo/modsci#> .
@prefix or: <http://www.ontologydesignpatterns.org/cp/owl/objectrole.owl#> .
@prefix part: <http://www.ontologydesignpatterns.org/cp/owl/participation.owl#> .
@prefix schema: <http://schema.org/> .
@prefix time: <http://www.w3.org/2006/time#> .
@prefix traffic: <http://www.sensormeasurement.appspot.com/ont/transport/traffic#> .
@prefix tj: <http://w3id.org/daselab/onto/trajectory#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
"""


@dataclass(frozen=True)
class Copy:
    """One renamed copy of the bioethics scenario and the facts it varies."""

    k: int
    outcome: str  # WRONG | GREY | RIGHT
    upholds: tuple[str, ...]
    violates: tuple[str, ...]
    harm_severity: str  # severity of the action's bad consequence
    relief_severity: str  # severity of its good consequence
    date: str

    def name(self, local: str) -> str:
        return f"{local}_{self.k}"

    def iri(self, local: str) -> str:
        return APPLE + self.name(local)


def scenario_copies(n: int, seed: int) -> list[Copy]:
    """n copies: 2/5 wrong, 7/20 grey, the rest right, shuffled by seed.

    Wrong copies fire R1 (a violated principle and a bad, significant
    consequence); grey copies fire R2 (upholds and violates, nothing
    significant); right copies fire R3 (upholds, violates nothing), so both
    negated atoms are exercised.  Each outcome has fixed triple counts.
    """
    rng = random.Random(seed)
    n_wrong, n_grey = n * 2 // 5, n * 7 // 20
    outcomes = [WRONG] * n_wrong + [GREY] * n_grey + [RIGHT] * (n - n_wrong - n_grey)
    rng.shuffle(outcomes)
    # Copy 0 keeps the bundled facts, so the manifest's own expected answers
    # must hold for it verbatim (see manifest_cases).
    first_wrong = outcomes.index(WRONG)
    outcomes[0], outcomes[first_wrong] = outcomes[first_wrong], outcomes[0]
    copies = []
    for k, outcome in enumerate(outcomes):
        if k == 0:
            upholds, violates = BUNDLED_UPHOLDS, BUNDLED_VIOLATES
        else:
            picked = rng.sample(PRINCIPLES, 3)
            upholds = (picked[0],)
            violates = tuple(sorted(picked[1:])) if outcome != RIGHT else ()
        if outcome == WRONG:
            harm = "SignificantConsequence"
        elif outcome == GREY:
            harm = rng.choice(("ModerateConsequence", "MildConsequence"))
        else:
            # R1 also needs a violation, so a right action may do serious harm.
            harm = rng.choice(("SignificantConsequence", "ModerateConsequence"))
        relief = "ModerateConsequence" if k == 0 else rng.choice(("ModerateConsequence", "MildConsequence"))
        date = "2023-02-10" if k == 0 else f"20{rng.randint(10, 29)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"
        copies.append(Copy(k, outcome, upholds, violates, harm, relief, date))
    return copies


def copy_turtle(c: Copy) -> str:
    """The scenario's statements for one copy (mirrors bioethics-scenario.ttl)."""
    n = c.name
    principles = ""
    if c.upholds:
        principles += "    apple:upholdsEthicalPrinciple " + ", ".join(f"apple:{p}" for p in c.upholds) + " ;\n"
    if c.violates:
        principles += "    apple:violatesEthicalPrinciple " + ", ".join(f"apple:{p}" for p in c.violates) + " ;\n"
    return f"""
apple:{n('Doctor')} a apple:ActiveAgent ;
    rdfs:label "the prescribing doctor {c.k}"@en ;
    traffic:doesAction apple:{n('PrescribeOpioidPainkiller')} ;
    apple:hasMoralIntention apple:{n('GoodIntention')} ;
    or:hasRole apple:{n('MedicalPractitionerRole')} ;
    copart:coParticipatesWith apple:{n('Patient')} .
apple:{n('Patient')} a apple:PassiveAgent ;
    rdfs:label "the teenage patient {c.k}"@en ;
    or:hasRole apple:{n('PatientRole')} .
apple:{n('GoodIntention')} a apple:MoralIntention .
apple:{n('MedicalPractitionerRole')} a or:Role .
apple:{n('PatientRole')} a or:Role .
apple:{n('PrescribeOpioidPainkiller')} a schema:Action ;
    rdfs:label "prescribe a course of opioid painkillers {c.k}"@en ;
    airo:hasConsequence apple:{n('OpioidUseDisorder')}, apple:{n('PainRelief')} ;
    apple:affects apple:{n('Patient')} ;
{principles}    apple:occursInEvent apple:{n('DentalSurgeryAftercare')} .
apple:{n('OpioidUseDisorder')} a airo:Consequence ;
    apple:hasUtilityOfConsequence apple:BadConsequence ;
    apple:hasDurationOfConsequence apple:LongTermConsequence ;
    apple:hasSeverityOfConsequence apple:{c.harm_severity} .
apple:{n('PainRelief')} a airo:Consequence ;
    apple:hasUtilityOfConsequence apple:GoodConsequence ;
    apple:hasDurationOfConsequence apple:ShortTermConsequence ;
    apple:hasSeverityOfConsequence apple:{c.relief_severity} .
apple:{n('DentalSurgeryAftercare')} a schema:Event ;
    part:hasParticipant apple:{n('Doctor')}, apple:{n('Patient')} ;
    apple:inDomain modsci:Bioethics ;
    tj:atTime apple:{n('PostSurgeryRecoveryPeriod')} ;
    tj:atPlace apple:{n('DentalClinic')} .
apple:{n('PostSurgeryRecoveryPeriod')} a tj:TimeEntity ;
    time:hasBeginning "{c.date}"^^xsd:date .
apple:{n('DentalClinic')} a tj:Place .
apple:{n('PrescriptionContext')} a ex:Context ;
    apple:describesEvent apple:{n('DentalSurgeryAftercare')} .
"""


def scaled_scenario(taxonomy_text: str, copies: list[Copy]) -> str:
    """The bundled taxonomy followed by every scenario copy, as one document."""
    parts = [taxonomy_text, "\n", _PREFIXES, "\napple:Deforestation apple:resolvedBy apple:DeepEcology .\n"]
    parts.extend(copy_turtle(c) for c in copies)
    return "".join(parts)


def expected_verdicts(copies: list[Copy]) -> dict[str, tuple[str, str, int]]:
    """action IRI -> (verdict class, fired rule, number of firings)."""
    out = {}
    for c in copies:
        firings = {WRONG: len(c.violates), GREY: len(c.upholds) * len(c.violates), RIGHT: len(c.upholds)}[c.outcome]
        out[c.iri("PrescribeOpioidPainkiller")] = (VERDICT_CLASS[c.outcome], VERDICT_RULE[c.outcome], firings)
    return out


# ---------------------------------------------------------------------------
# Query stream


@dataclass(frozen=True)
class Query:
    kind: str  # "nominal" | "broad" | "classes" | "point-select" | "global-select" | "iri-select"
    mode: str  # "instances" | "classes" | "select"
    text: str
    expected: frozenset  # strings, or tuples of strings for multi-variable selects


def rename(text: str, k: int) -> str:
    return _LOCAL_RE.sub(lambda m: f"{m.group(1)}_{k}", text)


def _apple(locals_: tuple[str, ...] | list[str]) -> frozenset[str]:
    return frozenset(APPLE + name for name in locals_)


def copy_answers(c: Copy) -> dict[str, frozenset[str]]:
    """Expected answers of the copy-specific manifest cases (CQ6-CQ10) for copy c."""
    return {
        "CQ6": frozenset({c.iri("Doctor"), c.iri("Patient")}),
        "CQ7": frozenset({c.iri("OpioidUseDisorder"), c.iri("PainRelief")}),
        "CQ8": _apple(("BadConsequence", "LongTermConsequence", c.harm_severity)),
        "CQ9": _apple(c.violates),
        "CQ10": _apple((c.relief_severity,)),
    }


def manifest_cases(manifest_text: str, copies: list[Copy]) -> dict[str, dict]:
    """The manifest's cases by id, after checking the copy model against them.

    Copy 0 carries the bundled facts under renamed subjects, so renaming the
    manifest's expected answers must give exactly the model's answers; a
    mismatch means the generator no longer mirrors the scenario.
    """
    cases = {case["id"]: case for case in json.loads(manifest_text)["cases"]}
    first = copies[0]
    for case_id, answer in copy_answers(first).items():
        renamed = frozenset(APPLE + rename(value[len(APPLE):], 0) if value.startswith(APPLE) else value
                            for value in cases[case_id]["expected"])
        if renamed != answer:
            raise RuntimeError(f"generator model disagrees with manifest case {case_id}: {sorted(answer)}")
    return cases


# Block composition: 40 queries, fixed counts per kind.  Two of the 40 use
# <absolute-iri> terms in a select, which parse_select rejects today, so the
# stream's error rate is exactly 2/40 until that defect is fixed.
BLOCK = (("nominal", 20), ("broad", 4), ("classes", 4), ("point-select", 6), ("global-select", 4), ("iri-select", 2))
BLOCK_SIZE = sum(count for _, count in BLOCK)


class QueryStream:
    """An endless, seeded stream of queries over the scaled scenario."""

    def __init__(self, copies: list[Copy], manifest_text: str, seed: int) -> None:
        self.copies = copies
        self.cases = manifest_cases(manifest_text, copies)
        self.rng = random.Random(seed * 7919 + 17)
        self._fixed = self._copy_independent()

    def _copy_independent(self) -> dict[str, list[Query]]:
        cs = self.copies
        agents = frozenset(c.iri(x) for c in cs for x in ("Doctor", "Patient"))
        actions = frozenset(c.iri("PrescribeOpioidPainkiller") for c in cs)
        consequences = frozenset(c.iri(x) for c in cs for x in ("OpioidUseDisorder", "PainRelief"))
        broad = [
            Query("broad", "instances", "Agent", agents),
            Query("broad", "instances", "Action", actions),
            Query("broad", "instances", "Consequence", consequences),
            Query("broad", "instances", "EthicalPrinciple", _apple(PRINCIPLES)),
        ]
        classes = [
            Query("classes", "classes", self.cases[i]["query"], frozenset(self.cases[i]["expected"]))
            for i in ("CQ2", "CQ3", "CQ4")
        ]
        classes.append(Query("classes", "classes", "Agent", frozenset(
            {"http://xmlns.com/foaf/0.1/Agent", APPLE + "ActiveAgent", APPLE + "PassiveAgent"})))
        significant = frozenset(
            (c.iri("PrescribeOpioidPainkiller"), APPLE + p, c.iri("OpioidUseDisorder"))
            for c in cs if c.harm_severity == "SignificantConsequence" for p in c.upholds
        )
        deeds = frozenset((c.iri("Doctor"), c.iri("PrescribeOpioidPainkiller"), c.iri("Patient")) for c in cs)
        global_select = [
            Query("global-select", "select",
                  "?a upholdsEthicalPrinciple ?p . ?a hasConsequence ?c . ?c hasSeverityOfConsequence SignificantConsequence",
                  significant),
            Query("global-select", "select", "?d doesAction ?a . ?a affects ?p", deeds),
        ]
        fixed_points = [
            Query("point-select", "select", self.cases["CQ5"]["query"], frozenset(self.cases["CQ5"]["expected"])),
            Query("point-select", "select", self.cases["CQ1"]["query"], frozenset(self.cases["CQ1"]["expected"])),
        ]
        return {"broad": broad, "classes": classes, "global-select": global_select, "point-select": fixed_points}

    def _nominal(self, index: int) -> Query:
        c = self.rng.choice(self.copies)
        case_id = ("CQ6", "CQ7", "CQ8", "CQ9", "CQ10")[index % 5]
        return Query("nominal", "instances", rename(self.cases[case_id]["query"], c.k), copy_answers(c)[case_id])

    def _point_select(self, index: int) -> Query:
        if index < 2:
            return self._fixed["point-select"][index]
        c = self.rng.choice(self.copies)
        if index % 2:
            expected = frozenset({(c.iri("OpioidUseDisorder"), APPLE + c.harm_severity),
                                  (c.iri("PainRelief"), APPLE + c.relief_severity)})
            return Query("point-select", "select",
                         f"{c.name('PrescribeOpioidPainkiller')} hasConsequence ?c . ?c hasSeverityOfConsequence ?s",
                         expected)
        expected = frozenset((c.iri("PrescribeOpioidPainkiller"), APPLE + p) for p in c.violates)
        return Query("point-select", "select",
                     f"{c.name('Doctor')} doesAction ?a . ?a violatesEthicalPrinciple ?p", expected)

    def _iri_select(self, index: int) -> Query:
        if index == 0:
            return Query("iri-select", "select", f"?x a <{SCHEMA}Action>",
                         frozenset(c.iri("PrescribeOpioidPainkiller") for c in self.copies))
        c = self.rng.choice(self.copies)
        return Query("iri-select", "select", f"{c.name('Doctor')} <{TRAFFIC}doesAction> ?a",
                     frozenset({c.iri("PrescribeOpioidPainkiller")}))

    def block(self) -> list[Query]:
        """The next BLOCK_SIZE queries, in seeded order."""
        queries: list[Query] = []
        for kind, count in BLOCK:
            for index in range(count):
                if kind == "nominal":
                    queries.append(self._nominal(index))
                elif kind == "point-select":
                    queries.append(self._point_select(index))
                elif kind == "iri-select":
                    queries.append(self._iri_select(index))
                else:
                    pool = self._fixed[kind]
                    queries.append(pool[index % len(pool)])
        self.rng.shuffle(queries)
        return queries


# ---------------------------------------------------------------------------
# Random ontology for the write path


ONTO = "http://bench.example/onto#"
CHAINS = 6  # subclass chains; chain c is the domain of property group c
DEPTH = 10  # classes per chain, K{c}_0 the root, K{c}_{d} below K{c}_{d-1}
SUBPROPS = 3  # properties per group, p{g}_{j} below p{g}_{j-1}
EDGES_PER_INDIVIDUAL = 2
DEPRIVED_PER_GROUP = 6  # individuals with no edge in their group: unsatisfied obligations
CLASHES_PER_CHAIN = 3  # individuals also typed into a disjoint chain: disjointness errors
CLIQUES = ((0, 1, 2), (3, 4, 5))  # chain roots pairwise disjoint within each clique
OBLIGATION_DEPTHS = (1, DEPTH // 2)


@dataclass(frozen=True)
class Ontology:
    text: str
    asserted: int  # triples in the document
    errors: int  # expected disjointness clashes
    warnings: int  # expected unsatisfied obligations (closed world)
    clash_subjects: frozenset[str]
    warning_subjects: frozenset[str]


def ontology(individuals_per_chain: int, seed: int) -> Ontology:
    """A random ontology with fixed counts, modelled on tests/_gen.random_graph.

    Six linear subclass chains of depth ten, a three-level subproperty chain
    per property group, domains and ranges on the chain roots, an inverse
    per group, two disjoint cliques of roots, and owl:someValuesFrom
    obligations.  Property edges only link a group's domain chain to its
    range chain, so the only clashes and unsatisfied obligations are the
    planted ones, and their counts are known exactly.
    """
    rng = random.Random(seed)
    lines = [
        f"@prefix o: <{ONTO}> .",
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .",
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .",
        "",
    ]
    seen: set[tuple[str, str, str]] = set()

    def emit(s: str, p: str, o: str) -> None:
        if (s, p, o) not in seen:  # random targets may repeat an edge
            seen.add((s, p, o))
            lines.append(f"{s} {p} {o} .")

    def cls(c: int, d: int) -> str:
        return f"o:K{c}_{d}"

    for c in range(CHAINS):
        for d in range(DEPTH):
            emit(cls(c, d), "a", "owl:Class")
            if d:
                emit(cls(c, d), "rdfs:subClassOf", cls(c, d - 1))
    for clique in CLIQUES:
        for i, a in enumerate(clique):
            for b in clique[i + 1:]:
                emit(cls(a, 0), "owl:disjointWith", cls(b, 0))
    emit("o:code", "a", "owl:DatatypeProperty")
    ranges = [(g + 1) % CHAINS for g in range(CHAINS)]
    for g in range(CHAINS):
        for j in range(SUBPROPS):
            prop = f"o:p{g}_{j}"
            emit(prop, "a", "owl:ObjectProperty")
            emit(prop, "rdfs:domain", cls(g, 0))
            emit(prop, "rdfs:range", cls(ranges[g], 0))
            if j:
                emit(prop, "rdfs:subPropertyOf", f"o:p{g}_{j - 1}")
        emit(f"o:q{g}", "a", "owl:ObjectProperty")
        emit(f"o:q{g}", "owl:inverseOf", f"o:p{g}_0")
        for depth in OBLIGATION_DEPTHS:
            node = f"_:need{g}_{depth}"
            emit(node, "a", "owl:Restriction")
            emit(node, "owl:onProperty", f"o:p{g}_0")
            emit(node, "owl:someValuesFrom", cls(ranges[g], 0))
            emit(cls(g, depth), "rdfs:subClassOf", node)

    members = [[f"o:i{c}_{i}" for i in range(individuals_per_chain)] for c in range(CHAINS)]
    depth_of: dict[str, int] = {}
    for c in range(CHAINS):
        depths = [i % DEPTH for i in range(individuals_per_chain)]
        rng.shuffle(depths)
        for name, d in zip(members[c], depths):
            depth_of[name] = d
            emit(name, "a", cls(c, d))
            if rng.random() < 0.5:
                emit(name, "o:code", f'"c{rng.randrange(10**6)}"')
    deprived = [frozenset(rng.sample(members[g], DEPRIVED_PER_GROUP)) for g in range(CHAINS)]
    for g in range(CHAINS):
        targets = members[ranges[g]]
        for name in members[g]:
            if name in deprived[g]:
                continue
            for e in range(EDGES_PER_INDIVIDUAL):
                emit(name, f"o:p{g}_{(e + rng.randrange(SUBPROPS)) % SUBPROPS}", rng.choice(targets))
        backers = [m for m in members[g] if m not in deprived[g]]
        for name in targets:
            emit(name, f"o:q{g}", rng.choice(backers))
    clash_subjects = set()
    for clique in CLIQUES:
        for c in clique:
            others = [b for b in clique if b != c]
            for name in rng.sample(members[c], CLASHES_PER_CHAIN):
                emit(name, "a", cls(rng.choice(others), 0))
                clash_subjects.add(ONTO + name[2:])
    warning_subjects = set()
    warnings = 0
    for g in range(CHAINS):
        for depth in OBLIGATION_DEPTHS:
            for name in deprived[g]:
                if depth_of[name] >= depth:
                    warnings += 1
                    warning_subjects.add(ONTO + name[2:])
    return Ontology("\n".join(lines) + "\n", len(seen), len(clash_subjects), warnings,
                    frozenset(clash_subjects), frozenset(warning_subjects))
