"""Closed-world consistency checks over a materialized graph.

Two checks, two severities:

- disjointness clashes (errors): an individual typed into two classes
  declared ``owl:disjointWith`` each other;
- unsatisfied existential obligations (warnings, closed world only): an
  instance of a class carrying an obligation ``(C, p, D)`` with no asserted
  or derived ``p`` edge to an individual entailed to be in ``D``.

Both are set operations over the instances that
:func:`applekit.query._instances` reads from the materialized graph: a
clash is an instance of two disjoint classes, and an unsatisfied
obligation is an instance of ``C`` but not of ``p some D``.  A class's
members are read in the graph's own index set, never copied; each
operation builds a new set.

Open-world mode reports no obligation warnings at all, since an unseen
witness may simply be unstated.  Reports are deterministic: violations are
sorted, and the report carries a sha256 digest of the raw input graph in
canonical N-Triples form so downstream tooling can tell which data was
checked.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from .graph import Graph
from .query import Named, PropertyPath, Some, _instances, render_term
from .schema import SchemaIndex, extract_schema
from .terms import json_text

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


class Violation(NamedTuple):
    kind: str  # "disjointness-clash" | "unsatisfied-obligation"
    severity: str
    subject: str
    detail: tuple[str, ...]

    def message(self) -> str:
        if self.kind == "disjointness-clash":
            return f"{self.subject} is typed into disjoint classes {self.detail[0]} and {self.detail[1]}"
        on_class, prop, filler = self.detail
        return (
            f"{self.subject} is a {on_class} but has no {prop} link to any {filler} "
            "(closed-world check)"
        )

    def sort_key(self) -> tuple:
        return (self.kind, self.subject, self.detail)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "subject": self.subject,
            "detail": list(self.detail),
            "message": self.message(),
        }


def check_disjointness(graph: Graph, schema: SchemaIndex) -> list[Violation]:
    """Every individual typed into both classes of a disjoint pair, as one
    violation per pair."""
    members = {cls for pair in schema.disjoint_pairs for cls in pair}
    holders = {cls: _instances(Named(cls), graph) for cls in members}
    violations = [
        Violation("disjointness-clash", SEVERITY_ERROR, render_term(subject), (first, second))
        for first, second in schema.disjoint_pairs
        for subject in holders[first] & holders[second]
    ]
    return sorted(violations, key=Violation.sort_key)


def check_obligations(graph: Graph, schema: SchemaIndex, mode: str = "closed") -> list[Violation]:
    """Audit existential obligations; closed world warns, open world trusts.

    The graph is expected to be materialized already.  An obligation
    ``(C, p, D)`` is unsatisfied by the extension of ``C`` less that of
    ``p some D``.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"unknown validation mode: {mode!r}")
    if mode == "open":
        return []
    violations: list[Violation] = []
    for obligation in schema.obligations:
        filled = _instances(Some(PropertyPath(obligation.property), Named(obligation.filler)), graph)
        for holder in _instances(Named(obligation.on_class), graph) - filled:
            violations.append(
                Violation(
                    "unsatisfied-obligation",
                    SEVERITY_WARNING,
                    render_term(holder),
                    (obligation.on_class, obligation.property, obligation.filler),
                )
            )
    return sorted(set(violations), key=Violation.sort_key)


def inputs_digest(graph: Graph) -> str:
    """sha256 over the canonical N-Triples form of a graph."""
    from .turtle import canonical_ntriples

    return hashlib.sha256(canonical_ntriples(graph).encode("utf-8")).hexdigest()


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]
    mode: str
    digest: str

    @property
    def error_count(self) -> int:
        return sum(1 for v in self.violations if v.severity == SEVERITY_ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for v in self.violations if v.severity == SEVERITY_WARNING)

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.kind] = counts.get(violation.kind, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "inputs_digest": self.digest,
            "counts": {
                "error": self.error_count,
                "warning": self.warning_count,
                "by_kind": self.counts_by_kind(),
            },
            "violations": [v.to_json() for v in self.violations],
        }

    def render_json(self) -> str:
        return json_text(self.to_json()) + "\n"


def validate_graph(raw_graph: Graph, schema: SchemaIndex | None = None, mode: str = "closed") -> ValidationReport:
    """Materialize a raw graph and run both checks; digest covers the raw input.

    The input graph is never mutated.
    """
    if schema is None:
        schema = extract_schema(raw_graph)
    return _validate(raw_graph.copy(), schema, mode)


def _validate(owned: Graph, schema: SchemaIndex, mode: str) -> ValidationReport:
    """:func:`validate_graph` on a graph the caller owns: it is digested,
    then materialized in place."""
    from .materialize import _materialize

    digest = inputs_digest(owned)
    materialized = _materialize(owned, schema)
    violations = check_disjointness(materialized, schema) + check_obligations(materialized, schema, mode)
    return ValidationReport(tuple(sorted(violations, key=Violation.sort_key)), mode, digest)
