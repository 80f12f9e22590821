"""Competency-question runner: evaluate each manifest case and compare its
answer set against the recorded expectation (exact set equality)."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .query import answer

if TYPE_CHECKING:
    from .assets import CqCase
    from .graph import Graph
    from .schema import NameCatalog, SchemaIndex


class CqResult(NamedTuple):
    id: str
    question: str
    mode: str
    query: str
    expected: tuple[str, ...]
    actual: tuple[str, ...]
    reconstructed: bool

    @property
    def passed(self) -> bool:
        return set(self.expected) == set(self.actual)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "question": self.question,
            "mode": self.mode,
            "query": self.query,
            "expected": list(self.expected),
            "actual": list(self.actual),
            "passed": self.passed,
            "reconstructed": self.reconstructed,
        }


def run_case(case: CqCase, graph: Graph, schema: SchemaIndex, catalog: NameCatalog) -> CqResult:
    """Evaluate one case against a materialized graph."""
    variables, rows = answer(case.query, case.mode, graph, schema, catalog)
    if variables is None:
        actual = tuple(rows)
    elif len(variables) == 1:
        actual = tuple(row[0] for row in rows)
    else:
        actual = tuple("\t".join(row) for row in rows)
    return CqResult(case.id, case.question, case.mode, case.query, case.expected, actual, case.reconstructed)


def run_cq_suite(cases, graph: Graph, schema: SchemaIndex, catalog: NameCatalog) -> list[CqResult]:
    return [run_case(case, graph, schema, catalog) for case in cases]


def format_cq_table(results: list[CqResult]) -> str:
    """One line per case plus a summary; mismatches show both answer sets."""
    lines = []
    width = max((len(r.id) for r in results), default=3)
    for result in results:
        status = "pass" if result.passed else "FAIL"
        note = " (reconstructed expectation)" if result.reconstructed else ""
        lines.append(f"{result.id:<{width}}  {status}  [{result.mode}] {result.query}{note}")
        if not result.passed:
            lines.append(f"{'':<{width}}  expected: {', '.join(result.expected) or '(none)'}")
            lines.append(f"{'':<{width}}  actual:   {', '.join(result.actual) or '(none)'}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} competency questions passed")
    return "\n".join(lines) + "\n"
