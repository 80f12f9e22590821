"""Loading and integrity-checking of the bundled knowledge assets.

The package ships four data files: the vocabulary/taxonomy graph, the
bioethics scenario graph, the moral-verdict rule file, and the competency
question manifest.  A fifth file records the frozen triple counts of the
two graphs; a mismatch at load time means the assets were corrupted, and
loading fails rather than producing quietly wrong answers.

Set the ``APPLE_ASSET_DIR`` environment variable to point all bundled-asset
loading at a different directory (the files must keep their names).
"""

from __future__ import annotations

import json
import os
from functools import cached_property, lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .schema import NameCatalog, extract_schema
from .terms import AssetError, PrefixMap
from .turtle import ParsedDocument, TurtleParseError, parse_document

if TYPE_CHECKING:
    from .graph import Graph
    from .rules import Rule
    from .schema import SchemaIndex

ASSET_ENV_VAR = "APPLE_ASSET_DIR"

TAXONOMY_FILE = "apple-taxonomy.ttl"
SCENARIO_FILE = "bioethics-scenario.ttl"
RULES_FILE = "moral-verdict.rules"
CQ_MANIFEST_FILE = "cq-manifest.json"
COUNTS_FILE = "manifest.json"


def asset_dir() -> Path:
    """The directory holding the assets, honoring APPLE_ASSET_DIR."""
    override = os.environ.get(ASSET_ENV_VAR)
    if override:
        return Path(override)
    return Path(__file__).parent / "assets"


class CqCase(NamedTuple):
    id: str
    question: str
    mode: str
    query: str
    expected: tuple[str, ...]
    reconstructed: bool = False


def parse_cq_manifest(text: str) -> tuple[CqCase, ...]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AssetError(f"competency-question manifest is not valid JSON: {exc}") from exc
    listed = payload.get("cases", []) if isinstance(payload, dict) else None
    if not isinstance(listed, list):
        raise AssetError("competency-question manifest must be a JSON object whose cases are a list")
    cases = []
    for number, raw in enumerate(listed, 1):
        if not isinstance(raw, dict):
            raise AssetError(f"manifest case {number} is not a JSON object")
        missing = {"id", "mode", "query", "expected"} - set(raw)
        if missing:
            raise AssetError(f"manifest case is missing fields: {', '.join(sorted(missing))}")
        if not all(isinstance(raw[key], str) for key in ("id", "mode", "query")):
            raise AssetError(f"manifest case {number}: id, mode and query must be strings")
        if raw["mode"] not in ("instances", "classes", "select"):
            raise AssetError(f"manifest case {raw['id']}: unknown mode {raw['mode']!r}")
        if not isinstance(raw["expected"], list) or not all(isinstance(value, str) for value in raw["expected"]):
            raise AssetError(f"manifest case {raw['id']}: expected must be a list of strings")
        if not isinstance(raw.get("question", ""), str) or not isinstance(raw.get("reconstructed", False), bool):
            raise AssetError(f"manifest case {number}: question must be a string and reconstructed true or false")
        cases.append(
            CqCase(
                id=raw["id"],
                question=raw.get("question", ""),
                mode=raw["mode"],
                query=raw["query"],
                expected=tuple(sorted(raw["expected"])),
                reconstructed=raw.get("reconstructed", False),
            )
        )
    if not cases:
        raise AssetError("competency-question manifest contains no cases")
    return tuple(cases)


class AppleAssets:
    """The loaded bundle.  Treat the graphs as read-only; the loader caches
    per asset directory and hands every caller the same objects.

    ``rules`` is parsed from ``rules_text`` when it is first read, so a
    command that runs no rules never imports the rule engine.
    """

    def __init__(
        self,
        taxonomy: Graph,
        scenario: Graph,
        prefixes: PrefixMap,
        schema: SchemaIndex,
        catalog: NameCatalog,
        rules_text: str,
        cq_cases: tuple[CqCase, ...],
        counts: dict[str, int],
    ) -> None:
        self.taxonomy = taxonomy
        self.scenario = scenario
        self.prefixes = prefixes
        self.schema = schema
        self.catalog = catalog
        self.rules_text = rules_text
        self.cq_cases = cq_cases
        self.counts = counts

    @cached_property
    def rules(self) -> list[Rule]:
        from .rules import parse_rules

        return parse_rules(self.rules_text, self.catalog)

    def combined(self) -> Graph:
        return _merged(self.taxonomy, self.scenario)


def _merged(taxonomy: Graph, scenario: Graph) -> Graph:
    merged = taxonomy.copy()
    merged._merge(scenario)
    return merged


def _read(path: Path, name: str) -> str:
    target = path / name
    try:
        return target.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise AssetError(f"cannot read bundled asset {target}: {exc}") from exc


def _parse(path: Path, name: str) -> ParsedDocument:
    try:
        return parse_document(_read(path, name))
    except TurtleParseError as exc:
        raise AssetError(f"cannot parse bundled asset {exc.diagnostic.render(str(path / name))}") from exc


def load_assets() -> AppleAssets:
    """Load, parse, and integrity-check the asset bundle (cached per directory)."""
    return _cached_assets(asset_dir())


@lru_cache(maxsize=8)
def _cached_assets(path: Path) -> AppleAssets:
    taxonomy_doc = _parse(path, TAXONOMY_FILE)
    scenario_doc = _parse(path, SCENARIO_FILE)

    try:
        counts = json.loads(_read(path, COUNTS_FILE))
    except json.JSONDecodeError as exc:
        raise AssetError(f"asset count manifest is not valid JSON: {exc}") from exc
    if not isinstance(counts, dict) or not all(type(value) is int for value in counts.values()):
        raise AssetError("asset count manifest must be a JSON object whose counts are integers")
    for name, graph in (("taxonomy", taxonomy_doc.graph), ("scenario", scenario_doc.graph)):
        expected = counts.get(name)
        if expected is None:
            raise AssetError(f"asset count manifest has no entry for {name!r}")
        if len(graph) != expected:
            raise AssetError(
                f"bundled {name} graph has {len(graph)} triples, manifest records {expected}; "
                "the assets appear corrupted"
            )

    prefixes = taxonomy_doc.prefixes.copy()
    for prefix, namespace in scenario_doc.prefixes.items():
        prefixes.bind(prefix, namespace)

    combined = _merged(taxonomy_doc.graph, scenario_doc.graph)
    schema = extract_schema(combined)
    catalog = NameCatalog.from_graph(combined, schema, prefixes)

    return AppleAssets(
        taxonomy=taxonomy_doc.graph,
        scenario=scenario_doc.graph,
        prefixes=prefixes,
        schema=schema,
        catalog=catalog,
        rules_text=_read(path, RULES_FILE),
        cq_cases=parse_cq_manifest(_read(path, CQ_MANIFEST_FILE)),
        counts=counts,
    )


def default_catalog() -> NameCatalog:
    """The name catalog of the bundled assets (used when parsers get none)."""
    return load_assets().catalog
