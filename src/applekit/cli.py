"""Command-line interface.

Subcommands::

    applekit reason    materialize inputs and write Turtle
    applekit classify  run the verdict rules, report verdicts as JSON
    applekit query     class-expression or select queries over inputs
    applekit validate  closed/open-world consistency report as JSON
    applekit cq        run the bundled competency-question suite

Exit codes: 0 success, 1 parse or data-structure errors (and failing competency
questions), 2 configuration or rule errors, 3 query errors, 4 consistency
errors (disjointness clashes, contradictory verdicts), 5 out of memory.

All commands are deterministic: given the same inputs they produce byte
identical output.  ``query`` and ``cq`` answer each question through
:func:`applekit.query.answer`, with a name catalog that resolves every
prefix the inputs declare.

The module imports only the standard library.  Each command imports the
layers it runs when it runs, so ``reason`` loads no rule, query,
competency-question or validation code.  :func:`main` reads its arguments
with one parser built per process, and runs the module's
``_cmd_<command>`` as it finds it at that call.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .graph import Graph
    from .schema import NameCatalog, SchemaIndex
    from .terms import PrefixMap

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONFIG = 2
EXIT_QUERY = 3
EXIT_CONSISTENCY = 4
EXIT_MEMORY = 5


class CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _add_io_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-i", "--input", action="append", default=[], metavar="FILE",
        help="Turtle input file (repeatable)",
    )
    parser.add_argument(
        "--bundled", action="store_true",
        help="include the bundled taxonomy and scenario graphs",
    )
    parser.add_argument("-o", "--output", metavar="FILE", help="write output here instead of stdout")


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file a command reads; a file that cannot be read
    or decoded is a configuration error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}", EXIT_CONFIG) from exc


def _load_inputs(args: argparse.Namespace) -> tuple[Graph, PrefixMap]:
    """Union of the bundled graphs (if requested) and every -i file, each
    file's blank nodes kept apart from those of the graphs before it."""
    from .turtle import TurtleParseError, parse_document
    from .vocab import DEFAULT_PREFIXES

    if not args.bundled and not args.input:
        raise CliError("no inputs: pass --bundled and/or -i FILE", EXIT_CONFIG)
    merged: Graph | None = None
    prefixes = DEFAULT_PREFIXES.copy()
    if args.bundled:
        from .assets import load_assets

        assets = load_assets()
        merged = assets.combined()  # a fresh graph, safe to extend
        for prefix, namespace in assets.prefixes.items():
            prefixes.bind(prefix, namespace)
    for name in args.input:
        text = _read_text(name, "input file")
        try:
            document = parse_document(text)
        except TurtleParseError as exc:
            raise CliError(exc.diagnostic.render(str(Path(name))), EXIT_PARSE) from exc
        if merged is None:
            merged = document.graph  # the first graph is fresh: extend it in place
        else:
            merged._merge(document.graph)
        for prefix, namespace in document.prefixes.items():
            prefixes.bind(prefix, namespace)
    return merged, prefixes


def _reason(graph: Graph, prefixes: PrefixMap, *, names: bool = False) -> tuple[SchemaIndex, NameCatalog | None]:
    """Materialize the loaded inputs in place (a graph only the command
    holds); return their schema and, with ``names``, their name catalog,
    which resolves the inputs' ``prefixes``.

    The catalog is built before materializing: it lists as individuals the
    typed subjects, and entailment would type more of them.
    """
    from .materialize import _materialize
    from .schema import NameCatalog, extract_schema

    schema = extract_schema(graph)
    catalog = NameCatalog.from_graph(graph, schema, prefixes) if names else None
    _materialize(graph, schema)
    return schema, catalog


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write output file {args.output}: {exc}", EXIT_CONFIG) from exc
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, payload: object) -> None:
    from .terms import json_text

    _emit(args, json_text(payload) + "\n")


def _cmd_reason(args: argparse.Namespace) -> int:
    from .turtle import serialize_turtle

    graph, prefixes = _load_inputs(args)
    _reason(graph, prefixes)
    _emit(args, serialize_turtle(graph, prefixes))
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    from .query import render_term
    from .rules import _classify, parse_rules
    from .validate import inputs_digest

    graph, prefixes = _load_inputs(args)
    digest = inputs_digest(graph)  # of the inputs, before they are extended
    _, catalog = _reason(graph, prefixes, names=bool(args.rules))
    if args.rules:
        rules = parse_rules(_read_text(args.rules, "rules file"), catalog)
    elif args.bundled:
        from .assets import load_assets

        rules = load_assets().rules
    else:
        raise CliError("classify needs --rules FILE or --bundled", EXIT_CONFIG)
    verdicts = _classify(graph, rules)
    payload = {
        "inputs_digest": digest,
        "verdicts": [
            {
                "action": v.action,
                "verdict_class": v.verdict_class,
                "fired_rules": list(v.fired_rules),
                "firings": [
                    {
                        "rule": f.rule_id,
                        "bindings": {var: render_term(term) for var, term in f.bindings},
                    }
                    for f in v.firings
                ],
            }
            for v in verdicts
        ],
    }
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    from .query import answer

    graph, prefixes = _load_inputs(args)
    schema, catalog = _reason(graph, prefixes, names=True)
    variables, rows = answer(args.expression, args.mode, graph, schema, catalog)
    if args.format == "json":
        _emit_json(args, rows if variables is None else {"variables": variables, "rows": rows})
    elif variables is None:
        _emit(args, "".join(line + "\n" for line in rows))
    else:
        _emit(args, "".join("\t".join(row) + "\n" for row in rows))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    from .schema import extract_schema
    from .validate import _validate

    graph, _ = _load_inputs(args)
    report = _validate(graph, extract_schema(graph), args.world)
    _emit(args, report.render_json())
    return EXIT_CONSISTENCY if report.error_count else EXIT_OK


def _cmd_cq(args: argparse.Namespace) -> int:
    from .assets import load_assets, parse_cq_manifest
    from .cq import format_cq_table, run_cq_suite

    graph, prefixes = _load_inputs(args)
    schema, catalog = _reason(graph, prefixes, names=True)
    if args.manifest:
        cases = parse_cq_manifest(_read_text(args.manifest, "manifest"))
    else:
        cases = load_assets().cq_cases
    results = run_cq_suite(cases, graph, schema, catalog)
    if args.format == "json":
        _emit_json(args, [r.to_json() for r in results])
    else:
        _emit(args, format_cq_table(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_PARSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="applekit",
        description="Applied-ethics knowledge toolkit: materialize, classify, query, validate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reason = sub.add_parser("reason", help="materialize schema entailments, write Turtle")
    _add_io_options(reason)

    classify = sub.add_parser("classify", help="run verdict rules, report verdicts as JSON")
    _add_io_options(classify)
    classify.add_argument("--rules", metavar="FILE", help="rule file (default: bundled rules with --bundled)")

    query = sub.add_parser("query", help="evaluate a class expression or select query")
    query.add_argument("expression", help="query text")
    _add_io_options(query)
    query.add_argument("--format", choices=("json", "tsv"), default="json", help="output format (default: json)")
    query.add_argument(
        "--mode", choices=("instances", "classes", "select"), default="instances",
        help="retrieval mode (default: instances)",
    )

    validate = sub.add_parser("validate", help="consistency report (JSON)")
    _add_io_options(validate)
    validate.add_argument(
        "--world", choices=("open", "closed"), default="closed",
        help="closed world audits existential obligations; open world skips them",
    )

    cq = sub.add_parser("cq", help="run the competency-question suite")
    _add_io_options(cq)
    cq.add_argument("--format", choices=("text", "json"), default="text", help="output format (default: text)")
    cq.add_argument("--manifest", metavar="FILE", help="alternative competency-question manifest")

    return parser


# One parser per process: argparse copies an option's default list before it
# appends to it, so the parser keeps no state from one command to the next.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    from .terms import (
        AssetError,
        QueryParseError,
        RuleError,
        SchemaError,
        StructuralError,
        VerdictConflictError,
    )

    args = _parser().parse_args(argv)
    # A command builds many long-lived containers and frees them together,
    # so cyclic collections would walk an ever larger heap for nothing: no
    # command leaves cyclic garbage that grows with its input.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except CliError as exc:
        print(f"applekit: {exc}", file=sys.stderr)
        return exc.code
    except (SchemaError, StructuralError) as exc:
        print(f"applekit: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except VerdictConflictError as exc:
        print(f"applekit: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (RuleError, AssetError) as exc:
        print(f"applekit: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QueryParseError as exc:
        print(f"applekit: {exc}", file=sys.stderr)
        return EXIT_QUERY
    except MemoryError:
        print("applekit: out of memory", file=sys.stderr)
        return EXIT_MEMORY
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main(None))
