"""Command-line front end: build bases, run check suites, emit reports.

Every check is a row of one ordered table, `CHECKS`. A `check-*`
subcommand tests its precondition on the spec and runs its own rows;
`report` runs every row that applies, the relation suites as chosen by
`parastat.relation_reports`. One invocation builds the kernel basis, its
bracket table and `parastat.generator_sets` at most once each, and only
when a row needs them. Every subcommand refuses a matrix size above
`SIZE_GUARD` without `--force`, and one above `sys.maxsize` even with it,
before any basis is built.

JSON is the canonical output format; the text rendering is a lossy human
view. Checks run in one thread and `--parallelism` has no effect, so
identical configurations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cached_property
from typing import Optional

from . import __version__
from .algebras import (
    _ORTHOSYMPLECTIC,
    AlgebraSpec,
    Basis,
    BracketTable,
    Family,
    expected_dim,
    kernel_basis,
    verify_block_conditions,
    verify_closure,
    verify_jacobi,
    verify_membership,
    verify_symmetry,
)
from .parastat import GeneratorSet, generator_sets, paraboson_ops, relation_reports
from .report import CheckReport

TOOL = "gradedosp"
SIZE_GUARD = 40  # largest matrix size built without --force

COMMANDS = ("basis", "dims", "check-osp", "check-jacobi", "check-relations", "report")

_SPEC_SCHEMA = {
    "type": "object",
    "required": ["family", "m1", "m2", "n1", "n2"],
    "properties": {
        "family": {"enum": ["gl", "sl", "ospB", "ospD"]},
        "m1": {"type": "integer", "minimum": 0},
        "m2": {"type": "integer", "minimum": 0},
        "n1": {"type": "integer", "minimum": 0},
        "n2": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

_CHECK_SCHEMA = {
    "type": "object",
    "required": ["check", "spec", "total", "failed", "counterexamples"],
    "properties": {
        "check": {"type": "string"},
        "spec": {"oneOf": [_SPEC_SCHEMA, {"type": "null"}]},
        "total": {"type": "integer", "minimum": 0},
        "failed": {"type": "integer", "minimum": 0},
        "counterexamples": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["indices"],
                "properties": {
                    "indices": {"type": ["array", "object"]},
                    "signs": {"type": "object"},
                    "residual": {"type": ["object", "array", "null"]},
                },
            },
        },
        "details": {"type": "object"},
    },
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "gradedosp check report",
    "type": "object",
    "required": ["tool", "version", "spec", "checks", "summary"],
    "properties": {
        "tool": {"const": TOOL},
        "version": {"type": "string", "pattern": r"^\d+\.\d+\.\d+$"},
        "spec": _SPEC_SCHEMA,
        "checks": {"type": "array", "items": _CHECK_SCHEMA},
        "summary": {
            "type": "object",
            "required": ["total", "failed"],
            "properties": {
                "total": {"type": "integer", "minimum": 0},
                "failed": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


class CliError(Exception):
    """Usage or spec error: reported on stderr with exit status 2."""


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def non_negative_int(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_empty(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Construct graded matrix algebras and verify their identities exactly.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument(
        "--algebra",
        required=True,
        choices=[f.value for f in Family],
        help="algebra family",
    )
    parser.add_argument("--m1", type=int, default=0)
    parser.add_argument("--m2", type=int, default=0)
    parser.add_argument("--n1", type=int, default=0)
    parser.add_argument("--n2", type=int, default=0)
    parser.add_argument(
        "--output", type=non_empty, default=None, help="output path (default: stdout)"
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--max-counterexamples", type=non_negative_int, default=10)
    parser.add_argument("--parallelism", type=positive_int, default=1)
    parser.add_argument(
        "--force",
        action="store_true",
        help=f"allow matrix sizes above {SIZE_GUARD}",
    )
    return parser


def _build_spec(args) -> AlgebraSpec:
    try:
        spec = AlgebraSpec(Family(args.algebra), args.m1, args.m2, args.n1, args.n2)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if spec.size > SIZE_GUARD and not args.force:
        raise CliError(
            f"matrix size {spec.size} exceeds the desk-scale guard {SIZE_GUARD}; "
            "pass --force to proceed"
        )
    if spec.size > sys.maxsize:
        raise CliError(f"matrix size {spec.size} exceeds the largest index {sys.maxsize}")
    return spec


class _Context:
    """One invocation's spec and options; builds each cached part once, on first use."""

    def __init__(self, spec: AlgebraSpec, max_ces: int):
        self.spec = spec
        self.max_ces = max_ces

    @cached_property
    def basis(self) -> Basis:
        return kernel_basis(self.spec)

    @cached_property
    def table(self) -> BracketTable:
        return BracketTable(self.basis)

    @cached_property
    def generator_sets(self) -> list[GeneratorSet]:
        # Parabosons come from this module's `paraboson_ops`, looked up at
        # call time: the relations benchmark rebinds it to plant its defect.
        return generator_sets(self.spec, paraboson_ops)


def _dims(ctx: _Context) -> dict:
    spec = ctx.spec
    expected = expected_dim(spec)
    # gl is the whole matrix space and has no kernel basis to count.
    computed = expected if spec.family is Family.GL else len(ctx.basis)
    return {"computed": computed, "expected": expected, "match": computed == expected}


def _dims_report(ctx: _Context) -> list[CheckReport]:
    report = CheckReport("dims", ctx.spec.to_json())
    report.details = _dims(ctx)
    report.record(report.details["match"])
    return [report]


def _is_osp(ctx: _Context) -> bool:
    return ctx.spec.family in _ORTHOSYMPLECTIC


def _has_condition(ctx: _Context) -> bool:
    return ctx.spec.family is not Family.GL


def _has_generators(ctx: _Context) -> bool:
    return bool(ctx.generator_sets)


# In report order: (the check subcommand that runs the row, whether the row
# applies to the invocation, runner). Runners look the library up at call time.
CHECKS = (
    (None, lambda ctx: True, _dims_report),
    ("check-osp", _is_osp, lambda ctx: [verify_membership(ctx.basis, ctx.max_ces)]),
    (
        "check-osp",
        _has_condition,
        lambda ctx: [verify_closure(ctx.basis, ctx.max_ces, table=ctx.table)],
    ),
    (
        "check-osp",
        lambda ctx: ctx.spec.family is Family.OSP_B,
        lambda ctx: [verify_block_conditions(ctx.basis, ctx.max_ces)],
    ),
    (
        "check-jacobi",
        _has_condition,
        lambda ctx: [verify_jacobi(ctx.basis, max_counterexamples=ctx.max_ces, table=ctx.table)],
    ),
    (
        "check-jacobi",
        _has_condition,
        lambda ctx: [verify_symmetry(ctx.basis, ctx.max_ces, table=ctx.table)],
    ),
    (
        "check-relations",
        _has_generators,
        lambda ctx: relation_reports(ctx.generator_sets, ctx.max_ces),
    ),
)

# What a subcommand needs of the spec, and the message when it is missing.
PRECONDITIONS = {
    "basis": (_has_condition, "gl has no defining condition; basis needs sl/ospB/ospD"),
    "check-osp": (_is_osp, "check-osp needs an orthosymplectic family"),
    "check-jacobi": (_has_condition, "check-jacobi needs a family with a defining condition"),
    "check-relations": (
        _has_generators,
        "no parastatistics generators are defined for {family}({m1},{m2},{n1},{n2})",
    ),
}


def run(args) -> tuple[dict, int]:
    """Execute one subcommand; returns (document, failure count)."""
    spec = _build_spec(args)
    ctx = _Context(spec, args.max_counterexamples)
    if args.command in PRECONDITIONS:
        applies, message = PRECONDITIONS[args.command]
        if not applies(ctx):
            raise CliError(message.format(**spec.to_json()))
    if args.command == "basis":
        return ctx.basis.to_json(), 0
    if args.command == "dims":
        doc = _dims(ctx)
        return doc, 0 if doc["match"] else 1
    checks = [
        report
        for command, applies, runner in CHECKS
        if args.command in ("report", command) and applies(ctx)
        for report in runner(ctx)
    ]
    failed = sum(c.failed for c in checks)
    doc = {
        "tool": TOOL,
        "version": __version__,
        "spec": spec.to_json(),
        "checks": [c.to_json() for c in checks],
        "summary": {"total": sum(c.total for c in checks), "failed": failed},
    }
    return doc, failed


def _render_text(doc: dict) -> str:
    lines = []
    if "checks" in doc:
        spec = doc.get("spec", {})
        lines.append(
            f"{doc.get('tool', TOOL)} {doc.get('version', '')} — "
            f"{spec.get('family')}({spec.get('m1')},{spec.get('m2')}|{spec.get('n1')},{spec.get('n2')})"
        )
        for check in doc["checks"]:
            status = "ok" if check["failed"] == 0 else f"FAILED {check['failed']}"
            lines.append(f"  {check['check']}: {check['total']} instances, {status}")
        summary = doc["summary"]
        lines.append(f"total {summary['total']}, failed {summary['failed']}")
    elif "computed" in doc:
        lines.append(
            f"computed {doc['computed']}, expected {doc['expected']}, "
            f"match {'yes' if doc['match'] else 'no'}"
        )
    else:
        lines.append(f"basis of size {len(doc['elements'])}")
        for element in doc["elements"]:
            lines.append(f"  {element['label']}: {len(element['entries'])} entries")
    return "\n".join(lines) + "\n"


def _reserve_output(path: str) -> Optional[str]:
    """Refuse an unwritable `path` before any check runs. Returns the file
    beside a new or regular `path` that replaces it atomically once the
    document is complete; None for a link, device or pipe, written in place."""
    try:
        if os.path.isdir(path):
            raise IsADirectoryError("is a directory")
        if os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path):
            return None
        tmp = f"{path}.{os.getpid()}.tmp"
        open(tmp, "x").close()
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc
    return tmp


def _write_output(tmp: Optional[str], path: str, rendered: str) -> None:
    try:
        with open(tmp or path, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        if tmp:
            os.replace(tmp, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    tmp = None
    try:
        tmp = _reserve_output(args.output) if args.output else None
        doc, failed = run(args)
        rendered = (
            json.dumps(doc, indent=2) + "\n" if args.format == "json" else _render_text(doc)
        )
        if args.output:
            _write_output(tmp, args.output, rendered)
        else:
            sys.stdout.write(rendered)
    except CliError as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return 0 if failed == 0 else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
