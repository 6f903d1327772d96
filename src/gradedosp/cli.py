"""Command-line front end: build bases, run check suites, emit reports.

JSON is the canonical output format; the text rendering is a lossy human
view. Identical configurations produce byte-identical JSON regardless of
the parallelism setting.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .algebras import (
    AlgebraSpec,
    Family,
    expected_dim,
    is_member,
    j_matrix,
    kernel_basis,
    membership_residual,
    s_matrices,
    verify_block_conditions,
    verify_closure,
    verify_jacobi,
    verify_symmetry,
)
from .parastat import (
    RelationFamily,
    graded_bracket_consistency,
    palev_ops,
    paraboson_ops,
    parafermion_ops,
    verify_relations,
)
from .report import CheckReport

TOOL = "gradedosp"
SIZE_GUARD = 40  # Jacobi suites are cubic in basis size

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


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Construct graded matrix algebras and verify their identities exactly.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument(
            "--algebra",
            required=True,
            choices=[f.value for f in Family],
            help="algebra family",
        )
        sp.add_argument("--m1", type=int, default=0)
        sp.add_argument("--m2", type=int, default=0)
        sp.add_argument("--n1", type=int, default=0)
        sp.add_argument("--n2", type=int, default=0)
        sp.add_argument("--output", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--max-counterexamples", type=non_negative_int, default=10)
        sp.add_argument("--parallelism", type=int, default=1)
        sp.add_argument(
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
    return spec


def _dims_numbers(spec: AlgebraSpec) -> tuple[int, int]:
    if spec.family in (Family.OSP_B, Family.OSP_D):
        return len(kernel_basis(spec)), expected_dim(spec)
    m = spec.size
    if spec.family is Family.SL:
        return len(kernel_basis(spec)), m * m - 1
    return m * m, m * m  # gl: the whole matrix space


def _membership_report(spec: AlgebraSpec, max_ces: int) -> CheckReport:
    report = CheckReport("membership", spec.to_json())
    j = j_matrix(spec)
    for i, jj, mat in s_matrices(spec):
        ok = is_member(spec, mat)
        report.record(
            ok,
            None
            if ok
            else {
                "indices": [f"s[{i},{jj}]"],
                "residual": membership_residual(spec, mat, j).to_json(),
            },
            max_ces,
        )
    basis = kernel_basis(spec)
    for label, mat in zip(basis.labels, basis.elements):
        ok = is_member(spec, mat)
        report.record(
            ok,
            None
            if ok
            else {
                "indices": [label],
                "residual": membership_residual(spec, mat, j).to_json(),
            },
            max_ces,
        )
    return report


def _relation_reports(spec: AlgebraSpec, max_ces: int) -> list[CheckReport]:
    reports: list[CheckReport] = []
    if spec.family is Family.OSP_B:
        fermions = parafermion_ops(spec) if spec.m1 + spec.m2 else None
        bosons = paraboson_ops(spec) if spec.n1 + spec.n2 else None
        if fermions:
            reports.append(
                verify_relations(RelationFamily.FF, fermions, max_counterexamples=max_ces)
            )
        if bosons:
            reports.append(
                verify_relations(RelationFamily.BB_SAME, bosons, max_counterexamples=max_ces)
            )
            reports.append(
                verify_relations(RelationFamily.BB_MIXED, bosons, max_counterexamples=max_ces)
            )
        if fermions and bosons:
            for fam in (RelationFamily.PF_FAMILY1, RelationFamily.PF_FAMILY2):
                reports.append(
                    verify_relations(fam, fermions, partner=bosons, max_counterexamples=max_ces)
                )
        sets = [g for g in (fermions, bosons) if g]
        if sets:
            reports.append(graded_bracket_consistency(*sets, max_counterexamples=max_ces))
        return reports
    if spec.family is Family.SL and spec.m1 == 1 and spec.m2 == 0 and spec.n1 + spec.n2 >= 1:
        gens = palev_ops(spec.n1, spec.n2)
        for fam in (RelationFamily.A_SAME, RelationFamily.A_MIXED):
            reports.append(verify_relations(fam, gens, max_counterexamples=max_ces))
        reports.append(graded_bracket_consistency(gens, max_counterexamples=max_ces))
        return reports
    raise CliError(
        "no parastatistics generators are defined for "
        f"{spec.family.value}({spec.m1},{spec.m2},{spec.n1},{spec.n2})"
    )


def _dims_report(spec: AlgebraSpec) -> CheckReport:
    computed, expected = _dims_numbers(spec)
    report = CheckReport("dims", spec.to_json())
    report.record(computed == expected)
    report.details = {
        "computed": computed,
        "expected": expected,
        "match": computed == expected,
    }
    return report


def _checks_doc(spec: AlgebraSpec, checks: list[CheckReport]) -> dict:
    total = sum(c.total for c in checks)
    failed = sum(c.failed for c in checks)
    return {
        "tool": TOOL,
        "version": __version__,
        "spec": spec.to_json(),
        "checks": [c.to_json() for c in checks],
        "summary": {"total": total, "failed": failed},
    }


def run(args) -> tuple[dict, int]:
    """Execute one subcommand; returns (document, failure count)."""
    spec = _build_spec(args)
    max_ces = args.max_counterexamples
    workers = max(1, args.parallelism)

    if args.command == "basis":
        if spec.family is Family.GL:
            raise CliError("gl has no defining condition; basis needs sl/ospB/ospD")
        return kernel_basis(spec).to_json(), 0

    if args.command == "dims":
        computed, expected = _dims_numbers(spec)
        doc = {"computed": computed, "expected": expected, "match": computed == expected}
        return doc, 0 if doc["match"] else 1

    if args.command == "check-osp":
        if spec.family not in (Family.OSP_B, Family.OSP_D):
            raise CliError("check-osp needs an orthosymplectic family")
        checks = [_membership_report(spec, max_ces), verify_closure(kernel_basis(spec), max_ces)]
        if spec.family is Family.OSP_B:
            checks.append(verify_block_conditions(spec, max_ces))
        doc = _checks_doc(spec, checks)
        return doc, doc["summary"]["failed"]

    if args.command == "check-jacobi":
        if spec.family is Family.GL:
            raise CliError("check-jacobi needs a family with a defining condition")
        basis = kernel_basis(spec)
        checks = [
            verify_jacobi(basis, workers=workers, max_counterexamples=max_ces),
            verify_symmetry(basis, max_ces),
        ]
        doc = _checks_doc(spec, checks)
        return doc, doc["summary"]["failed"]

    if args.command == "check-relations":
        checks = _relation_reports(spec, max_ces)
        doc = _checks_doc(spec, checks)
        return doc, doc["summary"]["failed"]

    # report: everything applicable, bundled
    checks = [_dims_report(spec)]
    if spec.family in (Family.OSP_B, Family.OSP_D):
        checks.append(_membership_report(spec, max_ces))
    if spec.family is not Family.GL:
        basis = kernel_basis(spec)
        checks.append(verify_closure(basis, max_ces))
        if spec.family is Family.OSP_B:
            checks.append(verify_block_conditions(spec, max_ces))
        checks.append(verify_jacobi(basis, workers=workers, max_counterexamples=max_ces))
        checks.append(verify_symmetry(basis, max_ces))
    try:
        checks.extend(_relation_reports(spec, max_ces))
    except CliError:
        pass  # no generators for this spec: nothing to add
    doc = _checks_doc(spec, checks)
    return doc, doc["summary"]["failed"]


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
    elif "elements" in doc:
        lines.append(f"basis of size {len(doc['elements'])}")
        for element in doc["elements"]:
            lines.append(f"  {element['label']}: {len(element['entries'])} entries")
    else:
        lines.append(json.dumps(doc))
    return "\n".join(lines) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        doc, failed = run(args)
    except CliError as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return 2
    rendered = (
        json.dumps(doc, indent=2) + "\n" if args.format == "json" else _render_text(doc)
    )
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"{TOOL}: error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if failed == 0 else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
