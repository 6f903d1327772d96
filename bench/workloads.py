"""The three benchmark workloads and the checks that gate their output.

Each workload is a closed loop: one process issues one call after another
and waits for each. A pass returns its instance count (the sum of
CheckReport.total) and a list of named output checks; a pass with any
failed check makes the run incorrect.

The library is always reached through module attributes at call time
(`cli.main`, `gradedosp.verify_jacobi`), so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from time import perf_counter

import gradedosp
from gradedosp import cli
from gradedosp.gmatrix import elem

import userbasis

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _handle:
    EXPECTED = json.load(_handle)


@dataclass
class PassResult:
    wall_s: float
    instances: int
    failed_instances: int
    checks: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def failed_checks(self) -> list[str]:
        return [name for name, ok in self.checks if not ok]


def _spec_args(family: str, m1: int, m2: int, n1: int, n2: int) -> list[str]:
    return ["--algebra", family, "--m1", str(m1), "--m2", str(m2), "--n1", str(n1), "--n2", str(n2)]


def _cli_checks(tag: str, rc: int, path: str, expected: dict) -> tuple[dict, list]:
    """Gate one CLI output: exit status, byte digest, summary, coverage."""
    with open(path, "rb") as handle:
        raw = handle.read()
    doc = json.loads(raw)
    checks = [
        (f"{tag}: exit status 0", rc == 0),
        (f"{tag}: summary.failed == 0", doc["summary"]["failed"] == 0),
        (f"{tag}: summary.total == {expected['total']}", doc["summary"]["total"] == expected["total"]),
        (f"{tag}: sha256 matches the recorded digest", hashlib.sha256(raw).hexdigest() == expected["sha256"]),
    ]
    for check in doc["checks"]:
        declared = (check.get("details") or {}).get("declared_total")
        if check["check"].startswith("relations-"):
            checks.append((f"{tag}: {check['check']} total == declared_total", check["total"] == declared))
    return doc["summary"], checks


class CliWorkload:
    """Runs `gradedosp` commands through `cli.main`, output to files."""

    def __init__(self, name: str, commands: list[tuple[str, list[str]]]):
        self.name = name
        self.commands = commands
        self.expected = {tag: dict(EXPECTED[name][tag]) for tag, _ in commands}

    @property
    def setup_argv(self) -> list[str]:
        return self.commands[0][1]

    def setup(self, seed: int) -> None:
        # The inputs are fixed specs; the seed changes nothing here.
        os.makedirs(OUT_DIR, exist_ok=True)

    def run_pass(self, parallelism: int | None = None) -> PassResult:
        result = PassResult(0.0, 0, 0)
        for tag, argv in self.commands:
            path = os.path.join(OUT_DIR, f"{self.name}.{tag}.json")
            argv = argv + ["--output", path]
            if parallelism is not None:
                argv = _with_parallelism(argv, parallelism)
            start = perf_counter()
            rc = cli.main(argv)
            result.wall_s += perf_counter() - start
            summary, checks = _cli_checks(tag, rc, path, self.expected[tag])
            result.instances += summary["total"]
            result.failed_instances += summary["failed"]
            result.checks += checks
        return result

    def parallel_speedup(self) -> tuple[float, PassResult | None]:
        """Jacobi time with one worker over time with two; 0 when the
        workload has no --parallelism path."""
        return 0.0, None


def _with_parallelism(argv: list[str], parallelism: int) -> list[str]:
    out = list(argv)
    if "--parallelism" in out:
        out[out.index("--parallelism") + 1] = str(parallelism)
    return out


class ReportWorkload(CliWorkload):
    def plant_defect(self) -> None:
        """A wrong expected digest: the byte-identity gate must trip."""
        self.expected["report"]["sha256"] = "0" * 64

    def parallel_speedup(self) -> tuple[float, PassResult]:
        basis = gradedosp.kernel_basis(gradedosp.AlgebraSpec(gradedosp.Family.OSP_B, 2, 1, 1, 1))
        want = EXPECTED[self.name]["jacobi_total"]
        result = PassResult(0.0, 0, 0)
        times = {}
        for workers in (1, 2):
            start = perf_counter()
            report = gradedosp.verify_jacobi(basis, workers=workers)
            times[workers] = perf_counter() - start
            result.instances += report.total
            result.failed_instances += report.failed
            result.checks.append((f"jacobi, {workers} workers: total == {want}", report.total == want))
        result.wall_s = sum(times.values())
        return times[1] / times[2], result


class RelationsWorkload(CliWorkload):
    def plant_defect(self) -> None:
        """Double one paraboson creator: the BB relations must fail."""
        original = gradedosp.paraboson_ops

        def doubled(spec):
            gens = original(spec)
            gens.creators[0] = gens.creators[0].scale(2)
            return gens

        cli.paraboson_ops = doubled


class UserBasisWorkload:
    """rank_of, is_member and the three bracket suites on a seeded basis."""

    name = "user-basis-rational"
    setup_argv = ["basis"] + _spec_args("ospB", 1, 1, 1, 1)

    def __init__(self):
        self.basis = None
        self.expected = EXPECTED[self.name]

    def setup(self, seed: int) -> None:
        self.basis = userbasis.generate(seed)
        self.input_digest = userbasis.digest(self.basis)
        self.recorded_digest = self.expected["input_sha256"].get(str(seed))

    def parallel_speedup(self) -> tuple[float, None]:
        return 0.0, None

    def plant_defect(self) -> None:
        """Push one (0,0) element off the algebra: membership and closure
        must fail while rank and homogeneity stay intact."""
        sig = self.basis.spec.signature()
        self.basis.elements[0] = self.basis.elements[0] + elem(sig, 1, 1)

    def run_pass(self, parallelism: int | None = None) -> PassResult:
        basis = self.basis
        spec = basis.spec
        start = perf_counter()
        rank = gradedosp.rank_of(basis.elements)
        members = [gradedosp.is_member(spec, mat) for mat in basis.elements]
        reports = [
            gradedosp.verify_closure(basis),
            gradedosp.verify_symmetry(basis),
            gradedosp.verify_jacobi(basis, workers=1),
        ]
        wall = perf_counter() - start
        n = userbasis.SIZE
        checks = [
            (f"rank_of == {n}", rank == n),
            ("every element is_member", all(members)),
        ]
        if self.recorded_digest is not None:
            checks.append(("input digest matches the recorded one", self.input_digest == self.recorded_digest))
        for report, total in zip(reports, (n * n, n * n, n ** 3)):
            checks.append((f"{report.check}: failed == 0", report.failed == 0))
            checks.append((f"{report.check}: total == {total}", report.total == total))
        return PassResult(
            wall, sum(r.total for r in reports), sum(r.failed for r in reports), checks
        )


def make(name: str):
    if name == "report-ospB-2111":
        argv = ["report"] + _spec_args("ospB", 2, 1, 1, 1) + ["--parallelism", "2"]
        return ReportWorkload(name, [("report", argv)])
    if name == "relations-large":
        return RelationsWorkload(name, [
            ("ospB-5554", ["check-relations"] + _spec_args("ospB", 5, 5, 5, 4)),
            ("sl-1-0-16-16", ["check-relations"] + _spec_args("sl", 1, 0, 16, 16)),
        ])
    if name == "user-basis-rational":
        return UserBasisWorkload()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("report-ospB-2111", "relations-large", "user-basis-rational")
