"""CLI behavior: exit codes, document shapes, determinism, schema validity."""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from gradedosp import cli, parastat
from gradedosp.algebras import AlgebraSpec
from gradedosp.cli import REPORT_SCHEMA, main
from gradedosp.gmatrix import GradedMatrix


def run_json(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--output", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_dims_document(tmp_path):
    code, doc = run_json(
        tmp_path, "dims", "--algebra", "ospB", "--m1", "1", "--m2", "1", "--n1", "1", "--n2", "1"
    )
    assert code == 0
    assert doc == {"computed": 40, "expected": 40, "match": True}


def test_dims_sl_and_gl(tmp_path):
    code, doc = run_json(tmp_path, "dims", "--algebra", "sl", "--m1", "1", "--n1", "1")
    assert code == 0
    assert doc == {"computed": 3, "expected": 3, "match": True}
    code, doc = run_json(tmp_path, "dims", "--algebra", "gl", "--m1", "2")
    assert code == 0
    assert doc == {"computed": 4, "expected": 4, "match": True}


def test_basis_empty_document(tmp_path):
    code, doc = run_json(tmp_path, "basis", "--algebra", "ospB")
    assert code == 0
    assert doc["elements"] == []
    assert doc["spec"]["family"] == "ospB"


def test_basis_rejects_gl(capsys):
    assert main(["basis", "--algebra", "gl", "--m1", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_relations_passes(tmp_path):
    code, doc = run_json(
        tmp_path, "check-relations", "--algebra", "ospB", "--n1", "1", "--n2", "1"
    )
    assert code == 0
    names = [c["check"] for c in doc["checks"]]
    assert "relations-BB_same" in names and "relations-BB_mixed" in names
    assert doc["summary"]["failed"] == 0


def test_check_relations_rejects_plain_sl(capsys):
    # A-type generators are only defined on sl(1,0|n1,n2); ospB(0,0,0,0) has none
    for argv in (["--algebra", "sl", "--m1", "2", "--n1", "1"], ["--algebra", "ospB"]):
        assert main(["check-relations", *argv]) == 2
        assert "no parastatistics generators" in capsys.readouterr().err


def test_check_osp_and_jacobi(tmp_path):
    code, doc = run_json(
        tmp_path, "check-osp", "--algebra", "ospB", "--m1", "1", "--n1", "1"
    )
    assert code == 0
    assert [c["check"] for c in doc["checks"]] == [
        "membership",
        "closure",
        "block-conditions",
    ]
    code, doc = run_json(
        tmp_path, "check-jacobi", "--algebra", "ospD", "--m1", "1", "--n1", "1"
    )
    assert code == 0
    assert [c["check"] for c in doc["checks"]] == ["jacobi", "symmetry"]


def test_invalid_spec_exits_2(capsys):
    assert main(["dims", "--algebra", "gl"]) == 2
    assert main(["dims", "--algebra", "ospB", "--m1", "-1"]) == 2
    capsys.readouterr()


def test_size_zero_spec_is_named(capsys):
    assert main(["dims", "--algebra", "sl"]) == 2
    assert capsys.readouterr().err == "gradedosp: error: sl(0,0,0,0) has matrix size 0\n"


def test_size_guard(tmp_path, capsys):
    assert main(["dims", "--algebra", "gl", "--m1", "41"]) == 2
    assert "force" in capsys.readouterr().err
    code, doc = run_json(tmp_path, "dims", "--algebra", "gl", "--m1", "41", "--force")
    assert code == 0
    assert doc["computed"] == 41 * 41


class _Built(Exception):
    """Raised in place of building a kernel basis."""


def test_size_guard_admits_exactly_its_limit(tmp_path, monkeypatch, capsys):
    code, doc = run_json(tmp_path, "dims", "--algebra", "gl", "--m1", "40")
    assert code == 0 and doc["computed"] == 40 * 40

    def refuse(spec):
        raise _Built(spec)

    # sl(1,0|20,19) and ospD(10,10,0,0) have matrix size 40 and reach the
    # basis without --force; sl(1,0|20,20) has size 41 and is refused first
    monkeypatch.setattr(cli, "kernel_basis", refuse)
    for argv in (
        ["--algebra", "sl", "--m1", "1", "--n1", "20", "--n2", "19"],
        ["--algebra", "ospD", "--m1", "10", "--m2", "10"],
    ):
        with pytest.raises(_Built):
            main(["report", *argv])
    assert main(["report", "--algebra", "sl", "--m1", "1", "--n1", "20", "--n2", "20"]) == 2
    assert "exceeds the desk-scale guard 40" in capsys.readouterr().err


@pytest.mark.parametrize("command, family", [("report", "ospB"), ("dims", "gl")])
def test_a_size_beyond_an_index_is_refused_even_with_force(command, family, monkeypatch, capsys):
    # No signature of this size can be built; the refusal comes before any basis.
    def refuse(spec):
        raise _Built(spec)

    monkeypatch.setattr(cli, "kernel_basis", refuse)
    m1 = 10**20
    size = AlgebraSpec(family, m1).size
    assert main([command, "--algebra", family, "--m1", str(m1), "--force"]) == 2
    assert capsys.readouterr().err == (
        f"gradedosp: error: matrix size {size} exceeds the largest index {sys.maxsize}\n"
    )


def test_unwritable_output(capsys):
    code = main(
        ["dims", "--algebra", "sl", "--m1", "1", "--n1", "1",
         "--output", "/nonexistent-dir/report.json"]
    )
    assert code == 2
    capsys.readouterr()


def count_kernel_basis(monkeypatch):
    calls = []
    build = cli.kernel_basis

    def counted(spec):
        calls.append(spec)
        return build(spec)

    monkeypatch.setattr(cli, "kernel_basis", counted)
    return calls


@pytest.mark.parametrize(
    "command, family, builds",
    [
        ("report", "ospB", 1),
        ("check-osp", "ospB", 1),
        ("check-jacobi", "ospB", 1),
        ("dims", "ospB", 1),
        ("check-relations", "ospB", 0),
        ("dims", "gl", 0),
    ],
)
def test_kernel_basis_built_at_most_once(tmp_path, monkeypatch, command, family, builds):
    calls = count_kernel_basis(monkeypatch)
    code, _ = run_json(tmp_path, command, "--algebra", family, "--m1", "1", "--n1", "1")
    assert code == 0
    assert len(calls) == builds


@pytest.mark.parametrize(
    "command, family, builds",
    [
        ("report", "ospB", 1),
        ("check-jacobi", "ospB", 1),
        ("check-osp", "ospB", 1),
        ("report", "sl", 1),
        ("dims", "ospB", 0),
        ("basis", "ospB", 0),
        ("check-relations", "ospB", 0),
    ],
)
def test_bracket_table_built_at_most_once(tmp_path, monkeypatch, command, family, builds):
    tables = []
    build = cli.BracketTable

    def counted(basis):
        tables.append(basis)
        return build(basis)

    monkeypatch.setattr(cli, "BracketTable", counted)
    code, _ = run_json(tmp_path, command, "--algebra", family, "--m1", "1", "--n1", "1")
    assert code == 0
    assert len(tables) == builds


@pytest.mark.parametrize("family", ["ospB", "ospD", "sl"])
def test_report_on_a_kernel_basis_reads_no_antisymmetry_failures(tmp_path, monkeypatch, family):
    # The kernel basis passes the structure-constant gate, so closure,
    # symmetry and Jacobi stay on the coordinate path: the table's
    # `antisymmetry_failures` are empty, and no two matrices are compared
    # in the whole report, so the pairwise comparison is never made.
    tables = []
    build = cli.BracketTable

    def kept(basis):
        tables.append(build(basis))
        return tables[-1]

    compared = []
    equal = GradedMatrix.__eq__
    monkeypatch.setattr(cli, "BracketTable", kept)
    monkeypatch.setattr(GradedMatrix, "__eq__", lambda a, b: compared.append(1) or equal(a, b))
    argv = ["--algebra", family, "--m1", "1", "--n1", "1", "--n2", "1"]
    code, _ = run_json(tmp_path, "report", *argv)
    assert code == 0
    [table] = tables
    assert table.structure_constants is not None
    assert table.antisymmetry_failures == frozenset()
    assert compared == []


@pytest.mark.parametrize("command", ["check-relations", "report"])
@pytest.mark.parametrize(
    "argv, builds",
    [
        (["--algebra", "ospB", "--m1", "1", "--n1", "1"], ["parafermion_ops", "paraboson_ops"]),
        (["--algebra", "sl", "--m1", "1", "--n1", "1", "--n2", "1"], ["palev_ops"]),
    ],
)
def test_generator_sets_built_once(tmp_path, monkeypatch, command, argv, builds):
    calls = []
    for name in ("parafermion_ops", "paraboson_ops", "palev_ops"):
        build = getattr(parastat, name)
        counted = lambda *args, _name=name, _build=build: calls.append(_name) or _build(*args)
        for module in (parastat, cli):
            if getattr(module, name, None) is build:
                monkeypatch.setattr(module, name, counted)
    code, _ = run_json(tmp_path, command, *argv)
    assert code == 0
    assert calls == builds


@pytest.mark.parametrize("where", ["missing-dir/report.json", "."])
def test_unwritable_output_refused_before_any_check(tmp_path, monkeypatch, capsys, where):
    calls = count_kernel_basis(monkeypatch)
    target = tmp_path / where
    argv = ["report", "--algebra", "ospB", "--m1", "1", "--n1", "1", "--output", str(target)]
    assert main(argv) == 2
    assert "cannot write" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_output_replaces_a_file_and_writes_through_a_link(tmp_path):
    target = tmp_path / "report.json"
    link = tmp_path / "link.json"
    link.symlink_to(target.name)
    for path in (target, link):
        target.write_text("stale", encoding="utf-8")
        assert main(["dims", "--algebra", "ospB", "--n1", "1", "--output", str(path)]) == 0
        assert json.loads(target.read_text(encoding="utf-8"))["match"] is True
        assert link.is_symlink()
        assert sorted(tmp_path.iterdir()) == [link, target]


def test_negative_max_counterexamples_exits_2(capsys):
    argv = ["check-relations", "--algebra", "ospB", "--n1", "1", "--max-counterexamples"]
    assert main([*argv, "-3"]) == 2
    captured = capsys.readouterr()
    assert "must be non-negative" in captured.err
    assert captured.out == ""
    assert main([*argv, "many"]) == 2
    assert "--max-counterexamples" in capsys.readouterr().err
    assert main([*argv, "0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--parallelism", "--max-counterexamples"])
def test_non_integer_count_exits_2_with_a_plain_message(monkeypatch, capsys, flag):
    calls = count_kernel_basis(monkeypatch)
    assert main(["report", "--algebra", "ospB", "--m1", "1", flag, "x"]) == 2
    captured = capsys.readouterr()
    assert f"{flag}: expected an integer, got 'x'" in captured.err
    assert "_int" not in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert calls == []


@pytest.mark.parametrize("value", ["-3", "0"])
def test_parallelism_below_one_exits_2(monkeypatch, capsys, value):
    calls = count_kernel_basis(monkeypatch)
    assert main(["report", "--algebra", "ospB", "--m1", "1", "--parallelism", value]) == 2
    captured = capsys.readouterr()
    assert f"--parallelism: must be at least 1, got {value}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert calls == []


def test_empty_output_refused_before_any_check(monkeypatch, capsys):
    calls = count_kernel_basis(monkeypatch)
    assert main(["report", "--algebra", "ospB", "--m1", "1", "--output", ""]) == 2
    captured = capsys.readouterr()
    assert "--output: must not be empty" in captured.err
    assert captured.out == ""
    assert calls == []


def test_usage_error_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_text_format(capsys):
    code = main(
        ["check-relations", "--algebra", "sl", "--m1", "1", "--n1", "1", "--n2", "1",
         "--format", "text"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "relations-A_same" in out
    assert "failed 0" in out


def test_stdout_json(capsys):
    code = main(["dims", "--algebra", "ospB", "--n1", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "computed": 5,
        "expected": 5,
        "match": True,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--algebra", "ospB", "--m1", "1", "--n1", "1"],
        ["report", "--algebra", "ospB", "--m2", "1", "--n2", "1"],
        ["report", "--algebra", "ospD", "--m1", "1", "--n1", "1"],
        ["report", "--algebra", "sl", "--m1", "1", "--n1", "1", "--n2", "1"],
        ["report", "--algebra", "gl", "--m1", "1", "--m2", "1"],
    ],
)
def test_report_documents_validate_against_schema(tmp_path, argv):
    code, doc = run_json(tmp_path, *argv)
    assert code == 0
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["summary"]["failed"] == 0


def test_report_deterministic_under_parallelism(tmp_path):
    argv = ["report", "--algebra", "ospB", "--m1", "1", "--n1", "1"]
    out1 = tmp_path / "p1.json"
    out3 = tmp_path / "p3.json"
    assert main([*argv, "--parallelism", "1", "--output", str(out1)]) == 0
    assert main([*argv, "--parallelism", "3", "--output", str(out3)]) == 0
    assert out1.read_bytes() == out3.read_bytes()


_STARTUP = """
import sys
sys.path.insert(0, sys.argv[1])
from gradedosp.cli import main
status = main(["report", "--algebra", "ospB", "--m1", "1", "--m2", "1", "--n1", "1", "--n2", "1",
               "--output", sys.argv[2]])
print(sorted(set(sys.modules) & {"dataclasses", "inspect", "fractions", "decimal"}))
sys.exit(status)
"""


def test_a_report_runs_on_the_standard_library_without_dataclasses_or_fractions(tmp_path):
    # A fresh interpreter without site-packages: neither module is imported
    # at start-up, nor deferred into the run, and the report is the golden one.
    src = Path(cli.__file__).parents[1]
    out = tmp_path / "report.json"
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _STARTUP, str(src), str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[]\n"
    golden = Path(__file__).parent / "golden" / "report_ospB_1111.json"
    assert out.read_bytes() == golden.read_bytes()
