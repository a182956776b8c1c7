import json
import subprocess
import sys

import pytest

import zeroforcing.solver as solver
from zeroforcing.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_cycle(capsys):
    code, out, _ = run_cli(capsys, "compute", "cycle(8)")
    assert code == 0
    doc = json.loads(out)
    assert doc["z"] == 2 and doc["z_c"] == 2
    assert doc["witnesses"]["z"] == [0, 1]


def test_compute_table(capsys):
    code, out, _ = run_cli(capsys, "compute", "star(6)", "--format", "table")
    assert code == 0
    assert "z = 4" in out and "z_c = 5" in out


def test_trace_path(capsys):
    code, out, _ = run_cli(capsys, "trace", "path(6)", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["pt"] == 5
    assert len(doc["rounds"]) == 5
    assert doc["rounds"][0] == [{"forcer": 0, "forced": 1}]
    assert doc["is_zfs"] and doc["is_czfs"]


def test_trace_non_forcing_seed(capsys):
    code, out, _ = run_cli(capsys, "trace", "cycle(8)", "--seed", "0,3")
    assert code == 0
    doc = json.loads(out)
    assert doc["pt"] is None
    assert doc["is_zfs"] is False


def test_trace_table(capsys):
    code, out, _ = run_cli(capsys, "trace", "supertriangle(4)", "--seed",
                           "0,1,3,6", "--format", "table")
    assert code == 0
    assert "pt = 4" in out
    code, out, _ = run_cli(capsys, "trace", "path(6)", "--seed", "0", "--format", "table")
    assert code == 0
    assert out == (
        "  t | newly black\n  0 | 0\n  1 | 1\n  2 | 2\n  3 | 3\n  4 | 4\n  5 | 5\npt = 5\n"
    )
    code, out, _ = run_cli(capsys, "trace", "cycle(8)", "--seed", "0,3", "--format", "table")
    assert code == 0
    assert out == "  t | newly black\n  0 | 0, 3\npt = undefined (not a forcing set)\n"


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "path(5)")
    assert code == 0
    assert out.splitlines() == ["0", "4"]
    code, out, _ = run_cli(capsys, "enumerate", "star(6)", "--connected")
    assert code == 0
    assert len(out.splitlines()) == 5
    # star(4): the minimum ZFS have size 2, the minimum connected ones size 3
    for flags, size in (((), 2), (("--connected",), 3)):
        code, out, _ = run_cli(capsys, "enumerate", "star(4)", *flags)
        assert code == 0
        assert {len(line.split(",")) for line in out.splitlines()} == {size}, flags


def test_enumerate_budget_bounds_the_drain(capsys):
    # 400,110 suffices for the Z_c value query but not for the level drain
    code, out, err = run_cli(
        capsys, "enumerate", "strong(cycle(5),path(4))", "--connected", "--budget", "400110"
    )
    assert code == 3 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "BudgetExceeded" and doc["closures"] == 400110


def test_enumerate_runs_one_value_query(capsys, monkeypatch):
    calls = []
    min_level = solver._min_level

    def counted(g, meter, start, connected, closed=None):
        calls.append(connected)
        return min_level(g, meter, start, connected, closed)

    monkeypatch.setattr(solver, "_min_level", counted)
    monkeypatch.setattr(solver, "_first_hit", None)
    for flags, connected in (((), False), (("--connected",), True)):
        calls.clear()
        code, out, _ = run_cli(capsys, "enumerate", "cycle(6)", *flags)
        assert code == 0 and out
        assert calls == [connected]


def test_verify_named_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "named", "--format", "csv")
    assert code == 0
    assert out.startswith("claim,instances,holds,violated,budget_exceeded")


def test_verify_exhaustive_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "exhaustive", "--nmax", "4")
    assert code == 0
    docs = json.loads(out)
    assert all(d["verdict"] == "holds" for d in docs)


def test_file_and_stdin_input(tmp_path, capsys, monkeypatch):
    p = tmp_path / "g.edges"
    p.write_text("n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n")
    code, out, _ = run_cli(capsys, "compute", "--file", str(p))
    assert code == 0 and json.loads(out)["z"] == 1

    monkeypatch.setattr(sys, "stdin", type("S", (), {"read": lambda self: "0 1\n1 2\n"})())
    code, out, _ = run_cli(capsys, "trace", "--file", "-", "--seed", "0")
    assert code == 0 and json.loads(out)["pt"] == 2


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "compute", "wheel(6)", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["z"] == 3


def test_input_errors(capsys):
    code, _, err = run_cli(capsys, "compute", "frob(3)")
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"
    code, _, err = run_cli(capsys, "compute")
    assert code == 2
    code, _, err = run_cli(capsys, "trace", "path(4)", "--seed", "9")
    assert code == 2
    code, _, err = run_cli(capsys, "compute", "--file", "/nonexistent/file")
    assert code == 2


def test_budget_exit_code(capsys):
    code, out, _ = run_cli(capsys, "compute", "supertriangle(4)", "--budget", "5")
    assert code == 3
    doc = json.loads(out)
    assert doc["budget"]["exceeded"] is True and doc["z"] is None


def test_budget_env_default(capsys, monkeypatch):
    monkeypatch.setenv("ZF_BUDGET", "5")
    code, out, _ = run_cli(capsys, "compute", "supertriangle(4)")
    assert code == 3
    assert json.loads(out)["budget"]["closures"] == 5
    code, _, err = run_cli(capsys, "enumerate", "supertriangle(4)")
    assert code == 3
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_families_listing(capsys):
    code, out, _ = run_cli(capsys, "families")
    assert code == 0 and "pc(n1,...,nk)" in out
    code, out, _ = run_cli(capsys, "families", "--format", "json")
    assert code == 0 and isinstance(json.loads(out), list)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "zeroforcing", "compute", "path(4)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["z"] == 1


def test_malformed_budget_env_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("ZF_BUDGET", "abc")
    code, _, err = run_cli(capsys, "compute", "path(3)")
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "SettingError" and "ZF_BUDGET" in doc["message"]


def test_deeply_nested_term_is_an_input_error(capsys):
    term = "cartesian(path(1)," * 3000 + "path(1)" + ")" * 3000
    code, _, err = run_cli(capsys, "compute", term)
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


def test_negative_budget_is_an_input_error(capsys, monkeypatch):
    for verb in (["compute", "path(3)"], ["enumerate", "path(3)"]):
        code, out, err = run_cli(capsys, *verb, "--budget", "-5")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "SettingError"
    monkeypatch.setenv("ZF_BUDGET", "-5")
    for verb in (["compute", "path(3)"], ["enumerate", "path(3)", "--connected"]):
        code, out, err = run_cli(capsys, *verb)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "SettingError" and "ZF_BUDGET" in doc["message"]


def test_zero_budget_stays_valid(capsys):
    code, out, _ = run_cli(capsys, "compute", "path(3)", "--budget", "0")
    assert code == 3
    assert json.loads(out)["budget"] == {"closures": 0, "exceeded": True}


def test_jobs_below_one_is_an_input_error(capsys):
    for argv in (
        ["compute", "path(3)", "--jobs", "0"],
        ["compute", "path(3)", "--jobs", "-2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        doc = json.loads(err)
        assert doc["error"] == "SettingError" and "--jobs" in doc["message"]


def test_nmax_below_one_is_an_input_error(capsys):
    for nmax in ("-1", "0"):
        code, out, err = run_cli(capsys, "verify", "--suite", "exhaustive", "--nmax", nmax)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "SettingError" and "--nmax" in doc["message"]


def test_malformed_flags_are_input_errors(capsys):
    for argv, named in (
        (["compute", "path(3)", "--budget", "abc"], "--budget"),
        (["verify", "--nmax", "x"], "--nmax"),
        (["trace", "path(3)"], "--seed"),
        (["enumerate", "path(3)", "--min-zfs"], "--min-zfs"),
        ([], "verb"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        doc = json.loads(err)
        assert doc["error"] == "SettingError" and named in doc["message"], argv


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["compute", "--help"])
    assert info.value.code == 0
    assert "--budget" in capsys.readouterr().out
