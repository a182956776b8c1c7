import inspect
import io
import json
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import zeroforcing.cli as cli
import zeroforcing.dsl as dsl
import zeroforcing.solver as solver
import zeroforcing.verify as verify
from zeroforcing.cli import main
from zeroforcing.dsl import ParseError, parse_graph_dsl
from zeroforcing.graphs import vertices_of
from zeroforcing.verify import ClaimResult


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


STAR6_TABLE = """n = 6
m = 5
z = 4
z_c = 5
pt = 2
PT = 2
pt_c = 1
PT_c = 1
min ZFS count = 5
min CZFS count = 5
"""

# the budget runs out on the 5 pt charges that follow the Z phase's 56 closures
STAR6_TABLE_EXHAUSTED = """n = 6
m = 5
z = 4
z_c = unknown
pt = unknown
PT = unknown
pt_c = unknown
PT_c = unknown
min ZFS count = 5
min CZFS count = unknown
budget exhausted after 58 closures
z_c >= 4
"""


def test_compute_table(capsys):
    """A finished run lists its values; an exhausted budget shows what it
    knows: the unknown values, the closures spent and the lower bound that
    the JSON report carries."""
    for budget, want_code, want in ((10**8, 0, STAR6_TABLE), (58, 3, STAR6_TABLE_EXHAUSTED)):
        argv = "compute", "star(6)", "--budget", str(budget), "--format", "table"
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (want_code, want)


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


@pytest.mark.parametrize(
    "flags, key", [((), "z_lower_bound"), (("--connected",), "z_c_lower_bound")]
)
def test_enumerate_exceeded_budget_reports_the_level_reached(capsys, tmp_path, flags, key):
    """An exhausted enumeration reports the meter's bound, as compute does,
    and opens no --out file."""
    target = tmp_path / "sets.txt"
    argv = ["enumerate", "strong(cycle(6),cycle(6))", *flags, "--budget", "10"]
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 3 and out == "" and not target.exists()
    doc = json.loads(err)
    assert doc.pop("message")
    assert doc == {"error": "BudgetExceeded", "closures": 10, key: 8}


@pytest.mark.parametrize("term", ["path(5)", "cycle(6)", "star(6)", "corona(cycle(4),path(2))"])
def test_enumerate_streams_one_line_per_set(capsys, tmp_path, term):
    """The streamed output is every set's line, in order, on stdout and
    through --out."""
    g = cli.parse_graph_dsl(term)
    kinds = (((), solver.enumerate_min_zfs), (("--connected",), solver.enumerate_min_czfs))
    for flags, sets in kinds:
        lines = [",".join(map(str, vertices_of(m))) for m in sets(g)]
        expected = "\n".join(lines) + "\n"
        code, out, _ = run_cli(capsys, "enumerate", term, *flags)
        assert code == 0 and out == expected
        target = tmp_path / "sets.txt"
        assert main(["enumerate", term, *flags, "--out", str(target)]) == 0
        assert target.read_text() == expected


def test_enumerate_writes_each_set_before_it_takes_the_next(capsys, monkeypatch):
    writes, asked = [], []

    class Out(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    def recorded(g, budget):
        for m in solver.enumerate_min_zfs(g, budget=budget):
            asked.append(len(writes))
            yield m

    monkeypatch.setattr(cli, "enumerate_min_zfs", recorded)
    monkeypatch.setattr(sys, "stdout", Out())
    assert main(["enumerate", "strong(cycle(4),path(2))"]) == 0
    assert len(asked) > 1 and asked == list(range(len(asked)))
    assert len(writes) == len(asked)


def test_enumerate_runs_one_value_query(capsys, monkeypatch):
    calls = []
    min_level = solver._min_level

    def counted(g, meter, start, connected, stream=None):
        calls.append(connected)
        return min_level(g, meter, start, connected, stream)

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
    assert out.splitlines() == [
        "claim,instances,holds,violated,budget_exceeded",
        "multipartite/general,45,45,0,0",
        "multipartite/star-or-complete-as-stated,13,1,12,0",
        "named/complete,7,7,0,0",
        "named/cycle,8,8,0,0",
        "named/path,8,8,0,0",
        "named/star,6,6,0,0",
        "named/supertriangle,3,3,0,0",
        "named/wheel,6,6,0,0",
    ]


def test_suite_choices_are_the_suite_table_and_all():
    verify_parser = cli.build_parser()._subparsers._group_actions[0].choices["verify"]
    (suite,) = [a for a in verify_parser._actions if a.dest == "suite"]
    assert suite.choices == (*verify.SUITES, "all")


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


def test_empty_seed_ids_are_input_errors(capsys):
    """Every comma-separated token of --seed is a vertex id: an empty one
    is an input error, not skipped."""
    for seed in ("0,,2", "0,", ",", ""):
        code, out, err = run_cli(capsys, "trace", "path(4)", "--seed", seed)
        assert code == 2 and out == "", seed
        assert json.loads(err) == {
            "error": "GraphError",
            "message": "--seed must be a comma-separated list of vertex ids",
        }
    code, out, _ = run_cli(capsys, "trace", "path(4)", "--seed", "0,2")
    assert code == 0 and json.loads(out)["initial"] == [0, 2]


def test_input_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "compute", "frob(3)")
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"
    code, _, err = run_cli(capsys, "compute")
    assert code == 2
    code, _, err = run_cli(capsys, "trace", "path(4)", "--seed", "9")
    assert code == 2
    code, _, err = run_cli(capsys, "compute", "--file", "/nonexistent/file")
    assert code == 2
    # integers that are not ASCII digits, or too long for int()
    nines = "9" * 5000
    for term in ("path(²)", f"path({nines})", f"pc(1)[chords:1@{nines}]"):
        code, _, err = run_cli(capsys, "compute", term)
        assert code == 2 and json.loads(err)["error"] == "ParseError", term
    for name, data in [
        ("super.txt", "n ²\n".encode()),
        ("long.txt", f"n {nines}\n".encode()),
        ("binary.txt", b"\xff\xfe\x00"),
    ]:
        (tmp_path / name).write_bytes(data)
        code, _, err = run_cli(capsys, "compute", "--file", str(tmp_path / name))
        assert code == 2 and json.loads(err)["error"] == "GraphError", name


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


# a sample term for each form that `zf families` lists, in its order
_FORM_SAMPLES = {
    "path(n)": "path(3)",
    "cycle(n)": "cycle(4)",
    "complete(n)": "complete(3)",
    "star(n)": "star(4)",
    "wheel(n)": "wheel(4)",
    "supertriangle(n)": "supertriangle(3)",
    "multipartite(s1,s2,...)": "multipartite(1,2,3)",
    "cartesian(A,B)": "cartesian(path(2),cycle(3))",
    "strong(A,B)": "strong(path(2),cycle(3))",
    "corona(A,B)": "corona(cycle(3),path(2))",
    "gencorona(A;B1,B2,...)": "gencorona(path(2);path(1),path(2))",
    "pc(n1,...,nk)": "pc(1,0,2)",
    "pc(...)[chords:c@j,...]": "pc(2,1)[chords:1@1,2@1]",
    "vsum(A,v,B,w)": "vsum(path(2),1,cycle(3),0)",
}


def test_families_listing_matches_the_parser(capsys):
    """Every listed form parses, and every family the parser accepts is listed."""
    code, out, _ = run_cli(capsys, "families", "--format", "json")
    forms = [row["form"] for row in json.loads(out)]
    assert code == 0 and forms == list(_FORM_SAMPLES)
    for sample in _FORM_SAMPLES.values():
        assert parse_graph_dsl(sample).n > 0
    listed = {form.split("(")[0] for form in forms}
    # a family name the parser accepts appears as a word in its source
    words = set(re.findall(r"[a-z]+", inspect.getsource(dsl).lower()))
    accepted = set()
    for word in words | listed:
        try:
            parse_graph_dsl(word + "(")
        except ParseError as exc:
            if not str(exc).startswith("unknown family"):
                accepted.add(word)
    assert accepted == listed


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "zeroforcing", "compute", "path(4)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["z"] == 1


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "strong(cycle(6),path(4))"], ["verify", "--suite", "exhaustive", "--nmax", "6"]],
    ids=" ".join,
)
def test_closed_stdout_is_not_an_error(argv):
    """A reader that closes stdout after one line, as ``| head -n 1`` does,
    leaves the verb's own exit code and nothing on stderr."""
    with subprocess.Popen(
        [sys.executable, "-m", "zeroforcing", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")


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


def test_nmax_outside_one_to_seven_is_an_input_error(capsys):
    for nmax in ("-1", "0", "8", "100"):
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


def test_back_to_back_calls_share_no_state(capsys):
    """main reuses one parser; a flag given to one call does not leak into
    the next."""
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli._parser()
    code, out, _ = run_cli(capsys, "compute", "supertriangle(4)", "--budget", "5")
    assert code == 3 and json.loads(out)["budget"]["closures"] == 5
    code, out, _ = run_cli(capsys, "compute", "supertriangle(4)")
    assert code == 0
    full = solver.solve_report(cli.parse_graph_dsl("supertriangle(4)"))
    assert json.loads(out)["budget"] == {"closures": full.closures, "exceeded": False}
    argv = ("verify", "--suite", "exhaustive", "--nmax", "2")
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and out.startswith("claim,")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)[0]["instance"] == "all-labeled(n=1)"


def test_non_ascii_integers_are_input_errors(capsys, tmp_path, monkeypatch):
    """Every integer reader takes ASCII digits only: int() alone would read
    Arabic-Indic digits as 0..9."""
    edges = tmp_path / "g.edges"
    edges.write_text("0 \u0661\n", "utf-8")
    code, out, err = run_cli(capsys, "compute", "--file", str(edges))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "GraphError"
    code, out, err = run_cli(capsys, "trace", "path(3)", "--seed", "\u0660")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "GraphError"
    for argv, named in (
        (["compute", "path(3)", "--budget", "\u0663\u0660\u0660"], "--budget"),
        (["enumerate", "path(3)", "--budget", "\u0663"], "--budget"),
        (["compute", "path(3)", "--jobs", "\u0661"], "--jobs"),
        (["verify", "--suite", "exhaustive", "--nmax", "\u0663"], "--nmax"),
        (["compute", "path(3)", "--budget", "1_000"], "--budget"),
        (["compute", "path(3)", "--budget", "+5"], "--budget"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        doc = json.loads(err)
        assert doc["error"] == "SettingError" and named in doc["message"], argv
    monkeypatch.setenv("ZF_BUDGET", "\u0663\u0660\u0660")
    code, out, err = run_cli(capsys, "compute", "path(3)")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "SettingError" and "ZF_BUDGET" in doc["message"]


def test_negative_edge_list_id_keeps_its_error_kind(capsys, tmp_path):
    edges = tmp_path / "g.edges"
    edges.write_text("-1 2\n", "utf-8")
    code, _, err = run_cli(capsys, "compute", "--file", str(edges))
    assert code == 2 and json.loads(err)["error"] == "EndpointOutOfRange"


def test_exceeded_budget_reports_the_level_reached(capsys):
    """A tiny budget on strong(C6, C6) stops in the first run of level 8,
    the min-degree bound, and the report says so."""
    code, out, _ = run_cli(capsys, "compute", "strong(cycle(6),cycle(6))", "--budget", "10")
    assert code == 3
    doc = json.loads(out)
    g = cli.parse_graph_dsl("strong(cycle(6),cycle(6))")
    assert doc["budget"] == {
        "closures": 10,
        "exceeded": True,
        "z_lower_bound": solver._zfs_lower_bound(g),
    }
    assert doc["budget"]["z_lower_bound"] == 8


def readme_block(heading: str) -> str:
    """The first fenced block under README's ``heading``, language tag
    included."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    return text.split(heading, 1)[1].split("```", 2)[1]


def readme_commands():
    """The commands of the fenced block under README's ``## Command line``,
    each as an argv list without its comment."""
    block = readme_block("## Command line")
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_examples_run(capsys, monkeypatch, argv):
    monkeypatch.delenv("ZF_BUDGET", raising=False)
    assert argv[0] == "zf"
    code, out, err = run_cli(capsys, *argv[1:])
    assert code == 0, err
    assert out


def test_readme_library_example_runs():
    """The fenced block under README's ``## Library entry points`` runs, and
    each commented expression has the value that its comment starts with
    (up to a ``;``)."""
    namespace, source, checked = {}, [], []
    # the first line is the block's language tag
    for line in readme_block("## Library entry points").splitlines()[1:]:
        code, _, comment = line.partition("#")
        if not comment:
            source.append(line)
            continue
        exec("\n".join(source), namespace)
        source = []
        value, claimed = eval(code, namespace), comment.split(";")[0].strip()
        assert value == eval(claimed, {}), (code, value, claimed)
        checked.append(claimed)
    exec("\n".join(source), namespace)
    assert checked == ["7, 10", "(2, 0b11)", "3"]


@pytest.mark.parametrize("suite", ["named", "products", "exhaustive", "all"])
def test_streamed_verify_document_is_one_dump(capsys, tmp_path, suite):
    """Writing the rows one at a time gives the bytes of one json.dumps of
    the whole array, on stdout and through --out; the writer yields one
    chunk per row between the opening and the closing chunk.  At order 5
    the exhaustive suite has findings that share their class's fields, so
    the shared encoding is written too."""
    from zeroforcing.verify import run_suites

    flags = ["verify", "--suite", suite, "--nmax", "5"]
    rows = run_suites(suite=suite, nmax=5)
    expected = json.dumps([r.to_json_dict() for r in rows], indent=2) + "\n"
    chunks = list(cli._json_rows(rows))
    assert len(rows) > 1 and len(chunks) == len(rows) + 2
    shared = Counter(id(r.computed) for r in rows if r.verdict == "violated")
    assert (suite in ("exhaustive", "all")) == (max(shared.values(), default=0) > 1)
    assert "".join(chunks) == expected
    code, out, _ = run_cli(capsys, *flags)
    assert code == 0 and out == expected
    path = tmp_path / f"{suite}.json"
    assert main([*flags, "--out", str(path)]) == 0
    assert path.read_text() == expected


@pytest.mark.parametrize(("suite", "nmax", "groups"), [("exhaustive", 6, 31), ("all", 5, None)])
def test_writer_encodes_each_group_once(monkeypatch, suite, nmax, groups):
    """Rows that differ only in instance are one group, and the writer
    encodes each group's dict once, on its first row."""
    from zeroforcing.verify import run_suites

    rows = run_suites(suite=suite, nmax=nmax)
    keys = {
        (r.claim, r.relation, json.dumps(r.expected), id(r.computed), r.verdict, r.hard)
        for r in rows
    }
    assert groups in (None, len(keys)) and len(keys) < len(rows)
    encodings = []
    to_json_dict = ClaimResult.to_json_dict

    def counted(row):
        encodings.append(row)
        return to_json_dict(row)

    monkeypatch.setattr(ClaimResult, "to_json_dict", counted)
    text = "".join(cli._json_rows(rows))
    assert len(encodings) == len(keys)
    monkeypatch.undo()
    assert text == json.dumps([r.to_json_dict() for r in rows], indent=2) + "\n"


def test_json_rows_of_no_rows_is_an_empty_array():
    assert "".join(cli._json_rows([])) == cli._json_text([]) == "[]\n"


# what verify rows hold, and the escapes and key kinds json treats apart
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40)
    | st.text() | st.sampled_from(["", "\n", "\"", "\\", "\x00", "\u00e9", "\U0001f600", "\ud800"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@given(json_values)
def test_writer_matches_json_dumps_indent_2(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2)
    assert cli._json_text(obj) == json.dumps(obj, indent=2) + "\n"


# instances that need escapes, and the raw NUL that stands for a row's instance
row_texts = st.text(max_size=8) | st.sampled_from(["\"", "\\", "\u00e9", "\x00", "a\x00\"\\\u00e9"])
json_dicts = st.dictionaries(st.text(max_size=6) | st.just("\x00"), json_values, max_size=3)


# a base row's fields, and another value for each
ROW_FIELDS = {
    "claim": ("a", "b\x00"),
    "relation": ("=", "iff"),
    "verdict": ("violated", "holds"),
    "hard": (True, False),
}


@st.composite
def claim_rows(draw):
    """Rows that each take the base fields, or change one of them, so that
    many differ only in instance; ``computed`` and ``expected`` are shared
    objects or equal copies, and some values hold the raw NUL."""
    computed = draw(st.lists(json_dicts | st.just({"x": "\x00"}), min_size=1, max_size=3))
    expected = draw(st.lists(json_dicts, min_size=2, max_size=3, unique_by=json.dumps))
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        fields = {name: values[0] for name, values in ROW_FIELDS.items()}
        changed = draw(st.sampled_from([None, *ROW_FIELDS]))
        if changed:
            fields[changed] = ROW_FIELDS[changed][1]
        c, e = draw(st.sampled_from(computed)), draw(st.sampled_from(expected))
        rows.append(ClaimResult(
            instance=draw(row_texts),
            expected=dict(e) if draw(st.booleans()) else e,
            computed=dict(c) if draw(st.booleans()) else c,
            **fields,
        ))
    return rows


@given(claim_rows())
def test_json_rows_match_json_dumps_indent_2(rows):
    expected = json.dumps([r.to_json_dict() for r in rows], indent=2) + "\n"
    assert "".join(cli._json_rows(rows)) == expected


@pytest.mark.parametrize(
    "obj",
    [1.5, float("nan"), (1, [2]), {1: "a", True: [], None: {}}, {"k": (1.0, {"x": [()]})}],
    ids=repr,
)
def test_writer_hands_other_values_to_json(obj):
    """Documents with floats, tuples and non-string keys are written by
    json.dumps."""
    for value in (obj, [obj], {"outer": [obj, {"inner": obj}]}):
        assert cli._json_text(value) == json.dumps(value, indent=2) + "\n"
