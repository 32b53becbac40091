"""Command-line interface: subcommands, exit codes, JSON output."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import duality_vm
from duality_vm.cli import main

PLUS23 = """
def plus : Nat -> Nat -> Nat =
  fun x : Nat => fun y : Nat => rec x as { Z -> y | S _ -> z. S z };
main = <plus | 2 . 3 . a0>;
"""

ILLTYPED = """
def id : Nat -> Nat = fun x : Nat => x;
main = <id | a0>;
"""

PROGRAMS = Path(__file__).resolve().parents[1] / "programs"

NUMMAIN = "main = <numS (numS (numZ x)) | rec : Nat { Z p -> p | S y -> z. z } with a0>;"


@pytest.fixture
def plus_file(tmp_path):
    p = tmp_path / "plus23.ct"
    p.write_text(PLUS23)
    return str(p)


def test_run_prints_value_and_stats(plus_file, capsys):
    assert main(["run", "--strategy", "cbv", plus_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "5"
    assert out[1].startswith("final: <5 | a0>")
    assert "BetaSucc=2" in out[2] and "BetaZero=1" in out[2] and "BetaArrow=2" in out[2]


def test_run_json_mode(plus_file, capsys):
    assert main(["run", "--json", plus_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[0])
    stats = json.loads(lines[1])
    assert result["value"] == 5
    assert set(stats) == {"outcome", "total", "perRule"}
    assert stats["outcome"] == "Final"
    assert stats["total"] == 10


def test_run_trace_emits_json_lines(plus_file, capsys):
    assert main(["run", "--trace", plus_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(l) for l in lines if l.startswith("{")]
    assert len(records) == 10
    assert set(records[0]) == {"i", "rule", "cmd"}
    assert records[-1]["cmd"] == "<5 | a0>"


def test_check_reports_types(plus_file, capsys):
    assert main(["check", plus_file]) == 0
    out = capsys.readouterr().out
    assert "plus : Nat -> Nat -> Nat" in out


def test_check_illtyped_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.ct"
    p.write_text(ILLTYPED)
    assert main(["check", str(p)]) == 1
    assert "disagree" in capsys.readouterr().err


def test_parse_error_exits_three(tmp_path, capsys):
    p = tmp_path / "syn.ct"
    p.write_text("def x : Nat = ;")
    assert main(["check", str(p)]) == 3


def test_observe_prelude_zeroes(capsys):
    assert main(["observe", "--depth", "2", "zeroes"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_observe_nats_cbn(capsys):
    assert main(["observe", "--depth", "4", "--strategy", "cbn", "nats"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_observe_non_stream_is_type_error(capsys):
    assert main(["observe", "--depth", "1", "plus"]) == 1


def test_observe_unknown_name(capsys):
    assert main(["observe", "nope"]) == 3


def test_expand_round_trips(plus_file, capsys, tmp_path):
    assert main(["expand", plus_file]) == 0
    expanded = capsys.readouterr().out
    assert "mu a : Nat." in expanded
    p2 = tmp_path / "expanded.ct"
    p2.write_text(expanded)
    # The expanded program re-parses, re-checks, and runs to the same value.
    assert main(["check", str(p2)]) == 0
    capsys.readouterr()
    assert main(["run", str(p2)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "5"


def test_dualize_round_trip(tmp_path, capsys):
    p = tmp_path / "num.ct"
    p.write_text(NUMMAIN)
    assert main(["dualize", str(p)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("main = <corec")
    p2 = tmp_path / "dual.ct"
    p2.write_text(out)
    assert main(["dualize", str(p2)]) == 0
    out2 = capsys.readouterr().out
    assert "numS (numS (numZ" in out2


def test_dualize_rejects_function_programs(plus_file, capsys):
    assert main(["dualize", plus_file]) == 3


def test_bench_table(capsys):
    assert main(["bench", "pred-native", "--strategy", "cbn", "--sizes", "1..6"]) == 0
    out = capsys.readouterr().out
    assert "Constant" in out


def test_bench_json(capsys):
    assert main(["bench", "pred-native", "--strategy", "cbv", "--sizes", "1..6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["class"] == "Linear"


def test_fuel_option(plus_file, capsys):
    assert main(["run", "--fuel", "3", plus_file]) == 2  # out of fuel
    err = capsys.readouterr().err
    assert "fuel" in err.lower() or "out of" in err.lower()
    # The parser is built once per process, and --fuel read per call.
    assert main(["run", "--fuel", "10", plus_file]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "5"


def test_run_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("main = 4;"))
    assert main(["run", "-"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "4"


def test_json_error_wrapping(tmp_path, capsys):
    p = tmp_path / "bad.ct"
    p.write_text(ILLTYPED)
    assert main(["check", "--json", str(p)]) == 1
    obj = json.loads(capsys.readouterr().out)
    assert "error" in obj


def test_json_output_stable_across_runs(plus_file, capsys):
    # Deterministic machine plus deterministic freshening: byte-identical output.
    outs = []
    for _ in range(2):
        assert main(["run", "--json", "--trace", plus_file]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert main(["bench", "pred-native", "--sizes", "1..6", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["bench", "pred-native", "--sizes", "1..6", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_observe_from_program_file(tmp_path, capsys):
    p = tmp_path / "mystream.ct"
    p.write_text(
        "def ones : Stream Nat = mu a. <"
        "corec : Nat { head h -> h | tail _ -> g. g } with 1 | a>;"
    )
    assert main(["observe", "--depth", "3", "ones", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("strategy", ["cbv", "cbn"])
def test_branch_binding_one_name_twice_means_the_later_binder(strategy, capsys):
    shadow = str(Path(__file__).resolve().parents[1] / "programs" / "shadow.ct")
    assert main(["run", "--strategy", strategy, shadow]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["5", "final: <5 | a0>"]
    assert main(["observe", "--depth", "2", "--strategy", strategy, "s", shadow]) == 0
    assert capsys.readouterr().out == "3\n"


PLUS_200_3 = PLUS23.replace("2 . 3 . a0", "200 . 3 . a0")


def test_run_json_counts_the_forcing_phase(tmp_path, capsys):
    from duality_vm.kernel import CBN
    from duality_vm.machine import run_to_numeral
    from duality_vm.parser import parse
    from duality_vm.surface import Compiler

    p = tmp_path / "plus200.ct"
    p.write_text(PLUS_200_3)
    assert main(["run", "--strategy", "cbn", "--json", str(p)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[0])["value"] == 203
    _, cmd = Compiler(parse(PLUS_200_3), CBN).main()
    value, stats = run_to_numeral(cmd, CBN)
    assert value == 203
    assert json.loads(lines[1])["total"] == stats.total > 5


def test_run_forcing_shares_the_fuel_budget(tmp_path, capsys):
    p = tmp_path / "plus200.ct"
    p.write_text(PLUS_200_3)
    # The run itself takes 5 steps and forcing 599 more: 600 is not enough.
    assert main(["run", "--strategy", "cbn", "--fuel", "600", str(p)]) == 2
    assert "fuel" in capsys.readouterr().err
    assert main(["run", "--strategy", "cbn", "--fuel", "604", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "203"


def test_run_json_prints_the_stats_of_a_failed_forcing(tmp_path, capsys):
    from duality_vm.kernel import CBN
    from duality_vm.machine import OutOfFuelError, run_to_numeral
    from duality_vm.parser import parse
    from duality_vm.surface import Compiler

    p = tmp_path / "plus200.ct"
    p.write_text(PLUS_200_3)
    assert main(["run", "--json", "--strategy", "cbn", "--fuel", "600", str(p)]) == 2
    stats, error = map(json.loads, capsys.readouterr().out.splitlines())
    assert error == {"error": "forcing ran out of fuel after 199 successors"}
    _, cmd = Compiler(parse(PLUS_200_3), CBN).main()
    with pytest.raises(OutOfFuelError) as ex:
        run_to_numeral(cmd, CBN, 600)
    # The run's steps and the completed forcing restarts, as the library counts them.
    assert stats == ex.value.stats.to_json()
    assert stats["outcome"] == "OutOfFuel" and stats["total"] > 5


@pytest.mark.parametrize("strategy", ["cbv", "cbn"])
@pytest.mark.parametrize("experiment", ["count-now", "scons-overhead", "corec-via-coiter"])
def test_bench_out_of_fuel_exits_two_with_one_line(experiment, strategy, capsys):
    assert main(["bench", experiment, "--strategy", strategy, "--fuel", "10", "--sizes", "1..5"]) == 2
    assert capsys.readouterr() == ("", "error: benchmark run ran out of fuel\n")
    assert main(["bench", experiment, "--strategy", strategy, "--fuel", "10", "--sizes", "1..5", "--json"]) == 2
    stats, error = map(json.loads, capsys.readouterr().out.splitlines())
    assert stats["outcome"] == "OutOfFuel" and stats["total"] == 10
    assert error == {"error": "benchmark run ran out of fuel"}


def _edge_commands() -> list[list[str]]:
    from duality_vm.bench import EXPERIMENTS

    plus23, illtyped = str(PROGRAMS / "plus23.ct"), str(PROGRAMS / "illtyped.ct")
    return [
        ["check", plus23],
        ["check", illtyped],
        ["run", plus23],
        ["run", "--trace", plus23],
        ["run", illtyped],
        ["observe", "--depth", "3", "nats"],
        ["expand", plus23],
        ["dualize", str(PROGRAMS / "numstream.ct")],
        *(["bench", name, "--sizes", "1..5"] for name in sorted(EXPERIMENTS)),
        *_USAGE_ERRORS,
    ]


_USAGE_ERRORS = [["run", "--bogus", "x"], ["frob"], [], ["run", "--fuel", "abc", "x"]]

# The edge test's shared flags that each command takes.
_FLAGS = {"check": ["--strategy"], "run": ["--strategy", "--fuel"], "observe": ["--strategy", "--fuel"],
          "expand": ["--strategy"], "dualize": [], "bench": ["--strategy", "--fuel"]}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("strategy", ["cbv", "cbn"])
@pytest.mark.parametrize("fuel", ["0", "1", "10"])
@pytest.mark.parametrize("argv", _edge_commands(), ids=lambda argv: " ".join(argv) or "no arguments")
def test_cli_failure_edges_end_in_an_exit_code_and_one_line(argv, fuel, strategy, as_json, capsys):
    given = {"--strategy": strategy, "--fuel": fuel}
    flags = [x for flag in _FLAGS.get(argv[0] if argv else "", []) for x in (flag, given[flag])]
    code = main([*argv, *flags, *(["--json"] if as_json else [])])
    out, err = capsys.readouterr()
    assert code in ((3,) if argv in _USAGE_ERRORS else (0, 1, 2, 3))
    assert len(err.splitlines()) <= 1


def _entry(tmp_path, name: str, text: str, command: str):
    """Run ``cli.entry`` on a program file in a child process, so the CLI's
    own recursion limit holds rather than the test suite's."""

    p = tmp_path / name
    p.write_text(text)
    src = str(Path(duality_vm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "from duality_vm.cli import entry; entry()"
    return subprocess.run(
        [sys.executable, "-c", code, command, str(p)], capture_output=True, text=True, env=env, timeout=600
    )


def test_the_machine_is_imported_on_first_use():
    src = str(Path(duality_vm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, duality_vm.surface\n"
            "assert 'duality_vm.machine' not in sys.modules\n"
            "from duality_vm import run, step\n"
            "import duality_vm.machine as m\n"
            "assert run is m.run and step is m.step and duality_vm.DEFAULT_FUEL == m.DEFAULT_FUEL\n"
            "assert set(duality_vm._MACHINE) <= set(duality_vm.__all__)\n"
            "assert not hasattr(duality_vm, 'no_such_name')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_deeply_nested_successors_exit_three_without_traceback(tmp_path):
    n = 4998
    proc = _entry(tmp_path, "deep.ct", "main = <" + "S (" * n + "Z" + ")" * n + " | a0>;", "check")
    assert proc.returncode == 3
    assert proc.stderr == "error: input nested too deeply\n"
    assert "Traceback" not in proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "text",
    [
        "main = <" + "S " * 19900 + "Z | a0>;",
        "main = <" + "S (" * 4990 + "Z" + ")" * 4990 + " | a0>;",
        "main = " + "<mu a. " * 9900 + "<Z | a>" + " | a>" * 9899 + " | a0>;",
    ],
    ids=["successor chain", "nested successors", "mu chain"],
)
def test_deep_input_within_the_recursion_limit_checks(tmp_path, text):
    proc = _entry(tmp_path, "deep.ct", text, "check")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("main : command")


def test_nested_recursor_returns_check(tmp_path):
    # Each return continuation is typed once; typing it twice made this
    # 753-byte file take seconds.
    text = "main = <Z | " + "rec { Z -> mu q. <Z | q> | S x -> y. y } with " * 16 + "a0>;"
    proc = _entry(tmp_path, "returns.ct", text, "check")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "main : command (cut is consistent)\n", "")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_unreadable_program_file_exits_three_with_one_line(as_json, tmp_path, capsys):
    # A directory cannot be read as a program file; every command reads its
    # file through the same function.
    assert main(["check", str(tmp_path), *(["--json"] if as_json else [])]) == 3
    out, err = capsys.readouterr()
    if as_json:
        (line,) = out.splitlines()
        message = json.loads(line)["error"]
        assert err == ""
    else:
        assert out == "" and err.startswith("error: ") and err.endswith("\n")
        message = err[len("error: "):-1]
    assert str(tmp_path) in message and "\n" not in message


def test_huge_numeral_literal_runs(tmp_path):
    # A numeral literal is elaborated in a loop, so its size is not bounded
    # by the recursion limit.
    text = (Path(__file__).resolve().parents[1] / "programs" / "plus23.ct").read_text()
    assert "<plus | 2 . 3 . a0>" in text
    proc = _entry(tmp_path, "plus20000.ct", text.replace("<plus | 2 . 3", "<plus | 20000 . 3"), "run")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[:2] == ["20003", "final: <20003 | a0>"]
    assert proc.stderr == ""


def test_a_numeral_literal_past_the_bound_exits_three_at_its_place(tmp_path, capsys):
    p = tmp_path / "big.ct"
    for literal in ("2000000", "1" * 5000):
        p.write_text(f"main = <{literal} | a0>;")
        assert main(["check", str(p)]) == 3
        assert capsys.readouterr().err == "error: parse error at 1:9: numeral literal larger than 100000\n"


@pytest.mark.parametrize("sizes", ["1..200000", "1,2,100001", "1.." + "9" * 5000])
def test_bench_sizes_past_the_literal_bound_exit_three(sizes, capsys):
    assert main(["bench", "count-now", "--sizes", sizes]) == 3
    assert capsys.readouterr() == ("", "error: numeral literal larger than 100000\n")


def test_bench_classifies_only_evenly_spaced_sizes(capsys):
    argv = ["bench", "pred-native", "--sizes", "1,2,4,8,16"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "error: classification needs evenly spaced sizes\n")
    assert main([*argv, "--csv"]) == 0  # CSV reports the points without a class
    assert capsys.readouterr().out.splitlines()[0] == "n,total,rule:BetaArrow,rule:BetaSucc,rule:BetaZero,rule:Mu,rule:MuTilde"


def test_bench_sizes_help_example_runs(capsys):
    assert main(["bench", "--help"]) == 0
    examples = re.search(r"e\.g\. (\S+) or (\S+)", " ".join(capsys.readouterr().out.split())).groups()
    assert examples == ("1..50", "2,4,6,8,10")
    for example in examples:
        assert main(["bench", "pred-native", "--sizes", example]) == 0
        assert capsys.readouterr().out.startswith("experiment pred-native [cbv] -> Linear")


@pytest.mark.parametrize("argv", [["run", "--trace", str(PROGRAMS / "plus23.ct")], ["observe", "--depth", "3", "nats"]])
def test_closed_output_pipe_ends_without_a_traceback(argv):
    # As `duality-vm run --trace f | head -1` does: the reader is gone
    # before the command writes.
    src = str(Path(duality_vm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r, w = os.pipe()
    os.close(r)
    try:
        out = subprocess.run([sys.executable, "-c", "from duality_vm.cli import entry; entry()", *argv],
                             stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(w)
    assert out.returncode == 0
    assert out.stderr == "duality-vm: output closed early, stopped\n"
