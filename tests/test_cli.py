"""Command-line interface: subcommands, exit codes, JSON output."""

import json
import os
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


def test_fuel_env_override(plus_file, capsys, monkeypatch):
    monkeypatch.setenv("DUALITY_VM_FUEL", "3")
    assert main(["run", plus_file]) == 2  # out of fuel
    err = capsys.readouterr().err
    assert "fuel" in err.lower() or "out of" in err.lower()


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


def test_huge_numeral_literal_exits_three_without_traceback(tmp_path):
    text = (Path(__file__).resolve().parents[1] / "programs" / "plus23.ct").read_text()
    assert "<plus | 2 . 3 . a0>" in text
    proc = _entry(tmp_path, "plus20000.ct", text.replace("<plus | 2 . 3", "<plus | 20000 . 3"), "run")
    assert proc.returncode == 3
    assert proc.stderr == "error: input nested too deeply\n"
    assert "Traceback" not in proc.stdout + proc.stderr
