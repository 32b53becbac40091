"""CLI output of `expand`, `dualize`, `run --trace` and `bench`, pinned byte
for byte.

For every program under ``programs/`` (and, for `expand`, the prelude),
the CLI's stdout, stderr and exit code are compared with the files under
``tests/golden/<command>``: `expand` and `run --trace` in both strategies,
`dualize` once, since duality is syntactic.  `bench --sizes 1..12 --csv`
is pinned for every registered experiment in both strategies.  Refactors
of the typechecker, the staging compiler, the encodings, the printer and
the duality must leave them unchanged.  To record them again after an intended change of the output,
run ``PYTHONPATH=src python tests/test_golden_expand.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from duality_vm.bench import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PROGRAMS = sorted((ROOT / "programs").glob("*.ct"))
SOURCES = [ROOT / "src" / "duality_vm" / "prelude.ct", *PROGRAMS]
STRATEGIES = ("cbv", "cbn")

# golden directory -> (CLI arguments before the source, [(source, strategy or None)]);
# a source is a program file, or for `bench` the name of an experiment.
COMMANDS = {
    "expand": (["expand"], [(src, s) for src in SOURCES for s in STRATEGIES]),
    "dualize": (["dualize"], [(src, None) for src in PROGRAMS]),
    "trace": (["run", "--trace"], [(src, s) for src in PROGRAMS for s in STRATEGIES]),
    "bench": (["bench", "--sizes", "1..12", "--csv"], [(exp, s) for exp in EXPERIMENTS for s in STRATEGIES]),
}


def _cli(command: str, src: Path | str, strategy: str | None) -> dict[str, bytes]:
    """Run the CLI exactly as the console script does (cli.entry)."""

    args = COMMANDS[command][0] + (["--strategy", strategy] if strategy else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    where, name = (src.parent, src.name) if isinstance(src, Path) else (ROOT, src)
    proc = subprocess.run(
        [sys.executable, "-m", "duality_vm.cli", *args, name],
        cwd=where, env=env, capture_output=True, timeout=300,
    )
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit": f"{proc.returncode}\n".encode()}


def _stem(src: Path | str) -> str:
    return src.stem if isinstance(src, Path) else src


def _golden(command: str, src: Path | str, strategy: str | None, stream: str) -> Path:
    stem = f"{_stem(src)}.{strategy}" if strategy else _stem(src)
    return GOLDEN / command / f"{stem}.{stream}"


def _check(command: str, src: Path, strategy: str | None) -> None:
    for stream, data in _cli(command, src, strategy).items():
        assert data == _golden(command, src, strategy, stream).read_bytes(), f"{stream} of {command} differs"


def _cases(command: str):
    cases = COMMANDS[command][1]
    return pytest.mark.parametrize(
        "src,strategy", cases, ids=["-".join(filter(None, [_stem(src), s])) for src, s in cases]
    )


@_cases("expand")
def test_expand_matches_golden(src, strategy):
    _check("expand", src, strategy)


@_cases("dualize")
def test_dualize_matches_golden(src, strategy):
    _check("dualize", src, strategy)


@_cases("trace")
def test_run_trace_matches_golden(src, strategy):
    _check("trace", src, strategy)


@_cases("bench")
def test_bench_matches_golden(src, strategy):
    _check("bench", src, strategy)


if __name__ == "__main__":
    for command, (_, cases) in COMMANDS.items():
        (GOLDEN / command).mkdir(parents=True, exist_ok=True)
        for src, strategy in cases:
            for stream, data in _cli(command, src, strategy).items():
                _golden(command, src, strategy, stream).write_bytes(data)
