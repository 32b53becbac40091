"""`duality-vm expand` output, pinned byte for byte.

For the prelude and every program under ``programs/``, in both strategies,
the CLI's stdout, stderr and exit code are compared with the files under
``tests/golden/expand``.  Refactors of the typechecker and the staging
compiler must leave them unchanged.  To record them again after an
intended change of the compiled code, run
``PYTHONPATH=src python tests/test_golden_expand.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "expand"
SOURCES = [ROOT / "src" / "duality_vm" / "prelude.ct", *sorted((ROOT / "programs").glob("*.ct"))]
CASES = [(src, s) for src in SOURCES for s in ("cbv", "cbn")]


def _expand(src: Path, strategy: str) -> dict[str, bytes]:
    """Run the CLI exactly as the console script does (cli.entry)."""

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("DUALITY_VM_FUEL", None)
    proc = subprocess.run(
        [sys.executable, "-m", "duality_vm.cli", "expand", "--strategy", strategy, src.name],
        cwd=src.parent, env=env, capture_output=True, timeout=300,
    )
    return {"stdout": proc.stdout, "stderr": proc.stderr, "exit": f"{proc.returncode}\n".encode()}


def _golden(src: Path, strategy: str, stream: str) -> Path:
    return GOLDEN / f"{src.stem}.{strategy}.{stream}"


@pytest.mark.parametrize("src,strategy", CASES, ids=[f"{src.stem}-{s}" for src, s in CASES])
def test_expand_matches_golden(src, strategy):
    got = _expand(src, strategy)
    for stream, data in got.items():
        assert data == _golden(src, strategy, stream).read_bytes(), f"{stream} of expand differs"


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for src, strategy in CASES:
        for stream, data in _expand(src, strategy).items():
            _golden(src, strategy, stream).write_bytes(data)
