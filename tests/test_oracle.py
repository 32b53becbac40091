"""The reference oracle stays independent of what it checks.

``oracle.py`` is a differential oracle for the translation only while it
shares no evaluation code with the package: not the machine, the front end,
the typechecker or duality, and not the kernel's substitution, traversal,
equivalence, grammar check or printer.  It may import syntax by name from
``duality_vm.kernel`` and ``duality_vm.parser``, and nothing else from the
package.
"""

import ast
from pathlib import Path

import pytest

ORACLE = Path(__file__).with_name("oracle.py")

SYNTAX_MODULES = {"duality_vm.kernel", "duality_vm.parser"}
FORBIDDEN_NAMES = {"subst", "subst_var", "subst_covar", "rebuild", "alpha_eq", "well_formed", "pretty"}


def borrowed(source: str) -> list[str]:
    """Every import of the source that reaches past the package's syntax."""

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "duality_vm"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "duality_vm":
            if node.module not in SYNTAX_MODULES:
                found.append(node.module)
            found += [f"{node.module}.{a.name}" for a in node.names if a.name in FORBIDDEN_NAMES]
    return found


def test_the_oracle_borrows_no_evaluation_code():
    assert borrowed(ORACLE.read_text()) == []


@pytest.mark.parametrize("extra", [
    "from duality_vm.machine import run",
    "import duality_vm.surface",
    "from duality_vm import typechecker",
    "from duality_vm.duality import dual_command",
    "from duality_vm.kernel import subst",
    "from duality_vm.parser import pretty",
])
def test_an_added_evaluation_import_is_caught(extra):
    assert borrowed(ORACLE.read_text() + "\n" + extra + "\n")
