import pytest

from duality_vm.kernel import CBN, CBV
from duality_vm.surface import Compiler, prelude


@pytest.fixture(scope="session")
def compilers():
    """One compiled prelude per strategy."""

    comps = {s: Compiler(prelude(), s) for s in (CBV, CBN)}
    for comp in comps.values():
        comp.check_program()
    return comps
