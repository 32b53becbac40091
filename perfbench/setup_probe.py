"""Print the seconds a fresh process takes to import duality_vm and compile
the prelude under both strategies.  Usage: setup_probe.py SRC_DIR"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from duality_vm.kernel import CBN, CBV  # noqa: E402
from duality_vm.surface import Compiler, prelude  # noqa: E402

for strategy in (CBV, CBN):
    Compiler(prelude(), strategy).check_program()
print(repr(time.perf_counter() - t0))
