"""Spans and counters at the layer boundaries of duality_vm.

The package is not edited.  Calls that the benchmark makes itself are
spanned here with ``Tracer.span``; calls the package makes internally are
spanned by rebinding the callee's name in the calling module (for example
``duality_vm.machine.is_value``, which ``machine.step`` looks up at each
call) for as long as ``Tracer.installed`` is active.

Two levels:

* level 0, the untraced run: only the phase entry points (run, force,
  observe, and the CLI's parse/compile/check), a handful of calls per
  program.  They give the front-end and execution times and collect the
  per-rule step counts of every machine run, forcing restarts included.
* level 1, the traced run: additionally every step, classification,
  substitution, printing and dualization call, and call counters.

Each span has a name, a start, an end and a parent.  A span's self time
is its duration minus that of its child spans.  Spans at the program and
layer-entry level are kept as records; the fine ones (millions per pass)
are folded into per-name totals as they close.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

from duality_vm.kernel import Node
from duality_vm.machine import RunStats

clock = time.perf_counter

FRONTEND = "frontend"
EXEC = "exec"

# (module, attribute, span name, phase): entry points inside the package.
PHASED = [
    ("duality_vm.machine", "run", "machine.run", EXEC),
    ("duality_vm.machine", "force_numeral", "machine.force", EXEC),
    ("duality_vm.machine", "observe_stream", "machine.observe", EXEC),
    ("duality_vm.cli", "parse", "parser.parse", FRONTEND),
    ("duality_vm.cli", "well_formed", "kernel.well_formed", FRONTEND),
    ("duality_vm.cli", "run", "machine.run", EXEC),
    ("duality_vm.cli", "force_numeral", "machine.force", EXEC),
    ("duality_vm.cli", "observe_stream", "machine.observe", EXEC),
]

# (module, attribute, span name): traced run only.
FINE = [
    ("duality_vm.machine", "step", "machine.step"),
    ("duality_vm.machine", "is_value", "kernel.is_value"),
    ("duality_vm.machine", "is_covalue", "kernel.is_covalue"),
    ("duality_vm.machine", "subst", "kernel.subst"),
    ("duality_vm.machine", "subst_var", "kernel.subst"),
    ("duality_vm.machine", "subst_covar", "kernel.subst"),
    ("duality_vm.machine", "pretty", "kernel.pretty"),
    ("duality_vm.cli", "pretty", "kernel.pretty"),
    ("duality_vm.surface", "is_value", "surface.is_value"),
    ("duality_vm.surface", "is_covalue", "surface.is_covalue"),
    ("duality_vm.cli", "dual_command", "duality.dual"),
]

# (module, attribute, counter name): traced run only, calls counted, not timed.
COUNTED = [
    ("duality_vm.machine", "fresh_name", "kernel.fresh_name"),
    ("duality_vm.kernel", "fresh_name", "kernel.fresh_name"),
]

# Spans too frequent to keep as records.
_FOLDED = {name for _, _, name in FINE}


class Tracer:
    """Open-span stack, per-name totals and per-program phase sums."""

    def __init__(self, level: int):
        self.level = level
        self.stack: list[list] = []  # [name, child_s, outer_phase, start, id]
        self.phase_depth = 0
        self.depth: dict[str, int] = {}
        self.next_id = 0
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.records: list[tuple] = []  # (id, parent_id, program, name, start, end)
        self.new_program(-1)

    def new_program(self, pid: int) -> None:
        self.pid = pid
        self.phase = {FRONTEND: 0.0, EXEC: 0.0}
        self.steps = RunStats()

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def _open(self, name: str, phase: str | None) -> list:
        outer = False
        if phase is not None:
            outer = self.phase_depth == 0
            self.phase_depth += 1
        self.depth[name] = self.depth.get(name, 0) + 1
        self.next_id += 1
        frame = [name, 0.0, outer, clock(), self.next_id]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, phase: str | None) -> None:
        end = clock()
        name, child, outer, start, sid = frame
        self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += dur
        if phase is not None:
            self.phase_depth -= 1
            if outer:
                self.phase[phase] += dur
        depth = self.depth[name] - 1
        self.depth[name] = depth
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        if depth == 0:  # recursive calls are inside the outermost one
            a[1] += dur
        a[2] += dur - child
        if name not in _FOLDED:
            self.records.append((sid, parent[4] if parent else None, self.pid, name, start, end))

    @contextmanager
    def span(self, name: str, phase: str | None = None):
        frame = self._open(name, phase)
        try:
            yield
        finally:
            self._close(frame, phase)

    def wrap(self, fn, name: str, phase: str | None = None):
        def spanned(*args, **kwargs):
            frame = self._open(name, phase)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, phase)

        return spanned

    def _wrap_run(self, fn):
        spanned = self.wrap(fn, "machine.run", EXEC)

        def run(*args, **kwargs):
            if self.stack and self.stack[-1][0] == "machine.force":
                self.count("machine.force_restarts")
            res = spanned(*args, **kwargs)
            self.steps.absorb(res.stats)
            return res

        return run

    def _wrap_count(self, fn, name: str):
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def _spanned_compiler(self, base):
        tracer = self

        class SpannedCompiler(base):
            main = tracer.wrap(base.main, "surface.compile", FRONTEND)
            lookup_def = tracer.wrap(base.lookup_def, "surface.compile", FRONTEND)

        return SpannedCompiler

    def bindings(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, replacement) for every boundary of this level."""

        out = []
        for mod, attr, name, phase in PHASED:
            owner = importlib.import_module(mod)
            fn = getattr(owner, attr)
            new = self._wrap_run(fn) if attr == "run" else self.wrap(fn, name, phase)
            out.append((owner, attr, new))
        cli = importlib.import_module("duality_vm.cli")
        out.append((cli, "Compiler", self._spanned_compiler(cli.Compiler)))
        if self.level >= 1:
            for mod, attr, name in FINE:
                owner = importlib.import_module(mod)
                out.append((owner, attr, self.wrap(getattr(owner, attr), name)))
            for mod, attr, name in COUNTED:
                owner = importlib.import_module(mod)
                out.append((owner, attr, self._wrap_count(getattr(owner, attr), name)))
            out.extend(self._typechecker_bindings())
        return out

    def _typechecker_bindings(self) -> list[tuple[object, str, object]]:
        """Every binding of a public typechecker function, in any module of
        the package, counted as one typechecker call."""

        tc = importlib.import_module("duality_vm.typechecker")
        public = [f for name, f in vars(tc).items()
                  if inspect.isfunction(f) and not name.startswith("_") and f.__module__ == tc.__name__]
        out = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("duality_vm"):
                continue
            for attr, value in list(vars(mod).items()):
                if any(value is f for f in public):
                    out.append((mod, attr, self._wrap_count(value, "typechecker.calls")))
        return out

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, new in self.bindings():
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# Node counts (iterative: numerals are deep)

_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}


def _child_fields(cls: type) -> tuple[str, ...]:
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        names = _CHILD_FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return names


def walk(root: Node, stop: type = ()):
    """Every node under root, root included; nodes of type stop are yielded
    but not entered."""

    todo = [root]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, stop):
            continue
        for name in _child_fields(type(node)):
            child = getattr(node, name)
            if isinstance(child, Node):
                todo.append(child)


def node_census(root: Node) -> tuple[int, int]:
    """(all AST nodes, mu and comu nodes) under root."""

    total = binders = 0
    for node in walk(root):
        total += 1
        if type(node).__name__ in ("Mu", "MuTilde"):
            binders += 1
    return total, binders


def tree_size(root: Node, memo: dict) -> int:
    """Node count of root as a tree.  Successive machine states share most
    of their subtrees, so sizes are memoized by identity; memo keeps every
    node it has seen alive, so an identity is never reused while it holds."""

    todo = [(root, False)]
    while todo:
        node, ready = todo.pop()
        if id(node) in memo:
            continue
        kids = [c for c in (getattr(node, f) for f in _child_fields(type(node))) if isinstance(c, Node)]
        if ready:
            memo[id(node)] = (node, 1 + sum(memo[id(c)][1] for c in kids))
            continue
        todo.append((node, True))
        todo.extend((c, False) for c in kids if id(c) not in memo)
    return memo[id(root)][1]


@contextmanager
def peak_command_nodes():
    """Record the largest command machine.step is handed (traced census only:
    it costs a walk over the new part of every state)."""

    machine = importlib.import_module("duality_vm.machine")
    real = machine.step
    peak = [0]
    memo: dict = {}

    def step(c, s):
        peak[0] = max(peak[0], tree_size(c, memo))
        return real(c, s)

    machine.step = step
    try:
        yield peak
    finally:
        machine.step = real
