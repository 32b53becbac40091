"""Read-back against a reference that substitutes once per closure.

The reference reads a closure back as ``subst`` of its code with the
read-back of each closure its free names are bound to, a half as its side
of the substitution machine's ``beta_succ``/``beta_tail`` (so it shares
no rule with the machine it checks) and a forcing continuation as its
restart covariable.  The machine's read-back builds successor chains without
``subst``; it must print the same bytes, fresh names included, on every
state of the prelude's number programs (forcing runs included) and stream
observations, of generated commands and of the commands whose binders
substitution renames, in both strategies: through a traced run's memo,
through one memo per run, and through ``final``.  As the beta rules test
no side condition, each state a well-formed start reaches must read back
well formed.
"""

import pytest

from duality_vm import machine
from duality_vm.kernel import CBN, CBV, Command, CoVar, Head, fresh_name, pretty, subst, well_formed
from duality_vm.machine import MachineError, tails
from duality_vm.parser import parse_command
from generators import DualGen, TypedGen
from substitution_machine import beta_succ, beta_tail
from test_machine_lockstep import NUMS, RENAMED, STREAMS, _apply

FUEL = 4000
# Longer chains than the lockstep tests run, and more of them.
NUMBERS = NUMS + [("plus", 30, 30), ("times", 4, 5)]


def reference(c: tuple, backs: dict):
    """c's read-back by one ``subst`` per closure, on an explicit stack."""

    todo = [c]
    while todo:
        top = todo[-1]
        if id(top) in backs:
            todo.pop()
            continue
        code, vs, cs = top
        if code is machine._TOP:
            parts = [vs]
        elif code is machine._PENDING_MU or code is machine._PENDING_COMU:
            parts = [vs[0], vs[1]]
        else:
            parts = [vs[x] for x in code.free_vars if x in vs] + [cs[a] for a in code.free_covars if a in cs]
        missing = [d for d in parts if id(d) not in backs]
        if missing:
            todo.extend(missing)
            continue
        todo.pop()
        if code is machine._TOP:
            node = CoVar(fresh_name(backs[id(vs)][1].free_covars, "a0"))
        elif code is machine._PENDING_MU or code is machine._PENDING_COMU:
            x, y, succ = vs
            rule = beta_succ if succ else beta_tail
            cmd = rule(backs[id(x)][1], backs[id(y)][1])
            node = cmd.producer if code is machine._PENDING_MU else cmd.consumer
        else:
            vm = {x: backs[id(vs[x])][1] for x in code.free_vars if x in vs}
            cm = {a: backs[id(cs[a])][1] for a in code.free_covars if a in cs}
            node = subst(code, vm, cm)
        backs[id(top)] = (top, node)
    return backs[id(c)][1]


def assert_reads_back_as_reference(cmd, s, monkeypatch) -> int:
    """Run cmd traced under s, then force its answer, recording every state
    handed to a step; compare each state's read-back with the reference
    and, if cmd is well formed, check that it is too.  Returns the number
    of states compared."""

    states = []
    real = machine._step
    monkeypatch.setattr(machine, "_step", lambda p, e, s: states.append((p, e)) or real(p, e, s))
    res = machine.run(cmd, s, FUEL, trace=True)
    ran = len(states)
    if res.outcome == "Final":
        try:
            machine.force_numeral(res.state[0], s, FUEL)
        except MachineError:
            pass
    monkeypatch.setattr(machine, "_step", real)

    ref_backs, backs = {}, {}
    want = [pretty(Command(reference(p, ref_backs), reference(e, ref_backs))) for p, e in states]
    got = [machine._command(st, backs) for st in states]
    assert [pretty(c) for c in got] == want
    if not well_formed(cmd, s):
        assert [c for c in got if well_formed(c, s)] == []
    assert [e.command_text for e in res.trace] == want[1:len(res.trace) + 1]
    assert res.final is None or pretty(res.final) == want[ran - 1]
    return len(states)


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_prelude_programs_read_back_as_the_reference(s, compilers, monkeypatch):
    seen = 0
    for name, *args in NUMBERS:
        seen += assert_reads_back_as_reference(Command(_apply(compilers[s], name, *args), CoVar("a0")), s, monkeypatch)
    for name, *args in STREAMS:
        v = _apply(compilers[s], name, *args)
        for depth in range(4):
            seen += assert_reads_back_as_reference(Command(v, tails(depth, Head(CoVar("a0")))), s, monkeypatch)
    assert seen > 1000


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_generated_commands_read_back_as_the_reference(s, monkeypatch):
    tg, dg = TypedGen(2101), DualGen(2102)
    for _ in range(100):
        assert_reads_back_as_reference(tg.command(depth=4), s, monkeypatch)
        assert_reads_back_as_reference(dg.command(depth=4)[0], s, monkeypatch)


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
@pytest.mark.parametrize("text", RENAMED)
def test_renamed_binders_read_back_as_the_reference(text, s, monkeypatch):
    assert_reads_back_as_reference(parse_command(text), s, monkeypatch)
