"""The machine against the substitution machine, printed output compared.

``substitution_machine`` keeps a copy of the machine that rewrote whole
commands with substitution.  On the prelude's numeral functions, its seven
streams, the programs under ``programs/`` and generated commands, in both
strategies, ``duality_vm.machine`` must print the same trace and final
command, count the same steps per rule, end with the same outcome and
stuck reason, and force the same number; ``step`` must give the same
successor state, rule, final covariable or stuck reason.  Forcing is
checked both from the printed final producer and through
``run_to_numeral`` and ``observe_stream``.

Where the substitution machine renames a binder (one named like a free
name of the command), it renames one substitution at a time and read-back
all at once, so they may pick other fresh names.  Such commands are
checked up to renaming: every state alpha-equivalent, all else the same.
"""

import itertools
import sys
from pathlib import Path

import pytest

import substitution_machine as ref
from duality_vm import machine
from duality_vm.kernel import (
    CBN, CBV, Call, Command, CoVar, Head, Mu, NumSucc, Succ, Var, alpha_eq, fresh_name, numeral, pretty, subst,
    well_formed,
)
from duality_vm.machine import MachineError, StuckError, force_numeral, tails
from duality_vm.parser import App, NumLit, Program, Ref, parse, parse_command, parse_term
from duality_vm.surface import Compiler, prelude
from duality_vm.typechecker import EMPTY_ENV, TypeEnv, elaborate_command
from generators import DualGen, TypedGen

PROGRAMS = Path(__file__).resolve().parents[1] / "programs"
FUEL = 4000
STEPS = 60  # single steps compared per command

NUMS = [("plus", 0, 0), ("plus", 2, 3), ("plus", 3, 1), ("times", 0, 2), ("times", 2, 3),
        ("pred", 0), ("pred", 3), ("fact", 0), ("fact", 3)]
STREAMS = [("nats",), ("zeroes",), ("repeat", "succ", 2), ("countDown", 3), ("countDown2", 2),
           ("scons", 7, "nats"), ("countNow", 3)]


def _apply(comp, name, *args):
    t = Ref(name)
    for a in args:
        t = App(t, NumLit(a) if isinstance(a, int) else Ref(a))
    return comp.term(EMPTY_ENV, t, None, "t")[1]


def _outcome(f, *args):
    try:
        return f(*args)
    except MachineError as ex:
        return f"{type(ex).__name__}: {ex}"


def transcript(impl, cmd, s, fuel=FUEL) -> list[str]:
    """Everything a run prints or counts, then the number it forces to."""

    res = impl.run(cmd, s, fuel, trace=True)
    out = [f"{res.outcome} {res.stats.final_shape} {res.stats.stuck_reason!r} truncated={res.trace_truncated}"]
    out += [f"{e.index} {e.rule} {e.command_text}" for e in res.trace]
    out.append("final " + ("-" if res.final is None else pretty(res.final)))
    if res.outcome == "Final":
        value = _outcome(impl.force_numeral, res.final.producer, s, fuel - res.stats.fuel_used, res.stats)
        out.append(f"value {value}")
    out.append(" ".join(f"{t}={n}" for t, n in sorted(res.stats.per_rule.items(), key=lambda kv: kv[0].value)))
    out.append(f"total {res.stats.total} fuel {res.stats.fuel_used}")
    return out


def _ref_to_numeral(cmd, s, fuel):
    """The number, with the steps of both phases, or the error."""

    res = ref.run(cmd, s, fuel)
    if res.outcome == "OutOfFuel":
        return "OutOfFuelError: run out of fuel"
    if res.outcome == "Stuck":
        return f"StuckError: {res.stats.stuck_reason}"
    try:
        value = ref.force_numeral(res.final.producer, s, fuel - res.stats.fuel_used, res.stats)
    except MachineError as ex:
        return f"{type(ex).__name__}: {ex}"
    return value, sorted((t.value, n) for t, n in res.stats.per_rule.items())


def _machine_to_numeral(cmd, s, fuel):
    try:
        value, stats = machine.run_to_numeral(cmd, s, fuel)
    except MachineError as ex:
        return f"{type(ex).__name__}: {ex}"
    return value, sorted((t.value, n) for t, n in stats.per_rule.items())


def _describe(out) -> tuple:
    if isinstance(out, machine.Stepped):
        return "Stepped", out.rule, pretty(out.next)
    if isinstance(out, machine.Final):
        return "Final", out.shape, out.covar, pretty(out.command)
    return "Stuck", out.reason, pretty(out.command)


def assert_steps_agree(cmd, s, n=STEPS) -> None:
    """step on each of the first n states of the reference run."""

    cur = cmd
    for _ in range(n):
        want = ref.step(cur, s)
        assert _describe(machine.step(cur, s)) == _describe(want)
        if not isinstance(want, machine.Stepped):
            return
        cur = want.next


def assert_agree(cmd, s, fuel=FUEL) -> None:
    assert transcript(machine, cmd, s, fuel) == transcript(ref, cmd, s, fuel)
    assert _machine_to_numeral(cmd, s, fuel) == _ref_to_numeral(cmd, s, fuel)
    assert_steps_agree(cmd, s)


def assert_agree_up_to_renaming(cmd, s, fuel=FUEL) -> None:
    """Each traced state and the final command alpha-equivalent; stats,
    outcome, stuck reason, forced value and single steps the same."""

    got, want = machine.run(cmd, s, fuel, trace=True), ref.run(cmd, s, fuel, trace=True)
    assert got.stats == want.stats and got.trace_truncated == want.trace_truncated
    assert [e.rule for e in got.trace] == [e.rule for e in want.trace]
    for a, b in zip(got.trace, want.trace):
        assert alpha_eq(parse_command(a.command_text), parse_command(b.command_text))
    assert (got.final is None) == (want.final is None)
    if got.final is not None:
        assert alpha_eq(got.final, want.final)
        assert _outcome(force_numeral, got.final.producer, s) == _outcome(ref.force_numeral, want.final.producer, s)
    assert _machine_to_numeral(cmd, s, fuel) == _ref_to_numeral(cmd, s, fuel)
    assert_steps_agree(cmd, s)


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_numeral_functions(s, compilers):
    for name, *args in NUMS:
        assert_agree(Command(_apply(compilers[s], name, *args), CoVar("a0")), s)


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_prelude_streams(s, compilers):
    for name, *args in STREAMS:
        v = _apply(compilers[s], name, *args)
        for depth in range(5):
            cmd = Command(v, tails(depth, Head(CoVar("a0"))))
            assert_agree(cmd, s)
            want = _ref_to_numeral(cmd, s, FUEL)
            got = _outcome(machine.observe_stream, v, depth, s, FUEL)
            assert got == (want[0] if isinstance(want, tuple) else want)


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_programs(s):
    ran = 0
    for path in sorted(PROGRAMS.glob("*.ct")):
        prog = parse(path.read_text())
        try:
            ty, node = Compiler(prog, s).main()
        except Exception:
            # numstream.ct runs as written, over its free variable; the
            # front end rejects it, and illtyped.ct, which is no machine command.
            node = prog.main
            if not isinstance(node, Command) or well_formed(node, s):
                continue
        cmd = node if isinstance(node, Command) else Command(node, CoVar("a0"))
        assert_agree(cmd, s)
        ran += 1
    assert ran >= 3


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_typed_generated_commands(s):
    gen = TypedGen(909)
    for _ in range(100):
        assert_agree(gen.command(depth=4), s)


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_dual_generated_commands(s):
    gen = DualGen(910)
    for _ in range(100):
        cmd, fv, fc = gen.command(depth=4)
        assert_agree(elaborate_command(TypeEnv.make(vars=fv, covars=fc), cmd), s)


class _Pooled:
    """Generator mixin: every name drawn from three per side, among them the
    names the machine invents (a, a1, x, x1) and the top covariable a0, so
    binders shadow one another and substitution renames binders."""

    COVAR_HINTS = {"a", "b", "g", "fc", "mc", "hc", "tc", "gc"}
    COVARS, VARS = ("a", "a0", "a1"), ("x", "x1", "y")

    def fresh(self, hint: str) -> str:
        super().fresh(hint)
        pool = self.COVARS if hint in self.COVAR_HINTS else self.VARS
        return pool[self.counter % len(pool)]


class _PooledTypedGen(_Pooled, TypedGen):
    pass


class _PooledDualGen(_Pooled, DualGen):
    pass


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_generated_commands_with_reused_names(s):
    tg, dg = _PooledTypedGen(911), _PooledDualGen(912)
    for _ in range(100):
        assert_agree(tg.command(depth=4), s)
        cmd, fv, fc = dg.command(depth=4)
        assert_agree(cmd, s)


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
@pytest.mark.parametrize("text", [
    # One name for both binders of a successor or tail branch: the later
    # binder shadows the earlier, so the name means the recursive result
    # (the new seed), as in typing, alpha_eq and substitution.
    "<2 | rec { Z -> Z | S x -> x. x } with a0>",
    "<S x | rec { Z -> Z | S x -> x. x } with a0>",
    "<S (S x) | rec { Z -> Z | S x -> x. S x } with a0>",
    "<numS (numZ x) | rec : Nat { Z p -> p | S x -> x. x } with a0>",
    "<corec { head h -> h | tail b -> b. b } with 3 | tail (tail (head a0))>",
    "<corec { head h -> h | tail b -> b. b } with 3 | tail (tail (head b))>",
])
def test_one_name_for_both_binders(text, s):
    assert_agree(parse_command(text), s)


def rename_apart(node, names=None):
    """node with every binder named apart, v<n> or c<n>: where a branch binds
    one name twice, the later binder keeps its occurrences."""

    names = itertools.count() if names is None else names
    if type(node) in (Var, CoVar):
        return node
    sh = node._shape
    vals = [getattr(node, f) for f in sh.names]
    for i, bound in sh.kids:
        child = vals[i]
        if bound:
            new = {}
            for j in bound:
                vals[j] = f"{'v' if sh.var_side else 'c'}{next(names)}"
                new[getattr(node, sh.names[j])] = (Var if sh.var_side else CoVar)(vals[j])
            child = subst(child, new, None) if sh.var_side else subst(child, None, new)
        vals[i] = rename_apart(child, names)
    return type(node)(*vals)


def _answers(cmd, s):
    """Stats, final command and forced number of a run."""

    res = machine.run(cmd, s, FUEL)
    value = None
    if res.outcome == "Final":
        value = _outcome(force_numeral, res.state[0], s, FUEL - res.stats.fuel_used, res.stats)
    return res.stats, res.final, value


def assert_renaming_changes_nothing(cmd, s) -> None:
    renamed = rename_apart(cmd)
    assert alpha_eq(cmd, renamed)
    (stats, final, value), (stats2, final2, value2) = _answers(cmd, s), _answers(renamed, s)
    assert stats == stats2 and value == value2
    assert (final is None) == (final2 is None)
    assert final is None or alpha_eq(final, final2)


class _Shadowing(_Pooled):
    """Pooled names drawn at random, so the two binders of a branch often
    share a name."""

    def fresh(self, hint: str) -> str:
        return self.rng.choice(self.COVARS if hint in self.COVAR_HINTS else self.VARS)


class _ShadowingTypedGen(_Shadowing, _PooledTypedGen):
    pass


class _ShadowingDualGen(_Shadowing, _PooledDualGen):
    pass


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_renaming_binders_apart_changes_no_answer(s):
    for text in ["<2 | rec { Z -> Z | S x -> x. x } with a0>",
                 "<2 | rec { Z -> Z | S p -> x. x } with a0>",
                 "<corec { head h -> h | tail b -> b. b } with 3 | tail (tail (head a0))>",
                 "<corec { head h -> h | tail q -> b. b } with 3 | tail (tail (head a0))>"]:
        assert_renaming_changes_nothing(parse_command(text), s)
    tg, dg = _ShadowingTypedGen(915), _ShadowingDualGen(916)
    for _ in range(100):
        for cmd in (tg.command(depth=4), dg.command(depth=4)[0]):
            assert_renaming_changes_nothing(cmd, s)
            assert_agree_up_to_renaming(cmd, s)


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
@pytest.mark.parametrize("text", [
    # Free x and x1: substitution renames the innermost binder x to x1, then
    # x1 to x11; read-back avoids both at once and names it x2.
    "<fun p => mu k. <fun q => mu j. <fun x => mu r. <p | q . r> | j> | x1 . k> | x . a0>",
    # Free x alone: x1 is substituted away before x is renamed, so
    # substitution may reuse x1, which read-back still avoids.
    "<fun x1 => mu k. <fun y => mu j. <fun x => mu r. <x1 | y . r> | j> | x . k> | 3 . a0>",
    # Closed: a binder named a0 is renamed to a01, and so the binder a01 in
    # its scope to a011; substitution keeps a011 once a0 is bound, read-back
    # has no reason to rename a01.
    "<mu a. <mu a0. <mu a01. <mu a02. <mu a1. <Z | comu x. <Z | a0>> | a02> | a> | Z . a> | a> | 3 . a0>",
])
def test_renamed_binders_agree_up_to_renaming(text, s):
    assert_agree_up_to_renaming(parse_command(text), s)


class _WidePooled(_Pooled):
    """Five names per side, among them the names substitution renames a0 and
    x to, and renames of those, so renamings cascade."""

    COVARS, VARS = ("a", "a0", "a01", "a02", "a1"), ("x", "x1", "x2", "x11", "y")


class _WideTypedGen(_WidePooled, TypedGen):
    pass


class _WideDualGen(_WidePooled, DualGen):
    pass


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_generated_commands_with_renamed_binders(s):
    tg, dg = _WideTypedGen(913), _WideDualGen(914)
    for _ in range(100):
        assert_agree_up_to_renaming(tg.command(depth=4), s)
        assert_agree_up_to_renaming(dg.command(depth=4)[0], s)


def test_trace_limit_marks_truncation(compilers, monkeypatch):
    monkeypatch.setattr(machine, "TRACE_LIMIT", 7)
    cmd = Command(_apply(compilers[CBN], "plus", 3, 2), CoVar("a0"))
    got = transcript(machine, cmd, CBN)
    assert got == transcript(ref, cmd, CBN) and "truncated=True" in got[0]


def test_fuel_runs_out_at_the_same_step(compilers):
    for s in (CBV, CBN):
        cmd = Command(_apply(compilers[s], "fact", 3), CoVar("a0"))
        for fuel in (0, 1, 2, 17, 60):
            assert transcript(machine, cmd, s, fuel) == transcript(ref, cmd, s, fuel)


# ---------------------------------------------------------------------------
# Forcing


@pytest.mark.parametrize("text,name", [
    ("S (mu a. <fun x => x | a>)", "a0"),
    # a0 is free in the suspended term, so the restart covariable is a01
    ("S (mu a. <mu b. <fun x => x | a> | a0>)", "a01"),
    # stuck in the second restart, on the first restart's covariable
    ("S (mu a. <S (mu b. <fun x => x | a>) | a>)", "a0"),
    # stuck in the second restart, whose covariable is a01: the first one's is free
    ("S (mu a. <S (mu b. <mu c. <fun x => x | b> | a>) | a>)", "a01"),
])
def test_stuck_while_forcing_names_the_restart_covariable(text, name):
    t = parse_term(text)
    want = f"producer Lam delivered to covariable {name!r} is not a number"
    for force in (force_numeral, ref.force_numeral):
        with pytest.raises(StuckError) as ex:
            force(t, CBN)
        assert str(ex.value) == want
    stats = machine.RunStats()
    with pytest.raises(StuckError):
        force_numeral(t, CBN, 100, stats)
    ref_stats = machine.RunStats()
    with pytest.raises(StuckError):
        ref.force_numeral(t, CBN, 100, ref_stats)
    assert stats == ref_stats  # restarts before the stuck one are counted once


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_deep_numerals_at_the_default_recursion_limit(s, compilers):
    # Python's default limit: read-back, printing and forcing must not recurse
    # on the depth of a numeral or of a chain of environments.
    plus = compilers[s].lookup_def("plus", "plus")[1]
    cmd = Command(plus, Call(numeral(5000), Call(numeral(5000), CoVar("a0"))))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        res = machine.run(cmd, s)
        assert res.outcome == "Final"
        text = pretty(res.final)
        assert force_numeral(res.final.producer, s) == 10000
        value, stats = machine.run_to_numeral(cmd, s)
    finally:
        sys.setrecursionlimit(limit)
    if s is CBV:
        assert text == "<10000 | a0>"
    else:
        assert isinstance(res.final.producer, Succ) and isinstance(res.final.producer.arg, Mu)
    # Call-by-name forces one suspended successor per restart.
    assert value == 10000 and stats.total >= res.stats.total + (10000 if s is CBN else 0)


def test_deep_terms_at_the_default_recursion_limit(compilers):
    # Substitution, alpha-equivalence and numeral elaboration walk on
    # explicit stacks or in loops, so none of them recurses on depth.
    c = parse_command("<fun x : Nat => " + "S " * 5000 + "x | 0 . a0>")
    numbered = Var("x")
    for _ in range(5000):
        numbered = NumSucc(numbered)
    plus = parse_command("<plus | 5000 . 3 . a0>", prelude().defs)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        final = pretty(machine.run(c, CBV).final)
        traced = machine.run(c, CBV, trace=True)
        stepped = machine.step(c, CBV)
        same = alpha_eq(c, c)
        image = subst(numbered, {"x": numeral(2)})
        compiled = Compiler(Program(prelude().defs, plus), CBV).main()[1]
        value = machine.run_to_numeral(compiled, CBV)[0]
    finally:
        sys.setrecursionlimit(limit)
    assert final == "<5000 | a0>"
    assert len(traced.trace) == 1
    assert isinstance(stepped, machine.Stepped)
    assert same
    assert image.free_vars == frozenset() and alpha_eq(image, subst(numbered, {"x": numeral(2)}))
    assert value == 5003


def _forced_at(impl, cmd, s, fuel):
    """The number or error of a run then a forcing on one fuel budget, and
    the stats record both phases were counted in."""

    res = impl.run(cmd, s, fuel)
    value = None
    if res.outcome == "Final":
        start = res.state[0] if impl is machine else res.final.producer
        value = _outcome(impl.force_numeral, start, s, fuel - res.stats.fuel_used, res.stats)
    return value, res.stats


def test_forcing_agrees_at_every_fuel(compilers):
    # Fuel can run out in the run, in any restart of the forcing run or at a
    # restart boundary; a forcing that fails counts only completed restarts.
    comp = compilers[CBN]
    for cmd in (Command(_apply(comp, "times", 3, 3), CoVar("a0")),
                Command(_apply(comp, "fact", 3), CoVar("a0")),
                Command(_apply(comp, "nats"), tails(3, Head(CoVar("a0"))))):
        total = machine.run_to_numeral(cmd, CBN)[1].total
        for fuel in range(total + 1):
            assert _forced_at(machine, cmd, CBN, fuel) == _forced_at(ref, cmd, CBN, fuel), fuel
