"""Small-step machine: rule firing, runs, traces, observation, forcing."""

import json
import time
from collections import Counter
from pathlib import Path

import pytest

from duality_vm.kernel import (
    CBN,
    CBV,
    Call,
    Command,
    CoVar,
    Head,
    Mu,
    MuTilde,
    Nat,
    Succ,
    Tail,
    Var,
    Violation,
    Zero,
    alpha_eq,
    numeral,
    pretty,
    well_formed,
)
import duality_vm
from duality_vm import bench, machine
from duality_vm.machine import (
    ElementNotNatError,
    Final,
    OutOfFuelError,
    RuleTag,
    Stepped,
    Stuck,
    StuckError,
    force_numeral,
    observe_stream,
    run,
    run_to_numeral,
    step,
    tails,
)
from duality_vm.parser import App, Parser, Program, parse_command, parse_term
from duality_vm.surface import Compiler, prelude
from duality_vm.typechecker import TypeEnv, elaborate_command
from generators import DualGen, TypedGen

ENV = TypeEnv.make(covars={"a0": Nat()})


def gt(comp, name):
    return comp.lookup_def(name, name)[1]


# ---------------------------------------------------------------------------
# Single steps


def test_the_package_serves_the_machine_names_lazily():
    assert duality_vm.run is run and duality_vm.step is step
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        duality_vm.no_such_name


def test_mu_step():
    c = parse_command("<mu a. <Z | a> | a0>")
    out = step(c, CBV)
    assert isinstance(out, Stepped) and out.rule == RuleTag.MU
    assert out.next == parse_command("<Z | a0>")


def test_corec_head_step():
    c = parse_command("<corec : Nat { head a -> a | tail _ -> g. g } with Z | head a0>")
    out = step(c, CBV)
    assert isinstance(out, Stepped) and out.rule == RuleTag.BETA_HEAD
    assert out.next == parse_command("<Z | a0>")


def test_mu_mutilde_priority_depends_on_strategy():
    c = parse_command("<mu a. <Z | a0> | comu x. <1 | a0>>")
    assert step(c, CBV).rule == RuleTag.MU
    assert step(c, CBN).rule == RuleTag.MU_TILDE


def test_final_states():
    assert isinstance(step(parse_command("<Z | a0>"), CBV), Final)
    out = step(parse_command("<S Z | a0>"), CBN)
    assert isinstance(out, Final) and out.shape == "Succ"


def test_stuck_state_reports_reason():
    out = step(parse_command("<fun x : Nat => x | a0>"), CBV)
    assert isinstance(out, Stuck) and "a0" in out.reason


def test_beta_succ_shape():
    c = parse_command("<S Z | rec { Z -> Z | S x -> z. x } with a0>")
    out = step(c, CBV)
    assert out.rule == RuleTag.BETA_SUCC
    nxt = out.next
    assert isinstance(nxt.producer, Mu)
    assert isinstance(nxt.consumer, MuTilde)
    # The recursor restarts on the predecessor under the new mu.
    assert alpha_eq(
        nxt, parse_command("<mu a. <Z | rec { Z -> Z | S x -> z. x } with a> | comu z. <Z | a0>>")
    )


def test_beta_tail_shape():
    c = elaborate_command(
        ENV, parse_command("<corec : Nat { head a -> a | tail b -> g. g } with 1 | tail (head a0)>")
    )
    out = step(c, CBV)
    assert out.rule == RuleTag.BETA_TAIL
    expected = elaborate_command(
        ENV,
        parse_command(
            "<mu g : Nat. <1 | g> |"
            " comu x : Nat. <corec : Nat { head a -> a | tail b -> g. g } with x | head a0>>"
        ),
    )
    assert alpha_eq(out.next, expected)


def test_num_rules():
    c = parse_command("<numZ 4 | rec : Nat { Z p -> p | S y -> z. z } with a0>")
    out = step(c, CBV)
    assert out.rule == RuleTag.BETA_NUM_ZERO
    assert out.next == parse_command("<4 | a0>")
    c = parse_command("<numS (numZ 4) | rec : Nat { Z p -> p | S y -> z. z } with a0>")
    assert step(c, CBV).rule == RuleTag.BETA_NUM_SUCC


def test_pair_and_sum_rules():
    assert step(parse_command("<pair(1, 2) | fst : Nat a0>"), CBV).next == parse_command("<1 | a0>")
    assert step(parse_command("<pair(1, 2) | snd : Nat a0>"), CBV).next == parse_command("<2 | a0>")
    assert step(parse_command("<inl : Nat 1 | case[a0, head a1]>"), CBV).next == parse_command("<1 | a0>")
    assert step(parse_command("<inr : Nat 1 | case[head a1, a0]>"), CBV).next == parse_command("<1 | a0>")


def test_beta_fst_needs_covalue_tail_in_cbn():
    c = parse_command("<pair(1, 2) | fst : Nat (comu x. <x | a0>)>")
    assert step(c, CBV).rule == RuleTag.BETA_FST
    assert isinstance(step(c, CBN), Stuck)


# One command per grammar demand a beta rule or a final state used to test,
# each breaking that demand under one strategy only: (command, the strategy
# it breaks, the violation's path, what step does under the other).
_M, _K = "(mu a. <0 | a>)", "comu y. <y | a0>"
_REC, _NUMREC = "rec { Z -> Z | S x -> z. z } with ", "rec { Z p -> p | S x -> z. z } with "
_COREC = "corec { head h -> h | tail b -> g. g } with "
OUTSIDE_ONE_GRAMMAR = [
    (f"<fun x => x | {_M} . a0>", CBV, "command.consumer.arg", RuleTag.BETA_ARROW),
    (f"<fun x => x | 0 . {_K}>", CBN, "command.consumer.rest", RuleTag.BETA_ARROW),
    (f"<Z | {_REC}{_K}>", CBN, "command.consumer.ret", RuleTag.BETA_ZERO),
    (f"<S {_M} | {_REC}a0>", CBV, "command.producer.arg", RuleTag.BETA_SUCC),
    (f"<S Z | {_REC}{_K}>", CBN, "command.consumer.ret", RuleTag.BETA_SUCC),
    (f"<numZ {_M} | {_NUMREC}a0>", CBV, "command.producer.arg", RuleTag.BETA_NUM_ZERO),
    (f"<numZ 4 | {_NUMREC}{_K}>", CBN, "command.consumer.ret", RuleTag.BETA_NUM_ZERO),
    (f"<numS {_M} | {_NUMREC}a0>", CBV, "command.producer.arg", RuleTag.BETA_NUM_SUCC),
    (f"<numS (numZ 4) | {_NUMREC}{_K}>", CBN, "command.consumer.ret", RuleTag.BETA_NUM_SUCC),
    (f"<{_COREC}{_M} | head a0>", CBV, "command.producer.seed", RuleTag.BETA_HEAD),
    (f"<{_COREC}0 | head ({_K})>", CBN, "command.consumer.rest", RuleTag.BETA_HEAD),
    (f"<{_COREC}{_M} | tail (head a0)>", CBV, "command.producer.seed", RuleTag.BETA_TAIL),
    (f"<{_COREC}0 | tail ({_K})>", CBN, "command.consumer.rest", RuleTag.BETA_TAIL),
    (f"<pair(1, 2) | fst ({_K})>", CBN, "command.consumer.rest", RuleTag.BETA_FST),
    (f"<pair(1, 2) | snd ({_K})>", CBN, "command.consumer.rest", RuleTag.BETA_SND),
    (f"<S {_M} | a0>", CBV, "command.producer.arg", Final),
]


@pytest.mark.parametrize("text,breaks,path,fires", OUTSIDE_ONE_GRAMMAR,
                         ids=[f"{getattr(f, 'value', 'Final')}-{p.removeprefix('command.')}"
                              for _, _, p, f in OUTSIDE_ONE_GRAMMAR])
def test_step_refuses_a_command_outside_the_grammar(text, breaks, path, fires):
    # The beta rules test no side condition, so step checks its command:
    # under the strategy whose grammar it leaves it is Stuck on the first
    # violation, and under the other the rule fires.
    c = parse_command(text)
    bad = well_formed(c, breaks)
    assert [v.path for v in bad] == [path]
    assert step(c, breaks) == Stuck(str(bad[0]), c)
    other = CBN if breaks is CBV else CBV
    assert well_formed(c, other) == []
    out = step(c, other)
    assert isinstance(out, Final) if fires is Final else out.rule == fires


# ---------------------------------------------------------------------------
# Runs


def test_run_plus_cbv(compilers):
    plus = gt(compilers[CBV], "plus")
    cmd = Command(plus, Call(numeral(2), Call(numeral(3), CoVar("a0"))))
    res = run(cmd, CBV)
    assert res.outcome == "Final"
    assert alpha_eq(res.final, Command(numeral(5), CoVar("a0")))
    assert force_numeral(res.final.producer, CBV) == 5


@pytest.mark.parametrize("s,succs,zeros", [(CBN, 1, 0), (CBV, 2, 1)])
def test_run_pred_of_two_counts(compilers, s, succs, zeros):
    pred = gt(compilers[s], "pred")
    res = run(Command(pred, Call(numeral(2), CoVar("a0"))), s)
    assert res.outcome == "Final"
    assert force_numeral(res.final.producer, s) == 1
    assert res.stats.count(RuleTag.BETA_SUCC) == succs
    assert res.stats.count(RuleTag.BETA_ZERO) == zeros


def test_run_out_of_fuel():
    c = parse_command("<mu a. <Z | a0> | comu x. <1 | a0>>")
    # Plenty of steps exist; a fuel of 0 must report OutOfFuel, not crash.
    res = run(c, CBV, fuel=0)
    assert res.outcome == "OutOfFuel"
    assert res.stats.total == 0


def test_fuel_boundary_final_detection():
    res = run(parse_command("<Z | a0>"), CBV, fuel=0)
    assert res.outcome == "Final"
    assert res.stats.total == 0


def test_a_number_answer_reads_back_without_substitution(compilers, monkeypatch):
    # A call-by-value number answer is a chain of closures of code S x over a
    # literal; read-back builds one Succ per link and calls no subst.
    calls = []
    real = machine.subst
    monkeypatch.setattr(machine, "subst", lambda *args: calls.append(args) or real(*args))
    for name, m, n, want in [("plus", 300, 300, 600), ("times", 12, 6, 72)]:
        res = run(Command(gt(compilers[CBV], name), Call(numeral(m), Call(numeral(n), CoVar("a0")))), CBV)
        assert res.final == Command(numeral(want), CoVar("a0"))
    assert calls == []


def test_stats_total_is_sum_of_rules(compilers):
    plus = gt(compilers[CBV], "plus")
    res = run(Command(plus, Call(numeral(4), Call(numeral(2), CoVar("a0")))), CBV)
    assert res.stats.total == sum(res.stats.per_rule.values())


# ---------------------------------------------------------------------------
# Traces


def test_trace_replay_reproduces_states(compilers):
    plus = gt(compilers[CBV], "plus")
    cmd = Command(plus, Call(numeral(2), Call(numeral(3), CoVar("a0"))))
    res = run(cmd, CBV, trace=True)
    cur = cmd
    for entry in res.trace:
        out = step(cur, CBV)
        assert isinstance(out, Stepped)
        assert out.rule == entry.rule
        cur = out.next
        assert pretty(cur) == entry.command_text
    assert cur == res.final


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_trace_of_a_deep_stream_observation(compilers, s):
    # tail^400 over head makes states deeper than Python's default recursion
    # limit, which the printer must not depend on.
    cmd = Command(gt(compilers[s], "nats"), tails(400, Head(CoVar("a0"))))
    res = run(cmd, s, trace=True)
    assert res.outcome == "Final" and res.trace
    cur = cmd
    for entry in res.trace:
        cur = step(cur, s).next
        assert entry.command_text == pretty(cur)


def test_trace_json_schema(compilers):
    plus = gt(compilers[CBV], "plus")
    res = run(Command(plus, Call(numeral(1), Call(numeral(1), CoVar("a0")))), CBV, trace=True)
    for entry in res.trace:
        d = entry.to_json()
        assert set(d) == {"i", "rule", "cmd"}
        json.dumps(d)
    stats = res.stats.to_json()
    assert set(stats) == {"outcome", "total", "perRule"}
    assert stats["outcome"] == "Final"


def _traced_commands(compilers):
    """(command, strategy) pairs: generated commands under both strategies,
    the prelude's number programs, and one that puts a successor of a
    free variable, printed once, in an atom position."""

    typed, dual = TypedGen(1801), DualGen(1802)
    cmds = [typed.command(depth=4) for _ in range(300)]
    cmds.append(parse_command("<fun x : Nat => mu b : Nat. <inl : Nat x | case[b, b]> | S y . a0>"))
    for _ in range(300):
        cmd, fv, fc = dual.command(depth=4)
        cmds.append(elaborate_command(TypeEnv.make(vars=fv, covars=fc), cmd))
    out = [(cmd, s) for cmd in cmds for s in (CBV, CBN)]
    for s in (CBV, CBN):
        for name, args in [("plus", (3, 4)), ("times", (3, 4)), ("fact", (4,)), ("pred", (5,))]:
            k: object = CoVar("a0")
            for n in reversed(args):
                k = Call(numeral(n), k)
            out.append((Command(gt(compilers[s], name), k), s))
    return out


def test_traced_lines_print_as_whole_states(compilers, monkeypatch):
    # A traced run prints each closure's read-back once, into a memo that
    # lives as long as the run.  Every text printed through the memo, each
    # line among them, must be what plain printing gives: for a line, that
    # is pretty(_command(state)), since read-back keeps each closure's
    # result.  The runs go back to back in one process, so a memo that
    # outlived its run would meet reused ids and print stale text.
    real, lines = machine.pretty, [0]

    def checked(node, memo=None):
        text = real(node, memo)
        if memo is not None:
            assert text == real(node)
            lines[0] += type(node) is Command
        return text

    monkeypatch.setattr(machine, "pretty", checked)
    for cmd, s in _traced_commands(compilers):
        res = run(cmd, s, fuel=3000, trace=True)
        if res.trace and res.final is not None:
            assert res.trace[-1].command_text == real(res.final)
    assert lines[0] > 4000


class _CountedMemo:
    """A traced run's memo as pretty sees it, counting the lookups pretty
    makes: one per node it walks."""

    def __init__(self, memo: dict, counts: list[int]):
        self.memo, self.counts = memo, counts

    def get(self, key):
        self.counts[-1] += 1
        return self.memo.get(key)

    def __contains__(self, key):
        self.counts[-1] += 1
        return key in self.memo

    def __getitem__(self, key):
        return self.memo[key]

    def __setitem__(self, key, value):
        self.memo[key] = value


def test_a_traced_step_walks_what_it_built(compilers, monkeypatch):
    # CBV plus n 3 holds one pending comu per outstanding call, so its
    # states grow with n.  The first line prints the numeral n; after it,
    # the nodes pretty walks for a line must not depend on n, or traces
    # have gone back to printing whole states.
    real, counts = machine.pretty, [0]
    plus = gt(compilers[CBV], "plus")

    def counting(node, memo=None):
        text = real(node, memo if memo is None else _CountedMemo(memo, counts))
        if type(node) is Command:
            counts.append(0)
        return text

    def walked(n: int) -> list[int]:
        counts[:] = [0]
        res = run(Command(plus, Call(numeral(n), Call(numeral(3), CoVar("a0")))), CBV, trace=True)
        assert len(counts) == len(res.trace) + 1
        return counts[:-1]

    monkeypatch.setattr(machine, "pretty", counting)

    small, large = walked(50), walked(200)
    assert len(large) > len(small) + 400
    assert large[0] > small[0] > max(small[1:])
    assert set(small[1:]) == set(large[1:])


# ---------------------------------------------------------------------------
# Stream observation and forcing


def test_observe_zeroes(compilers):
    for s in (CBV, CBN):
        z = gt(compilers[s], "zeroes")
        assert observe_stream(z, 2, s) == 0


def test_observe_always_seven(compilers):
    from duality_vm.parser import App, NumLit, Ref
    from duality_vm.typechecker import EMPTY_ENV

    for s in (CBV, CBN):
        t = compilers[s].term(EMPTY_ENV, App(Ref("always"), NumLit(7)), None, "t")[1]
        assert observe_stream(t, 0, s) == 7


def test_observe_countdown(compilers):
    from duality_vm.parser import App, NumLit, Ref
    from duality_vm.typechecker import EMPTY_ENV

    for s in (CBV, CBN):
        t = compilers[s].term(EMPTY_ENV, App(Ref("countDown"), NumLit(5)), None, "t")[1]
        assert observe_stream(t, 2, s) == 3


def test_force_numeral_direct():
    assert force_numeral(numeral(2), CBV) == 2
    assert force_numeral(Zero(), CBN) == 0


def test_force_numeral_through_thunks(compilers):
    # A call-by-name run can stop at Succ over a suspended recursor; forcing
    # keeps counting through it.
    plus = gt(compilers[CBN], "plus")
    res = run(Command(plus, Call(numeral(2), Call(numeral(3), CoVar("a0")))), CBN)
    assert res.outcome == "Final"
    prod = res.final.producer
    assert isinstance(prod, Succ) and isinstance(prod.arg, Mu)
    assert force_numeral(prod, CBN) == 5


def test_force_numeral_rejects_non_numbers():
    with pytest.raises(ElementNotNatError):
        force_numeral(parse_term("fun x : Nat => x"), CBV)


def test_run_to_numeral_combines_costs(compilers):
    pred = gt(compilers[CBN], "pred")
    v, stats = run_to_numeral(Command(pred, Call(numeral(9), CoVar("a0"))), CBN)
    assert v == 8
    assert stats.count(RuleTag.BETA_SUCC) == 1


def test_observe_out_of_fuel(compilers):
    z = gt(compilers[CBV], "zeroes")
    with pytest.raises(OutOfFuelError):
        observe_stream(z, 50, CBV, fuel=10)


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
@pytest.mark.parametrize("name", ["nats", "zeroes"])
def test_observing_past_the_fuel_builds_no_tail_it_cannot_reach(compilers, name, s):
    # A step takes off one tail at most, so depth 10**7 at fuel 5 fails as
    # depth 6 does, and fast: the tails fuel cannot reach are not built.
    t = gt(compilers[s], name)
    failed = []
    for depth in (6, 10**7):
        start = time.perf_counter()
        with pytest.raises(OutOfFuelError) as ex:
            observe_stream(t, depth, s, fuel=5)
        assert time.perf_counter() - start < 1
        failed.append(ex.value)
    assert failed[0].stats == failed[1].stats
    assert str(failed[1]) == "stream observation at depth 10000000 ran out of fuel"


def test_tails_builder():
    e = tails(2, Head(CoVar("a0")))
    assert e == Tail(Tail(Head(CoVar("a0"))))


def _rule_sequence(cmd, s, cap=200):
    rules = []
    cur = cmd
    for _ in range(cap):
        out = step(cur, s)
        if not isinstance(out, Stepped):
            return rules, cur
        rules.append(out.rule)
        cur = out.next
    raise AssertionError("run did not settle")


def test_golden_application_traces():
    # The two strategies diverge at the third step: call-by-name discards
    # the inner application unevaluated, call-by-value computes it first.
    from duality_vm.surface import translate
    from duality_vm.typechecker import TypeEnv

    env = TypeEnv.make(vars={"x": Nat(), "y": Nat()})
    t = parse_term("(fun z : Nat => x) ((fun x : Nat => x) y)")
    R = RuleTag
    expected = {
        CBN: [R.MU, R.MU_TILDE, R.MU_TILDE, R.BETA_ARROW],
        CBV: [R.MU, R.MU_TILDE, R.MU, R.MU_TILDE, R.MU_TILDE, R.BETA_ARROW, R.MU_TILDE, R.BETA_ARROW],
    }
    for s, want in expected.items():
        rules, final = _rule_sequence(Command(translate(t, s, env=env), CoVar("a0")), s)
        assert rules == want
        assert pretty(final) == "<x | a0>"


def test_golden_zeroes_traces(compilers):
    # Third element of the all-zero stream: same rule count either way, but
    # call-by-value resolves each tail eagerly while call-by-name defers the
    # seed and unwinds it only once the head is reached.
    R = RuleTag
    expected = {
        CBV: [R.MU, R.BETA_ARROW, R.BETA_TAIL, R.MU, R.MU_TILDE,
              R.BETA_TAIL, R.MU, R.MU_TILDE, R.BETA_HEAD],
        CBN: [R.MU, R.BETA_ARROW, R.BETA_TAIL, R.MU_TILDE,
              R.BETA_TAIL, R.MU_TILDE, R.BETA_HEAD, R.MU, R.MU],
    }
    for s, want in expected.items():
        z = gt(compilers[s], "zeroes")
        rules, final = _rule_sequence(Command(z, tails(2, Head(CoVar("a0")))), s)
        assert rules == want
        assert pretty(final) == "<Z | a0>"


def test_trace_is_bounded_with_marker(compilers, monkeypatch):
    import duality_vm.machine as machine_mod

    assert machine_mod.TRACE_LIMIT == 10**4
    monkeypatch.setattr(machine_mod, "TRACE_LIMIT", 16)
    plus = gt(compilers[CBV], "plus")
    res = run(Command(plus, Call(numeral(9), Call(numeral(9), CoVar("a0")))), CBV, trace=True)
    assert res.stats.total > 16
    assert len(res.trace) == 16
    assert res.trace_truncated


# ---------------------------------------------------------------------------
# Forcing is one run


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _main(text, s):
    """A program's main compiled against the prelude, as perfbench compiles it."""

    pre = prelude()
    return Compiler(Program(pre.defs, Parser(text, pre.defs).program().main), s).main()[1]


def test_forcing_is_one_run_whose_stats_perfbench_counts(monkeypatch):
    # perfbench/spans.py takes a program's steps from the stats of each call
    # of machine.run, so forcing must return its steps through one such call.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pins

    table = pins.load()
    calls = []  # the steps of each run, taken as it returns, as spans.py takes them
    real = machine.run

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(Counter({t.value: n for t, n in res.stats.per_rule.items()}))
        return res

    monkeypatch.setattr(machine, "run", counted)

    def steps():
        return dict(sum(calls, Counter()))

    for s, forcings in ((CBV, 0), (CBN, 1)):
        cmd = _main("main = <plus | 5 . 5 . a0>;", s)
        calls.clear()
        res = machine.run(cmd, s)
        assert force_numeral(res.state[0], s) == 10 and len(calls) == 1 + forcings
        pinned = pins.expected_steps(table, "plus", s.value, {"n": 5, "m": 5})
        assert steps() == pinned
        calls.clear()  # run_to_numeral, as bench runs it, counts the same steps in one record
        value, stats = run_to_numeral(cmd, s)
        assert value == 10 and len(calls) == 1 + forcings and steps() == pinned
        assert {t.value: n for t, n in stats.per_rule.items()} == pinned
    calls.clear()
    assert observe_stream(_main("main = nats;", CBN), 5, CBN) == 5 and len(calls) == 2
    assert steps() == pins.expected_steps(table, "nats", "cbn", {"d": 5})


# ---------------------------------------------------------------------------
# run takes a well-formed command unchecked


def test_every_command_handed_to_run_is_well_formed(monkeypatch):
    # The benchmark experiments, forcing and stream observation on the
    # prelude, under both strategies, hand run only well-formed commands,
    # which is all its mu/comu test, one class test, is sound on.
    handed = []
    real = machine.run

    def checked(c, s, *args, **kwargs):
        if isinstance(c, Command):
            handed.append(well_formed(c, s))
        return real(c, s, *args, **kwargs)

    monkeypatch.setattr(machine, "run", checked)
    monkeypatch.setattr(bench, "run", checked)
    for s in (CBV, CBN):
        for name in bench.EXPERIMENTS:
            bench.run_experiment(name, s, [1, 2, 3])
        for main in ("<plus | 2 . 3 . a0>", "<times | 2 . 2 . a0>", "<pred | 3 . a0>", "<fact | 3 . a0>"):
            run_to_numeral(_main(f"main = {main};", s), s)
        for main in ("zeroes", "nats", "always 7", "repeat succ 2", "countDown 3", "countDown2 2",
                     "scons 7 nats", "countNow 3"):
            observe_stream(_main(f"main = {main};", s), 3, s)
    assert len(handed) > 50 and all(bad == [] for bad in handed)


def test_the_step_calls_no_classifier():
    assert not {"is_value", "is_covalue"} & set(machine._step.__code__.co_names)


# ---------------------------------------------------------------------------
# Messages


# A command outside the grammar never reaches the machine's side conditions:
# step is Stuck on well_formed's first violation, under both strategies where
# the command is outside both grammars.


def _refused(c, s, violations):
    assert well_formed(c, s) == violations
    assert step(c, s) == Stuck(str(violations[0]), c)


@pytest.mark.parametrize("text,s,path,message", [
    ("<mu a. <Z | a> | head (comu x. <x | a0>)>", CBN,
     "command.consumer.rest", "destructor tail must be a cbn covalue"),
    ("<S (mu a. <Z | a>) | comu x. <x | a0>>", CBV,
     "command.producer.arg", "successor argument must be a cbv value"),
])
def test_step_refuses_a_cut_the_strategy_forbids(text, s, path, message):
    _refused(parse_command(text), s, [Violation(path, message)])


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_a_node_of_the_wrong_sort_is_a_violation(s):
    # <mu a. <Z | a> | Z>: a term where the command's coterm belongs.
    cmd = Command(Mu("a", Command(Zero(), CoVar("a"))), Zero())
    _refused(cmd, s, [Violation("command.consumer", "Zero is not a coterm")])


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_a_front_end_node_is_a_violation_under_both_strategies(s):
    # A front-end App is in neither grammar, as the producer or under a successor.
    cmd = Command(App(Var("f"), Zero()), MuTilde("x", Command(Var("x"), CoVar("a0"))))
    _refused(cmd, s, [Violation("command.producer", "unknown node App")])
    under = Command(Succ(App(Var("f"), Zero())), CoVar("a0"))
    _refused(under, s, [Violation("command.producer.arg", "unknown node App")])
    # Under a binder, where firing the rule would read the App back.
    body = parse_command("<fun x => x x | Z . a0>")
    _refused(body, s, [Violation("command.producer.body", "unknown node App")])


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_observing_a_free_stream_variable_is_stuck(s):
    with pytest.raises(StuckError) as ex:
        observe_stream(Var("s"), 2, s)
    assert str(ex.value) == "free variable 's' in producer position"


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_run_to_numeral_out_of_fuel(s):
    with pytest.raises(OutOfFuelError) as ex:
        run_to_numeral(parse_command("<mu a. <mu b. <Z | b> | a> | a0>"), s, fuel=1)
    assert str(ex.value) == "run out of fuel"


# ---------------------------------------------------------------------------
# Running and forcing read no state back


# Branches that bind one name twice, and their twins with the first binder renamed.
SHADOWING = [
    "<2 | rec { Z -> Z | S x -> x. x } with a0>",
    "<2 | rec { Z -> Z | S p -> x. x } with a0>",
    "<corec { head h -> h | tail b -> b. b } with 3 | tail (tail (head a0))>",
    "<corec { head h -> h | tail q -> b. b } with 3 | tail (tail (head a0))>",
]


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_running_and_forcing_read_nothing_back(s, compilers, monkeypatch):
    calls = []
    real = machine.readback
    monkeypatch.setattr(machine, "readback", lambda c: calls.append(c) or real(c))
    got = [run_to_numeral(parse_command(text), s)[0] for text in SHADOWING]
    assert got == [0, 0, 3, 3]
    fact = gt(compilers[s], "fact")
    assert run_to_numeral(Command(fact, Call(numeral(3), CoVar("a0"))), s)[0] == 6
    assert observe_stream(gt(compilers[s], "nats"), 3, s) == 3
    corec = parse_term("corec { head h -> h | tail b -> b. b } with 3")
    assert observe_stream(corec, 2, s) == 3
    assert calls == []
    for fire in (machine._fire_mu, machine._fire_comu):
        assert "readback" not in fire.__code__.co_names
