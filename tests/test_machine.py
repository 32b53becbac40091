"""Small-step machine: rule firing, runs, traces, observation, forcing."""

import json

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
    Zero,
    alpha_eq,
    numeral,
    pretty,
)
from duality_vm.machine import (
    ElementNotNatError,
    Final,
    OutOfFuelError,
    RuleTag,
    Stepped,
    Stuck,
    force_numeral,
    observe_stream,
    run,
    run_to_numeral,
    step,
    tails,
)
from duality_vm.parser import parse_command, parse_term
from duality_vm.surface import prelude
from duality_vm.typechecker import TypeEnv, elaborate_command

ENV = TypeEnv.make(covars={"a0": Nat()})


def gt(comp, name):
    return comp.lookup_def(name, name)[1]


# ---------------------------------------------------------------------------
# Single steps


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


def test_stats_total_is_sum_of_rules(compilers):
    plus = gt(compilers[CBV], "plus")
    res = run(Command(plus, Call(numeral(4), Call(numeral(2), CoVar("a0")))), CBV)
    assert res.stats.total == sum(res.stats.per_rule.values())
    assert res.stats.fuel_used == res.stats.total


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
