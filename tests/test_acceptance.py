"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see every verdict.
Criteria 5 and 6 assert the specified call-by-name behavior literally; on
this machine the call-by-name halves fail (see the decisions ledger for
the analysis: the accumulated-seed unwinding discards the history, so the
relative cost of a stream wrapper falls instead of rising).
"""

import pytest

from duality_vm.bench import GrowthClass, classify, run_experiment
from duality_vm.duality import dual_command, dual_env, dual_rule, dual_strategy
from duality_vm.kernel import (
    CBN,
    CBV,
    Call,
    Command,
    CoVar,
    Head,
    Lam,
    Mu,
    Nat,
    alpha_eq,
    numeral,
    well_formed,
)
from duality_vm.machine import (
    RuleTag,
    Stepped,
    observe_stream,
    run,
    run_to_numeral,
    step,
    tails,
)
from duality_vm.parser import App, NumLit, Ref
from duality_vm.surface import (
    Compiler,
    encode_corec_via_coiter,
    encode_rec_via_iter,
    prelude,
    surface_force_numeral,
)
from duality_vm.typechecker import EMPTY_ENV, TypeEnv, check_command, elaborate_command

from generators import DualGen, TypedGen

NAT = Nat()
TOP = TypeEnv.make(covars={"a0": NAT})
FUEL = 10**6


def verdict(n, ok, text):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n}: {text}"


def applied(comp, name, *args):
    t = Ref(name)
    for a in args:
        t = App(t, NumLit(a))
    return comp.term(EMPTY_ENV, t, None, "t")[1]


# ---------------------------------------------------------------------------


def test_criterion_01_golden_plus_trace(compilers):
    plus = compilers[CBV].lookup_def("plus", "t")[1]
    cmd = Command(plus, Call(numeral(2), Call(numeral(3), CoVar("a0"))))
    res = run(cmd, CBV, FUEL)
    ok = (
        res.outcome == "Final"
        and alpha_eq(res.final, Command(numeral(5), CoVar("a0")))
        and res.stats.count(RuleTag.BETA_SUCC) == 2
        and res.stats.count(RuleTag.BETA_ZERO) == 1
        and res.stats.count(RuleTag.BETA_ARROW) == 2
    )
    verdict(1, ok, "plus 2 3 reaches <S (S 3) | a0> with exactly 2 BetaSucc, 1 BetaZero, 2 BetaArrow")


def test_criterion_02_pred_complexity(compilers):
    ok = True
    for n in range(1, 201):
        for s, succs in ((CBN, 1), (CBV, n)):
            pred = compilers[s].lookup_def("pred", "t")[1]
            v, stats = run_to_numeral(Command(pred, Call(numeral(n), CoVar("a0"))), s, FUEL)
            ok = ok and v == n - 1 and stats.count(RuleTag.BETA_SUCC) == succs
    verdict(2, ok, "pred n = n-1 for n in 1..200; BetaSucc count 1 under cbn, n under cbv")


def test_criterion_03_rec_via_iter_penalty(compilers):
    ok = True
    for s in (CBV, CBN):
        pred = compilers[s].lookup_def("pred", "t")[1]
        mu = pred.body
        enc_body = encode_rec_via_iter(mu.body.consumer, s)
        enc = Lam(pred.var, Mu(mu.covar, Command(mu.body.producer, enc_body), mu.annot), pred.annot)
        for n in range(0, 21):
            vn, _ = run_to_numeral(Command(pred, Call(numeral(n), CoVar("a0"))), s, FUEL)
            ve, stats = run_to_numeral(Command(enc, Call(numeral(n), CoVar("a0"))), s, FUEL)
            ok = ok and vn == ve and stats.count(RuleTag.BETA_SUCC) == n
        ok = ok and classify(run_experiment("pred-via-iter", s, list(range(1, 21)))) == GrowthClass.LINEAR
    verdict(3, ok, "encoded pred agrees with native on 0..20, BetaSucc = n and growth Linear in both strategies")


def test_criterion_04_stream_observation(compilers):
    ok = True
    for s in (CBV, CBN):
        comp = compilers[s]
        zeroes = comp.lookup_def("zeroes", "t")[1]
        nats = comp.lookup_def("nats", "t")[1]
        ok = ok and all(observe_stream(zeroes, k, s, FUEL) == 0 for k in range(11))
        ok = ok and all(observe_stream(nats, k, s, FUEL) == k for k in range(11))
        for n in range(0, 11):
            cd = applied(comp, "countDown", n)
            for k in range(0, 11):
                ok = ok and observe_stream(cd, k, s, FUEL) == max(n - k, 0)
    verdict(4, ok, "zeroes[k]=0, nats[k]=k, countDown n [k]=max(n-k,0) for n,k <= 10 in both strategies")


def _scons_relative_costs(s, sizes):
    comp = Compiler(prelude(), s)
    wrapped = comp.term(EMPTY_ENV, App(App(Ref("scons"), NumLit(1)), Ref("zeroes")), None, "t")[1]
    zeroes = comp.lookup_def("zeroes", "t")[1]
    out = []
    for n in sizes:
        a = run(Command(wrapped, tails(n + 1, Head(CoVar("a0")))), s, FUEL)
        b = run(Command(zeroes, tails(n, Head(CoVar("a0")))), s, FUEL)
        assert a.outcome == "Final" and b.outcome == "Final"
        out.append(a.stats.total - b.stats.total)
    return out


def test_criterion_05_scons_overhead():
    sizes = list(range(1, 31))
    cbv = _scons_relative_costs(CBV, sizes)
    cbn = _scons_relative_costs(CBN, sizes)
    cbv_ok = all(d == cbv[0] for d in cbv)
    d1 = [b - a for a, b in zip(cbn, cbn[1:])]
    cbn_ok = all(b > a for a, b in zip(cbn, cbn[1:])) and all(d == d1[0] for d in d1)
    ok = cbv_ok and cbn_ok
    verdict(
        5,
        ok,
        f"scons-over-zeroes relative cost: cbv constant ({'PASS' if cbv_ok else 'FAIL'}), "
        f"cbn strictly increasing with constant first difference ({'PASS' if cbn_ok else 'FAIL'}; "
        f"measured first differences {sorted(set(d1))}, e.g. {cbn[:5]})",
    )


def test_criterion_06_count_now_growth():
    sizes = list(range(2, 31))
    cbv_class = classify(run_experiment("count-now", CBV, sizes))
    cbn_class = classify(run_experiment("count-now", CBN, sizes))
    cbv_ok = cbv_class == GrowthClass.LINEAR
    cbn_ok = cbn_class == GrowthClass.QUADRATIC
    ok = cbv_ok and cbn_ok
    verdict(
        6,
        ok,
        f"countNow with n=m: cbv Linear ({'PASS' if cbv_ok else 'FAIL'}, got {cbv_class}), "
        f"cbn Quadratic ({'PASS' if cbn_ok else 'FAIL'}, got {cbn_class})",
    )


def test_criterion_07_corec_via_coiter_penalty(compilers):
    ok = True
    for s in (CBV, CBN):
        comp = compilers[s]
        scons = comp.lookup_def("scons", "t")[1]
        enc_body = encode_corec_via_coiter(scons.body.body, s)
        enc_fn = Lam(scons.var, Lam(scons.body.var, enc_body, scons.body.annot), scons.annot)
        for under in ("zeroes", "nats"):
            native = comp.term(EMPTY_ENV, App(App(Ref("scons"), NumLit(9)), Ref(under)), None, "t")[1]
            enc = comp.term(EMPTY_ENV, App(App(enc_fn, NumLit(9)), Ref(under)), None, "t")[1]
            for k in range(16):
                ok = ok and observe_stream(native, k, s, FUEL) == observe_stream(enc, k, s, FUEL)
    enc_curve = run_experiment("corec-via-coiter", CBV, list(range(1, 16)))
    enc_tails = [st.count(RuleTag.BETA_TAIL) for _, st in enc_curve.points]
    d1 = {b - a for a, b in zip(enc_tails, enc_tails[1:])}
    native_curve = run_experiment("scons-overhead", CBV, list(range(1, 16)))
    native_tails = {st.count(RuleTag.BETA_TAIL) for _, st in native_curve.points}
    ok = ok and d1 == {1} and len(native_tails) == 1
    verdict(7, ok, "encoded scons agrees with native to depth 15; cbv BetaTail overhead grows linearly vs native constant")


def corpus(comp):
    """Well-typed closed commands from every prelude program, inputs <= 10."""

    out = []
    for x, y in [(0, 0), (1, 2), (2, 3), (3, 1), (5, 4), (10, 10), (7, 2)]:
        out.append(Command(applied(comp, "plus", x, y), CoVar("a0")))
    for x, y in [(0, 3), (2, 2), (3, 4), (6, 5)]:
        out.append(Command(applied(comp, "times", x, y), CoVar("a0")))
    for n in [0, 1, 2, 5, 10]:
        out.append(Command(applied(comp, "pred", n), CoVar("a0")))
    for n in [0, 1, 3, 5, 6]:
        out.append(Command(applied(comp, "fact", n), CoVar("a0")))
    out.append(Command(applied(comp, "succ", 9), CoVar("a0")))
    obs = lambda t, k: Command(t, tails(k, Head(CoVar("a0"))))
    for k in [0, 3, 8]:
        out.append(obs(comp.lookup_def("zeroes", "t")[1], k))
        out.append(obs(comp.lookup_def("nats", "t")[1], k))
        out.append(obs(applied(comp, "always", 4), k))
        out.append(obs(applied(comp, "countDown", 6), k))
        out.append(obs(applied(comp, "countDown2", 6), k))
        out.append(obs(applied(comp, "countNow", 5), k))
        out.append(obs(comp.term(
            EMPTY_ENV, App(App(Ref("scons"), NumLit(7)), Ref("nats")), None, "t")[1], k))
    return out


def test_criterion_08_safety_and_termination(compilers):
    total = 0
    stuck = 0
    for s in (CBV, CBN):
        cmds = corpus(compilers[s])
        assert len(cmds) >= 25
        gen = TypedGen(424242)
        cmds += [gen.command(depth=6) for _ in range(500)]
        for c in cmds:
            assert well_formed(c, s) == []
            res = run(c, s, FUEL)
            total += 1
            if res.outcome != "Final":
                stuck += 1
    ok = stuck == 0
    verdict(8, ok, f"{total} corpus+fuzzed commands all reached a final state within fuel 10^6 ({stuck} failures)")


def test_criterion_09_subject_reduction(compilers):
    checked = 0
    ok = True
    for s in (CBV, CBN):
        comp = compilers[s]
        small = [
            Command(applied(comp, "plus", 2, 3), CoVar("a0")),
            Command(applied(comp, "times", 3, 3), CoVar("a0")),
            Command(applied(comp, "pred", 6), CoVar("a0")),
            Command(applied(comp, "fact", 4), CoVar("a0")),
            Command(applied(comp, "countNow", 4), tails(3, Head(CoVar("a0")))),
            Command(applied(comp, "countDown2", 4), tails(5, Head(CoVar("a0")))),
            Command(comp.lookup_def("nats", "t")[1], tails(4, Head(CoVar("a0")))),
        ]
        for c in small:
            cur = elaborate_command(TOP, c)
            while True:
                out = step(cur, s)
                if not isinstance(out, Stepped):
                    break
                cur = out.next
                try:
                    check_command(TOP, cur)
                except Exception:
                    ok = False
                    break
                checked += 1
    verdict(9, ok, f"type checking holds after each of {checked} machine steps across the corpus")


def test_criterion_10_duality(compilers):
    gen = DualGen(77)
    cases = []
    while len(cases) < 100:
        cmd, fv, fc = gen.command(depth=4)
        cases.append((cmd, TypeEnv.make(vars=fv, covars=fc)))
    inv = typ = lock = True
    for cmd, env in cases:
        cmd = elaborate_command(env, cmd)
        d = dual_command(cmd)
        if not alpha_eq(dual_command(d), cmd):
            inv = False
        try:
            check_command(dual_env(env), d)
        except Exception:
            typ = False
        for s in (CBV, CBN):
            if well_formed(cmd, s):
                continue
            c1, c2 = cmd, d
            for _ in range(3000):
                o1, o2 = step(c1, s), step(c2, dual_strategy(s))
                if not isinstance(o1, Stepped):
                    lock = lock and not isinstance(o2, Stepped)
                    break
                if not isinstance(o2, Stepped) or o2.rule != dual_rule(o1.rule) \
                        or not alpha_eq(dual_command(o1.next), o2.next):
                    lock = False
                    break
                c1, c2 = o1.next, o2.next
    ok = inv and typ and lock
    verdict(10, ok, f"{len(cases)} dualizable commands: involution {inv}, dual typing {typ}, lockstep {lock}")


def test_criterion_11_oracle_equivalence(compilers):
    ok = True
    runs = 0
    cases = [("plus", 2), ("times", 2), ("pred", 1), ("fact", 1)]
    for fname, arity in cases:
        import itertools

        for args in itertools.product(range(7), repeat=arity):
            src = Ref(fname)
            for a in args:
                src = App(src, NumLit(a))
            expected = surface_force_numeral(src, CBV, fuel=10**7, program=prelude())
            for s in (CBV, CBN):
                oracle = surface_force_numeral(src, s, fuel=10**7, program=prelude())
                t = compilers[s].term(EMPTY_ENV, src, None, "t")[1]
                got, _ = run_to_numeral(Command(t, CoVar("a0")), s, 10**7)
                ok = ok and oracle == expected == got
                runs += 1
    verdict(11, ok, f"reference interpreter and machine agree on {runs} arithmetic runs in both strategies")
