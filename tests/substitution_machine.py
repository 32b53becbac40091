"""Reference copy of the substitution machine, for the lockstep tests.

This is the machine as it stood before it ran closures: each rule
rewrites the whole command with ``kernel.subst``, a run iterates ``step``
on commands, and forcing restarts a run on each suspended successor
argument.  Where a branch binds one name twice, its successor and tail
rules let the later binder shadow the earlier, as the machine does.
``tests/test_machine_lockstep.py`` checks that
``duality_vm.machine`` prints, counts and answers exactly as this does.
It keeps every value/covalue side condition on purpose: the machine's
beta rules test none, and the lockstep tests compare that machine with
this one, which still checks the grammar at each rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from duality_vm.kernel import (
    Call,
    Command,
    CoRec,
    CoTerm,
    CoVar,
    Fst,
    Head,
    InL,
    InR,
    Lam,
    Mu,
    MuTilde,
    NumSucc,
    NumZero,
    Pair,
    RecNat,
    RecNum,
    Snd,
    Strategy,
    Succ,
    SumCase,
    Tail,
    Term,
    Var,
    Zero,
    fresh_name,
    is_covalue,
    is_value,
    pretty,
    subst,
    subst_covar,
    subst_var,
)
from duality_vm import machine
from duality_vm.machine import (
    DEFAULT_FUEL,
    ElementNotNatError,
    Final,
    OutOfFuelError,
    RuleTag,
    RunStats,
    Stepped,
    Stuck,
    StuckError,
    TraceEntry,
)


def step(c: Command, s: Strategy):
    v = c.producer
    e = c.consumer

    if isinstance(v, Mu) and is_covalue(e, s):
        return Stepped(subst_covar(v.body, v.covar, e), RuleTag.MU)
    if isinstance(e, MuTilde) and is_value(v, s):
        return Stepped(subst_var(e.body, e.var, v), RuleTag.MU_TILDE)

    match (v, e):
        case (Lam(), Call(arg, rest)) if is_value(arg, s) and is_covalue(rest, s):
            return Stepped(Command(subst(v.body, {v.var: arg}, None), rest), RuleTag.BETA_ARROW)
        case (Zero(), RecNat(ret=ret)) if is_covalue(ret, s):
            return Stepped(Command(e.zero_body, ret), RuleTag.BETA_ZERO)
        case (Succ(arg), RecNat(ret=ret)) if is_value(arg, s) and is_covalue(ret, s):
            return Stepped(beta_succ(arg, e), RuleTag.BETA_SUCC)
        case (NumZero(arg), RecNum(ret=ret)) if is_value(arg, s) and is_covalue(ret, s):
            out = Command(subst(e.zero_body, {e.payload_var: arg}, None), ret)
            return Stepped(out, RuleTag.BETA_NUM_ZERO)
        case (NumSucc(arg), RecNum(ret=ret)) if is_value(arg, s) and is_covalue(ret, s):
            return Stepped(beta_succ(arg, e), RuleTag.BETA_NUM_SUCC)
        case (CoRec(), Head(rest)) if is_value(v.seed, s) and is_covalue(rest, s):
            out = Command(v.seed, subst(v.head_body, None, {v.head_covar: rest}))
            return Stepped(out, RuleTag.BETA_HEAD)
        case (CoRec(), Tail(rest)) if is_value(v.seed, s) and is_covalue(rest, s):
            return Stepped(beta_tail(v, rest), RuleTag.BETA_TAIL)
        case (Pair(l, _), Fst(rest)) if is_covalue(rest, s):
            return Stepped(Command(l, rest), RuleTag.BETA_FST)
        case (Pair(_, r), Snd(rest)) if is_covalue(rest, s):
            return Stepped(Command(r, rest), RuleTag.BETA_SND)
        case (InL(arg), SumCase(left, _)):
            return Stepped(Command(arg, left), RuleTag.BETA_INL)
        case (InR(arg), SumCase(_, right)):
            return Stepped(Command(arg, right), RuleTag.BETA_INR)

    if isinstance(e, CoVar):
        if isinstance(v, Zero):
            return Final("Zero", e.name, c)
        if isinstance(v, Succ) and is_value(v, s):
            return Final("Succ", e.name, c)

    return Stuck(stuck_reason(c, s), c)


def beta_succ(pred: Term, r: RecNat | RecNum) -> Command:
    a = fresh_name(r.free_covars | pred.free_covars, "a")
    restarted = replace(r, ret=CoVar(a))
    left = Mu(a, Command(pred, restarted), r.annot)
    y = r.result_var
    vmap: dict[str, Term] = {} if r.pred_var == y else {r.pred_var: pred}
    if y in pred.free_vars or y in r.ret.free_vars:
        y = fresh_name(pred.free_vars | r.ret.free_vars | r.succ_body.free_vars, y)
        vmap[r.result_var] = Var(y)
    w = subst(r.succ_body, vmap, None)
    right = MuTilde(y, Command(w, r.ret), r.annot)
    return Command(left, right)


def beta_tail(cr: CoRec, rest: CoTerm) -> Command:
    g = cr.tail_seed_covar
    cmap: dict[str, CoTerm] = {} if cr.tail_covar == g else {cr.tail_covar: rest}
    if g in rest.free_covars or g in cr.seed.free_covars:
        g = fresh_name(rest.free_covars | cr.seed.free_covars | cr.tail_body.free_covars, g)
        cmap[cr.tail_seed_covar] = CoVar(g)
    f = subst(cr.tail_body, None, cmap)
    left = Mu(g, Command(cr.seed, f), cr.seed_annot)
    x = fresh_name(cr.free_vars | rest.free_vars, "x")
    right = MuTilde(x, Command(replace(cr, seed=Var(x)), rest), cr.seed_annot)
    return Command(left, right)


def stuck_reason(c: Command, s: Strategy) -> str:
    v, e = c.producer, c.consumer
    if isinstance(v, Var):
        return f"free variable {v.name!r} in producer position"
    if isinstance(e, CoVar):
        return f"producer {type(v).__name__} delivered to covariable {e.name!r} is not a number"
    if isinstance(v, Mu):
        return f"mu against a non-covalue consumer under {s.value}"
    if isinstance(e, MuTilde):
        return f"comu against a non-value producer under {s.value}"
    return f"no rule for {type(v).__name__} against {type(e).__name__}"


@dataclass
class Result:
    stats: RunStats
    final: Command | None
    trace: list[TraceEntry] | None = None
    trace_truncated: bool = False

    @property
    def outcome(self) -> str:
        return self.stats.outcome


def run(c: Command, s: Strategy, fuel: int = DEFAULT_FUEL, trace: bool = False) -> Result:
    stats = RunStats()
    entries: list[TraceEntry] | None = [] if trace else None
    truncated = False
    cur = c
    for i in range(fuel + 1):
        out = step(cur, s)
        if isinstance(out, Final):
            stats.outcome = "Final"
            return Result(stats, cur, entries, truncated)
        if isinstance(out, Stuck):
            stats.outcome = "Stuck"
            stats.stuck_reason = out.reason
            return Result(stats, cur, entries, truncated)
        if i == fuel:
            break
        cur = out.next
        stats.per_rule[out.rule] = stats.per_rule.get(out.rule, 0) + 1
        stats.total += 1
        if entries is not None:
            if len(entries) < machine.TRACE_LIMIT:
                entries.append(TraceEntry(stats.total, out.rule, pretty(cur)))
            else:
                truncated = True
    stats.outcome = "OutOfFuel"
    return Result(stats, None, entries, truncated)


def force_numeral(v: Term, s: Strategy, fuel: int = DEFAULT_FUEL, stats: RunStats | None = None) -> int:
    budget = fuel
    n = 0
    t = v
    while True:
        match t:
            case Zero():
                return n
            case Succ(arg):
                n += 1
                t = arg
            case Mu():
                a = fresh_name(t.free_covars, "a0")
                res = run(Command(t, CoVar(a)), s, budget)
                if res.outcome == "OutOfFuel":
                    raise OutOfFuelError(f"forcing ran out of fuel after {n} successors")
                if res.outcome == "Stuck":
                    raise StuckError(res.stats.stuck_reason or "stuck while forcing")
                budget -= res.stats.total
                if stats is not None:
                    stats.absorb(res.stats)
                t = res.final.producer
            case _:
                raise ElementNotNatError(f"cannot force {type(t).__name__} to a numeral")
