"""Deterministic small-step execution of commands.

Each step fires the unique applicable rule; value/covalue side conditions
make the rules mutually exclusive, so no rule ordering is needed.  A run
iterates steps until a final state (a number constructor meeting a bare
covariable), a stuck state, or fuel exhaustion, and keeps per-rule
counters the whole way.  Streams are observed by cutting them against a
tower of tail projections over a head projection; call-by-name results
may park thunks under successors, so numeral forcing restarts the machine
on demand.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from .kernel import (
    CBN,
    CBV,
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

DEFAULT_FUEL = 10**6
TRACE_LIMIT = 10**4


class RuleTag(enum.Enum):
    MU = "Mu"
    MU_TILDE = "MuTilde"
    BETA_ARROW = "BetaArrow"
    BETA_ZERO = "BetaZero"
    BETA_SUCC = "BetaSucc"
    BETA_HEAD = "BetaHead"
    BETA_TAIL = "BetaTail"
    BETA_FST = "BetaFst"
    BETA_SND = "BetaSnd"
    BETA_INL = "BetaInL"
    BETA_INR = "BetaInR"
    BETA_NUM_ZERO = "BetaNumZero"
    BETA_NUM_SUCC = "BetaNumSucc"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Stepped:
    next: Command
    rule: RuleTag


@dataclass(frozen=True)
class Final:
    """The command delivers Zero or a successor to a bare covariable."""

    shape: str  # "Zero" | "Succ"
    covar: str
    command: Command


@dataclass(frozen=True)
class Stuck:
    reason: str
    command: Command


StepOutcome = Stepped | Final | Stuck


class MachineError(Exception):
    pass


class OutOfFuelError(MachineError):
    pass


class StuckError(MachineError):
    pass


class ElementNotNatError(MachineError):
    pass


def step(c: Command, s: Strategy) -> StepOutcome:
    """Apply the unique rule enabled on c under s, or report Final/Stuck."""

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
            return Stepped(_beta_succ(arg, e), RuleTag.BETA_SUCC)
        case (NumZero(arg), RecNum(ret=ret)) if is_value(arg, s) and is_covalue(ret, s):
            out = Command(subst(e.zero_body, {e.payload_var: arg}, None), ret)
            return Stepped(out, RuleTag.BETA_NUM_ZERO)
        case (NumSucc(arg), RecNum(ret=ret)) if is_value(arg, s) and is_covalue(ret, s):
            return Stepped(_beta_succ(arg, e), RuleTag.BETA_NUM_SUCC)
        case (CoRec(), Head(rest)) if is_value(v.seed, s) and is_covalue(rest, s):
            out = Command(v.seed, subst(v.head_body, None, {v.head_covar: rest}))
            return Stepped(out, RuleTag.BETA_HEAD)
        case (CoRec(), Tail(rest)) if is_value(v.seed, s) and is_covalue(rest, s):
            return Stepped(_beta_tail(v, rest), RuleTag.BETA_TAIL)
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

    return Stuck(_stuck_reason(c, s), c)


def _beta_succ(pred: Term, r: RecNat | RecNum) -> Command:
    """Successor case of both recursors: restart the recursor on the
    predecessor, binding the recursive result with a comu so the strategy
    decides what runs first."""

    a = fresh_name(r.free_covars | pred.free_covars, "a")
    restarted = replace(r, ret=CoVar(a))
    left = Mu(a, Command(pred, restarted), r.annot)
    y = r.result_var
    vmap: dict[str, Term] = {r.pred_var: pred}
    if y in pred.free_vars or y in r.ret.free_vars:
        y = fresh_name(pred.free_vars | r.ret.free_vars | r.succ_body.free_vars, y)
        vmap[r.result_var] = Var(y)
    w = subst(r.succ_body, vmap, None)
    right = MuTilde(y, Command(w, r.ret), r.annot)
    return Command(left, right)


def _beta_tail(cr: CoRec, rest: CoTerm) -> Command:
    """Tail case: update the seed under a mu while rebuilding the corecursor
    on the rest of the projection, dual to the successor case."""

    g = cr.tail_seed_covar
    cmap: dict[str, CoTerm] = {cr.tail_covar: rest}
    if g in rest.free_covars or g in cr.seed.free_covars:
        g = fresh_name(rest.free_covars | cr.seed.free_covars | cr.tail_body.free_covars, g)
        cmap[cr.tail_seed_covar] = CoVar(g)
    f = subst(cr.tail_body, None, cmap)
    left = Mu(g, Command(cr.seed, f), cr.seed_annot)
    x = fresh_name(cr.free_vars | rest.free_vars, "x")
    right = MuTilde(x, Command(replace(cr, seed=Var(x)), rest), cr.seed_annot)
    return Command(left, right)


def _stuck_reason(c: Command, s: Strategy) -> str:
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


# ---------------------------------------------------------------------------
# Runs


@dataclass(frozen=True)
class TraceEntry:
    index: int
    rule: RuleTag
    command_text: str

    def to_json(self) -> dict:
        return {"i": self.index, "rule": self.rule.value, "cmd": self.command_text}


@dataclass
class RunStats:
    per_rule: dict[RuleTag, int] = field(default_factory=dict)
    total: int = 0
    fuel_used: int = 0
    outcome: str = "OutOfFuel"  # "Final" | "OutOfFuel" | "Stuck"
    final_shape: str | None = None
    stuck_reason: str | None = None

    def count(self, tag: RuleTag) -> int:
        return self.per_rule.get(tag, 0)

    def absorb(self, other: "RunStats") -> None:
        for tag, n in other.per_rule.items():
            self.per_rule[tag] = self.per_rule.get(tag, 0) + n
        self.total += other.total
        self.fuel_used += other.fuel_used

    def to_json(self) -> dict:
        per = {tag.value: n for tag, n in sorted(self.per_rule.items(), key=lambda kv: kv[0].value)}
        return {"outcome": self.outcome, "total": self.total, "perRule": per}


@dataclass
class RunResult:
    stats: RunStats
    final: Command | None
    trace: list[TraceEntry] | None = None
    trace_truncated: bool = False

    @property
    def outcome(self) -> str:
        return self.stats.outcome


def run(
    c: Command,
    s: Strategy,
    fuel: int = DEFAULT_FUEL,
    trace: bool = False,
) -> RunResult:
    """Iterate step until Final, Stuck, or the fuel is spent."""

    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    stats = RunStats()
    entries: list[TraceEntry] | None = [] if trace else None
    truncated = False
    cur = c
    for i in range(fuel + 1):
        out = step(cur, s)
        if isinstance(out, Final):
            stats.outcome = "Final"
            stats.final_shape = out.shape
            return RunResult(stats, cur, entries, truncated)
        if isinstance(out, Stuck):
            stats.outcome = "Stuck"
            stats.stuck_reason = out.reason
            return RunResult(stats, cur, entries, truncated)
        if i == fuel:  # fuel spent: this step() only looked for a final or stuck state
            break
        cur = out.next
        stats.per_rule[out.rule] = stats.per_rule.get(out.rule, 0) + 1
        stats.total += 1
        stats.fuel_used += 1
        if entries is not None:
            if len(entries) < TRACE_LIMIT:
                entries.append(TraceEntry(stats.total, out.rule, pretty(cur)))
            else:
                truncated = True
    stats.outcome = "OutOfFuel"
    return RunResult(stats, None, entries, truncated)


def force_numeral(v: Term, s: Strategy, fuel: int = DEFAULT_FUEL, stats: RunStats | None = None) -> int:
    """Count successors down to Zero, restarting suspended computations.

    Under call-by-name a successor's argument may be a mu-abstraction; it
    is run against a fresh covariable and the count continues from the
    resulting constructor.  When a stats record is given, the steps taken
    by those restarts are added to it, so the full cost of producing the
    observable number is accounted for.
    """

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
                budget -= res.stats.fuel_used
                if stats is not None:
                    stats.absorb(res.stats)
                t = res.final.producer
            case _:
                raise ElementNotNatError(
                    f"cannot force {type(t).__name__} to a numeral"
                )


def run_to_numeral(c: Command, s: Strategy, fuel: int = DEFAULT_FUEL) -> tuple[int, RunStats]:
    """Run to a final state and force the delivered number all the way down;
    the returned stats cover both phases."""

    res = run(c, s, fuel)
    if res.outcome == "OutOfFuel":
        raise OutOfFuelError("run out of fuel")
    if res.outcome == "Stuck":
        raise StuckError(res.stats.stuck_reason or "stuck")
    value = force_numeral(res.final.producer, s, fuel - res.stats.fuel_used, res.stats)
    return value, res.stats


def observe_stream(v: Term, depth: int, s: Strategy, fuel: int = DEFAULT_FUEL) -> int:
    """Element at the given depth: run < v | tail^depth (head a0) >."""

    if depth < 0:
        raise ValueError("depth must be nonnegative")
    a = fresh_name(v.free_covars, "a0")
    res = run(Command(v, tails(depth, Head(CoVar(a)))), s, fuel)
    if res.outcome == "OutOfFuel":
        raise OutOfFuelError(f"stream observation at depth {depth} ran out of fuel")
    if res.outcome == "Stuck":
        raise StuckError(res.stats.stuck_reason or "stuck while observing")
    return force_numeral(res.final.producer, s, fuel - res.stats.fuel_used)


def tails(depth: int, inner: CoTerm) -> CoTerm:
    """tail^depth applied over inner."""

    e = inner
    for _ in range(depth):
        e = Tail(e)
    return e
