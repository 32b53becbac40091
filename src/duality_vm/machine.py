"""Deterministic small-step execution of commands, on closures.

Each step fires the unique applicable rule; value/covalue side conditions
make the rules mutually exclusive, so no rule ordering is needed.  A run
iterates steps until a final state (a number constructor meeting a bare
covariable), a stuck state, or fuel exhaustion, and keeps per-rule
counters the whole way.  Streams are observed by cutting them against a
tower of tail projections over a head projection.

The machine runs closures, not substitutions: it is the environment
machine that Ariola, Bohannon and Sabry derive for this calculus
("Sequent calculi and abstract machines", TOPLAS 2009).

* Closures.  A state is a producer closure cut against a consumer
  closure.  A closure pairs code (a term or coterm node) with two
  environments, which map its free variables and its free covariables
  to closures.  A rule that binds a name copies one environment with the
  name added, so a step costs the same whatever the size of the command
  it stands for.  A name is looked up when a closure is made for it; an
  unbound covariable is the top-level continuation, and an unbound
  variable is stuck.
* Classification reads the code's cached bit through ``is_value`` and
  ``is_covalue``.  That is sound because call-by-value binds variables
  only to values and call-by-name binds covariables only to covalues,
  and ``Var`` and ``CoVar`` carry the bit True.
* Frames.  BetaSucc and BetaNumSucc leave a mu cut against a comu over
  (predecessor, recursor), and BetaTail one over (corecursor, rest).  The
  two halves stay unbuilt until one fires as the mu or comu it stands
  for.  The recursor rebuilt on its new return, and the corecursor on its
  new seed, bind it under a name no program can spell.  Where a branch
  binds one name twice, the later binder (the result, the new seed)
  shadows the earlier, as in typing, ``alpha_eq`` and substitution.
* Read-back turns a closure into the term it stands for: its code with
  the read-back images of its bound free names substituted in, or for a
  half, ``_beta_succ`` or ``_beta_tail`` on the read-back parts, so the
  names those invent come out as before.  ``step`` and traces read back,
  and ``RunResult.final`` is read back when first asked for; ``run``,
  ``run_to_numeral`` and ``observe_stream`` read nothing back.  A traced
  run prints each closure's read-back once, so a line costs the closures
  the step built, plus joining the texts of the rest.
* A read-back state is the command a substitution machine reaches, up to
  the names of bound (co)variables.  It is that command byte for byte
  unless substitution renamed a binder, which needs a binder named like a
  free name of the command (``a0`` in a program answering on ``a0``):
  substitution renames one binding at a time and read-back all of a
  closure's at once, so they can pick other fresh names.  Free names,
  rule counts, stuck reasons and forced numbers never differ, and neither
  does ``step``, whose states bind one name each.
* Forcing.  Call-by-name answers may park suspended computations under
  successors.  ``force_numeral`` counts the successors it sees and calls
  ``run`` once, at the first suspended one, cut against a ``_Restart``.
  In that run a number meeting a bare covariable ends a restart: its
  successors are counted and the same loop, stats and fuel go on from the
  next suspended one, against a new ``_Restart``.  A ``_Restart`` reads
  back as the covariable a substitution machine restarts on, for the
  message of a forcing stuck on it, the one time forcing reads back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

from .kernel import (
    Call, Command, CoRec, CoTerm, CoVar, Fst, Head, InL, InR, Lam, Mu, MuTilde, NumSucc, NumZero,
    Pair, RecNat, RecNum, Snd, Strategy, Succ, SumCase, Tail, Term, Var, Zero,
    fresh_name, is_covalue, is_value, pretty, subst,
    # Not called here; perfbench/spans.py rebinds both names in this module.
    subst_covar, subst_var,
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

    # Members are singletons, so identity hashing is sound, and it keeps
    # the per-step count out of Enum's Python-level __hash__.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class Stepped(NamedTuple):
    next: Command
    rule: RuleTag


class Final(NamedTuple):
    """The command delivers Zero or a successor to a bare covariable."""

    shape: str  # "Zero" | "Succ"
    covar: str
    command: Command


class Stuck(NamedTuple):
    reason: str
    command: Command


StepOutcome = Stepped | Final | Stuck


class MachineError(Exception):
    """A failed run or forcing.  ``stats`` holds what it spent, with the
    failure's outcome: the run's steps and those of the forcing restarts
    that completed.  It is None where no run failed."""

    def __init__(self, message: str, stats: RunStats | None = None):
        super().__init__(message)
        self.stats = stats


class OutOfFuelError(MachineError):
    pass


class StuckError(MachineError):
    pass


class ElementNotNatError(MachineError):
    pass


# ---------------------------------------------------------------------------
# Closures


# Names no program can spell: _HOLE binds a rebuilt recursor return or
# corecursor seed, _TOP is the code of a forcing run's continuations (_Restart).
_HOLE = "\x00"
_HOLE_VAR, _HOLE_COVAR = Var(_HOLE), CoVar(_HOLE)
_TOP = CoVar("\x00a0")
_NO: dict = {}  # the empty environment; environments are copied, never changed


class Clo:
    """A term or coterm's code with the closures its free variables (vs) and
    covariables (cs) are bound to; ``back`` keeps its read-back."""

    __slots__ = ("code", "vs", "cs", "back")

    def __init__(self, code, vs: dict, cs: dict):
        self.code = code
        self.vs = vs
        self.cs = cs
        self.back = None

    def parts(self) -> list[Clo]:
        code, vs, cs = self.code, self.vs, self.cs
        return [vs[x] for x in code.free_vars if x in vs] + [cs[a] for a in code.free_covars if a in cs]

    def build(self):
        code, vs, cs = self.code, self.vs, self.cs
        vm = {x: vs[x].back for x in code.free_vars if x in vs}
        cm = {a: cs[a].back for a in code.free_covars if a in cs}
        return subst(code, vm, cm) if vm or cm else code


def _close(code, vs: dict, cs: dict) -> Clo:
    """The closure of code, or the closure its name is bound to."""

    cls = type(code)
    if cls is Var:
        got = vs.get(code.name)
        if got is not None:
            return got
    elif cls is CoVar:
        got = cs.get(code.name)
        if got is not None:
            return got
    return Clo(code, vs, cs)


class _Frame:
    """What BetaSucc and BetaNumSucc leave, over (predecessor, recursor), or
    BetaTail, over (corecursor, rest): a mu cut against a comu, as two
    halves that fire without being built."""

    __slots__ = ("x", "y", "succ", "back")

    def __init__(self, x: Clo, y: Clo, succ: bool):
        self.x = x
        self.y = y
        self.succ = succ
        self.back = None

    def command(self) -> Command:
        if self.back is None:
            rule = _beta_succ if self.succ else _beta_tail
            self.back = rule(self.x.back, self.y.back)
        return self.back


# What the halves classify as: a mu, never a call-by-value value, and a
# comu, never a call-by-name covalue.
_PENDING_MU = Mu(_HOLE, Command(Zero(), _TOP))
_PENDING_COMU = MuTilde(_HOLE, Command(Zero(), _TOP))


class _Half(Clo):
    __slots__ = ("frame",)
    mark: Term | CoTerm  # the code it classifies as

    def __init__(self, frame: _Frame):
        Clo.__init__(self, self.mark, _NO, _NO)
        self.frame = frame

    def parts(self) -> list[Clo]:
        return [self.frame.x, self.frame.y]


class _PendingMu(_Half):
    __slots__ = ()
    mark = _PENDING_MU

    def build(self):
        return self.frame.command().producer

    def fire(self, e: Clo) -> tuple[Clo, Clo]:
        """The mu half cut against e."""

        f = self.frame
        if f.succ:  # <pred | the recursor returning to e>
            rec = f.y
            return f.x, Clo(_rebuilt(rec.code, "ret", _HOLE_COVAR), rec.vs, {**rec.cs, _HOLE: e})
        cr, code = f.x, f.x.code  # <seed | tail body, the new seed going to e>
        cs = {**cr.cs, code.tail_covar: f.y, code.tail_seed_covar: e}
        return _close(code.seed, cr.vs, cr.cs), _close(code.tail_body, cr.vs, cs)


class _PendingComu(_Half):
    __slots__ = ()
    mark = _PENDING_COMU

    def build(self):
        return self.frame.command().consumer

    def fire(self, v: Clo) -> tuple[Clo, Clo]:
        """The comu half taking v."""

        f = self.frame
        if f.succ:  # <succ body, v the recursive result | return>
            rec, code = f.y, f.y.code
            vs = {**rec.vs, code.pred_var: f.x, code.result_var: v}
            return _close(code.succ_body, vs, rec.cs), _close(code.ret, rec.vs, rec.cs)
        cr = f.x  # <the corecursor seeded with v | rest>
        return Clo(_rebuilt(cr.code, "seed", _HOLE_VAR), {**cr.vs, _HOLE: v}, cr.cs), f.y


# A memo: a recursor or corecursor code is rebuilt on each entry, once per
# call of the function it recurses in, while a run enters only a few codes.
# A hit is the node a miss would build, so callers cannot tell it is shared.
# Each entry keeps its node alive, so it is kept small.
_REBUILT: dict[int, tuple] = {}
_REBUILT_MAX = 64


def _rebuilt(node, field: str, hole):
    """node with hole (the name _HOLE) for its field, kept by the identity of
    node; the entry holds node, so its identity is not reused while kept.  A
    code rebuilt once already is its own rebuild."""

    if getattr(node, field) is hole:
        return node
    hit = _REBUILT.get(id(node))
    if hit is None:
        if len(_REBUILT) >= _REBUILT_MAX:
            _REBUILT.clear()
        hit = _REBUILT[id(node)] = (node, replace(node, **{field: hole}))
    return hit[1]


def readback(c: Clo, memo: dict | None = None):
    """The term or coterm c stands for: its code with the read-back of each
    closure its free names are bound to substituted in; for a half, the
    substitution rule (_beta_succ, _beta_tail) on the read-back parts.  An
    explicit stack walks the closures, and each keeps its result.

    A traced run passes its memo (see ``pretty``): then each closure's
    read-back is also printed into it, once per run and after its parts'.
    Substitution and the rules put a part's read-back into the whole
    uncopied, so printing a closure walks only its own code."""

    todo = [c]
    while todo:
        top = todo[-1]
        if top.back is not None and (memo is None or id(top.back) in memo):
            todo.pop()
            continue
        missing = [d for d in top.parts() if d.back is None or memo is not None and id(d.back) not in memo]
        if missing:
            todo.extend(missing)
            continue
        todo.pop()
        if top.back is None:
            top.back = top.build()
        if memo is not None:
            memo[id(top.back)] = (top.back, pretty(top.back, memo))
    return c.back


class _Restart(Clo):
    """The continuation a forcing run restarts start against.  It reads back
    as the covariable a substitution machine would restart on: the first
    of a0, a01, ... not free in start's read-back."""

    __slots__ = ("start",)

    def __init__(self, start: Clo):  # one per restart: no call of Clo.__init__
        self.code, self.vs, self.cs, self.back, self.start = _TOP, _NO, _NO, None, start

    def parts(self) -> list[Clo]:
        return [self.start]

    def build(self):
        return CoVar(fresh_name(self.start.back.free_covars, "a0"))


State = tuple[Clo, Clo]


def _inject(c: Command) -> State:
    return _close(c.producer, _NO, _NO), _close(c.consumer, _NO, _NO)


def _command(state: State, memo: dict | None = None) -> Command:
    return Command(readback(state[0], memo), readback(state[1], memo))


def _step(p: Clo, e: Clo, s: Strategy):
    """(rule, producer, consumer) after the rule enabled on the state, or
    None if there is none."""

    v, k = p.code, e.code
    tv, tk = type(v), type(k)
    if tv is Mu and is_covalue(k, s):
        if type(p) is Clo:
            cs = {**p.cs, v.covar: e}
            return RuleTag.MU, _close(v.body.producer, p.vs, cs), _close(v.body.consumer, p.vs, cs)
        return (RuleTag.MU, *p.fire(e))
    if tk is MuTilde and is_value(v, s):
        if type(e) is Clo:
            vs = {**e.vs, k.var: p}
            return RuleTag.MU_TILDE, _close(k.body.producer, vs, e.cs), _close(k.body.consumer, vs, e.cs)
        return (RuleTag.MU_TILDE, *e.fire(p))

    if tv is Lam:
        if tk is Call and is_value(k.arg, s) and is_covalue(k.rest, s):
            vs = {**p.vs, v.var: _close(k.arg, e.vs, e.cs)}
            return RuleTag.BETA_ARROW, _close(v.body, vs, p.cs), _close(k.rest, e.vs, e.cs)
    elif tv is Zero:
        if tk is RecNat and is_covalue(k.ret, s):
            return RuleTag.BETA_ZERO, _close(k.zero_body, e.vs, e.cs), _close(k.ret, e.vs, e.cs)
    elif tv is Succ:
        if tk is RecNat and is_value(v.arg, s) and is_covalue(k.ret, s):
            f = _Frame(_close(v.arg, p.vs, p.cs), e, True)
            return RuleTag.BETA_SUCC, _PendingMu(f), _PendingComu(f)
    elif tv is NumZero:
        if tk is RecNum and is_value(v.arg, s) and is_covalue(k.ret, s):
            vs = {**e.vs, k.payload_var: _close(v.arg, p.vs, p.cs)}
            return RuleTag.BETA_NUM_ZERO, _close(k.zero_body, vs, e.cs), _close(k.ret, e.vs, e.cs)
    elif tv is NumSucc:
        if tk is RecNum and is_value(v.arg, s) and is_covalue(k.ret, s):
            f = _Frame(_close(v.arg, p.vs, p.cs), e, True)
            return RuleTag.BETA_NUM_SUCC, _PendingMu(f), _PendingComu(f)
    elif tv is CoRec:
        if tk is Head and is_value(v.seed, s) and is_covalue(k.rest, s):
            cs = {**p.cs, v.head_covar: _close(k.rest, e.vs, e.cs)}
            return RuleTag.BETA_HEAD, _close(v.seed, p.vs, p.cs), _close(v.head_body, p.vs, cs)
        if tk is Tail and is_value(v.seed, s) and is_covalue(k.rest, s):
            f = _Frame(p, _close(k.rest, e.vs, e.cs), False)
            return RuleTag.BETA_TAIL, _PendingMu(f), _PendingComu(f)
    elif tv is Pair:
        if tk is Fst and is_covalue(k.rest, s):
            return RuleTag.BETA_FST, _close(v.left, p.vs, p.cs), _close(k.rest, e.vs, e.cs)
        if tk is Snd and is_covalue(k.rest, s):
            return RuleTag.BETA_SND, _close(v.right, p.vs, p.cs), _close(k.rest, e.vs, e.cs)
    elif tv is InL:
        if tk is SumCase:
            return RuleTag.BETA_INL, _close(v.arg, p.vs, p.cs), _close(k.left, e.vs, e.cs)
    elif tv is InR:
        if tk is SumCase:
            return RuleTag.BETA_INR, _close(v.arg, p.vs, p.cs), _close(k.right, e.vs, e.cs)
    return None


def _final_shape(p: Clo, e: Clo, s: Strategy) -> str | None:
    """"Zero" or "Succ" if a number meets the top-level continuation (a
    covariable no binder has bound), else None."""

    if type(e.code) is CoVar:
        v = p.code
        if type(v) is Zero:
            return "Zero"
        if type(v) is Succ and is_value(v, s):
            return "Succ"
    return None


def step(c: Command, s: Strategy) -> StepOutcome:
    """Apply the unique rule enabled on c under s, or report Final/Stuck."""

    p, e = _inject(c)
    out = _step(p, e, s)
    if out is not None:
        return Stepped(_command(out[1:]), out[0])
    shape = _final_shape(p, e, s)
    if shape is not None:
        return Final(shape, e.code.name, c)
    return Stuck(_stuck_reason(p, e, s), c)


def _beta_succ(pred: Term, r: RecNat | RecNum) -> Command:
    """Successor case of both recursors: restart the recursor on the
    predecessor, binding the recursive result with a comu so the strategy
    decides what runs first."""

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


def _beta_tail(cr: CoRec, rest: CoTerm) -> Command:
    """Tail case: update the seed under a mu while rebuilding the corecursor
    on the rest of the projection, dual to the successor case."""

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


def _stuck_reason(p: Clo, e: Clo, s: Strategy) -> str:
    v, k = p.code, e.code
    if isinstance(v, Var):
        return f"free variable {v.name!r} in producer position"
    if isinstance(k, CoVar):  # read back: a forcing continuation reads back as its restart's name
        return f"producer {type(v).__name__} delivered to covariable {readback(e).name!r} is not a number"
    if isinstance(v, Mu):
        return f"mu against a non-covalue consumer under {s.value}"
    if isinstance(k, MuTilde):
        return f"comu against a non-value producer under {s.value}"
    return f"no rule for {type(v).__name__} against {type(k).__name__}"


# ---------------------------------------------------------------------------
# Runs


class TraceEntry(NamedTuple):
    index: int
    rule: RuleTag
    command_text: str

    def to_json(self) -> dict:
        return {"i": self.index, "rule": self.rule.value, "cmd": self.command_text}


@dataclass
class RunStats:
    per_rule: dict[RuleTag, int] = field(default_factory=dict)
    total: int = 0
    outcome: str = "OutOfFuel"  # "Final" | "OutOfFuel" | "Stuck"
    stuck_reason: str | None = None

    def count(self, tag: RuleTag) -> int:
        return self.per_rule.get(tag, 0)

    def absorb(self, other: "RunStats") -> None:
        for tag, n in other.per_rule.items():
            self.per_rule[tag] = self.per_rule.get(tag, 0) + n
        self.total += other.total

    def to_json(self) -> dict:
        per = {tag.value: n for tag, n in sorted(self.per_rule.items(), key=lambda kv: kv[0].value)}
        return {"outcome": self.outcome, "total": self.total, "perRule": per}


@dataclass
class RunResult:
    stats: RunStats
    state: State | None  # the state the run halted in; None when fuel ran out
    trace: list[TraceEntry] | None = None
    forced: int = 0  # the successors a forcing run counted

    @property
    def outcome(self) -> str:
        return self.stats.outcome

    @property
    def trace_truncated(self) -> bool:
        return self.trace is not None and len(self.trace) < self.stats.total

    def answer(self, out_of_fuel: str, spent: RunStats | None = None) -> Clo:
        """The producer the run halted on, or, if it failed, the error: an
        OutOfFuelError with message out_of_fuel, or a StuckError.  The error
        carries the steps of spent (the run's own stats when None) with this
        run's outcome and stuck reason."""

        stats = self.stats
        if stats.outcome == "Final":
            return self.state[0]
        if spent is not None:
            stats = replace(spent, outcome=stats.outcome, stuck_reason=stats.stuck_reason)
        if stats.outcome == "Stuck":
            raise StuckError(stats.stuck_reason, stats)
        raise OutOfFuelError(out_of_fuel, stats)

    @cached_property
    def final(self) -> Command | None:
        """The halted state, read back the first time it is asked for."""

        return None if self.state is None else _command(self.state)


def run(
    c: Command | State,
    s: Strategy,
    fuel: int = DEFAULT_FUEL,
    trace: bool = False,
) -> RunResult:
    """Step from a command, or a machine state, until Final, Stuck, or the
    fuel is spent.

    A state cut against a _Restart is forced: where a number meets a bare
    covariable, its successors are counted and the run goes on from the
    suspended successor below them, against a new _Restart, with the same
    stats and fuel.  It halts on the closure below the last successors,
    ``forced`` the count; if it fails, only completed restarts count."""

    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    stats = RunStats()
    per_rule = stats.per_rule
    entries: list[TraceEntry] | None = [] if trace else None
    memo: dict | None = {} if trace else None  # a read-back node's id -> (node, text), for this run's lines
    p, e = _inject(c) if isinstance(c, Command) else c
    forcing = type(e) is _Restart
    done: tuple[dict, int] = ({}, 0)  # the completed restarts' steps per rule, and steps
    i = forced = 0
    while True:
        for i in range(i, fuel + 1):
            out = _step(p, e, s)
            if out is None or i == fuel:  # at i == fuel, only a final or stuck state is looked for
                break
            rule, p, e = out
            per_rule[rule] = per_rule.get(rule, 0) + 1
            if entries is not None and len(entries) < TRACE_LIMIT:
                entries.append(TraceEntry(i + 1, rule, pretty(_command((p, e), memo), memo)))
        shape = None if out is not None else _final_shape(p, e, s)
        if not forcing:
            break
        if shape is None:  # the failing restart counts for nothing
            stats.per_rule, i = done
            break
        n, p = _successors(p)
        forced += n
        if type(p.code) is not Mu:
            break
        done = (dict(per_rule), i)
        e = _Restart(p)
    stats.total = i
    if out is not None:
        return RunResult(stats, None, entries, forced)
    stats.outcome = "Final" if shape else "Stuck"
    stats.stuck_reason = None if shape else _stuck_reason(p, e, s)
    return RunResult(stats, (p, e), entries, forced)


def _successors(t: Clo) -> tuple[int, Clo]:
    """The successors counted down from t, following variables through the
    environments, and the closure below them."""

    n = 0
    while True:
        code = t.code
        while type(code) is Succ:
            n += 1
            code = code.arg
        if code is t.code:
            return n, t
        t = _close(code, t.vs, t.cs)


def force_numeral(v: Term | Clo, s: Strategy, fuel: int = DEFAULT_FUEL, stats: RunStats | None = None) -> int:
    """Count successors down to Zero, forcing suspended computations.

    Under call-by-name a successor's argument may be a mu-abstraction.  The
    successors above the first one are counted here, and a number with
    none (every call-by-value answer) is forced without running.  Otherwise
    one forcing run (see ``run``) takes it from there.  A closure is
    forced as it stands, nothing read back.  When a stats record is given,
    the forcing run's steps are added to it, so the full cost of producing
    the observable number is accounted for.
    """

    n, t = _successors(v if isinstance(v, Clo) else _close(v, _NO, _NO))
    if type(t.code) is Mu:
        res = run((t, _Restart(t)), s, fuel)
        if stats is not None:
            stats.absorb(res.stats)
        n += res.forced
        t = res.answer(f"forcing ran out of fuel after {n} successors", stats)
    if type(t.code) is not Zero:
        raise ElementNotNatError(f"cannot force {type(t.code).__name__} to a numeral")
    return n


def run_to_numeral(c: Command, s: Strategy, fuel: int = DEFAULT_FUEL) -> tuple[int, RunStats]:
    """Run to a final state and force the delivered number all the way down;
    the returned stats cover both phases."""

    res = run(c, s, fuel)
    value = force_numeral(res.answer("run out of fuel"), s, fuel - res.stats.total, res.stats)
    return value, res.stats


def observe_stream(v: Term, depth: int, s: Strategy, fuel: int = DEFAULT_FUEL) -> int:
    """Element at the given depth: run < v | tail^depth (head a0) >."""

    if depth < 0:
        raise ValueError("depth must be nonnegative")
    a = fresh_name(v.free_covars, "a0")
    res = run(Command(v, tails(depth, Head(CoVar(a)))), s, fuel)
    p = res.answer(f"stream observation at depth {depth} ran out of fuel")
    return force_numeral(p, s, fuel - res.stats.total, res.stats)


def tails(depth: int, inner: CoTerm) -> CoTerm:
    """tail^depth applied over inner."""

    e = inner
    for _ in range(depth):
        e = Tail(e)
    return e
