"""Deterministic small-step execution of commands, on closures.

Each step fires the unique applicable rule: the classes of the cut pick
the beta rule, and only the mu/comu pair reads the strategy.  No beta
rule tests a side condition: ``run`` takes a well-formed command and
builds only its subterms and copies of them with a bare name put in
(``step`` refuses a command outside the grammar).  A run iterates steps
until a final state (a number constructor meeting a bare covariable), a
stuck state, or fuel exhaustion, and keeps per-rule counters the whole
way.  Streams are observed against tail projections over a head.

The machine runs closures, not substitutions: it is the environment
machine that Ariola, Bohannon and Sabry derive for this calculus
("Sequent calculi and abstract machines", TOPLAS 2009).

* Closures.  A state is a producer closure cut against a consumer
  closure.  A closure is a plain tuple ``(code, vs, cs)``: code (a term or
  coterm node) with two environments, which map its free variables and
  its free covariables to closures.  A rule that binds a name copies one
  environment with the name added, so a step costs the same whatever the
  size of the command it stands for.  A name is looked up when a closure is made for it; an
  unbound covariable is the top-level continuation, and an unbound
  variable is stuck.
* The mu/comu test is a class test and no call: a mu fires unless its
  consumer's code is of the class the strategy refuses (``refuses`` on
  ``Strategy``), a comu unless its producer's is.  So of a mu cut against
  a comu, the mu fires first under call-by-value, which refuses a mu, and
  the comu under call-by-name.  It is the one side condition left, the
  one the strategy decides, and the class alone is sound on well-formed
  states: there the refused class is the only non-value (non-covalue),
  since the grammar demands values (covalues) below every other node, and
  no name is ever bound to a closure whose code is of the refused class.
* Frames.  BetaSucc and BetaNumSucc leave a mu cut against a comu over
  (predecessor, recursor), and BetaTail one over (corecursor, rest): a
  frame ``(x, y, succ)``.  Its two halves, ``(_PENDING_MU, frame, None)``
  and ``(_PENDING_COMU, frame, None)``, are told by the identity of their
  code and stay unbuilt until one fires (``_fire_mu``, ``_fire_comu``) as
  the mu or comu it stands for.  The recursor rebuilt on its new return,
  and the corecursor on its new seed, bind it under a name no program can
  spell.  Where a branch
  binds one name twice, the later binder (the result, the new seed)
  shadows the earlier, as in typing, ``alpha_eq`` and substitution.
* Read-back turns a closure into the term it stands for: its code with
  the read-back images of its bound free names substituted in.  A
  successor chain (closures of code ``S x``, x bound) is read back in one
  loop, one ``Succ`` per link and no substitution, so a number answer
  costs about a node per successor.  A half reads back as
  ``_beta_succ`` or ``_beta_tail`` on the read-back parts, so the names
  those invent come out as before.  A memo from the id of each
  closure (and frame) to (it, its read-back) lives as long as one
  read-back: one per traced run, per ``step`` and per
  ``RunResult.final``, which is read back when first asked for; ``run``,
  ``run_to_numeral`` and ``observe_stream`` read nothing back.  A traced
  run reads back and prints each closure once, so a line costs the
  closures the step built, plus joining the texts of the rest.
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
  ``run`` once, at the first suspended one, cut against a forcing
  continuation ``(_TOP, start, None)``.  In that run a number meeting a
  bare covariable ends a restart: its successors are counted and the same
  loop, stats and fuel go on from the next suspended one, against a new
  forcing continuation.  One reads back as the covariable a substitution
  machine restarts on, for the message of a forcing stuck on it, the one
  time forcing reads back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

from .kernel import (
    Call, Command, CoRec, CoTerm, CoVar, Fst, Head, InL, InR, Lam, Mu, MuTilde, NumSucc, NumZero,
    Pair, RecNat, RecNum, Snd, Strategy, Succ, SumCase, Tail, Term, Var, Zero,
    fresh_name, pretty, subst, well_formed,
    # Not called here; perfbench/spans.py rebinds these names in this module.
    is_covalue, is_value, subst_covar, subst_var,
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
# corecursor seed, _TOP is the code of a forcing run's continuations.
_HOLE = "\x00"
_HOLE_VAR, _HOLE_COVAR = Var(_HOLE), CoVar(_HOLE)
_TOP = CoVar("\x00a0")
_NO: dict = {}  # the empty environment; environments are copied, never changed

# The codes of the halves, told apart by identity; each is of the class of
# what it stands for, so the mu/comu test reads it as that: a mu, refused by
# call-by-value, and a comu, refused by call-by-name.
_PENDING_MU = Mu(_HOLE, Command(Zero(), _TOP))
_PENDING_COMU = MuTilde(_HOLE, Command(Zero(), _TOP))

# The rule tags as globals, which a step loads without an enum attribute lookup.
(MU, MU_TILDE, BETA_ARROW, BETA_ZERO, BETA_SUCC, BETA_HEAD, BETA_TAIL, BETA_FST, BETA_SND, BETA_INL, BETA_INR,
 BETA_NUM_ZERO, BETA_NUM_SUCC) = RuleTag


def _close(code, vs: dict, cs: dict) -> tuple:
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
    return code, vs, cs


def _fire_mu(f: tuple, e: tuple) -> tuple:
    """Mu on the mu half of frame f cut against e."""

    x, y, succ = f
    if succ:  # <pred | the recursor returning to e>
        return MU, x, (_rebuilt(y[0], "ret", _HOLE_COVAR), y[1], {**y[2], _HOLE: e})
    code, vs, cs = x  # <seed | tail body, the new seed going to e>
    tcs = {**cs, code.tail_covar: y, code.tail_seed_covar: e}
    return MU, _close(code.seed, vs, cs), _close(code.tail_body, vs, tcs)


def _fire_comu(f: tuple, v: tuple) -> tuple:
    """MuTilde on the comu half of frame f taking v."""

    x, y, succ = f
    if succ:  # <succ body, v the recursive result | return>
        code, vs, cs = y
        bvs = {**vs, code.pred_var: x, code.result_var: v}
        return MU_TILDE, _close(code.succ_body, bvs, cs), _close(code.ret, vs, cs)
    # <the corecursor seeded with v | rest>
    return MU_TILDE, (_rebuilt(x[0], "seed", _HOLE_VAR), {**x[1], _HOLE: v}, x[2]), y


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


def _parts(c: tuple) -> list[tuple]:
    """The closures c's read-back is built from."""

    code, vs, cs = c
    if code is _TOP:
        return [vs]
    if code is _PENDING_MU or code is _PENDING_COMU:
        return [vs[0], vs[1]]
    return [vs[x] for x in code.free_vars if x in vs] + [cs[a] for a in code.free_covars if a in cs]


def _build(c: tuple, backs: dict):
    """c's read-back, from its parts' in backs.  A half reads back as its
    side of the substitution rule (_beta_succ, _beta_tail) on its frame's
    read-back parts, built once per frame into backs; a forcing
    continuation as the covariable a substitution machine would restart on:
    the first of a0, a01, ... not free in its start's read-back."""

    code, vs, cs = c
    if code is _TOP:
        return CoVar(fresh_name(backs[id(vs)][1].free_covars, "a0"))
    if code is _PENDING_MU or code is _PENDING_COMU:
        hit = backs.get(id(vs))
        if hit is None:
            x, y, succ = vs
            hit = backs[id(vs)] = (vs, (_beta_succ if succ else _beta_tail)(backs[id(x)][1], backs[id(y)][1]))
        return hit[1].producer if code is _PENDING_MU else hit[1].consumer
    vm = {x: backs[id(vs[x])][1] for x in code.free_vars if x in vs}
    cm = {a: backs[id(cs[a])][1] for a in code.free_covars if a in cs}
    return subst(code, vm, cm) if vm or cm else code


def readback(c: tuple, backs: dict, texts: dict | None = None):
    """The term or coterm c stands for: its code with the read-back of each
    closure its free names are bound to substituted in.  An explicit stack
    walks the closures.  A successor chain is read back in one loop: down
    the environments to a closure read back already or not a link, then a
    ``Succ`` per link on the way up.  backs maps the id of each closure
    (and frame) read back to (it, its read-back); it lives as long as the
    read-back it serves, so each closure is read back once there.

    A traced run passes its text memo too (see ``pretty``): then each
    closure's read-back is also printed into it, once per run and after its
    parts'.  Substitution and the rules put a part's read-back into the
    whole uncopied, so printing a closure walks only its own code."""

    todo = [c]
    while todo:
        top = todo[-1]
        if id(top) in backs:
            todo.pop()
            continue
        chain, d = [], top
        while id(d) not in backs:
            code, vs, _ = d
            if type(code) is not Succ or type(code.arg) is not Var or code.arg.name not in vs:
                break
            chain.append(d)  # d is a link: code S x, x bound
            d = vs[code.arg.name]
        if chain:
            if id(d) not in backs:  # the closure below the chain first
                todo.append(d)
                continue
            todo.pop()
            node = backs[id(d)][1]
            for d in reversed(chain):
                node = Succ(node)
                backs[id(d)] = (d, node)
                if texts is not None:
                    texts[id(node)] = (node, pretty(node, texts))
            continue
        missing = [d for d in _parts(top) if id(d) not in backs]
        if missing:
            todo.extend(missing)
            continue
        todo.pop()
        node = _build(top, backs)
        backs[id(top)] = (top, node)
        if texts is not None:
            texts[id(node)] = (node, pretty(node, texts))
    return backs[id(c)][1]


State = tuple[tuple, tuple]


def _inject(c: Command) -> State:
    return _close(c.producer, _NO, _NO), _close(c.consumer, _NO, _NO)


def _command(state: State, backs: dict, texts: dict | None = None) -> Command:
    return Command(readback(state[0], backs, texts), readback(state[1], backs, texts))


def _step(p: tuple, e: tuple, s: Strategy):
    """(rule, producer, consumer) after the rule enabled on a well-formed
    state, or None.  Only mu and comu test a side condition, the one the
    strategy decides: whether the other side's code is of the class s
    refuses (see ``step``)."""

    v, pvs, pcs = p
    k, evs, ecs = e
    tv, tk = type(v), type(k)
    refused = s.refuses
    if tv is Mu and tk is not refused:
        if v is _PENDING_MU:
            return _fire_mu(pvs, e)
        cs = {**pcs, v.covar: e}
        return MU, _close(v.body.producer, pvs, cs), _close(v.body.consumer, pvs, cs)
    if tk is MuTilde and tv is not refused:
        if k is _PENDING_COMU:
            return _fire_comu(evs, p)
        vs = {**evs, k.var: p}
        return MU_TILDE, _close(k.body.producer, vs, ecs), _close(k.body.consumer, vs, ecs)

    if tv is Lam:
        if tk is Call:
            vs = {**pvs, v.var: _close(k.arg, evs, ecs)}
            return BETA_ARROW, _close(v.body, vs, pcs), _close(k.rest, evs, ecs)
    elif tv is Zero:
        if tk is RecNat:
            return BETA_ZERO, _close(k.zero_body, evs, ecs), _close(k.ret, evs, ecs)
    elif tv is Succ:
        if tk is RecNat:
            f = (_close(v.arg, pvs, pcs), e, True)
            return BETA_SUCC, (_PENDING_MU, f, None), (_PENDING_COMU, f, None)
    elif tv is NumZero:
        if tk is RecNum:
            vs = {**evs, k.payload_var: _close(v.arg, pvs, pcs)}
            return BETA_NUM_ZERO, _close(k.zero_body, vs, ecs), _close(k.ret, evs, ecs)
    elif tv is NumSucc:
        if tk is RecNum:
            f = (_close(v.arg, pvs, pcs), e, True)
            return BETA_NUM_SUCC, (_PENDING_MU, f, None), (_PENDING_COMU, f, None)
    elif tv is CoRec:
        if tk is Head:
            cs = {**pcs, v.head_covar: _close(k.rest, evs, ecs)}
            return BETA_HEAD, _close(v.seed, pvs, pcs), _close(v.head_body, pvs, cs)
        if tk is Tail:
            f = (p, _close(k.rest, evs, ecs), False)
            return BETA_TAIL, (_PENDING_MU, f, None), (_PENDING_COMU, f, None)
    elif tv is Pair:
        if tk is Fst:
            return BETA_FST, _close(v.left, pvs, pcs), _close(k.rest, evs, ecs)
        if tk is Snd:
            return BETA_SND, _close(v.right, pvs, pcs), _close(k.rest, evs, ecs)
    elif tv is InL:
        if tk is SumCase:
            return BETA_INL, _close(v.arg, pvs, pcs), _close(k.left, evs, ecs)
    elif tv is InR:
        if tk is SumCase:
            return BETA_INR, _close(v.arg, pvs, pcs), _close(k.right, evs, ecs)
    return None


def _final_shape(p: tuple, e: tuple) -> str | None:
    """"Zero" or "Succ" if a number meets the top-level continuation (a
    covariable no binder has bound), else None."""

    if type(e[0]) is CoVar:
        v = p[0]
        if type(v) is Zero:
            return "Zero"
        if type(v) is Succ:
            return "Succ"
    return None


def step(c: Command, s: Strategy) -> StepOutcome:
    """Apply the unique rule enabled on c under s, or report Final/Stuck.
    Ill-formed c is Stuck on ``well_formed``'s first violation, checked
    before any rule fires, so no read-back ever meets a node outside the
    grammar.

    Only a well-formed command reaches the mu/comu test, which reads the
    code's class alone.  That is sound on every state a run reaches from
    one: each code there is a term or coterm of the grammar, whose demands
    make the class ``s.refuses`` the only non-value (non-covalue), and a
    bound name's code is never of that class, since a mu or comu binds
    only what is not, and the grammar makes a value or covalue of what a
    beta rule binds."""

    bad = well_formed(c, s)
    if bad:
        return Stuck(str(bad[0]), c)
    p, e = _inject(c)
    out = _step(p, e, s)
    if out is not None:
        return Stepped(_command(out[1:], {}), out[0])
    shape = _final_shape(p, e)
    return Final(shape, e[0].name, c) if shape is not None else Stuck(_stuck_reason(p, e), c)


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


def _stuck_reason(p: tuple, e: tuple) -> str:
    v, k = p[0], e[0]
    if isinstance(v, Var):
        return f"free variable {v.name!r} in producer position"
    if isinstance(k, CoVar):  # read back: a forcing continuation reads back as its restart's name
        return f"producer {type(v).__name__} delivered to covariable {readback(e, {}).name!r} is not a number"
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

    def answer(self, out_of_fuel: str, spent: RunStats | None = None) -> tuple:
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

        return None if self.state is None else _command(self.state, {})


def run(
    c: Command | State,
    s: Strategy,
    fuel: int = DEFAULT_FUEL,
    trace: bool = False,
) -> RunResult:
    """Step from a well-formed command (not checked), or a machine state,
    until Final, Stuck, or the fuel is spent.

    A state cut against a forcing continuation (_TOP, start, None) is
    forced: where a number meets a bare covariable, its successors are
    counted and the run goes on from the suspended successor below them,
    against a new forcing continuation, with the same stats and fuel.  It
    halts on the closure below the last successors, ``forced`` the count;
    if it fails, only completed restarts count."""

    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    stats = RunStats()
    per_rule = stats.per_rule
    entries: list[TraceEntry] | None = [] if trace else None
    # For this run's lines: a closure's (frame's) id -> (it, its read-back), a node's id -> (node, text).
    backs, texts = ({}, {}) if trace else (None, None)
    p, e = _inject(c) if isinstance(c, Command) else c
    forcing = e[0] is _TOP
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
                entries.append(TraceEntry(i + 1, rule, pretty(_command((p, e), backs, texts), texts)))
        shape = None if out is not None else _final_shape(p, e)
        if not forcing:
            break
        if shape is None:  # the failing restart counts for nothing
            stats.per_rule, i = done
            break
        n, p = _successors(p)
        forced += n
        if type(p[0]) is not Mu:
            break
        done = (dict(per_rule), i)
        e = (_TOP, p, None)
    stats.total = i
    if out is not None:
        return RunResult(stats, None, entries, forced)
    stats.outcome = "Final" if shape else "Stuck"
    stats.stuck_reason = None if shape else _stuck_reason(p, e)
    return RunResult(stats, (p, e), entries, forced)


def _successors(t: tuple) -> tuple[int, tuple]:
    """The successors counted down from t, following variables through the
    environments, and the closure below them."""

    n = 0
    while True:
        code, vs, cs = t
        while type(code) is Succ:
            n += 1
            code = code.arg
        if code is t[0]:
            return n, t
        t = _close(code, vs, cs)


def force_numeral(v: Term | tuple, s: Strategy, fuel: int = DEFAULT_FUEL, stats: RunStats | None = None) -> int:
    """Count successors down to Zero, forcing suspended computations.

    Under call-by-name a successor's argument may be a mu-abstraction.  The
    successors above the first one are counted here, and a number with
    none (every call-by-value answer) is forced without running.  Otherwise
    one forcing run (see ``run``) takes it from there.  A closure is
    forced as it stands, nothing read back.  When a stats record is given,
    the forcing run's steps are added to it, so the full cost of producing
    the observable number is accounted for.
    """

    n, t = _successors(v if isinstance(v, tuple) else _close(v, _NO, _NO))
    if type(t[0]) is Mu:
        res = run((t, (_TOP, t, None)), s, fuel)
        if stats is not None:
            stats.absorb(res.stats)
        n += res.forced
        t = res.answer(f"forcing ran out of fuel after {n} successors", stats)
    if type(t[0]) is not Zero:
        raise ElementNotNatError(f"cannot force {type(t[0]).__name__} to a numeral")
    return n


def run_to_numeral(c: Command, s: Strategy, fuel: int = DEFAULT_FUEL) -> tuple[int, RunStats]:
    """Run to a final state and force the delivered number all the way down;
    the returned stats cover both phases."""

    res = run(c, s, fuel)
    value = force_numeral(res.answer("run out of fuel"), s, fuel - res.stats.total, res.stats)
    return value, res.stats


def observe_stream(v: Term, depth: int, s: Strategy, fuel: int = DEFAULT_FUEL) -> int:
    """Element at the given depth: run < v | tail^depth (head a0) >.  A step
    takes off one tail at most, so past fuel + 1 tails the run is the same,
    out of fuel before the head, and no more are built."""

    if depth < 0:
        raise ValueError("depth must be nonnegative")
    a = fresh_name(v.free_covars, "a0")
    res = run(Command(v, tails(min(depth, fuel + 1), Head(CoVar(a)))), s, fuel)
    p = res.answer(f"stream observation at depth {depth} ran out of fuel")
    return force_numeral(p, s, fuel - res.stats.total, res.stats)


def tails(depth: int, inner: CoTerm) -> CoTerm:
    """tail^depth applied over inner."""

    e = inner
    for _ in range(depth):
        e = Tail(e)
    return e
