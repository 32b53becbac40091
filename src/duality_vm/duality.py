"""Syntactic duality: numbered values against streams, producers against
consumers, call-by-value against call-by-name.

The transformation swaps terms with coterms node by node, as a table of
dual class pairs (``_NODE_PAIRS``, in the manner of Wadler's "Call-by-value
is dual to call-by-name", where duality is a map over constructors):
numbered constructors with stream destructors, pairs with case splits,
injections with projections, mu with comu, the corecursor with the
generalized recursor.  The fields of each pair correspond in declaration
order, so one walk over the kernel's shapes rebuilds every pair.
Variables swap with covariables through a pairing context.  A binder pairs
its name with itself in its own namespace only, and keeps it unless the
pairing maps a free name of its scope onto it; then it takes a fresh name,
so the dual captures nothing.  Plain-Nat constructors, functions and call
stacks sit outside the dualizable fragment (``_NO_DUAL``).

Nat itself is kept as a self-dual leaf type: the dualizable type grammar
has no base case of its own, so payload and seed types bottom out at Nat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .kernel import (
    CBN,
    CBV,
    Call,
    Command,
    CoRec,
    CoTerm,
    CoVar,
    Fn,
    Fst,
    Head,
    InL,
    InR,
    Lam,
    Mu,
    MuTilde,
    Nat,
    Numbered,
    NumSucc,
    NumZero,
    Pair,
    Prod,
    RecNat,
    RecNum,
    Snd,
    Strategy,
    Stream,
    Succ,
    Sum,
    SumCase,
    Tail,
    Term,
    TypeExpr,
    Var,
    Zero,
    fresh_name,
    rebuild,
)
from .machine import RuleTag
from .typechecker import TypeEnv


class NotDualizable(Exception):
    def __init__(self, what: str):
        super().__init__(what)
        self.what = what


def dual_strategy(s: Strategy) -> Strategy:
    return CBN if s is CBV else CBV


def _both_ways(pairs: list[tuple]) -> dict:
    return dict(pairs) | {b: a for a, b in pairs}


_RULE_PAIRS = [
    (RuleTag.MU, RuleTag.MU_TILDE),
    (RuleTag.BETA_NUM_ZERO, RuleTag.BETA_HEAD),
    (RuleTag.BETA_NUM_SUCC, RuleTag.BETA_TAIL),
    (RuleTag.BETA_FST, RuleTag.BETA_INL),
    (RuleTag.BETA_SND, RuleTag.BETA_INR),
]
_RULE_DUAL = _both_ways(_RULE_PAIRS)


# Each pair's fields correspond one to one in declaration order: children to
# children, binders to binders, type annotations to type annotations.
_NODE_PAIRS = [
    (Mu, MuTilde),
    (NumZero, Head),
    (NumSucc, Tail),
    (Pair, SumCase),
    (InL, Fst),
    (InR, Snd),
    (CoRec, RecNum),
]
_NODE_DUAL = _both_ways(_NODE_PAIRS)
# The type annotation fields of each dualizable class, by index.
_TYPED = {cls: [i for i, f in enumerate(cls._shape.names) if f in cls._shape.data + cls._shape.ignore]
          for cls in _NODE_DUAL}
# Nat is its own dual; function types have none.
_TYPE_DUAL = _both_ways([(Numbered, Stream), (Prod, Sum)]) | {Nat: Nat}
_NO_DUAL = {
    Zero: "plain number constructors have no dual",
    Succ: "plain number constructors have no dual",
    Lam: "functions have no dual",
    RecNat: "the plain number recursor has no dual",
    Call: "call stacks have no dual",
}


def dual_rule(tag: RuleTag) -> RuleTag:
    try:
        return _RULE_DUAL[tag]
    except KeyError:
        raise NotDualizable(f"rule {tag.value} has no dual") from None


def dual_type(t: TypeExpr | None) -> TypeExpr | None:
    if t is None:
        return None
    cls = type(t)
    if cls not in _TYPE_DUAL:
        raise NotDualizable("function types have no dual" if cls is Fn else f"type {t!r} has no dual")
    return _TYPE_DUAL[cls](*(dual_type(getattr(t, f)) for f in cls.__match_args__))


@dataclass(frozen=True)
class DualityContext:
    """Bijective pairing of variables with covariables for free names.

    Bound names pair with themselves (or with a fresh name, where the pairing
    would capture); the pairing for free names defaults to the identity and
    may be overridden entry by entry.
    """

    var_to_covar: dict[str, str] = field(default_factory=dict)
    covar_to_var: dict[str, str] = field(default_factory=dict)

    def pair(self, var: str, covar: str) -> "DualityContext":
        v2c = dict(self.var_to_covar)
        c2v = dict(self.covar_to_var)
        v2c[var] = covar
        c2v[covar] = var
        return DualityContext(v2c, c2v)

    def covar_of(self, var: str) -> str:
        return self.var_to_covar.get(var, var)

    def var_of(self, covar: str) -> str:
        return self.covar_to_var.get(covar, covar)


EMPTY_CTX = DualityContext()


def dual_term(v: Term, ctx: DualityContext = EMPTY_CTX) -> CoTerm:
    """The coterm mirroring a term, swapping constructors for destructors."""

    return _dual(v, Term, ctx)


def dual_coterm(e: CoTerm, ctx: DualityContext = EMPTY_CTX) -> Term:
    """The term mirroring a coterm, swapping destructors for constructors."""

    return _dual(e, CoTerm, ctx)


def dual_command(c: Command, ctx: DualityContext = EMPTY_CTX) -> Command:
    """Mirror a command: the dual consumer becomes the producer and vice versa."""

    return _dual(c, Command, ctx)


def _dual(root, sort: type, ctx: DualityContext):
    """Rebuild root with each node replaced by its dual, in one
    ``kernel.rebuild`` walk."""

    if not isinstance(root, sort):
        raise NotDualizable(f"{sort.__name__.lower()} {type(root).__name__} has no dual")
    return rebuild(root, (ctx.var_to_covar, ctx.covar_to_var), _dual_rule)


def _dual_rule(node, pairings: tuple[dict[str, str], dict[str, str]]):
    """The duality at one node, under the (var -> covar, covar -> var)
    pairings.  A node's fields map in place to its ``_NODE_DUAL``
    partner's: children are dualized, binder names kept or renamed by
    ``_scope``, type annotations mapped by ``dual_type`` once the children
    are done; a command swaps its two sides.  A free name maps through the
    pairing; a binder changes the pairing of its own namespace, and only
    that one."""

    v2c, c2v = pairings
    cls = type(node)
    if cls is Var:
        return CoVar(v2c.get(node.name, node.name))
    if cls is CoVar:
        return Var(c2v.get(node.name, node.name))
    if cls is Command:
        return Command, [None, None], [(0, node.consumer, pairings), (1, node.producer, pairings)]
    if isinstance(node, TypeExpr):
        return dual_type(node)
    if cls not in _NODE_DUAL:
        kind = "term" if isinstance(node, Term) else "coterm"
        raise NotDualizable(_NO_DUAL.get(cls) or f"{kind} {cls.__name__} has no dual")
    sh = cls._shape
    vals = [getattr(node, f) for f in sh.names]
    kids = []
    for i, bound in sh.kids:
        kid = vals[i]
        pairing, names = _scope(v2c if sh.var_side else c2v, [vals[j] for j in bound],
                                kid.free_vars if sh.var_side else kid.free_covars)
        for j, name in zip(bound, names):
            vals[j] = name
        kids.append((i, kid, (pairing, c2v) if sh.var_side else (v2c, pairing)))
    kids += [(i, vals[i], pairings) for i in _TYPED[cls] if vals[i] is not None]
    return _NODE_DUAL[cls], vals, kids


def _scope(pairing: dict[str, str], binders: list[str],
           free: frozenset[str]) -> tuple[dict[str, str], list[str]]:
    """The pairing of one namespace inside a scope that binds binders in it
    and has free names in it, and the binders' names in the dual.

    A binder pairs with itself, unless the pairing maps another free name
    of the scope onto it: the dual would then capture that name, so the
    binder takes a fresh name instead.
    """

    if not binders:
        return pairing, binders
    captured = {v for k, v in pairing.items() if k in free and k not in binders}
    if not any(b in pairing or b in captured for b in binders):
        return pairing, binders
    taken = {pairing.get(n, n) for n in free if n not in binders} | set(binders)
    inner = dict(pairing)
    for b in binders:
        inner[b] = fresh_name(taken, b) if b in captured else b
        taken.add(inner[b])
    return inner, [inner[b] for b in binders]


def dual_env(env: TypeEnv, ctx: DualityContext = EMPTY_CTX) -> TypeEnv:
    """Environment for the dual command: x : A turns into x' at dual(A) on
    the covariable side, and dually."""

    return TypeEnv.make(
        vars={ctx.var_of(a): dual_type(t) for a, t in env.covars.items()},
        covars={ctx.covar_of(x): dual_type(t) for x, t in env.vars.items()},
    )
