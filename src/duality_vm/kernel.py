"""Machine-language syntax trees and the operations every other layer leans on.

A machine state is a command ``< producer | consumer >`` cutting a term
against a coterm (continuation).  The same syntax serves both evaluation
strategies; what changes between call-by-value and call-by-name is which
terms count as substitutable values and which coterms count as covalues,
so those two predicates take the strategy as an argument and everything
else (substitution, alpha-equivalence, printing) is strategy-free.

Every node caches its free variable and free covariable sets at
construction time, which lets substitution skip untouched subtrees in
O(1).  Terms cache the same way whether they are call-by-value values
(``cbv_value``) and coterms whether they are call-by-name covalues
(``cbn_covalue``), so both predicates are O(1) reads.  The cached values
are slots, not dataclass fields: equality, hashing, printing and
``dataclasses.replace`` ignore them.  Nodes are immutable; rewriting
shares unchanged children.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from functools import singledispatch
from operator import attrgetter


# ---------------------------------------------------------------------------
# Types of the object language


class TypeExpr:
    """Base of object-language types; structural equality is the only one."""

    __slots__ = ()


@dataclass(frozen=True)
class Nat(TypeExpr):
    pass


@dataclass(frozen=True)
class Stream(TypeExpr):
    elem: TypeExpr


@dataclass(frozen=True)
class Fn(TypeExpr):
    arg: TypeExpr
    ret: TypeExpr


@dataclass(frozen=True)
class Prod(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class Sum(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class Numbered(TypeExpr):
    """Numbers carrying a payload; the exact syntactic dual of Stream."""

    payload: TypeExpr


def type_str(t: TypeExpr) -> str:
    """Concrete syntax of a type (parseable).

    Precedence, loosest first: ``->`` (right-assoc), ``+``, ``*``;
    ``Nat``, ``Stream T`` and ``Num T`` are atoms with atomic arguments.
    """

    return _type_str(t, 0)


def _type_str(t: TypeExpr, level: int) -> str:
    match t:
        case Nat():
            return "Nat"
        case Stream(elem):
            return f"Stream {_type_str(elem, 3)}"
        case Numbered(payload):
            return f"Num {_type_str(payload, 3)}"
        case Fn(arg, ret):
            s = f"{_type_str(arg, 1)} -> {_type_str(ret, 0)}"
            return f"({s})" if level >= 1 else s
        case Sum(left, right):
            s = f"{_type_str(left, 1)} + {_type_str(right, 2)}"
            return f"({s})" if level >= 2 else s
        case Prod(left, right):
            s = f"{_type_str(left, 2)} * {_type_str(right, 3)}"
            return f"({s})" if level >= 3 else s
    raise ValueError(f"unknown type node: {t!r}")


# ---------------------------------------------------------------------------
# Strategy


class Strategy(enum.Enum):
    CBV = "cbv"
    CBN = "cbn"

    def __str__(self) -> str:
        return self.value


CBV = Strategy.CBV
CBN = Strategy.CBN


# ---------------------------------------------------------------------------
# Syntax nodes

EMPTY: frozenset[str] = frozenset()


class Node:
    """Common base; subclasses cache free (co)variable sets post-init, and
    terms and coterms their strategy bit.  Node classes keep all of it in
    slots: a successor takes 64 bytes on 64-bit CPython 3.11, against 96
    for a dict-backed node without the bit."""

    __slots__ = ("free_vars", "free_covars")

    free_vars: frozenset[str]
    free_covars: frozenset[str]
    # True or False on a machine term (coterm); None on any other node, and
    # on a term (coterm) whose bit is copied from such a node.  Leaves fix
    # the bit as a class attribute, which shadows the slot that Term and
    # CoTerm add; a Term subclass outside the machine grammar must set it
    # to None the same way.
    cbv_value: bool | None = None
    cbn_covalue: bool | None = None

    def _set_free(self, fv: frozenset[str], fcv: frozenset[str]) -> None:
        object.__setattr__(self, "free_vars", fv)
        object.__setattr__(self, "free_covars", fcv)

    def __reduce__(self):
        # Copies and unpickled nodes are rebuilt through __init__, so they
        # cache their sets and bit again: only field slots would be saved.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


class Term(Node):
    __slots__ = ("cbv_value",)

    def _set_value(self, bit: bool | None) -> None:
        object.__setattr__(self, "cbv_value", bit)

    def _cache_as(self, arg: Term) -> None:
        """Cache what the only child caches: free (co)variables and bit."""
        object.__setattr__(self, "free_vars", arg.free_vars)
        object.__setattr__(self, "free_covars", arg.free_covars)
        object.__setattr__(self, "cbv_value", arg.cbv_value)


class CoTerm(Node):
    __slots__ = ("cbn_covalue",)

    def _set_covalue(self, bit: bool | None) -> None:
        object.__setattr__(self, "cbn_covalue", bit)

    def _cache_as(self, rest: CoTerm) -> None:
        """Cache what the only child caches: free (co)variables and bit."""
        object.__setattr__(self, "free_vars", rest.free_vars)
        object.__setattr__(self, "free_covars", rest.free_covars)
        object.__setattr__(self, "cbn_covalue", rest.cbn_covalue)


def _union(*sets: frozenset[str]) -> frozenset[str]:
    out = EMPTY
    for s in sets:
        if s:
            out = out | s if out else s
    return out


@dataclass(frozen=True, slots=True)
class Command(Node):
    producer: Term
    consumer: CoTerm

    def __post_init__(self) -> None:
        self._set_free(
            _union(self.producer.free_vars, self.consumer.free_vars),
            _union(self.producer.free_covars, self.consumer.free_covars),
        )


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str
    cbv_value = True

    def __post_init__(self) -> None:
        self._set_free(frozenset((self.name,)), EMPTY)


@dataclass(frozen=True, slots=True)
class Mu(Term):
    """Term binding its continuation, then running a command."""

    covar: str
    body: Command
    annot: TypeExpr | None = None
    cbv_value = False

    def __post_init__(self) -> None:
        self._set_free(self.body.free_vars, self.body.free_covars - {self.covar})


@dataclass(frozen=True, slots=True)
class Lam(Term):
    var: str
    body: Term
    annot: TypeExpr | None = None
    cbv_value = True

    def __post_init__(self) -> None:
        self._set_free(self.body.free_vars - {self.var}, self.body.free_covars)


@dataclass(frozen=True, slots=True)
class Zero(Term):
    cbv_value = True

    def __post_init__(self) -> None:
        self._set_free(EMPTY, EMPTY)


@dataclass(frozen=True, slots=True)
class Succ(Term):
    arg: Term

    def __post_init__(self) -> None:
        self._cache_as(self.arg)


@dataclass(frozen=True, slots=True)
class NumZero(Term):
    """Base constructor of Numbered: a payload labeled with 0."""

    arg: Term

    def __post_init__(self) -> None:
        self._cache_as(self.arg)


@dataclass(frozen=True, slots=True)
class NumSucc(Term):
    arg: Term

    def __post_init__(self) -> None:
        self._cache_as(self.arg)


@dataclass(frozen=True, slots=True)
class Pair(Term):
    left: Term
    right: Term

    def __post_init__(self) -> None:
        self._set_free(
            _union(self.left.free_vars, self.right.free_vars),
            _union(self.left.free_covars, self.right.free_covars),
        )
        self._set_value(self.left.cbv_value and self.right.cbv_value)


@dataclass(frozen=True, slots=True)
class InL(Term):
    arg: Term
    other: TypeExpr | None = None  # type of the absent right component

    def __post_init__(self) -> None:
        self._cache_as(self.arg)


@dataclass(frozen=True, slots=True)
class InR(Term):
    arg: Term
    other: TypeExpr | None = None  # type of the absent left component

    def __post_init__(self) -> None:
        self._cache_as(self.arg)


@dataclass(frozen=True, slots=True)
class CoRec(Term):
    """Stream corecursor: produces a stream by cases on head/tail demands.

    ``head_covar`` receives the element observer in the base branch;
    ``tail_covar`` lets the tail branch escape with a whole stream, while
    ``tail_seed_covar`` receives the updated seed for the next round.
    """

    head_covar: str
    head_body: CoTerm
    tail_covar: str
    tail_seed_covar: str
    tail_body: CoTerm
    seed: Term
    elem_annot: TypeExpr | None = None  # element type of the produced stream
    seed_annot: TypeExpr | None = None  # filled in by elaboration

    def __post_init__(self) -> None:
        self._set_free(
            _union(self.head_body.free_vars, self.tail_body.free_vars, self.seed.free_vars),
            _union(
                self.head_body.free_covars - {self.head_covar},
                self.tail_body.free_covars - {self.tail_covar, self.tail_seed_covar},
                self.seed.free_covars,
            ),
        )
        self._set_value(self.seed.cbv_value)


@dataclass(frozen=True, slots=True)
class CoVar(CoTerm):
    name: str
    cbn_covalue = True

    def __post_init__(self) -> None:
        self._set_free(EMPTY, frozenset((self.name,)))


@dataclass(frozen=True, slots=True)
class MuTilde(CoTerm):
    """Coterm binding its input value, then running a command."""

    var: str
    body: Command
    annot: TypeExpr | None = None
    cbn_covalue = False

    def __post_init__(self) -> None:
        self._set_free(self.body.free_vars - {self.var}, self.body.free_covars)


@dataclass(frozen=True, slots=True)
class Call(CoTerm):
    """Call stack: an argument pushed onto a continuation."""

    arg: Term
    rest: CoTerm

    def __post_init__(self) -> None:
        self._set_free(
            _union(self.arg.free_vars, self.rest.free_vars),
            _union(self.arg.free_covars, self.rest.free_covars),
        )
        self._set_covalue(self.rest.cbn_covalue)


@dataclass(frozen=True, slots=True)
class RecNat(CoTerm):
    """Number recursor: consumes a Nat, threading a growing return continuation.

    The successor branch binds the predecessor (``pred_var``) and the
    recursive result for it (``result_var``).
    """

    zero_body: Term
    pred_var: str
    result_var: str
    succ_body: Term
    ret: CoTerm
    annot: TypeExpr | None = None  # result type; filled in by elaboration

    def __post_init__(self) -> None:
        self._set_free(
            _union(
                self.zero_body.free_vars,
                self.succ_body.free_vars - {self.pred_var, self.result_var},
                self.ret.free_vars,
            ),
            _union(self.zero_body.free_covars, self.succ_body.free_covars, self.ret.free_covars),
        )
        self._set_covalue(self.ret.cbn_covalue)


@dataclass(frozen=True, slots=True)
class RecNum(CoTerm):
    """Generalized recursor over Numbered: the zero branch binds the payload."""

    payload_var: str
    zero_body: Term
    pred_var: str
    result_var: str
    succ_body: Term
    ret: CoTerm
    payload_annot: TypeExpr | None = None  # payload type; needed for inference
    annot: TypeExpr | None = None  # result type; filled in by elaboration

    def __post_init__(self) -> None:
        self._set_free(
            _union(
                self.zero_body.free_vars - {self.payload_var},
                self.succ_body.free_vars - {self.pred_var, self.result_var},
                self.ret.free_vars,
            ),
            _union(self.zero_body.free_covars, self.succ_body.free_covars, self.ret.free_covars),
        )
        self._set_covalue(self.ret.cbn_covalue)


@dataclass(frozen=True, slots=True)
class Head(CoTerm):
    rest: CoTerm

    def __post_init__(self) -> None:
        self._cache_as(self.rest)


@dataclass(frozen=True, slots=True)
class Tail(CoTerm):
    rest: CoTerm

    def __post_init__(self) -> None:
        self._cache_as(self.rest)


@dataclass(frozen=True, slots=True)
class Fst(CoTerm):
    rest: CoTerm
    other: TypeExpr | None = None  # type of the absent right component

    def __post_init__(self) -> None:
        self._cache_as(self.rest)


@dataclass(frozen=True, slots=True)
class Snd(CoTerm):
    rest: CoTerm
    other: TypeExpr | None = None  # type of the absent left component

    def __post_init__(self) -> None:
        self._cache_as(self.rest)


@dataclass(frozen=True, slots=True)
class SumCase(CoTerm):
    """Case split on a sum value; a forcing context in both strategies."""

    left: CoTerm
    right: CoTerm
    cbn_covalue = True

    def __post_init__(self) -> None:
        self._set_free(
            _union(self.left.free_vars, self.right.free_vars),
            _union(self.left.free_covars, self.right.free_covars),
        )


# ---------------------------------------------------------------------------
# Numerals


def numeral(n: int) -> Term:
    """Succ^n Zero, built iteratively so large numerals don't recurse."""

    if n < 0:
        raise ValueError("numerals are naturals")
    t: Term = Zero()
    for _ in range(n):
        t = Succ(t)
    return t


def as_numeral(t: Term) -> int | None:
    """The n with t == Succ^n Zero, or None if t is not a pure numeral."""

    n = 0
    while isinstance(t, Succ):
        t = t.arg
        n += 1
    return n if isinstance(t, Zero) else None


# ---------------------------------------------------------------------------
# Values and covalues


def is_value(t: Term, s: Strategy) -> bool:
    """Whether t may be substituted for a variable under strategy s.

    Call-by-name makes every term a value (mu-abstractions included);
    call-by-value excludes mu and requires constructor arguments and
    corecursor seeds to be values themselves.  The call-by-value answer is
    the ``cbv_value`` bit cached when t was built, so this is O(1).
    """

    if s is CBN:
        if not isinstance(t, Term):
            raise ValueError(f"not a term: {t!r}")
        return True
    bit = getattr(t, "cbv_value", None)
    if bit is None:
        raise ValueError(f"not a term: {_unclassified(t, Term)!r}")
    return bit


def is_covalue(e: CoTerm, s: Strategy) -> bool:
    """Whether e may be substituted for a covariable under strategy s.

    Call-by-value makes every coterm a covalue (mu-tilde included);
    call-by-name excludes mu-tilde and requires destructor tails to be
    covalues themselves.  A case split is a covalue in both strategies
    regardless of its branches: it forces its input either way.  The
    call-by-name answer is the ``cbn_covalue`` bit cached when e was
    built, so this is O(1).
    """

    if s is CBV:
        if not isinstance(e, CoTerm):
            raise ValueError(f"not a coterm: {e!r}")
        return True
    bit = getattr(e, "cbn_covalue", None)
    if bit is None:
        raise ValueError(f"not a coterm: {_unclassified(e, CoTerm)!r}")
    return bit


def _unclassified(node, kind: type) -> object:
    """The node that left a ``kind`` node's bit unset: follow the positions
    the bit is copied from down to the first node not classified."""

    while isinstance(node, kind):
        match node:
            case Succ(x) | NumZero(x) | NumSucc(x) | InL(x) | InR(x) | CoRec(seed=x):
                node = x
            case Pair(left, right):
                node = left if left.cbv_value is None else right
            case Call(rest=x) | RecNat(ret=x) | RecNum(ret=x) | Head(x) | Tail(x) | Fst(x) | Snd(x):
                node = x
            case _:
                break
    return node


# ---------------------------------------------------------------------------
# Fresh names and substitution


def fresh_name(avoid: frozenset[str] | set[str], hint: str = "x") -> str:
    """Deterministic: the hint itself, else hint with the smallest suffix."""

    if hint not in avoid:
        return hint
    i = 1
    while f"{hint}{i}" in avoid:
        i += 1
    return f"{hint}{i}"


def _relevant(mapping: dict[str, Node], free: frozenset[str]) -> dict[str, Node]:
    if not mapping:
        return mapping
    if all(k in free for k in mapping):
        return mapping
    return {k: v for k, v in mapping.items() if k in free}


def subst(node, var_map: dict[str, Term] | None = None, covar_map: dict[str, CoTerm] | None = None):
    """Capture-avoiding parallel substitution of terms for variables and
    coterms for covariables.  Returns the node itself when nothing applies."""

    vm = _relevant(var_map or {}, node.free_vars)
    cm = _relevant(covar_map or {}, node.free_covars)
    if not vm and not cm:
        return node
    return _subst(node, vm, cm)


def _rebind(binders: list[str], body: Node, vm, cm, var_side: bool):
    """Prepare substitution maps under binders of one side (variables if
    var_side, else covariables), renaming a binder that would capture a
    free name of an image.

    Returns (new_binder_names, vm', cm', live) to apply to the body; live
    is False when nothing is substituted in it.
    """

    side = attrgetter("free_vars" if var_side else "free_covars")
    if var_side:
        vm = {k: v for k, v in vm.items() if k not in binders and k in body.free_vars}
        cm = _relevant(cm, body.free_covars)
    else:
        vm = _relevant(vm, body.free_vars)
        cm = {k: v for k, v in cm.items() if k not in binders and k in body.free_covars}
    if not vm and not cm:
        return binders, vm, cm, False
    images = [*vm.values(), *cm.values()]
    clash = {b for b in binders if any(b in side(img) for img in images)}
    if not clash:
        return binders, vm, cm, True
    own, make = (dict(vm), Var) if var_side else (dict(cm), CoVar)
    avoid = set(side(body)).union(own, *map(side, images))
    renamed = []
    for b in binders:
        if b in clash:
            b2 = fresh_name(avoid, b)
            avoid.add(b2)
            own[b] = make(b2)
            b = b2
        renamed.append(b)
    return (renamed, own, cm, True) if var_side else (renamed, vm, own, True)


def _subst(node, vm: dict[str, Term], cm: dict[str, CoTerm]):
    def go(n):
        lvm = _relevant(vm, n.free_vars)
        lcm = _relevant(cm, n.free_covars)
        if not lvm and not lcm:
            return n
        return _subst(n, lvm, lcm)

    match node:
        case Command(v, e):
            return Command(go(v), go(e))
        case Var(name):
            return vm.get(name, node)
        case CoVar(name):
            return cm.get(name, node)
        case Mu(a, body, annot):
            (a2,), nvm, ncm, live = _rebind([a], body, vm, cm, var_side=False)
            return Mu(a2, _subst(body, nvm, ncm), annot) if live else node
        case MuTilde(x, body, annot):
            (x2,), nvm, ncm, live = _rebind([x], body, vm, cm, var_side=True)
            return MuTilde(x2, _subst(body, nvm, ncm), annot) if live else node
        case Lam(x, body, annot):
            (x2,), nvm, ncm, live = _rebind([x], body, vm, cm, var_side=True)
            return Lam(x2, _subst(body, nvm, ncm), annot) if live else node
        case Zero():
            return node
        case Succ(arg):
            return Succ(go(arg))
        case NumZero(arg):
            return NumZero(go(arg))
        case NumSucc(arg):
            return NumSucc(go(arg))
        case Pair(l, r):
            return Pair(go(l), go(r))
        case InL(arg, other):
            return InL(go(arg), other)
        case InR(arg, other):
            return InR(go(arg), other)
        case Call(arg, rest):
            return Call(go(arg), go(rest))
        case Head(rest):
            return Head(go(rest))
        case Tail(rest):
            return Tail(go(rest))
        case Fst(rest, other):
            return Fst(go(rest), other)
        case Snd(rest, other):
            return Snd(go(rest), other)
        case SumCase(l, r):
            return SumCase(go(l), go(r))
        case RecNat(zb, x, y, sb, ret, annot):
            (x2, y2), nvm, ncm, live = _rebind([x, y], sb, vm, cm, var_side=True)
            sb2 = _subst(sb, nvm, ncm) if live else sb
            return RecNat(go(zb), x2, y2, sb2, go(ret), annot)
        case RecNum(p, zb, x, y, sb, ret, pannot, annot):
            (p2,), zvm, zcm, zlive = _rebind([p], zb, vm, cm, var_side=True)
            zb2 = _subst(zb, zvm, zcm) if zlive else zb
            (x2, y2), nvm, ncm, live = _rebind([x, y], sb, vm, cm, var_side=True)
            sb2 = _subst(sb, nvm, ncm) if live else sb
            return RecNum(p2, zb2, x2, y2, sb2, go(ret), pannot, annot)
        case CoRec(ha, he, ta, tg, te, seed, ea, sa):
            (ha2,), hvm, hcm, hlive = _rebind([ha], he, vm, cm, var_side=False)
            he2 = _subst(he, hvm, hcm) if hlive else he
            (ta2, tg2), tvm, tcm, tlive = _rebind([ta, tg], te, vm, cm, var_side=False)
            te2 = _subst(te, tvm, tcm) if tlive else te
            return CoRec(ha2, he2, ta2, tg2, te2, go(seed), ea, sa)
    raise ValueError(f"substitution over unknown node: {node!r}")


def subst_var(c: Command, x: str, v: Term) -> Command:
    return subst(c, {x: v}, None)


def subst_covar(c: Command, a: str, e: CoTerm) -> Command:
    return subst(c, None, {a: e})


# ---------------------------------------------------------------------------
# Alpha-equivalence


def alpha_eq(a, b) -> bool:
    """Equality up to consistent renaming of bound (co)variables."""

    return _alpha(a, b, {}, {}, {}, {}, [0])


def _alpha(a, b, va, vb, ca, cb, ctr) -> bool:
    if type(a) is not type(b):
        return False

    def bind(env_a, env_b, na, nb):
        ctr[0] += 1
        ea = dict(env_a)
        eb = dict(env_b)
        ea[na] = ctr[0]
        eb[nb] = ctr[0]
        return ea, eb

    match a:
        case Command():
            return _alpha(a.producer, b.producer, va, vb, ca, cb, ctr) and _alpha(
                a.consumer, b.consumer, va, vb, ca, cb, ctr
            )
        case Var(na):
            return va.get(na, na) == vb.get(b.name, b.name)
        case CoVar(na):
            return ca.get(na, na) == cb.get(b.name, b.name)
        case Zero():
            return True
        case Succ() | NumZero() | NumSucc():
            return _alpha(a.arg, b.arg, va, vb, ca, cb, ctr)
        case InL() | InR():
            return a.other == b.other and _alpha(a.arg, b.arg, va, vb, ca, cb, ctr)
        case Pair():
            return _alpha(a.left, b.left, va, vb, ca, cb, ctr) and _alpha(
                a.right, b.right, va, vb, ca, cb, ctr
            )
        case Lam():
            if a.annot != b.annot:
                return False
            va2, vb2 = bind(va, vb, a.var, b.var)
            return _alpha(a.body, b.body, va2, vb2, ca, cb, ctr)
        case Mu():
            if a.annot != b.annot:
                return False
            ca2, cb2 = bind(ca, cb, a.covar, b.covar)
            return _alpha(a.body, b.body, va, vb, ca2, cb2, ctr)
        case MuTilde():
            if a.annot != b.annot:
                return False
            va2, vb2 = bind(va, vb, a.var, b.var)
            return _alpha(a.body, b.body, va2, vb2, ca, cb, ctr)
        case Call():
            return _alpha(a.arg, b.arg, va, vb, ca, cb, ctr) and _alpha(
                a.rest, b.rest, va, vb, ca, cb, ctr
            )
        case Head() | Tail():
            return _alpha(a.rest, b.rest, va, vb, ca, cb, ctr)
        case Fst() | Snd():
            return a.other == b.other and _alpha(a.rest, b.rest, va, vb, ca, cb, ctr)
        case SumCase():
            return _alpha(a.left, b.left, va, vb, ca, cb, ctr) and _alpha(
                a.right, b.right, va, vb, ca, cb, ctr
            )
        # Result and seed annotations on the recursors and corecursor are
        # filled by elaboration and have no concrete syntax, so they do not
        # take part in alpha-identity.
        case RecNat():
            if not _alpha(a.zero_body, b.zero_body, va, vb, ca, cb, ctr):
                return False
            va2, vb2 = bind(va, vb, a.pred_var, b.pred_var)
            va2, vb2 = bind(va2, vb2, a.result_var, b.result_var)
            return _alpha(a.succ_body, b.succ_body, va2, vb2, ca, cb, ctr) and _alpha(
                a.ret, b.ret, va, vb, ca, cb, ctr
            )
        case RecNum():
            if a.payload_annot != b.payload_annot:
                return False
            va2, vb2 = bind(va, vb, a.payload_var, b.payload_var)
            if not _alpha(a.zero_body, b.zero_body, va2, vb2, ca, cb, ctr):
                return False
            va3, vb3 = bind(va, vb, a.pred_var, b.pred_var)
            va3, vb3 = bind(va3, vb3, a.result_var, b.result_var)
            return _alpha(a.succ_body, b.succ_body, va3, vb3, ca, cb, ctr) and _alpha(
                a.ret, b.ret, va, vb, ca, cb, ctr
            )
        case CoRec():
            if a.elem_annot != b.elem_annot:
                return False
            ca2, cb2 = bind(ca, cb, a.head_covar, b.head_covar)
            if not _alpha(a.head_body, b.head_body, va, vb, ca2, cb2, ctr):
                return False
            ca3, cb3 = bind(ca, cb, a.tail_covar, b.tail_covar)
            ca3, cb3 = bind(ca3, cb3, a.tail_seed_covar, b.tail_seed_covar)
            return _alpha(a.tail_body, b.tail_body, va, vb, ca3, cb3, ctr) and _alpha(
                a.seed, b.seed, va, vb, ca, cb, ctr
            )
    raise ValueError(f"alpha_eq over unknown node: {a!r}")


# ---------------------------------------------------------------------------
# Well-formedness: the strategy-indexed grammar


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def well_formed(c: Command, s: Strategy) -> list[Violation]:
    """All points where c leaves the strategy's term/coterm grammar.

    Constructor arguments, pair components, injection payloads, call-stack
    arguments and corecursor seeds must be values; call-stack tails,
    recursor returns and destructor tails must be covalues.  Each check is
    trivial under one of the two strategies and real under the other.
    """

    # A path is "command" or a (parent path, field) link, spelled out only
    # for a violation, so deep nesting costs no quadratic string building.
    out: list[Violation] = []
    todo: list[tuple[Node, object]] = [(c, "command")]

    def spell(path) -> str:
        fields = []
        while isinstance(path, tuple):
            path, field = path
            fields.append(field)
        return ".".join([path, *reversed(fields)])

    def need_value(t: Term, path, what: str) -> None:
        if not is_value(t, s):
            out.append(Violation(spell(path), f"{what} must be a {s.value} value"))

    def need_covalue(e: CoTerm, path, what: str) -> None:
        if not is_covalue(e, s):
            out.append(Violation(spell(path), f"{what} must be a {s.value} covalue"))

    while todo:
        node, path = todo.pop()
        match node:
            case Command(v, e):
                todo.append((v, (path, "producer")))
                todo.append((e, (path, "consumer")))
            case Var() | CoVar() | Zero():
                pass
            case Mu(_, body) | MuTilde(_, body):
                todo.append((body, (path, "body")))
            case Lam(_, body):
                todo.append((body, (path, "body")))
            case Succ(arg):
                need_value(arg, (path, "arg"), "successor argument")
                todo.append((arg, (path, "arg")))
            case NumZero(arg):
                need_value(arg, (path, "arg"), "numbered-zero argument")
                todo.append((arg, (path, "arg")))
            case NumSucc(arg):
                need_value(arg, (path, "arg"), "numbered-successor argument")
                todo.append((arg, (path, "arg")))
            case Pair(l, r):
                need_value(l, (path, "left"), "pair component")
                need_value(r, (path, "right"), "pair component")
                todo.append((l, (path, "left")))
                todo.append((r, (path, "right")))
            case InL(arg) | InR(arg):
                need_value(arg, (path, "arg"), "injection argument")
                todo.append((arg, (path, "arg")))
            case CoRec(_, he, _, _, te, seed):
                need_value(seed, (path, "seed"), "corecursor seed")
                todo.append((he, (path, "head")))
                todo.append((te, (path, "tail")))
                todo.append((seed, (path, "seed")))
            case Call(arg, rest):
                need_value(arg, (path, "arg"), "call-stack argument")
                need_covalue(rest, (path, "rest"), "call-stack tail")
                todo.append((arg, (path, "arg")))
                todo.append((rest, (path, "rest")))
            case RecNat(zb, _, _, sb, ret):
                need_covalue(ret, (path, "ret"), "recursor return")
                todo.append((zb, (path, "zero")))
                todo.append((sb, (path, "succ")))
                todo.append((ret, (path, "ret")))
            case RecNum(_, zb, _, _, sb, ret):
                need_covalue(ret, (path, "ret"), "recursor return")
                todo.append((zb, (path, "zero")))
                todo.append((sb, (path, "succ")))
                todo.append((ret, (path, "ret")))
            case Head(rest) | Tail(rest) | Fst(rest) | Snd(rest):
                need_covalue(rest, (path, "rest"), "destructor tail")
                todo.append((rest, (path, "rest")))
            case SumCase(l, r):
                todo.append((l, (path, "left")))
                todo.append((r, (path, "right")))
            case _:
                out.append(Violation(spell(path), f"unknown node {type(node).__name__}"))
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Printing (parseable; the parser lives in the surface layer)


@singledispatch
def pretty(node) -> str:
    raise ValueError(f"no printer for {type(node).__name__}")


def _term_atom(t: Term) -> str:
    """Print a term, parenthesized unless it is syntactically atomic."""

    s = pretty(t)
    match t:
        case Var() | Zero() | Pair():
            return s
        case Succ():
            return s if as_numeral(t) is not None else f"({s})"
        case _:
            return f"({s})"


def _coterm_atom(e: CoTerm) -> str:
    s = pretty(e)
    match e:
        case CoVar() | SumCase():
            return s
        case _:
            return f"({s})"


def _annot_str(annot: TypeExpr | None) -> str:
    return f" : {type_str(annot)}" if annot is not None else ""


@pretty.register
def _(node: Command) -> str:
    return f"<{pretty(node.producer)} | {pretty(node.consumer)}>"


@pretty.register
def _(node: Var) -> str:
    return node.name


@pretty.register
def _(node: CoVar) -> str:
    return node.name


@pretty.register
def _(node: Zero) -> str:
    return "Z"


@pretty.register
def _(node: Succ) -> str:
    n = as_numeral(node)
    if n is not None:
        return str(n)
    return f"S {_term_atom(node.arg)}"


@pretty.register
def _(node: NumZero) -> str:
    return f"numZ {_term_atom(node.arg)}"


@pretty.register
def _(node: NumSucc) -> str:
    return f"numS {_term_atom(node.arg)}"


@pretty.register
def _(node: Mu) -> str:
    return f"mu {node.covar}{_annot_str(node.annot)}. {pretty(node.body)}"


@pretty.register
def _(node: MuTilde) -> str:
    return f"comu {node.var}{_annot_str(node.annot)}. {pretty(node.body)}"


@pretty.register
def _(node: Lam) -> str:
    return f"fun {node.var}{_annot_str(node.annot)} => {pretty(node.body)}"


@pretty.register
def _(node: Pair) -> str:
    return f"pair({pretty(node.left)}, {pretty(node.right)})"


@pretty.register
def _(node: InL) -> str:
    return f"inl{_annot_str(node.other)} {_term_atom(node.arg)}"


@pretty.register
def _(node: InR) -> str:
    return f"inr{_annot_str(node.other)} {_term_atom(node.arg)}"


@pretty.register
def _(node: CoRec) -> str:
    return (
        f"corec{_annot_str(node.elem_annot)} {{ head {node.head_covar} -> {pretty(node.head_body)}"
        f" | tail {node.tail_covar} -> {node.tail_seed_covar}. {pretty(node.tail_body)} }}"
        f" with {_term_atom(node.seed)}"
    )


@pretty.register
def _(node: Call) -> str:
    return f"{_term_atom(node.arg)} . {pretty(node.rest)}"


@pretty.register
def _(node: Head) -> str:
    return f"head {_coterm_atom(node.rest)}"


@pretty.register
def _(node: Tail) -> str:
    return f"tail {_coterm_atom(node.rest)}"


@pretty.register
def _(node: Fst) -> str:
    return f"fst{_annot_str(node.other)} {_coterm_atom(node.rest)}"


@pretty.register
def _(node: Snd) -> str:
    return f"snd{_annot_str(node.other)} {_coterm_atom(node.rest)}"


@pretty.register
def _(node: SumCase) -> str:
    return f"case[{pretty(node.left)}, {pretty(node.right)}]"


@pretty.register
def _(node: RecNat) -> str:
    return (
        f"rec {{ Z -> {pretty(node.zero_body)}"
        f" | S {node.pred_var} -> {node.result_var}. {pretty(node.succ_body)} }}"
        f" with {pretty(node.ret)}"
    )


@pretty.register
def _(node: RecNum) -> str:
    return (
        f"rec{_annot_str(node.payload_annot)} {{ Z {node.payload_var} -> {pretty(node.zero_body)}"
        f" | S {node.pred_var} -> {node.result_var}. {pretty(node.succ_body)} }}"
        f" with {pretty(node.ret)}"
    )
