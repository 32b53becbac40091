"""Seeded random generators of well-typed commands.

``TypedGen`` builds commands over Nat / Stream Nat / Nat -> Nat that are
closed except for the top covariable and well-formed under both
strategies at once (constructor arguments and seeds are call-by-value
values, destructor tails are call-by-name covalues).  Made ``loose``, either
generator may put a mu or comu where the grammar demands a value or a
covalue, so its commands need staging.

``DualGen`` builds commands in the dualizable fragment (numbered values,
streams, pairs, sums, binders, with Nat payload leaves) over free
variables and covariables, for the involution / typing / lockstep tests.

``one_of_each`` lists one node of every node class.
"""

from __future__ import annotations

import random

from duality_vm.kernel import (
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
    Stream,
    Succ,
    Sum,
    SumCase,
    Tail,
    Term,
    TypeExpr,
    Var,
    Zero,
    numeral,
)
from duality_vm.parser import App, NumLit, RecTerm, Ref

NAT = Nat()
SNAT = Stream(NAT)
FN = Fn(NAT, NAT)


class TypedGen:
    def __init__(self, seed: int, loose: bool = False):
        self.rng = random.Random(seed)
        self.counter = 0
        self.loose = loose

    def fresh(self, hint: str) -> str:
        self.counter += 1
        return f"{hint}{self.counter}"

    def command(self, depth: int = 5) -> Command:
        env = {"vars": {}, "covars": {"a0": NAT}}
        ty = self.rng.choice([NAT, NAT, SNAT, FN])
        v = self.term(ty, depth, env, value=False)
        e = self.coterm(ty, depth, env, covalue=False)
        return Command(v, e)

    def _vars_of(self, env, ty):
        return [x for x, t in env["vars"].items() if t == ty]

    def _covars_of(self, env, ty):
        return [a for a, t in env["covars"].items() if t == ty]

    def _bind_var(self, env, x, ty):
        return {"vars": {**env["vars"], x: ty}, "covars": env["covars"]}

    def _bind_covar(self, env, a, ty):
        return {"vars": env["vars"], "covars": {**env["covars"], a: ty}}

    def term(self, ty: TypeExpr, depth: int, env, value: bool) -> Term:
        """A term of the given type; a CBV value when value=True."""

        rng = self.rng
        opts = []
        xs = self._vars_of(env, ty)
        if xs:
            opts.append("var")
        if ty == NAT:
            opts += ["zero", "numl"]
            if depth > 0:
                opts.append("succ")
        if ty == SNAT and depth > 0:
            opts.append("corec")
        if ty == FN and depth > 0:
            opts.append("lam")
        if (self.loose or not value) and depth > 0:
            opts.append("mu")
        if not opts:
            return numeral(rng.randrange(3)) if ty == NAT else self.term(ty, depth + 1, env, value)
        match rng.choice(opts):
            case "var":
                return Var(rng.choice(xs))
            case "zero":
                return Zero()
            case "numl":
                return numeral(rng.randrange(4))
            case "succ":
                return Succ(self.term(NAT, depth - 1, env, value=True))
            case "lam":
                x = self.fresh("x")
                return Lam(x, self.term(NAT, depth - 1, self._bind_var(env, x, NAT), value=False), NAT)
            case "corec":
                seed_ty = NAT
                ha = self.fresh("a")
                he = self.coterm(seed_ty, depth - 1, self._bind_covar(env, ha, NAT), covalue=False)
                ta = self.fresh("b")
                tg = self.fresh("g")
                tenv = self._bind_covar(self._bind_covar(env, ta, SNAT), tg, seed_ty)
                te = self.coterm(seed_ty, depth - 1, tenv, covalue=False)
                seed = self.term(seed_ty, depth - 1, env, value=True)
                return CoRec(ha, he, ta, tg, te, seed, elem_annot=NAT, seed_annot=seed_ty)
            case "mu":
                a = self.fresh("a")
                inner_ty = rng.choice([NAT, ty])
                benv = self._bind_covar(env, a, ty)
                v = self.term(inner_ty, depth - 1, benv, value=False)
                e = self.coterm(inner_ty, depth - 1, benv, covalue=False)
                return Mu(a, Command(v, e), ty)
        raise AssertionError

    def coterm(self, ty: TypeExpr, depth: int, env, covalue: bool) -> CoTerm:
        """A coterm consuming the given type; a CBN covalue when covalue=True."""

        rng = self.rng
        opts = []
        cs = self._covars_of(env, ty)
        if cs:
            opts.append("covar")
        if depth > 0:
            if ty == NAT:
                opts.append("rec")
            if ty == SNAT:
                opts += ["head", "tail"]
            if ty == FN:
                opts.append("call")
            if self.loose or not covalue:
                opts.append("mutilde")
        if not opts:
            if covalue:
                # Minimal covalue of each type, ending in the top continuation.
                if ty == NAT:
                    return CoVar("a0")
                if ty == SNAT:
                    return Head(CoVar("a0"))
                return Call(Zero(), CoVar("a0"))
            # Discard the input into the top continuation.
            x = self.fresh("x")
            return MuTilde(x, Command(Zero(), CoVar("a0")), ty)
        match rng.choice(opts):
            case "covar":
                return CoVar(rng.choice(cs))
            case "rec":
                result = NAT
                zb = self.term(result, depth - 1, env, value=False)
                x, y = self.fresh("x"), self.fresh("y")
                senv = self._bind_var(self._bind_var(env, x, NAT), y, result)
                sb = self.term(result, depth - 1, senv, value=False)
                ret = self.coterm(result, depth - 1, env, covalue=True)
                return RecNat(zb, x, y, sb, ret, annot=result)
            case "head":
                return Head(self.coterm(NAT, depth - 1, env, covalue=True))
            case "tail":
                return Tail(self.coterm(SNAT, depth - 1, env, covalue=True))
            case "call":
                arg = self.term(NAT, depth - 1, env, value=True)
                return Call(arg, self.coterm(NAT, depth - 1, env, covalue=True))
            case "mutilde":
                x = self.fresh("x")
                inner_ty = rng.choice([NAT, ty])
                benv = self._bind_var(env, x, ty)
                v = self.term(inner_ty, depth - 1, benv, value=False)
                e = self.coterm(inner_ty, depth - 1, benv, covalue=False)
                return MuTilde(x, Command(v, e), ty)
        raise AssertionError


DUAL_TYPES = [
    NAT,
    Numbered(NAT),
    Stream(NAT),
    Prod(NAT, NAT),
    Sum(NAT, NAT),
    Numbered(Numbered(NAT)),
    Stream(Numbered(NAT)),
]


class DualGen:
    """Commands in the dualizable fragment, over free leaves."""

    def __init__(self, seed: int, loose: bool = False):
        self.rng = random.Random(seed)
        self.counter = 0
        self.loose = loose
        self.free_vars: dict[str, TypeExpr] = {}
        self.free_covars: dict[str, TypeExpr] = {}

    def fresh(self, hint: str) -> str:
        self.counter += 1
        return f"{hint}{self.counter}"

    def command(self, depth: int = 4) -> tuple[Command, dict, dict]:
        self.free_vars = {}
        self.free_covars = {}
        ty = self.rng.choice(DUAL_TYPES)
        v = self.term(ty, depth, {}, {}, value=False)
        e = self.coterm(ty, depth, {}, {}, covalue=False)
        return Command(v, e), dict(self.free_vars), dict(self.free_covars)

    def _leaf_var(self, ty, bound_vars) -> Term:
        names = [x for x, t in bound_vars.items() if t == ty]
        if names and self.rng.random() < 0.6:
            return Var(self.rng.choice(names))
        for x, t in self.free_vars.items():
            if t == ty and self.rng.random() < 0.5:
                return Var(x)
        x = self.fresh("fv")
        self.free_vars[x] = ty
        return Var(x)

    def _leaf_covar(self, ty, bound_covars) -> CoTerm:
        names = [a for a, t in bound_covars.items() if t == ty]
        if names and self.rng.random() < 0.6:
            return CoVar(self.rng.choice(names))
        for a, t in self.free_covars.items():
            if t == ty and self.rng.random() < 0.5:
                return CoVar(a)
        a = self.fresh("fc")
        self.free_covars[a] = ty
        return CoVar(a)

    def term(self, ty: TypeExpr, depth: int, bv, bc, value: bool) -> Term:
        rng = self.rng
        if depth <= 0:
            return self._leaf_var(ty, bv)
        opts = ["var"]
        if self.loose or not value:
            opts.append("mu")
        match ty:
            case Numbered(p):
                opts += ["numzero", "numsucc"]
            case Stream(_):
                opts.append("corec")
            case Prod(_, _):
                opts.append("pair")
            case Sum(_, _):
                opts += ["inl", "inr"]
        match rng.choice(opts):
            case "var":
                return self._leaf_var(ty, bv)
            case "mu":
                a = self.fresh("mc")
                inner = rng.choice(DUAL_TYPES)
                bc2 = {**bc, a: ty}
                return Mu(
                    a,
                    Command(
                        self.term(inner, depth - 1, bv, bc2, value=False),
                        self.coterm(inner, depth - 1, bv, bc2, covalue=False),
                    ),
                    ty,
                )
            case "numzero":
                return NumZero(self.term(ty.payload, depth - 1, bv, bc, value=True))
            case "numsucc":
                return NumSucc(self.term(ty, depth - 1, bv, bc, value=True))
            case "corec":
                elem = ty.elem
                seed_ty = rng.choice([NAT, Numbered(NAT)])
                ha, ta, tg = self.fresh("hc"), self.fresh("tc"), self.fresh("gc")
                he = self.coterm(seed_ty, depth - 1, bv, {**bc, ha: elem}, covalue=False)
                te = self.coterm(seed_ty, depth - 1, bv, {**bc, ta: ty, tg: seed_ty}, covalue=False)
                seed = self.term(seed_ty, depth - 1, bv, bc, value=True)
                return CoRec(ha, he, ta, tg, te, seed, elem_annot=elem, seed_annot=seed_ty)
            case "pair":
                return Pair(
                    self.term(ty.left, depth - 1, bv, bc, value=True),
                    self.term(ty.right, depth - 1, bv, bc, value=True),
                )
            case "inl":
                return InL(self.term(ty.left, depth - 1, bv, bc, value=True), ty.right)
            case "inr":
                return InR(self.term(ty.right, depth - 1, bv, bc, value=True), ty.left)
        raise AssertionError

    def coterm(self, ty: TypeExpr, depth: int, bv, bc, covalue: bool) -> CoTerm:
        rng = self.rng
        if depth <= 0:
            return self._leaf_covar(ty, bc)
        opts = ["covar"]
        if self.loose or not covalue:
            opts.append("mutilde")
        match ty:
            case Numbered(_):
                opts.append("recnum")
            case Stream(_):
                opts += ["head", "tail"]
            case Prod(_, _):
                opts += ["fst", "snd"]
            case Sum(_, _):
                opts.append("case")
        match rng.choice(opts):
            case "covar":
                return self._leaf_covar(ty, bc)
            case "mutilde":
                x = self.fresh("mv")
                inner = rng.choice(DUAL_TYPES)
                bv2 = {**bv, x: ty}
                return MuTilde(
                    x,
                    Command(
                        self.term(inner, depth - 1, bv2, bc, value=False),
                        self.coterm(inner, depth - 1, bv2, bc, covalue=False),
                    ),
                    ty,
                )
            case "recnum":
                payload = ty.payload
                result = rng.choice([NAT, Numbered(NAT)])
                p, x, y = self.fresh("pv"), self.fresh("xv"), self.fresh("yv")
                zb = self.term(result, depth - 1, {**bv, p: payload}, bc, value=False)
                sb = self.term(result, depth - 1, {**bv, x: ty, y: result}, bc, value=False)
                ret = self.coterm(result, depth - 1, bv, bc, covalue=True)
                return RecNum(p, zb, x, y, sb, ret, payload_annot=payload, annot=result)
            case "head":
                return Head(self.coterm(ty.elem, depth - 1, bv, bc, covalue=True))
            case "tail":
                return Tail(self.coterm(ty, depth - 1, bv, bc, covalue=True))
            case "fst":
                return Fst(self.coterm(ty.left, depth - 1, bv, bc, covalue=True), ty.right)
            case "snd":
                return Snd(self.coterm(ty.right, depth - 1, bv, bc, covalue=True), ty.left)
            case "case":
                # Branches are kept covalues so the dual pair has value
                # components; case splits with comu branches are legal but
                # sit outside the operationally symmetric fragment.
                return SumCase(
                    self.coterm(ty.left, depth - 1, bv, bc, covalue=True),
                    self.coterm(ty.right, depth - 1, bv, bc, covalue=True),
                )
        raise AssertionError


def one_of_each() -> list:
    """One node of every node class, kernel and front end, with each
    optional type field given."""

    x, a = Var("x"), CoVar("a")
    mt = MuTilde("y", Command(Var("y"), a), NAT)
    return [
        Command(x, a), x, Mu("b", Command(x, CoVar("b")), NAT), Lam("y", Var("y"), NAT), Zero(), Succ(x),
        NumZero(x), NumSucc(NumZero(x)), Pair(Zero(), x), InL(x, NAT), InR(x, NAT),
        CoRec("h", CoVar("h"), "t", "g", CoVar("g"), x, NAT, NAT), a, mt, Call(x, a),
        RecNat(Zero(), "p", "r", Var("r"), a, NAT), RecNum("z", Var("z"), "p", "r", Var("r"), a, NAT, NAT),
        Head(a), Tail(a), Fst(a, NAT), Snd(a, NAT), SumCase(a, mt),
        App(Var("f"), x), RecTerm(x, Zero(), "p", "r", Var("r")), NumLit(2), Ref("f"),
    ]
