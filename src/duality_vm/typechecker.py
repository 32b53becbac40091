"""Type checker for the machine language: the sequent typing rules, once.

Judgments: a term produces a type, a coterm consumes a type, and a command
is a well-formed cut of a producer against a consumer of the same type.
Checking is bottom-up inference with no unification; binder annotations on
``mu``/``comu``/``fun``/``corec`` supply the types inference cannot guess.
A lightweight checking mode lets an unannotated binder be pushed against a
type known from the other side of a cut, which is how commands produced by
machine steps stay checkable.

The rules are the methods of ``Elaborator``.  Each rule rebuilds the node
it checks with every inferable annotation filled in (recursor result
types, corecursor seed types, binder types), so that the small-step rules
can propagate annotations; ``elaborate_command`` returns that rebuilt
command.  Wherever a strategy's grammar asks for a value or a covalue, the
rule hands the rebuilt child to a staging hook (``_as_value``,
``_as_covalue``, ``_call``) whose version here builds the node unchanged.
``surface.Compiler`` overrides those hooks to insert the mu/comu bindings
that staging needs, and ``_other_term`` to add the front-end forms, so
typing and compiling run the same rules in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping

from .kernel import (
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
    type_str,
)




class TypeCheckError(Exception):
    """A typing failure, pinned to a path into the checked node."""

    def __init__(
        self,
        kind: str,
        path: str,
        message: str,
        expected: TypeExpr | None = None,
        found: TypeExpr | None = None,
    ):
        self.kind = kind
        self.path = path
        self.expected = expected
        self.found = found
        self.message = message
        detail = message
        if expected is not None and found is not None:
            detail += f" (expected {type_str(expected)}, found {type_str(found)})"
        super().__init__(f"{path}: {detail}")


@dataclass(frozen=True)
class TypeEnv:
    """Variable and covariable typings; immutable, binds return extensions."""

    vars: Mapping[str, TypeExpr]
    covars: Mapping[str, TypeExpr]

    @staticmethod
    def make(vars: dict[str, TypeExpr] | None = None, covars: dict[str, TypeExpr] | None = None) -> "TypeEnv":
        vars = dict(vars or {})
        covars = dict(covars or {})
        both = set(vars) & set(covars)
        if both:
            raise ValueError(f"names bound as both variable and covariable: {sorted(both)}")
        return TypeEnv(MappingProxyType(vars), MappingProxyType(covars))

    def bind_var(self, name: str, t: TypeExpr) -> "TypeEnv":
        d = dict(self.vars)
        d[name] = t
        return TypeEnv(MappingProxyType(d), self.covars)

    def bind_covar(self, name: str, t: TypeExpr) -> "TypeEnv":
        d = dict(self.covars)
        d[name] = t
        return TypeEnv(self.vars, MappingProxyType(d))

    def lookup_var(self, name: str, path: str) -> TypeExpr:
        try:
            return self.vars[name]
        except KeyError:
            raise TypeCheckError("UnboundName", path, f"unbound variable {name!r}") from None

    def lookup_covar(self, name: str, path: str) -> TypeExpr:
        try:
            return self.covars[name]
        except KeyError:
            raise TypeCheckError("UnboundName", path, f"unbound covariable {name!r}") from None


EMPTY_ENV = TypeEnv.make()


def _mismatch(path: str, expected: TypeExpr, found: TypeExpr) -> TypeCheckError:
    return TypeCheckError("Mismatch", path, "type mismatch", expected=expected, found=found)


def _disagrees(what: str, path: str, expected: TypeExpr, found: TypeExpr) -> TypeCheckError:
    return TypeCheckError("Mismatch", path, f"{what} annotation disagrees", expected=expected, found=found)


# The terms the rules cover; any other term goes to Elaborator._other_term.
_MACHINE_TERMS = (Var, Zero, Succ, NumZero, NumSucc, Pair, InL, InR, Lam, Mu, CoRec)


class Elaborator:
    """The typing rules; each returns the node rebuilt with its annotations.

    ``*_infer`` methods find the type of a node, ``*_check`` methods push a
    known type into it, and ``command`` checks a cut.  A subclass changes
    only the staging hooks and ``_other_term``: every rule hands each child
    that the grammar constrains to a hook instead of building its parent
    directly.
    """

    # -- hooks

    def _as_value(self, t: Term, ty: TypeExpr, build, out_ty: TypeExpr) -> Term:
        """build(t), where the grammar wants t (of type ty) to be a value;
        the built term has type out_ty."""

        return build(t)

    def _as_covalue(self, e: CoTerm, consumed: TypeExpr, build, built_consumes: TypeExpr) -> CoTerm:
        """build(e), where the grammar wants e (consuming ``consumed``) to be
        a covalue; the built coterm consumes built_consumes."""

        return build(e)

    def _call(self, arg: Term, arg_ty: TypeExpr, rest: CoTerm, rest_ty: TypeExpr) -> CoTerm:
        """The call stack ``arg . rest``: its argument must be a value and its
        tail a covalue."""

        return Call(arg, rest)

    def _other_term(self, env: TypeEnv, t: Term, expected: TypeExpr | None,
                    path: str) -> tuple[TypeExpr, Term]:
        """A term that is not a machine term, to check against expected or,
        when that is None, to infer."""

        raise TypeCheckError("Mismatch", path, f"not a machine term: {type(t).__name__} (translate first)")

    @staticmethod
    def _expect(expected: TypeExpr, found: TypeExpr, out, path: str):
        if found != expected:
            raise _mismatch(path, expected, found)
        return out

    # -- terms

    def term_infer(self, env: TypeEnv, t: Term, path: str) -> tuple[TypeExpr, Term]:
        match t:
            case Var(name):
                return env.lookup_var(name, path), t
            case Zero():
                return Nat(), t
            case Succ(arg):
                out = self.term_check(env, arg, Nat(), f"{path}.arg")
                return Nat(), self._as_value(out, Nat(), Succ, Nat())
            case NumZero(arg):
                a, out = self.term_infer(env, arg, f"{path}.arg")
                return Numbered(a), self._as_value(out, a, NumZero, Numbered(a))
            case NumSucc(arg):
                a, out = self.term_infer(env, arg, f"{path}.arg")
                if not isinstance(a, Numbered):
                    raise TypeCheckError(
                        "Mismatch", f"{path}.arg", "numbered successor of a non-Numbered value",
                        expected=Numbered(a), found=a,
                    )
                return a, self._as_value(out, a, NumSucc, a)
            case Pair(l, r):
                lt, lo = self.term_infer(env, l, f"{path}.left")
                rt, ro = self.term_infer(env, r, f"{path}.right")
                ty = Prod(lt, rt)
                return ty, self._pair(lo, ro, ty)
            case InL(arg, other):
                if other is None:
                    raise TypeCheckError(
                        "AnnotationRequired", path, "left injection needs the right component type"
                    )
                a, out = self.term_infer(env, arg, f"{path}.arg")
                ty = Sum(a, other)
                return ty, self._as_value(out, a, lambda v: InL(v, other), ty)
            case InR(arg, other):
                if other is None:
                    raise TypeCheckError(
                        "AnnotationRequired", path, "right injection needs the left component type"
                    )
                a, out = self.term_infer(env, arg, f"{path}.arg")
                ty = Sum(other, a)
                return ty, self._as_value(out, a, lambda v: InR(v, other), ty)
            case Lam(x, body, annot):
                if annot is None:
                    raise TypeCheckError(
                        "AnnotationRequired", path, "function binder needs a type annotation"
                    )
                b, out = self.term_infer(env.bind_var(x, annot), body, f"{path}.body")
                return Fn(annot, b), Lam(x, out, annot)
            case Mu(a, body, annot):
                if annot is None:
                    raise TypeCheckError("AnnotationRequired", path, "mu binder needs a type annotation")
                return annot, Mu(a, self.command(env.bind_covar(a, annot), body, f"{path}.body"), annot)
            case CoRec(elem_annot=ea):
                if ea is None:
                    raise TypeCheckError(
                        "AnnotationRequired", path, "corecursor needs its element type annotation"
                    )
                return self._corec(env, t, ea, path)
        return self._other_term(env, t, None, path)

    def term_check(self, env: TypeEnv, t: Term, expected: TypeExpr, path: str) -> Term:
        match t:
            case Mu(a, body, annot):
                if annot is not None and annot != expected:
                    raise _disagrees("mu", path, expected, annot)
                return Mu(a, self.command(env.bind_covar(a, expected), body, f"{path}.body"), expected)
            case Lam(x, body, annot):
                if not isinstance(expected, Fn):
                    raise TypeCheckError(
                        "Mismatch", path, "function used at a non-function type", expected=expected
                    )
                if annot is not None and annot != expected.arg:
                    raise _disagrees("binder", path, expected.arg, annot)
                out = self.term_check(env.bind_var(x, expected.arg), body, expected.ret, f"{path}.body")
                return Lam(x, out, expected.arg)
            case Succ(arg) if expected == Nat():
                out = self.term_check(env, arg, Nat(), f"{path}.arg")
                return self._as_value(out, Nat(), Succ, Nat())
            case NumZero(arg) if isinstance(expected, Numbered):
                out = self.term_check(env, arg, expected.payload, f"{path}.arg")
                return self._as_value(out, expected.payload, NumZero, expected)
            case NumSucc(arg) if isinstance(expected, Numbered):
                out = self.term_check(env, arg, expected, f"{path}.arg")
                return self._as_value(out, expected, NumSucc, expected)
            case Pair(l, r) if isinstance(expected, Prod):
                lo = self.term_check(env, l, expected.left, f"{path}.left")
                ro = self.term_check(env, r, expected.right, f"{path}.right")
                return self._pair(lo, ro, expected)
            case InL(arg, other) if isinstance(expected, Sum):
                if other is not None and other != expected.right:
                    raise _disagrees("injection", path, expected.right, other)
                out = self.term_check(env, arg, expected.left, f"{path}.arg")
                return self._as_value(out, expected.left, lambda v: InL(v, expected.right), expected)
            case InR(arg, other) if isinstance(expected, Sum):
                if other is not None and other != expected.left:
                    raise _disagrees("injection", path, expected.left, other)
                out = self.term_check(env, arg, expected.right, f"{path}.arg")
                return self._as_value(out, expected.right, lambda v: InR(v, expected.left), expected)
            case CoRec(elem_annot=ea) if isinstance(expected, Stream):
                if ea is not None and ea != expected.elem:
                    raise _disagrees("corecursor", path, expected.elem, ea)
                return self._corec(env, t, expected.elem, path)[1]
        if isinstance(t, _MACHINE_TERMS):
            found, out = self.term_infer(env, t, path)
            return self._expect(expected, found, out, path)
        return self._other_term(env, t, expected, path)[1]

    def _pair(self, left: Term, right: Term, ty: Prod) -> Term:
        """Pair(left, right): both components must be values."""

        def with_left(lv: Term) -> Term:
            return self._as_value(right, ty.right, lambda rv: Pair(lv, rv), ty)

        return self._as_value(left, ty.left, with_left, ty)

    def _corec(self, env: TypeEnv, t: CoRec, elem: TypeExpr, path: str) -> tuple[TypeExpr, Term]:
        seed_ty, seed = self.term_infer(env, t.seed, f"{path}.seed")
        head = self.coterm_check(env.bind_covar(t.head_covar, elem), t.head_body, seed_ty, f"{path}.head")
        tenv = env.bind_covar(t.tail_covar, Stream(elem)).bind_covar(t.tail_seed_covar, seed_ty)
        tail = self.coterm_check(tenv, t.tail_body, seed_ty, f"{path}.tail")

        def build(v: Term) -> Term:
            return replace(t, head_body=head, tail_body=tail, seed=v, elem_annot=elem, seed_annot=seed_ty)

        return Stream(elem), self._as_value(seed, seed_ty, build, Stream(elem))

    # -- coterms

    def coterm_infer(self, env: TypeEnv, e: CoTerm, path: str) -> tuple[TypeExpr, CoTerm]:
        match e:
            case CoVar(name):
                return env.lookup_covar(name, path), e
            case MuTilde(x, body, annot):
                if annot is None:
                    raise TypeCheckError("AnnotationRequired", path, "comu binder needs a type annotation")
                return annot, MuTilde(x, self.command(env.bind_var(x, annot), body, f"{path}.body"), annot)
            case Call(arg, rest):
                a, aout = self.term_infer(env, arg, f"{path}.arg")
                b, rout = self.coterm_infer(env, rest, f"{path}.rest")
                return Fn(a, b), self._call(aout, a, rout, b)
            case RecNat():
                return self._rec(env, e, None, path)
            case RecNum(payload_annot=pa):
                if pa is None:
                    raise TypeCheckError(
                        "AnnotationRequired", path, "numbered recursor needs its payload type annotation"
                    )
                return self._rec(env, e, pa, path)
            case Head(rest):
                a, out = self.coterm_infer(env, rest, f"{path}.rest")
                return Stream(a), self._as_covalue(out, a, Head, Stream(a))
            case Tail(rest):
                st, out = self.coterm_infer(env, rest, f"{path}.rest")
                if not isinstance(st, Stream):
                    raise TypeCheckError("Mismatch", f"{path}.rest", "tail of a non-stream",
                                         expected=Stream(st), found=st)
                return st, self._as_covalue(out, st, Tail, st)
            case Fst(rest, other):
                if other is None:
                    raise TypeCheckError(
                        "AnnotationRequired", path, "first projection needs the right component type"
                    )
                a, out = self.coterm_infer(env, rest, f"{path}.rest")
                ty = Prod(a, other)
                return ty, self._as_covalue(out, a, lambda E: Fst(E, other), ty)
            case Snd(rest, other):
                if other is None:
                    raise TypeCheckError(
                        "AnnotationRequired", path, "second projection needs the left component type"
                    )
                a, out = self.coterm_infer(env, rest, f"{path}.rest")
                ty = Prod(other, a)
                return ty, self._as_covalue(out, a, lambda E: Snd(E, other), ty)
            case SumCase(l, r):
                lt, lo = self.coterm_infer(env, l, f"{path}.left")
                rt, ro = self.coterm_infer(env, r, f"{path}.right")
                return Sum(lt, rt), SumCase(lo, ro)
        raise TypeCheckError("Mismatch", path, f"not a machine coterm: {type(e).__name__} (translate first)")

    def coterm_check(self, env: TypeEnv, e: CoTerm, expected: TypeExpr, path: str) -> CoTerm:
        match e:
            case MuTilde(x, body, annot):
                if annot is not None and annot != expected:
                    raise _disagrees("comu", path, expected, annot)
                return MuTilde(x, self.command(env.bind_var(x, expected), body, f"{path}.body"), expected)
            case Call(arg, rest) if isinstance(expected, Fn):
                aout = self.term_check(env, arg, expected.arg, f"{path}.arg")
                rout = self.coterm_check(env, rest, expected.ret, f"{path}.rest")
                return self._call(aout, expected.arg, rout, expected.ret)
            case Head(rest) if isinstance(expected, Stream):
                out = self.coterm_check(env, rest, expected.elem, f"{path}.rest")
                return self._as_covalue(out, expected.elem, Head, expected)
            case Tail(rest) if isinstance(expected, Stream):
                out = self.coterm_check(env, rest, expected, f"{path}.rest")
                return self._as_covalue(out, expected, Tail, expected)
            case Fst(rest, other) if isinstance(expected, Prod):
                if other is not None and other != expected.right:
                    raise _disagrees("projection", path, expected.right, other)
                out = self.coterm_check(env, rest, expected.left, f"{path}.rest")
                return self._as_covalue(out, expected.left, lambda E: Fst(E, expected.right), expected)
            case Snd(rest, other) if isinstance(expected, Prod):
                if other is not None and other != expected.left:
                    raise _disagrees("projection", path, expected.left, other)
                out = self.coterm_check(env, rest, expected.right, f"{path}.rest")
                return self._as_covalue(out, expected.right, lambda E: Snd(E, expected.left), expected)
            case SumCase(l, r) if isinstance(expected, Sum):
                lo = self.coterm_check(env, l, expected.left, f"{path}.left")
                ro = self.coterm_check(env, r, expected.right, f"{path}.right")
                return SumCase(lo, ro)
            case RecNat() if expected == Nat():
                return self._rec(env, e, None, path)[1]
            case RecNum(payload_annot=pa) if isinstance(expected, Numbered):
                if pa is not None and pa != expected.payload:
                    raise _disagrees("payload", path, expected.payload, pa)
                return self._rec(env, e, expected.payload, path)[1]
        found, out = self.coterm_infer(env, e, path)
        return self._expect(expected, found, out, path)

    def _rec(self, env: TypeEnv, e: RecNat | RecNum, payload: TypeExpr | None,
             path: str) -> tuple[TypeExpr, CoTerm]:
        """Both recursors; payload is the payload type of a numbered one.

        The result type is the annotation, else the zero branch's, else the
        return continuation's.  An inferred zero branch is kept, so it is
        traversed once.
        """

        numbered = isinstance(e, RecNum)
        scrut = Numbered(payload) if numbered else Nat()
        zenv = env.bind_var(e.payload_var, payload) if numbered else env
        result, zout = e.annot, None
        if result is None:
            try:
                result, zout = self.term_infer(zenv, e.zero_body, f"{path}.zero")
            except TypeCheckError as ex:
                if ex.kind != "AnnotationRequired":
                    raise
                result, _ = self.coterm_infer(env, e.ret, f"{path}.ret")
        if zout is None:
            zout = self.term_check(zenv, e.zero_body, result, f"{path}.zero")
        senv = env.bind_var(e.pred_var, scrut).bind_var(e.result_var, result)
        sout = self.term_check(senv, e.succ_body, result, f"{path}.succ")
        rout = self.coterm_check(env, e.ret, result, f"{path}.ret")
        annots = {"payload_annot": payload} if numbered else {}

        def build(E: CoTerm) -> CoTerm:
            return replace(e, zero_body=zout, succ_body=sout, ret=E, annot=result, **annots)

        return scrut, self._as_covalue(rout, result, build, scrut)

    # -- commands

    def command(self, env: TypeEnv, c: Command, path: str) -> Command:
        try:
            ty, vout = self.term_infer(env, c.producer, f"{path}.producer")
        except TypeCheckError as first:
            if first.kind != "AnnotationRequired":
                raise
            # Producer needs a type from the outside: infer the consumer instead.
            ty, eout = self.coterm_infer(env, c.consumer, f"{path}.consumer")
            return Command(self.term_check(env, c.producer, ty, f"{path}.producer"), eout)
        consumer_path = f"{path}.consumer"
        try:
            eout = self.coterm_check(env, c.consumer, ty, consumer_path)
        except TypeCheckError as ex:
            if ex.kind == "Mismatch" and ex.path == consumer_path and ex.found is not None:
                raise TypeCheckError(
                    "CutMismatch", path, "producer and consumer disagree", expected=ty, found=ex.found
                ) from None
            raise
        return Command(vout, eout)


# ---------------------------------------------------------------------------
# Public API

_RULES = Elaborator()


def infer_term(env: TypeEnv, t: Term) -> TypeExpr:
    """The unique type t produces under env, or a TypeCheckError."""

    return _RULES.term_infer(env, t, "term")[0]


def infer_coterm(env: TypeEnv, e: CoTerm) -> TypeExpr:
    """The unique type e consumes under env, or a TypeCheckError."""

    return _RULES.coterm_infer(env, e, "coterm")[0]


def elaborate_command(env: TypeEnv, c: Command) -> Command:
    """Check c and return it with all inferable annotations filled in."""

    return _RULES.command(env, c, "command")


def check_command(env: TypeEnv, c: Command) -> None:
    """Raise TypeCheckError unless both sides of the cut agree on a type."""

    elaborate_command(env, c)
