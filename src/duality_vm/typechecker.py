"""Type checker for the machine language: the sequent typing rules, once.

Judgments: a term produces a type, a coterm consumes a type, and a command
is a well-formed cut of a producer against a consumer of the same type.
Checking is bidirectional with no unification: each rule takes an optional
expected type.  Without one it infers, and binder annotations on
``mu``/``comu``/``fun``/``corec`` supply the types inference cannot guess;
with one it pushes the type into the children it fixes, so an unannotated
binder can take a type known from the other side of a cut.  That is how
commands produced by machine steps stay checkable.

The rules are the methods of ``Elaborator``: one per sort, ``term``,
``coterm`` and ``command``.  Each rule rebuilds the node it checks with
every inferable annotation filled in (recursor result types, corecursor
seed types, binder types), so that the small-step rules can propagate
annotations; ``elaborate_command`` returns that rebuilt command.  Wherever
a strategy's grammar asks for a value or a covalue, the rule hands the
rebuilt child to a staging hook (``_as_value``, ``_as_covalue``, ``_call``)
whose version here builds the node unchanged.  ``surface.Compiler``
overrides those hooks to insert the mu/comu bindings that staging needs,
and ``_other_term`` to add the front-end forms, so typing and compiling run
the same rules in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
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


_FIELDS = {cls: attrgetter(*cls.__match_args__) for cls in (Fn, Prod, Sum)}


def _parts(expected: TypeExpr | None, cls: type) -> tuple:
    """The two fields of expected if it is a cls, else (None, None)."""

    return _FIELDS[cls](expected) if isinstance(expected, cls) else (None, None)


class Elaborator:
    """The typing rules; each returns the node rebuilt with its annotations.

    ``term`` and ``coterm`` hold one rule per node class.  With an expected
    type they check the node against it, pushing the type into the children
    whose types it fixes; with None they infer.  A rule that cannot use the
    expected type infers and compares.  ``command`` checks a cut.  A subclass
    changes only the staging hooks and ``_other_term``: every rule hands each
    child that the grammar constrains to a hook instead of building its
    parent directly.
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
    def _expect(expected: TypeExpr | None, found: TypeExpr, out, path: str):
        if expected is not None and found != expected:
            raise _mismatch(path, expected, found)
        return found, out

    @staticmethod
    def _annot(what: str, annot: TypeExpr | None, pushed: TypeExpr | None, path: str,
               needs: str) -> TypeExpr:
        """The type a binder or type field stands for: the pushed type, which
        the annotation must agree with, else the annotation, which is then
        required."""

        if pushed is None:
            if annot is None:
                raise TypeCheckError("AnnotationRequired", path, needs)
            return annot
        if annot is not None and annot != pushed:
            raise _disagrees(what, path, pushed, annot)
        return pushed

    # -- terms

    def term(self, env: TypeEnv, t: Term, expected: TypeExpr | None,
             path: str) -> tuple[TypeExpr, Term]:
        match t:
            case Var(name):
                return self._expect(expected, env.lookup_var(name, path), t, path)
            case Zero():
                return self._expect(expected, Nat(), t, path)
            case Succ(arg):
                _, out = self.term(env, arg, Nat(), f"{path}.arg")
                return self._expect(expected, Nat(), self._as_value(out, Nat(), Succ, Nat()), path)
            case NumZero(arg):
                payload = expected.payload if isinstance(expected, Numbered) else None
                a, out = self.term(env, arg, payload, f"{path}.arg")
                ty = Numbered(a)
                return self._expect(expected, ty, self._as_value(out, a, NumZero, ty), path)
            case NumSucc(arg):
                pushed = expected if isinstance(expected, Numbered) else None
                a, out = self.term(env, arg, pushed, f"{path}.arg")
                if not isinstance(a, Numbered):
                    raise TypeCheckError(
                        "Mismatch", f"{path}.arg", "numbered successor of a non-Numbered value",
                        expected=Numbered(a), found=a,
                    )
                return self._expect(expected, a, self._as_value(out, a, NumSucc, a), path)
            case Pair(l, r):
                left, right = _parts(expected, Prod)
                lt, lo = self.term(env, l, left, f"{path}.left")
                rt, ro = self.term(env, r, right, f"{path}.right")
                ty = Prod(lt, rt)
                return self._expect(expected, ty, self._pair(lo, ro, ty), path)
            case InL(arg, other):
                left, right = _parts(expected, Sum)
                other = self._annot("injection", other, right, path,
                                    "left injection needs the right component type")
                a, out = self.term(env, arg, left, f"{path}.arg")
                ty = Sum(a, other)
                return self._expect(expected, ty, self._as_value(out, a, lambda v: InL(v, other), ty), path)
            case InR(arg, other):
                left, right = _parts(expected, Sum)
                other = self._annot("injection", other, left, path,
                                    "right injection needs the left component type")
                a, out = self.term(env, arg, right, f"{path}.arg")
                ty = Sum(other, a)
                return self._expect(expected, ty, self._as_value(out, a, lambda v: InR(v, other), ty), path)
            case Lam(x, body, annot):
                if expected is not None and not isinstance(expected, Fn):
                    raise TypeCheckError(
                        "Mismatch", path, "function used at a non-function type", expected=expected
                    )
                arg, ret = _parts(expected, Fn)
                annot = self._annot("binder", annot, arg, path, "function binder needs a type annotation")
                b, out = self.term(env.bind_var(x, annot), body, ret, f"{path}.body")
                return Fn(annot, b), Lam(x, out, annot)
            case Mu(a, body, annot):
                annot = self._annot("mu", annot, expected, path, "mu binder needs a type annotation")
                return annot, Mu(a, self.command(env.bind_covar(a, annot), body, f"{path}.body"), annot)
            case CoRec(elem_annot=ea):
                pushed = expected.elem if isinstance(expected, Stream) else None
                elem = self._annot("corecursor", ea, pushed, path,
                                   "corecursor needs its element type annotation")
                return self._expect(expected, *self._corec(env, t, elem, path), path)
        return self._other_term(env, t, expected, path)

    def _pair(self, left: Term, right: Term, ty: Prod) -> Term:
        """Pair(left, right): both components must be values."""

        def with_left(lv: Term) -> Term:
            return self._as_value(right, ty.right, lambda rv: Pair(lv, rv), ty)

        return self._as_value(left, ty.left, with_left, ty)

    def _corec(self, env: TypeEnv, t: CoRec, elem: TypeExpr, path: str) -> tuple[TypeExpr, Term]:
        seed_ty, seed = self.term(env, t.seed, None, f"{path}.seed")
        _, head = self.coterm(env.bind_covar(t.head_covar, elem), t.head_body, seed_ty, f"{path}.head")
        tenv = env.bind_covar(t.tail_covar, Stream(elem)).bind_covar(t.tail_seed_covar, seed_ty)
        _, tail = self.coterm(tenv, t.tail_body, seed_ty, f"{path}.tail")

        def build(v: Term) -> Term:
            return replace(t, head_body=head, tail_body=tail, seed=v, elem_annot=elem, seed_annot=seed_ty)

        return Stream(elem), self._as_value(seed, seed_ty, build, Stream(elem))

    # -- coterms

    def coterm(self, env: TypeEnv, e: CoTerm, expected: TypeExpr | None,
               path: str) -> tuple[TypeExpr, CoTerm]:
        match e:
            case CoVar(name):
                return self._expect(expected, env.lookup_covar(name, path), e, path)
            case MuTilde(x, body, annot):
                annot = self._annot("comu", annot, expected, path, "comu binder needs a type annotation")
                return annot, MuTilde(x, self.command(env.bind_var(x, annot), body, f"{path}.body"), annot)
            case Call(arg, rest):
                arg_ty, ret_ty = _parts(expected, Fn)
                a, aout = self.term(env, arg, arg_ty, f"{path}.arg")
                b, rout = self.coterm(env, rest, ret_ty, f"{path}.rest")
                return self._expect(expected, Fn(a, b), self._call(aout, a, rout, b), path)
            case RecNat():
                return self._expect(expected, *self._rec(env, e, None, path), path)
            case RecNum(payload_annot=pa):
                pushed = expected.payload if isinstance(expected, Numbered) else None
                pa = self._annot("payload", pa, pushed, path,
                                 "numbered recursor needs its payload type annotation")
                return self._expect(expected, *self._rec(env, e, pa, path), path)
            case Head(rest):
                elem = expected.elem if isinstance(expected, Stream) else None
                a, out = self.coterm(env, rest, elem, f"{path}.rest")
                return self._expect(expected, Stream(a), self._as_covalue(out, a, Head, Stream(a)), path)
            case Tail(rest):
                pushed = expected if isinstance(expected, Stream) else None
                st, out = self.coterm(env, rest, pushed, f"{path}.rest")
                if not isinstance(st, Stream):
                    raise TypeCheckError("Mismatch", f"{path}.rest", "tail of a non-stream",
                                         expected=Stream(st), found=st)
                return self._expect(expected, st, self._as_covalue(out, st, Tail, st), path)
            case Fst(rest, other):
                left, right = _parts(expected, Prod)
                other = self._annot("projection", other, right, path,
                                    "first projection needs the right component type")
                a, out = self.coterm(env, rest, left, f"{path}.rest")
                ty = Prod(a, other)
                return self._expect(expected, ty, self._as_covalue(out, a, lambda E: Fst(E, other), ty), path)
            case Snd(rest, other):
                left, right = _parts(expected, Prod)
                other = self._annot("projection", other, left, path,
                                    "second projection needs the left component type")
                a, out = self.coterm(env, rest, right, f"{path}.rest")
                ty = Prod(other, a)
                return self._expect(expected, ty, self._as_covalue(out, a, lambda E: Snd(E, other), ty), path)
            case SumCase(l, r):
                left, right = _parts(expected, Sum)
                lt, lo = self.coterm(env, l, left, f"{path}.left")
                rt, ro = self.coterm(env, r, right, f"{path}.right")
                return self._expect(expected, Sum(lt, rt), SumCase(lo, ro), path)
        raise TypeCheckError("Mismatch", path, f"not a machine coterm: {type(e).__name__} (translate first)")

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
        try:
            result, zout = self.term(zenv, e.zero_body, e.annot, f"{path}.zero")
        except TypeCheckError as ex:
            if ex.kind != "AnnotationRequired" or e.annot is not None:
                raise
            result, _ = self.coterm(env, e.ret, None, f"{path}.ret")
            _, zout = self.term(zenv, e.zero_body, result, f"{path}.zero")
        senv = env.bind_var(e.pred_var, scrut).bind_var(e.result_var, result)
        _, sout = self.term(senv, e.succ_body, result, f"{path}.succ")
        _, rout = self.coterm(env, e.ret, result, f"{path}.ret")
        annots = {"payload_annot": payload} if numbered else {}

        def build(E: CoTerm) -> CoTerm:
            return replace(e, zero_body=zout, succ_body=sout, ret=E, annot=result, **annots)

        return scrut, self._as_covalue(rout, result, build, scrut)

    # -- commands

    def command(self, env: TypeEnv, c: Command, path: str) -> Command:
        try:
            ty, vout = self.term(env, c.producer, None, f"{path}.producer")
        except TypeCheckError as first:
            if first.kind != "AnnotationRequired":
                raise
            # Producer needs a type from the outside: infer the consumer instead.
            ty, eout = self.coterm(env, c.consumer, None, f"{path}.consumer")
            return Command(self.term(env, c.producer, ty, f"{path}.producer")[1], eout)
        consumer_path = f"{path}.consumer"
        try:
            _, eout = self.coterm(env, c.consumer, ty, consumer_path)
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

    return _RULES.term(env, t, None, "term")[0]


def infer_coterm(env: TypeEnv, e: CoTerm) -> TypeExpr:
    """The unique type e consumes under env, or a TypeCheckError."""

    return _RULES.coterm(env, e, None, "coterm")[0]


def elaborate_command(env: TypeEnv, c: Command) -> Command:
    """Check c and return it with all inferable annotations filled in."""

    return _RULES.command(env, c, "command")


def check_command(env: TypeEnv, c: Command) -> None:
    """Raise TypeCheckError unless both sides of the cut agree on a type."""

    elaborate_command(env, c)
