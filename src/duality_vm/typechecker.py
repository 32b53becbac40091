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
annotations; ``elaborate_command`` returns that rebuilt command.  Each rule
that builds a node whose shape demands a value or a covalue of some child
(``kernel.Shape.demands``) hands the node whole to one staging hook,
``_staged``, with its type and its demanded children's types; the version
here returns the node unchanged.  ``surface.Compiler`` overrides that hook
to insert the mu/comu bindings that staging needs, and ``_other_term`` to
add the front-end forms, so typing and compiling run the same rules in one
pass.
"""

from __future__ import annotations

from dataclasses import replace
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple

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
    Node,
    Numbered,
    NumSucc,
    NumZero,
    Pair,
    Position,
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
    spell,
    type_str,
)


class TypeCheckError(Exception):
    """A typing failure, pinned to a position in the checked node: a root
    label or a (parent, label) link, which ``path`` spells out when read."""

    def __init__(
        self,
        kind: str,
        at: Position,
        message: str,
        expected: TypeExpr | None = None,
        found: TypeExpr | None = None,
    ):
        super().__init__(kind, message)
        self.kind = kind
        self.at = at
        self.expected = expected
        self.found = found
        self.message = message

    @property
    def path(self) -> str:
        return spell(self.at)

    def __str__(self) -> str:
        detail = self.message
        if self.expected is not None and self.found is not None:
            detail += f" (expected {type_str(self.expected)}, found {type_str(self.found)})"
        return f"{self.path}: {detail}"


class TypeEnv(NamedTuple):
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

    def lookup_var(self, name: str, path: Position) -> TypeExpr:
        try:
            return self.vars[name]
        except KeyError:
            raise TypeCheckError("UnboundName", path, f"unbound variable {name!r}") from None

    def lookup_covar(self, name: str, path: Position) -> TypeExpr:
        try:
            return self.covars[name]
        except KeyError:
            raise TypeCheckError("UnboundName", path, f"unbound covariable {name!r}") from None


EMPTY_ENV = TypeEnv.make()


def _mismatch(path: Position, expected: TypeExpr, found: TypeExpr) -> TypeCheckError:
    return TypeCheckError("Mismatch", path, "type mismatch", expected=expected, found=found)


def _disagrees(what: str, path: Position, expected: TypeExpr, found: TypeExpr) -> TypeCheckError:
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
    changes only the staging hook and ``_other_term``: every rule that builds
    a node with a grammar demand hands it to ``_staged``.  Each rule's
    ``path`` is its node's ``Position``,
    which ``kernel.spell`` spells only when an error is read.
    """

    # -- hooks

    def _staged(self, node: Node, ty: TypeExpr, **kid_types: TypeExpr) -> Node:
        """node as the grammar's demands on its children leave it: ty is the
        type node produces (a term) or consumes (a coterm), and kid_types
        gives, by field, the type of each child its shape demands a value
        or covalue of."""

        return node

    def _other_term(self, env: TypeEnv, t: Term, expected: TypeExpr | None,
                    path: Position) -> tuple[TypeExpr, Term]:
        """A term that is not a machine term, to check against expected or,
        when that is None, to infer."""

        raise TypeCheckError("Mismatch", path, f"not a machine term: {type(t).__name__} (translate first)")

    @staticmethod
    def _expect(expected: TypeExpr | None, found: TypeExpr, out, path: Position):
        if expected is not None and found != expected:
            raise _mismatch(path, expected, found)
        return found, out

    @staticmethod
    def _annot(what: str, annot: TypeExpr | None, pushed: TypeExpr | None, path: Position,
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
             path: Position) -> tuple[TypeExpr, Term]:
        match t:
            case Var(name):
                return self._expect(expected, env.lookup_var(name, path), t, path)
            case Zero():
                return self._expect(expected, Nat(), t, path)
            case Succ():
                # Down a successor chain and back up in loops: no stack depth.
                k, at = 0, path
                while type(t) is Succ:
                    k, t, at = k + 1, t.arg, (at, "arg")
                nat = Nat()
                _, out = self.term(env, t, nat, at)
                for _ in range(k):
                    out = self._staged(Succ(out), nat, arg=nat)
                return self._expect(expected, nat, out, path)
            case NumZero(arg):
                payload = expected.payload if isinstance(expected, Numbered) else None
                a, out = self.term(env, arg, payload, (path, "arg"))
                ty = Numbered(a)
                return self._expect(expected, ty, self._staged(NumZero(out), ty, arg=a), path)
            case NumSucc(arg):
                pushed = expected if isinstance(expected, Numbered) else None
                a, out = self.term(env, arg, pushed, (path, "arg"))
                if not isinstance(a, Numbered):
                    raise TypeCheckError(
                        "Mismatch", (path, "arg"), "numbered successor of a non-Numbered value",
                        expected=Numbered(a), found=a,
                    )
                return self._expect(expected, a, self._staged(NumSucc(out), a, arg=a), path)
            case Pair(l, r):
                left, right = _parts(expected, Prod)
                lt, lo = self.term(env, l, left, (path, "left"))
                rt, ro = self.term(env, r, right, (path, "right"))
                ty = Prod(lt, rt)
                return self._expect(expected, ty, self._staged(Pair(lo, ro), ty, left=lt, right=rt), path)
            case InL(arg, other):
                left, right = _parts(expected, Sum)
                other = self._annot("injection", other, right, path,
                                    "left injection needs the right component type")
                a, out = self.term(env, arg, left, (path, "arg"))
                ty = Sum(a, other)
                return self._expect(expected, ty, self._staged(InL(out, other), ty, arg=a), path)
            case InR(arg, other):
                left, right = _parts(expected, Sum)
                other = self._annot("injection", other, left, path,
                                    "right injection needs the left component type")
                a, out = self.term(env, arg, right, (path, "arg"))
                ty = Sum(other, a)
                return self._expect(expected, ty, self._staged(InR(out, other), ty, arg=a), path)
            case Lam(x, body, annot):
                if expected is not None and not isinstance(expected, Fn):
                    raise TypeCheckError(
                        "Mismatch", path, "function used at a non-function type", expected=expected
                    )
                arg, ret = _parts(expected, Fn)
                annot = self._annot("binder", annot, arg, path, "function binder needs a type annotation")
                b, out = self.term(env.bind_var(x, annot), body, ret, (path, "body"))
                return Fn(annot, b), Lam(x, out, annot)
            case Mu(a, body, annot):
                annot = self._annot("mu", annot, expected, path, "mu binder needs a type annotation")
                return annot, Mu(a, self.command(env.bind_covar(a, annot), body, (path, "body")), annot)
            case CoRec(elem_annot=ea):
                pushed = expected.elem if isinstance(expected, Stream) else None
                elem = self._annot("corecursor", ea, pushed, path,
                                   "corecursor needs its element type annotation")
                return self._expect(expected, *self._corec(env, t, elem, path), path)
        return self._other_term(env, t, expected, path)

    def _corec(self, env: TypeEnv, t: CoRec, elem: TypeExpr, path: Position) -> tuple[TypeExpr, Term]:
        seed_ty, seed = self.term(env, t.seed, None, (path, "seed"))
        _, head = self.coterm(env.bind_covar(t.head_covar, elem), t.head_body, seed_ty, (path, "head"))
        tenv = env.bind_covar(t.tail_covar, Stream(elem)).bind_covar(t.tail_seed_covar, seed_ty)
        _, tail = self.coterm(tenv, t.tail_body, seed_ty, (path, "tail"))
        out = replace(t, head_body=head, tail_body=tail, seed=seed, elem_annot=elem, seed_annot=seed_ty)
        return Stream(elem), self._staged(out, Stream(elem), seed=seed_ty)

    # -- coterms

    def coterm(self, env: TypeEnv, e: CoTerm, expected: TypeExpr | None,
               path: Position) -> tuple[TypeExpr, CoTerm]:
        match e:
            case CoVar(name):
                return self._expect(expected, env.lookup_covar(name, path), e, path)
            case MuTilde(x, body, annot):
                annot = self._annot("comu", annot, expected, path, "comu binder needs a type annotation")
                return annot, MuTilde(x, self.command(env.bind_var(x, annot), body, (path, "body")), annot)
            case Call(arg, rest):
                arg_ty, ret_ty = _parts(expected, Fn)
                a, aout = self.term(env, arg, arg_ty, (path, "arg"))
                b, rout = self.coterm(env, rest, ret_ty, (path, "rest"))
                ty = Fn(a, b)
                return self._expect(expected, ty, self._staged(Call(aout, rout), ty, arg=a, rest=b), path)
            case RecNat():
                return self._expect(expected, *self._rec(env, e, None, path), path)
            case RecNum(payload_annot=pa):
                pushed = expected.payload if isinstance(expected, Numbered) else None
                pa = self._annot("payload", pa, pushed, path,
                                 "numbered recursor needs its payload type annotation")
                return self._expect(expected, *self._rec(env, e, pa, path), path)
            case Head(rest):
                elem = expected.elem if isinstance(expected, Stream) else None
                a, out = self.coterm(env, rest, elem, (path, "rest"))
                return self._expect(expected, Stream(a), self._staged(Head(out), Stream(a), rest=a), path)
            case Tail(rest):
                pushed = expected if isinstance(expected, Stream) else None
                st, out = self.coterm(env, rest, pushed, (path, "rest"))
                if not isinstance(st, Stream):
                    raise TypeCheckError("Mismatch", (path, "rest"), "tail of a non-stream",
                                         expected=Stream(st), found=st)
                return self._expect(expected, st, self._staged(Tail(out), st, rest=st), path)
            case Fst(rest, other):
                left, right = _parts(expected, Prod)
                other = self._annot("projection", other, right, path,
                                    "first projection needs the right component type")
                a, out = self.coterm(env, rest, left, (path, "rest"))
                ty = Prod(a, other)
                return self._expect(expected, ty, self._staged(Fst(out, other), ty, rest=a), path)
            case Snd(rest, other):
                left, right = _parts(expected, Prod)
                other = self._annot("projection", other, left, path,
                                    "second projection needs the left component type")
                a, out = self.coterm(env, rest, right, (path, "rest"))
                ty = Prod(other, a)
                return self._expect(expected, ty, self._staged(Snd(out, other), ty, rest=a), path)
            case SumCase(l, r):
                left, right = _parts(expected, Sum)
                lt, lo = self.coterm(env, l, left, (path, "left"))
                rt, ro = self.coterm(env, r, right, (path, "right"))
                return self._expect(expected, Sum(lt, rt), SumCase(lo, ro), path)
        raise TypeCheckError("Mismatch", path, f"not a machine coterm: {type(e).__name__} (translate first)")

    def _rec(self, env: TypeEnv, e: RecNat | RecNum, payload: TypeExpr | None,
             path: Position) -> tuple[TypeExpr, CoTerm]:
        """Both recursors; payload is the payload type of a numbered one.

        The result type is the annotation, else the zero branch's, else the
        return continuation's.  Whichever side is inferred is kept, so each
        is traversed once and nested returns are typed once each.
        """

        numbered = isinstance(e, RecNum)
        scrut = Numbered(payload) if numbered else Nat()
        zenv = env.bind_var(e.payload_var, payload) if numbered else env
        rout = None
        try:
            result, zout = self.term(zenv, e.zero_body, e.annot, (path, "zero"))
        except TypeCheckError as ex:
            if ex.kind != "AnnotationRequired" or e.annot is not None:
                raise
            result, rout = self.coterm(env, e.ret, None, (path, "ret"))
            _, zout = self.term(zenv, e.zero_body, result, (path, "zero"))
        senv = env.bind_var(e.pred_var, scrut).bind_var(e.result_var, result)
        _, sout = self.term(senv, e.succ_body, result, (path, "succ"))
        if rout is None:
            _, rout = self.coterm(env, e.ret, result, (path, "ret"))
        annots = {"payload_annot": payload} if numbered else {}
        out = replace(e, zero_body=zout, succ_body=sout, ret=rout, annot=result, **annots)
        return scrut, self._staged(out, scrut, ret=result)

    # -- commands

    def command(self, env: TypeEnv, c: Command, path: Position) -> Command:
        try:
            ty, vout = self.term(env, c.producer, None, (path, "producer"))
        except TypeCheckError as first:
            if first.kind != "AnnotationRequired":
                raise
            # Producer needs a type from the outside: infer the consumer instead.
            ty, eout = self.coterm(env, c.consumer, None, (path, "consumer"))
            return Command(self.term(env, c.producer, ty, (path, "producer"))[1], eout)
        consumer_at = (path, "consumer")
        try:
            _, eout = self.coterm(env, c.consumer, ty, consumer_at)
        except TypeCheckError as ex:
            if ex.kind == "Mismatch" and ex.at is consumer_at and ex.found is not None:
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
