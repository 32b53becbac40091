"""Front end: typed translation to the machine, its encodings and the prelude.

The translator is ``Compiler``, a ``typechecker.Elaborator``: it runs the
typechecker's sequent rules (one per sort, each with an optional expected
type) unchanged and adds two things.  It types and compiles the four
front-end forms (surface applications, recursor expressions, numerals and
definition references) down to machine syntax, with the lambda-calculus
typing rules.  And it overrides the staging hook, ``_staged``: wherever
the chosen strategy's grammar demands a value or covalue of a child (as
the node's shape declares it) and the translated child is not one, the
translator names the offender with a mu/comu binding, the same trick the
source-to-machine translation uses for successor arguments and call-stack
arguments.  The output therefore always satisfies ``well_formed`` for the
strategy it was compiled for.  That hook is the only staging code: the two
encodings below stage through it as well.

Also here: the recursor-as-iterator and corecursor-as-coiterator
encodings, and the standard prelude.  The reference interpreter that
checks the translation lives with the tests, in ``tests/oracle.py``.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import replace
from functools import lru_cache

from .kernel import (
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
    Mu,
    MuTilde,
    Nat,
    Node,
    Pair,
    Position,
    Prod,
    RecNat,
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
    is_covalue,
    is_value,
    numeral,
)
from .parser import App, NumLit, Program, RecTerm, Ref, parse
from .typechecker import EMPTY_ENV, Elaborator, TypeCheckError, TypeEnv

__all__ = [
    "Compiler",
    "translate",
    "infer",
    "encode_rec_via_iter",
    "encode_corec_via_coiter",
    "prelude",
]


# ---------------------------------------------------------------------------
# The typed translator

_PROBE = "\x00probe"  # impossible name, used to discover a build context's free names


class Compiler(Elaborator):
    """Checks and compiles one program's definitions for one strategy."""

    def __init__(self, program: Program | None, strategy: Strategy):
        self.program = program or Program({}, None)
        self.s = strategy
        self._done: dict[str, tuple[TypeExpr, Term]] = {}
        self._busy: set[str] = set()

    # -- definitions

    def lookup_def(self, name: str, path: Position) -> tuple[TypeExpr, Term]:
        if name in self._done:
            return self._done[name]
        if name not in self.program.defs:
            raise TypeCheckError("UnboundName", path, f"unknown definition {name!r}")
        if name in self._busy:
            raise TypeCheckError("Mismatch", path, f"definition cycle through {name!r}")
        self._busy.add(name)
        try:
            d = self.program.defs[name]
            _, body = self.term(EMPTY_ENV, d.body, d.declared, f"def {name}")
            if body.free_vars or body.free_covars:
                loose = sorted(body.free_vars | body.free_covars)
                raise TypeCheckError(
                    "UnboundName", f"def {name}", f"definition not closed; free: {loose}"
                )
            self._done[name] = (d.declared, body)
            return self._done[name]
        finally:
            self._busy.discard(name)

    def check_program(self) -> tuple[dict[str, tuple[TypeExpr, Term]],
                                     tuple[TypeExpr | None, Command | Term] | None]:
        """Check and compile every definition, then main if present: each
        definition's (type, term), and main's (type, node) or None."""

        defs = {name: self.lookup_def(name, f"def {name}") for name in self.program.defs}
        return defs, None if self.program.main is None else self.main()

    def main(self) -> tuple[TypeExpr | None, Command | Term]:
        """Translate main; commands get their one free covariable at Nat."""

        m = self.program.main
        if m is None:
            raise TypeCheckError("Mismatch", "main", "program has no main")
        if isinstance(m, Command):
            covars = sorted(m.free_covars)
            if len(covars) > 1:
                raise TypeCheckError(
                    "Mismatch", "main", f"main command must use one covariable, found {covars}"
                )
            env = EMPTY_ENV
            for a in covars:
                env = env.bind_covar(a, Nat())
            return None, self.command(env, m, "main")
        return self.term(EMPTY_ENV, m, None, "main")

    # -- the front-end forms

    def _other_term(self, env: TypeEnv, t: Term, expected: TypeExpr | None,
                    path: Position) -> tuple[TypeExpr, Term]:
        match t:
            case NumLit(n):
                ty, out = Nat(), numeral(n)
            case Ref(name):
                ty, out = self.lookup_def(name, path)
            case App():
                # The spine is walked in a loop, so a long application adds
                # no stack depth; the innermost function is typed first.
                spine, head, hpath = [], t, path
                while isinstance(head, App):
                    spine.append((head.arg, hpath))
                    head, hpath = head.fn, (hpath, "fn")
                ty, out = self.term(env, head, None, hpath)
                for arg, p in reversed(spine):
                    if not isinstance(ty, Fn):
                        raise TypeCheckError("Mismatch", (p, "fn"), "applied a non-function", found=ty)
                    _, aout = self.term(env, arg, ty.arg, (p, "arg"))
                    ty, out = ty.ret, self._app(out, ty, aout)
            case RecTerm():
                ty, zout = self.term(env, t.zero_body, expected, (path, "zero"))
                senv = env.bind_var(t.pred_var, Nat()).bind_var(t.result_var, ty)
                _, sout = self.term(senv, t.succ_body, ty, (path, "succ"))
                _, mout = self.term(env, t.scrut, Nat(), (path, "scrut"))
                k = fresh_name(zout.free_covars | sout.free_covars | mout.free_covars, "a")
                rec = RecNat(zout, t.pred_var, t.result_var, sout, CoVar(k), annot=ty)
                out = Mu(k, Command(mout, rec), ty)
            case _:
                return super()._other_term(env, t, expected, path)
        return self._expect(expected, ty, out, path)

    def _app(self, fout: Term, fty: Fn, aout: Term) -> Term:
        """Compile an application: bind the function value, then the
        argument value, then cut the function against a call stack."""

        k = fresh_name(fout.free_covars | aout.free_covars, "a")
        fv = fout.free_vars | aout.free_vars
        f = fresh_name(fv, "f")
        x = fresh_name(fv | {f}, "x")
        body = Command(
            fout,
            MuTilde(
                f,
                Command(aout, MuTilde(x, Command(Var(f), Call(Var(x), CoVar(k))), fty.arg)),
                fty,
            ),
        )
        return Mu(k, body, fty.ret)

    # -- staging: force a translated node into the strategy's grammar

    def _staged(self, node: Node, ty: TypeExpr, **kid_types: TypeExpr) -> Node:
        """node with its first child that breaks a grammar demand named
        first, and its remaining demands staged inside.

        The demanded children are the shape's, in field order.  With N[_]
        the node around the child, a term t in a term is staged as
        ``mu a. < t | comu x. < N[x] | a > >``, a term t in a coterm as
        ``comu f. < t | comu x. < f | N[x] > >``, and a coterm e in a
        coterm as ``comu x. < mu b. < x | N[b] > | e >``.  A strategy
        refuses one class only, a mu or a comu, so no node has a value and
        a covalue demand staged at once, and field order is as good as any.
        The fresh names avoid everything free in N, discovered with a probe.
        """

        for c in node._shape.demands:
            kid = getattr(node, c.field)
            if is_value(kid, self.s) if c.value else is_covalue(kid, self.s):
                continue
            kty = kid_types[c.field]
            probed = replace(node, **{c.field: (CoVar if c.covalue else Var)(_PROBE)})
            fv, fcv = kid.free_vars | probed.free_vars, kid.free_covars | probed.free_covars
            if c.covalue:
                b, x = fresh_name(fcv, "b"), fresh_name(fv, "x")
                inner = self._staged(replace(node, **{c.field: CoVar(b)}), ty, **kid_types)
                return MuTilde(x, Command(Mu(b, Command(Var(x), inner), kty), kid), ty)
            if isinstance(node, CoTerm):
                f = fresh_name(fv, "f")
                x = fresh_name(fv | {f}, "x")
                inner = self._staged(replace(node, **{c.field: Var(x)}), ty, **kid_types)
                return MuTilde(f, Command(kid, MuTilde(x, Command(Var(f), inner), kty)), ty)
            x, a = fresh_name(fv, "x"), fresh_name(fcv, "a")
            inner = self._staged(replace(node, **{c.field: Var(x)}), ty, **kid_types)
            return Mu(a, Command(kid, MuTilde(x, Command(inner, CoVar(a)), kty)), ty)
        return node


def translate(t: Term, s: Strategy, program: Program | None = None,
              env: TypeEnv | None = None, expected: TypeExpr | None = None) -> Term:
    """Compile a front-end term to the machine language for strategy s."""

    return Compiler(program, s).term(env or EMPTY_ENV, t, expected, "term")[1]


def infer(t: Term, program: Program | None = None, env: TypeEnv | None = None) -> TypeExpr:
    """Front-end typing: the type of a mixed term (strategy-independent)."""

    return Compiler(program, CBV).term(env or EMPTY_ENV, t, None, "term")[0]


# ---------------------------------------------------------------------------
# The two encodings


def encode_rec_via_iter(rec: RecNat, s: Strategy) -> CoTerm:
    """Rewrite a recursor as an iterator over pairs.

    The iterator rebuilds the consumed number in the first component while
    computing the requested result in the second, and the final
    continuation projects the second component.  Costs the recursor its
    ability to stop early, which is observable in call-by-name.  The
    pairs and projections are staged by the Compiler's hook.
    """

    result = rec.annot
    if result is None:
        raise ValueError("encoding needs the recursor's result type (elaborate first)")
    comp = Compiler(None, s)
    pt = Prod(Nat(), result)

    def fst(E: CoTerm) -> CoTerm:
        return comp._staged(Fst(E, result), pt, rest=Nat())

    def snd(E: CoTerm) -> CoTerm:
        return comp._staged(Snd(E, Nat()), pt, rest=result)

    x, y = rec.pred_var, rec.result_var
    if x == "_":
        # The pair rebuilds the predecessor, so it needs a name: "S _"
        # would not print as a term.
        x = fresh_name(rec.succ_body.free_vars | {y}, "n")
    zpair = comp._staged(Pair(Zero(), rec.zero_body), pt, left=Nat(), right=result)
    spair = comp._staged(Pair(Succ(Var(x)), rec.succ_body), pt, left=Nat(), right=result)
    z = fresh_name(rec.succ_body.free_vars | {x, y}, "p")
    k = fresh_name(rec.succ_body.free_covars, "a")
    extract = fst(MuTilde(x, Command(Var(z), snd(MuTilde(y, Command(spair, CoVar(k)), result))), Nat()))
    body = Mu(k, Command(Var(z), extract), pt)
    unused = fresh_name(body.free_vars | {z}, "_")
    return RecNat(zpair, unused, z, body, snd(rec.ret), annot=pt)


def encode_corec_via_coiter(cr: CoRec, s: Strategy) -> Term:
    """Rewrite a corecursor as a coiterator over sums.

    The coiterator's seed is either the original seed (right injection) or
    a whole stream to mimic from now on (left injection); the tail branch
    rebuilds both continuations as a case split.  Costs the corecursor its
    ability to hand off to another stream, which is observable in
    call-by-value.  The injections are staged by the Compiler's hook.
    """

    elem = cr.elem_annot
    seed_ty = cr.seed_annot
    if elem is None or seed_ty is None:
        raise ValueError("encoding needs the corecursor's element and seed types (elaborate first)")
    comp = Compiler(None, s)
    st = Sum(Stream(elem), seed_ty)
    beta, gamma = cr.tail_covar, cr.tail_seed_covar
    head_body = SumCase(Head(CoVar(cr.head_covar)), cr.head_body)
    core = SumCase(Tail(CoVar(beta)), cr.tail_body)
    x = fresh_name(cr.tail_body.free_vars, "x")
    d = fresh_name(cr.tail_body.free_covars | {beta, gamma}, "d")
    right = Mu(gamma, Command(Var(x), core), seed_ty)
    right_part = comp._staged(InR(right, Stream(elem)), st, arg=seed_ty)
    left = Mu(beta, Command(right_part, CoVar(d)), Stream(elem))
    left_part = comp._staged(InL(left, seed_ty), st, arg=Stream(elem))
    tail_body = MuTilde(x, Command(left_part, CoVar(d)), st)
    unused = fresh_name(tail_body.free_covars | {d}, "_")
    seed = InR(cr.seed, Stream(elem))
    return CoRec(cr.head_covar, head_body, unused, d, tail_body, seed,
                 elem_annot=elem, seed_annot=st)


# ---------------------------------------------------------------------------
# Prelude


@lru_cache(maxsize=1)
def prelude() -> Program:
    """The standard definitions, parsed from the packaged source file."""

    text = importlib.resources.files(__package__).joinpath("prelude.ct").read_text()
    return parse(text)
