"""Front end: typed translation to the machine, plus the reference oracle.

The translator is ``Compiler``, a ``typechecker.Elaborator``: it runs the
typechecker's sequent rules (one per sort, each with an optional expected
type) unchanged and adds two things.  It types and compiles the four
front-end forms (surface applications, recursor expressions, numerals and
definition references) down to machine syntax, with the lambda-calculus
typing rules.  And it overrides the staging hooks: wherever the chosen
strategy's grammar demands a value or covalue in some position and the
translated subterm is not one, the translator names the offender with a
mu/comu binding, the same trick the source-to-machine translation uses for
successor arguments and call-stack arguments.  The output therefore always
satisfies ``well_formed`` for the strategy it was compiled for.  Those
hooks are the only staging code: the two encodings below stage through
them as well.

The reference evaluator is an independent small-step interpreter for the
pure lambda-calculus fragment (no machine constructs), used as the
differential oracle for translation correctness.  It deliberately shares
no machinery with the abstract machine, including substitution.

Also here: the case/iterator sugar, the recursor-as-iterator and
corecursor-as-coiterator encodings, and the standard prelude.
"""

from __future__ import annotations

import importlib.resources
from functools import lru_cache

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
    "App",
    "NumLit",
    "Program",
    "RecTerm",
    "Ref",
    "Compiler",
    "translate",
    "infer",
    "reference_eval",
    "reference_trace",
    "surface_force_numeral",
    "desugar_case",
    "desugar_iter",
    "desugar_cocase",
    "desugar_coiter",
    "encode_rec_via_iter",
    "encode_corec_via_coiter",
    "prelude",
    "parse",
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

    def lookup_def(self, name: str, path: str) -> tuple[TypeExpr, Term]:
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

    def check_program(self) -> dict[str, TypeExpr]:
        """Check every definition (and main, if present); return def types."""

        out = {}
        for name in self.program.defs:
            out[name] = self.lookup_def(name, f"def {name}")[0]
        if self.program.main is not None:
            self.main()
        return out

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
                    path: str) -> tuple[TypeExpr, Term]:
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
                    head, hpath = head.fn, f"{hpath}.fn"
                ty, out = self.term(env, head, None, hpath)
                for arg, p in reversed(spine):
                    if not isinstance(ty, Fn):
                        raise TypeCheckError("Mismatch", f"{p}.fn", "applied a non-function", found=ty)
                    _, aout = self.term(env, arg, ty.arg, f"{p}.arg")
                    ty, out = ty.ret, self._app(out, ty, aout)
            case RecTerm():
                ty, zout = self.term(env, t.zero_body, expected, f"{path}.zero")
                senv = env.bind_var(t.pred_var, Nat()).bind_var(t.result_var, ty)
                _, sout = self.term(senv, t.succ_body, ty, f"{path}.succ")
                _, mout = self.term(env, t.scrut, Nat(), f"{path}.scrut")
                k = fresh_name(self._fcv(zout, sout, mout), "a")
                rec = RecNat(zout, t.pred_var, t.result_var, sout, CoVar(k), annot=ty)
                out = Mu(k, Command(mout, rec), ty)
            case _:
                return super()._other_term(env, t, expected, path)
        return self._expect(expected, ty, out, path)

    def _app(self, fout: Term, fty: Fn, aout: Term) -> Term:
        """Compile an application: bind the function value, then the
        argument value, then cut the function against a call stack."""

        k = fresh_name(self._fcv(fout, aout), "a")
        f = fresh_name(self._fv(fout, aout), "f")
        x = fresh_name(self._fv(fout, aout) | {f}, "x")
        body = Command(
            fout,
            MuTilde(
                f,
                Command(aout, MuTilde(x, Command(Var(f), Call(Var(x), CoVar(k))), fty.arg)),
                fty,
            ),
        )
        return Mu(k, body, fty.ret)

    # -- fresh-name helpers

    def _fv(self, *nodes) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for n in nodes:
            out |= n.free_vars
        return out

    def _fcv(self, *nodes) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for n in nodes:
            out |= n.free_covars
        return out

    # -- staging: force a translated subtree into the strategy's grammar

    def _as_value(self, t: Term, ty: TypeExpr, build, out_ty: TypeExpr) -> Term:
        """build(value) with t named first when t is not a value.

        Produces ``mu a. < t | comu x. < build(x) | a > >`` in the staged
        case; the unstaged case is just build(t).  The fresh names avoid
        everything free in the built context, discovered with a probe.
        """

        if is_value(t, self.s):
            return build(t)
        probed = build(Var(_PROBE))
        x = fresh_name(t.free_vars | probed.free_vars, "x")
        a = fresh_name(t.free_covars | probed.free_covars, "a")
        inner = MuTilde(x, Command(build(Var(x)), CoVar(a)), ty)
        return Mu(a, Command(t, inner), out_ty)

    def _as_covalue(self, e: CoTerm, consumed: TypeExpr, build, built_consumes: TypeExpr) -> CoTerm:
        """build(covalue) with e named first when e is not a covalue.

        Produces ``comu x. < mu b. < x | build(b) > | e >`` in the staged
        case, where build(b) consumes ``built_consumes``.
        """

        if is_covalue(e, self.s):
            return build(e)
        probed = build(CoVar(_PROBE))
        b = fresh_name(e.free_covars | probed.free_covars, "b")
        x = fresh_name(e.free_vars | probed.free_vars, "x")
        inner = Mu(b, Command(Var(x), build(CoVar(b))), consumed)
        return MuTilde(x, Command(inner, e), built_consumes)

    def _call(self, aout: Term, aty: TypeExpr, rout: CoTerm, rty: TypeExpr) -> CoTerm:
        fty = Fn(aty, rty)

        def with_tail(E: CoTerm) -> CoTerm:
            if is_value(aout, self.s):
                return Call(aout, E)
            # Name the function value, compute the argument, then call.
            f = fresh_name(self._fv(aout) | E.free_vars, "f")
            x = fresh_name(self._fv(aout) | E.free_vars | {f}, "x")
            inner = MuTilde(x, Command(Var(f), Call(Var(x), E)), aty)
            return MuTilde(f, Command(aout, inner), fty)

        return self._as_covalue(rout, rty, with_tail, fty)


def translate(t: Term, s: Strategy, program: Program | None = None,
              env: TypeEnv | None = None, expected: TypeExpr | None = None) -> Term:
    """Compile a front-end term to the machine language for strategy s."""

    return Compiler(program, s).term(env or EMPTY_ENV, t, expected, "term")[1]


def infer(t: Term, program: Program | None = None, env: TypeEnv | None = None) -> TypeExpr:
    """Front-end typing: the type of a mixed term (strategy-independent)."""

    return Compiler(program, CBV).term(env or EMPTY_ENV, t, None, "term")[0]


# ---------------------------------------------------------------------------
# Reference small-step interpreter (independent oracle)


class OracleError(Exception):
    pass


def _expand(t: Term, prog: Program, bound: frozenset[str] = frozenset()) -> Term:
    """Inline references and numerals; the result is reference-evaluable.

    Free variables naming a definition count as references, so terms parsed
    without a definition context still resolve.
    """

    match t:
        case Ref(name):
            if name not in prog.defs:
                raise OracleError(f"unknown definition {name!r}")
            return _expand(prog.defs[name].body, prog)
        case NumLit(n):
            return numeral(n)
        case Var(name):
            if name not in bound and name in prog.defs:
                return _expand(prog.defs[name].body, prog)
            return t
        case Zero():
            return t
        case Succ(arg):
            return Succ(_expand(arg, prog, bound))
        case Lam(x, body, annot):
            return Lam(x, _expand(body, prog, bound | {x}), annot)
        case App(fn, arg):
            return App(_expand(fn, prog, bound), _expand(arg, prog, bound))
        case RecTerm(scrut, zb, x, y, sb):
            return RecTerm(
                _expand(scrut, prog, bound),
                _expand(zb, prog, bound),
                x,
                y,
                _expand(sb, prog, bound | {x, y}),
            )
        case _:
            raise OracleError(
                f"{type(t).__name__} is outside the reference interpreter's language"
            )


def _ssubst(t: Term, x: str, v: Term) -> Term:
    """Substitution for the reference interpreter only; shares nothing with
    the machine's substitution."""

    if x not in t.free_vars:
        return t
    match t:
        case Var(name):
            return v if name == x else t
        case Succ(arg):
            return Succ(_ssubst(arg, x, v))
        case Lam(y, body, annot):
            if y == x:
                return t
            if y in v.free_vars:
                y2 = fresh_name(v.free_vars | body.free_vars, y)
                body = _ssubst(body, y, Var(y2))
                y = y2
            return Lam(y, _ssubst(body, x, v), annot)
        case App(fn, arg):
            return App(_ssubst(fn, x, v), _ssubst(arg, x, v))
        case RecTerm(scrut, zb, p, r, sb):
            scrut2 = _ssubst(scrut, x, v)
            zb2 = _ssubst(zb, x, v)
            if x in (p, r):
                return RecTerm(scrut2, zb2, p, r, sb)
            if p in v.free_vars or r in v.free_vars:
                avoid = v.free_vars | sb.free_vars
                p2 = fresh_name(avoid, p)
                r2 = fresh_name(avoid | {p2}, r)
                sb = _ssubst(_ssubst(sb, p, Var(p2)), r, Var(r2))
                p, r = p2, r2
            return RecTerm(scrut2, zb2, p, r, _ssubst(sb, x, v))
    raise OracleError(f"cannot substitute into {type(t).__name__}")


def _svalue(t: Term, s: Strategy) -> bool:
    if s is CBN:
        return True
    while isinstance(t, Succ):
        t = t.arg
    return isinstance(t, (Var, Lam, Zero))


def _sstep(t: Term, s: Strategy):
    """One step of the front-end operational semantics, or None at a normal
    form.  Returns (next term, rule name)."""

    match t:
        case App(fn, arg):
            if s is CBN:
                if isinstance(fn, Lam):
                    return _ssubst(fn.body, fn.var, arg), "BetaArrow"
                r = _sstep(fn, s)
                return (App(r[0], arg), r[1]) if r else None
            if not _svalue(fn, s):
                r = _sstep(fn, s)
                return (App(r[0], arg), r[1]) if r else None
            if not _svalue(arg, s):
                r = _sstep(arg, s)
                return (App(fn, r[0]), r[1]) if r else None
            if isinstance(fn, Lam):
                return _ssubst(fn.body, fn.var, arg), "BetaArrow"
            return None
        case RecTerm(scrut, zb, x, y, sb):
            if isinstance(scrut, Zero):
                return zb, "BetaZero"
            if isinstance(scrut, Succ) and (s is CBN or _svalue(scrut.arg, s)):
                pred = scrut.arg
                rec = RecTerm(pred, zb, x, y, sb)
                return App(Lam(y, _ssubst(sb, x, pred)), rec), "BetaSucc"
            r = _sstep(scrut, s)
            return (RecTerm(r[0], zb, x, y, sb), r[1]) if r else None
        case Succ(arg) if s is CBV:
            r = _sstep(arg, s)
            return (Succ(r[0]), r[1]) if r else None
        case _:
            return None


def reference_trace(t: Term, s: Strategy, fuel: int = 10**6,
                    program: Program | None = None) -> tuple[Term, list[str]]:
    """Normal form plus the sequence of rules fired along the way."""

    t = _expand(t, program if program is not None else Program({}, None))
    rules: list[str] = []
    for _ in range(fuel):
        r = _sstep(t, s)
        if r is None:
            return t, rules
        t, rule = r
        rules.append(rule)
    raise OracleError("reference evaluation ran out of fuel")


def reference_eval(t: Term, s: Strategy, fuel: int = 10**6,
                   program: Program | None = None) -> Term:
    """Normal form of a closed front-end term under strategy s."""

    return reference_trace(t, s, fuel, program)[0]


def surface_force_numeral(t: Term, s: Strategy, fuel: int = 10**6,
                          program: Program | None = None) -> int:
    """Numeric value of a Nat-typed term; re-evaluates under successors so
    call-by-name weak normal forms count fully."""

    t = reference_eval(t, s, fuel, program)
    n = 0
    while True:
        match t:
            case Zero():
                return n
            case Succ(arg):
                n += 1
                t = reference_eval(arg, s, fuel)
            case _:
                raise OracleError(f"normal form is not a numeral: {type(t).__name__}")


# ---------------------------------------------------------------------------
# Case / iterator sugar and the two encodings


def desugar_case(zero_body: Term, pred_var: str, succ_body: Term, ret: CoTerm,
                 annot: TypeExpr | None = None) -> RecNat:
    """Shallow case analysis: a recursor whose recursive result is unused."""

    unused = fresh_name(succ_body.free_vars | {pred_var}, "_")
    return RecNat(zero_body, pred_var, unused, succ_body, ret, annot=annot)


def desugar_iter(zero_body: Term, result_var: str, succ_body: Term, ret: CoTerm,
                 annot: TypeExpr | None = None) -> RecNat:
    """Pure iteration: a recursor whose predecessor is unused."""

    unused = fresh_name(succ_body.free_vars | {result_var}, "_")
    return RecNat(zero_body, unused, result_var, succ_body, ret, annot=annot)


def desugar_cocase(head_covar: str, head_body: CoTerm, tail_covar: str, tail_body: CoTerm,
                   seed: Term, elem_annot: TypeExpr | None = None) -> CoRec:
    """Shallow copattern match: a corecursor that never corecurses."""

    unused = fresh_name(tail_body.free_covars | {tail_covar}, "_")
    return CoRec(head_covar, head_body, tail_covar, unused, tail_body, seed,
                 elem_annot=elem_annot)


def desugar_coiter(head_covar: str, head_body: CoTerm, seed_covar: str, tail_body: CoTerm,
                   seed: Term, elem_annot: TypeExpr | None = None) -> CoRec:
    """Pure coiteration: a corecursor that cannot escape with another stream."""

    unused = fresh_name(tail_body.free_covars | {seed_covar}, "_")
    return CoRec(head_covar, head_body, unused, seed_covar, tail_body, seed,
                 elem_annot=elem_annot)


def encode_rec_via_iter(rec: RecNat, s: Strategy, result_type: TypeExpr | None = None) -> CoTerm:
    """Rewrite a recursor as an iterator over pairs.

    The iterator rebuilds the consumed number in the first component while
    computing the requested result in the second, and the final
    continuation projects the second component.  Costs the recursor its
    ability to stop early, which is observable in call-by-name.  The
    pairs and projections are staged by the Compiler's hooks.
    """

    result = result_type or rec.annot
    if result is None:
        raise ValueError("encoding needs the recursor's result type (elaborate first)")
    comp = Compiler(None, s)
    pt = Prod(Nat(), result)

    def fst(E: CoTerm) -> CoTerm:
        return comp._as_covalue(E, Nat(), lambda F: Fst(F, result), pt)

    def snd(E: CoTerm) -> CoTerm:
        return comp._as_covalue(E, result, lambda F: Snd(F, Nat()), pt)

    x, y = rec.pred_var, rec.result_var
    if x == "_":
        # The pair rebuilds the predecessor, so it needs a name: "S _"
        # would not print as a term.
        x = fresh_name(rec.succ_body.free_vars | {y}, "n")
    zpair = comp._pair(Zero(), rec.zero_body, pt)
    spair = comp._pair(Succ(Var(x)), rec.succ_body, pt)
    z = fresh_name(rec.succ_body.free_vars | {x, y}, "p")
    k = fresh_name(rec.succ_body.free_covars, "a")
    extract = fst(MuTilde(x, Command(Var(z), snd(MuTilde(y, Command(spair, CoVar(k)), result))), Nat()))
    body = Mu(k, Command(Var(z), extract), pt)
    unused = fresh_name(body.free_vars | {z}, "_")
    return RecNat(zpair, unused, z, body, snd(rec.ret), annot=pt)


def encode_corec_via_coiter(cr: CoRec, s: Strategy, seed_type: TypeExpr | None = None) -> Term:
    """Rewrite a corecursor as a coiterator over sums.

    The coiterator's seed is either the original seed (right injection) or
    a whole stream to mimic from now on (left injection); the tail branch
    rebuilds both continuations as a case split.  Costs the corecursor its
    ability to hand off to another stream, which is observable in
    call-by-value.  The injections are staged by the Compiler's hooks.
    """

    elem = cr.elem_annot
    seed_ty = seed_type or cr.seed_annot
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
    right_part = comp._as_value(right, seed_ty, lambda v: InR(v, Stream(elem)), st)
    left = Mu(beta, Command(right_part, CoVar(d)), Stream(elem))
    left_part = comp._as_value(left, Stream(elem), lambda v: InL(v, seed_ty), st)
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
