"""Reference oracle for the front end, and the case/iterator sugar.

The reference evaluator is an independent small-step interpreter for the
pure lambda-calculus fragment of the front-end language (no machine
constructs), used as the differential oracle for translation correctness.
It deliberately shares no machinery with the abstract machine, including
substitution: it imports only syntax from the package (node classes,
``Program``, ``fresh_name`` and ``numeral``), as ``test_oracle.py`` checks.

The case/iterator sugar builds recursors and corecursors that ignore one
of their bound names; only the tests use it.
"""

from __future__ import annotations

from duality_vm.kernel import (
    CBN,
    CBV,
    CoRec,
    CoTerm,
    Lam,
    RecNat,
    Strategy,
    Succ,
    Term,
    TypeExpr,
    Var,
    Zero,
    fresh_name,
    numeral,
)
from duality_vm.parser import App, NumLit, Program, RecTerm, Ref


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
                # The new names avoid x and both binders, so no rename meets a
                # name still to be replaced; r shadows p if they are one name,
                # so r is renamed first.
                avoid = v.free_vars | sb.free_vars | {x, p, r}
                p2 = fresh_name(avoid, p)
                r2 = fresh_name(avoid | {p2}, r)
                sb = _ssubst(_ssubst(sb, r, Var(r2)), p, Var(p2))
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
                return App(_ssubst(Lam(y, sb), x, pred), rec), "BetaSucc"
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
# Case / iterator sugar


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
