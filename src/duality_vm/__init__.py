"""Abstract machine for primitive recursion on numbers and corecursion on
streams, uniform over call-by-value and call-by-name."""

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
    alpha_eq,
    as_numeral,
    fresh_name,
    is_covalue,
    is_value,
    numeral,
    pretty,
    subst,
    subst_covar,
    subst_var,
    type_str,
    well_formed,
)
from .typechecker import TypeEnv, TypeCheckError, check_command, elaborate_command, infer_coterm, infer_term

# The machine's names are served on first use, so importing any other
# module of the package does not import the machine.
_MACHINE = ("DEFAULT_FUEL", "RuleTag", "RunStats", "force_numeral", "observe_stream", "run", "step")


def __getattr__(name: str):
    if name not in _MACHINE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import machine

    return getattr(machine, name)


__all__ = [name for name in dir() if not name.startswith("_")] + list(_MACHINE)
