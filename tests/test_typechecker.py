"""Machine type system: inference, cut checking, elaboration, weakening."""

import sys

import pytest

from duality_vm import kernel
from duality_vm.kernel import (
    CBN,
    CBV,
    Call,
    Command,
    CoRec,
    CoVar,
    Fn,
    Head,
    Lam,
    Mu,
    Nat,
    Numbered,
    RecNat,
    Stream,
    Succ,
    Var,
    Zero,
    numeral,
    type_str,
)
from duality_vm.machine import Stepped, step
from duality_vm.parser import parse, parse_command, parse_coterm, parse_term, parse_type
from duality_vm.surface import Compiler, prelude
from duality_vm.typechecker import (
    EMPTY_ENV,
    Elaborator,
    TypeCheckError,
    TypeEnv,
    check_command,
    elaborate_command,
    infer_coterm,
    infer_term,
)

NAT = Nat()


def env(**kw):
    return TypeEnv.make(vars=kw.get("vars"), covars=kw.get("covars"))


# ---------------------------------------------------------------------------
# Term inference


def test_zero_is_nat():
    assert infer_term(EMPTY_ENV, Zero()) == NAT


def test_identity_function():
    assert infer_term(EMPTY_ENV, parse_term("fun x : Nat => x")) == Fn(NAT, NAT)


def test_corec_with_annotated_element_type():
    t = parse_term("corec : Nat { head a -> a | tail b -> g. g } with Z")
    assert infer_term(EMPTY_ENV, t) == Stream(NAT)


def test_unbound_variable():
    with pytest.raises(TypeCheckError) as exc:
        infer_term(EMPTY_ENV, Var("x"))
    assert exc.value.kind == "UnboundName"


def test_unannotated_mu_requires_annotation_in_inference_position():
    with pytest.raises(TypeCheckError) as exc:
        infer_term(EMPTY_ENV, parse_term("mu a. <Z | a>"))
    assert exc.value.kind == "AnnotationRequired"


def test_numbered_constructors():
    t = parse_term("numS (numZ Z)")
    assert infer_term(EMPTY_ENV, t) == Numbered(NAT)


# ---------------------------------------------------------------------------
# Coterm inference


def test_covar_lookup():
    assert infer_coterm(env(covars={"a": NAT}), CoVar("a")) == NAT


def test_head_consumes_a_stream():
    assert infer_coterm(env(covars={"a": NAT}), parse_coterm("head a")) == Stream(NAT)


def test_recursor_consumes_nat():
    e = parse_coterm("rec { Z -> Z | S x -> z. x } with a")
    assert infer_coterm(env(covars={"a": NAT}), e) == NAT


def test_call_stack():
    e = parse_coterm("2 . a")
    assert infer_coterm(env(covars={"a": NAT}), e) == Fn(NAT, NAT)


def test_numbered_recursor():
    e = parse_coterm("rec : Nat { Z p -> p | S y -> z. z } with a")
    assert infer_coterm(env(covars={"a": NAT}), e) == Numbered(NAT)


# ---------------------------------------------------------------------------
# Commands


def test_command_ok():
    check_command(env(covars={"a": NAT}), parse_command("<Z | a>"))


def test_cut_mismatch_has_both_types():
    with pytest.raises(TypeCheckError) as exc:
        check_command(env(covars={"a": NAT}), parse_command("<fun x : Nat => x | a>"))
    assert exc.value.kind == "CutMismatch"
    assert exc.value.expected == Fn(NAT, NAT)
    assert exc.value.found == NAT


def test_recursor_command_from_display():
    c = parse_command("<2 | rec { Z -> 3 | S _ -> z. S z } with a>")
    check_command(env(covars={"a": NAT}), c)


def test_unannotated_mu_checkable_against_consumer():
    # The consumer is inferable, so the producer's mu needs no annotation.
    c = parse_command("<mu a. <Z | a> | b>")
    check_command(env(covars={"b": NAT}), c)


def test_weakening():
    c = parse_command("<2 | rec { Z -> 3 | S _ -> z. S z } with a>")
    small = env(covars={"a": NAT})
    big = TypeEnv.make(vars={"unused": Fn(NAT, NAT)}, covars={"a": NAT, "b": Stream(NAT)})
    check_command(small, c)
    check_command(big, c)
    e = parse_coterm("rec { Z -> Z | S x -> z. x } with a")
    assert infer_coterm(small, e) == infer_coterm(big, e)


def test_no_dual_occupancy_enforced_at_construction():
    with pytest.raises(ValueError):
        TypeEnv.make(vars={"x": NAT}, covars={"x": NAT})


def test_inner_shadowing_allowed():
    c = parse_command("<mu x : Nat. <Z | x> | comu x : Nat. <x | a>>")
    check_command(env(covars={"a": NAT}), c)


# ---------------------------------------------------------------------------
# Elaboration and subject reduction


def test_elaboration_fills_recursor_annotations():
    c = parse_command("<2 | rec { Z -> 3 | S _ -> z. S z } with a>")
    out = elaborate_command(env(covars={"a": NAT}), c)
    assert out.consumer.annot == NAT


def test_elaboration_fills_corec_seed_type():
    c = parse_command("<corec : Nat { head a -> a | tail b -> g. g } with Z | head a0>")
    out = elaborate_command(env(covars={"a0": NAT}), c)
    assert out.producer.seed_annot == NAT


def nested_returns(k: int) -> str:
    """k recursors, each the return continuation of the one before, cut
    against Z.  Every zero branch is an unannotated mu, so each recursor's
    result type comes from its return continuation."""

    return "<Z | " + "rec { Z -> mu q. <Z | q> | S x -> y. y } with " * k + "a0>"


def test_each_nested_recursor_return_is_typed_once(monkeypatch):
    # Typing a return twice (infer it, then check it) would cost 2^k - 1
    # recursor typings.
    calls, coterm = [0], Elaborator.coterm

    def counting(self, env, e, expected, path):
        calls[0] += type(e) is RecNat
        return coterm(self, env, e, expected, path)

    monkeypatch.setattr(Elaborator, "coterm", counting)
    for k in (14, 40):  # a regression fails at 14 rather than hanging at 40
        calls[0] = 0
        out = elaborate_command(env(covars={"a0": NAT}), parse_command(nested_returns(k)))
        assert calls[0] == k
        assert out.consumer.annot == NAT
        for s in (CBV, CBN):
            calls[0] = 0
            Compiler(parse(f"main = {nested_returns(k)};"), s).main()
            assert calls[0] == k


def test_subject_reduction_through_generated_binders():
    e = env(covars={"a0": NAT})
    c = elaborate_command(e, parse_command("<2 | rec { Z -> 3 | S _ -> z. S z } with a0>"))
    for s in (CBV, CBN):
        cur = c
        for _ in range(200):
            out = step(cur, s)
            if not isinstance(out, Stepped):
                break
            cur = out.next
            check_command(e, cur)


def test_inference_is_deterministic():
    e = parse_coterm("rec { Z -> Z | S x -> z. x } with a")
    ev = env(covars={"a": NAT})
    assert infer_coterm(ev, e) == infer_coterm(ev, e)


# ---------------------------------------------------------------------------
# Every typing error, pinned: kind, path, message, expected and found types.
# A row with a pushed type runs the rule in checking mode, one without it in
# inference mode.  Paths start at "t" (terms), "e" (coterms) or "c"
# (commands); "compile" rows run a term through the front-end compiler.

TABLE_ENV = TypeEnv.make(
    vars={"n": NAT, "f": Fn(NAT, NAT), "s": Stream(NAT)},
    covars={"k": NAT, "ks": Stream(NAT)},
)

CR = "corec : Nat { head a -> a | tail b -> g. g } with Z"
BARE_CR = "corec { head a -> a | tail b -> g. g } with Z"
NUM_REC = "rec { Z p -> p | S y -> z. z } with k"

# (sort, source, pushed type, kind, path, message, expected, found)
TYPING_ERRORS = [
    # term rules, inference mode
    ("term", "x", None, "UnboundName", "t", "unbound variable 'x'", None, None),
    ("term", "pair(Z, y)", None, "UnboundName", "t.right", "unbound variable 'y'", None, None),
    ("term", "numS Z", None, "Mismatch", "t.arg", "numbered successor of a non-Numbered value",
     "Num Nat", "Nat"),
    ("term", "inl Z", None, "AnnotationRequired", "t", "left injection needs the right component type",
     None, None),
    ("term", "inr Z", None, "AnnotationRequired", "t", "right injection needs the left component type",
     None, None),
    ("term", "fun x => x", None, "AnnotationRequired", "t", "function binder needs a type annotation",
     None, None),
    ("term", "mu a. <Z | a>", None, "AnnotationRequired", "t", "mu binder needs a type annotation",
     None, None),
    ("term", BARE_CR, None, "AnnotationRequired", "t", "corecursor needs its element type annotation",
     None, None),
    ("term", "S (fun x : Nat => x)", None, "Mismatch", "t.arg", "function used at a non-function type",
     "Nat", None),
    ("term", "fun x : Nat => inl x", None, "AnnotationRequired", "t.body",
     "left injection needs the right component type", None, None),
    ("term", "f Z", None, "Mismatch", "t", "not a machine term: App (translate first)", None, None),
    # term rules, checking mode
    ("term", "x", "Nat", "UnboundName", "t", "unbound variable 'x'", None, None),
    ("term", "n", "Stream Nat", "Mismatch", "t", "type mismatch", "Stream Nat", "Nat"),
    ("term", "Z", "Stream Nat", "Mismatch", "t", "type mismatch", "Stream Nat", "Nat"),
    ("term", "S Z", "Nat -> Nat", "Mismatch", "t", "type mismatch", "Nat -> Nat", "Nat"),
    ("term", "S n", "Stream Nat", "Mismatch", "t", "type mismatch", "Stream Nat", "Nat"),
    ("term", "S (S x)", "Stream Nat", "UnboundName", "t.arg.arg", "unbound variable 'x'", None, None),
    ("term", "mu a : Nat. <Z | a>", "Stream Nat", "Mismatch", "t", "mu annotation disagrees",
     "Stream Nat", "Nat"),
    ("term", "mu a. <Z | a>", "Stream Nat", "CutMismatch", "t.body", "producer and consumer disagree",
     "Nat", "Stream Nat"),
    ("term", "fun x : Nat => x", "Nat", "Mismatch", "t", "function used at a non-function type",
     "Nat", None),
    ("term", "fun x => x", "Nat", "Mismatch", "t", "function used at a non-function type", "Nat", None),
    ("term", "fun x : Nat => x", "Stream Nat -> Stream Nat", "Mismatch", "t", "binder annotation disagrees",
     "Stream Nat", "Nat"),
    ("term", "fun x : Nat => x", "Nat -> Stream Nat", "Mismatch", "t.body", "type mismatch",
     "Stream Nat", "Nat"),
    ("term", "numZ Z", "Num (Stream Nat)", "Mismatch", "t.arg", "type mismatch", "Stream Nat", "Nat"),
    ("term", "numZ Z", "Nat", "Mismatch", "t", "type mismatch", "Nat", "Num Nat"),
    ("term", "numS n", "Num Nat", "Mismatch", "t.arg", "type mismatch", "Num Nat", "Nat"),
    ("term", "numS Z", "Nat", "Mismatch", "t.arg", "numbered successor of a non-Numbered value",
     "Num Nat", "Nat"),
    ("term", "pair(Z, Z)", "Nat * Stream Nat", "Mismatch", "t.right", "type mismatch",
     "Stream Nat", "Nat"),
    ("term", "pair(Z, Z)", "Nat", "Mismatch", "t", "type mismatch", "Nat", "Nat * Nat"),
    ("term", "inl : Nat Z", "Nat + Stream Nat", "Mismatch", "t", "injection annotation disagrees",
     "Stream Nat", "Nat"),
    ("term", "inr : Nat Z", "Stream Nat + Nat", "Mismatch", "t", "injection annotation disagrees",
     "Stream Nat", "Nat"),
    ("term", "inl : Nat Z", "Stream Nat + Nat", "Mismatch", "t.arg", "type mismatch", "Stream Nat", "Nat"),
    ("term", "inr Z", "Nat + Stream Nat", "Mismatch", "t.arg", "type mismatch", "Stream Nat", "Nat"),
    ("term", "inl Z", "Nat", "AnnotationRequired", "t", "left injection needs the right component type",
     None, None),
    ("term", "inr : Nat Z", "Nat", "Mismatch", "t", "type mismatch", "Nat", "Nat + Nat"),
    ("term", CR, "Stream (Stream Nat)", "Mismatch", "t", "corecursor annotation disagrees",
     "Stream Nat", "Nat"),
    ("term", CR, "Nat", "Mismatch", "t", "type mismatch", "Nat", "Stream Nat"),
    ("term", BARE_CR, "Nat", "AnnotationRequired", "t", "corecursor needs its element type annotation",
     None, None),
    ("term", "corec { head a -> a | tail b -> g. g } with inl Z", "Stream Nat", "AnnotationRequired",
     "t.seed", "left injection needs the right component type", None, None),
    ("term", "corec { head a -> ks | tail b -> g. g } with Z", "Stream Nat", "Mismatch", "t.head",
     "type mismatch", "Nat", "Stream Nat"),
    ("term", "f Z", "Nat", "Mismatch", "t", "not a machine term: App (translate first)", None, None),
    # coterm rules, inference mode
    ("coterm", "k0", None, "UnboundName", "e", "unbound covariable 'k0'", None, None),
    ("coterm", "comu x. <x | k>", None, "AnnotationRequired", "e", "comu binder needs a type annotation",
     None, None),
    ("coterm", NUM_REC, None, "AnnotationRequired", "e",
     "numbered recursor needs its payload type annotation", None, None),
    ("coterm", "tail k", None, "Mismatch", "e.rest", "tail of a non-stream", "Stream Nat", "Nat"),
    ("coterm", "head (tail k)", None, "Mismatch", "e.rest.rest", "tail of a non-stream",
     "Stream Nat", "Nat"),
    ("coterm", "fst k", None, "AnnotationRequired", "e", "first projection needs the right component type",
     None, None),
    ("coterm", "snd k", None, "AnnotationRequired", "e", "second projection needs the left component type",
     None, None),
    ("coterm", "case[k, k0]", None, "UnboundName", "e.right", "unbound covariable 'k0'", None, None),
    ("coterm", "x . k", None, "UnboundName", "e.arg", "unbound variable 'x'", None, None),
    ("coterm", "rec { Z -> mu b. <Z | b> | S x -> z. z } with k0", None, "UnboundName", "e.ret",
     "unbound covariable 'k0'", None, None),
    ("coterm", "rec { Z -> ks | S x -> z. z } with k", None, "UnboundName", "e.zero",
     "unbound variable 'ks'", None, None),
    ("coterm", "rec { Z -> Z | S x -> z. ks } with k", None, "UnboundName", "e.succ",
     "unbound variable 'ks'", None, None),
    ("coterm", "rec { Z -> Z | S x -> z. fun y : Nat => y } with k", None, "Mismatch", "e.succ",
     "function used at a non-function type", "Nat", None),
    ("coterm", "rec { Z -> Z | S x -> z. z } with ks", None, "Mismatch", "e.ret", "type mismatch",
     "Nat", "Stream Nat"),
    ("coterm", "rec { Z -> mu b. <Z | b> | S x -> z. z } with ks", None, "CutMismatch", "e.zero.body",
     "producer and consumer disagree", "Nat", "Stream Nat"),
    # coterm rules, checking mode
    ("coterm", "k", "Stream Nat", "Mismatch", "e", "type mismatch", "Stream Nat", "Nat"),
    ("coterm", "comu x : Nat. <x | k>", "Stream Nat", "Mismatch", "e", "comu annotation disagrees",
     "Stream Nat", "Nat"),
    ("coterm", "comu x. <x | k>", "Stream Nat", "CutMismatch", "e.body", "producer and consumer disagree",
     "Stream Nat", "Nat"),
    ("coterm", "fst : Nat k", "Nat * Stream Nat", "Mismatch", "e", "projection annotation disagrees",
     "Stream Nat", "Nat"),
    ("coterm", "snd : Nat k", "Stream Nat * Nat", "Mismatch", "e", "projection annotation disagrees",
     "Stream Nat", "Nat"),
    ("coterm", "fst k", "Stream Nat * Nat", "Mismatch", "e.rest", "type mismatch", "Stream Nat", "Nat"),
    ("coterm", "snd k", "Nat * Stream Nat", "Mismatch", "e.rest", "type mismatch", "Stream Nat", "Nat"),
    ("coterm", "fst k", "Nat", "AnnotationRequired", "e", "first projection needs the right component type",
     None, None),
    ("coterm", "snd : Nat k", "Nat", "Mismatch", "e", "type mismatch", "Nat", "Nat * Nat"),
    ("coterm", "rec : Nat { Z p -> p | S y -> z. z } with k", "Num (Stream Nat)", "Mismatch", "e",
     "payload annotation disagrees", "Stream Nat", "Nat"),
    ("coterm", NUM_REC, "Num (Stream Nat)", "Mismatch", "e.ret", "type mismatch", "Stream Nat", "Nat"),
    ("coterm", NUM_REC, "Nat", "AnnotationRequired", "e",
     "numbered recursor needs its payload type annotation", None, None),
    ("coterm", "rec { Z -> Z | S x -> z. x } with k", "Stream Nat", "Mismatch", "e", "type mismatch",
     "Stream Nat", "Nat"),
    ("coterm", "head k", "Nat", "Mismatch", "e", "type mismatch", "Nat", "Stream Nat"),
    ("coterm", "head k", "Stream (Stream Nat)", "Mismatch", "e.rest", "type mismatch",
     "Stream Nat", "Nat"),
    ("coterm", "tail k", "Stream Nat", "Mismatch", "e.rest", "type mismatch", "Stream Nat", "Nat"),
    ("coterm", "tail k", "Nat", "Mismatch", "e.rest", "tail of a non-stream", "Stream Nat", "Nat"),
    ("coterm", "Z . k", "Nat -> Stream Nat", "Mismatch", "e.rest", "type mismatch", "Stream Nat", "Nat"),
    ("coterm", "s . k", "Nat -> Nat", "Mismatch", "e.arg", "type mismatch", "Nat", "Stream Nat"),
    ("coterm", "Z . k", "Nat", "Mismatch", "e", "type mismatch", "Nat", "Nat -> Nat"),
    ("coterm", "case[k, ks]", "Nat + Nat", "Mismatch", "e.right", "type mismatch", "Nat", "Stream Nat"),
    ("coterm", "case[k, k]", "Nat", "Mismatch", "e", "type mismatch", "Nat", "Nat + Nat"),
    # the cut rule
    ("command", "<Z | ks>", None, "CutMismatch", "c", "producer and consumer disagree",
     "Nat", "Stream Nat"),
    ("command", "<fun x : Nat => x | k>", None, "CutMismatch", "c", "producer and consumer disagree",
     "Nat -> Nat", "Nat"),
    ("command", "<Z | head k>", None, "CutMismatch", "c", "producer and consumer disagree",
     "Nat", "Stream Nat"),
    ("command", "<Z | Z . k>", None, "CutMismatch", "c", "producer and consumer disagree",
     "Nat", "Nat -> Nat"),
    ("command", "<Z | comu x : Nat. <x | ks>>", None, "CutMismatch", "c.consumer.body",
     "producer and consumer disagree", "Nat", "Stream Nat"),
    ("command", "<mu a. <Z | a> | ks>", None, "CutMismatch", "c.producer.body",
     "producer and consumer disagree", "Nat", "Stream Nat"),
    ("command", "<mu a. <Z | a> | comu x. <x | k>>", None, "AnnotationRequired", "c.consumer",
     "comu binder needs a type annotation", None, None),
    ("command", "<S x | k>", None, "UnboundName", "c.producer.arg", "unbound variable 'x'", None, None),
    ("command", "<pair(Z, Z) | fst : Nat (tail k)>", None, "Mismatch", "c.consumer.rest.rest",
     "tail of a non-stream", "Stream Nat", "Nat"),
    # the front-end forms
    ("compile", "n Z", None, "Mismatch", "t.fn", "applied a non-function", None, "Nat"),
    ("compile", "f s", None, "Mismatch", "t.arg", "type mismatch", "Nat", "Stream Nat"),
    ("compile", "f Z", "Stream Nat", "Mismatch", "t", "type mismatch", "Stream Nat", "Nat"),
    ("compile", "rec n as { Z -> Z | S _ -> z. z }", "Stream Nat", "Mismatch", "t.zero", "type mismatch",
     "Stream Nat", "Nat"),
    ("compile", "rec n as { Z -> mu a. <Z | a> | S _ -> z. z }", None, "AnnotationRequired", "t.zero",
     "mu binder needs a type annotation", None, None),
    ("compile", "rec s as { Z -> Z | S _ -> z. z }", None, "Mismatch", "t.scrut", "type mismatch",
     "Nat", "Stream Nat"),
    ("compile", "rec n as { Z -> Z | S _ -> z. ks }", "Nat", "UnboundName", "t.succ",
     "unbound variable 'ks'", None, None),
]


def _elaborate(sort, node, pushed):
    if sort == "command":
        return Elaborator().command(TABLE_ENV, node, "c")
    rules = Compiler(None, CBV) if sort == "compile" else Elaborator()
    if sort == "coterm":
        return rules.coterm(TABLE_ENV, node, pushed, "e")
    return rules.term(TABLE_ENV, node, pushed, "t")


_PARSERS = {"term": parse_term, "compile": parse_term, "coterm": parse_coterm, "command": parse_command}


@pytest.mark.parametrize(
    "sort,source,pushed,kind,path,message,expected,found",
    TYPING_ERRORS,
    ids=[f"{row[0]}-{row[2] or 'infer'}-{row[1]}" for row in TYPING_ERRORS],
)
def test_typing_error_pinned(sort, source, pushed, kind, path, message, expected, found):
    node = _PARSERS[sort](source)
    with pytest.raises(TypeCheckError) as exc:
        _elaborate(sort, node, parse_type(pushed) if pushed else None)
    err = exc.value
    shown = lambda ty: None if ty is None else type_str(ty)  # noqa: E731
    assert (err.kind, err.path, err.message, shown(err.expected), shown(err.found)) == (
        kind, path, message, expected, found,
    )


def test_a_term_as_the_consumer_is_not_a_machine_coterm():
    # The parser cannot put a term in a consumer's place; the command is built by hand.
    with pytest.raises(TypeCheckError) as exc:
        check_command(EMPTY_ENV, Command(Zero(), Zero()))
    assert (exc.value.kind, exc.value.path, exc.value.message) == (
        "Mismatch", "command.consumer", "not a machine coterm: Zero (translate first)",
    )


def test_typing_error_table_covers_every_message():
    """Every message the rules can raise appears in the table."""

    messages = {row[5] for row in TYPING_ERRORS}
    for needed in (
        "left injection needs the right component type",
        "right injection needs the left component type",
        "function binder needs a type annotation",
        "mu binder needs a type annotation",
        "corecursor needs its element type annotation",
        "comu binder needs a type annotation",
        "numbered recursor needs its payload type annotation",
        "first projection needs the right component type",
        "second projection needs the left component type",
        "mu annotation disagrees",
        "comu annotation disagrees",
        "binder annotation disagrees",
        "injection annotation disagrees",
        "projection annotation disagrees",
        "corecursor annotation disagrees",
        "payload annotation disagrees",
        "function used at a non-function type",
        "numbered successor of a non-Numbered value",
        "tail of a non-stream",
        "producer and consumer disagree",
        "type mismatch",
    ):
        assert needed in messages, needed


def _spell_calls(action) -> int:
    """How often ``kernel.spell`` runs during action(), under any name it
    is bound to."""

    code, calls = kernel.spell.__code__, [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return calls[0]


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_typing_spells_no_position_unless_an_error_is_read(s):
    assert _spell_calls(lambda: Compiler(prelude(), s).check_program()) == 0
    # Typing raises and catches AnnotationRequired at every unannotated mu.
    chain = parse("main = " + "<mu a. " * 50 + "<Z | a>" + " | a>" * 49 + " | a0>;")
    assert _spell_calls(lambda: Compiler(chain, s).main()) == 0
    with pytest.raises(TypeCheckError) as exc:
        Compiler(parse("main = <S (S x) | a0>;"), s).main()
    assert _spell_calls(lambda: str(exc.value)) == 1
    assert str(exc.value) == "main.producer.arg.arg: unbound variable 'x'"
