"""Front end: parsing, translation, the reference oracle, sugar, encodings."""

from pathlib import Path

import pytest

from duality_vm.kernel import (
    CBN,
    CBV,
    Call,
    Command,
    CoRec,
    CoVar,
    Fn,
    Head,
    InL,
    InR,
    Lam,
    Mu,
    MuTilde,
    Nat,
    Pair,
    RecNat,
    RecNum,
    Snd,
    Stream,
    Succ,
    SumCase,
    Tail,
    Var,
    Zero,
    alpha_eq,
    is_value,
    numeral,
    pretty,
    well_formed,
)
from duality_vm.machine import RuleTag, force_numeral, observe_stream, run, run_to_numeral
from duality_vm.parser import (
    App,
    Definition,
    NumLit,
    ParseError,
    Program,
    Ref,
    RecTerm,
    parse,
    parse_command,
    parse_coterm,
    parse_term,
)
from duality_vm.surface import (
    Compiler,
    encode_corec_via_coiter,
    encode_rec_via_iter,
    infer,
    prelude,
    translate,
)
from duality_vm.typechecker import EMPTY_ENV, TypeCheckError, TypeEnv, check_command, elaborate_command

from generators import DualGen, TypedGen, one_of_each
from oracle import (
    OracleError,
    desugar_case,
    desugar_cocase,
    desugar_coiter,
    desugar_iter,
    reference_eval,
    reference_trace,
    surface_force_numeral,
)

NAT = Nat()


def strip(node):
    """Erase all type annotations for shape comparisons."""

    from dataclasses import fields, is_dataclass, replace

    if not is_dataclass(node):
        return node
    changes = {}
    for f in fields(node):
        v = getattr(node, f.name)
        if f.name in ("annot", "elem_annot", "seed_annot", "payload_annot", "other"):
            changes[f.name] = None
        elif is_dataclass(v):
            changes[f.name] = strip(v)
    return replace(node, **changes)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_zero():
    assert parse_term("Z") == Zero()


def test_parse_rec_matches_plus_body():
    t = parse_term("rec x as { Z -> y | S _ -> z. S z }")
    assert t == RecTerm(Var("x"), Var("y"), "_", "z", Succ(Var("z")))


def test_parse_machine_mu():
    t = parse_term("mu a. < Z | a >")
    assert t == Mu("a", Command(Zero(), CoVar("a")))


def test_parse_program_defs_and_main():
    prog = parse("def one : Nat = S Z;\nmain = <one | a0>;")
    assert list(prog.defs) == ["one"]
    assert isinstance(prog.main, Command)
    assert prog.main.producer == Ref("one")


def test_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse("def x : Nat = ;")
    assert exc.value.line == 1
    assert exc.value.col > 0


def test_parse_rejects_duplicate_defs():
    with pytest.raises(ParseError):
        parse("def x : Nat = Z;\ndef x : Nat = Z;")


def test_binders_shadow_definition_names():
    prog = parse("def f : Nat = Z;\ndef g : Nat -> Nat = fun f : Nat => f;")
    body = prog.defs["g"].body
    assert body.body == Var("f")  # the bound variable, not the definition


# ---------------------------------------------------------------------------
# Translation


def test_translate_zero():
    assert translate(Zero(), CBV) == Zero()


def test_translate_application_display():
    # (fun z => x) ((fun x => x) y) compiles to the nested mu/comu form that
    # first names the function, then the argument, then builds a call stack.
    env = TypeEnv.make(vars={"x": NAT, "y": NAT})
    t = parse_term("(fun z : Nat => x) ((fun x : Nat => x) y)")
    out = translate(t, CBN, env=env)
    expected = parse_term(
        "mu a. <fun z : Nat => x"
        " | comu f. <mu b. <fun x : Nat => x | comu g. <y | comu y1. <g | y1 . b>>>"
        " | comu z. <f | z . a>>>"
    )
    assert alpha_eq(strip(out), strip(expected))


def test_translate_succ_of_value_stays_flat():
    out = translate(parse_term("S (S Z)"), CBV)
    assert out == numeral(2)


def test_translate_succ_of_computation_is_staged():
    env = TypeEnv.make(vars={"f": Fn(NAT, NAT), "x": NAT})
    out = translate(Succ(App(Var("f"), Var("x"))), CBV, env=env)
    expected = parse_term("mu a. <mu b. <f | comu g. <x | comu y. <g | y . b>>> | comu x1. <S x1 | a>>")
    assert alpha_eq(strip(out), strip(expected))
    # Call-by-name: every term is a value, so no staging happens.
    out_cbn = translate(Succ(App(Var("f"), Var("x"))), CBN, env=env)
    assert isinstance(out_cbn, Succ) and isinstance(out_cbn.arg, Mu)


def test_translate_rec_uses_mu_wrapped_rule_for_all_scrutinees():
    env = TypeEnv.make(vars={"y": NAT})
    out = translate(parse_term("rec 2 as { Z -> y | S _ -> z. S z }"), CBV, env=env)
    assert isinstance(out, Mu)
    assert isinstance(out.body.consumer, RecNat)
    assert out.body.producer == numeral(2)


def test_translate_output_is_well_formed_per_strategy(compilers):
    env = TypeEnv.make(vars={"f": Fn(NAT, NAT), "x": NAT}, covars={"a0": NAT})
    mixed = parse_term("(fun u : Nat => S (f u)) (f (S x))")
    for s in (CBV, CBN):
        out = translate(mixed, s, env=env)
        assert well_formed(Command(out, CoVar("a0")), s) == []


def test_translate_type_preservation(compilers):
    # The machine checker agrees with the front-end type on compiled terms.
    from duality_vm.typechecker import infer_term as machine_infer

    env = TypeEnv.make(vars={"x": NAT})
    cases = ["fun y : Nat => S (S y)", "rec x as { Z -> Z | S _ -> z. S (S z) }",
             "(fun y : Nat => y) x"]
    for text in cases:
        t = parse_term(text)
        ty = infer(t, env=env)
        for s in (CBV, CBN):
            out = translate(t, s, env=env)
            assert machine_infer(env, out) == ty


def test_translate_call_stack_with_computation_argument():
    # A call stack whose argument is not a value is rebuilt by naming the
    # function and the argument first.
    env = TypeEnv.make(vars={"f": Fn(NAT, NAT), "g": Fn(NAT, NAT)}, covars={"a0": NAT})
    c = parse_command("<g | (f 1) . a0>")
    for s in (CBV, CBN):
        out = Compiler(None, s).command(env, c, "c")
        assert well_formed(out, s) == []


def _generated(loose: bool) -> list:
    """(env, command) pairs from both generators: ``TypedGen`` builds the
    successors, call stacks and recursors, ``DualGen`` the numbered, pair,
    sum and projection nodes; both build corecursors and stream tails."""

    tg, dg = TypedGen(2801, loose=loose), DualGen(2802, loose=loose)
    out = [(TypeEnv.make(covars={"a0": NAT}), tg.command(depth=4)) for _ in range(120)]
    for _ in range(120):
        c, free_vars, free_covars = dg.command(depth=4)
        out.append((TypeEnv.make(free_vars, free_covars), c))
    return out


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_staging_adds_nothing_to_a_command_the_grammar_accepts(s):
    for env, c in _generated(loose=False):
        assert well_formed(c, s) == []
        assert Compiler(None, s).command(env, c, "command") == elaborate_command(env, c)


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_staging_meets_every_demand_of_the_grammar(s):
    staged = set()

    class Recording(Compiler):
        def _staged(self, node, ty, **kid_types):
            out = super()._staged(node, ty, **kid_types)
            if out is not node:
                staged.add(type(node))
            return out

    for env, c in _generated(loose=True):
        out = Recording(None, s).command(env, c, "command")
        assert well_formed(out, s) == [], pretty(c)
        check_command(env, out)
    # Each class with a demand on the sort s refuses is staged at least once.
    kind = "value" if s is CBV else "covalue"
    demanding = {type(n) for n in one_of_each() if any(getattr(c, kind) for c in n._shape.demands)}
    assert staged == demanding


def test_mixed_machine_and_surface_checking():
    env = TypeEnv.make(covars={"a0": NAT})
    c = parse_command("<mu a : Nat. <(fun x : Nat => x) 3 | a> | a0>")
    out = Compiler(None, CBV).command(env, c, "c")
    assert run_to_numeral(out, CBV)[0] == 3


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_check_program_returns_the_compiled_program(s):
    plus23 = (Path(__file__).resolve().parents[1] / "programs" / "plus23.ct").read_text()
    term_main = plus23.replace("main = <plus | 2 . 3 . a0>;", "main = plus 2 3;")
    for text in (plus23, term_main):
        defs, main = Compiler(parse(text), s).check_program()
        one = Compiler(parse(text), s)
        assert list(defs) == list(parse(text).defs)
        for name, pair in defs.items():
            assert pair == one.lookup_def(name, f"def {name}")
        assert main == one.main()
    assert main[0] == Nat()
    assert Compiler(prelude(), s).check_program()[1] is None


def test_demanded_children_sit_under_no_binder():
    # ``_staged`` avoids the node's own free names, which are the demanded
    # child's and its context's only while no binder scopes that child.
    demands = [c for node in one_of_each() for c in node._shape.demands]
    assert demands and not any(c.binds for c in demands)


@pytest.mark.parametrize("ty,body", [("Nat", "x"), ("Nat", "mu a : Nat. <Z | b>"), ("Nat", "f"),
                                     ("Nat -> Nat", "fun x : Nat => y")])
def test_a_definition_with_a_free_name_is_unbound(ty, body):
    with pytest.raises(TypeCheckError) as exc:
        Compiler(parse(f"def f : {ty} = {body};"), CBV).check_program()
    assert exc.value.kind == "UnboundName" and exc.value.message.startswith("unbound ")


def test_main_must_exist_and_use_one_covariable():
    with pytest.raises(TypeCheckError) as exc:
        Compiler(parse("def one : Nat = 1;"), CBV).main()
    assert (exc.value.kind, exc.value.message) == ("Mismatch", "program has no main")
    with pytest.raises(TypeCheckError) as exc:
        Compiler(parse("main = <mu b : Nat. <Z | a> | b>;"), CBV).main()
    assert exc.value.message == "main command must use one covariable, found ['a', 'b']"


def test_lookup_of_an_unknown_definition_and_of_a_cycle():
    # The parser reads a name as a reference only to an earlier definition,
    # so it can spell neither; the program is built by hand.
    defs = {"f": Definition("f", NAT, Ref("g"), 1), "g": Definition("g", NAT, Ref("f"), 2)}
    comp = Compiler(Program(defs, None), CBV)
    with pytest.raises(TypeCheckError) as exc:
        comp.lookup_def("h", "h")
    assert (exc.value.kind, exc.value.message) == ("UnboundName", "unknown definition 'h'")
    with pytest.raises(TypeCheckError) as exc:
        comp.lookup_def("f", "def f")
    assert (exc.value.kind, exc.value.message) == ("Mismatch", "definition cycle through 'f'")


# ---------------------------------------------------------------------------
# Reference interpreter (the independent oracle)


def test_reference_pred_cbn_three_steps():
    t = parse_term("pred (S (S Z))")
    nf, rules = reference_trace(t, CBN, program=prelude())
    assert rules == ["BetaArrow", "BetaSucc", "BetaArrow"]
    assert nf == numeral(1)


def test_reference_pred_cbv_six_steps():
    t = parse_term("pred (S (S Z))")
    nf, rules = reference_trace(t, CBV, program=prelude())
    assert len(rules) == 6
    assert nf == numeral(1)
    assert rules.count("BetaSucc") == 2 and rules.count("BetaZero") == 1


def test_reference_fact_four():
    for s in (CBV, CBN):
        assert surface_force_numeral(parse_term("fact 4"), s, program=prelude()) == 24


def test_reference_rejects_machine_constructs():
    with pytest.raises(OracleError):
        reference_eval(parse_term("mu a. <Z | a>"), CBV)


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_reference_renames_branch_binders_apart_from_the_substituted_name(s):
    # rec y as { Z -> Z | S y2 -> r. y2 }, up to the names of its binders
    got = reference_eval(parse_term("(fun y1 : Nat => rec y1 as { Z -> Z | S y -> r. y }) y"), s)
    assert isinstance(got, RecTerm) and (got.scrut, got.zero_body) == (Var("y"), Zero())
    assert got.succ_body == Var(got.pred_var) and got.pred_var not in ("y", got.result_var)


def test_reference_result_binder_shadows_the_predecessor():
    # S x -> y. x returns the predecessor y, free here, which must not be captured.
    assert reference_eval(parse_term("rec (S y) as { Z -> Z | S x -> y. x }"), CBN) == Var("y")
    prog = parse((Path(__file__).resolve().parents[1] / "programs" / "shadow.ct").read_text())
    for s in (CBV, CBN):
        assert surface_force_numeral(parse_term("rec 2 as { Z -> Z | S x -> x. x }"), s) == 0
        assert surface_force_numeral(parse_term("f 1 5"), s, program=prog) == 5


def test_translation_agrees_with_reference(compilers):
    # Differential test: compiled machine runs compute the same numerals as
    # the independent interpreter, under both strategies.
    grid = [(f, x, y) for f in ("plus", "times") for x in range(3) for y in range(3)]
    grid += [("pred", n, None) for n in range(4)] + [("fact", n, None) for n in range(4)]
    for fname, x, y in grid:
        src = App(App(Ref(fname), NumLit(x)), NumLit(y)) if y is not None else App(Ref(fname), NumLit(x))
        want = surface_force_numeral(src, CBV, program=prelude())
        for s in (CBV, CBN):
            assert surface_force_numeral(src, s, program=prelude()) == want
            t = compilers[s].term(EMPTY_ENV, src, None, "t")[1]
            got, _ = run_to_numeral(Command(t, CoVar("a0")), s)
            assert got == want, (fname, x, y, s)


# ---------------------------------------------------------------------------
# Sugar


def test_desugar_case_drops_recursive_binder():
    e = desugar_case(Zero(), "x", Var("x"), CoVar("a"))
    assert isinstance(e, RecNat)
    assert e.pred_var == "x"
    assert e.result_var not in e.succ_body.free_vars


def test_desugar_iter_drops_predecessor_binder():
    e = desugar_iter(Zero(), "y", Succ(Var("y")), CoVar("a"))
    assert e.result_var == "y"
    assert e.pred_var not in e.succ_body.free_vars


def test_desugar_case_behaves_like_pred(compilers):
    e = desugar_case(Zero(), "x", Var("x"), CoVar("a0"), annot=NAT)
    for s in (CBV, CBN):
        got, _ = run_to_numeral(Command(numeral(4), e), s)
        assert got == 3


def test_desugar_cocase_and_coiter():
    co = desugar_cocase("a", CoVar("a"), "b", MuTilde("_", Command(Var("s"), CoVar("b")), NAT), Var("x"))
    assert isinstance(co, CoRec)
    assert co.tail_seed_covar not in co.tail_body.free_covars
    it = desugar_coiter("a", CoVar("a"), "g", CoVar("g"), Zero())
    assert it.tail_covar not in it.tail_body.free_covars


def test_desugar_case_and_iter_match_native_recursor(compilers):
    # Caseesugar of pred and iterator-sugar of plus agree with the native
    # recursor forms on numerals up to 20, in both strategies.
    for s in (CBV, CBN):
        for n in range(0, 21):
            case_pred = desugar_case(Zero(), "x", Var("x"), CoVar("a0"), annot=NAT)
            got, _ = run_to_numeral(Command(numeral(n), case_pred), s)
            assert got == max(n - 1, 0)
        for n in (0, 1, 7, 20):
            iter_plus = desugar_iter(numeral(3), "z", Succ(Var("z")), CoVar("a0"), annot=NAT)
            got, _ = run_to_numeral(Command(numeral(n), iter_plus), s)
            assert got == n + 3


def test_desugar_cocase_and_coiter_match_native_corecursors(compilers):
    # always/repeat are coiterators and scons is a cocase; the sugared
    # constructions observe identically to the prelude's native forms.
    for s in (CBV, CBN):
        comp = compilers[s]
        coit = desugar_coiter("a", CoVar("a"), "g", CoVar("g"), numeral(4), elem_annot=NAT)
        always4 = comp.term(EMPTY_ENV, App(Ref("always"), NumLit(4)), None, "t")[1]
        for k in range(6):
            assert observe_stream(coit, k, s) == observe_stream(always4, k, s) == 4
        cocase = desugar_cocase(
            "a", CoVar("a"), "b",
            MuTilde("_", Command(Ref("zeroes"), CoVar("b")), NAT),
            numeral(7), elem_annot=NAT,
        )
        sugared = comp.term(EMPTY_ENV, cocase, None, "t")[1]
        native = comp.term(EMPTY_ENV, App(App(Ref("scons"), NumLit(7)), Ref("zeroes")), None, "t")[1]
        for k in range(6):
            assert observe_stream(sugared, k, s) == observe_stream(native, k, s)


def test_desugar_hygiene_no_capture():
    # A branch body that already uses the conventional fresh hint must not
    # be captured by the invented binder.
    body = Var("_")  # pathological but legal free variable named underscore
    e = desugar_case(Zero(), "x", body, CoVar("a"))
    assert e.result_var != "_"
    assert "_" in e.succ_body.free_vars


# ---------------------------------------------------------------------------
# Encodings


def encoded_pred(comp, s):
    pred = comp.lookup_def("pred", "pred")[1]
    mu = pred.body
    enc = encode_rec_via_iter(mu.body.consumer, s)
    return Lam(pred.var, Mu(mu.covar, Command(mu.body.producer, enc), mu.annot), pred.annot)


def test_encode_rec_via_iter_shape(compilers):
    comp = compilers[CBV]
    rec = comp.lookup_def("pred", "pred")[1].body.body.consumer
    enc = encode_rec_via_iter(rec, CBV)
    assert isinstance(enc, RecNat)
    assert isinstance(enc.ret, Snd)  # final continuation projects the result
    assert isinstance(enc.zero_body, Pair)  # (Z, Z) for pred
    assert enc.pred_var not in enc.succ_body.free_vars  # it is an iterator


def test_encoded_pred_agrees_with_native(compilers):
    for s in (CBV, CBN):
        enc = encoded_pred(compilers[s], s)
        for n in range(0, 9):
            got, stats = run_to_numeral(Command(enc, Call(numeral(n), CoVar("a0"))), s)
            assert got == max(n - 1, 0)
            assert stats.count(RuleTag.BETA_SUCC) == n


def test_encoded_pred_well_formed_and_typed(compilers):
    env = TypeEnv.make(covars={"a0": NAT})
    for s in (CBV, CBN):
        enc = encoded_pred(compilers[s], s)
        cmd = Command(enc, Call(numeral(3), CoVar("a0")))
        assert well_formed(cmd, s) == []
        check_command(env, cmd)


def encoded_rec_def(comp, name, s):
    """A prelude definition ``fun ... => mu a. <x | rec {...} with a>`` with
    its recursor rewritten as an iterator."""

    t = comp.lookup_def(name, name)[1]
    lams = []
    while isinstance(t, Lam):
        lams.append(t)
        t = t.body
    out = Mu(t.covar, Command(t.body.producer, encode_rec_via_iter(t.body.consumer, s)), t.annot)
    for lam in reversed(lams):
        out = Lam(lam.var, out, lam.annot)
    return out


# The successor branches of times and fact are computations, so the encoding
# stages the right component of the pair it builds there (in call-by-value).
ENCODED_TOTALS = {
    ("times", CBV): [5, 34, 63, 92, 121],
    ("times", CBN): [5, 34, 63, 92, 121],
    ("fact", CBV): [4, 40, 92, 169, 313],
    ("fact", CBN): [4, 44, 154, 563, 2430],
}


@pytest.mark.parametrize("name,s", list(ENCODED_TOTALS), ids=lambda v: str(v))
def test_encoded_times_and_fact_agree_with_native(compilers, name, s):
    env = TypeEnv.make(covars={"a0": NAT})
    native = compilers[s].lookup_def(name, name)[1]
    enc = encoded_rec_def(compilers[s], name, s)
    extra = [3] if name == "times" else []
    totals = []
    for n in range(5):
        stack = CoVar("a0")
        for arg in reversed([n, *extra]):
            stack = Call(numeral(arg), stack)
        cmd = Command(enc, stack)
        assert well_formed(cmd, s) == []
        check_command(env, cmd)
        got, stats = run_to_numeral(cmd, s)
        assert got == run_to_numeral(Command(native, stack), s)[0]
        totals.append(stats.total)
    assert totals == ENCODED_TOTALS[name, s]


def subterms(node):
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
        todo += [getattr(node, c.field) for c in type(node)._shape.children]


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_encoded_prelude_recursors_parse_back(compilers, s):
    # A wildcard predecessor (times) must not be rebuilt as the term "S _".
    defs = prelude().defs
    recs = [n for name in defs for n in subterms(compilers[s].lookup_def(name, name)[1]) if isinstance(n, RecNat)]
    assert len(recs) >= 4
    for rec in recs:
        enc = encode_rec_via_iter(rec, s)
        assert alpha_eq(parse_coterm(pretty(enc), defs), enc)


def encoded_scons(comp, s):
    scons = comp.lookup_def("scons", "scons")[1]
    enc = encode_corec_via_coiter(scons.body.body, s)
    return Lam(scons.var, Lam(scons.body.var, enc, scons.body.annot), scons.annot)


def test_encode_corec_via_coiter_shape(compilers):
    comp = compilers[CBV]
    cr = comp.lookup_def("scons", "scons")[1].body.body
    enc = encode_corec_via_coiter(cr, CBV)
    assert isinstance(enc, CoRec)
    assert isinstance(enc.seed, InR)  # the original seed enters on the right
    assert isinstance(enc.head_body, SumCase)
    assert enc.tail_covar not in enc.tail_body.free_covars  # it is a coiterator


def test_encoded_scons_agrees_with_native(compilers):
    for s in (CBV, CBN):
        comp = compilers[s]
        enc_fn = encoded_scons(comp, s)
        native = comp.term(EMPTY_ENV, App(App(Ref("scons"), NumLit(9)), Ref("nats")), None, "t")[1]
        enc = comp.term(EMPTY_ENV, App(App(enc_fn, NumLit(9)), Ref("nats")), None, "t")[1]
        for k in range(8):
            assert observe_stream(native, k, s) == observe_stream(enc, k, s)


def test_encoded_scons_typechecks(compilers):
    env = TypeEnv.make(covars={"a0": NAT})
    for s in (CBV, CBN):
        enc_fn = encoded_scons(compilers[s], s)
        t = compilers[s].term(EMPTY_ENV, App(App(enc_fn, NumLit(1)), Ref("zeroes")), None, "t")[1]
        cmd = Command(t, Head(CoVar("a0")))
        assert well_formed(cmd, s) == []
        check_command(env, cmd)


# ---------------------------------------------------------------------------
# Prelude


def test_prelude_has_all_named_definitions():
    names = set(prelude().defs)
    assert {"plus", "times", "pred", "fact", "succ", "always", "repeat",
            "zeroes", "nats", "countDown", "countDown2", "scons", "countNow"} <= names


def test_prelude_plus_body():
    body = prelude().defs["plus"].body
    assert isinstance(body, Lam) and isinstance(body.body, Lam)
    assert isinstance(body.body.body, RecTerm)


def test_prelude_zeroes_is_machine_level():
    body = prelude().defs["zeroes"].body
    assert isinstance(body, Mu)
    assert body.body.producer == Ref("always")
    assert body.body.consumer == Call(Zero(), CoVar("a"))


def test_prelude_count_now_matches_displayed_machine_form(compilers):
    body = prelude().defs["countNow"].body
    assert isinstance(body, Lam) and isinstance(body.body, Mu)
    rec = body.body.body.consumer
    assert isinstance(rec, RecTerm | RecNat)
    # The successor branch applies scons to the rebuilt number and the
    # recursive stream through an explicit call stack.
    inner = rec.succ_body
    assert isinstance(inner, Mu)
    assert inner.body.producer == Ref("scons")


def test_prelude_streams_observe(compilers):
    for s in (CBV, CBN):
        comp = compilers[s]
        assert [observe_stream(comp.lookup_def("nats", "t")[1], k, s) for k in range(5)] == [0, 1, 2, 3, 4]
