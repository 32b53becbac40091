"""Duality: type duals, node duals, involution, typing, lockstep simulation."""

import pytest

from duality_vm import kernel
from duality_vm.duality import (
    _NO_DUAL,
    _NODE_DUAL,
    _NODE_PAIRS,
    DualityContext,
    NotDualizable,
    dual_command,
    dual_coterm,
    dual_env,
    dual_rule,
    dual_strategy,
    dual_term,
    dual_type,
)
from duality_vm.kernel import (
    CBN,
    CBV,
    Command,
    CoRec,
    CoTerm,
    CoVar,
    Fn,
    Head,
    Lam,
    Nat,
    Numbered,
    NumSucc,
    NumZero,
    Prod,
    RecNum,
    Stream,
    Succ,
    Sum,
    Tail,
    Term,
    Var,
    Zero,
    alpha_eq,
    pretty,
    well_formed,
)
from duality_vm.machine import RuleTag, Stepped, run, step
from duality_vm.parser import Ref, parse_command, parse_coterm, parse_term
from duality_vm.typechecker import TypeEnv, check_command, elaborate_command

from generators import DualGen

NAT = Nat()


# ---------------------------------------------------------------------------
# Types


def test_dual_type_structural():
    x = Prod(NAT, NAT)
    assert dual_type(Numbered(Numbered(x))) == Stream(Stream(Sum(NAT, NAT)))


def test_dual_type_involution():
    for t in [NAT, Numbered(NAT), Stream(Numbered(NAT)), Prod(NAT, Sum(NAT, NAT))]:
        assert dual_type(dual_type(t)) == t


def test_function_types_have_no_dual():
    with pytest.raises(NotDualizable):
        dual_type(Fn(NAT, NAT))


def test_dual_strategy():
    assert dual_strategy(CBV) is CBN
    assert dual_strategy(CBN) is CBV
    assert dual_strategy(dual_strategy(CBV)) is CBV


def test_dual_rule_pairs():
    assert dual_rule(RuleTag.MU) == RuleTag.MU_TILDE
    assert dual_rule(RuleTag.BETA_NUM_ZERO) == RuleTag.BETA_HEAD
    assert dual_rule(RuleTag.BETA_NUM_SUCC) == RuleTag.BETA_TAIL
    assert dual_rule(RuleTag.BETA_FST) == RuleTag.BETA_INL
    with pytest.raises(NotDualizable):
        dual_rule(RuleTag.BETA_ARROW)


# ---------------------------------------------------------------------------
# Terms and coterms


def test_numzero_dualizes_to_head():
    out = dual_term(NumZero(Var("x")))
    assert out == Head(CoVar("x"))


def test_corec_dualizes_to_generalized_recursor():
    cr = parse_term("corec : Nat { head a -> a | tail b -> g. g } with x")
    out = dual_term(cr)
    assert isinstance(out, RecNum)
    assert out.payload_var == "a" and out.zero_body == Var("a")
    assert out.ret == CoVar("x")  # the seed pairs with the return continuation
    back = dual_coterm(out)
    assert alpha_eq(back, cr)


def test_dual_involution_on_nodes():
    nodes = [
        parse_term("numS (numZ x)"),
        parse_term("pair(x, y)"),
        parse_term("inl : Nat x"),
        parse_term("mu a : Nat. <x | a>"),
    ]
    for n in nodes:
        assert alpha_eq(dual_coterm(dual_term(n)), n)


def test_plain_numbers_and_functions_not_dualizable():
    terms = [
        (Zero(), "plain number constructors have no dual"),
        (Succ(Zero()), "plain number constructors have no dual"),
        (Lam("x", Var("x")), "functions have no dual"),
        (parse_term("inl : Nat -> Nat x"), "function types have no dual"),
        (Ref("plus"), "term Ref has no dual"),
        (CoVar("a"), "term CoVar has no dual"),
    ]
    coterms = [
        (parse_coterm("x . a0"), "call stacks have no dual"),
        (parse_coterm("rec { Z -> x | S p -> q. q } with a0"), "the plain number recursor has no dual"),
        (Zero(), "coterm Zero has no dual"),
    ]
    for dual, cases in ((dual_term, terms), (dual_coterm, coterms)):
        for node, message in cases:
            with pytest.raises(NotDualizable, match=f"^{message}$"):
                dual(node)


def test_explicit_pairing_context():
    ctx = DualityContext().pair("x", "alpha")
    assert dual_term(Var("x"), ctx) == CoVar("alpha")
    assert dual_coterm(CoVar("alpha"), ctx) == Var("x")


@pytest.mark.parametrize(
    "text,pairing,dual",
    [
        # The comu binds a variable a; the free variable a still pairs with alpha.
        ("<mu a : Nat. <a | a> | k>", ("a", "alpha"), "<k | comu a : Nat. <a | alpha>>"),
        # The mu binds a covariable x; the free covariable x still pairs with y.
        ("<z | comu x : Nat. <x | x>>", ("y", "x"), "<mu x : Nat. <y | x> | z>"),
    ],
)
def test_binder_shadows_only_its_own_namespace(text, pairing, dual):
    ctx = DualityContext().pair(*pairing)
    cmd = parse_command(text)
    env = TypeEnv.make(vars={n: NAT for n in cmd.free_vars}, covars={n: NAT for n in cmd.free_covars})
    check_command(env, cmd)
    out = dual_command(cmd, ctx)
    assert out == parse_command(dual)
    check_command(dual_env(env, ctx), out)


def test_pairing_onto_a_binder_name_does_not_capture():
    # The free covariable c pairs with the variable a, the name of the mu's
    # binder; the dual comu must not capture it.
    ctx = DualityContext().pair("a", "c")
    cmd = parse_command("<mu a : Nat. <z | c> | k>")
    out = dual_command(cmd, ctx)
    assert out == parse_command("<k | comu a1 : Nat. <a | z>>")
    assert alpha_eq(dual_command(out, ctx), cmd)
    env = TypeEnv.make(vars={"z": NAT}, covars={"c": NAT, "k": NAT})
    check_command(dual_env(env, ctx), out)


@pytest.mark.parametrize("pair", _NODE_PAIRS, ids=lambda p: f"{p[0].__name__}-{p[1].__name__}")
def test_dual_pairs_match_by_position(pair):
    # The dual is rebuilt field by field in declaration order, so a field
    # moved on one side of a pair must fail here, not mis-dualize.
    a, b = (cls._shape for cls in pair)
    assert issubclass(pair[0], Term) and issubclass(pair[1], CoTerm)
    assert len(a.names) == len(b.names)
    assert a.kids == b.kids  # child indices, with their binders' indices
    assert [len(c.binds) for c in a.children] == [len(c.binds) for c in b.children]
    types = [sorted(map(sh.names.index, sh.data + sh.ignore)) for sh in (a, b)]
    assert types[0] == types[1]
    if any(c.binds for c in a.children):
        assert a.var_side != b.var_side  # mu binds a covariable, comu a variable


def test_every_kernel_class_is_dualized_or_refused():
    classes = {cls for cls in vars(kernel).values()
               if isinstance(cls, type) and issubclass(cls, (Term, CoTerm)) and "_shape" in vars(cls)}
    handled = set(_NODE_DUAL) | set(_NO_DUAL) | {Var, CoVar}
    assert classes == handled
    assert not set(_NODE_DUAL) & set(_NO_DUAL)


DEEP = 100000


def test_dual_of_deep_towers():
    # Under Python's default recursion limit: the dual keeps its own stack.
    v, e = NumZero(Var("x")), Head(CoVar("a"))
    for _ in range(DEEP):
        v, e = NumSucc(v), Tail(e)
    producer = "numS (" * DEEP + "numZ a" + ")" * DEEP
    consumer = "tail (" * DEEP + "head x" + ")" * DEEP
    assert pretty(dual_command(Command(v, e))) == f"<{producer} | {consumer}>"
    tower = Var("x")
    for _ in range(DEEP):
        tower = Succ(tower)
    with pytest.raises(NotDualizable, match="plain number constructors"):
        dual_command(Command(tower, CoVar("a")))


def test_command_sides_swap():
    c = parse_command("<numZ x | head a0>")
    d = dual_command(c)
    assert d == parse_command("<numZ a0 | head x>")


# ---------------------------------------------------------------------------
# Generated corpus: involution, typing, lockstep


def _corpus(n=120, depth=4):
    gen = DualGen(20240)
    out = []
    for _ in range(n):
        cmd, fv, fc = gen.command(depth=depth)
        out.append((cmd, TypeEnv.make(vars=fv, covars=fc)))
    return out


CORPUS = _corpus()


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 100


def test_involution_on_corpus():
    for cmd, env in CORPUS:
        cmd = elaborate_command(env, cmd)
        assert alpha_eq(dual_command(dual_command(cmd)), cmd)


def _binder_names(cmd):
    """The variable and the covariable binder names of cmd, in walk order."""

    var_binders, covar_binders, todo = [], [], [cmd]
    while todo:
        node = todo.pop()
        sh = type(node)._shape
        for c in sh.children:
            names = [getattr(node, b) for b in c.binds]
            (var_binders if sh.var_side else covar_binders).extend(names)
            todo.append(getattr(node, c.field))
    return var_binders, covar_binders


def test_pairings_onto_binder_names_on_corpus():
    # Pair each free covariable with the name of a covariable binder (it
    # turns into a variable binder in the dual), and each free variable with
    # the name of a variable binder: without renaming, the dual would capture.
    renamed = 0
    for cmd, env in CORPUS:
        cmd = elaborate_command(env, cmd)
        var_binders, covar_binders = _binder_names(cmd)
        ctx = DualityContext()
        for a, b in zip(sorted(cmd.free_covars), covar_binders):
            ctx = ctx.pair(b, a)
        for x, y in zip(sorted(cmd.free_vars), var_binders):
            ctx = ctx.pair(x, y)
        out = dual_command(cmd, ctx)
        dual_vars, dual_covars = _binder_names(out)  # binders swap namespaces
        renamed += sorted(dual_vars) != sorted(covar_binders) or sorted(dual_covars) != sorted(var_binders)
        check_command(dual_env(env, ctx), out)
        assert alpha_eq(dual_command(out, ctx), cmd)
    assert renamed >= 40


def test_type_duality_on_corpus():
    for cmd, env in CORPUS:
        cmd = elaborate_command(env, cmd)
        check_command(dual_env(env), dual_command(cmd))


def test_well_formedness_dualizes():
    for cmd, env in CORPUS:
        cmd = elaborate_command(env, cmd)
        for s in (CBV, CBN):
            if not well_formed(cmd, s):
                assert well_formed(dual_command(cmd), dual_strategy(s)) == []


@pytest.mark.parametrize("s", [CBV, CBN])
def test_lockstep_simulation(s):
    # Stepping the dual command under the dual strategy mirrors every step,
    # with dual rule tags and dual successor states.  This is the empirical
    # validation of the numbered-value reduction rules.
    steps_seen = 0
    for cmd, env in CORPUS:
        cmd = elaborate_command(env, cmd)
        if well_formed(cmd, s):
            continue
        c1, c2 = cmd, dual_command(cmd)
        for _ in range(3000):
            o1 = step(c1, s)
            o2 = step(c2, dual_strategy(s))
            if not isinstance(o1, Stepped):
                assert not isinstance(o2, Stepped)
                break
            assert isinstance(o2, Stepped)
            assert o2.rule == dual_rule(o1.rule)
            assert alpha_eq(dual_command(o1.next), o2.next)
            c1, c2 = o1.next, o2.next
            steps_seen += 1
        else:
            raise AssertionError("lockstep run did not settle")
    assert steps_seen > 200  # the corpus actually exercises the rules


def test_runs_dualize_line_by_line():
    # Criterion 10 steps with ``step``, which never meets the pending half
    # of a recursor or corecursor frame; ``run`` does.  A command and its
    # dual, run under dual strategies, must agree on every traced line.
    gen, with_frames = DualGen(77), 0
    for _ in range(400):
        cmd, fv, fc = gen.command(depth=4)
        cmd = elaborate_command(TypeEnv.make(vars=fv, covars=fc), cmd)
        for s in (CBV, CBN):
            if well_formed(cmd, s):
                continue
            r1 = run(cmd, s, fuel=3000, trace=True)
            r2 = run(dual_command(cmd), dual_strategy(s), fuel=3000, trace=True)
            assert (r1.outcome, r1.stats.total) == (r2.outcome, r2.stats.total)
            assert {dual_rule(r): n for r, n in r1.stats.per_rule.items()} == r2.stats.per_rule
            assert len(r1.trace) == len(r2.trace)
            for a, b in zip(r1.trace, r2.trace):
                assert b.rule == dual_rule(a.rule)
                assert alpha_eq(dual_command(parse_command(a.command_text)), parse_command(b.command_text))
            assert (r1.final is None) == (r2.final is None)
            assert r1.final is None or alpha_eq(dual_command(r1.final), r2.final)
            with_frames += bool(r1.stats.count(RuleTag.BETA_NUM_SUCC) or r1.stats.count(RuleTag.BETA_TAIL))
    assert with_frames >= 50
