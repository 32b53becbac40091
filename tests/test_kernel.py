"""Kernel: values, substitution, alpha-equivalence, grammar checks, printing."""

import copy
import dataclasses
import pickle
import typing

import pytest
from hypothesis import given, settings, strategies as st

from duality_vm import kernel, machine, parser
from duality_vm.kernel import (
    CBN,
    CBV,
    Call,
    Command,
    CoRec,
    CoTerm,
    CoVar,
    Fst,
    Head,
    InL,
    InR,
    Lam,
    Mu,
    MuTilde,
    Nat,
    Node,
    NumSucc,
    NumZero,
    Pair,
    RecNat,
    RecNum,
    Snd,
    Stream,
    Succ,
    SumCase,
    Tail,
    Term,
    Var,
    Violation,
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
from duality_vm.machine import RuleTag
from duality_vm.parser import App, parse_command, parse_coterm, parse_term, parse_type
from generators import DualGen, TypedGen, one_of_each

MU0 = Mu("a", Command(Zero(), CoVar("a")))  # mu a. <Z | a>
MT0 = MuTilde("x", Command(Var("x"), CoVar("a")))  # comu x. <x | a>


# ---------------------------------------------------------------------------
# Values and covalues


def test_succ_of_zero_is_value_everywhere():
    assert is_value(Succ(Zero()), CBV)
    assert is_value(Succ(Zero()), CBN)


def test_mu_is_not_a_cbv_value_but_is_a_cbn_value():
    assert not is_value(MU0, CBV)
    assert is_value(MU0, CBN)


def test_mutilde_is_a_cbv_covalue_but_not_a_cbn_covalue():
    assert is_covalue(MT0, CBV)
    assert not is_covalue(MT0, CBN)


def test_head_over_covar_is_a_cbn_covalue():
    assert is_covalue(Head(CoVar("a")), CBN)


def test_cbn_values_cover_every_term():
    terms = [
        Var("x"), MU0, Lam("x", Var("x")), Zero(), Succ(MU0),
        Pair(MU0, Zero()), InL(MU0), numeral(3),
    ]
    for t in terms:
        assert is_value(t, CBN)


def test_cbv_covalues_cover_every_coterm():
    coterms = [
        CoVar("a"), MT0, Call(Zero(), MT0), Head(MT0), Fst(MT0),
        RecNat(Zero(), "x", "y", Var("y"), MT0), SumCase(MT0, CoVar("a")),
    ]
    for e in coterms:
        assert is_covalue(e, CBV)


def test_cbn_covalue_needs_covalue_tails():
    assert is_covalue(Call(Zero(), CoVar("a")), CBN)
    assert well_formed(Command(Zero(), Call(Zero(), MT0)), CBN) == [
        Violation("command.consumer.rest", "call-stack tail must be a cbn covalue")
    ]
    assert well_formed(Command(Zero(), Head(MT0)), CBN) == [
        Violation("command.consumer.rest", "destructor tail must be a cbn covalue")
    ]
    assert is_covalue(Tail(Head(CoVar("a"))), CBN)
    # A case split forces its input regardless of branch shape.
    assert is_covalue(SumCase(MT0, MT0), CBN)


def test_cbv_value_needs_value_arguments():
    def cut(t):
        return well_formed(Command(t, CoVar("a")), CBV)

    assert is_value(Pair(Zero(), Succ(Zero())), CBV)
    assert cut(Pair(MU0, Zero())) == [Violation("command.producer.left", "pair component must be a cbv value")]
    assert cut(Succ(MU0)) == [Violation("command.producer.arg", "successor argument must be a cbv value")]
    assert is_value(InL(Zero()), CBV)
    assert cut(InL(MU0)) == [Violation("command.producer.arg", "injection argument must be a cbv value")]


# ---------------------------------------------------------------------------
# Substitution


def test_subst_var_simple():
    c = parse_command("<x | a>")
    assert subst_var(c, "x", Zero()) == parse_command("<Z | a>")


def test_subst_var_leaves_bound_occurrences():
    c = Command(Lam("x", Var("x")), Call(Var("x"), CoVar("a")))
    out = subst_var(c, "x", Succ(Zero()))
    assert alpha_eq(out, Command(Lam("x", Var("x")), Call(Succ(Zero()), CoVar("a"))))


def test_subst_var_shadowed_by_mutilde():
    c = parse_command("<x | comu x. <x | a>>")
    out = subst_var(c, "x", Zero())
    assert alpha_eq(out, parse_command("<Z | comu x. <x | a>>"))


def test_subst_covar_simple():
    c = parse_command("<Z | a>")
    assert subst_covar(c, "a", Head(CoVar("b"))) == parse_command("<Z | head b>")


def test_subst_covar_bound_untouched():
    c = parse_command("<mu a. <Z | a> | b>")
    out = subst_covar(c, "b", CoVar("a0"))
    assert alpha_eq(out, parse_command("<mu a. <Z | a> | a0>"))


def test_subst_covar_into_recursor_ret():
    c = parse_command("<Z | rec { Z -> 3 | S x -> z. S z } with a>")
    out = subst_covar(c, "a", parse_coterm("comu z. <S z | a0>"))
    assert alpha_eq(out, parse_command("<Z | rec { Z -> 3 | S x -> z. S z } with comu z. <S z | a0>>"))


def test_subst_avoids_capture():
    # Substituting a term with free y under a binder named y must rename.
    c = parse_command("<fun y : Nat => x | a>")
    out = subst_var(c, "x", Var("y"))
    lam = out.producer
    assert lam.var != "y"
    assert lam.body == Var("y")


def test_subst_no_free_occurrence_is_identity():
    c = parse_command("<mu a. <Z | a> | b>")
    assert subst_var(c, "zzz", Zero()) is c


def test_subst_commutes_for_independent_names():
    c = parse_command("<x | comu w. <y | a>>")
    one = subst_var(subst_var(c, "x", Zero()), "y", Succ(Zero()))
    two = subst_var(subst_var(c, "y", Succ(Zero())), "x", Zero())
    assert alpha_eq(one, two)


# Independent oracle: a nameless (de-Bruijn-style) form of every machine
# node class, and substitution on it, against which the kernel's
# substitution and alpha-equivalence are cross-checked on generated
# commands.  It shares no code with the kernel: which fields bind, on which
# side, and which annotations count is written out here again.


def _db(node, venv=(), cenv=()):
    """Convert to a nameless tuple form: bound names become their binder's
    index in the environment (innermost first), free names stay strings.
    Of two binders of one position the second is the inner one, and the
    annotations that elaboration fills in (recursor results, corecursor
    seeds) are left out, as alpha-equivalence ignores them."""

    def name(n, env):
        return env.index(n) if n in env else n

    venv, cenv = list(venv), list(cenv)
    match node:
        case Command(v, e):
            return ("cmd", _db(v, venv, cenv), _db(e, venv, cenv))
        case Var(n):
            return ("v", name(n, venv))
        case CoVar(n):
            return ("c", name(n, cenv))
        case Mu(a, body, annot):
            return ("mu", annot, _db(body, venv, [a] + cenv))
        case MuTilde(x, body, annot):
            return ("mt", annot, _db(body, [x] + venv, cenv))
        case Lam(x, body, annot):
            return ("lam", annot, _db(body, [x] + venv, cenv))
        case Zero():
            return ("z",)
        case Succ(arg):
            return ("s", _db(arg, venv, cenv))
        case NumZero(arg):
            return ("nz", _db(arg, venv, cenv))
        case NumSucc(arg):
            return ("ns", _db(arg, venv, cenv))
        case Pair(left, right):
            return ("pair", _db(left, venv, cenv), _db(right, venv, cenv))
        case InL(arg, other):
            return ("inl", other, _db(arg, venv, cenv))
        case InR(arg, other):
            return ("inr", other, _db(arg, venv, cenv))
        case CoRec(ha, he, ta, tg, te, seed, elem_annot, _):
            return (
                "corec",
                elem_annot,
                _db(he, venv, [ha] + cenv),
                _db(te, venv, [tg, ta] + cenv),
                _db(seed, venv, cenv),
            )
        case Call(arg, rest):
            return ("call", _db(arg, venv, cenv), _db(rest, venv, cenv))
        case RecNat(zb, x, y, sb, ret, _):
            return ("rn", _db(zb, venv, cenv), _db(sb, [y, x] + venv, cenv), _db(ret, venv, cenv))
        case RecNum(p, zb, x, y, sb, ret, payload_annot, _):
            return (
                "rm",
                payload_annot,
                _db(zb, [p] + venv, cenv),
                _db(sb, [y, x] + venv, cenv),
                _db(ret, venv, cenv),
            )
        case Head(rest):
            return ("hd", _db(rest, venv, cenv))
        case Tail(rest):
            return ("tl", _db(rest, venv, cenv))
        case Fst(rest, other):
            return ("fst", other, _db(rest, venv, cenv))
        case Snd(rest, other):
            return ("snd", other, _db(rest, venv, cenv))
        case SumCase(left, right):
            return ("case", _db(left, venv, cenv), _db(right, venv, cenv))
    raise AssertionError(node)


def _db_subst(t, images):
    """Parallel substitution in nameless form: images maps a free leaf,
    ("v", name) or ("c", name), to its nameless image.  Bound leaves are
    numbers and free ones strings, so nothing can be captured."""

    if t[0] in ("v", "c"):
        return images.get(t, t)
    return tuple(_db_subst(x, images) if isinstance(x, tuple) else x for x in t)


def _db_images(var_map, covar_map):
    images = {("v", x): _db(v) for x, v in (var_map or {}).items()}
    images.update({("c", a): _db(e) for a, e in (covar_map or {}).items()})
    return images


@st.composite
def small_commands(draw):
    names = ["x", "y"]
    conames = ["a", "b"]

    def term(depth):
        kind = draw(st.sampled_from(["var", "zero", "succ", "mu"] if depth else ["var", "zero"]))
        if kind == "var":
            return Var(draw(st.sampled_from(names)))
        if kind == "zero":
            return Zero()
        if kind == "succ":
            return Succ(term(depth - 1))
        return Mu(draw(st.sampled_from(conames)), command(depth - 1))

    def coterm(depth):
        kind = draw(st.sampled_from(["covar", "mt"] if depth else ["covar"]))
        if kind == "covar":
            return CoVar(draw(st.sampled_from(conames)))
        return MuTilde(draw(st.sampled_from(names)), command(depth - 1))

    def command(depth):
        return Command(term(depth), coterm(depth))

    return command(draw(st.integers(min_value=0, max_value=3)))


@settings(max_examples=150, deadline=None)
@given(small_commands(), small_commands())
def test_subst_matches_nameless_oracle(c, repl_cmd):
    repl = Mu("a", repl_cmd)
    got = subst_var(c, "x", repl)
    assert _db(got) == _db_subst(_db(c), _db_images({"x": repl}, None))


@settings(max_examples=100, deadline=None)
@given(small_commands())
def test_alpha_eq_invariant_under_renaming(c):
    # Renaming a bound mu variable must not change alpha-identity.
    wrapped1 = Mu("a", c)
    wrapped2 = Mu("zz", subst_covar(c, "a", CoVar("zz")))
    assert alpha_eq(wrapped1, wrapped2)


# The oracle's own list of binder fields, to see which binders a
# substitution renamed.
BINDER_FIELDS = {
    Mu: ("covar",),
    MuTilde: ("var",),
    Lam: ("var",),
    RecNat: ("pred_var", "result_var"),
    RecNum: ("payload_var", "pred_var", "result_var"),
    CoRec: ("head_covar", "tail_covar", "tail_seed_covar"),
}
COVARIABLE_BINDERS = (Mu, CoRec)


def _children(node):
    return [getattr(node, f.name) for f in dataclasses.fields(node)]


def _bound_names(root):
    """(variables, covariables) bound anywhere under root."""

    vs, cs = set(), set()
    todo = [root]
    while todo:
        n = todo.pop()
        for f in BINDER_FIELDS.get(type(n), ()):
            (cs if isinstance(n, COVARIABLE_BINDERS) else vs).add(getattr(n, f))
        todo.extend(x for x in _children(n) if isinstance(x, Node))
    return vs, cs


def _renamed_binders(before, after):
    """The (class, binder field) positions whose name a substitution changed."""

    out = set()
    todo = [(before, after)]
    while todo:
        a, b = todo.pop()
        if type(a) is not type(b) or isinstance(a, (Var, CoVar)):
            continue
        out |= {(type(a).__name__, f) for f in BINDER_FIELDS.get(type(a), ()) if getattr(a, f) != getattr(b, f)}
        todo.extend((x, y) for x, y in zip(_children(a), _children(b)) if isinstance(x, Node))
    return out


def _capturing_images(root):
    """A term and a coterm whose free names include every name bound in
    root, so substituting either under a binder of root renames it."""

    vs, cs = _bound_names(root)
    t: Term = Zero()
    for x in sorted(vs):
        t = Pair(Var(x), t)
    e: CoTerm = CoVar("top")
    for a in sorted(cs):
        e = SumCase(CoVar(a), e)
    return Mu("k", Command(t, e)), MuTilde("w", Command(t, e))


class _Respelled:
    """Generator mixin: the same commands, every bound name spelled anew."""

    def fresh(self, hint: str) -> str:
        name = super().fresh(hint)
        return name if hint in ("fv", "fc") else name + "_"


class _RespelledTypedGen(_Respelled, TypedGen):
    pass


class _RespelledDualGen(_Respelled, DualGen):
    pass


def _generated(typed=TypedGen, dual=DualGen):
    tg, dg = typed(17), dual(18)
    return [tg.command(depth=4) for _ in range(60)] + [dg.command(depth=3)[0] for _ in range(60)]


def _capturing_maps(c):
    """Substitutions into c: each free name alone, then all at once, with
    images free in every name bound in c."""

    term, coterm = _capturing_images(c)
    maps = [({x: term}, None) for x in sorted(c.free_vars)]
    maps += [(None, {a: coterm}) for a in sorted(c.free_covars)]
    maps.append(({x: term for x in c.free_vars}, {a: coterm for a in c.free_covars}))
    return maps


def test_subst_matches_nameless_oracle_on_generated_commands():
    renamed = set()
    for c in _generated():
        for vm, cm in _capturing_maps(c):
            got = subst(c, vm, cm)
            assert _db(got) == _db_subst(_db(c), _db_images(vm, cm)), pretty(c)
            renamed |= _renamed_binders(c, got)
    assert renamed == {(cls.__name__, f) for cls, fs in BINDER_FIELDS.items() for f in fs}


def _shadowing(node, outer_vars=(), outer_covars=()):
    """node with its first binder nested under another binder of its side
    renamed to that binder's name, which recaptures the outer binder's
    occurrences beneath it; None if there is no such nesting."""

    fs = BINDER_FIELDS.get(type(node), ())
    outer = outer_covars if isinstance(node, COVARIABLE_BINDERS) else outer_vars
    for f in fs:
        for name in outer:
            if name != getattr(node, f):
                return dataclasses.replace(node, **{f: name})
    bound = tuple(getattr(node, f) for f in fs)
    if isinstance(node, COVARIABLE_BINDERS):
        outer_covars = outer_covars + bound
    else:
        outer_vars = outer_vars + bound
    for f in dataclasses.fields(node):
        child = getattr(node, f.name)
        if isinstance(child, Node):
            new = _shadowing(child, outer_vars, outer_covars)
            if new is not None:
                return dataclasses.replace(node, **{f.name: new})
    return None


def test_alpha_eq_matches_nameless_oracle_on_generated_commands():
    cmds, respelled = _generated(), _generated(_RespelledTypedGen, _RespelledDualGen)
    verdicts = set()
    for c, d, other in zip(cmds, respelled, cmds[1:] + cmds[:1]):
        assert pretty(c) != pretty(d) or not any(_bound_names(c))
        pairs = [(c, d), (c, other), (d, other), (c.consumer, other.consumer)]
        shadowed = _shadowing(c)
        if shadowed is not None:
            pairs.append((c, shadowed))
        for vm, cm in _capturing_maps(c):
            pairs += [(subst(c, vm, cm), subst(d, vm, cm)), (c, subst(d, vm, cm))]
        for a, b in pairs:
            verdict = alpha_eq(a, b)
            assert verdict == (_db(a) == _db(b)), (pretty(a), pretty(b))
            verdicts.add(verdict)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# alpha_eq and fresh_name


def test_alpha_eq_lambda():
    assert alpha_eq(Lam("x", Var("x")), Lam("y", Var("y")))


def test_alpha_eq_mu():
    assert alpha_eq(parse_term("mu a. <Z | a>"), parse_term("mu b. <Z | b>"))


def test_alpha_eq_distinguishes_bodies():
    assert not alpha_eq(Lam("x", Zero()), Lam("x", Succ(Zero())))


def test_alpha_eq_free_names_matter():
    assert not alpha_eq(Var("x"), Var("y"))
    assert alpha_eq(Var("x"), Var("x"))


def test_fresh_name():
    assert fresh_name({"x"}, "x") == "x1"
    assert fresh_name(set(), "x") == "x"
    assert fresh_name({"x", "x1"}, "x") == "x2"


# ---------------------------------------------------------------------------
# Well-formedness


def test_succ_of_mu_is_illegal_cbv_but_legal_cbn():
    c = Command(Succ(MU0), CoVar("a0"))
    bad = well_formed(c, CBV)
    assert len(bad) == 1 and "arg" in bad[0].path
    assert well_formed(c, CBN) == []


def test_call_with_mu_argument_flagged_under_cbv():
    c = Command(Lam("x", Var("x")), Call(MU0, CoVar("b")))
    bad = well_formed(c, CBV)
    assert any("arg" in v.path for v in bad)
    # Under call-by-name every term is a value, so the same stack is fine
    # (the machine's own reduction creates such stacks in call-by-name).
    assert well_formed(c, CBN) == []


def test_mutilde_tails_flagged_under_cbn():
    c = Command(Zero(), Head(MT0))
    assert well_formed(c, CBV) == []
    bad = well_formed(c, CBN)
    assert len(bad) == 1 and "rest" in bad[0].path


def test_well_formed_reports_all_violations_with_paths():
    c = Command(Succ(MU0), Call(MU0, MT0))
    bad = well_formed(c, CBV)
    assert {v.path for v in bad} == {"command.producer.arg", "command.consumer.arg"}


def test_well_formed_preserved_by_value_substitution():
    c = parse_command("<S x | comu y. <y | a0>>")
    assert well_formed(c, CBV) == []
    out = subst_var(c, "x", numeral(2))
    assert well_formed(out, CBV) == []
    out_cbn = subst_var(c, "x", MU0)  # mu-term: a CBN value
    assert well_formed(out_cbn, CBN) == []


def test_well_formed_order_and_paths_across_corec_recnum_and_call():
    c = Command(
        CoRec("h", Head(MT0), "t", "g", Tail(Call(MU0, MT0)), MU0),
        Call(MU0, RecNum("p", Succ(MU0), "x", "y", Pair(MU0, Pair(Zero(), MU0)), Call(MU0, Fst(MT0)))),
    )
    assert [(v.path, v.message) for v in well_formed(c, CBV)] == [
        ("command.producer.tail.rest.arg", "call-stack argument must be a cbv value"),
        ("command.producer.seed", "corecursor seed must be a cbv value"),
        ("command.consumer.rest.zero.arg", "successor argument must be a cbv value"),
        ("command.consumer.rest.succ.right.right", "pair component must be a cbv value"),
        ("command.consumer.rest.succ.left", "pair component must be a cbv value"),
        ("command.consumer.rest.ret.arg", "call-stack argument must be a cbv value"),
        ("command.consumer.arg", "call-stack argument must be a cbv value"),
    ]
    assert [(v.path, v.message) for v in well_formed(c, CBN)] == [
        ("command.producer.head.rest", "destructor tail must be a cbn covalue"),
        ("command.producer.tail.rest.rest", "call-stack tail must be a cbn covalue"),
        ("command.consumer.rest.ret.rest.rest", "destructor tail must be a cbn covalue"),
    ]


# Front-end nodes are outside the machine grammar: every traversal rejects them.
APP = App(Var("f"), Var("x"))


def test_well_formed_reports_a_front_end_node():
    for s in (CBV, CBN):
        assert well_formed(Command(APP, CoVar("a")), s) == [Violation("command.producer", "unknown node App")]


def test_subst_into_a_front_end_node_raises():
    with pytest.raises(ValueError, match="^substitution over unknown node: App"):
        subst(Command(APP, CoVar("a")), {"x": Zero()})


def test_alpha_eq_of_front_end_nodes_raises():
    with pytest.raises(ValueError, match="^alpha_eq over unknown node: App"):
        alpha_eq(APP, App(Var("f"), Var("x")))
    assert not alpha_eq(APP, Var("f"))


# Trees of the grammar's sorts in which any position, the root included,
# may hold any node instead: a term, a coterm, a command or a front-end node.
_SORTS = {"Term": Term, "CoTerm": CoTerm, "Command": Command}
_DATA = {"str": st.sampled_from(["x", "y", "a", "a0"]), "int": st.integers(0, 3)}


@st.composite
def _any_trees(draw, sort=Command, depth=3):
    if draw(st.integers(0, 7)) == 0:
        sort = None
    classes = [c for c in _node_classes() if issubclass(c, sort) and c._shape.grammar] if sort else _node_classes()
    if depth <= 0:
        classes = [c for c in classes if not c._shape.children] or classes
    cls = draw(st.sampled_from(classes))
    kids = {c.field for c in cls._shape.children}
    return cls(**{f: draw(_any_trees(_SORTS[t], depth - 1)) if f in kids else draw(_DATA.get(t, st.none()))
                  for f, t in cls._shape.sorts.items()})


@settings(max_examples=300, deadline=None)
@given(st.deferred(_any_trees))
def test_well_formed_is_total(tree):
    # A list of violations for any tree, never an exception.  A tree with
    # none is a command, which step takes without raising; a mu or comu cut
    # in it always fires, since its strategy's refused class decides the
    # pair.  The classifiers are total too: a bool on every node, True
    # exactly on a grammar node of its sort whose class the strategy does
    # not refuse, so every grammar term (coterm) is a call-by-name value
    # (call-by-value covalue).
    nodes = [tree]
    for n in nodes:
        nodes += [getattr(n, c.field) for c in type(n)._shape.children]
    for n in nodes:
        grammar = type(n)._shape.grammar
        for s in (CBV, CBN):
            v, k = is_value(n, s), is_covalue(n, s)
            assert type(v) is bool and type(k) is bool
            assert v is (isinstance(n, Term) and grammar and type(n) is not s.refuses)
            assert k is (isinstance(n, CoTerm) and grammar and type(n) is not s.refuses)
        assert is_value(n, CBN) is (isinstance(n, Term) and grammar)
        assert is_covalue(n, CBV) is (isinstance(n, CoTerm) and grammar)
    for s in (CBV, CBN):
        bad = well_formed(tree, s)
        assert type(bad) is list and all(type(v) is Violation for v in bad)
        if not bad:
            assert type(tree) is Command
            out = machine.step(tree, s)
            if type(tree.producer) is Mu or type(tree.consumer) is MuTilde:
                assert type(out) is machine.Stepped and out.rule in (RuleTag.MU, RuleTag.MU_TILDE)


# ---------------------------------------------------------------------------
# Shapes: every node class declares each of its fields once


def _node_classes():
    abstract = (Node, Term, CoTerm)
    return [
        cls
        for mod in (kernel, parser)
        for cls in vars(mod).values()
        if isinstance(cls, type) and issubclass(cls, Node) and cls.__module__ == mod.__name__
        and cls not in abstract
    ]


# The fields of each node class, in order, as dataclasses.fields, match
# statements and perfbench's node count read them.
FIELDS = {
    "Command": "producer consumer", "Var": "name", "Mu": "covar body annot", "Lam": "var body annot",
    "Zero": "", "Succ": "arg", "NumZero": "arg", "NumSucc": "arg", "Pair": "left right",
    "InL": "arg other", "InR": "arg other",
    "CoRec": "head_covar head_body tail_covar tail_seed_covar tail_body seed elem_annot seed_annot",
    "CoVar": "name", "MuTilde": "var body annot", "Call": "arg rest",
    "RecNat": "zero_body pred_var result_var succ_body ret annot",
    "RecNum": "payload_var zero_body pred_var result_var succ_body ret payload_annot annot",
    "Head": "rest", "Tail": "rest", "Fst": "rest other", "Snd": "rest other", "SumCase": "left right",
    "App": "fn arg", "RecTerm": "scrut zero_body pred_var result_var succ_body", "NumLit": "n", "Ref": "name",
}


@pytest.mark.parametrize("cls", _node_classes(), ids=lambda cls: cls.__name__)
def test_shape_declares_every_field(cls):
    assert "_shape" in vars(cls), f"{cls.__name__} declares no shape"
    sh = cls._shape
    hints = typing.get_type_hints(cls)
    assert dataclasses.is_dataclass(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    assert tuple(names) == sh.names == cls.__match_args__ == tuple(FIELDS[cls.__name__].split())
    nodes = [n for n in names if isinstance(hints[n], type) and issubclass(hints[n], Node)]
    assert [c.field for c in sh.children] == nodes
    binders = [b for c in sh.children for b in c.binds]
    assert all(hints[b] is str for b in binders)
    rest = [n for n in names if n not in nodes and n not in binders]
    assert sorted(rest) == sorted(sh.data + sh.ignore)
    assert not set(sh.data) & set(sh.ignore)


def _probe() -> type:
    # A new class each time: shape makes the class it is given a dataclass.
    class Probe(CoTerm):
        rest: CoTerm
        other: object = None

    return Probe


def test_a_template_must_print_each_field_once():
    declare = kernel.shape(kernel.Child("rest"), syntax="probe{other!t} {rest!a}")
    assert pretty(declare(_probe())(CoVar("a"))) == "probe a"
    for syntax in ("probe {rest!a} {rest!a}", "probe {rest}", "probe {other} {rest} {nope}"):
        with pytest.raises(TypeError, match="template"):
            kernel.shape(kernel.Child("rest"), syntax=syntax)(_probe())


def test_a_child_entry_must_name_a_child_field():
    with pytest.raises(TypeError, match="Probe has no child field other"):
        kernel.shape(kernel.Child("other", "x"), syntax="probe{other!t} {rest!a}")(_probe())


def test_a_node_field_without_an_entry_is_a_child():
    cls = kernel.shape(syntax="probe{other!t} {rest!a}")(_probe())
    sh = cls._shape
    assert [(c.field, c.label, c.binds) for c in sh.children] == [("rest", "rest", ())]
    assert sh.data == ("other",) and sh.ignore == ()
    assert dataclasses.is_dataclass(cls) and cls.__slots__ == ("rest", "other")
    node = cls(Call(Var("x"), CoVar("a")))
    assert node.free_vars == {"x"} and node.free_covars == {"a"}
    assert pretty(node) == "probe (x . a)"


def test_every_node_class_is_checked_for_its_shape():
    names = {cls.__name__ for cls in _node_classes()}
    assert len(names) == 26 and {"Command", "RecNum", "CoRec", "App", "RecTerm", "Ref"} <= names


# ---------------------------------------------------------------------------
# Printing and round trips


def test_pretty_examples():
    assert pretty(Zero()) == "Z"
    assert pretty(numeral(2)) == "2"
    assert pretty(Command(Zero(), CoVar("a0"))) == "<Z | a0>"


def test_pretty_succ_of_non_numeral():
    assert pretty(Succ(Var("x"))) == "S x"
    assert pretty(Succ(Succ(Succ(Var("x"))))) == "S (S (S x))"
    assert pretty(Call(Succ(Succ(Var("x"))), CoVar("a"))) == "(S (S x)) . a"
    assert pretty(Call(numeral(3), CoVar("a"))) == "3 . a"


def test_pretty_front_end_children_follow_the_atom_rule():
    ref, lit = parser.Ref("plus"), parser.NumLit(3)
    assert pretty(Call(ref, CoVar("a0"))) == "plus . a0"
    assert pretty(Succ(lit)) == "S 3"
    app = App(App(ref, lit), Succ(Var("x")))
    assert pretty(app) == "plus 3 (S x)"
    assert pretty(App(Succ(Var("f")), app)) == "(S f) (plus 3 (S x))"


def test_pretty_rejects_what_has_no_shape():
    with pytest.raises(ValueError, match="no printer for Nat"):
        pretty(Nat())


DEEP = 100000


def _tower(make, base, n=DEEP):
    for _ in range(n):
        base = make(base)
    return base


@pytest.mark.parametrize(
    "make,base,text",
    [
        (Succ, Var("x"), "S (" * (DEEP - 1) + "S x" + ")" * (DEEP - 1)),
        (Succ, Zero(), str(DEEP)),
        (Tail, Head(CoVar("a")), "tail (" * DEEP + "head a" + ")" * DEEP),
        (NumSucc, NumZero(Var("x")), "numS (" * DEEP + "numZ x" + ")" * DEEP),
    ],
    ids=["succ-var", "numeral", "tail", "numsucc"],
)
def test_pretty_of_deep_towers(make, base, text):
    # Under Python's default recursion limit: the printer keeps its own stack.
    assert pretty(_tower(make, base)) == text


def test_type_round_trips():
    for text in ["Nat", "Stream Nat", "Nat -> Nat -> Nat", "(Nat -> Nat) -> Nat",
                 "Nat * Nat + Nat", "Num (Stream Nat)", "Stream (Nat * Nat)",
                 "Nat + Nat * Nat", "Num Nat -> Stream Nat",
                 "Nat -> Nat + Nat * Nat -> Nat", "(Nat + Nat) * Nat", "Stream (Nat -> Nat)",
                 "Nat + (Nat + Nat)", "Nat * (Nat * Nat) + Nat", "(Nat -> Nat) * Num (Nat + Nat)"]:
        t = parse_type(text)
        assert parse_type(type_str(t)) == t
    # Printing puts parentheses exactly where precedence and associativity need them.
    for text in ["Nat -> Nat + Nat * Nat -> Nat", "(Nat + Nat) * Nat", "Stream (Nat -> Nat)",
                 "Nat + (Nat + Nat)", "Nat * (Nat * Nat) + Nat", "(Nat -> Nat) -> Nat"]:
        assert type_str(parse_type(text)) == text


ROUND_TRIP_TERMS = [
    "Z",
    "5",
    "S (S x)",
    "fun x : Nat => x",
    "mu a : Nat. <Z | a>",
    "mu a. <x | rec { Z -> y | S _ -> z. S z } with a>",
    "corec : Nat { head a -> a | tail _ -> g. g } with x",
    "corec : Nat { head a -> a | tail b -> _. comu _ : Nat. <s | b> } with x",
    "pair(Z, S Z)",
    "inl : Nat Z",
    "inr : Stream Nat (numZ x)",
    "numS (numZ x)",
]

ROUND_TRIP_COTERMS = [
    "a0",
    "2 . 3 . a0",
    "head (tail a0)",
    "comu x : Nat. <x | a0>",
    "rec { Z -> Z | S x -> z. x } with a0",
    "rec : Nat { Z p -> p | S y -> z. z } with a0",
    "fst : Nat a0",
    "snd : Nat (head a0)",
    "case[a0, head a1]",
    "(fun x : Nat => x) . a0",
]


@pytest.mark.parametrize("text", ROUND_TRIP_TERMS)
def test_term_round_trip(text):
    t = parse_term(text)
    assert alpha_eq(parse_term(pretty(t)), t)


@pytest.mark.parametrize("text", ROUND_TRIP_COTERMS)
def test_coterm_round_trip(text):
    e = parse_coterm(text)
    assert alpha_eq(parse_coterm(pretty(e)), e)


def test_command_round_trip():
    c = parse_command("<mu a. <Z | a> | comu x. <x | a0>>")
    assert alpha_eq(parse_command(pretty(c)), c)


def test_as_numeral():
    assert as_numeral(numeral(7)) == 7
    assert as_numeral(Succ(Var("x"))) is None


def test_round_trip_and_cbn_values_on_generated_commands():
    cmds = []
    tg = TypedGen(7)
    cmds += [tg.command(depth=4) for _ in range(40)]
    dg = DualGen(8)
    cmds += [dg.command(depth=3)[0] for _ in range(40)]
    for c in cmds:
        assert alpha_eq(parse_command(pretty(c)), c)
        assert is_value(c.producer, CBN)
        assert is_covalue(c.consumer, CBV)


# ---------------------------------------------------------------------------
# Nodes as records: equality, hashing, printing, immutability


def test_deep_numerals_compare_hash_and_print_within_the_recursion_limit():
    # Two numerals built apart, under Python's default recursion limit.
    a, b = numeral(DEEP), numeral(DEEP)
    assert a == b and hash(a) == hash(b)
    assert a != numeral(DEEP - 1) and a != _tower(Succ, Var("x"))
    assert repr(a) == "Succ(arg=" * DEEP + "Zero()" + ")" * DEEP


def test_equal_nodes_hash_alike():
    gen, again = TypedGen(41), TypedGen(41)
    cmds = []
    for _ in range(150):
        c, d = gen.command(depth=4), again.command(depth=4)
        assert c is not d
        for e in (d, copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert e == c and hash(e) == hash(c)
        cmds.append(c)
    assert len(set(cmds)) == len({repr(c) for c in cmds}) > 100


@pytest.mark.parametrize("node", one_of_each(), ids=lambda n: type(n).__name__)
def test_nodes_are_immutable(node):
    for name in (*node._shape.names, "free_vars", "free_covars"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    again = dataclasses.replace(node)
    assert again == node and again is not node
    assert (again.free_vars, again.free_covars) == (node.free_vars, node.free_covars)


def test_replace_caches_sets_and_bit_again():
    def cached(n):
        return n.free_vars, n.free_covars

    replace = dataclasses.replace
    assert cached(replace(MU0, body=Command(Var("y"), CoVar("b")))) == ({"y"}, {"b"})
    assert cached(replace(Succ(Zero()), arg=MU0)) == (set(), set())
    assert cached(replace(Pair(Zero(), Zero()), right=Var("z"))) == ({"z"}, set())
    assert cached(replace(Tail(CoVar("a")), rest=MT0)) == (set(), {"a"})
    rec = RecNat(Zero(), "p", "r", Var("r"), CoVar("k"))
    assert cached(replace(rec, succ_body=Var("q"), ret=MT0)) == ({"q"}, {"a"})
    assert cached(replace(Var("x"), name="y")) == ({"y"}, set())
    assert cached(replace(CoVar("a"), name="b")) == (set(), {"b"})


def test_a_node_class_without_a_shape_cannot_be_built():
    class Bare(Term):
        __slots__ = ()

    with pytest.raises(TypeError, match="Bare declares no shape"):
        Bare()
