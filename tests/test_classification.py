"""Value/covalue class tests against a walking reference classifier.

``kernel.is_value`` and ``kernel.is_covalue`` test a node's class: a
grammar node of its sort, of any class but the one its strategy refuses.
The reference below classifies by walking the subtree, as the definitions
in the paper's grammar read, and answers False on anything outside the
grammar.  On a well-formed tree the two agree; the tests check that on
every well-formed node the generators, the parser and the machine
produce, and that ``kernel.well_formed`` accepts exactly the trees a
reference grammar built on the walking classifier accepts.  Outside the
grammar the class test answers by the root's class alone, and
``well_formed`` names the node at fault.
"""

import copy
import dataclasses
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from duality_vm import machine
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
    Node,
    NumSucc,
    NumZero,
    Pair,
    RecNat,
    RecNum,
    Snd,
    Succ,
    SumCase,
    Tail,
    Term,
    Var,
    Violation,
    Zero,
    fresh_name,
    is_covalue,
    is_value,
    well_formed,
)
from duality_vm.parser import App, NumLit, Ref, parse
from duality_vm.surface import prelude
from duality_vm.typechecker import EMPTY_ENV
from test_kernel import _any_trees

PROGRAMS = Path(__file__).resolve().parents[1] / "programs"
MU0 = Mu("a", Command(Zero(), CoVar("a")))
MT0 = MuTilde("x", Command(Var("x"), CoVar("a")))
APP = App(Var("f"), Zero())

# ---------------------------------------------------------------------------
# Reference classifier: walks the subtree on every call.


def ref_is_value(t, s):
    if s is CBN:
        return isinstance(t, Term)
    while True:
        match t:
            case Var() | Lam() | Zero():
                return True
            case Succ(arg) | NumZero(arg) | NumSucc(arg) | InL(arg) | InR(arg):
                t = arg
            case Pair(left, right):
                if not ref_is_value(left, s):
                    return False
                t = right
            case CoRec():
                t = t.seed
            case _:  # a mu, or anything outside the grammar
                return False


def ref_is_covalue(e, s):
    if s is CBV:
        return isinstance(e, CoTerm)
    while True:
        match e:
            case CoVar() | SumCase():
                return True
            case Call(_, rest):
                e = rest
            case RecNat(ret=ret) | RecNum(ret=ret):
                e = ret
            case Head(rest) | Tail(rest) | Fst(rest) | Snd(rest):
                e = rest
            case _:  # a comu, or anything outside the grammar
                return False


# The grammar as the paper writes it: the classes of each sort, and the
# children each class demands be a value, or a covalue.
_SORT_CLASSES = {
    "Term": {Var, Mu, Lam, Zero, Succ, NumZero, NumSucc, Pair, InL, InR, CoRec},
    "CoTerm": {CoVar, MuTilde, Call, RecNat, RecNum, Head, Tail, Fst, Snd, SumCase},
    "Command": {Command},
}
_VALUE_DEMANDS = {Succ: ("arg",), NumZero: ("arg",), NumSucc: ("arg",), InL: ("arg",), InR: ("arg",),
                  Pair: ("left", "right"), CoRec: ("seed",), Call: ("arg",)}
_COVALUE_DEMANDS = {Call: ("rest",), RecNat: ("ret",), RecNum: ("ret",), Head: ("rest",), Tail: ("rest",),
                    Fst: ("rest",), Snd: ("rest",)}


def ref_accepts(root, s, memo: dict | None = None) -> bool:
    """Whether root is in s's grammar: each node of a grammar class, each
    child of a class of its field's sort, and each child its parent's
    class demands be a value (covalue) one by ``ref_is_value``
    (``ref_is_covalue``).  memo maps the id of each node judged to its
    answer; the caller keeps the nodes alive."""

    memo = {} if memo is None else memo
    todo = [root]
    while todo:
        n = todo[-1]
        if id(n) in memo:
            todo.pop()
            continue
        cls = type(n)
        if not any(cls in classes for classes in _SORT_CLASSES.values()):
            memo[id(n)] = False
            todo.pop()
            continue
        kids = [(c.sort, getattr(n, c.field)) for c in cls._shape.children]
        missing = [k for _, k in kids if id(k) not in memo]
        if missing:
            todo += missing
            continue
        todo.pop()
        memo[id(n)] = (
            all(type(k) in _SORT_CLASSES[sort] and memo[id(k)] for sort, k in kids)
            and all(ref_is_value(getattr(n, f), s) for f in _VALUE_DEMANDS.get(cls, ()))
            and all(ref_is_covalue(getattr(n, f), s) for f in _COVALUE_DEMANDS.get(cls, ()))
        )
    return memo[id(root)]


def _nodes(root, seen: set[int]):
    """Every node reachable from root and not yet in seen, iteratively."""

    out, todo = [], [root]
    while todo:
        n = todo.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        out.append(n)
        for f in dataclasses.fields(n):
            child = getattr(n, f.name)
            if isinstance(child, Node):
                todo.append(child)
    return out


def assert_class_tests_agree(root, seen: set[int] | None = None) -> int:
    """Compare the class test with walked classification on every node
    under root that is well formed in a strategy, in that strategy and on
    both sides; return how many nodes were compared.  Nodes whose id is in
    seen are skipped (the caller keeps them alive)."""

    nodes = _nodes(root, set() if seen is None else seen)
    compared = set()
    for s in (CBV, CBN):
        memo: dict = {}
        for n in nodes:
            if ref_accepts(n, s, memo):
                compared.add(id(n))
                assert is_value(n, s) is ref_is_value(n, s), (n, s)
                assert is_covalue(n, s) is ref_is_covalue(n, s), (n, s)
    return len(compared)


def _node_classes():
    out, todo = [], [Node]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if dataclasses.is_dataclass(cls):
            out.append(cls)
    return out


# ---------------------------------------------------------------------------
# Oracle tests


def test_repr_equality_and_hash_read_the_fields():
    t = Succ(Pair(Zero(), Var("x")))
    assert repr(t) == "Succ(arg=Pair(left=Zero(), right=Var(name='x')))"
    assert t == Succ(Pair(Zero(), Var("x"))) and hash(t) == hash(Succ(Pair(Zero(), Var("x"))))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n))])
def test_copies_keep_cached_sets_and_classification(clone):
    from generators import one_of_each

    nodes = one_of_each()
    assert {type(n) for n in nodes} == {cls for cls in _node_classes() if "_shape" in vars(cls)}
    for n in nodes + [Succ(Pair(MU0, Var("x"))), Tail(Call(Var("y"), MT0)), App(Ref("f"), NumLit(2))]:
        c = clone(n)
        assert c == n and hash(c) == hash(n) and repr(c) == repr(n)
        assert (c.free_vars, c.free_covars) == (n.free_vars, n.free_covars)
        for s in (CBV, CBN):
            assert (is_value(c, s), is_covalue(c, s)) == (is_value(n, s), is_covalue(n, s))
            if ref_accepts(n, s):
                assert (is_value(c, s), is_covalue(c, s)) == (ref_is_value(n, s), ref_is_covalue(n, s))


def test_class_tests_agree_on_generated_commands():
    from generators import DualGen, TypedGen

    tg, dg = TypedGen(11), DualGen(12)
    cmds = [tg.command(depth=4) for _ in range(60)] + [dg.command(depth=3)[0] for _ in range(60)]
    assert sum(assert_class_tests_agree(c) for c in cmds) > 1000


# Outside the grammar the root's class answers: each root below is a grammar
# term (coterm) but no mu or comu, so a value (covalue) under both
# strategies, however ill-formed below; a command or None is neither.
@pytest.mark.parametrize(
    "node,sort",
    [
        (Succ(APP), Term),
        (Pair(Zero(), NumLit(3)), Term),
        (Pair(MU0, APP), Term),
        (Pair(APP, MU0), Term),
        (Pair(Pair(Zero(), APP), Zero()), Term),
        (InL(NumSucc(NumZero(APP))), Term),
        (CoRec("h", CoVar("h"), "t", "g", CoVar("g"), Succ(NumLit(2))), Term),
        (Tail(Var("x")), CoTerm),
        (Call(APP, Head(Succ(Zero()))), CoTerm),
        (RecNat(Zero(), "x", "y", Var("y"), Fst(MT0)), CoTerm),
        (Command(Zero(), CoVar("a")), None),
        (Succ(Command(Zero(), CoVar("a"))), Term),
        (None, None),
    ],
)
def test_answers_agree_outside_the_grammar(node, sort):
    for s in (CBV, CBN):
        assert is_value(node, s) is (sort is Term)
        assert is_covalue(node, s) is (sort is CoTerm)


# The classifiers answer by the root's class and name nothing; the node at
# fault is named by well_formed, under both strategies, once the node is
# cut in its sort's place.
@pytest.mark.parametrize(
    "node,path,message",
    [
        (Succ(APP), "command.producer.arg", "unknown node App"),
        (Pair(Zero(), NumLit(3)), "command.producer.right", "unknown node NumLit"),
        (Pair(MU0, APP), "command.producer.right", "unknown node App"),
        (Pair(APP, MU0), "command.producer.left", "unknown node App"),
        (Pair(Pair(Zero(), APP), Zero()), "command.producer.left.right", "unknown node App"),
        (InL(NumSucc(NumZero(APP))), "command.producer.arg.arg.arg", "unknown node App"),
        (CoRec("h", CoVar("h"), "t", "g", CoVar("g"), Succ(NumLit(2))), "command.producer.seed.arg", "unknown node NumLit"),
        (Tail(Var("x")), "command.consumer.rest", "Var is not a coterm"),
        (Call(APP, Head(Succ(Zero()))), "command.consumer.rest.rest", "Succ is not a coterm"),
        (Command(Zero(), CoVar("a")), "command.producer", "Command is not a term"),
        (Succ(Command(Zero(), CoVar("a"))), "command.producer.arg", "Command is not a term"),
    ],
)
def test_well_formed_names_the_node_outside_the_grammar(node, path, message):
    cut = Command(Var("x"), node) if isinstance(node, CoTerm) else Command(node, CoVar("a"))
    assert is_value(node, CBV) is isinstance(node, Term) and is_covalue(node, CBN) is isinstance(node, CoTerm)
    for s in (CBV, CBN):
        assert (path, message) in [(v.path, v.message) for v in well_formed(cut, s)], s


def test_class_tests_agree_on_parsed_programs(compilers):
    # Parsed programs are mostly front-end nodes, outside the grammar; the
    # prelude's definitions are compared as compiled too.
    progs = [prelude()] + [parse(p.read_text()) for p in sorted(PROGRAMS.glob("*.ct"))]
    total = 0
    for prog in progs:
        for d in prog.defs.values():
            total += assert_class_tests_agree(d.body)
        if prog.main is not None:
            total += assert_class_tests_agree(prog.main)
    for comp in compilers.values():
        for _, body in comp.check_program()[0].values():
            total += assert_class_tests_agree(body)
    assert total > 500


def _apply(name: str, *args) -> Term:
    t = Ref(name)
    for a in args:
        t = App(t, NumLit(a) if isinstance(a, int) else Ref(a))
    return t


def _stepped_states(c: Command, s) -> list[Command]:
    """Every state machine.step reads back from c to a final state, then,
    as forcing does, from each suspended successor argument of the answer
    run against a fresh covariable."""

    out = []
    while True:
        out.append(c)
        o = machine.step(c, s)
        if isinstance(o, machine.Stepped):
            c = o.next
            continue
        assert isinstance(o, machine.Final), o
        t = c.producer
        while isinstance(t, Succ):
            t = t.arg
        if not isinstance(t, Mu):
            return out
        c = Command(t, CoVar(fresh_name(t.free_covars, "a0")))


def _run_prelude(comp, s) -> list[Command]:
    """Run the prelude's number programs to numerals and observe its streams
    at a few depths under s; return every state machine.step reads back on
    the same programs, so nodes built by the recursor/corecursor rules and
    by read-back are covered."""

    compiled = lambda t: comp.term(EMPTY_ENV, t, None, "t")[1]
    states = []
    for t in [_apply("plus", 2, 3), _apply("times", 2, 2), _apply("pred", 3), _apply("fact", 3)]:
        cmd = Command(compiled(t), CoVar("a0"))
        machine.run_to_numeral(cmd, s)
        states += _stepped_states(cmd, s)
    streams = [
        _apply("nats"),
        _apply("zeroes"),
        _apply("repeat", "succ", 2),
        _apply("countDown", 3),
        _apply("countDown2", 2),
        _apply("scons", 7, "nats"),
        _apply("countNow", 3),
    ]
    for t in streams:
        for depth in (0, 2, 3):
            machine.observe_stream(compiled(t), depth, s)
            states += _stepped_states(Command(compiled(t), machine.tails(depth, Head(CoVar("a0")))), s)
    return states


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_class_tests_agree_on_every_machine_state(s, compilers, monkeypatch):
    """The codes of every state the machine runs through, forcing restarts
    included, and every state machine.step reads back on the same
    programs."""

    codes = []
    real = machine._step
    monkeypatch.setattr(machine, "_step", lambda p, e, strat: codes.extend((p[0], e[0])) or real(p, e, strat))
    states = _run_prelude(compilers[s], s)
    assert len(states) > 500 and codes
    seen: set[int] = set()
    assert sum(assert_class_tests_agree(c, seen) for c in [*codes, *states]) > 2000


def _at(root, path: str):
    """The node a well_formed path names under root."""

    node = root
    for label in path.split(".")[1:]:
        node = getattr(node, next(c.field for c in type(node)._shape.children if c.label == label))
    return node


@settings(max_examples=300, deadline=None)
@given(st.deferred(_any_trees))
def test_well_formed_is_the_reference_grammar(tree):
    # well_formed's demands test one class, the one the strategy refuses;
    # the reference walks the classifier below each demanded child.  They
    # accept the same trees, and each value (covalue) violation sits on a
    # node of the refused class.
    for s in (CBV, CBN):
        bad = well_formed(tree, s)
        assert (bad == []) is (type(tree) is Command and ref_accepts(tree, s))
        for v in bad:
            if v.message.endswith((f"must be a {s.value} value", f"must be a {s.value} covalue")):
                assert type(_at(tree, v.path)) is s.refuses, v


# ---------------------------------------------------------------------------
# Depth: deeper than the suite's recursion limit, built iteratively.

DEEP = 40500


def _unless_overflow(f, *args):
    """f(*args), or the string "RecursionError" if it overflowed the stack.
    The error is not left to propagate: rendering a traceback whose frames
    hold towers this deep overflows the stack again."""

    try:
        return f(*args)
    except RecursionError:
        return "RecursionError"


def test_deep_left_nested_pair_tower_classifies_and_checks():
    t, bad = Zero(), MU0
    for _ in range(DEEP):
        t, bad = Pair(t, Zero()), Pair(bad, Zero())
    assert _unless_overflow(is_value, t, CBV) is True
    assert is_value(t, CBN) and is_value(bad, CBN)
    assert _unless_overflow(well_formed, Command(t, CoVar("a")), CBV) == []
    assert _unless_overflow(well_formed, Command(bad, CoVar("a")), CBN) == []
    # Under CBV only the mu at the bottom is named, not every pair over it.
    assert _unless_overflow(well_formed, Command(bad, CoVar("a")), CBV) == [
        Violation("command.producer" + ".left" * DEEP, "pair component must be a cbv value")
    ]


def test_deep_call_tail_tower_classifies_and_checks():
    e, bad = CoVar("a"), MT0
    for i in range(DEEP):
        e, bad = (Call(Zero(), e), Call(Zero(), bad)) if i % 2 else (Tail(e), Tail(bad))
    assert _unless_overflow(is_covalue, e, CBN) is True
    assert is_covalue(e, CBV) and is_covalue(bad, CBV)
    assert _unless_overflow(well_formed, Command(Var("x"), e), CBN) == []
    assert _unless_overflow(well_formed, Command(Var("x"), bad), CBV) == []
    # Under CBN only the comu at the bottom is named, not every tail over it.
    assert _unless_overflow(well_formed, Command(Var("x"), bad), CBN) == [
        Violation("command.consumer" + ".rest" * DEEP, "destructor tail must be a cbn covalue")
    ]
