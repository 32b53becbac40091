"""Cached value/covalue bits against a walking reference classifier.

``kernel.is_value`` and ``kernel.is_covalue`` read a bit that each node
fixes when it is built.  The reference below classifies by walking the
subtree, as the definitions in the paper's grammar read; the tests check
that both give the same answer, or the same error, on every node the
generators, the parser and the machine produce.
"""

import copy
import dataclasses
import pickle
from pathlib import Path

import pytest

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
    Zero,
    is_covalue,
    is_value,
    well_formed,
)
from duality_vm.parser import App, NumLit, Ref, parse
from duality_vm.surface import prelude
from duality_vm.typechecker import EMPTY_ENV

PROGRAMS = Path(__file__).resolve().parents[1] / "programs"
MU0 = Mu("a", Command(Zero(), CoVar("a")))
MT0 = MuTilde("x", Command(Var("x"), CoVar("a")))
APP = App(Var("f"), Zero())

# ---------------------------------------------------------------------------
# Reference classifier: walks the subtree on every call.


def ref_is_value(t, s):
    if s is CBN:
        if not isinstance(t, Term):
            raise ValueError(f"not a term: {t!r}")
        return True
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
            case Mu():
                return False
            case _:
                raise ValueError(f"not a term: {t!r}")


def ref_is_covalue(e, s):
    if s is CBV:
        if not isinstance(e, CoTerm):
            raise ValueError(f"not a coterm: {e!r}")
        return True
    while True:
        match e:
            case CoVar() | SumCase():
                return True
            case MuTilde():
                return False
            case Call(_, rest):
                e = rest
            case RecNat(ret=ret) | RecNum(ret=ret):
                e = ret
            case Head(rest) | Tail(rest) | Fst(rest) | Snd(rest):
                e = rest
            case _:
                raise ValueError(f"not a coterm: {e!r}")


def _outcome(classify, node, s):
    try:
        return classify(node, s)
    except ValueError as ex:
        return ("error", str(ex))


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


def assert_bits_agree(root, seen: set[int] | None = None) -> int:
    """Compare cached and walked classification on every node under root,
    in both strategies and on both sides; return how many nodes.  Nodes
    whose id is in seen are skipped (the caller keeps them alive)."""

    nodes = _nodes(root, set() if seen is None else seen)
    for n in nodes:
        for s in (CBV, CBN):
            assert _outcome(is_value, n, s) == _outcome(ref_is_value, n, s), (n, s)
            assert _outcome(is_covalue, n, s) == _outcome(ref_is_covalue, n, s), (n, s)
    return len(nodes)


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


def test_bits_are_not_dataclass_fields():
    classes = _node_classes()
    assert {App, NumLit, Command, Succ, Tail, CoRec} <= set(classes)
    for cls in classes:
        names = {f.name for f in dataclasses.fields(cls)}
        assert not names & {"cbv_value", "cbn_covalue"}, cls
    t = Succ(Pair(Zero(), Var("x")))
    assert repr(t) == "Succ(arg=Pair(left=Zero(), right=Var(name='x')))"
    assert t == Succ(Pair(Zero(), Var("x"))) and hash(t) == hash(Succ(Pair(Zero(), Var("x"))))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n))])
def test_copies_keep_cached_sets_and_bits(clone):
    for n in [Succ(Pair(MU0, Var("x"))), Tail(Call(Var("y"), MT0)), App(Ref("f"), NumLit(2))]:
        c = clone(n)
        assert c == n and (c.free_vars, c.free_covars) == (n.free_vars, n.free_covars)
        assert (c.cbv_value, c.cbn_covalue) == (n.cbv_value, n.cbn_covalue)


def test_bits_agree_on_generated_commands():
    from generators import DualGen, TypedGen

    tg, dg = TypedGen(11), DualGen(12)
    cmds = [tg.command(depth=4) for _ in range(60)] + [dg.command(depth=3)[0] for _ in range(60)]
    assert sum(assert_bits_agree(c) for c in cmds) > 1000


@pytest.mark.parametrize(
    "node",
    [
        Succ(APP),
        Pair(Zero(), NumLit(3)),
        Pair(MU0, APP),
        Pair(APP, MU0),
        Pair(Pair(Zero(), APP), Zero()),
        InL(NumSucc(NumZero(APP))),
        CoRec("h", CoVar("h"), "t", "g", CoVar("g"), Succ(NumLit(2))),
        Tail(Var("x")),
        Call(APP, Head(Succ(Zero()))),
        RecNat(Zero(), "x", "y", Var("y"), Fst(MT0)),
        Command(Zero(), CoVar("a")),
        Succ(Command(Zero(), CoVar("a"))),
        None,
    ],
)
def test_errors_agree_on_unclassified_nodes(node):
    for s in (CBV, CBN):
        assert _outcome(is_value, node, s) == _outcome(ref_is_value, node, s)
        assert _outcome(is_covalue, node, s) == _outcome(ref_is_covalue, node, s)


def test_bits_agree_on_parsed_programs():
    progs = [prelude()] + [parse(p.read_text()) for p in sorted(PROGRAMS.glob("*.ct"))]
    total = 0
    for prog in progs:
        for d in prog.defs.values():
            total += assert_bits_agree(d.body)
        if prog.main is not None:
            total += assert_bits_agree(prog.main)
    assert total > 500


def _apply(name: str, *args) -> Term:
    t = Ref(name)
    for a in args:
        t = App(t, NumLit(a) if isinstance(a, int) else Ref(a))
    return t


@pytest.mark.parametrize("s", [CBV, CBN], ids=str)
def test_bits_agree_on_every_machine_state(s, compilers, monkeypatch):
    """Every command step() is handed, forcing restarts included, so nodes
    built by substitution and by the recursor/corecursor rules are covered."""

    comp = compilers[s]
    states = []
    real_step = machine.step

    def recording_step(c, strat):
        states.append(c)
        return real_step(c, strat)

    monkeypatch.setattr(machine, "step", recording_step)
    compiled = lambda t: comp.term(EMPTY_ENV, t, None, "t")[1]
    nums = [_apply("plus", 2, 3), _apply("times", 2, 2), _apply("pred", 3), _apply("fact", 3)]
    for t in nums:
        machine.run_to_numeral(Command(compiled(t), CoVar("a0")), s)
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
    assert len(states) > 500
    seen: set[int] = set()
    assert sum(assert_bits_agree(c, seen) for c in states) > 2000


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
    assert _unless_overflow(is_value, bad, CBV) is False
    assert is_value(t, CBN) and is_value(bad, CBN)
    assert _unless_overflow(well_formed, Command(t, CoVar("a")), CBV) == []
    assert _unless_overflow(well_formed, Command(bad, CoVar("a")), CBN) == []


def test_deep_call_tail_tower_classifies_and_checks():
    e, bad = CoVar("a"), MT0
    for i in range(DEEP):
        e, bad = (Call(Zero(), e), Call(Zero(), bad)) if i % 2 else (Tail(e), Tail(bad))
    assert _unless_overflow(is_covalue, e, CBN) is True
    assert _unless_overflow(is_covalue, bad, CBN) is False
    assert is_covalue(e, CBV) and is_covalue(bad, CBV)
    assert _unless_overflow(well_formed, Command(Var("x"), e), CBN) == []
    assert _unless_overflow(well_formed, Command(Var("x"), bad), CBV) == []
