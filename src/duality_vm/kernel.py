"""Machine-language syntax trees and the operations every other layer leans on.

A machine state is a command ``< producer | consumer >`` cutting a term
against a coterm (continuation).  The same syntax serves both evaluation
strategies; what changes between call-by-value and call-by-name is which
terms count as substitutable values and which coterms count as covalues.
A strategy is the one node class it will not bind to a name, named once
on ``Strategy``: call-by-value a mu, call-by-name a comu, the two sides of
the mu/comu critical pair.  Everything else (substitution,
alpha-equivalence, printing) is strategy-free.

On a well-formed tree the refused class is the only non-value (or
non-covalue): the grammar demands a value of every constructor argument
and corecursor seed, and a covalue of every destructor tail and recursor
return, so under call-by-value a term that is no mu has values all the
way down, and dually under call-by-name.  ``is_value`` and ``is_covalue``
are therefore one class test each: O(1), never raising, and answering by
the root's class, while ``well_formed`` alone judges the tree below it.

Every node caches its free variable and free covariable sets at
construction time, which lets substitution skip untouched subtrees in
O(1).  The cached sets are slots, not dataclass fields: equality,
hashing, printing and ``dataclasses.replace`` ignore them.
Nodes and types are immutable ``Record``s, compared, hashed and printed
field by field on an explicit stack; rewriting shares unchanged children.

Each node class is declared once, by its fields and its ``@shape``, which
makes it a bare slotted dataclass (for ``fields``, ``replace`` and
``__match_args__``) and generates its ``__init__``, which caches the free
sets.  Its children are its fields of sort ``Term``, ``CoTerm`` or
``Command``.  The shape adds only what the fields do not say: per child,
its step in a ``well_formed`` path, the binder fields in scope in it and
what the grammar demands of it (a value or a covalue); per class, which side its binders are on, which fields
alpha-equivalence ignores, and its concrete syntax as a template, with
whether it prints as an atom.  The cached sets, substitution,
alpha-equivalence, the grammar check, the compiler's staging and the
printer are all derived from the shapes, in the manner of Curien and
Herbelin's "The duality of computation", where substitution and
alpha-equivalence are defined once over binders.  The duality reads the
same shapes (``duality.py``); it and substitution are one rule each over
``rebuild``.  No walk of a term recurses on depth.  The parser reads each
template that starts with a keyword forward, and reserves each word a
template spells (``parser.py``), so concrete syntax is declared once.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter
from string import Formatter
from typing import NamedTuple


# ---------------------------------------------------------------------------
# Immutable records


class Record:
    """Base of types and nodes: immutable, and equal, hashed and printed
    (as a dataclass would) by the fields in ``__match_args__``, each walk
    on an explicit stack, so depth costs no Python frames."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies are rebuilt through __init__, so nodes cache their sets again.
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            for f in a.__match_args__:
                x, y = getattr(a, f), getattr(b, f)
                if x is y:
                    continue
                if isinstance(x, Record) and type(x) is type(y):
                    todo.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        # Equal records print alike: their fields hold equal names, numbers and records.
        return hash(repr(self))

    def __repr__(self):
        out, todo = [], [self]
        while todo:
            r = todo.pop()
            if type(r) is str:
                out.append(r)
                continue
            out.append(type(r).__qualname__ + "(")
            todo.append(")")
            names = r.__match_args__
            for i in reversed(range(len(names))):
                x = getattr(r, names[i])
                todo += x if isinstance(x, Record) else repr(x), ", " * (i > 0) + names[i] + "="
        return "".join(out)


def _record(cls: type, lines: tuple[str, ...] = (), env: dict | None = None) -> type:
    """cls as a bare slotted dataclass (for ``fields``, ``replace`` and
    ``__match_args__``) with a generated ``__init__``: it writes each
    field's slot through the slot's own descriptor, past
    ``Record.__setattr__``, then runs ``lines``, which read the fields by
    name and the helpers in ``env`` (named with a leading underscore)."""

    if cls.__doc__ is None:  # else dataclass reads one off inspect.signature, at a cost
        cls.__doc__ = f"{cls.__name__}({', '.join(cls.__annotations__)})"
    cls = dataclass(init=False, repr=False, eq=False, slots=True)(cls)
    ns = dict(env or {})
    params, body = [], []
    for i, f in enumerate(fields(cls)):
        ns[f"_set{i}"] = vars(cls)[f.name].__set__
        ns[f"_default{i}"] = f.default
        params.append(f.name if f.default is MISSING else f"{f.name}=_default{i}")
        body.append(f"_set{i}(self, {f.name})")
    exec(f"def __init__({', '.join(['self', *params])}):\n " + "\n ".join([*body, *lines] or ["pass"]), ns)
    cls.__init__ = ns["__init__"]
    return cls


# ---------------------------------------------------------------------------
# Types of the object language


class TypeExpr(Record):
    """Base of object-language types; structural equality is the only one."""

    __slots__ = ()


@_record
class Nat(TypeExpr):
    pass


@_record
class Stream(TypeExpr):
    elem: TypeExpr


@_record
class Fn(TypeExpr):
    arg: TypeExpr
    ret: TypeExpr


@_record
class Prod(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@_record
class Sum(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@_record
class Numbered(TypeExpr):
    """Numbers carrying a payload; the exact syntactic dual of Stream."""

    payload: TypeExpr


# The type syntax, declared once for ``type_str`` and the parser: the binary
# constructors, loosest first, with their symbols and whether they associate
# to the right; and the types led by a word, whose arguments are atoms.
TYPE_INFIX = ((Fn, "->", True), (Sum, "+", False), (Prod, "*", False))
TYPE_WORDS = {"Nat": Nat, "Stream": Stream, "Num": Numbered}
_INFIX = {c: (level, op, right, c.__match_args__) for level, (c, op, right) in enumerate(TYPE_INFIX)}
_WORD = {c: (word, c.__match_args__) for word, c in TYPE_WORDS.items()}


def type_str(t: TypeExpr) -> str:
    """Concrete syntax of a type (parseable), as TYPE_INFIX and TYPE_WORDS declare it."""

    return _type_str(t, 0)


def _type_str(t: TypeExpr, level: int) -> str:
    cls = type(t)
    if cls in _WORD:
        text, args = _WORD[cls]
        for f in args:
            text = f"{text} {_type_str(getattr(t, f), len(TYPE_INFIX))}"
        return text
    if cls not in _INFIX:
        raise ValueError(f"unknown type node: {t!r}")
    own, op, right, (a, b) = _INFIX[cls]
    text = f"{_type_str(getattr(t, a), own + right)} {op} {_type_str(getattr(t, b), own + 1 - right)}"
    return f"({text})" if level > own else text


# ---------------------------------------------------------------------------
# Strategy


class Strategy(enum.Enum):
    CBV = "cbv"
    CBN = "cbn"

    # The one node class the strategy will not bind to a name, set below
    # with the node classes: Mu under call-by-value, MuTilde under
    # call-by-name.  On a well-formed tree it is the only non-value (CBV)
    # or non-covalue (CBN); every term is a call-by-name value, every
    # coterm a call-by-value covalue.
    refuses: type

    def __str__(self) -> str:
        return self.value


CBV = Strategy.CBV
CBN = Strategy.CBN


# ---------------------------------------------------------------------------
# Syntax nodes

EMPTY: frozenset[str] = frozenset()


class Node(Record):
    """Common base; each node caches its free (co)variable sets when it is
    built, as its class's shape derives them.  Node classes keep them in
    slots: a successor takes 56 bytes on 64-bit CPython 3.11, against 96
    for a dict-backed node."""

    __slots__ = ("free_vars", "free_covars")

    free_vars: frozenset[str]
    free_covars: frozenset[str]
    _shape: Shape

    def __init__(self, *args, **kwargs):
        # shape generates each node class's own __init__.
        raise TypeError(f"{type(self).__name__} declares no shape")


class Term(Node):
    __slots__ = ()


class CoTerm(Node):
    __slots__ = ()


class Child:
    """One child position of a node class: its field, its step in a
    ``well_formed`` path, the binder fields in scope in it, and what the
    strategy-indexed grammar demands of it, if anything: a value (a
    covalue), with the message that names the position.  Its ``shape``
    fills in ``sort``, the name of the field's declared sort."""

    __slots__ = ("field", "label", "binds", "value", "covalue", "sort")

    def __init__(self, field: str, label: str | None = None, *, binds: tuple[str, ...] = (),
                 value: str | None = None, covalue: str | None = None):
        self.field = field
        self.label = label or field
        self.binds = binds
        self.value = value
        self.covalue = covalue


class Shape:
    """What a node class is made of, declared once with ``shape``.

    Construction, substitution, alpha-equivalence and the grammar check
    all read it instead of matching on classes.
    ``children`` are the fields of sort ``Term``, ``CoTerm`` or ``Command``,
    in field order, and ``demands`` those the grammar demands a value or a
    covalue of; ``sorts`` maps each field to its declared sort's name.
    ``var_side`` tells whether the binders bind variables or covariables;
    ``ignore`` fields (filled in by elaboration, with no concrete syntax)
    are not compared by alpha-equivalence, ``data`` fields (the others but
    children and binders) are.  A shape outside the ``grammar`` is a
    front-end node: it caches free sets, the classifiers answer False on
    it, and the traversals reject it.  A child's value (covalue) demand
    fails only on the class its strategy refuses, so no node records
    whether it is a value.  ``text`` is the template as declared, which
    the parser reads; ``syntax`` is that template compiled for ``pretty``;
    ``atomic`` classes never need parentheses.
    """

    __slots__ = ("children", "demands", "var_side", "data", "ignore", "grammar", "names", "sorts", "kids",
                 "text", "syntax", "atomic")

    def __init__(self, cls: type, entries, side, ignore, grammar, syntax, atomic):
        # A declared sort is read by name, whether or not its module
        # postpones annotations.
        self.sorts = {f: getattr(t, "__name__", t) for f, t in cls.__annotations__.items()}
        self.names = names = tuple(self.sorts)
        given = {c.field: c for c in entries}
        self.children = children = tuple(given.pop(n, None) or Child(n) for n in names
                                         if self.sorts[n] in ("Term", "CoTerm", "Command"))
        if given:
            raise TypeError(f"{cls.__name__} has no child field {', '.join(given)}")
        for c in children:
            c.sort = self.sorts[c.field]
        self.demands = tuple(c for c in children if c.value or c.covalue)
        kids = {c.field for c in children}
        binders = {b for c in children for b in c.binds}
        self.var_side = side == "vars"
        self.data = tuple(n for n in names if n not in kids and n not in binders and n not in ignore)
        self.ignore = ignore
        self.grammar = grammar
        self.atomic = atomic
        self.text = syntax
        self.syntax = _template(syntax, names, kids, ignore)
        pos = names.index
        # (child index, its binder indices) in field order, for rebuilding.
        self.kids = tuple((pos(c.field), tuple(map(pos, c.binds))) for c in children)


def shape(*entries: Child, side: str | None = None, ignore: tuple[str, ...] = (), grammar: bool = True,
          syntax: str, atomic: bool = False):
    """Make a node class a bare slotted dataclass and declare its shape:
    the side its binders are on ("vars" or "covars"), the fields
    alpha-equivalence ignores and its print template; generate the
    ``__init__`` that writes the fields and caches free sets.  Equality, hashing, printing and immutability are
    ``Record``'s.

    The children are the fields of sort ``Term``, ``CoTerm`` or
    ``Command``; an entry is written only for a child with a label,
    binders or a grammar demand, and one naming no child is a
    ``TypeError``.  Every other field but the binders and the ignored ones
    is data.  A class with no children that declares a side is a name:
    its one field is free on that side.

    The template is literal text with a ``{field}`` slot per printed field
    (``{{`` and ``}}`` are braces).  It is read both ways: ``pretty``
    prints by it, and the parser reads by it each form whose template
    starts with a keyword, literal text as the tokens it spells.  A child
    slot prints the child whole and reads one of its field's declared sort
    (term, coterm or command); ``{f!a}`` prints it as an atom, in
    parentheses unless its class is ``atomic``, and reads an atom, except
    that a term atom slot followed by more template text reads a whole
    application, which that text delimits; ``{f!s}`` (an application's
    function) prints it bare if it is of the node's own class, else as an
    atom; ``{f!t}`` prints an optional type annotation as `` : T`` and
    reads one if ``:`` comes next.  Any other slot prints the field's
    value (a binder name, a number) and reads a binder name."""

    def declare(cls):
        sh = Shape(cls, entries, side, ignore, grammar, syntax, atomic)
        cls = _record(cls, _caching(sh, side), _CACHE_ENV)
        cls._shape = sh
        return cls

    return declare


def _template(text: str, names: tuple[str, ...], kids: set[str], ignore: tuple[str, ...]) -> tuple:
    """A print template as the printer's stack takes it, last piece first:
    (None, text) for literal text, else (conversion, field getter), where
    the conversion is "a", "s" or "t" as written, "w" for a child printed
    whole and "n" for any other field.  Each field but the ``ignore``d
    ones has exactly one slot."""

    out, slots = [], []
    for lit, field, _, conv in Formatter().parse(text):
        if lit:
            out.append((None, lit))
        if field is not None:
            slots.append(field)
            out.append((conv or ("w" if field in kids else "n"), attrgetter(field)))
    if sorted(slots) != sorted(n for n in names if n not in ignore):
        raise TypeError(f"template {text!r} must have one slot per field of {names} but {ignore}")
    return tuple(reversed(out))


# The slots' own setters: they write past Record.__setattr__.
_CACHE_ENV = {"_EMPTY": EMPTY, "_set_free_vars": Node.free_vars.__set__,
              "_set_free_covars": Node.free_covars.__set__}


def _caching(sh: Shape, side: str | None) -> tuple[str, ...]:
    """The lines of a node's ``__init__`` that cache what sh derives: a
    node's free names are its children's, less each child's binders on the
    shape's side (or its name, if it is one)."""

    lines = []
    for attr, mine in (("free_vars", "vars"), ("free_covars", "covars")):
        parts = [f"{c.field}.{attr}" + (f".difference(({', '.join(c.binds)},))" if c.binds and side == mine else "")
                 for c in sh.children] or [f"frozenset(({sh.names[0]},))" if side == mine else "_EMPTY"]
        lines.append(f"_{attr} = {parts[0]}")
        for part in parts[1:]:
            lines += [f"_x = {part}", f"if _x: _{attr} = _{attr} | _x if _{attr} else _x"]
        lines.append(f"_set_{attr}(self, _{attr})")
    return tuple(lines)


@shape(syntax="<{producer} | {consumer}>")
class Command(Node):
    producer: Term
    consumer: CoTerm


@shape(side="vars", syntax="{name}", atomic=True)
class Var(Term):
    name: str


@shape(Child("body", binds=("covar",)), side="covars", syntax="mu {covar}{annot!t}. {body}")
class Mu(Term):
    """Term binding its continuation, then running a command."""

    covar: str
    body: Command
    annot: TypeExpr | None = None


@shape(Child("body", binds=("var",)), side="vars", syntax="fun {var}{annot!t} => {body}")
class Lam(Term):
    var: str
    body: Term
    annot: TypeExpr | None = None


@shape(syntax="Z", atomic=True)
class Zero(Term):
    pass


# pretty prints a chain of successors in one walk, with this template on
# each one, unless the chain ends in Z and is a numeral.
@shape(Child("arg", value="successor argument"), syntax="S {arg!a}")
class Succ(Term):
    arg: Term


@shape(Child("arg", value="numbered-zero argument"), syntax="numZ {arg!a}")
class NumZero(Term):
    """Base constructor of Numbered: a payload labeled with 0."""

    arg: Term


@shape(Child("arg", value="numbered-successor argument"), syntax="numS {arg!a}")
class NumSucc(Term):
    arg: Term


@shape(Child("left", value="pair component"), Child("right", value="pair component"),
       syntax="pair({left}, {right})", atomic=True)
class Pair(Term):
    left: Term
    right: Term


@shape(Child("arg", value="injection argument"), syntax="inl{other!t} {arg!a}")
class InL(Term):
    arg: Term
    other: TypeExpr | None = None  # type of the absent right component


@shape(Child("arg", value="injection argument"), syntax="inr{other!t} {arg!a}")
class InR(Term):
    arg: Term
    other: TypeExpr | None = None  # type of the absent left component


@shape(
    Child("head_body", "head", binds=("head_covar",)),
    Child("tail_body", "tail", binds=("tail_covar", "tail_seed_covar")),
    Child("seed", value="corecursor seed"),
    side="covars",
    ignore=("seed_annot",),
    syntax="corec{elem_annot!t} {{ head {head_covar} -> {head_body}"
    " | tail {tail_covar} -> {tail_seed_covar}. {tail_body} }} with {seed!a}",
)
class CoRec(Term):
    """Stream corecursor: produces a stream by cases on head/tail demands.

    ``head_covar`` receives the element observer in the base branch;
    ``tail_covar`` lets the tail branch escape with a whole stream, while
    ``tail_seed_covar`` receives the updated seed for the next round.
    """

    head_covar: str
    head_body: CoTerm
    tail_covar: str
    tail_seed_covar: str
    tail_body: CoTerm
    seed: Term
    elem_annot: TypeExpr | None = None  # element type of the produced stream
    seed_annot: TypeExpr | None = None  # filled in by elaboration


@shape(side="covars", syntax="{name}", atomic=True)
class CoVar(CoTerm):
    name: str


@shape(Child("body", binds=("var",)), side="vars", syntax="comu {var}{annot!t}. {body}")
class MuTilde(CoTerm):
    """Coterm binding its input value, then running a command."""

    var: str
    body: Command
    annot: TypeExpr | None = None


@shape(Child("arg", value="call-stack argument"), Child("rest", covalue="call-stack tail"),
       syntax="{arg!a} . {rest}")
class Call(CoTerm):
    """Call stack: an argument pushed onto a continuation."""

    arg: Term
    rest: CoTerm


@shape(
    Child("zero_body", "zero"),
    Child("succ_body", "succ", binds=("pred_var", "result_var")),
    Child("ret", covalue="recursor return"),
    side="vars",
    ignore=("annot",),
    syntax="rec {{ Z -> {zero_body} | S {pred_var} -> {result_var}. {succ_body} }} with {ret}",
)
class RecNat(CoTerm):
    """Number recursor: consumes a Nat, threading a growing return continuation.

    The successor branch binds the predecessor (``pred_var``) and the
    recursive result for it (``result_var``).
    """

    zero_body: Term
    pred_var: str
    result_var: str
    succ_body: Term
    ret: CoTerm
    annot: TypeExpr | None = None  # result type; filled in by elaboration


@shape(
    Child("zero_body", "zero", binds=("payload_var",)),
    Child("succ_body", "succ", binds=("pred_var", "result_var")),
    Child("ret", covalue="recursor return"),
    side="vars",
    ignore=("annot",),
    syntax="rec{payload_annot!t} {{ Z {payload_var} -> {zero_body}"
    " | S {pred_var} -> {result_var}. {succ_body} }} with {ret}",
)
class RecNum(CoTerm):
    """Generalized recursor over Numbered: the zero branch binds the payload."""

    payload_var: str
    zero_body: Term
    pred_var: str
    result_var: str
    succ_body: Term
    ret: CoTerm
    payload_annot: TypeExpr | None = None  # payload type; needed for inference
    annot: TypeExpr | None = None  # result type; filled in by elaboration


@shape(Child("rest", covalue="destructor tail"), syntax="head {rest!a}")
class Head(CoTerm):
    rest: CoTerm


@shape(Child("rest", covalue="destructor tail"), syntax="tail {rest!a}")
class Tail(CoTerm):
    rest: CoTerm


@shape(Child("rest", covalue="destructor tail"), syntax="fst{other!t} {rest!a}")
class Fst(CoTerm):
    rest: CoTerm
    other: TypeExpr | None = None  # type of the absent right component


@shape(Child("rest", covalue="destructor tail"), syntax="snd{other!t} {rest!a}")
class Snd(CoTerm):
    rest: CoTerm
    other: TypeExpr | None = None  # type of the absent left component


@shape(syntax="case[{left}, {right}]", atomic=True)
class SumCase(CoTerm):
    """Case split on a sum value; a forcing context in both strategies."""

    left: CoTerm
    right: CoTerm


CBV.refuses, CBN.refuses = Mu, MuTilde


# ---------------------------------------------------------------------------
# Numerals


def numeral(n: int) -> Term:
    """Succ^n Zero, built iteratively so large numerals don't recurse."""

    if n < 0:
        raise ValueError("numerals are naturals")
    t: Term = Zero()
    for _ in range(n):
        t = Succ(t)
    return t


def as_numeral(t: Term) -> int | None:
    """The n with t == Succ^n Zero, or None if t is not a pure numeral."""

    n = 0
    while isinstance(t, Succ):
        t = t.arg
        n += 1
    return n if isinstance(t, Zero) else None


# ---------------------------------------------------------------------------
# Values and covalues


def is_value(t: Term, s: Strategy) -> bool:
    """Whether t may be substituted for a variable under strategy s.

    Call-by-name makes every term a value (mu-abstractions included);
    call-by-value excludes mu and requires constructor arguments and
    corecursor seeds to be values themselves.  The grammar makes the
    second demand (``well_formed`` judges it), so on a well-formed t the
    answer is a class test: t is a grammar term of a class other than
    ``s.refuses``.  O(1) and never raising; False outside the grammar, and
    on a tree ill-formed below its root the root's class answers.
    """

    return type(t) is not s.refuses and type(t) in _GRAMMAR["Term"]


def is_covalue(e: CoTerm, s: Strategy) -> bool:
    """Whether e may be substituted for a covariable under strategy s.

    Call-by-value makes every coterm a covalue (mu-tilde included);
    call-by-name excludes mu-tilde and requires destructor tails and
    recursor returns to be covalues themselves.  A case split is a covalue
    in both strategies regardless of its branches: it forces its input
    either way.  The answer is a class test, as in ``is_value``.
    """

    return type(e) is not s.refuses and type(e) in _GRAMMAR["CoTerm"]


# ---------------------------------------------------------------------------
# Fresh names and substitution


def fresh_name(avoid: frozenset[str] | set[str], hint: str = "x") -> str:
    """Deterministic: the hint itself, else hint with the smallest suffix."""

    if hint not in avoid:
        return hint
    i = 1
    while f"{hint}{i}" in avoid:
        i += 1
    return f"{hint}{i}"


def _relevant(mapping: dict[str, Node], free: frozenset[str]) -> dict[str, Node]:
    if not mapping or mapping.keys() <= free:
        return mapping
    return {k: v for k, v in mapping.items() if k in free}


def rebuild(root, ctx, rule):
    """Rebuild root bottom-up on an explicit stack, so depth costs no Python
    frames.  ``rule(node, ctx)`` returns the finished node, or ``(build,
    vals, kids)``: the node is ``build(*vals)`` once each ``(index, child,
    child ctx)`` in kids has been rebuilt, in that order, into
    ``vals[index]``.  Substitution and the duality are each one rule."""

    frames: list = []  # [build, vals, kids, index of the kid being rebuilt], innermost last
    got = rule(root, ctx)
    while True:
        if type(got) is tuple:
            frames.append([*got, 0])
        elif not frames:
            return got
        else:
            frame = frames[-1]
            frame[1][frame[2][frame[3]][0]] = got
            frame[3] += 1
        build, vals, kids, k = frames[-1]
        if k < len(kids):
            got = rule(*kids[k][1:])
        else:
            frames.pop()
            got = build(*vals)


def subst(node, var_map: dict[str, Term] | None = None, covar_map: dict[str, CoTerm] | None = None):
    """Capture-avoiding parallel substitution of terms for variables and
    coterms for covariables.  Returns the node itself when nothing applies."""

    vm = _relevant(var_map or {}, node.free_vars)
    cm = _relevant(covar_map or {}, node.free_covars)
    if not vm and not cm:
        return node
    return rebuild(node, (vm, cm), _subst_rule)


def _subst_rule(node, maps):
    """Substitution at one node; maps is (variable map, covariable map),
    holding only names free in node, so at least one child changes.  A
    child that is a bare name is substituted in place, not rebuilt."""

    vm, cm = maps
    cls = type(node)
    if cls is Var:
        return vm.get(node.name, node)
    if cls is CoVar:
        return cm.get(node.name, node)
    sh = _grammar_shape(node, "substitution over unknown node")
    vals = [getattr(node, f) for f in sh.names]
    kids = []
    for i, bound in sh.kids:
        child = vals[i]
        kind = type(child)
        if bound:
            names, kvm, kcm = _rebind([vals[j] for j in bound], child, vm, cm, sh.var_side)
            for j, name in zip(bound, names):
                vals[j] = name
        elif kind is Var or kind is CoVar:
            kvm, kcm = vm, cm
        else:
            kvm, kcm = _relevant(vm, child.free_vars), _relevant(cm, child.free_covars)
        if kind is Var:
            vals[i] = kvm.get(child.name, child)
        elif kind is CoVar:
            vals[i] = kcm.get(child.name, child)
        elif kvm or kcm:
            kids.append((i, child, (kvm, kcm)))
    return (cls, vals, kids) if kids else cls(*vals)


def _rebind(binders: list[str], body: Node, vm, cm, var_side: bool):
    """The binders' names and the (variable, covariable) maps for a body
    under binders of one side (variables if var_side, else covariables):
    the maps lose the binders and names not free in the body, and a binder
    that would capture a free name of an image is renamed."""

    vm, cm = _relevant(vm, body.free_vars), _relevant(cm, body.free_covars)
    own, other = (vm, cm) if var_side else (cm, vm)
    own = {k: v for k, v in own.items() if k not in binders}
    side = attrgetter("free_vars" if var_side else "free_covars")
    images = [*own.values(), *other.values()]
    clash = {b for b in binders if any(b in side(img) for img in images)}
    if clash:
        avoid = set(side(body)).union(own, *map(side, images))
        make, renamed = Var if var_side else CoVar, []
        for b in binders:
            if b in clash:
                b2 = fresh_name(avoid, b)
                avoid.add(b2)
                own[b] = make(b2)
                b = b2
            renamed.append(b)
        binders = renamed
    return (binders, own, other) if var_side else (binders, other, own)


def _grammar_shape(node, error: str) -> Shape:
    sh = getattr(type(node), "_shape", None)
    if sh is None or not sh.grammar:
        raise ValueError(f"{error}: {node!r}")
    return sh


def subst_var(c: Command, x: str, v: Term) -> Command:
    return subst(c, {x: v}, None)


def subst_covar(c: Command, a: str, e: CoTerm) -> Command:
    return subst(c, None, {a: e})


# ---------------------------------------------------------------------------
# Alpha-equivalence


def alpha_eq(a, b) -> bool:
    """Equality up to consistent renaming of bound (co)variables, walking
    pairs of nodes on an explicit stack.  Each pair carries four maps (the
    variables and covariables of either side) from a bound name to the
    number of its binding site."""

    sites = 0
    todo = [(a, b, {}, {}, {}, {})]
    while todo:
        a, b, va, vb, ca, cb = todo.pop()
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is Var or cls is CoVar:
            ea, eb = (va, vb) if cls is Var else (ca, cb)
            if ea.get(a.name, a.name) != eb.get(b.name, b.name):
                return False
            continue
        sh = _grammar_shape(a, "alpha_eq over unknown node")
        for f in sh.data:
            if getattr(a, f) != getattr(b, f):
                return False
        # Pushed last to first, so the first child is compared first.
        for c in reversed(sh.children):
            envs = [va, vb, ca, cb]
            if c.binds:
                # Bind each binder pair to one fresh number on the shape's side.
                side = 0 if sh.var_side else 2
                ea, eb = envs[side], envs[side + 1] = dict(envs[side]), dict(envs[side + 1])
                for f in c.binds:
                    sites += 1
                    ea[getattr(a, f)] = eb[getattr(b, f)] = sites
            todo.append((getattr(a, c.field), getattr(b, c.field), *envs))
    return True


# ---------------------------------------------------------------------------
# Well-formedness: the strategy-indexed grammar


# A position in a node: a root label, or a (parent position, label) link.
Position = str | tuple


def spell(at: Position) -> str:
    """The text of a position: a root label as it stands, a (parent, label)
    link as its parent's text, a dot and the label.

    The typing rules and ``well_formed`` build a link per child, in O(1),
    and spell one only where an error is read, so deep nesting costs no
    quadratic string building."""

    labels = []
    while type(at) is tuple:
        at, label = at
        labels.append(label)
    labels.append(at)
    return ".".join(reversed(labels))


# The node classes of the machine grammar, by the name of their sort.
_GRAMMAR = {sort.__name__: frozenset(c for c in sort.__subclasses__() if "_shape" in vars(c) and c._shape.grammar)
            for sort in (Term, CoTerm)} | {"Command": frozenset({Command})}


class Violation(NamedTuple):
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def well_formed(c: Command, s: Strategy) -> list[Violation]:
    """All points where c leaves the strategy's term/coterm grammar; never
    raises.  The root must be a command, each child a grammar node of its
    field's sort, else it is reported and not entered.  A value (covalue)
    demand fails exactly on a child of the class s refuses, a term
    (coterm): with every demand below it met, that is the only term (coterm)
    that is no value (covalue).  So each violation is reported once, at the
    mu or comu that causes it.
    """

    refused = s.refuses
    kind = "value" if issubclass(refused, Term) else "covalue"
    out: list[Violation] = []
    todo: list[tuple[object, str, Position]] = [(c, "Command", "command")]
    while todo:
        node, sort, path = todo.pop()
        cls = type(node)
        if cls not in _GRAMMAR[sort]:
            sh = getattr(cls, "_shape", None)
            bad = f"{cls.__name__} is not a {sort.lower()}" if sh and sh.grammar else f"unknown node {cls.__name__}"
            out.append(Violation(spell(path), bad))
            continue
        for c in cls._shape.children:
            child, at = getattr(node, c.field), (path, c.label)
            if type(child) is refused and (demand := getattr(c, kind)):
                out.append(Violation(spell(at), f"{demand} must be a {s.value} {kind}"))
            todo.append((child, c.sort, at))
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Printing (parseable; the parser reads the same templates)


def pretty(node, memo: dict | None = None) -> str:
    """Concrete syntax of a node, from its class's print template.

    One walk with an explicit stack of pending text and (node, as an atom)
    pairs, so depth costs no Python frames; the text is joined once.  The
    one rule by hand is for numerals: a chain of successors is walked once,
    and prints as its number if it ends in Z, else as ``S (S … (S b))``.

    A memo maps a node's id to (node, its text).  A node found in it is not
    walked: its text is used, in parentheses in an atom position unless
    the node is atomic, where a chain of successors is atomic only if it
    prints as a number.  Each successor of a chain printed as a number is
    entered in the memo, so a predecessor met later is found there.
    """

    out: list[str] = []
    todo: list = [(node, False)]
    pop, push, emit = todo.pop, todo.append, out.append
    while todo:
        item = pop()
        if type(item) is str:
            emit(item)
            continue
        node, atom = item
        cls = type(node)
        if memo is not None:
            hit = memo.get(id(node))
            if hit is not None:
                text = hit[1]
                wrap = atom and not (text.isdigit() if cls is Succ else cls._shape.atomic)
                emit(f"({text})" if wrap else text)
                continue
        if cls is Succ:
            k, below = 0, node
            while type(below) is Succ:
                below = below.arg
                k += 1
                if memo is not None and id(below) in memo:
                    break
            n = 0 if type(below) is Zero else None
            if type(below) is Succ:  # found in the memo
                text = memo[id(below)][1]
                n = int(text) if text.isdigit() else None
            if n is None:
                emit("(" * atom + "S (" * (k - 1) + "S ")
                push(")" * (k - 1 + atom))
                push((below, True))
                continue
            emit(str(k + n))
            if memo is not None:
                for j in range(k):
                    memo[id(node)] = (node, str(k + n - j))
                    node = node.arg
            continue
        sh = getattr(cls, "_shape", None)
        if sh is None:
            raise ValueError(f"no printer for {cls.__name__}")
        wrap = atom and not sh.atomic
        if wrap:
            push(")")
        for conv, get in sh.syntax:
            if conv is None:
                push(get)
            elif conv == "n":
                push(str(get(node)))
            elif conv == "t":
                t = get(node)
                if t is not None:
                    push(" : " + type_str(t))
            else:
                child = get(node)
                push((child, conv == "a" or conv == "s" and type(child) is not cls))
        if wrap:
            push("(")
    return "".join(out)
