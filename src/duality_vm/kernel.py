"""Machine-language syntax trees and the operations every other layer leans on.

A machine state is a command ``< producer | consumer >`` cutting a term
against a coterm (continuation).  The same syntax serves both evaluation
strategies; what changes between call-by-value and call-by-name is which
terms count as substitutable values and which coterms count as covalues,
so those two predicates take the strategy as an argument and everything
else (substitution, alpha-equivalence, printing) is strategy-free.

Every node caches its free variable and free covariable sets at
construction time, which lets substitution skip untouched subtrees in
O(1).  Terms cache the same way whether they are call-by-value values
(``cbv_value``) and coterms whether they are call-by-name covalues
(``cbn_covalue``), so both predicates are O(1) reads.  The cached values
are slots, not dataclass fields: equality, hashing, printing and
``dataclasses.replace`` ignore them.  Nodes are immutable; rewriting
shares unchanged children.

Each node class declares its shape once, next to its dataclass: per child,
the field, its step in a ``well_formed`` path, the binder fields in scope
in it and what the grammar demands of it (a value or a covalue); per
class, which side its binders are on, which other fields
alpha-equivalence compares or ignores, and its concrete syntax as a
template, with whether it prints as an atom.  The cached sets and bit,
substitution, alpha-equivalence, the grammar check, the node named by a
classification error and the printer are all derived from the shapes, in
the manner of Curien and Herbelin's "The duality of computation", where
substitution and alpha-equivalence are defined once over binders.  The
duality reads the same shapes (``duality.py``), and the parser reads each
template that starts with a keyword forward (``parser.py``), so concrete
syntax is declared once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from operator import attrgetter
from string import Formatter


# ---------------------------------------------------------------------------
# Types of the object language


class TypeExpr:
    """Base of object-language types; structural equality is the only one."""

    __slots__ = ()


@dataclass(frozen=True)
class Nat(TypeExpr):
    pass


@dataclass(frozen=True)
class Stream(TypeExpr):
    elem: TypeExpr


@dataclass(frozen=True)
class Fn(TypeExpr):
    arg: TypeExpr
    ret: TypeExpr


@dataclass(frozen=True)
class Prod(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class Sum(TypeExpr):
    left: TypeExpr
    right: TypeExpr


@dataclass(frozen=True)
class Numbered(TypeExpr):
    """Numbers carrying a payload; the exact syntactic dual of Stream."""

    payload: TypeExpr


def type_str(t: TypeExpr) -> str:
    """Concrete syntax of a type (parseable).

    Precedence, loosest first: ``->`` (right-assoc), ``+``, ``*``;
    ``Nat``, ``Stream T`` and ``Num T`` are atoms with atomic arguments.
    """

    return _type_str(t, 0)


def _type_str(t: TypeExpr, level: int) -> str:
    match t:
        case Nat():
            return "Nat"
        case Stream(elem):
            return f"Stream {_type_str(elem, 3)}"
        case Numbered(payload):
            return f"Num {_type_str(payload, 3)}"
        case Fn(arg, ret):
            s = f"{_type_str(arg, 1)} -> {_type_str(ret, 0)}"
            return f"({s})" if level >= 1 else s
        case Sum(left, right):
            s = f"{_type_str(left, 1)} + {_type_str(right, 2)}"
            return f"({s})" if level >= 2 else s
        case Prod(left, right):
            s = f"{_type_str(left, 2)} * {_type_str(right, 3)}"
            return f"({s})" if level >= 3 else s
    raise ValueError(f"unknown type node: {t!r}")


# ---------------------------------------------------------------------------
# Strategy


class Strategy(enum.Enum):
    CBV = "cbv"
    CBN = "cbn"

    def __str__(self) -> str:
        return self.value


CBV = Strategy.CBV
CBN = Strategy.CBN


# ---------------------------------------------------------------------------
# Syntax nodes

EMPTY: frozenset[str] = frozenset()


class Node:
    """Common base; each node caches its free (co)variable sets when it is
    built, and terms and coterms their strategy bit, as its class's shape
    derives them.  Node classes keep all of it in slots: a successor takes
    64 bytes on 64-bit CPython 3.11, against 96 for a dict-backed node
    without the bit."""

    __slots__ = ("free_vars", "free_covars")

    free_vars: frozenset[str]
    free_covars: frozenset[str]
    # True or False on a machine term (coterm); None on any other node, and
    # on a term (coterm) whose bit is copied from such a node.  Leaves fix
    # the bit as a class attribute, which shadows the slot that Term and
    # CoTerm add; a shape declared outside the machine grammar sets it to
    # None the same way.
    cbv_value: bool | None = None
    cbn_covalue: bool | None = None
    _shape: Shape

    def __post_init__(self) -> None:
        # Replaced in every concrete class by the one its shape derives.
        raise TypeError(f"{type(self).__name__} declares no shape")

    def __reduce__(self):
        # Copies and unpickled nodes are rebuilt through __init__, so they
        # cache their sets and bit again: only field slots would be saved.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


class Term(Node):
    __slots__ = ("cbv_value",)


class CoTerm(Node):
    __slots__ = ("cbn_covalue",)


# The slots' own setters: they write past a frozen dataclass's __setattr__.
_set_fv = Node.free_vars.__set__
_set_fcv = Node.free_covars.__set__
_BIT_SETTERS = {"cbv_value": Term.cbv_value.__set__, "cbn_covalue": CoTerm.cbn_covalue.__set__}


class Child:
    """One child position of a node class: its field, its step in a
    ``well_formed`` path, the binder fields in scope in it, and what the
    strategy-indexed grammar demands of it, if anything: a value (a
    covalue), with the message that names the position."""

    __slots__ = ("field", "label", "binds", "value", "covalue")

    def __init__(self, field: str, label: str | None = None, *, binds: tuple[str, ...] = (),
                 value: str | None = None, covalue: str | None = None):
        self.field = field
        self.label = label or field
        self.binds = binds
        self.value = value
        self.covalue = covalue


class Shape:
    """What a node class is made of, declared once with ``shape``.

    Construction, substitution, alpha-equivalence, the grammar check and
    value/covalue error reports all read it instead of matching on classes.
    ``var_side`` tells whether the binders bind variables or covariables;
    ``data`` fields are compared by alpha-equivalence, ``ignore`` fields
    (filled in by elaboration, with no concrete syntax) are not.  A shape
    outside the ``grammar`` is a front-end node: it caches free sets, its
    bit is None, and the traversals reject it.  ``bit_from`` names the
    children whose bits a node's own bit is the ``and`` of (their grammar
    demands it be of the node's sort); it is None when the class fixes its
    bit, or has none (``Command``).  ``text`` is the template as declared,
    which the parser reads; ``syntax`` is that template compiled for
    ``pretty``; ``atomic`` classes never need parentheses.
    """

    __slots__ = ("children", "var_side", "data", "ignore", "grammar", "names", "kids", "bit",
                 "bit_from", "text", "syntax", "atomic")

    def __init__(self, cls: type, children, side, data, ignore, grammar, syntax, atomic):
        self.children = children
        self.var_side = side == "vars"
        self.data = data
        self.ignore = ignore
        self.grammar = grammar
        self.atomic = atomic
        self.names = tuple(f.name for f in fields(cls))
        self.text = syntax
        self.syntax = _template(syntax, self.names, {c.field for c in children}, ignore)
        pos = self.names.index
        # (child index, its binder indices) in field order, for rebuilding.
        self.kids = tuple((pos(c.field), tuple(map(pos, c.binds))) for c in children)
        self.bit = "cbv_value" if issubclass(cls, Term) else "cbn_covalue" if issubclass(cls, CoTerm) else None
        if self.bit is None or self.bit in cls.__dict__:
            self.bit_from = None
        else:
            own = "value" if self.bit == "cbv_value" else "covalue"
            self.bit_from = tuple(c.field for c in children if getattr(c, own))


def shape(*children: Child, side: str | None = None, data: tuple[str, ...] = (),
          ignore: tuple[str, ...] = (), grammar: bool = True, syntax: str, atomic: bool = False):
    """Declare a dataclass node's children (in field order), the side its
    binders are on ("vars" or "covars"), its other fields and its print
    template; install the ``__post_init__`` that caches free sets and the
    strategy bit.

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
        if not grammar:
            setattr(cls, "cbv_value" if issubclass(cls, Term) else "cbn_covalue", None)
        sh = cls._shape = Shape(cls, children, side, data, ignore, grammar, syntax, atomic)
        if "__post_init__" not in cls.__dict__:
            cls.__post_init__ = _cache(sh)
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


def _cache(sh: Shape):
    """The ``__post_init__`` caching what sh derives: a node's free names
    are its children's, less each child's binders on the shape's side; its
    bit is the ``and`` of the bits of the children in ``bit_from``."""

    kids = sh.children
    set_bit = sh.bit_from is not None and _BIT_SETTERS[sh.bit]
    one = kids and attrgetter(kids[0].field)
    if len(kids) == 1 and not kids[0].binds and sh.bit_from == (kids[0].field,):
        bit = attrgetter(sh.bit)

        def cache(self) -> None:
            c = one(self)
            _set_fv(self, c.free_vars)
            _set_fcv(self, c.free_covars)
            set_bit(self, bit(c))

        return cache
    if len(kids) == 1 and len(kids[0].binds) == 1 and not set_bit:
        binder = attrgetter(kids[0].binds[0])
        if sh.var_side:

            def cache(self) -> None:
                c = one(self)
                _set_fv(self, c.free_vars - {binder(self)})
                _set_fcv(self, c.free_covars)

        else:

            def cache(self) -> None:
                c = one(self)
                _set_fv(self, c.free_vars)
                _set_fcv(self, c.free_covars - {binder(self)})

        return cache
    # A binder getter returns a tuple of names, even for one binder.
    parts = tuple((attrgetter(c.field), c.binds and attrgetter(*c.binds, c.binds[0])) for c in kids)
    var_side = sh.var_side
    bits = set_bit and tuple(attrgetter(f + "." + sh.bit) for f in sh.bit_from)

    def cache(self) -> None:
        fv = fcv = EMPTY
        for get, binders in parts:
            c = get(self)
            v, cv = c.free_vars, c.free_covars
            if binders:
                if var_side:
                    v = v.difference(binders(self))
                else:
                    cv = cv.difference(binders(self))
            if v:
                fv = fv | v if fv else v
            if cv:
                fcv = fcv | cv if fcv else cv
        _set_fv(self, fv)
        _set_fcv(self, fcv)
        if bits:
            b = True
            for get in bits:
                b = b and get(self)
            set_bit(self, b)

    return cache


@shape(Child("producer"), Child("consumer"), syntax="<{producer} | {consumer}>")
@dataclass(frozen=True, slots=True)
class Command(Node):
    producer: Term
    consumer: CoTerm


# _subst and _alpha treat Var and CoVar as base cases and never read this
# shape; ``data`` is declared so that every field has a shape entry.
@shape(data=("name",), syntax="{name}", atomic=True)
@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str
    cbv_value = True

    def __post_init__(self) -> None:
        _set_fv(self, frozenset((self.name,)))
        _set_fcv(self, EMPTY)


@shape(Child("body", binds=("covar",)), side="covars", data=("annot",), syntax="mu {covar}{annot!t}. {body}")
@dataclass(frozen=True, slots=True)
class Mu(Term):
    """Term binding its continuation, then running a command."""

    covar: str
    body: Command
    annot: TypeExpr | None = None
    cbv_value = False


@shape(Child("body", binds=("var",)), side="vars", data=("annot",), syntax="fun {var}{annot!t} => {body}")
@dataclass(frozen=True, slots=True)
class Lam(Term):
    var: str
    body: Term
    annot: TypeExpr | None = None
    cbv_value = True


@shape(syntax="Z", atomic=True)
@dataclass(frozen=True, slots=True)
class Zero(Term):
    cbv_value = True


# pretty prints a chain of successors in one walk, with this template on
# each one, unless the chain ends in Z and is a numeral.
@shape(Child("arg", value="successor argument"), syntax="S {arg!a}")
@dataclass(frozen=True, slots=True)
class Succ(Term):
    arg: Term


@shape(Child("arg", value="numbered-zero argument"), syntax="numZ {arg!a}")
@dataclass(frozen=True, slots=True)
class NumZero(Term):
    """Base constructor of Numbered: a payload labeled with 0."""

    arg: Term


@shape(Child("arg", value="numbered-successor argument"), syntax="numS {arg!a}")
@dataclass(frozen=True, slots=True)
class NumSucc(Term):
    arg: Term


@shape(Child("left", value="pair component"), Child("right", value="pair component"),
       syntax="pair({left}, {right})", atomic=True)
@dataclass(frozen=True, slots=True)
class Pair(Term):
    left: Term
    right: Term


@shape(Child("arg", value="injection argument"), data=("other",), syntax="inl{other!t} {arg!a}")
@dataclass(frozen=True, slots=True)
class InL(Term):
    arg: Term
    other: TypeExpr | None = None  # type of the absent right component


@shape(Child("arg", value="injection argument"), data=("other",), syntax="inr{other!t} {arg!a}")
@dataclass(frozen=True, slots=True)
class InR(Term):
    arg: Term
    other: TypeExpr | None = None  # type of the absent left component


@shape(
    Child("head_body", "head", binds=("head_covar",)),
    Child("tail_body", "tail", binds=("tail_covar", "tail_seed_covar")),
    Child("seed", value="corecursor seed"),
    side="covars",
    data=("elem_annot",),
    ignore=("seed_annot",),
    syntax="corec{elem_annot!t} {{ head {head_covar} -> {head_body}"
    " | tail {tail_covar} -> {tail_seed_covar}. {tail_body} }} with {seed!a}",
)
@dataclass(frozen=True, slots=True)
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


# _subst and _alpha treat Var and CoVar as base cases and never read this
# shape; ``data`` is declared so that every field has a shape entry.
@shape(data=("name",), syntax="{name}", atomic=True)
@dataclass(frozen=True, slots=True)
class CoVar(CoTerm):
    name: str
    cbn_covalue = True

    def __post_init__(self) -> None:
        _set_fv(self, EMPTY)
        _set_fcv(self, frozenset((self.name,)))


@shape(Child("body", binds=("var",)), side="vars", data=("annot",), syntax="comu {var}{annot!t}. {body}")
@dataclass(frozen=True, slots=True)
class MuTilde(CoTerm):
    """Coterm binding its input value, then running a command."""

    var: str
    body: Command
    annot: TypeExpr | None = None
    cbn_covalue = False


@shape(Child("arg", value="call-stack argument"), Child("rest", covalue="call-stack tail"),
       syntax="{arg!a} . {rest}")
@dataclass(frozen=True, slots=True)
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
@dataclass(frozen=True, slots=True)
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
    data=("payload_annot",),
    ignore=("annot",),
    syntax="rec{payload_annot!t} {{ Z {payload_var} -> {zero_body}"
    " | S {pred_var} -> {result_var}. {succ_body} }} with {ret}",
)
@dataclass(frozen=True, slots=True)
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
@dataclass(frozen=True, slots=True)
class Head(CoTerm):
    rest: CoTerm


@shape(Child("rest", covalue="destructor tail"), syntax="tail {rest!a}")
@dataclass(frozen=True, slots=True)
class Tail(CoTerm):
    rest: CoTerm


@shape(Child("rest", covalue="destructor tail"), data=("other",), syntax="fst{other!t} {rest!a}")
@dataclass(frozen=True, slots=True)
class Fst(CoTerm):
    rest: CoTerm
    other: TypeExpr | None = None  # type of the absent right component


@shape(Child("rest", covalue="destructor tail"), data=("other",), syntax="snd{other!t} {rest!a}")
@dataclass(frozen=True, slots=True)
class Snd(CoTerm):
    rest: CoTerm
    other: TypeExpr | None = None  # type of the absent left component


@shape(Child("left"), Child("right"), syntax="case[{left}, {right}]", atomic=True)
@dataclass(frozen=True, slots=True)
class SumCase(CoTerm):
    """Case split on a sum value; a forcing context in both strategies."""

    left: CoTerm
    right: CoTerm
    cbn_covalue = True


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
    corecursor seeds to be values themselves.  The call-by-value answer is
    the ``cbv_value`` bit cached when t was built, so this is O(1).
    """

    if s is CBN:
        if not isinstance(t, Term):
            raise ValueError(f"not a term: {t!r}")
        return True
    bit = getattr(t, "cbv_value", None)
    if bit is None:
        raise ValueError(f"not a term: {_unclassified(t, Term)!r}")
    return bit


def is_covalue(e: CoTerm, s: Strategy) -> bool:
    """Whether e may be substituted for a covariable under strategy s.

    Call-by-value makes every coterm a covalue (mu-tilde included);
    call-by-name excludes mu-tilde and requires destructor tails to be
    covalues themselves.  A case split is a covalue in both strategies
    regardless of its branches: it forces its input either way.  The
    call-by-name answer is the ``cbn_covalue`` bit cached when e was
    built, so this is O(1).
    """

    if s is CBV:
        if not isinstance(e, CoTerm):
            raise ValueError(f"not a coterm: {e!r}")
        return True
    bit = getattr(e, "cbn_covalue", None)
    if bit is None:
        raise ValueError(f"not a coterm: {_unclassified(e, CoTerm)!r}")
    return bit


def _unclassified(node, kind: type) -> object:
    """The node that left a ``kind`` node's bit unset: follow the positions
    the bit is copied from down to the first node not classified."""

    while isinstance(node, kind):
        sh = getattr(type(node), "_shape", None)
        for f in sh and sh.bit_from or ():
            child = getattr(node, f)
            if getattr(child, sh.bit, None) is None:
                node = child
                break
        else:
            break
    return node


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
    if not mapping:
        return mapping
    if all(k in free for k in mapping):
        return mapping
    return {k: v for k, v in mapping.items() if k in free}


def subst(node, var_map: dict[str, Term] | None = None, covar_map: dict[str, CoTerm] | None = None):
    """Capture-avoiding parallel substitution of terms for variables and
    coterms for covariables.  Returns the node itself when nothing applies."""

    vm = _relevant(var_map or {}, node.free_vars)
    cm = _relevant(covar_map or {}, node.free_covars)
    if not vm and not cm:
        return node
    return _subst(node, vm, cm)


def _rebind(binders: list[str], body: Node, vm, cm, var_side: bool):
    """Prepare substitution maps under binders of one side (variables if
    var_side, else covariables), renaming a binder that would capture a
    free name of an image.

    Returns (new_binder_names, vm', cm', live) to apply to the body; live
    is False when nothing is substituted in it.
    """

    side = attrgetter("free_vars" if var_side else "free_covars")
    if var_side:
        vm = {k: v for k, v in vm.items() if k not in binders and k in body.free_vars}
        cm = _relevant(cm, body.free_covars)
    else:
        vm = _relevant(vm, body.free_vars)
        cm = {k: v for k, v in cm.items() if k not in binders and k in body.free_covars}
    if not vm and not cm:
        return binders, vm, cm, False
    images = [*vm.values(), *cm.values()]
    clash = {b for b in binders if any(b in side(img) for img in images)}
    if not clash:
        return binders, vm, cm, True
    own, make = (dict(vm), Var) if var_side else (dict(cm), CoVar)
    avoid = set(side(body)).union(own, *map(side, images))
    renamed = []
    for b in binders:
        if b in clash:
            b2 = fresh_name(avoid, b)
            avoid.add(b2)
            own[b] = make(b2)
            b = b2
        renamed.append(b)
    return (renamed, own, cm, True) if var_side else (renamed, vm, own, True)


def _subst(node, vm: dict[str, Term], cm: dict[str, CoTerm]):
    # vm and cm hold only names free in node, so at least one child changes.
    cls = type(node)
    if cls is Var:
        return vm.get(node.name, node)
    if cls is CoVar:
        return cm.get(node.name, node)
    sh = _grammar_shape(node, "substitution over unknown node")
    vals = [getattr(node, f) for f in sh.names]
    if len(sh.kids) == 1 and not sh.kids[0][1]:
        # The only child has the node's free names: no maps to narrow.
        i = sh.kids[0][0]
        vals[i] = _subst(vals[i], vm, cm)
        return cls(*vals)
    for i, bound in sh.kids:
        child = vals[i]
        if bound:
            names, nvm, ncm, live = _rebind([vals[j] for j in bound], child, vm, cm, sh.var_side)
            if live:
                for j, name in zip(bound, names):
                    vals[j] = name
                vals[i] = _subst(child, nvm, ncm)
        else:
            lvm = _relevant(vm, child.free_vars)
            lcm = _relevant(cm, child.free_covars)
            if lvm or lcm:
                vals[i] = _subst(child, lvm, lcm)
    return cls(*vals)


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
    """Equality up to consistent renaming of bound (co)variables."""

    return _alpha(a, b, {}, {}, {}, {}, [0])


def _alpha(a, b, va, vb, ca, cb, ctr) -> bool:
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is Var:
        return va.get(a.name, a.name) == vb.get(b.name, b.name)
    if cls is CoVar:
        return ca.get(a.name, a.name) == cb.get(b.name, b.name)
    sh = _grammar_shape(a, "alpha_eq over unknown node")
    for f in sh.data:
        if getattr(a, f) != getattr(b, f):
            return False
    for c in sh.children:
        envs = [va, vb, ca, cb]
        if c.binds:
            # Bind each binder pair to one fresh number on the shape's side.
            side = 0 if sh.var_side else 2
            ea, eb = envs[side], envs[side + 1] = dict(envs[side]), dict(envs[side + 1])
            for f in c.binds:
                ctr[0] += 1
                ea[getattr(a, f)] = eb[getattr(b, f)] = ctr[0]
        if not _alpha(getattr(a, c.field), getattr(b, c.field), *envs, ctr):
            return False
    return True


# ---------------------------------------------------------------------------
# Well-formedness: the strategy-indexed grammar


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def well_formed(c: Command, s: Strategy) -> list[Violation]:
    """All points where c leaves the strategy's term/coterm grammar.

    Constructor arguments, pair components, injection payloads, call-stack
    arguments and corecursor seeds must be values; call-stack tails,
    recursor returns and destructor tails must be covalues.  Each check is
    trivial under one of the two strategies and real under the other.
    """

    # A path is "command" or a (parent path, field) link, spelled out only
    # for a violation, so deep nesting costs no quadratic string building.
    out: list[Violation] = []
    todo: list[tuple[Node, object]] = [(c, "command")]

    def spell(path) -> str:
        fields = []
        while isinstance(path, tuple):
            path, field = path
            fields.append(field)
        return ".".join([path, *reversed(fields)])

    while todo:
        node, path = todo.pop()
        sh = getattr(type(node), "_shape", None)
        if sh is None or not sh.grammar:
            out.append(Violation(spell(path), f"unknown node {type(node).__name__}"))
            continue
        for c in sh.children:
            child, at = getattr(node, c.field), (path, c.label)
            if c.value and not is_value(child, s):
                out.append(Violation(spell(at), f"{c.value} must be a {s.value} value"))
            if c.covalue and not is_covalue(child, s):
                out.append(Violation(spell(at), f"{c.covalue} must be a {s.value} covalue"))
            todo.append((child, at))
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# Printing (parseable; the parser reads the same templates)


def pretty(node) -> str:
    """Concrete syntax of a node, from its class's print template.

    One walk with an explicit stack of pending text and (node, as an atom)
    pairs, so depth costs no Python frames; the text is joined once.  The
    one rule by hand is for numerals: a chain of successors is walked once,
    and prints as its number if it ends in Z, else as ``S (S … (S b))``.
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
        if cls is Succ:
            k = 0
            while type(node) is Succ:
                node = node.arg
                k += 1
            if type(node) is Zero:
                emit(str(k))
                continue
            emit("(" * atom + "S (" * (k - 1) + "S ")
            push(")" * (k - 1 + atom))
            push((node, True))
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
