"""Concrete syntax: lexer, parser, and the front-end-only AST nodes.

Program files hold ``def name : TYPE = TERM ;`` declarations followed by an
optional ``main = COMMAND ;`` or ``main = TERM ;``.  The term language mixes
the lambda-calculus front end (application by juxtaposition, ``rec t as
{...}``, numerals) with explicit machine syntax (``mu``/``comu`` binders,
call stacks ``t . e``, ``corec``, projections), so machine-level programs
can be written directly.  Front-end-only constructs are the four node
classes defined here; everything else parses straight to kernel nodes.

Every form that starts with a keyword, and ``Command``, is read from the
print template its class's shape declares (see ``kernel.shape``), and
every word a template spells is reserved, so its concrete syntax is
written once, for the printer and the parser alike; chains of such
forms, like call stacks, are read in a loop.  Written by hand are only
what no template spells out: names and the wildcard, numerals,
parentheses, application by juxtaposition, call stacks, types and
program structure.

Binder annotations are optional in the grammar (``mu a : Nat. <...>``);
the type checker decides where they are required.
"""

from __future__ import annotations

import re
from functools import partial, reduce
from string import Formatter
from typing import NamedTuple

from . import kernel
from .kernel import (
    Call,
    Child,
    Command,
    CoTerm,
    CoVar,
    Node,
    Term,
    TYPE_INFIX,
    TYPE_WORDS,
    TypeExpr,
    Var,
    shape,
)

# ---------------------------------------------------------------------------
# Front-end-only AST nodes.  Their shapes are outside the machine grammar,
# so no strategy's class test counts them: ``kernel.is_value`` answers
# False on them, and ``kernel.well_formed`` reports each one at its path.


@shape(grammar=False, syntax="{fn!s} {arg!a}")
class App(Term):
    fn: Term
    arg: Term


@shape(
    Child("succ_body", binds=("pred_var", "result_var")),
    side="vars",
    grammar=False,
    syntax="rec {scrut!a} as {{ Z -> {zero_body} | S {pred_var} -> {result_var}. {succ_body} }}",
)
class RecTerm(Term):
    """Front-end recursor expression; compiles to a RecNat continuation."""

    scrut: Term
    zero_body: Term
    pred_var: str
    result_var: str
    succ_body: Term


@shape(grammar=False, syntax="{n}", atomic=True)
class NumLit(Term):
    n: int


@shape(grammar=False, syntax="{name}", atomic=True)
class Ref(Term):
    """Reference to a named top-level definition (definitions are closed)."""

    name: str


# ---------------------------------------------------------------------------
# Program container


class Definition(NamedTuple):
    name: str
    declared: TypeExpr
    body: Term
    line: int


class Program(NamedTuple):
    defs: dict[str, Definition]
    main: Command | Term | None


# ---------------------------------------------------------------------------
# Lexer


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


def _shaped(*sorts: type) -> list[type]:
    """The node classes of sorts, in declaration order.  dataclass(slots=True)
    leaves each class it replaced, shapeless, among the subclasses."""

    return [cls for sort in sorts for cls in sort.__subclasses__() if "_shape" in vars(cls)]


_WORD = r"[^\W\d]\w*"
# The reserved words: those of program structure and of types, and every
# word in the literal text of a node class's print template.
KEYWORDS = {"def", "main", *TYPE_WORDS}.union(*(
    re.findall(_WORD, lit) for cls in _shaped(Node, Term, CoTerm) for lit, *_ in Formatter().parse(cls._shape.text)
))

SYMBOLS = ["=>", "->", "<", ">", "|", ".", ":", ";", "=", "{", "}", "(", ")", "[", "]", ",", "*", "+"]


# The largest number a literal may spell, in a program or a ``bench`` size:
# a literal is built as its whole successor chain before any fuel is spent.
MAX_LITERAL = 10**5


def literal(digits: str) -> int:
    """The number digits spell, as int() reads it, or a ValueError if that
    is more than MAX_LITERAL.  A digit string too long for it is refused
    before int() reads it."""

    if len(digits.strip().lstrip("+-0")) > len(str(MAX_LITERAL)) or int(digits) > MAX_LITERAL:
        raise ValueError(f"numeral literal larger than {MAX_LITERAL}")
    return int(digits)


class Token(NamedTuple):
    kind: str  # "ident" | "number" | "symbol" | "keyword" | "eof"
    text: str
    line: int
    col: int


# One token of a line, after any blanks: a numeral (Unicode decimal digits,
# all of which int() reads), a word, a symbol (longest first), a comment or
# the end of the line, neither of which has a group, or any other character.
# Some branch matches wherever the blanks end, so they never backtrack.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<number>\d+)|(?P<word>" + _WORD + r")|(?P<symbol>"
    + "|".join(map(re.escape, SYMBOLS))
    + r")|--.*|$|(?P<other>.))"
)


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    for line, src in enumerate(text.split("\n"), 1):
        for m in _TOKEN.finditer(src):
            kind = m.lastgroup
            if kind is None:
                continue
            word, col = m.group(kind), m.start(kind) + 1
            # A word may also start with a digit that is not decimal (²) or
            # another numeric character; only a letter or "_" begins a name.
            if kind == "word" and (word[0].isalpha() or word[0] == "_"):
                kind = "keyword" if word in KEYWORDS else "ident"
            elif kind in ("word", "other"):
                raise ParseError(f"unexpected character {word[0]!r}", line, col)
            out.append(Token(kind, word, line, col))
    out.append(Token("eof", "", line, len(src) + 1))
    return out


# ---------------------------------------------------------------------------
# Parser

# The term forms that stand only at term level; every other keyword form may
# also stand where an atom may.
TERM_LEVEL = {"fun", "mu", "corec", "rec"}

# The keyword forms each production reads, by their lead token; filled from
# the shapes below the Parser.
TERMS, ATOMS, COTERMS, CO_ATOMS, COMMANDS = {}, {}, {}, {}, {}


def _production(forms: dict, other):
    """A production reading the form of forms (see ``_form``) that the next
    token leads, or else other; a function there reads a choice of forms
    whole.  Where the slot that closes a form's template is read by this
    production again ("S S Z", "fun x => fun y => x", "tail head a0"), the
    form stays open while the next one is read, so such a chain costs no
    stack depth."""

    def read(p: Parser):
        opened = []
        while (form := forms.get(p.peek().text)) is not None:
            if callable(form):
                node = form(p)
                break
            cls, steps, (field, tail, binders) = form
            vals = {}
            for name, step, scope in steps:
                if name is None:
                    p.eat(step)
                else:
                    p.bound += map(vals.get, scope)
                    vals[name] = step(p)
                    del p.bound[len(p.bound) - len(scope):]
            p.bound += map(vals.get, binders)
            opened.append((cls, vals, field, len(binders)))
            if tail is not read:
                node = tail and tail(p)
                break
        else:
            node = other(p)
        for cls, vals, field, scoped in reversed(opened):
            del p.bound[len(p.bound) - scoped:]
            node = cls(**vals, **{field: node} if field else {})
        return node

    return read


class Parser:
    def __init__(self, text: str, def_names=()):
        self.toks = tokenize(text)
        self.pos = 0
        self.def_names: set[str] = set(def_names)
        self.bound: list[str] = []  # variable scope stack; shadows def names

    # -- token plumbing

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in ("symbol", "keyword")

    def eat(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind not in ("symbol", "keyword"):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message + f" (found {tok.text!r})", tok.line, tok.col)

    def binder(self) -> str:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return tok.text
        raise self.fail("expected a binder name")

    def first(self, readers):
        """Read by the first of readers that parses here; if none does,
        raise the error that got furthest."""

        pos, depth, errors = self.pos, len(self.bound), []
        for read in readers:
            try:
                return read(self)
            except ParseError as ex:
                errors.append(ex)
                self.pos = pos
                del self.bound[depth:]
        raise max(errors, key=lambda ex: (ex.line, ex.col))

    # -- types

    def type_expr(self) -> TypeExpr:
        return self.type_infix(0)

    def type_infix(self, level: int) -> TypeExpr:
        """A type of ``kernel.TYPE_INFIX``'s operators from level on: operands
        of the next level, joined by this level's symbol."""

        if level == len(TYPE_INFIX):
            return self.type_atom()
        cls, symbol, right = TYPE_INFIX[level]
        parts = [self.type_infix(level + 1)]
        while self.at(symbol):
            self.next()
            parts.append(self.type_infix(level + 1))
        if right:
            return reduce(lambda r, l: cls(l, r), reversed(parts))
        return reduce(cls, parts)

    def type_atom(self) -> TypeExpr:
        tok = self.peek()
        if tok.text in TYPE_WORDS:
            self.next()
            cls = TYPE_WORDS[tok.text]
            return cls(*(self.type_atom() for _ in cls.__match_args__))
        if tok.text == "(":
            self.next()
            t = self.type_expr()
            self.eat(")")
            return t
        raise self.fail("expected a type")

    def opt_annot(self) -> TypeExpr | None:
        if self.at(":"):
            self.eat(":")
            return self.type_expr()
        return None

    # -- terms

    def app_term(self) -> Term:
        t = self.atom()
        while (tok := self.peek()).kind in ("ident", "number") or tok.text == "(" or tok.text in ATOMS:
            t = App(t, self.atom())
        return t

    def name_or_group(self) -> Term:
        tok = self.peek()
        if tok.kind == "number":
            try:
                n = literal(tok.text)
            except ValueError as ex:
                raise ParseError(str(ex), tok.line, tok.col) from None
            self.next()
            return kernel.numeral(n)
        if tok.kind == "ident":
            self.next()
            if tok.text == "_":
                raise ParseError("wildcard may only appear as a binder", tok.line, tok.col)
            return Ref(tok.text) if tok.text in self.def_names and tok.text not in self.bound else Var(tok.text)
        if tok.text == "(":
            self.next()
            t = self.term()
            self.eat(")")
            return t
        raise self.fail("expected a term")

    term = _production(TERMS, app_term)
    atom = _production(ATOMS, name_or_group)

    # -- coterms

    def call_stack(self) -> CoTerm:
        """A call stack "t . ... . t . e", read in a loop, whose last part
        is a keyword form or a bare name standing for a covariable."""

        args = [self.term()]
        while self.at("."):
            self.eat(".")
            if self.peek().text in COTERMS:
                e = self.coterm()
                break
            args.append(self.term())
        else:
            t = args.pop()
            if not isinstance(t, (Var, Ref)):
                raise self.fail("expected '.' to continue a call stack, or a covariable")
            e = CoVar(t.name)
        for t in reversed(args):
            e = Call(t, e)
        return e

    def co_name_or_group(self) -> CoTerm:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            e = self.coterm()
            self.eat(")")
            return e
        if tok.kind == "ident":
            self.next()
            if tok.text == "_":
                raise ParseError("wildcard may only appear as a binder", tok.line, tok.col)
            return CoVar(tok.text)
        raise self.fail("expected a continuation")

    coterm = _production(COTERMS, call_stack)
    co_atom = _production(CO_ATOMS, co_name_or_group)

    # -- commands and programs

    # A text not led by '<' fails as eat reports it.
    command = _production(COMMANDS, lambda p: p.eat("<"))

    def program(self) -> Program:
        defs: dict[str, Definition] = {}
        main: Command | Term | None = None
        while not self.at_eof():
            tok = self.peek()
            if tok.text == "def":
                self.next()
                name_tok = self.next()
                if name_tok.kind != "ident":
                    raise ParseError("expected a definition name", name_tok.line, name_tok.col)
                if name_tok.text in defs:
                    raise ParseError(f"duplicate definition {name_tok.text!r}", name_tok.line, name_tok.col)
                self.eat(":")
                declared = self.type_expr()
                self.eat("=")
                body = self.term()
                self.eat(";")
                defs[name_tok.text] = Definition(name_tok.text, declared, body, name_tok.line)
                self.def_names.add(name_tok.text)
            elif tok.text == "main":
                if main is not None:
                    raise ParseError("duplicate main", tok.line, tok.col)
                self.next()
                self.eat("=")
                main = self.command() if self.at("<") else self.term()
                self.eat(";")
            else:
                raise self.fail("expected 'def' or 'main'")
        return Program(defs, main)

    def at_eof(self) -> bool:
        return self.peek().kind == "eof"


# ---------------------------------------------------------------------------
# Keyword forms, read from their print templates

_WHOLE = {"Term": Parser.term, "CoTerm": Parser.coterm, "Command": Parser.command}


def _form(cls) -> tuple:
    """cls as its shape's print template reads (see ``kernel.shape``):
    (cls, steps, closing slot).  A step is (None, token) for literal text
    or (field, reader, binders in scope) for a slot; the closing slot is a
    step that ends the template, or (None, None, ()).  The binders of a
    ``vars``-side shape shadow definition names in the child they scope
    over."""

    sh = cls._shape
    scopes = {c.field: c.binds for c in sh.children} if sh.var_side else {}
    pieces = list(Formatter().parse(sh.text))
    steps = []
    for i, (lit, field, _, conv) in enumerate(pieces):
        steps += [(None, tok.text, ()) for tok in tokenize(lit)[:-1]]
        if field is None:
            continue
        sort = sh.sorts[field]
        if conv == "t":
            read = Parser.opt_annot
        elif conv == "a":
            read = Parser.co_atom if sort == "CoTerm" else Parser.app_term if i + 1 < len(pieces) else Parser.atom
        else:
            read = _WHOLE.get(sort, Parser.binder)
        steps.append((field, read, scopes.get(field, ())))
    if steps[-1][0] is None:
        return cls, steps, (None, None, ())
    return cls, steps[:-1], steps[-1]


def _forms(sort: type) -> dict[str, list]:
    """The node classes of a sort whose template starts with a keyword, read
    by their templates, by that keyword, in declaration order."""

    table: dict[str, list] = {}
    for cls in _shaped(sort):
        lead = tokenize(next(Formatter().parse(cls._shape.text))[0])[0].text
        if lead in KEYWORDS:
            table.setdefault(lead, []).append(_form(cls))
    return table


def _choice(lead: str, readers: list):
    """The one form led by lead, or a choice of readers tried in order."""

    if len(readers) == 1:
        return readers[0]
    return partial(Parser.first, readers=[r if callable(r) else _production({lead: r}, None) for r in readers])


_TERM_FORMS, _COTERM_FORMS = _forms(Term), _forms(CoTerm)
TERMS.update((k, _choice(k, f)) for k, f in _TERM_FORMS.items() if k in TERM_LEVEL)
ATOMS.update((k, _choice(k, f)) for k, f in _TERM_FORMS.items() if k not in TERM_LEVEL)
CO_ATOMS.update((k, _choice(k, f)) for k, f in _COTERM_FORMS.items())
# A keyword that also leads a term form may begin a call stack.
COTERMS.update((k, _choice(k, f + [Parser.call_stack] * (k in _TERM_FORMS))) for k, f in _COTERM_FORMS.items())
COMMANDS["<"] = _form(Command)


def parse(text: str) -> Program:
    """Parse a program file (definitions plus optional main)."""

    return Parser(text).program()


def _parse_entire(text: str, production, def_names=()):
    p = Parser(text, def_names)
    node = production(p)
    if not p.at_eof():
        tok = p.peek()
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return node


def parse_term(text: str, def_names=()) -> Term:
    return _parse_entire(text, Parser.term, def_names)


def parse_coterm(text: str, def_names=()) -> CoTerm:
    return _parse_entire(text, Parser.coterm, def_names)


def parse_command(text: str, def_names=()) -> Command:
    return _parse_entire(text, Parser.command, def_names)


def parse_type(text: str) -> TypeExpr:
    return _parse_entire(text, Parser.type_expr)
