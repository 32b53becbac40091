"""Concrete syntax: lexer, parser, and the front-end-only AST nodes.

Program files hold ``def name : TYPE = TERM ;`` declarations followed by an
optional ``main = COMMAND ;`` or ``main = TERM ;``.  The term language mixes
the lambda-calculus front end (application by juxtaposition, ``rec t as
{...}``, numerals) with explicit machine syntax (``mu``/``comu`` binders,
call stacks ``t . e``, ``corec``, projections), so machine-level programs
can be written directly.  Front-end-only constructs are the four node
classes defined here; everything else parses straight to kernel nodes.

Binder annotations are optional in the grammar (``mu a : Nat. <...>``);
the type checker decides where they are required.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel
from .kernel import (
    Call,
    Child,
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
    Stream,
    Succ,
    Sum,
    SumCase,
    Tail,
    Term,
    TypeExpr,
    Var,
    Zero,
    shape,
)

# ---------------------------------------------------------------------------
# Front-end-only AST nodes.  Their shapes are outside the machine grammar,
# so their ``cbv_value`` is None and ``kernel.is_value`` rejects them under
# CBV.


@shape(Child("fn"), Child("arg"), grammar=False, syntax="{fn!s} {arg!a}")
@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@shape(
    Child("scrut"),
    Child("zero_body"),
    Child("succ_body", binds=("pred_var", "result_var")),
    side="vars",
    grammar=False,
    syntax="rec {scrut!a} as {{ Z -> {zero_body} | S {pred_var} -> {result_var}. {succ_body} }}",
)
@dataclass(frozen=True)
class RecTerm(Term):
    """Front-end recursor expression; compiles to a RecNat continuation."""

    scrut: Term
    zero_body: Term
    pred_var: str
    result_var: str
    succ_body: Term


@shape(data=("n",), grammar=False, syntax="{n}", atomic=True)
@dataclass(frozen=True)
class NumLit(Term):
    n: int


@shape(data=("name",), grammar=False, syntax="{name}", atomic=True)
@dataclass(frozen=True)
class Ref(Term):
    """Reference to a named top-level definition (definitions are closed)."""

    name: str


# ---------------------------------------------------------------------------
# Program container


@dataclass(frozen=True)
class Definition:
    name: str
    declared: TypeExpr
    body: Term
    line: int


@dataclass
class Program:
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


KEYWORDS = {
    "def", "main", "fun", "mu", "comu", "rec", "corec", "as", "with",
    "head", "tail", "fst", "snd", "case", "pair", "inl", "inr",
    "numZ", "numS", "Z", "S", "Nat", "Stream", "Num",
}

SYMBOLS = ["=>", "->", "<", ">", "|", ".", ":", ";", "=", "{", "}", "(", ")", "[", "]", ",", "*", "+"]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "number" | "symbol" | "keyword" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            out.append(Token("keyword" if word in KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                out.append(Token("symbol", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(Token("eof", "", line, col))
    return out


# ---------------------------------------------------------------------------
# Parser


class Parser:
    def __init__(self, text: str, def_names=()):
        self.toks = tokenize(text)
        self.pos = 0
        self.def_names: set[str] = set(def_names)
        self.bound: list[str] = []  # variable scope stack; shadows def names

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

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
        if tok.kind == "ident" or tok.text == "_":
            self.next()
            return tok.text
        raise self.fail("expected a binder name")

    # -- types

    def type_expr(self) -> TypeExpr:
        left = self.type_sum()
        if self.at("->"):
            self.eat("->")
            return Fn(left, self.type_expr())
        return left

    def type_sum(self) -> TypeExpr:
        left = self.type_prod()
        while self.at("+"):
            self.eat("+")
            left = Sum(left, self.type_prod())
        return left

    def type_prod(self) -> TypeExpr:
        left = self.type_atom()
        while self.at("*"):
            self.eat("*")
            left = Prod(left, self.type_atom())
        return left

    def type_atom(self) -> TypeExpr:
        tok = self.peek()
        if tok.text == "Nat":
            self.next()
            return Nat()
        if tok.text == "Stream":
            self.next()
            return Stream(self.type_atom())
        if tok.text == "Num":
            self.next()
            return Numbered(self.type_atom())
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

    def term(self) -> Term:
        tok = self.peek()
        if tok.text == "fun":
            self.next()
            x = self.binder()
            annot = self.opt_annot()
            self.eat("=>")
            self.bound.append(x)
            body = self.term()
            self.bound.pop()
            return Lam(x, body, annot)
        if tok.text == "mu":
            self.next()
            a = self.binder()
            annot = self.opt_annot()
            self.eat(".")
            return Mu(a, self.command(), annot)
        if tok.text == "corec":
            return self.corec()
        if tok.text == "rec" and self.peek(1).text not in ("{", ":"):
            return self.rec_term()
        return self.app_term()

    def rec_term(self) -> Term:
        self.eat("rec")
        scrut = self.app_term()
        self.eat("as")
        self.eat("{")
        self.eat("Z")
        self.eat("->")
        zero = self.term()
        self.eat("|")
        self.eat("S")
        x = self.binder()
        self.eat("->")
        y = self.binder()
        self.eat(".")
        self.bound.extend((x, y))
        succ = self.term()
        self.bound.pop()
        self.bound.pop()
        self.eat("}")
        return RecTerm(scrut, zero, x, y, succ)

    def corec(self) -> Term:
        self.eat("corec")
        annot = self.opt_annot()
        self.eat("{")
        self.eat("head")
        ha = self.binder()
        self.eat("->")
        he = self.coterm()
        self.eat("|")
        self.eat("tail")
        ta = self.binder()
        self.eat("->")
        tg = self.binder()
        self.eat(".")
        te = self.coterm()
        self.eat("}")
        self.eat("with")
        seed = self.atom()
        return CoRec(ha, he, ta, tg, te, seed, elem_annot=annot)

    def app_term(self) -> Term:
        t = self.atom()
        while self.atom_starts_here():
            t = App(t, self.atom())
        return t

    def atom_starts_here(self) -> bool:
        tok = self.peek()
        if tok.kind in ("ident", "number"):
            return True
        return tok.text in ("Z", "S", "numZ", "numS", "inl", "inr", "pair", "(")

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            return kernel.numeral(int(tok.text))
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if name == "_":
                raise ParseError("wildcard may only appear as a binder", tok.line, tok.col)
            if name in self.def_names and name not in self.bound:
                return Ref(name)
            return Var(name)
        if tok.text == "Z":
            self.next()
            return Zero()
        if tok.text == "S":
            self.next()
            return Succ(self.atom())
        if tok.text == "numZ":
            self.next()
            return NumZero(self.atom())
        if tok.text == "numS":
            self.next()
            return NumSucc(self.atom())
        if tok.text == "inl":
            self.next()
            annot = self.opt_annot()
            return InL(self.atom(), annot)
        if tok.text == "inr":
            self.next()
            annot = self.opt_annot()
            return InR(self.atom(), annot)
        if tok.text == "pair":
            self.next()
            self.eat("(")
            left = self.term()
            self.eat(",")
            right = self.term()
            self.eat(")")
            return Pair(left, right)
        if tok.text == "(":
            self.next()
            t = self.term()
            self.eat(")")
            return t
        raise self.fail("expected a term")

    # -- coterms

    def coterm(self) -> CoTerm:
        tok = self.peek()
        if tok.text == "comu":
            self.next()
            x = self.binder()
            annot = self.opt_annot()
            self.eat(".")
            self.bound.append(x)
            body = self.command()
            self.bound.pop()
            return MuTilde(x, body, annot)
        if tok.text in ("head", "tail", "fst", "snd", "case"):
            return self.co_atom()
        if tok.text == "rec" and self.peek(1).text in ("{", ":"):
            return self.rec_coterm()
        # A call stack "t . e", or a bare name standing for a covariable.
        t = self.term()
        if self.at("."):
            self.eat(".")
            return Call(t, self.coterm())
        if isinstance(t, Var):
            return CoVar(t.name)
        if isinstance(t, Ref):
            return CoVar(t.name)
        raise self.fail("expected '.' to continue a call stack, or a covariable")

    def co_atom(self) -> CoTerm:
        tok = self.peek()
        if tok.text == "head":
            self.next()
            return Head(self.co_atom())
        if tok.text == "tail":
            self.next()
            return Tail(self.co_atom())
        if tok.text == "fst":
            self.next()
            annot = self.opt_annot()
            return Fst(self.co_atom(), annot)
        if tok.text == "snd":
            self.next()
            annot = self.opt_annot()
            return Snd(self.co_atom(), annot)
        if tok.text == "case":
            self.next()
            self.eat("[")
            left = self.coterm()
            self.eat(",")
            right = self.coterm()
            self.eat("]")
            return SumCase(left, right)
        if tok.text == "comu" or (tok.text == "rec" and self.peek(1).text in ("{", ":")):
            return self.coterm()
        if tok.text == "(":
            self.next()
            e = self.coterm()
            self.eat(")")
            return e
        if tok.kind == "ident":
            self.next()
            return CoVar(tok.text)
        raise self.fail("expected a continuation")

    def rec_coterm(self) -> CoTerm:
        self.eat("rec")
        annot = self.opt_annot()
        self.eat("{")
        self.eat("Z")
        payload = None
        if self.peek().kind == "ident" or self.at("_"):
            payload = self.binder()
        self.eat("->")
        if payload is not None:
            self.bound.append(payload)
        zero = self.term()
        if payload is not None:
            self.bound.pop()
        self.eat("|")
        self.eat("S")
        x = self.binder()
        self.eat("->")
        y = self.binder()
        self.eat(".")
        self.bound.extend((x, y))
        succ = self.term()
        self.bound.pop()
        self.bound.pop()
        self.eat("}")
        self.eat("with")
        ret = self.coterm()
        if payload is None:
            if annot is not None:
                raise self.fail("a plain recursor takes no payload annotation")
            return RecNat(zero, x, y, succ, ret)
        return RecNum(payload, zero, x, y, succ, ret, payload_annot=annot)

    # -- commands and programs

    def command(self) -> Command:
        self.eat("<")
        v = self.term()
        self.eat("|")
        e = self.coterm()
        self.eat(">")
        return Command(v, e)

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
                if self.at("<"):
                    main = self.command()
                else:
                    main = self.term()
                self.eat(";")
            else:
                raise self.fail("expected 'def' or 'main'")
        return Program(defs, main)

    def at_eof(self) -> bool:
        return self.peek().kind == "eof"


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
