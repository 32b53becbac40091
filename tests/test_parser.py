"""Parser: round trips per keyword form, the liberal spots of the grammar,
scoping of definition names, and the position and message of errors."""

import pytest
from hypothesis import given, settings, strategies as st

from duality_vm.kernel import (
    Call,
    Command,
    CoRec,
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
    Var,
    Zero,
    numeral,
    pretty,
)
from duality_vm.parser import (
    KEYWORDS,
    SYMBOLS,
    App,
    ParseError,
    RecTerm,
    Ref,
    Token,
    parse,
    parse_command,
    parse_coterm,
    parse_term,
    tokenize,
)

CMD = Command(Var("x"), CoVar("a"))

# One node per class whose concrete syntax starts with a keyword (or "<"),
# with every optional annotation given.
KEYWORD_FORMS = [
    Lam("x", Succ(Var("x")), Fn(Nat(), Nat())),
    Mu("a", CMD, Stream(Nat())),
    Zero(),
    Succ(Var("y")),
    NumZero(Pair(Var("x"), Zero())),
    NumSucc(Var("n")),
    Pair(Lam("x", Var("x")), Mu("a", CMD)),
    InL(Var("x"), Prod(Nat(), Nat())),
    InR(Succ(Zero()), Sum(Nat(), Nat())),
    CoRec("a", CoVar("a"), "b", "g", Call(Var("x"), CoVar("g")), App(Var("f"), Var("s")), elem_annot=Nat()),
    RecTerm(App(Var("f"), Var("x")), Zero(), "p", "r", Succ(Var("r"))),
    MuTilde("x", CMD, Nat()),
    RecNat(Var("y"), "p", "r", Succ(Var("r")), CoVar("a")),
    RecNum("q", Var("q"), "p", "r", Var("r"), Head(CoVar("a")), payload_annot=Stream(Nat())),
    Head(Tail(CoVar("a"))),
    Tail(MuTilde("x", CMD)),
    Fst(CoVar("a"), Nat()),
    Snd(Head(CoVar("a")), Fn(Nat(), Nat())),
    SumCase(CoVar("a"), Call(Zero(), CoVar("b"))),
    Command(Mu("a", CMD), RecNat(Zero(), "_", "r", Var("r"), CoVar("b"))),
]


def _parse_back(node):
    text = pretty(node)
    if isinstance(node, Command):
        return parse_command(text)
    if isinstance(node, (MuTilde, RecNat, RecNum, Head, Tail, Fst, Snd, SumCase)):
        return parse_coterm(text)
    return parse_term(text)


@pytest.mark.parametrize("node", KEYWORD_FORMS, ids=lambda n: type(n).__name__)
def test_keyword_form_round_trip(node):
    assert _parse_back(node) == node


REC_BRANCHES = "{ Z -> Z | S _ -> z. z }"


@pytest.mark.parametrize(
    "parse_fn, text, expected",
    [
        # A recursor's scrutinee is a whole application: "as" delimits it.
        (parse_term, f"rec f x as {REC_BRANCHES}",
         RecTerm(App(Var("f"), Var("x")), Zero(), "_", "z", Var("z"))),
        # Keyword atoms stand as arguments without parentheses.
        (parse_term, "f S x", App(Var("f"), Succ(Var("x")))),
        (parse_term, "f inl Z numZ Z", App(App(Var("f"), InL(Zero())), NumZero(Zero()))),
        (parse_term, "S S Z", numeral(2)),
        # Chains of forms ending in a slot of their own production, and call
        # stacks, nest to the right.
        (parse_term, "fun x => fun y : Nat => x", Lam("x", Lam("y", Var("x"), Nat()))),
        (parse_coterm, "tail tail head a0", Tail(Tail(Head(CoVar("a0"))))),
        (parse_coterm, "1 . x . head a0", Call(numeral(1), Call(Var("x"), Head(CoVar("a0"))))),
        # A call stack's argument is any term, a recursor included.
        (parse_coterm, f"rec x as {REC_BRANCHES} . a0",
         Call(RecTerm(Var("x"), Zero(), "_", "z", Var("z")), CoVar("a0"))),
        (parse_coterm, "(fun x : Nat => x) . a0", Call(Lam("x", Var("x"), Nat()), CoVar("a0"))),
        (parse_coterm, "f x . a0", Call(App(Var("f"), Var("x")), CoVar("a0"))),
        # A coterm keyword form stands where a co-atom may.
        (parse_coterm, "head comu x. <x | a>", Head(MuTilde("x", CMD))),
        (parse_coterm, "tail rec { Z -> Z | S _ -> z. z } with a",
         Tail(RecNat(Zero(), "_", "z", Var("z"), CoVar("a")))),
        # Numerals are read by int(): any Unicode decimal digit will do.
        (parse_term, "٣", numeral(3)),
        (parse_term, "12", numeral(12)),
    ],
)
def test_liberal_spots(parse_fn, text, expected):
    assert parse_fn(text) == expected


@pytest.mark.parametrize(
    "parse_fn, text, expected",
    [
        (parse_term, "fun f => f", Lam("f", Var("f"))),
        (parse_term, "f", Ref("f")),
        (parse_coterm, "comu f. <f | a>", MuTilde("f", Command(Var("f"), CoVar("a")))),
        (parse_term, "rec x as { Z -> f | S f -> z. f }", RecTerm(Var("x"), Ref("f"), "f", "z", Var("f"))),
        (parse_term, "rec x as { Z -> f | S p -> f. f }", RecTerm(Var("x"), Ref("f"), "p", "f", Var("f"))),
        (parse_coterm, "rec { Z f -> f | S p -> z. f } with a",
         RecNum("f", Var("f"), "p", "z", Ref("f"), CoVar("a"))),
        (parse_coterm, "rec { Z -> f | S f -> z. f } with a",
         RecNat(Ref("f"), "f", "z", Var("f"), CoVar("a"))),
        # Covariable binders do not shadow definitions, and a covariable
        # named like a definition is still a covariable.
        (parse_term, "mu f. <f | f>", Mu("f", Command(Ref("f"), CoVar("f")))),
        (parse_term, "corec { head f -> f | tail f -> g. g } with f",
         CoRec("f", CoVar("f"), "f", "g", CoVar("g"), Ref("f"))),
        (parse_coterm, "f", CoVar("f")),
        # A binder's scope ends with the form that binds it.
        (parse_term, "(fun f => fun x => x f) f", App(Lam("f", Lam("x", App(Var("x"), Var("f")))), Ref("f"))),
    ],
)
def test_binders_shadow_definition_names(parse_fn, text, expected):
    assert parse_fn(text, {"f"}) == expected


def test_program_scope_and_main_forms():
    prog = parse("def f : Nat = Z;\ndef g : Nat -> Nat = fun x : Nat => f;\nmain = g 1;")
    assert prog.defs["g"].body == Lam("x", Ref("f"), Nat())
    assert prog.defs["g"].line == 2
    assert prog.main == App(Ref("g"), numeral(1))
    assert parse("main = <f | a0>;").main == Command(Var("f"), CoVar("a0"))


def test_tokens_keep_kind_text_and_position():
    text = "def fé : Nat =\n\tfun x_1 => -- note\n  S 12;<a0|b>"
    assert tokenize(text) == [
        Token("keyword", "def", 1, 1),
        Token("ident", "fé", 1, 5),
        Token("symbol", ":", 1, 8),
        Token("keyword", "Nat", 1, 10),
        Token("symbol", "=", 1, 14),
        Token("keyword", "fun", 2, 2),
        Token("ident", "x_1", 2, 6),
        Token("symbol", "=>", 2, 10),
        Token("keyword", "S", 3, 3),
        Token("number", "12", 3, 5),
        Token("symbol", ";", 3, 7),
        Token("symbol", "<", 3, 8),
        Token("ident", "a0", 3, 9),
        Token("symbol", "|", 3, 11),
        Token("ident", "b", 3, 12),
        Token("symbol", ">", 3, 13),
        Token("eof", "", 3, 14),
    ]


# (production, text, line, column, message) of malformed inputs.
ERRORS = [
    # a wrong token inside each form
    (parse_term, "fun x : Nat x", 1, 13, "expected '=>', found 'x'"),
    (parse_term, "fun x : => x", 1, 9, "expected a type (found '=>')"),
    (parse_term, "mu a <Z | a>", 1, 6, "expected '.', found '<'"),
    (parse_term, "mu a. Z", 1, 7, "expected '<', found 'Z'"),
    (parse_term, "corec { head a -> a | tail _ -> g. g } x", 1, 40, "expected 'with', found 'x'"),
    (parse_term, "corec { head a -> a , tail _ -> g. g } with x", 1, 21, "expected '|', found ','"),
    (parse_term, "corec { head a -> a | tail _ g. g } with x", 1, 30, "expected '->', found 'g'"),
    (parse_term, "corec { head a -> a | tail _ -> g. g } with fun", 1, 45, "expected a term (found 'fun')"),
    (parse_term, "rec x { Z -> y | S _ -> z. z }", 1, 7, "expected 'as', found '{'"),
    (parse_term, "rec x as { Z -> y | S _ -> z. z", 1, 32, "expected '}', found ''"),
    (parse_term, "rec x as { Z -> y , S _ -> z. z }", 1, 19, "expected '|', found ','"),
    (parse_term, "rec x as { Z -> y | S _ z. z }", 1, 25, "expected '->', found 'z'"),
    (parse_term, "rec x as { S _ -> z. z | Z -> y }", 1, 12, "expected 'Z', found 'S'"),
    (parse_term, "pair(Z Z)", 1, 9, "expected ',', found ')'"),
    (parse_term, "pair(Z, Z", 1, 10, "expected ')', found ''"),
    (parse_term, "pair Z, Z)", 1, 6, "expected '(', found 'Z'"),
    (parse_term, "S", 1, 2, "expected a term (found '')"),
    (parse_term, "S fun x => x", 1, 3, "expected a term (found 'fun')"),
    (parse_term, "numZ", 1, 5, "expected a term (found '')"),
    (parse_term, "numS )", 1, 6, "expected a term (found ')')"),
    (parse_term, "inl : Nat", 1, 10, "expected a term (found '')"),
    (parse_term, "inr : => Z", 1, 7, "expected a type (found '=>')"),
    (parse_term, "inl Nat Z", 1, 5, "expected a term (found 'Nat')"),
    (parse_term, "(Z", 1, 3, "expected ')', found ''"),
    (parse_coterm, "comu x <x | a>", 1, 8, "expected '.', found '<'"),
    (parse_coterm, "comu x. x", 1, 9, "expected '<', found 'x'"),
    (parse_coterm, "head", 1, 5, "expected a continuation (found '')"),
    (parse_coterm, "tail fun", 1, 6, "expected a continuation (found 'fun')"),
    (parse_coterm, "fst : Nat Z", 1, 11, "expected a continuation (found 'Z')"),
    (parse_coterm, "snd : -> a", 1, 7, "expected a type (found '->')"),
    (parse_coterm, "case[a, b", 1, 10, "expected ']', found ''"),
    (parse_coterm, "case a, b]", 1, 6, "expected '[', found 'a'"),
    (parse_coterm, "(a", 1, 3, "expected ')', found ''"),
    (parse_coterm, "x . ", 1, 5, "expected a term (found '')"),
    (parse_command, "<Z a>", 1, 5, "expected '|', found '>'"),
    (parse_command, "<Z | a", 1, 7, "expected '>', found ''"),
    (parse_command, "Z | a>", 1, 1, "expected '<', found 'Z'"),
    # a recursor continuation that gets past its choice of form
    (parse_coterm, "rec { Z -> Z | S x -> y. y } a", 1, 30, "expected 'with', found 'a'"),
    (parse_coterm, "rec { Z -> Z | S x -> y. y with a", 1, 28, "expected '}', found 'with'"),
    (parse_coterm, "rec { Z p -> Z | S x -> y. y } a", 1, 32, "expected 'with', found 'a'"),
    (parse_coterm, "rec { Z p -> Z | S x y. y } with a", 1, 22, "expected '->', found 'y'"),
    # a missing binder
    (parse_term, "fun => x", 1, 5, "expected a binder name (found '=>')"),
    (parse_term, "mu . <Z | a>", 1, 4, "expected a binder name (found '.')"),
    (parse_term, "corec { head -> a | tail _ -> g. g } with x", 1, 14, "expected a binder name (found '->')"),
    (parse_term, "rec x as { Z -> y | S -> z. z }", 1, 23, "expected a binder name (found '->')"),
    (parse_coterm, "comu . <x | a>", 1, 6, "expected a binder name (found '.')"),
    # an unexpected character
    (parse_command, "<x $ a>", 1, 4, "unexpected character '$'"),
    (parse_command, "<Z | a#>", 1, 7, "unexpected character '#'"),
    (parse, "def x : Nat = Z;\n  @", 2, 3, "unexpected character '@'"),
    # trailing input
    (parse_term, "x )", 1, 3, "unexpected trailing input ')'"),
    (parse_coterm, "head x . a", 1, 8, "unexpected trailing input '.'"),
    (parse_command, "<Z | a> b", 1, 9, "unexpected trailing input 'b'"),
    # a wildcard used as a term
    (parse_term, "_", 1, 1, "wildcard may only appear as a binder"),
    (parse_term, "f _", 1, 3, "wildcard may only appear as a binder"),
    (parse_command, "<_ | a0>", 1, 2, "wildcard may only appear as a binder"),
    (parse_coterm, "_", 1, 1, "wildcard may only appear as a binder"),
    # a bare term where a continuation is expected
    (parse_command, "<Z | S Z>", 1, 9, "expected '.' to continue a call stack, or a covariable (found '>')"),
    (parse_coterm, "Z", 1, 2, "expected '.' to continue a call stack, or a covariable (found '')"),
    (parse_coterm, "x . y . Z", 1, 10, "expected '.' to continue a call stack, or a covariable (found '')"),
    (parse_coterm, "case[a b]", 1, 9, "expected '.' to continue a call stack, or a covariable (found ']')"),
    # program structure and types
    (parse, "def x : Nat = Z;\ndef x : Nat = Z;", 2, 5, "duplicate definition 'x'"),
    (parse, "main = <Z | a0>;\nmain = <Z | a0>;", 2, 1, "duplicate main"),
    (parse, "def : Nat = Z;", 1, 5, "expected a definition name"),
    (parse, "def 3 : Nat = Z;", 1, 5, "expected a definition name"),
    (parse, "def def : Nat = Z;", 1, 5, "expected a definition name"),
    (parse, "def x Nat = Z;", 1, 7, "expected ':', found 'Nat'"),
    (parse, "def x : Nat Z;", 1, 13, "expected '=', found 'Z'"),
    (parse, "def x : Nat = Z", 1, 16, "expected ';', found ''"),
    (parse, "def x : = Z;", 1, 9, "expected a type (found '=')"),
    (parse, "def x : Nat -> = Z;", 1, 16, "expected a type (found '=')"),
    (parse, "def x : Stream = Z;", 1, 16, "expected a type (found '=')"),
    (parse, "def x : (Nat = Z;", 1, 14, "expected ')', found '='"),
    (parse, "main <Z | a0>;", 1, 6, "expected '=', found '<'"),
    (parse, "main = <Z | a0>", 1, 16, "expected ';', found ''"),
    (parse, "x = Z;", 1, 1, "expected 'def' or 'main' (found 'x')"),
    (parse, "main = <Z | a0>;\n\n   foo", 3, 4, "expected 'def' or 'main' (found 'foo')"),
]


@pytest.mark.parametrize(
    "parse_fn, text, line, col, message", ERRORS, ids=[f"{p.__name__}:{t!r}" for p, t, *_ in ERRORS]
)
def test_error_position_and_message(parse_fn, text, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse_fn(text)
    assert (exc.value.line, exc.value.col, exc.value.reason) == (line, col, message)
    assert str(exc.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("text, col", [("main = <² | a0>;", 9), ("main = <3² | a0>;", 10), ("f ½", 3)])
def test_non_decimal_digits_are_unexpected_characters(text, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col, exc.value.reason) == (1, col, f"unexpected character {text[col - 1]!r}")


def test_eof_after_a_trailing_comment_is_at_the_end_of_the_text():
    assert tokenize("x -- note")[-1] == Token("eof", "", 1, 10)


def test_blanks_at_the_end_of_a_line_or_of_the_text_give_no_token():
    assert tokenize("x \t\r\n  y  ") == [Token("ident", "x", 1, 1), Token("ident", "y", 2, 3), Token("eof", "", 2, 6)]
    assert tokenize("x" + " " * 5000) == [Token("ident", "x", 1, 1), Token("eof", "", 1, 5002)]
    assert parse("main = <Z | a0>; \t\n   ").main == Command(Zero(), CoVar("a0"))


PIECES = sorted(KEYWORDS) + SYMBOLS + ["x", "f", "a0", "0", "12", "_", "-- note", "\n", "é", "٣", "²"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PIECES), st.sampled_from(["", " "])), max_size=40))
def test_fuzzed_text_raises_nothing_but_parse_errors(pieces):
    text = "".join(piece + sep for piece, sep in pieces)
    for parse_fn in (parse, parse_term, parse_coterm, parse_command):
        try:
            parse_fn(text)
        except ParseError:
            pass
