"""Command-line interface: check, run, observe, expand, dualize, bench.

Exit codes: 0 success, 1 type error, 2 stuck or out of fuel, 3 usage or
parse error, an unreadable program file, or input nested deeper than the
recursion limit allows.  A usage error, as every other failure, ends in
one line on standard error; ``--help`` prints help and exits 0.  When
standard output is closed early (``duality-vm run --trace f | head -1``),
the command stops with one line on standard error and exit code 0: the
reader asked for no more.
``--json`` wraps every failure but a usage error as {"error": ...};
a failed run (in ``run``, ``observe`` or ``bench``) prints the stats it
spent first.  ``--fuel`` sets the step budget of ``run``, ``observe``
and ``bench``, ``DEFAULT_FUEL`` unless given.

``main`` builds its argument parser once per process and reuses it, which
saves an in-process caller about 2 ms a call; a one-shot CLI process
builds it once either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bench import EXPERIMENTS, report, run_experiment
from .duality import NotDualizable, dual_command
from .kernel import (
    CBV,
    Command,
    CoVar,
    Nat,
    Strategy,
    Stream,
    pretty,
    type_str,
    well_formed,
)
from .machine import DEFAULT_FUEL, MachineError, force_numeral, observe_stream, run
from .parser import ParseError, literal, parse
from .surface import Compiler, prelude
from .typechecker import TypeCheckError

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 3


class _Unreadable(Exception):
    """The program file could not be read (missing, a directory, ...)."""


def _read_program(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as ex:
        raise _Unreadable(str(ex)) from None
    return parse(text)


class _Reporter:
    def __init__(self, as_json: bool):
        self.as_json = as_json

    def emit(self, obj, text: str | None = None) -> None:
        if self.as_json:
            print(json.dumps(obj))
        else:
            print(text if text is not None else obj)

    def error(self, message: str, code: int) -> int:
        if self.as_json:
            print(json.dumps({"error": message}))
        else:
            print(f"error: {message}", file=sys.stderr)
        return code


def _cmd_check(args, rep: _Reporter) -> int:
    # Staging changes no type and no typing error, so one strategy serves.
    defs, main = Compiler(_read_program(args.file), CBV).check_program()
    types = {name: type_str(ty) for name, (ty, _) in defs.items()}
    main_desc = None
    if main is not None:
        main_desc = "command (cut is consistent)" if isinstance(main[1], Command) else type_str(main[0])
    if rep.as_json:
        rep.emit({"defs": types, "main": main_desc})
    else:
        for name, ty in types.items():
            print(f"{name} : {ty}")
        if main_desc is not None:
            print(f"main : {main_desc}")
    return EXIT_OK


def _cmd_run(args, rep: _Reporter) -> int:
    prog = _read_program(args.file)
    s = Strategy(args.strategy)
    comp = Compiler(prog, s)
    if prog.main is None:
        return rep.error("program has no main", EXIT_USAGE)
    ty, node = comp.main()
    if isinstance(node, Command):
        cmd = node
    else:
        if ty != Nat():
            return rep.error(f"main must have type Nat to run, found {type_str(ty)}", EXIT_TYPE)
        cmd = Command(node, CoVar("a0"))
    bad = well_formed(cmd, s)
    if bad:
        return rep.error("; ".join(map(str, bad)), EXIT_TYPE)
    res = run(cmd, s, args.fuel, trace=args.trace)
    if args.trace and res.trace is not None:
        for entry in res.trace:
            print(json.dumps(entry.to_json()))
        if res.trace_truncated:
            print(json.dumps({"truncated": True}))
    # The forcing phase spends the same budget and is counted in the same stats.
    value = force_numeral(res.answer("out of fuel"), s, args.fuel - res.stats.total, res.stats)
    if rep.as_json:
        rep.emit({"value": value, "final": pretty(res.final)})
        print(json.dumps(res.stats.to_json()))
    else:
        print(value)
        print(f"final: {pretty(res.final)}")
        stats = res.stats.to_json()
        per = " ".join(f"{k}={v}" for k, v in stats["perRule"].items())
        print(f"steps: {stats['total']} ({per})")
    return EXIT_OK


def _cmd_observe(args, rep: _Reporter) -> int:
    prog = _read_program(args.file) if args.file else prelude()
    s = Strategy(args.strategy)
    comp = Compiler(prog, s)
    if args.name not in prog.defs:
        return rep.error(f"no definition named {args.name!r}", EXIT_USAGE)
    ty, term = comp.lookup_def(args.name, args.name)
    if ty != Stream(Nat()):
        return rep.error(
            f"{args.name} : {type_str(ty)} is not a Stream Nat", EXIT_TYPE
        )
    value = observe_stream(term, args.depth, s, args.fuel)
    rep.emit({"name": args.name, "depth": args.depth, "value": value}, str(value))
    return EXIT_OK


def _cmd_expand(args, rep: _Reporter) -> int:
    defs, main = Compiler(_read_program(args.file), Strategy(args.strategy)).check_program()
    lines = [f"def {name} : {type_str(ty)} = {pretty(term)};" for name, (ty, term) in defs.items()]
    if main is not None:
        lines.append(f"main = {pretty(main[1])};")
    out = "\n".join(lines)
    rep.emit({"program": out}, out)
    return EXIT_OK


def _cmd_dualize(args, rep: _Reporter) -> int:
    # Duality is syntactic and the dualizable fragment has no closed terms,
    # so the raw main command is dualized as written, free names and all,
    # paired with their same-named partners.
    prog = _read_program(args.file)
    if prog.main is None or not isinstance(prog.main, Command):
        return rep.error("dualize needs a main command", EXIT_USAGE)
    dual = dual_command(prog.main)
    out = f"main = {pretty(dual)};"
    rep.emit({"program": out}, out)
    return EXIT_OK


def _parse_sizes(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(literal(lo), literal(hi) + 1))
    return [literal(part) for part in text.split(",") if part]


def _cmd_bench(args, rep: _Reporter) -> int:
    sizes = _parse_sizes(args.sizes)
    curves = [run_experiment(args.experiment, Strategy(args.strategy), sizes, args.fuel)]
    fmt = "json" if rep.as_json else ("csv" if args.csv else "table")
    print(report(curves, fmt))
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors end in one line and exit 3."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing changes nothing in it."""

    p = _ArgumentParser(
        prog="duality-vm",
        description="Abstract machine for numeric recursion and stream corecursion",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *flags, with_file=True):
        """Add to sp each shared flag named in flags ("strategy", "fuel"),
        --json, and the program file unless with_file is False."""

        if "strategy" in flags:
            sp.add_argument("--strategy", choices=["cbv", "cbn"], default="cbv")
        if "fuel" in flags:
            sp.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
        sp.add_argument("--json", action="store_true")
        if with_file:
            sp.add_argument("file", help="program file, or - for stdin")

    sp = sub.add_parser("check", help="type-check a program")
    common(sp)
    sp = sub.add_parser("run", help="execute main and print the result")
    sp.add_argument("--trace", action="store_true", help="emit step trace as JSON lines")
    common(sp, "strategy", "fuel")
    sp = sub.add_parser("observe", help="read one element of a stream definition")
    sp.add_argument("--depth", type=int, default=0)
    sp.add_argument("name", help="definition name (prelude names if no file)")
    common(sp, "strategy", "fuel", with_file=False)
    sp.add_argument("file", nargs="?", default=None, help="program file (optional)")
    sp = sub.add_parser("expand", help="print the compiled machine-level program")
    common(sp, "strategy")
    sp = sub.add_parser("dualize", help="print the dual of the main command")
    common(sp)
    sp = sub.add_parser("bench", help="run a step-count experiment")
    sp.add_argument("experiment", choices=sorted(EXPERIMENTS))
    sp.add_argument("--sizes", default="1..30", help="e.g. 1..50 or 2,4,6,8,10")
    sp.add_argument("--csv", action="store_true")
    common(sp, "strategy", "fuel", with_file=False)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else EXIT_OK
    rep = _Reporter(getattr(args, "json", False))
    handlers = {
        "check": _cmd_check,
        "run": _cmd_run,
        "observe": _cmd_observe,
        "expand": _cmd_expand,
        "dualize": _cmd_dualize,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args, rep)
    except ParseError as ex:
        return rep.error(f"parse error at {ex}", EXIT_USAGE)
    except TypeCheckError as ex:
        return rep.error(str(ex), EXIT_TYPE)
    except MachineError as ex:
        if rep.as_json and ex.stats is not None:
            print(json.dumps(ex.stats.to_json()))
        return rep.error(str(ex), EXIT_RUNTIME)
    except (NotDualizable, _Unreadable, ValueError) as ex:
        return rep.error(str(ex), EXIT_USAGE)
    except RecursionError:
        return rep.error("input nested too deeply", EXIT_USAGE)


def entry() -> None:
    sys.setrecursionlimit(20000)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so the flush
        # at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("duality-vm: output closed early, stopped", file=sys.stderr)
        code = EXIT_OK
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
