"""Command-line interface: check, run, observe, expand, dualize, bench.

Exit codes: 0 success, 1 type error, 2 stuck or out of fuel, 3 usage or
parse error, or input nested deeper than the recursion limit allows.
``--json`` wraps failures as {"error": ...} objects.  The environment
variable DUALITY_VM_FUEL overrides the default step budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import EXPERIMENTS, UnknownExperiment, report, run_experiment
from .duality import NotDualizable, dual_command
from .kernel import (
    Command,
    CoVar,
    Nat,
    Strategy,
    Stream,
    pretty,
    type_str,
    well_formed,
)
from .machine import (
    DEFAULT_FUEL,
    ElementNotNatError,
    OutOfFuelError,
    StuckError,
    force_numeral,
    observe_stream,
    run,
)
from .parser import ParseError, parse
from .surface import Compiler, OracleError, prelude
from .typechecker import TypeCheckError

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 3


def _default_fuel() -> int:
    env = os.environ.get("DUALITY_VM_FUEL")
    if env:
        try:
            n = int(env)
            if n > 0:
                return n
        except ValueError:
            pass
        raise SystemExit(f"DUALITY_VM_FUEL must be a positive integer, got {env!r}")
    return DEFAULT_FUEL


def _read_program(path: str):
    if path == "-":
        return parse(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


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
    prog = _read_program(args.file)
    comp = Compiler(prog, Strategy(args.strategy))
    types = {}
    for name in prog.defs:
        types[name] = comp.lookup_def(name, f"def {name}")[0]
    main_desc = None
    if prog.main is not None:
        ty, node = comp.main()
        if isinstance(node, Command):
            main_desc = "command (cut is consistent)"
        else:
            main_desc = type_str(ty)
    if rep.as_json:
        rep.emit({
            "defs": {n: type_str(t) for n, t in types.items()},
            "main": main_desc,
        })
    else:
        for name, ty in types.items():
            print(f"{name} : {type_str(ty)}")
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
    if res.outcome != "Final":
        reason = res.stats.stuck_reason or "out of fuel"
        if rep.as_json:
            print(json.dumps(res.stats.to_json()))
        return rep.error(reason, EXIT_RUNTIME)
    # The forcing phase spends the same budget and is counted in the same stats.
    value = force_numeral(res.final.producer, s, args.fuel - res.stats.fuel_used, res.stats)
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
    prog = _read_program(args.file)
    s = Strategy(args.strategy)
    comp = Compiler(prog, s)
    lines = []
    for name in prog.defs:
        ty, term = comp.lookup_def(name, f"def {name}")
        lines.append(f"def {name} : {type_str(ty)} = {pretty(term)};")
    if prog.main is not None:
        ty, node = comp.main()
        lines.append(f"main = {pretty(node)};")
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
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part]


def _cmd_bench(args, rep: _Reporter) -> int:
    sizes = _parse_sizes(args.sizes)
    curves = [run_experiment(args.experiment, Strategy(args.strategy), sizes, args.fuel)]
    fmt = "json" if rep.as_json else ("csv" if args.csv else "table")
    print(report(curves, fmt))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="duality-vm",
        description="Abstract machine for numeric recursion and stream corecursion",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_file=True):
        sp.add_argument("--strategy", choices=["cbv", "cbn"], default="cbv")
        sp.add_argument("--fuel", type=int, default=_default_fuel())
        sp.add_argument("--json", action="store_true")
        if with_file:
            sp.add_argument("file", help="program file, or - for stdin")

    sp = sub.add_parser("check", help="type-check a program")
    common(sp)
    sp = sub.add_parser("run", help="execute main and print the result")
    sp.add_argument("--trace", action="store_true", help="emit step trace as JSON lines")
    common(sp)
    sp = sub.add_parser("observe", help="read one element of a stream definition")
    sp.add_argument("--depth", type=int, default=0)
    sp.add_argument("name", help="definition name (prelude names if no file)")
    common(sp, with_file=False)
    sp.add_argument("file", nargs="?", default=None, help="program file (optional)")
    sp = sub.add_parser("expand", help="print the compiled machine-level program")
    common(sp)
    sp = sub.add_parser("dualize", help="print the dual of the main command")
    common(sp)
    sp = sub.add_parser("bench", help="run a step-count experiment")
    sp.add_argument("experiment", choices=sorted(EXPERIMENTS))
    sp.add_argument("--sizes", default="1..30", help="e.g. 1..50 or 1,2,4,8")
    sp.add_argument("--csv", action="store_true")
    common(sp, with_file=False)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except SystemExit as ex:
        if isinstance(ex.code, str):
            print(f"error: {ex.code}", file=sys.stderr)
            return EXIT_USAGE
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
    except (OutOfFuelError, StuckError, ElementNotNatError) as ex:
        return rep.error(str(ex), EXIT_RUNTIME)
    except (NotDualizable, UnknownExperiment, OracleError, ValueError) as ex:
        return rep.error(str(ex), EXIT_USAGE)
    except FileNotFoundError as ex:
        return rep.error(str(ex), EXIT_USAGE)
    except RecursionError:
        return rep.error("input nested too deeply", EXIT_USAGE)


def entry() -> None:
    sys.setrecursionlimit(20000)
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
