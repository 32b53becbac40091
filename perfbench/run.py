"""Wall-clock benchmark of duality_vm, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client, one thread, closed loop: each
program goes from text to a checked number (parse, compile and stage,
well_formed, run, force or observe) before the next one starts.  The
seeded program list is run in whole passes until the time is up; timings
are medians over passes.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  The last line of standard output is one JSON object;
a readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

FUEL = 10**6
RECURSION_LIMIT = 20000  # the CLI's own limit (duality_vm.cli.entry)
SETUP_PROBES = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("frontend_s", "s"),
    ("exec_s", "s"),
    ("steps_per_s", "1/s"),
    ("program_ms_p50", "ms"),
    ("program_ms_p90", "ms"),
    ("step_us_growth", "ratio"),
    ("code_nodes", "count"),
    ("peak_rss_mb", "MB"),
]

RULES = ["Mu", "MuTilde", "BetaArrow", "BetaZero", "BetaSucc", "BetaHead", "BetaTail",
         "BetaFst", "BetaSnd", "BetaInL", "BetaInR", "BetaNumZero", "BetaNumSucc"]

PER_LAYER = [
    ("parser.parse_s", "s"),
    ("parser.chars_per_s", "chars/s"),
    ("surface.compile_s", "s"),
    ("surface.is_value_calls", "count"),
    ("surface.is_value_s", "s"),
    ("surface.is_covalue_calls", "count"),
    ("surface.is_covalue_s", "s"),
    ("surface.staged_binders", "count"),
    ("typechecker.calls", "count"),
    ("kernel.well_formed_s", "s"),
    ("kernel.is_value_calls", "count"),
    ("kernel.is_value_s", "s"),
    ("kernel.is_covalue_calls", "count"),
    ("kernel.is_covalue_s", "s"),
    ("kernel.subst_calls", "count"),
    ("kernel.subst_s", "s"),
    ("kernel.fresh_name_calls", "count"),
    ("kernel.pretty_s", "s"),
    ("machine.step_calls", "count"),
    ("machine.step_self_s", "s"),
    ("machine.run_s", "s"),
    ("machine.force_s", "s"),
    ("machine.force_restarts", "count"),
    ("machine.observe_s", "s"),
    ("machine.steps_total", "count"),
    *[(f"machine.steps.{rule}", "count") for rule in RULES],
    ("machine.peak_cmd_nodes", "count"),
    ("duality.dual_s", "s"),
    ("cli.main_s", "s"),
    ("cli.trace_lines", "count"),
    ("check.known_defects", "count"),
    ("trace.overhead_share", "share"),
    ("trace.uncovered_share", "share"),
]


def setup_paths() -> bool:
    """Put the checkout's src on the path; False when it has none."""

    if not (SRC / "duality_vm" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


class Session:
    """The prelude compiled under both strategies, reused by every program
    whose text names prelude definitions."""

    def __init__(self):
        from duality_vm.kernel import CBN, CBV
        from duality_vm.surface import Compiler, prelude

        self.prelude = prelude()
        self.compilers = {}
        for s in (CBV, CBN):
            comp = Compiler(self.prelude, s)
            comp.check_program()
            self.compilers[s.value] = comp

    def parse(self, text: str):
        from duality_vm.parser import Parser

        return Parser(text, self.prelude.defs).program()

    def compile(self, program, strategy: str):
        from duality_vm.parser import Program

        comp = self.compilers[strategy]
        comp.program = Program(self.prelude.defs, program.main)
        return comp.main()


class Failed(Exception):
    pass


def _observed(node, depth):
    """The command the machine runs first: a number program's own main, or
    the stream cut against its head (the observation adds only tails)."""

    from duality_vm.kernel import Command, CoVar, Head

    return node if depth is None else Command(node, Head(CoVar("a0")))


def run_program(session: Session, tracer, job) -> int:
    """Text to number for a machine-workload program."""

    from duality_vm import kernel, machine
    from spans import FRONTEND

    s = kernel.Strategy(job.strategy)
    with tracer.span("parser.parse", FRONTEND):
        prog = session.parse(job.text)
    with tracer.span("surface.compile", FRONTEND):
        _, node = session.compile(prog, job.strategy)
    cmd = _observed(node, job.depth)
    with tracer.span("kernel.well_formed", FRONTEND):
        bad = kernel.well_formed(cmd, s)
    if bad:
        raise Failed("not well-formed: " + "; ".join(map(str, bad)))
    if job.depth is not None:
        return machine.observe_stream(node, job.depth, s, FUEL)
    res = machine.run(cmd, s, FUEL)
    if res.outcome != "Final":
        raise Failed(res.stats.stuck_reason or res.outcome)
    return machine.force_numeral(res.final.producer, s, FUEL)


def run_cli(tracer, job) -> str:
    """One in-process call of duality_vm.cli.main; returns its stdout."""

    from duality_vm import cli

    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(job.text)
    try:
        with redirect_stdout(out), redirect_stderr(err), tracer.span("cli.main"):
            code = cli.main(job.argv)
    finally:
        sys.stdin = stdin
    if code != 0:
        raise Failed(f"exit code {code}: {err.getvalue().strip() or out.getvalue().strip()}")
    return out.getvalue()


def count_steps(session: Session, text: str, strategy: str, depth) -> dict[str, int]:
    """Per-rule steps, both phases, of one machine program (for pinning)."""

    from spans import Tracer

    tracer = Tracer(0)
    job = corpus.Job(id=0, family="", strategy=strategy, size=0, params={}, text=text, depth=depth)
    with tracer.installed():
        run_program(session, tracer, job)
    return {tag.value: n for tag, n in tracer.steps.per_rule.items() if n}


# ---------------------------------------------------------------------------
# Checking


@dataclass
class Row:
    id: int
    total: float
    frontend: float
    exec: float
    steps: int
    per_rule: dict
    verdict: str  # "ok" | "known_defect" | "failed"
    reason: str = ""
    trace_lines: int = 0


def check_machine(job, value, per_rule: dict, pin_table: dict) -> tuple[str, str]:
    import pins

    pinned = pins.expected_steps(pin_table, job.family, job.strategy, job.params)
    if pinned is None:
        return "failed", "no pinned step counts for this program"
    if per_rule != pinned:
        return "failed", f"steps {per_rule} differ from pinned {pinned}"
    if value != job.expected:
        if job.known_defect:
            return "known_defect", f"answer {value}, intended {job.expected}"
        return "failed", f"answer {value}, expected {job.expected}"
    return "ok", ""


def check_cli(job, stdout: str) -> tuple[str, str, int]:
    """(verdict, reason, trace lines) from the printed output."""

    lines = stdout.splitlines()
    trace = [ln for ln in lines if ln.startswith('{"i"')]
    rest = lines[len(trace):]
    if job.expected is not None:
        first = rest[0] if rest else ""
        try:
            value = json.loads(first).get("value") if first.startswith("{") else int(first)
        except ValueError:
            return "failed", f"printed {first!r}, expected {job.expected}", len(trace)
        if value != job.expected:
            return "failed", f"printed {value}, expected {job.expected}", len(trace)
        return "ok", "", len(trace)
    if len(rest) != len(job.stdout) or not all(a.startswith(b) for a, b in zip(rest, job.stdout)):
        return "failed", f"printed {rest!r}, expected {job.stdout!r}", 0
    return "ok", "", 0


def run_pass(jobs, session, tracer, pin_table) -> list[Row]:
    from spans import EXEC, FRONTEND, clock

    rows = []
    with tracer.installed():
        for job in jobs:
            gc.collect()  # outside the timed region; GC stays on inside it
            tracer.new_program(job.id)
            t0 = clock()
            error = None
            try:
                with tracer.span("program"):
                    got = run_cli(tracer, job) if job.argv else run_program(session, tracer, job)
            except Exception as ex:  # RecursionError, fuel, stuck, wrong output
                got, error = None, f"{type(ex).__name__}: {ex}"
            total = clock() - t0
            per_rule = {t.value: n for t, n in tracer.steps.per_rule.items() if n}
            lines = 0
            if error is not None:
                verdict, reason = "failed", error
            elif job.argv:
                verdict, reason, lines = check_cli(job, got)
            else:
                verdict, reason = check_machine(job, got, per_rule, pin_table)
            rows.append(Row(job.id, total, tracer.phase[FRONTEND], tracer.phase[EXEC],
                            tracer.steps.total, per_rule, verdict, reason, lines))
    return rows


# ---------------------------------------------------------------------------
# Census: deterministic sizes, taken once and untimed


@dataclass
class Census:
    code_nodes: int = 0
    staged_binders: int = 0
    peak_cmd_nodes: int = 0
    chars: int = 0


def _source_binders(node, defs: dict, memo: dict) -> int:
    """mu/comu nodes in a parsed term, counting each referenced definition's
    source body where the reference stands."""

    from duality_vm.parser import Ref
    from spans import walk

    total = 0
    for n in walk(node, stop=Ref):
        if isinstance(n, Ref):
            if n.name not in memo:
                memo[n.name] = _source_binders(defs[n.name].body, defs, memo)
            total += memo[n.name]
        elif type(n).__name__ in ("Mu", "MuTilde"):
            total += 1
    return total


def take_census(jobs, session, with_peak: bool) -> Census:
    from duality_vm import duality, parser, surface
    from duality_vm.kernel import Strategy
    from spans import Tracer, node_census, peak_command_nodes

    census = Census()
    memo: dict = {}
    for job in jobs:
        census.chars += len(job.text)
        try:
            if job.argv:
                prog = parser.parse(job.text)
                defs, fmemo = prog.defs, {}
                if job.argv[0] == "dualize":
                    out = duality.dual_command(prog.main)
                else:
                    out = surface.Compiler(prog, Strategy(job.strategy)).main()[1]
            else:
                prog = session.parse(job.text)
                defs, fmemo = session.prelude.defs, memo
                out = session.compile(prog, job.strategy)[1]
            nodes, binders = node_census(out)
            census.code_nodes += nodes
            census.staged_binders += binders - _source_binders(prog.main, defs, fmemo)
            if with_peak:
                tracer = Tracer(0)
                with tracer.installed(), peak_command_nodes() as peak:
                    run_cli(tracer, job) if job.argv else run_program(session, tracer, job)
                census.peak_cmd_nodes = max(census.peak_cmd_nodes, peak[0])
        except Exception:  # the timed passes record this program's failure
            continue
    return census


def setup_times(count: int) -> list[float]:
    """Import-and-compile-the-prelude time of fresh processes."""

    out = []
    for _ in range(count):
        res = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                             capture_output=True, text=True, timeout=120, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# Metrics


def _median_by_program(passes: list[list[Row]], attr: str) -> dict[int, float]:
    by: dict[int, list[float]] = {}
    for rows in passes:
        for r in rows:
            by.setdefault(r.id, []).append(getattr(r, attr))
    return {k: statistics.median(v) for k, v in by.items()}


def step_us_growth(jobs, passes) -> float:
    """Geometric mean over families of (us/step of the largest third of the
    family's programs) / (us/step of its smallest third)."""

    exec_s = _median_by_program(passes, "exec")
    steps = {r.id: r.steps for r in passes[0]}
    families: dict[str, list] = {}
    for j in jobs:
        if steps[j.id] > 0:
            families.setdefault(f"{j.family}/{j.strategy}", []).append(j)
    logs = []
    for members in families.values():
        members.sort(key=lambda j: (j.size, j.id))
        k = len(members) // 3
        if k < 2:
            continue
        lo, hi = members[:k], members[-k:]

        def us_per_step(band):
            return sum(exec_s[j.id] for j in band) / sum(steps[j.id] for j in band)

        logs.append(math.log(us_per_step(hi) / us_per_step(lo)))
    return math.exp(sum(logs) / len(logs))


def end_to_end(jobs, passes, census: Census, setup: list[float]) -> dict[str, float]:
    """Each program's median over passes, summed over the list: one typical
    pass, which shrugs off a burst of noise that hits a few programs."""

    total = _median_by_program(passes, "total")
    exec_s = sum(_median_by_program(passes, "exec").values())
    prog_ms = sorted(1e3 * v for v in total.values())
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(total.values()),
        "frontend_s": sum(_median_by_program(passes, "frontend").values()),
        "exec_s": exec_s,
        "steps_per_s": sum(r.steps for r in passes[0]) / exec_s,
        "program_ms_p50": statistics.median(prog_ms),
        "program_ms_p90": statistics.quantiles(prog_ms, n=10)[8],
        "step_us_growth": step_us_growth(jobs, passes),
        "code_nodes": census.code_nodes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_pass(tracer, rows: list[Row], census: Census) -> dict[str, float]:
    agg, counts = tracer.agg, tracer.counts

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    per_rule: dict[str, int] = {}
    for r in rows:
        for rule, n in r.per_rule.items():
            per_rule[rule] = per_rule.get(rule, 0) + n
    programs = [rec for rec in tracer.records if rec[3] == "program"]
    covered: dict[int, float] = {}
    for sid, parent, _, name, start, end in tracer.records:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    traced = sum(end - start for _, _, _, _, start, end in programs)
    uncovered = sum(end - start - covered.get(sid, 0.0) for sid, _, _, _, start, end in programs)
    parse_s = total("parser.parse")
    out = {
        "parser.parse_s": parse_s,
        "parser.chars_per_s": census.chars / parse_s if parse_s else 0.0,
        "surface.compile_s": self_s("surface.compile"),
        "surface.is_value_calls": calls("surface.is_value"),
        "surface.is_value_s": total("surface.is_value"),
        "surface.is_covalue_calls": calls("surface.is_covalue"),
        "surface.is_covalue_s": total("surface.is_covalue"),
        "surface.staged_binders": census.staged_binders,
        "typechecker.calls": counts.get("typechecker.calls", 0),
        "kernel.well_formed_s": total("kernel.well_formed"),
        "kernel.is_value_calls": calls("kernel.is_value"),
        "kernel.is_value_s": total("kernel.is_value"),
        "kernel.is_covalue_calls": calls("kernel.is_covalue"),
        "kernel.is_covalue_s": total("kernel.is_covalue"),
        "kernel.subst_calls": calls("kernel.subst"),
        "kernel.subst_s": total("kernel.subst"),
        "kernel.fresh_name_calls": counts.get("kernel.fresh_name", 0),
        "kernel.pretty_s": total("kernel.pretty"),
        "machine.step_calls": calls("machine.step"),
        "machine.step_self_s": self_s("machine.step"),
        "machine.run_s": total("machine.run"),
        "machine.force_s": total("machine.force"),
        "machine.force_restarts": counts.get("machine.force_restarts", 0),
        "machine.observe_s": total("machine.observe"),
        "machine.steps_total": sum(r.steps for r in rows),
        **{f"machine.steps.{rule}": per_rule.get(rule, 0) for rule in RULES},
        "machine.peak_cmd_nodes": census.peak_cmd_nodes,
        "duality.dual_s": total("duality.dual"),
        "cli.main_s": self_s("cli.main"),
        "cli.trace_lines": sum(r.trace_lines for r in rows),
        "check.known_defects": sum(r.verdict == "known_defect" for r in rows),
        "trace.uncovered_share": uncovered / traced,
    }
    return out


def per_layer(traced: list[dict], untraced: list[list[Row]], traced_rows: list[list[Row]]):
    out = {name: statistics.median(p[name] for p in traced) for name, _ in PER_LAYER
           if name != "trace.overhead_share"}
    wall_traced = statistics.median(sum(r.total for r in rows) for rows in traced_rows)
    wall_plain = statistics.median(sum(r.total for r in rows) for rows in untraced)
    out["trace.overhead_share"] = wall_traced / wall_plain - 1
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not setup_paths():
        print(f"error: no duality_vm sources under {SRC}", file=sys.stderr)
        return 2
    sys.setrecursionlimit(RECURSION_LIMIT)
    import pins
    from spans import Tracer, clock

    jobs = corpus.generate(args.workload, args.seed)
    session = Session()
    pin_table = pins.load()
    census = take_census(jobs, session, with_peak=bool(args.trace))
    setup = [] if args.trace else setup_times(SETUP_PROBES)

    untraced: list[list[Row]] = []
    traced_rows: list[list[Row]] = []
    traced: list[dict] = []
    start = clock()
    while True:
        t0 = clock()
        untraced.append(run_pass(jobs, session, Tracer(0), pin_table))
        if args.trace:
            tracer = Tracer(1)
            traced_rows.append(run_pass(jobs, session, tracer, pin_table))
            traced.append(per_layer_pass(tracer, traced_rows[-1], census))
        cycle = clock() - t0
        done = len(untraced) >= (MIN_TRACED_PASSES if args.trace else MIN_PASSES)
        if done and clock() + cycle > start + args.seconds:
            break

    all_rows = [r for rows in untraced + traced_rows for r in rows]
    failed = [r for r in all_rows if r.verdict == "failed"]
    if args.trace:
        metrics = per_layer(traced, untraced, traced_rows)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(jobs, untraced, census, setup)
        units = dict(END_TO_END)

    known = sum(r.verdict == "known_defect" for r in untraced[0])
    print(f"{args.workload} seed {args.seed}: {len(jobs)} programs x {len(untraced)} passes"
          f"{f' + {len(traced_rows)} traced' if args.trace else ''}; "
          f"{len(failed)} failed, {known} known-defect mismatches a pass", file=sys.stderr)
    for r in failed[:10]:
        job = jobs[r.id]
        print(f"  FAILED #{r.id} {job.family}/{job.strategy} {job.params}: {r.reason}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_rows),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
