"""Step-count experiments and exact growth classification.

The machine is deterministic, so cost curves are exact integer sequences
and growth classes come from finite differences rather than fitting, over
evenly spaced sizes: after a fixed warm-up prefix, constant first
differences of zero mean constant cost, constant nonzero first differences
mean linear, constant nonzero second differences mean quadratic.

Two experiments record the cost of a wrapper relative to the stream under
it (one projection deeper), so their curves are stat differences; the
rest record raw run stats.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .kernel import Command, CoVar, Head, Lam, Mu, Strategy, Term, numeral, Call
from .machine import DEFAULT_FUEL, RunStats, run, run_to_numeral, tails
from .parser import App, NumLit, Ref
from .surface import Compiler, encode_corec_via_coiter, encode_rec_via_iter, prelude
from .typechecker import EMPTY_ENV

WARMUP = 2


class GrowthClass(enum.Enum):
    CONSTANT = "Constant"
    LINEAR = "Linear"
    QUADRATIC = "Quadratic"
    OTHER = "Other"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class CostCurve:
    experiment: str
    strategy: Strategy
    points: tuple[tuple[int, RunStats], ...]

    def totals(self) -> list[int]:
        return [stats.total for _, stats in self.points]


def classify(curve: CostCurve) -> GrowthClass:
    """Exact finite-difference classification of the curve's totals."""

    totals = curve.totals()
    if len(totals) < 5:
        raise ValueError("classification needs at least 5 points")
    sizes = [n for n, _ in curve.points]
    if len({b - a for a, b in zip(sizes, sizes[1:])}) > 1:
        raise ValueError("classification needs evenly spaced sizes")
    t = totals[WARMUP:]
    d1 = [b - a for a, b in zip(t, t[1:])]
    if all(d == 0 for d in d1):
        return GrowthClass.CONSTANT
    if all(d == d1[0] for d in d1):
        return GrowthClass.LINEAR
    d2 = [b - a for a, b in zip(d1, d1[1:])]
    if d2 and all(d == d2[0] for d in d2) and d2[0] != 0:
        return GrowthClass.QUADRATIC
    return GrowthClass.OTHER


class UnknownExperiment(Exception):
    pass


def _stats_diff(a: RunStats, b: RunStats) -> RunStats:
    """Componentwise a - b; used for wrapper-overhead experiments."""

    per = dict(a.per_rule)
    for tag, n in b.per_rule.items():
        per[tag] = per.get(tag, 0) - n
    out = RunStats(per_rule=per, total=a.total - b.total)
    out.outcome = a.outcome
    return out


class _Experiments:
    """Builds the benchmark commands lazily, per strategy."""

    def __init__(self, strategy: Strategy, fuel: int = DEFAULT_FUEL):
        self.s = strategy
        self.fuel = fuel
        self.comp = Compiler(prelude(), strategy)

    def term(self, name: str) -> Term:
        return self.comp.lookup_def(name, name)[1]

    def _run(self, cmd: Command) -> RunStats:
        res = run(cmd, self.s, self.fuel)
        res.answer("benchmark run ran out of fuel")
        return res.stats

    # -- stream helpers

    def _observe_cmd(self, stream_term: Term, depth: int) -> Command:
        return Command(stream_term, tails(depth, Head(CoVar("a0"))))

    def _scons_term(self, encoded: bool, element: int = 1) -> Term:
        """scons (or its coiterator encoding) applied to a constant and the
        all-zero stream, compiled as an application chain."""

        if encoded:
            scons = self.term("scons")
            # scons = fun x => fun s => corec {...}; rewrite the corecursor.
            inner = scons.body.body
            enc = encode_corec_via_coiter(inner, self.s)
            fn: Term = Lam(scons.var, Lam(scons.body.var, enc, scons.body.annot), scons.annot)
        else:
            fn = Ref("scons")
        return self.comp.term(
            EMPTY_ENV, App(App(fn, NumLit(element)), Ref("zeroes")), None, "bench"
        )[1]

    # -- the registered experiments

    def pred_native(self, n: int) -> RunStats:
        # Forcing included: the cost is that of the observable number.
        cmd = Command(self.term("pred"), Call(numeral(n), CoVar("a0")))
        return run_to_numeral(cmd, self.s, self.fuel)[1]

    def pred_via_iter(self, n: int) -> RunStats:
        pred = self.term("pred")  # fun x => mu b. < x | rec {...} with b >
        mu = pred.body
        enc = encode_rec_via_iter(mu.body.consumer, self.s)
        encoded = Lam(pred.var, Mu(mu.covar, Command(mu.body.producer, enc), mu.annot), pred.annot)
        cmd = Command(encoded, Call(numeral(n), CoVar("a0")))
        return run_to_numeral(cmd, self.s, self.fuel)[1]

    def scons_overhead(self, n: int) -> RunStats:
        wrapped = self._run(self._observe_cmd(self._scons_term(encoded=False), n + 1))
        base = self._run(self._observe_cmd(self.term("zeroes"), n))
        return _stats_diff(wrapped, base)

    def count_now(self, n: int) -> RunStats:
        cmd = Command(self.term("countNow"), Call(numeral(n), tails(n, Head(CoVar("a0")))))
        return self._run(cmd)

    def corec_via_coiter(self, n: int) -> RunStats:
        wrapped = self._run(self._observe_cmd(self._scons_term(encoded=True), n + 1))
        base = self._run(self._observe_cmd(self.term("zeroes"), n))
        return _stats_diff(wrapped, base)


EXPERIMENTS = {
    "pred-native": _Experiments.pred_native,
    "pred-via-iter": _Experiments.pred_via_iter,
    "scons-overhead": _Experiments.scons_overhead,
    "count-now": _Experiments.count_now,
    "corec-via-coiter": _Experiments.corec_via_coiter,
}


def run_experiment(name: str, strategy: Strategy, sizes: list[int], fuel: int = DEFAULT_FUEL) -> CostCurve:
    """Record run stats for one experiment across ascending sizes."""

    if name not in EXPERIMENTS:
        raise UnknownExperiment(f"unknown experiment {name!r}; have {sorted(EXPERIMENTS)}")
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be nonempty and strictly increasing")
    exp = _Experiments(strategy, fuel)
    fn = EXPERIMENTS[name]
    points = tuple((n, fn(exp, n)) for n in sizes)
    return CostCurve(name, strategy, points)


def curve_json(curve: CostCurve) -> dict:
    return {
        "experiment": curve.experiment,
        "strategy": str(curve.strategy),
        "points": [
            {"n": n, "total": st.total, "perRule": st.to_json()["perRule"]}
            for n, st in curve.points
        ],
        "class": str(classify(curve)),
    }


def curve_table(curve: CostCurve) -> str:
    lines = [f"experiment {curve.experiment} [{curve.strategy}] -> {classify(curve)}"]
    lines.append(f"{'n':>6} {'total':>10}  per-rule")
    for n, st in curve.points:
        per = " ".join(f"{tag}={k}" for tag, k in st.to_json()["perRule"].items() if k)
        lines.append(f"{n:>6} {st.total:>10}  {per}")
    return "\n".join(lines)


def curve_csv(curve: CostCurve) -> str:
    tags = sorted({tag for _, st in curve.points for tag in st.per_rule}, key=lambda t: t.value)
    header = ["n", "total"] + [f"rule:{t.value}" for t in tags]
    rows = [",".join(header)]
    for n, st in curve.points:
        rows.append(",".join([str(n), str(st.total)] + [str(st.per_rule.get(t, 0)) for t in tags]))
    return "\n".join(rows)


def report(curves: list[CostCurve], fmt: str = "table") -> str:
    if fmt == "json":
        import json

        return json.dumps([curve_json(c) for c in curves], indent=2)
    if fmt == "csv":
        return "\n\n".join(curve_csv(c) for c in curves)
    return "\n\n".join(curve_table(c) for c in curves)
