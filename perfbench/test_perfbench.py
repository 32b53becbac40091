"""Self-tests of the benchmark: deterministic inputs, failure detection,
metric names, and step counts against duality_vm.bench."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
run.setup_paths()

import pins  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def session():
    return run.Session()


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_program_list(workload):
    assert corpus.dump(corpus.generate(workload, 7)) == corpus.dump(corpus.generate(workload, 7))
    assert corpus.dump(corpus.generate(workload, 7)) != corpus.dump(corpus.generate(workload, 8))


def _small(workload: str, count: int):
    return sorted(corpus.generate(workload, 3), key=lambda j: (j.size, j.id))[:count]


def test_wrong_expected_answer_is_a_failure(session):
    jobs = _small("nat-cbn", 4) + _small("cli-small", 4)
    jobs = [j for j in jobs if j.expected is not None]
    bad = {jobs[0].id, jobs[-1].id}
    jobs = [dataclasses.replace(j, expected=j.expected + 1) if j.id in bad else j for j in jobs]
    rows = run.run_pass(jobs, session, Tracer(0), pins.load())
    assert {r.id for r in rows if r.verdict == "failed"} == bad
    assert all(r.verdict == "ok" for r in rows if r.id not in bad)


def test_known_defects_are_recorded_not_failed(session):
    # countNow 3 observed at depth 2 should give 1; call-by-name gives 2.
    p = {"d": 2, "n": 3}
    job = corpus.Job(id=0, family="countNow", strategy="cbn", size=2, params=p,
                     text=corpus.stream_text("countNow", p), depth=2, expected=1)
    (row,) = run.run_pass([job], session, Tracer(0), pins.load())
    assert row.verdict == "known_defect"
    (row,) = run.run_pass([dataclasses.replace(job, strategy="cbv")], session, Tracer(0), pins.load())
    assert row.verdict == "ok"


def test_pinned_counts_match_direct_counts(session):
    table = pins.load()
    for job in _small("streams", 12) + _small("nat-cbv", 6):
        got = run.count_steps(session, job.text, job.strategy, job.depth)
        assert pins.expected_steps(table, job.family, job.strategy, job.params) == got, job


@pytest.mark.parametrize("strategy", ["cbv", "cbn"])
def test_step_counts_equal_bench_experiments(session, strategy):
    from duality_vm.bench import run_experiment
    from duality_vm.kernel import Strategy

    sizes = list(range(0, 12))
    curve = run_experiment("pred-native", Strategy(strategy), sizes)
    table = pins.load()
    for n, stats in curve.points:
        bench = {t.value: k for t, k in stats.per_rule.items() if k}
        assert pins.expected_steps(table, "pred", strategy, {"n": n}) == bench
        assert run.count_steps(session, f"main = <pred | {n} . a0>;", strategy, None) == bench


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "cli-small",
                          "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert {w["name"] for w in spec["workloads"]} == set(corpus.WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nat-cbv", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("strategy", ["cbv", "cbn"])
def test_count_now_steps_track_bench_experiment(strategy):
    # bench runs <countNow | n . tail^n (head a0)>; the benchmark observes the
    # compiled application countNow n, whose wrapper costs one Mu and two
    # MuTilde more at every size.
    from duality_vm.bench import run_experiment
    from duality_vm.kernel import Strategy

    table = pins.load()
    curve = run_experiment("count-now", Strategy(strategy), list(range(0, 12)))
    for n, stats in curve.points:
        bench = {t.value: k for t, k in stats.per_rule.items() if k}
        bench["Mu"] += 1
        bench["MuTilde"] = bench.get("MuTilde", 0) + 2
        assert pins.expected_steps(table, "countNow", strategy, {"n": n, "d": n}) == bench
