"""Cost experiments: classification, registered curves, reporting."""

import json

import pytest

from duality_vm.bench import (
    CostCurve,
    GrowthClass,
    UnknownExperiment,
    classify,
    curve_csv,
    curve_json,
    report,
    run_experiment,
)
from duality_vm.kernel import CBN, CBV
from duality_vm.machine import RuleTag, RunStats


def fake_curve(totals):
    points = tuple((i + 1, RunStats(total=t)) for i, t in enumerate(totals))
    return CostCurve("fake", CBV, points)


# ---------------------------------------------------------------------------
# Classification


def test_classify_constant():
    assert classify(fake_curve([7, 7, 7, 7, 7])) == GrowthClass.CONSTANT


def test_classify_linear():
    assert classify(fake_curve([3, 6, 9, 12, 15, 18])) == GrowthClass.LINEAR


def test_classify_quadratic():
    assert classify(fake_curve([n * n for n in range(1, 9)])) == GrowthClass.QUADRATIC


def test_classify_other():
    assert classify(fake_curve([2 ** n for n in range(1, 9)])) == GrowthClass.OTHER


def test_classify_warmup_prefix_is_ignored():
    assert classify(fake_curve([99, 1, 5, 5, 5, 5])) == GrowthClass.CONSTANT


def test_classify_needs_five_points():
    with pytest.raises(ValueError):
        classify(fake_curve([1, 2, 3, 4]))


def test_classify_refuses_unevenly_spaced_sizes():
    # CBV pred costs 3n+3 steps; at sizes 1, 2, 4, 8, 16 the totals' first
    # differences double, which would read as growth of another class.
    points = tuple((n, RunStats(total=3 * n + 3)) for n in (1, 2, 4, 8, 16))
    with pytest.raises(ValueError, match="^classification needs evenly spaced sizes$"):
        classify(CostCurve("fake", CBV, points))


# ---------------------------------------------------------------------------
# Experiments


def test_unknown_experiment():
    with pytest.raises(UnknownExperiment):
        run_experiment("nope", CBV, [1, 2, 3, 4, 5])


def test_sizes_must_increase():
    with pytest.raises(ValueError):
        run_experiment("pred-native", CBV, [3, 2, 1])


def test_pred_native_per_rule_counts():
    sizes = list(range(1, 21))
    cbn = run_experiment("pred-native", CBN, sizes)
    assert all(st.count(RuleTag.BETA_SUCC) == 1 for _, st in cbn.points)
    assert classify(cbn) == GrowthClass.CONSTANT
    cbv = run_experiment("pred-native", CBV, sizes)
    assert all(st.count(RuleTag.BETA_SUCC) == n for n, st in cbv.points)
    assert classify(cbv) == GrowthClass.LINEAR


def test_pred_via_iter_linear_in_both():
    sizes = list(range(1, 13))
    for s in (CBV, CBN):
        curve = run_experiment("pred-via-iter", s, sizes)
        assert classify(curve) == GrowthClass.LINEAR
        assert all(st.count(RuleTag.BETA_SUCC) == n for n, st in curve.points)


def test_scons_overhead_classes():
    sizes = list(range(1, 13))
    # The wrapper costs a fixed amount relative to the stream under it in
    # call-by-value; in call-by-name the relative cost moves linearly.
    assert classify(run_experiment("scons-overhead", CBV, sizes)) == GrowthClass.CONSTANT
    assert classify(run_experiment("scons-overhead", CBN, sizes)) == GrowthClass.LINEAR


def test_count_now_cbv_linear():
    curve = run_experiment("count-now", CBV, list(range(2, 14)))
    assert classify(curve) == GrowthClass.LINEAR


def test_corec_via_coiter_cbv_linear_beta_tail():
    curve = run_experiment("corec-via-coiter", CBV, list(range(1, 13)))
    tails = [st.count(RuleTag.BETA_TAIL) for _, st in curve.points]
    diffs = {b - a for a, b in zip(tails, tails[1:])}
    assert diffs == {1}
    native = run_experiment("scons-overhead", CBV, list(range(1, 13)))
    assert {st.count(RuleTag.BETA_TAIL) for _, st in native.points} == {1}


def test_reproducible():
    a = run_experiment("pred-native", CBV, [1, 2, 3, 4, 5])
    b = run_experiment("pred-native", CBV, [1, 2, 3, 4, 5])
    assert a.totals() == b.totals()
    assert [dict(st.per_rule) for _, st in a.points] == [dict(st.per_rule) for _, st in b.points]


# ---------------------------------------------------------------------------
# Reporting


def test_curve_json_schema():
    curve = run_experiment("pred-native", CBV, [1, 2, 3, 4, 5])
    d = curve_json(curve)
    assert set(d) == {"experiment", "strategy", "points", "class"}
    assert set(d["points"][0]) == {"n", "total", "perRule"}
    json.dumps(d)


def test_curve_csv_columns():
    curve = run_experiment("pred-native", CBV, [1, 2, 3, 4, 5])
    lines = curve_csv(curve).splitlines()
    assert lines[0].startswith("n,total,rule:")
    assert len(lines) == 6


def test_report_formats():
    curve = run_experiment("pred-native", CBN, [1, 2, 3, 4, 5])
    assert "Constant" in report([curve])
    assert json.loads(report([curve], "json"))[0]["class"] == "Constant"
