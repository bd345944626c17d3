import json
import math

import numpy as np
import pytest

from rankone.experiments import (
    Check,
    UsageError,
    VerificationReport,
    estimate_ratio_distribution,
    export_report,
    render_report,
    report_to_dict,
    verify_bw_l2_constant,
    tail_empirical_vs_bound,
    trend_large_d,
    verify_bounds,
)
from rankone.spectral import MaximizerConfig
from rankone.tensor import REAL

CFG = MaximizerConfig(starts=6, max_iters=300)


def test_rank_one_fixture_all_ratios_one():
    stats = estimate_ratio_distribution(
        "rank_one", {"shape": (3, 3, 3), "field": REAL}, 10, CFG, 1
    )
    assert stats.min == pytest.approx(1.0, abs=1e-9)
    assert stats.max == pytest.approx(1.0, abs=1e-9)
    assert all(conv for _, _, conv in stats.records)


def test_identity_fixture_exact_ratio():
    stats = estimate_ratio_distribution("identity", {"n": 5}, 3, CFG, 1)
    assert stats.mean == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-9)


def test_unknown_model_is_usage_error():
    with pytest.raises(UsageError):
        estimate_ratio_distribution("nope", {}, 1, CFG, 1)
    with pytest.raises(UsageError):
        estimate_ratio_distribution("identity", {"n": 5}, 0, CFG, 1)


def test_stats_are_schedule_independent():
    kw = dict(model="kostlan", params={"d": 3, "n": 2, "field": REAL}, samples=8, cfg=CFG, seed=3)
    s1 = estimate_ratio_distribution(**kw, workers=1)
    s2 = estimate_ratio_distribution(**kw, workers=4)
    assert s1.records == s2.records


def test_verify_bounds_gaussian_tensor_passes():
    rep = verify_bounds("gaussian_tensor", {"shape": (2, 2, 2), "field": REAL}, 30, CFG, 7)
    assert rep.all_passed
    names = [c.name for c in rep.checks]
    assert any("lower-bound" in n for n in names)
    assert rep.bound_info["lower"] == pytest.approx(0.5)


def test_verify_bounds_includes_complex_real_check():
    rep = verify_bounds("kostlan", {"d": 3, "n": 2, "field": REAL}, 6, CFG, 9)
    assert rep.all_passed
    assert any("real-vs-complex-norm" in c.name for c in rep.checks)


def test_tail_projection_edge_cases():
    rep = tail_empirical_vs_bound("projection", {"N": 10, "k": 3}, 2000, [0.0, 1.5], 11)
    by_name = {c.name: c for c in rep.checks}
    t0 = by_name["tail-projection-t=0 [projection-tail]"]
    assert t0.lhs == pytest.approx(1.0)  # empirical survival at 0
    t_big = by_name["tail-projection-t=1.5 [projection-tail]"]
    assert t_big.lhs == 0.0  # ratios never exceed 1
    assert rep.all_passed


def test_tail_projection_oracle_value():
    # survival at t=0.9 is the Beta(1.5, 3.5) tail at 0.81, about 0.004,
    # far below the bound 3 e^{-2.7/e^2} ~ 2.07
    rep = tail_empirical_vs_bound("projection", {"N": 10, "k": 3}, 5000, [0.9], 13)
    c = rep.checks[0]
    assert c.passed
    assert c.lhs < 0.02


def test_tail_requires_enough_samples():
    with pytest.raises(UsageError):
        tail_empirical_vs_bound("projection", {"N": 10, "k": 3}, 50, [0.5], 1)
    with pytest.raises(UsageError):
        tail_empirical_vs_bound("projection", {"N": 10, "k": 3}, 500, [], 1)


def test_verify_bw_l2_constant_cases():
    for d, n in [(1, 3), (2, 4), (3, 2)]:
        rep = verify_bw_l2_constant(d, n)
        assert rep.all_passed, (d, n)
    with pytest.raises(UsageError):
        verify_bw_l2_constant(9, 2)


def test_trend_large_d_report():
    rep = trend_large_d(2, [4, 6, 8], 4, 17, CFG)
    assert rep.all_passed
    rows = rep.bound_info["rows"]
    assert len(rows) == 3
    assert all({"d", "lower", "upper", "empirical_min"} <= set(r) for r in rows)
    with pytest.raises(UsageError):
        trend_large_d(2, [6, 4], 4, 17, CFG)


def test_export_json_round_trip(tmp_path):
    rep = verify_bw_l2_constant(2, 3)
    p = tmp_path / "rep.json"
    export_report(rep, str(p), "json")
    data = json.loads(p.read_text())
    assert data["title"] == rep.title
    parsed = [
        (c["name"], c["relation"], float(c["lhs"]), float(c["rhs"]), c["passed"])
        for c in data["checks"]
    ]
    expected = [
        (c.name, c.relation, float("%.12e" % c.lhs), float("%.12e" % c.rhs), c.passed)
        for c in rep.checks
    ]
    assert parsed == expected


def test_export_csv_row_count(tmp_path):
    rep = verify_bounds("kostlan", {"d": 3, "n": 2, "field": REAL}, 5, CFG, 21)
    p = tmp_path / "rep.csv"
    export_report(rep, str(p), "csv")
    lines = p.read_text().splitlines()
    assert len(lines) == 1 + len(rep.checks) + 5  # header + checks + records


def test_reports_identical_across_workers():
    kw = dict(model="kostlan", params={"d": 3, "n": 2, "field": REAL}, samples=8, cfg=CFG, seed=23)
    r1 = verify_bounds(**kw, workers=1)
    r2 = verify_bounds(**kw, workers=4)
    assert render_report(r1, "json") == render_report(r2, "json")


def test_export_bad_path():
    rep = verify_bw_l2_constant(2, 3)
    with pytest.raises(OSError):
        export_report(rep, "/nonexistent-dir/x.json", "json")


def test_report_checks_carry_tags():
    rep = verify_bounds("gaussian_tensor", {"shape": (2, 2, 2), "field": REAL}, 5, CFG, 29)
    for c in rep.checks:
        assert "[" in c.name and "]" in c.name


def test_complex_real_check_reports_measured_pair():
    rep = verify_bounds("kostlan", {"d": 4, "n": 2, "field": REAL}, 6, CFG, 31)
    (check,) = [c for c in rep.checks if "real-vs-complex-norm" in c.name]
    assert check.passed
    assert 0.0 < check.lhs <= check.rhs


def test_recertified_values_replace_the_first_ones(monkeypatch):
    import rankone.experiments as ex

    seed, target = 33, 3
    real = ex._ratio_with_flag

    def fake(obj, cfg):
        # sample 3 falls below the bound with CFG.starts and passes the recheck
        if cfg.seed == ex._cfg_seed(seed, target):
            return (0.4, True) if cfg.starts == CFG.starts else (0.99, True)
        return real(obj, cfg)

    monkeypatch.setattr(ex, "_ratio_with_flag", fake)
    rep = verify_bounds("gaussian_tensor", {"shape": (2, 2, 2), "field": REAL}, 8, CFG, seed)
    (stats,) = rep.stats
    others = [v for i, v, _ in stats.records if i != target]
    check = rep.checks[0]
    assert check.name.startswith("per-sample-ratio-ge-lower")
    assert check.passed
    assert check.lhs == min(others + [0.99])
    assert check.lhs < 0.99
