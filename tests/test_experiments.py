import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from rankone import _kernels, experiments
from rankone.bounds import DomainError
from rankone.experiments import (
    Check,
    RatioStats,
    Record,
    UsageError,
    VerificationReport,
    estimate_ratio_distribution,
    export_report,
    render_report,
    verify_bw_l2_constant,
    tail_empirical_vs_bound,
    trend_large_d,
    verify_bounds,
)
from rankone.poly import bw_norm
from rankone.spectral import MaximizerConfig
from rankone.tensor import COMPLEX, REAL

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
    # 20 samples: two chunks, so workers=4 runs them in two forked children
    kw = dict(model="kostlan", params={"d": 3, "n": 2, "field": REAL}, samples=20, cfg=CFG, seed=3)
    s1 = estimate_ratio_distribution(**kw, workers=1)
    s2 = estimate_ratio_distribution(**kw, workers=4)
    assert s1.records == s2.records


@pytest.mark.parametrize(
    "model, params",
    [
        ("kostlan", {"d": 8, "n": 2, "field": REAL}),
        ("kostlan", {"d": 4, "n": 3, "field": COMPLEX}),
        ("kostlan_multi", {"ds": (2, 3), "ns": (2, 2), "field": REAL}),
        ("gaussian_tensor", {"shape": (3, 3, 3), "field": REAL}),
    ],
    ids=["real-form", "complex-form", "multi-form", "tensor"],
)
def test_records_do_not_depend_on_the_chunk(monkeypatch, model, params):
    # every start's rows run the same arithmetic in a batch of 8 samples as
    # in one of 16, so the records are equal, not merely close
    cfg = MaximizerConfig(starts=4, max_iters=300)
    records = []
    for chunk in (8, 16):
        monkeypatch.setattr(experiments, "_CHUNK", chunk)
        records.append(estimate_ratio_distribution(model, params, 20, cfg, 41).records)
    assert records[0] == records[1]


class _ForkSpy:
    """Wraps the real ``os.fork``: each call forks, and the parent records
    the child's pid."""

    def __init__(self, fork):
        self.fork, self.children = fork, []

    def __call__(self):
        pid = self.fork()
        if pid:
            self.children.append(pid)
        return pid


@pytest.fixture
def forks(monkeypatch):
    spy = _ForkSpy(os.fork)
    monkeypatch.setattr(os, "fork", spy)
    return spy


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "samples, workers, made", [(33, 100_000, 3), (33, 2, 2), (16, 8, 0), (5, 1, 0)]
)
def test_pool_starts_no_more_processes_than_tasks(forks, samples, workers, made):
    # a large --workers must not fork more children than there are tasks:
    # 33 samples are three tasks, 16 are one, and one task or one worker
    # runs in process
    kw = dict(model="identity", params={"n": 3}, samples=samples, cfg=CFG, seed=1)
    stats = estimate_ratio_distribution(**kw, workers=workers)
    assert len(forks.children) == made
    assert stats.records == estimate_ratio_distribution(**kw).records
    _assert_no_child_left()


def _fail_on(failing):
    """A task function: the identity, except that task i in ``failing``
    raises ``failing[i]``."""

    def fn(i):
        if i in failing:
            raise failing[i]
        return i

    return fn


@pytest.mark.parametrize(
    "failing",
    [
        {3: ValueError("bad task 3")},
        # child 0 (tasks 0, 2, 4) fails first in time, child 1 first in task order
        {2: DomainError("need d >= 1, got 0"), 1: UsageError("unknown model 'x'")},
        {0: ZeroDivisionError("division by zero"), 4: KeyError("k")},
    ],
    ids=["one", "earlier-task-wins", "first-child"],
)
def test_worker_exception_reaches_caller_as_in_process(failing):
    # the first failing task in task order raises, with its type and message
    first = failing[min(failing)]
    for workers in (1, 2):
        with pytest.raises(type(first)) as exc:
            experiments._map(_fail_on(failing), list(range(5)), workers)
        assert type(exc.value) is type(first) and str(exc.value) == str(first)
    _assert_no_child_left()


def test_worker_that_ends_without_reporting_is_runtime_error():
    # child 0 leaves at once with status 3, child 1 would sleep for a minute:
    # the parent raises on child 0's status, kills child 1 and reaps both
    def fn(i):
        if i == 0:
            os._exit(3)
        time.sleep(60)

    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="^worker process ended by status 3 without reporting$"):
        experiments._map(fn, [0, 1], 2)
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


def test_worker_killed_by_a_signal_is_runtime_error():
    def fn(i):
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match=f"^worker process ended by signal {signal.SIGKILL.value} "):
        experiments._map(fn, [0, 1], 2)
    _assert_no_child_left()


def test_fan_out_without_fork_runs_in_process(monkeypatch):
    # a platform without os.fork runs the chunks in this process, with the
    # records of a forked run
    kw = dict(model="kostlan", params={"d": 3, "n": 2, "field": REAL}, samples=20, cfg=CFG, seed=3)
    forked = estimate_ratio_distribution(**kw, workers=2)
    monkeypatch.delattr(os, "fork")
    assert estimate_ratio_distribution(**kw, workers=2).records == forked.records


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_is_usage_error(forks, workers):
    with pytest.raises(UsageError, match=f"need workers >= 1, got {workers}"):
        estimate_ratio_distribution("identity", {"n": 3}, 40, CFG, 1, workers)
    assert forks.children == []


@pytest.mark.parametrize("workers", [0, -2])
def test_tail_checks_workers_on_entry(workers):
    # the projection tail draws its ratios in process, so only the entry
    # check can refuse a bad worker count
    with pytest.raises(UsageError, match=f"^need workers >= 1, got {workers}$"):
        tail_empirical_vs_bound("projection", {"N": 4, "k": 2}, 100, [0.5], 1, workers=workers)


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"seed": 1.5}, "need integer seed >= 0, got 1.5"),
        ({"samples": 2.5}, "need integer samples >= 1, got 2.5"),
        ({"samples": True}, "need integer samples >= 1, got True"),
        ({"samples": False}, "need integer samples >= 1, got False"),
        ({"workers": 2.5}, "need integer workers >= 1, got 2.5"),
        ({"workers": 1.5}, "need integer workers >= 1, got 1.5"),
        ({"workers": False}, "need integer workers >= 1, got False"),
    ],
    ids=[
        "float-seed",
        "float-samples",
        "bool-samples",
        "false-samples",
        "float-workers",
        "float-workers-above-1",
        "false-workers",
    ],
)
@pytest.mark.parametrize("run", [estimate_ratio_distribution, verify_bounds])
def test_non_integer_seed_samples_and_workers_are_refused(forks, run, kw, message):
    # refused on entry, not truncated (a float seed 1.5 would run as seed 1)
    args = {"samples": 3, "seed": 1, "workers": 1, **kw}
    with pytest.raises(DomainError, match=f"^{message}$"):
        run("kostlan", {"d": 3, "n": 2, "field": REAL}, args["samples"], CFG, args["seed"], args["workers"])
    assert forks.children == []


@pytest.mark.parametrize(
    "run, model, params, missing",
    [
        (lambda m, p: verify_bounds(m, p, 4, CFG, 1), "kostlan", {"d": 3}, "n"),
        (lambda m, p: verify_bounds(m, p, 4, CFG, 1), "kostlan_multi", {"field": REAL}, "ds, ns"),
        (lambda m, p: estimate_ratio_distribution(m, p, 4, CFG, 1), "kostlan", {}, "d, n"),
        (lambda m, p: estimate_ratio_distribution(m, p, 4, CFG, 1), "harmonic", {"n": 3}, "d"),
        (lambda m, p: tail_empirical_vs_bound(m, p, 100, [0.5], 1), "projection", {"N": 10}, "k"),
        (lambda m, p: tail_empirical_vs_bound(m, p, 100, [0.5], 1), "kostlan", {"n": 2}, "d"),
    ],
    ids=["verify", "verify-multi", "estimate", "estimate-no-field", "tail-projection", "tail-model"],
)
def test_missing_model_parameters_are_usage_errors(monkeypatch, run, model, params, missing):
    # named on entry, every one of them, before a sample is drawn
    monkeypatch.setattr(experiments, "_ratio_records", None)
    with pytest.raises(UsageError, match=f"^model {model!r} needs {missing}$"):
        run(model, params)


@pytest.mark.parametrize(
    "run, model, params, unknown",
    [
        (lambda m, p: estimate_ratio_distribution(m, p, 2, CFG, 1), "kostlan",
         {"d": 3, "n": 2, "feild": "complex"}, "feild"),
        (lambda m, p: verify_bounds(m, p, 4, CFG, 1), "harmonic",
         {"d": 3, "n": 2, "field": REAL, "shape": (2, 2)}, "field, shape"),
        (lambda m, p: tail_empirical_vs_bound(m, p, 100, [0.5], 1), "projection",
         {"N": 10, "k": 3, "d": 2}, "d"),
    ],
    ids=["estimate-misspelled-field", "verify-two-keys", "tail-projection"],
)  # fmt: skip
def test_unknown_model_parameters_are_usage_errors(monkeypatch, run, model, params, unknown):
    # a misspelled key must not run as the default it misses
    monkeypatch.setattr(experiments, "_ratio_records", None)
    with pytest.raises(UsageError, match=f"^model {model!r} has no parameter {unknown}$"):
        run(model, params)


@pytest.mark.parametrize(
    "run, params",
    [
        (lambda p: estimate_ratio_distribution("kostlan", p, 4, CFG, 1).records, {"d": 3, "n": 2}),
        (lambda p: verify_bounds("kostlan", p, 4, CFG, 1).checks, {"d": 3, "n": 2}),
        (lambda p: tail_empirical_vs_bound("projection", p, 100, [0.5], 1).checks, {"N": 10, "k": 3}),
    ],
    ids=["estimate", "verify", "tail-projection"],
)
def test_missing_field_reads_as_real(run, params):
    assert run(params) == run({**params, "field": REAL})


def test_numpy_integer_seed_samples_and_workers_are_accepted():
    kw = dict(model="kostlan", params={"d": 3, "n": 2, "field": REAL}, cfg=CFG)
    stats = estimate_ratio_distribution(**kw, samples=np.int64(3), seed=np.int64(4), workers=np.int64(1))
    assert stats.records == estimate_ratio_distribution(**kw, samples=3, seed=4).records


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
    for samples in (50, -5, np.int64(99)):
        with pytest.raises(UsageError, match=f"^need samples >= 100, got {samples}$"):
            tail_empirical_vs_bound("projection", {"N": 10, "k": 3}, samples, [0.5], 1)
    with pytest.raises(UsageError):
        tail_empirical_vs_bound("projection", {"N": 10, "k": 3}, 500, [], 1)


@pytest.mark.parametrize("samples", [100.5, True, False])
@pytest.mark.parametrize(
    "model, params",
    [("projection", {"N": 10, "k": 2}), ("kostlan", {"d": 3, "n": 2, "field": REAL})],
    ids=["projection", "kostlan"],
)
def test_tail_sample_count_must_be_an_integer(model, params, samples):
    # refused on entry, not truncated: 100.5 used to end in a bare TypeError
    # from range(samples) and True to read as "need samples >= 100"
    with pytest.raises(DomainError, match=f"^need integer samples >= 100, got {samples!r}$"):
        tail_empirical_vs_bound(model, params, samples, [0.5], 1)


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng, n: rng.random(n),
        lambda rng, n: np.full(n, rng.random()),
        lambda rng, n: rng.integers(1, 5, n) / 7.0,
        lambda rng, n: np.sort(rng.random(n))[::-1],
    ],
    ids=["random", "constant", "tied", "reversed"],
)
def test_quantiles_are_numpys_linear_quantiles_bit_for_bit(draw):
    rng = np.random.default_rng(24)
    for n in range(1, 301):
        vals = draw(rng, n)
        got = experiments._quantiles(vals.tolist(), (0.1, 0.5, 0.9))
        assert _hex(got) == _hex(np.quantile(vals, [0.1, 0.5, 0.9])), n


def test_ratio_statistics_quantiles_are_numpys():
    stats = estimate_ratio_distribution("kostlan", {"d": 3, "n": 2, "field": REAL}, 37, CFG, 3)
    vals = np.array([r.ratio for r in stats.records])
    q = stats.quantiles
    assert _hex([q["q10"], q["q50"], q["q90"]]) == _hex(np.quantile(vals, [0.1, 0.5, 0.9]))


def test_tail_bound_is_checked_before_sampling(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "spectral_value_many", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="need d >= 1, got 0"):
        tail_empirical_vs_bound("kostlan", {"d": 0, "n": 2, "field": REAL}, 100, [0.5], 1)
    assert calls == []


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


def test_empty_d_grid_is_usage_error():
    # a report whose only check compares nothing would pass
    with pytest.raises(UsageError, match="^empty d grid$"):
        trend_large_d(2, [], 2, 0)


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


def test_rendered_report_is_pinned():
    # a hand-built report: no optimizer runs, so the rendered text is fixed
    stats = RatioStats(
        model="kostlan",
        params={"d": 3, "n": 2, "field": "real", "shape": (2, 2)},
        sample_count=2,
        records=(Record(0, 0.5, True), Record(1, 1.0 / 3.0, False)),
        min=1.0 / 3.0,
        mean=5.0 / 12.0,
        max=0.5,
        quantiles={"q50": 0.4, "q10": 0.35, "q90": 0.48},
        stderr=0.0625,
    )
    rep = VerificationReport(
        title="golden",
        checks=(
            Check("lower [lower-bound]", ">=", 1.0 / 3.0, 0.125, True),
            Check("mean [expectation-bound]", "<=", 5.0 / 12.0, 2e-300, False),
        ),
        stats=(stats,),
        bound_info={"lower": 0.125, "vacuous": False, "provenance": ("a", "b"), "extras": {"z": 1e10}},
        metadata={"seed": 7, "samples": 2, "config": {"starts": 4, "tol": 1e-12}},
    )
    expected = {
        "bound_info": {
            "extras": {"z": "1.000000000000e+10"},
            "lower": "1.250000000000e-01",
            "provenance": ["a", "b"],
            "vacuous": False,
        },
        "checks": [
            {
                "lhs": "3.333333333333e-01",
                "name": "lower [lower-bound]",
                "passed": True,
                "relation": ">=",
                "rhs": "1.250000000000e-01",
            },
            {
                "lhs": "4.166666666667e-01",
                "name": "mean [expectation-bound]",
                "passed": False,
                "relation": "<=",
                "rhs": "2.000000000000e-300",
            },
        ],
        "metadata": {"config": {"starts": 4, "tol": "1.000000000000e-12"}, "samples": 2, "seed": 7},
        "stats": [
            {
                "max": "5.000000000000e-01",
                "mean": "4.166666666667e-01",
                "min": "3.333333333333e-01",
                "model": "kostlan",
                "params": {"d": 3, "field": "real", "n": 2, "shape": [2, 2]},
                "quantiles": {
                    "q10": "3.500000000000e-01",
                    "q50": "4.000000000000e-01",
                    "q90": "4.800000000000e-01",
                },
                "records": [[0, "5.000000000000e-01", True], [1, "3.333333333333e-01", False]],
                "sample_count": 2,
                "stderr": "6.250000000000e-02",
            }
        ],
        "title": "golden",
    }
    # the exact text: sorted keys, two-space indent, one trailing newline
    assert render_report(rep, "json") == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    assert render_report(rep, "csv") == (
        "kind,name,relation,lhs,rhs,passed\n"
        "check,lower [lower-bound],>=,3.333333333333e-01,1.250000000000e-01,True\n"
        "check,mean [expectation-bound],<=,4.166666666667e-01,2.000000000000e-300,False\n"
        "record,kostlan,0,5.000000000000e-01,,True\n"
        "record,kostlan,1,3.333333333333e-01,,False\n"
    )


def test_export_csv_row_count(tmp_path):
    rep = verify_bounds("kostlan", {"d": 3, "n": 2, "field": REAL}, 5, CFG, 21)
    p = tmp_path / "rep.csv"
    export_report(rep, str(p), "csv")
    lines = p.read_text().splitlines()
    assert len(lines) == 1 + len(rep.checks) + 5  # header + checks + records


def test_reports_identical_across_workers():
    # 20 samples: two chunks, so workers=4 runs them in two forked children
    kw = dict(model="kostlan", params={"d": 3, "n": 2, "field": REAL}, samples=20, cfg=CFG, seed=23)
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


def test_complex_real_check_reuses_record_values(monkeypatch):
    import rankone.experiments as ex

    calls = []
    ascent = ex.spectral_norm_symmetric

    def spy(f, cfg, over_field=None, seeds=None):
        calls.append((over_field, len(f), seeds))
        return ascent(f, cfg, over_field, seeds)

    monkeypatch.setattr(ex, "spectral_norm_symmetric", spy)
    params = {"d": 4, "n": 2, "field": REAL}
    rep = verify_bounds("kostlan", params, 6, CFG, 31)
    # one complex batch of the first 5 samples; no real ascent is run a second time
    assert calls == [(COMPLEX, 5, [ex._cfg_seed(31, i) for i in range(5)])]
    (stats,) = rep.stats
    (check,) = [c for c in rep.checks if "real-vs-complex-norm" in c.name]
    real_norms = [
        v * bw_norm(ex._draw("kostlan", params, 31, i)) for i, v, _ in stats.records[:5]
    ]
    assert check.rhs in [4.0 * vr for vr in real_norms]


@pytest.mark.parametrize("samples", [1, 3, 16])
def test_complex_real_check_batch_picks_the_per_sample_pair(samples):
    # check (d) batches min(5, samples) complex ascents; its pair must be the
    # one the per-sample ascents give under the smallest-margin rule
    import dataclasses

    import rankone.experiments as ex

    params, seed = {"d": 6, "n": 2, "field": REAL}, 37
    rep = verify_bounds("kostlan", params, samples, CFG, seed)
    (stats,) = rep.stats
    (check,) = [c for c in rep.checks if "real-vs-complex-norm" in c.name]
    pairs = []
    for idx, v, _ in stats.records[:5]:
        f = ex._draw("kostlan", params, seed, idx)
        one = ex.spectral_norm_symmetric(
            f, dataclasses.replace(CFG, seed=ex._cfg_seed(seed, idx)), over_field=COMPLEX
        )
        pairs.append((one.value, 8.0 * (v * bw_norm(f))))
    assert len(pairs) == min(5, samples)
    assert (check.lhs, check.rhs) == min(pairs, key=lambda p: p[1] - p[0])


def test_recertified_values_replace_the_first_ones(monkeypatch):
    import dataclasses

    import rankone.experiments as ex

    seed, target = 33, 3
    real_many = ex.spectral_value_many

    def fake(objs, cfg, seeds):
        # sample 3 falls below the bound in the Monte Carlo pass and passes
        # the recheck with 4x starts
        ratio = 0.99 if cfg.starts == 4 * CFG.starts else 0.4
        batch = real_many(objs, cfg, seeds)
        results = tuple(
            dataclasses.replace(res, value=ratio * ex.total_norm(obj))
            if s == ex._cfg_seed(seed, target)
            else res
            for obj, s, res in zip(objs, seeds, batch.results)
        )
        return dataclasses.replace(batch, results=results)

    monkeypatch.setattr(ex, "spectral_value_many", fake)
    rep = verify_bounds("gaussian_tensor", {"shape": (2, 2, 2), "field": REAL}, 8, CFG, seed)
    (stats,) = rep.stats
    others = [v for i, v, _ in stats.records if i != target]
    check = rep.checks[0]
    assert check.name.startswith("per-sample-ratio-ge-lower")
    assert check.passed
    assert check.lhs == min(others + [0.99])
    assert check.lhs < 0.99


def test_violators_are_recertified_in_one_batch(monkeypatch):
    import dataclasses

    import rankone.experiments as ex

    seed, low = 35, (1, 4, 6)
    real_many = ex.spectral_value_many
    calls = []

    def fake(objs, cfg, seeds):
        # samples 1, 4 and 6 fall below the bound in the Monte Carlo pass
        calls.append((cfg.starts, list(seeds)))
        batch = real_many(objs, cfg, seeds)
        if cfg.starts != CFG.starts:
            return batch
        results = tuple(
            dataclasses.replace(res, value=0.01 * res.value)
            if s in [ex._cfg_seed(seed, i) for i in low]
            else res
            for s, res in zip(seeds, batch.results)
        )
        return dataclasses.replace(batch, results=results)

    monkeypatch.setattr(ex, "spectral_value_many", fake)
    rep = verify_bounds("gaussian_tensor", {"shape": (2, 2, 2), "field": REAL}, 8, CFG, seed)
    assert calls == [
        (CFG.starts, [ex._cfg_seed(seed, i) for i in range(8)]),
        (4 * CFG.starts, [ex._cfg_seed(seed, i) for i in low]),
    ]
    assert rep.checks[0].passed


def _verify_below_a_high_bound(monkeypatch, model, params):
    """``verify_bounds`` of 6 samples under a lower bound of 0.99, which
    every sample misses, and the starts of each batch of records it ran."""
    import dataclasses

    import rankone.experiments as ex

    calls, records, bound_set = [], ex._ratio_records, ex.MODELS[model].bound_set

    def counted(args):
        calls.append(args[2].starts)
        return records(args)

    def high(p):
        return dataclasses.replace(bound_set(p), lower=0.99)

    monkeypatch.setitem(ex.MODELS, model, dataclasses.replace(ex.MODELS[model], bound_set=high))
    monkeypatch.setattr(ex, "_ratio_records", counted)
    return verify_bounds(model, params, 6, CFG, 39), calls


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_binary_forms_are_not_recertified(monkeypatch, field):
    # forms in two variables are searched without starts, so a sample below
    # the lower bound stands as a failure without a second batch with more
    # starts
    rep, calls = _verify_below_a_high_bound(monkeypatch, "kostlan", {"d": 4, "n": 2, "field": field})
    assert calls == [CFG.starts]
    assert not rep.checks[0].passed and rep.checks[0].lhs == rep.stats[0].min


@pytest.mark.parametrize(
    "model, params",
    [("kostlan", {"d": 4, "n": 3, "field": REAL}), ("harmonic", {"d": 4, "n": 3})],
    ids=["kostlan", "harmonic"],
)
def test_real_ternary_forms_are_not_recertified(monkeypatch, model, params):
    # real forms in three variables are searched without starts too
    rep, calls = _verify_below_a_high_bound(monkeypatch, model, params)
    assert calls == [CFG.starts]
    assert not rep.checks[0].passed and rep.checks[0].lhs == rep.stats[0].min


@pytest.mark.parametrize(
    "params",
    [{"d": 3, "n": 3, "field": COMPLEX}, {"d": 3, "n": 4, "field": REAL}],
    ids=["complex-ternary", "real-quaternary"],
)
def test_forms_outside_the_start_free_spaces_are_recertified(monkeypatch, params):
    # complex forms in three variables and real ones in four take the starts,
    # so the samples below the lower bound run again with 4x starts
    rep, calls = _verify_below_a_high_bound(monkeypatch, "kostlan", params)
    assert calls == [CFG.starts, 4 * CFG.starts]
    assert not rep.checks[0].passed


def test_record_unpacks_and_pickles_as_a_triple():
    import pickle

    rec = Record(2, 0.5, True)
    assert tuple(rec) == (2, 0.5, True)
    idx, ratio, conv = rec
    assert (idx, ratio, conv) == (rec.index, rec.ratio, rec.converged)
    assert pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize("n", [2, 5, 7])
def test_mean_of_equal_ratios_stays_within_them(n):
    # every ratio is 1/sqrt(n) up to an ulp, and numpy's mean of 100 of them
    # rounds above the largest, which the statistics must not refuse
    stats = estimate_ratio_distribution("identity", {"n": n}, 100, CFG, 0)
    assert stats.min <= stats.mean <= stats.max
    assert stats.mean == pytest.approx(1.0 / math.sqrt(n), abs=1e-15)


@pytest.mark.skipif(not _kernels._HEAP_KEPT, reason="libc without glibc's mallopt")
def test_repeated_verification_faults_in_almost_no_pages():
    # in a fresh interpreter, where no import (scipy's, say) has raised
    # glibc's mmap and trim thresholds: with the defaults every round's
    # temporaries were page-faulted back in, about 2,400 minor faults for
    # the third of these verifications
    code = (
        "import resource\n"
        "from rankone.experiments import render_report, verify_bounds\n"
        "from rankone.spectral import MaximizerConfig\n"
        "cfg = MaximizerConfig(starts=12, max_iters=400)\n"
        "for _ in range(3):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    render_report(verify_bounds('harmonic', {'d': 6, 'n': 3}, 16, cfg, 10200))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 200
