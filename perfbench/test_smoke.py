"""Smoke test of the benchmark at tiny sample counts.

    python3 -m pytest perfbench -q      (from the repository root, about a minute)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracer import LAYERS, Tracer, public_callables  # noqa: E402
from run import _per_pass  # noqa: E402
from workloads import CAL_REF_S, judge  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--samples", "2"]  # fmt: skip
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    *_, record, result = proc.stdout.splitlines()
    record, result = json.loads(record), json.loads(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    for key in ("nproc", "HAVE_NUMBA", "python", "numpy", "scipy", "commit", "src_sha256"):
        assert key in record["machine"]
    return record, result["metrics"]


def _values(metrics, spec_key):
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC[spec_key]
    }
    return {k: v["value"] for k, v in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics(workload):
    record, metrics = _result(workload, 0)
    values = _values(metrics, "end_to_end")
    assert all(v > 0 for v in values.values()), values
    for name in ("undershoot_frac", "unconverged_frac"):
        assert 0.0 <= record["end_to_end"][name] <= 1.0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_per_layer_metrics(workload):
    _, metrics = _result(workload, 1)
    v = _values(metrics, "per_layer")
    assert sum(v[f"{layer}.self_s"] for layer in LAYERS) <= v["trace.traced_wall_s"]
    assert v["spectral.calls"] > 0 and v["sampling.draw_calls"] > 0
    if workload == "tensors":
        assert v["kernels.points"] == 0 and v["kernels.eval_calls"] == 0
        assert v["tensor.contract_calls"] > 0
    else:
        assert v["kernels.points"] > 0 and v["kernels.grad_calls"] > 0
    if workload == "forms":
        assert v["tensor.contract_calls"] == 0
        assert v["experiments.check_d_s"] > 0
    if workload == "multi-cli":
        assert v["cli.self_s"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("forms", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrappers_sit_where_callers_look_names_up(monkeypatch):
    import rankone._kernels
    import rankone.experiments
    import rankone.spectral

    def evaluate_poly_batch(coeffs, expo, xs):  # stands in for a kernel added later
        return rankone._kernels.evaluate_poly_many(coeffs, expo, xs)

    evaluate_poly_batch.__module__ = "rankone._kernels"
    monkeypatch.setattr(rankone._kernels, "evaluate_poly_batch", evaluate_poly_batch, raising=False)
    assert {"evaluate_poly", "gradient_poly", "evaluate_poly_many", "evaluate_poly_batch"} <= set(
        public_callables(rankone._kernels)
    )
    original = rankone.spectral.evaluate_poly
    tracer = Tracer().install()
    try:
        assert rankone.spectral.evaluate_poly is not original
        assert rankone.spectral.evaluate_poly.__wrapped__ is original
        assert hasattr(rankone.experiments.kostlan_form, "__wrapped__")
        import numpy as np

        expo = rankone.poly.monomial_exponents(3, 2)
        rankone._kernels.evaluate_poly_batch(np.ones(len(expo)), expo, np.ones((5, 2)))
    finally:
        tracer.uninstall()
    assert rankone.spectral.evaluate_poly is original
    assert tracer.counters["kernels.points"] == 10  # the batch entry and the call inside it


def test_gate_counts_failures():
    good = {
        "checks": [{"name": "per-sample-ratio-ge-lower [lower-bound]", "passed": True}],
        "stats": [{"records": [[0, "5.0e-01", True], [1, "4.0e-01", False]]}],
    }
    ok = judge(0, json.dumps(good), None, 2, [0.5, 0.5])
    assert ok["error"] is None and ok["undershoot"] == 1 and ok["unconverged"] == 1
    assert judge(1, json.dumps(good), "boom", 2, [0.5, 0.5])["error"]
    bad_check = json.loads(json.dumps(good))
    bad_check["checks"][0]["passed"] = False
    assert judge(0, json.dumps(bad_check), None, 2, [0.5, 0.5])["error"]
    bad_ratio = json.loads(json.dumps(good))
    bad_ratio["stats"][0]["records"][0][1] = "1.5e+00"
    assert judge(0, json.dumps(bad_ratio), None, 2, [0.5, 0.5])["error"]


def test_pass_time_is_scaled_to_the_reference_speed():
    def op(setting, wall, cal):
        return {"setting": setting, "slot": 0, "samples": 4, "wall_s": wall, "cal_s": cal}

    # the host ran at half speed for the second repeat of setting 0
    ops = [op(0, 1.0, CAL_REF_S), op(0, 2.0, 2 * CAL_REF_S), op(1, 3.0, CAL_REF_S)]
    assert _per_pass(ops) == (8, pytest.approx(4.0))
    assert _per_pass(ops, scaled=False) == (8, pytest.approx(4.5))
