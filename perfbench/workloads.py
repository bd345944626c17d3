"""Workloads of the rankone benchmark and the child process that runs them.

Each workload is a closed loop: one caller runs a round of verifications
(one per setting), waits for every report, checks it, and starts the next
round.  A round verifies one batch of a small fixed pool of input batches,
and a run makes whole passes over the pool, each pass in an order drawn from
the seed, until ``--seconds`` have passed.  Every pass therefore does the same
work, and each verification is timed several times:

- batch costs are heavy-tailed (a rare slow-converging sample costs as much
  as several batches), so a run over a seed-chosen subset of a larger pool
  spread by 10-30% between seeds;
- identical work varies by 10-60% in wall time on a shared 2-vCPU machine,
  in stretches of seconds to minutes, so every verification of the timed loop
  is paced by a calibration loop (``calibrate``) run just before and just
  after it, and ``run.py`` scales each wall time to the calibration's
  reference speed before taking the median of each verification's repeats.

The best-known ratio of every pooled sample is committed in
``reference.json`` (see ``make_reference.py``), so every run can tell
whether the optimizer fell short of it.

Child modes (``run.py`` starts them; each is a fresh interpreter):

    python3 perfbench/workloads.py setup  WORKLOAD
    python3 perfbench/workloads.py timed  WORKLOAD --seed S --seconds T
    python3 perfbench/workloads.py traced WORKLOAD --seed S

``timed`` and ``traced`` print one JSON object on stdout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

STARTS = 12  # MaximizerConfig(starts=12, ...) on every workload, as in criterion 03
TOLERANCE = 1e-6  # relative shortfall below the reference that counts as an undershoot
POOL = 2  # input batches per setting; one pass over them takes 3-5 s here
CLI_SHIM = "import sys; from rankone.cli import main; sys.exit(main())"  # the `rankone` script
CAL_LOOPS = 120_000  # size of the calibration loop, about 25 ms
CAL_REF_S = 0.025  # its median time on the machine the benchmark was built on (see README.md)


@dataclass(frozen=True)
class Workload:
    name: str
    settings: tuple  # (model, params) verified once per round
    samples: int  # Monte Carlo samples per verification
    max_iters: int
    workers: int  # worker processes of the untraced run; traced runs use 1
    seed_base: int
    via_cli: bool = False

    def batch_seed(self, setting, slot):
        return self.seed_base + 100 * setting + slot


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "forms",
            (
                ("kostlan", {"d": 8, "n": 2, "field": "real"}),
                ("kostlan", {"d": 8, "n": 2, "field": "complex"}),
                ("harmonic", {"d": 6, "n": 3}),
            ),
            samples=16,
            max_iters=400,
            workers=1,
            seed_base=10_000,
        ),
        Workload(
            "tensors",
            (
                ("gaussian_tensor", {"shape": (3, 3, 3), "field": "real"}),
                ("gaussian_tensor", {"shape": (4, 4, 4, 4), "field": "complex"}),
            ),
            samples=8,
            max_iters=400,
            workers=1,
            seed_base=20_000,
        ),
        Workload(
            "multi-cli",
            (("kostlan_multi", {"ds": (2, 3), "ns": (2, 2), "field": "real"}),),
            # 4 chunks of 8 (the pool's chunk size), so a worker on a busier
            # CPU takes fewer of them
            samples=32,
            max_iters=1000,  # the CLI's default: it has no flag for max_iters
            workers=2,
            seed_base=30_000,
            via_cli=True,
        ),
    )
}


def passes(seed):
    """Endless sequence of passes, each a seed-drawn order of the pool."""
    rng = random.Random(seed)
    while True:
        order = list(range(POOL))
        rng.shuffle(order)
        yield order


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)["ratios"]


def _draw(sampling, model, params, seed):
    if model == "kostlan":
        return sampling.kostlan_form(params["d"], params["n"], params["field"], seed)
    if model == "harmonic":
        return sampling.gaussian_harmonic(params["d"], params["n"], seed)
    if model == "gaussian_tensor":
        return sampling.gaussian_tensor(params["shape"], params["field"], seed)
    if model == "kostlan_multi":
        return sampling.kostlan_multi(params["ds"], params["ns"], params["field"], seed)
    raise ValueError(f"unknown model {model!r}")


def warm_up(wl):
    """Fill the first-call caches (harmonic basis, monomial tables)."""
    from rankone import sampling

    for k, (model, params) in enumerate(wl.settings):
        obj = _draw(sampling, model, params, wl.batch_seed(k, 0))
        getattr(obj, "exponents", None)


def _cli_argv(params, samples, seed, workers):
    return [
        "verify", "--model", "kostlan-multi",
        "--ds", ",".join(map(str, params["ds"])),
        "--ns", ",".join(map(str, params["ns"])),
        "--field", params["field"],
        "--samples", str(samples), "--seed", str(seed),
        "--starts", str(STARTS), "--workers", str(workers),
    ]  # fmt: skip


def _verify(wl, model, params, samples, seed, workers, subprocess_cli):
    """Run one verification; returns (exit code, report text, error)."""
    if wl.via_cli and subprocess_cli:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_SHIM, *_cli_argv(params, samples, seed, workers)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            cwd=ROOT,
            timeout=150,
        )
        return proc.returncode, proc.stdout, proc.stderr.strip()[-300:] or None
    import rankone.cli
    from rankone import experiments, spectral

    try:
        if wl.via_cli:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = rankone.cli.main(_cli_argv(params, samples, seed, workers))
            return code, buf.getvalue(), None
        cfg = spectral.MaximizerConfig(starts=STARTS, max_iters=wl.max_iters)
        report = experiments.verify_bounds(model, params, samples, cfg, seed, workers)
        return 0, experiments.render_report(report), None
    except Exception as exc:  # an operation that fails is counted, the run goes on
        return 1, "", repr(exc)


def judge(code, text, error, samples, reference):
    """Correctness gate and quality counts for one rendered report."""
    out = {
        "samples": samples,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "bytes": len(text.encode()),
        "undershoot": 0,
        "unconverged": 0,
        "error": None,
    }
    if code != 0:
        out["error"] = f"exit code {code}: {error}"
        return out
    try:
        data = json.loads(text)
        checks = [c for c in data["checks"] if "[lower-bound]" in c["name"]]
        records = data["stats"][0]["records"]
        ratios = [float(r[1]) for r in records]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        out["error"] = f"unreadable report: {exc!r}"
        return out
    if not checks or not all(c["passed"] is True for c in checks):
        out["error"] = "a [lower-bound] check failed"
    elif len(ratios) != samples:
        out["error"] = f"{len(ratios)} records for {samples} samples"
    elif not all(0.0 < r <= 1.0 for r in ratios):
        out["error"] = "ratio outside (0, 1]"
    out["undershoot"] = sum(r < b * (1.0 - TOLERANCE) for r, b in zip(ratios, reference))
    out["unconverged"] = sum(rec[2] is not True for rec in records)
    return out


def calibrate():
    """Seconds of a fixed loop of pure Python and of small numpy calls: how
    fast the host runs right now.

    The workloads spend most of their time in the interpreter and in small
    numpy calls, and on a shared host this loop slows down with them.  It
    uses no rankone code, so no change to the package can move it."""
    import numpy as np

    v, m = np.arange(3.0), np.ones((4, 4))
    t0 = perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    for _ in range(CAL_LOOPS // 60):
        w = v * 2.0 + 1.0
        m @ np.repeat(w[:1], 4)
        np.sqrt(float(w @ w))
    return perf_counter() - t0


def run_round(wl, slot, samples, workers, reference, subprocess_cli, paced=False):
    """One verification per setting.  ``paced`` also records, per operation,
    the mean of the calibration loop's time just before and just after it."""
    ops = []
    cal = calibrate() if paced else None
    for k, (model, params) in enumerate(wl.settings):
        seed = wl.batch_seed(k, slot)
        t0 = perf_counter()
        code, text, error = _verify(wl, model, params, samples, seed, workers, subprocess_cli)
        wall = perf_counter() - t0
        op = judge(code, text, error, samples, reference[wl.name][k][slot][:samples])
        op.update(setting=k, slot=slot, wall_s=wall)
        if paced:
            after = calibrate()
            op["cal_s"] = (cal + after) / 2
            cal = after
        ops.append(op)
    return ops


def machine_facts():
    import numpy
    import scipy

    from rankone import _kernels

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "HAVE_NUMBA": getattr(_kernels, "HAVE_NUMBA", None),
    }


def timed_pass(wl, seed, seconds, samples):
    """Untraced closed loop: whole passes until ``seconds`` have passed."""
    reference = load_reference()
    if not wl.via_cli:
        warm_up(wl)
    ops = []
    t0 = perf_counter()
    for order in passes(seed):
        for slot in order:
            ops += run_round(wl, slot, samples, wl.workers, reference, True, paced=True)
        if perf_counter() - t0 >= seconds:
            break
    wall = perf_counter() - t0
    who = resource.RUSAGE_CHILDREN if wl.via_cli else resource.RUSAGE_SELF
    return {
        "wall_s": wall,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }


def _us_per_call(fn, *args, repeat=200, batches=5):
    """Median over ``batches`` of the mean microseconds per call."""
    fn(*args)
    per = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(repeat):
            fn(*args)
        per.append(1e6 * (perf_counter() - t0) / repeat)
    per.sort()
    return per[len(per) // 2]


def kernel_micro():
    """Untraced microseconds per point of the public kernels at fixed sizes."""
    import numpy as np

    from rankone import _kernels, poly

    tables = {
        "d8n2": poly.monomial_exponents(8, 2),
        "d6n3": poly.monomial_exponents(6, 3),
        "ds23ns22": poly.multi_monomial_exponents((2, 3), (2, 2)),
    }
    rng = np.random.default_rng(0)
    out = {}
    for tag, expo in tables.items():
        coeffs = rng.standard_normal(expo.shape[0])
        x = rng.standard_normal(expo.shape[1])
        xs = rng.standard_normal((64, expo.shape[1]))
        out[f"kernels.micro_eval_us_{tag}"] = _us_per_call(_kernels.evaluate_poly, coeffs, expo, x)
        out[f"kernels.micro_grad_us_{tag}"] = _us_per_call(_kernels.gradient_poly, coeffs, expo, x)
        out[f"kernels.micro_eval_many_us_{tag}"] = (
            _us_per_call(_kernels.evaluate_poly_many, coeffs, expo, xs, repeat=20) / 64
        )
    return out


def traced_pass(wl, seed, samples, startup):
    """The first pass of the seed's order, in one process and with one
    worker: traced (caches cold, so their build is seen), then again
    untraced (caches warm) to measure the tracing overhead.  ``startup`` is
    the import time of ``rankone.cli`` in this process."""
    from tracer import Tracer

    reference = load_reference()
    order = next(passes(seed))
    micro = kernel_micro()
    tracer = Tracer().install()
    try:
        w0 = perf_counter()
        warm_up(wl)
        r0 = perf_counter()
        traced = [op for slot in order for op in run_round(wl, slot, samples, 1, reference, False)]
        end = perf_counter()
    finally:
        tracer.uninstall()
    u0 = perf_counter()
    plain = [op for slot in order for op in run_round(wl, slot, samples, 1, reference, False)]
    untraced = perf_counter() - u0
    metrics = tracer.layer_metrics(samples * len(wl.settings) * POOL)
    metrics.update(micro)
    metrics["cli.startup_s"] = startup
    metrics["trace.traced_wall_s"] = end - w0
    metrics["trace.untraced_s"] = untraced
    metrics["trace.overhead_s"] = (end - r0) - untraced
    return {"metrics": metrics, "ops": traced, "plain_ops": plain}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=["setup", "timed", "traced"])
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--samples", type=int)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]
    samples = args.samples or wl.samples
    if not 1 <= samples <= wl.samples:
        p.error(f"--samples must be in 1..{wl.samples} (the reference covers {wl.samples})")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import rankone.cli  # also imports every other layer

    startup = perf_counter() - t0
    if Path(rankone.cli.__file__).resolve().parent != SRC / "rankone":
        p.error(f"rankone imported from {rankone.cli.__file__}, not from {SRC}")
    if args.mode == "setup":
        warm_up(wl)
        return 0
    if args.mode == "timed":
        out = timed_pass(wl, args.seed, args.seconds, samples)
    else:
        out = traced_pass(wl, args.seed, samples, startup)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
