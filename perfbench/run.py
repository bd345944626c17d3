"""The rankone benchmark: verification workloads driven from outside the package.

    python3 perfbench/run.py --workload forms|tensors|multi-cli --seed N \\
        --seconds T --trace 0|1

Run it from the repository root.  ``--trace 0`` prints the end-to-end
metrics, measured untraced; ``--trace 1`` prints the per-layer metrics of a
separate traced pass (see README.md).  Metric names, units and directions
come from BENCHMARK.json.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the full record, machine facts included.  Exit code 0 means
every operation passed the correctness gate, 1 that one failed, 2 that the
benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from workloads import CAL_REF_S, POOL, ROOT, SRC, WORKLOADS, calibrate

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 11  # fresh interpreters per set-up measurement; the median is reported
CHILD_TIMEOUT = 160
NOTES = (
    "sampling is under 1% of the time on every workload, so a sampling change cannot show "
    "in samples_per_s",
    "undershoot_frac = 1 - reached_frac and unconverged_frac = 1 - converged_frac; the "
    "complements are the bounded metrics because the fractions themselves can be 0",
)


class ChildError(RuntimeError):
    pass


def _child(args):
    """Run workloads.py in a fresh interpreter and in its own process group,
    so that a timeout also stops the CLI processes it started."""
    cmd = [sys.executable, str(HERE / "workloads.py"), *map(str, args)]
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )  # fmt: skip
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{' '.join(cmd[1:4])} timed out after {CHILD_TIMEOUT}s")
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise ChildError(f"{' '.join(cmd[1:4])} exited {proc.returncode}: {err.strip()}")
    return wall, (json.loads(out.splitlines()[-1]) if out.strip() else None)


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _quality(ops):
    samples = sum(op["samples"] for op in ops)
    return (
        samples,
        sum(op["undershoot"] for op in ops) / samples,
        sum(op["unconverged"] for op in ops) / samples,
    )


def _mark_identity(traced, others, what):
    """A traced report must be byte-identical to the untraced one."""
    for op, other in zip(traced, others):
        if op["error"] is None and op["sha256"] != other["sha256"]:
            op["error"] = f"report differs from the {what}"


def _scaled(wall, cal):
    """A wall time scaled to the calibration loop's reference speed."""
    return wall * CAL_REF_S / cal


def _per_pass(ops, scaled=True):
    """Samples and wall time of one pass over the pool.  The wall time is the
    median of each verification over its repeats, summed over the pool; with
    ``scaled``, each repeat is first scaled by the calibration paced around
    it, which takes the shared machine's changes of speed out."""
    walls, samples = defaultdict(list), {}
    for op in ops:
        key = (op["setting"], op["slot"])
        walls[key].append(_scaled(op["wall_s"], op["cal_s"]) if scaled else op["wall_s"])
        samples[key] = op["samples"]
    return sum(samples.values()), sum(statistics.median(w) for w in walls.values())


def _setup_times(wl):
    """(wall, calibration) of fresh set-up interpreters, each paced like a
    verification."""
    out, cal = [], calibrate()
    for _ in range(SETUP_RUNS):
        wall = _child(["setup", wl.name])[0]
        after = calibrate()
        out.append((wall, (cal + after) / 2))
        cal = after
    return out


def _end_to_end(timed, setup_times):
    samples, undershoot, unconverged = _quality(timed["ops"])
    pass_samples, pass_wall = _per_pass(timed["ops"])
    raw_samples, raw_wall = _per_pass(timed["ops"], scaled=False)
    cals = [op["cal_s"] for op in timed["ops"]]
    metrics = {
        "samples_per_s": pass_samples / pass_wall,
        "peak_rss_mb": timed["peak_rss_mb"],
        "reached_frac": 1.0 - undershoot,
        "converged_frac": 1.0 - unconverged,
    }
    if setup_times:
        metrics["setup_s"] = statistics.median(_scaled(w, c) for w, c in setup_times)
    extra = {
        "samples": samples,
        "undershoot_frac": undershoot,
        "unconverged_frac": unconverged,
        "wall_samples_per_s": raw_samples / raw_wall,
        "cal_ms_p50": 1e3 * statistics.median(cals),
    }
    if setup_times:
        extra["setup_wall_s"] = statistics.median(w for w, _ in setup_times)
    return metrics, extra


def run(args):
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    seed_args = ["--seed", args.seed]
    if args.samples:
        seed_args += ["--samples", args.samples]

    setup_times = []
    if not args.trace:
        setup_times = _setup_times(wl)
    _, timed = _child(["timed", wl.name, *seed_args, "--seconds", args.seconds])
    ops = timed["ops"]
    e2e, e2e_extra = _end_to_end(timed, setup_times)
    record = {
        "workload": wl.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            **timed["machine"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "commit": _commit(),
            "src_sha256": _source_digest(),
        },
        "passes": len(ops) // (POOL * len(wl.settings)),
        "timed_wall_s": timed["wall_s"],
        "end_to_end": {**e2e, **e2e_extra},
        "notes": list(NOTES),
    }
    if args.trace:
        _, traced = _child(["traced", wl.name, *seed_args])
        _mark_identity(traced["ops"], ops, f"untraced workers={wl.workers} run")
        _mark_identity(traced["ops"], traced["plain_ops"], "untraced workers=1 rerun")
        metrics = traced["metrics"]
        _, metrics["experiments.undershoot_frac"], metrics["experiments.unconverged_frac"] = (
            _quality(traced["ops"])
        )
        # traced compute seconds, scaled by the untraced/traced wall of the
        # pass to take the tracing overhead out, per worker-second of the
        # untraced pass time
        untraced = metrics["trace.untraced_s"]
        scale = untraced / (untraced + metrics["trace.overhead_s"])
        compute = metrics["experiments.compute_s"] * scale
        pass_wall = _per_pass(ops, scaled=False)[1]
        metrics["experiments.parallel_eff"] = compute / (wl.workers * pass_wall)
        ops = ops + traced["ops"] + traced["plain_ops"]
        record["per_layer"] = metrics
    else:
        metrics = e2e
    failures = [op for op in ops if op["error"]]
    record["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }

    print(f"rankone benchmark: workload={wl.name} seed={args.seed} trace={args.trace}")
    table = [(m["name"], metrics[m["name"]], m["unit"], m["better"]) for m in wanted]
    if not args.trace:
        table += [
            ("undershoot_frac", e2e_extra["undershoot_frac"], "fraction", "lower"),
            ("unconverged_frac", e2e_extra["unconverged_frac"], "fraction", "lower"),
            ("wall_samples_per_s", e2e_extra["wall_samples_per_s"], "samples/s", "higher"),
            ("cal_ms_p50", e2e_extra["cal_ms_p50"], "ms", "lower"),
        ]
    for name, value, unit, better in table:
        print(f"  {name:<34} {value:>16.6g} {unit:<10} ({better} is better)")
    for note in NOTES:
        print(f"note: {note}")
    for op in failures[:5]:
        print(f"FAILED: setting {op['setting']} slot {op['slot']}: {op['error']}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument(
        "--samples", type=int, help="samples per verification (default: the workload's)"
    )
    args = p.parse_args(argv)
    if not (SRC / "rankone" / "__init__.py").is_file():
        print(f"error: no rankone sources under {SRC}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
