"""Regenerate reference.json, the best-known ratio of every benchmark input.

For each workload, setting and pool slot, the batch of samples the benchmark
can verify is estimated twice through ``estimate_ratio_distribution`` (the
function ``verify_bounds`` uses): with the workload's own configuration and
with four times as many starts.  The reference ratio of each sample is the
larger of the two.  A run whose ratio falls short of it by more than
``workloads.TOLERANCE`` counts as an undershoot.

Run from the repository root:  python3 perfbench/make_reference.py [--workers 2]
"""

import argparse
import json
import sys
from dataclasses import replace
from time import perf_counter

from workloads import POOL, REFERENCE, SRC, STARTS, TOLERANCE, WORKLOADS


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workers", type=int, default=2)
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from rankone.experiments import estimate_ratio_distribution
    from rankone.spectral import MaximizerConfig

    ratios = {}
    for wl in WORKLOADS.values():
        cfg = MaximizerConfig(starts=STARTS, max_iters=wl.max_iters)
        wide = replace(cfg, starts=4 * STARTS)
        per_setting = []
        for k, (model, params) in enumerate(wl.settings):
            t0 = perf_counter()
            slots, short = [], 0
            for slot in range(POOL):
                seed = wl.batch_seed(k, slot)
                base = estimate_ratio_distribution(model, params, wl.samples, cfg, seed, args.workers)
                best = estimate_ratio_distribution(model, params, wl.samples, wide, seed, args.workers)
                pairs = [(a[1], b[1]) for a, b in zip(base.records, best.records)]
                short += sum(a < b * (1.0 - TOLERANCE) for a, b in pairs)
                slots.append([max(a, b) for a, b in pairs])
            per_setting.append(slots)
            print(
                f"{wl.name} {model} {params}: {POOL * wl.samples} samples, "
                f"{short} below the {4 * STARTS}-start ratio, {perf_counter() - t0:.0f}s",
                file=sys.stderr,
            )
        ratios[wl.name] = per_setting
    doc = {
        "about": "max of the workload's own result and a 4x-starts run, per sample",
        "starts": STARTS,
        "wide_starts": 4 * STARTS,
        "ratios": ratios,
    }
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
