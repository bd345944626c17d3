"""Monte Carlo experiments: ratio-distribution estimation, bound
verification, tail comparisons, the reproducing-kernel identity check and
deterministic report export.

Per-sample seeds are derived from (master seed, sample index), so results are
identical regardless of worker count; reports serialize with stable key order
and fixed float formatting.
"""

import io
import json
import math
import os
import pickle
from dataclasses import asdict, dataclass, field as dataclass_field, fields, is_dataclass, replace
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .bounds import (
    DomainError,
    bounds_general,
    bounds_partially_symmetric,
    bounds_symmetric,
    bounds_symmetric_large_d,
    projection_moment,
    projection_tail_bound,
    tail_bound_gaussian_tensor,
    tail_bound_harmonic,
    tail_bound_kostlan,
    tail_bound_kostlan_multi,
)
from .harmonic import (
    harmonic_basis,
    l2_sphere_inner,
    bw_l2_constant,
    zonal,
    zonal_pole_value,
)
from .poly import bw_inner, bw_norm
from .sampling import (
    SeedSpec,
    _check_entry_budget,
    _nonnegative_int,
    gaussian_harmonic,
    gaussian_multi_harmonic,
    gaussian_tensor,
    kostlan_form,
    kostlan_multi,
    projection_ratio_sample,
    uniform_sphere,
)
from .spectral import (
    MaximizerConfig,
    spectral_norm_symmetric,
    spectral_value_many,
    total_norm,
)
from .tensor import COMPLEX, REAL, Tensor, UnitVectorTuple, rank_one


class UsageError(ValueError):
    pass


class Record(NamedTuple):
    """A sample's index, ratio (attained value / total norm) and converged flag."""

    index: int
    ratio: float
    converged: bool


@dataclass(frozen=True)
class RatioStats:
    """Summary of a Monte Carlo pass; ``records`` holds one ``Record`` per
    sample, in sample order."""

    model: str
    params: dict
    sample_count: int
    records: tuple
    min: float
    mean: float
    max: float
    quantiles: dict
    stderr: float

    def __post_init__(self):
        if not self.min <= self.mean <= self.max:
            raise ValueError("inconsistent ratio statistics")


@dataclass(frozen=True)
class Check:
    name: str
    relation: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    title: str
    checks: tuple
    stats: tuple = ()  # RatioStats entries
    bound_info: dict = dataclass_field(default_factory=dict)
    metadata: dict = dataclass_field(default_factory=dict)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)


# -------------------------------------------------------------------- models


def _rank_one_draw(shape, field, seed, index):
    # test hook: every draw is a rank-one tensor, so every ratio is 1
    _check_entry_budget(shape)
    vecs = tuple(
        uniform_sphere(n, field, SeedSpec(seed, f"rank_one_{j}"), index)
        for j, n in enumerate(shape)
    )
    return rank_one(1.0, UnitVectorTuple(vecs, field))


def _identity_draw(n):
    # test hook: the identity matrix, whose ratio is exactly 1/sqrt(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return Tensor(np.eye(n), REAL)


@dataclass(frozen=True)
class _Model:
    """A model (or test fixture) of the Monte Carlo layer: the parameters it
    needs, which are also its CLI flags, ``sampler(params, seed, index)``,
    ``bound_set(params)``, the bound set's extra that caps the mean ratio and
    ``tail(params, t)``, the clipped tail bound of the ratio at t, each None
    where the model has none.  The callables look samplers and bound
    functions up among this module's globals at call time, so a wrapper put
    over such a global (a profiler's, a monkeypatch) sees every call."""

    params: tuple
    sampler: object = None
    bound_set: object = None
    expectation_key: str = None
    tail: object = None


MODELS = {
    "gaussian_tensor": _Model(
        ("shape", "field"),
        lambda p, seed, i: gaussian_tensor(tuple(p["shape"]), p["field"], seed, i),
        lambda p: bounds_general(tuple(p["shape"]), p["field"]),
        "expectation_upper",
        lambda p, t: tail_bound_gaussian_tensor(p["shape"], p["field"], t).clipped,
    ),
    "kostlan": _Model(
        ("d", "n", "field"),
        lambda p, seed, i: kostlan_form(p["d"], p["n"], p["field"], seed, i),
        lambda p: bounds_symmetric(p["d"], p["n"], p["field"]),
        "expectation_upper_kostlan",
        lambda p, t: tail_bound_kostlan(p["d"], p["n"], p["field"], t).clipped,
    ),
    "harmonic": _Model(
        ("d", "n"),
        lambda p, seed, i: gaussian_harmonic(p["d"], p["n"], seed, i),
        lambda p: bounds_symmetric(p["d"], p["n"], REAL),
        "expectation_upper_harmonic",
        lambda p, t: tail_bound_harmonic(p["d"], p["n"], t).clipped,
    ),
    "kostlan_multi": _Model(
        ("ds", "ns", "field"),
        lambda p, seed, i: kostlan_multi(tuple(p["ds"]), tuple(p["ns"]), p["field"], seed, i),
        lambda p: bounds_partially_symmetric(tuple(p["ds"]), tuple(p["ns"]), p["field"]),
        tail=lambda p, t: tail_bound_kostlan_multi(p["ds"], p["ns"], p["field"], t).clipped,
    ),
    "multi_harmonic": _Model(
        ("ds", "ns"),
        lambda p, seed, i: gaussian_multi_harmonic(tuple(p["ds"]), tuple(p["ns"]), seed, i),
    ),
    # no sampler: the tail experiment draws its ratios with projection_ratio_sample
    "projection": _Model(
        ("N", "k", "field"),
        tail=lambda p, t: min(1.0, projection_tail_bound(p["N"], p["k"], t, p["field"])),
    ),
    "rank_one": _Model(
        ("shape", "field"),
        lambda p, seed, i: _rank_one_draw(tuple(p["shape"]), p["field"], seed, i),
        lambda p: bounds_general(tuple(p["shape"]), p["field"]),
    ),
    "identity": _Model(
        ("n",),
        lambda p, seed, i: _identity_draw(p["n"]),
        lambda p: bounds_symmetric(2, p["n"], REAL),
    ),
}


def _model_part(model, part):
    """The ``part`` entry of a model; UsageError if the model is unknown or
    has none."""
    if model not in MODELS:
        raise UsageError(f"unknown model {model!r}")
    entry = getattr(MODELS[model], part)
    if entry is None:
        raise UsageError(f"model {model!r} has no {part.replace('_', ' ')}")
    return entry


def _params(model, params):
    """``params`` in a new dict, with ``field`` real where the model has one and
    none is given; UsageError naming every other missing parameter, or every
    key that is no parameter of the model."""
    names = _model_part(model, "params")
    missing = [k for k in names if k not in params and k != "field"]
    if missing:
        raise UsageError(f"model {model!r} needs {', '.join(missing)}")
    unknown = [str(k) for k in params if k not in names]
    if unknown:
        raise UsageError(f"model {model!r} has no parameter {', '.join(unknown)}")
    return {"field": REAL, **params} if "field" in names else dict(params)


def _draw(model, params, seed, index):
    return _model_part(model, "sampler")(params, seed, index)


def _cfg_seed(seed, index):
    # decouple optimizer restarts from the sample stream
    return (int(seed) * 0x9E3779B1 + index * 0x85EBCA77) % (2**63)


# samples per lockstep batch of the Monte Carlo pass and per worker task; the
# chunks are fixed, whatever the number of workers or samples, so the records
# do not depend on either (one batch per verification of 16 samples)
_CHUNK = 16


def _ratio_records(args):
    """One ``Record`` per sample index of ``args`` = (model, params, cfg,
    seed, indices), with the optimizer starts of all the samples run in one
    ``spectral_value_many`` batch."""
    model, params, cfg, seed, indices = args
    objs = [_draw(model, params, seed, i) for i in indices]
    batch = spectral_value_many(objs, cfg, [_cfg_seed(seed, i) for i in indices])
    return [
        Record(i, res.value / total_norm(obj), bool(res.converged))
        for i, obj, res in zip(indices, objs, batch.results)
    ]


def _run_child(fn, tasks, first, step, fd):
    """The body of a forked child: run tasks first, first + step, ... and
    write ``("ok", results)``, or ``("err", (task index, exception))`` for
    the first task that raises, as one pickle to ``fd``.  It leaves by
    ``os._exit`` whatever happens, so it never returns into the caller's
    code, its atexit handlers or its stdio buffers; a child that could not
    report exits with status 1."""
    status = 1
    try:
        out = []
        for i in range(first, len(tasks), step):
            try:
                out.append(fn(tasks[i]))
            except Exception as exc:
                msg = ("err", (i, exc))
                break
        else:
            msg = ("ok", out)
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(msg, fh)
        status = 0
    finally:
        os._exit(status)


def _map(fn, tasks, workers):
    """``[fn(t) for t in tasks]``, run in ``workers`` forked children when
    there are two or more and the platform has ``os.fork`` (in this process
    otherwise).  Child w runs tasks w, w + workers, ... and reports over its
    own pipe; the parent computes nothing, reads each pipe to EOF and reaps
    every child.  The first failing task in task order raises its exception
    here, as it would in process; a child that ends without reporting is a
    ``RuntimeError`` naming its exit status.  When this call leaves on an
    exception, the children that have not finished are killed, then reaped."""
    if workers == 1 or not hasattr(os, "fork"):
        return [fn(t) for t in tasks]
    pids, pipes, live = [], [], set()
    try:
        for w in range(workers):
            r, wr = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(wr)
                raise
            if pid == 0:
                _run_child(fn, tasks, w, workers, wr)
            os.close(wr)
            pids.append(pid)
            live.add(pid)
        out, errors = [None] * len(tasks), []
        for w, (pid, pipe) in enumerate(zip(pids, pipes)):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            live.discard(pid)
            if code or not data:
                how = f"signal {-code}" if code < 0 else f"status {code}"
                raise RuntimeError(f"worker process ended by {how} without reporting")
            kind, payload = pickle.loads(data)
            if kind == "ok":
                out[w::workers] = payload
            else:
                errors.append(payload)
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        return out
    except BaseException:
        import signal  # only here: a run that succeeds never loads it

        for pid in live:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in live:
            os.waitpid(pid, 0)


def _count(value, what, least):
    """``value`` if it is an integer >= ``least``; an integer below it is a
    ``UsageError``, and a float or a bool is refused, not truncated
    (``DomainError``)."""
    if not isinstance(value, bool) and isinstance(value, Integral) and value < least:
        raise UsageError(f"need {what} >= {least}, got {value}")
    return _nonnegative_int(value, what, least)


def _quantiles(vals, qs):
    """``np.quantile(vals, qs)`` by its default ``linear`` method, bit for
    bit, without the ``np.unique`` call that imports all of ``numpy.ma``
    (numpy 2.4): the virtual index (n - 1) q of the sorted values, its upper
    neighbour clamped to the last index, interpolated from the nearer
    neighbour as numpy's ``_lerp`` does."""
    s = sorted(vals)
    out = []
    for q in qs:
        v = (len(s) - 1) * q
        lo = math.floor(v)
        a, b, g = s[lo], s[min(lo + 1, len(s) - 1)], v - lo
        out.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return out


def estimate_ratio_distribution(model, params, samples, cfg, seed, workers=1):
    params = _params(model, params)
    _count(samples, "samples", 1)
    _count(workers, "workers", 1)
    _nonnegative_int(seed, "seed")
    tasks = [
        (model, params, cfg, int(seed), range(a, min(a + _CHUNK, samples)))
        for a in range(0, samples, _CHUNK)
    ]
    # one process per task at most
    chunks = _map(_ratio_records, tasks, min(workers, len(tasks)))
    records = tuple(r for chunk in chunks for r in chunk)
    vals = np.array([r.ratio for r in records])
    if np.any(vals <= 0) or np.any(vals > 1 + 1e-9):
        raise RuntimeError("ratio estimate outside (0, 1]")
    qs = _quantiles(vals.tolist(), (0.1, 0.5, 0.9))
    lo, hi = float(vals.min()), float(vals.max())
    return RatioStats(
        model=model,
        params=params,
        sample_count=samples,
        records=records,
        min=lo,
        # the rounded mean of equal ratios can land just outside them
        # (20 times 1/sqrt(3) averages one ulp above it)
        mean=min(max(float(vals.mean()), lo), hi),
        max=hi,
        quantiles=dict(zip(("q10", "q50", "q90"), qs)),
        stderr=float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0,
    )


# ------------------------------------------------------------- verification


# slack of the lower-bound checks for the bounds' float rounding: the bounds
# are evaluated through exp/log, so an attained extremal ratio can sit just
# below its bound (bounds_general((2, 2, 2), REAL).lower is
# 0.5000000000000001, the ratio of Re(z1 z2 z3) is exactly 1/2)
_HARD_TOL = 1e-9


def verify_bounds(model, params, samples, cfg, seed, workers=1):
    params = _params(model, params)
    bset = _model_part(model, "bound_set")(params)
    stats = estimate_ratio_distribution(model, params, samples, cfg, seed, workers)
    checks = []

    # (a) per-sample hard lower bound; the optimizer under-approximates the
    # true ratio, so apparent violations are re-certified in one batch with 4x
    # starts and the recertified records stand in for the first ones
    records = list(stats.records)
    violators = [r.index for r in records if r.ratio < bset.lower - _HARD_TOL]
    if violators:
        recheck = replace(cfg, starts=4 * cfg.starts)
        for r in _ratio_records((model, params, recheck, int(seed), violators)):
            records[r.index] = r
    lhs = min(r.ratio for r in records)
    passed = lhs >= bset.lower - _HARD_TOL
    checks.append(
        Check("per-sample-ratio-ge-lower [lower-bound]", ">=", lhs, bset.lower, passed)
    )

    # (c) mean against the expectation bound, skipped when vacuous
    key = MODELS[model].expectation_key
    if key is not None and key in bset.extras:
        eb = bset.extras[key]
        if eb <= 1.0:
            checks.append(
                Check(
                    "empirical-mean-le-expectation [expectation-bound]",
                    "<=",
                    stats.mean,
                    eb + 3.0 * stats.stderr,
                    stats.mean <= eb + 3.0 * stats.stderr,
                )
            )
        else:
            checks.append(
                Check(
                    "expectation-bound-vacuous-skipped [expectation-bound]",
                    "<=",
                    1.0,
                    eb,
                    True,
                )
            )

    # (d) complex vs real uniform norm for real forms of one degree d
    if "d" in MODELS[model].params and params.get("field", REAL) == REAL:
        factor = math.sqrt(2.0 ** params["d"])
        # the complex ascents of the first samples run as one lockstep batch;
        # report the measured pair with the smallest margin factor * vr - vc,
        # where the real norm vr is the (recertified) record value times the
        # BW norm
        indices = range(min(5, samples))
        forms = [_draw(model, params, int(seed), idx) for idx in indices]
        batch = spectral_norm_symmetric(
            forms, cfg, over_field=COMPLEX, seeds=[_cfg_seed(seed, idx) for idx in indices]
        )
        pairs = [
            (res.value, factor * (records[idx].ratio * bw_norm(f)))
            for idx, f, res in zip(indices, forms, batch.results)
        ]
        vc, bound = min(pairs, key=lambda p: p[1] - p[0])
        checks.append(
            Check(
                "complex-le-sqrt2d-real [real-vs-complex-norm]",
                "<=",
                vc,
                bound,
                vc <= bound + 1e-6,
            )
        )

    return VerificationReport(
        title=f"verify-bounds {model}",
        checks=tuple(checks),
        stats=(stats,),
        bound_info=_bound_dict(bset),
        metadata={"seed": int(seed), "samples": samples, "config": asdict(cfg)},
    )


def _bound_dict(bset):
    return {**asdict(bset), "vacuous": bset.vacuous}


# ------------------------------------------------------------- tail bounds


def tail_empirical_vs_bound(model, params, samples, t_grid, seed, cfg=None, workers=1):
    tail = _model_part(model, "tail")
    params = _params(model, params)
    if not len(t_grid):
        raise UsageError("empty t grid")
    _count(samples, "samples", 100)
    _count(workers, "workers", 1)
    bounds = [tail(params, t) for t in t_grid]
    stats, moments = (), []
    if MODELS[model].sampler is None:
        # the projection law: each ratio is drawn directly, not from an object
        N, k, field = params["N"], params["k"], params["field"]
        vals = np.array([projection_ratio_sample(N, k, seed, i, field) for i in range(samples)])
        tag = "projection-tail"
        for ell in (2, 4, 6):
            emp_m = float(np.mean(vals**ell) ** (1.0 / ell))
            theo = projection_moment(N, k, ell, field)
            moments.append(
                Check(
                    f"moment-l={ell} [projection-moment]",
                    "~",
                    emp_m,
                    theo,
                    abs(emp_m - theo) <= 0.05 * theo,
                )
            )
    else:
        cfg = cfg or MaximizerConfig()
        stats = (estimate_ratio_distribution(model, params, samples, cfg, seed, workers),)
        vals = np.array([r.ratio for r in stats[0].records])
        tag = "model-tail"
    checks = []
    for t, bound in zip(t_grid, bounds):
        emp = float(np.mean(vals >= t))
        se = math.sqrt(max(emp * (1.0 - emp), 1.0 / samples) / samples)
        rhs = bound + 3.0 * se
        checks.append(Check(f"tail-{model}-t={t:g} [{tag}]", "<=", emp, rhs, emp <= rhs))
    return VerificationReport(
        title=f"tail {model}",
        checks=tuple(checks + moments),
        stats=stats,
        metadata={"seed": int(seed), "samples": samples, "t_grid": [float(t) for t in t_grid]},
    )


# --------------------------------------------- reproducing-kernel identity


def verify_bw_l2_constant(d, n, seed=0):
    if d > 8 or n > 5:
        raise UsageError("exact path limited to d <= 8, n <= 5")
    c = bw_l2_constant(d, n)
    checks = []
    ok = True
    worst = 0.0
    for i in range(20):
        h1 = gaussian_harmonic(d, n, seed, 2 * i)
        h2 = gaussian_harmonic(d, n, seed, 2 * i + 1)
        lhs = bw_inner(h1, h2).real
        rhs = c * l2_sphere_inner(h1, h2)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        rel = abs(lhs - rhs) / scale
        worst = max(worst, rel)
        if rel > 1e-8:
            ok = False
    checks.append(Check("bw-eq-const-l2 [bw-vs-l2]", "~", worst, 1e-8, ok))

    basis = harmonic_basis(d, n)
    x = uniform_sphere(n, REAL, seed, 999)
    z = zonal(basis, np.asarray(x, dtype=float))
    lhs = l2_sphere_inner(z, z)
    rhs = zonal_pole_value(d, n)
    checks.append(
        Check(
            "zonal-l2-norm [zonal-kernel]",
            "~",
            lhs,
            rhs,
            abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1.0),
        )
    )
    return VerificationReport(
        title=f"bw-l2-constant d={d} n={n}",
        checks=tuple(checks),
        metadata={"seed": int(seed), "d": d, "n": n, "constant": c},
    )


# --------------------------------------------------------------- large-d


def trend_large_d(n, d_grid, samples, seed, cfg=None, workers=1):
    d_grid = list(d_grid)
    if not d_grid:
        raise UsageError("empty d grid")
    if any(b <= a for a, b in zip(d_grid, d_grid[1:])):
        raise UsageError("d grid must be increasing")
    cfg = cfg or MaximizerConfig()
    rows = []
    checks = []
    for d in d_grid:
        bset = bounds_symmetric_large_d(d, n, REAL)
        stats = estimate_ratio_distribution(
            "harmonic", {"d": d, "n": n}, samples, cfg, seed, workers
        )
        rows.append(
            {
                "d": d,
                "lower": bset.lower,
                "upper": bset.upper,
                "empirical_min": stats.min,
                "empirical_mean": stats.mean,
            }
        )
        checks.append(
            Check(
                f"lower-le-empirical-min-d={d} [large-d-sandwich]",
                "<=",
                bset.lower,
                stats.min,
                bset.lower <= stats.min + _HARD_TOL,
            )
        )
    decreasing = all(b["upper"] < a["upper"] for a, b in zip(rows, rows[1:]))
    checks.append(
        Check("upper-decreasing-in-d [large-d-sandwich]", "<", 0.0, 1.0, decreasing)
    )
    # crossover: first grid d where the large-d lower beats the trivial one
    crossover = next((r["d"] for r in rows if r["lower"] > n ** (-(r["d"] - 1) / 2.0)), None)
    return VerificationReport(
        title=f"trend-large-d n={n}",
        checks=tuple(checks),
        bound_info={"rows": rows, "crossover_d": crossover},
        metadata={"seed": int(seed), "samples": samples, "n": n, "d_grid": d_grid},
    )


# ----------------------------------------------------------------- export


def _fmt(v):
    """The report form of a value: floats as fixed-width strings, dicts with
    sorted keys, dataclasses as {field name: value}, sequences as lists."""
    if isinstance(v, bool):
        return v
    if isinstance(v, float):
        return "%.12e" % v
    if isinstance(v, dict):
        return {k: _fmt(v[k]) for k in sorted(v)}
    if isinstance(v, (list, tuple)):
        return [_fmt(x) for x in v]
    if is_dataclass(v):
        return {f.name: _fmt(getattr(v, f.name)) for f in fields(v)}
    return v


def render_report(report, fmt="json"):
    data = _fmt(report)
    if fmt == "json":
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        import csv  # only here: a JSON report never loads it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", "name", "relation", "lhs", "rhs", "passed"])
        for c in data["checks"]:
            writer.writerow(["check", c["name"], c["relation"], c["lhs"], c["rhs"], c["passed"]])
        for s in data["stats"]:
            for rec in s["records"]:
                idx, val, conv = rec[:3]
                writer.writerow(["record", s["model"], idx, val, "", conv])
        return buf.getvalue()
    raise UsageError(f"unknown format {fmt!r}")


def export_report(report, path, fmt="json"):
    text = render_report(report, fmt)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
