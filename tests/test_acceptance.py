"""Acceptance suite: one printed PASS/FAIL line per criterion.

Each criterion is a separate test; the verdict line goes straight to the
terminal (bypassing capture) so a full run reads as a checklist.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from rankone.bounds import (
    binom_sandwich_half,
    binom_sandwich_whole,
    bounds_symmetric,
    gautschi_chain,
    io_jacobian_det,
    log_covering_constant,
    moment_series_constant,
    projection_moment,
    projection_tail_bound,
    subgaussian_expectation_bound,
    subgaussian_min_bound,
    subgaussian_moment_bound,
    subgaussian_tail_from_moments,
)
from rankone.harmonic import (
    harmonic_basis,
    l2_sphere_inner,
    bw_l2_constant,
    zonal,
    zonal_pole_value,
)
from rankone.poly import (
    HomogPoly,
    bw_inner,
    evaluate,
    multinomial,
    poly_from_coeff_dict,
)
from rankone.sampling import (
    gaussian_harmonic,
    kostlan_form,
    projection_ratio_sample,
    uniform_sphere,
)
from rankone.spectral import MaximizerConfig, ratio, spectral_norm_symmetric
from rankone.tensor import COMPLEX, REAL, Tensor, UnitVectorTuple, rank_one
from rankone.experiments import estimate_ratio_distribution, verify_bounds

CFG = MaximizerConfig(starts=12, max_iters=400)


def _verdict(capfd, num, ok, desc):
    with capfd.disabled():
        print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_identity_ratio(capfd):
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 11):
        r = ratio(Tensor(np.eye(n), REAL), CFG)
        ok = ok and abs(r - 1.0 / math.sqrt(n)) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(capfd, 1, ok, f"identity matrix ratio 1/sqrt(n), n=2..10 ({elapsed:.2f}s)")


def test_criterion_02_rank_one_fixture(capfd):
    shapes = [(2, 2, 2), (3, 3, 3), (2, 3, 4), (3, 2, 2, 3), (4, 4, 4, 4)]
    ok = True
    count = 0
    for shape in shapes:
        for i in range(10):
            field = REAL if i % 2 == 0 else COMPLEX
            vecs = tuple(
                uniform_sphere(n, field, 100 + count, j) for j, n in enumerate(shape)
            )
            t = rank_one(1.0 + 0.5 * i, UnitVectorTuple(vecs, field))
            ok = ok and abs(ratio(t, CFG) - 1.0) <= 1e-9
            count += 1
    _verdict(capfd, 2, ok, f"{count} random rank-one tensors have ratio 1")


def test_criterion_03_deterministic_lower_bounds(capfd):
    settings = [
        ("gaussian_tensor", {"shape": (2, 2, 2), "field": REAL}),
        ("gaussian_tensor", {"shape": (3, 3, 3), "field": REAL}),
        ("kostlan_multi", {"ds": (2, 3), "ns": (2, 2), "field": REAL}),
    ]
    for d in range(3, 9):
        settings.append(("kostlan", {"d": d, "n": 2, "field": REAL}))
        settings.append(("kostlan", {"d": d, "n": 2, "field": COMPLEX}))
    for d in range(3, 7):
        for n in (2, 3):
            settings.append(("harmonic", {"d": d, "n": n}))
    ok = True
    failed = []
    for seed_offset, (model, params) in enumerate(settings):
        rep = verify_bounds(model, params, 500, CFG, 1000 + seed_offset)
        lower_checks = [c for c in rep.checks if "lower-bound" in c.name]
        if not all(c.passed for c in lower_checks):
            ok = False
            failed.append((model, params))
    _verdict(
        capfd,
        3,
        ok,
        f"ratio >= lower bound on {len(settings)} settings x 500 samples"
        + (f"; failed: {failed}" if failed else ""),
    )


def test_criterion_04_expectation_upper_bounds(capfd):
    grid = [
        ("kostlan", {"d": 10, "n": 2, "field": REAL}),
        ("kostlan", {"d": 15, "n": 2, "field": REAL}),
        ("harmonic", {"d": 10, "n": 2}),
        ("harmonic", {"d": 12, "n": 2}),
    ]
    key = {"kostlan": "expectation_upper_kostlan", "harmonic": "expectation_upper_harmonic"}
    ok = True
    asserted, vacuous = [], []
    for seed_offset, (model, params) in enumerate(grid):
        bset = bounds_symmetric(params["d"], params["n"], params.get("field", REAL))
        bound = bset.extras[key[model]]
        if bound >= 1.0:
            vacuous.append((model, params["d"], round(bound, 3)))
            continue
        stats = estimate_ratio_distribution(model, params, 300, CFG, 2000 + seed_offset)
        if stats.mean > bound + 3.0 * stats.stderr:
            ok = False
        asserted.append((model, params["d"]))
    ok = ok and len(asserted) > 0
    _verdict(
        capfd,
        4,
        ok,
        f"mean ratio <= expectation bound where non-vacuous "
        f"(asserted {asserted}, vacuous reported {vacuous})",
    )


def test_criterion_05_projection_law(capfd):
    ok = True
    draws = 10**5
    for N, k in [(10, 3), (50, 7)]:
        for field in (REAL, COMPLEX):
            vals = np.array(
                [projection_ratio_sample(N, k, 500 + N + k, i, field) for i in range(draws)]
            )
            for ell in (2, 4, 6):
                emp = float(np.mean(vals**ell) ** (1.0 / ell))
                theo = projection_moment(N, k, ell, field)
                ok = ok and abs(emp - theo) <= 0.02 * theo
            ok = ok and projection_moment(N, k, 2, field) == pytest.approx(
                math.sqrt(k / N), rel=1e-12
            )
            for t in np.arange(0.1, 0.95, 0.1):
                emp = float(np.mean(vals >= t))
                bound = min(1.0, projection_tail_bound(N, k, t, field))
                se = math.sqrt(max(emp * (1 - emp), 1.0 / draws) / draws)
                ok = ok and emp <= bound + 3.0 * se
    _verdict(capfd, 5, ok, "projection-ratio moments and tails, real and complex")


def test_criterion_06_reproducing_constant(capfd):
    ok = True
    for d, n in [(1, 3), (2, 3), (3, 2), (2, 4), (4, 3)]:
        c = bw_l2_constant(d, n)
        for i in range(20):
            h1 = gaussian_harmonic(d, n, 600 + d + 10 * n, 2 * i)
            h2 = gaussian_harmonic(d, n, 600 + d + 10 * n, 2 * i + 1)
            lhs = bw_inner(h1, h2).real
            rhs = c * l2_sphere_inner(h1, h2)
            ok = ok and abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs), 1e-12)
    # coefficient-level: the harmonic binary form of degree d has norm 2^(d-1)
    for d in (2, 3, 4, 5, 6):
        entries = {}
        for kk in range(0, d + 1, 2):
            entries[(d - kk, kk)] = multinomial(d, (d - kk, kk)) * (-1.0) ** (kk // 2)
        h = poly_from_coeff_dict(2, d, entries)
        ok = ok and abs(bw_inner(h, h).real - 2.0 ** (d - 1)) <= 1e-12 * 2.0 ** (d - 1)
    _verdict(capfd, 6, ok, "bw product = constant * sphere L2 product on harmonics")


def test_criterion_07_zonal_harmonics(capfd):
    ok = True
    for n in (2, 3, 4):
        for d in range(1, 6):
            basis = harmonic_basis(d, n)
            x = np.asarray(uniform_sphere(n, REAL, 700 + 10 * d + n, 0), dtype=float)
            z = zonal(basis, x)
            g = np.random.default_rng(d * 13 + n).standard_normal(basis.dim)
            h = HomogPoly(n, d, basis.coeff_matrix @ g, REAL)
            ok = ok and abs(evaluate(h, x) - l2_sphere_inner(h, z)) <= 1e-8 * max(
                1.0, abs(evaluate(h, x))
            )
            pole = zonal_pole_value(d, n)
            ok = ok and abs(evaluate(z, x) - pole) <= 1e-8 * pole
    _verdict(capfd, 7, ok, "zonal reproducing property and pole value, d<=5, n<=4")


def _sphere_chart(z):
    z = np.asarray(z, dtype=float)
    return np.append(z, 1.0) / math.sqrt(1.0 + float(z @ z))


def _fd_jacobian_det(zs, h=1e-6):
    out = 1.0
    for z in zs:
        z = np.asarray(z, dtype=float)
        m = z.size
        J = np.empty((m + 1, m))
        for i in range(m):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            J[:, i] = (_sphere_chart(zp) - _sphere_chart(zm)) / (2 * h)
        out *= math.sqrt(np.linalg.det(J.T @ J))
    return out


def test_criterion_08_jacobian(capfd):
    rng = np.random.default_rng(8)
    ok = abs(io_jacobian_det([np.zeros(1), np.zeros(2), np.zeros(3)]) - 1.0) == 0.0
    for _ in range(20):
        zs = [rng.standard_normal(n - 1) for n in (2, 3, 4)]
        closed = io_jacobian_det(zs)
        fd = _fd_jacobian_det(zs)
        ok = ok and abs(closed - fd) <= 1e-5 * fd
    _verdict(capfd, 8, ok, "chart Jacobian matches finite differences, n_k in {2,3,4}")


def test_criterion_09_asymptotic_sandwiches(capfd):
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 9):
        for d in range(max(2, math.ceil(n * n / 4.0)), 201):
            lo, mid, up = binom_sandwich_whole(d, n)
            ok = ok and lo - 1e-12 <= mid <= up + 1e-12
            lo, mid, up = binom_sandwich_half(d, n)
            ok = ok and lo - 1e-12 <= mid <= up + 1e-12
    for d in range(1, 201):
        lo, mid, up = gautschi_chain(d)
        ok = ok and lo - 1e-12 <= mid <= up + 1e-12
    _verdict(
        capfd, 9, ok, f"binomial and Gautschi sandwiches on the full grid "
        f"({time.perf_counter() - t0:.1f}s)"
    )


def test_criterion_10_complex_vs_real_norm(capfd):
    cases = [(3, 2)] * 7 + [(4, 2)] * 7 + [(3, 3)] * 6
    ok = True
    real_cfg = MaximizerConfig(starts=24, max_iters=400)
    for i, (d, n) in enumerate(cases):
        f = kostlan_form(d, n, REAL, 1010, i)
        vr = spectral_norm_symmetric(f, real_cfg).value
        vc = spectral_norm_symmetric(f, CFG, over_field=COMPLEX).value
        ok = ok and vc <= math.sqrt(2.0**d) * vr + 1e-6
    _verdict(capfd, 10, ok, "complex uniform norm <= sqrt(2^d) * real uniform norm")


def test_criterion_11_covering_constant(capfd):
    exact, lo, hi = log_covering_constant(3, 3, (2, 2, 2))
    ok = abs(exact - 18.592) <= 1e-3 and abs(exact - (12 + 3 * math.log(9))) <= 1e-9
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        L = float(rng.integers(2, 40))
        ns = tuple(int(rng.integers(2, 40)) for _ in range(d))
        e, a, b = log_covering_constant(L, d, ns)
        ok = ok and a - 1e-9 <= e <= b + 1e-9
    _verdict(capfd, 11, ok, "covering constant anchor 18.592 and randomized sandwich")


def test_criterion_12_subgaussian_constants(capfd):
    ok = abs(moment_series_constant() - 2.62509) <= 1e-4
    # hand values at C = e, K = 1
    ok = ok and subgaussian_moment_bound(math.e, 1.0, 1) == pytest.approx(
        math.sqrt(math.pi / 2.0) + math.sqrt(2.0), rel=1e-12
    )
    ok = ok and subgaussian_tail_from_moments(1.0, 1.0) == pytest.approx(
        3.0 * math.exp(-1.0 / 6.0), rel=1e-12
    )
    ok = ok and subgaussian_expectation_bound(math.e, 1.0) == pytest.approx(
        2.0 * math.sqrt(2.0), rel=1e-12
    )
    ok = ok and subgaussian_min_bound(math.e, 1.0) == pytest.approx(1.0, rel=1e-12)
    _verdict(capfd, 12, ok, "series constant 2.62509 and conversion formulas at C=e, K=1")


def test_criterion_13_determinism_across_workers(capfd):
    args = [
        sys.executable, "-m", "rankone.cli", "verify", "--model", "kostlan",
        "--d", "4", "--n", "2", "--samples", "40", "--seed", "99", "--starts", "6",
    ]  # 40 samples: three chunks, so 8 workers fork three children
    p1 = subprocess.run(args + ["--workers", "1"], capture_output=True)
    p8 = subprocess.run(args + ["--workers", "8"], capture_output=True)
    ok = p1.returncode == 0 and p8.returncode == 0 and p1.stdout == p8.stdout
    _verdict(capfd, 13, ok, "verify reports byte-identical for 1 vs 8 workers")
