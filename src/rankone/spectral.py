"""Spectral / uniform norm estimation and the rank-one approximation ratio.

General tensors use multi-start alternating maximization (closed-form,
monotone block updates).  Forms and multi-homogeneous forms use one
multi-start projected gradient ascent on a product of spheres with
backtracking (a form is the one-sphere case); its starts advance in lockstep
as one batch of points, each with its own step and line search.  Both return
certified LOWER bounds on the true maximum.  A deterministic sphere-grid
oracle is provided for certification at tiny sizes.
"""

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import product

import numpy as np

from ._kernels import evaluate_poly, evaluate_poly_many, gradient_poly_many
from .poly import (
    HomogPoly,
    MultiHomogPoly,
    bw_norm,
    multi_bw_norm,
)
from .tensor import (
    COMPLEX,
    REAL,
    Tensor,
    UnitVectorTuple,
    contract_all_but,
    frobenius_norm,
)

_TIE_TOL = 1e-14
_GRID_BUDGET = 10**8


class ZeroInputError(ValueError):
    pass


class BudgetError(ValueError):
    pass


@dataclass(frozen=True)
class MaximizerConfig:
    starts: int = 32
    max_iters: int = 1000
    tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class SpectralResult:
    value: float
    maximizer: tuple  # per-mode unit vectors (single entry for symmetric)
    iterations: int
    converged: bool
    history: tuple = dataclass_field(default=(), repr=False)


def _start_rng(seed, start):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(start,)))


def _random_unit(rng, n, field):
    if field == COMPLEX:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _pick_best(results):
    """First result attaining the best value within the tie tolerance."""
    best = max(r.value for r in results)
    for r in results:
        if r.value >= best - _TIE_TOL:
            return r
    raise AssertionError("unreachable")


# ---------------------------------------------------------- general tensors


def spectral_norm_general(t, cfg=MaximizerConfig()):
    """Multi-start alternating maximization of |<T, x^1 (x) ... (x) x^d>|."""
    if frobenius_norm(t) == 0.0:
        raise ZeroInputError("zero tensor")
    d = t.order
    results = []
    for s in range(cfg.starts):
        rng = _start_rng(cfg.seed, s)
        xs = [_random_unit(rng, n, t.field) for n in t.shape]
        obj_prev = -np.inf
        history = []
        converged = False
        iters = 0
        for iters in range(1, cfg.max_iters + 1):
            obj = obj_prev
            for j in range(d):
                v = contract_all_but(t, UnitVectorTuple(tuple(xs), t.field), j)
                nrm = np.linalg.norm(v)
                if nrm == 0.0:
                    continue
                # bilinear pairing sum_i v_i x_i is maximized in modulus
                # at x = conj(v) / |v|, with objective |v|
                xs[j] = np.conj(v) / nrm
                obj = nrm
            history.append(float(obj))
            if obj - obj_prev <= cfg.tol * max(1.0, abs(obj)):
                converged = True
                break
            obj_prev = obj
        results.append(
            SpectralResult(float(history[-1]), tuple(xs), iters, converged, tuple(history))
        )
    return _pick_best(results)


# ------------------------------------------------ projected gradient ascent


def _realified_objective(coeffs, expo, ns, field):
    """Return (blocks, value_fn, grad_fn, unpack) for |f|^2 on a product of
    (realified) spheres.

    A point y holds one contiguous block per variable block; a complex block
    of n variables is stored as [real parts, imaginary parts].  ``blocks`` are
    the slices of y that each lie on a unit sphere.  ``value`` and ``grad``
    take a batch of points, one per row, and ``unpack(y)`` returns the
    per-block vectors over the field of one point.
    """
    k = 2 if field == COMPLEX else 1
    offsets = np.cumsum((0,) + tuple(k * n for n in ns))
    blocks = tuple(slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:]))
    if field == REAL:

        def value(ys):
            v = evaluate_poly_many(coeffs, expo, ys)
            return v * v

        def grad(ys):
            v = evaluate_poly_many(coeffs, expo, ys)
            return 2.0 * v[:, np.newaxis] * gradient_poly_many(coeffs, expo, ys)

        def unpack(y):
            return tuple(y[b] for b in blocks)

        return blocks, value, grad, unpack

    ccoeffs = coeffs.astype(np.complex128)
    re = np.concatenate([np.arange(a, a + n) for a, n in zip(offsets, ns)])
    im = np.concatenate([np.arange(a + n, a + 2 * n) for a, n in zip(offsets, ns)])

    def value(ys):
        z = ys[:, re] + 1j * ys[:, im]
        v = evaluate_poly_many(ccoeffs, expo, z)
        return (v * np.conj(v)).real

    def grad(ys):
        z = ys[:, re] + 1j * ys[:, im]
        v = evaluate_poly_many(ccoeffs, expo, z)
        gz = np.conj(v)[:, np.newaxis] * gradient_poly_many(ccoeffs, expo, z)
        g = np.empty(ys.shape)
        g[:, re] = 2.0 * gz.real
        g[:, im] = -2.0 * gz.imag
        return g

    def unpack(y):
        z = y[re] + 1j * y[im]
        return tuple(np.split(z, np.cumsum(ns)[:-1]))

    return blocks, value, grad, unpack


def _pga_sphere(blocks, value, grad, x0, max_iters, tol):
    """Ascend |f|^2 on a product of unit spheres from every row of x0; monotone.

    Every block (a slice of a row) is kept on its own sphere: the gradient is
    projected onto each block's tangent space and each probe is renormalised
    block by block.  All blocks of a start share one step and one line
    search.  The starts advance in lockstep: each keeps its own step, line
    search phase, stall count and history, each round of the line search
    probes only the starts still in that phase in one batched call, and a
    start drops out when it converges.  A row's arithmetic does not depend on
    the other rows, so each start ends exactly where it would alone.

    Returns (x, obj, iterations, converged, histories), one entry per row.
    """
    x = np.array(x0, dtype=float)
    starts = len(x)
    obj = value(x)
    step = np.ones(starts)
    iters = np.full(starts, max_iters)
    converged = np.zeros(starts, dtype=bool)
    stalls = np.zeros(starts, dtype=int)
    history = [[v] for v in obj.tolist()]
    live = np.arange(starts)

    def probe(rows, t):
        y = xl[rows] + t[:, np.newaxis] * r[rows]
        for b in blocks:
            y[:, b] /= np.sqrt(np.add.reduce(y[:, b] * y[:, b], axis=1))[:, np.newaxis]
        return y, value(y)

    for it in range(1, max_iters + 1):
        if not len(live):
            break
        xl, ol = x[live], obj[live]
        r = grad(xl)
        for b in blocks:
            r[:, b] -= (r[:, b] * xl[:, b]).sum(axis=1)[:, np.newaxis] * xl[:, b]
        flat = np.linalg.norm(r, axis=1) <= 1e-15 * np.maximum(1.0, np.abs(ol))
        if flat.any():
            converged[live[flat]] = True
            iters[live[flat]] = it
            live, xl, ol, r = live[~flat], xl[~flat], ol[~flat], r[~flat]
            if not len(live):
                break
        # geometric line search: shrink until the step improves at all, then
        # walk the step size toward the best value in either direction; this
        # avoids both overshoots past the peak and false stalls
        t = np.clip(step[live], 1e-12, 1e6)
        y, oy = probe(np.arange(len(live)), t)
        back = np.flatnonzero((oy <= ol) & (t > 1e-18))
        while len(back):
            t[back] *= 0.5
            y[back], oy[back] = probe(back, t[back])
            back = back[(oy[back] <= ol[back]) & (t[back] > 1e-18)]
        improved = oy > ol
        walk = np.flatnonzero(improved)
        for _ in range(200):
            if not len(walk):
                break
            t2 = 2.0 * t[walk]
            y2, o2 = probe(walk, t2)
            up = (o2 > oy[walk]) & (t2 <= 1e6)
            rest, walk = walk[~up], walk[up]
            t[walk], y[walk], oy[walk] = t2[up], y2[up], o2[up]
            if len(rest):
                th = 0.5 * t[rest]
                yh, oh = probe(rest, th)
                down = (oh > oy[rest]) & (th >= 1e-18)
                w = rest[down]
                t[w], y[w], oy[w] = th[down], yh[down], oh[down]
                walk = np.concatenate([walk, w])
        moved = live[improved]
        x[moved], obj[moved], step[moved] = y[improved], oy[improved], t[improved]
        for s, v in zip(live.tolist(), obj[live].tolist()):
            history[s].append(v)
        small = obj[live] - ol <= tol * np.maximum(1.0, obj[live])
        stalls[live[small]] += 1
        stalls[live[~small]] = 0
        done = ~improved | (stalls[live] >= 2)
        converged[live[done]] = True
        iters[live[done]] = it
        live = live[~done]
    return x, obj, iters, converged, [tuple(h) for h in history]


def _sphere_product_max(coeffs, expo, ns, field, cfg):
    """Multi-start ascent of |f| over the product of unit spheres in K^ns."""
    blocks, value, grad, unpack = _realified_objective(coeffs, expo, ns, field)
    x0 = []
    for s in range(cfg.starts):
        rng = _start_rng(cfg.seed, s)
        x0.append(np.concatenate([_random_unit(rng, b.stop - b.start, REAL) for b in blocks]))
    x, obj, iters, conv, hists = _pga_sphere(blocks, value, grad, np.array(x0), cfg.max_iters, cfg.tol)
    results = [
        SpectralResult(float(np.sqrt(obj[s])), unpack(x[s]), int(iters[s]), bool(conv[s]), hists[s])
        for s in range(cfg.starts)
    ]
    return _pick_best(results)


def spectral_norm_symmetric(f, cfg=MaximizerConfig(), over_field=None):
    """Maximize |f(x)| over the unit sphere (realified for complex)."""
    if bw_norm(f) == 0.0:
        raise ZeroInputError("zero polynomial")
    return _sphere_product_max(f.coeffs, f.exponents, (f.n,), over_field or f.field, cfg)


def uniform_norm_multi(F, cfg=MaximizerConfig()):
    """Maximize |F(x^1, ..., x^m)| over the product of unit spheres."""
    if multi_bw_norm(F) == 0.0:
        raise ZeroInputError("zero polynomial")
    return _sphere_product_max(F.coeffs, F.exponents, F.ns, F.field, cfg)


# ----------------------------------------------------------------- grid oracle


@lru_cache(maxsize=None)
def sphere_grid(n, resolution):
    """Deterministic quasi-uniform grid on the unit sphere in R^n.

    Poles (coordinate vectors +-e_1) are always included.
    """
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = 2.0 * np.pi * np.arange(resolution) / resolution
        return np.column_stack([np.cos(ang), np.sin(ang)])
    polar = np.linspace(0.0, np.pi, resolution)
    rest = sphere_grid(n - 1, resolution)
    pts = []
    for th in polar:
        c, s = np.cos(th), np.sin(th)
        if s == 0.0:
            row = np.zeros(n)
            row[0] = c
            pts.append(row[np.newaxis, :])
        else:
            pts.append(np.column_stack([np.full(len(rest), c), s * rest]))
    out = np.vstack(pts)
    out /= np.linalg.norm(out, axis=1)[:, np.newaxis]
    out.setflags(write=False)
    return out


def _grid_budget_check(sizes):
    total = 1
    for s in sizes:
        total *= s
    if total > _GRID_BUDGET:
        raise BudgetError(f"grid search space {total} exceeds {_GRID_BUDGET}")


def brute_force_uniform_norm(obj, resolution):
    """Max of the objective over a deterministic sphere-product grid.

    Always a lower bound on the true maximum (grid points lie on the
    sphere), used to certify iterative results at tiny sizes.
    """
    if isinstance(obj, Tensor):
        return _brute_force_tensor(obj, resolution)
    if isinstance(obj, HomogPoly):
        return _brute_force_single(obj, resolution)
    if isinstance(obj, MultiHomogPoly):
        return _brute_force_multi(obj, resolution)
    raise TypeError(f"unsupported input {type(obj)!r}")


def _real_grid_for(n, field, resolution):
    if field == COMPLEX:
        grid = sphere_grid(2 * n, resolution)
        return grid[:, :n] + 1j * grid[:, n:]
    return sphere_grid(n, resolution)


def _brute_force_tensor(t, resolution):
    grids = [_real_grid_for(n, t.field, resolution) for n in t.shape]
    _grid_budget_check([g.shape[0] for g in grids])
    cur = np.conj(t.data)
    # mode-multiply every grid in turn: result indexed by grid points
    for g in grids:
        cur = np.tensordot(cur, g, axes=([0], [1]))
    return float(np.max(np.abs(cur)))


def _brute_force_single(f, resolution):
    pts = _real_grid_for(f.n, f.field, resolution)
    _grid_budget_check([pts.shape[0]])
    coeffs = f.coeffs.astype(np.complex128) if np.iscomplexobj(pts) else f.coeffs
    vals = evaluate_poly_many(coeffs, f.exponents, pts)
    return float(np.max(np.abs(vals)))


def _brute_force_multi(F, resolution):
    grids = [_real_grid_for(n, F.field, resolution) for n in F.ns]
    _grid_budget_check([g.shape[0] for g in grids])
    best = 0.0
    cplx = F.field == COMPLEX
    coeffs = F.coeffs.astype(np.complex128) if cplx else F.coeffs
    for combo in product(*grids):
        z = np.concatenate(combo)
        v = evaluate_poly(coeffs, F.exponents, z)
        best = max(best, abs(v))
    return float(best)


# ----------------------------------------------------------------- ratios


def spectral_value(obj, cfg=MaximizerConfig()):
    if isinstance(obj, Tensor):
        return spectral_norm_general(obj, cfg)
    if isinstance(obj, HomogPoly):
        return spectral_norm_symmetric(obj, cfg)
    if isinstance(obj, MultiHomogPoly):
        return uniform_norm_multi(obj, cfg)
    raise TypeError(f"unsupported input {type(obj)!r}")


def total_norm(obj):
    if isinstance(obj, Tensor):
        return frobenius_norm(obj)
    if isinstance(obj, HomogPoly):
        return bw_norm(obj)
    if isinstance(obj, MultiHomogPoly):
        return multi_bw_norm(obj)
    raise TypeError(f"unsupported input {type(obj)!r}")


def ratio(obj, cfg=MaximizerConfig()):
    """Lower estimate of spectral norm / Frobenius (Bombieri-Weyl) norm."""
    nrm = total_norm(obj)
    if nrm == 0.0:
        raise ZeroInputError("zero input")
    return spectral_value(obj, cfg).value / nrm


def approx_error(obj, cfg=MaximizerConfig()):
    """Relative best rank-one approximation error sqrt(1 - ratio^2)."""
    r = min(ratio(obj, cfg), 1.0)
    return float(np.sqrt(max(0.0, 1.0 - r * r)))
