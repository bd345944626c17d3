"""Spectral / uniform norm estimation and the rank-one approximation ratio.

General tensors use multi-start alternating maximization (closed-form,
monotone block updates).  Forms and multi-homogeneous forms use one
multi-start projected gradient ascent on a product of spheres with
backtracking (a form is the one-sphere case).  Both return certified LOWER bounds
on the true maximum.  A deterministic sphere-grid oracle is provided for
certification at tiny sizes.
"""

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import product

import numpy as np

from ._kernels import evaluate_poly, evaluate_poly_many, gradient_poly
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

    The point y holds one contiguous block per variable block; a complex block
    of n variables is stored as [real parts, imaginary parts].  ``blocks`` are
    the slices of y that each lie on a unit sphere, and ``unpack(y)`` returns
    the per-block vectors over the field.
    """
    k = 2 if field == COMPLEX else 1
    offsets = np.cumsum((0,) + tuple(k * n for n in ns))
    blocks = tuple(slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:]))
    if field == REAL:

        def value(y):
            v = evaluate_poly(coeffs, expo, y)
            return v * v

        def grad(y):
            v = evaluate_poly(coeffs, expo, y)
            return 2.0 * v * gradient_poly(coeffs, expo, y)

        def unpack(y):
            return tuple(y[b] for b in blocks)

        return blocks, value, grad, unpack

    ccoeffs = coeffs.astype(np.complex128)
    re = np.concatenate([np.arange(a, a + n) for a, n in zip(offsets, ns)])
    im = np.concatenate([np.arange(a + n, a + 2 * n) for a, n in zip(offsets, ns)])

    def value(y):
        z = y[re] + 1j * y[im]
        v = evaluate_poly(ccoeffs, expo, z)
        return (v * np.conj(v)).real

    def grad(y):
        z = y[re] + 1j * y[im]
        v = evaluate_poly(ccoeffs, expo, z)
        gz = np.conj(v) * gradient_poly(ccoeffs, expo, z)
        g = np.empty(len(y))
        g[re] = 2.0 * gz.real
        g[im] = -2.0 * gz.imag
        return g

    def unpack(y):
        z = y[re] + 1j * y[im]
        return tuple(np.split(z, np.cumsum(ns)[:-1]))

    return blocks, value, grad, unpack


def _pga_sphere(blocks, value, grad, x0, max_iters, tol):
    """Ascend |f|^2 on a product of unit spheres with backtracking; monotone.

    Every block (a slice of x) is kept on its own sphere: the gradient is
    projected onto each block's tangent space and each probe is renormalised
    block by block.  All blocks share one step and one line search.
    """
    x = x0
    obj = value(x)
    step = 1.0
    history = [float(obj)]
    converged = False
    iters = 0
    stalls = 0

    def probe(t):
        y = x + t * r
        for b in blocks:
            y[b] /= np.linalg.norm(y[b])
        return y, value(y)

    for iters in range(1, max_iters + 1):
        r = grad(x)
        for b in blocks:
            r[b] -= np.dot(r[b], x[b]) * x[b]
        rn = np.linalg.norm(r)
        if rn <= 1e-15 * max(1.0, abs(obj)):
            converged = True
            break
        # geometric line search: shrink until the step improves at all, then
        # walk the step size toward the best value in either direction; this
        # avoids both overshoots past the peak and false stalls
        t = min(max(step, 1e-12), 1e6)
        y, oy = probe(t)
        while oy <= obj and t > 1e-18:
            t *= 0.5
            y, oy = probe(t)
        improved = oy > obj
        if improved:
            for _ in range(200):
                y2, o2 = probe(2.0 * t)
                if o2 > oy and 2.0 * t <= 1e6:
                    t, y, oy = 2.0 * t, y2, o2
                    continue
                yh, oh = probe(0.5 * t)
                if oh > oy and 0.5 * t >= 1e-18:
                    t, y, oy = 0.5 * t, yh, oh
                    continue
                break
            x, obj = y, oy
            step = t
        history.append(float(obj))
        if not improved or history[-1] - history[-2] <= tol * max(1.0, obj):
            stalls += 1
            if stalls >= 2 or not improved:
                converged = True
                break
        else:
            stalls = 0
    return x, obj, iters, converged, history


def _sphere_product_max(coeffs, expo, ns, field, cfg):
    """Multi-start ascent of |f| over the product of unit spheres in K^ns."""
    blocks, value, grad, unpack = _realified_objective(coeffs, expo, ns, field)
    results = []
    for s in range(cfg.starts):
        rng = _start_rng(cfg.seed, s)
        x0 = np.concatenate([_random_unit(rng, b.stop - b.start, REAL) for b in blocks])
        x, obj, iters, conv, hist = _pga_sphere(blocks, value, grad, x0, cfg.max_iters, cfg.tol)
        results.append(SpectralResult(float(np.sqrt(obj)), unpack(x), iters, conv, tuple(hist)))
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
