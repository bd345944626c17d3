"""The space of real harmonic forms: dimension, Bombieri-Weyl-orthonormal
bases, exact sphere integrals and zonal (reproducing) harmonics.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, lgamma, prod

import numpy as np

from .bounds import DomainError
from .poly import (
    HomogPoly,
    _check_monomial_budget,
    _check_same_space,
    _form_shape,
    evaluate,
    laplacian_matrix,
    monomial_exponents,
    multinomial_weights,
)
from .tensor import REAL, FieldError

_NULLSPACE_RCOND = 1e-10

# most monomials a harmonic basis may span, checked before one is built: the
# build time grows about as the cube of the count (4.2-6.0 s at 990 on a
# 2-vCPU host, of which the SVD takes 0.02 s and the Gram-Schmidt pass 4 s)
_BASIS_BUDGET = 1000


def harmonic_dimension(d, n):
    """dim of the harmonic subspace of degree-d forms in n variables."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if d < 0:
        raise DomainError(f"need d >= 0, got {d}")
    second = comb(n + d - 3, d - 2) if d >= 2 else 0
    return comb(n + d - 1, d) - second


def sphere_surface(n):
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    return float(2.0 * np.exp(0.5 * n * np.log(np.pi) - lgamma(0.5 * n)))


def bw_l2_constant(d, n):
    """Ratio of the Bombieri-Weyl product to the sphere L2 product on
    harmonic forms: 2^(d-1) Gamma(d + n/2) / (pi^(n/2) Gamma(d + 1))."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if d < 0:
        raise DomainError(f"need d >= 0, got {d}")
    lg = (
        (d - 1) * np.log(2.0)
        + lgamma(d + 0.5 * n)
        - 0.5 * n * np.log(np.pi)
        - lgamma(d + 1.0)
    )
    return float(np.exp(lg))


def _mantissa_exponent(ints):
    """Each positive integer as (m, e) with m in [1, 2] and int == m 2^e; m is
    rounded once, so an integer past the float range splits too."""
    exps = [v.bit_length() - 1 for v in ints]
    mants = [v / (1 << e) for v, e in zip(ints, exps)]
    return np.array(mants), np.array(exps)


@lru_cache(maxsize=None)
def _sphere_monomial_gram(d, n):
    """Matrix of integrals over S^(n-1) of x^(alpha+beta) for |alpha|=|beta|=d:
    |S^(n-1)| prod_i (2k_i - 1)!! / (n (n+2) ... (n+2d-2)) where
    alpha + beta = 2k, and 0 where alpha + beta has an odd entry."""
    expo = monomial_exponents(d, n)
    s = expo[:, np.newaxis, :] + expo[np.newaxis, :, :]
    all_even = np.all(s % 2 == 0, axis=2)
    # the double factorials (2k - 1)!!, k = 0..d, and the denominator are
    # exact integers; split into mantissas and powers of two, the products
    # neither overflow nor take more than one rounding per factor
    dfact = [1]
    for k in range(1, d + 1):
        dfact.append(dfact[-1] * (2 * k - 1))
    mant, expn = _mantissa_exponent(dfact)
    (den_mant,), (den_exp,) = _mantissa_exponent([prod(range(n, n + 2 * d, 2))])
    k = s // 2
    scaled = sphere_surface(n) * np.prod(mant[k], axis=2) / den_mant
    vals = np.ldexp(scaled, np.sum(expn[k], axis=2) - den_exp)
    gram = np.where(all_even, vals, 0.0)
    gram.setflags(write=False)
    return gram


def l2_sphere_inner(f, g):
    """Exact integral of f*g over the unit sphere (closed-form monomials)."""
    if f.field != REAL or g.field != REAL:
        raise FieldError("sphere L2 product is defined for real forms only")
    _check_same_space(f, g)
    n, d = _form_shape(f)
    return float(f.coeffs @ _sphere_monomial_gram(d, n) @ g.coeffs)


@dataclass(frozen=True)
class HarmonicBasis:
    """Bombieri-Weyl-orthonormal basis of the degree-d harmonic forms."""

    d: int
    n: int
    dim: int
    basis: tuple  # HomogPoly elements

    @cached_property
    def coeff_matrix(self):
        """Column-per-basis-element coefficient matrix, stacked on first use
        and read-only."""
        m = np.column_stack([b.coeffs for b in self.basis])
        m.setflags(write=False)
        return m


def _mgs_bw(columns, d, n):
    """Modified Gram-Schmidt under the Bombieri-Weyl product, one
    re-orthogonalization pass."""
    w = multinomial_weights(d, n)

    def inner(u, v):
        return float(np.dot(u, v / w))

    out = []
    for col in columns.T:
        v = col.copy()
        for _ in range(2):
            for u in out:
                v -= inner(u, v) * u
        nrm = np.sqrt(inner(v, v))
        if nrm < 1e-12:
            raise RuntimeError("rank deficiency during orthonormalization")
        out.append(v / nrm)
    return np.column_stack(out)


@lru_cache(maxsize=None)
def harmonic_basis(d, n):
    """Null space of the Laplacian coefficient matrix, orthonormalized under
    the Bombieri-Weyl product.  Deterministic for fixed (d, n)."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    _check_monomial_budget((d,), (n,), _BASIS_BUDGET, "harmonic basis")
    if d == 1:
        cols = np.eye(n)
    else:
        # the right singular vectors past the numerical rank, the rule of
        # scipy.linalg.null_space with the same LAPACK routine (gesdd)
        _, sing, vh = np.linalg.svd(laplacian_matrix(d, n), full_matrices=True)
        rank = int(np.sum(sing > sing.max() * _NULLSPACE_RCOND))
        cols = vh[rank:].T
    cols = _mgs_bw(cols, d, n)
    polys = tuple(HomogPoly(n, d, cols[:, i], REAL) for i in range(cols.shape[1]))
    return HarmonicBasis(d, n, len(polys), polys)


def zonal(basis, x):
    """Reproducing kernel of the harmonic space at pole x under the sphere
    L2 product: Z_x = sum_i e_i(x) e_i over an L2-orthonormal basis."""
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > 1e-12:
        raise ValueError("pole must be a unit vector")
    c = bw_l2_constant(basis.d, basis.n)
    # the BW-orthonormal basis rescaled by sqrt(c) is L2-orthonormal
    vals = np.array([evaluate(b, x) for b in basis.basis])
    coeffs = c * (basis.coeff_matrix @ vals)
    return HomogPoly(basis.n, basis.d, coeffs, REAL)


def zonal_pole_value(d, n):
    """Z_x(x) = dim / surface, independent of the pole."""
    return harmonic_dimension(d, n) / sphere_surface(n)
