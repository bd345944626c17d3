"""Probabilistic models: Gaussian tensors, Kostlan forms, Gaussian harmonic
forms, sphere sampling and the projection-ratio law.

All samplers are stateless given (master seed, sample index, purpose tag);
the per-sample generator is derived with a counter-based rule, so results do
not depend on how work is scheduled across processes.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .bounds import DomainError
from .harmonic import harmonic_basis
from .poly import (
    HomogPoly,
    MultiHomogPoly,
    _check_monomial_budget,
    multi_multinomial_weights,
    multinomial_weights,
    num_monomials,
)
from .tensor import COMPLEX, REAL, Tensor

_CHI2_DIRECT_MAX = 64


def _tag_int(tag):
    return int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=8).digest(), "big")


@dataclass(frozen=True)
class SeedSpec:
    """Counter-based seed derivation: per-sample generators come from
    (master_seed, sample_index, purpose_tag) and nothing else."""

    master_seed: int
    purpose_tag: str = "default"

    def __post_init__(self):
        if self.master_seed < 0:
            raise DomainError(f"need seed >= 0, got {self.master_seed}")

    def rng(self, index):
        ss = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(index, _tag_int(self.purpose_tag))
        )
        return np.random.default_rng(ss)


def _rng_for(seed, index=0, tag="default"):
    if isinstance(seed, SeedSpec):
        return seed.rng(index)
    return SeedSpec(int(seed), tag).rng(index)


def _standard_gaussians(rng, size, field):
    if field == REAL:
        return rng.standard_normal(size)
    if field == COMPLEX:
        re = rng.standard_normal(size)
        im = rng.standard_normal(size)
        return (re + 1j * im) / np.sqrt(2.0)
    raise DomainError(f"unknown field {field!r}")


def gaussian_tensor(shape, field, seed, index=0):
    """i.i.d. standard (complex) Gaussian entries; complex entries have
    real/imaginary parts of variance 1/2 each."""
    if any(n < 1 for n in shape):
        raise DomainError(f"invalid shape {shape}")
    rng = _rng_for(seed, index, "gaussian_tensor")
    return Tensor(_standard_gaussians(rng, tuple(shape), field), field)


def kostlan_form(d, n, field, seed, index=0):
    """Coefficient at alpha is sqrt(binom(d, alpha)) times a standard Gaussian,
    so the normalized coefficients are i.i.d. and E |f|_bw^2 = binom(d+n-1, d)."""
    if d < 0:
        raise DomainError(f"invalid d: need d >= 0, got {d}")
    if n < 1:
        raise DomainError(f"invalid n: need n >= 1, got {n}")
    rng = _rng_for(seed, index, "kostlan")
    w = multinomial_weights(d, n)
    g = _standard_gaussians(rng, num_monomials(d, n), field)
    return HomogPoly(n, d, np.sqrt(w) * g, field)


def kostlan_multi(ds, ns, field, seed, index=0):
    ds, ns = tuple(ds), tuple(ns)
    if len(ds) != len(ns) or any(d < 0 for d in ds) or any(n < 1 for n in ns):
        raise DomainError(f"invalid blocks {(ds, ns)}")
    rng = _rng_for(seed, index, "kostlan_multi")
    w = multi_multinomial_weights(ds, ns)
    g = _standard_gaussians(rng, w.size, field)
    return MultiHomogPoly(ns, ds, np.sqrt(w) * g, field)


def gaussian_harmonic(d, n, seed, index=0):
    """f = sum_i g_i b_i over the BW-orthonormal harmonic basis, g_i ~ N(0,1)."""
    basis = harmonic_basis(d, n)
    rng = _rng_for(seed, index, "harmonic")
    g = rng.standard_normal(basis.dim)
    return HomogPoly(n, d, basis.coeff_matrix @ g, REAL)


def gaussian_multi_harmonic(ds, ns, seed, index=0):
    """Gaussian element of the tensor product of the per-block harmonic
    spaces; the product basis is orthonormal under the multi-graded
    Bombieri-Weyl product."""
    ds, ns = tuple(ds), tuple(ns)
    if len(ds) != len(ns):
        raise DomainError(f"invalid blocks {(ds, ns)}")
    _check_monomial_budget(ds, ns)
    mats = [harmonic_basis(dj, nj).coeff_matrix for dj, nj in zip(ds, ns)]
    rng = _rng_for(seed, index, "multi_harmonic")
    # the Kronecker product of the blocks' bases times g, one block at a time
    c = rng.standard_normal([m.shape[1] for m in mats])
    for axis, m in enumerate(mats):
        c = np.moveaxis(np.tensordot(m, c, axes=(1, axis)), 0, axis)
    return MultiHomogPoly(ns, ds, c.ravel(), REAL)


def uniform_sphere(n, field, seed, index=0):
    """Normalized Gaussian vector; uniform on the (realified) unit sphere."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    rng = _rng_for(seed, index, "sphere")
    v = _standard_gaussians(rng, n, field)
    return v / np.linalg.norm(v)


def _chi2(rng, k):
    if k <= _CHI2_DIRECT_MAX:
        g = rng.standard_normal(k)
        return float(g @ g)
    return float(2.0 * rng.standard_gamma(0.5 * k))


def projection_ratio_sample(N, k, seed, index=0, field=REAL):
    """|P r| / |r| for a Gaussian r and a rank-k projection P, sampled
    directly as sqrt(v / (v + z)) with v ~ chi2_k, z ~ chi2_(N-k)."""
    if not 1 <= k <= N:
        raise DomainError(f"need 1 <= k <= N, got k={k}, N={N}")
    if field == COMPLEX:
        N, k = 2 * N, 2 * k
    rng = _rng_for(seed, index, "projection_ratio")
    v = _chi2(rng, k)
    if k == N:
        return 1.0
    z = _chi2(rng, N - k)
    return float(np.sqrt(v / (v + z)))
