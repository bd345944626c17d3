"""Probabilistic models: Gaussian tensors, Kostlan forms, Gaussian harmonic
forms, sphere sampling and the projection-ratio law, and the random unit
starts of the spectral optimizers.

All samplers are stateless given (master seed, sample index, purpose tag);
the per-sample generator is derived with a counter-based rule, so results do
not depend on how work is scheduled across processes.  Seeds and indices are
integers >= 0 (``DomainError`` otherwise).  Start s of an optimizer seed
draws from ``default_rng(SeedSequence(entropy=seed, spawn_key=(s,)))``;
``_draw_starts`` derives the generator states of all starts of a batch in
one pass, from the pool numpy hashes for each seed.
"""

from dataclasses import dataclass
from math import prod

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
# numpy's SeedSequence hash constants (pool of 4 words) and PCG64's multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
# most entries a sampled tensor may have, checked before one is drawn: the
# alternating batch gathers one copy of its tensor per optimizer start
_ENTRY_BUDGET = 10**6


def _tag_int(tag):
    import hashlib  # only here: a run that draws nothing never loads it

    return int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=8).digest(), "big")


@dataclass(frozen=True)
class SeedSpec:
    """Counter-based seed derivation: per-sample generators come from
    (master_seed, sample_index, purpose_tag) and nothing else."""

    master_seed: int
    purpose_tag: str = "default"

    def __post_init__(self):
        _nonnegative_int(self.master_seed, "seeds")

    def rng(self, index):
        ss = np.random.SeedSequence(
            entropy=self.master_seed,
            spawn_key=(_nonnegative_int(index, "indices"), _tag_int(self.purpose_tag)),
        )
        return np.random.default_rng(ss)


def _nonnegative_int(value, what, least=0):
    """``value`` if it is an integer >= ``least`` (a numpy integer too, a bool
    not); ``DomainError`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise DomainError(f"need integer {what} >= {least}, got {value!r}")
    return value


def _rng_for(seed, index=0, tag="default"):
    if isinstance(seed, SeedSpec):
        return seed.rng(index)
    return SeedSpec(seed, tag).rng(index)


def _pcg64_states(seeds, starts):
    """The PCG64 (state, inc) of ``default_rng(SeedSequence(entropy=seed,
    spawn_key=(s,)))`` for every seed and start s, seed-major.  numpy hashes
    each seed into its pool of 4 words; here each row's spawn word s is mixed
    into its seed's pool, the pool is hashed out as ``generate_state(4,
    uint64)`` and the state is seeded as ``pcg64_set_seed`` does."""
    ints = [int(seed) for seed in seeds]
    pool = np.repeat([np.random.SeedSequence(i).pool for i in ints], starts, axis=0).T
    # a seed of w words has advanced the hash constant 16 + 4 max(0, w - 4)
    # steps: 4 for its first words (padded with zeros), 12 for their cross
    # mixing and 4 for each further word
    steps = [16 + 4 * max(0, -(-i.bit_length() // 32) - 4) for i in ints]
    const = np.repeat([_INIT_A * pow(_MULT_A, k, 2**32) & _MASK32 for k in steps], starts)
    const, word = const.astype(np.uint32), np.tile(np.arange(starts, dtype=np.uint32), len(ints))
    for dst in range(4):
        v = word ^ const
        const = const * np.uint32(_MULT_A)
        v = v * const
        r = pool[dst] * np.uint32(_MIX_L) - (v ^ v >> 16) * np.uint32(_MIX_R)
        pool[dst] = r ^ r >> 16
    const, w = _INIT_B, []
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        v = v * np.uint32(const)
        w.append((v ^ v >> 16).astype(np.uint64))
    # the 8 words, read as 4 little-endian uint64, are the high and low
    # halves of the 128-bit seed and increment
    s0, s1, i0, i1 = ((w[j] | w[j + 1] << np.uint64(32)).astype(object) for j in range(0, 8, 2))
    seed = s0 << 64 | s1
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    # pcg64_set_seed: state 0, step, add the seed, step
    state = ((seed + inc) * _PCG_MULT + inc) & _MASK128
    return zip(state.tolist(), inc.tolist())


def _draw_starts(seeds, starts, sizes, field):
    """Random unit start vectors, one (len(seeds) * starts, n) array per size
    n; row i * starts + s is exactly what start s of ``seeds[i]`` draws from
    ``default_rng(SeedSequence(entropy=seeds[i], spawn_key=(s,)))``: for
    each size in turn n normals (and n more for the imaginary parts), each
    vector divided by its ``np.linalg.norm``.  One PCG64 is reseeded for
    every row and draws the row's normals in one call."""
    k = 2 if field == COMPLEX else 1
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    z = np.empty((len(seeds) * starts, k * sum(sizes)))
    for row, (state, inc) in enumerate(_pcg64_states(seeds, starts)):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.standard_normal(out=z[row])
    out, a = [], 0
    # each vector's norm as np.linalg.norm takes it: one BLAS dot of the row
    # (of the strided real and imaginary views of a complex row), whose
    # rounding depends on the stride, so it stays one call per row
    for n in sizes:
        v = z[:, a : a + n]
        if field == COMPLEX:
            v = v + 1j * z[:, a + n : a + 2 * n]
            sq = [re.dot(re) + im.dot(im) for re, im in zip(v.real, v.imag)]
        else:
            sq = [x.dot(x) for x in v]
        out.append(v / np.sqrt(sq)[:, np.newaxis])
        a += k * n
    return out


def _standard_gaussians(rng, size, field):
    if field == REAL:
        return rng.standard_normal(size)
    if field == COMPLEX:
        re = rng.standard_normal(size)
        im = rng.standard_normal(size)
        return (re + 1j * im) / np.sqrt(2.0)
    raise DomainError(f"unknown field {field!r}")


def _check_entry_budget(shape):
    """``DomainError`` if a tensor of ``shape`` has more entries than a sampled
    tensor may have."""
    count = prod(shape)
    if count > _ENTRY_BUDGET:
        raise DomainError(
            f"shape {tuple(shape)} has {count} entries, over the tensor budget of {_ENTRY_BUDGET}"
        )


def gaussian_tensor(shape, field, seed, index=0):
    """i.i.d. standard (complex) Gaussian entries; complex entries have
    real/imaginary parts of variance 1/2 each."""
    if any(n < 1 for n in shape):
        raise DomainError(f"invalid shape {shape}")
    _check_entry_budget(shape)
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
