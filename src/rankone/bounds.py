"""Closed-form lower/upper bounds on the best rank-one approximation ratio,
tail bounds, subgaussian conversions and the covering constant.

Everything is computed with log-gamma and assembled in log domain, then
exponentiated; binomials like binom(d + n/2 - 1, d) use the Gamma-function
convention (n/2)! = Gamma(n/2 + 1).
"""

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .tensor import COMPLEX, REAL


class DomainError(ValueError):
    """A parameter outside a bound's or a model's domain; the one class that
    ``harmonic`` and ``sampling`` raise too."""


def _k_for(field):
    if field == REAL:
        return 1
    if field == COMPLEX:
        return 2
    raise DomainError(f"unknown field {field!r}")


def log_binom(a, b):
    return math.lgamma(a + 1.0) - math.lgamma(b + 1.0) - math.lgamma(a - b + 1.0)


def log_binom_half(d, n):
    """ln binom(d + n/2 - 1, d) = ln Gamma(d + n/2) - ln Gamma(d+1) - ln Gamma(n/2)."""
    return math.lgamma(d + 0.5 * n) - math.lgamma(d + 1.0) - math.lgamma(0.5 * n)


@dataclass(frozen=True)
class BoundSet:
    problem: str
    field: str
    lower: float
    upper: float
    provenance: tuple
    extras: dict = dataclass_field(default_factory=dict)

    @property
    def vacuous(self):
        return self.upper > 1.0


@dataclass(frozen=True)
class TailBound:
    t: float
    ln_constant: float  # ln(3 C)
    rate: float  # bound is exp(ln_constant - rate * t^2)

    @property
    def raw(self):
        return float(np.exp(self.ln_constant - self.rate * self.t * self.t))

    @property
    def clipped(self):
        return min(1.0, self.raw)


# ------------------------------------------------------------ general tensors


def _min_log_prod(shape):
    logs = [math.log(n) for n in shape]
    total = sum(logs)
    return min(total - lg for lg in logs)


def lower_bound_general(shape, field=REAL):
    """1 / sqrt(min_i prod_{j != i} n_j)."""
    if any(n < 1 for n in shape):
        raise DomainError(f"invalid shape {shape}")
    return float(np.exp(-0.5 * _min_log_prod(shape)))


def upper_bound_general(shape, field=REAL):
    """Headline probabilistic upper bound 10 sqrt(d ln d) / sqrt(min prod)."""
    d = len(shape)
    if d < 3:
        raise DomainError(f"need order >= 3, got {d}")
    if any(n < 2 for n in shape):
        raise DomainError(f"need all dimensions >= 2, got {shape}")
    return float(10.0 * math.sqrt(d * math.log(d)) * lower_bound_general(shape))


def upper_bound_general_sharp(shape, field=REAL):
    """Derivation-level constant 2 sqrt(3e) e^((k-1)/2) sqrt(1 + 2/ln d)."""
    d = len(shape)
    if d < 3:
        raise DomainError(f"need order >= 3, got {d}")
    k = _k_for(field)
    c = 2.0 * math.sqrt(3.0 * math.e) * math.exp(0.5 * (k - 1))
    c *= math.sqrt(1.0 + 2.0 / math.log(d))
    return float(c * math.sqrt(d * math.log(d)) * lower_bound_general(shape))


def expectation_bound_general(shape, field=REAL):
    """Expected norm-ratio bound 9 (1 + 1/ln d + 2/(d + sum n_j)) sqrt(d ln d) / sqrt(min prod)."""
    d = len(shape)
    if d < 3:
        raise DomainError(f"need order >= 3, got {d}")
    corr = 1.0 + 1.0 / math.log(d) + 2.0 / (d + sum(shape))
    return float(9.0 * corr * math.sqrt(d * math.log(d)) * lower_bound_general(shape))


def bounds_general(shape, field=REAL):
    return BoundSet(
        problem="general " + "x".join(map(str, shape)),
        field=field,
        lower=lower_bound_general(shape, field),
        upper=upper_bound_general(shape, field),
        provenance=("general-lower", "general-upper-headline"),
        extras={
            "upper_sharp": upper_bound_general_sharp(shape, field),
            "expectation_upper": expectation_bound_general(shape, field),
        },
    )


# ---------------------------------------------------------- symmetric tensors


def bounds_symmetric(d, n, field=REAL):
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if d == 2:
        # matrices: exact value 1/sqrt(n)
        v = 1.0 / math.sqrt(n)
        return BoundSet(
            problem=f"symmetric d={d} n={n}",
            field=field,
            lower=v,
            upper=v,
            provenance=("matrix-exact",),
        )
    if d < 3:
        raise DomainError(f"need d >= 3 (or the d = 2 matrix case), got {d}")
    lower, upper, sharp = _sandwich((d,), (n,), field)
    extras = {
        "upper_relaxed": symmetric_upper_relaxed(d, n),
        "expectation_upper_kostlan": expectation_bound_kostlan(d, n, field),
        # the Kostlan constant is the complex one for either field
        "upper_sharp_kostlan": _sandwich((d,), (n,), COMPLEX)[2],
    }
    if field == REAL:
        extras["expectation_upper_harmonic"] = expectation_bound_harmonic(d, n)
        extras["upper_sharp_harmonic"] = sharp
    return BoundSet(
        problem=f"symmetric d={d} n={n}",
        field=field,
        lower=lower,
        upper=upper,
        provenance=("symmetric-lower", "symmetric-upper"),
        extras=extras,
    )


def symmetric_upper_relaxed(d, n):
    """6 (1 + 1/ln d) sqrt(d! ln d) n^(-(d-1)/2)."""
    lg = 0.5 * (math.lgamma(d + 1.0) + math.log(math.log(d))) - 0.5 * (d - 1) * math.log(n)
    return float(6.0 * (1.0 + 1.0 / math.log(d)) * np.exp(lg))


def expectation_bound_kostlan(d, n, field=REAL):
    """9 (1 + 1/ln d + 1/(1+n)) sqrt(n ln d) binom(d+n-1, d)^(-1/2)."""
    corr = 1.0 + 1.0 / math.log(d) + 1.0 / (1.0 + n)
    return float(
        9.0 * corr * math.sqrt(n * math.log(d)) * math.exp(-0.5 * log_binom(d + n - 1, d))
    )


def expectation_bound_harmonic(d, n):
    """2 sqrt(6) (1 + 1/ln d + 1/(n+1)) sqrt(n ln d) 2^(-d/2) binom(d+n/2-1, d)^(-1/2)."""
    corr = 1.0 + 1.0 / math.log(d) + 1.0 / (n + 1.0)
    lg = -0.5 * d * math.log(2.0) - 0.5 * log_binom_half(d, n)
    return float(2.0 * math.sqrt(6.0) * corr * math.sqrt(n * math.log(d)) * math.exp(lg))


def bounds_symmetric_large_d(d, n, field=REAL):
    """Explicit large-degree sandwich, valid for d >= n^2 / 4 (real lower)."""
    if d < 3:
        raise DomainError(f"need d >= 3, got {d}")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    lnd = math.log(float(d))
    if field == REAL:
        if d < n * n / 4.0:
            raise DomainError(f"real branch needs d >= n^2/4, got d={d}, n={n}")
        lg_low = 0.5 * (math.lgamma(n) - d * math.log(2.0) - (n - 1) * lnd)
        lower = math.exp(lg_low) * (1.0 - n * n / (4.0 * d))
        lg_up = 0.5 * (
            math.lgamma(0.5 * n + 1.0) + math.log(lnd) - d * math.log(2.0) - (0.5 * n - 1.0) * lnd
        )
        upper = 9.0 * math.exp(lg_up) * (1.0 + 1.0 / (4.0 * d))
    else:
        lg_low = 0.5 * (math.lgamma(n) - (n - 1) * lnd)
        lower = math.exp(lg_low) * (1.0 - n * n / (4.0 * d))
        lg_up = 0.5 * (math.lgamma(n + 1.0) + math.log(lnd) - (n - 1) * lnd)
        upper = 10.0 * math.exp(lg_up)
    return BoundSet(
        problem=f"symmetric-large-d d={d} n={n}",
        field=field,
        lower=float(lower),
        upper=float(upper),
        provenance=("symmetric-large-d",),
    )


# ------------------------------------------------------- partially symmetric


def _sandwich(ds, ns, field):
    """(lower, upper, sharp upper) bound of the partially symmetric tensors
    Sym^{d_1}(K^{n_1}) x ... x Sym^{d_m}(K^{n_m}); one block is the
    symmetric case."""
    sum_d = sum(ds)
    log_prod_nb = sum(log_binom(dj + nj - 1, dj) for dj, nj in zip(ds, ns))
    log_prod_nb_half = sum(log_binom_half(dj, nj) for dj, nj in zip(ds, ns))
    trivial = math.exp(
        0.5 * (math.log(max(ns)) - sum(dj * math.log(nj) for dj, nj in zip(ds, ns)))
    )
    ln_md = math.log(len(ds) * max(ds))
    root = math.sqrt(sum(ns) * ln_md)
    if field == REAL:
        lower = math.exp(-0.5 * sum_d * math.log(2.0) - 0.5 * log_prod_nb)
        scale = math.exp(-0.5 * sum_d * math.log(2.0) - 0.5 * log_prod_nb_half)
        c_upper, c_sharp = 6.0, 2.0 * math.sqrt(3.0)
    else:
        lower = scale = math.exp(-0.5 * log_prod_nb)
        c_upper, c_sharp = 10.0, 2.0 * math.sqrt(3.0) * math.e
    sharp = c_sharp * math.sqrt(1.0 + 2.0 / ln_md) * root * scale
    return max(lower, trivial), c_upper * root * scale, sharp


def bounds_partially_symmetric(ds, ns, field=REAL):
    ds, ns = tuple(ds), tuple(ns)
    m = len(ds)
    if m < 1 or len(ns) != m:
        raise DomainError("block mismatch")
    if any(dj < 2 for dj in ds):
        raise DomainError(f"need all degrees >= 2, got {ds}")
    if max(ds) < 3:
        raise DomainError(f"need max degree >= 3, got {ds}")
    if any(nj < 2 for nj in ns):
        raise DomainError(f"need all dimensions >= 2, got {ns}")
    lower, upper, sharp = _sandwich(ds, ns, field)
    return BoundSet(
        problem="partial d=%s n=%s" % (",".join(map(str, ds)), ",".join(map(str, ns))),
        field=field,
        lower=lower,
        upper=upper,
        provenance=("partial-lower", "partial-upper"),
        extras={"upper_sharp": sharp},
    )


# --------------------------------------------------------- covering constant


def log_covering_constant(L, d, ns):
    """Exact ln C(L, d; n_1, ..., n_d) with its sandwich (lower, upper).

    d is the number of spheres; L is the Lipschitz-to-max factor.
    """
    if L < 1:
        raise DomainError(f"need L >= 1, got {L}")
    if d < 1 or any(n < 2 for n in ns) or len(ns) != d:
        raise DomainError(f"invalid sphere dimensions {ns} for d={d}")
    ln_dl = math.log(d * L)
    exact = (2.0 + ln_dl) * sum(ns) - 0.5 * sum(math.log(n - 1.0) for n in ns) - d * ln_dl
    lower = 3.0 * d + (1.0 + ln_dl) * sum(n - 1 for n in ns)
    upper = (1.0 + 2.0 / ln_dl) * ln_dl * sum(ns) - ln_dl if ln_dl > 0 else exact
    if d * L == 1:
        # dL = 1 degenerates the sandwich; the exact value still stands
        lower = min(lower, exact)
        upper = max(upper, exact)
    if not lower - 1e-9 <= exact <= upper + 1e-9:
        raise AssertionError(f"covering-constant sandwich violated: {lower} {exact} {upper}")
    return exact, lower, upper


# -------------------------------------------------------- projection tail law


def projection_tail_bound(N, k, t, field=REAL):
    """3 exp(-N t^2 / (3 e^(k-1))); complex variant substitutes (2N, 2k)."""
    if not 1 <= k <= N:
        raise DomainError(f"need 1 <= k <= N, got k={k}, N={N}")
    if field == COMPLEX:
        N, k = 2 * N, 2 * k
    rate = N / (3.0 * math.exp(k - 1.0))
    return float(3.0 * math.exp(-rate * t * t))


def projection_moment(N, k, ell, field=REAL):
    """((Gamma((k+l)/2) Gamma(N/2)) / (Gamma(k/2) Gamma((N+l)/2)))^(1/l)."""
    if not 1 <= k <= N:
        raise DomainError(f"need 1 <= k <= N, got k={k}, N={N}")
    if ell < 1:
        raise DomainError(f"need l >= 1, got {ell}")
    if field == COMPLEX:
        N, k = 2 * N, 2 * k
    lg = (
        math.lgamma(0.5 * (k + ell))
        + math.lgamma(0.5 * N)
        - math.lgamma(0.5 * k)
        - math.lgamma(0.5 * (N + ell))
    )
    return float(np.exp(lg / ell))


# ------------------------------------------------------ subgaussian constants


def moment_series_constant(tol=1e-16):
    """Sum over p >= 0 of (p/3)^p / p!, truncated when terms drop below tol."""
    total = 1.0  # p = 0 term, with 0^0 = 1
    p = 1
    while True:
        term = math.exp(p * math.log(p / 3.0) - math.lgamma(p + 1.0))
        total += term
        if term < tol:
            return total
        p += 1


def subgaussian_tail_from_moments(K, t):
    """Moment growth K sqrt(l) implies the tail bound 3 exp(-t^2/(6 K^2))."""
    return float(3.0 * math.exp(-t * t / (6.0 * K * K)))


def subgaussian_moment_bound(C, K, ell):
    """K (sqrt(pi/2) + sqrt(2 ln C)) sqrt(l)."""
    if C < 1:
        raise DomainError(f"need C >= 1, got {C}")
    return float(K * (math.sqrt(math.pi / 2.0) + math.sqrt(2.0 * math.log(C))) * math.sqrt(ell))


def subgaussian_expectation_bound(C, K):
    """K sqrt(2 ln C) (1 + 1/ln C); needs C > 1."""
    if C <= 1:
        raise DomainError(f"expectation bound needs C > 1, got {C}")
    lc = math.log(C)
    return float(K * math.sqrt(2.0 * lc) * (1.0 + 1.0 / lc))


def subgaussian_min_bound(C, K):
    """Improved minimum bound K sqrt(ln C)."""
    if C < 1:
        raise DomainError(f"need C >= 1, got {C}")
    return float(K * math.sqrt(math.log(C)))


# ------------------------------------------------------- model tail bounds
# ratio tail bounds 3 C exp(-rate t^2), C the covering constant of the spheres


def _tail_bound(ln_c, rate, t):
    return TailBound(t=float(t), ln_constant=math.log(3.0) + ln_c, rate=rate)


def _need(ok, what, got):
    """DomainError in a model's own parameters, raised before the covering
    constant, whose error would name its arguments L and n instead."""
    if not ok:
        raise DomainError(f"need {what}, got {got}")


def tail_bound_gaussian_tensor(shape, field, t):
    """rate = k prod(shape) / (12 e^(k-1)), k = 1 (real) or 2 (complex)."""
    k = _k_for(field)
    _need(len(shape) >= 1 and k * min(shape) >= 2, f"shape dimensions >= {2 // k}", shape)
    ln_c, _, _ = log_covering_constant(1.0, len(shape), tuple(k * n for n in shape))
    rate = k * math.exp(sum(math.log(n) for n in shape)) / (12.0 * math.exp(k - 1.0))
    return _tail_bound(ln_c, rate, t)


def tail_bound_kostlan(d, n, field, t):
    """rate = k binom(d+n-1, d) / (12 e^(k-1))."""
    k = _k_for(field)
    _need(d >= 1, "d >= 1", d)
    _need(k * n >= 2, f"n >= {2 // k}", n)
    ln_c, _, _ = log_covering_constant(float(d), 1, (k * n,))
    rate = k * math.exp(log_binom(d + n - 1, d)) / (12.0 * math.exp(k - 1.0))
    return _tail_bound(ln_c, rate, t)


def tail_bound_harmonic(d, n, t):
    """rate = 2^d binom(d+n/2-1, d) / 12; harmonic forms are real."""
    _need(d >= 1, "d >= 1", d)
    _need(n >= 2, "n >= 2", n)
    ln_c, _, _ = log_covering_constant(float(d), 1, (n,))
    rate = math.exp(d * math.log(2.0) + log_binom_half(d, n)) / 12.0
    return _tail_bound(ln_c, rate, t)


def tail_bound_kostlan_multi(ds, ns, field, t):
    """rate = k prod_j binom(d_j+n_j-1, d_j) / (12 e^(k-1))."""
    k = _k_for(field)
    _need(len(ds) == len(ns) >= 1, "one degree per block dimension", f"ds={ds}, ns={ns}")
    _need(min(ds) >= 1, "ds >= 1", ds)
    _need(k * min(ns) >= 2, f"ns >= {2 // k}", ns)
    ln_c, _, _ = log_covering_constant(float(max(ds)), len(ds), tuple(k * n for n in ns))
    log_n = math.log(k) + sum(log_binom(dj + nj - 1, dj) for dj, nj in zip(ds, ns))
    rate = math.exp(log_n) / (12.0 * math.exp(k - 1.0))
    return _tail_bound(ln_c, rate, t)


# ----------------------------------------------------- stereographic Jacobian


def io_jacobian_det(zs):
    """Jacobian determinant of the inverse-stereographic product map:
    prod_k (1 + |z_k|^2)^(-n_k/2) with z_k in R^(n_k - 1)."""
    out = 0.0
    for z in zs:
        z = np.asarray(z, dtype=float)
        n = z.size + 1
        out += -0.5 * n * math.log1p(float(z @ z))
    return float(math.exp(out))


# ----------------------------------------------------------- asymptotic aids


def binom_sandwich_whole(d, n):
    """(lower, binom(d+n-1,d)^(-1/2), upper) of the large-d sandwich."""
    mid = math.exp(-0.5 * log_binom(d + n - 1, d))
    up = math.exp(0.5 * (math.lgamma(n) - (n - 1) * math.log(d)))
    lo = up * (1.0 - n * n / (4.0 * d))
    return lo, mid, up


def binom_sandwich_half(d, n):
    """(lower, binom(d+n/2-1,d)^(-1/2), upper) of the half-integer sandwich."""
    mid = math.exp(-0.5 * log_binom_half(d, n))
    base = math.exp(0.5 * (math.lgamma(0.5 * n) - (0.5 * n - 1.0) * math.log(d)))
    lo = base * (1.0 - n * n / (16.0 * d))
    up = base * (1.0 + 1.0 / (4.0 * d))
    return lo, mid, up


def gautschi_chain(d):
    """(1/sqrt(1+d), Gamma(d+1/2)/Gamma(d+1), 1/sqrt(d))."""
    mid = math.exp(math.lgamma(d + 0.5) - math.lgamma(d + 1.0))
    return 1.0 / math.sqrt(1.0 + d), mid, 1.0 / math.sqrt(d)


def scale_comparison_pair(d, n):
    """((binom^(-1/2), sqrt(d!)/n^(d/2)), (half-binom^(-1/2), 2^(d/2) sqrt(d!)/n^(d/2)))."""
    whole = math.exp(-0.5 * log_binom(d + n - 1, d))
    half = math.exp(-0.5 * log_binom_half(d, n))
    rhs = math.exp(0.5 * (math.lgamma(d + 1.0) - d * math.log(n)))
    return (whole, rhs), (half, math.exp(0.5 * d * math.log(2.0)) * rhs)
