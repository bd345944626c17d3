"""Homogeneous and multi-homogeneous polynomials with the Bombieri-Weyl
inner product, evaluation, Laplacian and the symmetric-tensor dictionary.

Coefficients are stored densely in graded-lexicographic order: within the
fixed degree d, exponent tuples are sorted lexicographically descending, so
(d, 0, ..., 0) comes first.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, factorial

import numpy as np
from scipy.special import gammaln

from ._kernels import evaluate_poly, evaluate_poly_many, gradient_poly
from .tensor import (
    COMPLEX,
    REAL,
    DimensionError,
    FieldError,
    Tensor,
    _dtype_for,
    _field_array,
    _parse_header,
    _parse_scalar,
    is_symmetric,
)

_EXACT_MULTINOMIAL_MAX_D = 20


class ShapeError(ValueError):
    pass


class SymmetryError(ValueError):
    pass


@lru_cache(maxsize=None)
def monomial_exponents(d, n):
    """All exponent tuples of degree d in n variables, as an int64 array."""

    def gen(deg, nvars):
        if nvars == 1:
            yield (deg,)
            return
        for a in range(deg, -1, -1):
            for rest in gen(deg - a, nvars - 1):
                yield (a,) + rest

    arr = np.array(list(gen(d, n)), dtype=np.int64).reshape(-1, n)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def monomial_index(d, n):
    return {tuple(row): i for i, row in enumerate(monomial_exponents(d, n))}


def num_monomials(d, n):
    return comb(d + n - 1, d)


def multinomial(d, alpha):
    """d! / prod(alpha_i!), exact for d <= 20, log-gamma above."""
    if d <= _EXACT_MULTINOMIAL_MAX_D:
        out = factorial(d)
        for a in alpha:
            out //= factorial(a)
        return float(out)
    lg = gammaln(d + 1) - sum(gammaln(a + 1) for a in alpha)
    return float(np.exp(lg))


@lru_cache(maxsize=None)
def multinomial_weights(d, n):
    """Vector of binom(d, alpha) over the canonical monomial order."""
    expo = monomial_exponents(d, n)
    w = np.array([multinomial(d, tuple(row)) for row in expo])
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class HomogPoly:
    """Degree-d form in n variables; dense coefficient vector."""

    n: int
    d: int
    coeffs: np.ndarray
    field: str

    def __post_init__(self):
        coeffs = _field_array(self.coeffs, self.field)
        if coeffs.shape != (num_monomials(self.d, self.n),):
            raise ShapeError(
                f"expected {num_monomials(self.d, self.n)} coefficients, "
                f"got {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def exponents(self):
        return monomial_exponents(self.d, self.n)

    def coefficient(self, alpha):
        return self.coeffs[monomial_index(self.d, self.n)[tuple(alpha)]]


def poly_from_coeff_dict(n, d, entries, field=REAL):
    coeffs = np.zeros(num_monomials(d, n), dtype=_dtype_for(field))
    idx = monomial_index(d, n)
    for alpha, c in entries.items():
        if sum(alpha) != d:
            raise ShapeError(f"multi-index {alpha} has degree {sum(alpha)} != {d}")
        coeffs[idx[tuple(alpha)]] = c
    return HomogPoly(n, d, coeffs, field)


def _check_same_poly_space(f, g):
    if (f.n, f.d) != (g.n, g.d):
        raise ShapeError(f"(n, d) mismatch: {(f.n, f.d)} vs {(g.n, g.d)}")
    if f.field != g.field:
        raise FieldError(f"field mismatch: {f.field} vs {g.field}")


def bw_inner(f, g):
    """Bombieri-Weyl product: sum over alpha of conj(f_a) g_a / binom(d, a)."""
    _check_same_poly_space(f, g)
    w = multinomial_weights(f.d, f.n)
    return np.vdot(f.coeffs, g.coeffs / w)


def bw_norm(f):
    return float(np.sqrt(np.real(bw_inner(f, f))))


def evaluate(f, x):
    x = np.asarray(x)
    if x.shape != (f.n,):
        raise ShapeError(f"point has shape {x.shape}, expected ({f.n},)")
    if f.d == 0:
        return f.coeffs[0]
    return evaluate_poly(f.coeffs, f.exponents, x)


def evaluate_many(f, xs):
    xs = np.asarray(xs)
    if xs.shape[1] != f.n:
        raise ShapeError(f"points have {xs.shape[1]} coordinates, expected {f.n}")
    return evaluate_poly_many(f.coeffs, f.exponents, xs)


def gradient(f, x):
    x = np.asarray(x)
    if x.shape != (f.n,):
        raise ShapeError(f"point has shape {x.shape}, expected ({f.n},)")
    return gradient_poly(f.coeffs, f.exponents, x)


@lru_cache(maxsize=None)
def laplacian_matrix(d, n):
    """Coefficient matrix of the Laplacian P_{d,n} -> P_{d-2,n}."""
    src = monomial_exponents(d, n)
    dst_index = monomial_index(d - 2, n)
    mat = np.zeros((num_monomials(d - 2, n), num_monomials(d, n)))
    for col, alpha in enumerate(src):
        for i in range(n):
            if alpha[i] >= 2:
                beta = alpha.copy()
                beta[i] -= 2
                mat[dst_index[tuple(beta)], col] += alpha[i] * (alpha[i] - 1)
    mat.setflags(write=False)
    return mat


def laplacian(f):
    """Sum of second partials; degree drops by two."""
    if f.d < 2:
        return HomogPoly(f.n, 0, np.zeros(1, dtype=f.coeffs.dtype), f.field)
    out = laplacian_matrix(f.d, f.n) @ f.coeffs
    return HomogPoly(f.n, f.d - 2, out, f.field)


# ------------------------------------------------- symmetric tensor dictionary


def poly_from_symmetric_tensor(t, tol=1e-10):
    """f(x) = <T, x (x) ... (x) x>; coefficient rule f_a = binom(d, a) t_rep."""
    if not is_symmetric(t, tol):
        raise SymmetryError("tensor is not symmetric within tolerance")
    n = t.shape[0]
    d = t.order
    expo = monomial_exponents(d, n)
    coeffs = np.empty(expo.shape[0], dtype=t.data.dtype)
    w = multinomial_weights(d, n)
    for i, alpha in enumerate(expo):
        rep = tuple(np.repeat(np.arange(n), alpha))
        coeffs[i] = w[i] * t.data[rep]
    return HomogPoly(n, d, coeffs, t.field)


def symmetric_tensor_from_poly(f):
    """Inverse of poly_from_symmetric_tensor: t_idx = f_a / binom(d, a)."""
    idx_map = monomial_index(f.d, f.n)
    w = multinomial_weights(f.d, f.n)
    data = np.empty((f.n,) * f.d, dtype=f.coeffs.dtype)
    for idx in product(range(f.n), repeat=f.d):
        alpha = tuple(np.bincount(idx, minlength=f.n))
        i = idx_map[alpha]
        data[idx] = f.coeffs[i] / w[i]
    return Tensor(data, f.field)


# --------------------------------------------------------- multi-homogeneous


@dataclass(frozen=True)
class MultiHomogPoly:
    """Multi-homogeneous polynomial with m variable blocks.

    Coefficients are flat over the product of per-block monomial orders,
    block 0 slowest.
    """

    ns: tuple
    ds: tuple
    coeffs: np.ndarray
    field: str

    def __post_init__(self):
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        object.__setattr__(self, "ds", tuple(int(d) for d in self.ds))
        if len(self.ns) != len(self.ds) or not self.ns:
            raise ShapeError("block count mismatch")
        coeffs = _field_array(self.coeffs, self.field)
        size = int(np.prod([num_monomials(d, n) for d, n in zip(self.ds, self.ns)]))
        if coeffs.shape != (size,):
            raise ShapeError(f"expected {size} coefficients, got {coeffs.shape}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def m(self):
        return len(self.ns)

    @property
    def exponents(self):
        return multi_monomial_exponents(self.ds, self.ns)

    @property
    def total_vars(self):
        return sum(self.ns)


@lru_cache(maxsize=None)
def multi_monomial_exponents(ds, ns):
    """Concatenated exponent rows over the flat coefficient order."""
    blocks = [monomial_exponents(d, n) for d, n in zip(ds, ns)]
    rows = []
    for combo in product(*[range(b.shape[0]) for b in blocks]):
        rows.append(np.concatenate([blocks[j][combo[j]] for j in range(len(blocks))]))
    arr = np.array(rows, dtype=np.int64)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def multi_multinomial_weights(ds, ns):
    """prod_j binom(d_j, alpha(j)) over the flat coefficient order."""
    blocks = [multinomial_weights(d, n) for d, n in zip(ds, ns)]
    w = blocks[0]
    for b in blocks[1:]:
        w = np.multiply.outer(w, b).ravel()
    w.setflags(write=False)
    return w


def _check_same_multi_space(f, g):
    if (f.ns, f.ds) != (g.ns, g.ds):
        raise ShapeError("block structure mismatch")
    if f.field != g.field:
        raise FieldError(f"field mismatch: {f.field} vs {g.field}")


def multi_bw_inner(f, g):
    _check_same_multi_space(f, g)
    w = multi_multinomial_weights(f.ds, f.ns)
    return np.vdot(f.coeffs, g.coeffs / w)


def multi_bw_norm(f):
    return float(np.sqrt(np.real(multi_bw_inner(f, f))))


def multi_evaluate(f, xs):
    vecs = [np.asarray(x) for x in xs]
    if len(vecs) != f.m:
        raise ShapeError(f"expected {f.m} blocks, got {len(vecs)}")
    for x, n in zip(vecs, f.ns):
        if x.shape != (n,):
            raise ShapeError(f"block has shape {x.shape}, expected ({n},)")
    z = np.concatenate(vecs)
    return evaluate_poly(f.coeffs, f.exponents, z)


def multi_gradient(f, xs):
    """Gradient with respect to the concatenated variables."""
    z = np.concatenate([np.asarray(x) for x in xs])
    return gradient_poly(f.coeffs, f.exponents, z)


def multi_from_single(f):
    return MultiHomogPoly((f.n,), (f.d,), f.coeffs, f.field)


def single_from_multi(F):
    if F.m != 1:
        raise ShapeError("not a single-block polynomial")
    return HomogPoly(F.ns[0], F.ds[0], F.coeffs, F.field)


# -------------------------------------------------------------- serialization


def _fmt_scalar(c, field):
    if field == REAL:
        return "%.17e" % c
    return "%.17e,%.17e" % (c.real, c.imag)


def dump_poly(f):
    lines = ["poly n=%d d=%d field=%s" % (f.n, f.d, f.field)]
    for alpha, c in zip(f.exponents, f.coeffs):
        lines.append("%s: %s" % (",".join(map(str, alpha)), _fmt_scalar(c, f.field)))
    return "\n".join(lines) + "\n"


def dump_multi_poly(f):
    lines = [
        "multipoly ns=%s ds=%s field=%s"
        % (",".join(map(str, f.ns)), ",".join(map(str, f.ds)), f.field)
    ]
    offsets = np.cumsum((0,) + f.ns)
    for row, c in zip(f.exponents, f.coeffs):
        key = "|".join(
            ",".join(map(str, row[offsets[j] : offsets[j + 1]])) for j in range(f.m)
        )
        lines.append("%s: %s" % (key, _fmt_scalar(c, f.field)))
    return "\n".join(lines) + "\n"


def _parse_coeffs(lines, index, field):
    """Dense coefficients from ``exponents: value`` lines (blocks split by |)."""
    coeffs = np.zeros(len(index), dtype=_dtype_for(field))
    for ln in lines:
        key, _, val = ln.partition(":")
        alpha = tuple(int(a) for part in key.split("|") for a in part.split(","))
        if alpha not in index:
            raise ValueError(f"monomial {key.strip()} does not fit the header")
        coeffs[index[alpha]] = _parse_scalar(val.strip(), field)
    return coeffs


def load_poly(text):
    kind, meta, body = _parse_header(
        text, {"poly": ("n", "d", "field"), "multipoly": ("ns", "ds", "field")}
    )
    field = meta["field"]
    if kind == "poly":
        n, d = int(meta["n"]), int(meta["d"])
        if n < 1 or d < 0:
            raise ValueError(f"bad poly header n={n} d={d}")
        coeffs = _parse_coeffs(body, monomial_index(d, n), field)
        return HomogPoly(n, d, coeffs, field)
    ns = tuple(int(s) for s in meta["ns"].split(","))
    ds = tuple(int(s) for s in meta["ds"].split(","))
    if min(ns) < 1 or min(ds) < 0:
        raise ValueError(f"bad multipoly header ns={ns} ds={ds}")
    expo = multi_monomial_exponents(ds, ns)
    index = {tuple(row): i for i, row in enumerate(expo)}
    return MultiHomogPoly(ns, ds, _parse_coeffs(body, index, field), field)
