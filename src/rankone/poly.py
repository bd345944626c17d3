"""Multi-homogeneous polynomials with the Bombieri-Weyl inner product,
evaluation, Laplacian and the symmetric-tensor dictionary.

There is one polynomial class, ``MultiHomogPoly``; a form (``HomogPoly``)
is its one-block case, and every operation works on the blocks ``ns`` and
degrees ``ds``.  A point is the concatenation of its blocks.  Coefficients
are stored densely: within one block of fixed degree d, exponent tuples are
sorted lexicographically descending, so (d, 0, ..., 0) comes first.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, lgamma, prod

import numpy as np

from ._kernels import evaluate_poly, evaluate_poly_many, gradient_poly
from .tensor import (
    REAL,
    FieldError,
    Tensor,
    _dtype_for,
    _field_array,
    _format_scalar,
    _parse_header,
    _parse_scalar,
    is_symmetric,
)

_EXACT_MULTINOMIAL_MAX_D = 20

# most rows a monomial table may have, checked before one is built: loading
# the header of a form with 42,504 monomials (n=20 d=5) takes about 0.4 s
_MONOMIAL_BUDGET = 10**5


class ShapeError(ValueError):
    pass


class SymmetryError(ValueError):
    pass


def _check_monomial_budget(ds, ns, budget=_MONOMIAL_BUDGET, what="monomial table"):
    count = prod(num_monomials(d, n) for d, n in zip(ds, ns))
    if count > budget:
        raise ValueError(
            f"degrees {tuple(ds)} in {tuple(ns)} variables give {count} monomials, "
            f"over the {what} budget of {budget}"
        )


@lru_cache(maxsize=None)
def monomial_exponents(d, n):
    """All exponent tuples of degree d in n variables, as an int64 array."""
    _check_monomial_budget((d,), (n,))
    # each row's successor: move one unit from the last nonzero entry before
    # the final one to its right neighbour, which also takes the final entry
    a = [d] + [0] * (n - 1)
    rows = [tuple(a)]
    while any(a[:-1]):
        i = max(k for k in range(n - 1) if a[k])
        last, a[-1] = a[-1], 0
        a[i] -= 1
        a[i + 1] = last + 1
        rows.append(tuple(a))
    arr = np.array(rows, dtype=np.int64).reshape(-1, n)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def monomial_index(d, n):
    return {tuple(row): i for i, row in enumerate(monomial_exponents(d, n))}


def _monomial_position(d, n, alpha):
    """Index of the multi-index ``alpha`` among the degree-d monomials in n
    variables; a ``ShapeError`` naming it if it is not one of them."""
    alpha = tuple(alpha)
    i = monomial_index(d, n).get(alpha)
    if i is None:
        raise ShapeError(f"multi-index {alpha} is not a monomial of degree {d} in {n} variables")
    return i


def num_monomials(d, n):
    return comb(d + n - 1, d)


def multinomial(d, alpha):
    """d! / prod(alpha_i!), exact for d <= 20, log-gamma above."""
    if d <= _EXACT_MULTINOMIAL_MAX_D:
        out = factorial(d)
        for a in alpha:
            out //= factorial(a)
        return float(out)
    lg = lgamma(d + 1) - sum(lgamma(a + 1) for a in alpha)
    return float(np.exp(lg))


@lru_cache(maxsize=None)
def multinomial_weights(d, n):
    """Vector of binom(d, alpha) over the canonical monomial order."""
    expo = monomial_exponents(d, n)
    w = np.array([multinomial(d, tuple(row)) for row in expo])
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class MultiHomogPoly:
    """Multi-homogeneous polynomial with one variable block per entry of
    ``ns``, of degree ``ds[j]`` in block j.

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
        size = prod(num_monomials(d, n) for d, n in zip(self.ds, self.ns))
        if coeffs.shape != (size,):
            raise ShapeError(f"expected {size} coefficients, got {coeffs.shape}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def exponents(self):
        return multi_monomial_exponents(self.ds, self.ns)


class HomogPoly(MultiHomogPoly):
    """Degree-d form in n variables: the one-block multi-form."""

    def __init__(self, n, d, coeffs, field):
        MultiHomogPoly.__init__(self, (n,), (d,), coeffs, field)

    @property
    def n(self):
        return self.ns[0]

    @property
    def d(self):
        return self.ds[0]

    def coefficient(self, alpha):
        return self.coeffs[_monomial_position(self.d, self.n, alpha)]


@lru_cache(maxsize=None)
def multi_monomial_exponents(ds, ns):
    """Concatenated exponent rows over the flat coefficient order."""
    _check_monomial_budget(ds, ns)
    blocks = [monomial_exponents(d, n) for d, n in zip(ds, ns)]
    picks = np.indices([len(b) for b in blocks]).reshape(len(blocks), -1)
    arr = np.concatenate([b[p] for b, p in zip(blocks, picks)], axis=1)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def multi_multinomial_weights(ds, ns):
    """prod_j binom(d_j, alpha(j)) over the flat coefficient order."""
    _check_monomial_budget(ds, ns)
    blocks = [multinomial_weights(d, n) for d, n in zip(ds, ns)]
    w = blocks[0]
    for b in blocks[1:]:
        w = np.multiply.outer(w, b).ravel()
    w.setflags(write=False)
    return w


def poly_from_coeff_dict(n, d, entries, field=REAL):
    coeffs = np.zeros(num_monomials(d, n), dtype=_dtype_for(field))
    for alpha, c in entries.items():
        coeffs[_monomial_position(d, n, alpha)] = c
    return HomogPoly(n, d, coeffs, field)


def _check_same_space(f, g):
    if (f.ns, f.ds) != (g.ns, g.ds):
        raise ShapeError(f"(ns, ds) mismatch: {(f.ns, f.ds)} vs {(g.ns, g.ds)}")
    if f.field != g.field:
        raise FieldError(f"field mismatch: {f.field} vs {g.field}")


def _form_shape(f):
    """(n, d) of a form, given as a ``HomogPoly`` or a one-block multi-form."""
    if len(f.ns) != 1:
        raise ShapeError(f"need a form (one block), got (ns, ds) = {(f.ns, f.ds)}")
    return f.ns[0], f.ds[0]


def bw_inner(f, g):
    """Bombieri-Weyl product: sum over alpha of conj(f_a) g_a / prod_j
    binom(d_j, alpha(j))."""
    _check_same_space(f, g)
    w = multi_multinomial_weights(f.ds, f.ns)
    return np.vdot(f.coeffs, g.coeffs / w)


def bw_norm(f):
    return float(np.sqrt(np.real(bw_inner(f, f))))


def _points(f, x, ndim):
    """x as an array of ``ndim`` axes whose last holds the sum(f.ns)
    coordinates of a point, its blocks concatenated."""
    x = np.asarray(x)
    size = sum(f.ns)
    if x.ndim != ndim or x.shape[-1] != size:
        expected = f"({size},)" if ndim == 1 else f"(m, {size})"
        raise ShapeError(f"points have shape {x.shape}, expected {expected}")
    return x


def evaluate(f, x):
    """f at one point x, the concatenation of its blocks."""
    return evaluate_poly(f.coeffs, f.exponents, _points(f, x, 1))


def evaluate_many(f, xs):
    """f at each row of xs, shape (m, sum(f.ns))."""
    return evaluate_poly_many(f.coeffs, f.exponents, _points(f, xs, 2))


def gradient(f, x):
    """Gradient with respect to the concatenated variables."""
    return gradient_poly(f.coeffs, f.exponents, _points(f, x, 1))


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
    n, d = _form_shape(f)
    if d < 2:
        return HomogPoly(n, 0, np.zeros(1, dtype=f.coeffs.dtype), f.field)
    return HomogPoly(n, d - 2, laplacian_matrix(d, n) @ f.coeffs, f.field)


# ------------------------------------------------- symmetric tensor dictionary


def poly_from_symmetric_tensor(t, tol=1e-10):
    """f(x) = <T, x (x) ... (x) x>; coefficient rule f_a = binom(d, a) t_rep,
    t_rep the entry of a's sorted indices."""
    if not is_symmetric(t, tol):
        raise SymmetryError("tensor is not symmetric within tolerance")
    n, d = t.shape[0], t.order
    weights = multinomial_weights(d, n)  # checks the monomial budget first
    _, reps = _entry_monomials(d, n)
    return HomogPoly(n, d, weights * t.data.ravel()[reps], t.field)


@lru_cache(maxsize=None)
def _entry_monomials(d, n):
    """The monomial index of every entry of an order-d tensor in n variables,
    in C order, and the flat index of every monomial's sorted entry, in
    monomial order: entry (i_1, ..., i_d) holds the monomial whose exponent
    of x_j counts the i's equal to j, and its sorted entry has i_1 <= ... <=
    i_d.

    An entry's sorted indices, read as a base-n number, are the flat index of
    the sorted entry, and the sorted entries in flat order are the monomials
    in their descending exponent order, so a monomial's index is the rank of
    its sorted entry among them."""
    size = n**d
    digits = n ** np.arange(d - 1, -1, -1, dtype=np.int64)
    key = digits @ np.sort(np.indices((n,) * d).reshape(d, size), axis=0)
    is_sorted = key == np.arange(size)
    monomials, reps = (np.cumsum(is_sorted) - 1)[key], np.flatnonzero(is_sorted)
    monomials.setflags(write=False)
    reps.setflags(write=False)
    return monomials, reps


def symmetric_tensor_from_poly(f):
    """Inverse of poly_from_symmetric_tensor: t_idx = f_a / binom(d, a)."""
    n, d = _form_shape(f)
    monomials, _ = _entry_monomials(d, n)
    data = (f.coeffs / multinomial_weights(d, n))[monomials]
    return Tensor(data.reshape((n,) * d), f.field)


# -------------------------------------------------------------- serialization


def dump_poly(f):
    """``poly`` text for a form, ``multipoly`` text for any other multi-form:
    a header, then one ``exponents: value`` line per monomial, blocks split
    by |."""
    if isinstance(f, HomogPoly):
        lines = ["poly n=%d d=%d field=%s" % (f.n, f.d, f.field)]
    else:
        lines = [
            "multipoly ns=%s ds=%s field=%s"
            % (",".join(map(str, f.ns)), ",".join(map(str, f.ds)), f.field)
        ]
    offsets = np.cumsum((0,) + f.ns)
    for row, c in zip(f.exponents, f.coeffs):
        key = "|".join(",".join(map(str, row[a:b])) for a, b in zip(offsets[:-1], offsets[1:]))
        lines.append("%s: %s" % (key, _format_scalar(c, f.field)))
    return "\n".join(lines) + "\n"


def _parse_coeffs(lines, index, field):
    """Dense coefficients from ``exponents: value`` lines (blocks split by |);
    each monomial may be given once."""
    coeffs = np.zeros(len(index), dtype=_dtype_for(field))
    seen = set()
    for ln in lines:
        key, _, val = ln.partition(":")
        alpha = tuple(int(a) for part in key.split("|") for a in part.split(","))
        if alpha not in index:
            raise ValueError(f"monomial {key.strip()} does not fit the header")
        if alpha in seen:
            raise ValueError(f"monomial {key.strip()} given twice")
        seen.add(alpha)
        coeffs[index[alpha]] = _parse_scalar(val.strip(), field)
    return coeffs


def load_poly(text):
    kind, meta, body = _parse_header(
        text, {"poly": ("n", "d", "field"), "multipoly": ("ns", "ds", "field")}
    )
    field = meta["field"]
    if kind == "poly":
        ns, ds = (int(meta["n"]),), (int(meta["d"]),)
    else:
        ns = tuple(int(s) for s in meta["ns"].split(","))
        ds = tuple(int(s) for s in meta["ds"].split(","))
    if min(ns) < 1 or min(ds) < 0:
        raise ValueError(f"bad {kind} header ns={ns} ds={ds}")
    expo = multi_monomial_exponents(ds, ns)
    coeffs = _parse_coeffs(body, {tuple(row): i for i, row in enumerate(expo)}, field)
    if kind == "poly":
        return HomogPoly(ns[0], ds[0], coeffs, field)
    return MultiHomogPoly(ns, ds, coeffs, field)
