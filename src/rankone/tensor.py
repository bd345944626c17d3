"""Dense tensors, Frobenius geometry and multilinear contractions.

The batched contractions work on a row-first stack (``row_stack``): the
conjugated data of many same-shape tensors, one per row, shape
(S, n_0, ..., n_{d-1}).  ``contract_back`` contracts the last modes with
one vector per row and keeps every partial result (the suffix contractions
a Gauss-Seidel sweep shares between its modes), ``contract_front`` the
first modes; each mode is one batched matmul over the rows.
"""

import math
from dataclasses import dataclass
from itertools import permutations
from math import factorial

import numpy as np

REAL = "real"
COMPLEX = "complex"

_UNIT_TOL = 1e-12


class DimensionError(ValueError):
    pass


class FieldError(ValueError):
    pass


def _dtype_for(field):
    if field == REAL:
        return np.float64
    if field == COMPLEX:
        return np.complex128
    raise FieldError(f"unknown field {field!r}")


def _field_array(values, field):
    """Values as a read-only contiguous array over the field; NaN/inf rejected."""
    arr = np.ascontiguousarray(values, dtype=_dtype_for(field))
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries (NaN or inf)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Tensor:
    """Dense tensor with an explicit scalar-field tag.

    Data is stored row-major (last index fastest).  Instances are immutable
    and safe to share across workers.
    """

    data: np.ndarray
    field: str

    def __post_init__(self):
        data = _field_array(self.data, self.field)
        object.__setattr__(self, "data", data)
        if data.ndim < 1 or any(n < 1 for n in data.shape):
            raise DimensionError(f"invalid shape {data.shape}")

    @property
    def shape(self):
        return self.data.shape

    @property
    def order(self):
        return self.data.ndim


def tensor_from_array(arr, field=None):
    arr = np.asarray(arr)
    if field is None:
        field = COMPLEX if np.iscomplexobj(arr) else REAL
    if field == REAL and np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            raise FieldError("complex entries in a real tensor")
        arr = arr.real
    return Tensor(arr, field)


def _check_same_space(t1, t2):
    if t1.shape != t2.shape:
        raise DimensionError(f"shape mismatch: {t1.shape} vs {t2.shape}")
    if t1.field != t2.field:
        raise FieldError(f"field mismatch: {t1.field} vs {t2.field}")


def frobenius_inner(t1, t2):
    """Hermitian entrywise product, conjugate-linear in the first slot."""
    _check_same_space(t1, t2)
    return np.vdot(t1.data, t2.data)


def frobenius_norm(t):
    return float(np.linalg.norm(t.data.ravel()))


@dataclass(frozen=True)
class UnitVectorTuple:
    """One unit vector per tensor mode."""

    vectors: tuple
    field: str

    def __post_init__(self):
        vecs = tuple(
            np.ascontiguousarray(v, dtype=_dtype_for(self.field)) for v in self.vectors
        )
        for v in vecs:
            nrm = np.linalg.norm(v)
            if abs(nrm - 1.0) > _UNIT_TOL:
                raise ValueError(f"vector norm {nrm} is not 1 within {_UNIT_TOL}")
        object.__setattr__(self, "vectors", vecs)


def rank_one(lam, xs):
    """lam * x^1 (x) ... (x) x^d with unit factors xs."""
    out = np.array(lam, dtype=_dtype_for(xs.field))
    for v in xs.vectors:
        out = np.multiply.outer(out, v)
    return Tensor(out, xs.field)


def row_stack(tensors):
    """The data of same-shape tensors laid out for the ``contract_*`` functions.

    Conjugated for complex tensors and stacked row-first, one tensor per row:
    shape (K, n_0, ..., n_{d-1}).  A batch gathers its rows from it with one
    fancy index, ``stack[which]``.
    """
    fields = {t.field for t in tensors}
    if len(fields) != 1:
        raise FieldError(f"need one field, got {sorted(fields)}")
    data = np.stack([t.data for t in tensors])
    return np.conj(data) if COMPLEX in fields else data


def contract_back(rows, xs):
    """Contract row-first tensors in their last modes, the last mode first.

    ``rows`` (S, n_0, ..., n_{d-1}) holds one tensor per row and ``xs`` one
    (S, n_k) array for each of the last m = len(xs) modes, in mode order.
    Returns [R_{d-m}, ..., R_{d-1}, R_d]: R_d = ``rows`` and R_k, of shape
    (S, n_0, ..., n_{k-1}), is R_{k+1} contracted in its last mode with x_k,
    row s with row s, so every R_k that a Gauss-Seidel sweep needs comes from
    one pass.  Each contraction is one batched matmul (a matrix-vector
    product per row), so a row's result does not depend on the other rows.
    """
    out = [rows]
    for x in reversed(xs):
        cur = out[-1]
        prod = np.matmul(cur.reshape(len(x), -1, x.shape[1]), x[:, :, np.newaxis])
        out.append(prod.reshape(cur.shape[:-1]))
    return out[::-1]


def contract_front(rows, xs):
    """Contract row-first tensors in their first modes, the first mode first.

    ``rows`` (S, n_0, ..., n_k) and ``xs`` one (S, n_i) array for each of the
    first m = len(xs) modes: returns the (S, n_m, ..., n_k) array whose row s
    is row s of ``rows`` contracted with row s of x_0, ..., x_{m-1}.  With
    A = ``row_stack`` of tensors T, v = ``contract_front(contract_back(A,
    x_{j+1:})[0], x_{:j})`` has v[i] = <T, x^0 (x) ... e_i ... (x) x^{d-1}>
    (e_i in slot j) in each row, and the plain bilinear pairing
    sum_i v[i] x^j[i] recovers <T, x^0 (x) ... (x) x^{d-1}> for both fields.
    One batched matmul (a vector-matrix product per row) per mode, so a
    row's result does not depend on the other rows.
    """
    for x in xs:
        prod = np.matmul(x[:, np.newaxis], rows.reshape(len(x), x.shape[1], -1))
        rows = prod.reshape(rows.shape[:1] + rows.shape[2:])
    return rows


def _is_cubical(t):
    return all(n == t.shape[0] for n in t.shape)


def symmetrize(t):
    """Average over all index permutations (cubical tensors only)."""
    if not _is_cubical(t):
        raise DimensionError(f"symmetrize needs a cubical shape, got {t.shape}")
    d = t.order
    acc = np.zeros_like(t.data)
    for perm in permutations(range(d)):
        acc = acc + np.transpose(t.data, perm)
    return Tensor(acc / factorial(d), t.field)


def is_symmetric(t, tol=1e-10):
    """Check invariance under adjacent transpositions (they generate S_d)."""
    if not _is_cubical(t):
        raise DimensionError(f"symmetry check needs a cubical shape, got {t.shape}")
    d = t.order
    for k in range(d - 1):
        perm = list(range(d))
        perm[k], perm[k + 1] = perm[k + 1], perm[k]
        if np.max(np.abs(t.data - np.transpose(t.data, perm))) > tol:
            return False
    return True


# -------------------------------------------------------------- serialization


def dump_tensor(t):
    lines = [
        "tensor shape=%s field=%s" % (",".join(map(str, t.shape)), t.field)
    ]
    lines.extend(_format_scalar(v, t.field) for v in t.data.ravel())
    return "\n".join(lines) + "\n"


def _parse_header(text, kinds):
    """Split a serialization into (kind, header fields, body lines).

    The first non-blank line reads ``kind key=value ...``; ``kinds`` maps each
    accepted kind to the keys its header must carry.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if not head or head[0] not in kinds:
        raise ValueError(f"not a {' or '.join(kinds)} serialization")
    meta = dict(kv.partition("=")[::2] for kv in head[1:])
    missing = [k for k in kinds[head[0]] if not meta.get(k)]
    if missing:
        raise ValueError(f"{head[0]} header lacks {', '.join(missing)}")
    return head[0], meta, lines[1:]


def _format_scalar(c, field):
    """The text ``_parse_scalar`` reads back: ``%.17e``, or ``re,im`` for a
    complex field."""
    if field == REAL:
        return "%.17e" % c
    return "%.17e,%.17e" % (c.real, c.imag)


def _parse_scalar(s, field):
    parts = s.split(",")
    if len(parts) != (1 if field == REAL else 2):
        raise ValueError(f"bad {field} entry {s!r}")
    if field == REAL:
        return float(parts[0])
    return complex(float(parts[0]), float(parts[1]))


def load_tensor(text):
    _, meta, body = _parse_header(text, {"tensor": ("shape", "field")})
    shape = tuple(int(s) for s in meta["shape"].split(","))
    if min(shape) < 1:
        raise ValueError(f"bad tensor header shape={meta['shape']}")
    field = meta["field"]
    vals = [_parse_scalar(ln.strip(), field) for ln in body]
    size = math.prod(shape)
    if len(vals) != size:
        shown = ",".join(map(str, shape))
        raise ValueError(f"tensor shape={shown} needs {size} entries, got {len(vals)}")
    data = np.array(vals, dtype=_dtype_for(field)).reshape(shape)
    return Tensor(data, field)
