"""Dense tensors, Frobenius geometry and multilinear contractions."""

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


def contract_all_but(t, xs, j):
    """Vector v with v[i] = <T, x^1 (x) ... e_i ... (x) x^d> in slot j.

    The plain bilinear pairing sum_i v[i] * x^j[i] recovers <T, x^1 (x) ... (x) x^d>
    for both fields.
    """
    d = t.order
    if not 0 <= j < d:
        raise IndexError(f"mode {j} out of range for order {d}")
    cur = np.conj(t.data)
    # contract trailing modes first so that axis numbers stay valid
    for k in range(d - 1, -1, -1):
        if k == j:
            continue
        cur = np.tensordot(cur, xs.vectors[k], axes=([k], [0]))
    return cur


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
    for v in t.data.ravel():
        if t.field == REAL:
            lines.append("%.17e" % v)
        else:
            lines.append("%.17e,%.17e" % (v.real, v.imag))
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
    field = meta["field"]
    vals = [_parse_scalar(ln.strip(), field) for ln in body]
    data = np.array(vals, dtype=_dtype_for(field)).reshape(shape)
    return Tensor(data, field)
