"""Hot numeric kernels: monomial evaluation and gradients in numpy.

The batched kernels build one power table by repeated products, gather each
variable's factors from it with the point axis innermost, multiply them
elementwise and write each point's terms into one C-ordered row that is
summed along the last axis (no matrix product).  So every real row computes
exactly what it computes in a one-point call, whatever the batch and whatever
the coefficient shape.  They take one coefficient vector of shape (N,) for
every point, or one row of an (m, N) coefficient matrix per point.

A call over many points runs in row blocks, each through the same code, so
that the largest temporary of a block stays within ``_BLOCK_BYTES``.  A row's
value is the value a call over its block alone gives; a call of one block or
less is a single pass.

The kernels and the optimizers that call them allocate and free many numpy
temporaries of a few KiB to a few hundred KiB in every round.  glibc's malloc
serves the ones above its mmap threshold (128 KiB by default) by mmap and
returns the free top of its heap to the system once it exceeds the trim
threshold (also 128 KiB), so with the defaults those pages are faulted back
in on every call.  Importing this module sets both thresholds once, for the
whole process (see ``_keep_heap_resident``).
"""

import ctypes

import numpy as np

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap_resident():
    """Serve blocks under 1 MiB from the heap and trim its free top only past
    2 MiB, through glibc's ``mallopt``; True if libc took both settings.

    These are the values glibc's own dynamic rule reaches once a 1 MiB mmap'd
    block is freed, so the hot loop's temporaries stay resident whatever else
    the process imported or freed.  Pool workers forked later inherit the
    setting (spawned ones import this module and set it again).  A libc
    without ``mallopt`` (or one that refuses it) is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    trimmed = mallopt(_M_TRIM_THRESHOLD, 2 << 20)
    mapped = mallopt(_M_MMAP_THRESHOLD, 1 << 20)
    return trimmed == 1 and mapped == 1


_HEAP_KEPT = _keep_heap_resident()


def _promote(coeffs, x):
    dt = np.result_type(coeffs, x)
    return np.ascontiguousarray(coeffs, dtype=dt), np.ascontiguousarray(x, dtype=dt)


def _power_table(xs, top):
    """table[e * n + j] = xs[:, j] ** e for e = 0..top, by repeated products;
    shape ((top+1) * n, m)."""
    xt = np.ascontiguousarray(xs.T)
    table = np.empty((top + 1,) + xt.shape, dtype=xs.dtype)
    table[0] = 1
    if top:
        table[1] = xt
    for e in range(2, top + 1):
        np.multiply(table[e - 1], xt, out=table[e])
    return table.reshape((top + 1) * len(xt), len(xs))


# byte budget of a row block's largest temporary, the (n, N, rows) array of
# gradient terms, which also bounds the smaller temporaries of an
# evaluation.  Replaying the kernel calls of verifications of 16 forms and
# of 32 bi-forms with the heap kept resident, no budget from 64 KiB to 1 MiB
# and not one block per call was reliably faster than 128 KiB (best times
# within 8%, medians within the host's noise), while one block per call
# raised the forms peak RSS by 1.7%
_BLOCK_BYTES = 128 * 1024
_MIN_BLOCK_ROWS = 16


def _row_sums(terms, weights, shape):
    """Sum over the monomial axis of terms * weights, both laid out
    (..., N, m), through one C-ordered array of ``shape`` = (m, ..., N)."""
    out = np.empty(shape, dtype=terms.dtype)
    np.multiply(terms, weights, out=out.transpose(tuple(range(1, out.ndim)) + (0,)))
    return out.sum(axis=-1)


def _monomial_sums(coeffs, expo, xs, gradient):
    """Values (m,) and, if ``gradient``, gradients (m, n) of the monomial sum,
    computed block by block over the rows."""
    coeffs, xs = _promote(coeffs, xs)
    (m, n), size = xs.shape, len(expo)
    index = _factor_index(expo, n, gradient)
    rows = max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (n * size * xs.itemsize))
    if m <= rows:
        return _block_sums(coeffs, index, xs, gradient)
    per_row = coeffs.ndim == 2
    parts = [
        _block_sums(coeffs[a : a + rows] if per_row else coeffs, index, xs[a : a + rows], gradient)
        for a in range(0, m, rows)
    ]
    return tuple(map(np.concatenate, zip(*parts))) if gradient else np.concatenate(parts)


def _factor_index(expo, n, gradient):
    """What every row block of one call reads from the exponents: the top
    power, expo.T (n, N), the power-table rows of each factor x_j^a_j and,
    for a gradient, those of x_j^(a_j - 1) clipped at 0 (else None)."""
    et = expo.T
    cols = np.arange(n)[:, np.newaxis]
    shifted = np.maximum(et - 1, 0) * n + cols if gradient else None
    return int(expo.max(initial=0)), et, et * n + cols, shifted


def _block_sums(coeffs, index, xs, gradient):
    """``_monomial_sums`` of one row block, in one pass; ``index`` is the
    call's ``_factor_index``.

    A monomial is the running product of the variables' factors x_j^a_j in
    order.  The derivative of x^a in x_i is a_i x^(a - e_i): x_i's factor
    is swapped for x_i^(a_i - 1) between the product of the factors before
    it and the product of those after it.  Where a_i = 0 the shifted
    exponent is clipped to 0 and the term carries the weight a_i = 0.
    """
    top, et, factors, shifted = index
    (m, n), size = xs.shape, et.shape[1]
    table = _power_table(xs, top)
    ct = coeffs.T if coeffs.ndim == 2 else coeffs[:, np.newaxis]  # (N, m) or (N, 1)
    # (n, N, m): x_j^(a_j - 1), to be multiplied by the factors before and after
    terms = table[shifted] if gradient else None
    mono = table[factors[0]]
    for i in range(1, n):
        if gradient:
            terms[i] *= mono
        mono *= table[factors[i]]
    value = _row_sums(mono, ct, (m, size))
    if not gradient:
        return value
    after = table[factors[n - 1]]
    for i in range(n - 2, -1, -1):
        terms[i] *= after
        after *= table[factors[i]]
    weights = et[:, :, np.newaxis] * ct  # (i, N, m or 1): a_i * c_a
    return value, _row_sums(terms, weights, (m, n, size))


def evaluate_poly_many(coeffs, expo, xs):
    """Evaluate at many points; xs has shape (m, n), coeffs (N,) or (m, N)."""
    return _monomial_sums(coeffs, expo, xs, gradient=False)


def value_and_gradient_poly_many(coeffs, expo, xs):
    """Values (m,) and gradients (m, n) at many points from one power table,
    each exactly what ``evaluate_poly_many`` and ``gradient_poly_many``
    return for the same arguments."""
    return _monomial_sums(coeffs, expo, xs, gradient=True)


def gradient_poly_many(coeffs, expo, xs):
    """Gradients at many points, shape (m, n); holomorphic derivative for complex.

    coeffs is one vector (N,) for all points or an (m, N) matrix, row k for
    point k.
    """
    return _monomial_sums(coeffs, expo, xs, gradient=True)[1]


def evaluate_poly(coeffs, expo, x):
    """Sum of coeffs[a] * prod_i x[i]**expo[a, i] at one point (a one-row batch)."""
    return evaluate_poly_many(coeffs, expo, np.asarray(x)[np.newaxis, :])[0]


def gradient_poly(coeffs, expo, x):
    """Gradient of the monomial sum at one point (a one-row batch)."""
    return gradient_poly_many(coeffs, expo, np.asarray(x)[np.newaxis, :])[0]
