"""Hot numeric kernels: monomial evaluation and gradients in numpy.

The batched kernels build one power table by repeated products, gather each
variable's factors from it with the point axis innermost, multiply them
elementwise and write each point's terms into one C-ordered row that is
summed along the last axis (no matrix product).  So every real row computes
exactly what it computes in a one-point call, whatever the batch and whatever
the coefficient shape.  They take one coefficient vector of shape (N,) for
every point, or one row of an (m, N) coefficient matrix per point, or (an
evaluation only) an (R, N) matrix with R < m dividing m, whose rows each
serve a run of m / R consecutive points by broadcasting instead of a
repeated copy of the row.  The index every call reads from the exponents
(``_factor_index``) can be built once by the caller and passed in (the
private ``index``).  A call's largest temporary is the (n, N, m) gradient
terms of a gradient call, the (N, m) monomials of an evaluation, or the
power table.  A call whose largest temporary fits in 512 KiB is one pass; a
larger one runs in passes of as many whole runs of points as fit (one run at
least), each through the same code, so that its memory stays bounded
whatever the batch and its temporaries stay on the heap (below).

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
    the process imported or freed.  The workers of a Monte Carlo pass are
    forked from this process and inherit the setting.  A libc without
    ``mallopt`` (or one that refuses it) is left as it is."""
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


def _row_sums(terms, weights, shape, lead=1):
    """Sum over the monomial axis of terms * weights, both laid out
    (..., N, *points), through one C-ordered array of ``shape`` = (*points,
    ..., N) whose ``lead`` leading axes are the point axes."""
    out = np.empty(shape, dtype=terms.dtype)
    axes = tuple(range(lead, out.ndim)) + tuple(range(lead))
    np.multiply(terms, weights, out=out.transpose(axes))
    return out.sum(axis=-1)


def _factor_index(expo, n, gradient):
    """What a call reads from the exponents: the top power, expo.T (n, N),
    the power-table rows of each factor x_j^a_j and, for a gradient, those of
    x_j^(a_j - 1) clipped at 0 (else None).  An index built for a gradient
    also serves evaluations."""
    et = expo.T
    cols = np.arange(n)[:, np.newaxis]
    shifted = np.maximum(et - 1, 0) * n + cols if gradient else None
    return int(expo.max(initial=0)), et, et * n + cols, shifted


def _monomial_sums(coeffs, expo, xs, gradient, index=None):
    """Values (m,) and, if ``gradient``, gradients (m, n) of the monomial sum,
    in passes of at most 512 KiB per temporary (see the module docstring);
    ``index`` is ``_factor_index(expo, n, True)`` built by the caller, or
    None to build the call's own.

    A monomial is the running product of the variables' factors x_j^a_j in
    order.  The derivative of x^a in x_i is a_i x^(a - e_i): x_i's factor
    is swapped for x_i^(a_i - 1) between the product of the factors before
    it and the product of those after it.  Where a_i = 0 the shifted
    exponent is clipped to 0 and the term carries the weight a_i = 0.
    An evaluation whose (R, N) coefficient matrix has R < m rows, R dividing
    m, sums its points as (R, m / R), each row broadcast over its run of
    points: the same products and sums as with the row repeated.
    """
    coeffs, xs = _promote(coeffs, xs)
    m, n = xs.shape
    rows = len(coeffs) if coeffs.ndim == 2 else m
    if rows != m and (gradient or not 0 < rows < m or m % rows):
        raise ValueError(f"{rows} coefficient rows for {m} points")
    if index is None:
        index = _factor_index(expo, n, gradient)
    top, et, factors, shifted = index
    size = et.shape[1]
    # points per coefficient row; a pass takes as many whole runs as keep its
    # gradient terms, monomials and power table within 512 KiB (one run at
    # least), under the 1 MiB below which _keep_heap_resident keeps blocks on
    # the heap
    run = m // rows if rows < m else 1
    width = max(size * (n if gradient else 1), (top + 1) * n) * xs.itemsize
    step = run * max(1, (1 << 19) // (run * width))
    if m > step:
        parts = [
            _monomial_sums(
                coeffs[a // run : (a + step) // run] if coeffs.ndim == 2 else coeffs,
                expo,
                xs[a : a + step],
                gradient,
                index,
            )
            for a in range(0, m, step)
        ]
        return tuple(map(np.concatenate, zip(*parts))) if gradient else np.concatenate(parts)
    table = _power_table(xs, top)
    ct = coeffs.T if coeffs.ndim == 2 else coeffs[:, np.newaxis]  # (N, rows) or (N, 1)
    # (n, N, m): x_j^(a_j - 1), to be multiplied by the factors before and after
    terms = table[shifted] if gradient else None
    mono = table[factors[0]]
    for i in range(1, n):
        if gradient:
            terms[i] *= mono
        mono *= table[factors[i]]
    if rows < m:  # an evaluation's runs of points
        runs = (rows, run)
        return _row_sums(mono.reshape(size, *runs), ct[:, :, np.newaxis], runs + (size,), 2).reshape(m)
    value = _row_sums(mono, ct, (m, size))
    if not gradient:
        return value
    after = table[factors[n - 1]]
    for i in range(n - 2, -1, -1):
        terms[i] *= after
        after *= table[factors[i]]
    weights = et[:, :, np.newaxis] * ct  # (i, N, m or 1): a_i * c_a
    return value, _row_sums(terms, weights, (m, n, size))


def evaluate_poly_many(coeffs, expo, xs, *, index=None):
    """Evaluate at many points; xs has shape (m, n), coeffs (N,), (m, N) or
    (R, N) with R dividing m, whose row k serves the m / R consecutive points
    from k m / R on.

    ``index`` is private to rankone: a ``_factor_index`` built once for many
    calls."""
    return _monomial_sums(coeffs, expo, xs, False, index)


def value_and_gradient_poly_many(coeffs, expo, xs, *, index=None):
    """Values (m,) and gradients (m, n) at many points from one power table,
    each exactly what ``evaluate_poly_many`` and ``gradient_poly_many``
    return for the same arguments (``index`` as in ``evaluate_poly_many``)."""
    return _monomial_sums(coeffs, expo, xs, True, index)


def gradient_poly_many(coeffs, expo, xs):
    """Gradients at many points, shape (m, n); holomorphic derivative for complex.

    coeffs is one vector (N,) for all points or an (m, N) matrix, row k for
    point k; any other row count is a ``ValueError``.
    """
    return _monomial_sums(coeffs, expo, xs, True)[1]


def evaluate_poly(coeffs, expo, x):
    """Sum of coeffs[a] * prod_i x[i]**expo[a, i] at one point (a one-row batch)."""
    return evaluate_poly_many(coeffs, expo, np.asarray(x)[np.newaxis, :])[0]


def gradient_poly(coeffs, expo, x):
    """Gradient of the monomial sum at one point (a one-row batch)."""
    return gradient_poly_many(coeffs, expo, np.asarray(x)[np.newaxis, :])[0]
