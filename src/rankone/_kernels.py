"""Hot numeric kernels: monomial evaluation and gradients in numpy.

An evaluation builds one power table by repeated products and forms each
monomial as the running product of its nonzero factors x_j^a_j in variable
order, gathered from the table with the point axis innermost (a factor
x_j^0 = 1 would leave the product as it is).  Each point's terms c_a x^a are
added in monomial order by one reduction over the leading monomial axis (no
matrix product).  A gradient contracts the monomials of one degree less with
the derivative matrix: df/dx_i = sum_b D[b, i] x^b, where D[a - e_i, i] =
a_i c_a and b runs over the lowered monomials a - e_i (one set per block of
variables whose degree is the same in every monomial, so one per block of a
multi-form), each added in order.  A point so costs its N_{d-1} x n products
rather than one term per (variable, monomial) pair, most of them weighted
a_i = 0.  The value of a gradient call is formed exactly as an evaluation
forms it.  So every real row computes exactly what it computes in a
one-point call, whatever the batch and whatever the coefficient shape.

The kernels take R coefficient rows for m points, an (R, N) matrix with
R >= 1 dividing m (or R = m = 0): row k serves the run of m / R consecutive
points from k m / R on, by broadcasting instead of a repeated copy of the
row.  One row per point and one row for every point are the two ends of that
one rule, for values and gradients alike; an (N,) vector is the one row of
the one run of all m points (no run when m = 0).  A call takes its points
run position first, as (run, count), and forms one power table and one
running product per pass (the lowered monomials with the monomials in a
gradient call), so values are summed over (N, run, count) and gradients over
the products (K, run, count, n_b) of each row's derivative matrix with its
run's lowered monomials.  The index every call reads from the exponents
(``_factor_index``) is kept for the last few tables, or built once by the
caller and passed in (the private ``index``).  So can the derivative
matrices of a stack of coefficient rows, one row per object rather than per
point (``_derivative_matrix``, the private ``mats``); the private ``rows``
names the row of each run (all R in order by default), and every pass
gathers its runs' rows of both, or builds its matrices from its rows.  A
call's largest temporary is a gradient's derivative products (N_{d-1} x n_b
per point and block), an evaluation's N monomials per point (with the
lowered ones in a gradient call), or the power table.  A call whose largest
temporary fits in 512 KiB is one pass; a larger one runs in passes of as
many whole runs of points as fit, each through the same code, so that its
memory stays bounded whatever the batch and its temporaries stay on the heap
(below).  A run longer than a pass is cut into passes of at most a pass's
points, whatever its length, which share the run's one gathered row and its
derivative matrix.

The kernels and the optimizers that call them allocate and free many numpy
temporaries of a few KiB to a few hundred KiB in every round.  glibc's malloc
serves the ones above its mmap threshold (128 KiB by default) by mmap and
returns the free top of its heap to the system once it exceeds the trim
threshold (also 128 KiB), so with the defaults those pages are faulted back
in on every call.  Importing this module sets both thresholds once, for the
whole process (see ``_keep_heap_resident``).
"""

import ctypes
from functools import lru_cache

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
    """Both in their common dtype, the points contiguous (a pass gathers its
    coefficient rows)."""
    dt = np.result_type(coeffs, x)
    return np.asarray(coeffs, dtype=dt), np.ascontiguousarray(x, dtype=dt)


def _power_table(xt, top):
    """table[e * n + j] = xt[j] ** e for e = 0..top, by repeated products;
    xt holds the points' coordinates as (n, ...), the table is ((top+1) * n,
    ...)."""
    table = np.empty((top + 1,) + xt.shape, dtype=xt.dtype)
    table[0] = 1
    if top:
        table[1] = xt
        xt = table[1]  # contiguous, whatever the strides of the points
    for e in range(2, top + 1):
        np.multiply(table[e - 1], xt, out=table[e])
    return table.reshape(((top + 1) * len(xt),) + xt.shape[1:])


def _factors(expo, n):
    """Power-table rows (w, M) of each monomial's nonzero factors x_j^a_j in
    variable order, padded to the widest monomial's count w >= 1 with row 0,
    x_0^0 = 1."""
    r, j = np.nonzero(expo)
    slot = np.arange(len(r)) - np.searchsorted(r, r)  # the factor's place in its monomial
    rows = np.zeros((int(slot.max(initial=0)) + 1, len(expo)), dtype=np.intp)
    rows[slot, r] = expo[r, j] * n + j
    return rows


def _products(table, factors):
    """The monomials (M, m) of the factor rows ``factors`` (w, M): running
    products of the gathered factors, the first factor first."""
    out = table[factors[0]]
    for f in factors[1:]:
        out *= table[f]
    return out


def _sum_leading(terms):
    """Sum over the leading axis, each entry adding its terms in order.  numpy
    adds the slices of a leading axis in order when a slice holds two
    entries or more; one entry (one point) it would sum pairwise, so that
    case is accumulated."""
    if len(terms) > 1 and terms[0].size == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


def _factor_index(expo, n):
    """What a call reads from the exponents: (top, factors, N, blocks,
    width).  ``top`` is the top power and ``factors`` (``_factors``) are the
    factor rows of the N monomials and of the lowered monomials after them,
    whose products a gradient pass forms together (an evaluation takes the
    first N).  ``blocks`` holds one entry per block and ``width`` the largest
    of a gradient pass's temporaries per point.

    A block is a run of variables whose degree is the same in every monomial
    (a multi-form's blocks; all variables when no shorter run has one
    degree), and its lowered monomials are the distinct a - e_i with i in the
    block and a_i > 0, in descending lexicographic order, K of them.  A
    block's entry holds its columns, its slice of the lowered monomials and,
    per pair (a, i), the row b = a - e_i and column i - (first column) of
    D[b, i], the monomial a and the weight a_i.  A block without pairs
    (degree 0) has no entry: its gradient is 0.

    The pairs are found on each monomial's sorted tuple of variables (x_j
    repeated a_j times, padded with n to the top degree L): a - e_i drops
    the first i from the tuple, and ascending tuples are descending
    exponents.  So building the index holds no more than (pairs, L) or (N,
    n) integers at once."""
    top, size = int(expo.max(initial=0)), len(expo)
    r, j = np.nonzero(expo)
    e = expo[r, j]
    flat = np.cumsum(e) - e  # where each pair's run starts in the tuples laid end to end
    start = flat[np.searchsorted(r, r)]  # and where its monomial's tuple starts
    place = flat - start
    length = int(expo.sum(axis=1).max(initial=0))
    tuples = np.full((size, length), n, dtype=np.intp)
    tuples[np.repeat(r, e), np.arange(int(e.sum())) - np.repeat(start, e)] = np.repeat(j, e)
    cuts, total = [0], np.zeros(size, dtype=np.int64)
    for col in range(n - 1):
        total += expo[:, col]
        if (total == total[:1]).all():
            cuts.append(col + 1)
    cuts.append(n)
    keep = np.arange(length - 1)
    blocks, lowered, k = [], [], size
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pairs = np.flatnonzero((j >= lo) & (j < hi))
        if not len(pairs):
            continue
        low = tuples[r[pairs, np.newaxis], keep + (keep >= place[pairs, np.newaxis])]
        order = np.lexsort(low.T[::-1]) if length > 1 else np.arange(len(low))
        low = low[order]
        fresh = np.concatenate(([True], (low[1:] != low[:-1]).any(axis=1)))
        b = np.empty(len(order), dtype=np.intp)
        b[order] = np.cumsum(fresh) - 1
        low = low[fresh]
        count = len(low)
        dense = np.zeros((count, n + 1), dtype=expo.dtype)
        np.add.at(dense, (np.repeat(np.arange(count), low.shape[1]), low.ravel()), 1)
        lowered.append(dense[:, :n])
        blocks.append((slice(lo, hi), slice(k, k + count), b, j[pairs] - lo, r[pairs], e[pairs].astype(np.float64)))
        k += count
    # the lowered monomials have no more factors than the monomials: pad them
    factors, low = _factors(expo, n), _factors(np.concatenate(lowered or [expo[:0]]), n)
    factors = np.hstack((factors, np.pad(low, ((0, len(factors) - len(low)), (0, 0)))))
    width = max([k] + [(b.stop - b.start) * (c.stop - c.start) for c, b, *_ in blocks])
    return top, factors, size, tuple(blocks), width


@lru_cache(maxsize=16)
def _index_of(shape, dtype, data):
    """``_factor_index`` of the exponent table with this shape, dtype and
    bytes, kept for the last 16 tables, so that one-point calls do not build
    it each time."""
    return _factor_index(np.frombuffer(data, dtype=dtype).reshape(shape), shape[1])


def _derivative_matrix(coeffs, index):
    """Each block's derivative matrices of the coefficient rows ``coeffs``
    (R, N), shape (K, R, n_b): D[b, r, i] = a_i coeffs[r, a] for b = a - e_i,
    else 0."""
    mats = []
    _, _, _, blocks, _ = index
    for cols, lows, b, col, src, weight in blocks:
        d = np.zeros((lows.stop - lows.start, len(coeffs), cols.stop - cols.start), dtype=coeffs.dtype)
        d[b, :, col] = (coeffs[:, src] * weight).T
        mats.append(d)
    return mats


def _monomial_sums(coeffs, expo, xs, gradient, index=None, rows=None, mats=None):
    """Values (m,) and, if ``gradient``, gradients (m, n) of the monomial sum
    at the points ``xs`` (m, n), one path for both: R coefficient rows
    ``coeffs`` (R, N) serve runs of m / R points, an (N,) vector is the row
    of one run of all points (see the module docstring), in passes of whole
    runs of at most 512 KiB per temporary, a longer run cut into passes of
    at most that size.
    ``index`` is ``_factor_index(expo, n)`` built by the caller, or None to
    take the table's kept one.  ``rows`` are the rows of ``coeffs`` that the
    runs take (all in order if None), and ``mats`` is None or
    ``_derivative_matrix(coeffs, index)``; each pass gathers its rows of both."""
    coeffs, xs = _promote(coeffs, xs)
    m, n = xs.shape
    if coeffs.ndim == 1:  # the row of the one run of all m points, no run if m = 0
        coeffs = coeffs[np.newaxis][:m]
    rows = np.arange(len(coeffs)) if rows is None else rows
    count = len(rows)
    if count != m and not (0 < count < m and m % count == 0):
        raise ValueError(f"{count} coefficient rows for {m} points")
    if index is None:
        expo = np.asarray(expo)
        index = _index_of(expo.shape, expo.dtype.str, expo.tobytes())
    top, factors, size, blocks, width = index
    # points per pass that keep its monomials, derivative terms and power
    # table within 512 KiB (one at least), under the 1 MiB below which
    # _keep_heap_resident keeps blocks on the heap; a pass takes as many
    # whole runs as fit, and a longer run is cut into passes of fit points
    # that share its one gathered row and derivative matrix
    fit = max(1, (1 << 19) // (max(size, (top + 1) * n, width if gradient else 0) * xs.itemsize))
    run = m // count if count else 1
    step = run * (fit // run)  # 0 for a run longer than a pass
    if m > step:
        parts = []
        if run > fit:
            for k in range(count):
                one = rows[k : k + 1]
                row, own = coeffs.take(one, 0), mats and [mat.take(one, 1) for mat in mats]
                if gradient and mats is None:
                    own = _derivative_matrix(row, index)
                for a in range(k * run, (k + 1) * run, fit):
                    part = xs[a : min(a + fit, (k + 1) * run)]
                    parts.append(_monomial_sums(row, expo, part, gradient, index, None, own))
        else:
            for a in range(0, m, step):
                runs = rows[a // run : (a + step) // run]
                parts.append(_monomial_sums(coeffs, expo, xs[a : a + step], gradient, index, runs, mats))
        return tuple(map(np.concatenate, zip(*parts))) if gradient else np.concatenate(parts)
    coeffs, count = coeffs.take(rows, 0), len(rows)
    # the points run position first: column p count + k is point k run + p
    table = _power_table(xs.reshape(count, run, n).T, top)
    mono = _products(table, factors[:, : None if gradient else size])
    terms = mono[:size]
    terms *= coeffs.T[:, np.newaxis]
    value = _sum_leading(terms).T.reshape(m)
    if not gradient:
        return value
    mats = _derivative_matrix(coeffs, index) if mats is None else [mat.take(rows, 1) for mat in mats]
    grad = np.zeros((run, count, n), dtype=xs.dtype)
    for (cols, lows, *_), mat in zip(blocks, mats):
        grad[..., cols] = _sum_leading(mat[:, np.newaxis] * mono[lows, ..., np.newaxis])
    return value, grad.transpose(1, 0, 2).reshape(m, n)


def evaluate_poly_many(coeffs, expo, xs, *, index=None, rows=None):
    """Evaluate at many points; xs has shape (m, n), coeffs (R, N) with
    R >= 1 dividing m, whose row k serves the m / R consecutive points from
    k m / R on (R = m: one row per point), or (N,), the one row of all m
    points; any other row count is a ``ValueError``.

    ``index`` and ``rows`` are private to rankone: a ``_factor_index`` built
    once for many calls, and the rows of ``coeffs`` (one per run of points)
    when it holds one row per object rather than per run."""
    return _monomial_sums(coeffs, expo, xs, False, index, rows)


def value_and_gradient_poly_many(coeffs, expo, xs, *, index=None, rows=None, mats=None):
    """Values (m,) and gradients (m, n) at many points from one power table,
    each exactly what ``evaluate_poly_many`` and ``gradient_poly_many``
    return for the same arguments, with the same coefficient rows
    (``index`` and ``rows`` as in ``evaluate_poly_many``; ``mats``, also
    private, is the ``_derivative_matrix`` of ``coeffs``, built once for
    many calls)."""
    return _monomial_sums(coeffs, expo, xs, True, index, rows, mats)


def gradient_poly_many(coeffs, expo, xs):
    """Gradients at many points, shape (m, n); holomorphic derivative for complex.

    coeffs is (R, N) with R >= 1 dividing m, row k serving the m / R points
    from k m / R on, or (N,), the one row of all m points, as in
    ``evaluate_poly_many``; any other row count is a ``ValueError``.
    """
    return _monomial_sums(coeffs, expo, xs, True)[1]


def evaluate_poly(coeffs, expo, x):
    """Sum of coeffs[a] * prod_i x[i]**expo[a, i] at one point (a one-row batch)."""
    return evaluate_poly_many(coeffs, expo, np.asarray(x)[np.newaxis, :])[0]


def gradient_poly(coeffs, expo, x):
    """Gradient of the monomial sum at one point (a one-row batch)."""
    return gradient_poly_many(coeffs, expo, np.asarray(x)[np.newaxis, :])[0]
