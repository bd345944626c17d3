"""The searches without starts: real binary forms on the unit circle, complex
binary forms on the Bloch sphere and real ternary forms on S^2.

These are the only spaces that ``spectral_value_many`` searches without
starts (``spectral._START_FREE``): forms of one block of two variables over
either field (the real binary forms that check (d) lifts to C^2 among them)
and of three over the reals.  Complex forms in three variables (check (d)'s
lifts of the real ternary ones among them), forms in four or more and
multi-forms of several blocks take the starts.  Here no start is drawn, so
nothing depends on a seed: the seeds are checked but draw nothing,
``starts``, ``max_iters`` and ``tol`` do not apply, every result has
iterations 1 and is converged, and recertifying such a form with more starts
would recompute the same value (``spectral._searched_exactly``), so a ratio
below a lower bound there is a genuine failure.

The unit sphere of R^2 is one great circle, so one circle search per form
along x = e_1, u = e_2 (``spectral._CircleSearch``) gives |f|^2 on the
whole sphere, exactly (``circle_maxima``).  |f| on the unit sphere of C^2
does not change with the phase of x, so the points x = (cos(theta/2),
e^{i phi} sin(theta/2)) of the Bloch sphere meet every value it takes, and
there f = sum_k a_k cos^(D-k)(theta/2) sin^k(theta/2) e^{ik phi} for the
coefficients a_k of x_0^(D-k) x_1^k.  A real ternary form at x = (cos
theta, sin theta cos phi, sin theta sin phi) has, with z = e^{i phi}, x_1 =
sin theta (z + 1/z) / 2 and x_2 = sin theta (z - 1/z) / 2i, so f e^{iD phi}
= sum_k F_k(theta) e^{ik phi} is a polynomial of degree 2D in z whose |.|^2
is f^2.  Either way one zero-padded inverse FFT per latitude gives |f|^2 on
a latitude-longitude grid (``_grid_peaks``), every local maximum of the
grid is refined by safeguarded Newton steps (``_safeguarded_newton``): in an
affine chart of the Bloch sphere (``_chart_ascent``), on S^2 itself with the
exact Riemannian Hessian (``_sphere_ascent``).  Every search evaluates f
once at each refined point, renormalised, and each form keeps the point of
largest |f| (``_best``).
"""

from functools import lru_cache
from math import comb

import numpy as np

from . import _kernels, poly
from .spectral import _CircleSearch

_LATITUDES = 4  # latitude steps of the grid per unit of degree
_CHART_STEPS = 16  # most Newton steps of a candidate maximum


def _latitudes(degree):
    """The latitude steps L of the grids of forms of degree D:
    ``_LATITUDES`` D, 2 at least and even, so that the equator is on the
    grid."""
    return max(_LATITUDES * degree, 2)


@lru_cache(maxsize=None)
def _grid(degree):
    """The weights (L + 1, D + 1) cos(theta_i/2)^(D-k) sin(theta_i/2)^k of
    ``binary_maxima`` for forms of degree D on the latitudes theta_i = pi i /
    L, both poles included."""
    steps = _latitudes(degree)
    half = np.pi * np.arange(steps + 1) / (2 * steps)
    c, s = np.cos(half), np.sin(half)
    c[-1] = 0.0  # cos(pi / 2) exactly: the south pole is x_1 alone
    k = np.arange(degree + 1)
    return c[:, np.newaxis] ** (degree - k) * s[:, np.newaxis] ** k


@lru_cache(maxsize=16)
def _sphere_tables(degree):
    """What ``ternary_maxima`` reads for real ternary forms of degree D >= 1
    on ``poly``'s monomials (N, 3): (weights, groups, index, lowered,
    lowered_index).

    f e^{iD phi} = sum_j cos^j theta sin^(D-j) theta h_j(z): group j holds
    the monomials a with a_0 = j, each contributing its coefficient times
    z^D ((z + 1/z) / 2)^(a_1) ((z - 1/z) / 2i)^(a_2), whose nonzero
    coefficients are those of z^j, z^(j+2), ..., z^(2D-j).  ``weights`` (L +
    1, D + 1) are cos^j theta_i sin^(D-j) theta_i on the latitudes theta_i =
    pi i / L, and ``groups`` hold, for j = 0..D, the rows of the group's
    monomials and their Laurent coefficients (n_j, D - j + 1) as (re, im)
    pairs of floats, so that each group is one real matrix product: on a
    2-vCPU x86 host a complex one took about twice as long, and its first
    call raised the peak resident memory by 0.5 MiB, against 0.1.  The
    tables hold about 2D^3 / 3 floats.  ``index`` is the monomials'
    ``_factor_index``; ``lowered`` (N_(D-1), 3) are the monomials of the
    partials, ``poly``'s monomials of degree D - 1, which are also the rows
    of ``_derivative_matrix``, and ``lowered_index`` their index."""
    expo = poly.monomial_exponents(degree, 3)
    steps = _latitudes(degree)
    theta = np.pi * np.arange(steps + 1) / steps
    c, s = np.cos(theta), np.sin(theta)
    c[steps // 2], c[-1], s[-1] = 0.0, -1.0, 0.0  # the equator and the south pole exactly
    powers = np.arange(degree + 1)
    weights = c[:, np.newaxis] ** powers * s[:, np.newaxis] ** (degree - powers)
    groups = []
    for a0 in powers:
        rows = np.flatnonzero(expo[:, 0] == a0)
        laurent = np.zeros((len(rows), degree - a0 + 1), dtype=complex)
        for row, (_, b, e) in zip(laurent, expo[rows]):
            # (z^2 + 1)^b (z^2 - 1)^e in powers of z^2, b + e = D - a_0
            plus = [comb(b, k) for k in range(b + 1)]
            minus = [comb(e, k) * (-1) ** (e - k) for k in range(e + 1)]
            row[:] = np.convolve(plus, minus) / (2.0**b * (2j) ** e)
        groups.append((rows, laurent.view(np.float64)))
    lowered = poly.monomial_exponents(degree - 1, 3)
    index, lowered_index = _kernels._factor_index(expo, 3), _kernels._factor_index(lowered, 3)
    return weights, tuple(groups), index, lowered, lowered_index


def _fourier_rows(coeffs, weights, groups):
    """The Fourier rows (F, L + 1, 2D + 1) of f e^{iD phi} on the latitudes
    of ``_sphere_tables`` for the forms ``coeffs`` (F, N): each group's h_j
    and then one real matrix product with the weights."""
    degree = len(groups) - 1
    h = np.zeros((len(coeffs), degree + 1, 2 * degree + 1), dtype=complex)
    for j, (rows, laurent) in enumerate(groups):
        h[:, j, j : 2 * degree + 1 - j : 2] = (coeffs[:, rows] @ laurent).view(complex)
    return (weights @ h.view(np.float64)).view(complex)


def _grid_peaks(terms, lats):
    """Grid local maxima of |f|^2 for the forms whose Fourier rows on the
    latitudes theta_i = pi i / L are ``terms`` (F, L+1, K), K <= 2L, as
    (rows, i, j) of the candidates at (theta_i, phi_j = pi j / L), i <
    ``lats``.

    Each latitude's |f|^2 at the 2L longitudes phi_j is one zero-padded
    inverse FFT of its row, run in passes of whole forms whose FFT stays
    within 256 KiB.  A grid point is kept if it is above its left and three
    upper neighbours and at least its right and three lower ones (phi
    periodic), a pole if it is at least every point of the next latitude,
    and each form's best grid point among the first ``lats`` latitudes
    always."""
    lat = terms.shape[1]
    m = 2 * (lat - 1)
    per = max(1, (1 << 18) // (lat * m * 16))
    found = []
    for lo in range(0, len(terms), per):
        f = np.fft.ifft(terms[lo : lo + per], n=m, axis=2)
        # |f|^2 up to the factor (2L)^2, with the last and first longitudes
        # copied beside the first and last, so that neighbours are slices
        g = np.empty(f.shape[:2] + (m + 2,))
        np.add(f.real * f.real, f.imag * f.imag, out=g[..., 1:-1])
        g[..., 0], g[..., -1] = g[..., -2], g[..., 1]
        mid = g[:, 1:-1, 1:-1]
        top = np.zeros(f.shape, dtype=bool)
        inner = top[:, 1:-1]
        np.greater(mid, g[:, 1:-1, :-2], out=inner)
        inner &= mid >= g[:, 1:-1, 2:]
        for cols in (slice(None, -2), slice(1, -1), slice(2, None)):
            inner &= (mid > g[:, :-2, cols]) & (mid >= g[:, 2:, cols])
        top[:, 0, 0] = g[:, 0, 1] >= g[:, 1].max(axis=1)
        top[:, -1, 0] = g[:, -1, 1] >= g[:, -2].max(axis=1)
        best = g[:, :lats, 1:-1].reshape(len(g), -1).argmax(axis=1)
        top[np.arange(len(g)), best // m, best % m] = True
        rows, i, j = np.nonzero(top[:, :lats])
        found.append((rows + lo, i, j))
    return tuple(map(np.concatenate, zip(*found)))


def _newton_step(g, a, b, radius):
    """The safeguarded Newton step (K,) of L from its complex derivatives:
    L(w + t e) = L + 2t Re(g e) + t^2 (Re(a e^2) + b) + ... for unit e.  The
    Hessian's eigen-directions are e = e^{-i arg(a) / 2} and i e, with
    curvatures b +- |a|.  A direction of negative curvature takes its Newton
    step; one of curvature 0 or more (an indefinite or singular Hessian)
    takes ``radius`` uphill; each is at most ``radius`` long."""
    axis = np.exp(-0.5j * np.angle(a))
    step = np.zeros(len(g), dtype=complex)
    for e in (axis, 1j * axis):
        curv, slope = (a * e * e).real + b, (g * e).real
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(curv < 0.0, -slope / curv, np.copysign(radius, slope))
        step += e * np.clip(np.where(np.isfinite(newton), newton, 0.0), -radius, radius)
    return step


def _safeguarded_newton(at, move, scale, x, radius):
    """The points x (K, ...) moved uphill by ``_newton_step`` to the maxima
    of L near them, from the radii ``radius`` (K,).

    ``at(x, ids)`` gives (L, g, a, b) at the points x of the candidates
    ``ids``, ``move(x, step)`` the points a step away and ``scale(x)`` the
    size that the stop rule measures steps against.  A step is kept only if
    it raises L, and then the radius is at least twice the step's length;
    otherwise the point stays and its radius shrinks to a quarter of the
    step, or to 0 when the step was already below 1e-7 ``scale``, where L's
    rounding decides.  A point is done when its step is below 1e-8
    ``scale``, where L is within rounding of its maximum, and is not
    evaluated again; the loop ends when every point is done, or after
    ``_CHART_STEPS`` steps."""
    x, ids = x.copy(), np.arange(len(x))
    value, g, a, b = at(x, ids)
    for _ in range(_CHART_STEPS):
        step = _newton_step(g, a, b, radius)
        length, here = np.abs(step), x[ids]
        live = length > 1e-8 * scale(here)
        if not live.all():
            if not live.any():
                break
            ids, here, step, length, radius = ids[live], here[live], step[live], length[live], radius[live]
            value, g, a, b = value[live], g[live], a[live], b[live]
        trial = move(here, step)
        v, gt, at_, bt = at(trial, ids)
        up = v > value
        x[ids[up]] = trial[up]
        value, g, a, b = (np.where(up, new, old) for new, old in ((v, value), (gt, g), (at_, a), (bt, b)))
        # a short step that fails is at the rounding of L: the point is done
        shrunk = np.where(length > 1e-7 * scale(here), 0.25 * length, 0.0)
        radius = np.where(up, np.maximum(radius, 2.0 * length), shrunk)
    return x


def _chart_ascent(c, w, radius):
    """The chart points w (K,) moved uphill to the maxima of |f|^2 =
    |P(w)|^2 / (1 + |w|^2)^D near them, P(w) = sum_k c_k w^k with the rows
    c (K, D+1), each step at most ``radius`` (K,) in each eigen-direction.

    Safeguarded Newton (``_safeguarded_newton``) on L = log |P|^2 - D log(1
    + |w|^2) in the real coordinates of w, from P, P' and P'': g = dL/dw, a
    = d^2L/dw^2 and b = d^2L/dw dw-bar = -D / (1 + |w|^2)^2, steps measured
    against 1 + |w|."""
    d = c.shape[1] - 1
    k = np.arange(d + 1)
    rows = np.zeros((len(c), 3, d + 1), dtype=complex)
    rows[:, 0] = c
    rows[:, 1, :-1] = c[:, 1:] * k[1:]
    rows[:, 2, :-2] = c[:, 2:] * (k[2:] * (k[2:] - 1))

    def at(w, ids):
        powers = np.empty((len(w), d + 1), dtype=complex)
        powers[:, 0] = 1.0
        powers[:, 1:] = w[:, np.newaxis]
        p, p1, p2 = np.einsum("kjn,kn->jk", rows[ids], np.cumprod(powers, axis=1))
        q = 1.0 + (w * w.conj()).real
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.log((p * p.conj()).real) - d * np.log(q)
            r1, bar = p1 / p, w.conj() / q
            g, a = r1 - d * bar, p2 / p - r1 * r1 + d * bar * bar
        return np.where(np.isfinite(value), value, -np.inf), g, a, -d / (q * q)

    return _safeguarded_newton(at, np.add, lambda w: 1.0 + np.abs(w), w, radius)


def _frame(x):
    """An orthonormal frame (t_1, t_2) of the tangent planes at the unit
    points x (K, 3) with x_0 >= 0: the images of e_2 and e_3 under the
    reflection that takes e_1 to -x, whose 1 / (1 + x_0) is at most 1
    there."""
    x0, x1, x2 = x.T
    c = -1.0 / (1.0 + x0)
    cross = c * x1 * x2
    return (
        np.column_stack((-x1, 1.0 + c * x1 * x1, cross)),
        np.column_stack((-x2, cross, 1.0 + c * x2 * x2)),
    )


def _sphere_ascent(coeffs, degree, tables, owner, x, radius):
    """The unit points x (K, 3) moved uphill to the maxima of |f| near them,
    f the real ternary form of degree D >= 1 of the row ``owner`` of
    ``coeffs`` (F, N), each step at most ``radius`` (K,) in each
    eigen-direction.

    Safeguarded Riemannian Newton (``_safeguarded_newton``; Absil, Mahony &
    Sepulchre 2008, ch. 6) on L = log |f| in the tangent frame of
    ``_frame``, a step v taking x to +-(x + v) / |x + v|, the sign keeping
    x_0 >= 0 (|f(-x)| = |f(x)|, and x starts in the northern hemisphere).
    The partials of f are forms of degree D - 1 whose coefficients are the
    columns of ``_derivative_matrix``, so one value-and-gradient call over
    them gives grad f and the Hessian H at every point; f = <x, grad f> / D
    (Euler).  With g_i = <t_i, grad f> / f, the Riemannian Hessian of L is
    h_ij = t_i^T H t_j / f - g_i g_j - D delta_ij, and a tangent vector v_1
    t_1 + v_2 t_2 is the complex number v_1 + i v_2, so that g = (g_1 - i
    g_2) / 2, a = (h_11 - h_22 - 2i h_12) / 4 and b = (h_11 + h_22) / 4."""
    _, _, index, lowered, lowered_index = tables
    (mat,) = _kernels._derivative_matrix(coeffs, index)
    partials = mat.transpose(1, 2, 0).reshape(3 * len(coeffs), len(mat))
    mats = _kernels._derivative_matrix(partials, lowered_index)
    three = np.arange(3)

    def at(x, ids):
        rows = (3 * owner[ids][:, np.newaxis] + three).ravel()
        df, ddf = _kernels.value_and_gradient_poly_many(
            partials, lowered, np.repeat(x, 3, axis=0), index=lowered_index, rows=rows, mats=mats
        )
        df, ddf = df.reshape(-1, 3), ddf.reshape(-1, 3, 3)
        f = (x * df).sum(axis=1) / degree
        t1, t2 = _frame(x)
        h1, h2 = (np.einsum("kij,kj->ki", ddf, t) for t in (t1, t2))
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.log(np.abs(f))
            g1, g2 = (t1 * df).sum(axis=1) / f, (t2 * df).sum(axis=1) / f
            h11 = (t1 * h1).sum(axis=1) / f - g1 * g1 - degree
            h22 = (t2 * h2).sum(axis=1) / f - g2 * g2 - degree
            h12 = (t1 * h2).sum(axis=1) / f - g1 * g2
        g, a, b = 0.5 * (g1 - 1j * g2), 0.25 * (h11 - h22 - 2j * h12), 0.25 * (h11 + h22)
        return np.where(np.isfinite(value), value, -np.inf), g, a, b

    def move(x, step):
        t1, t2 = _frame(x)
        y = x + step.real[:, np.newaxis] * t1 + step.imag[:, np.newaxis] * t2
        return y * np.copysign(1.0 / np.sqrt((y * y).sum(axis=1)), y[:, 0])[:, np.newaxis]

    return _safeguarded_newton(at, move, lambda x: 1.0, x, radius)


def _best(coeffs, degree, rows, y):
    """|f| at the points y (K, n) of the forms ``rows`` (sorted) of
    ``coeffs`` of degree D, and each form's point of largest |f| (the first
    of equal ones): (values (F,), points (F, n))."""
    expo = poly.monomial_exponents(degree, y.shape[1])
    f = np.abs(_kernels.evaluate_poly_many(coeffs, expo, y, rows=rows))
    # rows are sorted, so a stable sort by (row, -|f|) puts each form's best first
    order = np.lexsort((-f, rows))
    best = order[np.searchsorted(rows[order], np.arange(len(coeffs)))]
    return f[best], y[best]


def circle_maxima(coeffs, degree):
    """The largest |f| over the unit circle of each real binary form of
    degree D of the rows ``coeffs`` (F, D + 1), in ``poly``'s monomial order,
    and a unit point attaining it: (values (F,), points (F, 2)).

    The circle search along x = e_1, u = e_2 turns f at D + 1 angles, one
    batched evaluation, into |f|^2 on the whole circle.  Every point of its
    grid above its left and at least its right neighbour is refined, and
    each form's best grid point: two peaks closer in height than the grid
    resolves can put the best grid point in the lower one's basin."""
    ids, circles = np.arange(len(coeffs)), _CircleSearch(degree)
    x = np.zeros((len(coeffs), 2))
    x[:, 0] = 1.0

    def value(y, rows):
        return _kernels.evaluate_poly_many(coeffs, poly.monomial_exponents(degree, 2), y, rows=rows)

    # f(e_1) is the coefficient of x_1^D, the first
    c = circles.interpolant(circles.samples(x, x[:, ::-1], coeffs[:, 0], ids, value))
    grid = np.fft.irfft(c, n=circles.fine, axis=1)
    top = (grid > np.roll(grid, 1, axis=1)) & (grid >= np.roll(grid, -1, axis=1))
    top[ids, grid.argmax(axis=1)] = True
    rows, i = np.nonzero(top)
    theta = circles.refine(c[rows], grid, rows, i)
    y = np.column_stack((np.cos(theta), np.sin(theta)))
    return _best(coeffs, degree, rows, y / np.sqrt((y * y).sum(axis=1))[:, np.newaxis])


def binary_maxima(coeffs, degree):
    """The largest |f| over the unit sphere of C^2 of each complex binary
    form of degree D of the rows ``coeffs`` (F, D + 1), in ``poly``'s
    monomial order (the coefficient of x_0^(D-k) x_1^k in column k), and a
    unit point attaining it: (values (F,), points (F, 2)).

    The grid has 4D + 1 latitudes (both poles) and 8D longitudes (the real
    circle phi in {0, pi} among them).  Every grid peak is refined in the
    affine chart w = x_1 / x_0 (x_0 / x_1, the coefficients reversed, in the
    southern half), from a radius of two grid steps, f is evaluated once at
    every refined point, renormalised, and each form keeps the point of
    largest |f|."""
    steps = _latitudes(degree)
    rows, i, j = _grid_peaks(coeffs[:, np.newaxis] * _grid(degree), steps + 1)
    theta, phi = np.pi * i / steps, np.pi * j / steps
    south = theta > 0.5 * np.pi
    half = np.where(south, np.pi - theta, theta) / 2.0
    w = np.tan(half) * np.exp(1j * np.where(south, -phi, phi))
    # d|w| = (1 + |w|^2) / 2 d theta: two grid steps in the chart
    c = np.where(south[:, np.newaxis], coeffs[rows, ::-1], coeffs[rows])
    w = _chart_ascent(c, w, np.pi / steps * (1.0 + np.abs(w) ** 2))
    y = np.ones((len(w), 2), dtype=complex)
    y[np.arange(len(w)), 1 - south] = w
    y /= np.sqrt((y * y.conj()).real.sum(axis=1))[:, np.newaxis]
    return _best(coeffs, degree, rows, y)


def ternary_maxima(coeffs, degree):
    """The largest |f| over the unit sphere of R^3 of each real ternary form
    of degree D of the rows ``coeffs`` (F, N), in ``poly``'s monomial order,
    and a unit point attaining it: (values (F,), points (F, 3)).

    The grid has 4D + 1 latitudes (both poles and the equator) and 8D
    longitudes.  |f(-x)| = |f(x)|, so only the grid peaks of the northern
    hemisphere theta <= pi/2, and its best grid point, are candidates.  Each
    is refined on the sphere (``_sphere_ascent``) from a radius of two grid
    steps, f is evaluated once at every refined point, renormalised, and
    each form keeps the point of largest |f|."""
    if not degree:  # a constant takes its value everywhere, at e_1 say
        return np.abs(coeffs[:, 0]), np.eye(1, 3).repeat(len(coeffs), axis=0)
    steps = _latitudes(degree)
    tables = _sphere_tables(degree)
    rows, i, j = _grid_peaks(_fourier_rows(coeffs, *tables[:2]), steps // 2 + 1)
    theta, phi = np.pi * i / steps, np.pi * j / steps
    s = np.sin(theta)
    x = np.column_stack((np.cos(theta), s * np.cos(phi), s * np.sin(phi)))
    x = _sphere_ascent(coeffs, degree, tables, rows, x, np.full(len(x), 2.0 * np.pi / steps))
    return _best(coeffs, degree, rows, x / np.sqrt((x * x).sum(axis=1))[:, np.newaxis])
