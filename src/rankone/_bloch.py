"""The search of complex binary forms without starts.

|f| on the unit sphere of C^2 does not change with the phase of x, so the
points x = (cos(theta/2), e^{i phi} sin(theta/2)) of the Bloch sphere meet
every value it takes, and there f = sum_k a_k cos^(D-k)(theta/2)
sin^k(theta/2) e^{ik phi} for the coefficients a_k of x_0^(D-k) x_1^k.  One
zero-padded inverse FFT per latitude gives |f|^2 on a latitude-longitude
grid (``_grid_peaks``), every local maximum of the grid is refined by
safeguarded Newton steps in an affine chart (``_chart_ascent``), and f is
evaluated once at every refined point, renormalised; each form keeps the
point of largest |f| (``maxima``).  No start is drawn, so nothing depends on
a seed.
"""

from functools import lru_cache

import numpy as np

from ._kernels import evaluate_poly_many

_LATITUDES = 4  # latitude steps of the grid per unit of degree
_CHART_STEPS = 16  # most Newton steps of a candidate maximum


@lru_cache(maxsize=None)
def _grid(degree):
    """The grid of ``_grid_peaks`` for forms of degree D: the latitudes
    theta_i = pi i / L (L + 1,), L = _LATITUDES * D (2 at least), both
    poles included, the weights (L + 1, D + 1) cos(theta_i/2)^(D-k)
    sin(theta_i/2)^k, and the count 2L of longitudes, even, so that the
    real circle phi in {0, pi} is on the grid."""
    steps = max(_LATITUDES * degree, 2)
    half = np.pi * np.arange(steps + 1) / (2 * steps)
    c, s = np.cos(half), np.sin(half)
    c[-1] = 0.0  # cos(pi / 2) exactly: the south pole is x_1 alone
    k = np.arange(degree + 1)
    weights = c[:, np.newaxis] ** (degree - k) * s[:, np.newaxis] ** k
    return 2.0 * half, weights, 2 * steps


def _grid_peaks(a):
    """Grid local maxima of |f|^2 on the Bloch sphere for the binary forms
    whose coefficients of x_0^(D-k) x_1^k are the rows a (F, D+1), as (rows,
    theta, phi) of the candidates.

    Each latitude's |f|^2 at the 2L longitudes phi_j = pi j / L is one
    zero-padded inverse FFT, run in passes of whole forms whose FFT stays
    within 256 KiB.  A grid point is kept if it is above its left and three
    upper neighbours and at least its right and three lower ones (phi
    periodic), a pole if it is at least every point of the next latitude,
    and each form's best grid point always."""
    theta, weights, m = _grid(a.shape[1] - 1)
    lat = len(theta)
    terms = a[:, np.newaxis] * weights  # (F, L+1, D+1)
    per = max(1, (1 << 18) // (lat * m * 16))
    found = []
    for lo in range(0, len(a), per):
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
        best = g[..., 1:-1].reshape(len(g), -1).argmax(axis=1)
        top.reshape(len(g), -1)[np.arange(len(g)), best] = True
        rows, i, j = np.nonzero(top)
        found.append((rows + lo, theta[i], np.pi * j / (m // 2)))
    return tuple(map(np.concatenate, zip(*found)))


def _chart_ascent(c, w, radius):
    """The chart points w (K,) moved uphill to the maxima of |f|^2 =
    |P(w)|^2 / (1 + |w|^2)^D near them, P(w) = sum_k c_k w^k with the rows
    c (K, D+1), each step at most ``radius`` (K,) in each eigen-direction.

    Safeguarded Newton on L = log |P|^2 - D log(1 + |w|^2) in the real
    coordinates of w, from P, P' and P'': with G = dL/dw, A = d^2L/dw^2 and
    B = d^2L/dw dw-bar = -D / (1 + |w|^2)^2, the Hessian's eigen-directions
    are e = e^{-i arg(A) / 2} and i e, with eigenvalues 2 (B +- |A|).  A
    direction of negative curvature takes its Newton step; one of curvature
    0 or more (an indefinite or singular Hessian) takes ``radius`` uphill.
    A step is kept only if it raises L, and then the radius is at least
    twice the step's length; otherwise the point stays and its radius
    shrinks to a quarter of the step, or to 0 when the step was already
    below 1e-7 (1 + |w|), where L's rounding decides.  A point is done when
    its step is below 1e-8 (1 + |w|), where |f|^2 is within rounding of its
    maximum; the loop ends when every point is done, or after
    ``_CHART_STEPS`` steps."""
    d = c.shape[1] - 1
    k = np.arange(d + 1)
    rows = np.zeros((len(c), 3, d + 1), dtype=complex)
    rows[:, 0] = c
    rows[:, 1, :-1] = c[:, 1:] * k[1:]
    rows[:, 2, :-2] = c[:, 2:] * (k[2:] * (k[2:] - 1))

    def at(w):
        powers = np.empty((len(w), d + 1), dtype=complex)
        powers[:, 0] = 1.0
        powers[:, 1:] = w[:, np.newaxis]
        p, p1, p2 = np.einsum("kjn,kn->jk", rows, np.cumprod(powers, axis=1))
        q = 1.0 + (w * w.conj()).real
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.log((p * p.conj()).real) - d * np.log(q)
            r1, bar = p1 / p, w.conj() / q
            g, a = r1 - d * bar, p2 / p - r1 * r1 + d * bar * bar
        return np.where(np.isfinite(value), value, -np.inf), g, a, -d / (q * q)

    value, g, a, b = at(w)
    for _ in range(_CHART_STEPS):
        axis = np.exp(-0.5j * np.angle(a))
        step = np.zeros(len(w), dtype=complex)
        for e in (axis, 1j * axis):
            curv, slope = (a * e * e).real + b, (g * e).real
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = np.where(curv < 0.0, -slope / curv, np.copysign(radius, slope))
            step += e * np.clip(np.where(np.isfinite(newton), newton, 0.0), -radius, radius)
        length = np.abs(step)
        live = length > 1e-8 * (1.0 + np.abs(w))
        if not live.any():
            break
        trial = w + step
        v, gt, at_, bt = at(trial)
        up = live & (v > value)
        w = np.where(up, trial, w)
        value, g, a, b = (np.where(up, new, old) for new, old in ((v, value), (gt, g), (at_, a), (bt, b)))
        # a short step that fails is at the rounding of L: the point is done
        shrunk = np.where(length > 1e-7 * (1.0 + np.abs(w)), 0.25 * length, 0.0)
        radius = np.where(up, np.maximum(radius, 2.0 * length), np.where(live, shrunk, radius))
    return w


def maxima(coeffs, expo):
    """The largest |f| over the unit sphere of C^2 of each complex binary
    form of the rows ``coeffs`` (F, N) on the exponent table ``expo``, and a
    unit point attaining it: (values (F,), points (F, 2)).

    Every grid peak is refined in the affine chart w = x_1 / x_0 (x_0 / x_1,
    the coefficients reversed, in the southern half), from a radius of two
    grid steps, f is evaluated once at every refined point, renormalised,
    and each form keeps the point of largest |f| (the first of equal
    ones)."""
    a = coeffs[:, np.argsort(expo[:, 1])]
    rows, theta, phi = _grid_peaks(a)
    south = theta > 0.5 * np.pi
    half = np.where(south, np.pi - theta, theta) / 2.0
    w = np.tan(half) * np.exp(1j * np.where(south, -phi, phi))
    # d|w| = (1 + |w|^2) / 2 d theta: two grid steps in the chart
    spacing = _grid(a.shape[1] - 1)[0][1]
    c = np.where(south[:, np.newaxis], a[rows, ::-1], a[rows])
    w = _chart_ascent(c, w, spacing * (1.0 + np.abs(w) ** 2))
    y = np.ones((len(w), 2), dtype=complex)
    y[np.arange(len(w)), 1 - south] = w
    y /= np.sqrt((y * y.conj()).real.sum(axis=1))[:, np.newaxis]
    f = np.abs(evaluate_poly_many(coeffs, expo, y, rows=rows))
    # rows are sorted, so a stable sort by (row, -|f|) puts each form's best first
    order = np.lexsort((-f, rows))
    best = order[np.searchsorted(rows[order], np.arange(len(coeffs)))]
    return f[best], y[best]
