"""Spectral / uniform norm estimation and the rank-one approximation ratio.

General tensors use multi-start alternating maximization: closed-form,
monotone block updates, each sweep followed by an extrapolation along the
sweep's move by the ratio of its last two moves, kept only where it raises
the objective.  Forms and multi-homogeneous forms use one multi-start ascent
on a product of spheres (a form is the one-sphere case) whose every round is
an exact search over a great circle: along the circle that turns each block
toward its conjugate direction (the projected gradient plus a
Polak-Ribiere+ multiple of the previous direction), f is a binary form of
known degree D in (cos t, sin t), so f at x and D batched evaluations fix
|f|^2 and its maximum over the whole circle.  ``spectral_value_many`` runs
every start of many objects of one kind, shape and field in lockstep as one
batch.  One driver (``_lockstep``) keeps the live starts, their iteration
counts and convergence flags, and each round calls the method's step.  Both
methods keep each start's point as one row, its modes or blocks as column
slices, so moves, norms and trial points are whole-row operations with one
segmented sum over the slices (``_Blocks``); the ascent packs the rest of a
start's state into the same row, whose n (re, im) pairs per complex block
are the complex point under ``view(complex128)``.  The alternating method
gathers the live starts' tensors from a row-first stack once per change of
the live set, shares the suffix contractions between the modes of the sweep
and runs each contraction as one batched matmul over the starts; the ascent
searches the circles of every live start with one batched evaluation.  Each object keeps
the best of its own starts, which ``sampling._draw_starts`` draws from the
object's seed (this module holds no seeding code).  The one-object entry
points are its calls with one object.  Both methods move a start only to a
point where the objective is at least as large and report the objective at
the vectors they return, so their values are attained: certified LOWER
bounds on the true maximum.  A deterministic sphere-grid oracle is provided
for certification at tiny sizes.

Forms in two variables (one block of two variables, over either field)
and real forms in three take a search of their whole sphere instead of the
starts.  Over the reals the unit sphere of R^2 is a single great circle, so
one circle search per form (``_circle_maxima``) gives |f|^2 on the whole
sphere.  Over the complex numbers |f| does not depend on the phase of x, so
a latitude-longitude grid of the Bloch sphere, one inverse FFT per
latitude, gives |f|^2 everywhere that matters (``_bloch.binary_maxima``).
On S^2 a real ternary form times e^{iD phi} is a polynomial of degree 2D in
e^{i phi} on each latitude, so the same grid, one inverse FFT per latitude,
gives f^2 on the sphere (``_bloch.ternary_maxima``).  Every local maximum of
the grid is refined by Newton steps, and the largest |f| found is the
result.  Their seeds are checked but nothing is drawn, ``starts``,
``max_iters`` and ``tol`` do not apply, and recertifying such a form with
more starts would give the same value (``_searched_exactly``), so a ratio
below a lower bound there is a genuine failure.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, prod
from numbers import Real

import numpy as np

from . import _kernels
from ._kernels import (  # noqa: F401  perfbench's tracer test looks up spectral.evaluate_poly
    evaluate_poly,
    evaluate_poly_many,
    value_and_gradient_poly_many,
)
from .bounds import DomainError
from .poly import MultiHomogPoly, bw_norm
from .sampling import _draw_starts, _nonnegative_int
from .tensor import (
    COMPLEX,
    REAL,
    FieldError,
    Tensor,
    contract_back,
    contract_front,
    frobenius_norm,
    row_stack,
)

_TIE_TOL = 1e-14
_GRID_BUDGET = 10**8
_FINE = 8  # grid angles per circle sample when locating a circle's maximum
# window of the rate rho of the alternating sweeps' moves in which a round
# extrapolates: below it the sweeps converge fast alone and a jump gains
# little; at its top the moves barely shrink and the jump rho / (1 - rho)
# of a thousand moves or more is not worth a contraction
_RHO = (0.3, 0.999)


class ZeroInputError(ValueError):
    pass


class BudgetError(ValueError):
    pass


@dataclass(frozen=True)
class MaximizerConfig:
    starts: int = 32
    max_iters: int = 1000
    tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        _nonnegative_int(self.starts, "starts", least=1)
        _nonnegative_int(self.max_iters, "max_iters", least=1)
        _nonnegative_int(self.seed, "seed")
        tol = self.tol
        if isinstance(tol, bool) or not isinstance(tol, Real) or not (isfinite(tol) and tol > 0):
            raise DomainError(f"need a finite tol > 0, got {tol!r}")


@dataclass(frozen=True)
class SpectralResult:
    value: float
    maximizer: tuple  # per-mode unit vectors (single entry for symmetric)
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SpectralBatch:
    """One ``SpectralResult`` per object of a ``spectral_value_many`` call and
    the number of lockstep rounds the batch took (the largest iteration
    count over all its starts)."""

    results: tuple
    iterations: int


# ------------------------------------------------------------- lockstep runs


def _pick_best(values):
    """Index of the first value within the tie tolerance of the largest."""
    return int(np.flatnonzero(values >= values.max() - _TIE_TOL)[0])


def _lockstep(step, state, max_iters):
    """Run every start for up to ``max_iters`` rounds, all in lockstep.

    ``state`` is a list of arrays whose rows are the starts (the ascent's is
    one packed array, the alternating method's three).  Each round calls
    ``step(live, ids)``: ``live`` is the list of the state rows of the
    starts still running, ``ids`` their start indices; the step advances
    them, in place or by replacing entries of the list, and returns a mask
    of the starts that stop (converged).  Only in a round where some start
    stops are its rows written back to ``state`` and dropped from ``live``,
    and ``ids`` replaced: between such rounds the step gets the same ``ids``
    object, so it may keep what it derives from them.

    Returns (state, iterations, converged), one row or entry per start.
    """
    starts = len(state[0])
    iters = np.full(starts, max_iters)
    converged = np.zeros(starts, dtype=bool)
    ids = np.arange(starts)
    live = list(state)
    for it in range(1, max_iters + 1):
        if not len(ids):
            break
        done = step(live, ids)
        if done.any():
            ended = ids[done]
            converged[ended] = True
            iters[ended] = it
            for full, rows in zip(state, live):
                full[ended] = rows[done]
            ids = ids[~done]
            live = [rows[~done] for rows in live]
    for full, rows in zip(state, live):
        full[ids] = rows
    return state, iters, converged


# ---------------------------------------------------------- general tensors


def _alternating(ts, which, tol):
    """Lockstep step of alternating maximization of |<T, x^1 (x) ... (x) x^d>|.

    ``ts`` are tensors of one shape and field and start s maximizes for
    tensor ``ts[which[s]]``.  The state is one (S, n_0 + ... + n_{d-1})
    array X over the field whose row s holds start s's unit vector of mode j
    in column slice j, the objective (S,), -inf before the first round, and
    the size of each start's last sweep move (S,), 0 before the first round.
    A round is a Gauss-Seidel sweep and then an extrapolation.  The sweep
    writes each mode's closed-form update below, which never lowers the
    objective, into its slice of a new X; a start whose every contraction
    vanishes keeps its vectors, where it attains 0, and stops in its second
    sweep.  The tensors are laid out row-first and conjugated once per call
    (``row_stack``), and the live starts' tensors are gathered once and kept
    while ``ids`` is the same object, i.e. until a start retires; the
    extrapolation's trial points take theirs from the same stack.  Mode j
    needs T contracted with the new x_0 ... x_{j-1} and the old x_{j+1} ...
    x_{d-1}, so the suffixes R_{j+1} = T x_{d-1} ... x_{j+1} of the old X
    come from one pass (``contract_back``) and mode j contracts R_{j+1} with
    the new slices from the front (``contract_front``): a sweep is d (d - 1)
    / 2 + d - 1 batched matmuls (9 for d = 4) on column views of X.  A start
    stops when its sweep gains at most ``tol`` (relative).

    The sweeps converge linearly, so a start that goes on extrapolates along
    its move dX = X(new) - X(old): with the rate rho = |dX| / |dX_prev| of
    its last two moves inside ``_RHO``, the trial point Y, X + rho / (1 -
    rho) dX with each mode rescaled to norm 1 (the limit of a geometric
    sequence of moves), is contracted with the start's tensor and paired
    with y_0.  The start moves to Y only if |<T, Y>| beats the sweep's
    value, so the objective never falls and every value is attained at the
    start's vectors; the move size is then reset to 0, so the next round
    measures a fresh rate before it jumps again.  This takes a third to a
    half of the rounds of the sweeps alone on Gaussian tensors.  Moves and
    norms are whole-row operations with one segmented sum over the modes
    (``_Blocks``); a move's size adds the modes' squared sizes in mode order.
    """
    data = row_stack(ts)
    lo, hi = _RHO
    ends = np.cumsum((0,) + data.shape[1:])
    modes = [slice(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:])]
    seg = _Blocks(modes)

    held = [None, None]  # the last ids and their gathered tensors

    def step(state, ids):
        x, prev, last = state
        new = np.empty_like(x)
        olds, news = [x[:, m] for m in modes], [new[:, m] for m in modes]
        # a start whose every contraction vanishes attains 0 (not -inf)
        cur = np.maximum(prev, 0.0)
        if ids is not held[0]:
            held[:] = ids, data[which[ids]]
        stack = held[1]
        # R_{j+1}, the tensors contracted with the modes after j, from the
        # vectors before the sweep: the modes after j have not moved yet
        for j, suffix in enumerate(contract_back(stack, olds[1:])):
            v = contract_front(suffix, news[:j])
            nrm = np.sqrt(np.add.reduce((v * v.conj()).real, axis=1))
            # bilinear pairing sum_i v_i x_i is maximized in modulus
            # at x = conj(v) / |v|, with objective |v|
            if nrm.all():
                np.divide(v.conj(), nrm[:, np.newaxis], out=news[j])
                cur = nrm
            else:  # a start whose v vanishes keeps its vector
                ok = nrm != 0.0
                news[j][:] = olds[j]
                news[j][ok] = v[ok].conj() / nrm[ok, np.newaxis]
                cur[ok] = nrm[ok]
        done = cur - prev <= tol * np.maximum(1.0, np.abs(cur))
        dx = new - x
        move = np.sqrt(np.cumsum(seg.sums((dx * dx.conj()).real, spread=False), axis=1)[:, -1])
        rho = np.divide(move, last, out=np.zeros_like(move), where=last > 0.0)
        a = np.flatnonzero(~done & (rho > lo) & (rho < hi))
        if len(a):
            beta = (rho[a] / (1.0 - rho[a]))[:, np.newaxis]
            # |x + beta dx| >= (1 + beta) - beta = 1 for unit x, x_old
            y = new[a] + beta * dx[a]
            y /= np.sqrt(seg.sums((y * y.conj()).real))
            trial = contract_back(stack[a], [y[:, m] for m in modes[1:]])[0]
            val = np.abs(np.add.reduce(trial * y[:, modes[0]], axis=1))
            up = val > cur[a]
            b = a[up]
            new[b] = y[up]
            cur[b], move[b] = val[up], 0.0
        state[:] = [new, cur, move]
        return done

    return step


# ---------------------------------------------- conjugate great-circle ascent


def _realified_objective(coeffs, expo, ns, owner=None):
    """Return (blocks, degree, value_fn, value_and_grad_fn) for f and |f|^2
    on a product of (realified) spheres, over the field of ``coeffs``' dtype.

    A point y holds one contiguous block per variable block, a complex block
    of n variables as n (re, im) pairs: ``y.view(complex128)`` is the complex
    point, with no copy.  ``blocks`` are the slices of y on unit spheres and
    ``degree`` is f's total degree.  ``coeffs`` holds one row per object and
    ``owner`` the object of each start (None: start i is object i).
    ``value(ys, ids)`` and ``value_and_grad(ys, ids)`` take points, one per
    row, and the rows' start ids (``value`` also takes one id per run of
    equally many consecutive rows).  ``value`` returns f (complex for a
    complex field); ``value_and_grad`` returns f, |f|^2 and its gradient in
    y's coordinates, 2 f conj(df/dz) viewed as (re, im) pairs, from one
    fused kernel call.  The kernels' factor index and each object's
    derivative matrices (one (N_{d-1}, n_b) matrix per block, the form's
    df/dz = D^T times its monomials of one degree less) are built here once;
    a call gathers the matrices of its rows' objects.
    """
    dt = coeffs.dtype
    ends = np.cumsum((0, *ns)) * (dt.itemsize // np.dtype(np.float64).itemsize)
    blocks = tuple(slice(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:]))
    degree = int(expo[0].sum())
    index = _kernels._factor_index(expo, expo.shape[1])
    mats = _kernels._derivative_matrix(coeffs, index)
    owner = np.arange(len(coeffs)) if owner is None else owner

    def value(ys, ids):
        return evaluate_poly_many(coeffs, expo, ys.view(dt), index=index, rows=owner[ids])

    def value_and_grad(ys, ids):
        rows = owner[ids]
        v, g = value_and_gradient_poly_many(coeffs, expo, ys.view(dt), index=index, rows=rows, mats=mats)
        return v, (v * v.conj()).real, (2.0 * v[:, np.newaxis] * g.conj()).view(np.float64)

    return blocks, degree, value, value_and_grad


class _CircleSearch:
    """The exact search of |f|^2 along great circles for forms of degree D,
    with the constants every round shares built once: the sample angles'
    cos and sin, the interpolant's modulation, the frequencies of p' and p''
    and the zero-padded grid of the argmax."""

    def __init__(self, degree):
        n = degree + 1
        self.k = 2 * n - 1
        angles = np.pi * np.arange(1, n) / n
        self.cos, self.sin = np.cos(angles)[:, np.newaxis], np.sin(angles)[:, np.newaxis]
        # the FFT's 1 / (D+1) and the inverse FFT's 2D+1, folded into e^{iD s_j}
        self.mod = np.exp(1j * np.pi * (n - 1) / n * np.arange(n)) * (self.k / n)
        self.freq = 2j * np.arange(n)
        self.freq2 = self.freq**2
        self.fine = _FINE * self.k
        self.step = np.pi / self.fine
        self.offsets = np.arange(-1, 2)

    def samples(self, x, u, fx, ids, value):
        """f at the D+1 angles s_j = pi j / (D+1) of each row's great circle
        cos(t) x + sin(t) u, shape (L, D+1).  s_0 = 0 is x itself, whose
        value ``fx`` is known; the other D angles are one batched evaluation,
        in which the D points of a row share its start's coefficient row.
        The points are not renormalised: f along them is a binary form of
        degree D in (cos t, sin t) whatever x and u are."""
        (rows, dim), d = x.shape, len(self.cos)
        y = self.cos * x[:, np.newaxis] + self.sin * u[:, np.newaxis]
        samples = np.empty((rows, d + 1), dtype=fx.dtype)
        samples[:, 0] = fx
        if d:  # a form of degree 0 is its value at x
            samples[:, 1:] = value(y.reshape(-1, dim), ids).reshape(rows, d)
        return samples

    def interpolant(self, samples):
        """Coefficients c (L, D+1) of p(t) = |f|^2 = Re sum_k c_k e^{2ikt} on
        each row's circle, from the samples of f at s_j = pi j / (D+1).

        f(t) = sum_m b_m e^{i(2m-D)t}, so f(s_j) e^{iD s_j} = sum_m b_m
        e^{2 pi i jm / (D+1)} and b is their FFT over D+1.  The zero-padded
        inverse FFT of b over 2D+1 gives f(t_j) e^{iD t_j} at t_j = pi j /
        (2D+1), so |f|^2 at the 2D+1 angles that fix p, and their real FFT
        gives c.  Each row is transformed on its own."""
        g = np.fft.ifft(np.fft.fft(samples * self.mod, axis=1), n=self.k, axis=1)
        c = np.fft.rfft(g.real * g.real + g.imag * g.imag, axis=1) * (2.0 / self.k)
        c[:, 0] *= 0.5
        return c

    def argmax(self, c):
        """Angle (L,) of the maximum of each row's p: the best point of a
        zero-padded grid of _FINE (2D+1) angles in [0, pi), refined."""
        # p - c_0 / 2 at the angles step * i, up to a positive factor
        grid = np.fft.irfft(c, n=self.fine, axis=1)
        return self.refine(c, grid, np.arange(len(c)), grid.argmax(axis=1))

    def peaks(self, c):
        """Rows and angles (K,) of every local maximum of each row's p: the
        grid points of ``argmax`` above their left and at least their right
        neighbour, and each row's best grid point, all refined.  Two peaks
        closer in height than the grid resolves can put the best grid point
        in the lower one's basin, so each is refined, not just the best."""
        grid = np.fft.irfft(c, n=self.fine, axis=1)
        top = (grid > np.roll(grid, 1, axis=1)) & (grid >= np.roll(grid, -1, axis=1))
        top[np.arange(len(c)), grid.argmax(axis=1)] = True
        rows, i = np.nonzero(top)
        return rows, self.refine(c[rows], grid, rows, i)

    def refine(self, c, grid, rows, i):
        """Angles (K,) of the maxima of p near the points i of rows ``rows``
        of the grid, c the coefficients of each (K, D+1): a parabola through
        the point and its neighbours and then two Newton steps on p' and p''."""
        fine, step = self.fine, self.step
        near = (i[:, np.newaxis] + self.offsets) % fine
        lo, mid, hi = grid[rows[:, np.newaxis], near].T
        curv = lo - 2.0 * mid + hi
        shift = np.divide(0.5 * (lo - hi), curv, out=np.zeros(len(c)), where=curv < 0.0)
        theta = step * (i + shift)
        for _ in range(2):  # one step stopped up to ~1e-11 short of sharp peaks
            terms = c * np.exp(theta[:, np.newaxis] * self.freq)
            d1, d2 = (terms * self.freq).real.sum(axis=1), (terms * self.freq2).real.sum(axis=1)
            newton = np.divide(-d1, d2, out=np.zeros(len(c)), where=d2 < 0.0)
            theta += np.minimum(np.maximum(newton, -step), step)
        return theta


class _Blocks:
    """Block-wise sums, tangent projections and normalisations of rows
    (L, dim) whose columns split into the contiguous slices ``blocks``, each
    one segmented sum over all blocks at once.

    The blocks are summed as the rows of one (L * blocks, width) array, so a
    block adds its entries in the order a sum over its own columns does.
    Blocks of unequal sizes are first padded with zeros to the largest size,
    ``width``; a padded block of fewer than 8 entries in a width of 8 or more
    then adds them pairwise, which differs in rounding.  One block is a
    plain row sum."""

    def __init__(self, blocks):
        sizes = [b.stop - b.start for b in blocks]
        self.one = len(blocks) == 1
        self.width = max(sizes)
        self.column_block = np.repeat(np.arange(len(blocks)), sizes)
        self.keep = self.slots = None
        if len(set(sizes)) > 1:
            pos = np.arange(self.width)
            self.keep = np.concatenate([pos < n for n in sizes])
            self.slots = np.concatenate([np.minimum(b.start + pos, b.stop - 1) for b in blocks])

    def sums(self, v, spread=True):
        """Each row's sum over each block, repeated on the block's columns
        (``spread``) or once per block; for one block, one column (L, 1)
        either way, which broadcasts over the columns."""
        if self.one:
            return np.add.reduce(v, axis=1, keepdims=True)
        if self.keep is not None:
            v = np.where(self.keep, np.take(v, self.slots, axis=1), 0.0)
        sums = v.reshape(-1, self.width).sum(axis=1).reshape(len(v), -1)
        return np.take(sums, self.column_block, axis=1) if spread else sums

    def tangent(self, v, x):
        """v projected onto the tangent space at x, block by block."""
        return v - self.sums(v * x) * x

    def unit(self, v):
        """v with each block scaled to norm 1; a zero block stays 0."""
        nrm = np.sqrt(self.sums(v * v))
        return v / np.where(nrm > 0.0, nrm, 1.0)


def _pga_sphere(blocks, degree, value, value_and_grad, tol):
    """Lockstep step of an ascent of |f|^2 on a product of unit spheres; monotone.

    Returns (start, step).  ``start(x)`` evaluates f, |f|^2 and its gradient
    at the points x (S, dim), one per start, and returns the initial state:
    one packed float array P (S, 4 dim + 2 + k), one row per start, whose
    column slices are the point x (``P[:, :dim]``), |f|^2 there (column
    dim), a count of small gains in a row, the gradient of |f|^2, the search
    direction and projected gradient of the round that last moved the start
    (0 before the first) and f (its re and im parts for a complex field, k =
    2; else k = 1).  A round gathers its searching rows once, merges the
    improved ones with one ``np.where`` and scatters them back once.

    Each round searches along a Polak-Ribiere+ conjugate direction (Absil,
    Mahony & Sepulchre 2008, section 8.3): d = g + beta P(d_prev), with g the
    projected gradient, P the projection onto the tangent space at x (block
    by block, the vector transport) and beta = max(0, <g, g - P(g_prev)> /
    |g_prev|^2); d = g when <d, g> <= 0.  Reusing the previous direction
    stops the zigzag of steepest ascent, which took several times as many
    rounds on complex forms.  The round turns every block b by one angle t
    toward its unit direction u_b = d_b / |d_b|, along y(t) = cos(t) x +
    sin(t) u.  On that curve f is a binary form of degree D = ``degree`` in
    (cos t, sin t), sum_m b_m e^{i(2m-D)t}, so its values at D+1 angles fix
    it exactly: the one at t = 0 is the f(x) the state carries, the other D
    are one batched evaluation, and the FFTs of
    ``_CircleSearch.interpolant`` turn them into |f|^2 along the whole
    curve.  Its maximum comes from a fine zero-padded grid, a parabola and
    Newton steps; the point there is renormalised block by block, f, |f|^2
    and its gradient are evaluated at it, and the start moves only if that
    value improves, so every value is attained (and the next round's
    gradient and f(x) are already known).  A block whose direction is 0 (its
    tangent gradient vanished) keeps u_b = 0: its part of the curve, cos(t)
    x_b, is off the sphere, so the curve's |f|^2 is only a guide to the
    chosen angle, where renormalising puts the block back at +-x_b, and the
    attained-value rule keeps such rows safe.  A start stops when its
    projected gradient vanishes, when a round does not improve or after two
    small improvements in a row.

    A round's circle samples and its evaluation at the chosen angles are one
    batched call each over the live starts that search; the D samples of a
    start share its coefficient row (one id per run of D points).  ``value``
    and ``value_and_grad`` receive the start ids of the rows they evaluate.  The
    block-wise projections and normalisations are one segmented sum each
    (``_Blocks``) and the circle search's constants are built once per run
    (``_CircleSearch``).  A row's arithmetic does not depend on the other rows
    beyond float rounding, so each start ends where it would alone.
    """
    circles, seg = _CircleSearch(degree), _Blocks(blocks)
    dim = blocks[-1].stop
    obj, stalls = dim, dim + 1
    grad, d_prev, g_prev = (slice(a, a + dim) for a in range(dim + 2, 4 * dim + 2, dim))
    f = slice(4 * dim + 2, None)
    f_dtype = None  # f's dtype, read from its first evaluation

    def start(x):
        nonlocal f_dtype
        fx, o, gr = value_and_grad(x, np.arange(len(x)))
        f_dtype, fx = fx.dtype, fx.view(np.float64).reshape(len(x), -1)
        p = np.zeros((len(x), f.start + fx.shape[1]))
        p[:, :dim], p[:, obj], p[:, grad], p[:, f] = x, o, gr, fx
        return [p]

    def step(state, ids):
        (p,) = state
        g = seg.tangent(p[:, grad], p[:, :dim])
        flat = np.sqrt(np.add.reduce(g * g, axis=1)) <= 1e-15 * np.maximum(1.0, np.abs(p[:, obj]))
        if flat.all():
            return flat
        rows = np.flatnonzero(~flat)
        q, g, ids = p[rows], g[rows], ids[rows]
        xl, ol, gp, fx = q[:, :dim], q[:, obj], q[:, g_prev], q[:, f].view(f_dtype)[:, 0]
        # Polak-Ribiere+ with transport by projection; beta = 0 on the first
        # round, where the previous gradient is 0
        num = (g * (g - seg.tangent(gp, xl))).sum(axis=1)
        den = (gp * gp).sum(axis=1)
        beta = np.divide(num, den, out=np.zeros(len(rows)), where=den > 0.0)
        d = g + np.maximum(beta, 0.0)[:, np.newaxis] * seg.tangent(q[:, d_prev], xl)
        uphill = (d * g).sum(axis=1) > 0.0
        d[~uphill] = g[~uphill]
        # near convergence the radial part of the gradient dominates, so the
        # projection leaves rounding error along x_b; remove it again
        u = seg.tangent(seg.unit(d), xl)
        t = circles.argmax(circles.interpolant(circles.samples(xl, u, fx, ids, value)))
        y = seg.unit(np.cos(t)[:, np.newaxis] * xl + np.sin(t)[:, np.newaxis] * u)
        fy, oy, gy = value_and_grad(y, ids)
        new = np.empty_like(q)
        new[:, :dim], new[:, obj], new[:, grad], new[:, d_prev], new[:, g_prev] = y, oy, gy, d, g
        new[:, f] = fy.view(np.float64).reshape(len(rows), -1)
        improved = oy > ol
        after = np.where(improved, oy, ol)
        streak = np.where(after - ol <= tol * np.maximum(1.0, after), q[:, stalls] + 1.0, 0.0)
        q = np.where(improved[:, np.newaxis], new, q)
        q[:, stalls] = streak
        p[rows] = q
        flat[rows] = ~improved | (streak >= 2.0)
        return flat

    return start, step


def _circle_maxima(forms):
    """One ``SpectralResult`` per real form of a batch in two variables, by
    an exact search of the unit circle, which is the whole sphere there.

    Along x = e_1, u = e_2 the circle search (``_CircleSearch``) turns f at
    the D+1 angles s_j, one batched evaluation, into |f|^2 = p(t) on the
    whole circle, one row per form.  Each local maximum of its grid is
    refined (``_CircleSearch.peaks``), f is evaluated once at every refined
    point, renormalised, and each form keeps the point of largest |f| (the
    first of equal ones): an attained value with iterations 1, converged.
    """
    first = forms[0]
    coeffs = np.stack([g.coeffs for g in forms])
    blocks, degree, value, _ = _realified_objective(coeffs, first.exponents, first.ns)
    circles, ids = _CircleSearch(degree), np.arange(len(forms))
    x = np.zeros((len(forms), 2))
    x[:, 0] = 1.0
    # f(e_1) is the coefficient of x_1^D
    fx = coeffs[:, np.flatnonzero(first.exponents[:, 0] == degree)[0]]
    c = circles.interpolant(circles.samples(x, x[:, ::-1], fx, ids, value))
    rows, theta = circles.peaks(c)
    y = _Blocks(blocks).unit(np.column_stack((np.cos(theta), np.sin(theta))))
    f = np.abs(value(y, rows))
    # rows are sorted, so a stable sort by (row, -|f|) puts each form's best first
    order = np.lexsort((-f, rows))
    best = order[np.searchsorted(rows[order], ids)]
    return tuple(SpectralResult(float(f[b]), (y[b],), 1, True) for b in best)


def spectral_norm_symmetric(f, cfg=MaximizerConfig(), over_field=None, seeds=None):
    """Maximize |f(x)| over the unit sphere (realified for complex).

    ``over_field=COMPLEX`` maximizes a real form over the complex sphere
    (``FieldError`` for a complex form over the reals); a multi-form is
    lifted the same way, over its product of spheres.  A form in two
    variables, lifted or not, and a real form in three are searched without
    starts (see ``spectral_value_many``).  Without ``seeds`` this returns
    the one form's ``SpectralResult``.  With ``seeds``, ``f`` is a sequence
    of forms of one d, n and field, form i draws its starts from
    ``seeds[i]``, all of them run in one ``spectral_value_many`` batch and
    its ``SpectralBatch`` is returned.
    """
    forms = [f] if seeds is None else list(f)
    for i, g in enumerate(forms):
        if over_field not in (None, g.field):
            if g.field == COMPLEX:
                raise FieldError("a complex form has no real uniform norm")
            forms[i] = MultiHomogPoly(g.ns, g.ds, g.coeffs, over_field)
    batch = spectral_value_many(forms, cfg, [cfg.seed] if seeds is None else seeds)
    return batch.results[0] if seeds is None else batch


# ----------------------------------------------------------------- grid oracle


@lru_cache(maxsize=None)
def sphere_grid(n, resolution):
    """Deterministic quasi-uniform grid on the unit sphere in R^n.

    Poles (coordinate vectors +-e_1) are always included.
    """
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = 2.0 * np.pi * np.arange(resolution) / resolution
        return np.column_stack([np.cos(ang), np.sin(ang)])
    polar = np.linspace(0.0, np.pi, resolution)
    rest = sphere_grid(n - 1, resolution)
    pts = []
    for th in polar:
        c, s = np.cos(th), np.sin(th)
        if s == 0.0:
            row = np.zeros(n)
            row[0] = c
            pts.append(row[np.newaxis, :])
        else:
            pts.append(np.column_stack([np.full(len(rest), c), s * rest]))
    out = np.vstack(pts)
    out /= np.linalg.norm(out, axis=1)[:, np.newaxis]
    out.setflags(write=False)
    return out


def _grid_budget_check(sizes):
    total = prod(sizes)
    if total > _GRID_BUDGET:
        raise BudgetError(f"grid search space {total} exceeds {_GRID_BUDGET}")


def brute_force_uniform_norm(obj, resolution):
    """Max of the objective over a deterministic sphere-product grid.

    Always a lower bound on the true maximum (grid points lie on the
    sphere), used to certify iterative results at tiny sizes.
    """
    if isinstance(obj, Tensor):
        return _brute_force_tensor(obj, resolution)
    if isinstance(obj, MultiHomogPoly):
        return _brute_force_multi(obj, resolution)
    raise TypeError(f"unsupported input {type(obj)!r}")


def _real_grid_for(n, field, resolution):
    if field == COMPLEX:
        grid = sphere_grid(2 * n, resolution)
        return grid[:, :n] + 1j * grid[:, n:]
    return sphere_grid(n, resolution)


def _brute_force_tensor(t, resolution):
    grids = [_real_grid_for(n, t.field, resolution) for n in t.shape]
    _grid_budget_check([g.shape[0] for g in grids])
    cur = np.conj(t.data)
    # mode-multiply every grid in turn: result indexed by grid points
    for g in grids:
        cur = np.tensordot(cur, g, axes=([0], [1]))
    return float(np.max(np.abs(cur)))


def _brute_force_multi(F, resolution):
    grids = [_real_grid_for(n, F.field, resolution) for n in F.ns]
    _grid_budget_check([g.shape[0] for g in grids])
    picks = np.indices([len(g) for g in grids]).reshape(len(grids), -1)
    pts = np.concatenate([g[p] for g, p in zip(grids, picks)], axis=1)
    return float(np.max(np.abs(evaluate_poly_many(F.coeffs, F.exponents, pts))))


# ----------------------------------------------------------------- ratios


def spectral_value(obj, cfg=MaximizerConfig()):
    """Largest |<T, x^1 (x) ... (x) x^d>| of a tensor over unit vectors by
    alternating maximization, or largest |F(x)| of a polynomial over its
    product of unit spheres by the great-circle ascent (by a search of the
    whole sphere without starts for a form in two variables, or a real one
    in three); one object's ``SpectralResult``."""
    return spectral_value_many([obj], cfg, [cfg.seed]).results[0]


def _space(obj):
    """What the objects of one ``spectral_value_many`` call must share."""
    if isinstance(obj, Tensor):
        return ("tensor", obj.shape, obj.field)
    if isinstance(obj, MultiHomogPoly):
        return ("poly", obj.ds, obj.ns, obj.field)
    raise TypeError(f"unsupported input {type(obj)!r}")


def _searched_exactly(obj):
    """Whether ``spectral_value_many`` searches ``obj`` without starts: a
    form with one block of two variables, over either field, or of three
    over the reals."""
    return isinstance(obj, MultiHomogPoly) and (obj.ns == (2,) or obj.ns == (3,) and obj.field == REAL)


def spectral_value_many(objs, cfg, seeds):
    """``spectral_value`` of many objects in one lockstep batch.

    The objects share a kind, a shape and a field (``ValueError`` otherwise).
    Object i draws its starts from ``seeds[i]``, an integer >= 0
    (``DomainError``, a ``ValueError``, otherwise; ``cfg.seed`` is not read),
    every start of every object advances in one batch, and each object's
    result is the best of its own starts: the result ``spectral_value``
    gives with ``cfg.seed = seeds[i]``, up to float rounding.  Returns a
    ``SpectralBatch``.  Forms in two variables and real forms in three are
    searched without starts: real binary ones one circle each
    (``_circle_maxima``), complex binary ones (real ones lifted by
    ``over_field=COMPLEX`` among them) on a grid of their Bloch sphere
    refined by Newton steps in a chart (``_bloch.binary_maxima``), real
    ternary ones on a grid of S^2 refined by Riemannian Newton steps
    (``_bloch.ternary_maxima``).  Their seeds are checked but draw nothing,
    ``cfg`` is not read and the batch takes 1 round.  Complex forms in three
    variables (the lifts of real ternary forms to C^3 among them) and forms
    in four or more take the starts.
    """
    objs, seeds = tuple(objs), tuple(seeds)
    if not objs or len(seeds) != len(objs):
        raise ValueError(f"need one seed per object, got {len(seeds)} for {len(objs)}")
    for seed in seeds:
        _nonnegative_int(seed, "seeds")
    spaces = {_space(o) for o in objs}
    if len(spaces) != 1:
        raise ValueError(f"mixed inputs in one batch: {sorted(map(str, spaces))}")
    if any(total_norm(o) == 0.0 for o in objs):
        raise ZeroInputError("zero input")
    first, starts = objs[0], cfg.starts
    if _searched_exactly(first):
        if first.ns == (2,) and first.field == REAL:
            return SpectralBatch(_circle_maxima(objs), 1)
        from . import _bloch  # only runs that hold such forms compile it

        search = _bloch.binary_maxima if first.ns == (2,) else _bloch.ternary_maxima
        values, points = search(np.stack([o.coeffs for o in objs]), first.exponents)
        return SpectralBatch(tuple(SpectralResult(float(v), (y,), 1, True) for v, y in zip(values, points)), 1)
    which = np.repeat(np.arange(len(objs)), starts)
    sizes = first.shape if isinstance(first, Tensor) else first.ns
    x = np.hstack(_draw_starts(seeds, starts, sizes, first.field))
    if isinstance(first, Tensor):
        step = _alternating(objs, which, cfg.tol)
        (x, values, _), iters, conv = _lockstep(
            step, [x, np.full(len(x), -np.inf), np.zeros(len(x))], cfg.max_iters
        )
    else:
        coeffs = np.stack([o.coeffs for o in objs])
        blocks, degree, value, value_and_grad = _realified_objective(
            coeffs, first.exponents, first.ns, which
        )
        start, step = _pga_sphere(blocks, degree, value, value_and_grad, cfg.tol)
        (p,), iters, conv = _lockstep(step, start(x.view(np.float64)), cfg.max_iters)
        dim = blocks[-1].stop
        values, x = np.sqrt(p[:, dim]), p[:, :dim].view(x.dtype)
    results = []
    for a in range(0, len(which), starts):
        r = a + _pick_best(values[a : a + starts])
        maximizer = tuple(np.split(x[r], np.cumsum(sizes)[:-1]))
        results.append(SpectralResult(float(values[r]), maximizer, int(iters[r]), bool(conv[r])))
    return SpectralBatch(tuple(results), int(iters.max()))


def total_norm(obj):
    if isinstance(obj, Tensor):
        return frobenius_norm(obj)
    if isinstance(obj, MultiHomogPoly):
        return bw_norm(obj)
    raise TypeError(f"unsupported input {type(obj)!r}")


def ratio(obj, cfg=MaximizerConfig()):
    """Lower estimate of spectral norm / Frobenius (Bombieri-Weyl) norm."""
    return spectral_value(obj, cfg).value / total_norm(obj)


def approx_error(obj, cfg=MaximizerConfig()):
    """Relative best rank-one approximation error sqrt(1 - ratio^2)."""
    r = min(ratio(obj, cfg), 1.0)
    return float(np.sqrt(max(0.0, 1.0 - r * r)))
