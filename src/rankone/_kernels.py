"""Hot numeric kernels: monomial evaluation and gradients in numpy.

The batched kernels reduce each point's row on its own (elementwise products
summed along the last axis, no matrix product), so a point's value and
gradient do not depend on which other points share the batch.
"""

import numpy as np


def _promote(coeffs, x):
    dt = np.result_type(coeffs, x)
    return np.ascontiguousarray(coeffs, dtype=dt), np.ascontiguousarray(x, dtype=dt)


def evaluate_poly(coeffs, expo, x):
    """Sum of coeffs[a] * prod_i x[i]**expo[a, i]."""
    coeffs, x = _promote(coeffs, x)
    return np.dot(coeffs, np.prod(x[np.newaxis, :] ** expo, axis=1))


def _power_table(xs, expo):
    """table[k, j, e] = xs[k, j] ** e for e = 0..max degree; shape (m, n, d+1)."""
    return xs[:, :, np.newaxis] ** np.arange(expo.max(initial=0) + 1)


def evaluate_poly_many(coeffs, expo, xs):
    """Evaluate one polynomial at many points; xs has shape (m, n)."""
    coeffs, xs = _promote(coeffs, xs)
    cols = np.arange(expo.shape[1])
    mono = np.prod(_power_table(xs, expo)[:, cols, expo], axis=2)
    return (mono * coeffs).sum(axis=1)


def gradient_poly_many(coeffs, expo, xs):
    """Gradients at many points, shape (m, n); holomorphic derivative for complex.

    The derivative of x^a in x_i is a_i x^(a - e_i): each monomial's factor
    x_i^a_i is swapped for x_i^(a_i - 1), read from the same power table.
    Where a_i = 0 the shifted exponent is clipped to 0 and the term carries
    the weight a_i = 0.
    """
    coeffs, xs = _promote(coeffs, xs)
    n = expo.shape[1]
    cols = np.arange(n)
    table = _power_table(xs, expo)
    factors = table[:, cols, expo]  # (m, N, n): x_j^a_j
    shifted = table[:, cols, np.maximum(expo - 1, 0)]  # (m, N, n): x_j^(a_j - 1)
    swapped = np.repeat(factors[:, np.newaxis], n, axis=1)  # (m, i, N, j)
    swapped[:, cols, :, cols] = shifted.transpose(2, 0, 1)
    weights = (expo * coeffs[:, np.newaxis]).T  # (i, N): a_i * c_a
    return (np.prod(swapped, axis=3) * weights).sum(axis=2)


def gradient_poly(coeffs, expo, x):
    """Gradient of the monomial sum at one point (a one-row batch)."""
    return gradient_poly_many(coeffs, expo, np.asarray(x)[np.newaxis, :])[0]
