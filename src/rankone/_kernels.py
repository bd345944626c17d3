"""Hot numeric kernels: monomial evaluation and gradients in numpy."""

import numpy as np


def evaluate_poly(coeffs, expo, x):
    """Sum of coeffs[a] * prod_i x[i]**expo[a, i]."""
    dt = np.result_type(coeffs, x)
    coeffs = np.ascontiguousarray(coeffs, dtype=dt)
    x = np.ascontiguousarray(x, dtype=dt)
    return np.dot(coeffs, np.prod(x[np.newaxis, :] ** expo, axis=1))


def evaluate_poly_many(coeffs, expo, xs):
    """Evaluate one polynomial at many points; xs has shape (m, n)."""
    dt = np.result_type(coeffs, xs)
    coeffs = np.ascontiguousarray(coeffs, dtype=dt)
    xs = np.ascontiguousarray(xs, dtype=dt)
    return np.prod(xs[:, np.newaxis, :] ** expo[np.newaxis, :, :], axis=2) @ coeffs


def gradient_poly(coeffs, expo, x):
    """Gradient of the monomial sum; holomorphic derivative for complex."""
    dt = np.result_type(coeffs, x)
    coeffs = np.ascontiguousarray(coeffs, dtype=dt)
    x = np.ascontiguousarray(x, dtype=dt)
    n = expo.shape[1]
    grad = np.zeros(n, dtype=dt)
    for i in range(n):
        mask = expo[:, i] > 0
        if not np.any(mask):
            continue
        e = expo[mask].copy()
        e[:, i] -= 1
        mono = np.prod(x[np.newaxis, :] ** e, axis=1)
        grad[i] = np.dot(coeffs[mask] * expo[mask, i], mono)
    return grad
