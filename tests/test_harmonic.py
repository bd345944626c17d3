import math

import numpy as np
import pytest

from rankone.harmonic import (
    _BASIS_BUDGET,
    _NULLSPACE_RCOND,
    DomainError,
    _mgs_bw,
    _sphere_monomial_gram,
    harmonic_basis,
    harmonic_dimension,
    l2_sphere_inner,
    bw_l2_constant,
    sphere_surface,
    zonal,
    zonal_pole_value,
)
from rankone.poly import (
    ShapeError,
    bw_inner,
    evaluate,
    laplacian,
    laplacian_matrix,
    monomial_exponents,
    multinomial,
    num_monomials,
    poly_from_coeff_dict,
)


def test_harmonic_dimension_oracle():
    # circle: 2 for every d >= 1
    for d in range(1, 8):
        assert harmonic_dimension(d, 2) == 2
    # classical 2d+1 for n = 3
    for d in range(0, 6):
        assert harmonic_dimension(d, 3) == 2 * d + 1
    assert harmonic_dimension(2, 4) == 9
    assert harmonic_dimension(0, 5) == 1
    with pytest.raises(DomainError):
        harmonic_dimension(3, 1)


def test_sphere_surface_oracle():
    assert sphere_surface(2) == pytest.approx(2 * math.pi)
    assert sphere_surface(3) == pytest.approx(4 * math.pi)
    assert sphere_surface(4) == pytest.approx(2 * math.pi**2)


def test_bw_l2_constant_oracle():
    assert bw_l2_constant(1, 3) == pytest.approx(3 / (4 * math.pi))
    assert bw_l2_constant(2, 4) == pytest.approx(6 / math.pi**2)
    # d=3, n=2: 2^2 Gamma(4) / (pi Gamma(4)) = 4/pi
    assert bw_l2_constant(3, 2) == pytest.approx(4 / math.pi)


def test_exact_monomial_integrals():
    # int_{S^{n-1}} x_i^2 = |S^{n-1}|/n via the gram of degree-1 monomials
    for n in (2, 3, 4):
        f = poly_from_coeff_dict(n, 1, {tuple(1 if j == 0 else 0 for j in range(n)): 1.0})
        assert l2_sphere_inner(f, f) == pytest.approx(sphere_surface(n) / n)
    # odd powers integrate to zero
    f = poly_from_coeff_dict(2, 2, {(1, 1): 1.0})
    g = poly_from_coeff_dict(2, 2, {(2, 0): 1.0})
    assert l2_sphere_inner(f, g) == pytest.approx(0.0, abs=1e-15)


def test_basis_is_bw_orthonormal_and_harmonic():
    for d, n in [(1, 3), (3, 2), (4, 3), (2, 4)]:
        basis = harmonic_basis(d, n)
        assert basis.dim == harmonic_dimension(d, n)
        for i, bi in enumerate(basis.basis):
            assert np.linalg.norm(laplacian(bi).coeffs) < 1e-9
            for j, bj in enumerate(basis.basis):
                expected = 1.0 if i == j else 0.0
                assert bw_inner(bi, bj) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize(
    "d, n",
    [(d, n) for n in (2, 3) for d in range(2, 13)] + [(19, 3), (10, 4), (12, 4), (4, 6), (3, 8)],
)
def test_basis_matches_scipy_null_space(d, n):
    # scipy is the test-only reference: the package takes the null space from
    # numpy's SVD by scipy's rule, so the bases (and the Gaussian harmonic
    # samples drawn from them) are bit-identical at n <= 3, d <= 12, and
    # within rounding at larger sizes
    from scipy.linalg import null_space

    assert num_monomials(d, n) <= _BASIS_BUDGET
    ref = _mgs_bw(null_space(laplacian_matrix(d, n), rcond=_NULLSPACE_RCOND), d, n)
    got = harmonic_basis(d, n).coeff_matrix
    if n <= 3 and d <= 12:
        assert got.tobytes() == ref.tobytes()
    else:
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref).max(axis=0))


@pytest.mark.parametrize("d, n", [(1, 2), (2, 3), (4, 3), (6, 3), (8, 5), (12, 3), (3, 7)])
def test_sphere_gram_matches_gammaln(d, n):
    from scipy.special import gammaln

    expo = monomial_exponents(d, n)
    s = expo[:, np.newaxis, :] + expo[np.newaxis, :, :]
    logs = np.sum(gammaln((s + 1) / 2.0), axis=2)
    ref = np.where(
        np.all(s % 2 == 0, axis=2), 2.0 * np.exp(logs - gammaln((2 * d + n) / 2.0)), 0.0
    )
    gram = _sphere_monomial_gram(d, n)
    assert np.array_equal(gram == 0, ref == 0)
    assert np.all(np.abs(gram - ref) <= 1e-13 * ref)


def test_sphere_gram_is_finite_at_high_degree():
    # the integral of x^(2k) y^(2d-2k) over the circle is
    # 2 pi C(2k, k) C(2d-2k, d-k) / (4^d C(d, k)); at d = 200 the double
    # factorials and Gamma(d + n/2) overflow a float
    d = 200
    gram = _sphere_monomial_gram(d, 2)
    assert np.all(np.isfinite(gram))
    rows = monomial_exponents(d, 2)
    for k in (0, 1, 57, 100, 200):
        a = int(np.flatnonzero(rows[:, 0] == k)[0])
        exact = math.comb(2 * k, k) * math.comb(2 * d - 2 * k, d - k) / (4**d * math.comb(d, k))
        assert gram[a, a] == pytest.approx(2 * math.pi * exact, rel=1e-14)


def test_bw_l2_identity_on_random_harmonic_pairs():
    rng = np.random.default_rng(0)
    for d, n in [(3, 2), (2, 3), (4, 3)]:
        basis = harmonic_basis(d, n)
        c = bw_l2_constant(d, n)
        for _ in range(5):
            g1 = rng.standard_normal(basis.dim)
            g2 = rng.standard_normal(basis.dim)
            from rankone.poly import HomogPoly
            from rankone.tensor import REAL

            h1 = HomogPoly(n, d, basis.coeff_matrix @ g1, REAL)
            h2 = HomogPoly(n, d, basis.coeff_matrix @ g2, REAL)
            lhs = bw_inner(h1, h2).real
            rhs = c * l2_sphere_inner(h1, h2)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_binary_harmonic_example():
    # h = Re (x + i y)^3 = x^3 - 3 x y^2: bw norm squared 2^(d-1) = 4
    h = poly_from_coeff_dict(2, 3, {(3, 0): 1.0, (1, 2): -3.0})
    assert bw_inner(h, h).real == pytest.approx(4.0)
    # its L2 norm is the circle integral of cos^2(3 theta) = pi
    assert l2_sphere_inner(h, h) == pytest.approx(math.pi)


def test_zonal_reproducing_property():
    rng = np.random.default_rng(1)
    for d, n in [(2, 3), (3, 2), (4, 3)]:
        basis = harmonic_basis(d, n)
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        z = zonal(basis, x)
        # <h, Z_x>_{L2} = h(x) for any harmonic h
        from rankone.poly import HomogPoly
        from rankone.tensor import REAL

        h = HomogPoly(n, d, basis.coeff_matrix @ rng.standard_normal(basis.dim), REAL)
        assert l2_sphere_inner(h, z) == pytest.approx(evaluate(h, x), rel=1e-8)
        # Z_x(x) = D / |S^{n-1}|
        assert evaluate(z, x) == pytest.approx(zonal_pole_value(d, n), rel=1e-8)
        # and so is the L2 norm squared of Z_x
        assert l2_sphere_inner(z, z) == pytest.approx(zonal_pole_value(d, n), rel=1e-8)


def test_zonal_rejects_non_unit_pole():
    basis = harmonic_basis(2, 3)
    with pytest.raises(ValueError):
        zonal(basis, np.array([1.0, 1.0, 0.0]))
    # a unit pole of the wrong length
    with pytest.raises(ShapeError, match=r"points have shape \(2,\), expected \(3,\)"):
        zonal(basis, np.array([1.0, 0.0]))
