import numpy as np
import pytest

from rankone._kernels import evaluate_poly_many, gradient_poly, gradient_poly_many
from rankone.poly import (
    HomogPoly,
    MultiHomogPoly,
    bw_inner,
    bw_norm,
    dump_multi_poly,
    dump_poly,
    evaluate,
    evaluate_many,
    gradient,
    laplacian,
    load_poly,
    monomial_exponents,
    monomial_index,
    multi_bw_norm,
    multi_evaluate,
    multi_from_single,
    multi_gradient,
    multinomial,
    num_monomials,
    poly_from_coeff_dict,
    poly_from_symmetric_tensor,
    single_from_multi,
    symmetric_tensor_from_poly,
)
from rankone.tensor import COMPLEX, REAL, Tensor, frobenius_inner, frobenius_norm, symmetrize


def test_monomial_order_graded_lex():
    expo = monomial_exponents(2, 3)
    expected = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert [tuple(r) for r in expo] == expected
    assert num_monomials(2, 3) == 6
    idx = monomial_index(2, 3)
    assert idx[(1, 0, 1)] == 2


def test_multinomial_values():
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(5, (5, 0)) == 1
    # large degree goes through the log-gamma path
    assert multinomial(40, (20, 20)) == pytest.approx(137846528820, rel=1e-12)


def test_evaluate_against_naive():
    rng = np.random.default_rng(0)
    f = HomogPoly(3, 4, rng.standard_normal(num_monomials(4, 3)), REAL)
    x = rng.standard_normal(3)
    naive = sum(
        c * np.prod(x ** np.asarray(a))
        for c, a in zip(f.coeffs, monomial_exponents(4, 3))
    )
    assert evaluate(f, x) == pytest.approx(naive)
    xs = rng.standard_normal((5, 3))
    many = evaluate_many(f, xs)
    np.testing.assert_allclose(many, [evaluate(f, xi) for xi in xs], rtol=1e-12)


def test_gradient_finite_difference():
    rng = np.random.default_rng(1)
    for field in (REAL, COMPLEX):
        c = rng.standard_normal(num_monomials(3, 2))
        if field == COMPLEX:
            c = c + 1j * rng.standard_normal(c.size)
        f = HomogPoly(2, 3, c, field)
        x = rng.standard_normal(2)
        g = gradient(f, x)
        h = 1e-6
        for i in range(2):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (evaluate(f, xp) - evaluate(f, xm)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-5)



@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_gradient_many_matches_single_naive_and_finite_differences(field):
    rng = np.random.default_rng(2)
    d, n = 4, 3
    expo = monomial_exponents(d, n)
    c = rng.standard_normal(len(expo))
    xs = rng.standard_normal((6, n))
    if field == COMPLEX:
        c = c + 1j * rng.standard_normal(c.size)
        xs = xs + 1j * rng.standard_normal(xs.shape)
    # zero coordinates: 0**0 entries of the power table, clipped exponents
    xs[0] = 0.0
    xs[1, 0] = 0.0
    xs[2, 1:] = 0.0
    g = gradient_poly_many(c, expo, xs)
    np.testing.assert_array_equal(g, [gradient_poly(c, expo, x) for x in xs])
    naive = np.zeros(xs.shape, dtype=complex)
    for k, x in enumerate(xs):
        for ca, a in zip(c, expo):
            for i in np.flatnonzero(a):
                e = a.copy()
                e[i] -= 1
                naive[k, i] += ca * a[i] * np.prod([x[j] ** int(e[j]) for j in range(n)])
    np.testing.assert_allclose(g, naive, rtol=1e-12, atol=1e-12)
    # the holomorphic derivative is the difference quotient along real steps
    h = 1e-6
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        fd = (evaluate_poly_many(c, expo, xs + step) - evaluate_poly_many(c, expo, xs - step)) / (2 * h)
        np.testing.assert_allclose(g[:, i], fd, rtol=1e-7, atol=1e-7)

def test_euler_identity():
    # x . grad f = d f for homogeneous f
    rng = np.random.default_rng(2)
    f = HomogPoly(3, 5, rng.standard_normal(num_monomials(5, 3)), REAL)
    x = rng.standard_normal(3)
    assert np.dot(x, gradient(f, x)) == pytest.approx(5 * evaluate(f, x))


def test_bw_norm_oracle():
    # f = x^3: weight 1 -> norm 1; f = x^2 y: binom(3,(2,1)) = 3
    f = poly_from_coeff_dict(2, 3, {(3, 0): 1.0})
    assert bw_norm(f) == pytest.approx(1.0)
    g = poly_from_coeff_dict(2, 3, {(2, 1): 1.0})
    assert bw_norm(g) == pytest.approx(1.0 / np.sqrt(3.0))
    assert bw_inner(f, g) == pytest.approx(0.0)


def test_harmonic_binary_form_norm():
    # real part of (x + i y)^d has squared norm 2^(d-1)
    for d in (3, 4, 5):
        entries = {}
        for k in range(0, d + 1, 2):
            entries[(d - k, k)] = multinomial(d, (d - k, k)) * (-1.0) ** (k // 2)
        f = poly_from_coeff_dict(2, d, entries)
        assert bw_norm(f) ** 2 == pytest.approx(2.0 ** (d - 1))


def test_laplacian_oracle():
    # laplacian of x^2 + y^2 + z^2 is the constant 6 (degree-0 polynomial)
    f = poly_from_coeff_dict(3, 2, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    lap = laplacian(f)
    assert lap.d == 0
    assert lap.coeffs[0] == pytest.approx(6.0)
    # x^3 - 3 x y^2 is harmonic
    h = poly_from_coeff_dict(2, 3, {(3, 0): 1.0, (1, 2): -3.0})
    assert np.linalg.norm(laplacian(h).coeffs) == pytest.approx(0.0)


def test_tensor_poly_dictionary_round_trip():
    rng = np.random.default_rng(3)
    for field in (REAL, COMPLEX):
        raw = rng.standard_normal((3, 3, 3))
        if field == COMPLEX:
            raw = raw + 1j * rng.standard_normal((3, 3, 3))
        t = symmetrize(Tensor(raw, field))
        f = poly_from_symmetric_tensor(t)
        back = symmetric_tensor_from_poly(f)
        np.testing.assert_allclose(back.data, t.data, atol=1e-12)
        # the dictionary is an isometry: bw norm = frobenius norm
        assert bw_norm(f) == pytest.approx(frobenius_norm(t))


def test_dictionary_isometry_inner_products():
    rng = np.random.default_rng(4)
    raw1 = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    raw2 = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    t1, t2 = symmetrize(Tensor(raw1, COMPLEX)), symmetrize(Tensor(raw2, COMPLEX))
    f1, f2 = poly_from_symmetric_tensor(t1), poly_from_symmetric_tensor(t2)
    assert bw_inner(f1, f2) == pytest.approx(frobenius_inner(t1, t2))


def test_poly_evaluation_matches_tensor_contraction():
    rng = np.random.default_rng(5)
    t = symmetrize(Tensor(rng.standard_normal((2, 2, 2)), REAL))
    f = poly_from_symmetric_tensor(t)
    x = rng.standard_normal(2)
    ref = np.einsum("ijk,i,j,k->", t.data, x, x, x)
    assert evaluate(f, x) == pytest.approx(ref)


def test_multi_consistency_with_single():
    rng = np.random.default_rng(6)
    f = HomogPoly(3, 4, rng.standard_normal(num_monomials(4, 3)), REAL)
    F = multi_from_single(f)
    assert multi_bw_norm(F) == pytest.approx(bw_norm(f))
    x = rng.standard_normal(3)
    assert multi_evaluate(F, [x]) == pytest.approx(evaluate(f, x))
    np.testing.assert_allclose(multi_gradient(F, [x]), gradient(f, x), rtol=1e-12)
    back = single_from_multi(F)
    np.testing.assert_allclose(back.coeffs, f.coeffs)


def test_multi_evaluate_separable():
    # F = (x0^2)(y0 y1): product of block evaluations
    F = MultiHomogPoly((2, 2), (2, 2), np.zeros(9), REAL)
    from rankone.poly import multi_monomial_exponents

    expo = multi_monomial_exponents((2, 2), (2, 2))
    target = (2, 0, 1, 1)
    coeffs = np.array([1.0 if tuple(r) == target else 0.0 for r in expo])
    F = MultiHomogPoly((2, 2), (2, 2), coeffs, REAL)
    x = np.array([3.0, 1.0])
    y = np.array([2.0, 5.0])
    assert multi_evaluate(F, [x, y]) == pytest.approx(9.0 * 10.0)


def test_dump_load_round_trip():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(num_monomials(3, 2)) + 1j * rng.standard_normal(num_monomials(3, 2))
    f = HomogPoly(2, 3, c, COMPLEX)
    back = load_poly(dump_poly(f))
    assert back.field == COMPLEX
    np.testing.assert_array_equal(back.coeffs, f.coeffs)
    F = multi_from_single(f)
    text = dump_multi_poly(F)
    assert "multipoly" in text.splitlines()[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_data_rejected(bad):
    field = COMPLEX if isinstance(bad, complex) else REAL
    with pytest.raises(ValueError, match="non-finite"):
        Tensor(np.array([[1.0, bad], [0.0, 1.0]]), field)
    with pytest.raises(ValueError, match="non-finite"):
        HomogPoly(2, 1, np.array([bad, 1.0]), field)
    with pytest.raises(ValueError, match="non-finite"):
        MultiHomogPoly((2, 1), (1, 1), np.array([1.0, bad]), field)
