import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankone import _kernels
from rankone._kernels import (
    evaluate_poly,
    evaluate_poly_many,
    gradient_poly,
    gradient_poly_many,
    value_and_gradient_poly_many,
)
from rankone.poly import (
    HomogPoly,
    MultiHomogPoly,
    ShapeError,
    SymmetryError,
    bw_inner,
    bw_norm,
    dump_poly,
    evaluate,
    evaluate_many,
    gradient,
    laplacian,
    load_poly,
    monomial_exponents,
    monomial_index,
    multi_monomial_exponents,
    multinomial,
    multinomial_weights,
    num_monomials,
    poly_from_coeff_dict,
    poly_from_symmetric_tensor,
    symmetric_tensor_from_poly,
)
from rankone.tensor import (
    COMPLEX,
    REAL,
    FieldError,
    Tensor,
    dump_tensor,
    frobenius_inner,
    frobenius_norm,
    load_tensor,
    symmetrize,
)


def test_monomial_order_graded_lex():
    expo = monomial_exponents(2, 3)
    expected = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert [tuple(r) for r in expo] == expected
    assert num_monomials(2, 3) == 6
    idx = monomial_index(2, 3)
    assert idx[(1, 0, 1)] == 2
    # the same rows in the same order as the sorted list of all compositions
    for d in range(7):
        for n in range(1, 6):
            ref = sorted((a for a in product(range(d + 1), repeat=n) if sum(a) == d), reverse=True)
            assert [tuple(r) for r in monomial_exponents(d, n)] == ref, (d, n)
    # built without recursion, so many variables are fine
    np.testing.assert_array_equal(monomial_exponents(1, 1500), np.eye(1500, dtype=np.int64))


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


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_form_operations_accept_one_block_multi_forms(field):
    # a one-block multi-form, built directly or read back from its
    # ``multipoly`` text, is the form: laplacian, the symmetric tensor and
    # (for real forms) the sphere L2 product give what the HomogPoly gives;
    # a multi-form of two blocks is refused with a ShapeError naming (ns, ds)
    from rankone.harmonic import l2_sphere_inner

    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(num_monomials(3, 3))
    if field == COMPLEX:
        coeffs = coeffs + 1j * rng.standard_normal(len(coeffs))
    f = HomogPoly(3, 3, coeffs, field)
    direct = MultiHomogPoly((3,), (3,), coeffs, field)
    text = dump_poly(direct)
    assert text.startswith("multipoly ns=3 ds=3")
    read = load_poly(text)
    assert type(read) is MultiHomogPoly
    operations = [
        lambda g: laplacian(g).coeffs,
        lambda g: symmetric_tensor_from_poly(g).data,
    ]
    if field == REAL:
        operations.append(lambda g: l2_sphere_inner(g, g))
    for g in (direct, read):
        assert (laplacian(g).ns, laplacian(g).ds) == ((3,), (1,))
        for op in operations:
            np.testing.assert_array_equal(op(g), op(f))
    two = MultiHomogPoly((2, 2), (1, 2), rng.standard_normal(6), REAL)
    for op in operations + [lambda g: l2_sphere_inner(two, g)]:
        with pytest.raises(ShapeError, match=r"\(ns, ds\) = \(\(2, 2\), \(1, 2\)\)"):
            op(two)


@pytest.mark.parametrize(
    "alpha",
    [(1, 1, 1), (4, -1), (2, 2), (1,)],
    ids=["too-long", "negative", "wrong-degree", "too-short"],
)
def test_multi_indices_that_are_not_monomials_are_refused(alpha):
    # every multi-index that is not a degree-3 monomial in 2 variables is a
    # ShapeError naming it, in a coefficient dict and in a coefficient lookup
    message = rf"^multi-index {re.escape(str(alpha))} is not a monomial of degree 3 in 2 variables$"
    with pytest.raises(ShapeError, match=message):
        poly_from_coeff_dict(2, 3, {alpha: 1.0})
    f = poly_from_coeff_dict(2, 3, {(2, 1): 1.0})
    with pytest.raises(ShapeError, match=message):
        f.coefficient(alpha)
    assert f.coefficient((2, 1)) == 1.0


def _poly_by_monomial_loop(t):
    """The form of a symmetric tensor one monomial at a time: f_a =
    binom(d, a) t_rep, rep the sorted indices that a counts."""
    n, d = t.shape[0], t.order
    expo = monomial_exponents(d, n)
    coeffs = np.empty(len(expo), dtype=t.data.dtype)
    w = multinomial_weights(d, n)
    for i, alpha in enumerate(expo):
        coeffs[i] = w[i] * t.data[tuple(np.repeat(np.arange(n), alpha))]
    return coeffs


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_poly_from_symmetric_tensor_matches_the_monomial_loop(field):
    rng = np.random.default_rng(65)
    for d in range(5):
        for n in range(1, 5):
            raw = _random_points(rng, field, (n,) * d) * 10.0 ** rng.uniform(-3, 3, (n,) * d)
            t = symmetrize(Tensor(raw, field))
            got, want = poly_from_symmetric_tensor(t).coeffs, _poly_by_monomial_loop(t)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (d, n)


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
    # a form is its one-block multi-form: same exponents, weights, norm,
    # values and gradients, and the two share one space
    rng = np.random.default_rng(6)
    f = HomogPoly(3, 4, rng.standard_normal(num_monomials(4, 3)), REAL)
    F = MultiHomogPoly((3,), (4,), f.coeffs, REAL)
    assert isinstance(f, MultiHomogPoly) and (f.ns, f.ds) == ((3,), (4,))
    for d, n in [(0, 3), (1, 2), (8, 2), (6, 3), (5, 4)]:
        np.testing.assert_array_equal(multi_monomial_exponents((d,), (n,)), monomial_exponents(d, n))
    assert bw_norm(F) == bw_norm(f)
    assert bw_inner(f, F) == bw_inner(f, f)
    x = rng.standard_normal(3)
    assert evaluate(F, x) == evaluate(f, x)
    np.testing.assert_array_equal(gradient(F, x), gradient(f, x))
    with pytest.raises(AttributeError):
        f.n = 4


def test_multi_evaluate_separable():
    # F = (x0^2)(y0 y1): product of block evaluations at the concatenated point
    expo = multi_monomial_exponents((2, 2), (2, 2))
    target = (2, 0, 1, 1)
    coeffs = np.array([1.0 if tuple(r) == target else 0.0 for r in expo])
    F = MultiHomogPoly((2, 2), (2, 2), coeffs, REAL)
    x = np.array([3.0, 1.0])
    y = np.array([2.0, 5.0])
    assert evaluate(F, np.concatenate([x, y])) == pytest.approx(9.0 * 10.0)
    np.testing.assert_allclose(gradient(F, np.concatenate([x, y])), [6.0 * 10.0, 0.0, 9.0 * 5.0, 9.0 * 2.0])


def test_dump_load_round_trip():
    rng = np.random.default_rng(7)
    c = rng.standard_normal(num_monomials(3, 2)) + 1j * rng.standard_normal(num_monomials(3, 2))
    f = HomogPoly(2, 3, c, COMPLEX)
    back = load_poly(dump_poly(f))
    assert type(back) is HomogPoly and back.field == COMPLEX
    np.testing.assert_array_equal(back.coeffs, f.coeffs)
    F = MultiHomogPoly((2,), (3,), c, COMPLEX)
    assert dump_poly(F).splitlines()[0] == "multipoly ns=2 ds=3 field=complex"
    G = MultiHomogPoly((2, 3), (2, 1), rng.standard_normal(9) + 1j * rng.standard_normal(9), COMPLEX)
    back = load_poly(dump_poly(G))
    assert type(back) is MultiHomogPoly
    assert (back.ns, back.ds, back.field) == (G.ns, G.ds, G.field)
    np.testing.assert_array_equal(back.coeffs, G.coeffs)


def test_dump_poly_golden_text():
    f = HomogPoly(2, 2, np.array([1.0, -2.5, 0.125]), REAL)
    assert dump_poly(f) == (
        "poly n=2 d=2 field=real\n"
        "2,0: 1.00000000000000000e+00\n"
        "1,1: -2.50000000000000000e+00\n"
        "0,2: 1.25000000000000000e-01\n"
    )
    F = MultiHomogPoly((2, 2), (1, 1), np.array([1, 0.5j, -3 + 0.25j, 1e-3 - 2e5j]), COMPLEX)
    assert dump_poly(F) == (
        "multipoly ns=2,2 ds=1,1 field=complex\n"
        "1,0|1,0: 1.00000000000000000e+00,0.00000000000000000e+00\n"
        "1,0|0,1: 0.00000000000000000e+00,5.00000000000000000e-01\n"
        "0,1|1,0: -3.00000000000000000e+00,2.50000000000000000e-01\n"
        "0,1|0,1: 1.00000000000000002e-03,-2.00000000000000000e+05\n"
    )


_FORM = HomogPoly(3, 2, np.arange(6.0), REAL)
_MULTI = MultiHomogPoly((2, 2), (1, 2), np.arange(6.0), REAL)


@pytest.mark.parametrize("f", [_FORM, _MULTI], ids=["form", "multi"])
@pytest.mark.parametrize("op", [evaluate, gradient, evaluate_many])
@pytest.mark.parametrize("shape", ["few-axes", "many-axes", "wrong-size"])
def test_points_of_the_wrong_shape_raise_shape_error(f, op, shape):
    # a point is the concatenation of the blocks, sum(ns) coordinates; a
    # batch of points is one row per point
    size, axes = sum(f.ns), 2 if op is evaluate_many else 1
    bad = {
        "few-axes": (size,) * (axes - 1),
        "many-axes": (1,) * axes + (size,),
        "wrong-size": (1,) * (axes - 1) + (size + 1,),
    }[shape]
    with pytest.raises(ShapeError):
        op(f, np.ones(bad))
    op(f, np.ones((1,) * (axes - 1) + (size,)))


def _joined(sizes):
    return ",".join(map(str, sizes))


_SIZES = st.lists(st.integers(-1, 3), min_size=1, max_size=3)
_FIELDS = st.sampled_from(["real", "complex", "quaternion"])
_HEADERS = st.one_of(
    st.builds(lambda s, f: f"tensor shape={_joined(s)} field={f}", _SIZES, _FIELDS),
    st.builds(lambda n, d, f: f"poly n={n} d={d} field={f}", st.integers(-1, 3), st.integers(-1, 3), _FIELDS),
    st.builds(lambda ns, ds, f: f"multipoly ns={_joined(ns)} ds={_joined(ds)} field={f}", _SIZES, _SIZES, _FIELDS),
)
_NUMBERS = st.one_of(st.floats(-10.0, 10.0), st.floats()).map(str)
_ENTRIES = (
    _NUMBERS,
    st.builds(lambda a, b: f"{a},{b}", _NUMBERS, _NUMBERS),
    st.builds(lambda key, c: f"{_joined(key)}: {c}", st.lists(st.integers(-1, 3), max_size=3), _NUMBERS),
)
_LINES = st.one_of(*_ENTRIES, st.text(alphabet="0123456789-+.,:|e ", max_size=12), st.text(max_size=8))
# bodies of one kind of entry load more often than mixed ones
_BODIES = st.one_of(*(st.lists(e, max_size=6) for e in (*_ENTRIES, _LINES)))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_HEADERS, _BODIES)
def test_loaders_load_or_raise_value_error(header, body):
    # any body under a small header, dimensions <= 0 included; what loads
    # has the header's dimensions
    text = "\n".join([header, *body]) + "\n"
    kind = header.split()[0]
    load, dump = {
        "tensor": (load_tensor, dump_tensor),
        "poly": (load_poly, dump_poly),
        "multipoly": (load_poly, dump_poly),
    }[kind]
    try:
        obj = load(text)
    except ValueError:
        return
    assert dump(obj).splitlines()[0] == header


@pytest.mark.parametrize(
    "text, message",
    [
        ("poly n=2 d=3 field=real\n3,0: 1\n3,0: 2\n", "monomial 3,0 given twice"),
        ("poly n=2 d=3 field=real\n3,0: 1\n1,2: 5\n 3,0 : 2\n", "monomial 3,0 given twice"),
        ("multipoly ns=2,2 ds=1,1 field=complex\n1,0|0,1: 1,0\n1,0|0,1: 0,1\n", "monomial 1,0|0,1 given twice"),
        ("tensor shape=2,2 field=real\n1\n2\n3\n", "tensor shape=2,2 needs 4 entries, got 3"),
        ("tensor shape=1,2 field=complex\n1,0\n2,0\n3,0\n", "tensor shape=1,2 needs 2 entries, got 3"),
        # entry counts at and past 2**64 are counted exactly, not wrapped
        (
            "tensor shape=4294967296,4294967297 field=real\n1.0\n",
            "tensor shape=4294967296,4294967297 needs 18446744078004518912 entries, got 1",
        ),
        (
            "tensor shape=4294967296,4294967296 field=real\n",
            "tensor shape=4294967296,4294967296 needs 18446744073709551616 entries, got 0",
        ),
    ],
    ids=[
        "poly-repeat", "poly-repeat-later", "multipoly-repeat", "tensor-short", "tensor-long",
        "tensor-count-past-2-64", "tensor-count-2-64",
    ],
)
def test_loaders_refuse_repeated_monomials_and_miscounted_entries(text, message):
    load = load_tensor if text.startswith("tensor") else load_poly
    with pytest.raises(ValueError, match=f"^{message.replace('|', '[|]')}$"):
        load(text)


def test_coefficient_count_does_not_wrap():
    # 4 blocks of 2**16 linear monomials: 2**64 coefficients, not 0
    with pytest.raises(ShapeError, match="expected 18446744073709551616 coefficients"):
        MultiHomogPoly((2**16,) * 4, (1,) * 4, np.zeros(0), REAL)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_data_rejected(bad):
    field = COMPLEX if isinstance(bad, complex) else REAL
    with pytest.raises(ValueError, match="non-finite"):
        Tensor(np.array([[1.0, bad], [0.0, 1.0]]), field)
    with pytest.raises(ValueError, match="non-finite"):
        HomogPoly(2, 1, np.array([bad, 1.0]), field)
    with pytest.raises(ValueError, match="non-finite"):
        MultiHomogPoly((2, 1), (1, 1), np.array([1.0, bad]), field)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("expo", [monomial_exponents(8, 2), monomial_exponents(6, 3)], ids=["d8n2", "d6n3"])
def test_per_point_coefficients_match_single_rows(field, expo):
    # an (m, N) coefficient matrix gives row k the polynomial of row k
    rng = np.random.default_rng(5)
    m, n = 13, expo.shape[1]
    c = rng.standard_normal((m, len(expo)))
    xs = rng.standard_normal((m, n))
    if field == COMPLEX:
        c = c + 1j * rng.standard_normal(c.shape)
        xs = xs + 1j * rng.standard_normal(xs.shape)
    one_v = [evaluate_poly_many(c[k], expo, xs[k : k + 1])[0] for k in range(m)]
    one_g = [gradient_poly_many(c[k], expo, xs[k : k + 1])[0] for k in range(m)]
    # vectorized complex products may round differently in the last bit
    tol = 0.0 if field == REAL else 1e-13
    np.testing.assert_allclose(evaluate_poly_many(c, expo, xs), one_v, rtol=tol, atol=tol)
    np.testing.assert_allclose(gradient_poly_many(c, expo, xs), one_g, rtol=tol, atol=tol)


@pytest.mark.parametrize("expo", [monomial_exponents(8, 2), monomial_exponents(6, 3)], ids=["d8n2", "d6n3"])
def test_shared_coefficients_match_one_point_calls(expo):
    # one (N,) coefficient vector for the whole batch, as poly.evaluate_many
    # and the grid oracle pass it: each real row is exactly its one-point value
    rng = np.random.default_rng(1)
    c = rng.standard_normal(len(expo))
    xs = rng.standard_normal((96, expo.shape[1]))
    np.testing.assert_array_equal(evaluate_poly_many(c, expo, xs), [evaluate_poly(c, expo, x) for x in xs])
    np.testing.assert_array_equal(gradient_poly_many(c, expo, xs), [gradient_poly(c, expo, x) for x in xs])


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
def test_fused_value_and_gradient_match_separate_kernels(field, shared):
    rng = np.random.default_rng(6)
    expo = monomial_exponents(5, 3)
    c = rng.standard_normal(len(expo) if shared else (20, len(expo)))
    xs = rng.standard_normal((20, 3))
    if field == COMPLEX:
        c = c + 1j * rng.standard_normal(c.shape)
        xs = xs + 1j * rng.standard_normal(xs.shape)
    v, g = value_and_gradient_poly_many(c, expo, xs)
    np.testing.assert_array_equal(v, evaluate_poly_many(c, expo, xs))
    np.testing.assert_array_equal(g, gradient_poly_many(c, expo, xs))


def _bytes(out):
    """The bytes of a kernel's result, values and gradients alike."""
    return b"".join(a.tobytes() for a in (out if isinstance(out, tuple) else (out,)))


def _slice(out, a, b):
    """Rows a to b of a kernel's result, values and gradients alike."""
    return tuple(x[a:b] for x in out) if isinstance(out, tuple) else out[a:b]


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_grouped_points_match_repeated_coefficient_rows(field):
    # R coefficient rows for m points give row k the run of points
    # k g ... k g + g - 1, g = m / R: the same products and sums as the row
    # repeated g times, for values and gradients alike
    rng = np.random.default_rng(12)
    expo = monomial_exponents(5, 3)
    starts, g = 11, 6
    c = rng.standard_normal((starts, len(expo)))
    xs = rng.standard_normal((starts * g, 3))
    if field == COMPLEX:
        c = c + 1j * rng.standard_normal(c.shape)
        xs = xs + 1j * rng.standard_normal(xs.shape)
    repeated = np.repeat(c, g, axis=0)
    for call in (evaluate_poly_many, gradient_poly_many, value_and_gradient_poly_many):
        assert _bytes(call(c, expo, xs)) == _bytes(call(repeated, expo, xs))
        # 3 rows for 6 points
        assert _bytes(call(c[:3], expo, xs[:6])) == _bytes(call(np.repeat(c[:3], 2, axis=0), expo, xs[:6]))
        # one row serves every point, like the shared coefficient vector
        assert _bytes(call(c[:1], expo, xs)) == _bytes(call(c[0], expo, xs))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_strided_coefficients_match_contiguous_ones(field):
    # a shared vector taken as a column of a matrix, and a matrix of rows
    # taken every other column, give the bytes of their contiguous copies
    rng = np.random.default_rng(16)
    expo = monomial_exponents(4, 3)
    table = _random_points(rng, field, (len(expo), 6))
    xs = _random_points(rng, field, (6, 3))
    for c in (table[:, 1], table.T[::2]):
        assert not c.flags.c_contiguous
        for call in (evaluate_poly_many, gradient_poly_many, value_and_gradient_poly_many):
            assert _bytes(call(c, expo, xs)) == _bytes(call(c.copy(), expo, xs))


def _passes(monkeypatch):
    """The point counts of the kernel passes of the calls that follow: the
    whole call first, then its passes if it ran in more than one."""
    seen, sums = [], _kernels._monomial_sums

    def counted(c, e, xs, *rest):
        seen.append(len(xs))
        return sums(c, e, xs, *rest)

    monkeypatch.setattr(_kernels, "_monomial_sums", counted)
    return seen


@pytest.mark.parametrize(
    "field, shared, m, passes",
    [
        (REAL, True, 2000, [1040, 960]),
        (COMPLEX, True, 2000, [520] * 3 + [440]),
        (REAL, False, 2000, [1040, 960]),
        (COMPLEX, False, 2000, [520] * 3 + [440]),
        (REAL, True, 2003, [1040, 963]),
    ],
    ids=["shared-real", "shared-complex", "per-row-real", "per-row-complex", "shared-real-prime"],
)
def test_gradient_calls_over_512_kib_run_in_passes(monkeypatch, field, shared, m, passes):
    # 2000 gradients of a sextic in 3 variables hold (21, 2000, 3) products
    # of the 21 quintic monomials with their derivative matrices: passes of
    # 512 KiB of them, 1040 real or 520 complex points each; a shared vector
    # is one run of all the points, cut into passes of that many whatever
    # its length (2003 is prime), which share the derivative matrices of its
    # one row, built once.  Every row is exactly what a call over its pass
    # alone returns
    rng = np.random.default_rng(8)
    expo = monomial_exponents(6, 3)
    c = rng.standard_normal(len(expo) if shared else (m, len(expo)))
    xs = rng.standard_normal((m, 3))
    if field == COMPLEX:
        c = c + 1j * rng.standard_normal(c.shape)
        xs = xs + 1j * rng.standard_normal(xs.shape)
    built, derivative_matrix = [], _kernels._derivative_matrix

    def counted(rows, index):
        built.append(len(rows))
        return derivative_matrix(rows, index)

    monkeypatch.setattr(_kernels, "_derivative_matrix", counted)
    seen = _passes(monkeypatch)
    v, g = value_and_gradient_poly_many(c, expo, xs)
    assert seen == [m] + passes
    assert built == ([1] if shared else passes)
    monkeypatch.undo()
    a = 0
    for rows in passes:
        b = slice(a, a + rows)
        vb, gb = value_and_gradient_poly_many(c if shared else c[b], expo, xs[b])
        assert v[b].tobytes() == vb.tobytes() and g[b].tobytes() == gb.tobytes()
        a += rows
    if field == REAL:  # real rows do not depend on the batch at all
        for k in (0, 1039, 1040, m - 1):
            vk, gk = value_and_gradient_poly_many(c if shared else c[k : k + 1], expo, xs[k : k + 1])
            assert v[k] == vk[0] and g[k].tobytes() == gk[0].tobytes()


@pytest.mark.parametrize(
    "field, passes, one_row",
    [
        (REAL, ([2340, 2340, 120], [1038] * 4 + [648]), ([2340, 2340, 120], [1040] * 4 + [640])),
        (COMPLEX, ([1170] * 4 + [120], [516] * 9 + [156]), ([1170] * 4 + [120], [520] * 9 + [120])),
    ],
    ids=["real", "complex"],
)
def test_grouped_evaluations_run_in_passes_of_whole_runs(monkeypatch, field, passes, one_row):
    # 800 coefficient rows, each serving a run of 6 points: a pass takes
    # whole runs, its coefficient rows with them (fewer of them for the
    # fused kernel, whose derivative terms are 63 per point); one row is one
    # run of 4800 points, cut into passes of as many points as fit, and an
    # (N,) vector is that one row
    rng = np.random.default_rng(9)
    expo = monomial_exponents(6, 3)
    runs, g = 800, 6
    c = rng.standard_normal((runs, len(expo)))
    xs = rng.standard_normal((runs * g, 3))
    if field == COMPLEX:
        c = c + 1j * rng.standard_normal(c.shape)
        xs = xs + 1j * rng.standard_normal(xs.shape)
    for call, want, cut in zip((evaluate_poly_many, value_and_gradient_poly_many), passes, one_row):
        seen = _passes(monkeypatch)
        out = call(c, expo, xs)
        assert seen == [runs * g] + want
        seen.clear()
        row = call(c[:1], expo, xs)
        assert seen == [runs * g] + cut
        seen.clear()
        assert _bytes(call(c[0], expo, xs)) == _bytes(row) and seen == [runs * g] + cut
        monkeypatch.undo()
        if field == REAL:
            assert _bytes(row) == _bytes(call(np.repeat(c[:1], runs * g, axis=0), expo, xs))
        a = 0
        for rows in want:
            part = call(c[a // g : (a + rows) // g], expo, xs[a : a + rows])
            assert _bytes(_slice(out, a, a + rows)) == _bytes(part)
            a += rows
        if field == REAL:
            assert _bytes(out) == _bytes(call(np.repeat(c, g, axis=0), expo, xs))


@pytest.mark.parametrize("call", [evaluate_poly_many, value_and_gradient_poly_many])
def test_large_batches_keep_kernel_memory_bounded(call):
    # 512 points of a quintic in 10 variables (N = 2002), one coefficient row
    # each, one shared vector or one (1, N) row: one pass would hold (N, 512)
    # monomials of 7.8 MiB, (10, N, 512) gradient terms of 78 MiB; passes of
    # 512 KiB keep the peak under 4 MiB
    rng = np.random.default_rng(15)
    expo = monomial_exponents(5, 10)
    xs = rng.standard_normal((512, 10))
    for shape in ((512, len(expo)), len(expo), (1, len(expo))):
        c = rng.standard_normal(shape)
        tracemalloc.start()
        try:
            call(c, expo, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


@pytest.mark.parametrize(
    "call, rows",
    [
        (gradient_poly_many, 4),
        (gradient_poly_many, 0),
        (value_and_gradient_poly_many, 4),
        (gradient_poly_many, 7),
        (evaluate_poly_many, 4),
        (evaluate_poly_many, 7),
        (evaluate_poly_many, 0),
    ],
    ids=["grad-not-dividing", "grad-none", "fused-not-dividing", "grad-more", "eval-not-dividing", "eval-more", "eval-none"],
)
def test_coefficient_rows_that_do_not_fit_the_points_are_refused(call, rows):
    # R coefficient rows serve m points when R >= 1 divides m, for values and
    # gradients alike
    rng = np.random.default_rng(14)
    expo = monomial_exponents(4, 3)
    c = rng.standard_normal((rows, len(expo)))
    xs = rng.standard_normal((6, 3))
    with pytest.raises(ValueError, match=f"^{rows} coefficient rows for 6 points$"):
        call(c, expo, xs)


@pytest.mark.parametrize(
    "call, rows",
    [(gradient_poly_many, 3), (value_and_gradient_poly_many, 3), (gradient_poly_many, 1)],
    ids=["grad-fewer", "fused-fewer", "grad-one-row"],
)
def test_coefficient_rows_that_divide_the_points_are_accepted(call, rows):
    # fewer rows than points, a gradient's or a fused call's, serve runs of
    # 6 / rows points: the bytes of the rows repeated
    rng = np.random.default_rng(14)
    expo = monomial_exponents(4, 3)
    c = rng.standard_normal((rows, len(expo)))
    xs = rng.standard_normal((6, 3))
    assert _bytes(call(c, expo, xs)) == _bytes(call(np.repeat(c, 6 // rows, axis=0), expo, xs))


def _random_points(rng, field, shape):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if field == COMPLEX else x


def _reference_gradient(c, expo, x):
    """df/dx_i = sum_a c_a a_i x^(a - e_i) at one point, each term a product
    of powers of its own, and the sum of the terms' moduli per variable."""
    grad, scale = np.zeros(len(x), dtype=np.result_type(c, x)), np.zeros(len(x))
    for i in range(len(x)):
        has = expo[:, i] > 0
        low = expo[has].copy()
        low[:, i] -= 1
        terms = c[has] * expo[has, i] * np.prod(x**low, axis=1)
        grad[i], scale[i] = terms.sum(), np.abs(terms).sum()
    return grad, scale


# d = 3: 20 points of 210 quadratic monomials times 20 derivative columns,
# 15 real or 7 complex points per pass; d = 5: more than 512 KiB of them for
# one point, so each point is a pass of its own
_LARGE_N = [(3, 20), (5, 2)]


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("d, m", _LARGE_N, ids=["d3n20", "d5n20"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
def test_large_n_rows_match_one_row_calls(monkeypatch, field, d, m, shared):
    rng = np.random.default_rng(30 + d)
    expo = monomial_exponents(d, 20)
    c = _random_points(rng, field, len(expo) if shared else (m, len(expo)))
    xs = _random_points(rng, field, (m, 20))
    seen = _passes(monkeypatch)
    v, g = value_and_gradient_poly_many(c, expo, xs)
    assert seen[0] == m and len(seen) >= 3  # the call and two passes or more
    monkeypatch.undo()
    assert v.tobytes() == evaluate_poly_many(c, expo, xs).tobytes()
    for k in range(m):
        ck = c if shared else c[k : k + 1]
        vk, gk = value_and_gradient_poly_many(ck, expo, xs[k : k + 1])
        assert v[k] == vk[0] and g[k].tobytes() == gk[0].tobytes()


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("d", [3, 5])
def test_large_n_gradient_matches_the_per_monomial_sum(field, d):
    rng = np.random.default_rng(40 + d)
    expo = monomial_exponents(d, 20)
    c = _random_points(rng, field, (2, len(expo)))
    xs = _random_points(rng, field, (2, 20))
    g = gradient_poly_many(c, expo, xs)
    for k in range(2):
        want, scale = _reference_gradient(c[k], expo, xs[k])
        assert (np.abs(g[k] - want) <= 1e-13 * scale).all()


@pytest.mark.parametrize("d", [3, 5])
def test_large_n_complex_gradient_is_the_holomorphic_derivative(d):
    # f(x + h e_j) and f(x + i h e_j) both change by the same complex g_j:
    # central differences along the real and the imaginary axis agree with it
    rng = np.random.default_rng(50 + d)
    expo = monomial_exponents(d, 20)
    c = _random_points(rng, COMPLEX, len(expo))
    x = _random_points(rng, COMPLEX, 20) / np.sqrt(20)
    g = gradient_poly(c, expo, x)
    h, eye = 1e-5, np.eye(20)
    for step in (h, 1j * h):
        ends = evaluate_poly_many(c, expo, np.concatenate((x + step * eye, x - step * eye)))
        diff = (ends[:20] - ends[20:]) / (2 * step)
        np.testing.assert_allclose(diff, g, rtol=1e-7, atol=1e-7 * np.abs(g).max())


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_degree_zero_has_no_lowered_monomials_and_a_zero_gradient(field):
    expo = monomial_exponents(0, 3)
    _, factors, size, blocks, _ = _kernels._factor_index(expo, 3)
    assert factors.shape[1] == size == 1 and blocks == ()
    rng = np.random.default_rng(60)
    c = _random_points(rng, field, 1)
    xs = _random_points(rng, field, (4, 3))
    for coeffs in (c, np.repeat(c[np.newaxis], 4, axis=0)):
        v, g = value_and_gradient_poly_many(coeffs, expo, xs)
        assert (v == c[0]).all()
        assert g.shape == (4, 3) and (g == 0).all()


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_degree_one_gradient_is_the_coefficients(field):
    rng = np.random.default_rng(61)
    expo = monomial_exponents(1, 4)  # the rows of the identity
    c = _random_points(rng, field, (5, 4))
    xs = _random_points(rng, field, (5, 4))
    np.testing.assert_array_equal(gradient_poly_many(c, expo, xs), c)
    np.testing.assert_array_equal(gradient_poly_many(c[0], expo, xs), np.repeat(c[:1], 5, axis=0))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_zero_points_give_empty_results(field):
    rng = np.random.default_rng(62)
    expo = monomial_exponents(3, 3)
    xs = _random_points(rng, field, (0, 3))
    for c in (_random_points(rng, field, len(expo)), _random_points(rng, field, (0, len(expo)))):
        v, g = value_and_gradient_poly_many(c, expo, xs)
        assert v.shape == (0,) and g.shape == (0, 3)
        assert evaluate_poly_many(c, expo, xs).shape == (0,)
        assert gradient_poly_many(c, expo, xs).shape == (0, 3)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_degree_zero_block_of_a_multi_form_has_a_zero_gradient(field):
    # F(x, y) = q(y), of degree 0 in x: the x block's partials are 0 and the
    # y block's are q's
    rng = np.random.default_rng(63)
    F = MultiHomogPoly((2, 3), (0, 2), _random_points(rng, field, 6), field)
    xs = _random_points(rng, field, (4, 5))
    g = gradient_poly_many(F.coeffs, F.exponents, xs)
    assert (g[:, :2] == 0).all()
    q = monomial_exponents(2, 3)
    np.testing.assert_allclose(g[:, 2:], gradient_poly_many(F.coeffs, q, xs[:, 2:]), rtol=1e-15, atol=0)


def _tensor_by_entry_loop(f):
    """The symmetric tensor of a form one entry at a time: t_idx = f_a /
    binom(d, a), a the exponents that idx counts."""
    n, d = f.ns[0], f.ds[0]
    weights, where = multinomial_weights(d, n), monomial_index(d, n)
    data = np.empty((n,) * d, dtype=f.coeffs.dtype)
    for idx in product(range(n), repeat=d):
        i = where[tuple(np.bincount(np.array(idx, dtype=np.intp), minlength=n))]
        data[idx] = f.coeffs[i] / weights[i]
    return Tensor(data, f.field)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_symmetric_tensor_matches_the_entry_loop(field):
    rng = np.random.default_rng(64)
    for d in range(5):
        for n in range(1, 5):
            size = num_monomials(d, n)
            coeffs = _random_points(rng, field, size) * 10.0 ** rng.uniform(-3, 3, size)
            f = HomogPoly(n, d, coeffs, field)
            got, want = symmetric_tensor_from_poly(f).data, _tensor_by_entry_loop(f).data
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (d, n)


def test_one_point_calls_reuse_the_index_of_their_table(monkeypatch):
    # the index of an exponent table is built on the first call and kept for
    # the calls that follow; another table gets its own
    built, factor_index = [], _kernels._factor_index

    def counted(*args):
        built.append(args)
        return factor_index(*args)

    monkeypatch.setattr(_kernels, "_factor_index", counted)
    _kernels._index_of.cache_clear()
    expo = monomial_exponents(4, 3)
    c, x = np.arange(1.0, 1.0 + len(expo)), np.array([0.5, -1.0, 2.0])
    for table in (expo, expo.copy(), expo[::-1].copy()):
        for _ in range(2):
            evaluate_poly(c, table, x)
            gradient_poly(c, table, x)
    assert len(built) == 2


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: bw_inner(HomogPoly(2, 2, np.ones(3), REAL), HomogPoly(3, 2, np.ones(6), REAL)), ShapeError),
        (lambda: bw_inner(HomogPoly(2, 2, np.ones(3), REAL), HomogPoly(2, 2, np.ones(3), COMPLEX)), FieldError),
        (lambda: poly_from_symmetric_tensor(Tensor(np.arange(4.0).reshape(2, 2), REAL)), SymmetryError),
    ],
    ids=["bw-inner-spaces", "bw-inner-fields", "non-symmetric-tensor"],
)
def test_refusals(call, error):
    with pytest.raises(error):
        call()
