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
    num_monomials,
    poly_from_coeff_dict,
    poly_from_symmetric_tensor,
    symmetric_tensor_from_poly,
)
from rankone.tensor import (
    COMPLEX,
    REAL,
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


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
def test_row_blocks_match_one_block_calls(monkeypatch, field, shared):
    # a call over more points than one row block holds runs block by block,
    # and each row is exactly what a call over its block alone returns
    rng = np.random.default_rng(8)
    expo = monomial_exponents(6, 3)
    m, rows = 53, _kernels._MIN_BLOCK_ROWS
    c = rng.standard_normal(len(expo) if shared else (m, len(expo)))
    xs = rng.standard_normal((m, 3))
    if field == COMPLEX:
        c = c + 1j * rng.standard_normal(c.shape)
        xs = xs + 1j * rng.standard_normal(xs.shape)
    one_pass = value_and_gradient_poly_many(c, expo, xs)
    blocks, block_sums = [], _kernels._block_sums

    def counted(c, e, xs, *rest):
        blocks.append(len(xs))
        return block_sums(c, e, xs, *rest)

    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 1)  # blocks of _MIN_BLOCK_ROWS rows
    monkeypatch.setattr(_kernels, "_block_sums", counted)
    v, g = value_and_gradient_poly_many(c, expo, xs)
    assert blocks == [16, 16, 16, 5]
    for a in range(0, m, rows):
        b = slice(a, a + rows)
        vb, gb = value_and_gradient_poly_many(c if shared else c[b], expo, xs[b])
        np.testing.assert_array_equal(v[b], vb)
        np.testing.assert_array_equal(g[b], gb)
    np.testing.assert_array_equal(evaluate_poly_many(c, expo, xs), v)
    if field == REAL:  # real rows do not depend on the batch at all
        np.testing.assert_array_equal(v, one_pass[0])
        np.testing.assert_array_equal(g, one_pass[1])


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("blocks", [False, True], ids=["one-block", "row-blocks"])
def test_grouped_points_match_repeated_coefficient_rows(monkeypatch, field, blocks):
    # with group g, coefficient row k serves points k g ... k g + g - 1: the
    # same products and sums as the row repeated g times, also when the
    # evaluation runs in row blocks (of 16 rows, cut to a multiple of g)
    rng = np.random.default_rng(12)
    expo = monomial_exponents(5, 3)
    starts, g = 11, 6
    c = rng.standard_normal((starts, len(expo)))
    xs = rng.standard_normal((starts * g, 3))
    if field == COMPLEX:
        c = c + 1j * rng.standard_normal(c.shape)
        xs = xs + 1j * rng.standard_normal(xs.shape)
    if blocks:
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 1)
    repeated = np.repeat(c, g, axis=0)
    v = evaluate_poly_many(c, expo, xs, group=g)
    assert v.tobytes() == evaluate_poly_many(repeated, expo, xs).tobytes()
    # a shared coefficient vector ignores the grouping
    shared = evaluate_poly_many(c[0], expo, xs, group=g)
    assert shared.tobytes() == evaluate_poly_many(c[0], expo, xs).tobytes()


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_evaluation_row_blocks_match_the_one_pass_call(monkeypatch, field):
    # an evaluation sizes its row blocks on its (N, rows) monomials, not on
    # a gradient's (n, N, rows) terms: 200 rows of a 28-monomial cubic are
    # one pass (a gradient takes 2 or 3 blocks), and 13 blocks when the
    # budget is cut; every row is the same
    rng = np.random.default_rng(13)
    expo = monomial_exponents(6, 3)
    c = rng.standard_normal((200, len(expo)))
    xs = rng.standard_normal((200, 3))
    if field == COMPLEX:
        c = c + 1j * rng.standard_normal(c.shape)
        xs = xs + 1j * rng.standard_normal(xs.shape)
    blocks, block_sums = [], _kernels._block_sums

    def counted(c, e, xs, *rest):
        blocks.append(len(xs))
        return block_sums(c, e, xs, *rest)

    monkeypatch.setattr(_kernels, "_block_sums", counted)
    one_pass = evaluate_poly_many(c, expo, xs)
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 1)
    v = evaluate_poly_many(c, expo, xs)
    assert blocks == [200] + [16] * 12 + [8]
    if field == REAL:
        assert v.tobytes() == one_pass.tobytes()
    else:  # vectorized complex products may round differently in the last bit
        np.testing.assert_allclose(v, one_pass, rtol=1e-13, atol=0)
    parts = [evaluate_poly_many(c[a : a + 16], expo, xs[a : a + 16]) for a in range(0, 200, 16)]
    assert v.tobytes() == np.concatenate(parts).tobytes()
