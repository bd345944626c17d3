import numpy as np
import pytest

from rankone.poly import MultiHomogPoly, multi_from_single, poly_from_coeff_dict
from rankone.sampling import gaussian_tensor, kostlan_form, kostlan_multi, uniform_sphere
from rankone.spectral import (
    BudgetError,
    MaximizerConfig,
    approx_error,
    brute_force_uniform_norm,
    ratio,
    spectral_norm_general,
    spectral_norm_symmetric,
    spectral_value,
    sphere_grid,
    total_norm,
    _pga_sphere,
    _realified_objective,
    uniform_norm_multi,
)
from rankone.tensor import COMPLEX, REAL, Tensor, UnitVectorTuple, rank_one

CFG = MaximizerConfig(starts=8, max_iters=500, seed=0)


def test_matrix_spectral_norm_is_top_singular_value():
    rng = np.random.default_rng(0)
    for field in (REAL, COMPLEX):
        a = rng.standard_normal((4, 3))
        if field == COMPLEX:
            a = a + 1j * rng.standard_normal((4, 3))
        t = Tensor(a, field)
        res = spectral_norm_general(t, CFG)
        assert res.value == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-9)
        assert res.converged


def test_identity_matrix_ratio():
    for n in range(2, 8):
        t = Tensor(np.eye(n), REAL)
        assert ratio(t, CFG) == pytest.approx(1.0 / np.sqrt(n), abs=1e-10)


def test_rank_one_tensor_ratio_is_one():
    rng = np.random.default_rng(1)
    for shape in [(2, 2, 2), (3, 2, 4), (2, 2, 2, 2)]:
        vs = [rng.standard_normal(n) for n in shape]
        xs = UnitVectorTuple(tuple(v / np.linalg.norm(v) for v in vs), REAL)
        t = rank_one(2.0, xs)
        assert ratio(t, CFG) == pytest.approx(1.0, abs=1e-10)
        assert approx_error(t, CFG) == pytest.approx(0.0, abs=1e-5)


def test_general_matches_brute_force():
    t = gaussian_tensor((2, 2, 2), REAL, 42)
    res = spectral_norm_general(t, CFG)
    grid = brute_force_uniform_norm(t, 80)
    assert res.value >= grid - 1e-6
    assert res.value <= grid + 0.01  # fine grid nearly attains the max


def test_general_complex_matches_brute_force():
    t = gaussian_tensor((2, 2, 2), COMPLEX, 43)
    res = spectral_norm_general(t, CFG)
    grid = brute_force_uniform_norm(t, 8)
    assert res.value >= grid - 1e-9


def test_monomial_symmetric_norms():
    # ||x^d||_inf = 1
    f = poly_from_coeff_dict(2, 5, {(5, 0): 1.0})
    assert spectral_norm_symmetric(f, CFG).value == pytest.approx(1.0, abs=1e-9)
    # ||x^2 y||_inf attained at x = sqrt(2/3): value 2/(3 sqrt 3)
    g = poly_from_coeff_dict(2, 3, {(2, 1): 1.0})
    assert spectral_norm_symmetric(g, CFG).value == pytest.approx(
        2.0 / (3.0 * np.sqrt(3.0)), rel=1e-9
    )


def test_symmetric_matches_brute_force():
    f = kostlan_form(4, 2, REAL, 7)
    res = spectral_norm_symmetric(f, CFG)
    grid = brute_force_uniform_norm(f, 2000)
    assert res.value >= grid - 1e-6
    assert res.value <= grid + 1e-3


def test_symmetric_complex_field():
    f = kostlan_form(3, 2, COMPLEX, 8)
    res = spectral_norm_symmetric(f, CFG)
    grid = brute_force_uniform_norm(f, 40)
    assert res.value >= grid - 1e-9
    assert res.value <= grid * 1.05


def test_real_form_over_complex_field_at_least_real_value():
    f = kostlan_form(4, 2, REAL, 9)
    vr = spectral_norm_symmetric(f, CFG).value
    vc = spectral_norm_symmetric(f, CFG, over_field=COMPLEX).value
    assert vc >= vr - 1e-9


def test_multi_agrees_with_single_block():
    f = kostlan_form(4, 3, REAL, 10)
    F = multi_from_single(f)
    v1 = spectral_norm_symmetric(f, CFG).value
    v2 = uniform_norm_multi(F, CFG).value
    assert v2 == pytest.approx(v1, rel=1e-7)


def test_multi_matches_brute_force():
    F = kostlan_multi((2, 2), (2, 2), REAL, 11)
    res = uniform_norm_multi(F, CFG)
    grid = brute_force_uniform_norm(F, 200)
    assert res.value >= grid - 1e-6
    assert res.value <= grid + 1e-2


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 3, 4)])
def test_multi_matches_alternating_on_general_tensors(shape, field):
    # a general tensor is the multilinear form with one degree-1 block per
    # mode, so the sphere-product ascent must reach the alternating maximum
    t = gaussian_tensor(shape, field, 12)
    F = MultiHomogPoly(shape, (1,) * len(shape), t.data.ravel(), field)
    expected = spectral_norm_general(t, CFG).value
    assert uniform_norm_multi(F, CFG).value == pytest.approx(expected, rel=1e-7)


def test_ratio_bounded_by_one():
    for seed in range(5):
        t = gaussian_tensor((3, 3, 3), REAL, seed)
        r = ratio(t, CFG)
        assert 0.0 < r <= 1.0 + 1e-12


def test_sphere_grid_contents():
    g1 = sphere_grid(1, 10)
    assert sorted(g1.ravel()) == [-1.0, 1.0]
    g2 = sphere_grid(2, 8)
    np.testing.assert_allclose(np.linalg.norm(g2, axis=1), 1.0, atol=1e-12)
    g3 = sphere_grid(3, 6)
    np.testing.assert_allclose(np.linalg.norm(g3, axis=1), 1.0, atol=1e-12)


def test_grid_budget_error():
    t = gaussian_tensor((2, 2, 2, 2, 2), REAL, 1)
    with pytest.raises(BudgetError):
        brute_force_uniform_norm(t, 10**4)


def test_zero_tensor_rejected():
    from rankone.spectral import ZeroInputError

    with pytest.raises(ZeroInputError):
        spectral_norm_general(Tensor(np.zeros((2, 2, 2)), REAL), CFG)


def test_deterministic_given_seed():
    t = gaussian_tensor((3, 3, 3), REAL, 5)
    r1 = spectral_norm_general(t, CFG)
    r2 = spectral_norm_general(t, CFG)
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.maximizer[0], r2.maximizer[0])



@pytest.mark.parametrize(
    "form",
    [
        kostlan_form(6, 3, REAL, 13),
        kostlan_form(5, 2, COMPLEX, 14),
        kostlan_multi((2, 3), (2, 3), REAL, 15),
    ],
    ids=["real", "complex", "multi"],
)
def test_lockstep_starts_match_single_runs(form):
    # every start of a lockstep batch must end exactly where it ends alone
    ns = form.ns if isinstance(form, MultiHomogPoly) else (form.n,)
    blocks, value, grad, _ = _realified_objective(form.coeffs, form.exponents, ns, form.field)
    x0 = np.random.default_rng(3).standard_normal((9, blocks[-1].stop))
    for b in blocks:
        x0[:, b] /= np.linalg.norm(x0[:, b], axis=1)[:, np.newaxis]
    for max_iters in (500, 6):
        _, obj, iters, conv, _ = _pga_sphere(blocks, value, grad, x0, max_iters, 1e-12)
        for s in range(len(x0)):
            _, o1, i1, c1, _ = _pga_sphere(blocks, value, grad, x0[s : s + 1], max_iters, 1e-12)
            assert o1[0] == pytest.approx(obj[s], rel=1e-12)
            assert i1[0] == iters[s]
            assert c1[0] == conv[s]
        if max_iters == 500:  # the starts retire at different rounds
            assert conv.all() and len(set(iters.tolist())) > 1
        else:  # some starts are cut off unconverged
            assert not conv.all()
