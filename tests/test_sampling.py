import math
from functools import reduce

import numpy as np
import pytest

from rankone.harmonic import harmonic_basis, harmonic_dimension
from rankone.poly import bw_norm, laplacian, multinomial, num_monomials
from rankone.sampling import (
    DomainError,
    SeedSpec,
    gaussian_harmonic,
    gaussian_multi_harmonic,
    gaussian_tensor,
    kostlan_form,
    kostlan_multi,
    projection_ratio_sample,
    uniform_sphere,
)
from rankone.tensor import COMPLEX, REAL, frobenius_norm


def test_gaussian_tensor_determinism():
    a = gaussian_tensor((2, 3), REAL, 7, index=5)
    b = gaussian_tensor((2, 3), REAL, 7, index=5)
    np.testing.assert_array_equal(a.data, b.data)
    c = gaussian_tensor((2, 3), REAL, 7, index=6)
    assert not np.array_equal(a.data, c.data)


def test_gaussian_tensor_moments():
    vals = [frobenius_norm(gaussian_tensor((2, 2, 2), REAL, 1, i)) ** 2 for i in range(3000)]
    assert np.mean(vals) == pytest.approx(8.0, rel=0.05)
    cv = [gaussian_tensor((4,), COMPLEX, 2, i).data for i in range(3000)]
    cv = np.concatenate(cv)
    assert np.mean(np.abs(cv) ** 2) == pytest.approx(1.0, rel=0.05)
    # real and imaginary parts each have variance 1/2
    assert np.var(cv.real) == pytest.approx(0.5, rel=0.05)
    assert np.var(cv.imag) == pytest.approx(0.5, rel=0.05)


def test_kostlan_bw_norm_expectation():
    # E |f|^2 = binom(d+n-1, d) = 4 for d=3, n=2
    vals = [bw_norm(kostlan_form(3, 2, REAL, 3, i)) ** 2 for i in range(4000)]
    assert np.mean(vals) == pytest.approx(4.0, rel=0.05)
    # chi-squared with N degrees of freedom: variance 2N
    assert np.var(vals) == pytest.approx(8.0, rel=0.15)


def test_kostlan_coefficient_variance():
    # coefficient at (1,1,1), d=3, n=3 has variance binom = 6
    coefs = [
        kostlan_form(3, 3, REAL, 4, i).coefficient((1, 1, 1)) for i in range(4000)
    ]
    assert np.var(coefs) == pytest.approx(6.0, rel=0.1)
    assert multinomial(3, (1, 1, 1)) == 6


def test_kostlan_multi_norm_expectation():
    n_mon = math.comb(3, 2) * math.comb(4, 3)
    vals = [
        bw_norm(kostlan_multi((2, 3), (2, 2), REAL, 5, i)) ** 2 for i in range(2000)
    ]
    assert np.mean(vals) == pytest.approx(n_mon, rel=0.07)


def test_gaussian_harmonic_properties():
    dim = harmonic_dimension(4, 3)
    vals = []
    for i in range(1500):
        h = gaussian_harmonic(4, 3, 6, i)
        vals.append(bw_norm(h) ** 2)
        if i < 50:
            assert np.linalg.norm(laplacian(h).coeffs) < 1e-9
    assert np.mean(vals) == pytest.approx(dim, rel=0.07)


def test_gaussian_multi_harmonic():
    dims = harmonic_dimension(2, 2) * harmonic_dimension(2, 3)
    vals = [
        bw_norm(gaussian_multi_harmonic((2, 2), (2, 3), 7, i)) ** 2
        for i in range(2000)
    ]
    assert np.mean(vals) == pytest.approx(dims, rel=0.07)


def test_gaussian_multi_harmonic_is_the_kronecker_product():
    # the sampler applies each block's basis along its own axis; the product
    # basis it stands for is the Kronecker product of the blocks' matrices
    for ds, ns in [((2, 3), (2, 2)), ((1, 2, 3), (3, 2, 2)), ((3, 3), (4, 3))]:
        full = reduce(np.kron, [harmonic_basis(d, n).coeff_matrix for d, n in zip(ds, ns)])
        expected = full @ SeedSpec(5, "multi_harmonic").rng(3).standard_normal(full.shape[1])
        got = gaussian_multi_harmonic(ds, ns, 5, 3).coeffs
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


def test_uniform_sphere():
    for field, dim in [(REAL, 5), (COMPLEX, 5)]:
        xs = np.array([uniform_sphere(dim, field, 8, i) for i in range(2000)])
        np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, atol=1e-14)
        assert np.max(np.abs(np.mean(xs.real, axis=0))) < 3.0 / math.sqrt(2000 * dim)
    xs = np.array([uniform_sphere(4, REAL, 9, i) for i in range(3000)])
    assert np.mean(xs[:, 0] ** 2) == pytest.approx(0.25, rel=0.1)
    with pytest.raises(DomainError):
        uniform_sphere(0, REAL, 1)


def test_tensor_over_the_entry_budget_is_refused():
    from rankone import experiments

    # 1,001,000 entries: one row over the budget of 10**6
    with pytest.raises(DomainError, match="over the tensor budget of 1000000"):
        gaussian_tensor((1001, 1000), REAL, 1)
    with pytest.raises(DomainError, match="over the tensor budget of 1000000"):
        experiments._draw("rank_one", {"shape": (1001, 1000), "field": REAL}, 1, 0)
    assert gaussian_tensor((1000, 1000), REAL, 1).data.size == 10**6


def test_one_domain_error_class():
    import rankone.bounds
    import rankone.harmonic

    assert DomainError is rankone.bounds.DomainError is rankone.harmonic.DomainError
    with pytest.raises(rankone.bounds.DomainError, match="invalid"):
        kostlan_form(-1, 2, REAL, 1)


def test_projection_ratio_basics():
    assert projection_ratio_sample(7, 7, 1) == 1.0
    with pytest.raises(DomainError):
        projection_ratio_sample(3, 5, 1)
    vals = np.array([projection_ratio_sample(10, 3, 2, i) for i in range(20000)])
    assert np.all((vals > 0) & (vals <= 1))
    assert np.mean(vals**2) == pytest.approx(0.3, rel=0.02)


def test_projection_ratio_gamma_path():
    # k > 64 goes through the Gamma sampler
    vals = np.array([projection_ratio_sample(200, 100, 3, i) for i in range(5000)])
    assert np.mean(vals**2) == pytest.approx(0.5, rel=0.03)


def test_purpose_tags_give_independent_streams():
    a = SeedSpec(11, "alpha").rng(0).standard_normal(1000)
    b = SeedSpec(11, "beta").rng(0).standard_normal(1000)
    assert not np.array_equal(a, b)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(1000)


def test_seedspec_matches_plain_int_seed():
    t1 = gaussian_tensor((2, 2), REAL, 13, 4)
    t2 = gaussian_tensor((2, 2), REAL, SeedSpec(13, "gaussian_tensor"), 4)
    np.testing.assert_array_equal(t1.data, t2.data)


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False, -1, np.int64(-3)], ids=repr)
def test_bad_seeds_and_indices_are_refused(bad):
    # refused with one message, never truncated to another seed's draw
    with pytest.raises(DomainError, match=r"^need integer seeds >= 0, got "):
        SeedSpec(bad)
    with pytest.raises(DomainError, match=r"^need integer seeds >= 0, got "):
        kostlan_form(4, 2, REAL, bad)
    with pytest.raises(DomainError, match=r"^need integer indices >= 0, got "):
        SeedSpec(1).rng(bad)
    with pytest.raises(DomainError, match=r"^need integer indices >= 0, got "):
        kostlan_form(4, 2, REAL, 1, index=bad)


def test_numpy_integer_seeds_and_indices_are_accepted():
    want = kostlan_form(4, 2, REAL, 7, index=3).coeffs
    got = kostlan_form(4, 2, REAL, np.int64(7), index=np.uint32(3)).coeffs
    assert got.tobytes() == want.tobytes()


# coefficients of gaussian_harmonic(6, 3, 5, 0), pinned when the harmonic basis
# came from scipy's null space; numpy's SVD must keep the draw bit-identical
HARMONIC_6_3_5_0 = [
    -0.1824284686782105,
    -1.9674578422884434,
    0.8911588790290007,
    1.025157591165108,
    2.809411207509007,
    1.7112694390080496,
    5.355752183586208,
    -0.36064284884090636,
    3.6073218721258185,
    -2.8503153138163686,
    -1.8392414312374534,
    3.199697217458124,
    4.884503040434073,
    -8.818519632476137,
    -2.5253532790803948,
    -2.0996644698258606,
    -4.668415002479529,
    4.929388147499961,
    9.697472853799963,
    -4.268355009812891,
    -0.11465269123508626,
    0.02405534402057109,
    -0.9310028554834103,
    1.4784112709288952,
    2.0367771124586618,
    -2.2924951110012404,
    0.270818829510015,
    0.32118989267210885,
]


def test_gaussian_harmonic_pinned():
    assert gaussian_harmonic(6, 3, 5, 0).coeffs.tolist() == HARMONIC_6_3_5_0


@pytest.mark.parametrize(
    "call",
    [
        lambda: kostlan_form(2, 2, "quaternion", 1),
        lambda: kostlan_form(2, 0, REAL, 1),
        lambda: gaussian_tensor((2, 0), REAL, 1),
        lambda: kostlan_multi((1, 2), (2,), REAL, 1),
        lambda: gaussian_multi_harmonic((1, 2), (2,), 1),
    ],
    ids=["unknown-field", "no-variables", "zero-length-axis", "kostlan-multi-blocks", "multi-harmonic-blocks"],
)
def test_domain_refusals(call):
    with pytest.raises(DomainError):
        call()
