import math

import numpy as np
import pytest

from rankone.bounds import (
    DomainError,
    binom_sandwich_half,
    binom_sandwich_whole,
    bounds_general,
    bounds_partially_symmetric,
    bounds_symmetric,
    bounds_symmetric_large_d,
    expectation_bound_general,
    gautschi_chain,
    io_jacobian_det,
    log_binom,
    log_binom_half,
    log_covering_constant,
    lower_bound_general,
    moment_series_constant,
    projection_moment,
    projection_tail_bound,
    scale_comparison_pair,
    subgaussian_expectation_bound,
    subgaussian_min_bound,
    subgaussian_moment_bound,
    subgaussian_tail_from_moments,
    tail_bound_gaussian_tensor,
    tail_bound_harmonic,
    tail_bound_kostlan,
    tail_bound_kostlan_multi,
    upper_bound_general,
)
from rankone.tensor import COMPLEX, REAL


def test_general_lower_oracle():
    assert lower_bound_general((2, 2, 2)) == pytest.approx(0.5)
    assert lower_bound_general((3, 3, 3)) == pytest.approx(1.0 / 3.0)
    # min over i of the product of the others: (2,3,4) -> sqrt(1/6)
    assert lower_bound_general((2, 3, 4)) == pytest.approx(1.0 / math.sqrt(6.0))


def test_general_upper_oracle():
    expected = 10.0 * math.sqrt(3.0 * math.log(3.0)) * 0.5
    assert upper_bound_general((2, 2, 2)) == pytest.approx(expected)
    with pytest.raises(DomainError):
        upper_bound_general((2, 2))


def test_general_expectation_oracle():
    d, n = 3, 2
    corr = 1.0 + 1.0 / math.log(3.0) + 2.0 / (3 + 6)
    expected = 9.0 * corr * math.sqrt(3 * math.log(3.0)) * 0.5
    assert expectation_bound_general((2, 2, 2)) == pytest.approx(expected)


def test_bound_set_orders_and_flags():
    b = bounds_general((2, 2, 2), REAL)
    assert b.lower <= b.upper
    assert b.vacuous  # small shapes give uninformative upper bounds
    assert "expectation_upper" in b.extras


def test_symmetric_oracle_d10_n2_real():
    b = bounds_symmetric(10, 2, REAL)
    # max(2^-5/sqrt(11), 2^-4.5) = 2^-4.5
    assert b.lower == pytest.approx(2.0**-4.5, rel=1e-12)
    expected_up = 6.0 * math.sqrt(2.0 * math.log(10.0)) * 2.0**-5
    assert b.upper == pytest.approx(expected_up, rel=1e-12)
    assert not b.vacuous


def test_symmetric_complex_oracle():
    b = bounds_symmetric(4, 3, COMPLEX)
    nb = math.comb(6, 4)
    assert b.lower == pytest.approx(max(nb**-0.5, 3.0**-1.5))
    assert b.upper == pytest.approx(10.0 * math.sqrt(3.0 * math.log(4.0)) / math.sqrt(nb))


def test_symmetric_matrix_case_exact():
    for field in (REAL, COMPLEX):
        b = bounds_symmetric(2, 7, field)
        assert b.lower == b.upper == pytest.approx(1.0 / math.sqrt(7.0))


def test_half_integer_binomial():
    # binom(d + n/2 - 1, d) with n = 2 is 1 for every d
    for d in (3, 5, 10):
        assert log_binom_half(d, 2) == pytest.approx(0.0, abs=1e-12)
    # n = 4: binom(d+1, d) = d+1
    assert math.exp(log_binom_half(6, 4)) == pytest.approx(7.0)
    # n = 3: Gamma(d + 3/2)/(Gamma(d+1) Gamma(3/2))
    from scipy.special import gamma

    expected = gamma(4.5) / (gamma(4.0) * gamma(1.5))
    assert math.exp(log_binom_half(3, 3)) == pytest.approx(expected)


def test_large_d_oracle_n3_d16():
    b = bounds_symmetric_large_d(16, 3, REAL)
    expected = math.sqrt(2.0 / (2.0**16 * 16.0**2)) * (1.0 - 9.0 / 64.0)
    assert b.lower == pytest.approx(expected, rel=1e-12)
    assert b.lower == pytest.approx(2.97e-4, rel=0.01)
    # comparable trivial bound 3^(-7.5)
    assert 3.0**-7.5 == pytest.approx(2.65e-4, rel=0.01)


def test_large_d_needs_degree():
    with pytest.raises(DomainError):
        bounds_symmetric_large_d(3, 8, REAL)


def test_partial_oracle_and_reduction():
    # single block reduces to the symmetric sandwich
    for field in (REAL, COMPLEX):
        bp = bounds_partially_symmetric((5,), (3,), field)
        bs = bounds_symmetric(5, 3, field)
        assert bp.lower == pytest.approx(bs.lower)
        assert bp.upper == pytest.approx(bs.upper)


def test_partial_two_block_oracle():
    b = bounds_partially_symmetric((2, 3), (2, 2), REAL)
    nb = math.comb(3, 2) * math.comb(4, 3)  # 3 * 4
    half = math.exp(log_binom_half(2, 2) + log_binom_half(3, 2))  # 1
    cov = max(2.0**-2.5 / math.sqrt(nb), math.sqrt(2.0 / (4.0 * 8.0)))
    assert b.lower == pytest.approx(cov)
    expected_up = 6.0 * math.sqrt(4.0 * math.log(6.0)) * 2.0**-2.5 / math.sqrt(half)
    assert b.upper == pytest.approx(expected_up)


def test_partial_rejects_small_degrees():
    with pytest.raises(DomainError):
        bounds_partially_symmetric((2, 2), (2, 2), REAL)
    with pytest.raises(DomainError):
        bounds_partially_symmetric((1, 3), (2, 2), REAL)


def test_covering_constant_anchor():
    exact, lower, upper = log_covering_constant(3, 3, (2, 2, 2))
    assert exact == pytest.approx(12.0 + 3.0 * math.log(9.0), abs=1e-9)
    assert exact == pytest.approx(18.592, abs=1e-3)
    assert lower - 1e-9 <= exact <= upper + 1e-9


def test_covering_constant_sandwich_randomized():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        L = float(rng.integers(1, 30))
        if d * L < 2:
            L = 2.0
        ns = tuple(int(rng.integers(2, 30)) for _ in range(d))
        exact, lower, upper = log_covering_constant(L, d, ns)
        assert lower - 1e-9 <= exact <= upper + 1e-9


def test_projection_tail_oracle():
    # N=10, k=3, t=0.9: 3 exp(-10*0.81/(3 e^2))
    expected = 3.0 * math.exp(-10.0 * 0.81 / (3.0 * math.e**2))
    assert projection_tail_bound(10, 3, 0.9) == pytest.approx(expected)
    assert projection_tail_bound(10, 3, 0.0) == pytest.approx(3.0)
    # complex doubles both parameters
    expected_c = 3.0 * math.exp(-20.0 * 0.81 / (3.0 * math.e**5))
    assert projection_tail_bound(10, 3, 0.9, COMPLEX) == pytest.approx(expected_c)
    with pytest.raises(DomainError):
        projection_tail_bound(3, 10, 0.5)


def test_projection_moment_oracle():
    # l = 2 gives exactly sqrt(k/N)
    for N, k in [(10, 3), (50, 7), (8, 8)]:
        assert projection_moment(N, k, 2) == pytest.approx(math.sqrt(k / N), rel=1e-12)
        assert projection_moment(N, k, 2, COMPLEX) == pytest.approx(
            math.sqrt(k / N), rel=1e-12
        )
    # l = 4, N=10, k=3: (k(k+2)/(N(N+2)))^(1/4)
    expected = (3.0 * 5.0 / (10.0 * 12.0)) ** 0.25
    assert projection_moment(10, 3, 4) == pytest.approx(expected, rel=1e-12)


def test_moment_series_constant():
    assert moment_series_constant() == pytest.approx(2.62509, abs=1e-4)


def test_subgaussian_conversions_at_hand_values():
    # C = e, K = 1
    assert subgaussian_moment_bound(math.e, 1.0, 4) == pytest.approx(
        (math.sqrt(math.pi / 2.0) + math.sqrt(2.0)) * 2.0
    )
    assert subgaussian_expectation_bound(math.e, 1.0) == pytest.approx(
        math.sqrt(2.0) * 2.0
    )
    assert subgaussian_min_bound(math.e, 1.0) == pytest.approx(1.0)
    assert subgaussian_tail_from_moments(1.0, 0.0) == pytest.approx(3.0)
    assert subgaussian_tail_from_moments(1.0, math.sqrt(6.0)) == pytest.approx(
        3.0 / math.e
    )
    with pytest.raises(DomainError):
        subgaussian_expectation_bound(1.0, 1.0)


def test_tail_models_rates():
    # kostlan real: rate = binom(d+n-1, d) / 12
    tb = tail_bound_kostlan(3, 2, REAL, 0.5)
    assert tb.rate == pytest.approx(4.0 / 12.0)
    exact, _, _ = log_covering_constant(3.0, 1, (2,))
    assert tb.ln_constant == pytest.approx(math.log(3.0) + exact)
    # harmonic: rate = 2^d binom(d+n/2-1, d) / 12, equal to 1/K^2 with
    # K = 2 sqrt(3) 2^(-d/2) binom^( -1/2)
    tb = tail_bound_harmonic(4, 3, 0.5)
    K = 2.0 * math.sqrt(3.0) * 2.0**-2 * math.exp(-0.5 * log_binom_half(4, 3))
    assert tb.rate == pytest.approx(1.0 / K**2)
    # gaussian tensor real (2,2,2): rate = 8/12
    tb = tail_bound_gaussian_tensor((2, 2, 2), REAL, 1.0)
    assert tb.rate == pytest.approx(8.0 / 12.0)
    exact, _, _ = log_covering_constant(1.0, 3, (2, 2, 2))
    assert tb.ln_constant == pytest.approx(math.log(3.0) + exact)
    # complex kostlan picks up e^{-1} and the factor k = 2
    tb = tail_bound_kostlan(3, 2, COMPLEX, 0.5)
    assert tb.rate == pytest.approx(2.0 * 4.0 / (12.0 * math.e))
    # one block of a partially symmetric form is a Kostlan form
    one_block = tail_bound_kostlan_multi((3,), (2,), COMPLEX, 0.5)
    assert one_block.rate == pytest.approx(tb.rate)
    assert one_block.ln_constant == pytest.approx(tb.ln_constant)
    # clipping
    tb = tail_bound_kostlan(3, 2, REAL, 0.0)
    assert tb.clipped == 1.0


@pytest.mark.parametrize(
    "bound, args, message",
    [
        (tail_bound_kostlan, (0, 2, REAL), "need d >= 1, got 0"),
        (tail_bound_kostlan, (3, 1, REAL), "need n >= 2, got 1"),
        (tail_bound_harmonic, (3, 1), "need n >= 2, got 1"),
        (tail_bound_kostlan_multi, ((2, 0), (2, 2), REAL), "need ds >= 1"),
        (tail_bound_gaussian_tensor, ((2, 1), REAL), "need shape dimensions >= 2"),
    ],
)
def test_tail_domain_errors_name_the_model_parameter(bound, args, message):
    # checked before the covering constant, whose error names its own L and n
    with pytest.raises(DomainError, match=message):
        bound(*args, 0.5)


def test_io_jacobian_values():
    assert io_jacobian_det([np.zeros(1), np.zeros(2)]) == pytest.approx(1.0)
    z = [np.array([1.0])]
    assert io_jacobian_det(z) == pytest.approx(2.0 ** -1.0)  # (1+1)^(-2/2)
    z = [np.array([1.0, 1.0])]  # n = 3: (1+2)^(-3/2)
    assert io_jacobian_det(z) == pytest.approx(3.0 ** -1.5)


def test_asymptotic_sandwiches_hold_on_grid():
    for n in range(2, 9):
        for d in range(max(3, (n * n + 3) // 4), 201, 7):
            lo, mid, up = binom_sandwich_whole(d, n)
            assert lo - 1e-12 <= mid <= up + 1e-12
            lo, mid, up = binom_sandwich_half(d, n)
            assert lo - 1e-12 <= mid <= up + 1e-12


def test_gautschi_chain():
    for d in range(1, 201):
        lo, mid, up = gautschi_chain(d)
        assert lo - 1e-12 <= mid <= up + 1e-12


def test_scale_comparison_directions():
    for d, n in [(10, 2), (20, 3), (50, 4)]:
        (whole, whole_rhs), (half, half_rhs) = scale_comparison_pair(d, n)
        # binom^(-1/2) <= sqrt(d!)/n^(d/2) fails in general; this is only a
        # comparison of scales -- we only require positivity and finiteness
        assert whole > 0 and half > 0 and np.isfinite(whole_rhs) and np.isfinite(half_rhs)
