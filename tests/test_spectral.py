import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rankone import _kernels
from rankone.bounds import DomainError, bounds_general, bounds_symmetric
from rankone.experiments import _HARD_TOL, _cfg_seed, _draw, estimate_ratio_distribution
from rankone.poly import (
    MultiHomogPoly,
    dump_poly,
    load_poly,
    multi_monomial_exponents,
    poly_from_coeff_dict,
)
from rankone.sampling import (
    _draw_starts,
    gaussian_harmonic,
    gaussian_tensor,
    kostlan_form,
    kostlan_multi,
    uniform_sphere,
)
from rankone.spectral import (
    BudgetError,
    MaximizerConfig,
    approx_error,
    brute_force_uniform_norm,
    ratio,
    spectral_norm_symmetric,
    spectral_value,
    spectral_value_many,
    sphere_grid,
    total_norm,
    _RHO,
    _alternating,
    _Blocks,
    _CircleSearch,
    _lockstep,
    _pga_sphere,
    _realified_objective,
)
from rankone.tensor import (
    COMPLEX,
    REAL,
    FieldError,
    Tensor,
    UnitVectorTuple,
    contract_back,
    contract_front,
    rank_one,
    row_stack,
)

CFG = MaximizerConfig(starts=8, max_iters=500, seed=0)


def test_matrix_spectral_norm_is_top_singular_value():
    rng = np.random.default_rng(0)
    for field in (REAL, COMPLEX):
        a = rng.standard_normal((4, 3))
        if field == COMPLEX:
            a = a + 1j * rng.standard_normal((4, 3))
        t = Tensor(a, field)
        res = spectral_value(t, CFG)
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
    res = spectral_value(t, CFG)
    grid = brute_force_uniform_norm(t, 80)
    assert res.value >= grid - 1e-6
    assert res.value <= grid + 0.01  # fine grid nearly attains the max


def test_general_complex_matches_brute_force():
    t = gaussian_tensor((2, 2, 2), COMPLEX, 43)
    res = spectral_value(t, CFG)
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


def test_multi_forms_lift_to_the_complex_field():
    # a real one-block multi-form (what load_poly returns for a ``multipoly
    # ns=2 ds=3`` file) lifts to the complex sphere as its HomogPoly does,
    # and a two-block one as the same coefficients read over the complex field
    f = kostlan_form(3, 2, REAL, 12)
    one_block = load_poly(dump_poly(MultiHomogPoly((2,), (3,), f.coeffs, REAL)))
    assert type(one_block) is MultiHomogPoly
    lifted = spectral_norm_symmetric(one_block, CFG, over_field=COMPLEX)
    form = spectral_norm_symmetric(f, CFG, over_field=COMPLEX)
    assert lifted.value == form.value
    assert all(np.array_equal(a, b) for a, b in zip(lifted.maximizer, form.maximizer))
    F = kostlan_multi((2, 1), (2, 2), REAL, 13)
    two_blocks = spectral_norm_symmetric(F, CFG, over_field=COMPLEX)
    assert two_blocks.value == spectral_value(MultiHomogPoly(F.ns, F.ds, F.coeffs, COMPLEX), CFG).value


def test_multi_agrees_with_single_block():
    f = kostlan_form(4, 3, REAL, 10)
    F = MultiHomogPoly((f.n,), (f.d,), f.coeffs, f.field)
    v1 = spectral_norm_symmetric(f, CFG).value
    v2 = spectral_value(F, CFG).value
    assert v2 == pytest.approx(v1, rel=1e-7)


def test_multi_matches_brute_force():
    F = kostlan_multi((2, 2), (2, 2), REAL, 11)
    res = spectral_value(F, CFG)
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
    expected = spectral_value(t, CFG).value
    assert spectral_value(F, CFG).value == pytest.approx(expected, rel=1e-7)


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


@pytest.mark.parametrize(
    "kw",
    [
        {"starts": 0},
        {"max_iters": 0},
        {"tol": 0.0},
        {"seed": 1.5},
        {"seed": True},
        {"seed": -1},
        {"starts": 2.5},
        {"starts": True},
        {"max_iters": 2.5},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": -1e-12},
        {"tol": True},
        {"tol": "1e-12"},
    ],
)
def test_config_rejects_empty_search(kw):
    # a DomainError (a ValueError) naming the field, at construction
    (name,) = kw
    with pytest.raises(DomainError, match=rf"^need (integer|a finite) {name} "):
        MaximizerConfig(**kw)


def test_config_accepts_numpy_scalars():
    cfg = MaximizerConfig(
        starts=np.int64(3), max_iters=np.int32(50), tol=np.float64(1e-9), seed=np.uint8(2)
    )
    assert spectral_value(kostlan_form(3, 2, REAL, 1), cfg).value > 0


def test_zero_tensor_rejected():
    from rankone.spectral import ZeroInputError

    with pytest.raises(ZeroInputError):
        spectral_value(Tensor(np.zeros((2, 2, 2)), REAL), CFG)


def test_deterministic_given_seed():
    t = gaussian_tensor((3, 3, 3), REAL, 5)
    r1 = spectral_value(t, CFG)
    r2 = spectral_value(t, CFG)
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.maximizer[0], r2.maximizer[0])



@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("sizes", [(2,), (2, 2), (3, 3, 3), (4, 4, 4, 4)], ids=str)
def test_start_rows_match_numpy_per_start_generators(sizes, field):
    # row i * starts + s is bit for bit what start s of seeds[i] draws from
    # its own generator, also for seeds of more than four 32-bit words
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**128 - 1, 2**128, 2**130 + 5, 2**160 + 3]
    rows = _draw_starts(seeds, 12, sizes, field)
    for i, seed in enumerate(seeds):
        for s in range(12):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(s,)))
            for x, n in zip(rows, sizes):
                v = rng.standard_normal(n)
                if field == COMPLEX:
                    v = v + 1j * rng.standard_normal(n)
                want = v / np.linalg.norm(v)
                assert x.dtype == want.dtype and x[i * 12 + s].tobytes() == want.tobytes()
    # recertification's 48 starts begin with the 12 starts' rows
    many = _draw_starts(seeds, 48, sizes, field)
    for x, y in zip(rows, many):
        prefix = y.reshape(len(seeds), 48, -1)[:, :12].reshape(x.shape)
        assert prefix.tobytes() == x.tobytes()


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_bad_seeds_are_refused(seed):
    f = kostlan_form(3, 2, REAL, 1)
    with pytest.raises(ValueError, match=f"got {seed}$"):
        spectral_value_many([f], CFG, [seed])


def _ascend(blocks, degree, value, value_and_grad, x0, max_iters):
    """The sphere ascent from every row of x0: (x, |f|^2, iterations, converged)."""
    start, step = _pga_sphere(blocks, degree, value, value_and_grad, 1e-12)
    (p,), iters, conv = _lockstep(step, start(np.array(x0, dtype=float)), max_iters)
    dim = blocks[-1].stop
    return p[:, :dim], p[:, dim], iters, conv


def _unit_rows(rng, count, shape, field):
    """``count`` random unit rows per mode of ``shape``, over the field."""
    rows = []
    for n in shape:
        x = rng.standard_normal((count, n))
        if field == COMPLEX:
            x = x + 1j * rng.standard_normal((count, n))
        rows.append(x / np.linalg.norm(x, axis=1)[:, np.newaxis])
    return rows


def _split_modes(x, shape):
    """The per-mode (S, n_j) arrays of packed rows x (S, sum(shape))."""
    return np.split(x, np.cumsum(shape)[:-1], axis=1)


def _alternate(t, x0, max_iters, method=_alternating):
    """Alternating maximization from every row of the per-mode arrays x0:
    (xs, objective, iterations, converged), xs per mode.  The packed step
    runs on the rows of x0 side by side, ``_per_mode_alternating`` on x0."""
    which = np.zeros(len(x0[0]), dtype=int)
    step = method([t], which, 1e-12)
    rows = [np.hstack(x0)] if method is _alternating else [np.array(x) for x in x0]
    state = [*rows, np.full(len(which), -np.inf), np.zeros(len(which))]
    (*xs, obj, _), iters, conv = _lockstep(step, state, max_iters)
    if method is _alternating:
        xs = _split_modes(xs[0], t.shape)
    return xs, obj, iters, conv


def _per_mode_alternating(ts, which, tol):
    """The alternating step with one (S, n_j) array per mode in its state
    (``[*xs, value, move]``), each move, norm and trial point a loop over
    the modes: the reference the packed ``_alternating`` must reproduce."""

    def sq_norms(x):
        return np.add.reduce((x * np.conj(x)).real, axis=1)

    data = row_stack(ts)
    lo, hi = _RHO

    def step(state, ids):
        rows, prev, last = state[:-2], state[-2], state[-1]
        old = list(rows)
        cur = np.maximum(prev, 0.0)
        owner = which[ids]
        for j, suffix in enumerate(contract_back(data[owner], rows[1:])):
            v = contract_front(suffix, rows[:j])
            nrm = np.sqrt(sq_norms(v))
            ok = nrm != 0.0
            if ok.all():
                rows[j], cur = np.conj(v) / nrm[:, np.newaxis], nrm
            else:
                rows[j] = rows[j].copy()
                rows[j][ok] = np.conj(v[ok]) / nrm[ok, np.newaxis]
                cur[ok] = nrm[ok]
        done = cur - prev <= tol * np.maximum(1.0, np.abs(cur))
        moves = [x - x0 for x, x0 in zip(rows, old)]
        move = np.sqrt(sum(sq_norms(m) for m in moves))
        rho = np.divide(move, last, out=np.zeros_like(move), where=last > 0.0)
        a = np.flatnonzero(~done & (rho > lo) & (rho < hi))
        if len(a):
            beta = (rho[a] / (1.0 - rho[a]))[:, np.newaxis]
            ys = [x[a] + beta * m[a] for x, m in zip(rows, moves)]
            ys = [y / np.sqrt(sq_norms(y))[:, np.newaxis] for y in ys]
            trial = contract_back(data[owner[a]], ys[1:])[0]
            val = np.abs(np.add.reduce(trial * ys[0], axis=1))
            up = val > cur[a]
            b = a[up]
            for x, y in zip(rows, ys):
                x[b] = y[up]
            cur[b], move[b] = val[up], 0.0
        state[:] = rows + [cur, move]
        return done

    return step


def test_lockstep_driver_retires_each_start_at_its_round():
    # start s stops in round s + 1; the driver alone sets the counts and
    # flags and writes every start's final rows back
    def step(live, ids):
        live[0] += 1.0
        live[1] = live[1] * 2
        return live[0][:, 0] > ids

    for max_iters, stopped in ((10, 5), (3, 3)):
        state = [np.zeros((5, 2)), np.ones(5, dtype=int)]
        (count, power), iters, conv = _lockstep(step, state, max_iters)
        rounds = np.minimum(np.arange(1, 6), max_iters)
        np.testing.assert_array_equal(count, np.repeat(rounds, 2).reshape(5, 2))
        np.testing.assert_array_equal(power, 2**rounds)
        np.testing.assert_array_equal(iters, rounds)
        np.testing.assert_array_equal(conv, np.arange(5) < stopped)


@pytest.mark.parametrize(
    "form",
    [
        kostlan_form(6, 3, REAL, 13),
        kostlan_form(5, 2, COMPLEX, 14),
        kostlan_multi((2, 3), (2, 3), REAL, 15),
        kostlan_multi((2, 3), (2, 2), COMPLEX, 17),
    ],
    ids=["real", "complex", "multi", "complex-multi"],
)
def test_lockstep_starts_match_single_runs(form):
    # every start of a lockstep batch must end exactly where it ends alone
    coeffs = np.tile(form.coeffs, (9, 1))
    blocks, degree, value, value_and_grad, _ = _realified_objective(coeffs, form.exponents, form.ns, form.field)
    x0 = np.random.default_rng(3).standard_normal((9, blocks[-1].stop))
    for b in blocks:
        x0[:, b] /= np.linalg.norm(x0[:, b], axis=1)[:, np.newaxis]
    for max_iters in (500, 6):
        _, obj, iters, conv = _ascend(blocks, degree, value, value_and_grad, x0, max_iters)
        for s in range(len(x0)):
            _, o1, i1, c1 = _ascend(blocks, degree, value, value_and_grad, x0[s : s + 1], max_iters)
            assert o1[0] == pytest.approx(obj[s], rel=1e-12)
            assert i1[0] == iters[s]
            assert c1[0] == conv[s]
        if max_iters == 500:  # the starts retire at different rounds
            assert conv.all() and len(set(iters.tolist())) > 1
        else:  # some starts are cut off unconverged
            assert not conv.all()


@pytest.mark.parametrize(
    "shape, field", [((3, 3, 3), REAL), ((2, 3, 4), COMPLEX), ((3, 2, 2, 3), COMPLEX)]
)
def test_lockstep_tensor_starts_match_single_runs(shape, field):
    # every start of a lockstep batch must end exactly where it ends alone
    t = gaussian_tensor(shape, field, 16)
    x0 = _unit_rows(np.random.default_rng(4), 9, shape, field)
    for max_iters in (400, 3):
        xs, obj, iters, conv = _alternate(t, x0, max_iters)
        for s in range(9):
            one = [x[s : s + 1] for x in x0]
            x1, o1, i1, c1 = _alternate(t, one, max_iters)
            assert o1[0] == pytest.approx(obj[s], rel=1e-12)
            for a, b in zip(x1, xs):
                np.testing.assert_allclose(a[0], b[s], rtol=0, atol=1e-10)
            assert i1[0] == iters[s]
            assert c1[0] == conv[s]
        if max_iters == 400:  # the starts retire at different rounds
            assert conv.all() and len(set(iters.tolist())) > 1
        else:  # some starts are cut off unconverged
            assert not conv.all()


@pytest.mark.parametrize(
    "seed, shape, field, value, iterations",
    [
        (31, (3, 3, 3), REAL, 3.944647356125139, 8),
        (32, (2, 3, 4), COMPLEX, 4.135896386787339, 13),
        (33, (3, 2, 2, 3), COMPLEX, 3.53098371157758, 14),
        (34, ("kostlan", {"d": 8, "n": 2}), REAL, 1.5682013037252518, 2),
        (35, ("kostlan", {"d": 8, "n": 2}), COMPLEX, 1.2948616794233114, 6),
        (36, ("harmonic", {"d": 6, "n": 3}), REAL, 0.46168710946825325, 6),
        (37, ("kostlan_multi", {"ds": (2, 3), "ns": (2, 2)}), REAL, 2.2952944200632626, 13),
    ],
)
def test_general_values_pinned(seed, shape, field, value, iterations):
    # values and iteration counts of general tensors (a shape) and of forms
    # and multi-forms (a model), pinned so that a change to either optimizer
    # or to their lockstep driver that moves a result shows here
    model, params = shape if isinstance(shape[0], str) else ("gaussian_tensor", {"shape": shape})
    cfg = MaximizerConfig(starts=8, max_iters=500, seed=seed)
    res = spectral_value(_draw(model, {**params, "field": field}, seed, 0), cfg)
    assert res.value == pytest.approx(value, rel=1e-12)
    assert res.iterations == iterations and res.converged


def test_conjugate_directions_keep_the_steepest_ascent_values():
    # the values the steepest-ascent circle search reached on this batch;
    # the conjugate directions must reach them in fewer lockstep rounds (28
    # with steepest ascent)
    steepest = [
        1.4319285320763717,
        1.6333946709726652,
        1.6360519581688127,
        2.0311789136199647,
        1.5454394961427893,
        2.0679405478555997,
        2.0551345607953855,
        2.1900121499575764,
    ]
    objs = [kostlan_form(8, 2, COMPLEX, 60, i) for i in range(8)]
    cfg = MaximizerConfig(starts=12, max_iters=400)
    batch = spectral_value_many(objs, cfg, [2000 + i for i in range(8)])
    assert batch.iterations == 11
    for res, value in zip(batch.results, steepest):
        assert res.value == pytest.approx(value, rel=1e-12)
        assert res.converged


def _pairing(t, xs):
    """|<T, x^1 (x) ... (x) x^d>| computed directly from the vectors."""
    out = np.conj(t.data)
    for x in xs:
        out = np.tensordot(x, out, axes=([0], [0]))
    return abs(complex(out))


@pytest.mark.parametrize(
    "shape, field",
    [((3, 3, 3), REAL), ((2, 3, 4), REAL), ((4, 4, 4, 4), COMPLEX), ((3, 2, 2, 3), COMPLEX)],
)
def test_extrapolated_rounds_are_monotone_and_attained(monkeypatch, shape, field):
    # the extrapolation may only move a start to a better point, and the
    # objective it reports must be the value at the vectors it returns
    t = gaussian_tensor(shape, field, 17)
    x0 = _unit_rows(np.random.default_rng(5), 12, shape, field)
    which = np.zeros(12, dtype=int)

    def run():
        step = _alternating([t], which, 1e-12)
        history = [[] for _ in range(12)]

        def recorded(live, ids):
            done = step(live, ids)
            for s, value in zip(ids, live[-2]):
                history[s].append(value)
            return done

        state = [np.hstack(x0), np.full(12, -np.inf), np.zeros(12)]
        (x, obj, _), iters, conv = _lockstep(recorded, state, 500)
        assert conv.all()
        return _split_modes(x, shape), obj, iters, history

    xs, obj, iters, history = run()
    for s, values in enumerate(history):
        assert len(values) == iters[s]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert obj[s] == pytest.approx(_pairing(t, [x[s] for x in xs]), rel=1e-12)
    # without the extrapolation the same starts take more rounds
    monkeypatch.setattr("rankone.spectral._RHO", (1.0, 1.0))
    *_, plain, _ = run()
    assert iters.sum() < plain.sum()


def _alternate_both_ways(t, x0, max_iters):
    """The packed step's run from x0, checked against the per-mode step's:
    the same values, vectors, iteration counts and flags."""
    xs, obj, iters, conv = _alternate(t, x0, max_iters)
    ref_xs, ref_obj, ref_iters, ref_conv = _alternate(t, x0, max_iters, _per_mode_alternating)
    np.testing.assert_allclose(obj, ref_obj, rtol=1e-12)
    for x, ref_x in zip(xs, ref_xs):
        np.testing.assert_allclose(x, ref_x, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(iters, ref_iters)
    np.testing.assert_array_equal(conv, ref_conv)
    return xs, obj, iters, conv


@pytest.mark.parametrize(
    "shape, field",
    [((3, 3, 3), REAL), ((2, 3, 4), REAL), ((4, 4, 4, 4), COMPLEX), ((3, 2, 2, 3), COMPLEX)],
)
def test_packed_sweeps_match_the_per_mode_steps(shape, field):
    # one packed row per start must give what one array per mode gave, also
    # for starts cut off unconverged; (2, 3, 4) pads the modes' segmented sums
    t = gaussian_tensor(shape, field, 18)
    x0 = _unit_rows(np.random.default_rng(6), 12, shape, field)
    for max_iters in (400, 4):
        *_, conv = _alternate_both_ways(t, x0, max_iters)
        assert conv.all() == (max_iters == 400)


def test_packed_sweep_keeps_the_vector_of_a_vanishing_contraction():
    # T = e_1 (x) e_1 (x) e_1: a start whose x_2 is orthogonal to e_1 has
    # v = 0 for mode 1 in the first sweep and must keep its x_1; one whose
    # x_2 and x_3 are both orthogonal to e_1 has v = 0 for every mode, never
    # moves, attains 0 and stops in the second sweep
    e = np.zeros((3, 3, 3))
    e[0, 0, 0] = 1.0
    t = Tensor(e, REAL)
    x0 = _unit_rows(np.random.default_rng(7), 4, (3, 3, 3), REAL)
    for s, modes in ((1, (1,)), (2, (1, 2))):
        for j in modes:
            x0[j][s, 0] = 0.0
            x0[j][s] /= np.linalg.norm(x0[j][s])
    first, obj1, *_ = _alternate_both_ways(t, x0, 1)
    xs, obj, iters, conv = _alternate_both_ways(t, x0, 50)
    assert first[0][1].tobytes() == x0[0][1].tobytes()
    assert xs[0][1].tobytes() != x0[0][1].tobytes()  # later sweeps moved it
    for x, start in zip(xs, x0):
        assert x[2].tobytes() == start[2].tobytes()
    assert obj1[2] == 0.0 and obj[2] == 0.0 and conv[2] and iters[2] == 2
    assert obj[[0, 1, 3]] == pytest.approx(1.0, rel=1e-12) and conv[[0, 1, 3]].all()


def test_starts_whose_contractions_all_vanish_stop_at_zero():
    # T = e_1 (x) e_1 (x) e_1 and every mode of every start orthogonal to
    # e_1: each contraction of the first sweep vanishes, so no vector moves,
    # the attained value <T, x> = 0 is the objective and the second sweep,
    # which gains nothing, stops the start, without a warning
    e = np.zeros((3, 3, 3))
    e[0, 0, 0] = 1.0
    x0 = _unit_rows(np.random.default_rng(8), 5, (3, 3, 3), REAL)
    for x in x0:
        x[:, 0] = 0.0
        x /= np.linalg.norm(x, axis=1)[:, np.newaxis]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs, obj, iters, conv = _alternate(Tensor(e, REAL), x0, 400)
    assert (obj == 0.0).all() and conv.all() and (iters == 2).all()
    for x, start in zip(xs, x0):
        assert x.tobytes() == start.tobytes()


def test_extrapolation_keeps_the_sweep_values():
    # the values the sweeps alone reached on a batch of the benchmark's
    # tensors pool; the extrapolated sweeps must reach them in fewer lockstep
    # rounds (301 with the sweeps alone)
    sweeps = [
        5.07891149384516,
        5.528179868469502,
        5.36582045113927,
        5.455019952370208,
        4.990808017708401,
        5.707864786417826,
        5.497854210203173,
        5.31242674402293,
    ]
    objs = [gaussian_tensor((4, 4, 4, 4), COMPLEX, 20100, i) for i in range(8)]
    cfg = MaximizerConfig(starts=12, max_iters=400)
    batch = spectral_value_many(objs, cfg, [_cfg_seed(20100, i) for i in range(8)])
    assert batch.iterations == 110
    for res, value in zip(batch.results, sweeps):
        assert res.value >= value * (1.0 - 1e-12)
        assert res.converged


# the benchmark's `tensors` pool: the lockstep rounds of each batch (8
# samples, 12 starts) and the value of each sample
_TENSOR_POOL = {
    20000: ((3, 3, 3), REAL, 34, [
        3.9299464825135635,
        3.7236412852595056,
        3.4316292436358307,
        4.6567848885942675,
        3.7796024045627066,
        2.968752087594501,
        3.620625476542149,
        3.6378471710084668,
    ]),
    20001: ((3, 3, 3), REAL, 41, [
        2.9514916208488486,
        3.880005017771939,
        3.497110475879629,
        3.029688137192365,
        2.934045262569987,
        3.279869124918222,
        3.5733308719286097,
        3.8525399923024604,
    ]),
    20100: ((4, 4, 4, 4), COMPLEX, 110, [
        5.078911493863687,
        5.528179868472939,
        5.365820451144396,
        5.455019952373348,
        4.9908080177130705,
        5.707864786419781,
        5.497854210216121,
        5.312426744056094,
    ]),
    20101: ((4, 4, 4, 4), COMPLEX, 81, [
        5.6048398797128876,
        5.464790632290605,
        5.502586538813871,
        5.310929915642648,
        5.399724825290565,
        5.391985659816995,
        5.74342304606871,
        5.615137416759552,
    ]),
}


@pytest.mark.parametrize("seed", sorted(_TENSOR_POOL))
def test_tensor_pool_batches_keep_their_rounds(seed):
    # the order of the contractions sets their rounding; a change to it may
    # move a value by rounding but not a batch's round count
    shape, field, rounds, values = _TENSOR_POOL[seed]
    objs = [gaussian_tensor(shape, field, seed, i) for i in range(8)]
    cfg = MaximizerConfig(starts=12, max_iters=400)
    batch = spectral_value_many(objs, cfg, [_cfg_seed(seed, i) for i in range(8)])
    assert batch.iterations == rounds
    for res, value in zip(batch.results, values):
        assert res.value == pytest.approx(value, rel=1e-12)
        assert res.converged


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_edge_order_tensors(field):
    # an order-1 tensor is a vector v, whose value is |v|; a mode of size 1
    # only scales by a unit scalar, so (2, 5, 1, 3) has the value of its
    # (2, 5, 3) squeeze (both run to a tighter tolerance than CFG's, which
    # stops a start up to about 1e-12 short of its maximum)
    cfg = MaximizerConfig(starts=8, max_iters=2000, tol=1e-15)
    rng = np.random.default_rng(9)

    def draw(*size):
        x = rng.standard_normal(size)
        return x + 1j * rng.standard_normal(size) if field == COMPLEX else x

    v = draw(5)
    res = spectral_value_many([Tensor(v, field)], cfg, [3]).results[0]
    assert res.value == pytest.approx(np.linalg.norm(v), rel=1e-12)
    data = draw(2, 5, 1, 3)
    value, squeezed = (
        spectral_value_many([Tensor(a, field)], cfg, [4]).results[0].value
        for a in (data, data[:, :, 0])
    )
    assert value == pytest.approx(squeezed, rel=1e-12)


@pytest.mark.parametrize(
    "draw",
    [
        lambda i: kostlan_form(6, 3, REAL, 40, i),
        lambda i: kostlan_form(5, 2, COMPLEX, 41, i),
        lambda i: kostlan_multi((2, 3), (2, 3), REAL, 42, i),
        lambda i: gaussian_tensor((3, 3, 3), REAL, 43, i),
        lambda i: gaussian_tensor((2, 3, 4), COMPLEX, 44, i),
    ],
    ids=["real-form", "complex-form", "multi-form", "tensor-real", "tensor-complex"],
)
def test_batched_samples_match_single_runs(draw):
    # every object of a lockstep batch must get the result of its own call
    objs = [draw(i) for i in range(8)]
    seeds = [1000 + 7 * i for i in range(8)]
    for max_iters in (400, 3):
        cfg = MaximizerConfig(starts=6, max_iters=max_iters)
        batch = spectral_value_many(objs, cfg, seeds)
        assert len(batch.results) == 8
        for obj, seed, res in zip(objs, seeds, batch.results):
            one = spectral_value(obj, replace(cfg, seed=seed))
            assert res.value == pytest.approx(one.value, rel=1e-12)
            assert res.converged == one.converged
            assert batch.iterations >= res.iterations
        converged = [r.converged for r in batch.results]
        if max_iters == 400:
            assert all(converged) and batch.iterations < max_iters
        else:  # the best starts are cut off unconverged
            assert not any(converged) and batch.iterations == max_iters


@pytest.mark.parametrize(
    "draw",
    [lambda i: kostlan_form(8, 2, REAL, 45, i), lambda i: gaussian_harmonic(6, 3, 46, i)],
    ids=["kostlan-d8n2", "harmonic-d6n3"],
)
def test_symmetric_batch_over_complex_matches_single_calls(draw):
    # the seeds form runs every form in one batch; each result must be the
    # one-form call's exactly, arrays and counts included
    forms = [draw(i) for i in range(5)]
    seeds = [2000 + 11 * i for i in range(5)]
    cfg = MaximizerConfig(starts=12, max_iters=400)
    batch = spectral_norm_symmetric(forms, cfg, over_field=COMPLEX, seeds=seeds)
    assert len(batch.results) == 5
    for f, seed, res in zip(forms, seeds, batch.results):
        one = spectral_norm_symmetric(f, replace(cfg, seed=seed), over_field=COMPLEX)
        assert res.value == one.value
        assert len(res.maximizer) == len(one.maximizer) == 1
        assert all(np.array_equal(a, b) for a, b in zip(res.maximizer, one.maximizer))
        assert res.maximizer[0].dtype == np.complex128
        assert (res.iterations, res.converged) == (one.iterations, one.converged)
        assert batch.iterations >= res.iterations


def test_symmetric_batch_rejects_bad_fields_and_seed_counts():
    real = [kostlan_form(4, 2, REAL, 47, i) for i in range(3)]
    cfg = MaximizerConfig(starts=2)
    with pytest.raises(FieldError):
        spectral_norm_symmetric(
            real[:2] + [kostlan_form(4, 2, COMPLEX, 48)], cfg, over_field=REAL, seeds=[0, 1, 2]
        )
    with pytest.raises(ValueError, match="one seed per object"):
        spectral_norm_symmetric(real, cfg, over_field=COMPLEX, seeds=[0, 1])


def test_batch_rejects_mixed_inputs():
    f = kostlan_form(4, 2, REAL, 1)
    cfg = MaximizerConfig(starts=2)
    for other in [
        kostlan_form(5, 2, REAL, 2),
        kostlan_form(4, 3, REAL, 2),
        kostlan_form(4, 2, COMPLEX, 2),
        gaussian_tensor((2, 2), REAL, 2),
    ]:
        with pytest.raises(ValueError, match="mixed"):
            spectral_value_many([f, other], cfg, [0, 1])
    with pytest.raises(ValueError):
        spectral_value_many([f, f], cfg, [0])
    with pytest.raises(ValueError):
        spectral_value_many([], cfg, [])


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_forms_batch_with_their_one_block_multi_forms(field):
    # a form and a one-block multi-form of the same degree, variables and
    # field are one space: they share a batch, and each gets exactly what
    # its own call gives
    cfg = MaximizerConfig(starts=4, max_iters=300, seed=5)
    f = kostlan_form(4, 3, field, 60)
    g = kostlan_form(4, 3, field, 61)
    G = MultiHomogPoly((3,), (4,), g.coeffs, field)
    batch = spectral_value_many([f, G], cfg, [5, 9])
    # the form g alone also gives what G gives in the batch
    for obj, seed, slot in [(f, 5, 0), (G, 9, 1), (g, 9, 1)]:
        res, one = batch.results[slot], spectral_value(obj, replace(cfg, seed=seed))
        assert res.value == one.value
        assert all(np.array_equal(a, b) for a, b in zip(res.maximizer, one.maximizer))
        assert (res.iterations, res.converged) == (one.iterations, one.converged)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_factor_index_is_built_once_per_batch(monkeypatch, field):
    # the kernels' exponent index is set up once per spectral_value_many
    # call and passed to its every evaluation, not rebuilt per call
    built, factor_index = [], _kernels._factor_index

    def counted(*args):
        built.append(args)
        return factor_index(*args)

    monkeypatch.setattr(_kernels, "_factor_index", counted)
    forms = [kostlan_form(5, 3, field, 70 + i) for i in range(3)]
    batch = spectral_value_many(forms, MaximizerConfig(starts=4, max_iters=50), [1, 2, 3])
    assert batch.iterations > 1 and len(built) == 1


def _units_and_tangents(rng, rows, blocks):
    """Random points of the sphere product and unit tangent directions there."""
    x = rng.standard_normal((rows, blocks[-1].stop))
    u = rng.standard_normal(x.shape)
    for b in blocks:
        x[:, b] /= np.linalg.norm(x[:, b], axis=1)[:, np.newaxis]
        u[:, b] -= (u[:, b] * x[:, b]).sum(axis=1)[:, np.newaxis] * x[:, b]
        u[:, b] /= np.linalg.norm(u[:, b], axis=1)[:, np.newaxis]
    return x, u


@pytest.mark.parametrize(
    "form",
    [
        kostlan_form(6, 3, REAL, 50),
        kostlan_form(5, 2, COMPLEX, 51),
        kostlan_multi((2, 3), (2, 3), REAL, 52),
    ],
    ids=["real", "complex", "multi"],
)
def test_great_circle_search_is_exact(form):
    # f on a great circle is a binary form of degree D in (cos t, sin t), so
    # its D+1 samples fix |f|^2, a trigonometric polynomial of degree D in
    # 2t, at every angle
    rows = 5
    blocks, degree, value, value_and_grad, _ = _realified_objective(
        np.tile(form.coeffs, (rows, 1)), form.exponents, form.ns, form.field
    )
    ids = np.arange(rows)
    rng = np.random.default_rng(7)
    x, u = _units_and_tangents(rng, rows, blocks)

    def on_circle(theta):
        t = theta[..., np.newaxis]
        y = (np.cos(t) * x[:, np.newaxis] + np.sin(t) * u[:, np.newaxis]).reshape(-1, x.shape[1])
        f = value(y, np.repeat(ids, theta.shape[1])).reshape(theta.shape)
        return (f * np.conj(f)).real

    circles = _CircleSearch(degree)
    samples = circles.samples(x, u, value(x, ids), ids, value)
    assert samples.shape == (rows, degree + 1)
    c = circles.interpolant(samples)
    scale = (np.abs(samples) ** 2).max(axis=1, keepdims=True)
    theta = rng.uniform(0.0, np.pi, (rows, 7))
    # p(t) = Re sum_k c_k e^{2ikt}
    p = (c[:, np.newaxis] * np.exp(2j * theta[:, :, np.newaxis] * np.arange(degree + 1))).real.sum(axis=2)
    assert (np.abs(p - on_circle(theta)) <= 1e-12 * scale).all()
    # the located angle is the circle's maximum
    best = on_circle(circles.argmax(c)[:, np.newaxis])[:, 0]
    dense = on_circle(np.tile(np.linspace(0.0, np.pi, 2001), (rows, 1)))
    assert (best >= dense.max(axis=1) * (1 - 1e-12)).all()
    # one round evaluates f at the D angles other than x's on every circle,
    # and f, |f|^2 and the gradient at the one chosen point of each
    points = []

    def counted(evaluate):
        def spy(ys, ids):
            points.append(len(ys))
            return evaluate(ys, ids)

        return spy

    start, step = _pga_sphere(blocks, degree, counted(value), counted(value_and_grad), 1e-12)
    state = start(x.copy())
    points.clear()
    step(state, ids)
    assert points == [rows * degree, rows]
    # every value the ascent accepts is |f|^2 at the point it returns
    xf, obj, _, conv = _ascend(blocks, degree, value, value_and_grad, x, 400)
    np.testing.assert_allclose(obj, np.abs(value(xf, ids)) ** 2, rtol=1e-14, atol=0)
    for b in blocks:
        np.testing.assert_allclose(np.linalg.norm(xf[:, b], axis=1), 1.0, rtol=1e-14)
    assert conv.all()


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("ns", [(5,), (2, 4), (3, 1, 2), (1, 5, 3)], ids=["1", "2", "3", "3-wide"])
def test_segmented_block_ops_match_the_per_block_loop(field, ns):
    # each block's projection and normalisation, one segmented sum over all
    # blocks, against the loop over the blocks it replaced
    ends = np.cumsum([0] + [(2 if field == COMPLEX else 1) * n for n in ns])
    blocks = [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]
    rng = np.random.default_rng(11)
    x, v = rng.standard_normal((2, 40, blocks[-1].stop))
    v[:3, blocks[-1]] = 0.0  # zero blocks stay 0
    for b in blocks:
        x[:, b] /= np.linalg.norm(x[:, b], axis=1)[:, np.newaxis]
    tangent, unit = v.copy(), v.copy()
    for b in blocks:
        tangent[:, b] -= (v[:, b] * x[:, b]).sum(axis=1)[:, np.newaxis] * x[:, b]
        nrm = np.linalg.norm(v[:, b], axis=1)[:, np.newaxis]
        unit[:, b] /= np.where(nrm > 0.0, nrm, 1.0)
    seg = _Blocks(blocks)
    np.testing.assert_allclose(seg.tangent(v, x), tangent, rtol=0, atol=1e-15)
    np.testing.assert_allclose(seg.unit(v), unit, rtol=0, atol=1e-15)
    assert (seg.unit(v)[:3, blocks[-1]] == 0.0).all()


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_zero_direction_block_keeps_values_monotone_and_attained(field):
    # F(x, y) = x_1 q(y): at x = +-e_1 the x block's tangent gradient is 0
    # (over the reals exactly), so its circle direction is 0 and the curve
    # cos(t) x + sin(t) u leaves that sphere; the ascent must still only take
    # attained, larger values, keep x_2 = 0 and reach max |q| on the y circle
    q = {(2, 0): 3.0, (1, 1): 2.0, (0, 2): -1.0}  # eigenvalues 1 +- sqrt(5)
    expo = multi_monomial_exponents((1, 2), (2, 2))
    coeffs = np.array([q[tuple(e[2:])] if e[0] == 1 else 0.0 for e in expo])
    form = MultiHomogPoly((2, 2), (1, 2), coeffs, field)
    rows = 6
    blocks, degree, value, value_and_grad, _ = _realified_objective(
        np.tile(form.coeffs, (rows, 1)), form.exponents, form.ns, form.field
    )
    x0 = np.random.default_rng(9).standard_normal((rows, blocks[-1].stop))
    x0[:, blocks[0]] = 0.0
    x0[:, blocks[0].start] = 1.0
    x0[:, blocks[1]] /= np.linalg.norm(x0[:, blocks[1]], axis=1)[:, np.newaxis]
    ids = np.arange(rows)
    start, step = _pga_sphere(blocks, degree, value, value_and_grad, 1e-12)
    state, dim = start(x0.copy()), x0.shape[1]
    history = [[o] for o in state[0][:, dim]]

    def recorded(live, ids):
        done = step(live, ids)
        for s, o in zip(ids, live[0][:, dim]):
            history[s].append(o)
        return done

    (p,), iters, conv = _lockstep(recorded, state, 400)
    xf, obj = p[:, :dim], p[:, dim]
    assert conv.all()
    for values in history:
        assert all(b >= a for a, b in zip(values, values[1:]))
    np.testing.assert_allclose(obj, np.abs(value(xf, ids)) ** 2, rtol=1e-14, atol=0)
    x_2 = np.arange(blocks[0].start + 1, blocks[0].stop, 2)  # its real (and imaginary) part
    assert (xf[:, x_2] == 0.0).all()
    if field == REAL:
        assert (np.abs(xf[:, blocks[0].start]) == 1.0).all()
    assert np.sqrt(obj.max()) == pytest.approx(1.0 + np.sqrt(5.0), rel=1e-12)


def _chebyshev_form(d):
    """Re((x + iy)^d)."""
    terms = {(d - k, k): math.comb(d, k) * (-1) ** (k // 2) for k in range(0, d + 1, 2)}
    return poly_from_coeff_dict(2, d, terms)


@pytest.mark.parametrize("d", range(3, 11))
def test_chebyshev_forms_reach_the_real_binary_lower_bound(d):
    # Agrachev, Kozhasov & Uschmajew: the real binary forms of least ratio
    r = ratio(_chebyshev_form(d), CFG)
    assert r == pytest.approx(2.0 ** (-(d - 1) / 2), rel=1e-12)
    assert r == pytest.approx(bounds_symmetric(d, 2, REAL).lower, rel=1e-12)


def _re_z1z2z3():
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = 1.0
    t[0, 1, 1] = t[1, 0, 1] = t[1, 1, 0] = -1.0
    return t


def _w_state():
    t = np.zeros((2, 2, 2), dtype=complex)
    t[0, 0, 1] = t[0, 1, 0] = t[1, 0, 0] = 1.0
    return t


@pytest.mark.parametrize(
    "data, field, anchor",
    [(_re_z1z2z3(), REAL, 0.5), (_w_state(), COMPLEX, 2.0 / 3.0)],
    ids=["re-z1z2z3", "w-state"],
)
def test_extremal_2x2x2_ratios(data, field, anchor):
    # the real and complex 2x2x2 spaces' least ratios, reached by both optimizers
    assert ratio(Tensor(data, field), CFG) == pytest.approx(anchor, rel=1e-12)
    multi = MultiHomogPoly((2, 2, 2), (1, 1, 1), data.ravel(), field)
    assert ratio(multi, CFG) == pytest.approx(anchor, rel=1e-12)
    # the closed-form lower bound holds at the anchor up to its rounding
    assert anchor >= bounds_general((2, 2, 2), field).lower - _HARD_TOL


@pytest.mark.parametrize("d", [4, 5, 6])
def test_twelve_starts_reach_the_48_start_harmonic_maximum(d):
    # harmonic n=3 forms have many local maxima; the whole-circle search
    # must not stop on a low one
    params = {"d": d, "n": 3}
    few = estimate_ratio_distribution("harmonic", params, 64, MaximizerConfig(starts=12, max_iters=400), 3000)
    many = estimate_ratio_distribution("harmonic", params, 64, MaximizerConfig(starts=48, max_iters=400), 3000)
    for (i, r12, _), (_, r48, _) in zip(few.records, many.records):
        assert r12 == pytest.approx(r48, rel=1e-9), i


@pytest.mark.parametrize("d, n", [(8, 2), (4, 3)])
def test_twelve_starts_reach_the_48_start_complex_maximum(d, n):
    # over the complex sphere (realified S^3 and S^5) one circle is not the
    # whole sphere; held-out seed
    params = {"d": d, "n": n, "field": COMPLEX}
    few = estimate_ratio_distribution("kostlan", params, 64, MaximizerConfig(starts=12, max_iters=400), 4000)
    many = estimate_ratio_distribution("kostlan", params, 64, MaximizerConfig(starts=48, max_iters=400), 4000)
    for (i, r12, _), (_, r48, _) in zip(few.records, many.records):
        assert r12 == pytest.approx(r48, rel=1e-9), i
