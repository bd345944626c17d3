import numpy as np
import pytest

from rankone.tensor import (
    COMPLEX,
    REAL,
    DimensionError,
    FieldError,
    Tensor,
    UnitVectorTuple,
    contract_back,
    contract_front,
    dump_tensor,
    frobenius_inner,
    frobenius_norm,
    is_symmetric,
    load_tensor,
    rank_one,
    row_stack,
    symmetrize,
    tensor_from_array,
)


def test_frobenius_norm_oracle():
    t = Tensor(np.arange(8.0).reshape(2, 2, 2), REAL)
    # sum of squares 0+1+...+49 = 140
    assert frobenius_norm(t) == pytest.approx(np.sqrt(140.0))


def test_frobenius_inner_conjugate_linear_first_slot():
    a = Tensor(np.array([[1j, 0], [0, 0]]), COMPLEX)
    b = Tensor(np.array([[1.0 + 0j, 0], [0, 0]]), COMPLEX)
    assert frobenius_inner(a, b) == pytest.approx(-1j)
    assert frobenius_inner(b, a) == pytest.approx(1j)


def test_field_inference_and_mismatch():
    assert tensor_from_array(np.ones((2, 2))).field == REAL
    assert tensor_from_array(np.ones((2, 2)) * 1j).field == COMPLEX
    with pytest.raises(FieldError):
        tensor_from_array(np.ones((2, 2)) * 1j, field=REAL)
    with pytest.raises(FieldError):
        frobenius_inner(Tensor(np.ones((2, 2)), REAL), Tensor(np.ones((2, 2)), COMPLEX))


def test_rank_one_norm_is_abs_lambda():
    rng = np.random.default_rng(0)
    vs = [rng.standard_normal(n) for n in (2, 3, 4)]
    xs = UnitVectorTuple(tuple(v / np.linalg.norm(v) for v in vs), REAL)
    t = rank_one(-2.5, xs)
    assert t.shape == (2, 3, 4)
    assert frobenius_norm(t) == pytest.approx(2.5)


def test_unit_vector_tuple_rejects_non_unit():
    with pytest.raises(ValueError):
        UnitVectorTuple((np.array([1.0, 1.0]),), REAL)


def _contract(t, rows, j):
    """One tensor contracted with every row tuple in all modes but j: the
    modes after j by ``contract_back``, then the modes before j by
    ``contract_front``."""
    stack = row_stack([t])[np.zeros(len(rows[0]), dtype=np.intp)]
    return contract_front(contract_back(stack, rows[j + 1 :])[0], rows[:j])


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("shape", [(3, 5), (4, 4, 4), (2, 3, 4), (3, 2, 2, 3), (2, 5, 1, 3)])
def test_contract_many_rows_match_single(shape, field):
    rng = np.random.default_rng(len(shape))

    def draw(*size):
        x = rng.standard_normal(size)
        return x + 1j * rng.standard_normal(size) if field == COMPLEX else x

    t = Tensor(draw(*shape), field)
    rows = [draw(7, n) for n in shape]
    rows = [r / np.linalg.norm(r, axis=1)[:, np.newaxis] for r in rows]
    letters = "abcd"[: len(shape)]
    for j in range(len(shape)):
        many = _contract(t, rows, j)
        assert many.shape == (7, shape[j])
        # independent reference: one einsum over all modes but j
        others = [k for k in range(len(shape)) if k != j]
        spec = ",".join([letters] + ["s" + letters[k] for k in others])
        ref = np.einsum(f"{spec}->s{letters[j]}", np.conj(t.data), *(rows[k] for k in others))
        np.testing.assert_allclose(many, ref, rtol=0, atol=1e-13)
        for s in range(7):
            one = _contract(t, [r[s : s + 1] for r in rows], j)[0]
            np.testing.assert_array_equal(many[s], one)


def test_row_stack_rows_pick_their_tensor():
    rng = np.random.default_rng(5)
    ts = [Tensor(rng.standard_normal((2, 3, 4)), REAL) for _ in range(3)]
    rows = [rng.standard_normal((6, n)) for n in (2, 4)]
    which = np.array([2, 0, 1, 1, 0, 2])
    stack = row_stack(ts)[which]
    many = contract_front(contract_back(stack, rows[1:])[0], rows[:1])
    for s, k in enumerate(which):
        ref = np.einsum("ijk,i,k->j", ts[k].data, rows[0][s], rows[1][s])
        np.testing.assert_allclose(many[s], ref, rtol=0, atol=1e-13)


def test_contraction_pairing_recovers_full_inner_complex():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    t = Tensor(data, COMPLEX)
    vs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    xs = UnitVectorTuple(tuple(v / np.linalg.norm(v) for v in vs), COMPLEX)
    full = frobenius_inner(t, rank_one(1.0, xs))
    for j in range(3):
        v = _contract(t, [x[np.newaxis] for x in xs.vectors], j)[0]
        assert np.sum(v * xs.vectors[j]) == pytest.approx(full)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("shape", [(3, 5), (4, 4, 4), (2, 5, 1, 3), (4, 4, 4, 4)])
def test_contraction_rows_do_not_depend_on_the_batch(shape, field):
    # a batched matmul hands each row to its own BLAS call, whatever the
    # batch size and wherever the row sits in the gathered stack: every
    # partial result and every mode's vector of a row equal its one-row call
    # bit for bit
    rng = np.random.default_rng(sum(shape))

    def draw(*size):
        x = rng.standard_normal(size)
        return x + 1j * rng.standard_normal(size) if field == COMPLEX else x

    stack = row_stack([Tensor(draw(*shape), field) for _ in range(5)])

    def sweep(which, xs):
        suffixes = contract_back(stack[which], xs[1:])
        return suffixes + [contract_front(r, xs[:j]) for j, r in enumerate(suffixes)]

    for size in (1, 2, 7, 96, 97):
        which = rng.permutation(np.arange(size) % len(stack))
        xs = [draw(size, n) for n in shape]
        many = sweep(which, xs)
        for s in range(size):
            one = sweep(which[s : s + 1], [x[s : s + 1] for x in xs])
            for a, b in zip(many, one):
                np.testing.assert_array_equal(a[s], b[0])


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 3, 4), (4, 4, 4, 4), (3, 2, 2, 3)])
def test_contractions_of_column_views_equal_contiguous_copies(shape, field):
    # the alternating method keeps every mode of a start in one packed row
    # and contracts the column views of it as they are: each partial result
    # must equal the one of contiguous copies bit for bit
    rng = np.random.default_rng(len(shape) + sum(shape))

    def draw(*size):
        x = rng.standard_normal(size)
        return x + 1j * rng.standard_normal(size) if field == COMPLEX else x

    stack = row_stack([Tensor(draw(*shape), field) for _ in range(3)])
    ends = np.cumsum((0,) + shape)
    for size in (7, 96):
        which = np.arange(size) % len(stack)
        packed = draw(size, ends[-1])
        views = [packed[:, a:b] for a, b in zip(ends[:-1], ends[1:])]
        copies = [np.ascontiguousarray(v) for v in views]
        assert not any(v.flags.c_contiguous for v in views)
        back_v = contract_back(stack[which], views[1:])
        back_c = contract_back(stack[which], copies[1:])
        for j, (rv, rc) in enumerate(zip(back_v, back_c)):
            assert rv.tobytes() == rc.tobytes()
            front_v, front_c = contract_front(rv, views[:j]), contract_front(rc, copies[:j])
            assert front_v.tobytes() == front_c.tobytes()


def test_symmetrize_and_check():
    rng = np.random.default_rng(3)
    t = Tensor(rng.standard_normal((3, 3, 3)), REAL)
    assert not is_symmetric(t)
    s = symmetrize(t)
    assert is_symmetric(s)
    # symmetrization is a projection
    np.testing.assert_allclose(symmetrize(s).data, s.data, atol=1e-13)
    with pytest.raises(DimensionError):
        symmetrize(Tensor(np.ones((2, 3)), REAL))


def test_dump_load_round_trip():
    rng = np.random.default_rng(4)
    for field in (REAL, COMPLEX):
        data = rng.standard_normal((2, 3))
        if field == COMPLEX:
            data = data + 1j * rng.standard_normal((2, 3))
        t = Tensor(data, field)
        back = load_tensor(dump_tensor(t))
        assert back.field == field
        np.testing.assert_array_equal(back.data, t.data)


def test_tensor_is_immutable():
    t = Tensor(np.ones((2, 2)), REAL)
    with pytest.raises(ValueError):
        t.data[0, 0] = 5.0
