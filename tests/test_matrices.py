import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringmul import Matrix, ModularRing, NotEvenlyDivisible, ShapeError, ZZ, matrix_from_ints, naive, random_matrix


def test_row_major_layout():
    M = matrix_from_ints(ZZ, [[1, 2, 3], [4, 5, 6]])
    assert M.shape == (2, 3)
    assert M[0, 0] == 1 and M[0, 2] == 3 and M[1, 0] == 4
    assert M.row_list(1) == [4, 5, 6]
    assert M.to_rows() == [[1, 2, 3], [4, 5, 6]]
    assert M.data == [1, 2, 3, 4, 5, 6]


def test_constructor_validates_length():
    with pytest.raises(ShapeError):
        Matrix(ZZ, 2, 2, [1, 2, 3])
    with pytest.raises(ShapeError):
        Matrix(ZZ, 0, 2, [])
    with pytest.raises(ShapeError):
        Matrix(ZZ, 2, -1, [])


def test_from_rows_rejects_ragged():
    with pytest.raises(ShapeError):
        Matrix.from_rows(ZZ, [[1, 2], [3]])
    with pytest.raises(ShapeError):
        Matrix.from_rows(ZZ, [])


def test_identity_and_zeros():
    I = Matrix.identity(ZZ, 3)
    assert I.to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    Z = Matrix.zeros(ZZ, 2, 3)
    assert Z.to_rows() == [[0, 0, 0], [0, 0, 0]]


def test_add_entrywise():
    X = matrix_from_ints(ZZ, [[1, 2], [3, 4]])
    Y = matrix_from_ints(ZZ, [[10, 20], [30, 40]])
    assert (X + Y).to_rows() == [[11, 22], [33, 44]]


def test_add_identities():
    X = matrix_from_ints(ZZ, [[1, -2], [3, 4]])
    zero = Matrix.zeros(ZZ, 2, 2)
    assert X + zero == X
    assert X + X.map_entries(lambda v: -v) == zero


def test_add_shape_mismatch():
    X = matrix_from_ints(ZZ, [[1, 2]])
    Y = matrix_from_ints(ZZ, [[1], [2]])
    with pytest.raises(ShapeError):
        X + Y


def test_sub_and_neg_entrywise():
    X = matrix_from_ints(ZZ, [[1, -2], [3, 4]])
    Y = matrix_from_ints(ZZ, [[10, 20], [30, 40]])
    assert (Y - X).to_rows() == [[9, 22], [27, 36]]
    assert (-X).to_rows() == [[-1, 2], [-3, -4]]
    assert X - X == Matrix.zeros(ZZ, 2, 2) == X + (-X)
    with pytest.raises(ShapeError, match="cannot subtract 1x2 and 2x1"):
        matrix_from_ints(ZZ, [[1, 2]]) - matrix_from_ints(ZZ, [[1], [2]])


def test_halve_entrywise():
    X = matrix_from_ints(ZZ, [[2, -4, 0], [6, 8, -10]])
    assert X.halve().to_rows() == [[1, -2, 0], [3, 4, -5]]
    assert matrix_from_ints(ModularRing(7), [[3]]).halve()[0, 0].value == 5
    with pytest.raises(NotEvenlyDivisible):
        matrix_from_ints(ZZ, [[2, 3]]).halve()


def test_mul_is_the_textbook_product():
    rng = random.Random(3)
    for l, n, m in ((1, 1, 1), (2, 3, 4), (3, 3, 3), (4, 1, 2)):
        A, B = random_matrix(ZZ, l, n, rng), random_matrix(ZZ, n, m, rng)
        assert A * B == naive(A, B)
    X = matrix_from_ints(ZZ, [[1, 2], [3, 4]])
    assert (X * X).to_rows() == [[7, 10], [15, 22]]
    with pytest.raises(ShapeError):
        X * matrix_from_ints(ZZ, [[1, 2, 3]])


def test_operators_refuse_operands_that_are_not_matrices():
    X = matrix_from_ints(ZZ, [[1, 2], [3, 4]])
    for op in (lambda: X * 3, lambda: 3 * X, lambda: X + 1, lambda: X - 1):
        with pytest.raises(TypeError):
            op()


def test_slices():
    M = matrix_from_ints(ZZ, [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]])
    assert M.slice_rows(1, 3).to_rows() == [[5, 6, 7, 8], [9, 10, 11, 12]]
    assert M.slice_cols(1, 3).to_rows() == [[2, 3], [6, 7], [10, 11]]
    with pytest.raises(ShapeError):
        M.slice_rows(2, 2)
    with pytest.raises(ShapeError):
        M.slice_cols(3, 5)


def test_equality_requires_shape_and_entries():
    X = matrix_from_ints(ZZ, [[1, 2], [3, 4]])
    assert X == matrix_from_ints(ZZ, [[1, 2], [3, 4]])
    assert X != matrix_from_ints(ZZ, [[1, 2, 3, 4]])
    assert X != matrix_from_ints(ZZ, [[1, 2], [3, 5]])


def test_matrix_from_ints_reduces_through_ring():
    ring = ModularRing(5)
    M = matrix_from_ints(ring, [[7, -1]])
    assert M[0, 0].value == 2
    assert M[0, 1].value == 4


def test_random_matrix_shape_and_determinism():
    a = random_matrix(ZZ, 3, 4, random.Random(11))
    b = random_matrix(ZZ, 3, 4, random.Random(11))
    assert a.shape == (3, 4)
    assert a == b


_MATRICES = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(st.integers(-99, 99), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
        lambda data: Matrix(ZZ, shape[0], shape[1], data)
    )
)


@given(_MATRICES)
def test_transpose_is_an_involution(M):
    assert M.transpose().transpose() == M


@given(_MATRICES)
def test_transpose_swaps_shape_and_entries(M):
    T = M.transpose()
    assert T.shape == (M.cols, M.rows)
    assert T.ring is M.ring
    for i in range(M.rows):
        for j in range(M.cols):
            assert T[j, i] == M[i, j]


def test_transpose_performs_no_ring_operation():
    # entries with no operators at all: the transpose only moves them
    entries = [object() for _ in range(6)]
    T = Matrix(ZZ, 2, 3, entries).transpose()
    assert T.shape == (3, 2)
    assert [id(v) for v in T.data] == [id(entries[k]) for k in (0, 3, 1, 4, 2, 5)]
