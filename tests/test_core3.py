import random

import pytest

from ringmul import (
    Matrix,
    ModularRing,
    ShapeError,
    ZZ,
    core3_times_3xm,
    matrix_from_ints,
    naive,
    random_matrix,
)
from ringmul.general import b_only_products

from conftest import run_counted

B9 = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
ONES = [[1, 1, 1], [1, 1, 1], [1, 1, 1]]


def test_shared_b_products_identity():
    assert b_only_products(*Matrix.identity(ZZ, 3).to_rows()) == (0, 0, 0)


def test_shared_b_products_all_ones():
    assert b_only_products(*ONES) == (1, 1, 1)


def test_shared_b_products_values():
    # the products b12*b21, b13*b31, b23*b32 that every row shares
    assert b_only_products(*B9) == (2 * 4, 3 * 7, 6 * 8)


def _shared_row(a, B):
    """The B-only products as a 1x3 row, so that tally can count them."""
    return Matrix(a.ring, 1, 3, list(b_only_products(*B.to_rows())))


def test_shared_b_products_tally_three():
    shared, counted = run_counted(_shared_row, [[1, 2, 3]], B9)
    assert shared.to_rows() == [[2 * 4, 3 * 7, 6 * 8]]
    assert counted.count == 3


def test_row_unit_vector_picks_first_row():
    assert core3_times_3xm(matrix_from_ints(ZZ, [[1, 0, 0]]), matrix_from_ints(ZZ, B9)).to_rows() == [[1, 2, 3]]


def test_row_against_all_ones():
    assert core3_times_3xm(matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, ONES)).to_rows() == [[6, 6, 6]]


def test_row_against_oracle():
    a, B = matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, B9)
    got = core3_times_3xm(a, B)
    assert got == naive(a, B)
    assert got.to_rows() == [[30, 36, 42]]


def test_core3_times_3xm_tally_is_6n_plus_3():
    rng = random.Random(0)
    for n in range(1, 11):
        a_rows = [[rng.randint(-99, 99) for _ in range(3)] for _ in range(n)]
        got, tally = run_counted(core3_times_3xm, a_rows, B9)
        assert tally.count == 6 * n + 3
        assert got == naive(matrix_from_ints(ZZ, a_rows), matrix_from_ints(ZZ, B9))


def test_core3_times_3xm_single_row_uses_nine_products():
    _, tally = run_counted(core3_times_3xm, [[2, -1, 5]], B9)
    assert tally.count == 9


def test_core3_times_3xm_identity_input():
    got, tally = run_counted(core3_times_3xm, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], B9)
    assert got == matrix_from_ints(ZZ, B9)
    assert tally.count == 21


def test_core3_times_3xm_shape_checks():
    with pytest.raises(ShapeError):
        core3_times_3xm(matrix_from_ints(ZZ, [[1, 2]]), matrix_from_ints(ZZ, B9))
    with pytest.raises(ShapeError):
        core3_times_3xm(matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, [[1, 2], [3, 4]]))
    with pytest.raises(ShapeError):
        core3_times_3xm(matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, [[1, 2]]))


def test_core3_times_3xm_3x3_identities():
    I = Matrix.identity(ZZ, 3)
    got, tally = run_counted(core3_times_3xm, I.to_rows(), I.to_rows())
    assert got == I
    assert tally.count == 21


def test_core3_times_3xm_3x3_all_ones():
    A = matrix_from_ints(ZZ, ONES)
    assert core3_times_3xm(A, A).to_rows() == [[3, 3, 3], [3, 3, 3], [3, 3, 3]]


def test_core3_times_3xm_3x3_random_oracle():
    rng = random.Random(1)
    for _ in range(300):
        a = [[rng.randint(-100, 100) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(-100, 100) for _ in range(3)] for _ in range(3)]
        A = matrix_from_ints(ZZ, a)
        B = matrix_from_ints(ZZ, b)
        assert core3_times_3xm(A, B) == naive(A, B)


def test_core3_over_modular_ring():
    ring = ModularRing(11)
    rng = random.Random(2)
    for _ in range(200):
        A = random_matrix(ring, 4, 3, rng)
        B = random_matrix(ring, 3, 3, rng)
        assert core3_times_3xm(A, B) == naive(A, B)
