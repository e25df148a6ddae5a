import pytest

from ringmul import ZZ, Mat2Ring, Matrix, Strategy, dispatch, matrix_from_ints, naive, tally

# Frozen regression fixture: 3x3 matrices over 2x2 integer matrices on
# which the 21-multiplication schedule disagrees with the textbook
# product (found by the seeded search in ringmul.verify, seed 0).
WITNESS_A = (
    ((1, 1, -2, 0), (2, 1, 1, 0), (1, 0, 2, -1)),
    ((2, -1, 0, -1), (-2, 2, 0, 2), (2, -1, 0, -2)),
    ((-2, 0, 1, 2), (-2, 0, 1, 0), (2, -1, 2, 1)),
)
WITNESS_B = (
    ((1, 2, 0, -2), (2, -2, -2, 1), (-2, 2, 1, 0)),
    ((-1, 0, -2, -1), (2, -1, -1, -1), (2, 1, -2, -2)),
    ((0, 2, 1, -2), (0, 2, 0, -2), (2, 0, 2, -1)),
)


def mat2_matrix(ring, rows):
    return Matrix.from_rows(ring, [[Matrix(ZZ, 2, 2, e) for e in r] for r in rows])


@pytest.fixture
def frozen_noncommutative_pair():
    ring = Mat2Ring()
    return mat2_matrix(ring, WITNESS_A), mat2_matrix(ring, WITNESS_B)


# The paper's multiplication counts, written once for the tests that
# check a tally against them (test_acceptance.py, test_general.py).


def odd_n_count(l, n, m):
    """mul_odd_n, l x n times n x m, n odd >= 3, m >= 3."""
    s = l * m + l + m - 1
    return n * s // 2 if m % 2 else (n * s + l - 1) // 2


def core_block_count(l, m):
    """core3_times_3xm, l x 3 times 3 x m, m >= 3."""
    if m % 2:
        return 3 * (l * m + l + m - 1) // 2
    return 2 * (l - 1) + 3 * (l * m + m) // 2


def odd_n_winograd_count(l, n, m):
    """mul_odd_n_winograd: the core block plus Winograd's remainder."""
    return core_block_count(l, m) + (n - 3) * (l * m + l + m) // 2


def run_counted(kernel, a_rows, b_rows):
    """tally of kernel on integer rows: (product over ZZ, the run's CountedRing)."""
    return tally(kernel, matrix_from_ints(ZZ, a_rows), matrix_from_ints(ZZ, b_rows))


@pytest.fixture
def naive_with_constant_b11(monkeypatch):
    """The naive row's kernel reading the constant 1 where b11 should be:
    it spends naive's multiplications, additions and halvings, but l of
    its multiplications consume a constant."""

    def kernel(A, B):
        return naive(A, Matrix(B.ring, B.rows, B.cols, [B.ring.from_int(1), *B.data[1:]]))

    row = dispatch._TABLE[Strategy.NAIVE]
    monkeypatch.setitem(dispatch._TABLE, Strategy.NAIVE, row._replace(kernel=kernel))
