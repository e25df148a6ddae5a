import random

import pytest

from ringmul import (
    CountedRing,
    ExactHalveUnavailable,
    IntegerRing,
    Matrix,
    ModularRing,
    PolynomialRing,
    Ring,
    ShapeError,
    UnsupportedShape,
    ZZ,
    halve_exact,
    matrix_from_ints,
    mul_odd_n,
    mul_odd_n_winograd,
    naive,
    random_matrix,
    waksman_even,
    waksman_odd,
    winograd_even,
)


def _reference_rows(a_rows, b_rows):
    # hand-rolled textbook product, kept independent of the package code
    l, n, m = len(a_rows), len(b_rows), len(b_rows[0])
    return [
        [sum(a_rows[i][k] * b_rows[k][j] for k in range(n)) for j in range(m)]
        for i in range(l)
    ]


def _counted(kernel, a_rows, b_rows):
    """Run a kernel over instrumented integers; returns (rows, tally)."""
    ctx = CountedRing(IntegerRing())
    A = ctx.lift(matrix_from_ints(ZZ, a_rows))
    B = ctx.lift(matrix_from_ints(ZZ, b_rows))
    out = ctx.unwrap(kernel(A, B))
    return out.to_rows(), ctx.tally.count


def test_naive_matches_reference():
    rng = random.Random(4)
    for l, n, m in [(1, 1, 1), (2, 3, 4), (4, 2, 5), (3, 3, 3)]:
        a = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(l)]
        b = [[rng.randint(-50, 50) for _ in range(m)] for _ in range(n)]
        assert naive(matrix_from_ints(ZZ, a), matrix_from_ints(ZZ, b)).to_rows() == _reference_rows(a, b)


def test_naive_identity():
    B = matrix_from_ints(ZZ, [[1, 2], [3, 4]])
    assert naive(Matrix.identity(ZZ, 2), B) == B


def test_naive_tally_lnm():
    _, tally = _counted(naive, [[1, 2], [3, 4]], [[5, 6], [7, 8]])
    assert tally == 8


def test_naive_row_example():
    # hand expansion of (1,2,3) against the 1..9 square
    rows, _ = _counted(naive, [[1, 2, 3]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert rows == [[30, 36, 42]]


def test_naive_inner_mismatch():
    with pytest.raises(ShapeError):
        naive(matrix_from_ints(ZZ, [[1, 2]]), matrix_from_ints(ZZ, [[1, 2]]))


def test_winograd_tally_and_value_222():
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [7, 8]]
    rows, tally = _counted(winograd_even, a, b)
    assert rows == _reference_rows(a, b)
    assert tally == 2 * (4 + 2 + 2) // 2 == 8


def test_winograd_identity_n2():
    B = matrix_from_ints(ZZ, [[9, -3], [4, 7]])
    assert winograd_even(Matrix.identity(ZZ, 2), B) == B


def test_winograd_343():
    rng = random.Random(7)
    a = [[rng.randint(-99, 99) for _ in range(4)] for _ in range(3)]
    b = [[rng.randint(-99, 99) for _ in range(3)] for _ in range(4)]
    rows, tally = _counted(winograd_even, a, b)
    assert rows == _reference_rows(a, b)
    assert tally == 4 * (9 + 3 + 3) // 2 == 30


def test_winograd_rejects_odd_inner():
    with pytest.raises(UnsupportedShape):
        winograd_even(matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, [[1], [2], [3]]))


def test_waksman_even_tally_222():
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [7, 8]]
    rows, tally = _counted(waksman_even, a, b)
    assert rows == _reference_rows(a, b)
    assert tally == 2 * (4 + 2 + 2 - 1) // 2 == 7


def test_waksman_even_tally_343():
    rng = random.Random(8)
    a = [[rng.randint(-99, 99) for _ in range(4)] for _ in range(3)]
    b = [[rng.randint(-99, 99) for _ in range(3)] for _ in range(4)]
    rows, tally = _counted(waksman_even, a, b)
    assert rows == _reference_rows(a, b)
    assert tally == 4 * (9 + 3 + 3 - 1) // 2 == 28


def test_waksman_even_identity():
    I = Matrix.identity(ZZ, 2)
    assert waksman_even(I, I) == I


def test_waksman_even_needs_halving():
    ring = ModularRing(6)
    A = matrix_from_ints(ring, [[1, 2], [3, 4]])
    with pytest.raises(ExactHalveUnavailable):
        waksman_even(A, A)


def test_waksman_even_odd_modulus_ok():
    ring = ModularRing(101)
    rng = random.Random(9)
    A = random_matrix(ring, 2, 4, rng)
    B = random_matrix(ring, 4, 2, rng)
    assert waksman_even(A, B) == naive(A, B)


class _OpTally(Ring):
    """Wraps a base ring; its elements count here each ``*``, each
    ``+``/``-``/unary minus, and each exact halving."""

    supports_halving = True

    def __init__(self, base):
        self.name = f"tally({base.name})"
        self.muls = self.adds = self.halvings = 0

    def lift(self, M):
        return M.map_entries(lambda v: _Tallied(self, v), ring=self)


class _Tallied:
    __slots__ = ("ring", "v")

    def __init__(self, ring, v):
        self.ring = ring
        self.v = v

    def __add__(self, o):
        self.ring.adds += 1
        return _Tallied(self.ring, self.v + o.v)

    def __sub__(self, o):
        self.ring.adds += 1
        return _Tallied(self.ring, self.v - o.v)

    def __mul__(self, o):
        self.ring.muls += 1
        return _Tallied(self.ring, self.v * o.v)

    def __neg__(self):
        self.ring.adds += 1
        return _Tallied(self.ring, -self.v)

    def halve(self):
        self.ring.halvings += 1
        return _Tallied(self.ring, halve_exact(self.v))


@pytest.mark.parametrize("l,n,m", [(3, 6, 4), (1, 4, 5), (5, 2, 1)])
@pytest.mark.parametrize(
    "base",
    [IntegerRing(), ModularRing(2**61 - 1), PolynomialRing(["x", "y", "z"])],
    ids=["int", "mod-odd", "poly"],
)
def test_waksman_even_halves_each_sum_once(base, l, n, m):
    rng = random.Random(l * 100 + n * 10 + m)
    A = random_matrix(base, l, n, rng)
    B = random_matrix(base, n, m, rng)
    tally = _OpTally(base)
    product = waksman_even(tally.lift(A), tally.lift(B))
    # one halving per sign-split sum: l for column 1, m - 1 for row 1, two each
    assert tally.halvings == 2 * (l + m - 1)
    assert [e.v for e in product.data] == naive(A, B).data


def test_waksman_even_rejects_odd_inner():
    with pytest.raises(UnsupportedShape):
        waksman_even(matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, [[1], [2], [3]]))


def test_waksman_odd_333():
    rng = random.Random(10)
    a = [[rng.randint(-99, 99) for _ in range(3)] for _ in range(3)]
    b = [[rng.randint(-99, 99) for _ in range(3)] for _ in range(3)]
    rows, tally = _counted(waksman_odd, a, b)
    assert rows == _reference_rows(a, b)
    assert tally == 2 * (9 + 3 + 3 - 1) // 2 + 9 == 23


def test_waksman_odd_scalar():
    rows, tally = _counted(waksman_odd, [[7]], [[6]])
    assert rows == [[42]]
    assert tally == 1


def test_waksman_odd_353():
    rng = random.Random(11)
    a = [[rng.randint(-99, 99) for _ in range(5)] for _ in range(3)]
    b = [[rng.randint(-99, 99) for _ in range(3)] for _ in range(5)]
    rows, tally = _counted(waksman_odd, a, b)
    assert rows == _reference_rows(a, b)
    assert tally == 4 * (9 + 3 + 3 - 1) // 2 + 9 == 37


def test_waksman_odd_rejects_even_inner():
    with pytest.raises(UnsupportedShape):
        waksman_odd(matrix_from_ints(ZZ, [[1, 2]]), matrix_from_ints(ZZ, [[1], [2]]))


def test_baselines_agree_with_naive_on_grid():
    # 200 random integer inputs per shape; also exercises every halving
    # inside waksman on integer inputs (a raise would fail the test)
    ring = IntegerRing()
    for n in range(1, 9):
        kernels = [waksman_odd] if n % 2 else [winograd_even, waksman_even]
        for l in range(1, 7):
            for m in range(1, 7):
                rng = random.Random(f"baseline:{l}:{n}:{m}")
                for _ in range(200):
                    A = random_matrix(ring, l, n, rng)
                    B = random_matrix(ring, n, m, rng)
                    want = naive(A, B)
                    for kernel in kernels:
                        assert kernel(A, B) == want


def test_waksman_saves_half_n_over_winograd():
    rng = random.Random(12)
    for n in (2, 4, 6, 8):
        for l, m in [(1, 1), (2, 3), (4, 4)]:
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(l)]
            b = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
            _, t_wak = _counted(waksman_even, a, b)
            _, t_win = _counted(winograd_even, a, b)
            assert t_win - t_wak == n // 2


def _op_tally(kernel, l, n, m, seed=0):
    rng = random.Random(seed)
    A = random_matrix(ZZ, l, n, rng)
    B = random_matrix(ZZ, n, m, rng)
    tally = _OpTally(ZZ)
    product = kernel(tally.lift(A), tally.lift(B))
    assert [e.v for e in product.data] == naive(A, B).data
    return tally.muls, tally.adds, tally.halvings


@pytest.mark.parametrize("l,n,m", [(1, 1, 1), (3, 4, 5), (16, 15, 16), (16, 12, 16)])
def test_naive_spends_lm_n_minus_1_additions(l, n, m):
    assert _op_tally(naive, l, n, m) == (l * n * m, l * m * (n - 1), 0)


@pytest.mark.parametrize("l,n,m", [(1, 2, 1), (3, 4, 5), (16, 12, 16), (2, 8, 7)])
def test_winograd_even_addition_count(l, n, m):
    h = n // 2
    adds = (l + m) * (h - 1) + l * m * (3 * h + 1)
    assert _op_tally(winograd_even, l, n, m) == (n * (l * m + l + m) // 2, adds, 0)


@pytest.mark.parametrize("l,n,m", [(1, 2, 1), (1, 4, 5), (3, 4, 5), (16, 12, 16), (2, 8, 7)])
def test_waksman_even_addition_count(l, n, m):
    # 6h per sign split, 3h + 1 per remaining entry, and u_j - t_1 once per column
    h = n // 2
    adds = 6 * h * (l + m - 1) + (l - 1) * (m - 1) * (3 * h + 1) + (m - 1) * (l > 1)
    assert _op_tally(waksman_even, l, n, m) == (n * (l * m + l + m - 1) // 2, adds, 2 * (l + m - 1))


@pytest.mark.parametrize(
    "kernel,shape,tally",
    [
        (waksman_even, (16, 12, 16), (1722, 5406, 62)),
        (waksman_even, (3, 4, 5), (44, 144, 14)),
        (mul_odd_n, (16, 15, 16), (2160, 7314, 62)),
        (mul_odd_n_winograd, (16, 15, 16), (2166, 6932, 0)),
        (waksman_odd, (3, 5, 4), (48, 129, 12)),
        (waksman_odd, (16, 15, 2), (375, 1077, 34)),
    ],
    ids=[
        "waksman_even-16x12x16",
        "waksman_even-3x4x5",
        "general-16x15x16",
        "general-winograd-16x15x16",
        "waksman_odd-3x5x4",
        "waksman_odd-16x15x2",
    ],
)
def test_operation_tallies_are_pinned(kernel, shape, tally):
    # muls, adds and halvings of one product; the schedules are
    # straight-line programs, so these depend on the shape alone
    assert _op_tally(kernel, *shape) == tally
