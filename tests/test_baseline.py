import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ringmul import baseline, general
from ringmul import (
    Counted,
    CountedRing,
    ExactHalveUnavailable,
    IntegerRing,
    Matrix,
    ModularRing,
    PolynomialRing,
    ShapeError,
    UnsupportedShape,
    ZZ,
    core3_times_3xm,
    halve_exact,
    matrix_from_ints,
    multiply,
    mul_odd_n,
    mul_odd_n_winograd,
    naive,
    random_matrix,
    tally,
    waksman_even,
    waksman_odd,
    winograd_even,
)

from conftest import run_counted


def _reference_rows(a_rows, b_rows):
    # hand-rolled textbook product, kept independent of the package code
    l, n, m = len(a_rows), len(b_rows), len(b_rows[0])
    return [
        [sum(a_rows[i][k] * b_rows[k][j] for k in range(n)) for j in range(m)]
        for i in range(l)
    ]


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
    _, tally = run_counted(naive, [[1, 2], [3, 4]], [[5, 6], [7, 8]])
    assert tally.count == 8


def test_naive_row_example():
    # hand expansion of (1,2,3) against the 1..9 square
    out, _ = run_counted(naive, [[1, 2, 3]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert out.to_rows() == [[30, 36, 42]]


def test_naive_inner_mismatch():
    with pytest.raises(ShapeError):
        naive(matrix_from_ints(ZZ, [[1, 2]]), matrix_from_ints(ZZ, [[1, 2]]))


def test_winograd_tally_and_value_222():
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [7, 8]]
    out, tally = run_counted(winograd_even, a, b)
    assert out.to_rows() == _reference_rows(a, b)
    assert tally.count == 2 * (4 + 2 + 2) // 2 == 8


def test_winograd_identity_n2():
    B = matrix_from_ints(ZZ, [[9, -3], [4, 7]])
    assert winograd_even(Matrix.identity(ZZ, 2), B) == B


def test_winograd_343():
    rng = random.Random(7)
    a = [[rng.randint(-99, 99) for _ in range(4)] for _ in range(3)]
    b = [[rng.randint(-99, 99) for _ in range(3)] for _ in range(4)]
    out, tally = run_counted(winograd_even, a, b)
    assert out.to_rows() == _reference_rows(a, b)
    assert tally.count == 4 * (9 + 3 + 3) // 2 == 30


def test_winograd_rejects_odd_inner():
    with pytest.raises(UnsupportedShape):
        winograd_even(matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, [[1], [2], [3]]))


def test_waksman_even_tally_222():
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [7, 8]]
    out, tally = run_counted(waksman_even, a, b)
    assert out.to_rows() == _reference_rows(a, b)
    assert tally.count == 2 * (4 + 2 + 2 - 1) // 2 == 7


def test_waksman_even_tally_343():
    rng = random.Random(8)
    a = [[rng.randint(-99, 99) for _ in range(4)] for _ in range(3)]
    b = [[rng.randint(-99, 99) for _ in range(3)] for _ in range(4)]
    out, tally = run_counted(waksman_even, a, b)
    assert out.to_rows() == _reference_rows(a, b)
    assert tally.count == 4 * (9 + 3 + 3 - 1) // 2 == 28


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
    product, counted = tally(waksman_even, A, B)
    # one halving per sign-split sum: l for column 1, m - 1 for row 1, two each
    assert counted.halvings == 2 * (l + m - 1)
    assert product == naive(A, B)


def test_waksman_even_rejects_odd_inner():
    with pytest.raises(UnsupportedShape):
        waksman_even(matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, [[1], [2], [3]]))


def test_waksman_odd_333():
    rng = random.Random(10)
    a = [[rng.randint(-99, 99) for _ in range(3)] for _ in range(3)]
    b = [[rng.randint(-99, 99) for _ in range(3)] for _ in range(3)]
    out, tally = run_counted(waksman_odd, a, b)
    assert out.to_rows() == _reference_rows(a, b)
    assert tally.count == 2 * (9 + 3 + 3 - 1) // 2 + 9 == 23


def test_waksman_odd_scalar():
    out, tally = run_counted(waksman_odd, [[7]], [[6]])
    assert out.to_rows() == [[42]]
    assert tally.count == 1


def test_waksman_odd_353():
    rng = random.Random(11)
    a = [[rng.randint(-99, 99) for _ in range(5)] for _ in range(3)]
    b = [[rng.randint(-99, 99) for _ in range(3)] for _ in range(5)]
    out, tally = run_counted(waksman_odd, a, b)
    assert out.to_rows() == _reference_rows(a, b)
    assert tally.count == 4 * (9 + 3 + 3 - 1) // 2 + 9 == 37


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
            _, t_wak = run_counted(waksman_even, a, b)
            _, t_win = run_counted(winograd_even, a, b)
            assert t_win.count - t_wak.count == n // 2


def _op_tally(kernel, l, n, m, seed=0):
    rng = random.Random(seed)
    A, B = random_matrix(ZZ, l, n, rng), random_matrix(ZZ, n, m, rng)
    product, counted = tally(kernel, A, B)
    assert product == naive(A, B)
    return counted.count, counted.adds, counted.halvings


# The kernels' cost forms live in dispatch._TABLE alone, and
# test_verify.py audits them on every schedule case; these literal
# tallies check the forms against figures stated by hand.
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


README = Path(__file__).resolve().parents[1] / "README.md"


def test_documented_addition_figures_are_counted():
    # README's tie-order note: where naive ties a schedule on
    # multiplications, it spends fewer additions and never halves
    readme = " ".join(README.read_text(encoding="utf-8").split())
    for rival, name, (l, n, m) in [(waksman_odd, "waksman-odd", (2, 5, 1)), (mul_odd_n, "general", (1, 15, 16))]:
        muls, adds, halvings = _op_tally(naive, l, n, m)
        rival_muls, rival_adds, rival_halvings = _op_tally(rival, l, n, m)
        assert (rival_muls, halvings) == (muls, 0)
        stated = f"{adds} against {rival_adds} additions and {rival_halvings} halvings at {l}×{n}×{m}"
        assert f"{stated} (against `{name}`, {muls} multiplications each)" in readme
    # general.py: the lead block at l x 3 x 16 spends 84 additions on B
    # plus 98 per row, 1652 at l = 16
    assert "84 additions on B plus 98 per row" in " ".join(general.__doc__.split())
    for l in (1, 2, 16):
        assert _op_tally(core3_times_3xm, l, 3, 16)[1:] == (84 + 98 * l, 0)


def _reference_fold(kind, a, b):
    """The loop each generated fold replaces: one left fold per sum, term
    by term; a sign split also halves its difference and its sum."""
    if kind == "dot":
        total = a[0] * b[0]
        for x, y in zip(a[1:], b[1:]):
            total = total + x * y
        return total
    x, y, u, v = a[0::2], a[1::2], b[1::2], b[0::2]
    plus = (x[0] + u[0]) * (y[0] + v[0])
    for k in range(1, len(x)):
        plus = plus + (x[k] + u[k]) * (y[k] + v[k])
    if kind == "paired":
        return plus
    minus = (x[0] - u[0]) * (y[0] - v[0])
    for k in range(1, len(x)):
        minus = minus + (x[k] - u[k]) * (y[k] - v[k])
    return halve_exact(plus - minus), halve_exact(plus + minus)


def _generated_fold(kind, a, b):
    terms = len(a) // baseline._KINDS[kind][0]
    fold, split = baseline._fold(kind, terms)
    if kind == "sign_split":
        return baseline._sign_split(fold, split(a), split(b))
    return fold(split(a), split(b))


#: The longest fold the property test runs, in terms: two full blocks
#: and a three-term head.
LONGEST_FOLD = 2 * baseline.FOLD_CAP + 3
#: Entries of one side of that fold, two per term for the paired kinds.
_FOLD_ENTRIES = st.lists(st.integers(-(2**70), 2**70), min_size=2 * LONGEST_FOLD, max_size=2 * LONGEST_FOLD)


@pytest.mark.parametrize("kind", ["dot", "paired", "sign_split"])
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.large_base_example])
@given(left=_FOLD_ENTRIES, right=_FOLD_ENTRIES)
def test_generated_folds_match_the_left_fold(kind, left, right):
    # every length up to two blocks and a short head past the cap, over
    # ints and over the counting element: same value, same tally
    width = baseline._KINDS[kind][0]
    for terms in range(1, LONGEST_FOLD + 1):
        a, b = left[: width * terms], right[: width * terms]
        assert _generated_fold(kind, a, b) == _reference_fold(kind, a, b)
        tallies, values = [], []
        for fold in (_generated_fold, _reference_fold):
            ctx = CountedRing(ZZ)
            lifted = [[Counted(ctx, v, True) for v in side] for side in (a, b)]
            values.append(fold(kind, *lifted))
            tallies.append((ctx.count, ctx.adds, ctx.halvings))
        assert values[0] == values[1]
        assert tallies[0] == tallies[1], (kind, terms)


def test_generated_code_stays_bounded_on_long_folds():
    baseline._FOLDS.clear()
    rng = random.Random(13)
    for l, n, m in [(1, 4097, 1), (2, 4096, 3)]:
        A = random_matrix(ZZ, l, n, rng)
        B = random_matrix(ZZ, n, m, rng)
        product, _ = multiply(A, B)
        assert product.to_rows() == _reference_rows(A.to_rows(), B.to_rows())
    assert any(terms == baseline.FOLD_CAP and carry for _, terms, carry in baseline._FOLDS)
    for (kind, terms, carry), fold in baseline._FOLDS.items():
        # two unpacked entries per term and side at most, plus the sums carried in
        assert terms <= baseline.FOLD_CAP
        assert fold.__code__.co_nlocals <= 4 * baseline.FOLD_CAP + 5
