import random

import pytest

import ringmul.baseline
import ringmul.rings
from ringmul import (
    ExactHalveUnavailable,
    IntegerRing,
    Matrix,
    Mod,
    ModularRing,
    ShapeError,
    Strategy,
    UnsupportedShape,
    ZZ,
    core3_times_3xm,
    matrix_from_ints,
    mul_odd_n,
    mul_odd_n_winograd,
    multiply,
    naive,
    predict_count,
    random_matrix,
)

from conftest import core_block_count, odd_n_count, odd_n_winograd_count, run_counted


def _random_rows(rng, r, c, span=99):
    return [[rng.randint(-span, span) for _ in range(c)] for _ in range(r)]


def test_pair_schedule_tiles_exactly():
    # the column pairs past the lead block cover every column once: each
    # width gives the textbook product at the closed-form count
    rng = random.Random(4)
    for l in (1, 3):
        for m in range(3, 13):
            a, b = _random_rows(rng, l, 3), _random_rows(rng, 3, m)
            out, tally = run_counted(core3_times_3xm, a, b)
            assert out == naive(matrix_from_ints(ZZ, a), matrix_from_ints(ZZ, b)), (l, m)
            assert tally.count == core_block_count(l, m), (l, m)


def test_core_block_count_examples():
    rng = random.Random(0)
    out, tally = run_counted(core3_times_3xm, _random_rows(rng, 1, 3), _random_rows(rng, 3, 3))
    assert tally.count == 9
    out, tally = run_counted(core3_times_3xm, _random_rows(rng, 3, 3), _random_rows(rng, 3, 4))
    assert tally.count == 28


def test_core_block_counts_over_grid():
    rng = random.Random(1)
    for l in range(1, 5):
        for m in range(3, 9):
            a = _random_rows(rng, l, 3)
            b = _random_rows(rng, 3, m)
            out, tally = run_counted(core3_times_3xm, a, b)
            assert tally.count == core_block_count(l, m)
            assert out == naive(matrix_from_ints(ZZ, a), matrix_from_ints(ZZ, b))


def test_core_block_zero_input_annihilates_and_count_unchanged():
    rng = random.Random(2)
    b = _random_rows(rng, 3, 6)
    zero, tally_zero = run_counted(core3_times_3xm, [[0, 0, 0]] * 2, b)
    assert zero == Matrix.zeros(ZZ, 2, 6)
    _, tally_rand = run_counted(core3_times_3xm, _random_rows(rng, 2, 3), b)
    assert tally_zero.count == tally_rand.count


def test_core_block_shape_errors():
    with pytest.raises(ShapeError):
        core3_times_3xm(matrix_from_ints(ZZ, [[1, 2]]), matrix_from_ints(ZZ, [[1, 2, 3]] * 2))
    with pytest.raises(ShapeError):
        core3_times_3xm(matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, [[1, 2, 3]] * 2))
    with pytest.raises(UnsupportedShape, match="width 2 must be >= 3"):
        core3_times_3xm(matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, [[1, 2], [3, 4], [5, 6]]))


def test_mul_odd_n_count_examples():
    # literal figures; test_mul_odd_n_counts_over_grid checks the closed form
    rng = random.Random(3)
    _, tally = run_counted(mul_odd_n, _random_rows(rng, 3, 3), _random_rows(rng, 3, 3))
    assert tally.count == 21
    _, tally = run_counted(mul_odd_n, _random_rows(rng, 2, 5), _random_rows(rng, 5, 3))
    assert tally.count == 25
    _, tally = run_counted(mul_odd_n, _random_rows(rng, 3, 3), _random_rows(rng, 3, 4))
    assert tally.count == 28


def test_mul_odd_n_counts_over_grid():
    rng = random.Random(4)
    for n in (3, 5, 7):
        for l in range(1, 5):
            for m in range(3, 8):
                a = _random_rows(rng, l, n)
                b = _random_rows(rng, n, m)
                _, tally = run_counted(mul_odd_n, a, b)
                assert tally.count == odd_n_count(l, n, m), (l, n, m)


def test_mul_odd_n_matches_naive_everywhere():
    # 200 random integer inputs per supported shape with 6 <= l <= 8 and
    # m <= 8; acceptance criterion 6 runs l <= 5
    ring = IntegerRing()
    for n in (3, 5, 7, 9):
        for l in range(6, 9):
            for m in range(3, 9):
                rng = random.Random(f"general:{l}:{n}:{m}")
                for _ in range(200):
                    A = random_matrix(ring, l, n, rng)
                    B = random_matrix(ring, n, m, rng)
                    assert mul_odd_n(A, B) == naive(A, B)


def test_mul_odd_n_rejects_unsupported_shapes():
    with pytest.raises(UnsupportedShape):
        mul_odd_n(matrix_from_ints(ZZ, [[1, 2, 3, 4]]), matrix_from_ints(ZZ, [[1, 2, 3]] * 4))
    with pytest.raises(UnsupportedShape):
        mul_odd_n(matrix_from_ints(ZZ, [[1]]), matrix_from_ints(ZZ, [[1, 2, 3]]))
    with pytest.raises(UnsupportedShape):
        mul_odd_n(matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, [[1], [2], [3]]))
    with pytest.raises(ShapeError):
        mul_odd_n(matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, [[1, 2, 3]] * 5))


def test_mul_odd_n_without_halving():
    # n = 3 never halves, so even moduli are fine there; n = 5 needs the
    # capability and must refuse rather than compute something wrong
    ring = ModularRing(6)
    rng = random.Random(5)
    A = random_matrix(ring, 2, 3, rng)
    B = random_matrix(ring, 3, 4, rng)
    assert mul_odd_n(A, B) == naive(A, B)
    A5 = random_matrix(ring, 2, 5, rng)
    B5 = random_matrix(ring, 5, 4, rng)
    with pytest.raises(ExactHalveUnavailable):
        mul_odd_n(A5, B5)


def test_mul_odd_n_over_odd_modulus():
    ring = ModularRing(101)
    rng = random.Random(6)
    for l, n, m in [(2, 5, 3), (3, 7, 4), (1, 9, 5)]:
        A = random_matrix(ring, l, n, rng)
        B = random_matrix(ring, n, m, rng)
        assert mul_odd_n(A, B) == naive(A, B)


def test_count_beats_or_ties_odd_waksman():
    # strict improvement needs l >= 2: the gap is (l-1)(m-1)/2 for odd m
    # and (l-1)(m-2)/2 for even m, so single-row products tie exactly
    for n in (3, 5, 7, 9):
        for l in range(1, 9):
            for m in range(3, 9):
                ours = predict_count(Strategy.GENERAL_ODD, l, n, m)
                wak = predict_count(Strategy.WAKSMAN_ODD, l, n, m)
                gap = (l - 1) * (m - 1) // 2 if m % 2 else (l - 1) * (m - 2) // 2
                assert wak - ours == gap, (l, n, m)
                if l >= 2:
                    assert ours < wak
                else:
                    assert ours == wak


def test_mul_odd_n_winograd_counts_and_values_over_grid():
    rng = random.Random(7)
    for n in (3, 5, 7, 9):
        for l in range(1, 6):
            for m in range(3, 8):
                a = _random_rows(rng, l, n)
                b = _random_rows(rng, n, m)
                out, tally = run_counted(mul_odd_n_winograd, a, b)
                assert tally.count == odd_n_winograd_count(l, n, m), (l, n, m)
                assert out == naive(matrix_from_ints(ZZ, a), matrix_from_ints(ZZ, b))


def test_mul_odd_n_winograd_shares_the_shape_checks():
    with pytest.raises(UnsupportedShape):
        mul_odd_n_winograd(matrix_from_ints(ZZ, [[1, 2, 3, 4]]), matrix_from_ints(ZZ, [[1, 2, 3]] * 4))
    with pytest.raises(UnsupportedShape):
        mul_odd_n_winograd(matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, [[1], [2], [3]]))
    with pytest.raises(ShapeError):
        mul_odd_n_winograd(matrix_from_ints(ZZ, [[1, 2, 3]]), matrix_from_ints(ZZ, [[1, 2, 3]] * 5))


@pytest.mark.parametrize("modulus", [2, 4, 2**64])
def test_mul_odd_n_winograd_never_halves(monkeypatch, modulus):
    # Z/2^k has no exact halving; the schedule must not reach for it
    def refuse(*args):
        raise AssertionError("exact halving in the halving-free schedule")

    monkeypatch.setattr(ringmul.baseline, "halve_exact", refuse)
    monkeypatch.setattr(ringmul.rings, "halve_exact", refuse)
    monkeypatch.setattr(Mod, "halve", refuse)
    ring = ModularRing(modulus)
    rng = random.Random(modulus)
    for l, n, m in [(1, 5, 3), (2, 5, 4), (3, 7, 5), (16, 15, 16)]:
        A = random_matrix(ring, l, n, rng)
        B = random_matrix(ring, n, m, rng)
        want = naive(A, B)
        assert mul_odd_n_winograd(A, B) == want
        product, report = multiply(A, B, Strategy.GENERAL_WINOGRAD)
        assert product == want
        assert report.predicted == odd_n_winograd_count(l, n, m)
