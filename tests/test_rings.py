import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringmul import (
    Counted,
    CountedRing,
    ExactHalveUnavailable,
    IntegerRing,
    Mat2Ring,
    Matrix,
    Mod,
    ModularRing,
    NotEvenlyDivisible,
    PolynomialRing,
    ZZ,
    core3_times_3xm,
    halve_exact,
    matrix_from_ints,
    naive,
    random_matrix,
    ring_axiom_check,
    tally,
)


def test_halve_exact_integers():
    assert halve_exact(4) == 2
    assert halve_exact(-6) == -3
    assert halve_exact(0) == 0


def test_halve_exact_odd_integer_rejected():
    with pytest.raises(NotEvenlyDivisible):
        halve_exact(3)


def test_halve_exact_mod7_matches_brute_force():
    # oracle: the y in 0..6 with y + y = 3 (mod 7), found by enumeration
    candidates = [y for y in range(7) if (2 * y) % 7 == 3]
    assert candidates == [5]
    assert halve_exact(Mod(3, 7)) == Mod(5, 7)


def test_halve_exact_every_residue_odd_modulus():
    for p in (3, 7, 101):
        for v in range(p):
            y = halve_exact(Mod(v, p))
            assert y + y == Mod(v, p)


def test_halve_unavailable_even_modulus():
    with pytest.raises(ExactHalveUnavailable):
        halve_exact(Mod(2, 6))


def test_halving_capability_flags():
    assert IntegerRing().supports_halving
    assert ModularRing(7).supports_halving
    assert not ModularRing(6).supports_halving
    assert CountedRing(ModularRing(6)).supports_halving is False
    assert CountedRing(IntegerRing()).supports_halving is True


def test_mat2_halve():
    assert halve_exact(Matrix(ZZ, 2, 2, [2, 4, -6, 0])) == Matrix(ZZ, 2, 2, [1, 2, -3, 0])
    with pytest.raises(NotEvenlyDivisible):
        halve_exact(Matrix(ZZ, 2, 2, [2, 3, 4, 6]))


def test_mat2_elements_are_2x2_matrices_over_zz():
    ring = Mat2Ring()
    assert ring.zero() == Matrix(ZZ, 2, 2, [0, 0, 0, 0])
    assert ring.one() == Matrix(ZZ, 2, 2, [1, 0, 0, 1])
    assert ring.from_int(-3) == Matrix(ZZ, 2, 2, [-3, 0, 0, -3])
    x = ring.random_element(random.Random(5))
    assert x.ring is ZZ and x.shape == (2, 2)
    assert x * ring.one() == x == ring.one() * x


NOT_INTEGERS = [7.9, 7.0, "7", Fraction(15, 2)]
NOT_INTEGER_IDS = ["float", "integral-float", "str", "Fraction"]


@pytest.mark.parametrize("ring", [ZZ, ModularRing(7), Mat2Ring(), PolynomialRing(["x"])], ids=repr)
@pytest.mark.parametrize("k", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_from_int_takes_integers_only(ring, k):
    with pytest.raises(TypeError):
        ring.from_int(k)
    with pytest.raises(TypeError):
        matrix_from_ints(ring, [[1, k]])
    assert ring.from_int(True) == ring.one()


@pytest.mark.parametrize("modulus", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_modular_ring_refuses_a_modulus_that_is_not_an_int(modulus):
    with pytest.raises(TypeError):
        ModularRing(modulus)


@pytest.mark.parametrize("modulus", [1, 0, -7, True, False])
def test_modular_ring_refuses_a_modulus_below_2(modulus):
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        ModularRing(modulus)


def test_mod_arithmetic_stays_reduced():
    assert Mod(10, 7) == Mod(3, 7)
    assert (Mod(5, 7) + Mod(4, 7)).value == 2
    assert (Mod(2, 7) - Mod(5, 7)).value == 4
    assert (Mod(3, 7) * Mod(5, 7)).value == 1
    assert (-Mod(1, 7)).value == 6


def test_mod_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        Mod(1, 5) + Mod(1, 7)


# Small moduli of every kind, the benchmark's word-sized ones, and 4096-bit
# moduli on both sides of the power-of-two reduction.
ODD_4096 = random.Random(4096).getrandbits(4096) | (1 << 4095) | 1
MODULI = [2, 3, 4, 6, 7, 2**61 - 1, 2**64, 2**4096, ODD_4096]
MODULUS_IDS = ["2", "3", "4", "6", "7", "2^61-1", "2^64", "2^4096", "odd4096"]
BINARY_OPS = (operator.add, operator.sub, operator.mul)


def _check_ops(x, y, m):
    # reference: the same operation on plain ints, reduced with %
    X, Y = Mod(x, m), Mod(y, m)
    results = [(op(X, Y), op(x, y) % m) for op in BINARY_OPS] + [(-X, -x % m)]
    for got, want in results:
        assert got.modulus == m
        assert got.value == want
        assert 0 <= got.value < m


def _check_halve(x, m):
    X = Mod(x, m)
    if m % 2:
        half = X.halve()
        assert 0 <= half.value < m
        assert half + half == X
    else:
        with pytest.raises(ExactHalveUnavailable):
            X.halve()


def _residues(m):
    return st.one_of(st.sampled_from([0, 1, m - 1]), st.integers(0, m - 1))


@pytest.mark.parametrize("m", range(2, 9))
def test_mod_ops_exhaustive_small_moduli(m):
    for x in range(m):
        _check_halve(x, m)
        for y in range(m):
            _check_ops(x, y, m)


@pytest.mark.parametrize("m", MODULI, ids=MODULUS_IDS)
def test_mod_ops_at_range_ends(m):
    ends = (0, 1, m - 1)
    for x in ends:
        _check_halve(x, m)
        for y in ends:
            _check_ops(x, y, m)


@pytest.mark.parametrize("m", MODULI, ids=MODULUS_IDS)
@given(data=st.data())
def test_mod_ops_match_reference(m, data):
    x = data.draw(_residues(m), label="x")
    # y may sit at the edges of the sum's and the difference's one
    # correction by m: x + y of m or m + 1, x - y of -1 or 0
    y = data.draw(st.sampled_from([m - x, m - x + 1, x + 1, x]).map(lambda v: v % m) | _residues(m), label="y")
    _check_ops(x, y, m)
    _check_halve(x, m)


@pytest.mark.parametrize("m", MODULI, ids=MODULUS_IDS)
@given(v=st.integers())
def test_mod_constructor_reduces_any_int(m, v):
    assert Mod(v, m).value == v % m


def test_mod_mixed_moduli_rejected_both_orders():
    for m1 in MODULI:
        for m2 in MODULI:
            if m1 == m2:
                continue
            for op in BINARY_OPS:
                with pytest.raises(ValueError):
                    op(Mod(1, m1), Mod(1, m2))


def test_mod_refuses_plain_int_operands():
    # a plain int is not a residue of any particular modulus, so no
    # operator guesses one: NotImplemented on both sides gives TypeError
    x = Mod(1, 5)
    for op in (lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: x * 2):
        with pytest.raises(TypeError):
            op()
    assert (x == 1) is False


def test_axioms_hold_for_integers():
    assert ring_axiom_check(IntegerRing(), samples=100, seed=1).ok


def test_axioms_hold_for_mod6_and_mod7():
    assert ring_axiom_check(ModularRing(6), samples=100, seed=2).ok
    assert ring_axiom_check(ModularRing(7), samples=100, seed=3).ok


def test_axioms_deterministic_given_seed():
    a = ring_axiom_check(IntegerRing(), samples=20, seed=9)
    b = ring_axiom_check(IntegerRing(), samples=20, seed=9)
    assert a.ok and b.ok and a.samples == b.samples


def test_axiom_check_rejects_noncommutative_ring():
    report = ring_axiom_check(Mat2Ring(), samples=50, seed=3)
    assert not report.ok
    laws = {f.law for f in report.failures}
    assert "mul_commutative" in laws
    witness = next(f for f in report.failures if f.law == "mul_commutative")
    x, y = witness.operands
    assert x * y != y * x
    assert "mul_commutative" in witness.describe()


def test_axiom_check_sample_count_validated():
    with pytest.raises(ValueError):
        ring_axiom_check(IntegerRing(), samples=0)


def test_counted_only_mul_bumps_tally():
    ctx = CountedRing(IntegerRing())
    x = Counted(ctx, 3, True)
    y = Counted(ctx, 4, True)
    _ = x + y
    _ = x - y
    _ = -x
    assert ctx.count == 0
    z = x * y
    assert ctx.count == 1
    assert z.value == 12
    _ = z.halve()
    assert ctx.count == 1  # halving is free
    # the operations traded for multiplications are tallied apart
    assert (ctx.adds, ctx.halvings) == (3, 1)


def test_counted_taint_propagation():
    ctx = CountedRing(IntegerRing())
    inp = Counted(ctx, 5, True)
    const = ctx.from_int(7)
    assert inp.taint and not const.taint
    assert (inp + const).taint
    assert not (const + const).taint
    assert (inp * const).taint


def test_contexts_are_isolated():
    ctx1 = CountedRing(IntegerRing())
    ctx2 = CountedRing(IntegerRing())
    a = Counted(ctx1, 2, True)
    _ = a * a
    assert ctx1.count == 1
    assert ctx2.count == 0


def test_tally_returns_the_context_its_elements_bill():
    seen = []

    def product(A, B):
        seen.append(A.data[0].ctx)
        return naive(A, B)

    M = matrix_from_ints(ZZ, [[1, 2], [3, 4]])
    _, first = tally(product, M, M)
    assert first is seen[0] and isinstance(first, CountedRing)
    assert (first.count, first.adds, first.halvings, first.untainted) == (8, 4, 0, 0)
    _, second = tally(product, M, M)
    assert second is seen[1] and second is not first
    assert (second.count, first.count) == (8, 8)


def test_tally_rejects_b_over_another_ring():
    with pytest.raises(ValueError, match="B over mod5, A over int"):
        tally(core3_times_3xm, matrix_from_ints(ZZ, [[1]]), matrix_from_ints(ModularRing(5), [[1]]))


def test_tally_round_trips_entries_through_the_counted_ring():
    # the program sees every entry of A and B as a tainted Counted input,
    # and what it returns comes back over the caller's ring unchanged
    ring = IntegerRing()
    M = matrix_from_ints(ring, [[1, 2], [3, 4]])
    seen = []

    def echo(A, B):
        seen.extend(A.data + B.data)
        return A

    product, _ = tally(echo, M, M)
    assert len(seen) == 8 and all(isinstance(e, Counted) and e.taint for e in seen)
    assert product.ring is ring
    assert product == M


def test_tally_counts_multiplications_by_injected_constants():
    def scaled(A, B):
        three = A.ring.from_int(3)
        return A.map_entries(lambda a: a * three)

    product, counted = tally(scaled, matrix_from_ints(ZZ, [[1, 2]]), matrix_from_ints(ZZ, [[1]]))
    assert product.to_rows() == [[3, 6]]
    assert (counted.count, counted.untainted) == (2, 2)


def test_tally_is_data_independent():
    # the same straight-line schedule on different inputs tallies equally,
    # and the product comes back over the caller's ring
    rng = random.Random(0)
    for ring in (IntegerRing(), IntegerRing(), ModularRing(2**61 - 1)):
        A, B = random_matrix(ring, 3, 3, rng), random_matrix(ring, 3, 3, rng)
        product, counted = tally(core3_times_3xm, A, B)
        assert product.ring is ring
        assert product == core3_times_3xm(A, B)
        assert (counted.count, counted.untainted) == (21, 0)
