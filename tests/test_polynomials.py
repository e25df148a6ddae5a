import operator

import pytest

from ringmul import (
    NotEvenlyDivisible,
    PolynomialRing,
    TermBudgetExceeded,
    halve_exact,
    ring_axiom_check,
)


def _xyz(max_terms=None):
    ring = PolynomialRing(("x", "y", "z"), max_terms=max_terms)
    x, y, z = ring.variables()
    return ring, x, y, z


def test_polynomials_form_a_commutative_ring():
    assert ring_axiom_check(PolynomialRing(("x", "y", "z")), samples=60, seed=2).ok


def test_structural_equality():
    ring, x, y, z = _xyz()
    assert x + y == y + x
    assert (x + y) * (x - y) == x * x - y * y
    assert x * (y + z) == x * y + x * z


def test_zero_is_empty_map():
    ring, x, y, _ = _xyz()
    assert ring.zero().terms == {}
    assert (x - x).terms == {}
    assert ring.from_int(0).terms == {}
    assert ring.from_int(0).is_zero()


def test_cancellation_never_stores_zero_coefficients():
    ring, x, y, _ = _xyz()
    p = (x + y) * (x - y) - x * x + y * y
    assert p.terms == {}
    q = x * y + x * y - (x * y + x * y)
    assert q.terms == {}


def test_exponent_vectors_are_per_variable():
    ring, x, y, z = _xyz()
    p = ring.from_int(3) * x * z * z
    assert p.terms == {(1, 0, 2): 3}


def test_halving():
    ring, x, _, _ = _xyz()
    two_x_plus_four = x + x + ring.from_int(4)
    assert halve_exact(two_x_plus_four) == x + ring.from_int(2)
    with pytest.raises(NotEvenlyDivisible):
        halve_exact(x + x + x)
    assert ring.supports_halving


def test_term_budget_guard():
    ring, x, y, z = _xyz(max_terms=3)
    fat = x + y + z + ring.from_int(1)
    with pytest.raises(TermBudgetExceeded):
        fat * fat  # 10 distinct terms


def test_formatting():
    ring, x, y, _ = _xyz()
    assert repr(ring.zero()) == "0"
    assert repr(x * y) == "x*y"
    assert repr(x * x) == "x^2"
    assert repr(x * y - ring.from_int(2)) == "x*y - 2"
    assert ring.format_monomial((0, 0, 0)) == "1"


def test_random_elements_are_reproducible():
    import random

    ring = PolynomialRing(("u", "v"))
    a = ring.random_element(random.Random(5))
    b = ring.random_element(random.Random(5))
    assert a == b


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_operand_from_another_polynomial_ring_is_refused(op):
    (x,) = PolynomialRing(["x"]).variables()
    a, b = PolynomialRing(["a", "b"]).variables()
    f = getattr(operator, op)
    for left, right in ((x, a), (x, b), (b, x)):
        with pytest.raises(ValueError, match=r"mixed rings poly\[.*\] and poly\[.*\]"):
            f(left, right)
    # A ring with the same variables is the same ring: rings compare by name.
    (y,) = PolynomialRing(["x"]).variables()
    assert f(x, y) == f(x, x)
