import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert p.terms == {(0, 2, 2): 3}


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
    assert ring.format_monomial(()) == "1"


def test_terms_print_in_exponent_vector_order():
    # descending degree, then ascending exponent vector (y before x): a
    # plain sort of the keys would print "x + y" and "x^2 + x*y - x*z - y*z"
    ring, x, y, z = _xyz()
    assert repr(x + y) == "y + x"
    assert repr((x + y) * (x - z)) == "-y*z - x*z + x*y + x^2"


def _value(p, point):
    return sum(c * math.prod(point[i] for i in key) for key, c in p.terms.items())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32), nvars=st.integers(1, 6), data=st.data())
def test_evaluation_commutes_with_the_operations(seed, nvars, data):
    ring = PolynomialRing([f"v{i}" for i in range(nvars)])
    rng = random.Random(seed)
    p, q, r = (ring.random_element(rng) for _ in range(3))
    point = data.draw(st.lists(st.integers(-20, 20), min_size=nvars, max_size=nvars))
    P, Q, R = (_value(f, point) for f in (p, q, r))
    results = [
        (P + Q, p + q),
        (P - Q, p - q),
        (-P, -p),
        (P * Q * R, p * q * r),
        (P * (Q - R), p * (q - r)),
        (P, (p + p).halve()),
    ]
    for value, poly in results:
        assert _value(poly, point) == value
        assert all(list(key) == sorted(key) and set(key) <= set(range(nvars)) for key in poly.terms)
    # a product of variables is one term keyed by their sorted indices,
    # as long as its degree
    indices = data.draw(st.lists(st.integers(0, nvars - 1), max_size=5))
    monomial = math.prod((ring.variable(i) for i in indices), start=ring.one())
    assert monomial.terms == {tuple(sorted(indices)): 1}


def test_random_elements_are_reproducible():
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
