"""Exact matrix products over commutative rings with audited
multiplication counts.

The fast schedules here trade general ring multiplications for
additions: the strategy `general` multiplies l x n by n x m for odd n
in n(lm + l + m - 1)/2 multiplications (odd m) or
(n(lm + l + m - 1) + l - 1)/2 (even m), which is 6n + 3 for n x 3 times
3 x 3 and 21 for two 3 x 3 matrices.  Everything is computed exactly,
over integers, residues, or polynomials; `ringmul.verify` proves each
schedule over the free commutative ring and audits the counts of the
strategy table, which `multiply` reports without counting.

`multiply` needs neither verification nor polynomials, so they load on
first use: the submodules `verify` and `polynomials`, the four verify
functions (count_audit, noncommutative_witness, randomized_check,
symbolic_verify) and PolynomialRing and SparsePolynomial
are resolved through the module `__getattr__` and keep their names here.
"""

import importlib

from .baseline import naive, waksman_even, waksman_odd, winograd_even
from .dispatch import CostReport, Strategy, choose_strategy, kernel_for, multiply, predict_count
from .errors import (
    CountMismatch,
    ExactHalveUnavailable,
    NotEvenlyDivisible,
    ShapeError,
    TermBudgetExceeded,
    UnsupportedShape,
    WitnessNotFound,
)
from .general import core3_times_3xm, mul_odd_n, mul_odd_n_winograd
from .matrices import Matrix, matrix_from_ints, random_matrix
from .rings import (
    Counted,
    CountedRing,
    IntegerRing,
    Mat2Ring,
    Mod,
    ModularRing,
    Ring,
    ZZ,
    halve_exact,
    ring_axiom_check,
    tally,
)

__version__ = "0.1.0"

__all__ = [
    "CostReport",
    "Counted",
    "CountedRing",
    "CountMismatch",
    "ExactHalveUnavailable",
    "IntegerRing",
    "Mat2Ring",
    "Matrix",
    "Mod",
    "ModularRing",
    "NotEvenlyDivisible",
    "PolynomialRing",
    "Ring",
    "ShapeError",
    "SparsePolynomial",
    "Strategy",
    "TermBudgetExceeded",
    "UnsupportedShape",
    "WitnessNotFound",
    "ZZ",
    "choose_strategy",
    "core3_times_3xm",
    "count_audit",
    "halve_exact",
    "kernel_for",
    "matrix_from_ints",
    "mul_odd_n",
    "mul_odd_n_winograd",
    "multiply",
    "naive",
    "noncommutative_witness",
    "predict_count",
    "random_matrix",
    "randomized_check",
    "ring_axiom_check",
    "symbolic_verify",
    "tally",
    "waksman_even",
    "waksman_odd",
    "winograd_even",
]


#: Public names loaded on first use, each mapped to the submodule that defines it.
_LAZY = {
    "verify": "verify",
    "count_audit": "verify",
    "noncommutative_witness": "verify",
    "randomized_check": "verify",
    "symbolic_verify": "verify",
    "polynomials": "polynomials",
    "PolynomialRing": "polynomials",
    "SparsePolynomial": "polynomials",
}


def __getattr__(name):
    try:
        submodule = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{submodule}")
    value = module if name == submodule else getattr(module, name)
    globals()[name] = value
    return value
