"""Products with a 3x3 right factor in 6 multiplications per row plus 3.

The row schedule trades the 9 multiplications of the textbook
vector-times-3x3 product for 6 that involve the row and 3 that involve
only entries of the right factor B.  The B-only products depend on
nothing else, so multiplying an n x 3 matrix by B reuses them across all
n rows: 6n + 3 multiplications in total, and 21 for the 3x3 case.

The schedule lives in `ringmul.general`; the functions here are views
of it, and mul_n3_33 is general.core3_times_3xm at m = 3.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ShapeError
from .general import b_only_products, core3_times_3xm, row_step
from .matrices import Matrix


class SharedBProducts(NamedTuple):
    """The three multiplications involving only entries of B.

    p7 = b12*b21, p8 = b13*b31, p9 = b23*b32 (numbered after their
    position in the row schedule).
    """

    p7: object
    p8: object
    p9: object


def _check_b(B):
    if B.shape != (3, 3):
        raise ShapeError(f"B must be 3x3, got {B.rows}x{B.cols}")


def shared_b_products(B):
    """Compute the three B-only products; exactly 3 multiplications."""
    _check_b(B)
    return SharedBProducts(*b_only_products(B.row_list(0), B.row_list(1), B.row_list(2)))


def row_times_3x3(a, B, shared):
    """Product of a 1x3 row with a 3x3 matrix; exactly 6 multiplications.

    shared must have been computed from this B (shared_b_products), which
    is what keeps the per-row cost at 6 instead of 9.
    """
    if a.shape != (1, 3):
        raise ShapeError(f"row must be 1x3, got {a.rows}x{a.cols}")
    _check_b(B)
    b1, b2, b3 = B.row_list(0), B.row_list(1), B.row_list(2)
    c = []
    row_step(*a.row_list(0), b1, b2, b3, (shared.p7, shared.p8, shared.p9), c)
    return Matrix(a.ring, 1, 3, c)


def mul_n3_33(A, B):
    """n x 3 times 3 x 3 in exactly 6n + 3 multiplications."""
    if A.cols != 3:
        raise ShapeError(f"A must have 3 columns, got {A.cols}")
    _check_b(B)
    return core3_times_3xm(A, B)


def mul_33_33(A, B):
    """3x3 product in exactly 21 multiplications: the n = 3 case of
    mul_n3_33."""
    if A.shape != (3, 3):
        raise ShapeError(f"A must be 3x3, got {A.rows}x{A.cols}")
    return mul_n3_33(A, B)
