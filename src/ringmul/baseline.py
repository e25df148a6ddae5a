"""Reference and comparator multiplication schedules.

naive is the textbook product and serves as the correctness oracle for
everything else.  winograd_even and waksman_even are the classical
commutative inner-product schemes for even inner dimension (Waksman's
saves the final n/2 products at the price of exact halvings);
waksman_odd extends the even scheme to odd inner dimension with a
rank-one update and is the comparator the count tables are measured
against.

Multiplication counts (l x n times n x m):

    naive          l*n*m
    winograd_even  n*(l*m + l + m)/2          (n even)
    waksman_even   n*(l*m + l + m - 1)/2      (n even, needs halving)
    waksman_odd    (n-1)*(l*m + l + m - 1)/2 + l*m   (n odd)

Exact halvings: waksman_even performs 2*(l + m - 1), one per sign-split
sum, whatever n is; waksman_odd inherits that count from its even part
(none when n = 1).  naive and winograd_even perform none.

Each inner product is one left fold over B's column slices taken once
per call (`B.data[j::m]`, or split by row parity for the paired
schemes).  A plain product is ``reduce(add, map(mul, ...))``.  The
paired sums (_paired, _sign_split) are plain loops over zip: at the
inner lengths used here CPython 3.11 runs those about 15% faster than
the equivalent map pipelines, which call an operator function per
element.  Additions per product, as exact tallies of ``+``, ``-`` and
unary minus:

    naive          l*m*(n - 1)
    winograd_even  (l + m)(h - 1) + l*m*(3h + 1),  h = n/2
    waksman_even   6h(l + m - 1) + (l - 1)(m - 1)(3h + 1) + (m - 1)[l > 1]
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul

from .errors import ExactHalveUnavailable, ShapeError, UnsupportedShape
from .matrices import Matrix
from .rings import halve_exact


def _check_inner(A, B):
    if A.cols != B.rows:
        raise ShapeError(f"inner dimensions disagree: {A.rows}x{A.cols} times {B.rows}x{B.cols}")


def naive(A, B):
    """Textbook product; exactly rows*inner*cols multiplications."""
    _check_inner(A, B)
    m = B.cols
    cols = [B.data[j::m] for j in range(m)]
    out = [reduce(add, map(mul, a, col)) for a in A.to_rows() for col in cols]
    return Matrix(A.ring, A.rows, m, out)


def _paired_columns(B):
    """B's columns split by 0-based row parity: the list of each column's
    entries in rows 0, 2, 4, ... and the list of those in rows 1, 3, 5, ..."""
    m = B.cols
    data = B.data
    return [data[j::2 * m] for j in range(m)], [data[m + j::2 * m] for j in range(m)]


def _paired(a_even, a_odd, b_odd, b_even):
    """sum_k (a_{2k-1} + b_{2k})(a_{2k} + b_{2k-1}) in 1-based names, for a
    row and a column each split by 0-based parity; a left fold over k."""
    terms = zip(a_even, a_odd, b_odd, b_even)
    x, y, u, v = next(terms)
    total = (x + u) * (y + v)
    for x, y, u, v in terms:
        total = total + (x + u) * (y + v)
    return total


def winograd_even(A, B):
    """Division-free paired inner products for even inner dimension.

    c_ij = sum_k (a_{i,2k-1} + b_{2k,j})(a_{i,2k} + b_{2k-1,j}) - r_i - s_j
    with r_i, s_j the row/column self-products.  Exactly n(lm+l+m)/2
    multiplications; no halving capability needed.
    """
    _check_inner(A, B)
    n = A.cols
    if n % 2:
        raise UnsupportedShape(f"inner dimension {n} must be even")
    arows = [(a[0::2], a[1::2]) for a in A.to_rows()]
    b_even, b_odd = _paired_columns(B)

    r = [reduce(add, map(mul, ae, ao)) for ae, ao in arows]
    s = [reduce(add, map(mul, be, bo)) for be, bo in zip(b_even, b_odd)]
    out = [
        _paired(ae, ao, bo, be) - ri - sj
        for (ae, ao), ri in zip(arows, r)
        for bo, be, sj in zip(b_odd, b_even, s)
    ]
    return Matrix(A.ring, A.rows, B.cols, out)


def _sign_split(a_even, a_odd, b_odd, b_even):
    """Both sign variants of a row against a column, halved once per sum.

    With P(+/-) = (a_{2k-1} +/- b_{2k,j})(a_{2k} +/- b_{2k-1,j}), returns
    ((sum_k P+ - sum_k P-)/2, (sum_k P+ + sum_k P-)/2) = (c, r + s).
    Each P+ - P- and P+ + P- is twice a ring element, so each total is
    too, and one exact halving per total suffices on any 2-torsion-free
    ring.  Each variant is one left fold over k.
    """
    terms = zip(a_even, a_odd, b_odd, b_even)
    x, y, u, v = next(terms)
    plus = (x + u) * (y + v)
    minus = (x - u) * (y - v)
    for x, y, u, v in terms:
        plus = plus + (x + u) * (y + v)
        minus = minus + (x - u) * (y - v)
    return halve_exact(plus - minus), halve_exact(plus + minus)


def waksman_even(A, B):
    """Paired inner products with sign splitting, for even inner dimension.

    Column 1 is computed from both sign variants
    P(+/-) = (a_{i,2k-1} +/- b_{2k,1})(a_{i,2k} +/- b_{2k-1,1}): the halved
    difference gives c_{i1} and the halved sum gives t_i = r_i + s_1 as a
    free by-product.  Row 1 likewise yields c_{1j} and u_j = r_1 + s_j.
    Every remaining entry needs the plus-variant only:

        c_ij = sum_k (a_{i,2k-1}+b_{2k,j})(a_{i,2k}+b_{2k-1,j}) - t_i - (u_j - t_1)

    with u_j - t_1 formed once per column.

    Total: l*n + (m-1)*n + (l-1)(m-1)n/2 = n(lm+l+m-1)/2 multiplications.
    Each sign variant is summed over k first, and the difference and the
    sum of the two totals are each halved once, so the schedule performs
    2(l+m-1) exact halvings, independent of n.  Each is a sum of terms of
    the form y + y, so halving is exact over any 2-torsion-free ring.
    """
    _check_inner(A, B)
    n = A.cols
    if n % 2:
        raise UnsupportedShape(f"inner dimension {n} must be even")
    if not A.ring.supports_halving:
        raise ExactHalveUnavailable(f"ring {A.ring.name} lacks exact halving")
    arows = [(a[0::2], a[1::2]) for a in A.to_rows()]
    b_even, b_odd = _paired_columns(B)
    first, *others = zip(b_odd, b_even)

    # row 1: c_{1j} and u_j = r_1 + s_j, with t_1 from column 1
    ae, ao = arows[0]
    c, t1 = _sign_split(ae, ao, *first)
    row1 = [_sign_split(ae, ao, bo, be) for bo, be in others]
    out = [c] + [c1j for c1j, _ in row1]
    if A.rows > 1:
        # u_j - t_1 is shared by every row below the first
        w = [u - t1 for _, u in row1]
        for ae, ao in arows[1:]:
            c, ti = _sign_split(ae, ao, *first)
            out.append(c)
            out += [_paired(ae, ao, bo, be) - ti - wj for (bo, be), wj in zip(others, w)]
    return Matrix(A.ring, A.rows, B.cols, out)


def waksman_odd(A, B):
    """Odd inner dimension: even-part schedule plus a rank-one update.

    Splits n = (n-1) + 1, runs waksman_even on the even part and adds
    naive's product of A's last column with B's last row (l*m
    multiplications), for (n-1)(lm+l+m-1)/2 + lm in total; n = 1 is
    naive alone.
    """
    _check_inner(A, B)
    n = A.cols
    if n % 2 == 0:
        raise UnsupportedShape(f"inner dimension {n} must be odd")
    if n == 1:
        return naive(A, B)
    rank1 = naive(A.slice_cols(n - 1, n), B.slice_rows(n - 1, n))
    return waksman_even(A.slice_cols(0, n - 1), B.slice_rows(0, n - 1)) + rank1
