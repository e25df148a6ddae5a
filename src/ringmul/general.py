"""General product for odd inner dimension, and its 3-column lead block.

mul_odd_n multiplies l x n by n x m (n odd >= 3, m >= 3) as a split
(baseline.inner_split): A = [A1 | A2], B = [B1 over B2] with A1 l x 3,
B1 3 x m, so that AB = A1*B1 + A2*B2.  The 3-wide lead block A1*B1 is
computed by core3_times_3xm below; the remainder A2*B2 has even inner
dimension n - 3 and goes to baseline.waksman_even (absent entirely when
n = 3), which halves exactly.  mul_odd_n_winograd is the same split with
the remainder on baseline.winograd_even, which never halves: it is the
odd-n schedule over rings without exact halving, such as Z/2^k.

Multiplication counts:

    core3_times_3xm     3(lm + l + m - 1)/2           (m odd)
                        2(l - 1) + 3(lm + m)/2        (m even)
    mul_odd_n           n(lm + l + m - 1)/2           (m odd)
                        (n(lm + l + m - 1) + l - 1)/2 (m even)
    mul_odd_n_winograd  core3_times_3xm's count + (n - 3)(lm + l + m)/2

Additions, tallied as each ``+``, ``-`` and unary minus, with
e = 1 for even m and 0 for odd m:

    core3_times_3xm     (6m - 9 - 3e) + l(6m + 3 - e), and no halving

Every addition that involves B alone is done once per B (b_only_sums,
and the per-pair factors in core3_times_3xm), so the lead block at
16 x 3 x 16 spends 84 additions on B plus 98 per row.  A split spends
its parts' additions plus l*m for the sum: at 16 x 15 x 16, mul_odd_n
spends 1652 + 5406 + 256 = 7314 additions and waksman_even's 62 exact
halvings, and mul_odd_n_winograd 6932 additions and no halving (the
textbook product spends 3584 additions).  In the strategy table
(ringmul.dispatch._TABLE) tie order is table order: naive comes first,
so `auto` runs mul_odd_n only where it is strictly cheaper than the
textbook product, and mul_odd_n_winograd only where it is strictly
cheapest.  The table also runs both on the mirrored product BᵀAᵀ
(strategies general-transposed and general-winograd-transposed) where
that shape is strictly cheaper.

The core block runs the 3-column schedule, 3 products of entries of B
alone (b_only_products) plus 6 per row (row_step), which is all of the
6l + 3 product l x 3 times 3 x 3; mul_odd_n at n = 3 is that block
alone, so the strategy `general` runs it at (l, 3, 3), and at (3, 3, 3)
in 21 multiplications.  core3_times_3xm is the only code that spells
out the schedule.  It extends to the columns beyond the third two at a
time: each column pair (j, j+1) reuses the three row-level products shared
with columns 1..3 and adds exactly 3 new row-level products per row
plus 3 products involving only entries of B.  The B-only correction
products are cached per pair, not per row; that caching is what the
count formulas price in.

Index convention used throughout this package: the classical 1-based
entry names a_{ij}, b_{ij} map to 0-based storage, so b_{12} is
B[0, 1].  Formulas are written in 1-based names and transcribed with
that shift.
"""

from __future__ import annotations

from . import baseline
from .errors import ShapeError, UnsupportedShape
from .matrices import Matrix


def b_only_products(b1, b2, b3):
    """The three products of entries of B alone, b12*b21, b13*b31 and
    b23*b32, shared by every row; b1, b2, b3 are the rows of B."""
    return b1[1] * b2[0], b1[2] * b3[0], b2[2] * b3[1]


def b_only_sums(b1, b2, b3, q):
    """The additions of row_step that involve B alone, done once per B.

    Given q = b_only_products(b1, b2, b3), returns the diagonal
    differences (b11-b12-b13, b22-b21-b23, b33-b31-b32) and the sums
    (q12+q13, q12+q23, q13+q23) that the three outputs subtract.
    """
    q12, q13, q23 = q
    return (
        (b1[0] - b1[1] - b1[2], b2[1] - b2[0] - b2[2], b3[2] - b3[0] - b3[1]),
        (q12 + q13, q12 + q23, q13 + q23),
    )


def row_step(a1, a2, a3, b1, b2, b3, q, out):
    """Row (a1, a2, a3) times the first three columns of B in exactly 6
    multiplications, given q = b_only_sums(b1, b2, b3, ...).

    Appends the row's first three output entries to the list out and
    returns the row-level values that wider columns reuse: rp1, rp1+rp2
    and rp2+rp3.
    """
    (d1, d2, d3), (q1, q2, q3) = q
    rp1 = (a1 + b2[0]) * (a2 + b1[1])  # (a_i1+b21)(a_i2+b12)
    rp2 = (a1 + b3[0]) * (a3 + b1[2])  # (a_i1+b31)(a_i3+b13)
    rp3 = (a2 + b3[1]) * (a3 + b2[2])  # (a_i2+b32)(a_i3+b23)
    rp12 = rp1 + rp2
    rp23 = rp2 + rp3
    out.append(rp12 + a1 * (d1 - a2 - a3) - q1)
    out.append(rp1 + rp3 + a2 * (d2 - a1 - a3) - q2)
    out.append(rp23 + a3 * (d3 - a1 - a2) - q3)
    return rp1, rp12, rp23


def core3_times_3xm(A1, B1):
    """l x 3 times 3 x m (m >= 3) with row-shared and B-only products.

    Exactly 3(lm+l+m-1)/2 multiplications for odd m and
    2(l-1) + 3(lm+m)/2 for even m; the count does not depend on the
    entry values.  m < 3 raises UnsupportedShape, and factors that do
    not meet in 3 columns raise ShapeError.  This is the only code that
    spells out the 3-column schedule.
    """
    l, m = A1.rows, B1.cols
    baseline._check_inner(A1, B1)
    if m < 3:
        raise UnsupportedShape(f"width {m} must be >= 3")
    if A1.cols != 3:
        raise ShapeError(f"factors must meet in 3 columns, got {A1.cols}")

    b1, b2, b3 = B1.row_list(0), B1.row_list(1), B1.row_list(2)

    # Everything that involves B alone is computed once and reused by
    # every row: the three B-only products, row_step's sums, and per
    # column pair the factors beta, gamma of its row products
    # (a + beta)(gamma - a'), whose B-only part v is beta*gamma.
    q = b_only_products(b1, b2, b3)
    q12 = q[0]
    sums = b_only_sums(b1, b2, b3, q)
    q1, _, q3 = sums[1]

    m_even = m % 2 == 0
    if m_even:
        beta4, gamma4 = b2[0] - b2[3], b1[3] - b1[1]  # b21-b24, b14-b12
        k4 = q12 + beta4 * gamma4

    # Column pairs (J, J + 1), 0-based, tile the columns past the lead
    # block exactly: they start at column 4 (1-based) for odd m, and at
    # column 5 for even m, whose column 4 has its own correction above.
    pair_b = []
    for J in range(4 if m_even else 3, m - 1, 2):
        J1 = J + 1
        be1, ga1 = b2[0] - b2[J], b1[J] - b1[1] - b1[J1]
        be2, ga2 = b3[0] - b3[J], b1[J1] - b1[2]
        be3, ga3 = b3[1] + b3[J] - b3[J1], b2[J1] - b2[2]
        v2 = be2 * ga2
        pair_b.append((be1, ga1, be2, ga2, be3, ga3, q1 + be1 * ga1 + v2, q3 + v2 + be3 * ga3))

    out = []
    for i in range(l):
        a1, a2, a3 = A1.row_list(i)
        # Row-level values shared across every output column of row i;
        # the row's entries are appended to out column by column.
        rp1, rp12, rp23 = row_step(a1, a2, a3, b1, b2, b3, sums, out)
        if m_even:
            out.append(rp1 + (a1 + beta4) * (gamma4 - a2) + a3 * b3[3] - k4)

        for be1, ga1, be2, ga2, be3, ga3, k1, k2 in pair_b:
            u2 = (a1 + be2) * (ga2 - a3)
            out.append(rp12 + (a1 + be1) * (ga1 - a2) + u2 - k1)
            out.append(rp23 + u2 + (a2 + be3) * (ga3 - a3) - k2)

    return Matrix(A1.ring, l, m, out)


def odd_n_wide(l, n, m, width="m"):
    """Why (l, n, m) is outside the odd-n kernels' domain, or None; width names m."""
    if n % 2 == 0 or n < 3:
        return f"needs odd inner dimension >= 3, got {n}"
    return f"needs {width} >= 3, got {m}" if m < 3 else None


#: Waksman's remainder halves exactly for n > 3.  Domain: odd_n_wide.
mul_odd_n = baseline.inner_split(odd_n_wide, core3_times_3xm, 3, baseline.waksman_even)
#: Winograd's remainder never halves.  Domain: odd_n_wide.
mul_odd_n_winograd = baseline.inner_split(odd_n_wide, core3_times_3xm, 3, baseline.winograd_even)

