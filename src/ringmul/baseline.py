"""Reference and comparator multiplication schedules.

naive is the textbook product and serves as the correctness oracle for
everything else.  winograd_even and waksman_even are the classical
commutative inner-product schemes for even inner dimension (Waksman's
saves the final n/2 products at the price of exact halvings).
waksman_odd, the comparator the count tables are measured against, is
a split (inner_split): naive's rank-one update on A's first column plus
waksman_even on the other n - 1.  The odd-n kernels of ringmul.general
are the same split with a 3-column lead block.

Multiplication counts (l x n times n x m):

    naive          l*n*m
    winograd_even  n*(l*m + l + m)/2          (n even)
    waksman_even   n*(l*m + l + m - 1)/2      (n even, needs halving)
    waksman_odd    (n-1)*(l*m + l + m - 1)/2 + l*m   (n odd)

The strategy table, ringmul.dispatch._TABLE, holds the executable forms
of every kernel's multiplications, additions and exact halvings, which
verify.count_audit checks against the tally.  waksman_even halves once
per sign-split sum, whatever n is, and waksman_odd through it.

Each inner product is one left fold, and each fold of a given kind and
length runs as one generated straight-line function (_fold): the
textbook sum of products ("dot", which also gives winograd_even's row
and column self-products r and s), Winograd's paired sum ("paired") and
Waksman's two sign variants ("sign_split").  At small entries a ``+`` or
``*`` costs about one interpreter step, so a loop's own work per term
(an iterator step, a tuple unpack, a jump) costs about as much as the
arithmetic.  The generated code does only the arithmetic: the loop's
operations, each sum folded in the same left-to-right order, so every
value and every tally is the loop's.  The source is built from the kind
and length alone, compiled on first use (never at import) and cached in
_FOLDS.  A fold longer than FOLD_CAP terms runs a head block of
1..FOLD_CAP terms and then blocks of exactly FOLD_CAP that carry the
running sum, over rows and columns cut into blocks once per kernel
call.  The cap bounds both the code and its first-use cost: a
FOLD_CAP-term fold compiles in under a millisecond, where one
spelled out to a thousand terms would take tens of milliseconds and
megabytes.
"""

from __future__ import annotations

from .errors import ShapeError, UnsupportedShape
from .matrices import Matrix
from .rings import halve_exact


def _check_inner(A, B):
    if A.cols != B.rows:
        raise ShapeError(f"inner dimensions disagree: {A.rows}x{A.cols} times {B.rows}x{B.cols}")


def even_n(l, n, m):
    """Why (l, n, m) is outside winograd_even's and waksman_even's domain, or None."""
    return f"needs even inner dimension, got {n}" if n % 2 else None


def odd_n(l, n, m):
    """Why (l, n, m) is outside waksman_odd's domain, or None."""
    return None if n % 2 else f"needs odd inner dimension, got {n}"


def _check_domain(domain, A, B):
    """_check_inner, then refuse with the reason of domain, which the table row reads."""
    _check_inner(A, B)
    reason = domain(A.rows, A.cols, B.cols)
    if reason is not None:
        raise UnsupportedShape(reason)


def inner_split(domain, lead, width, rest):
    """The kernel lead(A1, B1) + rest(A2, B2) on A = [A1 | A2] and
    B = [B1 over B2], split after `width` columns of A and rows of B.

    Correct wherever its parts are, as AB = A1*B1 + A2*B2 over any ring;
    it spends the parts' operations plus l*m additions for the sum.  It
    refuses through domain and runs lead alone at n == width.  Its
    `parts`, (domain, lead, width, rest), give ringmul.dispatch its row.
    """

    def lead_plus_rest(A, B):
        """lead on A's first `width` columns plus rest on the others; see inner_split."""
        _check_domain(domain, A, B)
        n = A.cols
        if n == width:
            return lead(A, B)
        A1, A2 = A.slice_cols(0, width), A.slice_cols(width, n)
        B1, B2 = B.slice_rows(0, width), B.slice_rows(width, n)
        return lead(A1, B1) + rest(A2, B2)

    lead_plus_rest.parts = (domain, lead, width, rest)
    return lead_plus_rest


#: The longest fold, in terms, that one generated function spells out.
#: Longer folds run in blocks, so generated code stays bounded whatever n.
FOLD_CAP = 32

#: Per fold kind: the entries of a row and of a column that one term
#: reads, and the term of each sum the fold returns, with {0} and {1}
#: standing for the term's first and second entry.
_KINDS = {
    "dot": (1, ("a{0} * b{0}",)),
    "paired": (2, ("(a{0} + b{1}) * (a{1} + b{0})",)),
    "sign_split": (2, ("(a{0} + b{1}) * (a{1} + b{0})", "(a{0} - b{1}) * (a{1} - b{0})")),
}

#: Compiled folds keyed by (kind, terms <= FOLD_CAP, carries a running sum).
_FOLDS = {}


def _straight(kind, terms, carry):
    """The generated fold of `terms` terms; with carry, it takes the
    running sum(s) of the blocks before it as a first argument.  For
    example ("paired", 2, False) compiles

        def fold(a, b):
            a0, a1, a2, a3, = a
            b0, b1, b2, b3, = b
            return (a0 + b1) * (a1 + b0) + (a2 + b3) * (a3 + b2)
    """
    key = (kind, terms, carry)
    fold = _FOLDS.get(key)
    if fold is None:
        width, sums = _KINDS[kind]
        acc = [f"acc{j}" for j in range(len(sums))] if carry else []
        exprs = (
            " + ".join(acc[j : j + 1] + [t.format(k, k + 1) for k in range(0, width * terms, width)])
            for j, t in enumerate(sums)
        )
        lines = [
            "def fold(acc, a, b):" if carry else "def fold(a, b):",
            *([", ".join(acc) + " = acc"] if carry else []),
            "".join(f"a{i}, " for i in range(width * terms)) + "= a",
            "".join(f"b{i}, " for i in range(width * terms)) + "= b",
            "return " + ", ".join(exprs),
        ]
        namespace = {}
        exec(compile("\n    ".join(lines), f"<{kind} fold of {terms}>", "exec"), namespace)
        fold = _FOLDS[key] = namespace["fold"]
    return fold


def _same(seq):
    return seq


def _fold(kind, terms):
    """(fold, split) for a left fold of `terms` terms of `kind`.

    fold(split(a), split(b)) folds a row a against a column b; call split
    once per row and column.  Up to FOLD_CAP terms split returns its
    argument.  Beyond it, split cuts a head block of 1..FOLD_CAP terms and
    then blocks of FOLD_CAP, and fold carries the sum from block to block.
    """
    if terms <= FOLD_CAP:
        return _straight(kind, terms, False), _same
    width = _KINDS[kind][0]
    lead = terms - (terms - 1) // FOLD_CAP * FOLD_CAP
    head, tail = _straight(kind, lead, False), _straight(kind, FOLD_CAP, True)
    start, step = width * lead, width * FOLD_CAP

    def split(seq):
        return [seq[:start]] + [seq[i : i + step] for i in range(start, len(seq), step)]

    def fold(a, b):
        blocks = zip(a, b)
        acc = head(*next(blocks))
        for x, y in blocks:
            acc = tail(acc, x, y)
        return acc

    return fold, split


def naive(A, B):
    """Textbook product; exactly rows*inner*cols multiplications."""
    _check_inner(A, B)
    m = B.cols
    dot, split = _fold("dot", A.cols)
    cols = [split(B.data[j::m]) for j in range(m)]
    out = [dot(a, b) for a in map(split, A.to_rows()) for b in cols]
    return Matrix(A.ring, A.rows, m, out)


def winograd_even(A, B):
    """Division-free paired inner products for even inner dimension.

    c_ij = sum_k (a_{i,2k-1} + b_{2k,j})(a_{i,2k} + b_{2k-1,j}) - r_i - s_j
    with r_i, s_j the row/column self-products.  Exactly n(lm+l+m)/2
    multiplications; no halving capability needed.  Domain: even_n.
    """
    _check_domain(even_n, A, B)
    n = A.cols
    dot, split_dot = _fold("dot", n // 2)
    paired, split = _fold("paired", n // 2)
    m = B.cols
    rows = A.to_rows()
    cols = [B.data[j::m] for j in range(m)]

    r = [dot(split_dot(a[0::2]), split_dot(a[1::2])) for a in rows]
    s = [dot(split_dot(b[0::2]), split_dot(b[1::2])) for b in cols]
    cols = [split(b) for b in cols]
    out = [paired(a, b) - ri - sj for a, ri in zip(map(split, rows), r) for b, sj in zip(cols, s)]
    return Matrix(A.ring, A.rows, m, out)


def _sign_split(fold, a, b):
    """Both sign variants of a row against a column, halved once per sum.

    With P(+/-) = (a_{2k-1} +/- b_{2k,j})(a_{2k} +/- b_{2k-1,j}), returns
    ((sum_k P+ - sum_k P-)/2, (sum_k P+ + sum_k P-)/2) = (c, r + s), where
    fold is the "sign_split" fold that returns both sums.  Each P+ - P-
    and P+ + P- is twice a ring element, so each total is too, and one
    exact halving per total suffices on any 2-torsion-free ring.
    """
    plus, minus = fold(a, b)
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
    Domain: even_n.
    """
    _check_domain(even_n, A, B)
    n = A.cols
    paired, split = _fold("paired", n // 2)
    both, _ = _fold("sign_split", n // 2)  # its split is paired's: same width and length
    m = B.cols
    rows = [split(a) for a in A.to_rows()]
    first, *others = [split(B.data[j::m]) for j in range(m)]

    # row 1: c_{1j} and u_j = r_1 + s_j, with t_1 from column 1
    a = rows[0]
    c, t1 = _sign_split(both, a, first)
    row1 = [_sign_split(both, a, b) for b in others]
    out = [c] + [c1j for c1j, _ in row1]
    if A.rows > 1:
        # u_j - t_1 is shared by every row below the first
        w = [u - t1 for _, u in row1]
        for a in rows[1:]:
            c, ti = _sign_split(both, a, first)
            out.append(c)
            out += [paired(a, b) - ti - wj for b, wj in zip(others, w)]
    return Matrix(A.ring, A.rows, m, out)


#: Domain: odd_n; at n = 1, naive alone.
waksman_odd = inner_split(odd_n, naive, 1, waksman_even)
