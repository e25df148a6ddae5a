import linecache
import random
import sys

import pytest

import ringmul.baseline as baseline
import ringmul.dispatch as dispatch
import ringmul.general as general
from ringmul import (
    CountMismatch,
    Mat2Ring,
    Matrix,
    Mod,
    ModularRing,
    Strategy,
    TermBudgetExceeded,
    WitnessNotFound,
    ZZ,
    cli,
    core3_times_3xm,
    count_audit,
    kernel_for,
    naive,
    noncommutative_witness,
    random_matrix,
    randomized_check,
    symbolic_verify,
    taint_audit,
)

# ---------------------------------------------------------------------------
# symbolic verification


#: The fold kind whose width sets how far each base kernel's seams reach.
_FOLD_KIND = {baseline.naive: "dot", baseline.winograd_even: "paired", baseline.waksman_even: "sign_split"}


def _seam_cases():
    """Each base kernel of dispatch._PARTS at every n of its domain up to
    two full fold blocks plus one term (n <= width * (2 * FOLD_CAP + 2)),
    at (l, m) = (1, 1), (1, 2), (2, 3) and (3, 4); and the lead block,
    which `general` runs alone at n = 3, at l = 1, 2, 4 and m = 3..11.

    A split row is its lead plus its rest (AB = A1*B1 + A2*B2 over any
    ring) and a mirrored row is its row on BᵀAᵀ, so these and one
    SCHEDULE_CASES entry per split and mirrored row cover every row at
    every n.  The set moves with FOLD_CAP.
    """
    strategy_of = {row.kernel: s for s, row in dispatch._TABLE.items()}
    cases = []
    for kernel, row in dispatch._PARTS.items():
        if kernel is general.core3_times_3xm:
            cases += [(Strategy.GENERAL_ODD, (l, 3, m)) for l in (1, 2, 4) for m in range(3, 12)]
            continue
        top = baseline._KINDS[_FOLD_KIND[kernel]][0] * (2 * baseline.FOLD_CAP + 2)
        cases += [
            (strategy_of[kernel], (l, n, m))
            for n in range(1, top + 1)
            for l, m in ((1, 1), (1, 2), (2, 3), (3, 4))
            if row.domain(l, n, m) is None
        ]
    return cases


#: One entry per schedule case that the symbolic proof and the kernels'
#: line coverage both walk: hand-picked cases, then _seam_cases.
SCHEDULE_CASES = [
    (Strategy.GENERAL_ODD, (1, 3, 3)),
    (Strategy.GENERAL_ODD, (4, 3, 3)),
    (Strategy.GENERAL_ODD, (2, 3, 5)),
    (Strategy.GENERAL_ODD, (2, 5, 4)),
    (Strategy.GENERAL_ODD, (3, 7, 6)),
    (Strategy.WAKSMAN_EVEN, (2, 4, 2)),
    (Strategy.WINOGRAD_EVEN, (2, 2, 3)),
    (Strategy.WAKSMAN_ODD, (3, 3, 3)),
    (Strategy.WAKSMAN_ODD, (2, 5, 3)),
    (Strategy.NAIVE, (2, 3, 2)),
    (Strategy.GENERAL_TRANSPOSED, (5, 3, 2)),
    (Strategy.GENERAL_TRANSPOSED, (4, 5, 1)),
    (Strategy.GENERAL_WINOGRAD_TRANSPOSED, (4, 5, 2)),
    # base kernels past FOLD_CAP = 32 terms; _seam_cases covers these,
    # and they stay because pytest names each case by its index
    (Strategy.NAIVE, (2, 33, 2)),
    (Strategy.NAIVE, (2, 65, 2)),
    (Strategy.WINOGRAD_EVEN, (2, 66, 2)),
    (Strategy.WAKSMAN_EVEN, (2, 66, 3)),
    # one case per split and mirrored row with n above its lead's width:
    # general's n = 69 leaves a 66-wide remainder, whose 33-term folds
    # split (n = 67 would leave exactly 32, which never splits)
    (Strategy.WAKSMAN_ODD, (2, 67, 2)),
    (Strategy.GENERAL_ODD, (3, 69, 4)),
    (Strategy.GENERAL_WINOGRAD, (3, 69, 5)),
    (Strategy.GENERAL_TRANSPOSED, (4, 69, 3)),
    (Strategy.GENERAL_WINOGRAD_TRANSPOSED, (5, 69, 3)),
    (Strategy.WAKSMAN_ODD, (2, 1, 3)),  # n = 1: naive alone
    *_seam_cases(),
]


@pytest.mark.parametrize("strategy,shape", SCHEDULE_CASES)
def test_symbolic_identities_hold(strategy, shape):
    report = symbolic_verify(strategy, *shape)
    assert report.ok, report.describe()


#: SCHEDULE_CASES once each, named like general-3x69x4.
_AUDIT_CASES = {f"{s.value}-{l}x{n}x{m}": (s, (l, n, m)) for s, (l, n, m) in SCHEDULE_CASES}


@pytest.mark.parametrize("strategy,shape", _AUDIT_CASES.values(), ids=_AUDIT_CASES)
def test_count_audit_holds_on_every_schedule_case(strategy, shape):
    # all three figures of the table's cost against the tally
    count_audit(strategy, *shape)


def _lines_run(cases):
    """Each case's kernel run once on random integers, traced: the code
    objects of the files that hold kernel and combinator bodies
    (baseline.py, general.py and dispatch.py's _mirrored) that it
    entered, and the (code, line) pairs that ran."""
    files = {baseline.__file__, general.__file__, dispatch.__file__}
    entered, ran = set(), set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        entered.add(frame.f_code)
        return local

    rng = random.Random(28)
    runs = [(kernel_for(s), random_matrix(ZZ, l, n, rng), random_matrix(ZZ, n, m, rng)) for s, (l, n, m) in cases]
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for kernel, A, B in runs:
            kernel(A, B)
    finally:
        sys.settrace(previous)
    return entered, ran


def test_every_line_of_every_kernel_function_runs(monkeypatch):
    # the cases reach every line of the kernel code they enter, but for
    # raises and the domain predicates' reasons, which no kernel run on
    # its own domain can reach; an empty fold cache makes each fold's
    # generating code run too
    monkeypatch.setattr(baseline, "_FOLDS", {})
    entered, ran = _lines_run(SCHEDULE_CASES)
    domains = {row.domain.__code__ for row in dispatch._TABLE.values()}
    missed = []
    for code in entered:
        source = linecache.getlines(code.co_filename)
        for line in {line for _, _, line in code.co_lines() if line} - {code.co_firstlineno}:
            text = source[line - 1].strip()
            exempt = text.startswith("raise ") or (code in domains and text.startswith("return f"))
            if not exempt and (code, line) not in ran:
                missed.append(f"{code.co_name} line {line}: {text}")
    assert missed == []
    assert {c.co_name for c in entered} >= {"naive", "lead_plus_rest", "mirrored", "core3_times_3xm", "split"}


def test_symbolic_rejects_unsupported_shape():
    from ringmul import UnsupportedShape

    with pytest.raises(UnsupportedShape):
        symbolic_verify(Strategy.WINOGRAD_EVEN, 2, 3, 2)


def test_symbolic_term_budget_guard():
    with pytest.raises(TermBudgetExceeded):
        symbolic_verify(Strategy.GENERAL_ODD, 3, 7, 7, max_terms=5)


# ---------------------------------------------------------------------------
# mutation harness: single-token corruptions of the schedules must be caught


def _verify_mutant(monkeypatch, strategy, mutant, shape):
    """symbolic_verify of strategy at shape with its table row running mutant."""
    monkeypatch.setitem(dispatch._TABLE, strategy, dispatch._TABLE[strategy]._replace(kernel=mutant))
    return symbolic_verify(strategy, *shape)


def _mutant_core3_p7_sign(A, B):
    # sign flip on the shared product b12*b21 in the first output column
    b1, b2, b3 = B.row_list(0), B.row_list(1), B.row_list(2)
    p7 = b1[1] * b2[0]
    p8 = b1[2] * b3[0]
    p9 = b2[2] * b3[1]
    out = []
    for i in range(A.rows):
        a1, a2, a3 = A.row_list(i)
        p1 = (a2 + b1[1]) * (a1 + b2[0])
        p2 = (a3 + b1[2]) * (a1 + b3[0])
        p3 = (a3 + b2[2]) * (a2 + b3[1])
        p4 = a1 * (b1[0] - b1[1] - b1[2] - a2 - a3)
        p5 = a2 * (b2[1] - b2[0] - b2[2] - a1 - a3)
        p6 = a3 * (b3[2] - b3[0] - b3[1] - a1 - a2)
        out.extend(
            [
                p4 + p1 + p2 + p7 - p8,  # should subtract p7
                p5 + p1 + p3 - p7 - p9,
                p6 + p2 + p3 - p8 - p9,
            ]
        )
    return Matrix(A.ring, A.rows, 3, out)


def _mutant_core3_index_swap(A, B):
    # p2 built from b23 instead of b13
    b1, b2, b3 = B.row_list(0), B.row_list(1), B.row_list(2)
    p7 = b1[1] * b2[0]
    p8 = b1[2] * b3[0]
    p9 = b2[2] * b3[1]
    out = []
    for i in range(A.rows):
        a1, a2, a3 = A.row_list(i)
        p1 = (a2 + b1[1]) * (a1 + b2[0])
        p2 = (a3 + b2[2]) * (a1 + b3[0])  # b2[2] should be b1[2]
        p3 = (a3 + b2[2]) * (a2 + b3[1])
        p4 = a1 * (b1[0] - b1[1] - b1[2] - a2 - a3)
        p5 = a2 * (b2[1] - b2[0] - b2[2] - a1 - a3)
        p6 = a3 * (b3[2] - b3[0] - b3[1] - a1 - a2)
        out.extend(
            [
                p4 + p1 + p2 - p7 - p8,
                p5 + p1 + p3 - p7 - p9,
                p6 + p2 + p3 - p8 - p9,
            ]
        )
    return Matrix(A.ring, A.rows, 3, out)


def _mutant_waksman_interior_sign(A, B):
    # interior correction adds t_i instead of subtracting it
    from functools import reduce
    from operator import add

    from ringmul import halve_exact

    h = A.cols // 2
    arows, brows = A.to_rows(), B.to_rows()
    l, m = A.rows, B.cols
    c = [[None] * m for _ in range(l)]
    t = [None] * l
    for i in range(l):
        a = arows[i]
        cacc = tacc = None
        for k in range(h):
            x, y = a[2 * k], a[2 * k + 1]
            u, v = brows[2 * k + 1][0], brows[2 * k][0]
            pp = (x + u) * (y + v)
            pm = (x - u) * (y - v)
            cacc = halve_exact(pp - pm) if cacc is None else cacc + halve_exact(pp - pm)
            tacc = halve_exact(pp + pm) if tacc is None else tacc + halve_exact(pp + pm)
        c[i][0] = cacc
        t[i] = tacc
    u_col = [None] * m
    a0 = arows[0]
    for j in range(1, m):
        cacc = uacc = None
        for k in range(h):
            x, y = a0[2 * k], a0[2 * k + 1]
            u, v = brows[2 * k + 1][j], brows[2 * k][j]
            pp = (x + u) * (y + v)
            pm = (x - u) * (y - v)
            cacc = halve_exact(pp - pm) if cacc is None else cacc + halve_exact(pp - pm)
            uacc = halve_exact(pp + pm) if uacc is None else uacc + halve_exact(pp + pm)
        c[0][j] = cacc
        u_col[j] = uacc
    for i in range(1, l):
        a = arows[i]
        for j in range(1, m):
            acc = reduce(
                add,
                [(a[2 * k] + brows[2 * k + 1][j]) * (a[2 * k + 1] + brows[2 * k][j]) for k in range(h)],
            )
            c[i][j] = acc + t[i] - u_col[j] + t[0]  # should subtract t[i]
    return Matrix(A.ring, l, m, [v for row in c for v in row])


def _mutant_winograd_dropped_correction(A, B):
    from functools import reduce
    from operator import add

    h = A.cols // 2
    arows, brows = A.to_rows(), B.to_rows()
    r = [reduce(add, [a[2 * k] * a[2 * k + 1] for k in range(h)]) for a in arows]
    s = [
        reduce(add, [brows[2 * k][j] * brows[2 * k + 1][j] for k in range(h)])
        for j in range(B.cols)
    ]
    out = []
    for i in range(A.rows):
        a = arows[i]
        for j in range(B.cols):
            acc = reduce(
                add,
                [(a[2 * k] + brows[2 * k + 1][j]) * (a[2 * k + 1] + brows[2 * k][j]) for k in range(h)],
            )
            out.append(acc - r[i] - s[j] + s[j])  # correction cancelled
    return Matrix(A.ring, A.rows, B.cols, out)


@pytest.mark.parametrize(
    "mutant,strategy,shape",
    [
        (_mutant_core3_p7_sign, Strategy.GENERAL_ODD, (1, 3, 3)),
        (_mutant_core3_p7_sign, Strategy.GENERAL_ODD, (3, 3, 3)),
        (_mutant_core3_index_swap, Strategy.GENERAL_ODD, (2, 3, 3)),
        (_mutant_waksman_interior_sign, Strategy.WAKSMAN_EVEN, (2, 4, 2)),
        (_mutant_winograd_dropped_correction, Strategy.WINOGRAD_EVEN, (2, 4, 2)),
    ],
)
def test_mutations_are_detected(monkeypatch, mutant, strategy, shape):
    assert not _verify_mutant(monkeypatch, strategy, mutant, shape).ok


def test_p7_sign_flip_witness_names_the_monomial(monkeypatch):
    report = _verify_mutant(monkeypatch, Strategy.GENERAL_ODD, _mutant_core3_p7_sign, (1, 3, 3))
    assert not report.ok
    assert report.entry == (0, 0)
    assert report.monomial == "b12*b21"
    assert report.coefficient == 2


def _mutant_naive_reads_b12(A, B):
    # entry (0, 0) of a 1 x 3 times 3 x 3 product reads b12 where it should read b11
    C = naive(A, B)
    out = list(C.data)
    out[0] = A[0, 0] * B[0, 1] + A[0, 1] * B[1, 0] + A[0, 2] * B[2, 0]
    return Matrix(C.ring, C.rows, C.cols, out)


def test_witness_is_the_least_monomial_by_exponent_vector(monkeypatch):
    # the wrong entry is a11*b12 - a11*b11: over (a11, ..., b33) the
    # exponent vector of a11*b12 is the smaller, though its key (0, 4)
    # sorts after a11*b11's (0, 3) as a plain tuple
    report = _verify_mutant(monkeypatch, Strategy.NAIVE, _mutant_naive_reads_b12, (1, 3, 3))
    assert (report.entry, report.monomial, report.coefficient) == ((0, 0), "a11*b12", 1)


# ---------------------------------------------------------------------------
# randomized oracle comparison


def test_randomized_check_general():
    report = randomized_check(Strategy.GENERAL_ODD, 3, 3, 3, trials=1000, seed=42)
    assert report.ok
    assert report.agreements == 1000


def test_randomized_check_waksman_modular():
    report = randomized_check(Strategy.WAKSMAN_EVEN, 2, 4, 2, ring=ModularRing(101), trials=500, seed=7)
    assert report.ok
    assert report.agreements == 500


def test_randomized_check_naive_self():
    assert randomized_check(Strategy.NAIVE, 2, 2, 2, trials=5, seed=0).ok


def test_randomized_check_reports_inputs_on_mismatch():
    # over a non-commutative ring the schedule is wrong, and the report
    # must carry the offending inputs in full
    report = randomized_check(Strategy.GENERAL_ODD, 3, 3, 3, ring=Mat2Ring(), trials=50, seed=0)
    assert not report.ok
    assert report.mismatch is not None
    assert len(report.mismatch.a_rows) == 3
    assert report.mismatch.got_rows != report.mismatch.want_rows
    assert "differs" in report.describe()


@pytest.mark.parametrize(
    "strategy,modulus,shape",
    [(Strategy.GENERAL_ODD, 101, (3, 5, 4)), (Strategy.GENERAL_WINOGRAD, 2**64, (5, 7, 4))],
    ids=["general-mod101", "general-winograd-mod2^64"],
)
def test_randomized_check_runs_through_the_ring_hook(monkeypatch, strategy, modulus, shape):
    # the residue operators refuse, so only the integer-lowered path that
    # multiply takes (ModularRing.run) can complete the check
    def refuse(*args):
        raise AssertionError("residue operator in randomized_check")

    for op in ("__add__", "__sub__", "__mul__", "__neg__", "halve"):
        monkeypatch.setattr(Mod, op, refuse)
    report = randomized_check(strategy, *shape, ring=ModularRing(modulus), trials=20, seed=3)
    assert report.ok
    assert report.agreements == 20


def test_randomized_check_deterministic():
    a = randomized_check(Strategy.GENERAL_ODD, 2, 5, 4, trials=20, seed=9)
    b = randomized_check(Strategy.GENERAL_ODD, 2, 5, 4, trials=20, seed=9)
    assert a.ok and b.ok and a.agreements == b.agreements


# ---------------------------------------------------------------------------
# count audits


def test_count_audit_examples():
    assert count_audit(Strategy.GENERAL_ODD, 5, 3, 3).predicted == 33
    report = count_audit(Strategy.GENERAL_ODD, 4, 5, 6)
    assert report.predicted == report.observed == 84
    assert count_audit(Strategy.NAIVE, 2, 2, 2).observed == 8


def test_count_audit_runs_at_least_two_inputs(monkeypatch):
    import ringmul.verify as verify

    runs = []
    real_tally = verify.tally

    def counting_tally(program, A, B):
        runs.append((A.to_rows(), B.to_rows()))
        return real_tally(program, A, B)

    monkeypatch.setattr(verify, "tally", counting_tally)
    # (n-1)(lm+l+m-1)/2 + lm at (2,3,2) is 2*7/2 + 4
    report = count_audit(Strategy.WAKSMAN_ODD, 2, 3, 2)
    assert report.predicted == report.observed == 11
    assert len(runs) == 2 and runs[0] != runs[1]


def test_count_audit_mismatch_raises():
    import ringmul.dispatch as dispatch

    row = dispatch._TABLE[Strategy.NAIVE]
    original = row.kernel

    def doubled(A, B):
        first = original(A, B)
        original(A, B)  # run twice: tally doubles
        return first

    dispatch._TABLE[Strategy.NAIVE] = row._replace(kernel=doubled)
    try:
        with pytest.raises(CountMismatch) as info:
            count_audit(Strategy.NAIVE, 2, 2, 2)
        assert info.value.predicted == 8
        assert info.value.observed == 16
    finally:
        dispatch._TABLE[Strategy.NAIVE] = row


def test_count_audit_names_the_figure_that_differs(monkeypatch):
    # one extra addition and the same multiplications: a multiplication
    # count alone would pass this kernel
    row = dispatch._TABLE[Strategy.NAIVE]

    def one_more_addition(A, B):
        C = naive(A, B)
        C[0, 0] + C[0, 0]
        return C

    monkeypatch.setitem(dispatch._TABLE, Strategy.NAIVE, row._replace(kernel=one_more_addition))
    with pytest.raises(CountMismatch, match="predicted 8 additions, observed 9$") as info:
        count_audit(Strategy.NAIVE, 2, 3, 2)
    assert (info.value.figure, info.value.predicted, info.value.observed) == ("additions", 8, 9)
    # a cost that claims one halving too many
    row = dispatch._TABLE[Strategy.WAKSMAN_EVEN]
    wrong = row._replace(cost=lambda l, n, m: (*row.cost(l, n, m)[:2], row.cost(l, n, m)[2] + 1))
    monkeypatch.setitem(dispatch._TABLE, Strategy.WAKSMAN_EVEN, wrong)
    with pytest.raises(CountMismatch) as info:
        count_audit(Strategy.WAKSMAN_EVEN, 2, 4, 3)
    assert (info.value.figure, info.value.predicted, info.value.observed) == ("halvings", 9, 8)


# ---------------------------------------------------------------------------
# taint audit and the commutativity witness


@pytest.mark.parametrize(
    "strategy,shape",
    [
        (Strategy.GENERAL_ODD, (3, 3, 3)),
        (Strategy.GENERAL_ODD, (4, 7, 6)),
        (Strategy.WAKSMAN_EVEN, (3, 4, 3)),
        (Strategy.WINOGRAD_EVEN, (2, 6, 2)),
        (Strategy.WAKSMAN_ODD, (2, 5, 2)),
        (Strategy.NAIVE, (2, 3, 4)),
        (Strategy.GENERAL_TRANSPOSED, (6, 7, 4)),
        (Strategy.GENERAL_WINOGRAD_TRANSPOSED, (6, 7, 2)),
    ],
)
def test_no_multiplications_by_constants(strategy, shape):
    assert taint_audit(strategy, *shape) == 0


def test_no_strategy_multiplies_a_constant_on_the_verify_grid():
    # every (strategy, l, n, m) that `ringmul verify` walks by default
    assert [s for s in cli._supported_shapes(3, 7, 6) if taint_audit(*s)] == []


def test_witness_search_finds_disagreement():
    witness = noncommutative_witness(seed=0)
    assert witness.differing_entries
    assert witness.schedule_product != witness.naive_product


def test_witness_search_budget_exhaustion():
    with pytest.raises(WitnessNotFound):
        noncommutative_witness(seed=0, attempts=0)


def test_frozen_witness_still_disagrees(frozen_noncommutative_pair):
    A, B = frozen_noncommutative_pair
    assert core3_times_3xm(A, B) != naive(A, B)


def test_frozen_witness_naive_is_block_product(frozen_noncommutative_pair):
    # the textbook formula is ring-agnostic: its output must match the
    # hand-rolled sum of entry products, left factors on the left
    A, B = frozen_noncommutative_pair
    got = naive(A, B)
    arows, brows = A.to_rows(), B.to_rows()
    for i in range(3):
        for j in range(3):
            want = arows[i][0] * brows[0][j]
            for k in (1, 2):
                want = want + arows[i][k] * brows[k][j]
            assert got[i, j] == want


def test_diagonal_subring_commutes_with_schedule():
    # diagonal 2x2 matrices commute, so the schedule agrees with naive
    ring = Mat2Ring()
    rng = random.Random(13)
    for _ in range(25):
        A = Matrix(ring, 3, 3, [ring.random_diagonal(rng) for _ in range(9)])
        B = Matrix(ring, 3, 3, [ring.random_diagonal(rng) for _ in range(9)])
        assert core3_times_3xm(A, B) == naive(A, B)
