"""Acceptance suite.

One test per shipping criterion; each prints a single PASS/FAIL line
(visible with ``pytest -s``) and asserts at zero tolerance on counts and
equality.  Criterion 5 is expected to fail honestly: strict count
superiority over the odd-n comparator holds for l >= 2 but the counts
tie exactly at l == 1 (the gap is (l-1)(m-1)/2 resp. (l-1)(m-2)/2), so
the full-grid strict check cannot pass; see the assertion message.
"""

import functools
import random
import time

from ringmul import (
    CountMismatch,
    IntegerRing,
    Mat2Ring,
    Matrix,
    Strategy,
    ZZ,
    core3_times_3xm,
    count_audit,
    kernel_for,
    multiply,
    naive,
    noncommutative_witness,
    predict_count,
    random_matrix,
    symbolic_verify,
    tally,
)

from conftest import odd_n_count

GRID = [(l, n, m) for l in range(1, 6) for n in (3, 5, 7, 9) for m in range(3, 9)]


@functools.cache
def _grid_audit():
    """count_audit of general at every GRID shape, run once for criteria 3
    and 8: the shape's report, or the CountMismatch that it raised."""
    audits = {}
    for l, n, m in GRID:
        try:
            audits[l, n, m] = count_audit(Strategy.GENERAL_ODD, l, n, m, seed=l * 100 + n * 10 + m)
        except CountMismatch as e:
            audits[l, n, m] = e
    return audits


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_3x3_uses_21_multiplications():
    t0 = time.perf_counter()
    I = Matrix.identity(ZZ, 3)
    # multiply reports the table's count; tally counts the kernel itself
    product, report = multiply(I, I, Strategy.GENERAL_ODD)
    assert product == I
    product, counted = tally(kernel_for(Strategy.GENERAL_ODD), I, I)
    assert product == I
    observed = {"multiply": report.observed, "tally": counted.count}
    elapsed = time.perf_counter() - t0
    ok = all(v == 21 for v in observed.values()) and elapsed < 1.0
    _report(1, ok, f"3x3 product tallies 21 via multiply's report and the kernel's tally ({elapsed:.3f}s)")
    assert observed["multiply"] == 21
    assert observed["tally"] == 21
    assert elapsed < 1.0


def test_criterion_2_n_by_3_uses_6n_plus_3():
    t0 = time.perf_counter()
    rng = random.Random(2)
    ring = IntegerRing()
    bad = []
    for n in range(1, 65):
        A = random_matrix(ring, n, 3, rng)
        B = random_matrix(ring, 3, 3, rng)
        count = tally(kernel_for(Strategy.GENERAL_ODD), A, B)[1].count
        if count != 6 * n + 3:
            bad.append((n, count))
    elapsed = time.perf_counter() - t0
    _report(2, not bad and elapsed < 5.0, f"6n+3 for n in 1..64 ({elapsed:.3f}s)")
    assert not bad, bad
    assert elapsed < 5.0


def test_criterion_3_general_counts_match_formulas():
    t0 = time.perf_counter()
    bad = [
        (shape, audit)
        for shape, audit in _grid_audit().items()
        if isinstance(audit, CountMismatch) or audit.observed != odd_n_count(*shape)
    ]
    elapsed = time.perf_counter() - t0
    _report(3, not bad and elapsed < 30.0, f"{len(GRID)} grid shapes audited ({elapsed:.3f}s)")
    assert not bad, bad
    assert elapsed < 30.0


def test_criterion_4_baseline_counts():
    t0 = time.perf_counter()
    bad = []
    for l in range(1, 6):
        for m in range(1, 6):
            s = l * m + l + m - 1
            for n in (2, 4, 6):
                if count_audit(Strategy.WAKSMAN_EVEN, l, n, m).observed != n * s // 2:
                    bad.append((Strategy.WAKSMAN_EVEN, l, n, m))
                if count_audit(Strategy.WINOGRAD_EVEN, l, n, m).observed != n * (l * m + l + m) // 2:
                    bad.append((Strategy.WINOGRAD_EVEN, l, n, m))
            for n in (1, 3, 5, 7, 9):
                if count_audit(Strategy.WAKSMAN_ODD, l, n, m).observed != (n - 1) * s // 2 + l * m:
                    bad.append((Strategy.WAKSMAN_ODD, l, n, m))
    elapsed = time.perf_counter() - t0
    _report(4, not bad, f"even/odd baseline tallies match their formulas ({elapsed:.3f}s)")
    assert not bad, bad


def test_criterion_5_strict_superiority_over_comparator():
    t0 = time.perf_counter()
    assert predict_count(Strategy.GENERAL_ODD, 3, 3, 3) == 21
    assert predict_count(Strategy.WAKSMAN_ODD, 3, 3, 3) == 23
    assert predict_count(Strategy.GENERAL_ODD, 3, 3, 4) == 28
    assert predict_count(Strategy.WAKSMAN_ODD, 3, 3, 4) == 30
    violations = []
    for l, n, m in GRID:
        ours = predict_count(Strategy.GENERAL_ODD, l, n, m)
        comparator = predict_count(Strategy.WAKSMAN_ODD, l, n, m)
        if not ours < comparator:
            violations.append((l, n, m, ours, comparator))
    elapsed = time.perf_counter() - t0
    _report(
        5,
        not violations,
        f"strict superiority on {len(GRID)} shapes; {len(violations)} ties ({elapsed:.3f}s)",
    )
    assert not violations, (
        f"strict superiority fails on {len(violations)}/{len(GRID)} grid shapes, "
        f"every one with l == 1, where the predicted counts are exactly equal "
        f"(first: shape {violations[0][:3]} has {violations[0][3]} == {violations[0][4]}); "
        f"the count gap is (l-1)(m-1)/2 for odd m and (l-1)(m-2)/2 for even m, "
        f"so single-row products tie the comparator instead of beating it"
    )


def test_criterion_6_oracle_equivalence_1000_trials_per_shape():
    t0 = time.perf_counter()
    span = 10**6
    checked = 0
    for l, n, m in GRID:
        rng = random.Random(f"acceptance6:{l}:{n}:{m}")
        kernels = [kernel_for(Strategy.GENERAL_ODD), kernel_for(Strategy.WAKSMAN_ODD)]
        if n == 3 and m == 3:
            kernels.append(core3_times_3xm)  # general's lead block, bare
        an, nm = l * n, n * m
        for _ in range(1000):
            A = Matrix(ZZ, l, n, [rng.randint(-span, span) for _ in range(an)])
            B = Matrix(ZZ, n, m, [rng.randint(-span, span) for _ in range(nm)])
            want = naive(A, B)
            for kernel in kernels:
                assert kernel(A, B) == want
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report(6, ok, f"{checked} strategy runs equal the textbook product ({elapsed:.1f}s)")
    assert elapsed < 120.0


def test_criterion_7_symbolic_identities():
    t0 = time.perf_counter()
    jobs = [(Strategy.GENERAL_ODD, l, 3, 3) for l in range(1, 5)]
    jobs += [
        (Strategy.GENERAL_ODD, l, n, m)
        for l in range(1, 4)
        for n in (3, 5, 7)
        for m in range(3, 8)
    ]
    jobs += [
        (strategy, l, n, m)
        for strategy in (Strategy.WAKSMAN_EVEN, Strategy.WINOGRAD_EVEN)
        for n in (2, 4, 6)
        for l in range(1, 4)
        for m in range(1, 4)
    ]
    jobs += [
        (Strategy.WAKSMAN_ODD, l, n, m)
        for n in (3, 5)
        for l in range(1, 4)
        for m in range(1, 4)
    ]
    failures = []
    for strategy, l, n, m in jobs:
        report = symbolic_verify(strategy, l, n, m)
        if not report.ok:
            failures.append(report.describe())
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(7, ok, f"{len(jobs)} schedules expand to the generic product ({elapsed:.1f}s)")
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_8_no_multiplications_by_constants():
    # count_audit's fourth figure, constant multiplications, is 0 on both
    # of its inputs wherever it passes; a mismatch in an earlier figure
    # stops the audit before that figure, so it fails this criterion too
    t0 = time.perf_counter()
    bad = [(shape, audit) for shape, audit in _grid_audit().items() if isinstance(audit, CountMismatch)]
    elapsed = time.perf_counter() - t0
    _report(8, not bad, f"count_audit finds no multiplication by a constant on {len(GRID)} shapes ({elapsed:.3f}s)")
    assert not bad, bad


def test_criterion_9_commutativity_dependence(frozen_noncommutative_pair):
    t0 = time.perf_counter()
    A, B = frozen_noncommutative_pair
    schedule = core3_times_3xm(A, B)
    textbook = naive(A, B)
    frozen_differs = schedule != textbook

    searched = noncommutative_witness(seed=0)

    ring = Mat2Ring()
    rng = random.Random(99)
    diagonal_agrees = True
    for _ in range(25):
        D1 = Matrix(ring, 3, 3, [ring.random_diagonal(rng) for _ in range(9)])
        D2 = Matrix(ring, 3, 3, [ring.random_diagonal(rng) for _ in range(9)])
        if core3_times_3xm(D1, D2) != naive(D1, D2):
            diagonal_agrees = False
    elapsed = time.perf_counter() - t0
    ok = frozen_differs and bool(searched.differing_entries) and diagonal_agrees
    _report(9, ok, f"schedule is wrong without commutativity, right on the diagonal subring ({elapsed:.3f}s)")
    assert frozen_differs
    assert searched.differing_entries
    assert diagonal_agrees
