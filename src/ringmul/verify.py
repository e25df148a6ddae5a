"""Correctness machinery for the multiplication schedules.

Three independent routes:

  - randomized_check compares a strategy against the textbook product on
    seeded pseudorandom matrices over a concrete ring;
  - symbolic_verify runs a strategy over the free commutative ring
    (integer polynomials in one indeterminate per matrix entry) and
    checks that every output entry minus the generic product expands to
    the zero polynomial -- which proves the identity over every
    commutative ring at once, at that shape.  Proofs compose: a split
    row computes A1*B1 + A2*B2, which is AB over any ring, and a mirrored
    row its row's (BᵀAᵀ)ᵀ, which is AB over any commutative ring.  So
    proofs of the base kernels (dispatch._PARTS) at every n through two
    fold blocks past baseline.FOLD_CAP, plus one case per split or
    mirrored row, run every code path of every row; the test suite
    proves that set, derived from the table;
  - count_audit asserts that the tallied multiplications, additions and
    halvings equal the strategy table's closed forms, whatever the input
    values.  It backs the count that `dispatch.multiply` reports, for
    multiply reads the table's closed form and counts nothing.

noncommutative_witness demonstrates the flip side: over a ring where
multiplication does not commute (2x2 integer matrices) the 3x3 schedule,
general.core3_times_3xm, produces wrong answers, so commutativity is
genuinely load-bearing.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import baseline, general
from .dispatch import CostReport, cost, kernel_for
from .errors import CountMismatch, TermBudgetExceeded, WitnessNotFound
from .matrices import Matrix, random_matrix
from .polynomials import PolynomialRing, exponents
from .rings import ZZ, IntegerRing, Mat2Ring, tally


def entry_names(l, n, m):
    """Variable names a11..a_ln, b11..b_nm for an l x n times n x m product."""
    sep = "_" if max(l, n, m) > 9 else ""
    a = [f"a{i + 1}{sep}{j + 1}" for i in range(l) for j in range(n)]
    b = [f"b{j + 1}{sep}{k + 1}" for j in range(n) for k in range(m)]
    return a + b


class SymbolicReport(NamedTuple):
    """Outcome of one symbolic identity check.

    On failure, entry is the (row, col) of the first wrong output entry
    and monomial/coefficient give the least term of its difference by
    exponent vector over the variables a11..b_nm, compared
    lexicographically (polynomials.exponents).
    """

    strategy: object
    l: int
    n: int
    m: int
    ok: bool
    entry: tuple = None
    monomial: str = None
    coefficient: int = None

    def describe(self):
        if self.ok:
            return f"{self.strategy} ({self.l},{self.n},{self.m}): identity holds"
        return (
            f"{self.strategy} ({self.l},{self.n},{self.m}): entry {self.entry} "
            f"differs by {self.coefficient}*{self.monomial}"
        )


def symbolic_verify(strategy, l, n, m, max_terms=200_000):
    """Prove (or refute) a schedule over the free commutative ring.

    Builds matrices of distinct indeterminates, runs the strategy's
    kernel, subtracts the generic product sum_k a_ik*b_kj entrywise and
    reports the first nonzero difference, if any.  max_terms bounds
    intermediate polynomial sizes via the ring's resource guard.
    """
    kernel = kernel_for(strategy)
    cost(strategy, l, n, m)  # validates the shape
    ring = PolynomialRing(entry_names(l, n, m), max_terms=max_terms)
    vs = ring.variables()
    A = Matrix(ring, l, n, vs[: l * n])
    B = Matrix(ring, n, m, vs[l * n :])
    C = kernel(A, B)

    arows = A.to_rows()
    brows = B.to_rows()
    for i in range(l):
        for j in range(m):
            ref = arows[i][0] * brows[0][j]
            for k in range(1, n):
                ref = ref + arows[i][k] * brows[k][j]
            diff = C[i, j] - ref
            if len(diff.terms) > max_terms:
                raise TermBudgetExceeded(f"difference has {len(diff.terms)} terms")
            if not diff.is_zero():
                key = min(diff.terms, key=exponents)
                return SymbolicReport(
                    strategy, l, n, m, False,
                    entry=(i, j),
                    monomial=ring.format_monomial(key),
                    coefficient=diff.terms[key],
                )
    return SymbolicReport(strategy, l, n, m, True)


class Mismatch(NamedTuple):
    trial: int
    a_rows: list
    b_rows: list
    got_rows: list
    want_rows: list


class RandomCheckReport(NamedTuple):
    strategy: object
    l: int
    n: int
    m: int
    trials: int
    agreements: int
    mismatch: Mismatch = None

    @property
    def ok(self):
        return self.mismatch is None and self.agreements == self.trials

    def describe(self):
        if self.ok:
            return f"{self.strategy} ({self.l},{self.n},{self.m}): {self.agreements}/{self.trials} equal"
        return (
            f"{self.strategy} ({self.l},{self.n},{self.m}): trial {self.mismatch.trial} "
            f"differs on A={self.mismatch.a_rows} B={self.mismatch.b_rows}"
        )


def randomized_check(strategy, l, n, m, ring=None, trials=100, seed=0):
    """Compare a strategy to the textbook product on seeded random inputs.

    Both products run through the ring's `run` hook, the path that
    `dispatch.multiply` takes, so over a ModularRing the check covers
    the kernel on the entries' integer values with one reduction per
    output entry.  Deterministic for a fixed seed; on the first mismatch
    the report carries the full inputs and both outputs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ring = ring if ring is not None else IntegerRing()
    kernel = kernel_for(strategy)
    rng = random.Random(seed)
    for t in range(trials):
        A = random_matrix(ring, l, n, rng)
        B = random_matrix(ring, n, m, rng)
        got = ring.run(kernel, A, B)
        want = ring.run(baseline.naive, A, B)
        if got != want:
            return RandomCheckReport(
                strategy, l, n, m, trials, t,
                Mismatch(t, A.to_rows(), B.to_rows(), got.to_rows(), want.to_rows()),
            )
    return RandomCheckReport(strategy, l, n, m, trials, trials)


def count_audit(strategy, l, n, m, seed=0):
    """Assert the tally is the predicted cost and input-independent.

    Counts the strategy's kernel afresh, one `tally` run on each of two
    distinct random inputs; raises CountMismatch on the first figure
    (multiplications, then additions, then halvings) where either tally
    differs from the table's closed form (they cannot differ from each
    other then).  Returns the CostReport.
    """
    predicted = cost(strategy, l, n, m)
    kernel = kernel_for(strategy)
    rng = random.Random(seed)
    for _ in range(2):
        A, B = random_matrix(ZZ, l, n, rng), random_matrix(ZZ, n, m, rng)
        counted = tally(kernel, A, B)[1]
        observed = counted.count, counted.adds, counted.halvings
        for figure, want, got in zip(("multiplications", "additions", "halvings"), predicted, observed):
            if got != want:
                message = f"{strategy} on ({l},{n},{m}): predicted {want} {figure}, observed {got}"
                raise CountMismatch(message, predicted=want, observed=got, figure=figure)
    return CostReport(strategy, l, n, m, predicted[0], observed[0])


def taint_audit(strategy, l, n, m, seed=0):
    """Count multiplications that consumed an operand not derived from
    the input matrices.  The schedules here never multiply by injected
    constants, so this is zero for every supported shape."""
    rng = random.Random(seed)
    A, B = random_matrix(ZZ, l, n, rng), random_matrix(ZZ, n, m, rng)
    return tally(kernel_for(strategy), A, B)[1].untainted


class NoncommutativeWitness(NamedTuple):
    """Inputs over 2x2 integer matrices where the 3x3 schedule fails.

    schedule_product comes from the 21-multiplication schedule,
    naive_product from the textbook formula (which is correct over any
    ring, commutative or not); they differ at differing_entries.
    """

    attempt: int
    a: Matrix
    b: Matrix
    schedule_product: Matrix
    naive_product: Matrix
    differing_entries: list


def noncommutative_witness(seed=0, attempts=64):
    """Search for a pair of 3x3 matrices over 2x2 integer matrices where
    the fast 3x3 schedule disagrees with the textbook product.

    Seeded and deterministic.  Raises WitnessNotFound only if the budget
    is exhausted, which would mean the schedule does not actually exploit
    commutativity.
    """
    ring = Mat2Ring()
    rng = random.Random(seed)
    for attempt in range(attempts):
        A = random_matrix(ring, 3, 3, rng)
        B = random_matrix(ring, 3, 3, rng)
        got = general.core3_times_3xm(A, B)
        want = baseline.naive(A, B)
        if got != want:
            diffs = [
                (i, j)
                for i in range(3)
                for j in range(3)
                if got[i, j] != want[i, j]
            ]
            return NoncommutativeWitness(attempt, A, B, got, want, diffs)
    raise WitnessNotFound(f"no disagreement in {attempts} seeded attempts")
