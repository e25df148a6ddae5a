"""Strategy selection, closed-form count prediction, and the front-door
multiply that runs every product bare and counts each (kernel, shape)
once, on zeros."""

from __future__ import annotations

import functools
from enum import Enum
from typing import Callable, NamedTuple

from . import baseline, general
from .errors import ExactHalveUnavailable, UnsupportedShape
from .matrices import Matrix
from .rings import ZZ, tally


class Strategy(Enum):
    NAIVE = "naive"
    WINOGRAD_EVEN = "winograd-even"
    WAKSMAN_EVEN = "waksman-even"
    WAKSMAN_ODD = "waksman-odd"
    CORE3 = "core3"
    GENERAL_ODD = "general"
    GENERAL_WINOGRAD = "general-winograd"
    GENERAL_TRANSPOSED = "general-transposed"
    GENERAL_WINOGRAD_TRANSPOSED = "general-winograd-transposed"
    AUTO = "auto"


class CostReport(NamedTuple):
    """Observed multiplication tally next to the formula prediction.

    observed is the multiplication tally of this kernel at this shape,
    counted by one `tally` run on zero matrices of that shape and cached
    per process (see multiply); no product passes through the counting
    elements.
    """

    strategy: Strategy
    l: int
    n: int
    m: int
    predicted: int
    observed: int


def kernel_for(strategy):
    """The kernel callable implementing a concrete strategy."""
    try:
        return _TABLE[strategy].kernel
    except KeyError:
        raise UnsupportedShape(f"{strategy} has no kernel; resolve AUTO first") from None


def _exact_half(v):
    q, r = divmod(v, 2)
    if r:
        raise AssertionError(f"count formula produced odd value {v}")
    return q


def _core3_count(l, m):
    """core3_times_3xm's count at l x 3 x m, m >= 3: 6l + 3 at m = 3."""
    return _exact_half(3 * (l * m + l + m - 1) + (0 if m % 2 else l - 1))


class _Row(NamedTuple):
    kernel: Callable  # (A, B) -> A*B; multiply's audit keys on this object
    domain: Callable  # (l, n, m) -> why a positive shape is outside the domain, or None; no name
    count: Callable  # (l, n, m) -> closed-form multiplication count on the domain
    # the kernel halves when n exceeds this (None: never); there, over a
    # ring without exact halving, multiply refuses the row, not the kernel
    halves_above: int | None


def _mirrored(row):
    """row's schedule run on the mirrored product BᵀAᵀ, transposed back.

    Over a commutative ring AB = (BᵀAᵀ)ᵀ, and a transpose is slicing, so
    the mirrored row's domain, count and halving need are row's at
    (m, n, l).  row's domain takes the label of its width dimension, which
    is the caller's l here, so a refusal names the caller's dimension.
    """
    kernel = row.kernel

    def mirrored(A, B):
        return kernel(B.transpose(), A.transpose()).transpose()

    return _Row(
        mirrored,
        lambda l, n, m: row.domain(m, n, l, width="l"),
        lambda l, n, m: row.count(m, n, l),
        row.halves_above,
    )


def _split(kernel):
    """The row of a kernel that baseline.inner_split built from (domain,
    lead, width, rest): its count is lead's at (l, width, m) plus, when
    n > width, rest's at (l, n - width, m), and it halves where rest
    does, width columns further on.  lead never halves.
    """
    domain, lead, width, rest = kernel.parts
    lead, rest = _PARTS[lead], _PARTS[rest]

    def count(l, n, m):
        return lead.count(l, width, m) + (rest.count(l, n - width, m) if n > width else 0)

    above = rest.halves_above
    return _Row(kernel, domain, count, None if above is None else width + above)


_NAIVE = _Row(baseline.naive, lambda l, n, m: None, lambda l, n, m: l * n * m, None)
_CORE3 = _Row(general.mul_n3_33, general.n3_m3, lambda l, n, m: _core3_count(l, m), None)
_WAKSMAN_EVEN = _Row(
    baseline.waksman_even, baseline.even_n, lambda l, n, m: _exact_half(n * (l * m + l + m - 1)), 0
)
_WINOGRAD_EVEN = _Row(
    baseline.winograd_even, baseline.even_n, lambda l, n, m: _exact_half(n * (l * m + l + m)), None
)

#: The row that prices each part of a split kernel.  CORE3's count holds
#: for core3_times_3xm at every m >= 3, so it prices general's lead block.
_PARTS = {row.kernel: row for row in (_NAIVE, _WAKSMAN_EVEN, _WINOGRAD_EVEN)}
_PARTS[general.core3_times_3xm] = _CORE3

#: Kernel, domain, count formula and halving need of each concrete
#: strategy, one row each.  Each domain but naive's is the predicate
#: that its kernel refuses through; a split row's count and halving
#: need come from its parts (_split).  The rows are in tie order:
#: among applicable strategies with the same predicted count,
#: choose_strategy takes the first row.  naive comes first, so at equal
#: counts `auto` runs the textbook product, which spends the fewest
#: additions and never halves.
#: The mirrored rows come last, so `auto` runs a product transposed only
#: where that is strictly cheaper.
_TABLE = {
    Strategy.NAIVE: _NAIVE,
    Strategy.GENERAL_ODD: _split(general.mul_odd_n),
    Strategy.CORE3: _CORE3,
    Strategy.WAKSMAN_EVEN: _WAKSMAN_EVEN,
    Strategy.WINOGRAD_EVEN: _WINOGRAD_EVEN,
    Strategy.WAKSMAN_ODD: _split(baseline.waksman_odd),
    Strategy.GENERAL_WINOGRAD: _split(general.mul_odd_n_winograd),
}

#: The mirrored row of each strategy whose count is asymmetric in l and
#: m.  The other counts are symmetric, so their mirrors could never win.
MIRRORS = {
    Strategy.GENERAL_ODD: Strategy.GENERAL_TRANSPOSED,
    Strategy.GENERAL_WINOGRAD: Strategy.GENERAL_WINOGRAD_TRANSPOSED,
}
_TABLE.update({mirror: _mirrored(_TABLE[s]) for s, mirror in MIRRORS.items()})

#: Preference order for breaking predicted-count ties: the table's order.
TIE_ORDER = tuple(_TABLE)


def predict_count(strategy, l, n, m):
    """Closed-form multiplication count of a strategy on shape (l, n, m).

    Pure and total on each strategy's supported shapes; raises
    UnsupportedShape outside them.  All formulas are exact integers on
    their domains (asserted, never rounded).
    """
    if l < 1 or n < 1 or m < 1:
        raise UnsupportedShape(f"dimensions must be positive, got ({l}, {n}, {m})")
    if strategy not in _TABLE:
        raise UnsupportedShape(f"no count formula for {strategy}")
    reason = _TABLE[strategy].domain(l, n, m)
    if reason is not None:
        raise UnsupportedShape(f"{strategy.value} {reason}")
    return _TABLE[strategy].count(l, n, m)


def applicable(strategy, l, n, m, supports_halving):
    """Whether strategy covers (l, n, m) over a ring with or without exact halving."""
    try:
        predict_count(strategy, l, n, m)
    except UnsupportedShape:
        return False
    above = _TABLE[strategy].halves_above
    return supports_halving or above is None or n <= above


@functools.lru_cache(maxsize=1024)
def choose_strategy(l, n, m, supports_halving=True):
    """Deterministic strategy choice: the lowest predicted count among the
    strategies applicable to the shape and ring capabilities.  Tie order
    is table order: min keeps the first of equal counts, and _TABLE's rows
    are written in preference order (TIE_ORDER).
    """
    if l < 1 or n < 1 or m < 1:
        raise UnsupportedShape(f"dimensions must be positive, got ({l}, {n}, {m})")
    return min(
        (s for s in _TABLE if applicable(s, l, n, m, supports_halving)),
        key=lambda s: predict_count(s, l, n, m),
    )


@functools.lru_cache(maxsize=1024)
def _observed(kernel, l, n, m):
    """kernel's multiplication tally at (l, n, m), counted on integer zeros.

    Keyed on the table row's kernel, so a kernel replaced in its row is
    counted afresh.  Two threads that miss together only repeat the
    replay.
    """
    return tally(kernel, Matrix.zeros(ZZ, l, n), Matrix.zeros(ZZ, n, m))[1].count


def multiply(A, B, strategy=Strategy.AUTO):
    """Multiply two matrices with a chosen (or auto-selected) strategy.

    Returns (product, CostReport).  Every product comes from the bare
    kernel through the ring's `run` hook: over a ModularRing the kernel
    runs on the entries' integer values and each output entry is reduced
    once, so no residue operator runs.  Every kernel is a straight-line
    program over the element operators, so its multiplication count
    depends on the shape alone, not on the ring.  The first time a kernel
    meets a shape, `tally` replays it once on integer zeros of that
    shape; the replay only counts, and _observed caches its count (the
    last 1024 kernel-and-shape keys) as the observed figure of every
    product of that kernel and shape.  Refusals, such as a halving
    schedule over an even modulus, come from the strategy table before
    the replay and the product run, and name the caller's ring.  A
    kernel replaced in its table row is a new key and is counted afresh.

    Every schedule but naive relies on commuting entries, so over a ring
    whose `commutative` is False AUTO resolves to NAIVE and any other
    strategy raises ValueError.
    """
    baseline._check_inner(A, B)
    if A.ring.name != B.ring.name:
        raise ValueError(f"operands over different rings: {A.ring.name} vs {B.ring.name}")
    l, n, m = A.rows, A.cols, B.cols
    if not A.ring.commutative and strategy is not Strategy.NAIVE:
        if strategy is not Strategy.AUTO:
            raise ValueError(f"{strategy.value} needs a commutative ring, {A.ring.name} is not")
        strategy = Strategy.NAIVE
    if strategy is Strategy.AUTO:
        strategy = choose_strategy(l, n, m, supports_halving=A.ring.supports_halving)
    predicted = predict_count(strategy, l, n, m)
    if not (A.ring.supports_halving or applicable(strategy, l, n, m, False)):
        raise ExactHalveUnavailable(f"ring {A.ring.name} lacks exact halving")
    kernel = kernel_for(strategy)
    observed = _observed(_TABLE[strategy].kernel, l, n, m)
    return A.ring.run(kernel, A, B), CostReport(strategy, l, n, m, predicted, observed)
