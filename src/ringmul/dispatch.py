"""Strategy selection, closed-form count prediction, and the front-door
multiply that counts each (kernel, shape) once and then runs bare."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import baseline, core3, general
from .errors import ShapeError, UnsupportedShape
from .rings import CountedRing


class Strategy(Enum):
    NAIVE = "naive"
    WINOGRAD_EVEN = "winograd-even"
    WAKSMAN_EVEN = "waksman-even"
    WAKSMAN_ODD = "waksman-odd"
    CORE3 = "core3"
    GENERAL_ODD = "general"
    AUTO = "auto"


#: Preference order for breaking predicted-count ties.
TIE_ORDER = (
    Strategy.GENERAL_ODD,
    Strategy.CORE3,
    Strategy.WAKSMAN_EVEN,
    Strategy.WINOGRAD_EVEN,
    Strategy.WAKSMAN_ODD,
    Strategy.NAIVE,
)

_KERNELS = {
    Strategy.NAIVE: baseline.naive,
    Strategy.WINOGRAD_EVEN: baseline.winograd_even,
    Strategy.WAKSMAN_EVEN: baseline.waksman_even,
    Strategy.WAKSMAN_ODD: baseline.waksman_odd,
    Strategy.CORE3: core3.mul_n3_33,
    Strategy.GENERAL_ODD: general.mul_odd_n,
}


@dataclass(frozen=True)
class CostReport:
    """Observed multiplication tally next to the formula prediction.

    observed is the tally of a counted run of this kernel at this shape:
    the first run in the process, which later runs of the same kernel and
    shape repeat without counting (see multiply).
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
        return _KERNELS[strategy]
    except KeyError:
        raise UnsupportedShape(f"{strategy} has no kernel; resolve AUTO first") from None


def _exact_half(v):
    q, r = divmod(v, 2)
    if r:
        raise AssertionError(f"count formula produced odd value {v}")
    return q


def predict_count(strategy, l, n, m):
    """Closed-form multiplication count of a strategy on shape (l, n, m).

    Pure and total on each strategy's supported shapes; raises
    UnsupportedShape outside them.  All formulas are exact integers on
    their domains (asserted, never rounded).
    """
    if l < 1 or n < 1 or m < 1:
        raise UnsupportedShape(f"dimensions must be positive, got ({l}, {n}, {m})")
    if strategy is Strategy.NAIVE:
        return l * n * m
    if strategy is Strategy.WINOGRAD_EVEN:
        if n % 2:
            raise UnsupportedShape(f"winograd-even needs even inner dimension, got {n}")
        return _exact_half(n * (l * m + l + m))
    if strategy is Strategy.WAKSMAN_EVEN:
        if n % 2:
            raise UnsupportedShape(f"waksman-even needs even inner dimension, got {n}")
        return _exact_half(n * (l * m + l + m - 1))
    if strategy is Strategy.WAKSMAN_ODD:
        if n % 2 == 0:
            raise UnsupportedShape(f"waksman-odd needs odd inner dimension, got {n}")
        return _exact_half((n - 1) * (l * m + l + m - 1)) + l * m
    if strategy is Strategy.CORE3:
        if n != 3 or m != 3:
            raise UnsupportedShape(f"core3 covers (l, 3, 3) shapes only, got ({l}, {n}, {m})")
        return 6 * l + 3
    if strategy is Strategy.GENERAL_ODD:
        if n % 2 == 0 or n < 3:
            raise UnsupportedShape(f"general needs odd inner dimension >= 3, got {n}")
        if m < 3:
            raise UnsupportedShape(f"general needs output width >= 3, got {m}")
        if m % 2:
            return _exact_half(n * (l * m + l + m - 1))
        return _exact_half(n * (l * m + l + m - 1) + l - 1)
    raise UnsupportedShape(f"no count formula for {strategy}")


def choose_strategy(l, n, m, supports_halving=True):
    """Deterministic strategy choice: lowest predicted count first among
    the strategies applicable to the shape and ring capabilities, with
    ties broken by TIE_ORDER.

    The rules below realize that ordering directly:
      - odd n >= 3 with m >= 3 -> GENERAL_ODD (needs halving only when n > 3)
      - even n -> WAKSMAN_EVEN with halving; WINOGRAD_EVEN without, except
        that for single-row or single-column products winograd's pairing
        costs n/2 more than the plain product, so NAIVE wins there
      - n == 1 -> NAIVE
      - m < 3 with odd n -> WAKSMAN_ODD with halving, NAIVE without
    """
    if l < 1 or n < 1 or m < 1:
        raise UnsupportedShape(f"dimensions must be positive, got ({l}, {n}, {m})")
    if n % 2 and n >= 3 and m >= 3 and (n == 3 or supports_halving):
        return Strategy.GENERAL_ODD
    if n % 2 == 0:
        if supports_halving:
            return Strategy.WAKSMAN_EVEN
        if (l - 1) * (m - 1) > 0:
            return Strategy.WINOGRAD_EVEN
        return Strategy.NAIVE
    if n == 1:
        return Strategy.NAIVE
    if m < 3 and supports_halving:
        return Strategy.WAKSMAN_ODD
    return Strategy.NAIVE


#: Audited multiplication tallies keyed by (kernel-table entry, l, n, m).
#: Each key is written once, after a counted run of that kernel succeeds;
#: two threads missing together only repeat the audit.
_AUDITED = {}
#: The table is cleared when it reaches this many keys.
_AUDITED_MAX = 1024


def multiply(A, B, strategy=Strategy.AUTO):
    """Multiply two matrices with a chosen (or auto-selected) strategy.

    Returns (product, CostReport).  Every kernel is a straight-line program
    over the element operators, so its multiplication count depends on
    the shape alone.  The first product of a given kernel and shape runs
    over an instrumented view of the input ring and records its tally;
    later products of that kernel and shape run on the caller's elements
    unwrapped and report the recorded tally as observed.  A kernel
    replaced in the kernel table is a new key and is counted afresh.
    """
    if A.cols != B.rows:
        raise ShapeError(f"inner dimensions disagree: {A.rows}x{A.cols} times {B.rows}x{B.cols}")
    if A.ring.name != B.ring.name:
        raise ValueError(f"operands over different rings: {A.ring.name} vs {B.ring.name}")
    l, n, m = A.rows, A.cols, B.cols
    if strategy is Strategy.AUTO:
        strategy = choose_strategy(l, n, m, supports_halving=A.ring.supports_halving)
    predicted = predict_count(strategy, l, n, m)
    kernel = kernel_for(strategy)
    key = (_KERNELS[strategy], l, n, m)
    observed = _AUDITED.get(key)
    if observed is not None:
        product = kernel(A, B)
    else:
        ctx = CountedRing(A.ring)
        product = ctx.unwrap(kernel(ctx.lift(A), ctx.lift(B)))
        observed = ctx.tally.count
        if len(_AUDITED) >= _AUDITED_MAX:
            _AUDITED.clear()
        _AUDITED[key] = observed
    return product, CostReport(strategy, l, n, m, predicted, observed)
