"""Ring element contracts, concrete rings, and counting instrumentation.

Elements are ordinary Python objects implementing ``+``, ``-``, unary
minus, ``*`` and ``==``.  A ring object only manufactures elements
(zero, one, integer conversion, random samples) and advertises
capabilities; every algorithm in this package is written against the
element operators, so any element type with those operators works
unchanged.  In particular plain ``int`` is the element type of the
default integer ring, and a 2x2 Matrix over ZZ that of Mat2Ring.
``from_int`` takes an integer only: TypeError for a float or a string.
A CountedRing is one counted run's tally: its elements bill it.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .errors import ExactHalveUnavailable, NotEvenlyDivisible
from .matrices import Matrix

def halve_exact(x):
    """Return y with y + y == x.

    Exact halving exists on 2-torsion-free rings (integers, odd moduli,
    integer polynomials).  It is division by a fixed unit, not a general
    ring multiplication, and is never counted as one (Counted tallies it
    apart, under halvings).  It costs no multiply in practice either:
    ``x // 2`` on integers, a shift on residues of an odd modulus.

    Raises NotEvenlyDivisible when x is not of the form y + y, and
    ExactHalveUnavailable when the element's ring has no halving at all.
    """
    if isinstance(x, int):
        if x % 2:
            raise NotEvenlyDivisible(f"{x} is odd")
        return x // 2
    halve = getattr(x, "halve", None)
    if halve is None:
        raise ExactHalveUnavailable(f"no exact halving on {type(x).__name__}")
    return halve()


class Ring:
    """Element factory and capability record for one coefficient domain."""

    name = "ring"
    commutative = True
    supports_halving = False

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, k):
        """Image of the integer k under the canonical map into the ring."""
        raise NotImplementedError

    def random_element(self, rng):
        raise NotImplementedError

    def run(self, program, A, B):
        """program(A, B) for matrices A and B over this ring.

        `dispatch.multiply` runs every kernel through this hook, so that
        a ring whose elements have a cheaper exact stand-in can run the
        kernel on the stand-in instead (see ModularRing.run).  The hook
        only computes: which strategy may run over the ring is decided
        before it, by multiply from the strategy table.
        """
        return program(A, B)

    def __repr__(self):
        return self.name


class IntegerRing(Ring):
    """Arbitrary-precision signed integers, the default exact ring.

    random_element draws from -99..99; arithmetic itself never overflows.
    """

    name = "int"
    supports_halving = True

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k):
        return operator.index(k)

    def random_element(self, rng):
        return rng.randint(-99, 99)


#: Shared default integer ring instance.
ZZ = IntegerRing()


class Mod:
    """Residue in Z/mZ, always stored reduced: 0 <= value < modulus.

    ``Mod(v, m)`` reduces any int v with ``%``, and every operator builds
    its result that way.  CPython's ``%`` returns early when v is below m
    in magnitude and divides in full otherwise, so a sum is first brought
    below m by one conditional subtract of m, and a product by the mask
    ``& (m - 1)`` when m is a power of two.  A negation is built as m - v,
    which skips the sign fix-up of a negative v; a difference of reduced
    values already lies within m.  Halving at an odd modulus is a shift.
    An operand that is not a Mod gives NotImplemented, so mixing a
    residue with a plain int raises TypeError.

    `dispatch.multiply` does not use these operators: it runs its
    kernels on the integer values and reduces once per output entry
    (ModularRing.run).  They serve every other caller of the elements.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        self.value = value % modulus
        self.modulus = modulus

    def _operand(self, other):
        """other's value, or None when other is not a Mod; ValueError
        when it is a residue of another modulus."""
        if not isinstance(other, Mod):
            return None
        if other.modulus != self.modulus:
            raise ValueError(f"mixed moduli {self.modulus} and {other.modulus}")
        return other.value

    def __add__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        v += self.value
        return Mod(v - self.modulus if v >= self.modulus else v, self.modulus)

    def __sub__(self, other):
        v = self._operand(other)
        return NotImplemented if v is None else Mod(self.value - v, self.modulus)

    def __mul__(self, other):
        v = self._operand(other)
        if v is None:
            return NotImplemented
        m = self.modulus
        p = self.value * v
        # When m is a power of two, p & (m - 1) == p % m, and cheaper.
        return Mod(p & (m - 1) if m & (m - 1) == 0 else p, m)

    def __neg__(self):
        return Mod(self.modulus - self.value, self.modulus)

    def __eq__(self, other):
        return (
            isinstance(other, Mod)
            and self.modulus == other.modulus
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.value, self.modulus))

    def halve(self):
        # 2 is invertible exactly when the modulus is odd; for even moduli
        # x = y + y does not determine y, so the capability is absent.
        # At odd m, exactly one of v and v + m is even, and half of it is
        # below m.
        m = self.modulus
        if not m & 1:
            raise ExactHalveUnavailable(f"2 is not invertible mod {m}")
        v = self.value
        return Mod((v + m if v & 1 else v) >> 1, m)

    def __repr__(self):
        return f"Mod({self.value}, {self.modulus})"


class ModularRing(Ring):
    """Integers modulo a fixed modulus >= 2."""

    def __init__(self, modulus):
        if not isinstance(modulus, int):
            raise TypeError(f"modulus must be an int, got {type(modulus).__name__}")
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        self.modulus = modulus
        self.name = f"mod{modulus}"

    @property
    def supports_halving(self):
        return self.modulus % 2 == 1

    def run(self, program, A, B):
        """program(A, B) run on the integer values of the entries, reduced
        once per output entry.

        The kernels are straight-line programs of ``+``, ``-``, unary
        minus, ``*`` and exact halving.  Over the integers each halving
        takes a value of the form y + y, so it is exact, and reduction
        mod m is a ring map: the reduced integer result is the true
        product mod m at any m, even or odd, for the price of one
        reduction per output entry instead of one per operation.  That a
        halving schedule is refused at an even modulus is
        dispatch.multiply's policy, read from the strategy table.  Each
        output entry is built by the Mod constructor; at a power-of-two
        modulus the mask reduces it first, since at 2^4096 a ``%`` of a
        product costs about 36 µs against under 1 µs for the mask, and
        the constructor's ``%`` of a reduced value costs little.  Each
        input entry must be a Mod of this modulus: TypeError for anything
        else, ValueError for another modulus.
        """
        C = program(self._lower(A), self._lower(B))
        m = self.modulus
        mask = m - 1
        if m & mask:
            out = [Mod(v, m) for v in C.data]
        else:
            out = [Mod(v & mask, m) for v in C.data]
        return Matrix(self, C.rows, C.cols, out)

    def _lower(self, matrix):
        """The matrix of the entries' integer values, over ZZ."""
        m = self.modulus
        data = matrix.data
        values = [e.value for e in data if isinstance(e, Mod) and e.modulus == m]
        if len(values) < len(data):
            bad = next(e for e in data if not (isinstance(e, Mod) and e.modulus == m))
            if not isinstance(bad, Mod):
                raise TypeError(f"{type(bad).__name__} entry in a matrix over {self.name}")
            raise ValueError(f"mixed moduli {m} and {bad.modulus}")
        return Matrix(ZZ, matrix.rows, matrix.cols, values)

    def zero(self):
        return Mod(0, self.modulus)

    def one(self):
        return Mod(1, self.modulus)

    def from_int(self, k):
        return Mod(operator.index(k), self.modulus)

    def random_element(self, rng):
        return Mod(rng.randrange(self.modulus), self.modulus)


class Mat2Ring(Ring):
    """Ring of 2x2 integer matrices (non-commutative), whose elements are
    the library's own Matrix over ZZ; random draws take each entry from
    -2..2.

    Deliberately non-commutative: used as a negative witness showing that
    the fast schedules really depend on commutativity of the scalars.
    """

    name = "mat2"
    commutative = False
    supports_halving = True

    def zero(self):
        return Matrix(ZZ, 2, 2, [0, 0, 0, 0])

    def one(self):
        return Matrix(ZZ, 2, 2, [1, 0, 0, 1])

    def from_int(self, k):
        k = operator.index(k)
        return Matrix(ZZ, 2, 2, [k, 0, 0, k])

    def random_element(self, rng):
        return Matrix(ZZ, 2, 2, [rng.randint(-2, 2) for _ in range(4)])

    def random_diagonal(self, rng):
        """Sample from the commutative subring of diagonal matrices."""
        return Matrix(ZZ, 2, 2, [rng.randint(-2, 2), 0, 0, rng.randint(-2, 2)])


class Counted:
    """Element wrapper billing each operation to its CountedRing context.

    taint is True once a value depends on some input matrix entry.
    Constants injected by an algorithm (zero, one, from_int) stay
    untainted, and the context's untainted field counts any
    multiplication that consumed an untainted operand.
    """

    __slots__ = ("ctx", "value", "taint")

    def __init__(self, ctx, value, taint):
        self.ctx = ctx
        self.value = value
        self.taint = taint

    def __add__(self, other):
        if not isinstance(other, Counted):
            return NotImplemented
        self.ctx.adds += 1
        return Counted(self.ctx, self.value + other.value, self.taint or other.taint)

    def __sub__(self, other):
        if not isinstance(other, Counted):
            return NotImplemented
        self.ctx.adds += 1
        return Counted(self.ctx, self.value - other.value, self.taint or other.taint)

    def __mul__(self, other):
        if not isinstance(other, Counted):
            return NotImplemented
        ctx = self.ctx
        ctx.count += 1
        if not (self.taint and other.taint):
            ctx.untainted += 1
        return Counted(ctx, self.value * other.value, self.taint or other.taint)

    def __neg__(self):
        self.ctx.adds += 1
        return Counted(self.ctx, -self.value, self.taint)

    def __eq__(self, other):
        return isinstance(other, Counted) and self.value == other.value

    __hash__ = None

    def halve(self):
        # Tallied apart: exact halving is free in the cost model's count.
        self.ctx.halvings += 1
        return Counted(self.ctx, halve_exact(self.value), self.taint)

    def __repr__(self):
        mark = "*" if self.taint else ""
        return f"Counted({self.value!r}{mark})"


class CountedRing(Ring):
    """Instrumented view of a base ring, and the tally of one computation.

    Its elements bill the operations they execute to it: count, the
    general ring multiplications that the cost model prices, and apart
    from them adds (each ``+``, ``-`` and unary minus) and exact
    halvings.  untainted counts the multiplications that consumed an
    operand not derived from the inputs; count_audit checks that it is
    0, as it is for every schedule here.  One instance is one
    computation context, so concurrent computations never share state;
    tally() makes one per counted run.
    """

    def __init__(self, base):
        self.base = base
        self.count = self.adds = self.halvings = self.untainted = 0
        self.name = f"counted({base.name})"

    @property
    def supports_halving(self):
        return self.base.supports_halving

    @property
    def commutative(self):
        return self.base.commutative

    def zero(self):
        return Counted(self, self.base.zero(), False)

    def one(self):
        return Counted(self, self.base.one(), False)

    def from_int(self, k):
        return Counted(self, self.base.from_int(k), False)


def tally(program, A, B):
    """Run program(A, B) once over a fresh CountedRing(A.ring).

    Every entry of A and B enters as a tainted input.  Returns (the
    product over A.ring, the run's CountedRing), whose count, adds,
    halvings and untainted are the run's tally.  Raises ValueError when
    B is over another ring than A.
    """
    if B.ring.name != A.ring.name:
        raise ValueError(f"B over {B.ring.name}, A over {A.ring.name}")
    ctx = CountedRing(A.ring)
    C = program(*(M.map_entries(lambda v: Counted(ctx, v, True), ring=ctx) for M in (A, B)))
    return C.map_entries(lambda e: e.value, ring=A.ring), ctx


class AxiomFailure(NamedTuple):
    law: str
    operands: tuple

    def describe(self):
        ops = ", ".join(repr(o) for o in self.operands)
        return f"{self.law} fails on ({ops})"


class AxiomReport(NamedTuple):
    ring_name: str
    samples: int
    failures: list

    @property
    def ok(self):
        return not self.failures


def ring_axiom_check(ring, samples=100, seed=0):
    """Spot-check the commutative-ring laws on pseudorandom elements.

    Checks commutativity and associativity of + and *, distributivity,
    identities and additive inverses.  Failures are collected into the
    report rather than raised; deterministic for a fixed seed.
    """
    import random

    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    zero = ring.zero()
    one = ring.one()
    failures = []
    for _ in range(samples):
        x = ring.random_element(rng)
        y = ring.random_element(rng)
        z = ring.random_element(rng)
        laws = (
            ("add_commutative", x + y == y + x, (x, y)),
            ("add_associative", (x + y) + z == x + (y + z), (x, y, z)),
            ("mul_commutative", x * y == y * x, (x, y)),
            ("mul_associative", (x * y) * z == x * (y * z), (x, y, z)),
            ("distributive", x * (y + z) == x * y + x * z, (x, y, z)),
            ("zero_identity", x + zero == x, (x,)),
            ("one_identity", x * one == x, (x,)),
            ("add_inverse", x + (-x) == zero, (x,)),
        )
        for law, holds, operands in laws:
            if not holds:
                failures.append(AxiomFailure(law, operands))
    return AxiomReport(ring.name, samples, failures)
