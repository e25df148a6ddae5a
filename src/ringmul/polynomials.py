"""Sparse integer-coefficient multivariate polynomials.

Terms are stored as ``{key: coefficient}``, a term's key being the
sorted tuple of its variables' indices, one per factor; a constant's
key is ().  Over variables (x0, x1, x2):

    3*x0*x2**2 - x1   ->   {(0, 2, 2): 3, (1,): -1}

A term product merges two short keys, so products and lookups cost time
in the terms' degree, not in the number of variables.  Where order
shows (format_poly's term order, ringmul.verify's witness) terms rank by
exponent vector: exponents(key), each variable's multiplicity up to the
key's largest index, compares as the full vector would.

Zero coefficients are never stored, so ``==`` is structural and the zero
polynomial is the empty map.  These polynomials form the free
commutative ring over their variables: an identity holding here holds
in every commutative ring after substitution, which is what makes the
symbolic verification in `ringmul.verify` conclusive.
"""

from __future__ import annotations

import operator

from .errors import NotEvenlyDivisible, TermBudgetExceeded
from .rings import Ring


def exponents(key):
    """Each variable's multiplicity in key, up to its largest index:
    (0, 2, 2), the key of x0*x2**2, gives (1, 0, 2)."""
    return tuple(map(key.count, range(key[-1] + 1 if key else 0)))


class SparsePolynomial:

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        # terms must already be canonical: no zero coefficients.
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def _merge(self, other, sign):
        """self + sign*other, storing no zero coefficient."""
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        if other.ring is not self.ring and other.ring.name != self.ring.name:
            raise ValueError(f"mixed rings {self.ring.name} and {other.ring.name}")
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key, 0) + sign * c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return SparsePolynomial(self.ring, terms)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return SparsePolynomial(self.ring, {key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        if other.ring is not self.ring and other.ring.name != self.ring.name:
            raise ValueError(f"mixed rings {self.ring.name} and {other.ring.name}")
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(sorted(k1 + k2))
                s = terms.get(key, 0) + c1 * c2
                if s:
                    terms[key] = s
                else:
                    del terms[key]
        limit = self.ring.max_terms
        if limit is not None and len(terms) > limit:
            raise TermBudgetExceeded(f"{len(terms)} terms exceeds bound {limit}")
        return SparsePolynomial(self.ring, terms)

    def __eq__(self, other):
        return isinstance(other, SparsePolynomial) and self.terms == other.terms

    __hash__ = None

    def halve(self):
        for key, c in self.terms.items():
            if c % 2:
                raise NotEvenlyDivisible(
                    f"coefficient {c} of {self.ring.format_monomial(key)} is odd"
                )
        return SparsePolynomial(self.ring, {key: c // 2 for key, c in self.terms.items()})

    def __repr__(self):
        return self.ring.format_poly(self)


class PolynomialRing(Ring):
    """Free commutative ring of integer polynomials in named variables.

    max_terms, when set, bounds the term count of any product computed in
    this ring; exceeding it raises TermBudgetExceeded (a resource guard
    for symbolic verification jobs).
    """

    supports_halving = True

    def __init__(self, names, max_terms=None):
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.max_terms = max_terms
        # Rings compare by name, so the name carries the variables: poly[x,y]
        # and poly[a,b] are different rings.
        self.name = f"poly[{','.join(self.names)}]"

    def zero(self):
        return SparsePolynomial(self, {})

    def one(self):
        return self.from_int(1)

    def from_int(self, k):
        k = operator.index(k)
        return SparsePolynomial(self, {(): k} if k else {})

    def variable(self, i):
        return SparsePolynomial(self, {(i,): 1})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    def random_element(self, rng):
        # Small dense-ish sample: enough structure to exercise the laws.
        p = self.zero()
        for _ in range(rng.randint(1, 3)):
            key = tuple(sorted(rng.randrange(self.nvars) for _ in range(rng.randint(0, 2))))
            coeff = rng.randint(-9, 9)
            if coeff:
                p = p + SparsePolynomial(self, {key: coeff})
        return p

    def format_monomial(self, key):
        parts = []
        for i in dict.fromkeys(key):
            e = key.count(i)
            parts.append(self.names[i] if e == 1 else f"{self.names[i]}^{e}")
        return "*".join(parts) or "1"

    def format_poly(self, p):
        out = []
        for key, c in sorted(p.terms.items(), key=lambda kv: (-len(kv[0]), exponents(kv[0]))):
            mono = self.format_monomial(key)
            piece = str(abs(c)) if not key else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            out.append(f"{sign} {piece}" if out else piece if c > 0 else f"-{piece}")
        return " ".join(out) or "0"
