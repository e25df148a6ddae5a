"""Sparse integer-coefficient multivariate polynomials.

Terms are stored as ``{exponent_vector: coefficient}`` with one
non-negative exponent per indeterminate.  Over variables (x0, x1, x2):

    3*x0*x2 - x1**2   ->   {(1, 0, 1): 3, (0, 2, 0): -1}

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
        for e, c in other.terms.items():
            s = terms.get(e, 0) + sign * c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return SparsePolynomial(self.ring, terms)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return SparsePolynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        if other.ring is not self.ring and other.ring.name != self.ring.name:
            raise ValueError(f"mixed rings {self.ring.name} and {other.ring.name}")
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        limit = self.ring.max_terms
        if limit is not None and len(terms) > limit:
            raise TermBudgetExceeded(f"{len(terms)} terms exceeds bound {limit}")
        return SparsePolynomial(self.ring, terms)

    def __eq__(self, other):
        return isinstance(other, SparsePolynomial) and self.terms == other.terms

    __hash__ = None

    def halve(self):
        for e, c in self.terms.items():
            if c % 2:
                raise NotEvenlyDivisible(
                    f"coefficient {c} of {self.ring.format_monomial(e)} is odd"
                )
        return SparsePolynomial(self.ring, {e: c // 2 for e, c in self.terms.items()})

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
        self._zero_exp = (0,) * self.nvars

    def zero(self):
        return SparsePolynomial(self, {})

    def one(self):
        return self.from_int(1)

    def from_int(self, k):
        k = operator.index(k)
        if k == 0:
            return SparsePolynomial(self, {})
        return SparsePolynomial(self, {self._zero_exp: k})

    def variable(self, i):
        exps = [0] * self.nvars
        exps[i] = 1
        return SparsePolynomial(self, {tuple(exps): 1})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    def random_element(self, rng):
        # Small dense-ish sample: enough structure to exercise the laws.
        p = self.zero()
        for _ in range(rng.randint(1, 3)):
            exps = [0] * self.nvars
            for _ in range(rng.randint(0, 2)):
                exps[rng.randrange(self.nvars)] += 1
            coeff = rng.randint(-9, 9)
            if coeff:
                p = p + SparsePolynomial(self, {tuple(exps): coeff})
        return p

    def format_monomial(self, exps):
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def format_poly(self, p):
        if not p.terms:
            return "0"
        items = sorted(p.terms.items(), key=lambda kv: (-sum(kv[0]), kv[0]))
        out = []
        for e, c in items:
            mono = self.format_monomial(e)
            if mono == "1":
                piece = str(c)
            elif c == 1:
                piece = mono
            elif c == -1:
                piece = f"-{mono}"
            else:
                piece = f"{c}*{mono}"
            if out and not piece.startswith("-"):
                out.append(f"+ {piece}")
            elif out:
                out.append(f"- {piece[1:]}")
            else:
                out.append(piece)
        return " ".join(out)
