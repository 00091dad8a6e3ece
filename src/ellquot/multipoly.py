"""Sparse multivariate polynomials over Q; == is the exact identity check.

Terms map exponent vectors to nonzero rational coefficients.  The class is a
ring, not a field: it adds, subtracts, multiplies and raises to powers, but
never divides, so every formal identity is stated free of denominators.  The
printed term order is graded lexicographic over the declared variable order.
"""

from __future__ import annotations

from fractions import Fraction


class MultiPoly:
    """A polynomial in Q[vars], stored as {exponent tuple: coefficient}."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        clean = {}
        for expo, c in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(self.vars):
                raise ValueError("exponent arity does not match variable count")
            c = Fraction(c)
            if c:
                clean[expo] = clean.get(expo, Fraction(0)) + c
                if not clean[expo]:
                    del clean[expo]
        self.terms = clean

    @classmethod
    def constant(cls, vars, c):
        c = Fraction(c)
        if not c:
            return cls(vars)
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, name, vars):
        i = tuple(vars).index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {expo: Fraction(1)})

    @classmethod
    def gens(cls, vars):
        """One generator per variable, in order."""
        return tuple(cls.variable(v, vars) for v in vars)

    @property
    def is_zero(self):
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError("mixed variable sets")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.vars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) - c
        return MultiPoly(self.vars, terms)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e)
                if k
            )
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

