"""Sparse multivariate polynomials over Q; == is the exact identity check.

Terms map exponent vectors to nonzero rational coefficients.  The canonical
term order is graded lexicographic over the declared variable order; it fixes
leading terms for exact division and serialization.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ZeroPolynomialError


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

    def _grlex_key(self, expo):
        return (sum(expo), expo)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        e = max(self.terms, key=self._grlex_key)
        return e, self.terms[e]

    def divexact(self, other: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ValueError when other does not divide self."""
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        quo = {}
        rem = self
        de, dc = other.leading()
        while not rem.is_zero:
            re, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re, de))
            if any(e < 0 for e in qe):
                raise ValueError("division is not exact")
            qc = rc / dc
            quo[qe] = qc
            rem = rem - MultiPoly(self.vars, {qe: qc}) * other
        return MultiPoly(self.vars, quo)

    def evaluate(self, assignment: dict) -> Fraction:
        """Evaluate at rational values for every variable."""
        vals = [Fraction(assignment[v]) for v in self.vars]
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v ** k
            total += term
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=self._grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e)
                if k
            )
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


class MultiPolyRing:
    """Q[vars] packaged as a coefficient domain for UniPoly resultants."""

    def __init__(self, vars):
        self.vars = tuple(vars)
        self.zero = MultiPoly(self.vars)
        self.one = MultiPoly.constant(self.vars, 1)
        self.name = "Q[" + ",".join(self.vars) + "]"

    def __call__(self, value):
        if isinstance(value, MultiPoly):
            if value.vars != self.vars:
                raise ValueError("mixed variable sets")
            return value
        if isinstance(value, (int, Fraction)):
            return MultiPoly.constant(self.vars, value)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def divexact(self, a, b):
        return self(a).divexact(self(b))

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, MultiPolyRing) and other.vars == self.vars

    def __hash__(self):
        return hash(("MultiPolyRing", self.vars))

