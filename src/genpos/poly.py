"""Multivariate polynomials over exact fields, with pluggable monomial orders.

Monomials are exponent tuples; variables print as x0..x{n-1}. Term maps are
plain dicts; per-order sorted views are cached on first use so leading-term
queries during division loops cost O(1) after the initial sort.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .scalars import FieldMismatchError


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_deg(m):
    return sum(m)


def mono_divides(a, b):
    """a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class DegRevLex:
    """Total degree first, ties broken by smallest trailing exponent difference."""

    def key(self, m):
        return (sum(m), *(-e for e in reversed(m)))


@dataclass(frozen=True)
class Lex:
    def key(self, m):
        return m


@dataclass(frozen=True)
class BlockOrder:
    """Eliminates the first `split` variables: degrevlex on that block, then the rest."""

    split: int

    def key(self, m):
        head, tail = m[:self.split], m[self.split:]
        return (sum(head), *(-e for e in reversed(head)),
                sum(tail), *(-e for e in reversed(tail)))


@dataclass(frozen=True)
class LazardOrder:
    """Order on k[t, x], t = variable 0: total degree, then the larger power
    of t (on homogeneous input, the lower x-degree), then degrevlex on x."""

    def key(self, m):
        return (sum(m), m[0], *(-e for e in reversed(m[1:])))


DEGREVLEX = DegRevLex()
LEX = Lex()
LAZARD = LazardOrder()


class Polynomial:
    """Immutable-by-convention sparse polynomial: dict of exponent tuple -> coefficient."""

    __slots__ = ("nvars", "field", "terms", "_sorted", "_divisor")

    def __init__(self, nvars, field, terms):
        self.nvars = nvars
        self.field = field
        clean = {}
        for m, c in terms.items():
            c = field(c)
            if c:
                if len(m) != nvars:
                    raise ValueError("monomial %r has wrong arity" % (m,))
                clean[m] = c
        self.terms = clean
        self._sorted = {}
        self._divisor = {}

    @classmethod
    def zero(cls, nvars, field):
        return cls(nvars, field, {})

    @classmethod
    def constant(cls, c, nvars, field):
        return cls(nvars, field, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i, nvars, field):
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(nvars, field, {m: field.one})

    @classmethod
    def monomial(cls, m, nvars, field, c=None):
        return cls(nvars, field, {tuple(m): field.one if c is None else c})

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("polynomials in different rings")
        if self.field != other.field:
            raise FieldMismatchError("polynomials over different fields")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.field(other), self.nvars, self.field)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.nvars, self.field, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, self.field,
                          {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.field(other), self.nvars, self.field)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = self.field(other)
            return Polynomial(self.nvars, self.field,
                              {m: v * c for m, v in self.terms.items()})
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return Polynomial(self.nvars, self.field, terms)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.constant(self.field.one, self.nvars, self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((mono_deg(m) for m in self.terms), default=-1)

    def low_degree(self):
        """Degree of the lowest nonzero homogeneous component; -1 for zero."""
        return min((mono_deg(m) for m in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError("point has wrong arity")
        field = self.field
        point = [field(x) for x in point]
        total = field.zero
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v = field(v * x ** e)
            total = field(total + v)
        return total

    def terms_sorted(self, order):
        """Terms sorted descending under `order`; cached per order."""
        got = self._sorted.get(order)
        if got is None:
            got = tuple(sorted(self.terms.items(),
                               key=lambda t: order.key(t[0]), reverse=True))
            self._sorted[order] = got
        return got

    def divisor(self, order):
        """(leading monomial, leading coefficient, tail) of the multiple of a
        nonzero polynomial that `groebner.normal_form` divides by; cached per
        order. Over GF(p) it is the monic multiple. Over Q it is the primitive
        integer multiple with a positive lead: int coefficients with gcd 1.
        """
        got = self._divisor.get(order)
        if got is None:
            (lm, lc), *tail = self.terms_sorted(order)
            p = self.field.p
            if p is None:
                den = lcm(*(c.denominator for c in self.terms.values()))
                num = {m: c.numerator * (den // c.denominator)
                       for m, c in self.terms.items()}
                content = gcd(*num.values())
                if lc < 0:
                    content = -content
                got = (lm, num[lm] // content,
                       tuple((m, num[m] // content) for m, _ in tail))
            else:
                inv = self.field.inv(lc)
                got = (lm, 1, tuple((m, c * inv % p) for m, c in tail))
            self._divisor[order] = got
        return got

    def leading_monomial(self, order):
        ts = self.terms_sorted(order)
        if not ts:
            raise ValueError("zero polynomial has no leading monomial")
        return ts[0][0]

    def leading_coefficient(self, order):
        ts = self.terms_sorted(order)
        if not ts:
            raise ValueError("zero polynomial has no leading coefficient")
        return ts[0][1]

    def monic(self, order):
        if self.is_zero():
            return self
        lc = self.leading_coefficient(order)
        if lc == self.field.one:
            return self
        return self * self.field.inv(lc)

    def compose1(self, g):
        """Substitute g for the single variable; both univariate over the same field."""
        if self.nvars != 1 or g.nvars != 1:
            raise ValueError("compose1 needs univariate polynomials")
        out = Polynomial.zero(1, self.field)
        for (e,), c in sorted(self.terms.items()):
            out = out + g ** e * c
        return out

    def text(self, names=None):
        """Canonical string, terms descending under degrevlex."""
        if self.is_zero():
            return "0"
        if names is None:
            names = tuple("x%d" % i for i in range(self.nvars))
        parts = []
        for m, c in self.terms_sorted(DEGREVLEX):
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append("%s^%d" % (names[i], e))
            neg = c < 0  # never for GF(p), whose scalars lie in [0, p)
            coef = str(-c if neg else c)
            if factors and coef == "1":
                body = "*".join(factors)
            elif factors:
                body = coef + "*" + "*".join(factors)
            else:
                body = coef
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return self.text()


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[\^\*\+\-]))")


def parse_polynomial(s, nvars, field, names=None):
    """Parse '3*x0^2*x1 - 1/2*x2' style text; names overrides x0..x{n-1}."""
    if names is None:
        names = tuple("x%d" % i for i in range(nvars))
    index = {nm: i for i, nm in enumerate(names)}
    s = s.strip().replace("**", "^")
    if s == "0":
        return Polynomial.zero(nvars, field)
    pos = 0
    tokens = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError("bad polynomial text near %r" % s[pos:pos + 20])
        if m.group("num"):
            tokens.append(("num", m.group("num")))
        elif m.group("var"):
            tokens.append(("var", m.group("var")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()

    terms = {}
    i = 0
    n = len(tokens)
    first = True
    while i < n:
        sign = 1
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError("dangling sign in %r" % s)
        if not first and sign == 1 and tokens[i - 1][1] not in "+-":
            raise ValueError("missing operator in %r" % s)
        coeff = Fraction(sign)
        expo = [0] * nvars
        expect_factor = True
        while i < n:
            kind, tok = tokens[i]
            if kind == "op" and tok in "+-":
                break
            if kind == "op" and tok == "*":
                if expect_factor:
                    raise ValueError("'*' needs a factor on each side in %r"
                                     % s)
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise ValueError("missing '*' near %r in %r" % (tok, s))
            if kind == "num":
                coeff *= Fraction(tok)
                i += 1
            elif kind == "var":
                if tok not in index:
                    raise ValueError("unknown variable %s (expected one of %s)"
                                     % (tok, ", ".join(names)))
                idx = index[tok]
                e = 1
                if i + 1 < n and tokens[i + 1] == ("op", "^"):
                    if i + 2 >= n or tokens[i + 2][0] != "num" or "/" in tokens[i + 2][1]:
                        raise ValueError("bad exponent in %r" % s)
                    e = int(tokens[i + 2][1])
                    i += 3
                else:
                    i += 1
                expo[idx] += e
            else:
                raise ValueError("unexpected token %r in %r" % (tok, s))
            expect_factor = False
        if expect_factor:
            raise ValueError("empty term in %r" % s)
        m = tuple(expo)
        c = field(coeff)
        prev = terms.get(m, field.zero)
        terms[m] = prev + c
        first = False
    return Polynomial(nvars, field, terms)


def monomials_of_degree(nvars, d):
    """Exponent tuples of total degree d, lexicographically descending."""
    def rec(n, k):
        if n == 1:
            yield (k,)
            return
        for first in range(k, -1, -1):
            for rest in rec(n - 1, k - first):
                yield (first,) + rest
    return list(rec(nvars, d))
