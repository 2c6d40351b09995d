"""Multivariate polynomials over exact fields, with pluggable monomial orders.

Monomials are exponent tuples; variables print as x0..x{n-1}. Term maps are
plain dicts; per-order sorted views are cached on first use so leading-term
queries during division loops cost O(1) after the initial sort.

The division engine packs monomials into ints, after Monagan & Pearce (2011,
"Sparse polynomial division using a heap", JSC 46). Order keys are linear,
so `order.weights(n, w)` reads the key of each x_i as one int W_i with the
entries as base-2^w digits: K(m) = sum of e_i * W_i sorts as `order.key(m)`
while the entries after the first stay within +-2^(w-1), and K(a * b) =
K(a) + K(b). A `Packing` gives each exponent `bits` bits under a guard bit
in E(m): (E(b) - E(a)) & guard == 0 exactly when a | b, as a field that
goes negative borrows through its guard bit, and E(a) + E(b) sets a guard
bit exactly when an exponent reaches 2^bits. A term that does not fit
raises `Overflow`. Only lex and block orders can raise an exponent in a
reduction; `groebner` then redoes the call, the whole Buchberger run, or
the whole elimination tree, with twice the bits.
"""

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import add, mul

from .records import record
from .scalars import FieldMismatchError


class DegRevLex(record("DegRevLex", "")):
    """Total degree first, ties broken by smallest trailing exponent difference."""

    __slots__ = ()

    def key(self, m):
        return (sum(m), *(-e for e in reversed(m)))

    def weights(self, n, w):
        return tuple((1 << w * n) - (1 << w * i) for i in range(n))


class Lex(record("Lex", "")):
    __slots__ = ()

    def key(self, m):
        return m

    def weights(self, n, w):
        return tuple(1 << w * (n - 1 - i) for i in range(n))


class BlockOrder(record("BlockOrder", "split")):
    """Eliminates the first `split` variables: degrevlex on that block, then the rest."""

    __slots__ = ()

    def key(self, m):
        head, tail = m[:self.split], m[self.split:]
        return (sum(head), *(-e for e in reversed(head)),
                sum(tail), *(-e for e in reversed(tail)))

    def weights(self, n, w):
        s = min(self.split, n)
        return tuple((1 << w * (n + 1)) - (1 << w * (n + 1 - s + i)) if i < s
                     else (1 << w * (n - s)) - (1 << w * (i - s))
                     for i in range(n))


class LazardOrder(record("LazardOrder", "")):
    """Order on k[t, x], t = variable 0: total degree, then the larger power
    of t (on homogeneous input, the lower x-degree), then degrevlex on x."""

    __slots__ = ()

    def key(self, m):
        return (sum(m), m[0], *(-e for e in reversed(m[1:])))

    def weights(self, n, w):
        return tuple((1 << w * n) + (1 << w * (n - 1)) if i == 0
                     else (1 << w * n) - (1 << w * (i - 1)) for i in range(n))


class Overflow(Exception):
    """An exponent needs more bits than its packing has. `groebner` catches
    it and reruns wider; one that reaches the user is a defect."""


class Packing:
    """Packs E and K for `order` on `nvars` variables, `bits` per exponent."""

    __slots__ = ("bits", "guard", "_shifts", "_ew", "_kw")

    def __init__(self, order, nvars, bits):
        self.bits = bits
        self._shifts = range(0, (bits + 1) * nvars, bits + 1)
        self._ew = tuple(1 << s for s in self._shifts)
        self.guard = sum(self._ew) << bits
        self._kw = order.weights(nvars, bits + nvars.bit_length() + 2)

    def fits(self, monomials):
        """Whether every exponent has at most `bits` bits."""
        return not max(chain(*monomials), default=0) >> self.bits

    def pack(self, m):
        """(E(m), K(m)) of a monomial that fits."""
        return sum(map(mul, m, self._ew)), sum(map(mul, m, self._kw))

    def unpack(self, e):
        mask = (1 << self.bits) - 1
        return tuple([e >> s & mask for s in self._shifts])


def packed_divisor(terms, packs, p):
    """(E, K, lc, ((E, K, c), ...)) of the nonzero packed polynomial `terms`,
    K -> int coefficient in descending key order, with `packs` K -> E: monic
    over GF(p), primitive with a positive lead over Q."""
    items = iter(terms.items())
    k, lc = next(items)
    if p:
        inv = pow(lc, -1, p)
        return packs[k], k, 1, tuple([(packs[m], m, c * inv % p)
                                      for m, c in items])
    content = gcd(*terms.values()) if lc > 0 else -gcd(*terms.values())
    return packs[k], k, lc // content, tuple([(packs[m], m, c // content)
                                              for m, c in items])


def divisor_of_terms(terms, packing, p):
    """The divisor (E, K, lc, ((E, K, c), ...)) of the nonzero polynomial
    whose (monomial, coefficient) pairs `terms` lists in descending order
    under the packing's order; Overflow if an exponent needs more bits than
    the packing has. Over GF(p) it is the monic multiple. Over Q it is the
    primitive integer multiple with a positive lead: int coefficients with
    gcd 1."""
    if not packing.fits(m for m, _ in terms):
        raise Overflow
    if p is None:
        den = lcm(*(c.denominator for _, c in terms))
        terms = [(m, c.numerator * (den // c.denominator)) for m, c in terms]
    coefficients, packs = {}, {}
    for m, c in terms:
        e, k = packing.pack(m)
        coefficients[k], packs[k] = c, e
    return packed_divisor(coefficients, packs, p)


DEGREVLEX = DegRevLex()
LEX = Lex()
LAZARD = LazardOrder()


class Polynomial:
    """Immutable-by-convention sparse polynomial: dict of exponent tuple -> coefficient.
    Terms given already descending under `order` seed its sorted view."""

    __slots__ = ("nvars", "field", "terms", "_sorted", "_divisor")

    def __init__(self, nvars, field, terms, order=None):
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
        self._sorted = {} if order is None else {order: tuple(clean.items())}
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
        return cls.monomial([int(j == i) for j in range(nvars)], nvars, field)

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
                m = tuple(map(add, m1, m2))
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
        return max(map(sum, self.terms), default=-1)

    def low_degree(self):
        """Degree of the lowest nonzero homogeneous component; -1 for zero."""
        return min(map(sum, self.terms), default=-1)

    def is_homogeneous(self):
        return len(set(map(sum, self.terms))) <= 1

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError("point has wrong arity")
        field = self.field
        point = [field(x) for x in point]
        return field(sum(c * prod(x ** e for x, e in zip(point, m) if e)
                         for m, c in self.terms.items()))

    def terms_sorted(self, order):
        """Terms descending under `order`, by packed keys; cached per order."""
        got = self._sorted.get(order)
        if got is None:
            w = order.weights(self.nvars, self.degree().bit_length() + 1)
            got = tuple(sorted(self.terms.items(),
                               key=lambda t: sum(map(mul, t[0], w)),
                               reverse=True))
            self._sorted[order] = got
        return got

    def divisor(self, order, bits):
        """Packed (E, K, lc, ((E, K, c), ...)) of the multiple of a nonzero
        polynomial that the `groebner` reduction divides by, the tail in
        `terms_sorted` order; Overflow if an exponent needs more than `bits`
        bits (see `divisor_of_terms`). Cached per order and width, for the
        widths that fit."""
        got = self._divisor.get((order, bits))
        if got is None:
            got = self._divisor[order, bits] = divisor_of_terms(
                self.terms_sorted(order), Packing(order, self.nvars, bits),
                self.field.p)
        return got

    def leading_monomial(self, order):
        ts = self.terms_sorted(order)
        if not ts:
            raise ValueError("zero polynomial has no leading monomial")
        return ts[0][0]

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
            factors = [names[i] if e == 1 else "%s^%d" % (names[i], e)
                       for i, e in enumerate(m) if e]
            neg = c < 0  # never for GF(p), whose scalars lie in [0, p)
            coef = str(-c if neg else c)
            body = "*".join(([] if factors and coef == "1" else [coef])
                            + factors)
            sign = ("- " if neg else "+ ") if parts else ("-" if neg else "")
            parts.append(sign + body)
        return " ".join(parts)

    def __repr__(self):
        return self.text()


_TOKEN = re.compile(r"\s*(\d+(?:/\d+)?|[A-Za-z_][A-Za-z_0-9]*|[\^\*\+\-])")


def parse_polynomial(s, nvars, field, names=None):
    """Parse '3*x0^2*x1 - 1/2*x2' style text; names overrides x0..x{n-1}."""
    if names is None:
        names = tuple("x%d" % i for i in range(nvars))
    index = {nm: i for i, nm in enumerate(names)}
    s = s.strip().replace("**", "^")
    tokens, pos = [], 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ValueError("bad polynomial text near %r" % s[pos:pos + 20])
        tokens.append(m.group(1))
        pos = m.end()
    terms = {}
    i, n = 0, len(tokens)
    while i < n:  # a term: signs, then factors joined by '*'
        sign = 1
        while i < n and tokens[i] in "+-":
            sign = -sign if tokens[i] == "-" else sign
            i += 1
        if i == n:
            raise ValueError("dangling sign in %r" % s)
        coeff, expo = sign, [0] * nvars  # an int until an a/b token
        while True:  # a factor; the end of the text reads as a '+'
            tok = tokens[i] if i < n else "+"
            if tok == "*":
                raise ValueError("'*' needs a factor on each side in %r" % s)
            if tok in "+-":
                raise ValueError("empty term in %r" % s)
            if tok == "^":
                raise ValueError("unexpected token %r in %r" % (tok, s))
            i += 1
            if tok[0].isdigit():
                coeff *= Fraction(tok) if "/" in tok else int(tok)
            elif tok not in index:
                raise ValueError("unknown variable %s (expected one of %s)"
                                 % (tok, ", ".join(names)))
            elif i < n and tokens[i] == "^":
                if i + 1 == n or not tokens[i + 1].isdigit():
                    raise ValueError("bad exponent in %r" % s)
                expo[index[tok]] += int(tokens[i + 1])
                i += 2
            else:
                expo[index[tok]] += 1
            if i == n or tokens[i] in "+-":
                break
            if tokens[i] != "*":
                raise ValueError("missing '*' near %r in %r" % (tokens[i], s))
            i += 1
        m = tuple(expo)
        terms[m] = terms.get(m, field.zero) + field(coeff)
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
