"""Exact coefficient arithmetic: arbitrary-precision rationals and prime fields.

Scalars are native values: a Fraction for Q, an int in [0, p) for GF(p).
Only the field objects know which; they coerce (`field(x)`), invert, parse
and print, and every engine passes stored scalars through `field(...)`.
"""

from fractions import Fraction
from functools import lru_cache


class FieldMismatchError(ValueError):
    pass


@lru_cache(maxsize=256)
def is_prime(n):
    """Deterministic Miller-Rabin, valid far beyond 64-bit inputs; cached, as
    every GF(p) input builds its field again."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The rationals; elements are fractions.Fraction."""

    p = None
    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError("cannot coerce %r to Q" % (x,))

    def inv(self, a):
        a = self(a)
        if not a:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / a

    def parse(self, s):
        s = s.strip()
        if "mod" in s:
            raise FieldMismatchError(
                "prime-field scalar %r in a rational context" % s)
        return Fraction(s)

    def to_str(self, a):
        return str(self(a))

    def random(self, rng):
        return Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """GF(p) for prime p; elements are ints in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        self.p = p

    def __call__(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):  # before Fraction, an ABC isinstance test
            return self.parse(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by p=%d" % self.p)
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        raise TypeError("cannot coerce %r to GF(%d)" % (x, self.p))

    def inv(self, a):
        a = self(a)
        if not a:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return pow(a, -1, self.p)

    def parse(self, s):
        s = s.strip()
        if "mod" in s:
            k, p = s.split("mod")
            if int(p) != self.p:
                raise FieldMismatchError(
                    "scalar %r does not live in GF(%d)" % (s, self.p))
            return self(int(k))
        return self(Fraction(s))

    def to_str(self, a):
        return "%d mod %d" % (self(a), self.p)

    def random(self, rng):
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()
