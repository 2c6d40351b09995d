"""Small exact helpers the benchmark uses to build inputs and check answers.

Nothing here imports genpos: the answers the oracle compares against must not
come from the code under test. Everything works on plain ints modulo a prime
or on Fractions.
"""

import math
import re
from fractions import Fraction
from itertools import combinations_with_replacement

BIG_PRIME = 2147483647        # 2^31 - 1, the points and germs field
SMALL_PRIME = 32003           # the Groebner-workload field
CHECK_PRIME = 2305843009213693951  # 2^61 - 1; ranks mod it bound ranks over Q


def nu(e, r):
    """Least n with e <= C(n + r, r)."""
    n = 0
    while math.comb(n + r, r) < e:
        n += 1
    return n


def monomials(nvars, d):
    """Exponent tuples of total degree d (any fixed order)."""
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        m = [0] * nvars
        for i in combo:
            m[i] += 1
        out.append(tuple(m))
    return out


def rank_mod(rows, p):
    """Rank of an integer matrix modulo the prime p."""
    rows = [[v % p for v in row] for row in rows]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        prow = [v * inv % p for v in rows[rank]]
        rows[rank] = prow
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def eval_rank(points, d, p):
    """Rank mod p of the degree-d evaluation matrix of integer points."""
    monos = monomials(len(points[0]), d)
    rows = []
    for pt in points:
        row = []
        for m in monos:
            v = 1
            for x, k in zip(pt, m):
                if k:
                    v = v * pow(x, k, p) % p
            row.append(v)
        rows.append(row)
    return rank_mod(rows, p)


def generic_mod(points, p):
    """Generic position of points of P^r, decided by ranks mod p.

    No form of degree nu - 1 may vanish on the set (full column rank, which
    carries down) and degree nu must separate the points (full row rank,
    which carries up). A set generic mod p is generic over Q as well.
    """
    e, r = len(points), len(points[0]) - 1
    n = nu(e, r)
    if n and eval_rank(points, n - 1, p) < math.comb(n - 1 + r, r):
        return False
    return eval_rank(points, n, p) == e


def generic_hilbert(e, r, upto):
    return [min(e, math.comb(d + r, r)) for d in range(upto + 1)]


def complete_intersection_hilbert(nvars, degrees, upto):
    """Coefficients of prod(1 - t^d) / (1 - t)^nvars through t^upto."""
    num = [1] + [0] * upto
    for d in degrees:
        num = [num[k] - (num[k - d] if k >= d else 0) for k in range(upto + 1)]
    for _ in range(nvars):
        for k in range(1, upto + 1):
            num[k] += num[k - 1]
    return num


def forms_ideal_rank(forms, nvars, d, p):
    """dim mod p of the degree-d part of the ideal of homogeneous forms.

    Each form is a dict exponent-tuple -> int, homogeneous of its degree.
    """
    cols = {m: i for i, m in enumerate(monomials(nvars, d))}
    rows = []
    for f in forms:
        fd = sum(next(iter(f)))
        if fd > d:
            continue
        for m in monomials(nvars, d - fd):
            row = [0] * len(cols)
            for mf, c in f.items():
                row[cols[tuple(a + b for a, b in zip(m, mf))]] = c
            rows.append(row)
    return rank_mod(rows, p)


def coprime_mod(a, b, p):
    """Whether univariate integer polynomials (dicts exponent -> coeff) have
    no common root over the algebraic closure of GF(p): their Sylvester
    matrix has full rank mod p. Coprime mod p implies coprime over Q."""
    m, n = max(a), max(b)
    rows = []
    for poly, deg, shifts in ((a, m, n), (b, n, m)):
        coeffs = [poly.get(k, 0) for k in range(deg, -1, -1)]
        for s in range(shifts):
            rows.append([0] * s + coeffs + [0] * (shifts - 1 - s))
    return rank_mod(rows, p) == m + n


def poly_mul_1(a, b):
    """Product of univariate integer polynomials as dicts exponent -> coeff."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def univariate_text(poly):
    """'c*t^k + ...' text in descending degree, the form genpos parses."""
    parts = []
    for k in sorted(poly, reverse=True):
        c = poly[k]
        mono = "t" if k == 1 else "t^%d" % k
        body = mono if c == 1 else "%d*%s" % (c, mono)
        parts.append(body)
    return " + ".join(parts)


def monomial_text(m, names=None):
    names = names or ["x%d" % i for i in range(len(m))]
    return "*".join(names[i] if k == 1 else "%s^%d" % (names[i], k)
                    for i, k in enumerate(m) if k)


def form_text(form):
    """Text of a dict exponent-tuple -> positive int coefficient."""
    parts = []
    for m in sorted(form, reverse=True):
        c = form[m]
        mono = monomial_text(m)
        if not mono:
            parts.append(str(c))
        else:
            parts.append(mono if c == 1 else "%d*%s" % (c, mono))
    return " + ".join(parts)


_TERM = re.compile(r"[+-]?[^+-]+")


def parse_poly_text(text, nvars):
    """Parse genpos's polynomial text ('3*x0^2 - 1/2*x1*x2') to a dict of
    exponent tuples -> Fraction. Independent of genpos's own parser."""
    s = text.replace(" ", "")
    if s == "0":
        return {}
    out = {}
    for term in _TERM.findall(s):
        sign = -1 if term[0] == "-" else 1
        term = term.lstrip("+-")
        coeff = Fraction(sign)
        expo = [0] * nvars
        for factor in term.split("*"):
            if factor[0] == "x":
                name, _, k = factor.partition("^")
                expo[int(name[1:])] += int(k) if k else 1
            else:
                coeff *= Fraction(factor)
        m = tuple(expo)
        out[m] = out.get(m, 0) + coeff
    return {m: c for m, c in out.items() if c}


def scalar_value(s, p):
    """A genpos JSON scalar ('k mod p', '3/4' or an int) as an int mod p, or
    as a Fraction when p is None."""
    if isinstance(s, int):
        return s % p if p else Fraction(s)
    if "mod" in s:
        return int(s.split("mod")[0]) % p
    v = Fraction(s)
    if p is None:
        return v
    return v.numerator * pow(v.denominator, -1, p) % p


def evaluate(poly, point, p):
    """Value of a parsed polynomial at a point, mod p or exactly when p is None."""
    total = 0
    for m, c in poly.items():
        if p:
            c = c.numerator * pow(c.denominator, -1, p) % p
        v = c
        for x, k in zip(point, m):
            if k:
                v = v * (pow(x, k, p) if p else x ** k)
        total = (total + v) % p if p else total + v
    return total
