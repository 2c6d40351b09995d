"""Deterministic Buchberger engine and ideal operations built on it.

Pair selection is the normal strategy: pairs come off a heap keyed by
(lcm degree, creation index), so runs are reproducible. Pairs are pruned by
the update of Gebauer & Moeller (1988, "On an installation of Buchberger's
algorithm", JSC 6), as the UPDATE procedure of Becker & Weispfenning,
*Groebner Bases* (1993), section 5.5. It runs once per element h joining
the basis, each input generator and then each nonzero remainder:

- The candidates are the pairs (i, h) over the active indices i, ascending.
- M: a candidate goes when another candidate's lcm divides its lcm; of
  candidates with equal lcms the earliest survives.
- F and the product criterion: a candidate whose leading monomials are
  coprime forms no pair, but it still prunes the others under M.
- B_k: an old pair (i, j) goes when lm(h) divides its lcm and that lcm
  differs from lcm(i, h) and lcm(j, h).
- An index whose leading monomial lm(h) divides leaves the active list and
  forms no new pairs. It stays in the basis, so `normal_form` still divides
  by every element in insertion order.

Every pair that survives to be popped is reduced, and the pair budget counts
those pops. `normal_form` is full reduction by the first divisor in basis
order, taking each leading term off a heap of order keys. Resource caps
raise BudgetExceededError.

Over Q, `normal_form` reduces on Python ints (pseudo-division, as in the
primitive remainder sequences of Geddes, Czapor & Labahn, *Algorithms for
Computer Algebra*, ch. 7). Each divisor is the primitive integer multiple of
its basis element, and the live terms are ints equal to one positive integer
`scale` times the exact rational terms. Scaling all live terms by the same
positive number changes neither which terms are zero nor the order in which
leads pop, so every step reduces the same monomial by the same divisor as
the rational division. A term leaving for the remainder is the exact
`Fraction(c, scale)` at that moment, so the remainder is term for term the
one exact division gives, and callers see no difference.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add, le, neg, sub

from .errors import BudgetExceededError
from .poly import (DEGREVLEX, BlockOrder, Polynomial, mono_div, mono_divides,
                   mono_lcm)

DEFAULT_MAX_BASIS = 500
DEFAULT_MAX_PAIRS = 50000


def spolynomial(f, g, order):
    """S-polynomial of f and g."""
    lmf, lmg = f.leading_monomial(order), g.leading_monomial(order)
    l = mono_lcm(lmf, lmg)
    mf = Polynomial.monomial(mono_div(l, lmf), f.nvars, f.field,
                             f.field.inv(f.leading_coefficient(order)))
    mg = Polynomial.monomial(mono_div(l, lmg), g.nvars, g.field,
                             g.field.inv(g.leading_coefficient(order)))
    return mf * f - mg * g


def normal_form(f, basis, order):
    """Remainder of f under full multivariate division by `basis`.

    The leading live term is reduced by the first basis element whose leading
    monomial divides it, or else moved to the remainder. Every monomial seen
    is pushed once onto a heap of negated order keys. A term that cancels
    keeps its entry and is skipped if still absent when it pops; one that
    comes back needs no new entry, because every term a reduction adds is
    smaller than the leading term just removed, so the entry has not popped.

    Each basis element divides as `Polynomial.divisor`: monic over GF(p), the
    primitive integer multiple over Q. Over Q, cancelling the live lead lc
    against the divisor lead lcg first multiplies every live term and `scale`
    by lcg / gcd(lc, lcg) when that is not 1.
    """
    if f.is_zero() or not basis:
        return f
    from heapq import heapify, heappop, heappush  # loaded on first use
    field = f.field
    p = field.p
    key = order.key
    divisors = [g.divisor(order) for g in basis if not g.is_zero()]
    if p is None:
        scale = lcm(*(c.denominator for c in f.terms.values()))
        work = {m: c.numerator * (scale // c.denominator)
                for m, c in f.terms.items()}
    else:
        work = dict(f.terms)
    seen = set(work)
    heap = [(tuple(map(neg, key(m))), m) for m in work]
    heapify(heap)
    remainder = {}
    while heap:
        lm = heappop(heap)[1]
        lc = work.pop(lm, None)
        if lc is None:
            continue  # cancelled
        for lmg, lcg, tail in divisors:
            if all(map(le, lmg, lm)):
                break
        else:
            remainder[lm] = Fraction(lc, scale) if p is None else lc
            continue
        factor = lc
        if lcg != 1:  # never over GF(p)
            g = gcd(lc, lcg)
            factor = lc // g
            if lcg != g:
                r = lcg // g
                for m in work:
                    work[m] *= r
                scale *= r
        shift = tuple(map(sub, lm, lmg))
        for m, c in tail:
            mm = tuple(map(add, m, shift))
            old = work.get(mm)
            if old is None:
                work[mm] = -factor * c if p is None else -factor * c % p
                if mm not in seen:
                    seen.add(mm)
                    heappush(heap, (tuple(map(neg, key(mm))), mm))
                continue
            s = old - factor * c if p is None else (old - factor * c) % p
            if s:
                work[mm] = s
            else:
                del work[mm]
    return Polynomial(f.nvars, field, remainder)


def buchberger(gens, order=DEGREVLEX, max_basis=DEFAULT_MAX_BASIS,
               max_pairs=DEFAULT_MAX_PAIRS):
    """Reduced Groebner basis of the given generators."""
    from heapq import heapify, heappop, heappush
    basis = []
    lms = []
    active = []  # indices whose leading monomial no later one divides
    pairs = []  # heap of (lcm degree, creation index, i, j, lcm)
    seq = 0

    def update(h):
        """Add h to the basis and prune pairs by the Gebauer-Moeller
        criteria."""
        nonlocal active, pairs, seq
        j = len(basis)
        lm = h.leading_monomial(order)
        basis.append(h)
        lms.append(lm)
        # B_k: drop an old pair (a, b) when lm divides its lcm and that lcm
        # differs from lcm(a, h) and lcm(b, h)
        pairs = [e for e in pairs
                 if not all(map(le, lm, e[4]))
                 or tuple(map(max, lms[e[2]], lm)) == e[4]
                 or tuple(map(max, lms[e[3]], lm)) == e[4]]
        heapify(pairs)
        new = [(i, tuple(map(max, lms[i], lm))) for i in active]
        for k, (i, l) in enumerate(new):
            # F and the product criterion: a coprime candidate forms no
            # pair, but still prunes the others
            if not any(map(min, lms[i], lm)):
                continue
            # M: another candidate's lcm divides this one; of equal lcms the
            # earliest survives
            if (any(all(map(le, m, l)) for _, m in new[:k])
                    or any(m != l and all(map(le, m, l))
                           for _, m in new[k + 1:])):
                continue
            heappush(pairs, (sum(l), seq, i, j, l))
            seq += 1
        active = [i for i in active if not all(map(le, lm, lms[i]))]
        active.append(j)

    for g in gens:
        if not g.is_zero():
            update(g.monic(order))
    if not basis:
        return ()

    handled = 0
    while pairs:
        _, _, i, j, _ = heappop(pairs)
        handled += 1
        if handled > max_pairs:
            raise BudgetExceededError("pair budget %d exceeded" % max_pairs)
        s = normal_form(spolynomial(basis[i], basis[j], order), basis, order)
        if s.is_zero():
            continue
        update(s.monic(order))
        if len(basis) > max_basis:
            raise BudgetExceededError("basis budget %d exceeded" % max_basis)

    # minimalize: drop elements whose leading monomial another one divides
    keep = []
    for i, g in enumerate(basis):
        if not any(j != i and mono_divides(lms[j], lms[i])
                   and (lms[j] != lms[i] or j < i) for j in range(len(basis))):
            keep.append(g)
    # interreduce to the unique reduced basis
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = normal_form(g, others, order)
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return tuple(reduced)


class Ideal:
    """Polynomial ideal with cached reduced bases per monomial order."""

    def __init__(self, nvars, field, gens):
        self.nvars = nvars
        self.field = field
        self.gens = tuple(g for g in gens if not g.is_zero())
        for g in self.gens:
            if g.nvars != nvars or g.field != field:
                raise ValueError("generator in the wrong ring")
        self._bases = {}

    @classmethod
    def of(cls, *gens):
        if len(gens) == 1 and not hasattr(gens[0], "nvars"):
            gens = tuple(gens[0])
        if not gens:
            raise ValueError("need at least one generator to infer the ring")
        return cls(gens[0].nvars, gens[0].field, gens)

    def groebner_basis(self, order=DEGREVLEX, max_basis=DEFAULT_MAX_BASIS,
                       max_pairs=DEFAULT_MAX_PAIRS):
        got = self._bases.get(order)
        if got is None:
            got = buchberger(self.gens, order, max_basis, max_pairs)
            self._bases[order] = got
        return got

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(g.text() for g in self.gens)


def ideal_member(f, ideal, order=DEGREVLEX):
    if f.is_zero():
        return True
    gb = ideal.groebner_basis(order)
    return normal_form(f, gb, order).is_zero()


def ideal_equal(a, b, order=DEGREVLEX):
    return (all(ideal_member(g, b, order) for g in a.gens)
            and all(ideal_member(g, a, order) for g in b.gens))


def _shift_vars(p, offset, nvars):
    """Reinterpret p in a ring with `offset` new leading variables."""
    terms = {(0,) * offset + m + (0,) * (nvars - offset - p.nvars): c
             for m, c in p.terms.items()}
    return Polynomial(nvars, p.field, terms)


def ideal_intersect(a, b):
    """Intersection of two ideals via one auxiliary variable and elimination."""
    if a.nvars != b.nvars or a.field != b.field:
        raise ValueError("ideals in different rings")
    n = a.nvars + 1
    field = a.field
    u = Polynomial.variable(0, n, field)
    one = Polynomial.constant(field.one, n, field)
    gens = [u * _shift_vars(g, 1, n) for g in a.gens]
    gens += [(one - u) * _shift_vars(g, 1, n) for g in b.gens]
    gb = buchberger(gens, BlockOrder(split=1))
    out = []
    for g in gb:
        if all(m[0] == 0 for m in g.terms):
            out.append(Polynomial(a.nvars, field,
                                  {m[1:]: c for m, c in g.terms.items()}))
    return Ideal(a.nvars, field, out)


def divide_exact(f, g, order=DEGREVLEX):
    """Quotient of f by g when the division is exact; errors otherwise."""
    q = Polynomial.zero(f.nvars, f.field)
    r = f
    while not r.is_zero():
        lm = r.leading_monomial(order)
        lmg = g.leading_monomial(order)
        if not mono_divides(lmg, lm):
            raise ValueError("division is not exact")
        t = Polynomial.monomial(mono_div(lm, lmg), f.nvars, f.field,
                                r.leading_coefficient(order)
                                * f.field.inv(g.leading_coefficient(order)))
        q = q + t
        r = r - t * g
    return q


def ideal_quotient(ideal, f):
    """(ideal : f) for a single nonzero polynomial f."""
    if f.is_zero():
        raise ValueError("quotient by the zero polynomial")
    fi = Ideal(ideal.nvars, ideal.field, [f])
    inter = ideal_intersect(ideal, fi)
    return Ideal(ideal.nvars, ideal.field,
                 [divide_exact(g, f) for g in inter.gens])


def saturation(ideal, f):
    """(ideal : f^infinity) together with the stabilization exponent."""
    cur = ideal
    k = 0
    while True:
        nxt = ideal_quotient(cur, f)
        if ideal_equal(nxt, cur):
            return cur, k
        cur = nxt
        k += 1


def ideal_power(ideal, m):
    """m-th power; the zeroth power is the unit ideal."""
    if m < 0:
        raise ValueError("negative ideal power")
    field = ideal.field
    if m == 0:
        return Ideal(ideal.nvars, field,
                     [Polynomial.constant(field.one, ideal.nvars, field)])
    from itertools import combinations_with_replacement
    gens = []
    for combo in combinations_with_replacement(ideal.gens, m):
        p = combo[0]
        for q in combo[1:]:
            p = p * q
        gens.append(p)
    return Ideal(ideal.nvars, field, gens)
