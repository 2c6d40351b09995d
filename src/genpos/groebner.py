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
those pops; the basis budget counts every element, input generators too.
Resource caps raise BudgetExceededError.

`normal_form` is full reduction by the first divisor in basis order, on
packed monomials (see `poly`): live terms are keyed by the int order keys K,
a divisor divides when its exponent pack E passes the guard test, and a new
term costs two int additions. A guard bit set by a new term (lex and block
orders can raise exponents) redoes the call with twice the bits.

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
from functools import reduce
from itertools import chain, combinations_with_replacement
from math import gcd, lcm
from operator import add, le, mul, sub

from .errors import BudgetExceededError
from .poly import DEGREVLEX, BlockOrder, Packing, Polynomial

DEFAULT_MAX_BASIS = 500
DEFAULT_MAX_PAIRS = 50000
BITS = 15  # value bits per packed exponent before any widening


def spolynomial(f, g, order):
    """S-polynomial of f and g from their divisors' tails shifted to the lcm
    l of the leads: tail_f * (l / lm_f) - tail_g * (l / lm_g), the tails
    monic over GF(p); over Q the primitive tails over their leads a and b,
    summed on integers as (b * tail_f - a * tail_g) / (a * b)."""
    bits = max(BITS, max(chain(*f.terms, *g.terms), default=0).bit_length())
    l = tuple(map(max, f.leading_monomial(order), g.leading_monomial(order)))
    a, b = f.divisor(order, bits)[2], g.divisor(order, bits)[2]
    terms = {}
    for h, mult in ((f, b), (g, -a)):
        (lm, _), *rest = h.terms_sorted(order)
        shift = tuple(map(sub, l, lm))
        for (m, _), (_, _, c) in zip(rest, h.divisor(order, bits)[3]):
            m = tuple(map(add, m, shift))
            terms[m] = terms.get(m, 0) + mult * c
    if f.field.p is None:
        terms = {m: Fraction(c, a * b) for m, c in terms.items()}
    return Polynomial(f.nvars, f.field, terms)


def normal_form(f, basis, order):
    """Remainder of f under full multivariate division by `basis`.

    The leading live term is reduced by the first basis element whose leading
    monomial divides it, or else moved to the remainder, the only place a
    term is unpacked. Every key seen is pushed once onto a heap of negated
    keys. A term that cancels keeps its entry and is skipped if still absent
    when it pops; one that comes back needs no new entry, because every term
    a reduction adds is smaller than the leading term just removed.

    Each basis element divides as `Polynomial.divisor`: monic over GF(p), the
    primitive integer multiple over Q. Over Q, cancelling the live lead lc
    against the divisor lead lcg first multiplies every live term and `scale`
    by lcg / gcd(lc, lcg) when that is not 1.
    """
    if f.is_zero() or not basis:
        return f
    bits = BITS
    while (r := _reduce(f, basis, order, bits)) is None:
        bits *= 2
    return r


def _reduce(f, basis, order, bits):
    """`normal_form` with `bits` bits per exponent; None if one needs more."""
    from heapq import heapify, heappop, heappush  # loaded on first use
    p = f.field.p
    divisors = [g.divisor(order, bits) for g in basis if not g.is_zero()]
    packing = Packing(order, f.nvars, bits)
    if None in divisors or not packing.fits(f.terms):
        return None
    guard = packing.guard
    if p is None:
        scale = lcm(*(c.denominator for c in f.terms.values()))
    work = {}  # K -> live coefficient
    packs = {}  # K -> E, for every key ever live
    monos = {}  # K -> exponent tuple, for the terms of f
    for m, c in f.terms.items():
        e, k = packing.pack(m)
        packs[k], monos[k] = e, m
        work[k] = c if p else c.numerator * (scale // c.denominator)
    heap = [-k for k in work]
    heapify(heap)
    remainder = {}
    while heap:
        k = -heappop(heap)
        lc = work.pop(k, None)
        if lc is None:
            continue  # cancelled
        e = packs[k]
        for eg, kg, lcg, tail in divisors:
            if not (e - eg) & guard:
                break
        else:
            remainder[monos.get(k) or packing.unpack(e)] = \
                Fraction(lc, scale) if p is None else lc
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
        se, sk = e - eg, k - kg
        for te, tk, c in tail:
            mk = tk + sk
            old = work.get(mk)
            if old is None:
                work[mk] = -factor * c if p is None else -factor * c % p
                if mk not in packs:
                    me = te + se
                    if me & guard:
                        return None
                    packs[mk] = me
                    heappush(heap, -mk)
                continue
            s = old - factor * c if p is None else (old - factor * c) % p
            if s:
                work[mk] = s
            else:
                del work[mk]
    return Polynomial(f.nvars, f.field, remainder, order)


def buchberger(gens, order=DEGREVLEX, max_basis=DEFAULT_MAX_BASIS,
               max_pairs=DEFAULT_MAX_PAIRS):
    """Reduced Groebner basis of the given generators."""
    from heapq import heapify, heappop, heappush
    basis, lms = [], []
    active = []  # indices whose leading monomial no later one divides
    pairs = []  # heap of (lcm degree, creation index, i, j, lcm)
    seq = 0

    def update(h):
        """Add h to the basis; prune pairs by the Gebauer-Moeller criteria."""
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
        if len(basis) > max_basis:
            raise BudgetExceededError("basis budget %d exceeded" % max_basis)

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

    # minimalize: drop elements whose leading monomial another one divides
    keep = [g for i, g in enumerate(basis)
            if not any(j != i and all(map(le, lms[j], lms[i]))
                       and (lms[j] != lms[i] or j < i)
                       for j in range(len(basis)))]
    # interreduce to the unique reduced basis
    reduced = [normal_form(g, keep[:i] + keep[i + 1:], order)
               for i, g in enumerate(keep)]
    return tuple(sorted((r.monic(order) for r in reduced if not r.is_zero()),
                        key=lambda g: order.key(g.leading_monomial(order))))


class Ideal:
    """Polynomial ideal with cached reduced bases per monomial order and
    budgets."""

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
        key = (order, max_basis, max_pairs)
        if key not in self._bases:
            self._bases[key] = buchberger(self.gens, *key)
        return self._bases[key]

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(g.text() for g in self.gens)


def ideal_member(f, ideal, order=DEGREVLEX):
    return f.is_zero() or normal_form(f, ideal.groebner_basis(order),
                                      order).is_zero()


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
    return Ideal(a.nvars, field, [
        Polynomial(a.nvars, field, {m[1:]: c for m, c in g.terms.items()})
        for g in buchberger(gens, BlockOrder(split=1))
        if all(m[0] == 0 for m in g.terms)])


def divide_exact(f, g, order=DEGREVLEX):
    """Quotient of f by g when the division is exact; errors otherwise."""
    q, r = Polynomial.zero(f.nvars, f.field), f
    (lmg, lcg), inv = g.terms_sorted(order)[0], f.field.inv
    while not r.is_zero():
        lm, lc = r.terms_sorted(order)[0]
        if not all(map(le, lmg, lm)):
            raise ValueError("division is not exact")
        t = Polynomial.monomial(tuple(map(sub, lm, lmg)), f.nvars, f.field,
                                lc * inv(lcg))
        q, r = q + t, r - t * g
    return q


def ideal_quotient(ideal, f):
    """(ideal : f) for a single nonzero polynomial f."""
    if f.is_zero():
        raise ValueError("quotient by the zero polynomial")
    inter = ideal_intersect(ideal, Ideal(ideal.nvars, ideal.field, [f]))
    return Ideal(ideal.nvars, ideal.field,
                 [divide_exact(g, f) for g in inter.gens])


def saturation(ideal, f):
    """(ideal : f^infinity) together with the stabilization exponent."""
    cur, k = ideal, 0
    while not ideal_equal(nxt := ideal_quotient(cur, f), cur):
        cur, k = nxt, k + 1
    return cur, k


def ideal_power(ideal, m):
    """m-th power; the zeroth power is the unit ideal."""
    if m < 0:
        raise ValueError("negative ideal power")
    if m == 0:
        one = Polynomial.constant(ideal.field.one, ideal.nvars, ideal.field)
        return Ideal(ideal.nvars, ideal.field, [one])
    return Ideal(ideal.nvars, ideal.field, [
        reduce(mul, c) for c in combinations_with_replacement(ideal.gens, m)])
