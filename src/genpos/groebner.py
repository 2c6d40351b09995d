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
  forms no new pairs. It stays in the basis, so the reduction still divides
  by every element in insertion order.

Every pair that survives to be popped is reduced, and the pair budget counts
those pops; the basis budget counts every element, input generators too.
Resource caps raise BudgetExceededError, whose message gives the pairs
popped, the basis size and the pairs still queued at that moment.

The run stays packed from the input generators to the reduced basis (see
`poly`): a monomial is an int order key K and an exponent pack E, a lead
divides when the guard test on E passes, and lcms and shifts are int
operations. Each basis element is held as its divisor (E, K, lc, tail), as
`Polynomial.divisor` defines it. `_spair` writes an S-polynomial from two
cached tails into a K -> coefficient dict, `_reduce` reduces it (the one
reduction loop, which `normal_form` also runs on its packed input), and the
remainder leaves in descending key order, ready to normalize into the next
divisor. A run has two parts: `_minimal_basis`, the pair loop and the
minimalization, and `_interreduce`, which turns a minimal basis into the
reduced one. `buchberger` chains them and builds `Polynomial`s only for the
returned basis. The other callers take only what they read:
`leading_monomials` reads the leads of the minimal basis, which are the
reduced basis's; `ideal_intersect` and `saturation` pack their inputs once
into k[u, x], interreduce only the u-free part of each minimal basis, pass
intersections up their tree still packed, and build `Polynomial`s once, at
the root. A term that sets a guard bit (lex and block orders can raise
exponents) raises `poly.Overflow`, and `_widening`, the one place that
catches it, reruns the call, the whole run, or the whole elimination tree
with twice the bits; the width changes only the representation, so a
rerun pops the same pairs under the same budgets.

Over Q everything runs on Python ints (pseudo-division, as in the primitive
remainder sequences of Geddes, Czapor & Labahn, *Algorithms for Computer
Algebra*, ch. 7): divisors are primitive, and the terms of a reduction are
one positive integer `scale` times the exact rational ones. A common
positive factor changes neither which terms are zero nor the order in which
leads pop, so every step reduces the same monomial by the same divisor as
the rational division, and the results are the exact ones.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import mul

from .errors import BudgetExceededError
from .poly import (DEGREVLEX, BlockOrder, Overflow, Packing, Polynomial,
                   divisor_of_terms, packed_divisor)

DEFAULT_MAX_BASIS = 500
DEFAULT_MAX_PAIRS = 50000
BITS = 15  # value bits per packed exponent before any widening


def _widening(attempt):
    """attempt(bits) at BITS bits per exponent, then at twice as many, and so
    on, until an attempt returns instead of raising Overflow."""
    bits = BITS
    while True:
        try:
            return attempt(bits)
        except Overflow:
            bits *= 2


def spolynomial(f, g, order):
    """S-polynomial of f and g, the unpacked view of `_spair` on their
    divisors; over Q divided by the product of the divisors' leads."""
    p = f.field.p
    l = tuple(map(max, f.leading_monomial(order), g.leading_monomial(order)))

    def attempt(bits):
        packing = Packing(order, f.nvars, bits)
        df, dg = f.divisor(order, bits), g.divisor(order, bits)
        work, packs = _spair(df, dg, packing.pack(l), p, packing.guard)
        ab = df[2] * dg[2]
        return Polynomial(f.nvars, f.field, {
            packing.unpack(packs[k]): c if p else Fraction(c, ab)
            for k, c in work.items()})

    return _widening(attempt)


def _spair(di, dj, l, p, guard):
    """Packed S-polynomial of the divisors di and dj (see
    `Polynomial.divisor`), where l is the packed (E, K) of the lcm of their
    leads: (work, packs), K -> coefficient and K -> E; Overflow if a term
    sets a guard bit. It is b * tail_i * (l / lm_i) - a * tail_j * (l / lm_j)
    for the divisor leads a and b: over GF(p) both are 1; over Q it is the
    exact S-polynomial of the monic elements times a * b."""
    el, kl = l
    work, packs = {}, {}
    for (e, k, _, tail), mult in ((di, dj[2]), (dj, -di[2])):
        se, sk = el - e, kl - k
        for te, tk, c in tail:
            mk = tk + sk
            if mk in packs:
                work[mk] += mult * c
                continue
            me = te + se
            if me & guard:
                raise Overflow
            packs[mk] = me
            work[mk] = mult * c
    if p:
        return {k: c % p for k, c in work.items() if c % p}, packs
    return {k: c for k, c in work.items() if c}, packs


def _reduce(work, packs, divisors, p, guard):
    """Full reduction of the packed polynomial `work` (K -> coefficient,
    used up) by the first of `divisors` whose lead divides each leading
    term. `packs` holds the E of every key of `work` and gains new ones.
    Returns (remainder, scale), the remainder K -> coefficient in descending
    key order and `scale` (1 over GF(p)) times the exact one. A term that
    sets a guard bit raises Overflow.

    Every key in `packs` is pushed once onto a heap of negated keys. A term
    that cancels keeps its entry and is skipped if still absent when it pops;
    one that comes back needs no new entry, because every term a reduction
    adds is smaller than the leading term just removed. Over Q, cancelling
    the live lead lc against the divisor lead lcg first multiplies every
    term and `scale` by lcg / gcd(lc, lcg) when that is not 1.
    """
    from heapq import heapify, heappop, heappush  # loaded on first use
    heap = [-k for k in packs]
    heapify(heap)
    remainder = {}
    scale = 1
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
            remainder[k] = lc
            continue
        factor = lc
        if lcg != 1:  # never over GF(p)
            g = gcd(lc, lcg)
            factor = lc // g
            if lcg != g:
                r = lcg // g
                for m in work:
                    work[m] *= r
                for m in remainder:
                    remainder[m] *= r
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
                        raise Overflow
                    packs[mk] = me
                    heappush(heap, -mk)
                continue
            s = old - factor * c if p is None else (old - factor * c) % p
            if s:
                work[mk] = s
            else:
                del work[mk]
    return remainder, scale


def normal_form(f, basis, order):
    """Remainder of f under full multivariate division by `basis`: f packed
    and reduced by `_reduce`; the leading live term is reduced by the first
    basis element whose leading monomial divides it, or else moved to the
    remainder. Only remainder terms that f does not have are unpacked.
    Overflow if f does not fit."""
    if f.is_zero() or not basis:
        return f
    p = f.field.p
    scale = 1 if p else lcm(*(c.denominator for c in f.terms.values()))

    def attempt(bits):
        packing = Packing(order, f.nvars, bits)
        divisors = [g.divisor(order, bits) for g in basis if not g.is_zero()]
        if not packing.fits(f.terms):
            raise Overflow
        work, packs, monos = {}, {}, {}  # monos: K -> the terms of f
        for m, c in f.terms.items():
            e, k = packing.pack(m)
            packs[k], monos[k] = e, m
            work[k] = c if p else c.numerator * (scale // c.denominator)
        remainder, r = _reduce(work, packs, divisors, p, packing.guard)
        return Polynomial(f.nvars, f.field, {
            monos.get(k) or packing.unpack(packs[k]):
                c if p else Fraction(c, scale * r)
            for k, c in remainder.items()}, order)

    return _widening(attempt)


def buchberger(gens, order=DEGREVLEX, max_basis=DEFAULT_MAX_BASIS,
               max_pairs=DEFAULT_MAX_PAIRS):
    """Reduced Groebner basis of the given generators: `_minimal_basis`, then
    `_interreduce`, packed from the generators to the returned basis."""
    def reduced(packing, basis, nvars, field):
        return tuple(_polynomials(_interreduce(basis, field.p, packing.guard),
                                  packing.unpack, nvars, field, order))

    return _from_minimal_basis(gens, order, max_basis, max_pairs, reduced)


def leading_monomials(gens, order=DEGREVLEX):
    """The leading monomials of `buchberger(gens, order)`, in its order, read
    off the minimal basis: the same pair loop under the default budgets,
    with no interreduction, which changes no lead."""
    return _from_minimal_basis(
        gens, order, DEFAULT_MAX_BASIS, DEFAULT_MAX_PAIRS,
        lambda packing, basis, *_: tuple(
            packing.unpack(d[0]) for d in sorted(basis, key=lambda d: d[1])))


def _from_minimal_basis(gens, order, max_basis, max_pairs, finish):
    """finish(packing, basis, nvars, field) for the minimal basis of the
    nonzero `gens` under `order` (see `_minimal_basis`), at BITS bits per
    exponent, then at twice as many, and so on, until neither the pair loop
    nor `finish` raises Overflow; () if no generator is nonzero."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    nvars, field = gens[0].nvars, gens[0].field

    def attempt(bits):
        packing = Packing(order, nvars, bits)
        basis = _minimal_basis((g.divisor(order, bits) for g in gens),
                               packing, field.p, max_basis, max_pairs)
        return finish(packing, basis, nvars, field)

    return _widening(attempt)


def _polynomials(divisors, unpack, nvars, field, order):
    """The monic `Polynomial`s of the packed divisors (see
    `Polynomial.divisor`), unpack(E) giving each exponent tuple."""
    p = field.p
    return [Polynomial(nvars, field, {
        unpack(te): c if p else Fraction(c, lc)
        for te, _, c in ((e, k, lc), *tail)}, order)
        for e, k, lc, tail in divisors]


def _minimal_basis(divisors, packing, p, max_basis, max_pairs):
    """The pair loop on the packed generators `divisors` (see
    `Polynomial.divisor`), taken in turn: a minimal Groebner basis of them,
    as divisors in the order they joined. Overflow if a term sets a guard
    bit."""
    from heapq import heapify, heappop, heappush
    bits, guard = packing.bits, packing.guard
    basis, leads = [], []  # divisors (E, K, lc, tail) and their lead packs
    active = []  # indices whose leading monomial no later one divides
    pairs = []  # heap of (lcm degree, creation index, i, j, (E, K) of lcm)
    seq = popped = 0

    def exceeded(budget, cap):
        return BudgetExceededError(
            "%s budget %d exceeded after %d pops (basis %d, %d queued)"
            % (budget, cap, popped, len(basis), len(pairs)))

    def join(a, b):
        """E of the lcm of two packed monomials: in each field the entry of
        a where a - b does not borrow through its guard bit, else of b."""
        t = ((a | guard) - b) & guard
        t -= t >> bits
        return a & t | b & ~t

    def update(d):
        """Add the divisor d to the basis; prune pairs by the Gebauer-Moeller
        criteria."""
        nonlocal active, pairs, seq
        j = len(basis)
        h = d[0]
        basis.append(d)
        leads.append(h)
        # B_k: drop an old pair (a, b) when lm(h) divides its lcm and that
        # lcm differs from lcm(a, h) and lcm(b, h)
        pairs = [q for q in pairs
                 if (q[4][0] - h) & guard
                 or join(leads[q[2]], h) == q[4][0]
                 or join(leads[q[3]], h) == q[4][0]]
        heapify(pairs)
        new = [(i, join(leads[i], h)) for i in active]
        for k, (i, l) in enumerate(new):
            # F and the product criterion: a coprime candidate forms no
            # pair, but still prunes the others
            if l == leads[i] + h:
                continue
            # M: another candidate's lcm divides this one; of equal lcms the
            # earliest survives
            if (any(not (l - m) & guard for _, m in new[:k])
                    or any(m != l and not (l - m) & guard
                           for _, m in new[k + 1:])):
                continue
            m = packing.unpack(l)
            heappush(pairs, (sum(m), seq, i, j, packing.pack(m)))
            seq += 1
        active = [i for i in active if (leads[i] - h) & guard]
        active.append(j)
        if len(basis) > max_basis:
            raise exceeded("basis", max_basis)

    for d in divisors:
        update(d)
    while pairs:
        _, _, i, j, l = heappop(pairs)
        popped += 1
        if popped > max_pairs:
            raise exceeded("pair", max_pairs)
        work, packs = _spair(basis[i], basis[j], l, p, guard)
        if remainder := _reduce(work, packs, basis, p, guard)[0]:
            update(packed_divisor(remainder, packs, p))
    # drop the elements whose leading monomial another one divides
    return [d for i, d in enumerate(basis)
            if not any(j != i and not (d[0] - e) & guard
                       and (e != d[0] or j < i)
                       for j, e in enumerate(leads))]


def _interreduce(basis, p, guard):
    """The reduced Groebner basis of the minimal basis `basis`, as divisors
    in ascending key order: each element fully reduced by the others.
    Overflow if a term sets a guard bit."""
    reduced = []
    for i, (e, k, lc, tail) in enumerate(basis):
        packs = {k: e, **{tk: te for te, tk, _ in tail}}
        work = {k: lc, **{tk: c for _, tk, c in tail}}
        remainder, _ = _reduce(work, packs, basis[:i] + basis[i + 1:], p,
                               guard)
        reduced.append(packed_divisor(remainder, packs, p))
    reduced.sort(key=lambda d: d[1])
    return reduced


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

    @classmethod
    def of_reduced_basis(cls, nvars, field, basis):
        """The ideal generated by `basis`, its reduced `DEGREVLEX` basis in
        the order `buchberger` returns it, recorded as such, so no caller
        runs Buchberger on it again."""
        ideal = cls(nvars, field, basis)
        ideal._bases[DEGREVLEX] = ideal.gens
        return ideal

    def groebner_basis(self, order=DEGREVLEX):
        if order not in self._bases:
            self._bases[order] = buchberger(self.gens, order)
        return self._bases[order]

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(g.text() for g in self.gens)


def ideal_member(f, ideal, order=DEGREVLEX):
    return f.is_zero() or normal_form(f, ideal.groebner_basis(order),
                                      order).is_zero()


def ideal_equal(a, b, order=DEGREVLEX):
    """Whether two ideals are equal: their reduced bases under `order`, which
    are unique for a given ideal and order, are the same tuple."""
    return a.groebner_basis(order) == b.groebner_basis(order)


_ELIMINATE_U = BlockOrder(split=1)


class _Elimination:
    """k[u, x], u a new leading variable, packed for `_ELIMINATE_U` at `bits`
    bits per exponent. An ideal is a list of divisors (see
    `Polynomial.divisor`); a method raises Overflow where a term needs more
    bits."""

    def __init__(self, nvars, p, bits):
        self.p = p
        self.packing = Packing(_ELIMINATE_U, nvars + 1, bits)
        self.u = self.packing.pack((1,) + (0,) * nvars)
        self.umask = (1 << bits) - 1  # u's exponent field in E

    def lift(self, g, u=0, scale=1, constant=()):
        """The divisor of scale * u**u * g + constant, g in k[x]: g's own
        degrevlex order is the block order, and a constant comes last."""
        return divisor_of_terms([((u,) + m, scale * c) for m, c in
                                 g.terms_sorted(DEGREVLEX)] + list(constant),
                                self.packing, self.p)

    def tagged(self, a, b):
        """The divisors of u*g for g in a and of g - u*g for g in b, a and b
        u-free: u's (E, K) added to each term, and for g - u*g the negated
        terms of g after them."""
        (eu, ku), p = self.u, self.p
        out = []
        for i, (e, k, lc, tail) in enumerate(a + b):
            terms = tuple([(te + eu, tk + ku, c) for te, tk, c in tail])
            if i >= len(a):
                terms += tuple([(te, tk, -c % p if p else -c)
                                for te, tk, c in ((e, k, lc), *tail)])
            out.append((e + eu, k + ku, lc, terms))
        return out

    def eliminate(self, divisors):
        """The u-free part of the ideal the divisors generate, as its reduced
        basis in ascending key order, under the default budgets. Under the
        block order the elements of a minimal basis whose leads have no u
        have no u in any term, and they are a minimal basis of the u-free
        part (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*,
        ch. 3 section 1), so only they are interreduced."""
        basis = _minimal_basis(divisors, self.packing, self.p,
                               DEFAULT_MAX_BASIS, DEFAULT_MAX_PAIRS)
        return _interreduce([d for d in basis if not d[0] & self.umask],
                            self.p, self.packing.guard)


def _packed_elimination(ideal, run):
    """The ideal of the ring of `ideal` whose reduced degrevlex basis
    run(elimination) returns packed, for an `_Elimination` at BITS bits per
    exponent, then at twice as many, and so on, until no step needs more.
    The block order restricted to k[x] is degrevlex and the keys sort
    alike, so the basis is recorded as the `DEGREVLEX` one, and no caller
    runs Buchberger on the result again."""
    n, field = ideal.nvars, ideal.field

    def attempt(bits):
        elimination = _Elimination(n, field.p, bits)
        unpack = elimination.packing.unpack
        return _polynomials(run(elimination), lambda e: unpack(e)[1:], n,
                            field, DEGREVLEX)

    return Ideal.of_reduced_basis(n, field, _widening(attempt))


def ideal_intersect(*ideals):
    """Intersection of one or more ideals of one ring, in a balanced tree:
    adjacent pairs first, then pairs of the results, in input order, an odd
    one out passing up a level as it is. n ideals take n - 1 eliminations,
    as a left fold does, but a fold intersects a growing accumulator with
    one input at a time, and the tree meets two results of about the same
    size only at its upper levels. a intersected with b is the u-free part
    of u*a + (1 - u)*b. Each input is packed once and every result passes
    up the tree packed; a term that needs more bits reruns the whole tree
    wider. An intersection of two or more ideals carries its reduced
    `DEGREVLEX` basis."""
    if not ideals:
        raise ValueError("need at least one ideal to intersect")
    a = ideals[0]
    if any(b.nvars != a.nvars or b.field != a.field for b in ideals):
        raise ValueError("ideals in different rings")
    if len(ideals) == 1:
        return a

    def run(elimination):
        level = [[elimination.lift(g) for g in b.gens] for b in ideals]
        while len(level) > 1:
            up = [elimination.eliminate(elimination.tagged(a, b))
                  for a, b in zip(level[::2], level[1::2])]
            level = up + level[2 * len(up):]
        return level[0]

    return _packed_elimination(a, run)


def saturation(ideal, f):
    """(ideal : f^infinity), the u-free part of ideal + (1 - u*f): one
    elimination (Rabinowitsch; Cox, Little & O'Shea, ch. 4 section 4)."""
    one = [((0,) * (ideal.nvars + 1), ideal.field.one)]

    def run(elimination):
        gens = [elimination.lift(g) for g in ideal.gens]
        gens.append(elimination.lift(f, 1, -1, one))
        return elimination.eliminate(gens)

    return _packed_elimination(ideal, run)


def ideal_power(ideal, m):
    """m-th power; the zeroth power is the unit ideal."""
    if m < 0:
        raise ValueError("negative ideal power")
    if m == 0:
        one = Polynomial.constant(ideal.field.one, ideal.nvars, ideal.field)
        return Ideal(ideal.nvars, ideal.field, [one])
    return Ideal(ideal.nvars, ideal.field, [
        reduce(mul, c) for c in combinations_with_replacement(ideal.gens, m)])
