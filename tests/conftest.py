import pytest

from genpos.linalg import SparseEchelon
from genpos.poly import Polynomial, monomials_of_degree


# exponent-tuple helpers for the tuple-based oracles; the engine packs
# monomials into ints instead
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


def monic(g, order):
    """g over its leading coefficient under `order`, its terms inserted in
    descending order, as `buchberger` builds the elements it returns."""
    ts = g.terms_sorted(order)
    inv = g.field.inv(ts[0][1]) if ts else None
    return Polynomial(g.nvars, g.field, {m: c * inv for m, c in ts})


def monomials_up_to(nvars, d):
    """Exponent tuples of degree <= d, ascending degree then lex descending."""
    return [m for k in range(d + 1) for m in monomials_of_degree(nvars, k)]


def truncated_membership(f, gens, bound):
    """Whether f lies in the span of {m*g : deg(m*g) <= bound} by row reduction.

    Independent of the Buchberger engine; used as a cross-check oracle. A True
    answer certifies membership; for small bounds a False answer only says no
    witness exists within the truncation.
    """
    if f.degree() > bound:
        raise ValueError("bound %d smaller than deg f = %d" % (bound, f.degree()))
    field = f.field
    index = {m: i for i, m in enumerate(monomials_up_to(f.nvars, bound))}
    ech = SparseEchelon(field)
    for g in gens:
        if g.is_zero():
            continue
        dg = g.degree()
        for m in monomials_up_to(f.nvars, bound - dg):
            row = {}
            for mg, c in g.terms.items():
                row[index[mono_mul(m, mg)]] = c
            ech.insert(row)
    vec = {index[m]: c for m, c in f.terms.items()}
    return ech.contains(vec)


@pytest.fixture(name="truncated_membership")
def truncated_membership_oracle():
    """The row-reduction membership oracle, for tests in any module."""
    return truncated_membership
