import pytest

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


# The incremental echelon as it was before it took canonical ints, kept as
# the test oracles' reference: it takes field scalars (Fractions over Q)
# and keeps monic pivot rows, so no oracle runs on the engine it checks.

class ReferenceEchelon:
    """Incremental echelon of sparse rows (dict col -> coefficient) over a field.

    Pivot rows are normalized to leading coefficient 1 at their smallest column.
    Each pivot row carries the level it was inserted at (see the genpos.linalg
    docstring); `rank_from(n)` counts the pivots of level >= n. Insertion order
    is the only state; all loops run over sorted keys so ranks, residues, and
    stored rows are deterministic.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}
        self.levels = {}

    @property
    def rank(self):
        return len(self.pivots)

    def rank_from(self, level):
        """Dimension of the span of the rows inserted at level >= `level`."""
        return sum(lv >= level for lv in self.levels.values())

    def _reduce(self, vec, level):
        # vec is canonical and reduced in place, against pivots of level >=
        # `level` only: it stops at the first lead no such pivot holds
        p = self.field.p
        pivots, levels = self.pivots, self.levels
        while vec:
            lead = min(vec)
            prow = pivots.get(lead)
            if prow is None or levels[lead] < level:
                return vec
            f = vec[lead]
            if p is None:
                for c, v in prow.items():
                    s = vec.get(c, 0) - f * v
                    if s:
                        vec[c] = s
                    else:
                        vec.pop(c, None)
            else:
                for c, v in prow.items():
                    s = (vec.get(c, 0) - f * v) % p
                    if s:
                        vec[c] = s
                    else:
                        vec.pop(c, None)
        return vec

    def reduce(self, vec, level=0):
        """Residue of vec against the pivots of level >= `level` (vec is not
        mutated)."""
        field = self.field
        return self._reduce({c: r for c, v in vec.items() if (r := field(v))},
                            level)

    def insert(self, vec, level=0):
        """Reduce and adopt vec as a pivot row of `level`; returns True if the
        span of the rows of level >= `level` grew.

        A residue whose lead column holds a pivot of lower level takes that
        column; the displaced row goes on reducing at its own level.
        """
        res = self.reduce(vec, level)
        if not res:
            return False
        p = self.field.p
        while res:
            lead = min(res)
            inv = self.field.inv(res[lead])
            if p is None:
                row = {c: v * inv for c, v in res.items()}
            else:
                row = {c: v * inv % p for c, v in res.items()}
            displaced = self.pivots.get(lead)
            low = self.levels.get(lead)
            self.pivots[lead], self.levels[lead] = row, level
            if displaced is None:
                break
            res, level = self._reduce(displaced, low), low
        return True

    def contains(self, vec, level=0):
        """Whether vec lies in the span of the rows of level >= `level`."""
        return not self.reduce(vec, level)


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
    ech = ReferenceEchelon(field)
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
