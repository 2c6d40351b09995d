"""Exact row reduction over the package's fields.

One routine, `eliminate`, reduces dense rows of ints mod p, or over Q integer
rows (scaling a row moves no rank, pivot column or RREF). It never normalizes
a pivot row: over Q it is fraction-free, with Bareiss's exact division by the
previous pivot (Bareiss 1968, Math. Comp. 22), over GF(p) it cross-multiplies.
`rank` needs forward elimination only; `rref` normalizes the reduced form,
the one place a Fraction is built.

One incremental echelon, SparseEchelon, serves degree-truncated spans, where
sparse rows arrive one at a time and only ranks and membership residues are
needed. It takes rows as `eliminate` does and runs one reduction loop for
both fields: over GF(p) a step subtracts a multiple of a monic pivot row mod
p, over Q it cross-multiplies by the pivot's lead and divides out the
content, so no Fraction is built. IntegerEchelon is the same class bound to
Q; it keeps its name and its own `insert` because the benchmark tracer times
`IntegerEchelon.insert` and `SparseEchelon.insert` by name, one per field.

The incremental echelon is level-filtered. Rows arrive at non-increasing
levels; a row inserted at level L lies in V_L, the span of every row inserted
at level >= L, so the V_L shrink as L grows. An incoming row reduces against
every pivot so far, all of level >= its own, so for every n the pivot rows
of level >= n are an echelon basis of V_n: `rank_from(n)` is dim V_n and
`contains(vec, n)` tests membership in V_n. An insert above the last level
raises ValueError.
"""

from fractions import Fraction
from math import gcd, lcm

from .scalars import QQ


def integer_rows(rows, field):
    """Rows as `eliminate` takes them: over GF(p) ints in [0, p), over Q each
    row of ints and Fractions times the lcm of its denominators."""
    if field.p is not None:
        return [[field(v) for v in row] for row in rows]
    out = []
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (den // v.denominator) for v in row])
    return out


def add_row(pivots, row, p):
    """Reduce `row` against the pivot rows [(col, prow), ...] in the order
    they were found and append a nonzero residue, led by its first nonzero
    column. Over Q a step is (a*row - f*prow) / previous a, exact (Bareiss)."""
    prev = 1
    for c, prow in pivots:
        a, f = prow[c], row[c]
        if p is None:
            row = [(a * x - f * y) // prev for x, y in zip(row, prow)]
            prev = a
        elif f:
            row = [(a * x - f * y) % p for x, y in zip(row, prow)]
    lead = next((c for c, v in enumerate(row) if v), None)
    if lead is not None:
        pivots.append((lead, row))


def eliminate(rows, p, reduced=False):
    """Pivot rows [(col, row), ...] of canonical `rows`, sorted by column:
    each is zero left of its lead, so the leads are the RREF's pivots. With
    `reduced`, each is also zero on the other leads (over Q with the content
    divided out), so it is a nonzero multiple of its RREF row."""
    pivots = []
    for row in rows:
        if len(pivots) == len(row):
            break
        add_row(pivots, row, p)
    pivots.sort(key=lambda piv: piv[0])
    if not reduced:
        return pivots
    for k, (c, prow) in enumerate(pivots):
        for i, (ci, row) in enumerate(pivots[:k]):
            a, f = prow[c], row[c]
            if f and p is None:
                row = [a * x - f * y for x, y in zip(row, prow)]
                g = gcd(*row)
                pivots[i] = ci, [x // g for x in row]
            elif f:
                pivots[i] = ci, [(a * x - f * y) % p for x, y in zip(row, prow)]
    return pivots


def rref(rows, field):
    """Reduced row echelon form. Returns (new_rows, pivot_columns)."""
    p = field.p
    red = eliminate(integer_rows(rows, field), p, reduced=True)
    out = []
    for c, row in red:
        if p is None:
            out.append([Fraction(v, row[c]) for v in row])
        else:
            inv = pow(row[c], -1, p)
            out.append([v * inv % p for v in row])
    return out, [c for c, _ in red]


def rank(rows, field):
    return len(eliminate(integer_rows(rows, field), field.p))


def kernel_vector(red, pivots, ncols, field):
    """Canonical kernel vector read off an RREF, or None if full column rank.

    Sets the first free column to 1, every other free column to 0, and fills
    pivot columns by back-substitution, so the result is deterministic.
    """
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return None
    j0 = free[0]
    v = [field.zero] * ncols
    v[j0] = field.one
    for row, pc in zip(red, pivots):
        v[pc] = field(-row[j0])
    return v


def nullspace_vector(rows, ncols, field):
    """Canonical kernel vector of the column-space map, or None if full column
    rank (see `kernel_vector`)."""
    red, pivots = rref(rows, field)
    return kernel_vector(red, pivots, ncols, field)


class SparseEchelon:
    """Incremental echelon of sparse rows (dict col -> coefficient) over a field.

    Rows come as `eliminate` takes them: ints in [0, p) over GF(p), over Q
    integer rows, each standing for its rational span. A pivot row is
    normalized at its smallest column as `poly.packed_divisor` normalizes a
    divisor: monic over GF(p), primitive with a positive lead over Q. Each
    pivot row carries the level it was inserted at, levels non-increasing
    (see the module docstring); `rank_from(n)` counts the pivots of level
    >= n. Insertion order is the only state; all loops run over sorted keys
    so ranks, residues, and stored rows are deterministic.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}
        self.levels = {}
        self.last = None  # the level of the last insert

    @property
    def rank(self):
        return len(self.pivots)

    def rank_from(self, level):
        """Dimension of the span of the rows inserted at level >= `level`."""
        return sum(lv >= level for lv in self.levels.values())

    def reduce(self, vec, level=0):
        """Residue of vec against the pivots of level >= `level`, over Q up to
        a positive scalar (vec is not mutated); it stops at the first lead no
        such pivot holds. A step subtracts f * (monic row) mod p, or over Q
        cross-multiplies by the pivot's lead and divides out the content."""
        p = self.field.p
        pivots, levels = self.pivots, self.levels
        vec = {c: v for c, v in vec.items() if v}
        while vec:
            lead = min(vec)
            prow = pivots.get(lead)
            if prow is None or levels[lead] < level:
                return vec
            f = vec[lead]
            if p is None:
                a = prow[lead]
                for c in vec:
                    vec[c] *= a
            for c, v in prow.items():
                s = vec.get(c, 0) - f * v
                if p is not None:
                    s %= p
                if s:
                    vec[c] = s
                else:
                    vec.pop(c, None)
            if p is None and vec:
                g = gcd(*vec.values())
                if g > 1:
                    vec = {c: v // g for c, v in vec.items()}
        return vec

    def insert(self, vec, level=0):
        """Reduce and adopt vec as a pivot row of `level`; returns True if the
        span of the rows of level >= `level` grew. ValueError, with nothing
        changed, if `level` is above the last insert's."""
        if self.last is not None and level > self.last:
            raise ValueError("insert at level %d after level %d: levels must "
                             "not increase" % (level, self.last))
        self.last = level
        res = self.reduce(vec)
        if not res:
            return False
        lead = min(res)
        if (p := self.field.p) is None:
            g = gcd(*res.values())
            g = g if res[lead] > 0 else -g
            row = res if g == 1 else {c: v // g for c, v in res.items()}
        else:
            inv = pow(res[lead], -1, p)
            row = {c: v * inv % p for c, v in res.items()}
        self.pivots[lead], self.levels[lead] = row, level
        return True

    def contains(self, vec, level=0):
        """Whether vec lies in the span of the rows of level >= `level`."""
        return not self.reduce(vec, level)


class IntegerEchelon(SparseEchelon):
    """SparseEchelon over Q. The benchmark tracer times `insert` per class, so
    this name and its own `insert` keep the Q rows apart from GF(p)."""

    def __init__(self):
        super().__init__(QQ)

    insert = SparseEchelon.insert


def to_integer_vec(vec):
    """Clear a dict of Fractions/ints to a primitive integer dict."""
    den = lcm(*(v.denominator for v in vec.values()))
    vec = {c: v.numerator * (den // v.denominator) for c, v in vec.items() if v}
    g = gcd(*vec.values())
    return {c: v // g for c, v in vec.items()} if g > 1 else vec
