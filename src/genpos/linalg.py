"""Exact row reduction over the package's fields.

One routine, `eliminate`, reduces dense rows of ints mod p, or over Q integer
rows (scaling a row moves no rank, pivot column or RREF). It never normalizes
a pivot row: over Q it is fraction-free, with Bareiss's exact division by the
previous pivot (Bareiss 1968, Math. Comp. 22), over GF(p) it cross-multiplies.
`rank` needs forward elimination only; `rref` normalizes the reduced form,
the one place a Fraction is built.

The sparse incremental echelons serve degree-truncated spans, where rows
arrive one at a time and only ranks and membership residues are needed.
IntegerEchelon is a fraction-free variant for rational data that clears to
integers, which keeps the big truncated-span computations out of Fraction
normalization costs.

Both incremental echelons are level-filtered. A row inserted at level L lies
in V_L, the span of every row inserted at level >= L, so the V_L shrink as L
grows. The invariant is that for every n the pivot rows of level >= n are an
echelon basis of V_n. An incoming row reduces only against pivots of level
>= its own; when its lead column holds a pivot of lower level, it takes that
column, and the displaced row goes on reducing at its own level. Then
`rank_from(n)` is dim V_n and `contains(vec, n)` tests membership in V_n, in
whatever order the rows arrive. At the default level 0 no swap ever happens.
"""

from fractions import Fraction
from math import gcd, lcm


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

    Pivot rows are normalized to leading coefficient 1 at their smallest column.
    Each pivot row carries the level it was inserted at (see the module
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


def _strip_content(vec):
    g = 0
    for v in vec.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        vec = {c: v // g for c, v in vec.items()}
    return vec


class IntegerEchelon:
    """Fraction-free incremental echelon over Z; spans and residues agree with Q.

    Rows are integer dicts kept primitive (content 1). Elimination uses
    cross-multiplication, so no Fraction ever appears; a residue of zero is
    exactly rational-span membership. Levels work as in SparseEchelon.
    """

    def __init__(self):
        self.pivots = {}
        self.levels = {}

    @property
    def rank(self):
        return len(self.pivots)

    def rank_from(self, level):
        """Dimension of the span of the rows inserted at level >= `level`."""
        return sum(lv >= level for lv in self.levels.values())

    def reduce(self, vec, level=0):
        """Residue of vec against the pivots of level >= `level`, up to a
        nonzero scalar (vec is not mutated)."""
        pivots, levels = self.pivots, self.levels
        vec = {c: v for c, v in vec.items() if v}
        while vec:
            lead = min(vec)
            prow = pivots.get(lead)
            if prow is None or levels[lead] < level:
                return vec
            a, b = prow[lead], vec[lead]
            for c in vec:
                vec[c] *= a
            for c, v in prow.items():
                s = vec.get(c, 0) - b * v
                if s:
                    vec[c] = s
                else:
                    vec.pop(c, None)
            vec = _strip_content(vec)
        return vec

    def insert(self, vec, level=0):
        """As SparseEchelon.insert; pivot rows have a positive lead instead of
        lead 1."""
        res = self.reduce(vec, level)
        if not res:
            return False
        while res:
            lead = min(res)
            if res[lead] < 0:
                res = {c: -v for c, v in res.items()}
            displaced = self.pivots.get(lead)
            low = self.levels.get(lead)
            self.pivots[lead], self.levels[lead] = res, level
            if displaced is None:
                break
            res, level = self.reduce(displaced, low), low
        return True

    def contains(self, vec, level=0):
        """Whether vec lies in the rational span of the rows of level >=
        `level`."""
        return not self.reduce(vec, level)


def to_integer_vec(vec):
    """Clear a dict of Fractions/ints to a primitive integer dict."""
    den = lcm(*(v.denominator for v in vec.values()))
    return _strip_content({c: v.numerator * (den // v.denominator)
                           for c, v in vec.items() if v})
