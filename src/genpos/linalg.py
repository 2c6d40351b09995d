"""Exact row reduction over the package's fields.

Dense RREF serves the small evaluation matrices of point sets; the sparse
incremental echelons serve degree-truncated spans, where rows arrive one at a
time and only ranks and membership residues are needed. IntegerEchelon is a
fraction-free variant for rational data that clears to integers, which keeps
the big truncated-span computations out of Fraction normalization costs.
"""

from fractions import Fraction
from math import gcd


def rref(rows, field):
    """Reduced row echelon form. Returns (new_rows, pivot_columns).

    Input rows are canonicalized through `field(...)`; the hot loops then
    reduce mod p inline over GF(p) and use plain Fraction arithmetic over Q.
    """
    rows = [[field(v) for v in r] for r in rows]
    if not rows:
        return rows, []
    p = field.p
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][col])
        if p is None:
            prow = [v * inv for v in rows[r]]
        else:
            prow = [v * inv % p for v in rows[r]]
        rows[r] = prow
        for i in range(len(rows)):
            f = rows[i][col]
            if i != r and f:
                if p is None:
                    rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
                else:
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(rows, field):
    return len(rref(rows, field)[1])


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
    Insertion order is the only state; all loops run over sorted keys so ranks,
    residues, and stored rows are deterministic.
    """

    def __init__(self, field):
        self.field = field
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        """Residue of vec against the current echelon (vec is not mutated)."""
        field = self.field
        vec = {c: r for c, v in vec.items() if (r := field(v))}
        while vec:
            lead = min(vec)
            prow = self.pivots.get(lead)
            if prow is None:
                return vec
            f = vec[lead]
            for c, v in prow.items():
                s = field(vec.get(c, 0) - f * v)
                if s:
                    vec[c] = s
                else:
                    vec.pop(c, None)
        return vec

    def insert(self, vec):
        """Reduce and adopt vec as a new pivot row; returns True if rank grew."""
        res = self.reduce(vec)
        if not res:
            return False
        lead = min(res)
        inv = self.field.inv(res[lead])
        self.pivots[lead] = {c: self.field(v * inv) for c, v in res.items()}
        return True

    def contains(self, vec):
        return not self.reduce(vec)


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
    exactly rational-span membership.
    """

    def __init__(self):
        self.pivots = {}

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, vec):
        vec = {c: v for c, v in vec.items() if v}
        while vec:
            lead = min(vec)
            prow = self.pivots.get(lead)
            if prow is None:
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

    def insert(self, vec):
        res = self.reduce(vec)
        if not res:
            return False
        if res[min(res)] < 0:
            res = {c: -v for c, v in res.items()}
        self.pivots[min(res)] = res
        return True

    def contains(self, vec):
        return not self.reduce(vec)


def to_integer_vec(vec):
    """Clear a dict of Fractions/ints to a primitive integer dict."""
    denom = 1
    for v in vec.values():
        if isinstance(v, Fraction):
            denom = denom * v.denominator // gcd(denom, v.denominator)
    out = {}
    for c, v in vec.items():
        iv = int(v * denom) if isinstance(v, Fraction) else v * denom
        if iv:
            out[c] = iv
    return _strip_content(out)
