import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from genpos.linalg import (IntegerEchelon, SparseEchelon, eliminate,
                           integer_rows, nullspace_vector, rank, rref,
                           to_integer_vec)
from genpos.scalars import QQ, PrimeField

F11 = PrimeField(11)


def q(*vals):
    return [Fraction(v) for v in vals]


def test_rref_basic():
    rows, pivots = rref([q(2, 4), q(1, 3)], QQ)
    assert pivots == [0, 1]
    assert rows == [q(1, 0), q(0, 1)]


def test_rref_dependent_rows():
    rows, pivots = rref([q(1, 2, 3), q(2, 4, 6), q(0, 0, 1)], QQ)
    assert pivots == [0, 2]
    assert rows == [q(1, 2, 0), q(0, 0, 1)]


def test_rank():
    assert rank([q(1, 2), q(2, 4)], QQ) == 1
    assert rank([q(1, 0), q(0, 1)], QQ) == 2
    assert rank([], QQ) == 0
    assert rank([[F11(1), F11(3)], [F11(2), F11(6)]], F11) == 1


# The dense routine against the RREF it replaced, kept verbatim as the oracle.

def oracle_rref(rows, field):
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


DENSE_FIELDS = [PrimeField(7), PrimeField(2 ** 31 - 1), QQ]
entries = st.one_of(st.integers(-4, 4), st.integers(-2 ** 40, 2 ** 40),
                    st.fractions(min_value=-9, max_value=9,
                                 max_denominator=6))


@st.composite
def dense_matrices(draw):
    """Wide and tall matrices with zero rows and repeated rows mixed in."""
    ncols = draw(st.integers(0, 7))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        spot = draw(st.integers(0, len(rows)))
        extra = [0] * ncols if draw(st.booleans()) or not rows else rows[0]
        rows.insert(spot, list(extra))
    return rows


@pytest.mark.parametrize("field", DENSE_FIELDS, ids=repr)
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=dense_matrices())
def test_dense_elimination_matches_oracle_rref(field, rows):
    want, want_pivots = oracle_rref(rows, field)
    forward = eliminate(integer_rows(rows, field), field.p)
    assert [c for c, _ in forward] == want_pivots
    assert rank(rows, field) == len(want_pivots)
    got, pivots = rref(rows, field)
    assert pivots == want_pivots
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert [(type(x), x) for x in a] == [(type(y), y) for y in b]
    if field.p is None:
        # Bareiss rows hold minors of the integer rows: Hadamard's bound
        ints = integer_rows(rows, field)
        bound = math.prod(max(1, math.isqrt(sum(v * v for v in r)) + 1)
                          for r in ints)
        assert all(abs(v) <= bound for _, r in forward for v in r)


def test_nullspace_vector_deterministic():
    # x + 2y = 0: free column is y, set it to 1
    v = nullspace_vector([q(1, 2)], 2, QQ)
    assert v == q(-2, 1)
    assert nullspace_vector([q(1, 0), q(0, 1)], 2, QQ) is None
    v = nullspace_vector([], 2, QQ)
    assert v == q(1, 0)


def sv(*vals):
    return {i: Fraction(v) for i, v in enumerate(vals) if v}


def test_sparse_echelon_incremental():
    ech = SparseEchelon(QQ)
    assert ech.insert(sv(1, 2, 0))
    assert ech.insert(sv(0, 1, 1))
    assert not ech.insert(sv(1, 3, 1))  # dependent on the first two
    assert ech.rank == 2
    assert ech.contains(sv(2, 5, 1))
    assert not ech.contains(sv(0, 0, 1))
    assert ech.reduce({}) == {}


def test_sparse_pivot_rows_normalized():
    ech = SparseEchelon(QQ)
    ech.insert(sv(3, 6))
    row = ech.pivots[0]
    assert row[0] == 1 and row[1] == 2


def test_integer_echelon_matches_sparse():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 5)
        vecs = [sv(*[rng.randint(-4, 4) for _ in range(n)])
                for _ in range(rng.randint(1, 6))]
        sp = SparseEchelon(QQ)
        ie = IntegerEchelon()
        for v in vecs:
            a = sp.insert(dict(v))
            b = ie.insert(to_integer_vec(v))
            assert a == b
        assert sp.rank == ie.rank
        probe = sv(*[rng.randint(-4, 4) for _ in range(n)])
        assert sp.contains(dict(probe)) == ie.contains(to_integer_vec(probe))


def test_to_integer_vec_clears_denominators():
    assert to_integer_vec({0: Fraction(1, 2), 1: Fraction(1, 3)}) == {0: 3,
                                                                      1: 2}
    assert to_integer_vec({0: Fraction(0)}) == {}
    assert to_integer_vec({0: Fraction(2), 1: Fraction(4)}) == {0: 1, 1: 2}


def test_fp_echelon():
    ech = SparseEchelon(F11)
    assert ech.insert({0: F11(3), 1: F11(1)})
    assert ech.insert({1: F11(5)})
    assert ech.rank == 2
    assert ech.contains({0: F11(7), 1: F11(9)})


# Level-filtered echelons: whatever order rows arrive in, the pivots of level
# >= L must span exactly the rows inserted at level >= L.

ECHELONS = {"GF(7)": (PrimeField(7), lambda: SparseEchelon(PrimeField(7))),
            "GF(2^31-1)": (PrimeField(2 ** 31 - 1),
                           lambda: SparseEchelon(PrimeField(2 ** 31 - 1))),
            "Q": (QQ, IntegerEchelon)}

sparse_rows = st.dictionaries(st.integers(0, 5), st.integers(-3, 3), max_size=4)


@pytest.mark.parametrize("name", sorted(ECHELONS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(sparse_rows, st.integers(0, 3)), max_size=9),
       probes=st.lists(st.tuples(st.lists(st.integers(-2, 2), max_size=9),
                                 st.integers(0, 4)), max_size=4))
def test_filtered_echelon_matches_rank(name, rows, probes):
    field, make = ECHELONS[name]
    ech = make()
    for vec, level in rows:
        ech.insert(vec, level)

    def dense(vec):
        return [field(vec.get(c, 0)) for c in range(6)]

    for level in range(5):
        span = [dense(v) for v, lv in rows if lv >= level]
        assert ech.rank_from(level) == rank(span, field)
    assert ech.rank_from(0) == ech.rank
    # probes are combinations of the inserted rows, of every level, so both
    # answers of contains turn up
    for coeffs, level in probes:
        probe = {}
        for k, (vec, _) in zip(coeffs, rows):
            for c, v in vec.items():
                probe[c] = probe.get(c, 0) + k * v
        span = [dense(v) for v, lv in rows if lv >= level]
        inside = rank(span + [dense(probe)], field) == rank(span, field)
        assert ech.contains(probe, level) == inside


def test_filtered_echelon_swap_keeps_lower_levels():
    # the level-2 row takes column 0 from the level-1 row, which goes on
    # reducing at level 1 and lands on column 1
    ech = SparseEchelon(F11)
    assert ech.insert({0: 1, 1: 1}, 1)
    assert ech.insert({0: 1}, 2)
    assert ech.levels == {0: 2, 1: 1}
    assert ech.pivots == {0: {0: 1}, 1: {1: 1}}
    assert (ech.rank_from(1), ech.rank_from(2), ech.rank_from(3)) == (2, 1, 0)
    assert ech.contains({0: 3}, 2) and not ech.contains({1: 1}, 2)
    assert not ech.insert({0: 5, 1: 5}, 1)
