import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from genpos.linalg import (IntegerEchelon, SparseEchelon, nullspace_vector,
                           rank, rref, to_integer_vec)
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
