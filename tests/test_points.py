import random
from fractions import Fraction

import pytest

from genpos.conductor import points_conductor_sigma
from genpos.errors import BudgetExceededError
from genpos.fixtures import (line_points, off_conic_points, on_conic_points,
                             tangent_point_set)
from genpos.points import (GenericityCertificate, PointSet, binom,
                           evaluation_matrix, hilbert_function,
                           is_generic_position, is_generic_t_position, nu,
                           random_point_set)
from genpos.poly import parse_polynomial
from genpos.scalars import QQ, PrimeField

F11 = PrimeField(11)


def qpoints(coords):
    return PointSet.of(len(coords[0]) - 1, QQ, coords)


def test_nu_values():
    # least n with binom(n + r, r) >= e
    assert nu(1, 2) == 0
    assert nu(3, 2) == 1
    assert nu(4, 2) == 2
    assert nu(6, 2) == 2
    assert nu(7, 2) == 3
    assert nu(5, 1) == 4
    assert nu(2, 3) == 1
    with pytest.raises(ValueError):
        nu(0, 2)


def test_binom():
    assert binom(5, 2) == 10
    assert binom(4, 0) == 1
    assert binom(3, 5) == 0


def test_point_normalization_and_distinctness():
    X = qpoints([[2, 4], [0, 3]])
    assert X.points[0] == (Fraction(1), Fraction(2))
    assert X.points[1] == (Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        qpoints([[1, 2], [2, 4]])  # same projective point
    with pytest.raises(ValueError):
        qpoints([[0, 0]])
    with pytest.raises(ValueError):
        PointSet.of(2, QQ, [[1, 2]])  # wrong coordinate count
    with pytest.raises(AttributeError):
        X.points = ()
    # the echelon memo is no part of equality, hashing or repr
    fresh = qpoints([[2, 4], [0, 3]])
    X.echelon(2)
    assert X == fresh and hash(X) == hash(fresh) and repr(X) == repr(fresh)
    assert X != (X.r, X.field, X.points)


def test_evaluation_matrix_shape():
    X = qpoints([[1, 0], [1, 1], [0, 1]])
    rows, monos = evaluation_matrix(X, 2)
    assert len(rows) == 3
    assert monos == [(2, 0), (1, 1), (0, 2)]
    assert rows[1] == [Fraction(1)] * 3


def test_six_tangent_points_frozen_profile():
    X = tangent_point_set()
    assert points_conductor_sigma(X) == (4, (1, 3, 4, 5, 6, 6, 6))
    cert = is_generic_position(X)
    assert not cert.generic
    assert cert.failing_degree == 2
    assert cert.witness.text() == "x1*x2"
    d = cert.as_dict()
    assert d["witness"] == "x1*x2"
    assert d["failing_subset"] is None


def test_on_conic_witness():
    X = on_conic_points()
    cert = is_generic_position(X)
    assert not cert.generic
    assert cert.failing_degree == 2
    assert cert.witness == parse_polynomial("x0*x2 - x1^2", 3, QQ)


def test_off_conic_generic():
    X = off_conic_points()
    cert = is_generic_position(X)
    assert cert.generic
    assert cert.hilbert_values == (1, 3, 6)
    assert cert.witness is None
    bare = GenericityCertificate(True, 3, 3, 2, (0, 1), (1, 3))
    assert (bare.failing_degree, bare.witness, bare.failing_subset) == (
        None, None, None)


def test_projective_line_always_generic():
    # on a line any e distinct points impose independent conditions
    for e in (2, 5, 9):
        X = line_points(e)
        for t in range(1, e + 1):
            assert is_generic_t_position(X, t).generic


def test_t_position_finds_collinear_triple():
    coords = [[1, 0, 0], [1, 0, 1], [1, 0, 2], [1, 1, 1], [1, 2, 4],
              [1, 1, 3]]
    X = qpoints(coords)
    # all six together are fine, the hidden triple is not
    assert is_generic_position(X).generic
    cert = is_generic_t_position(X, 3)
    assert not cert.generic
    assert cert.failing_subset == (0, 1, 2)
    assert cert.failing_degree == 1
    assert cert.witness.text() == "x1"
    # success certificates do not carry per-subset values
    ok = is_generic_t_position(X, 2)
    assert ok.generic and ok.hilbert_values == ()


def test_t_position_validates_t():
    X = line_points(4)
    with pytest.raises(ValueError):
        is_generic_t_position(X, 0)
    with pytest.raises(ValueError):
        is_generic_t_position(X, 5)


def test_subset_budget():
    X = off_conic_points()
    with pytest.raises(BudgetExceededError):
        is_generic_t_position(X, 3, subset_budget=5)  # C(6,3) = 20


def test_hilbert_bounds_and_stabilization():
    for X in (tangent_point_set(), off_conic_points(), line_points(7)):
        bound = nu(X.e, X.r)
        prev = 0
        for n in range(bound + 4):
            h = hilbert_function(X, n)
            assert h <= min(X.e, binom(n + X.r, X.r))
            assert h >= prev
            prev = h
        assert prev == X.e


def test_symmetry_invariance():
    # relabeling points must not change the verdict or failure degree
    rng = random.Random(3)
    for X in (tangent_point_set(), off_conic_points()):
        base = is_generic_position(X)
        for _ in range(10):
            order = list(range(X.e))
            rng.shuffle(order)
            Y = PointSet(X.r, X.field, tuple(X.points[i] for i in order))
            cert = is_generic_position(Y)
            assert cert.generic == base.generic
            assert cert.failing_degree == base.failing_degree
            assert cert.hilbert_values == base.hilbert_values


def test_random_point_set_deterministic():
    a, ra = random_point_set(random.Random(9), 5, 2, F11)
    b, rb = random_point_set(random.Random(9), 5, 2, F11)
    assert a == b and ra == rb
    assert a.e == 5 and a.r == 2
    assert len(set(a.points)) == 5


def test_random_point_set_exhaustion():
    F2 = PrimeField(2)
    # P^1 over F_2 has only 3 points
    with pytest.raises(RuntimeError):
        random_point_set(random.Random(0), 4, 1, F2)
