"""Property tests: GF(p) scalars leave every engine as ints in [0, p).

Inputs are deliberately non-canonical (negative, far above p) so that any
engine that stores a scalar without passing it through the field shows up.
"""

import pytest
from hypothesis import given, settings, strategies as st

from genpos.linalg import SparseEchelon, rref
from genpos.points import PointSet, evaluation_matrix, normalize_point
from genpos.poly import Polynomial
from genpos.scalars import PrimeField, roots_of_unity

FIELDS = [PrimeField(11), PrimeField(2 ** 31 - 1)]
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

raw = st.integers(-2 ** 70, 2 ** 70)
terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), raw,
                        max_size=5)
matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(st.lists(raw, min_size=ncols, max_size=ncols),
                           min_size=1, max_size=5))


def canonical(values, field):
    return all(type(v) is int and 0 <= v < field.p for v in values)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: repr(f))
@PROPERTY
@given(a=terms, b=terms, c=terms, k=st.integers(0, 3))
def test_polynomial_arithmetic_is_canonical_ring(field, a, b, c, k):
    a, b, c = (Polynomial(2, field, t) for t in (a, b, c))
    zero = Polynomial.zero(2, field)
    one = Polynomial.constant(field.one, 2, field)
    for out in (a + b, a - b, a * b, a ** k, -a, a * 7, a + 5):
        assert canonical(out.terms.values(), field)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert (a - a).is_zero() and a * zero == zero
    assert a ** 2 == a * a and a ** 0 == one


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: repr(f))
@PROPERTY
@given(rows=matrices)
def test_rref_rows_are_canonical(field, rows):
    red, pivots = rref(rows, field)
    assert len(red) == len(pivots) <= min(len(rows), len(rows[0]))
    for row, col in zip(red, pivots):
        assert canonical(row, field)
        assert row[col] == 1
        assert all(other[col] == 0 for other in red if other is not row)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: repr(f))
@PROPERTY
@given(vecs=st.lists(st.dictionaries(st.integers(0, 5), raw, max_size=4),
                     max_size=6))
def test_sparse_echelon_rows_are_canonical(field, vecs):
    # the echelon takes rows as `eliminate` does, ints in [0, p), and keeps
    # every pivot row and residue there
    ech = SparseEchelon(field)
    for v in vecs:
        v = {c: field(x) for c, x in v.items()}
        assert canonical(ech.reduce(v).values(), field)
        ech.insert(v)
        assert ech.contains(v)
    for lead, row in ech.pivots.items():
        assert lead == min(row) and row[lead] == 1
        assert canonical(row.values(), field) and all(row.values())


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: repr(f))
@PROPERTY
@given(points=st.lists(st.lists(raw, min_size=3, max_size=3), min_size=1,
                       max_size=4),
       n=st.integers(0, 6))
def test_evaluation_matrix_is_canonical(field, points, n):
    X = PointSet(2, field, tuple(tuple(map(field, pt)) for pt in points))
    rows, monos = evaluation_matrix(X, n)
    for pt, row in zip(X.points, rows):
        assert canonical(row, field)
        assert row == [Polynomial.monomial(m, 3, field).evaluate(pt)
                       for m in monos]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: repr(f))
@PROPERTY
@given(coords=st.lists(raw, min_size=1, max_size=5))
def test_normalize_point_is_canonical(field, coords):
    if all(field(c) == 0 for c in coords):
        with pytest.raises(ValueError):
            normalize_point(coords, field)
        return
    point = normalize_point(coords, field)
    assert canonical(point, field)
    assert next(c for c in point if c) == 1


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: repr(f))
@PROPERTY
@given(d=st.integers(1, 100))
def test_roots_of_unity_are_canonical(field, d):
    if (field.p - 1) % d:
        with pytest.raises(ValueError):
            roots_of_unity(field, d)
        return
    roots = roots_of_unity(field, d)
    assert canonical(roots, field)
    assert roots == sorted(set(roots)) and len(roots) == d
    assert all(pow(r, d, field.p) == 1 for r in roots)
