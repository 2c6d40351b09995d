"""Property tests: the one-pass point engine against the per-degree path.

The engine reduces each degree's evaluation matrix once, stops at the first
full-rank degree, reads generic (e-1)-position off separators and walks the
other t-subsets depth first on prefix echelons. The oracles below redo
everything the old way: `hilbert_function` for every degree, a fresh
`nullspace_vector` for the witness, a lex loop over all t-subsets, and
evaluation matrices of Fractions at the normalized points.
"""

from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from genpos import linalg, points
from genpos.conductor import points_conductor_certificate, points_conductor_sigma
from genpos.groebner import Ideal, ideal_intersect
from genpos.linalg import eliminate, integer_rows, nullspace_vector
from genpos.points import (GenericityCertificate, PointSet, binom,
                           evaluation_matrix, hilbert_function,
                           ideal_basis, is_generic_position,
                           is_generic_t_position, normalize_point, nu)
from genpos.poly import DEGREVLEX, Polynomial, monomials_of_degree
from genpos.scalars import QQ, PrimeField
from genpos.serialize import canonical_json

FIELDS = [PrimeField(11), PrimeField(2 ** 31 - 1), QQ]
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
MAX_E = 7


def old_generic_check(X):
    """Degrees 0..nu with a fresh rank and a fresh kernel vector per degree."""
    values = []
    for n in range(nu(X.e, X.r) + 1):
        h = hilbert_function(X, n)
        values.append(h)
        if h < min(X.e, binom(n + X.r, X.r)):
            rows, monos = evaluation_matrix(X, n)
            vec = nullspace_vector(rows, len(monos), X.field)
            witness = Polynomial(X.r + 1, X.field, dict(zip(monos, vec)))
            return n, witness * X.field.inv(next(c for c in vec if c)), values
    return None, None, values


def old_generic_position(X):
    failing, witness, values = old_generic_check(X)
    return GenericityCertificate(
        generic=failing is None, t=X.e, e=X.e, r=X.r,
        checked_degrees=tuple(range(len(values))),
        hilbert_values=tuple(values), failing_degree=failing,
        witness=witness).as_dict()


def brute_t_position(X, t):
    """Lex loop of the per-subset check over every t-subset."""
    for idxs in combinations(range(X.e), t):
        failing, witness, values = old_generic_check(X.subset(idxs))
        if failing is not None:
            return GenericityCertificate(
                generic=False, t=t, e=X.e, r=X.r,
                checked_degrees=tuple(range(len(values))),
                hilbert_values=tuple(values), failing_degree=failing,
                witness=witness, failing_subset=idxs).as_dict()
    return GenericityCertificate(
        generic=True, t=t, e=X.e, r=X.r,
        checked_degrees=tuple(range(nu(t, X.r) + 1)),
        hilbert_values=()).as_dict()


def fraction_evaluation_matrix(X, n):
    """Rows indexed by points, columns by the degree-n monomials (lex descending).

    Over GF(p) each product is reduced mod p as it is formed.
    """
    monos = monomials_of_degree(X.r + 1, n)
    p = X.field.p
    rows = []
    for pt in X.points:
        row = []
        for m in monos:
            v = X.field.one
            for x, exp in zip(pt, m):
                if exp:
                    v = v * x ** exp if p is None else v * x ** exp % p
            row.append(v)
        rows.append(row)
    return rows, monos


def point_set(r, field, coords, limit=MAX_E):
    """The first `limit` distinct nonzero points among coords; a draw with
    none becomes the single point [1:0:...:0]."""
    seen = []
    for c in coords:
        c = [field(v) for v in c]
        if any(c):
            p = normalize_point(c, field)
            if p not in seen:
                seen.append(p)
    return PointSet(r, field, tuple(seen[:limit]) or ((field.one,) + (field.zero,) * r,))


small = st.integers(-3, 3)
sizes = st.integers(1, MAX_E)


@st.composite
def random_sets(draw, field=None):
    field = field or draw(st.sampled_from(FIELDS))
    r = draw(st.integers(1, 3))
    e = draw(sizes)
    coord = (st.integers(0, field.p - 1)
             if field.p is not None and field.p > 100 else small)
    coords = draw(st.lists(st.lists(coord, min_size=r + 1, max_size=r + 1),
                           min_size=e, max_size=e))
    return point_set(r, field, coords)


@st.composite
def degenerate_sets(draw, field=None):
    field = field or draw(st.sampled_from(FIELDS))
    r = draw(st.integers(2, 3))
    e = draw(st.integers(3, MAX_E))
    kind = draw(st.sampled_from(["line", "normal-curve", "hyperplane",
                                 "triple"]))
    vec = st.lists(small, min_size=r + 1, max_size=r + 1)
    params = draw(st.lists(st.tuples(small, small), min_size=e, max_size=e))
    if kind == "line":
        a, b = draw(vec), draw(vec)
        coords = [[s * x + u * y for x, y in zip(a, b)] for s, u in params]
    elif kind == "normal-curve":
        coords = [[s ** (r - i) * u ** i for i in range(r + 1)]
                  for s, u in params]
    elif kind == "hyperplane":
        coords = [c[:r] + [0]
                  for c in draw(st.lists(vec, min_size=e, max_size=e))]
    else:
        a, b = draw(vec), draw(vec)
        triple = [[s * x + u * y for x, y in zip(a, b)]
                  for s, u in ((1, 0), (0, 1), (1, 1))]
        rest = draw(st.lists(vec, min_size=e - 3, max_size=e - 3))
        coords = draw(st.permutations(triple + rest))
    return point_set(r, field, coords)


@st.composite
def tall_sets(draw):
    """Sets whose H reaches e only past nu + 4: 9..12 collinear points of
    P^2..P^4, 9..12 points of the hyperplane x2 = 0 of P^2, and
    14..16 points of a conic in a plane of P^4."""
    field = draw(st.sampled_from(FIELDS[1:]))
    kind = draw(st.sampled_from(["line", "hyperplane", "conic"]))
    if kind == "line":
        r, e = draw(st.integers(2, 4)), draw(st.integers(9, 12))
    elif kind == "hyperplane":
        r, e = 2, draw(st.integers(9, 12))
    else:
        r, e = 4, draw(st.integers(14, 16))
    params = draw(st.lists(st.integers(-50, 50), min_size=e, max_size=e,
                           unique=True))
    if kind == "hyperplane":
        coords = [[1, s, 0] for s in params]
    else:
        # an upper triangular basis of the line or plane, so it has full rank
        basis = [[0] * i + [1] + draw(st.lists(small, min_size=r - i,
                                               max_size=r - i))
                 for i in range(2 if kind == "line" else 3)]
        coords = [[sum(s ** i * u[j] for i, u in enumerate(basis))
                   for j in range(r + 1)] for s in params]
    return point_set(r, field, coords, limit=e)


TALL = tall_sets()
FAMILIES = pytest.mark.parametrize(
    "family", [random_sets(), degenerate_sets()], ids=["random", "degenerate"])


def per_degree_values(X):
    """H(0..max(nu + 4, sigma)) from a full-matrix rank per degree, sigma the
    first degree where H reaches e; no degree past max(nu + 4, e - 1)."""
    values = []
    for d in range(max(nu(X.e, X.r) + 4, X.e - 1) + 1):
        if d > nu(X.e, X.r) + 4 and values[-1] == X.e:
            break
        values.append(hilbert_function(X, d))
    return values


@pytest.mark.parametrize("family", [random_sets(), degenerate_sets(), TALL],
                         ids=["random", "degenerate", "tall"])
@PROPERTY
@given(data=st.data())
def test_sigma_values_match_per_degree_ranks(family, data):
    # no degree bound: sigma <= e - 1, as a product of e - 1 linear forms
    # separates each point, and the values run through max(nu + 4, sigma)
    X = data.draw(family)
    expected = per_degree_values(X)
    sigma, values = points_conductor_sigma(X)
    assert sigma == expected.index(X.e) <= X.e - 1
    assert list(values) == expected
    assert len(values) == max(nu(X.e, X.r) + 4, sigma) + 1
    assert family is not TALL or sigma > nu(X.e, X.r) + 4


@FAMILIES
@PROPERTY
@given(data=st.data())
def test_generic_checks_match_old_path(family, data):
    X = data.draw(family)
    assert is_generic_position(X).as_dict() == old_generic_position(X)
    for t in range(1, X.e + 1):
        assert is_generic_t_position(X, t).as_dict() == brute_t_position(X, t)


@FAMILIES
@PROPERTY
@given(data=st.data())
def test_conductor_certificate_matches_old_path(family, data):
    X = data.draw(family)
    values = per_degree_values(X)
    cert = points_conductor_certificate(X)
    full = old_generic_position(X)["generic"]
    sub = X.e < 2 or brute_t_position(X, X.e - 1)["generic"]
    assert cert.hypotheses == {"generic_position": full,
                               "generic_position_e_minus_1": sub}
    # the certificates of `points-check`, on the same sets
    assert cert.hypotheses == {
        "generic_position": is_generic_position(X).generic,
        "generic_position_e_minus_1": (
            X.e < 2 or is_generic_t_position(X, X.e - 1).generic)}
    assert cert.oracle == {"sigma": values.index(X.e),
                           "hilbert_values": values}


# PointSet.echelon builds degree d from the border of the degree d-1 pivot
# monomials; the oracle eliminates the full evaluation matrix of degree d.

@st.composite
def planted_sets(draw, field):
    """Up to 12 points of P^2..P^4, some of them planted on a line or a
    conic; over Q the coordinates get denominators, so the integer
    representatives are not the drawn points."""
    r = draw(st.integers(2, 4))
    e = draw(st.integers(3, 12))
    planted = draw(st.sets(st.integers(0, e - 1), min_size=3, max_size=e))
    kind = draw(st.sampled_from(["line", "conic"]))
    coords = []
    for i in range(e):
        s = draw(st.integers(-20, 20))
        if i not in planted:
            coords.append(draw(st.lists(st.integers(-20, 20), min_size=r + 1,
                                        max_size=r + 1)))
        elif kind == "line":
            coords.append([1, s] + [2 * s + 1] * (r - 1))
        else:
            coords.append([1, s, s * s] + [0] * (r - 2))
    if field.p is None:
        scale = draw(st.lists(st.integers(1, 9), min_size=r + 1,
                              max_size=r + 1))
        coords = [[Fraction(c, k) for c, k in zip(pt, scale)]
                  for pt in coords]
    return point_set(r, field, coords, limit=None)


def full_matrix_echelon(X, d):
    """(rows, monos) of `PointSet.echelon`, read off the whole matrix."""
    rows, monos = evaluation_matrix(X, d)
    piv = [c for c, _ in eliminate(rows, X.field.p)]
    return [[row[c] for c in piv] for row in rows], [monos[c] for c in piv]


ECHELON_FIELDS = [PrimeField(7), PrimeField(2 ** 31 - 1), QQ]


@pytest.mark.parametrize("field", ECHELON_FIELDS, ids=repr)
@pytest.mark.parametrize("family", [random_sets, degenerate_sets,
                                    planted_sets])
@PROPERTY
@given(data=st.data())
def test_border_echelon_matches_full_matrix(field, family, data):
    X = data.draw(family(field))
    top = nu(X.e, X.r) + 4
    widths = []

    def counted(rows, p, reduced=False):
        widths.append(len(rows[0]))
        return eliminate(rows, p, reduced)

    with mock.patch.object(points, "eliminate", counted):
        X.echelon(top)
    expected = [full_matrix_echelon(X, d) for d in range(top + 1)]
    for d in range(top + 1):
        assert X.echelon(d) == expected[d], d
        if field.p is None:  # the normalized points' rows give the same pivots
            rows, monos = fraction_evaluation_matrix(X, d)
            piv = eliminate(integer_rows(rows, QQ), None)
            assert [monos[c] for c, _ in piv] == expected[d][1], d
    # the columns eliminated in degree d > 0 are the x_i * m, m a pivot of
    # degree d - 1; degree 0 is the column of ones
    border = [len({m[:i] + (m[i] + 1,) + m[i + 1:] for m in monos
                   for i in range(X.r + 1)}) for _, monos in expected[:-1]]
    assert widths == [1] + border


# PointSet.echelon: one memo per set, shared by every check on that set.

@pytest.mark.parametrize("coords", [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3], [1, 3, 7],
     [1, 5, 2]],
    [[1, i, i * i] for i in range(7)]], ids=["generic", "conic"])
def test_each_degree_is_built_once_per_set(monkeypatch, coords):
    X = PointSet.of(2, QQ, coords)
    built = []

    def counted(rows, p, reduced=False):
        # a degree-d build of X eliminates its e candidate rows once, after
        # degrees 0..d-1 are in the memo
        if not reduced and len(rows) == X.e:
            built.append(len(X._echelons))
        return eliminate(rows, p, reduced)

    monkeypatch.setattr(points, "eliminate", counted)
    is_generic_position(X)
    sigma = points_conductor_certificate(X).oracle["sigma"]
    assert built == list(range(sigma + 1))
    assert sorted(X._echelons) == list(range(sigma + 1))


@FAMILIES
@PROPERTY
@given(data=st.data())
def test_warmed_memo_gives_the_same_certificates(family, data):
    X = data.draw(family)
    warm = PointSet(X.r, X.field, X.points)
    points_conductor_sigma(warm)
    is_generic_t_position(warm, data.draw(st.integers(1, X.e)))

    def certificates(Y):
        out = [is_generic_position(Y).as_dict()]
        out += [is_generic_t_position(Y, t).as_dict()
                for t in range(1, Y.e + 1)]
        out.append(points_conductor_certificate(Y).as_dict())
        return out

    assert certificates(warm) == certificates(X)


def test_memo_leaves_equality_hash_and_repr_alone():
    coords = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    X = PointSet.of(2, QQ, coords)
    before = (hash(X), repr(X))
    points_conductor_certificate(X)
    assert X._echelons
    assert X == PointSet.of(2, QQ, coords)
    assert (hash(X), repr(X)) == before == (hash(PointSet.of(2, QQ, coords)),
                                            repr(PointSet.of(2, QQ, coords)))
    assert "_echelons" not in repr(X)


# Integer rows over Q: the certificates of the Fraction rows, byte for byte.

def all_certificates(X):
    X = PointSet(X.r, X.field, X.points)  # a fresh memo
    out = [is_generic_position(X).as_dict()]
    out += [is_generic_t_position(X, t).as_dict() for t in range(1, X.e + 1)]
    out.append([hilbert_function(X, d) for d in range(nu(X.e, X.r) + 5)])
    out.append(points_conductor_certificate(X).as_dict())
    return canonical_json(out)


@pytest.mark.parametrize("family", [random_sets(QQ), degenerate_sets(QQ)],
                         ids=["random", "degenerate"])
@PROPERTY
@given(data=st.data())
def test_integer_rows_give_the_fraction_rows_certificates(family, data):
    X = data.draw(family)
    scale = data.draw(st.lists(st.integers(1, 9), min_size=X.r + 1,
                               max_size=X.r + 1))
    # points with denominators, so the integer representatives differ
    X = PointSet.of(X.r, QQ, [[Fraction(c, k) for c, k in zip(pt, scale)]
                              for pt in X.points])
    got = all_certificates(X)

    def fraction_rows(Y, n):
        # the engine takes integer rows: clear each Fraction row
        rows, monos = fraction_evaluation_matrix(Y, n)
        return integer_rows(rows, Y.field), monos

    with mock.patch.object(points, "evaluation_matrix", fraction_rows):
        assert all_certificates(X) == got


# The depth-first subset walk against the lex loop, beyond MAX_E, with a
# dependent subset planted at random positions.

@pytest.mark.parametrize("field", [PrimeField(2 ** 31 - 1), QQ], ids=repr)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_subset_walk_matches_lex_loop_beyond_max_e(field, data):
    e = data.draw(st.integers(8, 9))
    r = data.draw(st.integers(2, 3))
    planted = data.draw(st.sets(st.integers(0, e - 1), min_size=3,
                                max_size=e - 2))
    kind = data.draw(st.sampled_from(["line", "conic"]))
    params = data.draw(st.lists(st.integers(-20, 20), min_size=e,
                                max_size=e, unique=True))
    coords = []
    for i, s in enumerate(params):
        if i not in planted:
            coords.append(data.draw(st.lists(st.integers(-20, 20),
                                             min_size=r + 1, max_size=r + 1)))
        elif kind == "line":
            coords.append([1, s] + [2 * s + 1] * (r - 1))
        else:
            coords.append([1, s, s * s] + [0] * (r - 2))
    X = point_set(r, field, coords, limit=None)
    for t in range(2, X.e - 1):
        assert is_generic_t_position(X, t).as_dict() == brute_t_position(X, t)


def test_rank_path_builds_no_fraction(monkeypatch):
    # a generic set over Q: no witness, so no RREF and no Fraction at all
    X = PointSet.of(2, QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1],
                            [Fraction(1, 2), 3, Fraction(-7, 3)],
                            [1, Fraction(5, 4), 2], [3, -1, Fraction(1, 5)]])
    built = []
    make = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert is_generic_position(X).generic
    assert all(is_generic_t_position(X, t).generic for t in range(1, X.e + 1))
    assert points_conductor_certificate(X).verdict == "match"
    monkeypatch.undo()
    assert built == []


# ------------------------------------------------------------------ ideal_basis

def point_prime(pt, field):
    """The ideal of one point of P^r: the forms pt_l * x_i - pt_i * x_l, l
    its first nonzero coordinate."""
    x = [Polynomial.variable(i, len(pt), field) for i in range(len(pt))]
    lead = next(i for i, c in enumerate(pt) if c)
    return Ideal(len(pt), field, [x[i] * pt[lead] - x[lead] * pt[i]
                                  for i in range(len(pt)) if i != lead])


@st.composite
def chart_sets(draw, field):
    """1-8 distinct points of P^2 or P^3 off x_r = 0, with small coordinates
    (collinear and coplanar sets) and large ones."""
    r = draw(st.sampled_from([2, 3]))
    coord = st.integers(0, 3) | st.integers(0, field.p - 1)
    coords = draw(st.lists(st.tuples(*[coord] * r,
                                     st.integers(1, field.p - 1)),
                           min_size=1, max_size=8))
    return point_set(r, field, coords, limit=8)


@pytest.mark.parametrize("field", [PrimeField(7), PrimeField(32003),
                                   PrimeField(2 ** 31 - 1)], ids=repr)
@PROPERTY
@given(data=st.data())
def test_ideal_basis_is_the_intersection_of_point_primes(field, data):
    X = data.draw(chart_sets(field))
    basis = ideal_basis(X)
    assert basis == ideal_intersect(*(point_prime(pt, field)
                                      for pt in X.points)).groebner_basis()
    for g in basis:
        assert list(g.terms_sorted(DEGREVLEX)) == sorted(
            g.terms.items(), key=lambda t: DEGREVLEX.key(t[0]), reverse=True)


@PROPERTY
@given(data=st.data())
def test_ideal_basis_inserts_one_row_per_standard_monomial(data):
    """The walk builds one SparseEchelon and inserts e rows into it, one per
    standard monomial."""
    X = data.draw(chart_sets(PrimeField(32003)))
    built = []

    class Counting(linalg.SparseEchelon):
        def __init__(self, field):
            super().__init__(field)
            self.inserts = 0
            built.append(self)

        def insert(self, vec, level=0):
            self.inserts += 1
            return super().insert(vec, level)

    with mock.patch.object(points, "SparseEchelon", Counting):
        ideal_basis(X)
    assert [ech.inserts for ech in built] == [X.e]
    assert built[0].rank == X.e


def test_ideal_basis_needs_a_prime_field_and_no_point_on_x_r():
    with pytest.raises(ValueError, match="prime field"):
        ideal_basis(PointSet.of(2, QQ, [[1, 2, 3]]))
    with pytest.raises(ValueError, match="x2 = 0"):
        ideal_basis(PointSet.of(2, PrimeField(7), [[1, 2, 3], [1, 1, 0]]))
