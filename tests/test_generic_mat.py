"""Properties of Mat over both entry rings: LocalElements and Polys."""

from hypothesis import given, settings, strategies as st

from demuskin.localring import make_field
from demuskin.linalg import Mat, Poly, _det_expand, adjugate, charpoly, det

F = make_field(5, 5, 1, 16)
SETTINGS = settings(max_examples=40, deadline=None)

small_int = st.integers(min_value=-4, max_value=4)


def int_mats(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)


def poly_mats(n):
    coeffs = st.lists(small_int, min_size=1, max_size=3)
    return st.lists(st.lists(coeffs, min_size=n, max_size=n), min_size=n, max_size=n)


def local_mat(rows):
    return Mat(F, [[F.from_int(c) for c in r] for r in rows])


def poly_mat(rows):
    return Mat(F, [[Poly(F, [F.from_int(c) for c in p]) for p in r] for r in rows])


matrices = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.one_of(int_mats(n).map(local_mat), poly_mats(n).map(poly_mat)))


@SETTINGS
@given(st.integers(min_value=1, max_value=3).flatmap(poly_mats), small_int)
def test_poly_det_commutes_with_evaluation(rows, t0):
    m = poly_mat(rows)
    t = F.from_int(t0)
    at_t = Mat(F, [[p(t) for p in r] for r in m.rows])
    assert det(m)(t) == det(at_t)


@SETTINGS
@given(st.integers(min_value=1, max_value=4).flatmap(int_mats))
def test_charpoly_matches_direct_poly_expansion(rows):
    m = local_mat(rows)
    one, zero = F.one(), F.zero()
    direct = _det_expand(
        [[Poly(F, (-m.rows[i][j], one) if i == j else (-m.rows[i][j],))
          for j in range(m.n)] for i in range(m.n)],
        Poly.const(F, one), Poly.const(F, zero))
    want = list(direct.coeffs) + [zero] * (m.n + 1 - len(direct.coeffs))
    assert list(charpoly(m)) == want[: m.n + 1]


@SETTINGS
@given(matrices)
def test_adjugate_times_matrix_is_det_identity(m):
    d_i = Mat.identity(F, m.n).scale(det(m))
    assert m * adjugate(m) == d_i
    assert adjugate(m) * m == d_i


@SETTINGS
@given(matrices)
def test_power_equals_repeated_product(m):
    acc = Mat.identity(F, m.n)
    for k in range(8):
        assert m ** k == acc
        acc = acc * m
