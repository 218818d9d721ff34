"""Properties of Mat over both entry rings: LocalElements and Polys."""

from hypothesis import example, given, settings, strategies as st

from demuskin.localring import make_field
from demuskin.linalg import Mat, Poly, _det_minor, adjugate, charpoly, det

F = make_field(5, 5, 1, 16)
SETTINGS = settings(max_examples=40, deadline=None)

small_int = st.integers(min_value=-4, max_value=4)


def det_reference(rows, one, zero):
    """det by a fresh Laplace expansion of its own memo table."""
    return _det_minor(rows, 0, (1 << len(rows)) - 1, zero, {0: one})


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
    direct = det_reference(
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


def cofactor_reference(m):
    """adjugate(m) by one Laplace expansion of each cofactor's submatrix."""
    n = m.n
    one, zero = m._ring()
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[m.rows[r][c] for c in range(n) if c != j]
                   for r in range(n) if r != i]
            cof = det_reference(sub, one, zero)
            out[j][i] = -cof if (i + j) % 2 else cof
    return out


def layout(x):
    """(shift, digits) of each coefficient: equality digit for digit, the
    guard band included, not only at N."""
    return [(c.shift, c.digits) for c in (x.coeffs if isinstance(x, Poly) else (x,))]


PI = F.uniformizer()
units = st.integers(min_value=1, max_value=5 ** 16 - 1).filter(lambda k: k % 5)


@st.composite
def entry(draw):
    """A small integer, a unit times pi^0..3, zero (which Laplace skips), a
    degraded zero pi^-k - pi^-k, or a unit times pi^-k, which puts a pole
    in the determinant."""
    kind = draw(st.sampled_from(["int", "unit", "zero", "zero", "lost", "pole"]))
    if kind == "int":
        return F.from_int(draw(small_int))
    if kind == "zero":
        return F.zero()
    if kind == "lost":
        deep = PI ** -draw(st.integers(min_value=1, max_value=F.N))
        return deep - deep
    k = draw(st.integers(min_value=0, max_value=3))
    return F.from_int(draw(units)) * PI ** (-k if kind == "pole" else k)


@st.composite
def entry_mat(draw):
    """An n x n Mat, n <= 5, whose entries are `entry`s or Polys of one to
    three of them."""
    n = draw(st.integers(min_value=1, max_value=5))
    cell = entry()
    if draw(st.booleans()):
        cell = st.lists(cell, min_size=1, max_size=3).map(lambda cs: Poly(F, cs))
    return Mat(F, draw(st.lists(st.lists(cell, min_size=n, max_size=n),
                                min_size=n, max_size=n)))


LOST = PI ** -3 - PI ** -3
SPARSE = local_mat([[1, 0, 0, 2, 0], [0, 3, 0, 0, 1], [4, 0, 1, 0, 0],
                    [0, 0, 2, 1, 0], [0, 1, 0, 0, 3]])


@settings(max_examples=60, deadline=None)
@given(entry_mat())
@example(SPARSE)
@example(Mat(F, [[F.one(), LOST, PI], [LOST, F.one(), F.zero()], [PI, PI, LOST]]))
@example(Mat(F, [[PI.inv(), F.one()], [F.one(), PI.inv()]]))
@example(Mat(F, [[Poly(F, (F.one(), PI.inv())), Poly.const(F, LOST)],
                 [Poly.const(F, F.zero()), Poly(F, (PI, F.zero(), F.one()))]]))
def test_adjugate_is_the_per_cofactor_expansion_digit_for_digit(m):
    adj = adjugate(m)
    want = cofactor_reference(m)
    assert [[layout(x) for x in r] for r in adj.rows] == \
        [[layout(x) for x in r] for r in want]
    assert layout(det(m)) == layout(det_reference(m.rows, *m._ring()))
