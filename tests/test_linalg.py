import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from demuskin.localring import FieldDescriptor, LocalElement, make_field
from demuskin.linalg import (
    Mat,
    Poly,
    PrecisionExhaustedError,
    SingularMatrixError,
    _classify_remaining,
    charpoly,
    deflate,
    det,
    generalized_eigenspace,
    is_upper_triangular,
    iwasawa_decompose,
    kernel_basis_at_threshold,
    mat_inv,
    rank_at_threshold,
    rank_of_columns,
    solve_in_span,
)


@pytest.fixture(scope="module")
def f33():
    return make_field(3, 3, 1, 32)


def int_mat(field, rows):
    return Mat(field, [[field.from_int(c) for c in r] for r in rows])


def poly_eval_matrix(coeffs, M):
    """Value at the matrix M of the coefficient list (c_0,...,c_d)."""
    acc = Mat.identity(M.field, M.n).scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * M + Mat.identity(M.field, M.n).scale(c)
    return acc


def elementary_divisor_valuations(rows, field, tau=None):
    """Row-elimination reference for the rank: Smith-style divisor
    valuations below tau of a rectangular array of LocalElements.  Global
    minimal-valuation pivoting; row clearing followed by dropping the pivot
    row and column reproduces the divisor chain."""
    tau = tau if tau is not None else field.tau
    work = [list(r) for r in rows]
    act_r = list(range(len(work)))
    act_c = list(range(len(work[0]) if work else 0))
    divisors = []
    while act_r and act_c:
        best = None
        for r in act_r:
            for c in act_c:
                v = work[r][c].valuation()
                if v != math.inf and (best is None or v < best[0]):
                    best = (v, r, c)
        if best is None or best[0] >= tau:
            break
        v, pr, pc = best
        divisors.append(v)
        targets = [r for r in act_r if r != pr and not work[r][pc].is_zero()]
        if targets:
            pinv = work[pr][pc].inv()
            for r in targets:
                m = work[r][pc] * pinv
                for c in act_c:
                    work[r][c] = work[r][c] - m * work[pr][c]
        act_r.remove(pr)
        act_c.remove(pc)
    _classify_remaining([work[r][c] for r in act_r for c in act_c], tau, field.N)
    return divisors


def random_gl_matrix(rng, field, n):
    """Random element of 1 + Mat_n(m), always invertible over O_F."""
    pi = field.uniformizer()
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = field.element(0, tuple(rng.randrange(field.pM)
                                       for _ in range(field.e * field.f0)))
            row.append((field.one() if i == j else field.zero()) + pi * x)
        rows.append(row)
    return Mat(field, rows)


def random_unimodular(rng, field, n):
    """Random element of GL_n(O_F): a random integral matrix, redrawn
    until its determinant is a unit."""
    while True:
        g = random_matrix(rng, field, n)
        if det(g).valuation() == 0:
            return g


def random_matrix(rng, field, n):
    return Mat(field, [[field.element(0, tuple(rng.randrange(field.pM)
                                               for _ in range(field.e * field.f0)))
                        for _ in range(n)] for _ in range(n)])


class TestDet:
    def test_identity(self, f33):
        assert det(Mat.identity(f33, 3)) == f33.one()

    def test_diagonal(self, f33):
        z = f33.zeta()
        m = Mat.diag(f33, [z, f33.one(), f33.one()])
        assert det(m) == z

    def test_conjugation_invariance(self, f33):
        rng = random.Random(11)
        for _ in range(10):
            m = random_matrix(rng, f33, 3)
            g = random_gl_matrix(rng, f33, 3)
            lhs = det(g * m * mat_inv(g))
            assert lhs.eq_at(det(m))

    def test_multiplicative(self, f33):
        rng = random.Random(12)
        for _ in range(10):
            a = random_matrix(rng, f33, 2)
            b = random_matrix(rng, f33, 2)
            assert det(a * b).eq_at(det(a) * det(b))


class TestInv:
    def test_identity(self, f33):
        i = Mat.identity(f33, 2)
        assert mat_inv(i) == i

    def test_diag_zeta(self, f33):
        z = f33.zeta()
        m = Mat.diag(f33, [z, f33.one()])
        inv = mat_inv(m)
        assert inv == Mat.diag(f33, [z * z, f33.one()])

    def test_one_plus_m_stays_in_one_plus_m(self, f33):
        rng = random.Random(13)
        for _ in range(5):
            g = random_gl_matrix(rng, f33, 3)
            gi = mat_inv(g)
            assert (g * gi).is_identity()
            from demuskin.localring import reduce_mod_m
            for i in range(3):
                for j in range(3):
                    assert reduce_mod_m(gi.rows[i][j]) == (1 if i == j else 0)

    def test_singular_raises(self, f33):
        z = f33.zero()
        with pytest.raises(SingularMatrixError):
            mat_inv(Mat(f33, [[f33.one(), f33.one()], [f33.one(), f33.one()]]))
        with pytest.raises(SingularMatrixError):
            mat_inv(Mat(f33, [[z, z], [z, z]]))


class TestCharpoly:
    def test_identity_two(self, f33):
        cp = charpoly(Mat.identity(f33, 2))
        assert cp[2] == f33.one()
        assert cp[1] == f33.from_int(-2)
        assert cp[0] == f33.one()

    def test_diag_zeta_one(self, f33):
        z = f33.zeta()
        cp = charpoly(Mat.diag(f33, [z, f33.one()]))
        assert cp[1] == -(f33.one() + z)
        assert cp[0] == z

    def test_cayley_hamilton(self, f33):
        rng = random.Random(14)
        for _ in range(20):
            m = random_matrix(rng, f33, 3)
            res = poly_eval_matrix(charpoly(m), m)
            assert res.min_entry_valuation() >= f33.tau

    def test_root_multiplicity(self, f33):
        z = f33.zeta()
        cp = charpoly(Mat.diag(f33, [z, z, f33.one()]))
        assert deflate(cp, z, f33.tau)[0] == 2
        assert deflate(cp, f33.one(), f33.tau)[0] == 1
        assert deflate(cp, z * z, f33.tau)[0] == 0


class TestRank:
    def test_identity(self, f33):
        assert rank_at_threshold(Mat.identity(f33, 3)) == 3

    def test_zero(self, f33):
        z = f33.zero()
        assert rank_at_threshold(Mat(f33, [[z, z], [z, z]])) == 0

    def test_high_valuation_is_zero(self, f33):
        pi = f33.uniformizer()
        m = Mat.diag(f33, [f33.one(), pi ** (f33.N - 1)])
        assert rank_at_threshold(m) == 1

    def test_exact_valuation_above_tau_counts_as_zero(self, f33):
        pi = f33.uniformizer()
        m = Mat.diag(f33, [f33.one(), pi ** f33.tau])
        assert rank_at_threshold(m) == 1

    def test_degraded_zero_raises(self, f33):
        # deep pole cancellation: the difference is only known to vanish
        # mod pi^(N-10), below tau, so the rank call must abort
        deep = f33.uniformizer().inv() ** 10
        lost = deep - deep
        assert lost.is_zero() and lost.shift == -10
        m = Mat(f33, [[f33.one(), f33.zero()], [f33.zero(), lost]])
        with pytest.raises(PrecisionExhaustedError):
            rank_at_threshold(m)
        with pytest.raises(PrecisionExhaustedError):
            rank_of_columns([(f33.one(), f33.zero()), (f33.zero(), lost)], f33)
        with pytest.raises(PrecisionExhaustedError):
            elementary_divisor_valuations(m.rows, f33)

    @pytest.mark.parametrize("shape", [((1, 1), (0, None)), ((1, 0), (1, None)),
                                       ((1, 1), (None, 0))],
                             ids=["upper", "lower", "swapped"])
    def test_degraded_zero_survives_a_column_update(self, f33, shape):
        # the update lost - m*0 must keep the horizon of lost, which is
        # below tau; a clean zero in its place would decide rank 1
        deep = f33.uniformizer().inv() ** 10
        lost = deep - deep
        m = Mat(f33, [[lost if c is None else f33.from_int(c) for c in r] for r in shape])
        with pytest.raises(PrecisionExhaustedError):
            rank_at_threshold(m)
        with pytest.raises(PrecisionExhaustedError):
            rank_of_columns(list(zip(*m.rows)), f33)
        with pytest.raises(PrecisionExhaustedError):
            kernel_basis_at_threshold(m)

    def test_divisor_valuations(self, f33):
        pi = f33.uniformizer()
        m = Mat.diag(f33, [pi ** 2, f33.one(), pi ** 5])
        assert sorted(elementary_divisor_valuations(m.rows, f33)) == [0, 2, 5]
        assert rank_at_threshold(m) == 3

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rank_counts_the_pivots_of_row_elimination(self, f33, data):
        """For M = g diag(pi^a_i) h with g, h in GL_n(O_F), the rank at tau
        is the number of a_i below tau.  Exponents in [tau, N) and zero
        entries are decided zero divisors."""
        n = data.draw(st.integers(1, 4), label="n")
        exps = data.draw(st.lists(st.one_of(
            st.integers(0, f33.tau - 1), st.integers(f33.tau, f33.N - 1), st.none()),
            min_size=n, max_size=n), label="exponents")
        rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
        pi = f33.uniformizer()
        d = Mat.diag(f33, [f33.zero() if a is None else pi ** a for a in exps])
        m = random_unimodular(rng, f33, n) * d * random_unimodular(rng, f33, n)
        want = sum(a is not None and a < f33.tau for a in exps)
        assert len(elementary_divisor_valuations(m.rows, f33)) == want
        assert rank_at_threshold(m) == want
        k = data.draw(st.integers(1, n), label="columns")
        cols = [tuple(r[j] for r in m.rows) for j in range(k)]
        assert rank_of_columns(cols, f33) == len(
            elementary_divisor_valuations(list(zip(*cols)), f33))


class TestKernel:
    def test_full_kernel(self, f33):
        z = f33.zero()
        kern = kernel_basis_at_threshold(Mat(f33, [[z, z], [z, z]]))
        assert len(kern) == 2

    def test_worked_example(self, f33):
        # M = [[zeta, 1 - zeta], [0, 1]]: eigenvector for zeta is (1, 0),
        # for 1 it is (1, 1) since (M - 1)(1,1)^t = 0
        z = f33.zeta()
        m = Mat(f33, [[z, f33.one() - z], [f33.zero(), f33.one()]])
        k1 = kernel_basis_at_threshold(m - Mat.identity(f33, 2).scale(z))
        assert len(k1) == 1
        v = k1[0]
        assert v[1].valuation() >= f33.tau and v[0].valuation() == 0
        k2 = kernel_basis_at_threshold(m - Mat.identity(f33, 2))
        assert len(k2) == 1
        w = k2[0]
        assert (w[0] - w[1]).valuation() >= f33.tau

    def test_kernel_vectors_annihilate(self, f33):
        rng = random.Random(15)
        pi = f33.uniformizer()
        for _ in range(10):
            g = random_gl_matrix(rng, f33, 3)
            d = Mat.diag(f33, [f33.zeta() - 1, f33.zero(), pi ** 2])
            m = g * d * mat_inv(g)
            kern = kernel_basis_at_threshold(m)
            assert len(kern) == 1
            v = kern[0]
            img = [sum((m.rows[i][j] * v[j] for j in range(3)), f33.zero())
                   for i in range(3)]
            assert all(x.valuation() >= f33.tau for x in img)


class TestSolveInSpan:
    def test_simple(self, f33):
        cols = [(f33.one(), f33.zero()), (f33.one(), f33.one())]
        target = (f33.from_int(3), f33.from_int(2))
        coeffs = solve_in_span(cols, target, f33)
        recon = [sum((cols[k][i] * coeffs[k] for k in range(2)), f33.zero())
                 for i in range(2)]
        assert all((recon[i] - target[i]).valuation() >= f33.tau for i in range(2))


class TestEigenspace:
    def test_identity_full_stage_one(self, f33):
        fil = generalized_eigenspace(Mat.identity(f33, 3), f33.one())
        assert fil.shape == (3,)

    def test_worked_example(self, f33):
        z = f33.zeta()
        m = Mat(f33, [[z, f33.one() - z], [f33.zero(), f33.one()]])
        fil_z = generalized_eigenspace(m, z)
        assert fil_z.shape == (1,)
        fil_1 = generalized_eigenspace(m, f33.one())
        assert fil_1.shape == (1,)

    def test_multiplicity_two_diagonal(self, f33):
        z = f33.zeta()
        m = Mat.diag(f33, [z, z, f33.one()])
        fil = generalized_eigenspace(m, z)
        assert fil.shape == (2,)

    def test_jordan_block_two_stages(self, f33):
        z = f33.zeta()
        pi = f33.uniformizer()
        m = Mat(f33, [[z, pi], [f33.zero(), z]])
        fil = generalized_eigenspace(m, z)
        assert fil.shape == (1, 2)

    def test_non_eigenvalue_empty(self, f33):
        z = f33.zeta()
        fil = generalized_eigenspace(Mat.identity(f33, 2), z)
        assert fil.shape == ()


def assert_iwasawa_factor(e, e0, threshold):
    """E0 is integral with unit determinant and E E0^-1 is upper triangular."""
    assert all(x.valuation() >= 0 for r in e0.rows for x in r)
    assert det(e0).valuation() == 0
    assert is_upper_triangular(e * mat_inv(e0), threshold)


class TestIwasawa:
    def test_identity(self, f33):
        assert iwasawa_decompose(Mat.identity(f33, 2)).is_identity()

    def test_lower_unipotent_integral(self, f33):
        one, zero = f33.one(), f33.zero()
        e = Mat(f33, [[one, zero], [f33.from_int(4), one]])
        assert iwasawa_decompose(e) == e

    def test_pole_in_triangular_part(self, f33):
        pi = f33.uniformizer()
        e = Mat.diag(f33, [pi.inv(), f33.one()])
        e0 = iwasawa_decompose(e)
        assert e0.is_identity()
        assert_iwasawa_factor(e, e0, f33.N)

    def test_reconstruction_random(self, f33):
        rng = random.Random(16)
        pi = f33.uniformizer()
        for _ in range(10):
            g = random_gl_matrix(rng, f33, 3)
            d = Mat.diag(f33, [pi.inv() ** rng.randrange(3), f33.one(),
                               pi ** rng.randrange(2)])
            e = g * d * random_gl_matrix(rng, f33, 3)
            assert_iwasawa_factor(e, iwasawa_decompose(e), 3 * f33.N // 4)

    def test_bottom_row_unit_in_middle_pivot_column(self, f33):
        # row 2 pivots on column 2 but also has a unit in column 1, the
        # pivot column of row 1; clearing row 0 with row 2 after row 1
        # would refill column 1 and leave row 0 without a unit pivot
        one, zero, pi = f33.one(), f33.zero(), f33.uniformizer()
        e = Mat(f33, [[pi, zero, one],
                      [zero, one, zero],
                      [zero, one, one]])
        assert_iwasawa_factor(e, iwasawa_decompose(e), 3 * f33.N // 4)

    def test_singular_rejected(self, f33):
        z = f33.zero()
        with pytest.raises(SingularMatrixError):
            iwasawa_decompose(Mat(f33, [[f33.one(), z], [f33.one(), z]]))


@pytest.fixture
def inv_calls(monkeypatch):
    """List that grows by one per LocalElement.inv call."""
    calls = []
    original = LocalElement.inv

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(LocalElement, "inv", counted)
    return calls


class TestOneInversePerPivot:
    """Each pivot is inverted once, however many entries it clears."""

    def test_kernel(self, f33, inv_calls):
        # rank 3: the last row is the sum of the others
        m = int_mat(f33, [[1, 2, 4, 7], [2, 1, 5, 8],
                          [4, 5, 1, 10], [7, 8, 10, 25]])
        kern = kernel_basis_at_threshold(m)
        assert len(kern) == 1 and len(inv_calls) == 3
        assert all(x.is_zero() for x in _apply(m, kern[0]))

    def test_elementary_divisors(self, f33, inv_calls):
        # det = -36 has pi-valuation 4 (pi^2 = 3 times a unit): divisor
        # valuations 0, 0, 2, 2, all below tau; the last pivot clears nothing
        m = int_mat(f33, [[1, 2, 4, 7], [2, 1, 5, 8],
                          [4, 5, 1, 10], [1, 1, 1, 2]])
        assert rank_at_threshold(m) == 4
        assert len(inv_calls) == 3

    def test_iwasawa(self, f33, inv_calls):
        # three pivot rows clear the rows above them
        e = int_mat(f33, [[2, 1, 1, 1], [1, 2, 1, 1],
                          [1, 1, 2, 1], [1, 1, 1, 2]])
        e0 = iwasawa_decompose(e)
        assert len(inv_calls) == 3
        assert_iwasawa_factor(e, e0, f33.N)


@pytest.fixture
def reduce_calls(monkeypatch):
    """List that grows by one per packed reduction."""
    calls = []
    original = FieldDescriptor._reduce_packed

    def counted(self, z, lay=None):
        calls.append(z)
        return original(self, z, lay)

    monkeypatch.setattr(FieldDescriptor, "_reduce_packed", counted)
    return calls


def unit_matrix(rng, field, n):
    """Random n x n matrix of units at shift 0."""
    p, pM, k = field.p, field.pM, field.e * field.f0
    return Mat(field, [[LocalElement(field, 0, (rng.randrange(1, p) + p * rng.randrange(pM // p),)
                                     + tuple(rng.randrange(pM) for _ in range(k - 1)))
                        for _ in range(n)] for _ in range(n)])


def one_plus_m_matrix(rng, field, n, low, high):
    """Random n x n matrix in 1 + M_n(m): 1 + pi*u on the diagonal, and off
    it units at shifts drawn from [low, high], low >= 1."""
    units = unit_matrix(rng, field, n)
    return Mat(field, [[field.one() + LocalElement(field, 1, x.digits) if i == j
                        else LocalElement(field, rng.randint(low, high), x.digits)
                        for j, x in enumerate(row)] for i, row in enumerate(units.rows)])


class TestOneReductionPerEntry:
    """The products of one matrix entry, Laplace minor or Poly coefficient
    are reduced once per block of e consecutive shifts, not once per product
    or per shift: a product moved up by b < e pi-rows is reduced with b more
    fold rows."""

    def test_dense_product(self, reduce_calls):
        f = make_field(7, 7, 2, 36)
        rng = random.Random(10)
        a, b = unit_matrix(rng, f, 6), unit_matrix(rng, f, 6)
        reduce_calls.clear()
        a * b
        assert len(reduce_calls) == 36  # one per product: 216

    def test_product_in_one_plus_m(self, reduce_calls):
        # an entry's products have shifts 0 and 2..4 on the diagonal and
        # 1..4 off it, all within e = 6 of the entry's lowest shift
        f = make_field(7, 7, 2, 36)
        rng = random.Random(12)
        a, b = one_plus_m_matrix(rng, f, 6, 1, 2), one_plus_m_matrix(rng, f, 6, 1, 2)
        reduce_calls.clear()
        a * b
        assert len(reduce_calls) == 36  # one per shift: 121

    def test_dense_det(self, reduce_calls):
        # one reduction per minor of size 2, 3 and 4 (6 + 4 + 1), as every
        # minor of this matrix is a unit; the 1x1 minors multiply by one,
        # which is a shift
        f = make_field(7, 7, 2, 36)
        m = unit_matrix(random.Random(11), f, 4)
        reduce_calls.clear()
        det(m)
        assert len(reduce_calls) == 11  # one per product: 28


@pytest.fixture
def dot_calls(monkeypatch):
    """List that grows by one per FieldDescriptor.dot call."""
    calls = []
    original = FieldDescriptor.dot

    def counted(self, terms):
        calls.append(terms)
        return original(self, terms)

    monkeypatch.setattr(FieldDescriptor, "dot", counted)
    return calls


class TestOneLaplaceMemo:
    """det and every cofactor come from one memo table: one dot per minor
    of the full expansion, plus, for each row i, the minors of the rows
    above i that only its cofactors need."""

    @pytest.mark.parametrize("n,dots", [(4, 43), (6, 249)])
    def test_dense_inverse(self, dot_calls, n, dots):
        # n = 4: the 15 minors of the full expansion, then 4 + 10 + 14 for
        # rows 1 to 3 (one expansion per cofactor: 127); n = 6: 63, then
        # 6 + 21 + 41 + 56 + 62 (one expansion per cofactor: 1,179)
        f = make_field(7, 7, 2, 36)
        m = unit_matrix(random.Random(n), f, n)
        dot_calls.clear()
        mat_inv(m)
        assert len(dot_calls) == dots

    def test_inverse_after_det_is_not_expanded_again(self, dot_calls):
        # the adjugate seeds its row memos from the table det left on the
        # matrix: 15 + 28 dots, as for mat_inv alone (expanded twice: 58)
        f = make_field(7, 7, 2, 36)
        m = unit_matrix(random.Random(4), f, 4)
        dot_calls.clear()
        det(m)
        mat_inv(m)
        assert len(dot_calls) == 43

    def test_det_after_inverse_is_not_expanded_again(self, dot_calls):
        f = make_field(7, 7, 2, 36)
        m = unit_matrix(random.Random(5), f, 3)
        inv = mat_inv(m)
        dot_calls.clear()
        assert det(m) * det(inv) == f.one()
        assert len(dot_calls) == 7  # det(inv) alone: 3 + 3 + 1 minors


def _apply(m, v):
    return [sum((a * b for a, b in zip(row, v)), m.field.zero()) for row in m.rows]


class TestPoly:
    def test_eval_and_arith(self, f33):
        one = f33.one()
        p = Poly(f33, (one, one))         # 1 + x
        q = Poly(f33, (-one, one))        # x - 1
        prod = p * q
        x = f33.from_int(5)
        assert prod(x) == (x * x - 1)
        assert (p - p).is_zero()
        assert p.degree() == 1

    def test_monomial(self, f33):
        m = Poly.monomial(f33, f33.from_int(2), 3)
        assert m.degree() == 3
        assert m(f33.from_int(2)) == f33.from_int(16)
