import math
import random

import pytest

from demuskin.localring import LocalElement, make_field
from demuskin.linalg import (
    _invert_upper_triangular,
    Mat,
    Poly,
    PrecisionExhaustedError,
    SingularMatrixError,
    charpoly,
    det,
    elementary_divisor_valuations,
    generalized_eigenspace,
    is_upper_triangular,
    iwasawa_decompose,
    kernel_basis_at_threshold,
    mat_inv,
    needs_zeta_q_plus_1,
    poly_eval_matrix,
    rank_at_threshold,
    root_multiplicity,
    solve_in_span,
    zeta_q_plus_1_inertia,
)


@pytest.fixture(scope="module")
def f33():
    return make_field(3, 3, 1, 32)


@pytest.fixture(scope="module")
def f33w():
    # wide enough for 4th roots of unity, as the path pipeline needs
    return make_field(3, 3, 2, 32)


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
        assert root_multiplicity(cp, z, f33.tau) == 2
        assert root_multiplicity(cp, f33.one(), f33.tau) == 1
        assert root_multiplicity(cp, z * z, f33.tau) == 0


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

    def test_divisor_valuations(self, f33):
        pi = f33.uniformizer()
        m = Mat.diag(f33, [pi ** 2, f33.one(), pi ** 5])
        assert sorted(elementary_divisor_valuations(m.rows, f33)) == [0, 2, 5]


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


class TestIwasawa:
    def test_identity(self, f33):
        nup, e0 = iwasawa_decompose(Mat.identity(f33, 2))
        assert nup.is_identity() and e0.is_identity()

    def test_lower_unipotent_integral(self, f33):
        one, zero = f33.one(), f33.zero()
        e = Mat(f33, [[one, zero], [f33.from_int(4), one]])
        nup, e0 = iwasawa_decompose(e)
        assert nup.is_identity()
        assert e0 == e

    def test_pole_in_triangular_part(self, f33):
        pi = f33.uniformizer()
        e = Mat.diag(f33, [pi.inv(), f33.one()])
        nup, e0 = iwasawa_decompose(e)
        assert e0.is_identity()
        assert nup == e

    def test_reconstruction_random(self, f33):
        rng = random.Random(16)
        pi = f33.uniformizer()
        for _ in range(10):
            g = random_gl_matrix(rng, f33, 3)
            d = Mat.diag(f33, [pi.inv() ** rng.randrange(3), f33.one(),
                               pi ** rng.randrange(2)])
            e = g * d * random_gl_matrix(rng, f33, 3)
            nup, e0 = iwasawa_decompose(e)
            assert is_upper_triangular(nup, threshold=3 * f33.N // 4)
            assert det(e0).valuation() == 0
            assert all(x.valuation() >= 0 for r in e0.rows for x in r)
            assert (nup * e0).eq_at(e, 3 * f33.N // 4)

    def test_bottom_row_unit_in_middle_pivot_column(self, f33):
        # row 2 pivots on column 2 but also has a unit in column 1, the
        # pivot column of row 1; clearing row 0 with row 2 after row 1
        # would refill column 1 and leave row 0 without a unit pivot
        one, zero, pi = f33.one(), f33.zero(), f33.uniformizer()
        e = Mat(f33, [[pi, zero, one],
                      [zero, one, zero],
                      [zero, one, one]])
        nup, e0 = iwasawa_decompose(e)
        assert is_upper_triangular(nup, threshold=3 * f33.N // 4)
        assert det(e0).valuation() == 0
        assert all(x.valuation() >= 0 for r in e0.rows for x in r)
        assert (nup * e0).eq_at(e, 3 * f33.N // 4)

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
    """Each pivot or diagonal entry is inverted once, however many entries
    it clears."""

    def test_kernel(self, f33, inv_calls):
        # rank 3: the last row is the sum of the others
        m = Mat.from_int_rows(f33, [[1, 2, 4, 7], [2, 1, 5, 8],
                                    [4, 5, 1, 10], [7, 8, 10, 25]])
        kern = kernel_basis_at_threshold(m)
        assert len(kern) == 1 and len(inv_calls) == 3
        assert all(x.is_zero() for x in _apply(m, kern[0]))

    def test_elementary_divisors(self, f33, inv_calls):
        m = Mat.from_int_rows(f33, [[1, 2, 4, 7], [2, 1, 5, 8],
                                    [4, 5, 1, 10], [1, 1, 1, 2]])
        # det = -36 has pi-valuation 4 (pi^2 = 3 times a unit)
        assert elementary_divisor_valuations(m.rows, f33) == [0, 0, 2, 2]
        assert len(inv_calls) == 3

    def test_iwasawa(self, f33, inv_calls):
        # three pivot rows clear the rows above them; the unitriangular
        # left factor then inverts its four diagonal entries
        e = Mat.from_int_rows(f33, [[2, 1, 1, 1], [1, 2, 1, 1],
                                    [1, 1, 2, 1], [1, 1, 1, 2]])
        nup, e0 = iwasawa_decompose(e)
        assert len(inv_calls) == 3 + 4
        assert (nup * e0).eq_at(e, f33.N)

    def test_upper_triangular_inverse(self, f33, inv_calls):
        u = Mat.from_int_rows(f33, [[2, 1, 1, 1], [0, 2, 1, 1],
                                    [0, 0, 2, 1], [0, 0, 0, 2]])
        x = _invert_upper_triangular(u)
        assert len(inv_calls) == 4
        assert (u * x).is_identity()


def _apply(m, v):
    return [sum((a * b for a, b in zip(row, v)), m.field.zero()) for row in m.rows]


class TestFieldPredicates:
    def test_inertia_orders(self):
        assert zeta_q_plus_1_inertia(3, 3) == 2   # 4th roots need F_9
        assert zeta_q_plus_1_inertia(5, 5) == 2   # 6th roots need F_25
        assert zeta_q_plus_1_inertia(7, 7) == 2   # 8th roots need F_49

    def test_needs_predicate(self, f33, f33w):
        assert needs_zeta_q_plus_1(f33)
        assert not needs_zeta_q_plus_1(f33w)


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
