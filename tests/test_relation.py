"""The Demuskin relation on points and on polynomial paths.

check_relation and clause b of the verifier evaluate one relation word.
These tests pin what both report: the residual on points against the word
with two inverses per pair, and every clause-b entry of certificates whose
partner slots past M_2 are not the identity.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from demuskin import deformation
from demuskin.localring import NotInvertibleError, make_field
from demuskin.linalg import Mat, Poly, mat_inv
from demuskin.deformation import (
    DeformationParams,
    DeformationPoint,
    check_relation,
    label_for_index,
    sample_point_on_V,
)
from demuskin.paths import PathCertificate, PolynomialPath, verify_certificate

F = make_field(5, 5, 2, 32)
P2 = DeformationParams(F, d=4, n=2)
P3 = DeformationParams(F, d=4, n=3)
SETTINGS = settings(max_examples=15, deadline=None)


def inverse_word_residual(pt):
    """Min entry valuation of M_1^q [M_1,M_2] ... [M_{d+1},M_{d+2}] - I, with
    every commutator built from two matrix inverses."""
    q, mats = pt.params.q, pt.matrices
    word = mats[0] ** (q + 1) * mats[1] * mat_inv(mats[0]) * mat_inv(mats[1])
    for a, b in zip(mats[2::2], mats[3::2]):
        word = word * (a * b * mat_inv(a) * mat_inv(b))
    return (word - Mat.identity(pt.params.field, pt.params.n)).min_entry_valuation()


def sampled(params, seed):
    rng = random.Random(seed)
    labels = [rng.randrange(params.q) for _ in range(params.n)]
    return sample_point_on_V(params, seed=seed, eigenvalues=labels)


def one_plus_m(rng, n):
    pi = F.uniformizer()
    return Mat(F, [[(F.one() if i == j else F.zero())
                    + pi * F.from_int(rng.randrange(F.pM)) for j in range(n)]
                   for i in range(n)])


def with_entry_added(m, i, j, x):
    rows = [list(r) for r in m.rows]
    rows[i][j] = rows[i][j] + x
    return Mat(F, rows)


params_and_seed = st.tuples(st.sampled_from([P2, P3]), st.integers(0, 2 ** 16))


class TestResidualOnPoints:
    @SETTINGS
    @given(params_and_seed)
    def test_sampled_points(self, ps):
        pt = sampled(*ps)
        assert check_relation(pt) == inverse_word_residual(pt)

    @SETTINGS
    @given(params_and_seed, st.integers(0, 1), st.integers(1, 40),
           st.integers(0, 2), st.integers(0, 2))
    def test_perturbed_points(self, ps, slot, k, i, j):
        pt = sampled(*ps)
        n = pt.params.n
        mats = list(pt.matrices)
        mats[slot] = with_entry_added(mats[slot], i % n, j % n, F.uniformizer() ** k)
        bad = DeformationPoint(pt.params, mats)
        assert check_relation(bad) == inverse_word_residual(bad)

    @SETTINGS
    @given(params_and_seed, st.integers(1, 2))
    def test_points_with_a_partner_pair(self, ps, pair):
        pt = sampled(*ps)
        rng = random.Random(ps[1])
        mats = list(pt.matrices)
        mats[2 * pair] = one_plus_m(rng, pt.params.n)
        mats[2 * pair + 1] = one_plus_m(rng, pt.params.n)
        other = DeformationPoint(pt.params, mats)
        assert check_relation(other) == inverse_word_residual(other)

    def test_identity_partners_take_no_inverse(self, monkeypatch):
        pt = sampled(P3, 7)
        calls = []
        original = deformation.mat_inv

        def counted(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(deformation, "mat_inv", counted)
        assert check_relation(pt) == inverse_word_residual(pt)
        assert calls == []


class TestPolyInverse:
    def test_unit_constant(self):
        u = F.zeta() + F.uniformizer()
        p = Poly(F, (u, F.uniformizer() ** F.tau))
        assert p.inv() == Poly.const(F, u.inv())

    def test_t_dependent_raises(self):
        with pytest.raises(NotInvertibleError):
            Poly(F, (F.one(), F.uniformizer())).inv()

    def test_non_unit_constant_raises(self):
        with pytest.raises(NotInvertibleError):
            Poly.const(F, F.uniformizer()).inv()

    def test_mat_inv_of_unipotent_poly_matrix(self):
        one, zero = Poly.const(F, F.one()), Poly.const(F, F.zero())
        s = Mat(F, [[one, Poly(F, (F.zero(), F.uniformizer()))], [zero, one]])
        assert s * mat_inv(s) == Mat(F, [[one, zero], [zero, one]])


# --- certificates whose partner slots past M_2 are not the identity -------------


ONE, ZERO, PI = F.one(), F.zero(), F.uniformizer()
IDENT = ((ONE,), (ZERO,)), ((ZERO,), (ONE,))


def general_partner_certificate(slot3, slot4):
    """One polynomial segment on (p, q, f0, n, N, d) = (5, 5, 2, 2, 32, 4):
    M_1 = diag(zeta, 1) and M_2, M_5, M_6 the identity, all constant, and
    slots 3 and 4 given as 2 x 2 coefficient rows in t.  It runs from its
    t = 1 point to its t = 0 point with label 1."""
    def slot(rows):
        return tuple(tuple(Poly(F, coeffs) for coeffs in row) for row in rows)

    m1 = ((F.zeta(),), (ZERO,)), ((ZERO,), (ONE,))
    seg = PolynomialPath((slot(m1), slot(IDENT), slot(slot3), slot(slot4),
                          slot(IDENT), slot(IDENT)))
    return PathCertificate(seg.eval(P2, ONE), (seg,), seg.eval(P2, ZERO),
                           label_for_index(F, 1))


UPPER = ((ONE,), (PI,)), ((ZERO,), (ONE,))
UPPER_T = ((ONE,), (ZERO, PI)), ((ZERO,), (ONE,))
LOWER = ((ONE,), (ZERO,)), ((PI,), (ONE,))
GENERAL_PARTNER = {
    "unipotent": (UPPER_T, IDENT),
    "det-varies": ((((ONE, PI), (ZERO,)), ((ZERO,), (ONE,))), IDENT),
    "constant-pair": (UPPER, LOWER),
    "monomial-pair": (UPPER_T, LOWER),
}

RESIDUAL_2 = "relation holds identically in t (residual 2)"
CLAUSE_B = {
    "unipotent": (True, [
        (None, True, "start relation residual inf"),
        (0, True, "entry degrees within cap 2"),
        (0, True, "coefficients integral"),
        (0, True, "relation holds identically in t (residual inf)")]),
    "det-varies": (False, [
        (None, True, "start relation residual inf"),
        (0, True, "entry degrees within cap 2"),
        (0, True, "coefficients integral"),
        (0, False, "slot determinant varies in t; no polynomial inverse")]),
    "constant-pair": (False, [
        (None, False, "start relation residual 2"),
        (0, True, "entry degrees within cap 2"),
        (0, True, "coefficients integral"),
        (0, False, RESIDUAL_2)]),
    "monomial-pair": (False, [
        (None, False, "start relation residual 2"),
        (0, True, "entry degrees within cap 2"),
        (0, True, "coefficients integral"),
        (0, False, RESIDUAL_2)]),
}


@pytest.mark.parametrize("name", sorted(GENERAL_PARTNER))
def test_general_partner_clause_b(name):
    report = verify_certificate(general_partner_certificate(*GENERAL_PARTNER[name]))
    passed, entries = CLAUSE_B[name]
    assert report.passed is passed
    assert [(e.segment, e.ok, e.detail) for e in report.entries
            if e.clause == "b"] == entries
