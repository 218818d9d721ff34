import math

import pytest

from demuskin.localring import enumerate_mu_q, make_field
from demuskin.linalg import Mat, PrecisionExhaustedError, det, mat_inv, rank_at_threshold
from demuskin.deformation import (
    DeformationParams,
    DeformationPoint,
    PreconditionError,
    RelationViolatedError,
    canonical_point,
    check_relation,
    conjugate_point,
    det_component,
    detect_eigenvalues,
    is_in_V,
    sample_point_on_V,
)


@pytest.fixture(scope="module")
def p332():
    return DeformationParams(make_field(3, 3, 2, 32), d=2, n=2)


@pytest.fixture(scope="module")
def p554():
    return DeformationParams(make_field(5, 5, 2, 32), d=4, n=2)


@pytest.fixture(scope="module")
def p554n3():
    return DeformationParams(make_field(5, 5, 2, 32), d=4, n=3)


def upper_triangular_fixture(params):
    """M_1 = [[zeta, 1-zeta],[0,1]] with identity partners; conjugate to
    diag(zeta, 1) by a unipotent matrix, so the relation holds exactly."""
    f = params.field
    z = f.zeta()
    m1 = Mat(f, [[z, f.one() - z], [f.zero(), f.one()]])
    mats = [m1] + [Mat.identity(f, 2) for _ in range(params.tuple_length - 1)]
    return DeformationPoint(params, mats)


def jordan_fixture(params):
    """Non-semisimple relation point: M_1 = [[zeta, pi],[0, zeta]] and
    M_2 = diag(q+1, 1); then M_2 M_1 M_2^-1 = M_1^(q+1) exactly."""
    f = params.field
    z, pi = f.zeta(), f.uniformizer()
    m1 = Mat(f, [[z, pi], [f.zero(), z]])
    m2 = Mat.diag(f, [f.from_int(params.q + 1), f.one()])
    mats = [m1, m2] + [Mat.identity(f, 2) for _ in range(params.tuple_length - 2)]
    return DeformationPoint(params, mats)


class TestParams:
    def test_tuple_length(self, p332):
        assert p332.tuple_length == 4

    def test_q1_tuple_length(self):
        params = DeformationParams(make_field(5, 1, 1, 16), d=3, n=2)
        assert params.tuple_length == 4  # d + 1

    def test_d_below_phi_q_rejected(self):
        with pytest.raises(PreconditionError):
            DeformationParams(make_field(5, 5, 1, 32), d=2, n=2)

    def test_odd_d_rejected(self, p332):
        with pytest.raises(PreconditionError):
            DeformationParams(p332.field, d=3, n=2)

    def test_path_assumption(self, p554n3):
        assert p554n3.path_assumption
        assert not DeformationParams(make_field(3, 3, 1, 32), d=2, n=3).path_assumption


class TestCheckRelation:
    def test_identity_tuple(self, p332):
        f = p332.field
        pt = DeformationPoint(p332, [Mat.identity(f, 2)] * 4)
        assert check_relation(pt) == math.inf

    def test_canonical_points_all_labels(self, p332, p554, p554n3):
        for params in (p332, p554, p554n3):
            for k in range(params.q):
                assert check_relation(canonical_point(params, k)) == math.inf

    def test_upper_triangular_fixture(self, p332):
        pt = upper_triangular_fixture(p332)
        assert check_relation(pt) == math.inf

    def test_jordan_fixture(self, p332, p554):
        for params in (p332, p554):
            assert check_relation(jordan_fixture(params)) == math.inf

    def test_violated_relation_detected(self, p332):
        f = p332.field
        z = f.zeta()
        m1 = Mat.diag(f, [z, f.one()])
        bad = Mat(f, [[f.one(), f.uniformizer()], [f.zero(), f.one()]])
        pt = DeformationPoint(p332, [m1, bad, Mat.identity(f, 2), Mat.identity(f, 2)])
        assert check_relation(pt) < f.tau

    def test_q1_always_passes(self):
        params = DeformationParams(make_field(5, 1, 1, 16), d=3, n=2)
        pt = sample_point_on_V(params, seed=0, eigenvalues=[0, 0])
        assert check_relation(pt) == math.inf

    def test_non_congruent_matrix_rejected(self, p332):
        f = p332.field
        bad = Mat.diag(f, [f.from_int(2), f.one()])
        with pytest.raises(PreconditionError):
            DeformationPoint(p332, [bad] + [Mat.identity(f, 2)] * 3)


class TestDetComponent:
    def test_identity_label_zero(self, p332):
        f = p332.field
        pt = DeformationPoint(p332, [Mat.identity(f, 2)] * 4)
        assert det_component(pt).index == 0

    def test_canonical_roundtrip(self, p554):
        for k in range(5):
            assert det_component(canonical_point(p554, k)).index == k

    def test_upper_triangular_label_one(self, p332):
        pt = upper_triangular_fixture(p332)
        lab = det_component(pt)
        assert lab.index == 1
        assert enumerate_mu_q(p332.field)[lab.index] == p332.field.zeta()

    def test_conjugation_invariance(self, p554):
        import random
        from demuskin.deformation import _random_gl_one_plus_m
        rng = random.Random(21)
        pt = sample_point_on_V(p554, seed=5, eigenvalues=[1, 3])
        lab = det_component(pt)
        for _ in range(5):
            g = _random_gl_one_plus_m(rng, p554.field, 2)
            assert det_component(conjugate_point(pt, g)) == lab

    def test_conjugation_keeps_identity_slots(self, p554, monkeypatch):
        # g I g^-1 = I: only M_1 and M_2 are conjugated, two products each
        import random
        from demuskin.deformation import _random_gl_one_plus_m
        pt = sample_point_on_V(p554, seed=5, eigenvalues=[1, 3])
        g = _random_gl_one_plus_m(random.Random(22), p554.field, 2)
        assert pt.params.tuple_length == 6 and is_in_V(pt)
        calls = []
        original = Mat.__mul__
        monkeypatch.setattr(Mat, "__mul__", lambda a, b: calls.append(1) or original(a, b))
        out = conjugate_point(pt, g)
        assert len(calls) == 4
        assert all(m is ident for m, ident in zip(out.matrices[2:], pt.matrices[2:]))
        assert out.matrices[0] == g * pt.matrices[0] * mat_inv(g)

    def test_violated_point_raises(self, p332):
        f = p332.field
        bad = Mat(f, [[f.one(), f.uniformizer()], [f.zero(), f.one()]])
        z = f.zeta()
        pt = DeformationPoint(p332, [Mat.diag(f, [z, f.one()]), bad,
                                     Mat.identity(f, 2), Mat.identity(f, 2)])
        with pytest.raises(RelationViolatedError):
            det_component(pt)


def one_by_one_point(params, x):
    """The n = 1 point with M_1 = (x) and identity partners; its relation
    holds exactly, as 1 x 1 matrices commute."""
    f = params.field
    return DeformationPoint(params, [Mat(f, [[x]])]
                            + [Mat.identity(f, 1)] * (params.tuple_length - 1))


class TestLabelThreshold:
    @pytest.mark.parametrize("s", [13, 21, 29])
    def test_label_where_v_q_reaches_tau(self, s):
        """On (3,27,1,72), v(q) = 54 = tau and r = 9: det(M_1) =
        zeta^12 (1 + pi^s y) with s > r is labelled 12."""
        f = make_field(3, 27, 1, 72)
        params = DeformationParams(f, d=18, n=1)
        y = f.from_int(2) + f.uniformizer()
        x = enumerate_mu_q(f)[12] * (1 + f.uniformizer() ** s * y)
        assert det_component(one_by_one_point(params, x)).index == 12

    def test_root_at_tau_without_a_match_exhausts_precision(self):
        """On (3,3,2,32) with tau = 3, x = 1 + pi a for the unramified
        generator a has v(x^3 - 1) = 3, but lies at valuation 1 = r from
        every cube root of unity: the label is undecided."""
        f = make_field(3, 3, 2, 32, tau=3)
        params = DeformationParams(f, d=2, n=1)
        a = f.element(0, (0, 1) + (0,) * (f.e * f.f0 - 2))
        x = 1 + f.uniformizer() * a
        assert (x ** 3 - 1).valuation() == 3
        with pytest.raises(PrecisionExhaustedError):
            det_component(one_by_one_point(params, x))

    def test_perturbed_zeta_violates_the_relation(self):
        """zeta + pi^10 on (3,3,1,32): with identity partners the relation of
        a 1 x 1 point is x^3 = 1, and v(x^3 - 1) = 12 < tau = 24."""
        f = make_field(3, 3, 1, 32)
        params = DeformationParams(f, d=2, n=1)
        with pytest.raises(RelationViolatedError):
            det_component(one_by_one_point(params, f.zeta() + f.uniformizer() ** 10))


class TestCanonicalAndV:
    def test_canonical_in_V(self, p554):
        assert is_in_V(canonical_point(p554, 2))

    def test_perturbed_third_matrix_leaves_V(self, p332):
        f = p332.field
        pt = canonical_point(p332, 1)
        bumped = Mat(f, [[f.one(), f.uniformizer()], [f.zero(), f.one()]])
        alt = DeformationPoint(p332, [pt.matrices[0], pt.matrices[1],
                                      bumped, pt.matrices[3]])
        assert not is_in_V(alt)

    def test_reduced_relation_on_V(self, p554):
        # on V the commutators past the first vanish, so the two-matrix
        # word M_2 M_1 M_2^-1 - M_1^(q+1) has the same residual
        from demuskin.linalg import mat_inv
        pt = sample_point_on_V(p554, seed=9, eigenvalues=[2, 2])
        m1, m2 = pt.matrices[0], pt.matrices[1]
        two_word = m2 * m1 * mat_inv(m2) - m1 ** (p554.q + 1)
        assert two_word.min_entry_valuation() == math.inf
        assert check_relation(pt) == math.inf


class TestSampler:
    def test_relation_exact_for_many_seeds(self, p332, p554):
        for params, eigs in ((p332, [0, 1]), (p332, [1, 1]), (p554, [2, 4])):
            for seed in range(25):
                pt = sample_point_on_V(params, seed, eigs)
                assert check_relation(pt) == math.inf
                assert is_in_V(pt)

    def test_determinism(self, p554):
        a = sample_point_on_V(p554, seed=7, eigenvalues=[1, 2])
        b = sample_point_on_V(p554, seed=7, eigenvalues=[1, 2])
        assert a == b

    def test_label_is_sum_of_eigenvalue_indices(self, p554):
        pt = sample_point_on_V(p554, seed=3, eigenvalues=[2, 4])
        assert det_component(pt).index == (2 + 4) % 5

    def test_identity_degenerate(self, p332):
        pt = sample_point_on_V(p332, seed=0, eigenvalues=[0, 0])
        assert det_component(pt).index == 0

    def test_p_not_greater_than_n_rejected(self):
        params = DeformationParams(make_field(3, 3, 1, 32), d=2, n=3)
        with pytest.raises(PreconditionError):
            sample_point_on_V(params, seed=0, eigenvalues=[0, 0, 0])

    def test_n3_samples(self, p554n3):
        for seed in range(10):
            pt = sample_point_on_V(p554n3, seed, eigenvalues=[1, 1, 4])
            assert check_relation(pt) == math.inf


def eigenvalues_by_rank_drop(m1):
    """Label indices where M_1 - lambda drops rank at threshold."""
    f = m1.field
    return [j for j, lam in enumerate(enumerate_mu_q(f))
            if rank_at_threshold(m1 - Mat.identity(f, m1.n).scale(lam)) < m1.n]


class TestEigenvalueDetection:
    def test_samples_spectrum_in_mu_q(self, p554, p554n3):
        for params, eigs in ((p554, [1, 3]), (p554, [2, 2]), (p554n3, [0, 2, 2]),
                             (p554n3, [3, 3, 3])):
            for seed in range(10):
                pt = sample_point_on_V(params, seed, eigs)
                mults = detect_eigenvalues(pt.matrices[0])
                assert sum(mults.values()) == params.n
                expect = {k: eigs.count(k) for k in set(eigs)}
                assert mults == expect

    def test_rank_drop_agrees(self, p554):
        for seed in range(5):
            pt = sample_point_on_V(p554, seed, eigenvalues=[1, 2])
            mults = detect_eigenvalues(pt.matrices[0])
            assert sorted(mults) == eigenvalues_by_rank_drop(pt.matrices[0])

    def test_jordan_fixture_multiplicity(self, p332):
        pt = jordan_fixture(p332)
        assert detect_eigenvalues(pt.matrices[0]) == {1: 2}

