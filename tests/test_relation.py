"""The Demuskin relation on points and on polynomial paths.

check_relation and clause b of the verifier read one relation word W in a
cleared form that takes no inverse: with C the product of the partner
commutators and D the product of the partner determinants, it is
(W - I) C^-1 M_2 M_1 times D.  On points C^-1 M_2 M_1 lies in GL_n(O_F) and
D is a unit, so its valuation is that of W - I; over polynomials in t it
vanishes exactly when W - I does.  These tests pin the residual on points
against the word with two inverses per pair, that no inverse is taken, that
a path's residual bounds the residual of each of its points, and every
clause-b entry of certificates whose partner slots past M_2 are not the
identity.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from demuskin import deformation
from demuskin.localring import LocalElement, make_field
from demuskin.linalg import Mat, Poly, mat_inv
from demuskin.deformation import (
    DeformationParams,
    DeformationPoint,
    check_relation,
    label_for_index,
    relation_residual,
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
    @given(params_and_seed, st.sampled_from([(1,), (2,), (1, 2)]),
           st.integers(0, 1), st.integers(1, 40))
    def test_points_with_a_partner_pair(self, ps, pairs, slot, k):
        """One or both partner pairs random, and an entry of M_1 or M_2
        moved by pi^k, so that M_1^q [M_1,M_2] may differ from I too."""
        pt = sampled(*ps)
        rng = random.Random(ps[1])
        mats = list(pt.matrices)
        mats[slot] = with_entry_added(mats[slot], 0, 1, F.uniformizer() ** k)
        for pair in pairs:
            mats[2 * pair] = one_plus_m(rng, pt.params.n)
            mats[2 * pair + 1] = one_plus_m(rng, pt.params.n)
        other = DeformationPoint(pt.params, mats)
        assert check_relation(other) == inverse_word_residual(other)

    def test_identity_partners_take_no_inverse(self, monkeypatch):
        pt = sampled(P3, 7)
        calls = []
        for name in ("mat_inv", "adjugate"):
            original = getattr(deformation, name)
            monkeypatch.setattr(deformation, name, lambda m, _name=name, _fn=original:
                                calls.append(_name) or _fn(m))
        assert check_relation(pt) == inverse_word_residual(pt)
        assert calls == []


def count_inverses(monkeypatch):
    """List that grows by one per LocalElement.inv call."""
    calls = []
    original = LocalElement.inv

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(LocalElement, "inv", counted)
    return calls


def test_point_with_two_partner_pairs_takes_no_inverse(monkeypatch):
    pt = sampled(P2, 3)
    rng = random.Random(3)
    mats = list(pt.matrices[:2]) + [one_plus_m(rng, 2) for _ in range(4)]
    other = DeformationPoint(P2, mats)
    want = inverse_word_residual(other)
    calls = count_inverses(monkeypatch)
    assert check_relation(other) == want
    assert calls == []


def linear_slot(rng, n):
    """Slot whose entries are delta_ij + pi (a + b t) for random digits a, b."""
    pi = F.uniformizer()
    return tuple(tuple(Poly(F, ((F.one() if i == j else F.zero())
                                + pi * F.from_int(rng.randrange(F.pM)),
                                pi * F.from_int(rng.randrange(F.pM))))
                       for j in range(n)) for i in range(n))


@SETTINGS
@given(params_and_seed, st.sampled_from([(1,), (2,), (1, 2)]))
def test_path_residual_bounds_the_residual_at_each_point(ps, pairs):
    pt = sampled(*ps)
    params, n = pt.params, pt.params.n
    rng = random.Random(ps[1])
    slots = [tuple(tuple(Poly.const(F, x) for x in row) for row in m.rows)
             for m in pt.matrices]
    for k in pairs:
        slots[2 * k] = linear_slot(rng, n)
        slots[2 * k + 1] = linear_slot(rng, n)
    seg = PolynomialPath(tuple(slots))
    residual = relation_residual(params, [Mat(F, s) for s in slots])
    for t0 in (F.zero(), F.one(), F.uniformizer()):
        assert check_relation(seg.eval(params, t0)) >= residual


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


def test_partner_pair_that_undoes_the_first_commutator():
    """M_1 = diag(zeta, 1), M_2(t) = I + pi t E_01, M_3 = M_1 and
    M_4 = M_2^-1: the relation holds identically in t, and at each point,
    although neither commutator is I, so the word's order and the side on
    which the partners are cleared decide the residual."""
    def slot(rows):
        return tuple(tuple(Poly(F, coeffs) for coeffs in row) for row in rows)

    m1 = slot((((F.zeta(),), (ZERO,)), ((ZERO,), (ONE,))))
    m2 = slot((((ONE,), (ZERO, PI)), ((ZERO,), (ONE,))))
    m2_inv = slot((((ONE,), (ZERO, -PI)), ((ZERO,), (ONE,))))
    seg = PolynomialPath((m1, m2, m1, m2_inv, slot(IDENT), slot(IDENT)))
    assert relation_residual(P2, [Mat(F, s) for s in seg.slots]) == math.inf
    for t0 in (ONE, PI):
        pt = seg.eval(P2, t0)
        assert check_relation(pt) == inverse_word_residual(pt) == math.inf


UPPER = ((ONE,), (PI,)), ((ZERO,), (ONE,))
UPPER_T = ((ONE,), (ZERO, PI)), ((ZERO,), (ONE,))
LOWER = ((ONE,), (ZERO,)), ((PI,), (ONE,))
DIAG_T = ((ONE, PI), (ZERO,)), ((ZERO,), (ONE,))
DIAG_T2 = ((ONE,), (ZERO,)), ((ZERO,), (ONE, ZERO, PI))
GENERAL_PARTNER = {
    "unipotent": (UPPER_T, IDENT),
    "det-varies": (DIAG_T, IDENT),
    "commuting-det-varies": (DIAG_T, DIAG_T2),
    "det-varies-pair": (DIAG_T, LOWER),
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
    "det-varies": (True, [
        (None, True, "start relation residual inf"),
        (0, True, "entry degrees within cap 2"),
        (0, True, "coefficients integral"),
        (0, True, "relation holds identically in t (residual inf)")]),
    "commuting-det-varies": (True, [
        (None, True, "start relation residual inf"),
        (0, True, "entry degrees within cap 2"),
        (0, True, "coefficients integral"),
        (0, True, "relation holds identically in t (residual inf)")]),
    "det-varies-pair": (False, [
        (None, False, "start relation residual 2"),
        (0, True, "entry degrees within cap 2"),
        (0, True, "coefficients integral"),
        (0, False, RESIDUAL_2)]),
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


@pytest.mark.parametrize("name", sorted(GENERAL_PARTNER))
def test_general_partner_path_takes_no_inverse(monkeypatch, name):
    seg = general_partner_certificate(*GENERAL_PARTNER[name]).segments[0]
    slots = [Mat(F, slot) for slot in seg.slots]
    calls = count_inverses(monkeypatch)
    relation_residual(P2, slots)
    assert calls == []
