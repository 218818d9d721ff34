"""Points of the framed deformation space as matrix tuples.

A point is a tuple (M_1,...,M_{d+2}) of n x n matrices congruent to the
identity mod the maximal ideal and satisfying the pro-p relation

    M_1^q [M_1,M_2] [M_3,M_4] ... [M_{d+1},M_{d+2}] = I

(with [A,B] = A B A^-1 B^-1; for q = 1 the group is free on d+1 generators
and there is no relation).  The determinant of M_1 is a q-th root of unity
on relation points and labels the connected component.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .localring import (
    FieldDescriptor,
    LocalFieldError,
    enumerate_mu_q,
    mu_q_index,
    reduce_mod_m,
)
from .linalg import (
    Mat,
    PrecisionExhaustedError,
    adjugate,
    charpoly,
    deflate,
    det,
    mat_inv,
)


class RelationViolatedError(LocalFieldError):
    """The defining relation fails at the working threshold."""


class PreconditionError(LocalFieldError):
    """An operation was invoked outside its supported hypotheses."""


@dataclass(frozen=True)
class DeformationParams:
    """Shape data for the moduli problem: base field model, the degree d of
    the ground p-adic field, and the matrix size n."""

    field: FieldDescriptor
    d: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise PreconditionError("matrix dimension must be at least 1")
        if self.d < 1:
            raise PreconditionError("ground field degree must be at least 1")
        if self.field.q >= 3:
            if self.d < self.field.e:
                raise PreconditionError(
                    f"d = {self.d} is too small: a ground field containing the "
                    f"q-th roots of unity has degree at least phi(q) = {self.field.e}")
            if self.d % 2:
                raise PreconditionError("d must be even when q >= 3")

    @property
    def p(self):
        return self.field.p

    @property
    def q(self):
        return self.field.q

    @property
    def tuple_length(self):
        return self.d + 2 if self.q >= 3 else self.d + 1

    @property
    def path_assumption(self) -> bool:
        """p > n, the hypothesis under which the path pipeline works."""
        return self.field.p > self.n


class DeformationPoint:
    """A tuple of matrices deforming the trivial representation."""

    __slots__ = ("params", "matrices")

    def __init__(self, params: DeformationParams, matrices):
        self.params = params
        self.matrices = tuple(matrices)
        if len(self.matrices) != params.tuple_length:
            raise PreconditionError(
                f"expected {params.tuple_length} matrices, got {len(self.matrices)}")
        for m in self.matrices:
            if m.n != params.n:
                raise PreconditionError("matrix size mismatch")
            for i in range(m.n):
                for j in range(m.n):
                    want = 1 if i == j else 0
                    if reduce_mod_m(m.rows[i][j]) != want:
                        raise PreconditionError(
                            "matrices must be congruent to the identity mod m")

    def __eq__(self, other):
        return (isinstance(other, DeformationPoint)
                and self.params == other.params
                and all(a == b for a, b in zip(self.matrices, other.matrices)))

    __hash__ = None

    def eq_at(self, other, threshold=None):
        return all(a.eq_at(b, threshold) for a, b in zip(self.matrices, other.matrices))


@dataclass(frozen=True)
class ComponentLabel:
    """Connected-component label: det(M_1) = zeta^index for the fixed
    primitive root zeta of the field, i.e. enumerate_mu_q(field)[index]."""

    index: int


def label_for_index(field: FieldDescriptor, index: int) -> ComponentLabel:
    return ComponentLabel(index % max(field.q, 1))


def relation_residual(params: DeformationParams, mats):
    """Min entry valuation of the relation word W minus I, for `Mat`s over
    LocalElements (a point) or over `Poly`s (a path, identically in t).
    math.inf means the relation holds at working precision (always for q = 1).

    No inverse is taken.  With C = [M_3,M_4]...[M_{d+1},M_{d+2}],
    (W - I) C^-1 M_2 M_1 = M_1^(q+1) M_2 - C^-1 M_2 M_1, and
    [a,b]^-1 = b a adj(b) adj(a) / (det a det b), so the valuation read is
    that of D M_1^(q+1) M_2 - P M_2 M_1, with P the product of the
    b a adj(b) adj(a), last pair first, and D that of the det a det b; a
    pair with an identity member is skipped, as its commutator is I.  With
    identity partners this is M_1^(q+1) M_2 - M_2 M_1.  On points every M_i is congruent to I mod
    m, so the right factor C^-1 M_2 M_1 lies in GL_n(O_F) and D is a unit:
    the valuation is that of W - I.  Over `Poly` it is math.inf exactly when
    the relation holds identically in t.
    """
    q = params.q
    if q == 1:
        return math.inf
    m1, m2 = mats[0], mats[1]
    lhs, rhs = m1 ** (q + 1) * m2, m2 * m1
    for a, b in zip(mats[2::2], mats[3::2]):
        if not (a.is_identity() or b.is_identity()):
            rhs = b * a * adjugate(b) * adjugate(a) * rhs
            lhs = lhs.scale(det(a) * det(b))
    return lhs.diff_valuation(rhs)


def check_relation(pt: DeformationPoint):
    """relation_residual of a point."""
    return relation_residual(pt.params, pt.matrices)


def det_component(pt: DeformationPoint) -> ComponentLabel:
    """Component label of a relation point: the index of the q-th root of
    unity that `mu_q_index` matches to det(M_1)."""
    return label_at_residual(pt, check_relation(pt))


def label_at_residual(pt: DeformationPoint, residual) -> ComponentLabel:
    """det_component of a point whose relation residual, as returned by
    check_relation, is already known.  Raises RelationViolatedError when the
    relation fails at tau, and PrecisionExhaustedError when no root lies
    close enough to decide.  A residual of at least tau already gives
    det(M_1)^q = 1 at tau, as every commutator has determinant 1, so a
    point that reaches the match needs no further check."""
    params = pt.params
    f = params.field
    if residual < f.tau:
        raise RelationViolatedError(
            f"relation residual {residual} below threshold {f.tau}")
    if params.q == 1:
        return label_for_index(f, 0)
    d1 = det(pt.matrices[0])
    j = mu_q_index(d1)
    if j is not None:
        return label_for_index(f, j)
    raise PrecisionExhaustedError(
        "could not resolve the component label: det(M_1) matches no q-th root of unity")


def diagonal_point(params: DeformationParams, labels) -> DeformationPoint:
    """diag(zeta^k for k in labels) with identity partners."""
    f = params.field
    mus = enumerate_mu_q(f)
    return DeformationPoint(params, [Mat.diag(f, [mus[k % len(mus)] for k in labels])]
                            + [Mat.identity(f, params.n)] * (params.tuple_length - 1))


def canonical_point(params: DeformationParams, label) -> DeformationPoint:
    """The base point of a component: diag(zeta^label, 1, ..., 1) with
    identity partners."""
    if isinstance(label, ComponentLabel):
        label = label.index
    return diagonal_point(params, [label] + [0] * (params.n - 1))


def is_in_V(pt: DeformationPoint, threshold=None) -> bool:
    """True when all matrices past the second are the identity at threshold;
    there the relation collapses to M_2 M_1 M_2^-1 = M_1^(q+1)."""
    ident = Mat.identity(pt.params.field, pt.params.n)
    return all(m.eq_at(ident, threshold) for m in pt.matrices[2:])


def conjugate_point(pt: DeformationPoint, g: Mat) -> DeformationPoint:
    """g M_i g^-1 for every slot; identity slots are kept as they are."""
    gi = mat_inv(g)
    return DeformationPoint(pt.params, [m if m.is_identity() else g * m * gi
                                        for m in pt.matrices])


# --- sampling -----------------------------------------------------------------


def _random_digits(rng, field):
    """Digits drawn below p^(2M) and reduced mod pM: whatever the guard
    band, a seed gives the same digits mod pi^N."""
    top = field.p ** (2 * field.M)
    return field.element(0, tuple(rng.randrange(top) % field.pM
                                  for _ in range(field.e * field.f0)))


def _random_m_element(rng, field):
    return field.uniformizer() * _random_digits(rng, field)


def _random_gl_one_plus_m(rng, field, n):
    pi = field.uniformizer()
    rows = []
    for i in range(n):
        rows.append([(field.one() if i == j else field.zero())
                     + pi * _random_digits(rng, field) for j in range(n)])
    return Mat(field, rows)


def _commuting_block(rng, field, w):
    """A random w x w block of 1 + Mat(m) whose triangularization stays
    inside the implemented toolbox: scalar times unipotent for w >= 3,
    and for w = 2 either that or an upper-triangular block with diagonal
    entries separated at valuation one."""
    one, zero = field.one(), field.zero()
    pi = field.uniformizer()
    if w == 1:
        return [[one + _random_m_element(rng, field)]]
    if w == 2 and rng.random() < 0.6:
        r1, r2 = rng.sample(range(1, field.p), 2)
        c1 = one + pi * (field.from_int(r1) + _random_m_element(rng, field))
        c2 = one + pi * (field.from_int(r2) + _random_m_element(rng, field))
        return [[c1, _random_m_element(rng, field)], [zero, c2]]
    c = one + _random_m_element(rng, field)
    rows = [[(c if i == j else (_random_m_element(rng, field) if j > i else zero))
             for j in range(w)] for i in range(w)]
    return rows


def sample_point_on_V(params: DeformationParams, seed: int, eigenvalues) -> DeformationPoint:
    """Seeded relation-exact point on the closed subspace: M_1 = g D g^-1
    with D a diagonal of exact q-th roots of unity, M_2 = g C g^-1 with C
    block upper-triangular along equal-eigenvalue blocks (so it commutes
    with D exactly), all other matrices the identity.

    eigenvalues is a multiset of component-label indices of size n.
    """
    if not params.path_assumption:
        raise PreconditionError(
            f"sampler requires p > n (got p = {params.p}, n = {params.n})")
    labels = sorted((int(k) % max(params.q, 1) for k in eigenvalues), reverse=True)
    if len(labels) != params.n:
        raise PreconditionError(f"need exactly {params.n} eigenvalue labels")
    f = params.field
    rng = random.Random(seed)
    mus = enumerate_mu_q(f)
    diag = [mus[k] for k in labels]
    dmat = Mat.diag(f, diag)
    # group sizes of repeated labels, in order
    blocks = []
    start = 0
    for i in range(1, params.n + 1):
        if i == params.n or labels[i] != labels[start]:
            blocks.append(i - start)
            start = i
    crows = [[f.zero()] * params.n for _ in range(params.n)]
    off = 0
    for w in blocks:
        block = _commuting_block(rng, f, w)
        for i in range(w):
            for j in range(w):
                crows[off + i][off + j] = block[i][j]
        off += w
    cmat = Mat(f, crows)
    g = _random_gl_one_plus_m(rng, f, params.n)
    gi = mat_inv(g)
    m1 = g * dmat * gi
    m2 = g * cmat * gi
    mats = [m1, m2] + [Mat.identity(f, params.n)
                       for _ in range(params.tuple_length - 2)]
    return DeformationPoint(params, mats)


# --- eigenvalue detection -------------------------------------------------------


def detect_eigenvalues(m1: Mat) -> dict[int, int]:
    """Multiplicity of each q-th root of unity as an eigenvalue of M_1, by
    threshold deflation of the characteristic polynomial.  Keys are label
    indices; the multiplicities sum to n exactly when the spectrum lies in
    mu_q."""
    f = m1.field
    cur = charpoly(m1)
    out = {}
    for j, lam in enumerate(enumerate_mu_q(f)):
        mult, cur = deflate(cur, lam, f.tau)
        if mult:
            out[j] = mult
    return out

