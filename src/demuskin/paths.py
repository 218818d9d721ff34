"""Path certificates: machine-checkable connectivity witnesses.

A certificate chains three kinds of segments between points of one
component:

  * ConjugationMove: simultaneous conjugation of the whole tuple by some
    g in GL_n(O_F) (a connected-group orbit move);
  * PolynomialPath: a one-parameter family of tuples, polynomial in t with
    integral coefficients, run from t = 1 (start) to t = 0 (end), along
    which the defining relation holds identically in t;
  * CitedEquivalence: a recorded literature fact, never computed here; only
    the two-dimensional fixed-determinant integral-domain statement is
    admissible, and it is used to merge diagonal entries.

Verification is a separate code path from construction: it re-derives
everything from the stored segment data and reports per-segment,
per-clause results (clauses a-e below).  A polynomial segment is checked
as one `Mat` over `Poly` per slot by `relation_residual`, the function
that checks points.  It takes no inverse: it reads the relation word W
as (W - I) C^-1 M_2 M_1 times D, with C the product of the partner
commutators and D that of the partner determinants, built from products,
adjugates and determinants alone.  That form vanishes identically in t
exactly when W - I does, and at every point of a path in 1 + M_n(m) both
factors are invertible over O_F, so its valuation there is that of W - I.
Slot determinants may vary in t, as the contract segment's
M_2(t) = diag(1 + t m_i) does.

`PathCertificate.to_json`/`from_json` is the one certificate codec:

  {"params": {"p", "q", "f0", "N", "tau", "d", "n"}, "label": index,
   "start": point, "end": point, "segments": [segment, ...]}

Every point shares the one params.  The label is the index of det(M_1) in
`enumerate_mu_q`.  A point is a list of matrices, a matrix a list of rows
of elements, a polynomial the list of its coefficients and a slot a list
of rows of polynomials.  A segment is {"kind": "conjugation", "g":
matrix}, {"kind": "polynomial", "slots": [slot, ...]} or {"kind": "cited",
"statement_id", "source", "start": point, "end": point}.

A certificate is published at N' = min(N_b, max(e*ceil(tau/e), 4e)),
where N_b is the precision of the field it was built in: params "N" is
N', and an element is `0` when it is zero at N' and otherwise
`[shift, "d_0", ...]`, its e*f0 digits masked at relative depth
N' - shift.  N' digits are enough because every clause is decided at tau
or below: integrality and unit determinants are residue checks, the
relation, chain and det(M_1) checks compare at tau integral data built
from the stored entries by ring operations and the inverse of a matrix of
unit determinant, and the label match reads det(M_1) at a threshold of at
most tau; such a value mod pi^tau depends only on the entries mod pi^tau.
The digits from N' to N_b are never read, so they are not written, and
(X. Caruso, *Computations with p-adic numbers*, arXiv:1701.06794) the
verifier computes at the precision its decisions read.  The 4e floor is
make_field's least precision.  `from_json` reads a certificate into the
shared field `make_field(p, q, f0, N', tau)`, which the building field
keeps alive (`FieldDescriptor.published`), so parsing builds no field and
the verifier computes in O_F/pi^(N' + G) with no conversion.

The parser decodes by nesting depth (a row may begin with `0`) and fails
only with `CertificateFormatError`.  It accepts only what `to_json`
writes: each object with exactly the keys above, in that order;
ceil(3N/4) <= tau <= N, so that a text cannot choose the threshold its
clauses are decided at; N a multiple of e and the publication precision
of its tau, both checked before a field is built; a label in [0, q);
polynomials of at least one coefficient; and elements as
`LocalElement.from_json` reads them (canonical digit strings, masked at
N - shift, a unit digit vector, known at N).  So a parsed certificate
writes its input bytes back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .localring import (
    LocalElement,
    LocalFieldError,
    SquareRootError,
    _field_key,
    _publication_precision,
    _ramification,
    enumerate_mu_q,
    hensel_sqrt,
    make_field,
    mu_q_index,
)
from .linalg import (
    Mat,
    Poly,
    charpoly,
    det,
    generalized_eigenspace,
    is_upper_triangular,
    iwasawa_decompose,
    kernel_basis_at_threshold,
    mat_inv,
    rank_of_columns,
    solve_in_span,
)
from .deformation import (
    ComponentLabel,
    DeformationParams,
    DeformationPoint,
    PreconditionError,
    canonical_point,
    check_relation,
    conjugate_point,
    det_component,
    detect_eigenvalues,
    diagonal_point,
    is_in_V,
    label_at_residual,
    label_for_index,
    relation_residual,
)


class NotInVError(PreconditionError):
    """The point is not on the closed subspace with identity partners."""


class PathConstructionError(LocalFieldError):
    """The pipeline could not realize a construction step at precision."""


class CertificateFormatError(LocalFieldError):
    """Input to `PathCertificate.from_json` that is not a certificate."""


BJ_STATEMENT_ID = "fixed-det-2dim-framed-ring-is-domain"
BJ_SOURCE = "Boeckle-Juschka, Theorem 1.5 with Remark 1.7"


# --- segments -----------------------------------------------------------------


@dataclass
class ConjugationMove:
    g: Mat

    kind = "conjugation"


@dataclass
class PolynomialPath:
    """One matrix of polynomials in t per tuple slot; t = 1 is the start of
    the segment and t = 0 the end."""

    slots: tuple

    kind = "polynomial"

    def eval(self, params, t: LocalElement) -> DeformationPoint:
        f = params.field
        mats = [Mat(f, [[p(t) for p in row] for row in slot]) for slot in self.slots]
        return DeformationPoint(params, mats)

    def max_degree(self):
        return max((p.degree() for slot in self.slots for row in slot for p in row),
                   default=-1)


@dataclass
class CitedEquivalence:
    statement_id: str
    source: str
    start: DeformationPoint
    end: DeformationPoint

    kind = "cited"


@dataclass
class PathCertificate:
    start: DeformationPoint
    segments: tuple
    end: DeformationPoint
    label: ComponentLabel

    def to_json(self):
        params = self.start.params
        f = params.field
        N = f.published().N
        return {"params": {"p": f.p, "q": f.q, "f0": f.f0, "N": N, "tau": f.tau,
                           "d": params.d, "n": params.n},
                "label": self.label.index,
                "start": _point_json(self.start, N),
                "end": _point_json(self.end, N),
                "segments": [_segment_json(s, N) for s in self.segments]}

    @staticmethod
    def from_json(blob):
        try:
            return _read_certificate(blob)
        except (LocalFieldError, LookupError, TypeError, ValueError) as exc:
            raise CertificateFormatError(f"{type(exc).__name__}: {exc}") from exc


def _mat_json(rows, N):
    return [[x.to_json(N) for x in r] for r in rows]


def _point_json(pt, N):
    return [_mat_json(m.rows, N) for m in pt.matrices]


def _segment_json(seg, N):
    if isinstance(seg, ConjugationMove):
        return {"kind": seg.kind, "g": _mat_json(seg.g.rows, N)}
    if isinstance(seg, PolynomialPath):
        return {"kind": seg.kind,
                "slots": [[[[c.to_json(N) for c in p.coeffs] for p in row] for row in slot]
                          for slot in seg.slots]}
    return {"kind": seg.kind, "statement_id": seg.statement_id, "source": seg.source,
            "start": _point_json(seg.start, N), "end": _point_json(seg.end, N)}


def _keys(obj, *keys):
    """The values of a JSON object at `keys`, which must be its keys in
    this order, as `to_json` writes them."""
    if type(obj) is not dict or list(obj) != list(keys):
        raise ValueError(f"expected an object with the keys {keys}")
    return [obj[k] for k in keys]


def _read_certificate(blob):
    """The certificate of a `to_json` blob, decoded by nesting depth.  The
    parameters are checked before any field is built."""
    _, label, start, end, segments = _keys(blob, "params", "label", "start", "end", "segments")
    ints = _keys(blob["params"], "p", "q", "f0", "N", "tau", "d", "n") + [label]
    if any(type(x) is not int for x in ints):
        raise TypeError("parameters and label must be integers")
    p, q, f0, N, tau, d, n, label = ints
    if not -(-3 * N // 4) <= tau <= N:
        raise ValueError(f"tau = {tau} outside [ceil(3N/4), N] = [{-(-3 * N // 4)}, {N}]")
    key = _field_key(p, q, f0, N, tau)
    e = _ramification(p, q)
    if key[3] != N:
        raise ValueError(f"N = {N} is not a multiple of e = {e}")
    pub = _publication_precision(e, N, tau)
    if pub != N:
        raise ValueError(f"N = {N} above the publication precision {pub} of tau = {tau}")
    params = DeformationParams(make_field(*key), d, n)
    f = params.field
    if not 0 <= label < max(q, 1):
        raise ValueError(f"label {label} outside [0, {max(q, 1)})")

    def square(rows, entry):
        if type(rows) is not list or len(rows) != n or any(
                type(r) is not list or len(r) != n for r in rows):
            raise ValueError(f"expected an {n} x {n} matrix")
        return tuple(tuple([entry(x) for x in r]) for r in rows)

    def element(x):
        return LocalElement.from_json(f, x)

    def poly(coeffs):
        if not coeffs:
            raise ValueError("a polynomial has at least one coefficient")
        return Poly(f, [element(c) for c in coeffs])

    def point(mats):
        return DeformationPoint(params, [Mat(f, square(m, element)) for m in mats])

    def segment(s):
        kind = s["kind"]
        if kind == ConjugationMove.kind:
            _, g = _keys(s, "kind", "g")
            return ConjugationMove(Mat(f, square(g, element)))
        if kind == PolynomialPath.kind:
            _, slots = _keys(s, "kind", "slots")
            return PolynomialPath(tuple(square(slot, poly) for slot in slots))
        if kind == CitedEquivalence.kind:
            _, sid, source, a, b = _keys(s, "kind", "statement_id", "source", "start", "end")
            return CitedEquivalence(sid, source, point(a), point(b))
        raise ValueError(f"unknown segment kind {kind!r}")

    return PathCertificate(point(start), tuple(segment(s) for s in segments),
                           point(end), label_for_index(f, label))


# --- construction ---------------------------------------------------------------


def connect_to_diagonal(pt: DeformationPoint) -> PathCertificate:
    """Certificate from a point on the closed subspace to the diagonal point
    carrying its eigenvalue multiset (sorted by label index, descending).

    Steps: (1) conjugate by the integral Iwasawa factor of the eigenbasis
    change that makes M_1 and M_2 simultaneously upper triangular; (2) squeeze
    the strictly upper triangle with g(t) = diag(t^(n-1),...,t,1); (3)
    straight-line the diagonal partner matrix to the identity.
    """
    params = pt.params
    f = params.field
    n = params.n
    if params.q < 3:
        raise PreconditionError("path construction needs q >= 3")
    if not params.path_assumption:
        raise PreconditionError(
            f"path construction requires p > n (p = {params.p}, n = {n})")
    if not is_in_V(pt):
        raise NotInVError("point is not on the identity-partners subspace")
    label = det_component(pt)
    m1, m2 = pt.matrices[0], pt.matrices[1]
    mults = detect_eigenvalues(m1)
    if sum(mults.values()) != n:
        raise PathConstructionError(
            "spectrum of M_1 does not lie in mu_q at threshold")
    mus = enumerate_mu_q(f)
    basis = []
    for k in sorted(mults, reverse=True):
        lam = mus[k]
        fil = generalized_eigenspace(m1, lam)
        if fil.dimension() != mults[k]:
            raise PathConstructionError("eigenspace dimension mismatch")
        basis.extend(_stage_basis_triangularizing(m2, fil))
    pmat = Mat(f, list(zip(*basis)))
    emat = mat_inv(pmat)
    e0 = iwasawa_decompose(emat)
    e0i = mat_inv(e0)
    m1p = e0 * m1 * e0i
    m2p = e0 * m2 * e0i
    if not (is_upper_triangular(m1p) and is_upper_triangular(m2p)):
        raise PathConstructionError(
            "Iwasawa-adjusted basis did not triangularize the pair at threshold")
    seg1 = ConjugationMove(e0)
    seg2 = PolynomialPath(_squeeze_slots(params, m1p, m2p))
    diag1 = Mat.diag(f, [m1p.rows[i][i] for i in range(n)])
    diag2 = Mat.diag(f, [m2p.rows[i][i] for i in range(n)])
    ident = Mat.identity(f, n)
    seg3 = PolynomialPath(_contract_slots(params, diag1, diag2))
    end = DeformationPoint(params, [diag1, ident] + [ident] * (params.tuple_length - 2))
    return PathCertificate(pt, (seg1, seg2, seg3), end, label)


def _stage_basis_triangularizing(m2: Mat, fil):
    """Stage-respecting basis of one generalized eigenspace on which the
    partner matrix acts upper-triangularly."""
    f = m2.field
    out = []
    prev_count = 0
    for dim in fil.shape:
        stage_vecs = list(fil.vectors[prev_count:dim])
        w = len(stage_vecs)
        if w == 1:
            out.extend(stage_vecs)
        else:
            span = out + stage_vecs
            m2u = [_apply(m2, u) for u in stage_vecs]
            coords = [solve_in_span(span, v) for v in m2u]
            induced = Mat(f, [[coords[k][len(out) + l] for k in range(w)]
                              for l in range(w)])
            out.extend(_combine(stage_vecs, col) for col in _triangularize_small(induced))
        prev_count = dim
    return out


def _apply(m: Mat, v):
    f = m.field
    return tuple(sum((m.rows[i][j] * v[j] for j in range(m.n)), f.zero())
                 for i in range(m.n))


def _combine(vectors, coeffs):
    f = vectors[0][0].field
    n = len(vectors[0])
    vec = [f.zero()] * n
    for c, v in zip(coeffs, vectors):
        if not c.is_zero():
            for i in range(n):
                vec[i] = vec[i] + c * v[i]
    vmin = min(x.valuation() for x in vec)
    if vmin == math.inf:
        raise PathConstructionError("degenerate stage combination")
    if vmin != 0:
        s = f.uniformizer() ** (-vmin)
        vec = [x * s for x in vec]
    return tuple(vec)


def _triangularize_small(t: Mat):
    """Columns of an invertible w x w matrix Q with Q^-1 T Q upper
    triangular.  Handles the single-eigenvalue case at any size (trace
    extraction plus the nilpotent kernel flag) and the split two-by-two
    case via a Hensel square root of the discriminant; anything else is out
    of supported range."""
    f = t.field
    w = t.n
    tr = f.zero()
    for i in range(w):
        tr = tr + t.rows[i][i]
    c = tr / f.from_int(w)
    shifted = t - Mat.identity(f, w).scale(c)
    power = shifted
    for _ in range(w - 1):
        power = power * shifted
    if power.min_entry_valuation() >= f.tau:
        fil = generalized_eigenspace(t, c)
        if fil.dimension() != w:
            raise PathConstructionError("nilpotent flag did not fill the block")
        return list(fil.vectors)
    if w == 2:
        cp = charpoly(t)
        disc = cp[1] * cp[1] - f.from_int(4) * cp[0]
        try:
            s = hensel_sqrt(disc)
        except SquareRootError as exc:
            raise PathConstructionError(
                f"partner-matrix eigenvalues split outside the field: {exc}") from exc
        half = f.from_int(2).inv()
        r1 = (-cp[1] + s) * half
        kern = kernel_basis_at_threshold(t - Mat.identity(f, 2).scale(r1))
        if len(kern) < 1:
            raise PathConstructionError("no eigenvector at threshold")
        v = kern[0]
        for k in range(2):
            e = tuple(f.one() if i == k else f.zero() for i in range(2))
            if rank_of_columns([v, e]) == 2:
                return [v, e]
        raise PathConstructionError("could not complete eigenvector to a basis")
    raise PathConstructionError(
        f"triangularization of a {w} x {w} partner block with split spectrum "
        "is outside the supported range")


def _squeeze_slots(params, m1p, m2p):
    """Path slots for conjugation by diag(t^(n-1), ..., t, 1): entry (i, j)
    of each upper-triangular matrix rides t^(j-i)."""
    f = params.field
    n = params.n
    zero_poly = Poly.const(f, f.zero())

    def slot_for(m):
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if j < i:
                    row.append(zero_poly)
                elif j == i:
                    row.append(Poly.const(f, m.rows[i][j]))
                else:
                    row.append(Poly.monomial(f, m.rows[i][j], j - i))
            rows.append(tuple(row))
        return tuple(rows)

    ident = _constant_identity_slot(f, n)
    return tuple([slot_for(m1p), slot_for(m2p)]
                 + [ident] * (params.tuple_length - 2))


def _contract_slots(params, diag1, diag2):
    """Path slots freezing M_1 and running diag(1 + t m_i) to the identity."""
    f = params.field
    n = params.n
    zero_poly = Poly.const(f, f.zero())
    one = f.one()
    s1 = tuple(tuple(Poly.const(f, diag1.rows[i][j]) if i == j else zero_poly
                     for j in range(n)) for i in range(n))
    s2 = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(Poly(f, (one, diag2.rows[i][i] - one)))
            else:
                row.append(zero_poly)
        s2.append(tuple(row))
    ident = _constant_identity_slot(f, n)
    return tuple([s1, tuple(s2)] + [ident] * (params.tuple_length - 2))


def _constant_identity_slot(f, n):
    zero_poly = Poly.const(f, f.zero())
    one_poly = Poly.const(f, f.one())
    return tuple(tuple(one_poly if i == j else zero_poly for j in range(n))
                 for i in range(n))


def normalize_and_cite(diag_pt: DeformationPoint, label: ComponentLabel) -> PathCertificate:
    """Extension from a diagonal relation point to the canonical base point
    of its component, by recorded merges diag(..., a, b) -> diag(..., ab, 1).
    No path is computed: each merge is a cited equivalence."""
    params = diag_pt.params
    n = params.n
    labels = _diagonal_labels(diag_pt)
    if labels is None:
        raise PreconditionError("input point must have identity partners and "
                                "a diagonal first matrix of q-th roots of unity")
    total = sum(labels) % params.q
    if total != label.index:
        raise PreconditionError("label does not match the diagonal product")
    segs = []
    cur_labels = list(labels)
    cur_pt = diag_pt
    for step in range(n - 1, 0, -1):
        merged = cur_labels[:step - 1] + [sum(cur_labels[step - 1:]) % params.q]
        merged += [0] * (n - step)
        nxt = diagonal_point(params, merged)
        if not cur_pt.eq_at(nxt):
            segs.append(CitedEquivalence(BJ_STATEMENT_ID, BJ_SOURCE, cur_pt, nxt))
        cur_pt = nxt
        cur_labels = merged
    end = canonical_point(params, total)
    return PathCertificate(diag_pt, tuple(segs), end, label)


def _diagonal_labels(pt: DeformationPoint):
    """Label indices of the diagonal entries of M_1, when the point has
    identity partners and M_1 is diagonal at threshold with every entry
    matched to a q-th root of unity by `mu_q_index`; None otherwise."""
    f = pt.params.field
    n = pt.params.n
    ident = Mat.identity(f, n)
    m1 = pt.matrices[0]
    if not (all(m.eq_at(ident) for m in pt.matrices[1:])
            and all(m1.rows[i][j].valuation() >= f.tau
                    for i in range(n) for j in range(n) if i != j)):
        return None
    labels = [mu_q_index(m1.rows[i][i]) for i in range(n)]
    return None if None in labels else labels


def extend_to_canonical(cert: PathCertificate) -> PathCertificate:
    """connect_to_diagonal followed by the cited merges, as one certificate."""
    ext = normalize_and_cite(cert.end, cert.label)
    return PathCertificate(cert.start, cert.segments + ext.segments, ext.end, cert.label)


# --- verification ---------------------------------------------------------------


@dataclass
class ReportEntry:
    segment: "int | None"
    clause: str
    ok: bool
    detail: str = ""

    def to_json(self):
        return {"segment": self.segment, "clause": self.clause,
                "ok": self.ok, "detail": self.detail}


@dataclass
class VerificationReport:
    entries: list = dc_field(default_factory=list)

    def add(self, segment, clause, ok, detail=""):
        self.entries.append(ReportEntry(segment, clause, ok, detail))

    @property
    def passed(self):
        return all(e.ok for e in self.entries)

    def failed_clauses(self):
        return sorted({e.clause for e in self.entries if not e.ok})

    def to_json(self):
        return {"passed": self.passed, "entries": [e.to_json() for e in self.entries]}


def verify_certificate(cert: PathCertificate) -> VerificationReport:
    """Check every clause of a certificate against its stored data only:

    (a) conjugation moves use integral g with unit determinant and map the
        current tuple onto the next anchor;
    (b) polynomial paths satisfy the defining relation identically in t at
        threshold (and start from a relation point);
    (c) segment endpoints chain, ending at the stored end point;
    (d) det(M_1) is t-independent along polynomial paths and constant across
        the chain, matching the stored component label;
    (e) cited segments record only the admissible merge statement.

    Every clause is decided at the certificate's tau (the label match at a
    threshold of at most tau), which `PathCertificate.from_json` bounds to
    [ceil(3N/4), N], so a parsed certificate is verified in its
    publication field at the threshold it was built for.
    """
    rep = VerificationReport()
    params = cert.start.params
    f = params.field
    tau = f.tau
    residual = check_relation(cert.start)
    rep.add(None, "b", residual >= tau,
            f"start relation residual {residual}")
    try:
        start_label = label_at_residual(cert.start, residual)
        rep.add(None, "d", start_label == cert.label,
                f"start label {start_label.index} vs stored {cert.label.index}")
    except LocalFieldError as exc:
        rep.add(None, "d", False, f"start label unresolved: {exc}")
    cur = cert.start
    cur_det = det(cert.start.matrices[0])
    for idx, seg in enumerate(cert.segments):
        if isinstance(seg, ConjugationMove):
            cur, cur_det = _verify_conjugation(rep, idx, seg, cur, cur_det, params)
        elif isinstance(seg, PolynomialPath):
            cur, cur_det = _verify_polynomial(rep, idx, seg, cur, cur_det, params)
        elif isinstance(seg, CitedEquivalence):
            cur, cur_det = _verify_cited(rep, idx, seg, cur, cur_det, params)
        else:
            rep.add(idx, "c", False, f"unknown segment type {type(seg).__name__}")
    rep.add(None, "c", cur.eq_at(cert.end), "chain reaches the stored end point")
    try:
        end_label = det_component(cert.end)
        rep.add(None, "d", end_label == cert.label, "end label matches")
    except LocalFieldError as exc:
        rep.add(None, "d", False, f"end label unresolved: {exc}")
    return rep


def _verify_conjugation(rep, idx, seg, cur, cur_det, params):
    g = seg.g
    integral = all(x.valuation() >= 0 for row in g.rows for x in row)
    rep.add(idx, "a", integral, "g integral")
    try:
        unit = det(g).valuation() == 0
    except LocalFieldError:
        unit = False
    rep.add(idx, "a", unit, "det(g) a unit (residue invertible)")
    if not (integral and unit):
        return cur, cur_det
    nxt = conjugate_point(cur, g)
    new_det = det(nxt.matrices[0])
    rep.add(idx, "d", new_det.eq_at(cur_det),
            "conjugation preserves det(M_1)")
    return nxt, new_det


def _verify_polynomial(rep, idx, seg, cur, cur_det, params):
    f = params.field
    n = params.n
    tau = f.tau
    if len(seg.slots) != params.tuple_length:
        rep.add(idx, "b", False, "wrong number of tuple slots")
        return cur, cur_det
    degree_cap = max(1, 2 * (n - 1))
    deg_ok = seg.max_degree() <= degree_cap
    rep.add(idx, "b", deg_ok, f"entry degrees within cap {degree_cap}")
    integral = all(c.valuation() >= 0
                   for slot in seg.slots for row in slot for p in row
                   for c in p.coeffs)
    rep.add(idx, "b", integral, "coefficients integral")
    if not (deg_ok and integral):
        return cur, cur_det
    start = seg.eval(params, f.one())
    rep.add(idx, "c", start.eq_at(cur), "path at t=1 matches the chain")
    slots = [Mat(f, slot) for slot in seg.slots]
    residual = relation_residual(params, slots)
    rep.add(idx, "b", residual >= tau,
            f"relation holds identically in t (residual {residual})")
    d1 = det(slots[0])
    tail = min((c.valuation() for c in d1.coeffs[1:]), default=math.inf)
    rep.add(idx, "d", tail >= tau, "det(M_1) degree zero in t")
    rep.add(idx, "d", d1.coeff(0).eq_at(cur_det),
            "det(M_1) value preserved")
    end = seg.eval(params, f.zero())
    return end, det(end.matrices[0])


def _verify_cited(rep, idx, seg, cur, cur_det, params):
    ok_stmt = (seg.statement_id == BJ_STATEMENT_ID and seg.source == BJ_SOURCE)
    rep.add(idx, "e", ok_stmt, "admissible citation")
    labels = [_diagonal_labels(seg.start), _diagonal_labels(seg.end)]
    shape_ok = None not in labels
    rep.add(idx, "e", shape_ok, "endpoints are diagonal root-of-unity points")
    if shape_ok:
        rep.add(idx, "e", sum(labels[0]) % params.q == sum(labels[1]) % params.q,
                "label product preserved")
    rep.add(idx, "c", seg.start.eq_at(cur), "cited start matches the chain")
    return seg.end, det(seg.end.matrices[0])
