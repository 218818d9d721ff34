import gc
import hashlib
import json

import pytest

from demuskin import deformation, linalg, paths
from demuskin.localring import FieldDescriptor, make_field
from demuskin.linalg import Mat
from demuskin.deformation import (
    DeformationParams,
    DeformationPoint,
    PreconditionError,
    label_for_index,
    sample_point_on_V,
)
from demuskin.paths import (
    BJ_SOURCE,
    BJ_STATEMENT_ID,
    CitedEquivalence,
    PathCertificate,
    connect_to_diagonal,
    extend_to_canonical,
    normalize_and_cite,
    verify_certificate,
)

GRID = [
    (5, 5, 2, 2, 32, 4),
    (5, 5, 2, 3, 32, 4),
    (3, 3, 2, 2, 32, 2),
    (5, 5, 2, 2, 1024, 4),
    (7, 7, 2, 4, 36, 6),
    (7, 7, 2, 5, 36, 6),
    (7, 7, 2, 6, 36, 6),
]

# Fields whose residue field has no (q+1)-th roots of unity: nothing in
# construction or verification needs them.
INERT_GRID = [
    (5, 5, 1, 2, 32, 4),
    (5, 5, 1, 3, 32, 4),
    (7, 7, 1, 3, 32, 6),
    (3, 3, 1, 2, 32, 2),
]

# sha256 of json.dumps of the certificate and of its verification report on
# each grid point.  Refactors must keep both byte-identical; change a pin
# only together with a deliberate change of the certificate or report format.
GOLDEN = {
    (5, 5, 2, 2, 32, 4): (
        "473e7319f307365ff7f8d4445e7c731b6b441bb945e011e325eb45058eb0eda4",
        "ec4202b3e6b8273b0035c5fac0fd9ef3b0e0c11d74bc15a37192667e8b6b5056"),
    (5, 5, 2, 3, 32, 4): (
        "6b65278d472396af0808c5a6555157ebd3d82f311f2f8dd3cbfbca7eb6d46a4b",
        "334d526fc9ab2fc183b78a6dfbdd70325ef93d3814115cc81aa2fe7e90324b1a"),
    (3, 3, 2, 2, 32, 2): (
        "9a8cdb3f1a542ff05c1bec57113deaa41ee1297cefd617ad83598435464f0f29",
        "20ab0863bfc5826163d5aedfeaaa7a5d9a294c0f6b2b3e9cc14fc3afff46ffd4"),
    (5, 5, 2, 2, 1024, 4): (
        "902525e555368b8f5a3ed698558af5d765cfe302f11264c5df340af907cf8722",
        "ec4202b3e6b8273b0035c5fac0fd9ef3b0e0c11d74bc15a37192667e8b6b5056"),
    (7, 7, 2, 4, 36, 6): (
        "df6ec9074609eb2fbba3c77d77828f741273b3b2ae5eddd08c9c0cb3082caf33",
        "6cab89360e2270a58c5d07f00a4ec9c7a35bdcab3548a6abd28f0309c96ec867"),
    (7, 7, 2, 5, 36, 6): (
        "dc819d93612ca18e8bc3bedafc3f12f69289211892b111aeed864fc6a7c9ca27",
        "63bc16245b7bf7200d4f110a9f6fbd5ef75b0b7ca8b64fa42e4e91a14697bd90"),
    (7, 7, 2, 6, 36, 6): (
        "6fb712b09111b7152ed657d4d083200eb393d81d9e4c3a24c3f160d1be027839",
        "2de7bee040da0424d2591cf5c215e1dd5266d501c221b9283403e52cd06e1759"),
}


def grid_certificate(p, q, f0, n, N, d):
    params = DeformationParams(make_field(p, q, f0, N), d=d, n=n)
    pt = sample_point_on_V(params, seed=2, eigenvalues=list(range(1, n + 1)))
    return extend_to_canonical(connect_to_diagonal(pt))


def sha256_json(blob):
    return hashlib.sha256(json.dumps(blob).encode()).hexdigest()


@pytest.mark.parametrize("p,q,f0,n,N,d", GRID + INERT_GRID)
def test_certificate_verifies_and_roundtrips_through_json(p, q, f0, n, N, d):
    cert = grid_certificate(p, q, f0, n, N, d)
    assert cert.label.index == sum(range(1, n + 1)) % q
    assert verify_certificate(cert).passed
    text = json.dumps(cert.to_json())
    back = PathCertificate.from_json(json.loads(text))
    assert verify_certificate(back).passed
    assert json.dumps(back.to_json()) == text


@pytest.mark.parametrize("point", GRID)
def test_certificate_and_report_match_golden_digest(point):
    cert = grid_certificate(*point)
    got = (sha256_json(cert.to_json()), sha256_json(verify_certificate(cert).to_json()))
    assert got == GOLDEN[point]


def test_verifier_checks_each_relation_once(monkeypatch):
    """The start point's relation is checked for clause b and reused for its
    label; the end point's is checked for its label.  Nothing else."""
    cert = grid_certificate(*GRID[1])
    calls = []
    original = deformation.check_relation

    def counted(pt):
        calls.append(pt)
        return original(pt)

    monkeypatch.setattr(deformation, "check_relation", counted)
    monkeypatch.setattr(paths, "check_relation", counted)
    assert verify_certificate(cert).passed
    assert calls == [cert.start, cert.end]


def test_verifier_expands_the_start_determinant_once(monkeypatch):
    """det(M_1) of the start point is expanded once, for its label, and
    read from the matrix where clause d starts the determinant chain."""
    text = json.dumps(grid_certificate(*GRID[1]).to_json())
    cert = PathCertificate.from_json(json.loads(text))
    rows = cert.start.matrices[0].rows
    calls = []
    original = linalg._det_minor

    def counted(rows_, r, mask, zero, memo):
        if rows_ is rows and r == 0:
            calls.append(mask)
        return original(rows_, r, mask, zero, memo)

    monkeypatch.setattr(linalg, "_det_minor", counted)
    assert verify_certificate(cert).passed
    assert calls == [(1 << len(rows)) - 1]


@pytest.mark.parametrize("n, spectrum", [(2, [1, 2]), (3, [2, 2, 0])])
def test_verifier_strips_no_digits(monkeypatch, n, spectrum):
    """Every comparison of the verifier is decided on aligned digits
    (`diff_valuation`), so verifying a parsed valid certificate builds no
    difference and strips no valuation."""
    params = DeformationParams(make_field(5, 5, 2, 32), d=4, n=n)
    pt = sample_point_on_V(params, seed=5, eigenvalues=spectrum)
    text = json.dumps(extend_to_canonical(connect_to_diagonal(pt)).to_json())
    cert = PathCertificate.from_json(json.loads(text))
    calls = []
    original = FieldDescriptor._dig_strip

    def counted(self, x, v):
        calls.append(v)
        return original(self, x, v)

    monkeypatch.setattr(FieldDescriptor, "_dig_strip", counted)
    assert verify_certificate(cert).passed
    assert calls == []


def test_parsed_certificate_shares_the_builders_field():
    cert = grid_certificate(*GRID[0])
    back = PathCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert back.start.params.field is cert.start.params.field
    assert back.end.params.field is cert.start.params.field


def test_parse_and_verify_leave_no_cyclic_garbage():
    """Parsing reuses the live field, so it builds no new field (and with it
    no field <-> cached element cycle) for the cyclic collector to free."""
    cert = grid_certificate(*GRID[0])  # keeps the field alive
    text = json.dumps(cert.to_json())
    gc.collect()
    gc.disable()
    try:
        assert verify_certificate(PathCertificate.from_json(json.loads(text))).passed
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_connect_makes_no_determinant_or_conjugation_of_its_own(monkeypatch):
    """connect_to_diagonal triangularizes and contracts; it takes no
    determinant and conjugates no point itself."""
    p, q, f0, n, N, d = GRID[1]
    params = DeformationParams(make_field(p, q, f0, N), d=d, n=n)
    pt = sample_point_on_V(params, seed=2, eigenvalues=list(range(1, n + 1)))
    calls = []
    for name in ("det", "conjugate_point"):
        original = getattr(paths, name)
        monkeypatch.setattr(paths, name, lambda *args, _name=name, _fn=original:
                            calls.append(_name) or _fn(*args))
    connect_to_diagonal(pt)
    assert calls == []


def test_connect_expands_the_characteristic_polynomial_once(monkeypatch):
    """Eigenvalue detection and every eigenspace's multiplicity check share
    one charpoly expansion of M_1 (a determinant over Poly)."""
    p, q, f0, n, N, d = GRID[1]
    params = DeformationParams(make_field(p, q, f0, N), d=d, n=n)
    pt = sample_point_on_V(params, seed=2, eigenvalues=list(range(1, n + 1)))
    calls = []
    original = linalg.det

    def counted(m):
        if isinstance(m.rows[0][0], linalg.Poly):
            calls.append(m)
        return original(m)

    monkeypatch.setattr(linalg, "det", counted)
    connect_to_diagonal(pt)
    assert len(calls) == 1
    m1, zero = pt.matrices[0], params.field.zero()
    assert all(calls[0].rows[i][j](zero) == -m1.rows[i][j]
               for i in range(n) for j in range(n))


@pytest.mark.parametrize("where", ["end point", "cited start", "cited end"])
def test_points_with_other_parameters_fail_clause_c(where):
    """A stored point whose parameters differ from the start's is not
    compared with the chain; it fails one clause-c entry.  The chain does
    not pass through a cited end of other parameters, so it then misses the
    stored end point."""
    blob = grid_certificate(*GRID[0]).to_json()
    cited = next(s for s in blob["segments"] if s["kind"] == "cited")
    point = {"end point": blob["end"], "cited start": cited["start"],
             "cited end": cited["end"]}[where]
    point["params"]["N"] = 37
    report = verify_certificate(PathCertificate.from_json(blob))
    want = [("c", f"{where} parameters differ from the start's")]
    if where == "cited end":
        want.append(("c", "chain reaches the stored end point"))
    assert [(e.clause, e.detail) for e in report.entries if not e.ok] == want


# --- diagonal root-of-unity points: the input of the cited merges ---------------


DIAG_PARAMS = DeformationParams(make_field(5, 5, 2, 32), d=4, n=2)
DEFECTS = ["partner", "off-diagonal", "not-a-root"]


def diagonal_point(defect=None):
    """diag(zeta, 1) with identity partners, or that point with one defect
    that makes it no diagonal root-of-unity point."""
    f = DIAG_PARAMS.field
    one, zero, pi = f.one(), f.zero(), f.uniformizer()
    m1 = [[f.zeta(), zero], [zero, one]]
    partner = Mat.identity(f, 2)
    if defect == "partner":
        partner = Mat(f, [[one, pi], [zero, one]])
    elif defect == "off-diagonal":
        m1[0][1] = pi
    elif defect == "not-a-root":
        m1[1][1] = one + pi * pi
    return DeformationPoint(DIAG_PARAMS, [Mat(f, m1), partner]
                            + [Mat.identity(f, 2)] * (DIAG_PARAMS.tuple_length - 2))


@pytest.mark.parametrize("defect", DEFECTS)
def test_normalize_and_cite_needs_a_diagonal_root_of_unity_point(defect):
    label = label_for_index(DIAG_PARAMS.field, 1)
    assert normalize_and_cite(diagonal_point(), label).end.eq_at(diagonal_point())
    with pytest.raises(PreconditionError):
        normalize_and_cite(diagonal_point(defect), label)


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("defect", [None] + DEFECTS)
def test_cited_endpoints_must_be_diagonal_root_of_unity_points(defect, which):
    ends = [diagonal_point(), diagonal_point()]
    ends[which] = diagonal_point(defect)
    seg = CitedEquivalence(BJ_STATEMENT_ID, BJ_SOURCE, *ends)
    cert = PathCertificate(ends[0], (seg,), ends[1],
                           label_for_index(DIAG_PARAMS.field, 1))
    shape = "endpoints are diagonal root-of-unity points"
    want = [(True, "admissible citation"), (defect is None, shape)]
    if defect is None:
        want.append((True, "label product preserved"))
    assert [(e.ok, e.detail) for e in verify_certificate(cert).entries
            if e.clause == "e"] == want
