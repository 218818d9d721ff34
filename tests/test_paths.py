import functools
import gc
import hashlib
import json
import math
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from demuskin import deformation, linalg, paths
from demuskin.localring import FieldDescriptor, LocalElement, make_field
from demuskin.linalg import Mat
from demuskin.deformation import (
    DeformationParams,
    DeformationPoint,
    PreconditionError,
    conjugate_point,
    label_for_index,
    sample_point_on_V,
)
from demuskin.paths import (
    BJ_SOURCE,
    BJ_STATEMENT_ID,
    CertificateFormatError,
    CitedEquivalence,
    ConjugationMove,
    PathCertificate,
    PolynomialPath,
    connect_to_diagonal,
    extend_to_canonical,
    normalize_and_cite,
    verify_certificate,
)
from record_digest import horizon_ledger
import workloads  # noqa: E402  (perfbench/, on the path record_digest sets)

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
        "4f2e636aaa4df67c30ed36d05b2dbd80c1f7221d957d8d7542c8b66b0e811c9b",
        "ec4202b3e6b8273b0035c5fac0fd9ef3b0e0c11d74bc15a37192667e8b6b5056"),
    (5, 5, 2, 3, 32, 4): (
        "da3d875d55f80239560a3baf94f8ca8353de13e504edd0c1cdd0b135354986fe",
        "334d526fc9ab2fc183b78a6dfbdd70325ef93d3814115cc81aa2fe7e90324b1a"),
    (3, 3, 2, 2, 32, 2): (
        "cb93b0e0c32ceb910adab6f34d546ba320eeade804ef54b3bc3f93a995920e05",
        "20ab0863bfc5826163d5aedfeaaa7a5d9a294c0f6b2b3e9cc14fc3afff46ffd4"),
    (5, 5, 2, 2, 1024, 4): (
        "9e33fa4bbfc32efd27a23c474b09ce21f2b4f7c2b406fc39d0a02490664cb1da",
        "ec4202b3e6b8273b0035c5fac0fd9ef3b0e0c11d74bc15a37192667e8b6b5056"),
    (7, 7, 2, 4, 36, 6): (
        "1e5247dd35e8d37420cb00520017fcd81a69d33478bdac7ebef8c98ec149a694",
        "6cab89360e2270a58c5d07f00a4ec9c7a35bdcab3548a6abd28f0309c96ec867"),
    (7, 7, 2, 5, 36, 6): (
        "d9736319e5be28b37137831e4aeb7ebc57380e699bd1655a168a8ab3a556a21b",
        "63bc16245b7bf7200d4f110a9f6fbd5ef75b0b7ca8b64fa42e4e91a14697bd90"),
    (7, 7, 2, 6, 36, 6): (
        "56f97cfd8b873bb1ff1f47f82906afa329d4bef7230097e19004ca632bc304f9",
        "2de7bee040da0424d2591cf5c215e1dd5266d501c221b9283403e52cd06e1759"),
}


# A field whose publication precision is its own N: e = 20 and tau = 60,
# so the 4e floor keeps N' = N = 80.
FLOOR_GRID = [(5, 25, 1, 2, 80, 20)]


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


@pytest.mark.parametrize("point", GRID)
def test_no_lift_digit_is_read_or_published(point):
    """The precision ledger of `record_digest.py` over building,
    publishing, parsing and verifying a grid certificate: every element
    published is known at the precision N' it is written at, and every
    decision taken at its field's N, h - N' >= 0 and h - N >= 0."""
    with horizon_ledger() as low:
        text = json.dumps(grid_certificate(*point).to_json())
        assert verify_certificate(PathCertificate.from_json(json.loads(text))).passed
    assert 0 <= low[0] < math.inf


@pytest.mark.parametrize("point", GRID + INERT_GRID + FLOOR_GRID)
def test_parsed_certificate_gets_the_built_certificates_report(point):
    """Verified in the publication field, a parsed certificate gets the
    report bytes of the built one, verified in the builder's field."""
    cert = grid_certificate(*point)
    f = cert.start.params.field
    back = PathCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert back.start.params.field is f.published()
    if point in FLOOR_GRID:
        assert f.published() is f
    assert (json.dumps(verify_certificate(back).to_json())
            == json.dumps(verify_certificate(cert).to_json()))


@pytest.mark.parametrize("point", GRID)
def test_verifier_computes_in_the_publication_field(monkeypatch, point):
    """Verifying a parsed certificate builds every element in the
    publication field, below the builder's precision on every grid point,
    none nonzero at a negative shift, and decides nothing and publishes
    nothing past N'."""
    text = json.dumps(grid_certificate(*point).to_json())
    cert = PathCertificate.from_json(json.loads(text))
    pub = cert.start.params.field
    built = []
    original = LocalElement.__init__

    def watched(self, field, shift, digits, *args, **kwargs):
        built.append((field, shift, any(digits)))
        original(self, field, shift, digits, *args, **kwargs)

    monkeypatch.setattr(LocalElement, "__init__", watched)
    with horizon_ledger() as low:
        assert verify_certificate(cert).passed
    assert built and all(f is pub for f, _, _ in built)
    assert all(shift >= 0 for _, shift, nonzero in built if nonzero)
    assert pub.N < point[4]
    assert 0 <= low[0] < math.inf


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
    """A certificate is read into its builder's publication field, the
    shared field of precision N' and the same tau, which writes itself
    and which the building field keeps alive, so parsing builds none."""
    cert = grid_certificate(*GRID[0])
    ref = weakref.ref(cert.start.params.field.published())
    gc.collect()
    pub = ref()
    assert pub is not None and (pub.N, pub.tau) == (24, 24)
    back = PathCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert back.start.params.field is pub
    assert back.end.params.field is pub
    assert pub.published() is pub


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


# --- the certificate format ------------------------------------------------------


def certificate_elements(cert):
    """Every element a certificate stores: the segments' g and slot
    coefficients, then the start, end and cited points' entries."""
    points = [cert.start, cert.end]
    for seg in cert.segments:
        if isinstance(seg, ConjugationMove):
            yield from (x for r in seg.g.rows for x in r)
        elif isinstance(seg, PolynomialPath):
            yield from (c for slot in seg.slots for row in slot for p in row for c in p.coeffs)
        else:
            points += [seg.start, seg.end]
    for pt in points:
        yield from (x for m in pt.matrices for r in m.rows for x in r)


@pytest.mark.parametrize("p,q,f0,n,N,d", GRID + INERT_GRID)
def test_certificate_is_lossless_at_N(p, q, f0, n, N, d):
    """Every parsed element, lifted back into the builder's field, agrees
    with the built one mod pi^N', the certificate's N."""
    cert = grid_certificate(p, q, f0, n, N, d)
    f = cert.start.params.field
    back = PathCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    Np = back.start.params.field.N
    assert Np == f.published().N <= N
    assert back.label == cert.label
    assert [s.kind for s in back.segments] == [s.kind for s in cert.segments]
    built, parsed = list(certificate_elements(cert)), list(certificate_elements(back))
    assert len(parsed) == len(built)
    assert any(x.is_zero() for x in built)
    assert all(x.diff_valuation(f.element(y.shift, y.digits)) >= Np
               for x, y in zip(built, parsed))


def test_an_element_that_vanishes_at_N_prime_is_written_as_zero():
    """On (5,5,2,32), N' = 24 and v(5) = e = 4: 5^6 and 5^7 are nonzero
    at N but zero at N', so a certificate writes them as `0`, the form the
    publication field reads; 5^5 is written with its digits."""
    f = make_field(5, 5, 2, 32)
    pub = f.published()
    for k in (6, 7):
        x = f.from_int(5 ** k)
        assert not x.is_zero() and x.to_json(pub.N) == 0
    blob = f.from_int(5 ** 5).to_json(pub.N)
    assert LocalElement.from_json(pub, blob) == pub.from_int(5 ** 5)


def assert_certificate_closes(pt):
    """The certificate of pt verifies, and so does its parsed JSON, which
    writes the same bytes back."""
    cert = extend_to_canonical(connect_to_diagonal(pt))
    assert verify_certificate(cert).passed
    text = json.dumps(cert.to_json())
    back = PathCertificate.from_json(json.loads(text))
    assert verify_certificate(back).passed
    assert json.dumps(back.to_json()) == text


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p,q,f0,N,d", [(5, 5, 2, 32, 4), (3, 3, 1, 32, 2), (7, 7, 1, 36, 6)])
def test_certificates_of_every_matrix_size_verify(p, q, f0, N, d, n, seed):
    """At n = 1 the contract segment's M_2(t) = 1 + t m still has degree
    1, so the verifier's degree cap is never below 1."""
    params = DeformationParams(make_field(p, q, f0, N), d=d, n=n)
    assert_certificate_closes(
        sample_point_on_V(params, seed=seed, eigenvalues=list(range(1, n + 1))))


# Every field (p, q, f0, N) of the advertised domain that is tested, with
# d = e: q from 3 to 27, e from 2 to 20, f0 up to 3.
DOMAIN_FIELDS = [(3, 3, 1, 32), (3, 3, 2, 32), (3, 9, 1, 48), (5, 5, 1, 32), (5, 5, 2, 32),
                 (5, 5, 3, 32), (5, 25, 1, 80), (7, 7, 1, 36), (7, 7, 2, 36), (3, 27, 1, 72),
                 (11, 11, 1, 40)]


@st.composite
def domain_point(draw):
    """A sampled point on any domain field, with n from 1 to min(p - 1, 4)
    and any spectrum."""
    p, q, f0, N = draw(st.sampled_from(DOMAIN_FIELDS))
    f = make_field(p, q, f0, N)
    n = draw(st.integers(1, min(p - 1, 4)))
    spectrum = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    params = DeformationParams(f, d=f.e, n=n)
    return sample_point_on_V(params, seed=draw(st.integers(0, 2 ** 32)), eigenvalues=spectrum)


@settings(max_examples=60, deadline=None)
@given(pt=domain_point())
def test_every_advertised_parameter_set_closes(pt):
    """q >= 3 and p > n are all that connect_to_diagonal asks: every such
    sampled point gets a certificate that verifies and round-trips, and
    no decision exhausts the precision."""
    assert_certificate_closes(pt)


def non_semisimple_point(p, q, f0, N, seed):
    """M_1 = I + x E_01 with x in m and M_2 = diag(q + 1, 1), so that
    M_2 M_1 M_2^-1 = M_1^(q+1), conjugated by a random g in 1 + M_2(m): a
    point of V whose M_1 the sampler never draws."""
    f = make_field(p, q, f0, N)
    params = DeformationParams(f, d=f.e, n=2)
    rng = random.Random(seed)
    one, zero, pi = f.one(), f.zero(), f.uniformizer()
    x = pi * f.from_int(rng.randrange(1, p ** 4))
    m1 = Mat(f, [[one, x], [zero, one]])
    m2 = Mat.diag(f, [f.from_int(q + 1), one])
    g = Mat(f, [[(one if i == j else zero) + pi * f.from_int(rng.randrange(p ** 4))
                 for j in range(2)] for i in range(2)])
    pt = DeformationPoint(params, [m1, m2] + [Mat.identity(f, 2)] * (params.tuple_length - 2))
    return conjugate_point(pt, g)


@pytest.mark.parametrize("p,q,f0,N,seed", [(5, 5, 2, 32, 1), (3, 3, 1, 32, 2),
                                           (7, 7, 1, 36, 3)])
def test_non_semisimple_points_close(p, q, f0, N, seed):
    assert_certificate_closes(non_semisimple_point(p, q, f0, N, seed))


@functools.cache
def grid_text():
    return json.dumps(grid_certificate(*GRID[0]).to_json())


def leaf_paths(blob, path=()):
    """Key paths of the values of a JSON blob that are no dict or list."""
    for k, v in (blob.items() if isinstance(blob, dict) else enumerate(blob)):
        if isinstance(v, (dict, list)):
            yield from leaf_paths(v, path + (k,))
        else:
            yield path + (k,)


@functools.cache
def mutable_leaves():
    """Leaf paths outside params: a drawn f0 could make `make_field` search
    an irreducible polynomial of huge degree."""
    return [path for path in leaf_paths(json.loads(grid_text())) if path[0] != "params"]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_mutated_leaf_parses_or_fails_as_a_format_error(data):
    blob = json.loads(grid_text())
    *head, last = data.draw(st.sampled_from(mutable_leaves()))
    node = functools.reduce(lambda node, k: node[k], head, blob)
    node[last] = data.draw(st.one_of(st.integers(-3, 40), st.none(), st.just([]),
                                     st.sampled_from(["x", "0", "1", "05", "+5", " 5"])))
    try:
        cert = PathCertificate.from_json(blob)
    except CertificateFormatError:
        return
    assert json.dumps(cert.to_json()) == json.dumps(blob)


def _set(node, key, value):
    node[key] = value


MALFORMED = {
    "missing key": lambda b: b["segments"][0].pop("g"),
    "wrong type": lambda b: _set(b, "label", "1"),
    "wrong digit count": lambda b: b["start"][0][0][0].append("0"),
    "unknown kind": lambda b: _set(b["segments"][0], "kind", "shortcut"),
    "non-square row": lambda b: b["start"][0][0].append(0),
    "non-square slot row": lambda b: b["segments"][1]["slots"][0][0].append([0]),
    "point not congruent to I": lambda b: _set(b["start"][0][0], 1, b["start"][0][0][0]),
    "missing parameter": lambda b: b["params"].pop("tau"),
    "q = 2": lambda b: _set(b["params"], "q", 2),
    "N below the minimum": lambda b: b["params"].update(N=15, tau=12),
    "N not a multiple of e": lambda b: b["params"].update(N=33, tau=25),
    "tau below ceil(3N/4)": lambda b: _set(b["params"], "tau", 17),
    "tau above N": lambda b: _set(b["params"], "tau", 25),
    "N above the publication precision": lambda b: _set(b["params"], "N", 32),
    "label outside [0, q)": lambda b: _set(b, "label", 5),
    "digit string not canonical": lambda b: _set(b["start"][0][0][0], 1,
                                                 "0" + b["start"][0][0][0][1]),
    "digit not masked": lambda b: _set(b["start"][0][0][0], 1,
                                       str(int(b["start"][0][0][0][1]) + 5 ** 8)),
    "digit vector not a unit": lambda b: _set(b["start"][0][0][1], slice(1, 3), ["5", "5"]),
    "unknown key": lambda b: _set(b, "comment", "x"),
    "unknown parameter": lambda b: _set(b["params"], "G", 16),
    "unknown segment key": lambda b: _set(b["segments"][0], "note", 1),
    "keys out of order": lambda b: _set(b, "label", b.pop("label")),
    "empty polynomial": lambda b: _set(b["segments"][1]["slots"][0][1], 0, []),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_fails_as_a_format_error(case):
    blob = json.loads(grid_text())
    MALFORMED[case](blob)
    with pytest.raises(CertificateFormatError) as exc:
        PathCertificate.from_json(blob)
    assert exc.value.__cause__ is not None


@pytest.mark.parametrize("kind, clause", [("perturbed_coeff", "b"), ("perturbed_g", "c")])
def test_a_certificate_cannot_choose_its_own_threshold(kind, clause):
    """A tampered `verify-tamper` certificate fails at its tau = 24; the
    same text with any tau outside [ceil(3N/4), N] does not parse, so no
    text lowers the threshold its clauses are decided at."""
    wl = workloads.WORKLOADS["verify-tamper"]
    params = DeformationParams(make_field(wl.p, wl.q, wl.f0, wl.N), d=wl.d, n=wl.n)
    spec, seed = workloads.round_inputs(wl, 1, 0)[0]
    pt = sample_point_on_V(params, seed=seed, eigenvalues=spec)
    text = json.dumps(extend_to_canonical(connect_to_diagonal(pt)).to_json())
    blob = json.loads(workloads.tampered_text(kind, PathCertificate.from_json(json.loads(text))))
    assert (blob["params"]["N"], blob["params"]["tau"]) == (24, 24)
    assert clause in verify_certificate(PathCertificate.from_json(blob)).failed_clauses()
    for tau in (1, 0, -5, 17, 25):
        blob["params"]["tau"] = tau
        with pytest.raises(CertificateFormatError, match=r"outside \[ceil\(3N/4\), N\]"):
            PathCertificate.from_json(blob)


def test_N_must_be_the_publication_precision_of_tau():
    """N = 32 with tau = 24 is the older format, written at N: its digits
    are masked at 32 too, but the publication precision of tau = 24 is
    24, so it is refused, and every parsed certificate writes its own
    bytes back.  A field of low tau stays legal to build."""
    for N in (28, 32):
        blob = json.loads(grid_text())
        blob["params"]["N"] = N
        with pytest.raises(CertificateFormatError, match="above the publication precision 24"):
            PathCertificate.from_json(blob)
    low = make_field(5, 5, 2, 32, tau=3)
    assert (low.tau, low.published().N, low.published().tau) == (3, 16, 3)


@pytest.mark.parametrize("N, tau, match", [
    (32768, 24576, "above the publication precision 24576"),
    (32769, 24577, "not a multiple of e = 4"),
    (32768, 1, r"outside \[ceil\(3N/4\), N\]")])
def test_parameters_are_refused_before_a_field_is_built(monkeypatch, N, tau, match):
    """A text of 131 bytes can name any N: it is refused on its parameters
    alone, and parsing it builds no field."""
    built = []
    original = FieldDescriptor.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(FieldDescriptor, "__init__", counted)
    blob = {"params": {"p": 5, "q": 5, "f0": 2, "N": N, "tau": tau, "d": 4, "n": 2},
            "label": 0, "start": [], "end": [], "segments": []}
    with pytest.raises(CertificateFormatError, match=match):
        PathCertificate.from_json(blob)
    assert built == []


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
