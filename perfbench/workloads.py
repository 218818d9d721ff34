"""Workloads, inputs, output checks and the measured loop of the benchmark.

One operation is one verdict: the valid certificate of a sampled point
(sample, build, JSON round trip, verify) or one tampered copy of it.  A
round takes one point of every spectrum shape of the workload through the
pipeline together with the tampered copies assigned to it, so every round
attempts the same operations in the same order.  The program receives only
the generated inputs; every check below is computed by the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import json
import random
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass

from demuskin import deformation, localring, paths
from demuskin.linalg import Mat, Poly

# Tamper kind -> the verifier clause on which the copy must fail.
TAMPERS = {
    "wrong_label": "d",
    "perturbed_g": "c",
    "nonintegral_g": "a",
    "perturbed_coeff": "b",
    "bad_citation": "e",
    "dropped_segment": "c",
}

# Forged certificates that a sound and total verifier rejects.  Today each
# fails every time (ROADMAP item 3), so each is one failed operation per
# round of the workloads that carry them: "soundness" is accepted although
# M_2(t) = I + (t - t^2) E_01 leaves 1 + M_n(m) at t = 2, and "totality"
# makes the verifier raise because the t = 0 end of I + (1 - t) E_01 leaves
# 1 + M_n(m).
FAULTS = ("soundness", "totality")


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    q: int
    f0: int
    N: int
    d: int
    n: int
    shapes: tuple          # (eigenvalue multiplicities, last label is 0)
    tampers: tuple         # tamper kinds verified for every point
    faults: tuple          # forged certificates verified once per round
    trace_rounds: int      # rounds of a traced run


WORKLOADS = {
    w.name: w for w in (
        Workload("deep-precision", p=5, q=5, f0=2, N=1024, d=4, n=2,
                 shapes=(((1, 1), True), ((1, 1), False)),
                 tampers=("perturbed_coeff",), faults=(), trace_rounds=20),
        Workload("wide-matrix", p=7, q=7, f0=2, N=36, d=6, n=6,
                 shapes=(((3, 1, 1, 1), True),),
                 tampers=("perturbed_coeff",), faults=(), trace_rounds=8),
        Workload("verify-tamper", p=5, q=5, f0=2, N=32, d=4, n=3,
                 shapes=(((2, 1), True),),
                 tampers=tuple(TAMPERS), faults=FAULTS, trace_rounds=60),
    )
}

# The smallest inputs, for the benchmark's self-test only.
SMOKE = Workload("smoke", p=5, q=5, f0=2, N=32, d=4, n=2,
                 shapes=(((2,), False), ((1, 1), True)),
                 tampers=tuple(TAMPERS), faults=FAULTS, trace_rounds=2)


# --- inputs -------------------------------------------------------------------


def spectrum(rng, q, shape):
    """Eigenvalue label multiset with the given multiplicities, drawn from
    rng.  The labels are distinct; with `with_zero` the last one is 0 and the
    others are nonzero.  A draw is repeated until every trailing sum of the
    descending labels that is not over zeros alone is nonzero mod q: such a
    sum is the label that one cited merge produces, so every certificate of
    a shape has the same number of segments."""
    mults, with_zero = shape
    while True:
        labels = rng.sample(range(1, q), len(mults) - with_zero) + [0] * with_zero
        spec = [lab for lab, m in zip(labels, mults) for _ in range(m)]
        desc = sorted(spec, reverse=True)
        if all(sum(desc[s:]) % q for s in range(1, len(desc)) if any(desc[s:])):
            return spec


def round_inputs(wl, seed, r):
    """(spectrum, sampler seed) for each point of round r."""
    rng = random.Random(f"{wl.name}:{seed}:{r}")
    return [(spectrum(rng, wl.q, shape), rng.randrange(2 ** 32))
            for shape in wl.shapes]


def tampered_text(kind, cert):
    """JSON text of a tampered copy of a parsed valid certificate."""
    f = cert.start.params.field
    pi = f.uniformizer()
    segs = list(cert.segments)
    label = cert.label
    if kind == "wrong_label":
        label = deformation.label_for_index(f, label.index + 1)
    elif kind in ("perturbed_g", "nonintegral_g"):
        rows = [list(r) for r in segs[0].g.rows]
        if kind == "perturbed_g":
            rows[-1][0] = rows[-1][0] + pi
        else:
            rows[0][0] = pi.inv()
        segs[0] = paths.ConjugationMove(Mat(f, rows))
    elif kind == "perturbed_coeff":
        slots = list(segs[1].slots)
        m1 = [list(row) for row in slots[0]]
        coeffs = list(m1[0][1].coeffs)
        if len(coeffs) < 2:
            coeffs.append(f.zero())
        coeffs[1] = coeffs[1] + pi
        m1[0][1] = Poly(f, coeffs)
        slots[0] = tuple(tuple(row) for row in m1)
        segs[1] = paths.PolynomialPath(tuple(slots))
    elif kind == "bad_citation":
        segs.append(paths.CitedEquivalence("unproven-merge", paths.BJ_SOURCE,
                                           cert.end, cert.end))
    elif kind == "dropped_segment":
        del segs[1]
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    forged = paths.PathCertificate(cert.start, tuple(segs), cert.end, label)
    return json.dumps(forged.to_json())


def forged_text(fault, params):
    """JSON text of a seed-independent forged certificate from the identity
    point to itself through one polynomial segment."""
    f = params.field
    n = params.n
    one, zero = f.one(), f.zero()
    ident_slot = tuple(tuple(Poly.const(f, one if i == j else zero)
                             for j in range(n)) for i in range(n))
    if fault == "soundness":
        entry = Poly(f, (zero, one, -one))          # t - t^2
    elif fault == "totality":
        entry = Poly(f, (one, -one))                # 1 - t
    else:
        raise ValueError(f"unknown fault {fault!r}")
    m2 = [list(row) for row in ident_slot]
    m2[0][1] = entry
    slots = (ident_slot, tuple(tuple(r) for r in m2)) \
        + (ident_slot,) * (params.tuple_length - 2)
    point = deformation.DeformationPoint(
        params, [Mat.identity(f, n)] * params.tuple_length)
    cert = paths.PathCertificate(point, (paths.PolynomialPath(slots),), point,
                                 deformation.label_for_index(f, 0))
    return json.dumps(cert.to_json())


# --- checks -------------------------------------------------------------------
# Each returns None when the output is right and a reason when it is not.


def check_label(cert, spec, q):
    want = sum(spec) % q
    if cert.label.index != want:
        return f"label {cert.label.index}, sampled spectrum gives {want}"
    return None


def check_diagonal(diag_point, spec):
    """M_1 at the diagonal point is diag(zeta^k) over the sampled labels k,
    in descending order, at the field's threshold."""
    m1 = diag_point.matrices[0]
    f = m1.field
    mus = localring.enumerate_mu_q(f)
    want = sorted(spec, reverse=True)
    for i in range(m1.n):
        for j in range(m1.n):
            target = mus[want[i]] if i == j else f.zero()
            if (m1.rows[i][j] - target).valuation() < f.tau:
                return f"diagonal point entry ({i},{j}) is not the sampled spectrum"
    return None


def check_valid(report, text, back_text):
    if not report.passed:
        return f"valid certificate failed clauses {report.failed_clauses()}"
    if back_text != text:
        return "JSON round trip is not byte-identical"
    return None


def check_rejected(report, clause):
    if report.passed:
        return "tampered certificate passed"
    if clause not in report.failed_clauses():
        return f"failed on {report.failed_clauses()}, not on clause {clause}"
    return None


# --- the measured loop ----------------------------------------------------------


class Result:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []          # failed output checks
        self.points = 0
        self.verdicts = 0
        self.busy_s = 0.0         # program time of the operations that did not fail
        self.verdict_s = 0.0      # parse + verify time of those verdicts
        self.cert_bytes = []
        self.segments = 0         # segments of the valid certificates
        self.entries = Counter()  # verifier report entries per clause
        self.rounds = []          # per round: {stage: [seconds, ...]}

    def stage(self, name):
        return self.rounds[-1].setdefault(name, [])


def setup(wl):
    """Field, parameters and fixed inputs of a workload; warms the root
    tables the field caches."""
    f = localring.make_field(wl.p, wl.q, wl.f0, wl.N)
    params = deformation.DeformationParams(f, d=wl.d, n=wl.n)
    localring.enumerate_mu_q(f)
    forged = {fault: forged_text(fault, params) for fault in wl.faults}
    return params, forged


def run(wl, params, forged, seed, seconds, tracer=None, rounds=None):
    """Run whole rounds until `seconds` have passed (at least one), or
    exactly `rounds` rounds when given."""
    res = Result()
    start = time.perf_counter()
    r = 0
    while True:
        record = (functools.partial(tracer.recording, r) if tracer
                  else contextlib.nullcontext)
        _round(wl, params, forged, seed, r, res, record)
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return res


def _round(wl, params, forged, seed, r, res, record):
    res.rounds.append({})
    for spec, point_seed in round_inputs(wl, seed, r):
        ops = 1 + len(wl.tampers)
        res.attempted += ops
        try:
            _point(wl, params, spec, point_seed, res, record)
        except Exception as exc:  # a program failure on a generated input
            res.failed += ops
            print(f"{wl.name}: point {spec} seed {point_seed}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
    for fault in wl.faults:
        res.attempted += 1
        _fault(fault, forged[fault], res, record)


def _timed(record, fn, *args):
    with record():
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0


def _point(wl, params, spec, point_seed, res, record):
    """One point through the pipeline, then its tampered copies.  Nothing
    is added to `res` until every program call has returned."""
    pt, t_sample = _timed(record, _sample, params, point_seed, spec)
    diag_cert, t_connect = _timed(record, paths.connect_to_diagonal, pt)
    cert, t_extend = _timed(record, paths.extend_to_canonical, diag_cert)
    text, t_dump = _timed(record, lambda c: json.dumps(c.to_json()), cert)
    back, t_parse = _timed(record, _parse, text)
    report, t_verify = _timed(record, paths.verify_certificate, back)
    errors = [check_label(cert, spec, params.q),
              check_diagonal(diag_cert.end, spec),
              check_valid(report, text, json.dumps(back.to_json()))]
    entries = Counter(e.clause for e in report.entries)
    verdict_s = [t_parse + t_verify]
    reject_s = []
    for kind in wl.tampers:
        bad = tampered_text(kind, _parse(text))
        copy, t_parse_bad = _timed(record, _parse, bad)
        bad_report, t_reject = _timed(record, paths.verify_certificate, copy)
        errors.append(check_rejected(bad_report, TAMPERS[kind]))
        entries.update(e.clause for e in bad_report.entries)
        verdict_s.append(t_parse_bad + t_reject)
        reject_s.append(t_reject)

    res.errors.extend(e for e in errors if e is not None)
    res.entries.update(entries)
    res.stage("build").append(t_connect + t_extend)
    res.stage("verify").append(t_verify)
    res.stage("roundtrip").append(t_dump + t_parse)
    res.stage("reject").extend(reject_s)
    res.cert_bytes.append(len(text))
    res.segments += len(cert.segments)
    res.points += 1
    res.verdicts += len(verdict_s)
    res.verdict_s += sum(verdict_s)
    res.busy_s += t_sample + t_connect + t_extend + t_dump + sum(verdict_s)


def _fault(fault, text, res, record):
    """A forged certificate counts as failed while the verifier accepts it
    or raises; once rejected it is an ordinary rejection verdict."""
    try:
        copy, t_parse = _timed(record, _parse, text)
        report, t_verify = _timed(record, paths.verify_certificate, copy)
    except localring.LocalFieldError:
        res.failed += 1
        return
    res.entries.update(e.clause for e in report.entries)
    if report.passed:
        res.failed += 1
        return
    res.stage("reject").append(t_verify)
    res.busy_s += t_parse + t_verify
    res.verdicts += 1
    res.verdict_s += t_parse + t_verify


def _sample(params, point_seed, spec):
    return deformation.sample_point_on_V(params, seed=point_seed, eigenvalues=spec)


def _parse(text):
    return paths.PathCertificate.from_json(json.loads(text))


# --- metrics ------------------------------------------------------------------


def round_median(res, stage):
    """Median over rounds of the mean time of one call in the round."""
    means = [statistics.fmean(r[stage]) for r in res.rounds if r.get(stage)]
    return statistics.median(means)


def end_to_end(res, setup_s, peak_rss_mb):
    return {
        "setup_s": (setup_s, "s"),
        "certs_per_s": (res.points / res.busy_s, "1/s"),
        "verdicts_per_s": (res.verdicts / res.verdict_s, "1/s"),
        "build_s.p50": (round_median(res, "build"), "s"),
        "verify_s.p50": (round_median(res, "verify"), "s"),
        "reject_s.p50": (round_median(res, "reject"), "s"),
        "roundtrip_s.p50": (round_median(res, "roundtrip"), "s"),
        "cert_bytes": (statistics.fmean(res.cert_bytes), "bytes"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
