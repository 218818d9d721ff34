"""Fast self-test of the benchmark on its smallest inputs.

    python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_source()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from demuskin import deformation, paths  # noqa: E402

WL = workloads.SMOKE


@pytest.fixture(scope="module")
def setup():
    return workloads.setup(WL)


@pytest.fixture(scope="module")
def point(setup):
    """A valid certificate, its parse, report and inputs."""
    params, _ = setup
    spec, seed = workloads.round_inputs(WL, 7, 0)[1]
    pt = deformation.sample_point_on_V(params, seed=seed, eigenvalues=spec)
    diag = paths.connect_to_diagonal(pt)
    cert = paths.extend_to_canonical(diag)
    text = json.dumps(cert.to_json())
    back = paths.PathCertificate.from_json(json.loads(text))
    return spec, diag, cert, text, back, paths.verify_certificate(back)


def test_checks_pass_on_right_outputs(setup, point):
    params, _ = setup
    spec, diag, cert, text, back, report = point
    assert workloads.check_label(cert, spec, params.q) is None
    assert workloads.check_diagonal(diag.end, spec) is None
    assert workloads.check_valid(report, text, json.dumps(back.to_json())) is None
    for kind, clause in workloads.TAMPERS.items():
        bad = workloads.tampered_text(kind, paths.PathCertificate.from_json(json.loads(text)))
        rep = paths.verify_certificate(paths.PathCertificate.from_json(json.loads(bad)))
        assert workloads.check_rejected(rep, clause) is None, kind


def test_each_check_fires_on_a_corrupted_output(setup, point):
    params, _ = setup
    spec, diag, cert, text, back, report = point
    f = params.field
    wrong = paths.PathCertificate(cert.start, cert.segments, cert.end,
                                  deformation.label_for_index(f, cert.label.index + 1))
    assert workloads.check_label(wrong, spec, params.q)
    shifted = [(k + 1) % params.q for k in spec]
    assert workloads.check_diagonal(diag.end, shifted)
    assert workloads.check_valid(report, text, text + " ")
    bad = workloads.tampered_text("wrong_label", back)
    bad_report = paths.verify_certificate(paths.PathCertificate.from_json(json.loads(bad)))
    assert workloads.check_valid(bad_report, bad, bad)
    assert workloads.check_rejected(report, "d")
    assert workloads.check_rejected(bad_report, "a")


def test_failed_operations_are_the_named_faults(setup):
    params, forged = setup
    res = workloads.run(WL, params, forged, seed=3, seconds=0, rounds=2)
    per_round = len(WL.shapes) * (1 + len(WL.tampers)) + len(WL.faults)
    assert not res.errors
    assert res.attempted == 2 * per_round
    assert res.failed == 2 * len(workloads.FAULTS)


def _traced_counts(params, forged):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.run(WL, params, forged, seed=5, seconds=0, tracer=tracer,
                      rounds=WL.trace_rounds)
    finally:
        tracer.uninstall()
    counts = {k: v for k, (v, unit) in tracer.metrics().items() if unit == "count"}
    return counts, tracer


def test_two_traced_runs_give_identical_counts(setup):
    params, forged = setup
    first, tracer = _traced_counts(params, forged)
    second, _ = _traced_counts(params, forged)
    assert first == second
    for layer in ("localring.mul", "linalg.det", "deformation.sample",
                  "paths.verify"):
        assert first[layer + ".calls"] > 0
    assert first["linalg.det.muls"] > 0
    # uninstalled: the package's own functions are back
    assert not hasattr(paths.verify_certificate, "__wrapped__")
    assert not hasattr(paths.PathCertificate.from_json, "__wrapped__")
    # every kept span closed after it opened, inside its parent
    for i, parent in enumerate(tracer.span_parent):
        assert tracer.span_start[i] <= tracer.span_end[i]
        if parent >= 0:
            assert tracer.span_start[parent] <= tracer.span_start[i]
            assert tracer.span_end[i] <= tracer.span_end[parent]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "verify-tamper", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert out.stdout == ""
