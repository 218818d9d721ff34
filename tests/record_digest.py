"""Print a digest of the bytes the pipeline publishes on the bench inputs.

    PYTHONPATH=src python tests/record_digest.py

For every benchmark workload, seeds 1-3 and rounds 0-2, in that order, it
takes each point of the round through sample, `connect_to_diagonal`,
`extend_to_canonical` and `verify_certificate` on the parsed JSON, as the
benchmark does, then each tampered copy the workload runs, then each forged
certificate.  The records are the certificate JSON and the verification
report JSON of the valid certificate and of each tampered copy, and the
report JSON of each forged certificate ("Type: message" when verification
raises).  For each workload it prints one line of exact call counts over
its records, `<workload> calls _dig_strip=<n> _reduce_packed=<n>
_reduce_columns=<n> _fold=<n> element=<n>` (the `FieldDescriptor` methods
of that name; `_reduce_columns` counts the products and dot blocks the
column kernel forms, nonzero only on fields that multiply by a-columns;
`_fold` counts the pi-shifts of `_shift_up`, the only schoolbook fold left,
since products and dot blocks fold on the packed integer), then the
precision ledger `<workload> horizon <n>`: the least h - N over the
elements `to_json` published and the decisions (`is_zero`, `valuation`,
`diff_valuation`) that returned, h being the knowledge horizon the element
or the compared pair carries; a negative n would be a decision or a
published digit past N on an element known below N.  Then one line
`<workload> reports <count> <sha256>` over its report records only, then
one line `<workload> <count> <sha256>` over all its records; last, the
total record count and the sha256 over all the records, each followed by
a newline.  Two trees publish the same bytes on these inputs when they
print the same last line, and the same verdicts and reports when they
print the same `reports` lines, whatever their certificate format; the
workload lines show where bytes differ, and the counts how much stripping
and reducing it took.
"""

import contextlib
import hashlib
import json
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from demuskin import deformation, localring, paths  # noqa: E402

SEEDS = (1, 2, 3)
ROUNDS = (0, 1, 2)
COUNTED = ("_dig_strip", "_reduce_packed", "_reduce_columns", "_fold", "element")


def count_calls():
    """Wrap the COUNTED FieldDescriptor methods; returns the live counts."""
    counts = dict.fromkeys(COUNTED, 0)

    def wrap(name):
        method = getattr(localring.FieldDescriptor, name)

        def counted(self, *args, **kwargs):
            counts[name] += 1
            return method(self, *args, **kwargs)

        setattr(localring.FieldDescriptor, name, counted)

    for name in COUNTED:
        wrap(name)
    return counts


@contextlib.contextmanager
def horizon_ledger():
    """Wrap `LocalElement.to_json` and the decisions on LocalElements from
    outside while the block runs; yields a one-item list holding the least
    h - N seen (math.inf when none was)."""
    low = [math.inf]
    cls = localring.LocalElement
    saved = {name: cls.__dict__[name]
             for name in ("to_json", "is_zero", "valuation", "diff_valuation")}

    def wrap(method, pair):
        def watched(self, *args):
            out = method(self, *args)
            h = self.h
            if pair:
                h = min(h, localring._coerce(self.field, args[0]).h)
            low[0] = min(low[0], h - self.field.N)
            return out
        return watched

    for name, method in saved.items():
        setattr(cls, name, wrap(method, name == "diff_valuation"))
    try:
        yield low
    finally:
        for name, method in saved.items():
            setattr(cls, name, method)


def parse(text):
    return paths.PathCertificate.from_json(json.loads(text))


def verdict(text):
    try:
        report = paths.verify_certificate(parse(text))
    except localring.LocalFieldError as exc:  # the verifier's totality fault
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(report.to_json())


def records(wl):
    """(is a report, record) pairs of one workload."""
    params, forged = workloads.setup(wl)
    for seed in SEEDS:
        for r in ROUNDS:
            for spec, point_seed in workloads.round_inputs(wl, seed, r):
                pt = deformation.sample_point_on_V(params, seed=point_seed, eigenvalues=spec)
                cert = paths.extend_to_canonical(paths.connect_to_diagonal(pt))
                text = json.dumps(cert.to_json())
                yield False, text
                yield True, verdict(text)
                for kind in wl.tampers:
                    bad = workloads.tampered_text(kind, parse(text))
                    yield False, bad
                    yield True, verdict(bad)
            for fault in wl.faults:
                yield True, verdict(forged[fault])


def main():
    calls = count_calls()
    total = hashlib.sha256()
    count = 0
    for name, wl in workloads.WORKLOADS.items():
        calls.update(dict.fromkeys(calls, 0))
        digest, reports = hashlib.sha256(), hashlib.sha256()
        records_before, report_count = count, 0
        with horizon_ledger() as low:
            for is_report, rec in records(wl):
                line = rec.encode() + b"\n"
                digest.update(line)
                total.update(line)
                count += 1
                if is_report:
                    reports.update(line)
                    report_count += 1
        print(f"{name} calls " + " ".join(f"{k}={v}" for k, v in calls.items()))
        print(f"{name} horizon {low[0]}")
        print(f"{name} reports {report_count} {reports.hexdigest()}")
        print(f"{name} {count - records_before} {digest.hexdigest()}")
    print(f"{count} records sha256 {total.hexdigest()}")


if __name__ == "__main__":
    main()
