"""Per-layer tracing of demuskin from outside the package.

The tracer replaces the public functions and operators of the four layers
(localring, linalg, deformation, paths) with wrappers for as long as it is
installed, and restores the originals afterwards.  Every wrapped call made
while recording is open counts as one call of its span name; its self time
is its duration minus the time of the traced calls made beneath it.

Calls of the linalg, deformation and paths layers are kept as spans
(name, start, end, parent, operation id) in flat lists and written out at
the end.  Element-level localring calls happen millions of times per run,
so they are aggregated into counts and self time instead of being stored
one by one; their time still counts as child time of the enclosing span.

A call nested directly inside a call of the same name is folded into it:
``a - b`` is one ``localring.add`` call, not a subtraction plus the
addition it delegates to.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

from demuskin import deformation, linalg, localring, paths

# (span name, owner, attribute).  An owner is a module or a class; a module
# function is also replaced wherever another demuskin module imported it.
TARGETS = (
    ("localring.mul", localring.LocalElement, "__mul__"),
    ("localring.mul", localring.LocalElement, "__rmul__"),
    ("localring.add", localring.LocalElement, "__add__"),
    ("localring.add", localring.LocalElement, "__radd__"),
    ("localring.add", localring.LocalElement, "__sub__"),
    ("localring.inv", localring.LocalElement, "inv"),
    ("localring.element", localring.FieldDescriptor, "element"),
    ("linalg.det", linalg, "det"),
    ("linalg.mat_inv", linalg, "mat_inv"),
    ("linalg.charpoly", linalg, "charpoly"),
    ("linalg.matmul", linalg.Mat, "__mul__"),
    ("linalg.kernel", linalg, "kernel_basis_at_threshold"),
    ("linalg.kernel", linalg, "solve_in_span"),
    ("linalg.rank", linalg, "rank_of_columns"),
    ("linalg.rank", linalg, "rank_at_threshold"),
    ("linalg.eigenspace", linalg, "generalized_eigenspace"),
    ("linalg.iwasawa", linalg, "iwasawa_decompose"),
    ("deformation.sample", deformation, "sample_point_on_V"),
    ("deformation.check_relation", deformation, "check_relation"),
    ("deformation.det_component", deformation, "det_component"),
    ("deformation.detect_eigenvalues", deformation, "detect_eigenvalues"),
    ("deformation.conjugate_point", deformation, "conjugate_point"),
    ("deformation.point_init", deformation.DeformationPoint, "__init__"),
    ("paths.connect", paths, "connect_to_diagonal"),
    ("paths.extend", paths, "extend_to_canonical"),
    ("paths.verify", paths, "verify_certificate"),
    ("paths.to_json", paths.PathCertificate, "to_json"),
    ("paths.from_json", paths.PathCertificate, "from_json"),
)

# Spans under which element multiplies are counted.
MUL_SCOPES = ("linalg.det", "linalg.mat_inv", "linalg.charpoly")


class Tracer:
    def __init__(self):
        self.names = sorted({name for name, _, _ in TARGETS})
        ids = {name: i for i, name in enumerate(self.names)}
        self._ids = ids
        k = len(self.names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.muls = {ids[s]: 0 for s in MUL_SCOPES}
        self._open = {ids[s]: 0 for s in MUL_SCOPES}
        self._mul_id = ids["localring.mul"]
        # span columns; localring calls are aggregated, not stored
        self.span_name, self.span_start, self.span_end = [], [], []
        self.span_parent, self.span_op = [], []
        self._stack = []          # [name id, child time, span index]
        self._recording = False
        self._op = -1
        self._saved = []
        self._t0 = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "demuskin" or name.startswith("demuskin.")]
        for name, owner, attr in TARGETS:
            raw = owner.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = self._wrap(self._ids[name], fn,
                                 keep=not name.startswith("localring."))
            self._set(owner, attr, staticmethod(wrapped) if is_static else wrapped)
            if isinstance(owner, type):
                continue
            for mod in modules:
                if mod is not owner and mod.__dict__.get(attr) is fn:
                    self._set(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def recording(self, op):
        """Count the wrapped calls made in this block as operation `op`."""
        self._recording = True
        self._op = op
        try:
            yield
        finally:
            self._recording = False

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, nid, fn, keep):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        perf = time.perf_counter
        is_scope = nid in self._open
        opened = self._open
        muls = self.muls
        is_mul = nid == self._mul_id
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._recording or (stack and stack[-1][0] == nid):
                return fn(*args, **kwargs)
            if is_mul:
                for sid, depth in opened.items():
                    if depth:
                        muls[sid] += 1
            idx = -1
            if keep:
                idx = len(tracer.span_name)
                tracer.span_name.append(nid)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                tracer.span_parent.append(_innermost_span(stack))
                tracer.span_op.append(tracer._op)
            if is_scope:
                opened[nid] += 1
            frame = [nid, 0.0, idx]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if is_scope:
                    opened[nid] -= 1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep:
                    tracer.span_start[idx] = t0 - tracer._t0
                    tracer.span_end[idx] = t1 - tracer._t0

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for nid, name in enumerate(self.names):
            out[name + ".calls"] = (self.calls[nid], "count")
            out[name + ".self_s"] = (self.self_s[nid], "s")
            if name.startswith("localring."):
                per = self.self_s[nid] / self.calls[nid] * 1e6 if self.calls[nid] else 0.0
                out[name + ".us_per_call"] = (per, "us")
        for sid, count in self.muls.items():
            out[self.names[sid] + ".muls"] = (count, "count")
        return out

    def write(self, path):
        """Write the kept spans as JSON: names plus one row per span."""
        rows = list(zip(self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_op))
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))


def _innermost_span(stack):
    for frame in reversed(stack):
        if frame[2] >= 0:
            return frame[2]
    return -1
