"""Spans and counts around liblab's public functions, installed from outside.

The program carries no instrumentation of its own, so the tracer replaces each
target function by a wrapper for the length of a traced job and puts the
original back afterwards. A wrapper records one span per call (name, start,
end, parent span, job) and adds to the call count, the inclusive time of the
outermost call of that name, and the self time (span minus child spans).

Spans are kept in memory up to ``span_cap`` and written out when the run ends;
calls past the cap still count towards the totals. The exact engine's
cumulant recursion makes millions of calls per job, and keeping every span
would cost gigabytes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path). A method is "Class.method".
TARGETS = [
    ("cli.main", "liblab.cli", "main"),
    ("rmt.step", "liblab.rmt", "BatchedUBM.step"),
    ("kernels.assemble_gue", "liblab._kernels", "assemble_gue"),
    ("kernels.phase_scale", "liblab._kernels", "phase_scale"),
    ("rmt.evaluate_word_trace", "liblab.rmt", "evaluate_word_trace"),
    ("ratefn.trajectory_metric", "liblab.ratefn", "trajectory_metric_d"),
    ("ratefn.rate_integrand", "liblab.ratefn", "rate_integrand_eq9"),
    ("freestate.extended_moment", "liblab.freestate", "TraceState.extended_moment"),
    ("freestate.engine_moment", "liblab.freestate", "FreeMomentEngine.moment"),
    ("freestate.free_ubm_moment", "liblab.freestate", "free_ubm_moment"),
    ("freestate.prop81", "liblab.freestate", "conditional_expectation_prop81"),
    ("ncpart.kappa", "liblab.ncpart", "CumulantFunctional.kappa"),
    ("ncpart.kappa_pi", "liblab.ncpart", "CumulantFunctional.kappa_pi"),
    ("ncpart.kreweras", "liblab.ncpart", "kreweras"),
    ("ncpart.iter_nc", "liblab.ncpart", "iter_nc"),
    ("ncalg.cyclic_derivative", "liblab.ncalg", "cyclic_derivative"),
    ("ncalg.pi_s_substitution", "liblab.ncalg", "pi_s_substitution"),
    ("ncalg.poly_mul", "liblab.ncalg", "NCPolynomial.__mul__"),
    # numpy's eigh, counted only when the innermost open span is a step.
    ("rmt.eigh", "numpy.linalg", "eigh"),
]

EIGH_PARENT = "rmt.step"


class Tracer:
    def __init__(self, span_cap=100_000):
        self.span_cap = span_cap
        self.spans = []  # (job, span_id, parent_id, name, start, end)
        self.span_count = 0
        self.job = -1
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.partitions = 0  # partitions yielded by ncpart.iter_nc
        self.path_steps = 0  # paths x motions advanced by rmt.step
        self._stack = []  # open frames: [name, span_id, child_seconds]
        self._depth = defaultdict(int)
        self._patches = []  # (owner, attribute, original)
        self.absent = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        span_id = self.span_count
        self.span_count += 1
        parent = self._stack[-1][1] if self._stack else -1
        self._stack.append([name, span_id, 0.0])
        self._depth[name] += 1
        return span_id, parent

    def _close(self, name, span_id, parent, start, end):
        frame = self._stack.pop()
        self._depth[name] -= 1
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        if self._depth[name] == 0:
            self.total_s[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if span_id < self.span_cap:
            self.spans.append((self.job, span_id, parent, name, start, end))

    def _wrap(self, name, fn):
        clock = time.perf_counter
        tracer = self

        if name == "ncpart.iter_nc":

            def wrapper(*args, **kwargs):
                span_id, parent = tracer._open(name)
                start = clock()
                try:
                    for item in fn(*args, **kwargs):
                        tracer.partitions += 1
                        yield item
                finally:
                    tracer._close(name, span_id, parent, start, clock())

            return wrapper

        if name == "rmt.eigh":

            def wrapper(*args, **kwargs):
                if not tracer._stack or tracer._stack[-1][0] != EIGH_PARENT:
                    return fn(*args, **kwargs)
                span_id, parent = tracer._open(name)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(name, span_id, parent, start, clock())

            return wrapper

        def wrapper(*args, **kwargs):
            if name == "rmt.step":
                engine = args[0]
                tracer.path_steps += getattr(engine, "paths", 0) * getattr(engine, "n", 0)
            span_id, parent = tracer._open(name)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, span_id, parent, start, clock())

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every target that exists; record the missing ones as absent."""
        self.absent = []
        for name, module_name, path in TARGETS:
            owner = sys.modules.get(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if len(parts) > 1:  # a method: patch the class
                self._patch(owner, parts[-1], original, wrapper)
                continue
            # A module function may also be bound by name in other liblab
            # modules (``from .ncpart import kreweras``); patch every binding.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == module_name or mod_name.startswith("liblab")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading -----------------------------------------------------------

    def snapshot(self):
        """Cumulative figures so far, to be differenced around one job."""
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "partitions": self.partitions,
            "path_steps": self.path_steps,
        }

    def dump(self):
        return {
            "span_fields": ["job", "id", "parent", "name", "start", "end"],
            "spans": self.spans,
            "spans_recorded": len(self.spans),
            "spans_dropped": max(self.span_count - self.span_cap, 0),
            "absent": self.absent,
        }


def difference(after, before):
    """Per-job figures from two snapshots."""
    out = {}
    for key in ("calls", "total_s", "self_s"):
        out[key] = {
            name: value - before[key].get(name, 0)
            for name, value in after[key].items()
        }
    out["partitions"] = after["partitions"] - before["partitions"]
    out["path_steps"] = after["path_steps"] - before["path_steps"]
    return out
