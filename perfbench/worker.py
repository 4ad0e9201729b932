"""One measured process: set-up, then jobs for the given number of seconds.

Started by ``run.py``; prints one JSON line on stdout. With ``--probe`` it stops
after set-up and prints only the time set-up ended, so that ``run.py`` can
measure set-up several times per run.

Clocks: ``time.monotonic()`` is CLOCK_MONOTONIC on Linux, shared by every
process on the machine, so ``run.py`` can subtract its own spawn time from
the ``ready`` time printed here.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import liblab from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, SRC)
    from liblab import cli, freestate, ncalg, ncpart, ratefn, rmt  # noqa: F401

    where = os.path.dirname(os.path.abspath(cli.__file__))
    if where != os.path.join(SRC, "liblab"):
        raise ImportError("liblab imported from %s, not from %s" % (where, SRC))
    return types.SimpleNamespace(cli=cli, freestate=freestate, ncalg=ncalg, ncpart=ncpart, ratefn=ratefn, rmt=rmt)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    from workloads import JOB_POOL, WORKLOADS, Ops

    lib = import_program()
    workload = WORKLOADS[args.workload](args.seed, lib)
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    ops = Ops()
    tracer = None
    if args.trace:
        from tracer import Tracer, difference

        tracer = Tracer()
    jobs = []  # (seconds, traced, per-job layer figures or None)

    def one_job(index, traced):
        if traced:
            tracer.job = index
            before = tracer.snapshot()
            tracer.install()
        start = time.perf_counter()
        try:
            output = workload.run(index % JOB_POOL)
        finally:
            seconds = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        layers = difference(tracer.snapshot(), before) if traced else None
        workload.check(index % JOB_POOL, output, ops)
        jobs.append((seconds, traced, layers))

    # The cold job is traced in a traced run, so that the caches it fills
    # (NC enumeration, moment-ODE solves) show in the layer figures. After
    # it, a traced run runs each job's inputs twice, untraced and then
    # traced, which gives the tracing overhead from one process and traces
    # every job's inputs in turn.
    one_job(0, bool(tracer))
    index = 1
    while index == 1 or time.monotonic() - ready < args.seconds:
        if tracer:
            one_job(index, False)
        one_job(index, bool(tracer))
        index += 1

    result = {
        "ready": ready,
        "jobs": [[s, t] for s, t, _ in jobs],
        "attempted": ops.attempted,
        "failed": ops.failed,
        "kept_fault": ops.kept_fault,
        "correct": ops.correct,
        "errors": ops.errors,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "provenance": program_provenance(),
    }
    if tracer:
        result["layers"] = layer_metrics(jobs)
        result["absent"] = tracer.absent
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(result))
    return 0


# Layers whose work is cached for the life of the process: their figures
# come from the cold job. Every other layer is the mean over traced warm jobs.
COLD_LAYERS = {"ncpart.iter_nc", "freestate.free_ubm_moment"}
CALLS = [
    "rmt.step", "rmt.eigh", "rmt.evaluate_word_trace", "ratefn.trajectory_metric",
    "freestate.extended_moment", "freestate.engine_moment", "ncpart.kappa", "ncpart.kappa_pi",
    "freestate.free_ubm_moment", "freestate.prop81", "ncpart.kreweras", "ncalg.cyclic_derivative",
    "ncalg.pi_s_substitution", "ncalg.poly_mul", "ratefn.rate_integrand",
]
SELF_S = [
    "rmt.step", "ratefn.trajectory_metric", "freestate.extended_moment", "freestate.engine_moment",
    "ncpart.kappa", "ncpart.kappa_pi", "freestate.prop81", "ratefn.rate_integrand", "cli.main",
]
TOTAL_S = [
    "rmt.eigh", "kernels.assemble_gue", "kernels.phase_scale", "rmt.evaluate_word_trace",
    "ncpart.iter_nc", "freestate.free_ubm_moment", "ncpart.kreweras", "ncalg.cyclic_derivative",
    "ncalg.pi_s_substitution", "ncalg.poly_mul",
]


def layer_metrics(jobs):
    cold = jobs[0][2]
    warm = [layers for _, traced, layers in jobs[1:] if traced]
    untraced = [s for s, traced, _ in jobs[1:] if not traced]
    traced = [s for s, traced, _ in jobs[1:] if traced]

    def figure(kind, name):
        if name in COLD_LAYERS:
            return cold[kind].get(name, 0)
        return sum(w[kind].get(name, 0) for w in warm) / len(warm)

    out = {}
    for name in CALLS:
        out[name + ".calls"] = figure("calls", name)
    for name in SELF_S:
        out[name + ".self_s"] = figure("self_s", name)
    for name in TOTAL_S:
        out[name + ".s"] = figure("total_s", name)
    out["ncpart.nc_partitions"] = cold["partitions"]
    step_s = sum(w["total_s"].get("rmt.step", 0.0) for w in warm)
    path_steps = sum(w["path_steps"] for w in warm)
    out["rmt.path_steps_per_s"] = path_steps / step_s if step_s > 0 else 0.0
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return out


def program_provenance():
    """Versions and the BLAS actually loaded, read at the end of the run."""
    import importlib.metadata

    import numpy

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "blas": blas_libraries(),
    }


def blas_libraries():
    """Each BLAS shared library mapped into this process, with the thread
    count and configuration it reports itself (OpenBLAS's own entry points,
    under the symbol prefixes and suffixes numpy and scipy wheels use)."""
    import ctypes

    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if name.startswith("lib") and "blas" in name and ".so" in name and path not in paths:
                paths.append(path)
    found = []
    for path in paths:
        entry = {"library": os.path.basename(path), "threads": None, "config": None}
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                threads = getattr(lib, prefix + "openblas_get_num_threads" + suffix, None)
                config = getattr(lib, prefix + "openblas_get_config" + suffix, None)
                if threads is not None and entry["threads"] is None:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and entry["config"] is None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


if __name__ == "__main__":
    sys.exit(main())
