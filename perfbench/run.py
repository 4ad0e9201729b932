"""liberation-lab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload ubm-ensemble --seed 1 --seconds 20 --trace 0

Workloads: ubm-ensemble, liberation-metric, exact-words, rate-integrand (see
README.md). The program runs in child processes (``worker.py``) that import
liblab from this checkout's ``src``; this process never imports it.

An untraced run is SESSIONS[workload] sessions. A session is a fresh
process that sets up, runs one cold job and then warm jobs (at least one)
for its share of ``--seconds``. Before each session PROBES extra processes
set up and exit, so that set-up is sampled several times per run. Every metric is a median over
the run's samples, except the peak RSS, the largest of the sessions'. A
traced run is a single session (see worker.py).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1``, the per-layer metrics. Each run also
writes a record with provenance to ``.perfbench/`` at the checkout root, and
a traced run writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
# Sessions per untraced run. Jobs of the pure-Python workloads (exact-words
# 2 to 5 s, rate-integrand 4 to 9 s) swing most with the host's load, so
# exact-words takes the median of three cold jobs.
SESSIONS = {"ubm-ensemble": 2, "liberation-metric": 2, "exact-words": 3, "rate-integrand": 2}
PROBES = 2  # set-up-only processes before each session
DEADLINE_S = 170.0  # the whole run, probes included

END_TO_END = {
    "setup_s": "s",
    "cold_job_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    pass


def spawn(args, deadline):
    """Run the worker; return (spawn time, its JSON result)."""
    start = time.monotonic()
    timeout = deadline - start
    if timeout <= 0:
        raise BenchError("out of time before starting %s" % " ".join(args))
    try:
        proc = subprocess.run(
            [sys.executable, WORKER] + args,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError("worker exceeded the %.0f s deadline" % DEADLINE_S)
    if proc.returncode != 0:
        raise BenchError("worker exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return start, json.loads(lines[-1])


def git_commit():
    """HEAD of the checkout if it is a git repository, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def host_provenance():
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg": list(os.getloadavg()),
        "env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "LIBLAB_THREADS", "LIBLAB_NUMBA")
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(SESSIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    host_start = host_provenance()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    setups, cold, warm, rss, sessions = [], [], [], [], []
    n_sessions = 1 if args.trace else SESSIONS[args.workload]
    for _ in range(n_sessions):
        for _ in range(PROBES):
            start, probe = spawn(common + ["--seconds", repr(args.seconds), "--probe"], deadline)
            setups.append(probe["ready"] - start)
        worker_args = common + ["--seconds", repr(args.seconds / n_sessions), "--trace", str(args.trace)]
        if args.trace:
            worker_args += ["--spans-out", os.path.join(OUT_DIR, "spans-%s.json" % tag)]
        start, result = spawn(worker_args, deadline)
        setups.append(result["ready"] - start)
        cold.append(result["jobs"][0][0])
        warm += [s for s, traced in result["jobs"][1:] if not traced]
        rss.append(result["peak_rss_kib"] / 1024.0)
        sessions.append(result)

    if args.trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in result["layers"].items()
        }
    else:
        e2e = {
            "setup_s": statistics.median(setups),
            "cold_job_s": statistics.median(cold),
            "job_s": statistics.median(warm),
            "peak_rss_mb": max(rss),
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in e2e.items()}
    attempted = sum(r["attempted"] for r in sessions)
    failed = sum(r["failed"] for r in sessions)
    kept_fault = sum(r["kept_fault"] for r in sessions)
    correct = all(r["correct"] for r in sessions)
    errors = [e for r in sessions for e in r["errors"]][:20]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "setup_samples_s": setups,
        "sessions": [r["jobs"] for r in sessions],
        "attempted": attempted,
        "failed": failed,
        "kept_fault_failures": kept_fault,
        "correct": correct,
        "errors": errors,
        "absent_layers": result.get("absent", []),
        "provenance": dict(
            result["provenance"],
            git_commit=git_commit(),
            host_at_start=host_start,
            loadavg_at_end=list(os.getloadavg()),
        ),
    }
    with open(os.path.join(OUT_DIR, "run-%s.json" % tag), "w") as fh:
        json.dump(record, fh, indent=1)

    for err in errors:
        print("check failed: %s" % err)
    for name in record["absent_layers"]:
        print("absent layer: %s (reported as 0)" % name)
    prov = record["provenance"]
    blas = ", ".join("%s threads=%s" % (b["library"], b["threads"]) for b in prov["blas"])
    print("provenance: python %s numpy %s scipy %s; %s; nproc %d; load %.2f -> %.2f"
          % (prov["python"], prov["numpy"], prov["scipy"], blas, host_start["nproc"],
             host_start["loadavg"][0], prov["loadavg_at_end"][0]))
    print("%s seed %d: %d sessions, %d jobs, %d operations attempted, %d failed (%d from the kept fault)"
          % (args.workload, args.seed, len(sessions), sum(len(r["jobs"]) for r in sessions),
             attempted, failed, kept_fault))
    for name, m in metrics.items():
        print("  %-34s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name):
    if name.endswith(".calls") or name == "ncpart.nc_partitions":
        return "count"
    return "1/s" if name == "rmt.path_steps_per_s" else "s"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        sys.exit(1)
