"""catbert benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload inbox-short --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Inputs for a seed are generated once (in a child process) under
``perfbench/.work/inputs/seed-<n>-<hash>``, the hash taken over ``gen.py`` and
the program files that write the checkpoint. ``--trace 0`` runs a number of
whole rounds fixed by ``--seconds`` and prints the end-to-end metrics;
``--trace 1`` runs a fixed number of rounds three times (a warm-up, untraced,
then with timing wrappers installed), prints the per-layer metrics and writes
the spans to ``perfbench/.work/trace-<workload>.json``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_REPS = 5
KEEP_SEEDS = 3  # generated input sets kept on disk (each holds a ~200 MB checkpoint)
GEN_TIMEOUT_S = 150
GEN_SOURCES = (os.path.join(HERE, "gen.py"), os.path.join(SRC, "catbert", "model.py"),
               os.path.join(SRC, "catbert", "checkpoint.py"))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "primary_ms": "ms",
                    "secondary_ms": "ms"}


def ensure_inputs(seed: int) -> str:
    """Directory holding every input for ``seed``, generating it if needed."""
    base = os.path.join(WORK, "inputs")
    digest = hashlib.sha256()
    for path in GEN_SOURCES:  # the checkpoint is written by program code too
        with open(path, "rb") as f:
            digest.update(f.read())
    version = digest.hexdigest()[:12]
    out = os.path.join(base, f"seed-{seed}-{version}")
    done = os.path.join(out, "done")
    if not os.path.exists(done):
        shutil.rmtree(out, ignore_errors=True)
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--seed", str(seed),
                        "--out", out, "--src", SRC],
                       check=True, timeout=GEN_TIMEOUT_S, stdout=sys.stderr)
    os.utime(out)
    sets = sorted((os.path.join(base, d) for d in os.listdir(base)),
                  key=os.path.getmtime, reverse=True)
    for d in sets[KEEP_SEEDS:]:
        shutil.rmtree(d, ignore_errors=True)
    return out


def timed_setups(w) -> list[float]:
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        w.setup()
        times.append(time.perf_counter() - t0)
    return times


def run_rounds(w, rounds: int) -> tuple[int, int]:
    attempted = failed = 0
    for i in range(rounds):
        a, f = w.round(i)
        attempted += a
        failed += f
    return attempted, failed


def rounds_for(w, seconds: int) -> int:
    """Whole rounds for a run of ``seconds``. The count depends on
    ``seconds`` alone, not on the clock, so a faster or slower commit
    measures the same operations on the same records."""
    return max(w.min_rounds, int(seconds // w.round_seconds))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "catbert", "__init__.py")):
        print(f"no catbert sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # One BLAS thread: on a small shared machine a multi-threaded GEMM waits
    # for its slowest thread, which more than doubles the run-to-run spread.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be >= 1", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    inputs = ensure_inputs(args.seed)
    scratch = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        w = workloads.WORKLOADS[args.workload](inputs, scratch)
        if args.trace:
            def work():
                timed_setups(w)
                return run_rounds(w, w.traced_rounds)

            # A first untimed pass warms memory and caches, so that the
            # untraced and traced passes differ only by the tracing.
            attempted, failed = work()
            t0 = time.perf_counter()
            a, f = work()
            untraced = time.perf_counter() - t0
            attempted, failed = attempted + a, failed + f
            tracer = Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                a, f = tracer.run("workload", work)
                traced = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            attempted, failed = attempted + a, failed + f
            metrics = tracer.metrics((traced - untraced) * 1000.0)
            tracer.dump(os.path.join(WORK, f"trace-{args.workload}.json"), args.workload,
                        metrics)
        else:
            setups = timed_setups(w)
            attempted, failed = run_rounds(w, rounds_for(w, args.seconds))
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            primary, secondary = w.end_to_end()
            values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_mb,
                      "primary_ms": primary, "secondary_ms": secondary}
            metrics = {k: {"value": float(values[k]), "unit": u}
                       for k, u in END_TO_END_UNITS.items()}
        try:
            problems = w.check()
        except Exception:  # a check that cannot run is a failed check, not a lost result
            problems = ["checks raised:\n" + traceback.format_exc()]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
