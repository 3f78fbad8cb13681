#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summed up as a BENCH file.

    python3 scripts/bench_pairs.py --parent <commit> --first-seed 3301 --pairs 10 \\
        --claim "setup_s on gateway-longtail falls" --out BENCH_gateway-longtail.json

Each side runs ``perfbench/run.py`` from a fresh directory of its own: the
parent from ``git archive <parent>``, the change from a copy of the working
tree's files (tracked, and untracked but not ignored), so no run writes into
the working tree. Each seed is one pair: every workload runs once on each
side, the parent first on odd seeds and the change first on even ones.
Every run lasts the ``run_seconds`` that BENCHMARK.json sets. Last, every
workload runs once per side with ``--trace 1`` on seed 0.

The output holds, per workload and end-to-end metric, each side's runs with
their quartiles (numpy linear percentiles), the change's median over the
parent's, and the number of pairs the change was lower in; per workload,
whether every check passed and the failed and attempted operations; each
side's per-layer metrics from its traced run; and the facts of the machine
it ran on.
"""

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from catbert.atomic import json_text, replacing
from catbert.cli import _environment  # the facts a run manifest records

SIDES = ("parent", "change")
RUN = ("python3 perfbench/run.py --workload <workload> --seed {seed} --seconds {seconds} "
       "--trace {trace}")
TRACE_SEED = 0
TRACE_NOTE = ("one traced run per side; per-layer ms come from single runs and move between "
              "runs, while the counts are exact. tokenizer.load_vocab.ms sums the "
              "tokenizer.load_vocab spans of the traced pass in perfbench's trace dump, "
              "which perfbench reports as no metric of its own")


def sides_in_order(seed: int) -> tuple[str, str]:
    return SIDES if seed % 2 else SIDES[::-1]


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"q1": round(float(q1), 4), "median": round(float(median), 4),
            "q3": round(float(q3), 4), "runs": [round(v, 4) for v in runs]}


def summarize(results: list[tuple[str, int, str, str]]) -> dict:
    """The ``workloads`` block of a BENCH file from ``(workload, seed, side,
    line)`` rows, ``line`` being the last line a run of ``perfbench/run.py``
    printed. Each workload needs one run per side on each of its seeds."""
    runs: dict = {}
    for workload, seed, side, line in results:
        runs.setdefault(workload, {}).setdefault(seed, {})[side] = json.loads(line)
    out = {}
    for workload, by_seed in runs.items():
        seeds = sorted(by_seed)
        missing = [(s, side) for s in seeds for side in SIDES if side not in by_seed[s]]
        if missing:
            raise ValueError(f"{workload}: no run for (seed, side) {missing}")
        side_runs = {side: [by_seed[s][side] for s in seeds] for side in SIDES}
        metrics = {}
        for name, first in side_runs["parent"][0]["metrics"].items():
            values = {side: [r["metrics"][name]["value"] for r in side_runs[side]]
                      for side in SIDES}
            summary = {side: quartiles(values[side]) for side in SIDES}
            metrics[name] = {
                "unit": first["unit"], **summary,
                "change_over_parent_median": round(
                    summary["change"]["median"] / summary["parent"]["median"], 3),
                "pairs_change_lower": sum(c < p for p, c in zip(values["parent"],
                                                                 values["change"])),
            }
        out[workload] = {
            "seeds": seeds, "pairs": len(seeds),
            "correct": {side: all(r["correct"] for r in side_runs[side]) for side in SIDES},
            "failed_of_attempted": {side: [sum(r["failed"] for r in side_runs[side]),
                                           sum(r["attempted"] for r in side_runs[side])]
                                    for side in SIDES},
            "metrics": metrics,
        }
    return out


def summarize_trace(results: list[tuple[str, str, str, float]]) -> dict:
    """The ``workloads`` block of a BENCH file's trace from ``(workload, side,
    line, load_vocab_ms)`` rows, one per side of each workload: ``line`` is the
    last line a traced run printed."""
    runs: dict = {}
    for workload, side, line, load_vocab_ms in results:
        run = json.loads(line)
        values = {name: round(m["value"], 3) for name, m in run["metrics"].items()}
        runs.setdefault(workload, {})[side] = {
            "correct": run["correct"], **values, "tokenizer.load_vocab.ms": load_vocab_ms}
    out = {}
    for workload, by_side in runs.items():
        missing = [side for side in SIDES if side not in by_side]
        if missing:
            raise ValueError(f"{workload}: no traced run for {missing}")
        out[workload] = {name: {side: by_side[side][name] for side in SIDES}
                         for name in by_side["parent"]}
    return out


def span_ms(dump: str, name: str) -> float:
    """Total ms of the spans called ``name`` in a perfbench trace dump."""
    with open(dump, encoding="utf-8") as f:
        spans = json.load(f)["spans"]
    return round(sum(end - start for n, start, end, _ in spans if n == name), 3)


def machine() -> dict:
    """The facts that timings depend on besides the code."""
    env = _environment()
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        config = {}
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled", encoding="utf-8") as f:
            thp = f.read().split("[", 1)[1].split("]", 1)[0]
    except (OSError, IndexError):
        thp = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "numpy": env["numpy"],
            "blas": {**env["blas"], "openblas_configuration": config.get(
                "openblas configuration")},
            "blas_threads": "1 (pinned by perfbench/run.py)",
            "python": env["python"], "kernel": platform.release(),
            "transparent_hugepage": thp}


def checkout_parent(commit: str, dest: str) -> None:
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest, filter="data")


def copy_working_tree(dest: str) -> None:
    names = subprocess.run(["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], check=True, capture_output=True).stdout
    for name in filter(None, names.decode().split("\0")):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):  # a tracked file deleted in the working tree is gone
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def run_once(checkout: str, workload: str, seed: int, seconds: int, trace: int = 0) -> str:
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited "
                           f"{done.returncode}:\n{done.stderr}")
    return done.stdout.strip().splitlines()[-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit the change is measured against")
    ap.add_argument("--first-seed", type=int, required=True,
                    help="seeds first-seed .. first-seed + pairs - 1, one pair each")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", required=True, help="the gain the file records, in words")
    ap.add_argument("--out", required=True, help="BENCH_<workload>.json to write")
    ap.add_argument("--work-dir", help="where the two checkouts go (default: a temporary one)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    parent = subprocess.run(["git", "-C", ROOT, "rev-parse", args.parent], check=True,
                            capture_output=True, text=True).stdout.strip()
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    work = args.work_dir or tempfile.mkdtemp(prefix="bench-pairs-")
    checkouts = {side: os.path.join(work, side) for side in SIDES}
    try:
        for side, dest in checkouts.items():
            shutil.rmtree(dest, ignore_errors=True)
            os.makedirs(dest)
        checkout_parent(parent, checkouts["parent"])
        copy_working_tree(checkouts["change"])
        results = []
        for seed in seeds:
            for workload in workloads:
                for side in sides_in_order(seed):
                    line = run_once(checkouts[side], workload, seed, seconds)
                    print(f"seed {seed} {workload} {side}: {line}", file=sys.stderr)
                    results.append((workload, seed, side, line))
        traced = []
        for workload in workloads:
            for side in SIDES:
                line = run_once(checkouts[side], workload, TRACE_SEED, seconds, trace=1)
                dump = os.path.join(checkouts[side], "perfbench", ".work",
                                    f"trace-{workload}.json")
                print(f"traced {workload} {side}: {line}", file=sys.stderr)
                traced.append((workload, side, line, span_ms(dump, "tokenizer.load_vocab")))
    finally:
        if not args.work_dir:
            shutil.rmtree(work, ignore_errors=True)

    order = ", ".join(f"{s}: {'parent' if s % 2 else 'change'} first" for s in seeds[:2])
    bench = {
        "claim": args.claim,
        "command": RUN.format(seed="<seed>", seconds=seconds, trace=0),
        "parent_commit": parent,
        "method": (f"{args.pairs} alternating pairs on seeds {seeds[0]}..{seeds[-1]} "
                   f"({order}, ...); each side runs from its own checkout (git archive of "
                   f"the parent, a copy of the change's files); every workload runs on each "
                   f"seed; medians and quartiles (numpy linear percentiles) over the pairs; "
                   f"written by scripts/bench_pairs.py"),
        "machine": machine(),
        "workloads": summarize(results),
        "trace": {"seed": TRACE_SEED,
                  "command": RUN.format(seed=TRACE_SEED, seconds=seconds, trace=1),
                  "note": TRACE_NOTE, "workloads": summarize_trace(traced)},
    }
    with replacing(args.out) as f:
        f.write(json_text(bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
