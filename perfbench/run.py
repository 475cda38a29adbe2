#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the BGC reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload quick-cold --seed 17 --seconds 20 --trace 0

Builds `perfbench/` (a package of its own that links the workspace crates)
in release mode, then runs one workload:

* quick-cold    `bgc all --scale quick` on an empty store and cell cache;
* quick-warm    the same grid on a store filled by a cold pass, with the
                cell cache removed;
* flickr-large  `bgc run --dataset flickr --scale large --method gcond-x`
                on an empty store.

With `--trace 0` every launch is a process of its own in an empty working
directory; its wall time, peak RSS and CPU time come from `wait4`, so each
figure belongs to that one process.  Launches repeat until `--seconds` is
spent and the medians are reported.  With `--trace 1` one untraced launch
gives the CPU utilisation, then `perfbench trace` replays the workload
through each layer's public functions with spans around the calls (written
to `.bench_work/traces/`) and reports the per-layer metrics.

Correctness: every cell must end `ok`, and results keyed by cell canon must
be equal across the launches of a run, between quick-cold and quick-warm
passes, and across runs with the same seed (kept in `.bench_work/results/`).
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("quick-cold", "quick-warm", "flickr-large")
# Set-up repetitions per run (the median is reported).
SETUP_REPS = {"quick-cold": 5, "quick-warm": 3, "flickr-large": 5}
MIN_LAUNCHES = 2
QUICK_GRID_SEED = 17


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(PACKAGE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr)
    if done.returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


class Launch:
    """One measured process: wall time, peak RSS, CPU time and stdout."""

    def __init__(self, binary, args, cwd):
        os.makedirs(cwd, exist_ok=True)
        out_path = os.path.join(cwd, "perfbench.stdout")
        err_path = os.path.join(cwd, "perfbench.stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            process = subprocess.Popen([binary] + args, cwd=cwd, stdout=out,
                                       stderr=err)
            _, status, usage = os.wait4(process.pid, 0)
            self.wall_s = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = process.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime
        with open(out_path) as f:
            self.stdout = f.read()
        with open(err_path) as f:
            self.stderr = f.read()
        if self.returncode != 0:
            log(self.stderr)
            raise SystemExit(f"perfbench: {' '.join(args)} exited with {self.returncode}")


def fresh_dir(run_dir, name):
    path = os.path.join(run_dir, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def launch_seed(workload, seed, index):
    """The grid seed of a run's `index`-th launch.

    `bgc all` has no seed flag, so the quick grid always runs at base seed
    17.  Flickr-large launch `i` runs at `seed + 1000 * i`, so a run's median
    spans several generated graphs.
    """
    if workload == "flickr-large":
        return seed + 1000 * index
    return QUICK_GRID_SEED


def grid_args(workload, seed, index):
    if workload == "flickr-large":
        return ["grid", "flickr-large", str(launch_seed(workload, seed, index))]
    return ["grid", "quick"]


class Checker:
    """Checks that every cell ends `ok` and that a cell's result, keyed by
    its canon, is the same in every launch of this run and of earlier runs
    (kept in `.bench_work/results/`)."""

    def __init__(self, workload):
        family = "flickr-large" if workload == "flickr-large" else "quick"
        self.path = os.path.join(WORK, "results", f"{family}.json")
        self.results = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def add(self, launch, label):
        report = json.loads(launch.stdout)
        for cell in report["cells"]:
            self.attempted += 1
            if cell["status"]["kind"] != "ok":
                self.failed += 1
            canon, result = cell["cell"], cell["result"]
            if self.results.setdefault(canon, result) != result:
                self.mismatches.append(f"{canon} in {label}")

    def finish(self):
        if not self.results:
            return False
        known = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                known = json.load(f)
        for canon, result in self.results.items():
            if known.setdefault(canon, result) != result:
                self.mismatches.append(f"{canon} against an earlier run")
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = f"{self.path}.tmp-{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(known, f, sort_keys=True)
        os.replace(tmp, self.path)
        for label in self.mismatches:
            log(f"perfbench: results differ: {label}")
        return self.failed == 0 and not self.mismatches


def quality(results):
    """Mean ASR, C-ASR and CTA drop (points) over standard-eval BGC cells."""
    rows = [r for canon, r in results.items()
            if canon.split("|")[4] == "BGC" and "|eval=standard|" in canon
            and not r["oom"]]
    if not rows:
        raise SystemExit("perfbench: the workload has no standard BGC cell")
    mean = lambda key: statistics.fmean(r[key] for r in rows)
    return {"asr": mean("asr"), "c_asr": mean("c_asr"),
            "cta_drop_points": 100.0 * (mean("c_cta") - mean("cta")),
            "cells": len(rows)}


def fill_store(binary, run_dir, workload, seed, index, checker):
    """Quick-warm set-up: a cold pass, then the cell cache removed."""
    path = fresh_dir(run_dir, f"fill-{index}")
    launch = Launch(binary, grid_args(workload, seed, 0), path)
    checker.add(launch, f"cold pass {index}")
    shutil.rmtree(os.path.join(path, "target", "experiments"))
    return path


def set_up(binary, run_dir, workload, seed, index, checker):
    """One set-up pass.  Quick-warm fills a store; the cold workloads start
    from an empty directory, after a warm-up launch of one small cell."""
    if workload == "quick-warm":
        return fill_store(binary, run_dir, workload, seed, index, checker)
    Launch(binary, ["warmup"], fresh_dir(run_dir, f"warmup-{index}"))
    return None


def start_dir(run_dir, workload, template, index):
    """A fresh working directory in the workload's start state."""
    path = fresh_dir(run_dir, f"launch-{index}")
    if workload == "quick-warm":
        shutil.copytree(os.path.join(template, "target", "store"),
                        os.path.join(path, "target", "store"))
    # Flush earlier launches' writes now, not during the timed launch.
    os.sync()
    return path


def end_to_end(binary, run_dir, workload, seed, seconds, checker):
    setups, template = [], None
    for index in range(SETUP_REPS[workload]):
        started = time.perf_counter()
        template = set_up(binary, run_dir, workload, seed, index, checker)
        setups.append(time.perf_counter() - started)

    launches = []
    started = time.perf_counter()
    while True:
        path = start_dir(run_dir, workload, template, len(launches))
        launch = Launch(binary, grid_args(workload, seed, len(launches)), path)
        checker.add(launch, f"launch {len(launches)}")
        launches.append(launch)
        shutil.rmtree(path)
        elapsed = time.perf_counter() - started
        typical = statistics.median(l.wall_s for l in launches)
        if len(launches) >= MIN_LAUNCHES and elapsed + typical > seconds:
            break

    q = quality(checker.results)
    ok_share = 1.0 - checker.failed / max(checker.attempted, 1)
    n = len(launches)
    rows = [
        ("wall_s", statistics.median(l.wall_s for l in launches), "s", n),
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("peak_rss_mb", statistics.median(l.peak_rss_mb for l in launches), "MB", n),
        ("cells_ok", ok_share, "share", checker.attempted),
    ]
    for name, value, unit, samples in rows:
        print(f"{workload:13} {name:12} {value:14.6f} {unit:6} n={samples}")
    walls = sorted(l.wall_s for l in launches)
    if n > 10:
        # The highest percentile with at least ten launches beyond it.
        pct = 100 * (n - 10) // n
        print(f"{workload:13} {f'wall_s p{pct}':12} {walls[-11]:14.6f} s      n={n}")
    print(f"{workload:13} {'wall_s runs':12} " + " ".join(f"{l.wall_s:.3f}" for l in launches))
    # Printed, not gated: on Flickr-large cells they swing with the seed far
    # beyond any usable bound (ASR 0.79-1.0 and C-ASR 0.68-1.0 over seeds
    # 11-35, and the CTA drop changes sign).
    print(f"{workload:13} {'asr':12} {q['asr']:14.6f} share  n={q['cells']} (not gated)")
    print(f"{workload:13} {'c_asr':12} {q['c_asr']:14.6f} share  n={q['cells']} (not gated)")
    print(f"{workload:13} {'cta_drop':12} {q['cta_drop_points']:14.6f} points n={q['cells']} "
          f"(C-CTA - CTA; not gated)")
    print(f"{workload:13} {'cpu_util':12} "
          f"{statistics.median(l.cpu_s / (l.wall_s * (os.cpu_count() or 1)) for l in launches):14.6f}")
    return {name: value for name, value, _, _ in rows}


def traced(binary, run_dir, workload, seed, checker):
    template = None
    if workload == "quick-warm":
        template = fill_store(binary, run_dir, workload, seed, 0, checker)
    path = start_dir(run_dir, workload, template, 0)
    launch = Launch(binary, grid_args(workload, seed, 0), path)
    checker.add(launch, "untraced launch")
    nproc = os.cpu_count() or 1
    cpu_util = launch.cpu_s / (launch.wall_s * nproc)

    spans = os.path.join(WORK, "traces", f"{workload}-seed{seed}.json")
    trace_dir = fresh_dir(run_dir, "trace")
    child = Launch(binary, ["trace", workload, str(seed), spans], trace_dir)
    metrics = json.loads(child.stdout.strip().splitlines()[-1])
    metrics["runtime.cpu_util"] = cpu_util
    print(f"spans written to {os.path.relpath(spans, ROOT)}; "
          f"untraced launch {launch.wall_s:.3f} s")
    for name in sorted(metrics):
        print(f"{workload:13} {name:40} {metrics[name]:.6f}")
    return metrics


def machine(binary, run_dir, workload, seed):
    """Prints the machine, build and revision the figures come from."""
    probe = Launch(binary, ["machine"], fresh_dir(run_dir, "machine"))
    revision = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        revision = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True).stdout.strip()
    print(f"machine: {probe.stdout.strip()} profile=release "
          f"(opt-level 3, thin LTO, 1 codegen unit) "
          f"revision={revision or 'unknown (not a git checkout)'}")
    print(f"workload: {workload}, first grid seed {launch_seed(workload, seed, 0)} "
          f"(--seed {seed}; bgc all pins the quick grid's base seed)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    binary = build()
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    checker = Checker(args.workload)
    try:
        machine(binary, run_dir, args.workload, args.seed)
        if args.trace:
            values = traced(binary, run_dir, args.workload, args.seed, checker)
        else:
            values = end_to_end(binary, run_dir, args.workload, args.seed,
                                seconds, checker)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = checker.finish()
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {', '.join(missing)}")
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
