#!/usr/bin/env python3
"""Builds psi_perf from source and runs it; compares and baselines results.

Run from anywhere inside a checkout (paths are resolved from this file):

  python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
      Builds bench/perf into .bench_build/psi_perf (first call configures,
      later calls are incremental), runs one workload in its own process and
      passes its output through: the last stdout line is the JSON result.
      Full results land in .bench_build/results/.

  python3 bench/perf/run.py compare A B
      A and B are result directories (or a baseline.json). Prints, per
      workload, each side's median and quartiles for every end-to-end metric
      with its bound verdict, then per-layer deltas of the median self time
      per call from the traced runs. Exits 1 when a metric regresses beyond
      its bound.

  python3 bench/perf/run.py baseline [--output FILE]
      Two sets of 10 seeded runs of every workload (interleaved across
      workloads) plus one traced run each; writes them with the spreads
      that set each bound and the wall time of every run (default
      bench/perf/results/baseline.json).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "psi_perf"
RESULTS = ROOT / ".bench_build" / "results"
BINARY = BUILD / "psi_perf"
BASELINE_SETS = 2
BASELINE_RUNS = 10  # per set and workload


def log(message):
    print(message, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds psi_perf; all build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("psi_perf: library sources not found at %s" % (ROOT / "src"))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_workload(workload, seed, seconds, trace, quiet=False):
    """Runs one workload; returns (exit code, parsed result file or None).
    The result gains `wall_s`, the wall time of the whole process."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(RESULTS)]
    start = time.monotonic()
    completed = subprocess.run(
        command, stdout=subprocess.DEVNULL if quiet else None)
    wall = time.monotonic() - start
    result = RESULTS / ("%s.s%d.%s.json"
                        % (workload, seed, "traced" if trace else "untraced"))
    if completed.returncode != 0 or not result.is_file():
        return completed.returncode or 1, None
    with open(result) as f:
        record = json.load(f)
    record["wall_s"] = wall
    return 0, record


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def load_runs(path):
    path = Path(path)
    if path.is_file():
        with open(path) as f:
            return json.load(f)["runs"]
    runs = []
    for file in sorted(path.glob("*.s*.*traced.json")):
        with open(file) as f:
            runs.append(json.load(f))
    return runs


def compare(a_path, b_path):
    benchmark = spec()
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    workloads = [w["name"] for w in benchmark["workloads"]]
    regressions = 0
    for workload in workloads:
        a = [r for r in a_runs if r["workload"] == workload and not r["trace"]]
        b = [r for r in b_runs if r["workload"] == workload and not r["trace"]]
        if not a or not b:
            continue
        print("== %s (A: %d runs, B: %d runs)" % (workload, len(a), len(b)))
        print("  %-14s %30s %30s %9s  %s" % ("metric", "A q1/median/q3",
                                            "B q1/median/q3", "worse", "verdict"))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            qa = quartiles([r["end_to_end"][name]["value"] for r in a])
            qb = quartiles([r["end_to_end"][name]["value"] for r in b])
            worse = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            if metric["better"] == "higher":
                worse = -worse
            regressed = worse > metric["bound"]
            regressions += regressed
            print("  %-14s %30s %30s %+8.1f%%  %s (bound %.0f%%)" % (
                name, "%.4g/%.4g/%.4g" % qa, "%.4g/%.4g/%.4g" % qb,
                100 * worse, "REGRESSION" if regressed else "ok",
                100 * metric["bound"]))
        layer_delta(a_runs, b_runs, workload)
    return 1 if regressions else 0


def layer_delta(a_runs, b_runs, workload):
    """Per-layer deltas of the median self time per call (the median over
    each side's traced runs). Per call, not per run: a faster layer lets
    more operations into the same window, which would inflate run totals."""
    def self_ms(runs):
        per_layer = {}
        for run in runs:
            if run["workload"] == workload and run["trace"]:
                for layer in run["layers"]:
                    per_layer.setdefault(layer["name"], []).append(
                        layer["self_p50_ms"])
        return {name: statistics.median(v) for name, v in per_layer.items()}

    a, b = self_ms(a_runs), self_ms(b_runs)
    if not a or not b:
        return
    print("  %-30s %12s %12s %12s" % ("self time per call", "A ms", "B ms",
                                      "B - A ms"))
    names = sorted(set(a) | set(b), key=lambda n: -abs(b.get(n, 0) - a.get(n, 0)))
    for name in names:
        print("  %-30s %12.2f %12.2f %+12.2f" % (
            name, a.get(name, 0.0), b.get(name, 0.0),
            b.get(name, 0.0) - a.get(name, 0.0)))


def git_sha():
    """HEAD's sha, suffixed "+dirty" when the work tree has changes."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        return git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build_info():
    cache = {}
    with open(BUILD / "CMakeCache.txt") as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        version = subprocess.run([compiler, "--version"], check=True,
                                 capture_output=True, text=True).stdout
        compiler = version.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        pass
    return compiler, cache.get("CMAKE_BUILD_TYPE", "unknown")


def baseline(output):
    build()
    benchmark = spec()
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    runs = []
    for s in range(BASELINE_SETS):
        for k in range(BASELINE_RUNS):
            seed = 100 * s + k + 1
            for workload in workloads:
                code, result = run_workload(workload, seed, seconds, 0, quiet=True)
                if code != 0:
                    sys.exit("psi_perf: %s seed %d failed" % (workload, seed))
                result["set"] = s
                runs.append(result)
                log("set %d run %d %s (%.1f s): %s" % (
                    s, k, workload, result["wall_s"], " ".join(
                        "%s=%.4g" % (m, v["value"])
                        for m, v in result["end_to_end"].items())))
    for workload in workloads:
        code, result = run_workload(workload, 1, seconds, 1, quiet=True)
        if code != 0:
            sys.exit("psi_perf: traced %s failed" % workload)
        runs.append(result)
        log("traced %s (%.1f s)" % (workload, result["wall_s"]))

    wall = {}
    for workload in workloads:
        for trace in (False, True):
            times = [r["wall_s"] for r in runs
                     if r["workload"] == workload and r["trace"] == trace]
            wall["%s.%s" % (workload, "traced" if trace else "untraced")] = {
                "median_s": statistics.median(times), "max_s": max(times)}

    bounds = []
    for workload in workloads:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            per_set = [[r["end_to_end"][name]["value"] for r in runs
                        if r["workload"] == workload and not r["trace"]
                        and r["set"] == s] for s in range(BASELINE_SETS)]
            medians = [statistics.median(v) for v in per_set]
            drift = (medians[-1] - medians[0]) / medians[0] if medians[0] else 0.0
            if metric["better"] == "higher":
                drift = -drift
            bounds.append({
                "workload": workload, "metric": name, "bound": metric["bound"],
                "spread_per_set": [spread(v) for v in per_set],
                "median_per_set": medians,
                "second_set_worse_by": drift,
            })
            log("%-16s %-12s spreads %s  drift %+.2f%%  bound %.0f%%" % (
                workload, name, " ".join("%.2f%%" % (100 * spread(v))
                                         for v in per_set),
                100 * drift, 100 * metric["bound"]))
    compiler, build_type = build_info()
    record = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "build_type": build_type,
        "run_seconds": seconds,
        "runs_per_set": BASELINE_RUNS,
        "sets": BASELINE_SETS,
        "wall": wall,
        "bounds": bounds,
        "runs": runs,
    }
    Path(output).parent.mkdir(parents=True, exist_ok=True)
    with open(output, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    log("wrote %s" % output)
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare A B")
        return compare(argv[1], argv[2])
    if argv[:1] == ["baseline"]:
        parser = argparse.ArgumentParser(prog="run.py baseline")
        parser.add_argument("--output", default=str(HERE / "results" / "baseline.json"))
        args = parser.parse_args(argv[1:])
        return baseline(args.output)

    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    build()
    code, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except subprocess.CalledProcessError as error:
        sys.exit("psi_perf: build step failed: %s" % " ".join(error.cmd))
