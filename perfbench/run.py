#!/usr/bin/env python3
"""Build and run the directory-simulation benchmark.

One workload per invocation (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload db2-16c --seed 1 --seconds 10 --trace 0

builds perfbench/ (and the simulator sources it compiles) into
.bench_build/perfbench, runs one workload in its own process and
forwards its output. The last line is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

Every workload, both kinds of run, as tables:

    python3 perfbench/run.py --report [--seed 1] [--seconds 10]

prints the six end-to-end metrics of every workload (failed_frac
included), then the per-layer table of the traced runs.

At the seed recorded in perfbench/reference.json each run's counter
digest must equal the recorded one; at any other seed the traced and
plain cells must agree. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "cdir_perfbench"
WORKLOADS = ["db2-16c", "ocean-pl2", "db2-1024c-mesh"]
END_TO_END = ["macc_per_s", "cell_s", "setup_s", "peak_rss_mb", "state_mb"]
SOURCE_SUFFIXES = (".cc", ".hh", ".py", ".txt", ".json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def run_step(command, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as error:
        log("%s failed: %s" % (command[0], error))
        return False
    return done.returncode == 0


def build():
    if not (ROOT / "src" / "sim" / "cmp_system.hh").is_file():
        log("simulator sources not found under %s/src" % ROOT)
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        if not run_step(["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    return run_step(["cmake", "--build", str(BUILD), "-j", jobs],
                    BUILD_TIMEOUT_S)


def source_id():
    """Git commit when there is one, and a hash of the sources built."""
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*")) +
                       list(HERE.rglob("*"))):
        if path.is_file() and path.suffix in SOURCE_SUFFIXES:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return "git:%s tree:%s" % (commit, digest.hexdigest()[:16])


def reference_digest(workload, seed):
    reference = json.loads((HERE / "reference.json").read_text())
    if seed != reference["seed"]:
        return None
    return reference["digests"][workload]


def run_workload(workload, seed, seconds, trace, commit):
    """Run one workload; return its output lines (result last) or None."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--commit", commit]
    expected = reference_digest(workload, seed)
    if expected is not None:
        command += ["--expect-digest", expected]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log("%s exited with code %d" % (workload, done.returncode))
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("%s printed a malformed result" % workload)
        return None
    return lines


def parse(lines):
    """Split output lines into (provenance, detail, result)."""
    tagged = {}
    for line in lines[:-1]:
        tag, _, body = line.partition(" ")
        if tag in ("provenance", "detail"):
            tagged[tag] = json.loads(body)
    return tagged.get("provenance", {}), tagged.get("detail", {}), \
        json.loads(lines[-1])


def report(seed, seconds, commit):
    """Run every workload, untraced then traced, and print tables."""
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            log("running %s --trace %d" % (workload, trace))
            lines = run_workload(workload, seed, seconds, trace, commit)
            if lines is None:
                return 1
            runs[workload, trace] = parse(lines)

    provenance = runs[WORKLOADS[0], 0][0]
    print("provenance: commit %s, %s build, %s, flags '%s', %d CPUs, "
          "seed %d, shards 1, CDIR_FORCE_SCALAR=%s, CDIR_PREFETCH_DIST=%s%s"
          % (provenance["commit"], provenance["build_type"],
             provenance["compiler"], provenance["cxx_flags"].strip(),
             provenance["cpus"], seed,
             provenance["CDIR_FORCE_SCALAR"] or "unset",
             provenance["CDIR_PREFETCH_DIST"] or "unset",
             "  ** env knobs set: speed not comparable **"
             if provenance["env_knobs_flagged"] else ""))
    for workload in WORKLOADS:
        p = runs[workload, 0][0]
        print("  %-15s %5d cores, %s %s sharers, batch window %d, "
              "cost model %s, %d + %d accesses per cell"
              % (workload, p["cores"], p["organization"], p["sharer_format"],
                 p["batch_window"], p["cost_model"] or "off", p["warmup"],
                 p["measure"]))

    print()
    print("end-to-end (one run of %g s per workload; estimators in "
          "perfbench/README.md)" % seconds)
    print("%-16s" % "metric" + "".join("%18s" % w for w in WORKLOADS)
          + "  unit")
    for name in END_TO_END + ["failed_frac"]:
        cells, unit = [], "ratio"
        for workload in WORKLOADS:
            result = runs[workload, 0][2]
            if name == "failed_frac":
                traced = runs[workload, 1][2]
                value = (result["failed"] + traced["failed"]) / \
                    (result["attempted"] + traced["attempted"])
            else:
                value = result["metrics"][name]["value"]
                unit = result["metrics"][name]["unit"]
            cells.append("%18.6g" % value)
        print("%-16s" % name + "".join(cells) + "  " + unit)

    print()
    print("per layer (traced run)")
    names = sorted(runs[WORKLOADS[0], 1][2]["metrics"])
    print("%-32s" % "metric" + "".join("%18s" % w for w in WORKLOADS)
          + "  unit")
    for name in names:
        row = [runs[w, 1][2]["metrics"][name] for w in WORKLOADS]
        print("%-32s" % name + "".join("%18.6g" % m["value"] for m in row)
              + "  " + row[0]["unit"])
    for note in runs[WORKLOADS[0], 1][1].get("notes", []):
        print("note: " + note)
    print()
    print("digests: " + ", ".join(
        "%s %s" % (w, runs[w, 0][1].get("digest")) for w in WORKLOADS))
    correct = all(runs[key][2]["correct"] for key in runs)
    print("all outputs correct" if correct else "OUTPUT CHECK FAILED")
    return 0 if correct else 1


def main():
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps
    # the build or benchmark process it is waiting on before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload and print tables")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.report and args.workload is None:
        parser.error("--workload or --report is required")

    if not build():
        log("build failed")
        return 1
    commit = source_id()
    if args.report:
        return report(args.seed, args.seconds, commit)
    lines = run_workload(args.workload, args.seed, args.seconds, args.trace,
                         commit)
    if lines is None:
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
