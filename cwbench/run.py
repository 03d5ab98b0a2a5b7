#!/usr/bin/env python3
"""Build and run the cwsim benchmark (see README.md in this directory).

Run from the repository root:

    python3 cwbench/run.py --workload fig2-sweep --seed 1 --seconds 20 --trace 0

builds the simulator libraries, cwsimd and the cwbench binary into
.bench_build/ (Release + LTO, incremental after the first time), runs one
workload, and leaves one JSON result object as the last line of stdout.

Other modes:

    --self-check        re-run the fig2 golden's configs and diff them
    --record-expected   rewrite cwbench/expected/<workload>.jsonl
    --steadiness N      two sets of N runs of every workload; per metric,
                        each set's median and quartiles and whether the
                        sets agree within BENCHMARK.json's bounds
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cwbench")
WORK = os.path.join(".bench_build", "work")
GOLDEN = os.path.join(ROOT, "tests", "golden", "fig2_scale4000.jsonl")
WORKLOADS = ["fig2-sweep", "policy-matrix", "daemon-churn"]
RUN_TIMEOUT_S = 175


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; exit non-zero on any failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "cwbench", "cwsimd"])
    with open(log_path, "a") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                if not os.path.exists(os.path.join(BUILD, "Makefile")):
                    # A failed configure must not be mistaken for a
                    # finished one next time.
                    try:
                        os.remove(os.path.join(BUILD, "CMakeCache.txt"))
                    except OSError:
                        pass
                log("build failed: " + " ".join(cmd))
                sys.exit(1)


def source_id():
    """The git sha when there is one, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "tools", "cwbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def cwbench_cmd(args_list):
    return [os.path.join(BUILD, "cwbench"),
            "--cwsimd", os.path.join(BUILD, "cwsimd"),
            "--expected-dir", os.path.join(HERE, "expected"),
            "--work-dir", WORK] + args_list


def run_cwbench(args_list, capture):
    """Run cwbench in its own process group so a timeout stops all of it."""
    proc = subprocess.Popen(cwbench_cmd(args_list), cwd=ROOT,
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE if capture else None,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("cwbench timed out")
        sys.exit(1)
    return proc.returncode, out


def self_check():
    """The fig2 golden self-check, in a process of its own."""
    rc, out = run_cwbench(["--golden", GOLDEN, "--self-check"], True)
    log(out.strip() if rc == 0 else "fig2 golden self-check failed")
    return rc == 0


def one_run(workload, seed, seconds, trace, capture=False):
    """Self-check, then the workload; a failed check marks it incorrect.

    The check runs before, and apart from, the workload's process, so
    the workload's peak_rss_mb is its own.
    """
    golden_ok = self_check()
    args_list = ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--source-id", source_id()]
    if trace:
        args_list += ["--trace-out",
                      os.path.join(".bench_build", "trace-%s.json" % workload)]
    rc, out = run_cwbench(args_list, True)
    lines = out.rstrip("\n").split("\n")
    if rc == 0 and not golden_ok:
        result = json.loads(lines[-1])
        result["correct"] = False
        lines[-1] = json.dumps(result)
    out = "\n".join(lines) + "\n"
    if not capture:
        sys.stdout.write(out)
        sys.stdout.flush()
    return rc, out


def steadiness(repeats, seconds):
    """Two sets of repeats per workload, compared against the bounds.

    The sets alternate run by run and use disjoint seeds. A metric holds
    when each set's interquartile range is within its bound and the two
    sets' medians differ, in either direction, by at most the bound.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = [{}, {}]
        for i in range(repeats):
            for s in (0, 1):
                seed = 1000 * (s + 1) + i
                rc, out = one_run(workload, seed, seconds, 0, capture=True)
                lines = out.strip().splitlines()
                result = json.loads(lines[-1]) if rc == 0 and lines else {}
                if not result.get("correct"):
                    log("%s seed %d: rc=%d correct=%s" % (
                        workload, seed, rc, result.get("correct")))
                    ok = False
                    continue
                for name, m in result["metrics"].items():
                    sets[s].setdefault(name, []).append(m["value"])
        print("== %s (%d runs per set)" % (workload, repeats))
        for name, b in bounds.items():
            line = "  %-12s" % name
            meds = []
            holds = True
            for s in (0, 1):
                vals = sets[s].get(name, [])
                if len(vals) < 2:
                    holds = False
                    meds.append(float("nan"))
                    continue
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                iqr = (q3 - q1) / q2
                meds.append(q2)
                holds &= iqr <= b["bound"]
                line += "  set%d med %.6g q1 %.6g q3 %.6g iqr %.1f%%" % (
                    s + 1, q2, q1, q3, 100 * iqr)
            drift = (meds[1] - meds[0]) / meds[0]
            holds &= abs(drift) <= b["bound"]
            ok &= holds
            print(line + "  drift %+.1f%% bound %.0f%% %s" % (
                100 * drift, 100 * b["bound"], "ok" if holds else "FAIL"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record-expected", action="store_true")
    ap.add_argument("--steadiness", type=int, metavar="N")
    args = ap.parse_args()

    # The benchmark builds the repository's own sources; without them
    # there is nothing to measure.
    for need in ("src/CMakeLists.txt", "tools/cwsimd.cc",
                 os.path.relpath(GOLDEN, ROOT)):
        if not os.path.exists(os.path.join(ROOT, need)):
            log("missing " + need + "; run from a full checkout")
            sys.exit(1)
    build()
    if args.self_check:
        sys.exit(run_cwbench(["--golden", GOLDEN, "--self-check"], False)[0])
    if args.record_expected:
        for w in [args.workload] if args.workload else WORKLOADS:
            rc, _ = run_cwbench(["--workload", w, "--seed", "1",
                                "--seconds", "1", "--trace", "0",
                                "--record-expected"], False)
            if rc != 0:
                sys.exit(rc)
        return
    if args.steadiness:
        sys.exit(0 if steadiness(args.steadiness, args.seconds) else 1)
    if not args.workload:
        ap.error("--workload is required")
    rc, _ = one_run(args.workload, args.seed, args.seconds, args.trace)
    sys.exit(rc)


if __name__ == "__main__":
    main()
