#!/usr/bin/env python3
"""End-to-end benchmark of the FCC library (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload web --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds the library and the fccbench program into .bench_build/ (CMake,
Release), runs one workload in a scratch directory under
.bench_build/work/, and prints fccbench's result as the last line of
stdout: one JSON object with the keys correct, attempted, failed and
metrics. Exits non-zero when the build fails, a correctness check
fails, or the metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "fccbench")
WORKLOADS = ("web", "synflood", "elephants-gz")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def environment():
    """Keep compiler and fccbench temporaries inside the checkout."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def call(argv, timeout, cwd=None, capture=False):
    """Run argv in its own process group; kill the whole group on
    timeout and wait for it. Returns (returncode, stdout or None)."""
    proc = subprocess.Popen(
        argv, cwd=cwd, env=environment(), start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr,
        text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("timed out after %d s: %s" % (timeout, " ".join(argv)))
        return 124, None
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("no library sources next to perfbench/; nothing to build")
        return False
    started = time.monotonic()
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc, _ = call(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if rc != 0:
            log("cmake configure failed")
            return False
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc, _ = call(["cmake", "--build", BUILD_DIR, "-j", jobs], remaining)
    if rc != 0 or not os.path.isfile(BINARY):
        log("build failed")
        return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_fccbench(workload, seed, seconds, trace, extra=()):
    """One fccbench run in a fresh work directory. Returns
    (returncode, result dict or None, '#' lines)."""
    work = os.path.join(BUILD_ROOT, "work",
                        "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argv = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans, exist_ok=True)
        argv += ["--spans-out", os.path.join(spans, workload + ".csv")]
    argv += list(extra)
    try:
        rc, out = call(argv, RUN_TIMEOUT_S, cwd=work, capture=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = (out or "").splitlines()
    notes = [line for line in lines if line.startswith("#")]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return rc, result, notes


def metric_errors(result, trace):
    """Mismatches between a result's metrics and BENCHMARK.json."""
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    errors = []
    for name, unit in want.items():
        if name not in got:
            errors.append("missing metric " + name)
        elif got[name] != unit:
            errors.append("%s has unit %s, expected %s"
                          % (name, got[name], unit))
    errors += ["unexpected metric " + n for n in got if n not in want]
    return errors


def measure(args):
    if not build():
        return 1
    rc, result, notes = run_fccbench(args.workload, args.seed, args.seconds,
                                   args.trace)
    for note in notes:
        print(note)
    if result is None:
        log("fccbench exited %d without a result" % rc)
        return 1
    errors = metric_errors(result, args.trace)
    for error in errors:
        log(error)
    if errors or rc != 0 or not result.get("correct"):
        log("fccbench exit %d, correct=%s, failed=%s"
            % (rc, result.get("correct"), result.get("failed")))
        return 1
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def selftest():
    """Tiny inputs: every metric emitted with its unit, the gate trips
    on one corrupted archive byte, a seed reproduces its inputs."""
    if not build():
        return 1
    failures = []

    def expect(ok, what):
        print("selftest: %s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        first = None
        for trace in (0, 1):
            rc, result, notes = run_fccbench(workload, 11, 1, trace, ["--tiny"])
            ok = rc == 0 and result is not None and result["correct"]
            expect(ok, "%s trace=%d runs clean" % (workload, trace))
            if result is not None:
                errors = metric_errors(result, trace)
                expect(not errors, "%s trace=%d emits every metric with "
                       "its unit %s" % (workload, trace, errors or ""))
            if trace == 0:
                first = (notes, result)

        def inputs(notes):
            return [n for n in notes
                    if n.startswith(("# inputs:", "# query mix:"))]

        rc, again, notes = run_fccbench(workload, 11, 1, 0, ["--tiny"])
        expect(len(inputs(notes)) == 2 and inputs(notes) == inputs(first[0]),
               "%s: same seed, identical capture and query mix" % workload)
        ratio = lambda r: r and r["metrics"]["archive_ratio"]["value"]
        expect(again is not None and ratio(again) == ratio(first[1]),
               "%s: same seed, identical archive_ratio" % workload)
        rc, other, notes = run_fccbench(workload, 12, 1, 0, ["--tiny"])
        expect(len(inputs(notes)) == 2
               and inputs(notes)[1] != inputs(first[0])[1],
               "%s: another seed, another query mix" % workload)

        rc, bad, _ = run_fccbench(workload, 11, 1, 0, ["--tiny", "--corrupt"])
        expect(rc != 0 and bad is not None and not bad["correct"]
               and bad["failed"] >= 1,
               "%s: gate trips on one corrupted archive byte" % workload)

    print("selftest: %s" % ("FAILED: %d checks" % len(failures)
                            if failures else "all checks passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
