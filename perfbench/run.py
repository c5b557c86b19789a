#!/usr/bin/env python3
"""Benchmark entry point for the xicheck integrity checker.

Run from the root of a checkout:

    python3 perfbench/run.py --workload guard_1mb --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

It builds bin/xicheck.exe and perfbench/xbench.exe with dune, runs the
workload (xbench spawns and drives xicheck), and prints the result as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run also writes a self-describing record (host, core count, CPU
model, OCaml version, commit or source digest, seed, dataset bytes,
metrics and per-class figures) to perfbench/out/.  --smoke runs all
three workloads, end to end and traced, on tiny documents.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["guard_1mb", "read_256kb", "coldstart_1mb"]
# The closed loops never have the load generator and the server runnable
# at once, so they share one CPU: a hand-off between two vCPUs of a
# shared VM waits for the host to wake the idle one, which added ~10 us
# to a 17 us live check for minutes at a time.  Cold starts keep every
# CPU (snapshot loading uses a second domain).
ONE_CPU = {"guard_1mb", "read_256kb"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def repo_present():
    return all(
        os.path.exists(os.path.join(ROOT, p))
        for p in ("dune-project", "bin/xicheck.ml", "lib/core/repository.ml")
    )


def build():
    # The dune cache would write outside the checkout; builds stay in _build.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "bin/xicheck.exe", "perfbench/xbench.exe"]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return False
    return proc.returncode == 0


def command_output(cmd):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def source_digest():
    h = hashlib.sha256()
    for top in ("dune-project", "bin", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            if not any(part.startswith((".", "_")) or part == "out"
                       for part in os.path.relpath(d, ROOT).split(os.sep)[1:])
            for f in fs
        )
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def host_description():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = ""
    dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "HEAD"])
        dirty = command_output(["git", "status", "--porcelain", "--untracked-files=no"]) != ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ocaml_version": command_output(["ocamlfind", "ocamlopt", "-version"])
        or command_output(["ocamlopt", "-version"]),
        "git_commit": commit or None,
        "git_dirty": dirty,
        "source_digest": source_digest(),
    }


def cpus_for(workload):
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:1] if workload in ONE_CPU else cpus


def figure(line):
    """A 'name value unit' line of xbench's report, or None."""
    parts = line.split()
    if len(parts) != 3:
        return None
    try:
        return parts[0], {"value": float(parts[1]), "unit": parts[2]}
    except ValueError:
        return None


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Run xbench once; returns (result dict or None, dataset bytes,
    per-class figures)."""
    work = os.path.join("perfbench", ".work", workload)
    out = os.path.join("perfbench", "out")
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    cmd = [
        os.path.join("_build", "default", "perfbench", "xbench.exe"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--xicheck",
        os.path.join("_build", "default", "bin", "xicheck.exe"),
        "--work", work, "--out", out,
    ] + (["--smoke"] if smoke else [])
    cpus = cpus_for(workload)
    # Own session, so every process xbench starts can be stopped at once;
    # its children inherit the CPU set.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        start_new_session=True, preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        stdout = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    lines = stdout.splitlines()
    result, dataset_bytes, figures = None, None, {}
    for line in lines[:-1]:
        if line.startswith('{"dataset_bytes"'):
            dataset_bytes = json.loads(line)["dataset_bytes"]
            continue
        print(line)
        named = figure(line)
        if named:
            figures[named[0]] = named[1]
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            log(f"{workload}: last line is not JSON: {lines[-1]!r}")
    else:
        log(f"{workload}: xbench exited with {proc.returncode}")
    return result, dataset_bytes, figures


def record(workload, seed, seconds, trace, result, dataset_bytes, figures, host):
    out = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out, exist_ok=True)
    doc = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "dataset_bytes": dataset_bytes, "host": host, "cpus": cpus_for(workload),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "result": result, "figures": figures,
    }
    path = os.path.join(out, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    return path


def smoke():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _, _ = run_workload(workload, 1, 1, trace, smoke=True)
            good = bool(result) and result["correct"] and result["failed"] == 0
            ok = ok and good
            print(f"smoke {workload} trace={trace}: {'ok' if good else 'FAILED'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="all workloads, tiny documents, about a minute")
    args = ap.parse_args()
    if not repo_present():
        log("perfbench: the xicheck sources (dune-project, bin/, lib/) are not here")
        return 2
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")
    if not build():
        return 3
    if args.smoke:
        return smoke()
    host = host_description()
    result, dataset_bytes, figures = run_workload(
        args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 4
    path = record(args.workload, args.seed, args.seconds, args.trace, result,
                  dataset_bytes, figures, host)
    print(f"# host: {json.dumps(host)}; record written to {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
