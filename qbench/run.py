#!/usr/bin/env python3
"""qsyn benchmark: cold DSE sweeps, a SAT-verified sweep and an open-loop
qsynd request mix, with a traced per-stage replay.

Run from the repository root:

    python3 qbench/run.py --workload dse_sweep --seed 1 --seconds 15 --trace 0
    python3 qbench/run.py --all            # every workload, human-readable table

The first run configures and builds `qbench` and `qsynd` into `.bench_build/`.
Workloads (see qbench/DESIGN.md for why each was chosen):

  dse_sweep   cold explore_designs over {INTDIV, NEWTON} x n = 6..10,
              functional flow up to n = 8, sampled verification
  dse_sat     the same sweep over n = 5..7 with SAT verification
  daemon_mix  an open loop of synthesize requests and ping/stats probes
              against a freshly started qsynd on a fresh store

`--trace 0` measures the end-to-end metrics, `--trace 1` runs the traced
replay and reports the per-layer metrics; the metric names and units are
the ones BENCHMARK.json lists.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; a human-readable
summary goes to standard error.  The exit code is non-zero when an output
check fails, a run exceeds its hard ceiling, or the program cannot be built.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORKLOADS = ("dse_sweep", "dse_sat", "daemon_mix")
# Hard wall-clock ceiling of one run, after the build.
CEILING_S = 170.0
# Extra qsynd start-ups per run, so set-up time is a median.
DAEMON_SETUPS = 6
# Per-layer metrics a workload family does not exercise (reported as 0).
NOT_EXERCISED = {
    "dse": ("daemon.", "store.", "gen."),
    "daemon": ("graph.",),
}


class CheckFailed(Exception):
    pass


class CeilingExceeded(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def percentile(values, q):
    """Nearest-rank percentile (the same rule the qbench binary uses)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


class Ceiling:
    def __init__(self, workload, seconds):
        self.workload = workload
        self.seconds = seconds
        self.deadline = time.monotonic() + seconds

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise CeilingExceeded(
                f"workload {self.workload} exceeded its hard ceiling of {self.seconds:.0f} s")
        return left


def stop_process(proc):
    """Kills a child's whole process group and reaps it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def run_child(cmd, ceiling, cwd=None):
    """Runs a qbench subcommand and returns its last stdout line as JSON."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=cwd, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=ceiling.remaining())
    except subprocess.TimeoutExpired:
        stop_process(proc)
        raise CeilingExceeded(
            f"workload {ceiling.workload} exceeded its hard ceiling of {ceiling.seconds:.0f} s")
    finally:
        stop_process(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CheckFailed(f"{' '.join(cmd[:2])} exited with {proc.returncode}")
    return json.loads(lines[-1])


# --- build -------------------------------------------------------------------

def build():
    for required in ("CMakeLists.txt", "src", "tools/qsynd.cpp", "qbench/CMakeLists.txt"):
        if not os.path.exists(required):
            raise CheckFailed(f"missing {required}: run from the root of a qsyn checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", "qbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "qbench", "qsynd", "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "bin", "qbench"), os.path.join(BUILD_DIR, "tools", "qsynd")


# --- DSE workloads -------------------------------------------------------------

def dse_end_to_end(qbench, workload, seed, seconds, ceiling):
    """Cold sweeps, each in a fresh process, until `seconds` have passed."""
    sweeps = []
    start = time.monotonic()
    while not sweeps or time.monotonic() - start < seconds:
        spawned = time.monotonic()
        sweep = run_child([qbench, "sweep", "--workload", workload, "--seed", str(seed)], ceiling)
        sweep["setup_s"] = sweep["ready_mono"] - spawned
        sweeps.append(sweep)
    attempted = sum(s["flows"] for s in sweeps)
    wrong = sum(s["wrong"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    errors = [s["first_error"] for s in sweeps if s["first_error"]]
    for key in ("t_count_sum", "qubits_sum"):
        if len({s[key] for s in sweeps}) != 1:
            wrong += 1
            failed += 1
            errors.append(f"{key} differs between identical sweeps")
    walls = [ms for s in sweeps for ms in s["design_wall_ms"]]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in sweeps),
        "flows_per_s": statistics.median(s["flows_ok_verified"] / s["wall_s"] for s in sweeps),
        "t_count_sum": sweeps[0]["t_count_sum"],
        "qubits_sum": sweeps[0]["qubits_sum"],
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sweeps),
    }
    summary = {"sweeps": len(sweeps), "sweep_wall_s": statistics.median(s["wall_s"] for s in sweeps),
               "design_latencies": len(walls), "design_p50_ms": percentile(walls, 0.50),
               "design_p99_ms": percentile(walls, 0.99)}
    return metrics, attempted, failed, wrong, errors, summary


def dse_per_layer(qbench, workload, seed, ceiling):
    trace_path = os.path.join(BUILD_DIR, "traces", f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    out = run_child([qbench, "replay", "--workload", workload, "--seed", str(seed),
                     "--trace-out", trace_path], ceiling)
    errors = [out["first_error"]] if out["first_error"] else []
    summary = {"trace": trace_path, "sweep_wall_s": out["sweep_wall_s"], "replay_s": out["replay_s"]}
    return out["metrics"], out["attempted"], out["failed"], out["wrong"], errors, summary


# --- daemon_mix ----------------------------------------------------------------

def ping(sock_path):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock_path)
        s.sendall(b'{"cmd":"ping"}\n')
        return b"pong" in s.recv(4096)


def shutdown_daemon(sock_path):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock_path)
        s.sendall(b'{"cmd":"shutdown"}\n')
        s.recv(4096)


def start_daemon(qsynd, run_dir, ceiling):
    """Starts qsynd on a fresh store; returns (process, seconds until ping answered)."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    sock_path = os.path.join(run_dir, "d.sock")
    spawned = time.monotonic()
    proc = subprocess.Popen([os.path.abspath(qsynd), "--socket", "d.sock", "--store", "store"],
                            cwd=run_dir, stdout=subprocess.DEVNULL, start_new_session=True)
    while True:
        try:
            if ping(sock_path):
                return proc, time.monotonic() - spawned
        except (FileNotFoundError, ConnectionRefusedError):
            pass
        if proc.poll() is not None:
            raise CheckFailed(f"qsynd exited with {proc.returncode} during start-up")
        ceiling.remaining()
        time.sleep(0.0005)


def wait_daemon(proc, ceiling):
    """Waits for qsynd to exit; returns its peak RSS in MB."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                raise CheckFailed(f"qsynd exited with {proc.returncode}")
            return usage.ru_maxrss / 1024.0
        ceiling.remaining()
        time.sleep(0.005)


def daemon_run(qbench, qsynd, seed, seconds, ceiling, trace):
    run_dir = os.path.join(BUILD_DIR, "run", f"daemon-{os.getpid()}")
    setups = []
    proc = None
    try:
        for _ in range(DAEMON_SETUPS):
            proc, setup = start_daemon(qsynd, run_dir, ceiling)
            setups.append(setup)
            shutdown_daemon(os.path.join(run_dir, "d.sock"))
            wait_daemon(proc, ceiling)
        proc, setup = start_daemon(qsynd, run_dir, ceiling)
        setups.append(setup)
        cmd = [os.path.abspath(qbench), "mix", "--socket", "d.sock", "--seed", str(seed),
               "--seconds", str(seconds)]
        if trace:
            trace_path = os.path.abspath(os.path.join(BUILD_DIR, "traces", f"daemon_mix-seed{seed}.json"))
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            cmd += ["--trace-out", trace_path]
        out = run_child(cmd, ceiling, cwd=run_dir)
        rss = wait_daemon(proc, ceiling)
    finally:
        if proc is not None:
            stop_process(proc)
        shutil.rmtree(run_dir, ignore_errors=True)
    return out, setups, rss


def daemon_end_to_end(qbench, qsynd, seed, seconds, ceiling, trace=False):
    out, setups, rss = daemon_run(qbench, qsynd, seed, seconds, ceiling, trace)
    attempted = out["attempted"] + out["probes"]
    failed = out["failed"] + out["refused"] + out["wrong"]
    errors = [out["first_error"]] if out["first_error"] else []
    metrics = {
        "setup_s": statistics.median(setups),
        "flows_per_s": out["ok_verified"] / out["window_s"],
        "t_count_sum": out["t_count_sum"],
        "qubits_sum": out["qubits_sum"],
        "peak_rss_mb": rss,
    }
    summary = {"requests": out["requests"], "req_p50_ms": out["req_p50_ms"],
               "req_p99_ms": out["req_p99_ms"], "probes": out["probes"],
               "ctl_p50_ms": out["ctl_p50_ms"], "ctl_p99_ms": out["ctl_p99_ms"], "keys": out["keys_served"],
               "schedule_hash": out["schedule_hash"]}
    return metrics, attempted, failed, out["wrong"], errors, summary, out["metrics"]


def daemon_per_layer(qbench, qsynd, seed, seconds, ceiling):
    _, attempted, failed, wrong, errors, summary, layers = daemon_end_to_end(
        qbench, qsynd, seed, seconds, ceiling, trace=True)
    return layers, attempted, failed, wrong, errors, summary


# --- entry point -----------------------------------------------------------------

def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, spec, tools):
    qbench, qsynd = tools
    ceiling = Ceiling(workload, CEILING_S)
    family = "daemon" if workload == "daemon_mix" else "dse"
    if trace:
        specs = spec["per_layer"]
        if family == "dse":
            values, attempted, failed, wrong, errors, summary = dse_per_layer(qbench, workload, seed, ceiling)
        else:
            values, attempted, failed, wrong, errors, summary = daemon_per_layer(
                qbench, qsynd, seed, seconds, ceiling)
        for metric in specs:
            if metric["name"] not in values and metric["name"].startswith(NOT_EXERCISED[family]):
                values[metric["name"]] = 0.0
    else:
        specs = spec["end_to_end"]
        if family == "dse":
            values, attempted, failed, wrong, errors, summary = dse_end_to_end(
                qbench, workload, seed, seconds, ceiling)
        else:
            values, attempted, failed, wrong, errors, summary, _ = daemon_end_to_end(
                qbench, qsynd, seed, seconds, ceiling)
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise CheckFailed(f"workload {workload} produced no value for {', '.join(missing)}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, errors, summary


def print_summary(workload, result, errors, summary):
    log(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} fail_frac={result['failed'] / max(1, result['attempted']):.4f}")
    for name, m in result["metrics"].items():
        log(f"   {name:28s} {m['value']:>16.6g} {m['unit']}")
    for key, value in summary.items():
        log(f"   ({key}: {value})")
    for error in errors:
        log(f"   first problem: {error}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")

    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
        tools = build()
        workloads = WORKLOADS if args.all else (args.workload,)
        results = []
        for workload in workloads:
            result, errors, summary = run_workload(workload, args.seed, seconds, args.trace,
                                                   spec, tools)
            print_summary(workload, result, errors, summary)
            results.append(result)
    except (CheckFailed, CeilingExceeded, subprocess.CalledProcessError, OSError,
            json.JSONDecodeError, KeyError) as e:
        log(f"qbench: {e}")
        return 1
    if args.all:
        ok = all(r["correct"] for r in results)
        print(json.dumps({"correct": ok, "workloads": dict(zip(workloads, results))}))
        return 0 if ok else 1
    print(json.dumps(results[0]))
    return 0 if results[0]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
