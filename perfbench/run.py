#!/usr/bin/env python3
"""Build the simulator from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload cell|grid|serve --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the bench program plus lsqd, from ../src and
../tools) into $CARGO_TARGET_DIR, or .bench_build when that is unset.

Progress goes to stderr. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, measured without any
instrumentation; with --trace 1 they are its per_layer list, from the
bench program's traced run. Every simulated result is checked (checks.py); an
operation that errors or fails a check counts in "failed".
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402

# Result paths that are operations of a workload. "ref" (the cell run
# alone through Simulator::run) and "journal" (the sweep journal read
# back) are the references those operations are checked against.
OP_PATHS = {"run", "sweep", "cold", "warm", "traced"}
SOURCES = ("src/CMakeLists.txt", "src/sim/simulator.cc", "tools/lsqd.cpp")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    """Configure once, then bring the bench program and lsqd up to date."""
    missing = [s for s in SOURCES
               if not os.path.isfile(os.path.join(ROOT, s))]
    if missing:
        raise SystemExit("perfbench: no simulator sources to build "
                         "(missing %s)" % ", ".join(missing))
    bdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", str(jobs()),
                    "--target", "perfbench", "lsqd"],
                   check=True, stdout=sys.stderr)
    return bdir


def run_bench(bdir, args):
    """Run the bench program to completion; returns (lines, peak RSS MiB)."""
    rundir = os.path.join(bdir, "runs", "%s-%d" % (args.workload,
                                                   os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LSQSCALE_")}
    if not args.trace:
        # The cold set-up is read from the host profiler's exactly
        # timed phases; one run-loop lap in 65536 cycles keeps that
        # profiled cell as fast as a plain one.
        env["LSQSCALE_HOST_PROFILE_SHIFT"] = "16"
    t0 = time.monotonic_ns()
    cmd = [os.path.join(bdir, "perfbench"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", rundir,
           "--t0-ns", str(t0), "--lsqd", os.path.join(bdir, "lsqd")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True)
    # The bench program, its forked cells and lsqd share one process group:
    # a run over its time limit loses all of them at once.
    timer = threading.Timer(args.seconds + 140,
                            lambda: os.killpg(proc.pid, signal.SIGKILL))
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        # Normally empty by now; after a crash, lsqd may be left.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    shutil.rmtree(rundir, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit("perfbench: bench program exited with %d"
                         % proc.returncode)
    lines = [json.loads(s) for s in out.decode().splitlines() if s]
    return lines, usage.ru_maxrss / 1024.0


def op_id(line):
    """One operation: a cell of one round (and one lsqd request)."""
    return (line["workload"], line["path"], line["round"],
            line.get("request", 0), line["key"])


def check(lines):
    """Returns (attempted, failed, reference problems) for the run."""
    results = [x for x in lines if x["kind"] == "result"]
    refs = {}
    problems = []
    for r in results:
        if r["path"] == "ref":
            refs[(r["workload"], r["key"])] = r
            problems += ["ref %s: %s" % (r["key"], v)
                         for v in checks.violations(r)]
    bad = set()
    ops = set()
    for x in lines:
        if x["kind"] == "error":
            if x["path"] in OP_PATHS:
                op = op_id(x)
                ops.add(op)
                bad.add(op)
                log("failed %s: %s" % (op, x["message"]))
            else:
                problems.append("%s %s: %s"
                                % (x["path"], x["key"], x["message"]))
    for r in results:
        if r["path"] == "ref":
            continue
        op = op_id(r)
        if r["path"] == "journal":
            op = op_id(dict(r, path="sweep"))
        else:
            ops.add(op)
        # Without a reference line the first result of the same cell is
        # the reference: every round repeats the same inputs.
        ref = refs.setdefault((r["workload"], r["key"]), r)
        found = checks.violations(r) + checks.mismatches(r, ref)
        if found:
            bad.add(op)
            log("failed %s: %s" % (op, "; ".join(found[:4])))
    return len(ops), len(bad & ops), problems


def median(values):
    if not values:
        raise SystemExit("perfbench: no measurement for a metric")
    return statistics.median(values)


def end_to_end(lines, rss_mb):
    rounds = [x for x in lines if x["kind"] == "round"]
    setup = [x["setup_s"] for x in lines if x["kind"] == "setup"]
    return {
        "wall_s": median([r["wall_s"] for r in rounds]),
        "sim_kips": median([r["committed"] / r["wall_s"] / 1e3
                            for r in rounds]),
        "cpu_s": median([r["cpu_s"] for r in rounds]),
        # cell and grid report one cold set-up per run; serve one per
        # daemon launched, each a new process.
        "setup_s": median(setup),
        # wait4's usage covers the bench program and every child it reaped
        # (forked cells, lsqd and lsqd's own children).
        "peak_rss_mb": rss_mb,
    }


def histogram_deltas(before, after, name):
    """(sum, count) of histogram `name` between two lsqd stats docs."""
    h0 = before["metrics"]["histograms"].get(name, {"sum": 0, "count": 0})
    h1 = after["metrics"]["histograms"].get(name, {"sum": 0, "count": 0})
    return h1["sum"] - h0["sum"], h1["count"] - h0["count"]


def per_layer(lines):
    values = {}
    for x in lines:
        if x["kind"] == "layer":
            values.setdefault(x["name"], []).append(x["value"])

    refs = {x["key"]: x for x in lines if x["kind"] == "result" and
            x["workload"] == "grid" and x["path"] == "ref"}
    values["harness.cell_overhead_ms"] = [
        (x["seconds"] - refs[x["key"]]["seconds"]) * 1e3
        for x in lines if x["kind"] == "result" and
        x["workload"] == "grid" and x["path"] == "sweep" and
        x["key"] in refs]

    requests = [x for x in lines if x["kind"] == "request"]
    docs = [x for x in lines if x["kind"] == "telemetry"]
    for path in ("cold", "warm"):
        values["serve.%s_request_s" % path] = [
            r["latency_s"] for r in requests if r["path"] == path]
    # Telemetry lines come in before/after pairs around each request.
    for req, before, after in zip(requests, docs[0::2], docs[1::2]):
        s, n = histogram_deltas(before["doc"], after["doc"],
                                "lsq_serve_queue_wait_us")
        values.setdefault("serve.queue_wait_ms", []).append(
            s / max(n, 1) / 1e3)
        s, n = histogram_deltas(before["doc"], after["doc"],
                                "lsq_serve_exec_us")
        exec_ms = s / max(n, 1) / 1e3
        values.setdefault("serve.exec_ms", []).append(exec_ms)
        values.setdefault("serve.overhead_ms", []).append(
            req["latency_s"] * 1e3 - exec_ms)
        s, n = histogram_deltas(before["doc"], after["doc"],
                                "lsq_serve_stream_send_us")
        values.setdefault("serve.stream_send_us", []).append(s / max(n, 1))
    # Checkpoint-cache hits over each daemon's life (its last document).
    last = {}
    for d in docs:
        last[d["round"]] = d["doc"]
    values["serve.cache_hits"] = [
        doc["metrics"]["counters"].get("lsq_serve_cache_hits_total", 0)
        for doc in last.values()]
    return {name: median(v) for name, v in values.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cell", "grid", "serve"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        raise SystemExit("perfbench: --seed must be >= 0 and "
                         "--seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    bdir = build()
    lines, rss_mb = run_bench(bdir, args)
    attempted, failed, problems = check(lines)
    for p in problems:
        log("reference check failed: " + p)
    measured = per_layer(lines) if args.trace else end_to_end(lines, rss_mb)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing or attempted == 0:
        raise SystemExit("perfbench: not measured: %s"
                         % ", ".join(missing or ["any operation"]))
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        log("%-28s %.6g %s" % (name, m["value"], m["unit"]))
    log("%d operations attempted, %d failed" % (attempted, failed))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
