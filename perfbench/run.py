#!/usr/bin/env python3
"""Repository benchmark of the FedSU simulator (see perfbench/README.md).

One run measures one workload:

    python3 perfbench/run.py --workload train-cnn16 --seed 1 --seconds 25 --trace 0

It builds perfbench/runner.cpp against ../src (incrementally, under
$CARGO_TARGET_DIR or .bench_build), runs the workload for --seconds, checks
the outputs, prints a human-readable report, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.

    python3 perfbench/run.py --self-check

runs every workload briefly, checks that every metric of BENCHMARK.json is
emitted with its unit, runs every output check and the thread-count
invariance check, and exits non-zero on any failure.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("train-cnn16", "sync-fedsu256", "async-churn128")

# Output checks (perfbench/README.md "Output checks").
ACCURACY_FLOOR = {"train-cnn16": 0.85}
TTA_TARGET = {"train-cnn16": 0.90}  # test accuracy tta_sim_s is measured to
SPECULATED_FLOOR = {"sync-fedsu256": 0.5}
LOADED_SHARE = 0.25  # busy CPU share before a run that marks a loaded host

# End-to-end metrics reported in the result line (--trace 0), with units.
END_TO_END = {
    "round_wall_ms_p50": "ms",
    "round_wall_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed in the report where they apply; seed-sensitive or not defined on
# every workload, so not part of the result line.
REPORT_ONLY = {
    "updates_per_s": "1/s",
    "samples_per_s": "1/s",
    "wire_mb_per_round": "MB",
    "sim_s_per_round": "s",
    "speculated_fraction": "fraction",
    "final_accuracy": "fraction",
    "tta_sim_s": "s",
    "failed_round_share": "fraction",
}

# The one place span names map to per-layer metrics: per-round means of
# these spans' totals over the traced passes' timed rounds.
SPAN_METRICS = {
    "fl.train_ms": "sim.train",
    "fl.sync_ms": "sim.sync",
    "fl.timing_ms": "sim.timing",
    "fl.eval_ms": "sim.eval",
    "core.sync_ms": "core.fedsu.sync",
    "core.speculate_ms": "core.fedsu.speculate",
    "core.feedback_ms": "core.fedsu.feedback",
    "core.diagnosis_ms": "core.fedsu.diagnosis",
    "compress.fedavg.sync_ms": "compress.fedavg.sync",
    "net.uplink_ms": "net.async_uplink",
}
CLIENT_TRAIN_SPAN = "client.train"
STEP_PHASES = ("fl.train_ms", "fl.sync_ms", "fl.timing_ms", "fl.eval_ms")

PER_LAYER = {
    "fl.step_ms": "ms",
    "fl.train_ms": "ms",
    "fl.sync_ms": "ms",
    "fl.timing_ms": "ms",
    "fl.eval_ms": "ms",
    "fl.self_ms": "ms",
    "fl.client_train_ms": "ms",
    "fl.train_parallel_eff": "ratio",
    "fl.faults.lost": "count",
    "fl.faults.corrupt": "count",
    "fl.faults.crashed": "count",
    "fl.faults.stalled": "count",
    "fl.async.mean_staleness": "rounds",
    "nn.fwd_ms": "ms",
    "nn.loss_ms": "ms",
    "nn.bwd_ms": "ms",
    "nn.sgd_ms": "ms",
    "nn.step_ms": "ms",
    "nn.step_gflops": "GFLOP/s",
    "nn.allocs_per_step": "count",
    "data.batch_ms": "ms",
    "tensor.conv1_gemm_gflops": "GFLOP/s",
    "tensor.gemm_peak_gflops": "GFLOP/s",
    "core.sync_ms": "ms",
    "core.speculate_ms": "ms",
    "core.feedback_ms": "ms",
    "core.diagnosis_ms": "ms",
    "core.sync_vs_fedavg": "ratio",
    "core.promotions": "count",
    "core.demotions": "count",
    "core.expiring": "count",
    "core.unpredictable": "count",
    "core.error_store_mb": "MB",
    "core.error_slabs": "count",
    "compress.fedavg.sync_ms": "ms",
    "compress.wire_up_mb": "MB",
    "compress.wire_down_mb": "MB",
    "net.uplink_ms": "ms",
    "net.flows": "count",
    "io.snapshot_ms": "ms",
    "io.snapshot_mb": "MB",
    "obs.trace_overhead": "ratio",
}

# Host-time fields of a round; everything else in a round is simulated and
# must repeat bit for bit.
HOST_FIELDS = ("wall_ms", "step_ms", "fedavg_ms", "snapshot_ms", "spans")


class BuildError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(threads):
    """Configures once, then builds incrementally; returns the runner path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ninja = shutil.which("ninja")
        configured = os.path.exists(
            os.path.join(out, "build.ninja" if ninja else "Makefile"))
        steps = []
        if not configured:
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"]
                         + (["-G", "Ninja"] if ninja else []))
        steps.append(["cmake", "--build", out, "-j", str(threads)])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
            if done.returncode != 0:
                raise BuildError(" ".join(cmd) + " failed")
    return os.path.join(out, "perfbench_runner")


def run_runner(runner, workload, seed, seconds, trace, threads, quick):
    cmd = [runner, "--workload", workload, "--seed", str(seed),
           "--budget-s", str(seconds), "--trace", "1" if trace else "0",
           "--threads", str(threads), "--quick", "1" if quick else "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=160)
    if done.returncode != 0:
        raise RuntimeError(f"runner exited with {done.returncode}")
    return json.loads(done.stdout)


# --- statistics --------------------------------------------------------------

def timed(pass_):
    return [r for r in pass_["rounds"] if r["timed"]]


def passes(doc, traced):
    return [p for p in doc["passes"] if p["traced"] == traced]


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# --- simulated quantities ------------------------------------------------------

def simulated(doc, workload):
    """Exact simulated quantities of one trajectory (all passes agree)."""
    p = doc["passes"][0]
    rounds = timed(p)
    out = {
        "wire_mb_per_round": mean(
            (r["bytes_up"] + r["bytes_down"]) / 1e6 for r in rounds),
        "sim_s_per_round": mean(r["sim_s"] for r in rounds),
        "speculated_fraction": mean(r["spec"] for r in rounds),
    }
    if "final_accuracy" in p:
        out["final_accuracy"] = p["final_accuracy"]
    if workload in TTA_TARGET:
        reached = [r["elapsed_s"] for r in p["rounds"]
                   if (r.get("acc") or 0.0) >= TTA_TARGET[workload]]
        out["tta_sim_s"] = reached[0] if reached else None
    return out


def digest(pass_):
    """Hash of everything a pass simulated; host times are left out."""
    rounds = [{k: v for k, v in r.items() if k not in HOST_FIELDS}
              for r in pass_["rounds"]]
    body = {k: v for k, v in pass_.items()
            if k not in ("rounds", "setup_s", "traced")}
    text = json.dumps([rounds, body], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def round_failed(r):
    if r.get("threw"):
        return True
    if "loss" in r and (r["loss"] is None or not math.isfinite(r["loss"])):
        return True
    return "faults" in r and not r["faults"]["quorum_met"]


# --- output checks -------------------------------------------------------------

def check(doc, workload):
    """Returns the list of failed output checks (empty when all pass)."""
    failures = []
    digests = {digest(p) for p in doc["passes"]}
    if len(digests) != 1:
        failures.append(f"passes disagree on simulated outputs: {sorted(digests)}")
    for i, p in enumerate(doc["passes"]):
        if "error" in p:
            failures.append(f"pass {i}: {p['error']}")
        bad = [r for r in p["rounds"] if round_failed(r)]
        if bad:
            failures.append(f"pass {i}: {len(bad)} failed rounds "
                            "(threw, stalled, or non-finite loss)")
        failures += reconcile(p, workload, i)
    sim = simulated(doc, workload)
    if workload in ACCURACY_FLOOR:
        floor = ACCURACY_FLOOR[workload]
        if not sim["final_accuracy"] >= floor:
            failures.append(f"final_accuracy {sim['final_accuracy']} < {floor}")
    if workload in TTA_TARGET and sim["tta_sim_s"] is None:
        failures.append(f"test accuracy never reached {TTA_TARGET[workload]}")
    if workload in SPECULATED_FLOOR:
        floor = SPECULATED_FLOOR[workload]
        low = [r["spec"] for p in doc["passes"] for r in timed(p)
               if not r["spec"] >= floor]
        if low:
            failures.append(f"{len(low)} timed rounds speculated < {floor} "
                            f"(min {min(low)})")
    return failures


def reconcile(p, workload, i):
    """Fault-counter reconciliation (fl/simulation.h RoundRecord::faults)."""
    rounds = [r for r in p["rounds"] if not r.get("threw")]
    if workload == "async-churn128":
        # Cumulative form: a cycle may consume uploads dispatched earlier.
        selected = sum(r["faults"]["selected"] for r in rounds)
        settled = sum(r["participants"] + r["lost"] + r["faults"]["corrupt"]
                      + r["faults"]["deadline_missed"] + r["faults"]["unused"]
                      for r in rounds)
        inflight = rounds[-1]["async"]["inflight"] if rounds else 0
        if selected != settled + inflight:
            return [f"pass {i}: selected {selected} != settled {settled} "
                    f"+ in flight {inflight}"]
        return []
    if workload == "train-cnn16":
        # No faults: every round aggregates the earliest 70 % of 16 clients.
        wrong = [r["participants"] for r in rounds if r["participants"] != 12]
        if wrong:
            return [f"pass {i}: participant counts {wrong} != 12"]
    return []


def remember_digest(runner, doc, workload, seed):
    """Fails when an earlier run of this same runner binary saw other
    simulated outputs for the seed."""
    with open(runner, "rb") as f:
        binary = hashlib.sha256(f.read()).hexdigest()[:16]
    store = os.path.join(build_dir(), "digests", binary)
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{workload}-{seed}.txt")
    current = digest(doc["passes"][0])
    if os.path.exists(path):
        with open(path) as f:
            previous = f.read().strip()
        if previous != current:
            return [f"simulated outputs differ from an earlier run with seed "
                    f"{seed}: {previous} vs {current}"]
        return []
    with open(path, "w") as f:
        f.write(current + "\n")
    return []


# --- metrics -------------------------------------------------------------------

def end_to_end(doc, workload):
    runs = passes(doc, traced=False)
    rounds = [r for p in runs for r in timed(p)]
    walls = [r["wall_ms"] for r in rounds]
    wall_s = sum(walls) / 1e3
    updates = sum(r["participants"] for r in rounds)
    attempted = sum(len(p["rounds"]) for p in doc["passes"])
    failed = sum(round_failed(r) for p in doc["passes"] for r in p["rounds"])
    sim = simulated(doc, workload)
    out = {
        "round_wall_ms_p50": statistics.median(walls),
        "round_wall_ms_p90": statistics.quantiles(
            walls, n=10, method="inclusive")[8],
        "updates_per_s": updates / wall_s,
        "setup_s": statistics.median(p["setup_s"] for p in runs),
        "peak_rss_mb": doc["peak_rss_bytes"] / 1e6,
        "failed_round_share": failed / attempted,
    }
    out.update(sim)
    if doc["samples_per_update"]:
        out["samples_per_s"] = out["updates_per_s"] * doc["samples_per_update"]
    return out, len(walls), len(runs)


def per_layer(doc, workload, threads):
    traced = passes(doc, traced=True)
    untraced = passes(doc, traced=False)
    rounds = [r for p in traced for r in timed(p)]
    first = timed(traced[0])

    def span(name, field=0):
        return sum(r["spans"].get(name, (0.0, 0))[field] for r in rounds)

    m = {metric: span(name) / len(rounds) for metric, name in SPAN_METRICS.items()}
    engine = "step_ms" in rounds[0]
    m["fl.step_ms"] = mean(r["step_ms"] for r in rounds) if engine else 0.0
    m["fl.self_ms"] = (m["fl.step_ms"] - sum(m[k] for k in STEP_PHASES)
                       if engine else 0.0)
    client_ms, client_calls = span(CLIENT_TRAIN_SPAN), span(CLIENT_TRAIN_SPAN, 1)
    m["fl.client_train_ms"] = client_ms / client_calls if client_calls else 0.0
    train_ms = span(SPAN_METRICS["fl.train_ms"])
    m["fl.train_parallel_eff"] = (client_ms / (threads * train_ms)
                                  if train_ms else 0.0)

    faults = [r["faults"] for r in first if "faults" in r]
    m["fl.faults.lost"] = sum(r.get("lost", 0) for r in first)
    m["fl.faults.corrupt"] = sum(f["corrupt"] for f in faults)
    m["fl.faults.crashed"] = sum(f["crashed"] for f in faults)
    m["fl.faults.stalled"] = sum(not f["quorum_met"] for f in faults)
    cycles = [r["async"] for r in first if "async" in r]
    consumed = sum(c["consumed"] for c in cycles)
    m["fl.async.mean_staleness"] = (
        sum(c["mean_staleness"] * c["consumed"] for c in cycles) / consumed
        if consumed else 0.0)

    probes = doc["probes"]
    nn = probes["nn"]
    for name in ("fwd", "loss", "bwd", "sgd", "step"):
        m[f"nn.{name}_ms"] = statistics.median(nn[f"{name}_ms"])
    m["data.batch_ms"] = statistics.median(nn["batch_ms"])
    m["nn.step_gflops"] = nn["flops_per_step"] / (m["nn.step_ms"] * 1e6)
    m["nn.allocs_per_step"] = nn["allocs"] / len(nn["step_ms"])
    m["tensor.conv1_gemm_gflops"] = probes["tensor"]["conv1_gemm_gflops"]
    m["tensor.gemm_peak_gflops"] = probes["tensor"]["gemm_peak_gflops"]

    reference = [r["fedavg_ms"] for p in untraced for r in timed(p)
                 if "fedavg_ms" in r]
    m["core.sync_vs_fedavg"] = (
        statistics.median(r["wall_ms"] for p in untraced for r in timed(p))
        / statistics.median(reference) if reference else 0.0)
    for name in ("promotions", "demotions", "expiring", "unpredictable"):
        m[f"core.{name}"] = mean(r["diag"][name] for r in first)
    m["core.error_store_mb"] = traced[0]["error_store_bytes"] / 1e6
    m["core.error_slabs"] = traced[0]["error_slabs"]
    m["compress.wire_up_mb"] = mean(r["bytes_up"] / 1e6 for r in first)
    m["compress.wire_down_mb"] = mean(r["bytes_down"] / 1e6 for r in first)
    # One upload flow per dispatch, kept for the whole run (net/async_queue.h).
    m["net.flows"] = (sum(r["faults"]["selected"] for r in traced[0]["rounds"])
                      if workload == "async-churn128" else 0)
    snaps = [r for r in rounds if "snapshot_ms" in r]
    m["io.snapshot_ms"] = mean(r["snapshot_ms"] for r in snaps)
    m["io.snapshot_mb"] = mean(r["snapshot_bytes"] / 1e6 for r in snaps)
    m["obs.trace_overhead"] = (
        statistics.median(r["wall_ms"] for r in rounds)
        / statistics.median(r["wall_ms"] for p in untraced for r in timed(p))
        - 1.0)
    series = {metric: [r["spans"].get(SPAN_METRICS[metric], (0.0, 0))[0]
                       for r in first]
              for metric in ("net.uplink_ms", "fl.timing_ms")}
    return m, series


# --- host fingerprint ------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def busy_share(seconds=0.5):
    """Share of CPU time the whole host spent busy over a short idle wait."""
    def sample():
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        idle = fields[3] + fields[4]  # idle + iowait
        return sum(fields) - idle, sum(fields)
    try:
        busy0, total0 = sample()
        time.sleep(seconds)
        busy1, total1 = sample()
    except (OSError, ValueError, IndexError):
        return 0.0
    return (busy1 - busy0) / max(1, total1 - total0)


def fingerprint(doc, busy, load_before, load_after):
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "isa": doc["isa"],
        "build": doc["build"],
        "threads": doc["threads"],
        "seed": doc["seed"],
        "load_before": load_before,
        "load_after": load_after,
        "busy_before": busy,
        "loaded": busy > LOADED_SHARE,
    }


# --- reporting -----------------------------------------------------------------

def report(workload, host, e2e, samples, npasses, layers, series, failures):
    print(f"perfbench {workload}  seed={host['seed']} threads={host['threads']} "
          f"nproc={host['nproc']} isa={host['isa']} build={host['build']}")
    print(f"host: {host['cpu']}  load {host['load_before'][0]:.2f} -> "
          f"{host['load_after'][0]:.2f}, {host['busy_before']:.0%} busy before"
          + ("  [LOADED at start]" if host["loaded"] else ""))
    print(f"end-to-end (untraced; {samples} timed rounds over {npasses} passes):")
    for name, unit in list(END_TO_END.items()) + list(REPORT_ONLY.items()):
        value = e2e.get(name)
        if value is None:
            continue
        print(f"  {name:<22} {value:>14.6g} {unit}")
    if layers is not None:
        print("per-layer (traced):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<26} {layers[name]:>14.6g} {unit}")
        if workload == "async-churn128":
            print("series " + json.dumps(series))
    print("checks: " + ("ok" if not failures else "FAILED"))
    for f in failures:
        print(f"  FAIL {f}")
    print("fingerprint " + json.dumps(host))


def measure(runner, workload, seed, seconds, trace, threads, quick):
    """Runs one workload; returns (result line dict, failures, details)."""
    load_before = os.getloadavg()
    busy = busy_share()
    if busy > LOADED_SHARE:
        log(f"perfbench: warning: host {busy:.0%} busy before the run")
    doc = run_runner(runner, workload, seed, seconds, trace, threads, quick)
    host = fingerprint(doc, busy, load_before, os.getloadavg())
    failures = check(doc, workload)
    if not quick:
        if len([r for p in passes(doc, False) for r in timed(p)]) < 100:
            failures.append("fewer than 100 timed rounds for the p90")
        failures += remember_digest(runner, doc, workload, seed)
    e2e, samples, npasses = end_to_end(doc, workload)
    layers = series = None
    if trace:
        layers, series = per_layer(doc, workload, threads)
    report(workload, host, e2e, samples, npasses, layers, series, failures)
    chosen = layers if trace else e2e
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not failures,
        "attempted": sum(len(p["rounds"]) for p in doc["passes"]),
        "failed": sum(round_failed(r) for p in doc["passes"] for r in p["rounds"]),
        "metrics": {name: {"value": chosen[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, failures, doc


def self_check(runner, threads):
    """Fast end-to-end check of the benchmark itself."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        emitted = PER_LAYER if trace else END_TO_END
        for m in spec[key]:
            if emitted.get(m["name"]) != m["unit"]:
                problems.append(f"{key} metric {m['name']} [{m['unit']}] is "
                                f"emitted as [{emitted.get(m['name'])}]")
    for workload in WORKLOADS:
        for trace in (False, True):
            result, failures, doc = measure(runner, workload, 1, 1, trace,
                                            threads, quick=True)
            problems += [f"{workload}: {f}" for f in failures]
            for name, metric in result["metrics"].items():
                if not math.isfinite(metric["value"]):
                    problems.append(f"{workload}: {name} is not finite")
        # §5b: results are bitwise identical for every thread count.
        single = run_runner(runner, workload, 1, 1, False, 1, True)
        if digest(single["passes"][0]) != digest(doc["passes"][0]):
            problems.append(f"{workload}: outputs differ between 1 and "
                            f"{threads} threads")
    for p in problems:
        print(f"SELF-CHECK FAIL {p}")
    print("self-check: " + ("ok" if not problems else f"{len(problems)} failures"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int,
                        default=min(4, os.cpu_count() or 1))
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")
    try:
        runner = build(args.threads)
    except (BuildError, OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    if args.self_check:
        return self_check(runner, args.threads)
    try:
        result, failures, _ = measure(runner, args.workload, args.seed,
                                      args.seconds, args.trace == 1,
                                      args.threads, quick=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        log(f"perfbench: run failed: {e}")
        return 1
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
