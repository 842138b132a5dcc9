#!/usr/bin/env python3
"""Builds and runs the iMAX-432 host-time benchmark.

    python3 perfbench/run.py --workload <filing|compute|tenants> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark package in this directory
is built from source with cargo (offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), once without and once with the flight
recorder (`--features trace`), each variant in its own subdirectory.

`--trace 0` runs the untraced binary in PROCESSES consecutive processes
that share the budget, pools their round and set-up samples, and reports
the end-to-end metrics from the pooled medians. Each process draws the
same inputs from the seed; pooling averages out what differs from one
process to the next on a threaded run (thread placement, memory layout).
`--trace 1` does the same with half the budget (the pooled median round
is the untraced wall time), then runs the traced binary for the other
half plus the layer probes, and reports the per-layer metrics. All
processes and both builds must agree bit for bit on the simulated cycles
per operation.

The last line of standard output is one JSON object with exactly the
keys `correct`, `attempted`, `failed` and `metrics`; the names and units
of the metrics are checked against `BENCHMARK.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# Untraced processes per run; each measures an equal share of the budget.
PROCESSES = 4


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(variant):
    """Builds one variant ("plain" or "trace") and returns its binary."""
    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = os.path.join(base, "perfbench-" + variant)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    if variant == "trace":
        cmd += ["--features", "trace"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Build output goes to stderr: stdout carries only the report.
    r = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        die(f"building the {variant} variant failed ({r.returncode})")
    return os.path.join(target, "release", "imax-perfbench")


def run(binary, args):
    """Runs the binary and returns its report (its last stdout line)."""
    r = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die(f"{os.path.basename(binary)} {' '.join(args)} failed ({r.returncode})")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        die(f"unreadable report: {e}")


def untraced(binary, common, seconds):
    """Runs PROCESSES untraced processes; returns their reports."""
    share = str(max(seconds / PROCESSES, 0.5))
    return [run(binary, common + ["--seconds", share, "--trace", "0"])
            for _ in range(PROCESSES)]


def samples(reports, key):
    return [float(x) for r in reports for x in r["info"][key].split()]


def pooled(reports):
    """End-to-end metrics over the pooled samples of several processes."""
    rounds = statistics.median(samples(reports, "round_ns_all"))
    ops = int(reports[0]["info"]["ops_per_round"])
    metrics = json.loads(json.dumps(reports[0]["metrics"]))
    metrics["ops_per_s"]["value"] = ops / (rounds / 1e9)
    metrics["setup_s"]["value"] = statistics.median(
        samples(reports, "setup_ns_all")) / 1e9
    metrics["peak_rss_mb"]["value"] = statistics.median(
        r["metrics"]["peak_rss_mb"]["value"] for r in reports)
    return metrics, rounds


def tail(rounds):
    """Median and the highest of p90/p95/p99 with at least ten samples
    beyond it, with the sample count (information only, never gated)."""
    n = len(rounds)
    s = sorted(rounds)
    p = max([q for q in (0.90, 0.95, 0.99) if n * (1 - q) >= 10], default=None)
    text = f"{n} samples, median {statistics.median(s) / 1e6:.3f} ms"
    if p is not None:
        text += f", p{round(p * 100)} {s[min(n - 1, int(p * n))] / 1e6:.3f} ms"
    return text


def declared(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["filing", "compute", "tenants"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.seed < 0:
        die("--seed must be non-negative")

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    plain = build("plain")
    if a.trace == 0:
        reports = untraced(plain, common, a.seconds)
        metrics, _ = pooled(reports)
        kind = "end_to_end"
    else:
        traced = build("trace")
        reports = untraced(plain, common, a.seconds / 2)
        _, round_ns = pooled(reports)
        rep = run(traced, common + [
            "--seconds", str(max(a.seconds / 2, 0.5)), "--trace", "1",
            "--untraced-round-ns", str(round_ns)])
        reports.append(rep)
        metrics = rep["metrics"]
        kind = "per_layer"

    correct = all(r["correct"] for r in reports)
    bits = {r["info"]["sim_cycles_per_op_bits"] for r in reports}
    if len(bits) != 1:
        print("perfbench: sim_cycles_per_op differs between processes "
              "or between the traced and untraced builds", file=sys.stderr)
        correct = False

    want = declared(kind)
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        die(f"{kind} metrics do not match BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"units {sorted(k for k in got if k in want and got[k] != want[k])}")

    for i, r in enumerate(reports):
        for k, v in r["info"].items():
            if not k.endswith("_all"):
                print(f"# process {i} {k}: {v}")
    print(f"# untraced rounds: {tail(samples(reports[:PROCESSES], 'round_ns_all'))}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
