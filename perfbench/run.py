"""Benchmark of qgal: three workloads, checked outputs, end-to-end metrics,
and a separate traced run for per-layer metrics.

    python3 perfbench/run.py --workload cli-readme --seed 1 --seconds 10 --trace 0

Run it from the root of a qgal checkout; qgal is imported from ./src.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are wall_s, op_p50_s, setup_s and peak_rss_mb, taken from each
operation's median latency over its samples, in the reference seconds of
hostspeed.py; with --trace 1 they are the per-layer metrics of
tracer.py.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# set-up is measured this many times per run and reported as the median;
# the nf-random set-up completes three algebras and takes ten times longer
SETUP_SAMPLES = {"cli-readme": 7, "build-catalog": 7, "nf-random": 3}

# the commands of the README's CLI section, at their documented arguments
README_COMMANDS = [
    ["verify", "Uq2m2", "--suite", "star"],
    ["verify", "GLq2m2", "--suite", "galois", "--degree", "2"],
    ["verify", "Uq2m2", "--suite", "all", "--json"],
    ["haar", "Uq2m2", "--degree", "1"],
    ["cotensor", "Uq2m2"],
    ["normalize", "GLq2", "x12*x11"],
    ["parse", "GLq2", "x11*(x12 + x21)"],
]
# the one long command, which runs once per round
LONG_COMMANDS = [README_COMMANDS[2]]
# the others run this many times per round: two samples are enough for
# their medians, and a third would cost 6 s a run
REPEATS = 2
# runs a command as the installed `qgal` console script does, with the
# host speed sampler installed
CHILD = str(HERE / "qgal_child.py")

WORKLOADS = ("cli-readme", "build-catalog", "nf-random")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(cmd):
    """(exit code, stdout, [start, end], peak RSS in MB) of one child
    process."""
    with open(OUT / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT, text=True)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.stderr.write((OUT / "stderr.txt").read_text())
    return proc.returncode, out, [start, end], usage.ru_maxrss / 1024.0


def start_until_ready(cmd):
    """Start a process; (process, [start, time it printed `ready`])."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter()
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: {cmd[1:3]} did not get ready: {line!r}")
    return proc, [start, ready]


def setup_run(cmd):
    """([start, ready], stdout after `ready`) of one set-up-only process."""
    proc, window = start_until_ready(cmd)
    rest = proc.stdout.read()
    proc.stdout.close()
    proc.stdin.close()
    if proc.wait():
        raise SystemExit(f"perfbench: set-up run failed: {cmd}")
    return window, rest


def read_child_out(path):
    out = json.loads(path.read_text())
    path.unlink()
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def run_cli_readme(args):
    setup, calib = [], []
    setup_left = 0 if args.trace else SETUP_SAMPLES["cli-readme"]
    commands = list(README_COMMANDS)
    random.Random(args.seed).shuffle(commands)
    samples, outputs, failed, traces = [], [], [], []
    count = [0] * len(commands)
    rss = 0.0
    start = time.perf_counter()
    while True:
        for rep in range(REPEATS):
            for i, argv in enumerate(commands):
                if rep and argv in LONG_COMMANDS:
                    continue
                if setup_left:
                    # set-up samples go between the first operations, so
                    # that they span the run as the operations do
                    child_out = OUT / "child-setup.json"
                    window, _ = setup_run([sys.executable, CHILD,
                                           str(child_out), "--ready"])
                    setup.append(window)
                    calib += read_child_out(child_out)["calib"]
                    setup_left -= 1
                label = "qgal " + " ".join(argv)
                op_id = f"o{i}.s{count[i]}"
                count[i] += 1
                child_out = OUT / f"child-{op_id}.json"
                cmd = [sys.executable, CHILD] + (
                    ["--trace"] if args.trace else []) + [
                    str(child_out), op_id] + argv
                code, out, window, peak = run_process(cmd)
                samples.append([i, label] + window)
                rss = max(rss, peak)
                if code:
                    failed.append(f"{label}: exit {code}")
                else:
                    outputs.append((argv, out))
                child = read_child_out(child_out)
                calib += child["calib"]
                if args.trace:
                    traces.append(child)
        if time.perf_counter() - start >= args.seconds:
            break
    return {"setup": setup, "samples": samples, "peak_rss_mb": rss,
            "outputs": outputs, "failed": failed, "traces": traces,
            "calib": calib}


def run_worker(args):
    n_setup = SETUP_SAMPLES[args.workload]
    # nf-random measures its other set-ups between segments of its rounds,
    # so that set-up and operations are both sampled across the whole run
    segments = n_setup if args.workload == "nf-random" and not args.trace \
        else 1
    worker = [sys.executable, str(HERE / "worker.py"), args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setup, calib = [], []

    def setup_only():
        window, rest = setup_run(worker + ["--setup-only"])
        setup.append(window)
        calib.extend(json.loads(rest)["calib"])

    if not args.trace:
        for _ in range(n_setup - segments):
            setup_only()
    trace_file = OUT / f"worker-{args.workload}.json"
    cmd = worker + ["--segments", str(segments)] + (
        ["--trace", str(trace_file)] if args.trace else [])
    proc, window = start_until_ready(cmd)
    setup.append(window)
    last = ""
    for line in proc.stdout:
        if line.strip() == "paused":
            setup_only()
            proc.stdin.write("go\n")
            proc.stdin.flush()
        else:
            last = line
    proc.stdout.close()
    proc.stdin.close()
    code = proc.wait()
    if code or not last:
        raise SystemExit(f"perfbench: worker exited {code}")
    result = json.loads(last)
    result["setup"] = setup
    result["calib"] += calib
    if args.trace:
        result["traces"] = [json.loads(trace_file.read_text())]
        trace_file.unlink()
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def latencies(samples, seconds):
    """Median over each operation's samples in the run of seconds(start,
    end)."""
    by_op = {}
    for index, _, start, end in samples:
        by_op.setdefault(index, []).append(seconds(start, end))
    return [statistics.median(v) for v in by_op.values()]


def end_to_end(result):
    speed = hostspeed.Speed(result["calib"])
    lat = latencies(result["samples"], speed.reference_seconds)
    raw = latencies(result["samples"], lambda a, b: b - a)
    setup = statistics.median(speed.reference_seconds(a, b)
                              for a, b in result["setup"])
    setup_raw = statistics.median(b - a for a, b in result["setup"])
    print(f"perfbench: host speed {speed.raw_factor():.3f} of the "
          f"reference; wall_s {sum(lat):.4f} reference s, "
          f"{sum(raw):.4f} s as timed; setup_s {setup:.4f} reference s, "
          f"{setup_raw:.4f} s as timed", file=sys.stderr)
    return {
        "wall_s": (sum(lat), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result, args):
    """Each layer metric: its set-up value plus, summed over operations,
    its median over each operation's samples."""
    merged = {"spans": [], "counts": {}}
    for trace in result["traces"]:
        merged["spans"] += trace["spans"]
        merged["counts"].update(trace["counts"])
    OUT.joinpath(f"{args.workload}-seed{args.seed}.trace.json").write_text(
        json.dumps(merged))
    setup, by_op = {}, {}
    for op_id, values in tracer.per_op(merged).items():
        if op_id == "setup":
            setup = values
        else:
            by_op.setdefault(op_id.split(".s")[0], []).append(values)
    metrics = {}
    for name, unit in tracer.metric_names().items():
        value = setup.get(name, 0) + sum(
            statistics.median_low(s.get(name, 0) for s in op_samples)
            for op_samples in by_op.values())
        metrics[name] = (value, unit)
    speed = hostspeed.Speed(result["calib"])
    metrics["trace.wall_s"] = (
        sum(latencies(result["samples"], speed.reference_seconds)), "s")
    return metrics


def check(result):
    """Apply the checks that need the Hilbert function to the outputs."""
    hilbert = checks.hilbert_2x2(6)
    problems = result.setdefault("problems", [])
    for argv, out in result.pop("outputs", []):
        problems += [f"qgal {' '.join(argv)}: {m}"
                     for m in checks.cli_problems(argv, out, hilbert)]
    for name, facts in result.pop("facts", []):
        problems += [f"{name}: {m}"
                     for m in checks.build_problems(facts, hilbert)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "qgal" / "cli.py").is_file():
        sys.exit(f"perfbench: no qgal sources at {SRC}; "
                 f"run from the root of a qgal checkout")
    OUT.mkdir(exist_ok=True)

    # A child's peak RSS on Linux counts this process's peak at the time
    # of the exec, so nothing large (sympy) is loaded here before the
    # workload has run.
    result = run_cli_readme(args) if args.workload == "cli-readme" \
        else run_worker(args)
    check(result)

    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    for op in result["failed"]:
        print(f"perfbench: operation failed: {op}", file=sys.stderr)
    metrics = per_layer(result, args) if args.trace else end_to_end(result)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": len(result["samples"]),
        "failed": len(result["failed"]),
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
