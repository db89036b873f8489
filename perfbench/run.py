#!/usr/bin/env python3
"""Frame-budget benchmark for the w4k sender, daemon and receiver.

One run:
    python3 perfbench/run.py --workload live-static --seed 1 --seconds 35 --trace 0

builds perfbench/ (which compiles the repository's src/ tree) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), trains the
quality-model cache there if it is missing (untimed), pins the workload's
thread counts, runs it, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 the per-layer metrics, and
writes <workload>-seed<n>.layers.json and a Chrome trace next to the build.

Steadiness self-check:
    python3 perfbench/run.py --selfcheck 10 [--workload mobile-crowd] [--seconds 35]

runs each workload k times on seeds 1..k and prints, per end-to-end
metric, the median, quartiles and (q3 - q1) / median next to its bound,
plus the same spread of the plain first-replay estimate (no replay
minimum) as a diagnostic column.

Workload shapes, thread pins, metric definitions and the layer ->
end-to-end map are in perfbench/layers.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Pool threads per workload (W4K_THREADS). More threads made the per-frame
# minima bimodal on a shared 4-vCPU VM; these are the steadiest settings.
with open(os.path.join(HERE, "layers.json")) as _f:
    THREADS = {name: w["threads"]
               for name, w in json.load(_f)["workloads"].items()}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once, then incrementally builds the benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no w4k source tree next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def prepare(binary):
    """Builds the quality-model cache outside every timed region."""
    cache = os.path.join(build_dir(), "quality_model.cache")
    state = "warm" if os.path.isfile(cache) else "built-untimed"
    if state != "warm":
        subprocess.run([binary, "prepare", "--model-cache", cache],
                       check=True, stdout=sys.stderr)
    return cache, state


def run_once(binary, cache, workload, seed, seconds, trace):
    """Runs one workload; returns the binary's JSON report."""
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, W4K_THREADS=str(THREADS[workload]))
    proc = subprocess.run(
        [binary, "run", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0",
         "--model-cache", cache, "--out-dir", out_dir],
        env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no report (exit {proc.returncode})")
    return json.loads(lines[-1])


def result_line(report, names):
    """The contract line: exactly correct/attempted/failed/metrics. A
    per-layer metric the workload does not exercise reads 0 (the layer
    did no work)."""
    got = report["metrics"]
    metrics = {}
    for name, unit in names:
        m = got.get(name, {"value": 0.0, "unit": unit})
        metrics[name] = {"value": m["value"], "unit": unit}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def main_run(args, spec):
    binary = build()
    cache, state = prepare(binary)
    report = run_once(binary, cache, args.workload, args.seed, args.seconds,
                      args.trace)
    report["env"]["model_cache"] = (
        "unused" if args.workload == "serve-paper" else state)
    log("env: " + json.dumps(report["env"]))
    log("plain (first replay, no minimum): " + json.dumps(
        {k: v["value"] for k, v in report["plain"].items()}))
    key = "per_layer" if args.trace else "end_to_end"
    names = [(m["name"], m["unit"]) for m in spec[key]]
    if not args.trace:
        missing = [n for n, _ in names if n not in report["metrics"]]
        if missing:
            report["correct"] = False
            report["errors"].append("missing end-to-end metrics: " +
                                    ", ".join(missing))
    for err in report["errors"]:
        log("FAIL: " + err)
    line = result_line(report, names)
    if not line["correct"]:
        line["metrics"] = {}
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main_selfcheck(args, spec):
    binary = build()
    cache, _ = prepare(binary)
    workloads = [args.workload] if args.workload else list(THREADS)
    ok = True
    for w in workloads:
        runs = []
        for seed in range(args.seed, args.seed + args.selfcheck):
            rep = run_once(binary, cache, w, seed, args.seconds, False)
            if not rep["correct"]:
                log(f"{w} seed {seed}: FAIL {rep['errors']}")
                ok = False
            runs.append(rep)
        print(f"\n{w}: {args.selfcheck} runs x {args.seconds:g} s, replays "
              + ",".join(r["env"]["replays"] for r in runs))
        print("frame_ms_p50 per run: " + " ".join(
            "%.4g" % r["metrics"]["frame_ms_p50"]["value"] for r in runs))
        print(f"{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'ok':>3} {'plain spread':>13}")
        for m in spec["end_to_end"]:
            name = m["name"]
            vals = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, s = spread(vals)
            good = name == "setup_s" or s < m["bound"] / 3
            ok = ok and good
            plain = ""
            if name in runs[0]["plain"]:
                plain = "%.4f" % spread(
                    [r["plain"][name]["value"] for r in runs])[3]
            print(f"{name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.4f} "
                  f"{m['bound']:6.3f} {'yes' if good else 'NO':>3} "
                  f"{plain:>13}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", type=int, metavar="K")
    args = p.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.selfcheck:
            if args.selfcheck < 2:
                p.error("--selfcheck needs at least 2 runs")
            return main_selfcheck(args, spec)
        if args.workload not in THREADS:
            p.error("--workload must be one of " + ", ".join(THREADS))
        return main_run(args, spec)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
