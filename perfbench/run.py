"""bpfloer benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  Each pass of a workload runs in a fresh
interpreter (perfbench/workload.py), so bpfloer's caches start cold as they
do for a command-line user.  Passes repeat while the next one is expected
to end no later than half a pass past --seconds.  The end-to-end metrics
are medians over the passes; set-up time is the median over the passes and
a few set-up-only interpreters.  Times are rescaled to a reference CPU speed
measured while they ran (speed.py); the raw medians are printed too.  With --trace 1 one instrumented pass
follows and the per-layer metrics are printed instead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 2 means the
benchmark could not run (no bpfloer sources, a pass that crashed or hung).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 5          # set-up-only interpreters per run, after one warm-up
RUN_LIMIT_S = 170         # a run ends within this, whatever --seconds says
# Workloads that may use every CPU (verify --jobs); the others run, with their
# speed probe, on one CPU.
ALL_CPUS = {"verify-q2"}


class BenchError(Exception):
    pass


def load_contract():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def spawn(workload, seed, deadline, *flags):
    """One fresh interpreter; returns its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % 2**32))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as e:
        raise BenchError("%s pass did not finish in time" % workload) from e
    if proc.returncode != 0:
        raise BenchError("%s pass exited %d:\n%s" % (workload, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.monotonic() - spawned
    result["spawned"] = spawned
    return result


class SpeedProbes:
    """One speed.py process per CPU the run uses; see speed.py."""

    def __init__(self, cpus):
        self.procs = [subprocess.Popen([sys.executable, str(HERE / "speed.py"), str(cpu)],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
                      for cpu in cpus]
        self.samples = []

    def stop(self):
        for proc in self.procs:
            try:
                out, _ = proc.communicate("", timeout=10)
                self.samples += json.loads(out)
            except (subprocess.TimeoutExpired, ValueError):
                proc.kill()
                proc.wait()

    def ref_seconds(self, seconds, lo, hi):
        """seconds spent in [lo, hi], rescaled to the probe's reference speed
        by the mean over [lo, hi] of the sampled speed (not of the kernel
        time: under a speed that flips between two levels the two differ)."""
        inside = [d for t, d in self.samples if lo <= t <= hi]
        if len(inside) < 5:   # too short to sample: use the nearest samples
            mid = (lo + hi) / 2
            inside = [d for t, d in sorted(self.samples, key=lambda x: abs(x[0] - mid))[:5]]
        if not inside:
            raise BenchError("the speed probe recorded nothing")
        return seconds * statistics.mean(speed.REF_KERNEL_S / d for d in inside)


def verdicts(result):
    return [(i["id"], i["ok"]) for i in result["items"]]


def run_workload(workload, seed, seconds, trace):
    every_cpu = sorted(os.sched_getaffinity(0))
    cpus = every_cpu if workload in ALL_CPUS else every_cpu[:1]
    os.sched_setaffinity(0, cpus)    # the passes inherit it
    probes = SpeedProbes(cpus)
    try:
        passes, setup_runs, traced = measure(workload, seed, seconds, trace)
    finally:
        probes.stop()
        os.sched_setaffinity(0, every_cpu)
    return summarize(workload, seed, seconds, trace, passes, setup_runs, traced, probes, cpus)


def measure(workload, seed, seconds, trace):
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    spawn(workload, seed, hard_deadline, "--setup-only")   # warm-up: bytecode caches
    setups = [spawn(workload, seed, hard_deadline, "--setup-only") for _ in range(SETUP_SPAWNS)]
    passes = []
    while True:
        passes.append(spawn(workload, seed, hard_deadline))
        # another pass only if it is expected to end by the deadline plus half a pass
        typical = statistics.median(p["process_s"] for p in passes)
        if time.monotonic() + typical / 2 > start + seconds:
            break
    traced = None
    if trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / ("trace-%s-seed%d.jsonl" % (workload, seed))
        traced = spawn(workload, seed, hard_deadline, "--trace-file", str(trace_file))
        traced["trace_file"] = str(trace_file.relative_to(ROOT))
    return passes, setups, traced


def summarize(workload, seed, seconds, trace, passes, setup_runs, traced, probes, cpus):
    first = passes[0]
    items = first["items"]
    failed = [i for i in items if not i["ok"]]
    problems = list(first["anomalies"])
    problems += ["unexpected failure %s: %s" % (i["id"], i["why"]) for i in failed if not i["known"]]
    problems += ["gate self-test %s did not catch the wrong answer" % k
                 for p in passes for k, ok in p["selftest"].items() if not ok]
    for p in passes[1:] + ([traced] if traced else []):
        if verdicts(p) != verdicts(first):
            problems.append("per-item verdicts differ between passes of one run")
    walls = [p["wall_s"] for p in passes]
    walls_ref = [probes.ref_seconds(p["wall_s"], *p["interval"]) for p in passes]
    setup_runs = setup_runs + passes
    setups = [r["setup_s"] for r in setup_runs]
    setups_ref = [probes.ref_seconds(r["setup_s"], r["spawned"], r["spawned"] + r["setup_s"])
                  for r in setup_runs]
    end_to_end = {
        "setup_s": statistics.median(setups_ref),
        "wall_s": statistics.median(walls_ref),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024.0,
        "pass_ratio": (len(items) - len(failed)) / len(items),
        "raw_setup_s": statistics.median(setups),
        "raw_wall_s": statistics.median(walls),
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "commit": git_commit(), "bpfloer_version": first["bpfloer_version"],
        "inputs": first["inputs"], "cpus": cpus, "passes": len(passes), "pass_wall_s": walls,
        "pass_wall_ref_s": walls_ref, "probe_samples": len(probes.samples),
        "setup_samples_s": setups, "setup_ref_samples_s": setups_ref,
        "cpu_s": [p["cpu_s"] for p in passes],
        "fail_ratio": "%d/%d" % (len(failed), len(items)),
        "failed_items": [[i["id"], "known defect" if i["known"] else "UNEXPECTED", i["why"]]
                         for i in failed],
        "selftests": first["selftest"], "problems": problems,
    }
    if traced:
        traced_ref = probes.ref_seconds(traced["wall_s"], *traced["interval"])
        record["trace_file"] = traced["trace_file"]
        record["trace_wall_s"] = traced_ref
        record["trace_overhead_s"] = traced_ref - end_to_end["wall_s"]
        traced["layers"]["trace.overhead_s"] = record["trace_overhead_s"]
    return {
        "correct": not problems, "attempted": len(items), "failed": len(failed),
        "end_to_end": end_to_end, "layers": traced["layers"] if traced else None,
        "record": record,
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def pick(values, units):
    """The contract's metrics, in its order; a layer never entered reads 0."""
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}


def describe(res, e2e_units):
    rec = res["record"]
    lines = ["%s seed %d: %d passes, python %s, nproc %d, commit %s"
             % (rec["workload"], rec["seed"], rec["passes"], rec["python"], rec["nproc"],
                rec["commit"])]
    units = dict(e2e_units, raw_setup_s="s (not rescaled)", raw_wall_s="s (not rescaled)")
    for name, value in res["end_to_end"].items():
        lines.append("  %-12s %.6g %s" % (name, value, units[name]))
    lines.append("  %-12s %s = %.4g (failed / attempted items per pass)"
                 % ("fail_ratio", rec["fail_ratio"], res["failed"] / res["attempted"]))
    for ident, kind, why in rec["failed_items"]:
        lines.append("    %s [%s] %s" % (ident, kind, why))
    for problem in rec["problems"]:
        lines.append("  PROBLEM: %s" % problem)
    if "trace_overhead_s" in rec:
        lines.append("  traced pass %.3f s, overhead %+.3f s (reference speed), spans in %s"
                     % (rec["trace_wall_s"], rec["trace_overhead_s"], rec["trace_file"]))
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "bpfloer" / "__init__.py").is_file():
        print("error: no bpfloer sources under %s" % SRC, file=sys.stderr)
        return 2
    names, e2e_units, layer_units = load_contract()
    if args.workload != "all" and args.workload not in names:
        print("error: unknown workload %r (one of %s, all)" % (args.workload, names),
              file=sys.stderr)
        return 2
    todo = names if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in todo}
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    for w, res in results.items():
        print(describe(res, e2e_units))
        print(json.dumps({"record": res["record"]}, sort_keys=True))
    if len(results) == 1:
        res = results[todo[0]]
        metrics = pick(res["layers"], layer_units) if args.trace else pick(res["end_to_end"], e2e_units)
    else:
        metrics = {}
        for w, res in results.items():
            values = res["layers"] if args.trace else res["end_to_end"]
            units = layer_units if args.trace else e2e_units
            metrics.update({"%s.%s" % (w, k): v for k, v in pick(values, units).items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
