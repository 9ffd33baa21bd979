"""Benchmark of the stargraphs engine: one workload, one seed, one run.

    python3 perfbench/run.py --workload graph-level|eval-linear|eval-cubic \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from ``src/``.
Every workload instance runs in a fresh interpreter started from here, one
after another, because a command-line user pays the engine's caches cold on
every command.

``--trace 0`` starts instances until the next one would end after
``--seconds``, then starts a few set-up-only instances, and reports the
median of each end-to-end metric.  ``--trace 1`` runs one untraced and one
traced instance on the same inputs and reports the per-layer metrics; the
spans go to ``.perfbench_out/``.

The last line of stdout is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The line before it records the run's context (Python
version, CPUs, load average at the start, input hash, failure messages).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import PER_LAYER_METRICS  # noqa: E402  (needs HERE on sys.path)

WORKLOADS = ("graph-level", "eval-linear", "eval-cubic")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
SETUP_SAMPLES = 20  # set-up-only instances per untraced run, besides the measured ones
RUN_DEADLINE_S = 170.0  # the whole run must end within 180 s
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class ChildFailed(Exception):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _context() -> dict:
    with open("/proc/loadavg") as f:
        loadavg = f.read().strip()
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg": loadavg}


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = _now()
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, mode: str, spans: str | None = None) -> dict:
        """Run one instance to completion and return its JSON report."""
        remaining = RUN_DEADLINE_S - (_now() - self.started)
        if remaining <= 0:
            raise ChildFailed("run deadline reached")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed), "--mode", mode]
        if spans:
            cmd += ["--spans", spans]
        cmd += ["--spawned-at", repr(_now())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildFailed("%s instance passed the run deadline" % mode) from None
        if proc.returncode != 0:
            raise ChildFailed("%s instance exited with %d:\n%s"
                              % (mode, proc.returncode, proc.stderr[-2000:]))
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise ChildFailed("%s instance printed no report" % mode) from None


def measure(runner: Runner, seconds: float) -> tuple:
    """End-to-end metrics; returns (every instance's report, metrics)."""
    runner.spawn("setup")  # warm the bytecode and file caches; not measured
    instances, durations = [], []
    begin = _now()
    while True:
        t = _now()
        instances.append(runner.spawn("run"))
        durations.append(_now() - t)
        if _now() - begin + statistics.median(durations) > seconds:
            break
    reports = instances + [runner.spawn("setup") for _ in range(SETUP_SAMPLES)]
    metrics = {name: statistics.median(r[name] for r in instances)
               for name in ("wall_s", "cpu_s", "peak_rss_mib")}
    metrics["setup_s"] = statistics.median(r["setup_s"] for r in reports)
    return reports, metrics


def measure_traced(runner: Runner) -> tuple:
    """Per-layer metrics from one traced instance, with the tracing overhead
    against one untraced instance on the same inputs."""
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans-%s-seed%d.jsonl.gz" % (runner.workload, runner.seed))
    plain = runner.spawn("run")
    traced = runner.spawn("trace", spans)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_raw_s"]
    return [plain, traced], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stargraphs", "__init__.py")):
        print("perfbench: no engine source at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    context = _context()
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            reports, metrics = measure_traced(runner)
        else:
            reports, metrics = measure(runner, args.seconds)
    except ChildFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    units = dict(PER_LAYER_METRICS) if args.trace else END_TO_END_UNITS
    hashes = sorted({r["input_hash"] for r in reports})
    failures = [f for r in reports for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reports)
    record = dict(context, workload=args.workload, seed=args.seed, trace=args.trace,
                  input_hash=hashes, instances=sum(1 for r in reports if r["attempted"]),
                  failures=failures,
                  fail_ratio=len(failures) / attempted)
    result = {
        "correct": not failures and len(hashes) == 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    if not args.trace:
        runs = [r for r in reports if r["attempted"]]
        record["raw"] = {
            "wall_s": statistics.median(r["wall_raw_s"] for r in runs),
            "cpu_s": statistics.median(r["cpu_raw_s"] for r in runs),
            "setup_s": statistics.median(r["setup_raw_s"] for r in reports),
            "speed_scale": statistics.median(r["speed_scale"] for r in runs),
        }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(dict(record, result=result), f, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
