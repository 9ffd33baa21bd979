"""One workload instance in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace \
        --spawned-at T [--spans FILE]

``--spawned-at`` is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so set-up time covers interpreter start, imports and
input generation.  The process prints one JSON object on stdout:

* ``setup``: set-up only;
* ``run``: set-up, then every operation with its check, untraced;
* ``trace``: the same with every layer wrapped by the tracer; the per-layer
  metrics are returned and the spans written to ``--spans``.

On a shared machine the interpreter's speed can drift by a factor of two
within seconds while other tenants use the same cores.  So the times are
reported at a reference speed: a fixed pure-Python probe runs right after
set-up and, from a timer signal, every ``PROBE_PERIOD_S`` while the
operations run.  Each time is multiplied by ``REF_PROBE_S`` over the mean
probe duration of its window; probe time itself is not counted.  The raw
times are reported too.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


PROBE_ITERATIONS = 6000
PROBE_PERIOD_S = 0.5
REF_PROBE_S = 0.025  # probe duration that defines the reference speed


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe_work():
    """Fixed interpreter work of the engine's kind: Fractions, tuples, dicts."""
    total, counts = Fraction(0), {}
    for i in range(1, PROBE_ITERATIONS):
        key = (i % 97, i % 13)
        total += Fraction(i % 17 + 1, i % 11 + 1)
        counts[key] = counts.get(key, 0) + 1
    return total


class SpeedProbe:
    """Probe samples of one time window; as a context manager it also
    samples from SIGALRM every PROBE_PERIOD_S."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args):
        t = time.perf_counter()
        _probe_work()
        duration = time.perf_counter() - t
        self.samples.append(duration)
        self.spent += duration

    def scale(self) -> float:
        """Factor from this window's seconds to seconds at reference speed."""
        return REF_PROBE_S / statistics.fmean(self.samples)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        setup_span = tracer.open("perfbench.setup")
    import workloads

    inputs = workloads.prepare(args.workload, args.seed)
    ops = workloads.operations(inputs)
    setup_raw = _now() - args.spawned_at
    setup_probe = SpeedProbe()
    for _ in range(3):
        setup_probe.sample()
    out = {"setup_s": setup_raw * setup_probe.scale(), "setup_raw_s": setup_raw,
           "input_hash": inputs.digest(), "attempted": 0, "failures": []}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if tracer is not None:
        tracer.close(setup_span)
        ops_span = tracer.open("perfbench.ops")
        attempted, failures = workloads.run_operations(ops)
        out["wall_s"] = tracer.close(ops_span)
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        tracer.write_jsonl(args.spans)
    else:
        probe = SpeedProbe()
        probe.sample()
        first = _now()
        with probe:
            attempted, failures = workloads.run_operations(ops)
        wall_raw = _now() - first - (probe.spent - probe.samples[0])
        probe.sample()
        scale = probe.scale()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu_raw = usage.ru_utime + usage.ru_stime - probe.spent - setup_probe.spent
        out.update(wall_s=wall_raw * scale, wall_raw_s=wall_raw,
                   cpu_s=cpu_raw * scale, cpu_raw_s=cpu_raw, speed_scale=scale,
                   peak_rss_mib=usage.ru_maxrss / 1024.0)
    out.update(attempted=attempted, failures=failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
