#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload fine_run --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
several fresh processes, each timed from spawn until ``import junctionflow``
and input generation are done), then passes of the workload are repeated
until ``--seconds`` have elapsed (at least one pass). ``--trace 1`` splits
the time into untraced and traced passes and prints the per-layer metrics
(see layers.py). Every result is checked; the last stdout line is one JSON
object with ``correct``, ``attempted`` and ``failed`` counting checks, and
``metrics``. Workloads and their inputs are described in README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

# one thread per process; set in main() before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent

SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cell_updates_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def measure(workload, inputs, seconds: float) -> list:
    """Repeat passes until ``seconds`` have elapsed; at least one."""
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        passes.append(workload.run_pass(inputs))
    return passes


def setup_probe(args) -> float:
    """Seconds, at reference speed, from spawning a fresh interpreter until
    it has imported the package and generated this workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            line = proc.stdout.readline().split()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if len(line) != 3 or line[0] != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, {line!r})")
    scale, calibration_s = float(line[1]), float(line[2])
    return (elapsed - calibration_s) * scale


def end_to_end_metrics(setup_s: float, passes: list, probe) -> dict:
    """Times at reference speed (see speed.py). Element percentiles are
    printed, not returned: three workloads have one element per pass."""
    walls = []
    rates = []
    elements = []
    for p in passes:
        norm = [probe.normalize(t0, t1) for t0, t1 in p.spans]
        elements += norm
        walls.append(sum(norm))
        rates.append(p.cell_updates / walls[-1])
        print(f"pass: {p.wall_s:.4f} s elapsed, {walls[-1]:.4f} s at "
              "reference speed")
    if len(elements) > 1:
        deciles = statistics.quantiles(elements, n=10)
        print(f"element time p50 {statistics.median(elements) * 1e3:.2f} ms, "
              f"p90 {deciles[8] * 1e3:.2f} ms over {len(elements)} elements")
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cell_updates_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def traced_metrics(workload, args, workdir, untraced_inputs):
    """Untraced passes for half the time, then traced set-up and passes.

    Span times are raw elapsed times; only the overhead compares pass times
    at reference speed, because the two halves run at different moments.
    """
    import layers
    from tracing import Tracer

    tracer = Tracer()
    with SpeedProbe() as probe:
        untraced = measure(workload, untraced_inputs, args.seconds / 2)
        layers.instrument(tracer)
        try:
            inputs = workload.setup(args.seed, workdir)
            setup_trace = tracer.reset()
            traced = measure(workload, inputs, args.seconds / 2)
            pass_trace = tracer.reset()
        finally:
            tracer.restore()

    def median_pass(passes):
        return statistics.median(sum(probe.normalize(t0, t1)
                                     for t0, t1 in p.spans) for p in passes)

    overhead = median_pass(traced) / median_pass(untraced) - 1.0
    metrics = layers.layer_metrics(
        setup_trace, pass_trace, sum(p.wall_s for p in traced), len(traced),
        sum(p.output_bytes for p in traced), overhead)
    return metrics, untraced + traced


def environment() -> str:
    from junctionflow import kernels
    import numpy
    import scipy
    llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {os.cpu_count()}, backend "
            f"{'numba' if kernels.NUMBA_ENABLED else 'numpy'}, "
            f"{', '.join(THREAD_VARS)} = 1, last-level cache "
            f"{llc.read_text().strip() if llc.exists() else 'unknown'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        probe = SpeedProbe().__enter__()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    try:
        import junctionflow
        import layers
        import workloads
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(junctionflow.__file__).resolve().parents:
        print(f"junctionflow was imported from {junctionflow.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inputs = workload.setup(args.seed, workdir)
        if args.setup_only:
            probe.__exit__()
            print(f"ready {probe.scale(probe.durations)!r} "
                  f"{sum(probe.durations)!r}", flush=True)
            return 0
        if args.trace:
            metrics, passes = traced_metrics(workload, args, workdir, inputs)
            units = layers.METRICS
        else:
            setup_s = statistics.median(setup_probe(args)
                                        for _ in range(SETUP_PROBES))
            with SpeedProbe() as probe:
                passes = measure(workload, inputs, args.seconds)
            metrics = end_to_end_metrics(setup_s, passes, probe)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = workloads.summary(passes)
    failed = [name for p in passes for name, ok in p.checks if not ok]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, "
          f"{sum(len(p.element_s) for p in passes)} timed elements")
    print(f"environment: {environment()}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    print(f"  {'checks_total':<36} {result['attempted']}")
    print(f"  {'checks_failed':<36} {result['failed']}")
    for name in sorted(set(failed)):
        print(f"  FAILED: {name} ({failed.count(name)}x)")
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
