"""qshare benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qshare checkout; the package is imported from its
`src/` directory. With --trace 0 the run prints the end-to-end metrics
(set-up time, host time of one round of executions, both normalised to a
reference host speed, and peak memory); with --trace 1 it runs one untraced
and one traced round and prints the per-layer metrics. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread: the workloads do no linear algebra, and a thread pool per
# process only adds scheduling noise on a 2-vCPU machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hostspeed import Speedometer  # noqa: E402
from tracing import PausableClock, Tracer, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("wcbg-unpredictable", "fct-shuffle", "fill-16to1")
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds < 1:
        p.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Put the checkout's src/ first on the path; fail without it, so an
    installed copy of the package is never measured instead."""
    src = ROOT / "src"
    if not (src / "qshare" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qshare package under {src}")
    sys.path.insert(0, str(src))


def measure_setup(args) -> float:
    """Median time from starting a fresh interpreter until the workload's
    inputs are ready, over SETUP_PROBES sequential child processes. Each
    child reports its host-speed factor and probe time, and the wall time is
    normalised like `run_s`."""
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline().split()
            ready = time.perf_counter()
            child.stdout.read()
            child.wait()
        if len(line) != 3 or line[0] != "ready" or child.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {child.returncode})")
        factor, probe_s = float(line[1]), float(line[2])
        times.append((ready - t0 - probe_s) * factor)
    return statistics.median(times)


def load_workload(args):
    import_program()
    import workloads

    out = ROOT / "perfbench" / "out" / args.workload
    return workloads.WORKLOADS[args.workload](args.seed, out)


class Runner:
    """Executes rounds of a workload and counts attempted/failed executions."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}
        self.consistent = True

    def round(self, tracer=None):
        """One execution per prepared item. Returns the wall seconds of the
        executions (host-speed probes excluded), the same normalised to the
        reference host speed, and, for a traced round, the spans of the
        untimed preparation and the executions' results."""
        clk = tracer or PausableClock()
        if tracer is not None:
            tracer.reset()
        items = self.w.prepare()
        setup_spans = []
        if tracer is not None:
            setup_spans, tracer.spans = tracer.spans, []
        wall = normalised = 0.0
        results = []
        for index, item in enumerate(items):
            self.attempted += 1
            t0 = clk.clock()
            try:
                with Speedometer(clk.paused) as speed:
                    result = self.w.execute(item)
            except Exception:
                self.failed += 1
                traceback.print_exc()
                continue
            finally:
                seconds = clk.clock() - t0
                wall += seconds
                normalised += seconds * speed.factor()
            with clk.paused():
                self._verify(index, result)
            if tracer is not None:
                results.append(result)
        return wall, normalised, setup_spans, results

    def _verify(self, index, result):
        fails = self.w.check(result)
        digest = self.w.digest(result)
        if fails:
            self.failed += 1
            print(f"{self.w.name} execution {index}: {len(fails)} failed "
                  f"checks", file=sys.stderr)
            for msg in fails[:20]:
                print(f"  {msg}", file=sys.stderr)
        if self.digests.setdefault(index, digest) != digest:
            self.consistent = False
            print(f"{self.w.name} execution {index}: output differs from the "
                  f"previous round's", file=sys.stderr)


def end_to_end(args, runner, setup_s) -> dict:
    walls, times = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        wall, normalised, _, _ = runner.round()
        walls.append(wall)
        times.append(normalised)
        if time.perf_counter() + (time.perf_counter() - t0) > deadline:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{args.workload} seed {args.seed}: {len(times)} rounds, wall "
          f"seconds {[round(t, 3) for t in walls]}, normalised "
          f"{[round(t, 3) for t in times]}, speed factor "
          f"{[round(n / w, 4) for n, w in zip(times, walls)]}, output sha256 "
          f"{[d[:16] for _, d in sorted(runner.digests.items())]}")
    return {"setup_s": setup_s,
            "run_s": statistics.median(times),
            "peak_rss_mb": peak_kb / 1024.0}


def per_layer(args, runner) -> dict:
    import layers
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import WfqOracle

    untraced_wall, untraced, _, _ = runner.round()
    tracer = Tracer()
    tracer.install(layers.targets(WfqOracle))
    try:
        traced_wall, traced, setup_spans, results = runner.round(tracer)
    finally:
        tracer.remove()
    spans = tracer.spans
    m = layers.metrics(spans, self_times(spans), setup_spans)
    top = sum(s[2] - s[1] for s in spans if s[3] < 0)
    m["run_wall_s"] = untraced_wall
    m["hostspeed.factor"] = untraced / untraced_wall
    m["trace.run_s"] = traced_wall
    m["trace.overhead_s"] = traced - untraced
    m["trace.unattributed_s"] = traced_wall - top
    m.update(runner.w.outside_metrics(results))
    tracer.write(runner.w.out / f"spans-seed{args.seed}.jsonl")
    return m


def with_units(metrics: dict, kind: str) -> dict:
    """Attach each metric's unit from BENCHMARK.json's `kind` list, which
    must name exactly the metrics the run measured."""
    units = {m["name"]: m["unit"]
             for m in json.loads(SPEC.read_text())[kind]}
    if units.keys() != metrics.keys():
        sys.exit(f"perfbench: measured {kind} metrics differ from {SPEC.name}:"
                 f" {sorted(units.keys() ^ metrics.keys())}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        clk = PausableClock()
        with Speedometer(clk.paused) as speed:
            load_workload(args).setup()
        print(f"ready {speed.factor()!r} {sum(speed.probes)!r}", flush=True)
        return 0
    setup_s = None if args.trace else measure_setup(args)
    workload = load_workload(args)
    workload.setup()
    workload.out.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload)
    if args.trace:
        metrics = with_units(per_layer(args, runner), "per_layer")
    else:
        metrics = with_units(end_to_end(args, runner, setup_s), "end_to_end")
    print(json.dumps({
        "correct": runner.consistent,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
