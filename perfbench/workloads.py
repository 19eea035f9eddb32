"""The benchmark's workloads.

A workload turns the benchmark seed into its inputs (`setup`), prepares the
untimed per-round state (`prepare`), runs one execution (`execute`, the
only timed step), and checks an execution's output (`check`). A round is
one execution per sub-seed, plus the fixed execution of `fct-shuffle`;
every round of a run executes the same inputs.

Sub-seeds average out how much work one seed happens to draw (flow sizes,
tenant sizes, how soon a fill meets its reject streak): from seed to seed one
execution's normalised time varies by 7 % (`fct-shuffle`), 9 %
(`wcbg-unpredictable`) and 25 % (`fill-16to1`), coefficient of variation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import sys
from pathlib import Path

import checks
from qshare import cli, largescale, topology
from qshare.placement import CostPolicy


def sub_seeds(seed: int, count: int) -> list:
    return [seed * count + i for i in range(count)]


def _digest_files(outdir: Path, names: list) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update((outdir / name).read_bytes())
    return h.hexdigest()


class CliWorkload:
    """A bundled scenario run through the `qshare run` CLI in-process, once
    per sub-seed, each into its own output directory."""

    scenario = ""
    overrides: tuple = ()
    subseeds = 1
    artifacts: tuple = ()

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def setup(self) -> None:
        self.doc = cli.load_scenario(self.scenario)
        self.items = [self._argv(s, f"seed{s}")
                      for s in sub_seeds(self.seed, self.subseeds)]

    def _argv(self, scenario_seed: int, outname: str) -> list:
        argv = ["run", self.scenario, "--seed", str(scenario_seed),
                "--out", str(self.out / outname)]
        for item in self.overrides:
            argv += ["--set", item]
        return argv

    def prepare(self) -> list:
        return self.items

    def execute(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"qshare {' '.join(argv)} exited {rc}")
        return Path(argv[argv.index("--out") + 1])

    def digest(self, outdir: Path) -> str:
        return _digest_files(outdir, ["summary.json", *self.artifacts])

    def outside_metrics(self, results: list) -> dict:
        """Bytes the CLI wrote per round, without manifest.json (its wall
        time varies from run to run)."""
        return {"cli.artifact_bytes": sum(
            (outdir / n).stat().st_size for outdir in results
            for n in ["summary.json", *self.artifacts])}


class WcbgUnpredictable(CliWorkload):
    name = "wcbg-unpredictable"
    scenario = "unpredictable"
    duration_s = 2.0
    overrides = (f"duration_s={duration_s}",)
    subseeds = 3
    artifacts = ("utilization.csv", "tenant_throughput.csv", "binding.jsonl",
                 "flows.jsonl")

    def check(self, outdir: Path) -> list:
        topo = self.doc.get("topology", {})
        return checks.check_wcbg(outdir, topo.get("core_mbps", 1000.0),
                                 topo.get("nic_mbps", 1000.0))


class FctShuffle(CliWorkload):
    """One seed-drawn scenario plus one fixed execution at scenario seed
    ORDER_SEED, where the paper's mean-FCT ordering is known to break.

    The ordering fails the fixed execution, so every round counts that
    fault in `failed` at the same share whatever the benchmark seed. On the
    seed-drawn scenarios it breaks on some seeds and not on others; there
    it is counted (`scenarios.fct_order_breaks`) and printed, since a
    failure there would make the failed share depend on the seed. The
    fixed execution's constant work also halves the seed-to-seed spread of
    the round's time, as a second seed-drawn execution would."""

    name = "fct-shuffle"
    scenario = "shuffle-fct"
    subseeds = 1
    artifacts = ("fct.csv",)
    ORDER_SEED = 1
    ORDER_DIR = f"order-seed{ORDER_SEED}"

    def setup(self) -> None:
        super().setup()
        self.items.append(self._argv(self.ORDER_SEED, self.ORDER_DIR))

    def check(self, outdir: Path) -> list:
        breaks = checks.fct_order_breaks(outdir)
        if outdir.name == self.ORDER_DIR:
            return checks.check_fct(outdir) + breaks
        for b in breaks:
            print(f"fct-shuffle scenario {outdir.name}: {b}", file=sys.stderr)
        return checks.check_fct(outdir)

    def outside_metrics(self, results: list) -> dict:
        breaks = sum(len(checks.fct_order_breaks(outdir)) for outdir in results
                     if outdir.name != self.ORDER_DIR)
        return {**super().outside_metrics(results),
                "scenarios.fct_order_breaks": breaks}


class Fill16to1:
    """16:1 fattree-like topology filled with the bundled queue-scarcity
    population through the library entry points, then the throughput-gain
    study at nine inactive ratios."""

    name = "fill-16to1"
    scenario = "queue-scarcity"
    oversub = "16:1"
    k = 8
    subseeds = 16
    r_in_values = tuple(round(0.1 * i, 1) for i in range(1, 10))

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out

    def setup(self) -> None:
        doc = cli.load_scenario(self.scenario)
        pop = doc.get("population", {})
        self.spec = largescale.PopulationSpec(
            vm_mean=pop.get("vm_mean", 49.0), vm_floor=pop.get("vm_floor", 2),
            guarantees=tuple(pop.get("guarantees",
                                     (10.0, 50.0, 100.0, 200.0, 300.0))))
        fill = doc.get("fill", {})
        self.fill_args = {"reject_streak": fill.get("reject_streak", 50),
                          "r_in": fill.get("r_in", 0.5),
                          "intervals": fill.get("intervals", 20)}
        self.queue_count = doc.get("topology", {}).get("queues_per_link", 8)
        self.items = self._topologies()

    def _topologies(self) -> list:
        return [(s, topology.fattree_like(self.oversub, k=self.k, seed=s,
                                          queue_count=self.queue_count))
                for s in sub_seeds(self.seed, self.subseeds)]

    def prepare(self) -> list:
        """Fresh topologies for every round, since a fill mutates the one it
        is given; the first round uses those built by `setup`."""
        items, self.items = self.items or self._topologies(), None
        return items

    def execute(self, item):
        seed, topo = item
        fill = largescale.fill_to_capacity(topo, self.spec, CostPolicy.stress(),
                                           seed=seed, **self.fill_args)
        gains = [largescale.throughput_gain(topo, fill.tenants, r, seed=seed)
                 for r in self.r_in_values]
        return topo, fill, gains

    def check(self, result) -> list:
        topo, fill, gains = result
        return checks.check_fill(topo, fill, gains, self.queue_count)

    def outside_metrics(self, results: list) -> dict:
        """Mean bandwidth and slot load over the round's fills."""
        loads = [checks.fill_loads(topo, fill.tenants)
                 for topo, fill, _ in results]
        for (topo, fill, _), ld in zip(results, loads):
            print(f"fill k={self.k}: {len(fill.tenants)} of {fill.attempted} "
                  f"tenants placed, bandwidth load "
                  f"{ld['bandwidth_load_pct']:.2f} %, slot load "
                  f"{ld['slot_load_pct']:.2f} %, "
                  f"{ld['single_hypervisor_tenants']} tenants on a single "
                  f"hypervisor")
        return {f"placement.{key}": statistics.fmean(ld[key] for ld in loads)
                for key in ("bandwidth_load_pct", "slot_load_pct")}

    def digest(self, result) -> str:
        topo, fill, gains = result
        h = hashlib.sha256()
        h.update(repr(sorted(fill.report.as_row().items())).encode())
        for tid, t in sorted(fill.tenants.items()):
            h.update(repr((tid, sorted(t.vm_placement.items()),
                           sorted(t.tr.reserved.items()))).encode())
        for g in gains:
            h.update(repr((g.r_in, g.mean_gain, g.high_count)).encode())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (WcbgUnpredictable, FctShuffle, Fill16to1)}
