"""Layer boundaries of the qshare package and the per-layer metrics the
traced run derives from their spans.

Each span name is `<layer>.<function>`; the layer is the package module the
function belongs to. A function is wrapped at every name its callers look it
up by, so `allocate_queues` is wrapped both in `binding` (called by the
binding controller) and in `largescale` (imported there by name).
"""

from __future__ import annotations

import statistics
import weakref

import checks
from qshare import (baselines, binding, cli, fluid, largescale, placement,
                    scenarios, topology)

LAYERS = ("cli", "scenarios", "topology", "placement", "fluid", "baselines",
          "binding", "largescale")

# metrics the benchmark computes from a round's outputs, not from spans; a
# workload fills in the ones that apply to it
OUTSIDE = ("cli.artifact_bytes", "scenarios.fct_order_breaks",
           "placement.bandwidth_load_pct", "placement.slot_load_pct")

ORACLE_EVERY = 100  # WFQ solves between two oracle comparisons


class SolveObserver:
    """Hook state for RateSolver.solve: flow counts, repeated flow-id sets
    per solver, and the per-solve checks (oracle on sampled WFQ solves)."""

    def __init__(self, oracle_cls):
        self.oracle_cls = oracle_cls
        self.last_set = weakref.WeakKeyDictionary()
        self.wfq_solves = 0

    def __call__(self, args, kwargs, result):
        solver, flows = args[0], args[1]
        ids = frozenset(f.fid for f in flows)
        repeat = self.last_set.get(solver) == ids
        self.last_set[solver] = ids
        over, free = checks.solve_violations(solver, flows)
        mismatch = None
        if solver.mode == "wfq":
            if self.wfq_solves % ORACLE_EVERY == 0 and any(f.route for f in flows):
                mismatch = checks.oracle_mismatch(solver, flows,
                                                  self.oracle_cls)
            self.wfq_solves += 1
        return {"flows": len(flows), "repeat": repeat, "over": over,
                "free": free, "oracle": mismatch}


def _flows_done(args, kwargs, reports):
    return sum(len(rep.fcts) for rep in reports)


def _embed_outcome(args, kwargs, out):
    return {"feasible": out.feasible, "ops": out.ops,
            "candidates": out.candidates}


def targets(oracle_cls) -> list:
    """(owner, attribute, span name, hook) for every traced boundary."""
    solve_hook = SolveObserver(oracle_cls)
    return [
        (cli, "main", "cli.main", None),
        (cli, "load_scenario", "cli.load_scenario", None),
        (cli, "write_artifacts", "cli.write_artifacts", None),
        (scenarios, "run_scenario", "scenarios.run_scenario", None),
        (scenarios, "build_wcbg", "scenarios.build_wcbg", None),
        (scenarios, "build_testbed", "topology.build", None),
        (topology, "fattree_like", "topology.build", None),
        (placement, "trs_at_layer", "topology.trs_at_layer", None),
        (scenarios, "embed_fixed", "placement.embed_fixed", None),
        (largescale, "embed", "placement.embed", _embed_outcome),
        (placement, "evaluate_tr", "placement.evaluate_tr", None),
        (fluid.FluidSimulation, "run", "fluid.run", _flows_done),
        (fluid.RateSolver, "solve", "fluid.solve", solve_hook),
        (fluid.RateSolver, "rebuild", "fluid.rebuild", None),
        (fluid.SegmentStats, "observe", "fluid.observe", None),
        (fluid.DemandGenerator, "next_flow", "fluid.next_flow", None),
        (baselines.EndhostRatePolicy, "compute", "baselines.compute", None),
        (baselines.EndhostRatePolicy, "on_quantum", "baselines.on_quantum", None),
        (baselines, "fifo_scale", "baselines.fifo_scale", None),
        (binding.BindingController, "run_interval", "binding.run_interval", None),
        (binding, "allocate_queues", "binding.allocate_queues", None),
        (largescale, "allocate_queues", "binding.allocate_queues", None),
        (binding, "assign_dscp", "binding.assign_dscp", None),
        (largescale, "assign_dscp", "binding.assign_dscp", None),
        (binding, "link_queue_weights", "binding.link_queue_weights", None),
        (fluid, "link_queue_weights", "binding.link_queue_weights", None),
        (largescale, "fill_to_capacity", "largescale.fill", None),
        (largescale, "interval_dedication", "largescale.interval_dedication", None),
        (largescale, "throughput_gain", "largescale.throughput_gain", None),
        (largescale, "port_statistics", "largescale.port_statistics", None),
    ]


def _pct(values: list, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(-(-q * len(s) // 100)) - 1))]


def metrics(spans: list, self_s: list, setup_spans: list) -> dict:
    """Per-layer metrics of one traced round. `spans`/`self_s` cover the
    timed executions; `setup_spans` the round's untimed preparation."""
    by_name: dict = {}
    for span, own in zip(spans, self_s):
        rec = by_name.setdefault(span[0], {"dur": [], "self": 0.0, "info": []})
        rec["dur"].append(span[2] - span[1])
        rec["self"] += own
        if span[4] is not None:
            rec["info"].append(span[4])

    def calls(name):
        return len(by_name.get(name, {"dur": []})["dur"])

    def total(name):
        return sum(by_name.get(name, {"dur": []})["dur"])

    def own(name):
        return by_name.get(name, {"self": 0.0})["self"]

    def info(name):
        return by_name.get(name, {"info": []})["info"]

    solves = info("fluid.solve")
    solve_ms = [d * 1e3 for d in by_name.get("fluid.solve", {"dur": []})["dur"]]
    embeds = info("placement.embed")
    embed_durs = by_name.get("placement.embed", {"dur": []})["dur"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, s in zip(spans, self_s):
        layer_self[span[0].split(".", 1)[0]] += s
    m = {
        "fluid.solve.calls": calls("fluid.solve"),
        "fluid.solve.s": total("fluid.solve"),
        "fluid.solve.p50_ms": _pct(solve_ms, 50),
        "fluid.solve.p99_ms": _pct(solve_ms, 99),
        "fluid.solve.flows_per_call": (statistics.fmean(
            i["flows"] for i in solves) if solves else 0.0),
        "fluid.solve.repeat_set": sum(i["repeat"] for i in solves),
        "fluid.solve.over_capacity": sum(i["over"] for i in solves),
        "fluid.solve.unbottlenecked": sum(i["free"] for i in solves),
        "fluid.solve.oracle_checked": sum(i["oracle"] is not None
                                          for i in solves),
        "fluid.solve.oracle_mismatch": sum(bool(i["oracle"]) for i in solves),
        "fluid.rebuild.calls": calls("fluid.rebuild"),
        "fluid.rebuild.s": total("fluid.rebuild"),
        "fluid.run.self_s": own("fluid.run"),
        "fluid.observe.calls": calls("fluid.observe"),
        "fluid.observe.s": total("fluid.observe"),
        "fluid.next_flow.calls": calls("fluid.next_flow"),
        "fluid.next_flow.s": total("fluid.next_flow"),
        "fluid.flows_done": sum(info("fluid.run")),
        "baselines.compute.calls": calls("baselines.compute"),
        "baselines.compute.s": total("baselines.compute"),
        "baselines.on_quantum.calls": calls("baselines.on_quantum"),
        "baselines.on_quantum.s": total("baselines.on_quantum"),
        "baselines.fifo_scale.s": total("baselines.fifo_scale"),
        "binding.run_interval.calls": calls("binding.run_interval"),
        "binding.run_interval.s": total("binding.run_interval"),
        "binding.allocate_queues.calls": calls("binding.allocate_queues"),
        "binding.allocate_queues.s": total("binding.allocate_queues"),
        "binding.assign_dscp.s": total("binding.assign_dscp"),
        "binding.link_queue_weights.calls": calls("binding.link_queue_weights"),
        "binding.link_queue_weights.s": total("binding.link_queue_weights"),
        "placement.embed.calls": calls("placement.embed"),
        "placement.embed.accepted": sum(i["feasible"] for i in embeds),
        "placement.embed.s": total("placement.embed"),
        "placement.embed.rejected_s": sum(
            d for d, i in zip(embed_durs, embeds) if not i["feasible"]),
        "placement.embed.p50_ms": _pct([d * 1e3 for d in embed_durs], 50),
        "placement.embed.p99_ms": _pct([d * 1e3 for d in embed_durs], 99),
        "placement.evaluate_tr.calls": calls("placement.evaluate_tr"),
        "placement.evaluate_tr.s": total("placement.evaluate_tr"),
        "placement.ops": sum(i["ops"] for i in embeds),
        "placement.candidates": sum(i["candidates"] for i in embeds),
        "placement.embed_fixed.s": total("placement.embed_fixed"),
        "largescale.fill.self_s": own("largescale.fill"),
        "largescale.interval_dedication.s": total("largescale.interval_dedication"),
        "largescale.throughput_gain.s": total("largescale.throughput_gain"),
        "largescale.port_statistics.s": total("largescale.port_statistics"),
        "topology.build.s": total("topology.build") + sum(
            s[2] - s[1] for s in setup_spans if s[0] == "topology.build"),
        "topology.trs_at_layer.s": total("topology.trs_at_layer"),
        "cli.write_artifacts.s": total("cli.write_artifacts"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m.update(dict.fromkeys(OUTSIDE, 0))
    return m
