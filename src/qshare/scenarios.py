"""Scenario construction and execution.

A scenario is a JSON document (see bundled files under qshare/scenario_data/)
whose `kind` selects the experiment pipeline:

  wcbg      testbed fluid run: embed striped tenants, drive demand, measure
            core-link utilization, guarantees, and binding behavior
  sweep     wcbg repeated over control-interval lengths
  scarcity  fill a fattree-derived topology to capacity and report
            queue-scarcity statistics
  gain      throughput-gain and link-utilization study on a filled topology
  tradeoff  endhost-baseline utilization/guarantee tradeoff scenarios
  fct       shuffle flow-completion-time comparison across policies

Runners return (summary, artifacts): `summary` is a flat dict of headline
metrics echoed into summary.json; `artifacts` maps artifact names to
(fieldnames, rows) written by the CLI as CSV, or as JSON lines when the name
carries a .jsonl suffix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fluid, largescale
from .baselines import EndhostRatePolicy, RAConfig
from .placement import CostPolicy, embed_fixed
from .tenants import TenantRequest
from .topology import Topology, build_testbed, fattree_like

POLICIES = ("qshare", "static", "es_conservative", "es_aggressive")
WEIGHT_MODES = ("normalized", "quantized")


class ScenarioError(ValueError):
    """Scenario file failed validation; message carries the offending path."""


def validate(doc: dict) -> dict:
    """Validate a scenario document, raising ScenarioError with a key-path
    message on the first problem. Returns the document."""
    def need(path, cond, why):
        if not cond:
            raise ScenarioError(f"{path}: {why}")
    need("kind", doc.get("kind") in ("wcbg", "sweep", "scarcity", "gain",
                                     "tradeoff", "fct"),
         f"unknown kind {doc.get('kind')!r}")
    need("name", isinstance(doc.get("name"), str) and doc["name"],
         "scenario needs a name")
    need("seed", isinstance(doc.get("seed", 0), int), "seed must be an integer")
    need("weight_mode", doc.get("weight_mode", "normalized") in WEIGHT_MODES,
         f"weight_mode must be one of {WEIGHT_MODES}")
    kind = doc["kind"]
    if kind in ("wcbg", "sweep"):
        ten = doc.get("tenants", {})
        need("tenants.count", int(ten.get("count", 10)) >= 1, "need >= 1 tenant")
        need("tenants.vms_per_tenant", int(ten.get("vms_per_tenant", 10)) >= 2,
             "tenants need >= 2 VMs")
        dem = doc.get("demand", {})
        need("demand.mode", dem.get("mode", "unpredictable") in
             ("predictable", "unpredictable", "shuffle"), "bad demand mode")
        need("policy", doc.get("policy", "qshare") in POLICIES,
             f"policy must be one of {POLICIES}")
    if kind in ("scarcity", "gain"):
        need("oversub", doc.get("oversub", "1:1") in ("1:1", "4:1", "16:1"),
             "oversub must be 1:1, 4:1 or 16:1")
    if kind == "fct":
        for ld in doc.get("loads", [0.3, 0.5, 0.7, 0.9]):
            need("loads", 0 < ld < 1, "loads must be in (0, 1)")
        for i, policy in enumerate(doc.get("policies", [])):
            need(f"policies[{i}]", policy in POLICIES,
                 f"unknown policy {policy!r}; must be one of {POLICIES}")
    if kind == "sweep":
        for iv in doc.get("intervals", [1, 2, 4, 8]):
            need("intervals", iv > 0, "intervals must be positive")
    return doc


# ---------------------------------------------------------------------------
# work-conserving bandwidth guarantee scenarios (testbed scale)
# ---------------------------------------------------------------------------

@dataclass
class WcbgRun:
    sim: fluid.FluidSimulation
    reports: list
    monitor: tuple
    warmup_intervals: int

    def measured_reports(self) -> list:
        return self.reports[self.warmup_intervals:]

    def core_series(self) -> list:
        out = []
        for rep in self.measured_reports():
            out.extend(rep.link_util.get(self.monitor, []))
        return out

    def mean_core_utilization(self) -> float:
        series = self.core_series()
        return float(np.mean(series)) if series else 0.0


def _testbed(doc: dict) -> Topology:
    topo_cfg = doc.get("topology", {})
    return build_testbed(
        racks=topo_cfg.get("racks", 2),
        servers_per_rack=topo_cfg.get("servers_per_rack", 5),
        vm_slots=topo_cfg.get("vm_slots", 10),
        nic_mbps=topo_cfg.get("nic_mbps", 1000.0),
        core_mbps=topo_cfg.get("core_mbps", 1000.0),
        queue_count=topo_cfg.get("queues_per_link", 8),
    )


def _striped_tenants(topo: Topology, requests: dict) -> dict:
    """Embed each tenant (id -> TenantRequest, in order) under the top switch
    with its VMs striped across all servers round-robin."""
    hyps = topo.hypervisors()
    root = topo.nodes_at_layer(topo.layer_count - 1)[0]
    tenants = {}
    for tid, request in requests.items():
        vms = request.vm_count
        placement: dict = {}
        for k in range(vms):
            hyp = hyps[(k * len(hyps) // vms) % len(hyps)]
            placement[hyp] = placement.get(hyp, 0) + 1
        tenants[tid] = embed_fixed(topo, request, tid, root, placement)
    return tenants


def _monitor_link(topo: Topology) -> tuple:
    """Directed core link toward rack 0 (the side flow requesters sit on)."""
    root = topo.nodes_at_layer(topo.layer_count - 1)[0]
    tor0 = sorted(topo.down_neighbors(root))[0]
    return (root, tor0)


def build_wcbg(doc: dict) -> WcbgRun:
    doc = validate(doc)
    topo = _testbed(doc)
    ten_cfg = doc.get("tenants", {})
    vms = ten_cfg.get("vms_per_tenant", 10)
    # striped, the core link carries B * min(half, half): the core guarantee
    half = vms // 2
    b = ten_cfg.get("core_guarantee_mbps", 94.0) / max(min(half, vms - half), 1)
    tenants = _striped_tenants(topo, {f"t{i + 1:02d}": TenantRequest(vms, b)
                                      for i in range(ten_cfg.get("count", 10))})
    dem = doc.get("demand", {})
    monitor = _monitor_link(topo)
    dst_rack = set(topo.down_neighbors(monitor[1]))

    client_side = dem.get("clients", "rack0")
    client_hyps = dst_rack if client_side == "rack0" else None
    activations = {}
    for tid in tenants:
        spec = dem.get("activations", {}).get(tid, 0.0)
        activations[tid] = tuple(spec) if isinstance(spec, list) else spec
    vm_map = {t: fluid._expand_vms(x) for t, x in tenants.items()}
    clients = fluid.make_clients(tenants, vm_map,
                                 client_hyps=client_hyps,
                                 activations=activations,
                                 concurrency=dem.get("concurrency", 1))
    if dem.get("peers", "any") == "remote":
        _restrict_to_remote_peers(topo, clients, vm_map)
    sim = _simulation(doc, topo, tenants, clients, doc.get("policy", "qshare"),
                      monitor, initial_dedicated=dem.get("initial_dedicated"))
    warmup = doc.get("warmup_intervals", 0)
    reports = sim.run(doc.get("duration_s", 10.0), warmup_intervals=warmup)
    return WcbgRun(sim, reports, monitor, warmup)


def _simulation(doc: dict, topo: Topology, tenants: dict, clients: list,
                policy: str, monitor: tuple,
                initial_dedicated: list | None = None) -> fluid.FluidSimulation:
    """The fluid simulation of `tenants` under `policy`: the demand generator
    over `clients` (whose own settings override the doc's `demand` defaults),
    the endhost rate hook for the es_* policies, and the doc's control
    interval, weight mode, sample width and seed."""
    dem = doc.get("demand", {})
    seed = doc.get("seed", 0)
    gen = fluid.DemandGenerator(
        mode=dem.get("mode", "unpredictable"),
        flow_sizes=_sizes(dem.get("flow_sizes", "enterprise")),
        dormancy=dem.get("dormancy_s", 1.0),
        size_scale=dem.get("size_scale", 1.0),
        seed=seed, clients=clients)
    hook = None
    quantum = None
    if policy.startswith("es_"):
        cfg = RAConfig(mode=policy.removeprefix("es_"), **doc.get("ra", {}))
        hook = EndhostRatePolicy(topo, tenants, cfg)
        quantum = cfg.probe_period
    return fluid.FluidSimulation(
        topo, tenants, gen,
        interval=doc.get("control_interval_s", 4.0),
        policy=policy,
        weight_mode=doc.get("weight_mode", "normalized"),
        seed=seed, monitor=monitor,
        sample=doc.get("sample_s", 0.1),
        initial_dedicated=initial_dedicated,
        rate_hook=hook, quantum=quantum)


def _sizes(spec):
    if isinstance(spec, (list, tuple)) and spec and spec[0] == "fixed":
        return ("fixed", float(spec[1]))
    return spec


def _restrict_to_remote_peers(topo: Topology, clients: list, vm_map: dict) -> None:
    """Clients transfer only from peers under a different ToR (pure
    rack-to-rack traffic, the reference testbed pattern)."""
    tor_of = {h: topo.up_neighbors(h)[0] for h in topo.hypervisors()}
    for c in clients:
        vms = vm_map[c.tenant]
        remote = tuple(v for v, hyp in enumerate(vms)
                       if tor_of[hyp] != tor_of[c.hyp])
        c.peer_vms = remote


def run_wcbg(doc: dict) -> tuple[dict, dict]:
    run = build_wcbg(doc)
    stats = run.sim.stats
    summary = {
        "mean_core_utilization": run.mean_core_utilization(),
        "guarantee_violation_time_s": stats.guarantee_violation_time,
        "guarantee_violation_tenant_s": stats.guarantee_violation_tenant_time,
        "conservation_violation_time_s": stats.conservation_violation_time,
        "active_time_s": stats.time_active,
        "busy_fraction": stats.busy_time / max(stats.time_active, 1e-12),
    }
    util_rows = []
    for rep in run.measured_reports():
        series = rep.link_util.get(run.monitor, [])
        for i, u in enumerate(series):
            util_rows.append({
                "time_s": round(rep.start + i * run.sim.sample, 4),
                "utilization": repr(u),
            })
    tenant_rows = []
    for rep in run.measured_reports():
        for tid in sorted(run.sim.tenants):
            series = rep.tenant_throughput_mbps.get(tid, [])
            for i, mbps in enumerate(series):
                tenant_rows.append({
                    "time_s": round(rep.start + i * run.sim.sample, 4),
                    "tenant": tid,
                    "mbps": repr(mbps),
                })
    binding_rows = []
    for rep in run.reports:
        for tid in sorted(rep.scores):
            u, s = rep.scores[tid]
            binding_rows.append({
                "interval": rep.index, "tenant": tid,
                "u_factor": repr(u), "score": repr(s),
                "state": run.sim.tenants[tid].state,
                "dscp": run.sim.tenants[tid].dscp,
            })
    fct_rows = []
    for rep in run.measured_reports():
        for fid, tid, size, start, dur, client in rep.fcts:
            fct_rows.append({"flow": fid, "tenant": tid, "bytes": repr(size),
                             "start_s": repr(start), "fct_s": repr(dur)})
    artifacts = {
        "utilization": (["time_s", "utilization"], util_rows),
        "tenant_throughput": (["time_s", "tenant", "mbps"], tenant_rows),
        "binding.jsonl": (None, binding_rows),
        "flows.jsonl": (None, fct_rows),
    }
    return summary, artifacts


def run_interval_sweep(doc: dict) -> tuple[dict, dict]:
    doc = validate(doc)
    intervals = doc.get("intervals", [1.0, 2.0, 4.0, 8.0])
    rows = []
    for iv in intervals:
        sub = dict(doc)
        sub["kind"] = "wcbg"
        sub["control_interval_s"] = float(iv)
        sub.setdefault("warmup_intervals", 1)
        run = build_wcbg(sub)
        rows.append({"interval_s": iv,
                     "mean_core_utilization": repr(run.mean_core_utilization())})
    summary = {f"util_at_{r['interval_s']}s": float(r["mean_core_utilization"])
               for r in rows}
    return summary, {"interval_sweep": (["interval_s", "mean_core_utilization"],
                                        rows)}


# ---------------------------------------------------------------------------
# production-scale studies
# ---------------------------------------------------------------------------

def build_fill(doc: dict) -> largescale.FillResult:
    doc = validate(doc)
    fill_cfg = doc.get("fill", {})
    pop_cfg = doc.get("population", {})
    topo = fattree_like(doc.get("oversub", "1:1"),
                        seed=doc.get("seed", 0),
                        queue_count=doc.get("topology", {}).get(
                            "queues_per_link", 8))
    spec = largescale.PopulationSpec(
        vm_mean=pop_cfg.get("vm_mean", 49.0),
        vm_floor=pop_cfg.get("vm_floor", 2),
        guarantees=tuple(pop_cfg.get("guarantees",
                                     (10.0, 50.0, 100.0, 200.0, 300.0))),
    )
    return largescale.fill_to_capacity(
        topo, spec, CostPolicy.stress(), seed=doc.get("seed", 0),
        reject_streak=fill_cfg.get("reject_streak", 50),
        r_in=fill_cfg.get("r_in", 0.5),
        intervals=fill_cfg.get("intervals", 20))


def run_scarcity(doc: dict) -> tuple[dict, dict]:
    result = build_fill(doc)
    row = {"oversub": doc.get("oversub", "1:1"), **result.report.as_row(),
           "attempted": result.attempted, "rejected": result.rejected}
    summary = dict(row)
    embed_rows = [
        {"tenant": tid, "root": t.tr.root, "layer": t.tr.layer,
         "c_b": t.tr.cost_b, "c_q": t.tr.cost_q,
         "reservations": {f"{k[0]}-{k[1]}": v for k, v in t.tr.reserved.items()}}
        for tid, t in sorted(result.tenants.items())]
    return summary, {"scarcity": (list(row), [row]),
                     "embedding.jsonl": (None, embed_rows)}


def run_gain(doc: dict, fill: largescale.FillResult | None = None):
    doc = validate(doc)
    fill = fill or build_fill(doc)
    r_values = doc.get("r_in_values",
                       [round(0.1 * k, 1) for k in range(1, 10)])
    gain_rows = []
    reports = {}
    for r_in in r_values:
        rep = largescale.throughput_gain(fill.topo, fill.tenants, r_in,
                                         seed=doc.get("seed", 0))
        reports[r_in] = rep
        gain_rows.append({"r_in": r_in, "mean_gain": repr(rep.mean_gain),
                          "high_tenants": rep.high_count})
    cdf_r = doc.get("cdf_r_in", 0.5)
    if cdf_r not in reports:
        reports[cdf_r] = largescale.throughput_gain(
            fill.topo, fill.tenants, cdf_r, seed=doc.get("seed", 0))
    rep = reports[cdf_r]
    cdf_rows = []
    for key in sorted(rep.link_util):
        cdf_rows.append({
            "link": f"{key[0]}-{key[1]}",
            "utilization": repr(rep.link_util[key]),
            "static_utilization": repr(rep.static_util[key]),
        })
    qs = rep.util_cdf(static=False)
    st = rep.util_cdf(static=True)
    summary = {
        "mean_gain": {r: reports[r].mean_gain for r in r_values},
        "qshare_median_util": float(np.median(qs)),
        "static_median_util": float(np.median(st)),
        "qshare_full_fraction": float(np.mean(qs >= 1 - 1e-9)),
        "static_full_fraction": float(np.mean(st >= 1 - 1e-9)),
    }
    return summary, {
        "gains": (["r_in", "mean_gain", "high_tenants"], gain_rows),
        "utilization_cdf": (["link", "utilization", "static_utilization"],
                            cdf_rows),
    }


# ---------------------------------------------------------------------------
# baseline tradeoff and FCT studies
# ---------------------------------------------------------------------------

def run_tradeoff(doc: dict) -> tuple[dict, dict]:
    """Half-reserved bursty scenario (conservative waste vs work conservation)
    and the asymmetric-guarantee scenario (aggressive probing vs guarantees)."""
    doc = validate(doc)
    duration = doc.get("duration_s", 30.0)
    rows = []
    summary: dict = {}

    half = dict(doc, kind="wcbg", policy="es_conservative",
                tenants={"count": 2, "vms_per_tenant": 10,
                         "core_guarantee_mbps": 250.0},
                demand={"mode": "unpredictable", "flow_sizes": "enterprise",
                        "size_scale": doc.get("size_scale", 50.0),
                        "clients": "rack0"},
                duration_s=duration, warmup_intervals=0)
    cons = build_wcbg(half)
    half_q = dict(half, policy="qshare")
    half_q["demand"] = dict(half["demand"])
    qsh = build_wcbg(dict(half_q, warmup_intervals=1))
    cap = cons.sim.stats.capacity
    reserved = 500.0
    cons_util = cons.mean_core_utilization() * cap
    q_util = qsh.mean_core_utilization() * cap
    summary["conservative_unreserved_waste"] = (cap - cons_util) / (cap - reserved)
    summary["qshare_capacity_deficit"] = (cap - q_util) / cap
    summary["conservative_mean_mbps"] = cons_util
    summary["qshare_mean_mbps"] = q_util
    rows.append({"case": "half_reserved", "policy": "es_conservative",
                 "mean_mbps": repr(cons_util)})
    rows.append({"case": "half_reserved", "policy": "qshare",
                 "mean_mbps": repr(q_util)})

    def asym(policy):
        topo = _testbed(doc)
        tenants = _striped_tenants(topo, {"tA": TenantRequest(10, 140.0),
                                          "tB": TenantRequest(10, 40.0)})
        monitor = _monitor_link(topo)
        clients = fluid.make_clients(
            tenants, {t: fluid._expand_vms(x) for t, x in tenants.items()},
            client_hyps=set(topo.down_neighbors(monitor[1])))
        for c in clients:
            if c.tenant == "tA":
                c.mode = "predictable"
        sub = dict(doc, demand={"size_scale": doc.get("size_scale", 50.0)})
        skip = 1 if policy == "qshare" else 0
        reports = _simulation(sub, topo, tenants, clients, policy,
                              monitor).run(duration, warmup_intervals=skip)
        violations = 0
        for rep in reports[skip:]:
            series = rep.tenant_throughput_mbps.get("tA", [])
            if not series:
                continue
            mean = float(np.mean(series))
            if mean < 700.0 * (1 - 1e-6):
                violations += 1
        return violations, len(reports[skip:])

    v_aggr, n_aggr = asym("es_aggressive")
    v_q, n_q = asym("qshare")
    summary["aggressive_violating_intervals"] = v_aggr
    summary["aggressive_intervals"] = n_aggr
    summary["qshare_violating_intervals"] = v_q
    rows.append({"case": "asymmetric", "policy": "es_aggressive",
                 "mean_mbps": repr(float(v_aggr))})
    rows.append({"case": "asymmetric", "policy": "qshare",
                 "mean_mbps": repr(float(v_q))})
    return summary, {"tradeoff": (["case", "policy", "mean_mbps"], rows)}


def run_fct(doc: dict) -> tuple[dict, dict]:
    """Shuffle-phase FCTs for one foreground tenant against background load,
    compared across policies at several fabric loads."""
    doc = validate(doc)
    loads = doc.get("loads", [0.3, 0.5, 0.7, 0.9])
    policies = doc.get("policies", ["qshare", "es_aggressive", "static"])
    duration = doc.get("duration_s", 20.0)
    bg_count = doc.get("background_tenants", 4)
    # the clients below set their own mode and scale, the background ones
    # their sizes; an empty `demand` keeps the generator's defaults for the
    # rest (enterprise sizes for the foreground, 1 s background dormancy)
    sim_doc = dict(doc, demand={})
    means: dict = {}
    for load in loads:
        for policy in policies:
            topo = _testbed(doc)
            bg_core = load * 1000.0 / bg_count
            tenants = _striped_tenants(topo, {
                "fg": TenantRequest(10, 94.0 / 5),
                **{f"bg{i}": TenantRequest(10, bg_core / 5)
                   for i in range(bg_count)}})
            monitor = _monitor_link(topo)
            rack0 = set(topo.down_neighbors(monitor[1]))
            vm_map = {t: fluid._expand_vms(x) for t, x in tenants.items()}
            clients = fluid.make_clients(tenants, vm_map, client_hyps=rack0)
            _restrict_to_remote_peers(topo, clients, vm_map)
            # background bytes scale with the fabric load they are meant to
            # create, keeping their busy fraction load-proportional
            bg_flow_bytes = doc.get("background_flow_mb", 3.0) * 1e6 * (load / 0.3)
            for c in clients:
                if c.tenant == "fg":
                    c.mode = "shuffle"
                    c.size_scale = doc.get("size_scale", 100.0)
                else:
                    c.mode = "unpredictable"
                    c.flow_sizes = ("fixed", bg_flow_bytes)
                    c.size_scale = 1.0
            # with fewer tenants than dedicated slots the binding steady state
            # is everyone-dedicated; seed it so all policies start settled
            sim = _simulation(
                sim_doc, topo, tenants, clients, policy, monitor,
                initial_dedicated=(sorted(tenants) if policy == "qshare"
                                   and len(tenants) < 8 else None))
            reports = sim.run(duration)
            per_client: dict = {}
            for rep in reports:
                for (fid, tid, size, start, dur, client) in rep.fcts:
                    if tid == "fg":
                        per_client.setdefault(client, []).append(dur)
            means[(load, policy)] = per_client
    # pair the comparison per client on the common flow prefix: the i-th
    # request of a client has identical size and peer under every policy
    rows = []
    summary = {}
    for load in loads:
        clients = set()
        for policy in policies:
            clients |= set(means[(load, policy)])
        paired: dict = {p: [] for p in policies}
        total = 0
        for c in sorted(clients):
            k = min(len(means[(load, p)].get(c, [])) for p in policies)
            total += k
            for p in policies:
                paired[p].extend(means[(load, p)].get(c, [])[:k])
        for policy in policies:
            mean_fct = float(np.mean(paired[policy])) if total else math.inf
            summary[f"{policy}@{load}"] = mean_fct
            rows.append({"load": load, "policy": policy,
                         "mean_fct_s": repr(mean_fct), "flows": total})
    return summary, {"fct": (["load", "policy", "mean_fct_s", "flows"], rows)}


RUNNERS = {
    "wcbg": run_wcbg,
    "sweep": run_interval_sweep,
    "scarcity": run_scarcity,
    "gain": run_gain,
    "tradeoff": run_tradeoff,
    "fct": run_fct,
}


def run_scenario(doc: dict) -> tuple[dict, dict]:
    doc = validate(doc)
    return RUNNERS[doc["kind"]](doc)
