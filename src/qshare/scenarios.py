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

`SCHEMA` declares every key each kind takes, with its default and its check.
`resolve` rejects an unknown key, a wrong type or a bad value by its dotted
path and fills every default; each public entry resolves its input once.

Runners return (summary, artifacts): `summary` is a flat dict of headline
metrics echoed into summary.json; `artifacts` maps artifact names to
(fieldnames, rows) written by the CLI as CSV, or as JSON lines when the name
carries a .jsonl suffix.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import fluid, largescale
from .baselines import EndhostRatePolicy, RAConfig
from .placement import CostPolicy, embed_fixed
from .tenants import TenantRequest, cut_reservation
from .topology import build_testbed, fattree_like, link_key

KINDS = ("wcbg", "sweep", "scarcity", "gain", "tradeoff", "fct")
POLICIES = ("qshare", "static", "es_conservative", "es_aggressive")
OVERSUBS = ("1:1", "4:1", "16:1")


class ScenarioError(ValueError):
    """Scenario file failed validation; message carries the offending path."""


class Rule(NamedTuple):
    """A table leaf with its own check: `ok` holds for every good value (for
    a list default, for every entry) and `why` says what a bad one is not."""
    default: object
    ok: Callable
    why: str


def _is(v, types=(int, float)) -> bool:
    """`v` is of `types`, numbers by default; a bool is never a number."""
    return isinstance(v, types) and not isinstance(v, bool)


_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
          str: (str, "a string")}


def _rule(leaf, low=None) -> Rule:
    """The Rule of a table leaf that is not one: a tuple's choices (default
    first), or else the default's type for every value (for a list, for
    every entry, that of its first) and, given a `low`, a value above it."""
    if isinstance(leaf, tuple):
        return Rule(leaf[0], lambda v: v in leaf, f"is not one of {leaf}")
    sample = leaf[0] if isinstance(leaf, list) else leaf
    types, name = _TYPES[type(sample)]
    return Rule(leaf, lambda v: _is(v, types) and (low is None or v > low),
                f"is not {name}" + ("" if low is None else f" > {low}"))


def _activation(v) -> bool:
    return v is None or _is(v) or (isinstance(v, list) and len(v) == 2
                                    and all(map(_is, v)))


# Table leaves: a dict is a block, a tuple lists the choices with the default
# first, a Rule carries its own check, and any other value is a default whose
# type every value must have (see `_rule`).
_NAME = Rule(None, lambda v: isinstance(v, str) and v != "",
             "is not a scenario name")
_TESTBED = {
    "name": _NAME, "kind": KINDS, "seed": 0, "sample_s": _rule(0.1, low=0),
    "control_interval_s": _rule(4.0, low=0),
    "weight_mode": ("normalized", "quantized"),
    "topology": {"racks": _rule(2, low=0), "servers_per_rack": _rule(5, low=0),
                 "vm_slots": _rule(10, low=0), "nic_mbps": _rule(1000.0, low=0),
                 "core_mbps": _rule(1000.0, low=0),
                 "queues_per_link": _rule(8, low=0)},
    "ra": {f.name: f.default for f in fields(RAConfig) if f.name != "mode"},
}
_WCBG = {
    **_TESTBED, "policy": POLICIES, "duration_s": _rule(10.0, low=0),
    "warmup_intervals": 0,
    "tenants": {"count": _rule(10, low=0), "vms_per_tenant": _rule(10, low=1),
                "core_guarantee_mbps": Rule(94.0, lambda v: _is(v) and v >= 0,
                                            "is not a number >= 0")},
    "demand": {
        "mode": ("unpredictable", "predictable", "shuffle"),
        "flow_sizes": Rule("enterprise", lambda v: v in (
            "enterprise", "datamining") or (isinstance(v, list) and len(v) == 2
                                            and v[0] == "fixed" and _is(v[1])),
            'is not "enterprise", "datamining" or ["fixed", bytes]'),
        "dormancy_s": Rule(1.0, lambda v: _is(v) and v >= 0,
                           "is not a number >= 0"),
        "size_scale": _rule(1.0, low=0), "clients": ("rack0", "all"),
        "concurrency": _rule(1, low=0), "peers": ("any", "remote"),
        "activations": Rule({}, lambda v: isinstance(v, dict) and all(
            map(_activation, v.values())), "is not a map of tenant id to a "
            "start time, [start, stop] or null"),
        "initial_dedicated": Rule([], lambda v: isinstance(v, str),
                                  "is not a tenant id"),
    },
}
_FILL = {
    "name": _NAME, "kind": KINDS, "seed": 0, "oversub": OVERSUBS,
    "topology": {"queues_per_link": _rule(8, low=0)},
    "population": {"vm_mean": largescale.PopulationSpec.vm_mean,
                   "vm_floor": largescale.PopulationSpec.vm_floor,
                   "guarantees": list(largescale.PopulationSpec.guarantees)},
    "fill": {"reject_streak": 50, "r_in": 0.5, "intervals": 20},
}
SCHEMA = {
    "wcbg": _WCBG,
    "sweep": {**_WCBG, "warmup_intervals": 1,
              "intervals": _rule([1.0, 2.0, 4.0, 8.0], low=0)},
    "scarcity": _FILL,
    "gain": {**_FILL, "cdf_r_in": 0.5,
             "r_in_values": [round(0.1 * k, 1) for k in range(1, 10)]},
    "tradeoff": {**_TESTBED, "duration_s": _rule(30.0, low=0),
                 "size_scale": _rule(50.0, low=0)},
    "fct": {**_TESTBED, "duration_s": _rule(20.0, low=0),
            "size_scale": _rule(100.0, low=0),
            "loads": Rule([0.3, 0.5, 0.7, 0.9], lambda v: _is(v) and 0 < v < 1,
                          "is not a number in (0, 1)"),
            "policies": Rule(["qshare", "es_aggressive", "static"],
                             lambda v: v in POLICIES, f"is not one of {POLICIES}"),
            "background_tenants": _rule(4, low=0), "background_flow_mb": 3.0},
}


def _walk(spec: dict, doc, prefix: str) -> dict:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{prefix[:-1]}: {json.dumps(doc)} is not an object")
    for key in doc:
        if key not in spec:
            raise ScenarioError(f"{prefix}{key}: unknown key")
    out = {}
    for key, leaf in spec.items():
        path = prefix + key
        if isinstance(leaf, dict):
            out[key] = _walk(leaf, doc.get(key, {}), path + ".")
            continue
        rule = leaf if isinstance(leaf, Rule) else _rule(leaf)
        value = out[key] = doc[key] if key in doc else copy.deepcopy(rule.default)
        entries = [(path, value)]
        if isinstance(rule.default, list):
            if not isinstance(value, list):
                raise ScenarioError(f"{path}: {json.dumps(value)} is not a list")
            entries = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
        for at, v in entries:
            if not rule.ok(v):
                raise ScenarioError(f"{at}: {json.dumps(v)} {rule.why}")
    return out


def resolve(doc: dict) -> dict:
    """`doc` checked against its kind's table, as a new document with every
    default filled and every given value unchanged (so resolving is
    idempotent). Raises ScenarioError naming the first bad key's path."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in KINDS:
        raise ScenarioError(f"kind: {json.dumps(kind)} is not one of {KINDS}")
    return _walk(SCHEMA[kind], doc, "")


def validate(doc: dict) -> dict:
    """Check a scenario document (see `resolve`); returns it as given."""
    resolve(doc)
    return doc


# ---------------------------------------------------------------------------
# work-conserving bandwidth guarantee scenarios (testbed scale)
# ---------------------------------------------------------------------------

@dataclass
class WcbgRun:
    sim: fluid.FluidSimulation
    reports: list
    warmup_intervals: int

    def measured_reports(self) -> list:
        return self.reports[self.warmup_intervals:]

    def mean_core_utilization(self) -> float:
        series = [u for rep in self.measured_reports()
                  for u in rep.link_util.get(self.sim.monitor, [])]
        return float(np.mean(series)) if series else 0.0


def build_wcbg(doc: dict, counters: dict | None = None) -> WcbgRun:
    cfg = resolve(doc)
    ten = cfg["tenants"]
    vms = ten["vms_per_tenant"]
    # striped, the core link carries B * min(half, half): the core guarantee
    half = vms // 2
    b = ten["core_guarantee_mbps"] / max(min(half, vms - half), 1)
    sim = _simulation(cfg, {f"t{i + 1:02d}": TenantRequest(vms, b)
                            for i in range(ten["count"])}, counters=counters)
    warmup = cfg["warmup_intervals"]
    reports = sim.run(cfg["duration_s"], warmup_intervals=warmup)
    return WcbgRun(sim, reports, warmup)


def _wcbg(cfg: dict, **keys) -> dict:
    """The resolved wcbg document of a run inside `cfg`, a resolved tradeoff
    or fct document: the keys both kinds declare, then `keys`."""
    return resolve({**{k: v for k, v in cfg.items() if k in _WCBG},
                    "kind": "wcbg", **keys})


def _simulation(cfg: dict, requests: dict, shape: dict | None = None,
                counters: dict | None = None) -> fluid.FluidSimulation:
    """The fluid simulation that the resolved wcbg document `cfg` describes
    for `requests` (id -> TenantRequest), each striped round-robin over all
    servers under the top switch, monitoring the core link toward rack 0.
    `shape` overrides the `demand` block per tenant (id -> field -> value).
    The simulation adds its solver and loop counters to `counters` when
    given (see FluidSimulation)."""
    top = cfg["topology"]
    topo = build_testbed(**{"queue_count" if k == "queues_per_link" else k: v
                            for k, v in top.items()})
    hyps = topo.hypervisors()
    root = topo.nodes_at_layer(topo.layer_count - 1)[0]
    placements, hosted = {}, dict.fromkeys(hyps, 0)
    for tid, request in requests.items():
        vms = request.vm_count
        placement = placements[tid] = {}
        for k in range(vms):
            hyp = hyps[(k * len(hyps) // vms) % len(hyps)]
            placement[hyp] = placement.get(hyp, 0) + 1
            hosted[hyp] += 1
    busiest = max(hyps, key=hosted.get)
    if hosted[busiest] > top["vm_slots"]:
        sizes = sorted({r.vm_count for r in requests.values()})
        raise ScenarioError(
            f"topology.vm_slots: {top['vm_slots']} VM slots per server, but "
            f"{len(requests)} tenants of {'/'.join(map(str, sizes))} VMs "
            f"(tenants.vms_per_tenant, in a wcbg run) striped over "
            f"topology.racks x topology.servers_per_rack = {top['racks']} x "
            f"{top['servers_per_rack']} servers put {hosted[busiest]} on "
            f"{busiest}")
    # the cut rule's reservation on every link (server to ToR, ToR to core)
    tor_of = {h: topo.up_neighbors(h)[0] for h in hyps}
    reserved: dict = {}
    for tid, request in requests.items():
        below = dict(placements[tid])
        for hyp, m in placements[tid].items():
            below[tor_of[hyp]] = below.get(tor_of[hyp], 0) + m
        for node, m in below.items():
            key = (node, tor_of.get(node, root))
            reserved[key] = reserved.get(key, 0.0) + cut_reservation(request, m)
    for (node, up), total in sorted(reserved.items()):
        cap = topo.links[link_key(node, up)].capacity
        if total > cap * (1 + 1e-9):
            cap_key = "nic_mbps" if node in tor_of else "core_mbps"
            per_vm = sorted({r.per_vm_guarantee for r in requests.values()})
            raise ScenarioError(
                f"topology.{cap_key}: {cap} Mbps per link, but the cut rule "
                f"reserves {total:.1f} Mbps on {node}-{up} for {len(requests)} "
                f"tenants of {'/'.join(map(repr, per_vm))} Mbps per VM "
                f"(tenants.core_guarantee_mbps over half the VMs, in a wcbg "
                f"run)")
    tenants = {tid: embed_fixed(topo, request, tid, root, placements[tid])
               for tid, request in requests.items()}
    monitor = (root, sorted(topo.down_neighbors(root))[0])
    dem, policy = cfg["demand"], cfg["policy"]
    vm_map = {t: fluid._expand_vms(x) for t, x in tenants.items()}
    rack0 = set(topo.down_neighbors(monitor[1]))
    clients = fluid.make_clients(
        tenants, vm_map, client_hyps=rack0 if dem["clients"] == "rack0" else None,
        activations=dem["activations"], concurrency=dem["concurrency"])
    if dem["peers"] == "remote":
        # transfers only from peers under a different ToR (pure rack-to-rack
        # traffic, the reference testbed pattern)
        for c in clients:
            c.peer_vms = tuple(v for v, hyp in enumerate(vm_map[c.tenant])
                               if tor_of[hyp] != tor_of[c.hyp])
    for c in clients:
        for field, value in (shape or {}).get(c.tenant, {}).items():
            setattr(c, field, value)
    gen = fluid.DemandGenerator(
        mode=dem["mode"], flow_sizes=dem["flow_sizes"],
        dormancy=dem["dormancy_s"], size_scale=dem["size_scale"],
        seed=cfg["seed"], clients=clients)
    hook = None
    quantum = None
    if policy.startswith("es_"):
        ra = RAConfig(mode=policy.removeprefix("es_"), **cfg["ra"])
        hook = EndhostRatePolicy(topo, tenants, ra)
        quantum = ra.probe_period
    return fluid.FluidSimulation(
        topo, tenants, gen,
        interval=cfg["control_interval_s"],
        policy=policy,
        weight_mode=cfg["weight_mode"],
        seed=cfg["seed"], monitor=monitor,
        sample=cfg["sample_s"],
        initial_dedicated=dem["initial_dedicated"],
        rate_hook=hook, quantum=quantum, counters=counters)


def run_wcbg(doc: dict, counters: dict | None = None) -> tuple[dict, dict]:
    run = build_wcbg(doc, counters)
    stats = run.sim.stats
    summary = {
        "mean_core_utilization": run.mean_core_utilization(),
        "guarantee_violation_time_s": stats.guarantee_violation_time,
        "guarantee_violation_tenant_s": stats.guarantee_violation_tenant_time,
        "conservation_violation_time_s": stats.conservation_violation_time,
        "active_time_s": stats.time_active,
        "busy_fraction": stats.busy_time / max(stats.time_active, 1e-12),
    }
    util_rows, tenant_rows, fct_rows = [], [], []
    for rep in run.measured_reports():
        series = rep.link_util.get(run.sim.monitor, [])
        for i, u in enumerate(series):
            util_rows.append({
                "time_s": round(rep.start + i * run.sim.sample, 4),
                "utilization": repr(u),
            })
        for tid in sorted(run.sim.tenants):
            series = rep.tenant_throughput_mbps.get(tid, [])
            for i, mbps in enumerate(series):
                tenant_rows.append({
                    "time_s": round(rep.start + i * run.sim.sample, 4),
                    "tenant": tid,
                    "mbps": repr(mbps),
                })
        for fid, tid, size, start, dur, client in rep.fcts:
            fct_rows.append({"flow": fid, "tenant": tid, "bytes": repr(size),
                             "start_s": repr(start), "fct_s": repr(dur)})
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
    artifacts = {
        "utilization": (["time_s", "utilization"], util_rows),
        "tenant_throughput": (["time_s", "tenant", "mbps"], tenant_rows),
        "binding.jsonl": (None, binding_rows),
        "flows.jsonl": (None, fct_rows),
    }
    return summary, artifacts


def run_interval_sweep(doc: dict,
                       counters: dict | None = None) -> tuple[dict, dict]:
    cfg = resolve(doc)
    rows = []
    for iv in cfg["intervals"]:
        run = build_wcbg(dict(cfg, control_interval_s=float(iv)), counters)
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
    cfg = resolve(doc)
    topo = fattree_like(cfg["oversub"], seed=cfg["seed"],
                        queue_count=cfg["topology"]["queues_per_link"])
    spec = largescale.PopulationSpec(**cfg["population"])
    return largescale.fill_to_capacity(topo, spec, CostPolicy.stress(),
                                       seed=cfg["seed"], **cfg["fill"])


def run_scarcity(doc: dict, counters: dict | None = None) -> tuple[dict, dict]:
    cfg = resolve(doc)
    result = build_fill(cfg)
    if counters is not None:
        counters["placement"] = result.placement
    row = {"oversub": cfg["oversub"], **result.report.as_row(),
           "attempted": result.attempted, "rejected": result.rejected}
    summary = dict(row)
    embed_rows = [
        {"tenant": tid, "root": t.tr.root, "layer": t.tr.layer,
         "c_b": t.tr.cost_b, "c_q": t.tr.cost_q,
         "reservations": {f"{k[0]}-{k[1]}": v for k, v in t.tr.reserved.items()}}
        for tid, t in sorted(result.tenants.items())]
    return summary, {"scarcity": (list(row), [row]),
                     "embedding.jsonl": (None, embed_rows)}


def run_gain(doc: dict, counters: dict | None = None) -> tuple[dict, dict]:
    cfg = resolve(doc)
    fill = build_fill(cfg)
    if counters is not None:
        counters["placement"] = fill.placement
    r_values = cfg["r_in_values"]
    gain_rows = []
    reports = {}
    for r_in in r_values:
        rep = largescale.throughput_gain(fill.topo, fill.tenants, r_in,
                                         seed=cfg["seed"])
        reports[r_in] = rep
        gain_rows.append({"r_in": r_in, "mean_gain": repr(rep.mean_gain),
                          "high_tenants": rep.high_count})
    cdf_r = cfg["cdf_r_in"]
    if cdf_r not in reports:
        reports[cdf_r] = largescale.throughput_gain(
            fill.topo, fill.tenants, cdf_r, seed=cfg["seed"])
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

def run_tradeoff(doc: dict, counters: dict | None = None) -> tuple[dict, dict]:
    """Half-reserved bursty scenario (conservative waste vs work conservation)
    and the asymmetric-guarantee scenario (aggressive probing vs guarantees)."""
    cfg = resolve(doc)
    rows = []
    summary: dict = {}

    half = _wcbg(cfg, policy="es_conservative",
                 tenants={"count": 2, "core_guarantee_mbps": 250.0},
                 demand={"size_scale": cfg["size_scale"]})
    cons = build_wcbg(half, counters)
    qsh = build_wcbg(dict(half, policy="qshare", warmup_intervals=1), counters)
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
        sim = _simulation(dict(half, policy=policy),
                          {"tA": TenantRequest(10, 140.0),
                           "tB": TenantRequest(10, 40.0)},
                          {"tA": {"mode": "predictable"}}, counters)
        skip = 1 if policy == "qshare" else 0
        reports = sim.run(cfg["duration_s"], warmup_intervals=skip)
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


def run_fct(doc: dict, counters: dict | None = None) -> tuple[dict, dict]:
    """Shuffle-phase FCTs for one foreground tenant against background load,
    compared across policies at several fabric loads."""
    cfg = resolve(doc)
    loads, policies = cfg["loads"], cfg["policies"]
    bg_count = cfg["background_tenants"]
    means: dict = {}
    for load in loads:
        bg_core = load * 1000.0 / bg_count
        requests = {"fg": TenantRequest(10, 94.0 / 5),
                    **{f"bg{i}": TenantRequest(10, bg_core / 5)
                       for i in range(bg_count)}}
        # the foreground shuffles, the background sends fixed-size flows
        # whose bytes scale with the fabric load they are meant to create,
        # keeping their busy fraction load-proportional; the default `demand`
        # block gives the rest (enterprise sizes for the foreground, and
        # unpredictable mode, scale 1 and 1 s dormancy for the background)
        bg = {"flow_sizes": ("fixed",
                             cfg["background_flow_mb"] * 1e6 * (load / 0.3))}
        shape = {"fg": {"mode": "shuffle", "size_scale": cfg["size_scale"]},
                 **{tid: bg for tid in requests if tid != "fg"}}
        for policy in policies:
            # with fewer tenants than dedicated slots the binding steady state
            # is everyone-dedicated; seed it so all policies start settled
            dedicated = (sorted(requests) if policy == "qshare"
                         and len(requests) < 8 else [])
            sim = _simulation(
                _wcbg(cfg, policy=policy, demand={
                    "peers": "remote", "initial_dedicated": dedicated}),
                requests, shape, counters)
            reports = sim.run(cfg["duration_s"])
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


def run_scenario(doc: dict, counters: dict | None = None) -> tuple[dict, dict]:
    """(summary, artifacts) of the scenario `doc`. When `counters` is
    given, every fluid simulation of the run adds its rate solver's and
    loop's counters to it, and the scarcity and gain studies put their
    fill's placement counters under "placement"."""
    cfg = resolve(doc)
    return RUNNERS[cfg["kind"]](cfg, counters)
