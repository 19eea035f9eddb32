"""Output checks for the benchmark's workloads.

Every check recomputes a quantity independently of the program, or tests a
property the method must have; none compares against a stored copy of an
earlier output. Each check function returns a list of failure messages,
empty when the output passes.

The summary fields `guarantee_violation_time_s`, `active_time_s` and
`busy_fraction` are not used: they mix time windows and units (see the
FOUND lines in CHANGES.md).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

BYTES_PER_MBPS_SEC = 125_000.0
UTIL_TOL = 1e-9
UTIL_FLOOR = 0.88  # acceptance criterion 2's post-warmup mean utilization
ORACLE_TOL = 1e-6  # relative rate difference from the WFQ reference
FCT_ORDER = ("qshare", "es_aggressive", "static")


def _csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _jsonl(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# wcbg-unpredictable: CLI artifacts of a testbed run
# ---------------------------------------------------------------------------

def check_wcbg(outdir: Path, core_mbps: float, nic_mbps: float) -> list:
    util = _csv(outdir / "utilization.csv")
    tenants = _csv(outdir / "tenant_throughput.csv")
    flows = _jsonl(outdir / "flows.jsonl")
    fails = []
    if not util:
        return ["utilization.csv has no samples"]
    per_time_util: dict = {}
    for row in util:
        u = float(row["utilization"])
        if not u <= 1.0 + UTIL_TOL:
            fails.append(f"utilization {u!r} at t={row['time_s']} exceeds 1")
        per_time_util[row["time_s"]] = per_time_util.get(row["time_s"], 0.0) + u
    per_time_mbps: dict = {}
    for row in tenants:
        per_time_mbps[row["time_s"]] = (per_time_mbps.get(row["time_s"], 0.0)
                                        + float(row["mbps"]))
    for t, u in per_time_util.items():
        total = per_time_mbps.get(t, 0.0)
        if abs(total - u * core_mbps) > 1e-6 * core_mbps:
            fails.append(f"t={t}: tenant throughput sums to {total!r} Mbps, "
                         f"utilization x capacity is {u * core_mbps!r}")
    for t in per_time_mbps.keys() - per_time_util.keys():
        fails.append(f"t={t}: tenant throughput without a utilization sample")
    mean = math.fsum(float(r["utilization"]) for r in util) / len(util)
    if mean < UTIL_FLOOR:
        fails.append(f"post-warmup mean core utilization {mean:.4f} "
                     f"< {UTIL_FLOOR}")
    for fl in flows:
        line_rate_s = float(fl["bytes"]) / (nic_mbps * BYTES_PER_MBPS_SEC)
        if float(fl["fct_s"]) < line_rate_s * (1 - 1e-9):
            fails.append(f"flow {fl['flow']} finished in {fl['fct_s']} s, "
                         f"faster than {line_rate_s!r} s at NIC line rate")
    return fails


# ---------------------------------------------------------------------------
# fct-shuffle: CLI fct.csv
# ---------------------------------------------------------------------------

def _fct_by_load(outdir: Path) -> dict:
    by_load: dict = {}
    for row in _csv(outdir / "fct.csv"):
        by_load.setdefault(row["load"], {})[row["policy"]] = row
    return by_load


def check_fct(outdir: Path) -> list:
    """Every mean FCT finite and positive, paired flows at every load, and
    the static policy's mean FCT equal across loads (reservation isolates
    the foreground tenant from the background load)."""
    by_load = _fct_by_load(outdir)
    if not by_load:
        return ["fct.csv has no rows"]
    fails = []
    static = []
    for load, pol in sorted(by_load.items()):
        missing = [p for p in FCT_ORDER if p not in pol]
        if missing:
            fails.append(f"load {load}: no row for {missing}")
            continue
        for p in FCT_ORDER:
            m = float(pol[p]["mean_fct_s"])
            if not (math.isfinite(m) and m > 0):
                fails.append(f"load {load}: {p} mean FCT {m!r} is not "
                             f"finite and positive")
            if int(pol[p]["flows"]) <= 0:
                fails.append(f"load {load}: {p} has no paired flows")
        static.append(float(pol["static"]["mean_fct_s"]))
    if static and max(static) - min(static) > 1e-9 * abs(min(static)):
        fails.append(f"static mean FCT differs across loads: {static}")
    return fails


def fct_order_breaks(outdir: Path) -> list:
    """Loads at which mean FCT breaks the paper's ordering
    qshare <= es_aggressive <= static (acceptance criterion 8)."""
    breaks = []
    for load, pol in sorted(_fct_by_load(outdir).items()):
        if not all(p in pol for p in FCT_ORDER):
            continue
        means = [float(pol[p]["mean_fct_s"]) for p in FCT_ORDER]
        if not all(a <= b for a, b in zip(means, means[1:])):
            breaks.append(f"load {load}: mean FCT "
                          f"{dict(zip(FCT_ORDER, means))} breaks "
                          f"{' <= '.join(FCT_ORDER)}")
    return breaks


# ---------------------------------------------------------------------------
# fill-16to1: library objects of a fill and its throughput-gain study
# ---------------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def link_of(u: str, v: str) -> tuple:
    return (u, v) if u < v else (v, u)


def tree_reservations(tenant) -> dict:
    """Cut-rule reservation B * min(below, N - below) on every routing-tree
    link, recounted from the VM placement and the tree's parent pointers."""
    n = tenant.request.vm_count
    b = tenant.request.per_vm_guarantee
    parent = tenant.tr.parent
    below: dict = {}
    for hyp, m in tenant.vm_placement.items():
        node = hyp
        while parent.get(node) is not None:
            below[node] = below.get(node, 0) + m
            node = parent[node]
    return {link_of(u, parent[u]): b * min(c, n - c) for u, c in below.items()}


def fill_loads(topo, tenants: dict) -> dict:
    """Bandwidth load, slot load and co-located tenants, recounted from the
    links, the hypervisors and the placements."""
    cap = math.fsum(l.capacity for l in topo.links.values())
    reserved = math.fsum(r for t in tenants.values()
                         for r in t.tr.reserved.values())
    slots = sum(nd.vm_slots_total for nd in topo.nodes.values())
    used = sum(m for t in tenants.values() for m in t.vm_placement.values())
    single = sum(1 for t in tenants.values()
                 if sum(1 for m in t.vm_placement.values() if m > 0) == 1)
    return {"bandwidth_load_pct": 100.0 * reserved / cap,
            "slot_load_pct": 100.0 * used / slots,
            "single_hypervisor_tenants": single}


def check_fill(topo, fill, gains: list, queue_count: int) -> list:
    fails = []
    tenants = fill.tenants
    link_sum: dict = {}
    link_members: dict = {}
    hyp_vms: dict = {}
    for tid, t in tenants.items():
        n = t.request.vm_count
        if sum(t.vm_placement.values()) != n:
            fails.append(f"{tid}: VMs sum to {sum(t.vm_placement.values())}, "
                         f"not N={n}")
        expected = tree_reservations(t)
        if set(expected) != set(t.tr.reserved) or set(t.tr.links) != set(expected):
            fails.append(f"{tid}: routing-tree links differ from the links "
                         f"spanned by its placement")
        for key, r in expected.items():
            if not _close(r, t.tr.reserved.get(key, math.nan)):
                fails.append(f"{tid}: {key} reserves "
                             f"{t.tr.reserved.get(key)!r}, cut rule gives {r!r}")
        for key, r in t.tr.reserved.items():
            link_sum[key] = link_sum.get(key, 0.0) + r
            link_members[key] = link_members.get(key, 0) + 1
        for hyp, m in t.vm_placement.items():
            hyp_vms[hyp] = hyp_vms.get(hyp, 0) + m
    for key, link in topo.links.items():
        total = link_sum.get(key, 0.0)
        if not _close(total, link.reserved):
            fails.append(f"link {key}: tenant reservations sum to {total!r}, "
                         f"link reserves {link.reserved!r}")
        if link.reserved > link.capacity * (1 + 1e-9):
            fails.append(f"link {key}: reserved {link.reserved!r} exceeds "
                         f"capacity {link.capacity!r}")
    for hyp, nd in topo.nodes.items():
        used = hyp_vms.get(hyp, 0)
        if used > nd.vm_slots_total:
            fails.append(f"{hyp}: {used} VMs on {nd.vm_slots_total} slots")
        if nd.vm_slots_free != nd.vm_slots_total - used:
            fails.append(f"{hyp}: {nd.vm_slots_free} free slots, expected "
                         f"{nd.vm_slots_total - used}")

    counts = [link_members.get(key, 0) for key in topo.links]
    nlinks = len(counts)
    rep = fill.report
    recount = {
        "r_under_9": sum(1 for c in counts if c < 9) / nlinks * 100,
        "r_9_to_12": sum(1 for c in counts if 9 <= c <= 12) / nlinks * 100,
        "r_over_12": sum(1 for c in counts if c > 12) / nlinks * 100,
        "r_nd": (sum(1 for t in tenants.values()
                     if all(link_members[k] <= queue_count - 1
                            for k in t.tr.links)) / len(tenants) * 100
                 if tenants else 100.0),
    }
    for field, value in recount.items():
        if not _close(value, getattr(rep, field)):
            fails.append(f"ScarcityReport.{field} {getattr(rep, field)!r}, "
                         f"recounted {value!r}")
    if len(tenants) + fill.rejected != fill.attempted:
        fails.append(f"accepted {len(tenants)} + rejected {fill.rejected} "
                     f"!= attempted {fill.attempted}")

    for g in gains:
        low = [t for t, v in g.gains.items() if v < 1.0 - 1e-12]
        if low:
            fails.append(f"r_in={g.r_in}: {len(low)} gains below 1, "
                         f"e.g. {low[0]} = {g.gains[low[0]]!r}")
        for key, u in g.link_util.items():
            if u > 1.0 + UTIL_TOL:
                fails.append(f"r_in={g.r_in}: link {key} utilization {u!r} > 1")
            if u < g.static_util[key] - 1e-12:
                fails.append(f"r_in={g.r_in}: link {key} utilization {u!r} "
                             f"below static {g.static_util[key]!r}")
    return fails


# ---------------------------------------------------------------------------
# per-solve checks of the traced run (counted, not operation failures)
# ---------------------------------------------------------------------------

def solve_violations(solver, flows: list) -> tuple:
    """(over_capacity, unbottlenecked) for one RateSolver.solve result.

    over_capacity: some directed link carries more than its capacity.
    unbottlenecked: routed flows that cross no saturated link and are not
    held at a shared-queue or static reservation cap on their route.
    """
    routed = [f for f in flows if f.route]
    load: dict = {}
    tenant_load: dict = {}
    for f in routed:
        for dkey in f.route:
            load[dkey] = load.get(dkey, 0.0) + f.rate
            k = (dkey, f.tenant)
            tenant_load[k] = tenant_load.get(k, 0.0) + f.rate
    over = False
    saturated = set()
    for dkey, total in load.items():
        cap = solver.views[link_of(*dkey)].capacity
        if total > cap * (1 + 1e-9):
            over = True
        if total >= cap * (1 - 1e-6):
            saturated.add(dkey)

    def held(f, dkey) -> bool:
        view = solver.views[link_of(*dkey)]
        if solver.mode != "static" and f.tenant in view.owners:
            return False
        res = view.reservations.get(f.tenant, 0.0)
        return tenant_load[(dkey, f.tenant)] >= res - 1e-6 * max(res, 1.0)

    free = sum(1 for f in routed
               if not any(d in saturated or held(f, d) for d in f.route))
    return over, free


def oracle_mismatch(solver, flows: list, oracle_cls) -> bool:
    """True when a WFQ solve's rates differ from the reference fixed point
    by more than ORACLE_TOL, relative to the reference rate (floored at 1 Mbps)."""
    routed = [f for f in flows if f.route]
    capacities, reservations, owners, weights = {}, {}, {}, {}
    for f in routed:
        for dkey in f.route:
            view = solver.views[link_of(*dkey)]
            capacities[dkey] = view.capacity
            reservations[dkey] = view.reservations
            owners[dkey] = view.owners
            weights[dkey] = view.qweights
    ref = oracle_cls(capacities, owners, reservations, weights).solve(routed)
    return any(abs(f.rate - ref[f.fid]) / max(ref[f.fid], 1.0) > ORACLE_TOL
               for f in routed)
