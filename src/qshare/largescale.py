"""Production-scale studies: tenant population sampling, fill-to-capacity
embedding, queue-scarcity statistics with interval-wise opportunistic
dedication, and throughput-gain / link-utilization analysis.

Gains use the weighted-share formula rather than flow simulation: a dedicated
high-demand tenant's per-link gain is 1 + spare / (sum of high-demand
reservations on that link), its tenant gain the minimum over its routing-tree
links, and the extra bandwidth is spread over its links in proportion to its
per-link reservations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .binding import QueueAllocationState, allocate_queues, assign_dscp
from .placement import CostPolicy, embed
from .tenants import TenantRequest, payment_factor
from .topology import Topology


@dataclass
class PopulationSpec:
    vm_mean: float = 49.0
    vm_floor: int = 2
    guarantees: tuple | list = (10.0, 50.0, 100.0, 200.0, 300.0)
    payment_constant: float = 1.0

    def sample(self, rng) -> TenantRequest:
        n = max(self.vm_floor, int(round(rng.exponential(self.vm_mean))))
        b = float(rng.choice(self.guarantees))
        return TenantRequest(n, b, payment_constant=self.payment_constant)


@dataclass
class ScarcityReport:
    ports_total: int
    r_under_9: float
    r_9_to_12: float
    r_over_12: float
    max_port_tenants: int
    r_nd: float
    r_ni: float | None = None
    dscp_values_used: int | None = None
    tenants: int = 0

    def as_row(self) -> dict:
        return {
            "ports": self.ports_total,
            "r_under_9_pct": round(self.r_under_9, 3),
            "r_9_to_12_pct": round(self.r_9_to_12, 3),
            "r_over_12_pct": round(self.r_over_12, 3),
            "max_port_tenants": self.max_port_tenants,
            "r_nd_pct": round(self.r_nd, 3),
            "r_ni_pct": None if self.r_ni is None else round(self.r_ni, 3),
            "dscp_values_used": self.dscp_values_used,
            "tenants": self.tenants,
        }


@dataclass
class FillResult:
    tenants: dict
    attempted: int
    rejected: int
    report: ScarcityReport
    topo: Topology = None
    # what the embeds did: embeds, accepted, candidates, ops and the DP's
    # merges_run, merges_shared and merges_skipped, summed over the fill
    placement: dict = field(default_factory=dict)


def port_statistics(topo: Topology, tenants: dict,
                    queue_count: int = 8) -> ScarcityReport:
    counts = [l.tenant_count() for l in topo.links.values()]
    n = len(counts)
    under = sum(1 for c in counts if c < 9) / n * 100
    mid = sum(1 for c in counts if 9 <= c <= 12) / n * 100
    over = sum(1 for c in counts if c > 12) / n * 100
    slots = queue_count - 1
    nd = 0
    for t in tenants.values():
        if all(topo.links[k].tenant_count() <= slots for k in t.tr.links):
            nd += 1
    r_nd = nd / len(tenants) * 100 if tenants else 100.0
    return ScarcityReport(n, under, mid, over, max(counts, default=0), r_nd,
                          tenants=len(tenants))


def fill_to_capacity(topo: Topology, spec: PopulationSpec,
                     policy: CostPolicy | None = None, *, seed: int = 0,
                     reject_streak: int = 50, max_attempts: int = 100_000,
                     r_in: float = 0.5, intervals: int = 20) -> FillResult:
    """Embed sampled tenants until `reject_streak` consecutive rejections,
    then compute scarcity statistics including the interval-wise opportunistic
    dedication rate under the declared activity model (each tenant high-demand
    with probability 1 - r_in per interval)."""
    policy = policy or CostPolicy.stress()
    rng = np.random.default_rng(seed)
    tenants: dict = {}
    streak = 0
    attempted = rejected = 0
    counts = dict.fromkeys(("embeds", "accepted", "candidates", "ops",
                            "merges_run", "merges_shared", "merges_skipped"), 0)
    while streak < reject_streak and attempted < max_attempts:
        req = spec.sample(rng)
        attempted += 1
        out = embed(topo, req, policy, tenant_id=f"t{attempted:05d}")
        counts["embeds"] += 1
        counts["accepted"] += out.feasible
        counts["candidates"] += out.candidates
        counts["ops"] += out.ops
        for name, value in out.merges.items():
            counts[f"merges_{name}"] += value
        if out.feasible:
            tenants[out.tenant.id] = out.tenant
            streak = 0
        else:
            rejected += 1
            streak += 1
    report = port_statistics(topo, tenants)
    r_ni, dscp_used = interval_dedication(
        topo, tenants, r_in=r_in, intervals=intervals, seed=seed,
        queue_count=topo.max_queue_count)
    report.r_ni = r_ni
    report.dscp_values_used = dscp_used
    return FillResult(tenants, attempted, rejected, report, topo, counts)


def interval_dedication(topo: Topology, tenants: dict, *, r_in: float = 0.5,
                        intervals: int = 20, seed: int = 0,
                        queue_count: int = 8):
    """Simulate interval-wise binding under random per-interval activity.
    Returns (mean % of tenants holding dedicated queues per interval, max dscp
    value used)."""
    if not tenants:
        return 100.0, 0
    rng = np.random.default_rng([seed, 0xD5C9])
    ids = sorted(tenants)
    pays = {tid: payment_factor(tenants[tid].request) for tid in ids}
    state = QueueAllocationState(queue_count)
    fractions = []
    dscp_used = 0
    for _ in range(intervals):
        active = rng.random(len(ids)) < (1.0 - r_in)
        scores = {tid: (pays[tid] if act else 0.0)
                  for tid, act in zip(ids, active)}
        state = allocate_queues(tenants, scores, state, rng)
        fractions.append(len(state.dedicated) / len(ids) * 100)
        assignment, _failed = assign_dscp(tenants, state.dedicated, scores)
        if assignment:
            dscp_used = max(dscp_used, max(assignment.values()))
    return float(np.mean(fractions)), dscp_used


@dataclass
class GainReport:
    r_in: float
    gains: dict
    mean_gain: float
    high_count: int
    link_util: dict
    static_util: dict

    def util_cdf(self, static: bool = False) -> np.ndarray:
        src = self.static_util if static else self.link_util
        return np.sort(np.fromiter(src.values(), dtype=float))


def throughput_gain(topo: Topology, tenants: dict, r_in: float, *,
                    seed: int = 0, queue_count: int = 8) -> GainReport:
    """Mark floor(r_in * tenants) tenants low-demand; compute per-tenant
    worst-link gains for high-demand dedicated tenants (shared and low-demand
    tenants have gain 1) and the link utilization both for the work-conserving
    policy (gain spread proportionally to per-link reservations) and for
    static reservation (high-demand tenants use exactly their guarantees).

    Tenants with zero network guarantee everywhere are excluded from gain
    statistics: gain over a zero guarantee is undefined.
    """
    if not (0.0 <= r_in <= 1.0):
        raise ValueError("r_in must be in [0, 1]")
    rng = np.random.default_rng([seed, 0x6A17])
    ids = sorted(tenants)
    low = set(rng.choice(ids, size=int(math.floor(r_in * len(ids))),
                         replace=False)) if ids else set()
    scores = {tid: (0.0 if tid in low else payment_factor(tenants[tid].request))
              for tid in ids}
    state = allocate_queues(tenants, scores, QueueAllocationState(queue_count),
                            rng)
    high_res: dict = {}
    for tid in ids:
        if tid in low:
            continue
        for key, r in tenants[tid].tr.reserved.items():
            high_res[key] = high_res.get(key, 0.0) + r
    gains: dict = {}
    eligible_high: list = []
    for tid in ids:
        t = tenants[tid]
        positive = [(k, r) for k, r in t.tr.reserved.items() if r > 0]
        if not positive:
            continue  # fully co-located: no network guarantee, gain undefined
        if tid in low or not state.is_dedicated(tid):
            gains[tid] = 1.0
            if tid not in low:
                eligible_high.append(tid)
            continue
        gains[tid] = min(
            1.0 + (topo.links[k].capacity - high_res[k]) / high_res[k]
            for k, _ in positive)
        eligible_high.append(tid)
    link_util: dict = {k: 0.0 for k in topo.links}
    static_util: dict = {k: 0.0 for k in topo.links}
    for tid in ids:
        if tid in low:
            continue
        g = gains.get(tid, 1.0)
        for key, r in tenants[tid].tr.reserved.items():
            cap = topo.links[key].capacity
            link_util[key] += r * g / cap
            static_util[key] += r / cap
    mean_gain = (float(np.mean([gains[t] for t in eligible_high]))
                 if eligible_high else 1.0)
    return GainReport(r_in, gains, mean_gain, len(eligible_high),
                      link_util, static_util)
