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
import time
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
        # the same draw as rng.choice(self.guarantees), without building an
        # array of the guarantees on every call
        b = float(self.guarantees[rng.integers(len(self.guarantees))])
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
    # merges_run, merges_shared and merges_skipped, summed over the embeds
    # that ran, and the requests refused without one (dominated)
    placement: dict = field(default_factory=dict)
    # wall seconds of the fill's phases: the embed loop ("embed"),
    # port_statistics and interval_dedication
    phase_s: dict = field(default_factory=dict)


def port_statistics(topo: Topology, tenants: dict) -> ScarcityReport:
    """Tenants per link, and R_ND: the % of tenants none of whose
    routing-tree links carries more tenants than it has dedicated queues
    (the topology's queues per link, less the shared queue)."""
    counts = [l.tenant_count() for l in topo.links.values()]
    n = len(counts)
    under = sum(1 for c in counts if c < 9) / n * 100
    mid = sum(1 for c in counts if 9 <= c <= 12) / n * 100
    over = sum(1 for c in counts if c > 12) / n * 100
    slots = topo.max_queue_count - 1
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
    with probability 1 - r_in per interval).

    A request without `wcs` is refused without an embed when it asks for at
    least the VMs and at least the per-VM guarantee of a request without
    `wcs` refused earlier in the fill. Placement is monotone in the request:
    removing one VM from a feasible placement raises no link's cut
    reservation B*min(j, N-j), and a lower B scales every reservation down,
    while both window tests (a merge's cut against the link's residual, a
    star's floor(residual / b)) only get easier with fewer VMs or a lower B.
    So if (N, B) could be placed, every (N0 <= N, B0 <= B) could too. It is
    monotone in the topology as well: a refusal commits nothing, and an
    accept only takes VM slots and residual bandwidth, so every window test
    of every skeleton only gets harder, and a request refused once stays
    refused for the rest of the fill. `refused` is kept as its minimal
    frontier: a refusal drops the entries it dominates. A fault-domain cap
    floor((1-wcs)*N) grows with N, so a larger request with `wcs` may fit
    where a smaller one does not; those always run the embed and are never
    recorded. The draws, the
    tenant ids, `attempted` and `rejected` are those of embedding every
    request; `placement` counts `embeds + dominated == attempted`, and
    `phase_s` holds the wall seconds of each phase."""
    policy = policy or CostPolicy.stress()
    rng = np.random.default_rng(seed)
    tenants: dict = {}
    streak = 0
    attempted = rejected = 0
    counts = dict.fromkeys(("embeds", "dominated", "accepted", "candidates",
                            "ops", "merges_run", "merges_shared",
                            "merges_skipped"), 0)
    refused: list = []  # (N, B) refused, wcs unset, none dominating another
    clock = time.perf_counter
    w0 = clock()
    while streak < reject_streak and attempted < max_attempts:
        req = spec.sample(rng)
        attempted += 1
        n, b = req.vm_count, req.per_vm_guarantee
        if req.wcs is None and any(n >= n0 and b >= b0 for n0, b0 in refused):
            counts["dominated"] += 1
            rejected += 1
            streak += 1
            continue
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
            if req.wcs is None:
                refused = [(n0, b0) for n0, b0 in refused if n0 < n or b0 < b]
                refused.append((n, b))
    w1 = clock()
    report = port_statistics(topo, tenants)
    w2 = clock()
    r_ni, dscp_used = interval_dedication(
        topo, tenants, r_in=r_in, intervals=intervals, seed=seed)
    report.r_ni = r_ni
    report.dscp_values_used = dscp_used
    phase_s = {"embed": w1 - w0, "port_statistics": w2 - w1,
               "interval_dedication": clock() - w2}
    return FillResult(tenants, attempted, rejected, report, topo, counts,
                      phase_s)


def interval_dedication(topo: Topology, tenants: dict, *, r_in: float = 0.5,
                        intervals: int = 20, seed: int = 0):
    """Simulate interval-wise binding, with the topology's queues per link,
    under random per-interval activity. Returns (mean % of tenants holding
    dedicated queues per interval, max dscp value used)."""
    if not tenants:
        return 100.0, 0
    rng = np.random.default_rng([seed, 0xD5C9])
    ids = sorted(tenants)
    pays = {tid: payment_factor(tenants[tid].request) for tid in ids}
    state = QueueAllocationState(topo.max_queue_count)
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
    """`high_count` counts the eligible high-demand tenants (those the
    mean gain covers) and `undedicated` those of them that hold no
    dedicated queue and count at gain 1; `reserved` holds the links on
    which some tenant holds a reservation."""

    r_in: float
    gains: dict
    mean_gain: float
    high_count: int
    undedicated: int
    link_util: dict
    static_util: dict
    reserved: frozenset

    def util_cdf(self, static: bool = False,
                 reserved_only: bool = False) -> np.ndarray:
        """The sorted link utilizations, over the reserved links only with
        `reserved_only`."""
        src = self.static_util if static else self.link_util
        if reserved_only:
            src = {k: src[k] for k in self.reserved}
        return np.sort(np.fromiter(src.values(), dtype=float))


def throughput_gain(topo: Topology, tenants: dict, r_in: float, *,
                    seed: int = 0) -> GainReport:
    """Mark floor(r_in * tenants) tenants low-demand; compute per-tenant
    worst-link gains for high-demand tenants dedicated under the topology's
    queues per link (shared and low-demand tenants have gain 1) and the
    link utilization both for the work-conserving policy (gain spread
    proportionally to per-link reservations) and for static reservation
    (high-demand tenants use exactly their guarantees).

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
    state = allocate_queues(tenants, scores,
                            QueueAllocationState(topo.max_queue_count), rng)
    high_res: dict = {}
    for tid in ids:
        if tid in low:
            continue
        for key, r in tenants[tid].tr.reserved.items():
            high_res[key] = high_res.get(key, 0.0) + r
    gains: dict = {}
    eligible_high: list = []
    undedicated = 0
    reserved: set = set()
    for tid in ids:
        t = tenants[tid]
        positive = [(k, r) for k, r in t.tr.reserved.items() if r > 0]
        if not positive:
            continue  # fully co-located: no network guarantee, gain undefined
        reserved.update(k for k, _ in positive)
        if tid in low or not state.is_dedicated(tid):
            gains[tid] = 1.0
            if tid not in low:
                eligible_high.append(tid)
                undedicated += 1
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
                      undedicated, link_util, static_util, frozenset(reserved))
