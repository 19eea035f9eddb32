"""Dynamic tenant-queue binding: usage factors, scores, queue allocation with
opportunistic preemption, queue weight computation, and dscp assignment.

Runs once per control interval: hypervisor usage measurements roll up into a
per-tenant usage factor, scores rank tenants, and queues are (re)distributed
in decreasing score order. A tenant is dedicated only while it owns a queue on
every link of its routing tree; everyone else shares the per-link shared
queue, which always exists and is never preempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .tenants import Tenant, payment_factor


_DSCP_VALUES = (1 << 64) - 1  # bits 0..63: the 6-bit dscp field


@dataclass(frozen=True)
class TenantScore:
    tenant_id: str
    u_factor: float
    score: float
    b_star: float | None = None
    k_tilde: float | None = None


def u_factor(tenant: Tenant, usages: dict) -> tuple[float, float | None]:
    """Usage factor: min(max_j max(in_j, out_j) / B_j, 1) over hosting
    hypervisors, plus the guarantee B* at the maximizing hypervisor.

    `usages` maps hypervisor id -> (inbound_mbps, outbound_mbps); hypervisors
    without a measurement count as idle. Hypervisors hosting all of the
    tenant's VMs have B_j = 0 and are skipped; a fully co-located tenant has
    U = 0 with no B*.
    """
    best_ratio = None
    b_star = None
    n = tenant.request.vm_count
    b = tenant.request.per_vm_guarantee
    for hyp in sorted(tenant.vm_placement):
        m = tenant.vm_placement[hyp]
        bj = b * min(m, n - m)
        if bj <= 0:
            continue
        u_in, u_out = usages.get(hyp, (0.0, 0.0))
        if u_in < 0 or u_out < 0:
            raise ValueError("usage measurements must be non-negative")
        ratio = max(u_in, u_out) / bj
        if best_ratio is None or ratio > best_ratio:
            best_ratio = ratio
            b_star = bj
    if best_ratio is None:
        return 0.0, None
    return min(best_ratio, 1.0), b_star


def score(tenant: Tenant, u: float, b_star: float | None = None) -> TenantScore:
    """S = k*N*B * U, capped by the payment factor; k_tilde = kNB/B*."""
    if not (0.0 <= u <= 1.0):
        raise ValueError("usage factor must be in [0, 1]")
    pay = payment_factor(tenant.request)
    k_tilde = pay / b_star if b_star else None
    return TenantScore(tenant.id, u, pay * u, b_star, k_tilde)


class QueueAllocationState:
    """Per-link dedicated-queue ownership plus per-tenant binding state.

    owners[link] is the set of tenants holding a dedicated queue slot on that
    link (at most queue_count - 1 of them; one queue per link is always the
    shared queue). `dedicated` holds tenants that own a queue on every link of
    their routing tree.
    """

    def __init__(self, queue_count: int = 8):
        self.queue_count = queue_count
        self.owners: dict = {}
        self.dedicated: set = set()

    def dedicated_slots(self) -> int:
        return self.queue_count - 1

    def is_dedicated(self, tenant_id: str) -> bool:
        return tenant_id in self.dedicated

    def owners_on(self, key) -> set:
        return self.owners.setdefault(key, set())

    def dequeue(self, tenant: Tenant) -> None:
        for key in tenant.tr.links:
            self.owners_on(key).discard(tenant.id)
        self.dedicated.discard(tenant.id)

    def enqueue(self, tenant: Tenant) -> None:
        for key in tenant.tr.links:
            owners = self.owners_on(key)
            owners.add(tenant.id)
            if len(owners) > self.dedicated_slots():
                raise AssertionError(f"queue overflow on {key}")
        self.dedicated.add(tenant.id)


def allocate_queues(tenants: dict, scores: dict, prev: QueueAllocationState,
                    rng) -> QueueAllocationState:
    """One binding pass in decreasing score order (ties broken randomly with
    the supplied generator). Dedicated tenants keep their queues; shared
    tenants are enqueued when every routing-tree link has a spare slot, or
    opportunistically by preempting, on each full link, the strictly
    lower-scored tenant with the smallest score among that link's owners.
    Preempted tenants serve from shared queues next interval.

    The new state starts as `prev` with departed tenants filtered out of its
    owner sets and `dedicated`, in one pass; `prev` is not changed.
    The tie-break numbers are one draw of len(tenants) numbers, taken in
    `tenants` order."""
    state = QueueAllocationState(prev.queue_count)
    state.owners = {k: {t for t in v if t in tenants}
                    for k, v in prev.owners.items()}
    state.dedicated = dedicated = {t for t in prev.dedicated if t in tenants}
    owners_by_link = state.owners
    slots = prev.queue_count - 1
    draws = rng.random(len(tenants)).tolist()
    ranked = sorted(zip(tenants, draws),
                    key=lambda p: (-scores.get(p[0], 0.0), p[1]))
    for tid, _ in ranked:
        if tid in dedicated:
            continue
        tenant = tenants[tid]
        mine = scores.get(tid, 0.0)
        victims = set()
        for key in tenant.tr.links:
            owners = owners_by_link.get(key)
            if owners is None:
                owners = owners_by_link[key] = set()
            if tid in owners or len(owners) < slots:
                continue
            # a link with no dedicated queue at all has no victim either
            victim = min(owners, key=lambda t: (scores.get(t, 0.0), t),
                         default=None)
            if victim is not None and scores.get(victim, 0.0) < mine:
                victims.add(victim)
            else:
                break
        else:
            for victim in victims:
                state.dequeue(tenants[victim])
            state.enqueue(tenant)
    for tid, tenant in tenants.items():
        tenant.state = "dedicated" if tid in dedicated else "shared"
    return state


def link_queue_weights(link, owners) -> dict:
    """Per-queue weights on one link whose dedicated queues `owners` hold:
    normalized weight is the queue's share of the link's total reserved
    bandwidth; hardware weight is the normalized weight scaled to 1..15
    (round half up, clamped). Queue ids are ("dedicated", tenant_id) and
    ("shared",)."""
    owners = set(owners) & set(link.reservations)
    shared = [t for t in link.reservations if t not in owners]
    entries = {("dedicated", t): link.reservations[t] for t in sorted(owners)}
    if shared:
        entries[("shared",)] = math.fsum(link.reservations[t] for t in shared)
    if not entries:
        return {}
    total = math.fsum(entries.values())
    out = {}
    for qid, reserved in entries.items():
        norm = reserved / total if total > 0 else 1.0 / len(entries)
        hw = int(min(max(math.floor(norm * 15 + 0.5), 1), 15))
        out[qid] = (norm, hw)
    return out


def assign_dscp(tenants: dict, dedicated: set, scores: dict | None = None):
    """Greedy coloring of dedicated tenants in decreasing score order (the
    smaller id first on a tie) using values 1..63 (0 is reserved for shared
    tenants): each takes the least value that no tenant already colored on
    one of its routing-tree links holds. Each link keeps the set of values
    held on it as a bit mask (bit v for value v). Returns (assignment,
    unassignable_count); running out of values is data, not a fault."""
    scores = scores or {}
    taken: dict = {}
    assignment: dict = {}
    failed = 0
    for tid in sorted(dedicated, key=lambda t: (-scores.get(t, 0.0), t)):
        links = tenants[tid].tr.links
        used = 1  # value 0 is never given
        for key in links:
            used |= taken.get(key, 0)
        free = ~used & _DSCP_VALUES
        if not free:
            failed += 1
            continue
        bit = free & -free  # the least free value
        assignment[tid] = bit.bit_length() - 1
        for key in links:
            taken[key] = taken.get(key, 0) | bit
    return assignment, failed


@dataclass
class BindingController:
    """Interval-boundary driver: scores from measurements, queue allocation,
    dscp assignment, and per-tenant state/dscp bookkeeping (`tenant.dscp`)."""

    queue_count: int = 8
    state: QueueAllocationState = field(default=None)

    def __post_init__(self):
        if self.state is None:
            self.state = QueueAllocationState(self.queue_count)

    def run_interval(self, tenants: dict, usages: dict, rng) -> dict:
        """usages: tenant_id -> {hyp -> (in_mbps, out_mbps)}. Returns
        tenant_id -> TenantScore for the interval just ended."""
        results = {}
        for tid, tenant in tenants.items():
            u, b_star = u_factor(tenant, usages.get(tid, {}))
            results[tid] = score(tenant, u, b_star)
        self.state = allocate_queues(
            tenants, {t: s.score for t, s in results.items()}, self.state, rng)
        assignment, _failed = assign_dscp(
            tenants, self.state.dedicated,
            {t: s.score for t, s in results.items()})
        for tid, tenant in tenants.items():
            tenant.dscp = assignment.get(tid, 0)
        return results
