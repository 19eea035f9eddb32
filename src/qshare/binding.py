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
    their routing tree. dscp values live here too: 0 for shared tenants.
    """

    def __init__(self, queue_count: int = 8):
        self.queue_count = queue_count
        self.owners: dict = {}
        self.dedicated: set = set()
        self.dscp: dict = {}

    def copy(self) -> "QueueAllocationState":
        st = QueueAllocationState(self.queue_count)
        st.owners = {k: set(v) for k, v in self.owners.items()}
        st.dedicated = set(self.dedicated)
        st.dscp = dict(self.dscp)
        return st

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

    def drop_departed(self, tenants: dict) -> None:
        for key in list(self.owners):
            self.owners[key] = {t for t in self.owners[key] if t in tenants}
        self.dedicated &= set(tenants)
        self.dscp = {t: v for t, v in self.dscp.items() if t in tenants}


def allocate_queues(tenants: dict, scores: dict, prev: QueueAllocationState,
                    rng) -> QueueAllocationState:
    """One binding pass in decreasing score order (ties broken randomly with
    the supplied generator). Dedicated tenants keep their queues; shared
    tenants are enqueued when every routing-tree link has a spare slot, or
    opportunistically by preempting, on each full link, the strictly
    lower-scored tenant with the smallest score among that link's owners.
    Preempted tenants serve from shared queues next interval."""
    state = prev.copy()
    state.drop_departed(tenants)
    order = sorted(tenants, key=lambda t: (-scores.get(t, 0.0), rng.random()))
    for tid in order:
        tenant = tenants[tid]
        if state.is_dedicated(tid):
            continue
        plan = {}
        feasible = True
        for key in tenant.tr.links:
            owners = state.owners_on(key)
            if tid in owners:
                plan[key] = None
                continue
            if len(owners) < state.dedicated_slots():
                plan[key] = None
                continue
            # a link with no dedicated queue at all has no victim either
            victim = min(owners, key=lambda t: (scores.get(t, 0.0), t),
                         default=None)
            if victim is not None and scores.get(victim, 0.0) < scores.get(tid, 0.0):
                plan[key] = victim
            else:
                feasible = False
                break
        if not feasible:
            continue
        for victim in {v for v in plan.values() if v is not None}:
            state.dequeue(tenants[victim])
        state.enqueue(tenant)
    for tid, tenant in tenants.items():
        tenant.state = "dedicated" if state.is_dedicated(tid) else "shared"
    return state


def queue_weights(link_key, link, state: QueueAllocationState) -> dict:
    """Per-queue weights on one link: normalized weight is the queue's share
    of the link's total reserved bandwidth; hardware weight is the normalized
    weight scaled to 1..15 (round half up, clamped). Queue ids are
    ("dedicated", tenant_id) and ("shared",)."""
    return link_queue_weights(link, state.owners.get(link_key, set()))


def link_queue_weights(link, owners) -> dict:
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
    """Greedy conflict-graph coloring of dedicated tenants in decreasing score
    order using values 1..63 (0 is reserved for shared tenants). Returns
    (assignment, unassignable_count); running out of values is data, not a
    fault. Two dedicated tenants conflict when their routing trees share a
    link."""
    scores = scores or {}
    link_members: dict = {}
    for tid in dedicated:
        for key in tenants[tid].tr.links:
            link_members.setdefault(key, []).append(tid)
    neighbors = {tid: set() for tid in dedicated}
    for members in link_members.values():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                neighbors[a].add(b)
                neighbors[b].add(a)
    order = sorted(dedicated, key=lambda t: (-scores.get(t, 0.0), t))
    assignment: dict = {}
    failed = 0
    for tid in order:
        used = {assignment[nb] for nb in neighbors[tid] if nb in assignment}
        value = next((v for v in range(1, 64) if v not in used), None)
        if value is None:
            failed += 1
        else:
            assignment[tid] = value
    return assignment, failed


@dataclass
class BindingController:
    """Interval-boundary driver: scores from measurements, queue allocation,
    dscp assignment, and per-tenant state/dscp bookkeeping."""

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
        self.state.dscp = assignment
        for tid, tenant in tenants.items():
            tenant.dscp = assignment.get(tid, 0)
        return results
