"""Independent oracle implementations the production code is checked against.

These deliberately re-derive semantics with different algorithms and data
structures: exhaustive enumeration for VM allocation, scalar loops for the
allocation DP's star and min-plus kernels, a per-skeleton loop for the
tenant election, clip-loop redistribution plus
Jacobi iteration for the WFQ fixed point, all-flow scans for FIFO scaling,
an endhost policy and link checks that re-derive everything on every call,
all-flow scans for the links a flow crosses, demand that derives every
peer list and route per request, progressive filling over
per-tenant virtual links for static reservation, per-flow, per-hop sample
accounting, a direct transcription of the
queue-allocation pass, the copying queue-allocation pass that draws one
tie-break number per tenant, and a fill that embeds every request.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from qshare import baselines as BL
from qshare import binding as BD
from qshare import largescale as L
from qshare import placement as P
from qshare.tenants import Tenant, TenantRouting, cut_reservation
from qshare.topology import link_key, trs_at_layer


# -- minimum-reservation allocation by enumeration ---------------------------

def exhaustive_min_cb(topo, skel, request):
    """Minimum total cut-rule reservation over every feasible VM allocation,
    or None when none is feasible."""
    hyps = skel.leaves
    ha = request.per_hypervisor_cap
    caps = [min(topo.nodes[h].vm_slots_free, ha) for h in hyps]
    best = None
    for combo in itertools.product(*(range(c + 1) for c in caps)):
        if sum(combo) != request.vm_count:
            continue
        placement = dict(zip(hyps, combo))
        total = _placement_cost(topo, skel, request, placement)
        if total is not None and (best is None or total < best):
            best = total
    return best


def _placement_cost(topo, skel, request, placement):
    total = 0.0
    for u in skel.order:
        parent = skel.parent[u]
        if parent is None:
            continue
        below = 0
        stack = [u]
        while stack:
            x = stack.pop()
            if topo.nodes[x].is_hypervisor():
                below += placement.get(x, 0)
            stack.extend(skel.children[x])
        need = cut_reservation(request, below)
        link = topo.link(u, parent)
        if need > link.residual + 1e-9:
            return None
        total += need
    return total


# -- allocation DP profiles by scalar loops ----------------------------------
#
# The same float operations as the production kernels, one value at a time:
# a profile F[j] is the least internal reservation for j VMs in a subtree,
# and the records say which choice reached it (the first in loop order wins
# a tie).

def star_profile_reference(n, b, ha, free, residuals):
    """A switch whose children are hypervisors with `free` slots behind links
    with `residuals`: (F, best_h, best_m, cap_low, ops). For j VMs the cost is
    B*(j - m + min(m, N - m)) with m VMs on a designated hypervisor, taking
    the largest admissible m and trying each hypervisor in order."""
    h = len(free)
    upper = [max(min(f, ha, n), 0) for f in free]
    a = [min(math.floor(r / b + 1e-9) if b > 0 else n, n) for r in residuals]
    gap = [2 * ai < n for ai in a]
    cap_low = [min(u, ai) if g else u for u, ai, g in zip(upper, a, gap)]
    rest = [sum(cap_low) - c for c in cap_low]
    F = [math.inf] * (n + 1)
    best_h = [-1] * (n + 1)
    best_m = [0] * (n + 1)
    for i in range(h):
        for j in range(n + 1):
            m = min(upper[i], j)
            if gap[i] and m < n - a[i]:
                m = min(m, a[i])
            if j - m > rest[i]:
                continue
            cost = b * (j - m + min(m, n - m))
            if cost < F[j]:
                F[j], best_h[j], best_m[j] = cost, i, m
    return np.array(F), best_h, best_m, cap_low, h * (n + 1)


def minplus_reference(G, H):
    """out[t] = min over finite H[j], j <= t, of G[t - j] + H[j], with the
    smallest such j as arg (0 where out is inf); ops = len(G)."""
    n = len(G)
    out = [math.inf] * n
    arg = [0] * n
    for j in range(n):
        if not math.isfinite(H[j]):
            continue
        for t in range(j, n):
            cand = G[t - j] + H[j]
            if cand < out[t]:
                out[t], arg[t] = cand, j
    return np.array(out), arg, n


def _edge_cost_reference(n, b, residual):
    limit = residual + 1e-9 * max(residual, 1.0)
    costs = [b * float(min(j, n - j)) for j in range(n + 1)]
    return np.array([c if c <= limit else math.inf for c in costs])


def profiles_reference(topo, skel, request, cache):
    """The allocation DP's profile of every node under `skel.root` into
    `cache` (node -> (F, record)), skipping nodes already there as one embed
    does; returns the ops the new nodes cost. A hypervisor records
    ("leaf",), a switch whose skeleton children are all hypervisors
    ("star", children, best_h, best_m, cap_low), any other switch
    ("merge", children, args)."""
    n, b = request.vm_count, request.per_vm_guarantee
    ha = request.per_hypervisor_cap

    def visit(node):
        if node in cache:
            return 0
        children = skel.children[node]
        if topo.nodes[node].is_hypervisor():
            cap = max(min(topo.nodes[node].vm_slots_free, ha, n), 0)
            cache[node] = (np.array([0.0 if j <= cap else math.inf
                                     for j in range(n + 1)]), ("leaf",))
            return 0
        if children and all(topo.nodes[c].is_hypervisor() for c in children):
            F, best_h, best_m, cap_low, ops = star_profile_reference(
                n, b, ha, [topo.nodes[c].vm_slots_free for c in children],
                [topo.link(node, c).residual for c in children])
            cache[node] = (F, ("star", list(children), best_h, best_m, cap_low))
            return ops
        ops = 0
        G = np.array([0.0] + [math.inf] * n)
        args = []
        for c in children:
            ops += visit(c)
            H = cache[c][0] + _edge_cost_reference(
                n, b, topo.link(node, c).residual)
            G, arg, step = minplus_reference(G, H)
            ops += step
            args.append(arg)
        cache[node] = (G, ("merge", list(children), args))
        return ops

    return visit(skel.root)


# -- tenant election one skeleton at a time ---------------------------------

def embed_reference(topo, request, policy, tenant_id):
    """`placement.embed` as a loop over skeletons: `evaluate_tr` screens,
    evaluates and builds every routing tree of a layer, the first layer with
    a feasible one commits the least (cost, root). Returns the outcome and
    how many other candidates had the winner's cost, so that its root won."""
    ctx = P._EpisodeContext(topo, request)
    w_b, w_q = policy.weights(topo.load())
    qc = topo.max_queue_count
    denom_b = request.per_vm_guarantee * request.vm_count
    candidates = 0
    for layer in range(1, topo.layer_count + 1):
        best, costs = None, []
        for skel in trs_at_layer(topo, layer):
            ev = P.evaluate_tr(topo, skel, request, ctx)
            if not ev.feasible:
                continue
            candidates += 1
            chat_b = ev.c_b / denom_b if denom_b > 0 else 0.0
            cost = (w_b * chat_b + w_q * (ev.c_q / qc), ev.root)
            costs.append(cost[0])
            if best is None or cost < best[0]:
                best = (cost, ev)
        if best is None:
            continue
        (won, _), ev = best
        P._commit(topo, request, tenant_id, ev)
        tenant = Tenant(tenant_id, request,
                        TenantRouting(ev.root, ev.layer, ev.pruned_links,
                                      dict(ev.reserved), dict(ev.parent),
                                      cost_b=ev.c_b, cost_q=ev.c_q),
                        dict(ev.placement))
        return (P.PlacementOutcome(True, tenant, ev.layer, candidates, ctx.ops),
                costs.count(won) - 1)
    return P.PlacementOutcome(False, None, 0, candidates, ctx.ops), 0


# -- WFQ fixed point by clip-loop redistribution + Jacobi --------------------

def clip_split(total, entries):
    """Weighted fair split with caps via repeated proportional distribution
    and clipping; entries is a list of (weight, cap)."""
    n = len(entries)
    alloc = [0.0] * n
    active = [i for i in range(n) if entries[i][1] > 0]
    remaining = total
    for _ in range(n + 2):
        if remaining <= 1e-15 or not active:
            break
        wsum = sum(entries[i][0] for i in active)
        if wsum <= 0:
            break
        next_active = []
        handed = 0.0
        for i in active:
            give = remaining * entries[i][0] / wsum
            room = entries[i][1] - alloc[i]
            take = min(give, room)
            alloc[i] += take
            handed += take
            if alloc[i] < entries[i][1] - 1e-12:
                next_active.append(i)
        remaining -= handed
        if handed <= 1e-15:
            break
        active = next_active
    return alloc


class WfqOracle:
    """Reference hierarchical WFQ max-min solver for small networks.

    net: {dkey: capacity}; queue config per undirected structure is passed
    explicitly: owners(tenant set per dkey), reservations per dkey, weights
    per dkey (queue id -> weight).
    """

    def __init__(self, capacities, owners, reservations, weights):
        self.capacities = capacities
        self.owners = owners
        self.reservations = reservations
        self.weights = weights

    def queue_of(self, dkey, tenant):
        return ("dedicated", tenant) if tenant in self.owners.get(dkey, ()) \
            else ("shared",)

    def lifted_share(self, dkey, flows, rates, target):
        """target's share at dkey when it alone is greedy (shared tenants stay
        capped at their reservation)."""
        cap = self.capacities[dkey]
        members = [f for f in flows if dkey in f.route]
        queues: dict = {}
        for f in members:
            queues.setdefault(self.queue_of(dkey, f.tenant), []).append(f)
        qids = sorted(queues)
        entries = []
        res = self.reservations.get(dkey, {})
        for qid in qids:
            qflows = queues[qid]
            weight = max(self.weights.get(dkey, {}).get(qid, 0.0), 1e-12)
            if qid[0] == "dedicated":
                demand = sum(min(rates.get(f.fid, cap), cap) for f in qflows)
                if any(f.fid == target.fid for f in qflows):
                    demand = cap
            else:
                demand = 0.0
                per_tenant: dict = {}
                for f in qflows:
                    per_tenant.setdefault(f.tenant, []).append(f)
                for t, fl in per_tenant.items():
                    d = sum(min(rates.get(f.fid, cap), cap) for f in fl)
                    if any(f.fid == target.fid for f in fl):
                        d = cap
                    demand += min(d, res.get(t, 0.0))
            entries.append((weight, demand))
        qshares = clip_split(cap, entries)
        qid = self.queue_of(dkey, target.tenant)
        share = qshares[qids.index(qid)]
        qflows = queues[qid]
        if qid[0] == "dedicated":
            inner = []
            for f in qflows:
                c = cap if f.fid == target.fid else min(rates.get(f.fid, cap), cap)
                inner.append((1.0, c))
            fills = clip_split(share, inner)
            return fills[[f.fid for f in qflows].index(target.fid)]
        per_tenant: dict = {}
        for f in qflows:
            per_tenant.setdefault(f.tenant, []).append(f)
        tlist = sorted(per_tenant)
        tentries = []
        for t in tlist:
            g = res.get(t, 0.0)
            d = sum(min(rates.get(f.fid, cap), cap) for f in per_tenant[t])
            if t == target.tenant:
                d = cap
            tentries.append((max(g, 1e-12), min(d, g)))
        tshares = clip_split(share, tentries)
        tshare = tshares[tlist.index(target.tenant)]
        mine = per_tenant[target.tenant]
        inner = []
        for f in mine:
            c = cap if f.fid == target.fid else min(rates.get(f.fid, cap), cap)
            inner.append((1.0, c))
        fills = clip_split(tshare, inner)
        return fills[[f.fid for f in mine].index(target.fid)]

    def solve(self, flows, sweeps=400, tol=1e-11):
        rates = {f.fid: max(self.capacities.values()) for f in flows}
        for _ in range(sweeps):
            new = {}
            for f in flows:
                new[f.fid] = min(self.lifted_share(dk, flows, rates, f)
                                 for dk in f.route)
            delta = max(abs(new[k] - rates[k]) for k in new)
            rates = new
            if delta < tol:
                break
        return rates


# -- FIFO scaling and sample accounting by scanning every flow ----------------
#
# The same float operations as the production code, in the same order, but
# found by scanning all flows per link and integrating each flow per hop.

# -- per-link WFQ kernel, as first written ------------------------------------
#
# The rate solver's per-link kernel before it read precomputed plan lists,
# kept unchanged as the referee of fluid._link_levels: the two must agree
# bit for bit. A plan here is (capacity, fsum of queue weights, queues),
# queues in qid order as (weight, fsum of tenant weights, groups) and a
# group as (cap, weight, flows) with cap None in a dedicated queue; only
# len(flows) is read.

def _water_fill(total: float, caps: list) -> list:
    """Equal-share max-min of `total` among entries capped at caps[i]."""
    n = len(caps)
    out = [0.0] * n
    remaining = total
    order = sorted(range(n), key=lambda i: caps[i])
    active = n
    for idx, i in enumerate(order):
        if remaining <= 0:
            break
        share = remaining / active
        give = min(caps[i], share)
        out[i] = give
        remaining -= give
        active -= 1
    return out


def _weighted_fill(total: float, weights: list, caps: list) -> list:
    """Weighted max-min of `total` with per-entry caps; surplus from capped
    entries is redistributed in proportion to the remaining weights."""
    n = len(weights)
    out = [0.0] * n
    remaining = total
    wsum = math.fsum(weights)
    order = sorted(range(n), key=lambda i: (caps[i] / weights[i]) if weights[i] > 0 else 0.0)
    for i in order:
        if wsum <= 0 or remaining <= 0:
            break
        give = min(caps[i], remaining * weights[i] / wsum)
        out[i] = give
        remaining -= give
        wsum -= weights[i]
    return out


def _lift_levels(total: float, caps: list) -> list:
    """Equal-weight water level of every entry when it alone is greedy:
    out[i] is the max-min share of `total` for entry i while every other
    entry keeps its cap. A binary search over the other caps, sorted, finds
    how many of them saturate below the level."""
    n = len(caps)
    if n == 1:
        return [max(total, 0.0)]
    order = sorted(range(n), key=caps.__getitem__)
    S = [caps[i] for i in order]
    P = list(itertools.accumulate(S, initial=0.0))
    out = [0.0] * n
    for rank, idx in enumerate(order):
        # with entry `rank` left out, the k smallest others sum to P[k] for
        # k <= rank and to P[k + 1] - S[rank] above; the k-th is S[k] or S[k + 1]
        s_r = S[rank]
        lo, hi = 0, n - 1  # number of saturated others
        while lo < hi:
            mid = (lo + hi) // 2
            if mid < rank:
                sat, nxt = P[mid], S[mid]
            else:
                sat = P[mid] if mid == rank else P[mid + 1] - s_r
                nxt = S[mid + 1]
            if nxt < (total - sat) / (n - mid) - 1e-15:
                lo = mid + 1
            else:
                hi = mid
        sat = P[lo] if lo <= rank else P[lo + 1] - s_r
        level = (total - sat) / (n - lo)
        out[idx] = 0.0 if level < 0.0 else level  # max(level, 0.0)
    return out


def _by_key(weights: list, caps: list) -> list:
    """(cap/weight, weight, cap, index) per entry, stably sorted by cap/weight:
    the order _weighted_fill visits them in."""
    return sorted(((c / w, w, c, j) for j, (w, c) in enumerate(zip(weights, caps))),
                  key=operator.itemgetter(0))


def _lifted_share(total: float, w0: float, c0: float, wsum: float,
                  others: list, skip: int) -> float:
    """out[0] of _weighted_fill(total, [w0] + ws, [c0] + cs), the others being
    the entries of `others` (from _by_key) except index `skip`; `wsum` is the
    math.fsum of every weight, w0's included, and all weights are positive.

    The stable sort puts entry 0 before every other of equal key, so the fill
    reaches it at the first other whose key is not below c0 / w0 and stops."""
    k0 = c0 / w0
    rem = total
    for key, w, c, j in others:
        if j == skip:
            continue
        if key >= k0:
            break
        if wsum <= 0 or rem <= 0:
            return 0.0
        give = rem * w / wsum
        rem -= give if give < c else c
        wsum -= w
    if wsum <= 0 or rem <= 0:
        return 0.0
    give = rem * w0 / wsum
    return give if give < c0 else c0


def _wfq_shares(C: float, qwsum: float, queues: list, caps: list,
                lift: bool) -> list:
    """Share of every flow group of one link's plan (see above) under WFQ,
    the groups demanding `caps`. With `lift`, a group's share is its lifted
    share: the dedicated queue's when the queue alone is greedy,
    a shared tenant's when its demand alone is lifted to its reservation.
    Otherwise it is the weighted max-min split of C over the queues and of
    the shared queue's share over its tenants."""
    tdems = [[math.fsum(c) if g is None else min(math.fsum(c), g)
              for (g, _, _), c in zip(groups, gcaps)]
             for (_, _, groups), gcaps in zip(queues, caps)]
    qdems = [math.fsum(td) for td in tdems]
    if not lift:
        qshares = _weighted_fill(C, [q[0] for q in queues], qdems)
        return [[qs] if groups[0][0] is None
                else _weighted_fill(qs, [w for _, w, _ in groups], td)
                for (_, _, groups), qs, td in zip(queues, qshares, tdems)]
    qsorted = _by_key([q[0] for q in queues], qdems)
    shares = []
    for qi, (w_q, twsum, groups) in enumerate(queues):
        if groups[0][0] is None:
            # a greedy member makes the whole queue greedy
            shares.append([_lifted_share(C, w_q, C, qwsum, qsorted, qi)])
            continue
        # lifting one flow lifts its tenant's demand to the cap
        td = tdems[qi]
        tsorted = _by_key([w for _, w, _ in groups], td)
        shares.append([
            _lifted_share(
                _lifted_share(C, w_q, qdems[qi] - d + g, qwsum, qsorted, qi),
                w, g, twsum, tsorted, ti)
            for ti, ((g, w, _), d) in enumerate(zip(groups, td))])
    return shares


def link_levels_reference(mode: str, C: float, qwsum: float, queues: list,
                          capped: tuple, lift: bool) -> tuple:
    """One link's kernel: the level of every position of its plan, in
    plan order, its flows demanding `capped`. Shared and static tenants
    stay capped at their per-link reservation (a policy cap, never
    lifted)."""
    caps, at = [], 0
    for _, _, groups in queues:
        gcaps = []
        for _, _, pos in groups:
            gcaps.append(capped[at:at + len(pos)])
            at += len(pos)
        caps.append(gcaps)
    if mode == "static":
        shares = [[g for g, _, _ in groups] for _, _, groups in queues]
    else:
        shares = _wfq_shares(C, qwsum, queues, caps, lift)
    out = []
    for (_, _, groups), gcaps, gshares in zip(queues, caps, shares):
        for (g, _, _), c, share in zip(groups, gcaps, gshares):
            if not lift:
                out += _water_fill(share, c)
            elif g is None:
                out += _lift_levels(share, c)
            else:
                out += [g if g < lvl else lvl
                        for lvl in _lift_levels(share, c)]
    return tuple(out)


def link_plan_reference(view, static: bool, by_tenant: dict,
                        slot: dict) -> dict:
    """Every field of a fluid._LinkPlan the kernel and the sweeps read, built
    from scratch from one link's flows by tenant and fid, as the rate solver
    first planned each link: a dedicated queue per owning tenant in tenant
    order, then the shared (or static) queue with one group per other
    tenant in tenant order; per queue its weight, its tenant weight sum and
    its groups as (cap, weight, flow count), a dedicated group's cap being
    None. `view` is the link's LinkQueueView and `slot` each flow's solver
    slot by fid."""
    res, qweights = view.reservations, view.qweights
    queues, shared, fids = [], [], []
    for t in sorted(by_tenant):
        if static or t not in view.owners:
            shared.append(t)
            continue
        queues.append((max(qweights.get(("dedicated", t), 0.0), 1e-12),
                       [(None, max(res.get(t, 0.0), 1e-12),
                         len(by_tenant[t]))]))
        fids += by_tenant[t]
    if shared:
        groups = []
        for t in shared:
            g = res.get(t, 0.0)
            groups.append((g, max(g, 1e-12), len(by_tenant[t])))
            fids += by_tenant[t]
        qid = ("static",) if static else ("shared",)
        queues.append((max(qweights.get(qid, 0.0), 1e-12), groups))
    C = view.capacity
    qw = [w_q for w_q, _ in queues]
    qwsum = math.fsum(qw)
    plan = {"C": C, "static": static, "ded": [], "groups": [],
            "qweights": qw, "qwsum": qwsum, "tweights": [], "twsum": 0.0,
            "spans": [], "fids": fids,
            "positions": [slot[fid] for fid in fids]}
    numbers, at = [], 0
    for w_q, groups in queues:
        twsum = math.fsum(w for _, w, _ in groups)
        numbers += (w_q, twsum, len(groups))
        for g, w, n in groups:
            numbers += (g, w, n)
            if g is None:
                plan["ded"].append((w_q, w))
            else:
                plan["groups"].append((g, w))
                plan["tweights"].append(w)
            plan["spans"].append((at, n))
            at += n
        if groups[0][0] is not None:
            plan["twsum"] = twsum
    plan["K"] = ((C * qw[0] / qwsum if C > 0 else 0.0)
                 if len(queues) == 1 and not plan["ded"] else None)
    plan["sig"] = (C, qwsum, *numbers)
    return plan


def fifo_scale_reference(flows, capacities, max_rounds=50,
                         goodput_exponent=1.0):
    """baselines.fifo_scale with a scan of every flow per link and round;
    returns whether no link is left over capacity."""
    def load_on(dkey):
        return sum(f.rate for f in flows if dkey in f.route)

    if goodput_exponent > 1.0:
        for dkey, cap in capacities.items():
            load = load_on(dkey)
            if load > cap * (1 + 1e-9):
                shrink = (cap / load) ** goodput_exponent
                for f in flows:
                    if dkey in f.route:
                        f.rate *= shrink
    def worst_link():
        worst = None
        for dkey, cap in capacities.items():
            total = load_on(dkey)
            if total > cap * (1 + 1e-9):
                over = total / cap
                if worst is None or over > worst[1]:
                    worst = (dkey, over)
        return worst

    for _ in range(max_rounds):
        worst = worst_link()
        if worst is None:
            return True
        dkey, over = worst
        for f in flows:
            if dkey in f.route:
                f.rate /= over
    return worst_link() is None


def congested_reference(flows, capacities, threshold, tol=1e-9):
    """Links whose offered load, scanned over every flow, exceeds
    capacity * threshold + tol."""
    return {dkey for dkey, cap in capacities.items()
            if sum(f.rate for f in flows if dkey in f.route)
            > cap * threshold + tol}


class EndhostReference(BL.EndhostRatePolicy):
    """baselines.EndhostRatePolicy re-deriving everything on every call:
    `compute` re-reads every flow's limiter and re-sums every link's offered
    load, and `on_quantum` rebuilds the beliefs, prunes the idle limiters
    and re-derives every active pair's guarantee. FIFO scaling is the
    scanning `fifo_scale_reference`."""

    def compute(self, sim, flows: list, t: float) -> None:
        routed = []
        offered: dict = {}  # per directed link, summed in flow order
        for f in flows:
            if not f.route:
                f.rate = 100_000.0
                continue
            key = (f.tenant, f.src_vm, f.dst_vm)
            if key not in self.limiters:
                self.limiters[key] = self._pair_guarantee(f)
                self.holds[key] = 0
            f.rate = self.limiters[key]
            routed.append(f)
            for dkey in f.route:
                offered[dkey] = offered.get(dkey, 0.0) + f.rate
        caps = {dkey: self.capacities[dkey] for dkey in offered}
        # congestion observed on offered load, before FIFO scaling
        threshold = 1.0 - (self.cfg.headroom
                           if self.cfg.mode == "conservative" else 0.0)
        self.congested_links = {dkey for dkey, load in offered.items()
                                if load > caps[dkey] * threshold + 1e-9}
        if not fifo_scale_reference(
                routed, caps,
                goodput_exponent=self.cfg.overload_goodput_exponent):
            self.fifo_stops += 1

    def on_quantum(self, sim, t: float) -> None:
        flows = [f for f in sim.flows.values() if f.route]
        active_pairs = {(f.tenant, f.src_vm, f.dst_vm): f for f in flows}
        # update beliefs from this quantum's active set
        beliefs = {tid: {} for tid in self.tenants}
        for (tid, src, dst), f in active_pairs.items():
            beliefs[tid].setdefault(("src", src), set()).add(dst)
            beliefs[tid].setdefault(("dst", dst), set()).add(src)
        self.beliefs = beliefs
        # an idle pair's limiter is dropped
        for key in [k for k in self.limiters if k not in active_pairs]:
            del self.limiters[key]
            self.holds.pop(key, None)
        for key, f in sorted(active_pairs.items()):
            g = self._pair_guarantee(f)
            congested = not self.congested_links.isdisjoint(f.route)
            rate, hold = BL.ra_update(self.limiters.get(key, g), g, congested,
                                      self.holds.get(key, 0), self.cfg)
            self.limiters[key] = rate
            self.holds[key] = hold


def bucketize_reference(bucket, t0, t1, rate_mbps, sample):
    """Integrate one rate over [t0, t1) into fixed-width sample buckets
    (bytes), one bucket at a time."""
    i = math.floor(t0 / sample + 1e-12)
    while True:
        edge = (i + 1) * sample
        hi = min(edge, t1)
        lo = max(i * sample, t0)
        if hi > lo:
            bucket[i] = bucket.get(i, 0.0) + rate_mbps * 125_000.0 * (hi - lo)
        if edge >= t1 - 1e-15:
            break
        i += 1


def advance_reference(sim, t0, t1, usage, buckets, ten_bytes):
    """FluidSimulation._advance integrating every flow on every hop of its
    route into that link's buckets, and on the monitored link into its
    tenant's; returns the flows crossing the monitor and the completed
    flows, each found by a scan of every flow."""
    dt = t1 - t0
    for f in sim.flows.values() if dt > 0 else ():
        moved = f.rate * 125_000.0 * dt
        f.remaining = max(f.remaining - moved, 0.0)
        u = usage.setdefault(f.tenant, {})
        u.setdefault(f.src_hyp, [0.0, 0.0])[1] += moved
        u.setdefault(f.dst_hyp, [0.0, 0.0])[0] += moved
        for dkey in f.route:
            bucketize_reference(buckets.setdefault(dkey, {}), t0, t1, f.rate,
                                sim.sample)
        if sim.monitor in f.route:
            bucketize_reference(ten_bytes.setdefault(f.tenant, {}), t0, t1,
                                f.rate, sim.sample)
    flows = list(sim.flows.values())
    return ([f for f in flows if sim.monitor in f.route],
            [f for f in flows if f.rate > 0 and f.remaining <= 1e-6])


def observe_reference(stats, t0, t1, flows, owners, all_unsaturated):
    """SegmentStats.observe re-deriving each segment from `flows`: the flows
    crossing the link, each crossing tenant's rate there and, for every
    one of them, its entitlement, the summed rate on the link of its flows
    under static reservation by progressive filling
    (static_maxmin_reference)."""
    dt = t1 - t0
    if dt <= 0:
        return
    stats.time_total += dt
    per_tenant: dict = {}
    total = 0.0
    for f in flows:
        if stats.dkey in f.route:
            per_tenant[f.tenant] = per_tenant.get(f.tenant, 0.0) + f.rate
            total += f.rate
    if not per_tenant:
        return
    stats.time_active += dt
    if total >= stats.link.capacity * (1 - 1e-6):
        stats.busy_time += dt
    else:
        stats.below_full_time += dt
        for f in flows:
            if stats.dkey in f.route and f.tenant in owners:
                if all_unsaturated(f):
                    stats.conservation_violation_time += dt
                    break
    short = False
    for tenant, rate in per_tenant.items():
        mine = [f for f in flows if f.tenant == tenant]
        static = static_maxmin_reference(stats.topo, mine)
        entitled = math.fsum(static[f.fid] for f in mine
                             if stats.dkey in f.route)
        if rate < entitled * (1.0 - 1e-6):
            stats.below_static_tenant_time += dt
            stats.below_static_tenants.add(tenant)
            short = True
    if short:
        stats.below_static_time += dt


def static_maxmin_reference(topo, flows) -> dict:
    """fid -> rate of every routed flow under static reservation: max-min
    fairness over virtual links, one per (directed link, tenant) that a
    flow crosses, its capacity the tenant's reservation on the link (0
    without one), by progressive filling (Bertsekas & Gallager, Data
    Networks, section 6.5). Every unfrozen flow's rate rises together; when
    a virtual link fills, its unfrozen flows freeze at the level reached."""
    capacity, members = {}, {}
    for f in flows:
        for dkey in f.route:
            virtual = (dkey, f.tenant)
            capacity[virtual] = topo.links[link_key(*dkey)].reservations.get(
                f.tenant, 0.0)
            members.setdefault(virtual, []).append(f.fid)
    rates = {f.fid: 0.0 for f in flows if f.route}
    frozen: set = set()
    while len(frozen) < len(rates):
        # the level at which each virtual link with an unfrozen flow fills
        fills = {}
        for virtual, fids in members.items():
            free = [fid for fid in fids if fid not in frozen]
            if free:
                used = math.fsum(rates[fid] for fid in fids if fid in frozen)
                fills[virtual] = max(capacity[virtual] - used, 0.0) / len(free)
        level = min(fills.values())
        for virtual, fill in fills.items():
            if fill == level:
                for fid in members[virtual]:
                    if fid not in frozen:
                        rates[fid] = level
                        frozen.add(fid)
    return rates


def next_flow_reference(gen, sim, idx: int, now: float):
    """fluid.DemandGenerator.next_flow as first written: the client's peers
    and the flow's route (fluid.tenant_route) derived anew on every
    request, from the generator's own streams and cursors."""
    from qshare.fluid import Flow, sample_flow_size, tenant_route
    c = gen.clients[idx]
    if now >= c.stop:
        return None
    tenant = sim.tenants[c.tenant]
    vms = sim.vm_map[c.tenant]
    if c.peer_vms is not None:
        peers = [v for v in c.peer_vms if v != c.vm]
    else:
        peers = [v for v in range(len(vms)) if v != c.vm]
    if not peers:
        return None
    rng = gen._rngs[idx]
    mode = c.mode or gen.mode
    if mode == "shuffle":
        if gen._cursor[idx] == 0:
            gen._cursor[idx] = c.vm
        src = peers[gen._cursor[idx] % len(peers)]
        gen._cursor[idx] += 1
    else:
        src = peers[int(rng.integers(0, len(peers)))]
    size = sample_flow_size(c.flow_sizes or gen.flow_sizes, rng)
    scale = c.size_scale if c.size_scale is not None else gen.size_scale
    return Flow(fid=sim.next_fid(), tenant=c.tenant, src_vm=src, dst_vm=c.vm,
                src_hyp=vms[src], dst_hyp=vms[c.vm], size=size * scale,
                start=now, route=tenant_route(tenant, vms[src], vms[c.vm]),
                client=idx)


def all_unsaturated_reference(sim, flow) -> bool:
    """FluidSimulation._all_unsaturated scanning every active flow of `sim`
    for each link of `flow`'s route."""
    for dkey in flow.route:
        total = sum(f.rate for f in sim.flows.values() if dkey in f.route)
        if total >= sim.topo.links[link_key(*dkey)].capacity * (1 - 1e-6):
            return False
    return True


# -- Monte-Carlo dormancy -----------------------------------------------------

def idealized_all_dormant_frequency(n_pairs: int, draws: int, rng) -> float:
    """Observed all-dormant frequency under the idealized equal-probability
    activity model (each pair flips a fair coin per micro-interval): the
    referee for `fluid.dormancy_probability`."""
    if n_pairs == 0:
        return 1.0
    active = rng.integers(0, 2, size=(draws, n_pairs))
    return float(np.mean(active.sum(axis=1) == 0))


# -- queue allocation pass, direct transcription ------------------------------

def alg2_reference(tr_links, scores, prev_owned, queue_count):
    """tr_links: tenant -> iterable of link keys; prev_owned: link -> set of
    tenants; returns (owners, dedicated). Scores must be distinct so the order
    is unambiguous."""
    slots = queue_count - 1
    owners = {k: set(v) for k, v in prev_owned.items()}
    links = set(owners) | {k for ls in tr_links.values() for k in ls}
    for k in links:
        owners.setdefault(k, set())

    def dedicated(t):
        return all(t in owners[k] for k in tr_links[t])

    def dequeue(t):
        for k in tr_links[t]:
            owners[k].discard(t)

    for t in sorted(scores, key=lambda x: -scores[x]):
        if dedicated(t):
            continue
        victims = {}
        ok = True
        for k in tr_links[t]:
            if t in owners[k] or len(owners[k]) < slots:
                continue
            # with one queue per link there is no owner to preempt
            weakest = min(owners[k], key=lambda x: (scores[x], x), default=None)
            if weakest is not None and scores[weakest] < scores[t]:
                victims[k] = weakest
            else:
                ok = False
                break
        if not ok:
            continue
        for v in set(victims.values()):
            dequeue(v)
        for k in tr_links[t]:
            owners[k].add(t)
    ded = {t for t in scores if dedicated(t)}
    return owners, ded


# -- queue allocation pass on a whole copy of the previous state --------------

def allocate_queues_reference(tenants, scores, prev, rng):
    """The binding pass on a whole copy of `prev`, with departed tenants
    dropped from the copy afterwards and one `rng.random()` per tenant as the
    sort key's tie-break; same contract as `binding.allocate_queues`."""
    state = BD.QueueAllocationState(prev.queue_count)
    state.owners = {k: set(v) for k, v in prev.owners.items()}
    state.dedicated = set(prev.dedicated)
    for key in list(state.owners):
        state.owners[key] = {t for t in state.owners[key] if t in tenants}
    state.dedicated &= set(tenants)
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


# -- fill to capacity, one embed per request ----------------------------------

def fill_reference(topo, spec, policy=None, *, seed=0, reject_streak=50,
                   max_attempts=100_000, r_in=0.5, intervals=20):
    """`largescale.fill_to_capacity` with an embed for every request, however
    many requests it dominates that were refused before."""
    policy = policy or P.CostPolicy.stress()
    rng = np.random.default_rng(seed)
    tenants: dict = {}
    streak = 0
    attempted = rejected = 0
    counts = dict.fromkeys(("embeds", "accepted", "candidates", "ops",
                            "merges_run", "merges_shared", "merges_skipped"), 0)
    while streak < reject_streak and attempted < max_attempts:
        req = spec.sample(rng)
        attempted += 1
        out = P.embed(topo, req, policy, tenant_id=f"t{attempted:05d}")
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
    report = L.port_statistics(topo, tenants)
    report.r_ni, report.dscp_values_used = L.interval_dedication(
        topo, tenants, r_in=r_in, intervals=intervals, seed=seed)
    return L.FillResult(tenants, attempted, rejected, report, topo, counts)


# -- dscp values by pairwise conflict-graph coloring --------------------------

def assign_dscp_reference(tenants, dedicated, scores=None):
    """Greedy conflict-graph coloring of dedicated tenants in decreasing score
    order (the smaller id first on a tie) using values 1..63. Two dedicated
    tenants conflict when their routing trees share a link. Returns
    (assignment, unassignable_count)."""
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
