"""Fluid (rate-based) flow-level simulator with per-link WFQ semantics.

Flows are greedy fluid streams confined to their tenant's routing tree. Rates
come from a network-wide hierarchical max-min fixed point: per directed link,
active queues split capacity in proportion to their weights with unused share
redistributed; a dedicated queue's share is divided max-min among the owning
tenant's flows; the shared queue is divided among shared tenants in proportion
to their per-link reservations, capped at each tenant's reservation.

Time advances event-driven between control-interval boundaries; at each
boundary the binding controller re-scores tenants from the interval's usage
measurements and reassigns queues.
"""

from __future__ import annotations

import bisect
import csv
import heapq
import itertools
import math
import operator
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import NamedTuple

import numpy as np

from .binding import BindingController, link_queue_weights
from .topology import Topology, link_key

BYTES_PER_MBPS_SEC = 125_000.0  # 1 Mbps moves 125 kB per second
LOOPBACK_MBPS = 100_000.0       # flows between co-located VMs
_TOL = 1e-9
_MEMO_RATES = 8192  # rates stored per generation of RateSolver's memos
_rate = operator.attrgetter("rate")
_route = operator.attrgetter("route")


class FlowChange(NamedTuple):
    """What one step of the event loop did to the active flows: the flows
    that left and the flows appended, each in fid order. Fids only grow, so
    every appended flow has a larger fid than every flow still active. The
    loop applies the record of each step that changed the flows once, right
    after the step, to the flow index it owns (a FlowIndex), and then
    pushes it to the consumers that carry flow-set state of their own: the
    per-segment checks and the rate hook through their `follow`, and the
    rate solver through the next `solve`."""

    left: list
    added: list

    def regroup(self, groups: dict, keys) -> list:
        """Apply the change to `groups`, key -> the flows of that key by fid
        (so in fid order): every flow leaves or joins the group of each key
        in keys(flow), and a group left empty is dropped. Returns the keys
        of the groups dropped or created, in that order."""
        reshaped = []
        for f in self.left:
            for key in keys(f):
                group = groups[key]
                del group[f.fid]
                if not group:
                    del groups[key]
                    reshaped.append(key)
        for f in self.added:
            for key in keys(f):
                group = groups.get(key)
                if group is None:
                    group = groups[key] = {}
                    reshaped.append(key)
                group[f.fid] = f
        return reshaped


@dataclass
class FlowIndex:
    """The active routed flows grouped by link, every group in fid order:
    `links` maps each crossed directed link to its flows by fid, and
    `tenants` maps it to each tenant with a flow there, and that to the
    tenant's flows on the link by fid.

    A FluidSimulation owns one and applies to it, once and right after the
    step, the record of each step that changed the flows (`apply`). Its
    rate solver, its per-segment checks, its event loop and its rate hook
    only read it. A RateSolver made without one keeps its own and applies
    the records its solves bring."""

    links: dict = field(default_factory=dict)
    tenants: dict = field(default_factory=dict)

    def apply(self, change: FlowChange) -> None:
        """Apply one step's record: every flow leaves or joins the groups
        of the links on its route, and a group left empty is dropped (see
        FlowChange.regroup)."""
        tenants = self.tenants
        for f in change.left:
            for dkey in f.route:
                on_link = tenants[dkey]
                del on_link[f.tenant][f.fid]
                if not on_link[f.tenant]:
                    del on_link[f.tenant]
        # a link's tenant groups go with its last flow
        for dkey in change.regroup(self.links, _route):
            if dkey not in self.links:
                del tenants[dkey]
        for f in change.added:
            for dkey in f.route:
                tenants.setdefault(dkey, {}).setdefault(f.tenant, {})[f.fid] = f


def add_counters(total: dict, groups: dict) -> None:
    """Add each group's counts in `groups` (group -> name -> count) to the
    same group of `total`."""
    for group, values in groups.items():
        sums = total.setdefault(group, {})
        for name, value in values.items():
            sums[name] = sums.get(name, 0) + value


def dormancy_probability(n_vm_pairs: int) -> float:
    """Probability that n independent VM pairs, each active with probability
    one half, are all dormant at once: 2**-n."""
    if n_vm_pairs < 0:
        raise ValueError("pair count must be non-negative")
    return 0.5 ** n_vm_pairs


# ---------------------------------------------------------------------------
# flow-size distributions
# ---------------------------------------------------------------------------

_CDF_CACHE: dict = {}


def load_workload_cdf(name: str):
    """Piecewise log-linear CDF control points shipped with the package:
    (bytes, cumulative_probability) rows, strictly increasing in both."""
    if name in _CDF_CACHE:
        return _CDF_CACHE[name]
    try:
        text = resources.files("qshare.workloads").joinpath(f"{name}.csv").read_text()
    except FileNotFoundError:
        raise KeyError(f"unknown workload distribution: {name!r}")
    rows = list(csv.DictReader(text.splitlines()))
    pts = [(float(r["bytes"]), float(r["cumulative_probability"])) for r in rows]
    for (b0, p0), (b1, p1) in zip(pts, pts[1:]):
        if b1 <= b0 or p1 <= p0:
            raise ValueError(f"workload table {name} is not strictly increasing")
    _CDF_CACHE[name] = pts
    return pts


def sample_flow_size(distribution, rng) -> float:
    """Draw a flow size in bytes. `distribution` is "enterprise",
    "datamining", or ("fixed", bytes) as a tuple or a list."""
    if not isinstance(distribution, str):
        return float(distribution[1])
    return cdf_quantile(distribution, rng.random())


def cdf_quantile(name: str, q: float) -> float:
    """Quantile of a shipped workload table (log-linear interpolation)."""
    pts = load_workload_cdf(name)
    if q <= pts[0][1]:
        return pts[0][0]
    for (b0, p0), (b1, p1) in zip(pts, pts[1:]):
        if q <= p1:
            frac = (q - p0) / (p1 - p0)
            return math.exp(math.log(b0) + frac * (math.log(b1) - math.log(b0)))
    return pts[-1][0]


# ---------------------------------------------------------------------------
# flows and rate solving
# ---------------------------------------------------------------------------

@dataclass
class Flow:
    fid: int
    tenant: str
    src_vm: int
    dst_vm: int
    src_hyp: str
    dst_hyp: str
    size: float
    start: float
    remaining: float = 0.0
    rate: float = 0.0
    route: tuple = ()
    client: int = -1

    def __post_init__(self):
        if self.remaining == 0.0:
            self.remaining = self.size


def tenant_route(tenant, src_hyp: str, dst_hyp: str) -> tuple:
    """Directed link sequence between two hosting hypervisors inside the
    tenant's routing tree (empty when co-located)."""
    if src_hyp == dst_hyp:
        return ()
    up_src = [src_hyp] + _ancestors(tenant.tr.parent, src_hyp)
    up_dst = [dst_hyp] + _ancestors(tenant.tr.parent, dst_hyp)
    on_dst = {n: i for i, n in enumerate(up_dst)}
    for i, node in enumerate(up_src):
        if node in on_dst:
            lca = i, on_dst[node]
            break
    else:
        raise ValueError("hypervisors not connected in the routing tree")
    hops = []
    for k in range(lca[0]):
        hops.append((up_src[k], up_src[k + 1]))
    for k in range(lca[1], 0, -1):
        hops.append((up_dst[k], up_dst[k - 1]))
    return tuple(hops)


def _ancestors(parent: dict, node: str) -> list:
    out = []
    u = parent.get(node)
    while u is not None:
        out.append(u)
        u = parent.get(u)
    return out


# ---------------------------------------------------------------------------
# the per-link WFQ kernel
# ---------------------------------------------------------------------------
#
# The helpers do the same IEEE operations in the same order as the direct
# transcription in tests/oracles.py (link_levels_reference); they only skip
# work whose result is known. math.fsum of one value is that value and of
# two is a + b, since both are correctly rounded; a one- or two-entry sort
# is a comparison. Demands are never negative or -0.0, and every weight is
# floored at 1e-12, so it is positive.

def _water_fill(total: float, caps) -> list:
    """Equal-share max-min of `total` among entries capped at caps[i]."""
    n = len(caps)
    out = [0.0] * n
    remaining = total
    active = n
    for i in sorted(range(n), key=caps.__getitem__):
        if remaining <= 0:
            break
        share = remaining / active
        give = min(caps[i], share)
        out[i] = give
        remaining -= give
        active -= 1
    return out


def _weighted_fill(total: float, weights: list, caps: list,
                   wsum: float) -> list:
    """Weighted max-min of `total` with per-entry caps; surplus from capped
    entries is redistributed in proportion to the remaining weights. `wsum`
    is the math.fsum of the weights, all positive."""
    n = len(weights)
    out = [0.0] * n
    remaining = total
    keys = [c / w for c, w in zip(caps, weights)]
    for i in sorted(range(n), key=keys.__getitem__):
        if wsum <= 0 or remaining <= 0:
            break
        give = min(caps[i], remaining * weights[i] / wsum)
        out[i] = give
        remaining -= give
        wsum -= weights[i]
    return out


def _lift_levels(total: float, caps) -> list:
    """Equal-weight water level of every entry when it alone is greedy:
    out[i] is the max-min share of `total` for entry i while every other
    entry keeps its cap. A binary search over the other caps, sorted, finds
    how many of them saturate below the level.

    The search for the largest rank compares only ranks below it, and so
    does the search for any rank above the highest one that search visits:
    those ranks follow the same path to the same level, which is computed
    once. Only the ranks up to that visit search on their own. The rate
    solver reads the levels of groups of 3 or more flows through its level
    memo (a _Memo), which runs this once per distinct (total, caps) and
    memo generation."""
    n = len(caps)
    if n == 1:
        return [max(total, 0.0)]
    order = sorted(range(n), key=caps.__getitem__)
    S = [caps[i] for i in order]
    P = list(itertools.accumulate(S, initial=0.0))
    # with an entry of rank above `mid` left out, the mid smallest others
    # sum to P[mid] and the next is S[mid]
    lo, hi, top = 0, n - 1, 0
    while lo < hi:
        mid = (lo + hi) // 2
        if mid > top:
            top = mid
        if S[mid] < (total - P[mid]) / (n - mid) - 1e-15:
            lo = mid + 1
        else:
            hi = mid
    level = (total - P[lo]) / (n - lo)
    out = [0.0 if level < 0.0 else level] * n  # max(level, 0.0)
    for rank in range(top + 1):
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
        out[order[rank]] = 0.0 if level < 0.0 else level
    return out


def _by_key(weights: list, caps: list) -> list:
    """(cap/weight, index, weight, cap) per entry, sorted by cap/weight and
    then by index (a stable sort by cap/weight): the order _weighted_fill
    visits them in."""
    return sorted([(c / w, j, w, c)
                   for j, (w, c) in enumerate(zip(weights, caps))])


def _lifted_share(total: float, w0: float, c0: float, wsum: float,
                  others: list, skip: int) -> float:
    """out[0] of _weighted_fill(total, [w0] + ws, [c0] + cs, wsum), the
    others being the entries of `others` (from _by_key) except index `skip`;
    `wsum` is the math.fsum of every weight, w0's included.

    The stable sort puts entry 0 before every other of equal key, so the fill
    reaches it at the first other whose key is not below c0 / w0 and stops."""
    k0 = c0 / w0
    rem = total
    for key, j, w, c in others:
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


class _Memo:
    """A memo of two generations: a key found in the previous generation is
    copied into the current one, and `rotate` drops the previous one, so it
    holds only what was looked up in the last two generations. `runs`
    counts the values made and `hits` the lookups that `get` and `miss`
    answered without making one; the link memo's lookups that its current
    generation answers bypass both, and RateSolver._count counts them.
    `stored` adds up the sizes `miss` was given for the entries it stored
    into the current generation, and `rotate` sets it to 0. No value is
    falsy, and values are shared between hits and never mutated.

    The rate solver keeps three, rotated together at the start of the
    first solve after the link memo's current generation has stored more
    than _MEMO_RATES rates: the kernel results of links, keyed by (lift,
    signature id, capped demands) (see RateSolver._sweep), each store
    sized as its capped demands plus its levels; the levels of flow groups
    of 3 or more flows, keyed by (lift, total, caps) (see _lift_into and
    _fill_into); and the signature ids of plans, keyed by signature. The
    last two store only when a kernel runs or a plan is set, so the link
    memo's budget bounds them too. No total is -0.0, which would share a
    key with 0.0: the fills return zeros for a total <= 0 before any
    lookup, and a lifted total is a _lifted_share (0.0 or a positive share
    or cap) or a reservation. No cap is -0.0 (see RateSolver._sweep)."""

    __slots__ = ("cur", "prev", "runs", "hits", "stored")

    def __init__(self):
        self.cur, self.prev = {}, {}
        self.runs = self.hits = self.stored = 0

    def rotate(self) -> None:
        self.prev, self.cur = self.cur, {}
        self.stored = 0

    def get(self, key, make, *args):
        """The value of `key`, made by make(*args) when neither generation
        holds it."""
        value = self.cur.get(key)
        if value is None:
            return self.miss(key, 0, make, *args)
        self.hits += 1
        return value

    def miss(self, key, size: int, make, *args):
        """The value of `key`, which the current generation lacks: the
        previous generation's, or else made by make(*args). It is stored
        into the current generation, adding `size` to `stored`."""
        value = self.prev.get(key)
        if value is None:
            value = make(*args)
            self.runs += 1
        else:
            self.hits += 1
        self.cur[key] = value
        self.stored += size
        return value


def _lift_into(out: list, totals: list, spans: list, capped: tuple,
               memo: _Memo) -> None:
    """Append _lift_levels(total, capped[a:a + n]) to `out` for every total
    and its group's span (a, n)."""
    for total, (a, n) in zip(totals, spans):
        if n == 1:
            out.append(0.0 if total < 0.0 else total)
        elif n == 2:
            x, y = capped[a], capped[a + 1]
            s0, s1 = (y, x) if y < x else (x, y)
            half = total / 2
            # the smaller cap's level, then the larger's: one saturated
            # other makes the level total minus that other, read off the
            # prefix sums
            low = total - ((s0 + s1) - s0) if s1 < half - 1e-15 else half
            high = total - s0 if s0 < half - 1e-15 else half
            low = 0.0 if low < 0.0 else low
            high = 0.0 if high < 0.0 else high
            out += (high, low) if y < x else (low, high)
        else:
            caps = capped[a:a + n]
            out += memo.get((True, total, caps), _lift_levels, total, caps)


def _fill_into(out: list, totals: list, spans: list, capped: tuple,
               memo: _Memo) -> None:
    """Append _water_fill(total, capped[a:a + n]) to `out` for every total
    and its group's span (a, n)."""
    for total, (a, n) in zip(totals, spans):
        if total <= 0:
            out += [0.0] * n
        elif n == 1:
            c = capped[a]
            out.append(total if total < c else c)
        elif n == 2:
            x, y = capped[a], capped[a + 1]
            half = total / 2
            if y < x:
                gy = half if half < y else y
                rem = total - gy
                gx = 0.0 if rem <= 0 else (rem if rem < x else x)
            else:
                gx = half if half < x else x
                rem = total - gx
                gy = 0.0 if rem <= 0 else (rem if rem < y else y)
            out += (gx, gy)
        else:
            caps = capped[a:a + n]
            out += memo.get((False, total, caps), _water_fill, total, caps)


def _group_shares(plan: "_LinkPlan", capped: tuple, lift: bool) -> list:
    """The share of every row of `plan` (dedicated queues first, in the
    order of plan.spans), its flows demanding `capped`: its lifted share
    with `lift`, else its part of the weighted max-min split (see
    _link_levels). A static group's share is its reservation."""
    ded, groups = plan.ded, plan.groups
    if plan.static:
        return [g for g, _ in groups]
    nd = len(ded)
    dems = [capped[a] if n == 1 else capped[a] + capped[a + 1] if n == 2
            else math.fsum(capped[a:a + n]) for a, n in plan.spans]
    if groups:
        tds = [g if g < d else d for (g, _), d in zip(groups, dems[nd:])]
        sdem = math.fsum(tds)
    if not ded:
        # the shared queue alone: its weighted share of C is plan.K
        K = plan.K
        if not lift:
            return _weighted_fill(K if K < sdem else sdem, plan.tweights, tds,
                                  plan.twsum)
        tsorted = _by_key(plan.tweights, tds)
        twsum = plan.twsum
        shares = []
        for ti, ((g, w), d) in enumerate(zip(groups, tds)):
            c0 = sdem - d + g
            shares.append(_lifted_share(K if K < c0 else c0, w, g, twsum,
                                        tsorted, ti))
        return shares
    qdems = dems[:nd]
    if groups:
        qdems.append(sdem)
    C, qwsum = plan.C, plan.qwsum
    if not lift:
        shares = _weighted_fill(C, plan.qweights, qdems, qwsum)
        if groups:
            # the shared queue's share, split over its tenants
            shares[-1:] = _weighted_fill(shares[-1], plan.tweights, tds,
                                         plan.twsum)
        return shares
    qsorted = _by_key(plan.qweights, qdems)
    # a greedy member makes the whole queue greedy
    shares = [_lifted_share(C, w_q, C, qwsum, qsorted, qi)
              for qi, (w_q, _) in enumerate(ded)]
    if groups:
        # lifting one flow lifts its tenant's demand to the cap
        w_q = plan.qweights[-1]
        tsorted = _by_key(plan.tweights, tds)
        twsum = plan.twsum
        for ti, ((g, w), d) in enumerate(zip(groups, tds)):
            share = _lifted_share(C, w_q, sdem - d + g, qwsum, qsorted, nd)
            shares.append(_lifted_share(share, w, g, twsum, tsorted, ti))
    return shares


def _link_levels(plan: "_LinkPlan", capped: tuple, lift: bool,
                 memo: _Memo | None = None) -> tuple:
    """One link's kernel: the level of every flow of `plan`, in plan order,
    its flows demanding `capped`. With `lift` a flow's level is its lifted
    grant: the max-min level of its group's lifted share (the dedicated
    queue's when the queue alone is greedy, a shared tenant's when its
    demand alone is lifted to its reservation) with the flow alone greedy.
    Otherwise it is its water-fill level of the weighted max-min split of
    the capacity over the queues and of the shared queue's share over its
    tenants. Shared and static tenants stay capped at their per-link
    reservation (a policy cap, never lifted). The levels of groups of 3 or
    more flows come from `memo` (a throwaway one when None). The result is
    shared between memo hits and never mutated."""
    out: list = []
    (_lift_into if lift else _fill_into)(
        out, _group_shares(plan, capped, lift), plan.spans, capped,
        _Memo() if memo is None else memo)
    return tuple(out)


class _LinkPlan:
    """One directed link's flows under its queue view (a LinkQueueView), as
    the kernel reads them: one row per tenant with flows on the link, its
    flows in fid order. The rows of the tenants that own a dedicated queue
    come first, each its own queue, then the rows of the shared queue, each
    kind in tenant order; static mode puts every tenant in the one static
    queue. A shared or static tenant is capped at its reservation.

    The kernel reads `spans`, (offset, count) per row; `ded`, (queue weight,
    reservation weight) per dedicated row; `groups`, (cap, weight) per
    shared or static row, both its reservation (the weight floored at
    1e-12); the weights of the queues (`qweights`, the shared or static
    queue's last) and of the groups (`tweights`), with their math.fsum
    (`qwsum`, `twsum`); and `K`, the shared queue's weighted share of the
    capacity when it is the only queue. The signature `sig` is every number
    the kernel reads, flat: the capacity, the weight sum, then per queue its
    weight, its tenant weight sum and its group count, each followed by its
    groups' cap (None in a dedicated queue), weight and flow count. `sid`
    names the signature in the solver's memo. `positions` lists the flows'
    solver slots in plan order, and `gather` reads their entries of a
    per-slot list as a tuple. `first` holds the levels of the first lift
    sweep once a sweep has read them: that sweep starts from infinite
    rates, so every flow demands the capacity, and its levels depend on the
    plan's numbers alone.

    A plan follows its link's flows row by row (`set`), at a cost in
    proportion to the rows that changed: a tenant's new flows replace its
    row's slots, shift the offsets of the rows after it, and change its
    count in the signature. Only a tenant that joins or leaves the link
    adds or drops a row, and then `derive` re-derives the weights and the
    signature. A link's first plan is the empty plan that each of its
    tenants joins."""

    __slots__ = ("view", "C", "static", "wshared", "tenants", "ded",
                 "groups", "qweights", "qwsum", "tweights", "twsum", "K",
                 "spans", "sig", "sid", "positions", "gather", "first")

    def __init__(self, view: "LinkQueueView", static: bool):
        self.view, self.static = view, static
        self.C = view.capacity
        qid = ("static",) if static else ("shared",)
        self.wshared = max(view.qweights.get(qid, 0.0), 1e-12)
        self.tenants, self.ded, self.groups, self.spans = [], [], [], []
        self.positions = []
        self.sig = self.first = None
        self.sid = 0

    def set(self, tenant: str, flows, slot: dict) -> None:
        """Give `tenant`'s row the flows `flows` (their fids in fid order;
        none once it has left the link), each at its slot in `slot`. A
        tenant new to the plan joins with its queue and reservation under
        the view. A tenant that joins or leaves clears `sig` until
        `derive`."""
        tenants, spans = self.tenants, self.spans
        nd = len(self.ded)
        if tenant in tenants:
            r = tenants.index(tenant)
            a, n = spans[r]
        else:
            view = self.view
            res = view.reservations.get(tenant, 0.0)
            if not self.static and tenant in view.owners:
                r = bisect.bisect(tenants, tenant, 0, nd)
                self.ded.insert(r, (max(view.qweights.get(
                    ("dedicated", tenant), 0.0), 1e-12), max(res, 1e-12)))
                nd += 1
            else:
                r = bisect.bisect(tenants, tenant, nd)
                self.groups.insert(r - nd, (res, max(res, 1e-12)))
            a, n = spans[r][0] if r < len(spans) else len(self.positions), 0
            tenants.insert(r, tenant)
            spans.insert(r, (a, 0))
            self.sig = None
        m = len(flows)
        self.positions[a:a + n] = map(slot.__getitem__, flows)
        if m == n:
            return
        shift = m - n
        for i in range(r + 1, len(spans)):
            b, k = spans[i]
            spans[i] = (b + shift, k)
        if not m:
            del tenants[r], spans[r]
            if r < nd:
                del self.ded[r]
            else:
                del self.groups[r - nd]
            self.sig = None
            return
        spans[r] = (a, m)
        if self.sig is not None:
            # the row's count: six numbers per dedicated queue and three
            # per shared group follow the capacity and the weight sum, and
            # the shared queue's own three precede its groups
            sig = list(self.sig)
            sig[6 * r + 7 if r < nd else 3 * (r + nd) + 7] = m
            self.sig = tuple(sig)

    def derive(self) -> None:
        """Re-derive the weights, their sums, K and the signature from the
        rows."""
        ded, groups, C = self.ded, self.groups, self.C
        self.tweights = [w for _, w in groups]
        self.twsum = math.fsum(self.tweights)
        self.qweights = [w_q for w_q, _ in ded]
        if groups:
            self.qweights.append(self.wshared)
        self.qwsum = qwsum = math.fsum(self.qweights)
        # what _lifted_share and _weighted_fill give the lone queue: 0.0
        # on a link without capacity
        self.K = (None if ded else
                  C * self.qweights[0] / qwsum if C > 0 else 0.0)
        sig = [C, qwsum]
        for (w_q, w), (_, n) in zip(ded, self.spans):
            sig += (w_q, w, 1, None, w, n)
        if groups:
            sig += (self.wshared, self.twsum, len(groups))
            for (g, w), (_, n) in zip(groups, self.spans[len(ded):]):
                sig += (g, w, n)
        self.sig = tuple(sig)


def _settled(new: list, old: list) -> bool:
    """Whether every rate's relative change from `old` to `new`,
    |new - old| / max(new, 1e-9), is below _TOL (never from an infinite
    old rate)."""
    for r, o in zip(new, old):
        if not abs(r - o) / (1e-9 if r < 1e-9 else r) < _TOL:
            return False
    return True


class LinkQueueView:
    """Queue structure of one undirected link under the current binding."""

    def __init__(self, ukey, link, owners: set, weight_mode: str):
        self.ukey = ukey
        self.capacity = link.capacity
        self.reservations = dict(link.reservations)
        self.owners = set(owners) & set(link.reservations)
        weights = link_queue_weights(link, owners)
        col = 0 if weight_mode == "normalized" else 1
        self.qweights = {qid: w[col] for qid, w in weights.items()}


class RateSolver:
    """Iterative per-link water-filling toward the network-wide fixed point.

    mode "wfq": hierarchical WFQ with work conservation and shared-queue caps.
    mode "static": every tenant hard-capped at its per-link reservation, no
    redistribution of unused capacity.

    The solver reads every crossed directed link's flows grouped by tenant
    from a FlowIndex: the simulation's, which the simulation brings up to
    date before the solve, or, for a solver made without one, its own,
    which each solve brings up to date from its record. It keeps, from one
    solve to the next, one plan per such link (a _LinkPlan: the link's
    flows grouped by queue and tenant). Every routed flow holds a dense
    slot, the index of its rate in the flat rate list; when a flow leaves,
    the last slot moves into its place. A solve takes the record of the
    flows that left and the flows appended since the last one (a
    FlowChange, as the event loop keeps it per step) and carries each plan
    through it: on every link of their routes only the rows of their
    tenants are set anew from the index's groups (see _LinkPlan.set), a
    link's first plan is an empty plan that its tenants join, and a link no
    flow crosses any more is dropped. A flow that moved to another slot
    renews its slots on the links of its route, and nothing else there. A
    solve without a record starts over: it drops every slot and plan (and
    its own index) and takes every routed flow as arriving. `rebuild` drops
    every plan, since the plans read the queue views, and the next solve
    plans every link anew.

    One link's work in a sweep (its kernel, _link_levels) is a pure function
    of the sweep kind, the link's plan numbers and its capped demands, and
    from one solve to the next most links see the same inputs again. The
    solver therefore memoises kernel results keyed by (lift, signature id,
    capped demands), where the signature id names the plan's numbers (see
    _LinkPlan). A plan gets its id from a map of signature to id whenever
    its signature changes; equal signatures among the live plans share one
    id. The first lift sweep reads the memo once per plan: its levels
    depend on the plan's numbers alone, and the plan keeps them until the
    next record that changes its link's flows.

    Links with the same signature over the same flow slots (twins), such as
    a route's hops into and out of a core switch, see the same input in
    every sweep, so the memo answers a twin from the entry that the first
    of them looked up in the same sweep. One level down, a kernel run
    splits each group's share over its flows, and within a run most groups
    of 3 or more flows see a (total, caps) input seen before; those levels
    come from a second memo, keyed by (lift, total, caps). The level memo,
    the link memo and the signature map are _Memo generations that rotate
    together, at the start of the first solve after the link memo's
    current generation has stored more than _MEMO_RATES rates (capped
    demands plus levels, from a kernel run or copied from the previous
    generation). A generation thus spans as many solves as its stores
    allow: few when many links change per solve, many when few do, so a
    link input that comes back many solves later is still found. Each memo
    holds at most the lookups since the start of the previous generation's
    first solve, the map also the live plans' signatures: a rotation keeps
    them, so that a live plan's id stays the one its signature maps to.

    Counters over the solver's life: `solves` (calls to solve), `sweeps`
    (lift sweeps summed over solves), `nonconverged` (solves that stopped
    at the sweep cap with the last relative rate change still >= _TOL),
    `kernel_runs` and `kernel_hits` (per-link kernel evaluations and memo
    hits; together, planned links times lift and projection sweeps),
    `plans_built` and `plans_kept` (per solve, each planned link's plan is
    either set from the record, on a link its flows cross, a new link
    included, or on every link after a rebuild or a start over, or else
    carried, its slots renewed at most), `level_runs` and `level_hits`
    (level memo lookups that ran the group kernel or found its levels), and
    `memo_rotations` (the memos' rotations).
    """

    COUNTERS = ("solves", "sweeps", "nonconverged", "kernel_runs",
                "kernel_hits", "plans_built", "plans_kept", "level_runs",
                "level_hits", "memo_rotations")

    def __init__(self, topo: Topology, mode: str = "wfq",
                 weight_mode: str = "normalized",
                 index: FlowIndex | None = None):
        self.topo = topo
        self.mode = mode
        self.weight_mode = weight_mode
        self.views: dict = {}
        self.solves = self.sweeps = self.nonconverged = 0
        self.kernel_runs = self.kernel_hits = 0
        self.plans_built = self.plans_kept = 0
        self.level_runs = self.level_hits = self.memo_rotations = 0
        # signature -> id, (lift, signature id, capped demands) -> levels,
        # and (lift, total, caps) -> levels
        self._sids, self._memo, self._levels = _Memo(), _Memo(), _Memo()
        self._next_sid = itertools.count(1)
        self.index, self._own_index = index or FlowIndex(), index is None
        # routed flows by slot, each one's slot by fid, and the plans of the
        # crossed links by dkey
        self._flows: list = []
        self._slot: dict = {}
        self._plans: dict = {}

    def rebuild(self, owners_by_link: dict) -> None:
        self.views = {}
        for ukey, link in self.topo.links.items():
            owners = owners_by_link.get(ukey, set())
            self.views[ukey] = LinkQueueView(ukey, link, owners, self.weight_mode)
        # no plan clips a demand while every rate is within this (_sweep)
        self._cmin = min((v.capacity for v in self.views.values()),
                         default=math.inf)
        self._plans = {}

    def solve(self, flows: list, change: FlowChange | None = None) -> None:
        """Set flow.rate for every flow in place. `change` records the
        flows that left and the flows appended since the last solve (the
        event loop's record); without one the solver starts over from
        `flows` (see _update).

        Iterative water-filling toward the hierarchical max-min fixed point,
        over the carried link plans (see the class docstring and _update).
        Each sweep computes per-link *lifted grants* (the share a flow would
        receive there if it alone were greedy, everyone else consuming their
        current rates) and updates every flow's rate to the minimum grant
        over its path. A lifted share is read off the other queues or
        tenants presorted by demand/weight (_lifted_share), not from a full
        weighted fill per entry. Two final capped passes project the result
        onto link capacities.

        A link whose kernel input already occurred in the memo's two
        generations reuses that result (see the class docstring), so the
        rates are the same bits as without the memo. The memos rotate at
        the start of a solve once the link memo's current generation has
        stored more than _MEMO_RATES rates.
        """
        if self._memo.stored > _MEMO_RATES:
            for memo in (self._sids, self._memo, self._levels):
                memo.rotate()
            self._sids.cur.update((plan.sig, plan.sid)
                                  for plan in self._plans.values())
            self.memo_rotations += 1
        self.solves += 1
        for f in flows if change is None else change.added:
            if not f.route:
                f.rate = LOOPBACK_MBPS
        self._update(flows, change)
        if not self._flows:
            return
        # the first sweep never settles: every rate before it is infinite
        rates = self._first_sweep()
        for sweep in range(2, max(10 * len(self._plans), 8) + 1):
            new = self._sweep(rates, lift=True)
            settled = _settled(new, rates)
            rates = new
            if settled:
                break
        else:
            self.nonconverged += 1
        self.sweeps += sweep
        for _ in range(2):
            rates = self._sweep(rates, lift=False)
        for f, r in zip(self._flows, rates):
            f.rate = r

    def _update(self, flows: list, change: FlowChange | None = None) -> None:
        """Bring the slots and plans up to the routed flows of `flows`
        through `change`: the routed flows that left free their slots (the
        last slot moving into each freed one) and those appended take new
        slots. On every link of their routes the rows of their tenants are
        set anew (a new link's plan joins them to an empty plan), and a link
        no flow crosses any more is dropped; on the other links of a moved
        flow only its tenant's slots are renewed. With no plan left (after
        `rebuild`), every link is planned anew.

        Without a record, every slot and plan (and the solver's own index)
        is dropped and every routed flow of `flows` arrives, in the order
        given."""
        if change is None:
            self._flows, self._slot, self._plans = [], {}, {}
            change = FlowChange((), flows)
            if self._own_index:
                self.index = FlowIndex()
        if self._own_index:
            self.index.apply(change)
        slotted, slot = self._flows, self._slot
        index, plans = self.index.tenants, self._plans
        # link -> the tenants of the flows that left or arrived there, and
        # link -> the tenants of the flows that moved slot
        touched, moved = {}, {}
        # from the last slot down, so that the slot moved into a freed one
        # never belongs to a flow that left
        for s in sorted([slot[f.fid] for f in change.left if f.route],
                        reverse=True):
            gone = slotted[s]
            for dkey in gone.route:
                touched.setdefault(dkey, set()).add(gone.tenant)
            del slot[gone.fid]
            last = slotted.pop()
            if s < len(slotted):
                slotted[s] = last
                slot[last.fid] = s
                for dkey in last.route:
                    moved.setdefault(dkey, set()).add(last.tenant)
        for f in change.added:
            if f.route:
                slot[f.fid] = len(slotted)
                slotted.append(f)
                for dkey in f.route:
                    touched.setdefault(dkey, set()).add(f.tenant)
        if not plans:
            touched = {dkey: by_tenant.keys()
                       for dkey, by_tenant in index.items()}
        built = 0
        for dkey, tenants in touched.items():
            if dkey not in index:
                plans.pop(dkey, None)
                continue
            plan = plans.get(dkey)
            if plan is None:
                plan = plans[dkey] = _LinkPlan(self.views[link_key(*dkey)],
                                               self.mode == "static")
            self._plan(plan, index[dkey], {*tenants, *moved.pop(dkey, ())})
            plan.first = None
            built += 1
        for dkey, tenants in moved.items():
            self._plan(plans[dkey], index[dkey], tenants)
        self.plans_built += built
        self.plans_kept += len(plans) - built

    def _plan(self, plan: _LinkPlan, by_tenant: dict, tenants) -> None:
        """Set the rows of `tenants` in `plan` from the link's flows by
        tenant and fid (see _LinkPlan.set), re-derive its numbers if a row
        came or went, give it the id of a changed signature, and set its
        gather from its slots."""
        sig = plan.sig
        for t in tenants:
            plan.set(t, by_tenant.get(t, ()), self._slot)
        if plan.sig is None:
            plan.derive()
        if plan.sig is not sig:
            # ids start at 1, so a found id is never falsy
            plan.sid = self._sids.get(plan.sig, next, self._next_sid)
        at = plan.positions
        plan.gather = (operator.itemgetter(*at) if len(at) > 1
                       else lambda rates, at=at[0]: (rates[at],))

    def _first_sweep(self) -> list:
        """The first lift sweep, from infinite rates: every flow demands its
        link's capacity, so each plan's levels are those it keeps (`first`),
        taken from the link memo the first time a sweep reads them (a store
        there counts as in _sweep); a twin of a plan that looked its levels
        up in this sweep finds them in the memo's current generation."""
        out = [math.inf] * len(self._flows)
        memo = self._memo
        runs = memo.runs
        for plan in self._plans.values():
            levels = plan.first
            if levels is None:
                capped = (plan.C,) * len(plan.positions)
                key = (True, plan.sid, capped)
                levels = plan.first = memo.cur.get(key) or memo.miss(
                    key, 2 * len(capped), _link_levels, plan, capped, True,
                    self._levels)
            for i, r in zip(plan.positions, levels):
                if r < out[i]:
                    out[i] = r
        self._count(memo.runs - runs)
        return out

    def _sweep(self, rates: list, lift: bool) -> list:
        """New per-slot rates: the minimum over each flow's links of its
        lifted grant (`lift`) or of its capped projection, every flow
        demanding its current rate (see _link_levels), each link's levels
        taken from the memo when its input repeats. A link's levels that
        the memo's current generation lacks, made or copied from the
        previous one, are stored there, adding the number of its capped
        demands plus its levels to the generation's stored rates, so the
        memo answers a twin (see the class docstring) from its current
        generation. No demand exceeds any plan's C while no rate exceeds the
        smallest link capacity, so the clip is tried only when one does."""
        out = [math.inf] * len(rates)
        memo, levels_memo = self._memo, self._levels
        cur = memo.cur
        runs = memo.runs
        clip = max(rates) > self._cmin
        for plan in self._plans.values():
            capped = plan.gather(rates)
            # `C if C < r else r` is min(r, C), without the call; after the
            # first sweep a demand rarely exceeds C. No capped demand is
            # -0.0, which would share a key with 0.0: rates start at inf,
            # _lift_levels clamps negative levels to 0.0, and the fills give
            # min(cap, positive share) or 0.0.
            if clip and max(capped) > plan.C:
                C = plan.C
                capped = tuple([C if C < r else r for r in capped])
            key = (lift, plan.sid, capped)
            levels = cur.get(key)
            if levels is None:
                levels = memo.miss(key, 2 * len(capped), _link_levels, plan,
                                   capped, lift, levels_memo)
            for i, r in zip(plan.positions, levels):
                if r < out[i]:
                    out[i] = r
        self._count(memo.runs - runs)
        return out

    def _count(self, runs: int) -> None:
        """Count one sweep's kernel runs and memo hits over every plan."""
        self.kernel_runs += runs
        self.kernel_hits += len(self._plans) - runs
        self.level_runs, self.level_hits = self._levels.runs, self._levels.hits


# ---------------------------------------------------------------------------
# demand generation
# ---------------------------------------------------------------------------

@dataclass
class ClientSpec:
    tenant: str
    vm: int
    hyp: str
    start: float
    stop: float = math.inf
    mode: str | None = None
    flow_sizes: object = None
    concurrency: int = 1
    peer_vms: tuple | None = None
    size_scale: float | None = None


@dataclass
class DemandGenerator:
    """Per-VM clients request flow transfers from randomly chosen peer VMs of
    the same tenant (data flows peer -> client). Modes:

    predictable: back-to-back flows for the client's whole active window.
    unpredictable: after each flow the client flips a coin between starting
    the next flow immediately and sleeping uniform [0, dormancy] seconds.
    shuffle: like predictable, but the client cycles deterministically through
    every peer VM (transfer-from-all-servers pattern).

    Every client draws from its own seeded stream, so a client's i-th request
    has the same size and peer under any rate policy.

    A generator serves one run, in which neither a client's peers nor a
    tenant's routing tree change: it keeps each client's peer VMs from its
    first request, and the route of each (tenant, src hypervisor, dst
    hypervisor) from the first flow between them.
    """

    mode: str
    flow_sizes: object
    dormancy: float = 1.0
    seed: int = 0
    size_scale: float = 1.0
    clients: list = field(default_factory=list)

    def __post_init__(self):
        self._rngs = [np.random.default_rng([self.seed, 0xC11E, i])
                      for i in range(len(self.clients))]
        self._cursor = [0] * len(self.clients)
        self._peers: list = [None] * len(self.clients)
        self._routes: dict = {}

    def start_events(self) -> list:
        return [(c.start, ("activate", i))
                for i, c in enumerate(self.clients)
                for _ in range(c.concurrency)]

    def next_flow(self, sim, idx: int, now: float):
        c = self.clients[idx]
        if now >= c.stop:
            return None
        vms = sim.vm_map[c.tenant]
        peers = self._peers[idx]
        if peers is None:
            peers = self._peers[idx] = [
                v for v in (range(len(vms)) if c.peer_vms is None
                            else c.peer_vms) if v != c.vm]
        if not peers:
            return None
        rng = self._rngs[idx]
        mode = c.mode or self.mode
        if mode == "shuffle":
            # staggered start so concurrent clients fan out across sources
            if self._cursor[idx] == 0:
                self._cursor[idx] = c.vm
            src = peers[self._cursor[idx] % len(peers)]
            self._cursor[idx] += 1
        else:
            src = peers[int(rng.integers(0, len(peers)))]
        size = sample_flow_size(c.flow_sizes or self.flow_sizes, rng)
        scale = c.size_scale if c.size_scale is not None else self.size_scale
        src_hyp, dst_hyp = vms[src], vms[c.vm]
        route = self._routes.get((c.tenant, src_hyp, dst_hyp))
        if route is None:
            route = self._routes[c.tenant, src_hyp, dst_hyp] = tenant_route(
                sim.tenants[c.tenant], src_hyp, dst_hyp)
        return Flow(
            fid=sim.next_fid(), tenant=c.tenant,
            src_vm=src, dst_vm=c.vm, src_hyp=src_hyp, dst_hyp=dst_hyp,
            size=size * scale, start=now, route=route, client=idx,
        )

    def after_completion(self, idx: int, now: float) -> float:
        """Next request time for the client whose flow just finished."""
        c = self.clients[idx]
        mode = c.mode or self.mode
        if mode in ("predictable", "shuffle"):
            return now
        rng = self._rngs[idx]
        if rng.random() < 0.5:
            return now
        return now + rng.uniform(0.0, self.dormancy)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

@dataclass
class IntervalReport:
    """One control interval of a run. `link_util` holds the monitored
    directed link only, mapped to its utilization per sample (absent when no
    flow crossed it); `tenant_throughput_mbps` maps each tenant with a flow
    across that link to its Mbps there per sample; both are empty when the
    simulation monitors no link (`monitor=None`). `usage` is every tenant's
    (in, out) Mbps per hypervisor over the interval."""

    index: int
    start: float
    end: float
    link_util: dict
    tenant_throughput_mbps: dict
    usage: dict
    fcts: list
    scores: dict


def _below_full(group: dict, capacity: float) -> bool:
    """Whether the flows of `group` (by fid) carry less than 1 - 1e-6 of
    `capacity`, their rates summed in fid order."""
    return sum(map(_rate, group.values())) < capacity * (1 - 1e-6)


@dataclass
class SegmentStats:
    """Online acceptance checks on one monitored directed link of `topo`,
    evaluated per piecewise-constant rate segment.

    A crossing tenant's entitlement on the link is what static reservation
    gives it there: its summed rate on the link when `solver`, a static-mode
    RateSolver, solves copies of the tenant's active flows. Static mode caps
    every tenant at its own reservation on every link, so the tenant's own
    flows decide it. below_static_time counts the wall seconds in which at
    least one crossing tenant got less than 1 - 1e-6 of its entitlement;
    below_static_tenant_time sums those seconds over the tenants short
    (tenant-seconds), and below_static_tenants names them.

    below_full_time counts the seconds in which flows crossed the link and
    it was below full (under 1 - 1e-6 of its capacity): the seconds in which
    the work-conservation check ran. conservation_violation_time counts
    those of them in which some flow of a tenant with a dedicated queue
    crossed it with every link of its route below full.

    The flows crossing the link, and each crossing tenant's, come from
    `index`, the simulation's FlowIndex, which the stats only read. `follow`
    keeps every tenant's active flows from each step's record of the flows
    that left and the flows appended (a FlowChange), warm-up steps
    included, and drops the entitlement of each tenant whose flows changed.
    `observe` solves a tenant's entitlement only when its rate on the link
    is below its reservation there (in `link.reservations`), since a static
    rate never exceeds the reservation, and keeps it until the tenant's
    flows change.
    """

    dkey: tuple
    topo: Topology = field(repr=False)
    index: FlowIndex = field(repr=False)
    time_active: float = 0.0
    time_total: float = 0.0
    busy_time: float = 0.0
    below_full_time: float = 0.0
    below_static_time: float = 0.0
    below_static_tenant_time: float = 0.0
    conservation_violation_time: float = 0.0
    below_static_tenants: set = field(default_factory=set)

    def __post_init__(self):
        self.link = self.topo.links[link_key(*self.dkey)]
        self.solver = RateSolver(self.topo, mode="static")
        self.solver.rebuild({})
        # tenant -> its active flows by fid, and tenant -> its entitlement
        # until its flows change
        self._flows, self._entitled = {}, {}

    def follow(self, change: FlowChange) -> None:
        """Follow one step's record: regroup the tenants' flows and drop
        the entitlement of every tenant whose flows changed."""
        change.regroup(self._flows, lambda f: (f.tenant,))
        for f in (*change.left, *change.added):
            self._entitled.pop(f.tenant, None)

    def entitlement(self, tenant: str) -> float:
        """`tenant`'s summed rate on the link, which it crosses, under
        static reservation of its active flows, solved on copies of them
        (the solver's own index then groups the copies by link)."""
        if tenant not in self._entitled:
            self.solver.solve(list(map(replace, self._flows[tenant].values())))
            crossing = self.solver.index.links[self.dkey].values()
            self._entitled[tenant] = sum(map(_rate, crossing))
        return self._entitled[tenant]

    def observe(self, t0: float, t1: float, owners: set,
                all_unsaturated) -> None:
        """Account the segment [t0, t1) at constant rates over the index's
        flows: only the flows that cross `dkey` count, and `owners` are the
        tenants with a dedicated queue."""
        dt = t1 - t0
        if dt <= 0:
            return
        self.time_total += dt
        crossing = self.index.links.get(self.dkey)
        if not crossing:
            return
        self.time_active += dt
        if _below_full(crossing, self.link.capacity):
            self.below_full_time += dt
            for f in crossing.values():
                if f.tenant in owners and all_unsaturated(f):
                    self.conservation_violation_time += dt
                    break
        else:
            self.busy_time += dt
        short = False
        for tenant, flows in self.index.tenants[self.dkey].items():
            rate = sum(map(_rate, flows.values()))
            if (rate < self.link.reservations.get(tenant, 0.0)
                    and rate < self.entitlement(tenant) * (1.0 - 1e-6)):
                self.below_static_tenant_time += dt
                self.below_static_tenants.add(tenant)
                short = True
        if short:
            self.below_static_time += dt


class FluidSimulation:
    """Event-driven control loop over an embedded tenant set.

    `monitor` is the one directed link the run measures: the reports'
    `link_util` and `tenant_throughput_mbps` series cover it alone, and
    with `stats` the simulation keeps `self.stats`, a SegmentStats that
    checks it per segment (else `self.stats` is None and the loop skips
    the checks). With `monitor=None` the run measures no link: it sums no
    sample buckets and its reports' series are empty, and `stats` is
    refused. Binding reads per-hypervisor usage, which every flow feeds,
    so rates, FCTs and usage are the same with or without a monitor.

    `self.flows` holds the active flows in fid order (fids only grow), and
    `self.index` (a FlowIndex) the routed ones grouped by link and by link
    and tenant. The simulation owns the index: every step records the
    flows that ended and the flows that started (a FlowChange), and right
    after a step that changed the flows, warm-up steps included, the loop
    applies that record to the index once, then pushes it to
    `stats.follow` and the rate hook's `follow(change, index)`, and hands
    it to the next rate solve. The solver, the stats, the hook and the
    loop read their link groups from the index and update only what they
    carry of their own in the size of the change. The first solve of a run
    gets no record and starts over. A rate hook also sets the probe
    quantum: every `cfg.probe_period` seconds the loop calls its
    `on_quantum`. The loop itself carries each flow's (in, out) usage
    cells in the interval's `usage` dict: a flow that ends drops its cells
    at once, a new one gets its cells when a step first moves it, and an
    interval boundary rebuilds them all, in fid order, in the new
    interval's accumulators.

    When `run` returns, it adds to `counters`, when given, the rate
    solver's counters (see RateSolver.COUNTERS) under "solver", under
    "loop" its `steps` (loop iterations) and the rate hook's `fifo_stops`
    (0 without a hook), under "phase_s" the wall seconds of its phases
    (see PHASES): the solves or the hook's `compute` calls, `_advance`,
    `stats.observe` with the record's `follow` calls, the hook's
    `on_quantum` calls, and the interval boundaries, and, with `stats`,
    under "stats" the static solves of the stats' entitlements
    (`static_solves`)."""

    PHASES = ("solve", "advance", "observe", "quantum", "boundary")

    def __init__(self, topo: Topology, tenants: dict, generator: DemandGenerator,
                 *, interval: float = 4.0, policy: str = "qshare",
                 weight_mode: str = "normalized", seed: int = 0,
                 monitor: tuple | None, sample: float = 0.1,
                 stats: bool = False, initial_dedicated: list | None = None,
                 rate_hook=None, counters: dict | None = None):
        if stats and monitor is None:
            raise ValueError("stats=True needs a monitored link, but "
                             "monitor is None")
        self.topo = topo
        self.tenants = tenants
        self.generator = generator
        self.interval = interval
        self.policy = policy
        self.seed = seed
        self.sample = sample
        self.rate_hook = rate_hook
        self.counters = counters
        self.rng = np.random.default_rng([seed, 0xB1ED])
        self.vm_map = {tid: _expand_vms(t) for tid, t in tenants.items()}
        self.controller = BindingController(queue_count=topo.max_queue_count)
        self.index = FlowIndex()
        self.solver = RateSolver(topo, mode="static" if policy == "static" else "wfq",
                                 weight_mode=weight_mode, index=self.index)
        if initial_dedicated:
            for tid in initial_dedicated:
                self.controller.state.enqueue(tenants[tid])
            for tid, t in tenants.items():
                t.state = "dedicated" if tid in self.controller.state.dedicated else "shared"
        self.solver.rebuild(self.controller.state.owners)
        self.monitor = monitor
        self.flows: dict = {}
        self._fid = 0
        self.steps = 0
        self.reports: list = []
        self.stats = SegmentStats(monitor, topo, self.index) if stats else None

    def next_fid(self) -> int:
        self._fid += 1
        return self._fid

    # -- event loop ----------------------------------------------------
    def run(self, duration: float, warmup_intervals: int = 0) -> list:
        events: list = []
        seq = 0
        for when, ev in self.generator.start_events():
            seq += 1
            heapq.heappush(events, (when, seq, ev))
        t = 0.0
        # segments before the end of warm-up are simulated but not measured;
        # interval boundaries are segment endpoints, so none straddles it
        measure_from = warmup_intervals * self.interval
        horizon = measure_from + duration
        interval_idx = 0
        int_start = 0.0
        hook, stats = self.rate_hook, self.stats
        quantum = math.inf if hook is None else hook.cfg.probe_period
        clock = time.perf_counter
        spent = dict.fromkeys(self.PHASES, 0.0)
        next_quantum = quantum
        usage: dict = {}
        buckets: dict = {}
        ten_bytes: dict = {}
        fcts: list = []
        # fid -> (flow, src cell, dst cell), in fid order, for this
        # interval's accumulators; the flows not yet moved get theirs in
        # _advance
        self._cells = {}
        self._uncelled = list(self.flows.values())
        dirty = True
        change = None  # the last step's record; none before the first
        while t < horizon - _TOL:
            if dirty:
                w0 = clock()
                flows = list(self.flows.values())
                if hook is not None:
                    hook.compute(self, flows, t)
                else:
                    self.solver.solve(flows, change)
                dirty = False
                spent["solve"] += clock() - w0
            t_next = min(int_start + self.interval, next_quantum, horizon)
            if events:
                t_next = min(t_next, events[0][0])
            for f in self.flows.values():
                if f.rate > 0:
                    t_done = t + f.remaining / (f.rate * BYTES_PER_MBPS_SEC)
                    if t_done < t_next:
                        t_next = t_done
            t_next = max(t_next, t)
            self.steps += 1
            w0 = clock()
            done = self._advance(t, t_next, usage, buckets, ten_bytes)
            w1 = clock()
            if stats is not None and t >= measure_from - _TOL:
                stats.observe(t, t_next, self.controller.state.dedicated,
                              self._all_unsaturated)
            spent["advance"] += w1 - w0
            spent["observe"] += clock() - w1
            t = t_next
            for f in done:
                del self.flows[f.fid]
                self._cells.pop(f.fid, None)
                fcts.append((f.fid, f.tenant, f.size, f.start, t - f.start, f.client))
                nxt = self.generator.after_completion(f.client, t)
                seq += 1
                heapq.heappush(events, (nxt, seq, ("request", f.client)))
            added = []
            while events and events[0][0] <= t + _TOL:
                # a client's activation or request starts its next flow
                _, _, (_, client) = heapq.heappop(events)
                flow = self.generator.next_flow(self, client, t)
                if flow is not None:
                    self.flows[flow.fid] = flow
                    added.append(flow)
            change = FlowChange(done, added)
            if done or added:
                dirty = True
                w0 = clock()
                self.index.apply(change)
                if stats is not None:
                    stats.follow(change)
                if hook is not None:
                    hook.follow(change, self.index)
                spent["observe"] += clock() - w0
            self._uncelled += added
            if t >= next_quantum - _TOL:
                w0 = clock()
                hook.on_quantum(self, t)
                spent["quantum"] += clock() - w0
                next_quantum += quantum
                dirty = True
            if t >= int_start + self.interval - _TOL and t < horizon - _TOL:
                w0 = clock()
                interval_idx += 1
                self._interval_boundary(interval_idx, int_start, t, usage,
                                        buckets, ten_bytes, fcts)
                int_start = t
                usage, buckets, ten_bytes, fcts = {}, {}, {}, []
                self._cells = {}
                self._uncelled = list(self.flows.values())
                dirty = True
                spent["boundary"] += clock() - w0
        if usage or buckets or fcts or self.flows:
            w0 = clock()
            interval_idx += 1
            self._interval_boundary(interval_idx, int_start, t, usage, buckets,
                                    ten_bytes, fcts, rebind=False)
            spent["boundary"] += clock() - w0
        if self.counters is not None:
            groups = {
                "solver": {name: getattr(self.solver, name)
                           for name in RateSolver.COUNTERS},
                "loop": {"steps": self.steps,
                         "fifo_stops": getattr(self.rate_hook, "fifo_stops",
                                               0)},
                "phase_s": spent}
            if stats is not None:
                groups["stats"] = {"static_solves": stats.solver.solves}
            add_counters(self.counters, groups)
        return self.reports

    def _advance(self, t0: float, t1: float, usage, buckets,
                 ten_bytes) -> tuple:
        """Move every flow on by its rate over [t0, t1), adding its bytes to
        `usage` and, when it crosses the monitored link (the index's group
        of the monitor, in fid order), to the monitor's and its tenant's
        sample buckets; without a monitor no flow crosses it. The flows
        that have no cells yet get them first, in fid order, as a per-flow
        pass would create them. Returns the flows now complete, in flow
        order."""
        flows = self.flows
        dt = t1 - t0
        if dt <= 0:
            return [f for f in flows.values()
                    if f.rate > 0 and f.remaining <= 1e-6]
        for f in self._uncelled:
            if f.fid in flows:  # not ended before it moved
                u = usage.setdefault(f.tenant, {})
                src = u.setdefault(f.src_hyp, [0.0, 0.0])
                dst = u.setdefault(f.dst_hyp, [0.0, 0.0])
                self._cells[f.fid] = (f, src, dst)
                if self.monitor in f.route:
                    ten_bytes.setdefault(f.tenant, {})
        self._uncelled = []
        done = []
        for f, src, dst in self._cells.values():
            rate = f.rate
            moved = rate * BYTES_PER_MBPS_SEC * dt
            left = f.remaining - moved
            f.remaining = left = 0.0 if left < 0.0 else left
            src[1] += moved
            dst[0] += moved
            if left <= 1e-6 and rate > 0:
                done.append(f)
        crossing = self.index.links.get(self.monitor)
        if crossing:
            spans = _spans(t0, t1, self.sample)
            sums = [(buckets.setdefault(self.monitor, {}), crossing)]
            for tenant, own in self.index.tenants[self.monitor].items():
                sums.append((ten_bytes[tenant], own))
            for bucket, group in sums:
                for i, width in spans:
                    # the group's bytes in fid order, as one running sum
                    total = bucket.get(i, 0.0)
                    for f in group.values():
                        total += f.rate * BYTES_PER_MBPS_SEC * width
                    bucket[i] = total
        return done

    def _all_unsaturated(self, flow) -> bool:
        """Whether every link of `flow`'s route is below full (see
        _below_full)."""
        links, groups = self.topo.links, self.index.links
        return all(_below_full(groups[dkey], links[link_key(*dkey)].capacity)
                   for dkey in flow.route)

    def _interval_boundary(self, idx, start, end, usage, buckets, ten_bytes,
                           fcts, rebind: bool = True) -> None:
        seconds = max(end - start, 1e-12)
        usage_mbps = {
            tid: {hyp: (io[0] / BYTES_PER_MBPS_SEC / seconds,
                        io[1] / BYTES_PER_MBPS_SEC / seconds)
                  for hyp, io in hyps.items()}
            for tid, hyps in usage.items()
        }
        link_util = {
            dkey: [mbps / self.topo.links[link_key(*dkey)].capacity
                   for mbps in _bucket_series(b, start, end, self.sample)]
            for dkey, b in buckets.items()
        }
        throughput = {
            tid: _bucket_series(b, start, end, self.sample)
            for tid, b in ten_bytes.items()
        }
        scores = {}
        if rebind and self.policy == "qshare":
            results = self.controller.run_interval(self.tenants, usage_mbps,
                                                   self.rng)
            scores = {tid: (r.u_factor, r.score) for tid, r in results.items()}
            self.solver.rebuild(self.controller.state.owners)
        self.reports.append(IntervalReport(
            idx, start, end, link_util, throughput, usage_mbps, fcts, scores))


def _expand_vms(tenant) -> list:
    vms = []
    for hyp in sorted(tenant.vm_placement):
        vms.extend([hyp] * tenant.vm_placement[hyp])
    return vms


def _spans(t0: float, t1: float, sample: float) -> list:
    """(index, overlap width) of every fixed-width sample bucket that
    [t0, t1) overlaps; a rate integrates into a bucket as rate * width."""
    out = []
    i = math.floor(t0 / sample + 1e-12)
    while True:
        edge = (i + 1) * sample
        hi = min(edge, t1)
        lo = max(i * sample, t0)
        if hi > lo:
            out.append((i, hi - lo))
        if edge >= t1 - 1e-15:
            return out
        i += 1


def _bucket_series(bucket: dict, start: float, end: float, sample: float) -> list:
    i0 = math.floor(start / sample + 1e-12)
    i1 = max(math.ceil(end / sample - 1e-12), i0 + 1)
    out = []
    for i in range(i0, i1):
        width = min((i + 1) * sample, end) - max(i * sample, start)
        width = max(width, 1e-12)
        out.append(bucket.get(i, 0.0) / BYTES_PER_MBPS_SEC / width)
    return out


def make_clients(tenants: dict, vm_map: dict, *, client_hyps=None,
                 activations=None, concurrency: int = 1) -> list:
    """One client per VM (optionally restricted to VMs on `client_hyps`),
    activated per the tenant's entry in `activations` (default 0.0). Each
    client keeps `concurrency` outstanding transfer requests."""
    activations = activations or {}
    clients = []
    for tid in sorted(tenants):
        start = activations.get(tid, 0.0)
        if start is None:
            continue
        stop = math.inf
        if isinstance(start, (tuple, list)):
            start, stop = start
        for vm, hyp in enumerate(vm_map[tid]):
            if client_hyps is not None and hyp not in client_hyps:
                continue
            clients.append(ClientSpec(tid, vm, hyp, start, stop,
                                      concurrency=concurrency))
    return clients
