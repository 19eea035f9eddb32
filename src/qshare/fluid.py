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
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .binding import BindingController, link_queue_weights
from .topology import Topology, link_key

BYTES_PER_MBPS_SEC = 125_000.0  # 1 Mbps moves 125 kB per second
LOOPBACK_MBPS = 100_000.0       # flows between co-located VMs
_TOL = 1e-9
_LEVEL_SOLVES = 4  # solves per generation of RateSolver's level memo
_rate = operator.attrgetter("rate")


def _same_objects(items, carried) -> bool:
    """Whether `items` are the objects in `carried`, in the same order
    (never when `carried` is None)."""
    return (carried is not None and len(items) == len(carried)
            and all(map(operator.is_, items, carried)))


def dormancy_probability(n_vm_pairs: int) -> float:
    """Probability that n independent VM pairs, each active with probability
    one half, are all dormant at once: 2**-n."""
    if n_vm_pairs < 0:
        raise ValueError("pair count must be non-negative")
    return 0.5 ** n_vm_pairs


def idealized_all_dormant_frequency(n_pairs: int, draws: int, rng) -> float:
    """Observed all-dormant frequency under the idealized equal-probability
    activity model (each pair flips a fair coin per micro-interval)."""
    if n_pairs == 0:
        return 1.0
    active = rng.integers(0, 2, size=(draws, n_pairs))
    return float(np.mean(active.sum(axis=1) == 0))


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
    memo (_LevelMemo), which runs this once per distinct (total, caps) and
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


class _LevelMemo:
    """The levels of flow groups of 3 or more flows, keyed by (lift, total,
    caps): _lift_levels(total, caps) with `lift`, else _water_fill(total,
    caps). It keeps two generations: a key found in the previous one is
    copied into the current one, and `rotate` drops the previous one.
    `runs` counts kernel runs and `hits` lookups that found their key. The
    levels are shared between hits and never mutated.

    No total is -0.0, which would share a key with 0.0: the fills return
    zeros for a total <= 0 before any lookup, and a lifted total is a
    _lifted_share (0.0 or a positive share or cap) or a reservation. No cap
    is -0.0 (see RateSolver._sweep)."""

    __slots__ = ("cur", "prev", "runs", "hits")

    def __init__(self):
        self.cur, self.prev = {}, {}
        self.runs = self.hits = 0

    def rotate(self) -> None:
        self.prev, self.cur = self.cur, {}

    def levels(self, lift: bool, total: float, caps: tuple) -> list:
        key = (lift, total, caps)
        # a found value is a non-empty list, so never falsy
        levels = self.cur.get(key) or self.prev.get(key)
        if levels is None:
            levels = (_lift_levels if lift else _water_fill)(total, caps)
            self.runs += 1
        else:
            self.hits += 1
        self.cur[key] = levels
        return levels


def _lift_into(out: list, totals: list, spans: list, capped: tuple,
               memo: _LevelMemo) -> None:
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
            out += memo.levels(True, total, capped[a:a + n])


def _fill_into(out: list, totals: list, spans: list, capped: tuple,
               memo: _LevelMemo) -> None:
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
            out += memo.levels(False, total, capped[a:a + n])


def _group_shares(plan: "_LinkPlan", capped: tuple, lift: bool) -> list:
    """The share of every group of `plan` (dedicated queues first, in the
    order of plan.spans), its flows demanding `capped`: its lifted share
    with `lift`, else its part of the weighted max-min split (see
    _link_levels). A static group's share is its reservation."""
    ded, groups = plan.ded, plan.groups
    if plan.static:
        return [g for g, _, _, _ in groups]
    if groups:
        tds = []
        for g, _, a, n in groups:
            d = (capped[a] if n == 1 else capped[a] + capped[a + 1] if n == 2
                 else math.fsum(capped[a:a + n]))
            tds.append(g if g < d else d)
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
        for ti, ((g, w, _, _), d) in enumerate(zip(groups, tds)):
            c0 = sdem - d + g
            shares.append(_lifted_share(K if K < c0 else c0, w, g, twsum,
                                        tsorted, ti))
        return shares
    qdems = [capped[a] if n == 1 else capped[a] + capped[a + 1] if n == 2
             else math.fsum(capped[a:a + n]) for _, a, n in ded]
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
              for qi, (w_q, _, _) in enumerate(ded)]
    if groups:
        # lifting one flow lifts its tenant's demand to the cap
        qi, w_q = len(ded), plan.qweights[-1]
        tsorted = _by_key(plan.tweights, tds)
        twsum = plan.twsum
        for ti, ((g, w, _, _), d) in enumerate(zip(groups, tds)):
            share = _lifted_share(C, w_q, sdem - d + g, qwsum, qsorted, qi)
            shares.append(_lifted_share(share, w, g, twsum, tsorted, ti))
    return shares


def _link_levels(plan: "_LinkPlan", capped: tuple, lift: bool,
                 memo: _LevelMemo | None = None) -> tuple:
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
        _LevelMemo() if memo is None else memo)
    return tuple(out)


class _LinkPlan:
    """One directed link's flows under the current queue views, as the
    kernel reads them. `queues` gives (weight, groups) per queue in qid
    order, a group being (cap, weight, flow count) for one tenant, its flows
    in fid order: a dedicated queue holds its owner's flows uncapped (cap
    None), the shared queue one group per tenant in tenant order, capped at
    the tenant's reservation. Static mode puts every tenant, capped at its
    reservation, in one queue.

    The kernel reads `ded`, (weight, offset, count) per dedicated queue,
    `groups`, (cap, weight, offset, count) per shared or static group, with
    their weights and the weights' math.fsum (`qweights`/`qwsum` over
    queues, `tweights`/`twsum` over groups), and `K`, the shared queue's
    weighted share of the capacity when it is the only queue, and `spans`,
    (offset, count) per dedicated queue and then per group, the order the
    kernel's levels come in (every dedicated queue precedes the shared
    queue in qid order). The signature `sig` is every number the kernel
    reads, flat: the capacity, the weight sum, then per queue its weight,
    its tenant weight sum and its group count, each followed by its groups'
    cap, weight and flow count. `sid` names the signature in the memo;
    `fids` and `positions` list the flows and their solver slots in plan
    order."""

    __slots__ = ("C", "static", "qweights", "qwsum", "ded", "groups",
                 "tweights", "twsum", "K", "spans", "sig", "sid", "fids",
                 "positions", "gather")

    def __init__(self, C: float, static: bool, queues: list):
        self.C, self.static = C, static
        self.ded, self.groups, self.tweights = [], [], []
        self.qweights = [w_q for w_q, _ in queues]
        self.qwsum = math.fsum(self.qweights)
        self.twsum = 0.0
        numbers, at = [], 0
        for w_q, groups in queues:
            twsum = math.fsum(w for _, w, _ in groups)
            numbers += (w_q, twsum, len(groups))
            for g, w, n in groups:
                numbers += (g, w, n)
                if g is None:
                    self.ded.append((w_q, at, n))
                else:
                    self.groups.append((g, w, at, n))
                    self.tweights.append(w)
                at += n
            if groups[0][0] is not None:
                self.twsum = twsum
        # what _lifted_share and _weighted_fill give the lone queue: 0.0
        # on a link without capacity
        self.K = ((C * self.qweights[0] / self.qwsum if C > 0 else 0.0)
                  if len(queues) == 1 and not self.ded else None)
        self.spans = ([(a, n) for _, a, n in self.ded]
                      + [(a, n) for _, _, a, n in self.groups])
        self.sig = (C, self.qwsum, *numbers)
        self.sid = 0
        self.fids = self.positions = ()

    def place(self, positions: list) -> None:
        """Set the solver slots of the plan's flows, in plan order, as a
        tuple, and `gather`, which reads their entries of a per-slot list as
        a tuple."""
        self.positions = tuple(positions)
        self.gather = (operator.itemgetter(*positions) if len(positions) > 1
                       else lambda rates, at=positions[0]: (rates[at],))


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

    The solver keeps one plan per directed link that some flow crosses (a
    _LinkPlan: the link's flows grouped by queue and tenant) from one solve
    to the next. Every routed flow holds a dense slot, the index of its rate
    in the flat rate list; when a flow leaves, the last slot moves into its
    place. A solve re-plans only the links on the routes of flows that
    arrived or left, and a moved flow's links only get their slot list
    renewed. A flow is carried when its (fid, tenant, route) is unchanged;
    a reused fid with another tenant or route leaves and arrives.
    `rebuild` drops every plan, since the plans read the queue views.

    One link's work in a sweep (its kernel, _link_levels) is a pure function
    of the sweep kind, the link's plan numbers and its capped demands, and
    between two solves most links see the same inputs again. The solver
    therefore memoises kernel results keyed by (lift, signature id, capped
    demands), where the signature id names the plan's numbers (see
    _LinkPlan). Every plan registers its signature each solve, so equal
    signatures get the same id in this solve and the previous one. The memo
    keeps two generations, this solve's entries and the previous solve's,
    so it never holds more than two solves' results.

    Links with the same signature over the same flow slots, such as a
    route's hops into and out of a core switch, see the same input in every
    sweep: each solve groups the plans by (signature id, slots), and a
    sweep evaluates each group once, by its first plan, counting the others
    as memo hits. One level down, a kernel run splits each group's share
    over its flows, and within a run most groups of 3 or more flows see a
    (total, caps) input seen before; those levels come from a second memo
    (_LevelMemo), keyed by (lift, total, caps), that rotates every
    _LEVEL_SOLVES solves, so it never holds more than 2 * _LEVEL_SOLVES
    solves' levels.

    Counters over the solver's life: `solves` (calls to solve), `sweeps`
    (lift sweeps summed over solves), `nonconverged` (solves that stopped
    at the sweep cap with the last relative rate change still >= _TOL),
    `kernel_runs` and `kernel_hits` (per-link kernel evaluations and memo
    hits; together, planned links times lift and projection sweeps),
    `plans_built` and `plans_kept` (per solve, each planned link is either
    planned anew or carried from the previous solve), and `level_runs` and
    `level_hits` (level memo lookups that ran the group kernel or found its
    levels).
    """

    COUNTERS = ("solves", "sweeps", "nonconverged", "kernel_runs",
                "kernel_hits", "plans_built", "plans_kept", "level_runs",
                "level_hits")

    def __init__(self, topo: Topology, mode: str = "wfq",
                 weight_mode: str = "normalized"):
        self.topo = topo
        self.mode = mode
        self.weight_mode = weight_mode
        self.views: dict = {}
        self.solves = self.sweeps = self.nonconverged = 0
        self.kernel_runs = self.kernel_hits = 0
        self.plans_built = self.plans_kept = 0
        self.level_runs = self.level_hits = 0
        # this solve's and the previous solve's: signature -> id, and
        # (lift, signature id, capped demands) -> levels
        self._sigs: dict = {}
        self._sigs_prev: dict = {}
        self._memo: dict = {}
        self._memo_prev: dict = {}
        self._next_sid = itertools.count(1)
        self._levels = _LevelMemo()
        # routed flows by slot with the (tenant, route) they were planned
        # under, each one's slot by fid, every crossed link's fids by tenant
        # in fid order, the plans of those links in dkey order, and the
        # first plan of each (signature id, slots) group
        self._flows: list = []
        self._idents: list = []
        self._slot: dict = {}
        self._members: dict = {}
        self._plans: dict = {}
        self._distinct: list = []

    def rebuild(self, owners_by_link: dict) -> None:
        self.views = {}
        for ukey, link in self.topo.links.items():
            owners = owners_by_link.get(ukey, set())
            self.views[ukey] = LinkQueueView(ukey, link, owners, self.weight_mode)
        self._plans = {}

    def solve(self, flows: list) -> None:
        """Set flow.rate for every flow in place.

        Iterative water-filling toward the hierarchical max-min fixed point,
        over the carried link plans (see the class docstring and _update).
        Each sweep computes per-link *lifted grants* (the share a flow would
        receive there if it alone were greedy, everyone else consuming their
        current rates) and updates every flow's rate to the minimum grant
        over its path. A lifted share is read off the other queues or
        tenants presorted by demand/weight (_lifted_share), not from a full
        weighted fill per entry. Two final capped passes project the result
        onto link capacities.

        A link whose kernel input already occurred in this solve or the
        previous one reuses that result (see the class docstring), so the
        rates are the same bits as without the memo. The link memo rotates
        at the start of every solve, the level memo at the start of every
        _LEVEL_SOLVES-th.
        """
        if self.solves % _LEVEL_SOLVES == 0:
            self._levels.rotate()
        self.solves += 1
        self._sigs_prev, self._sigs = self._sigs, {}
        self._memo_prev, self._memo = self._memo, {}
        routed = []
        for f in flows:
            if f.route:
                routed.append(f)
            else:
                f.rate = LOOPBACK_MBPS
        self._update(routed)
        if not routed:
            return
        rates = [math.inf] * len(routed)
        for sweep in range(1, max(10 * len(self._plans), 8) + 1):
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

    def _update(self, routed: list) -> None:
        """Bring the slots and plans up to `routed`: the flows that left
        free their slots (the last slot moving into each freed one), those
        that arrived take new slots, every link on their routes is planned
        anew, and a link no flow crosses any more is dropped. Then every
        plan registers its signature id for this solve, and the plans are
        grouped by (signature id, slots) for _sweep."""
        flows, idents, slot = self._flows, self._idents, self._slot
        members, plans = self._members, self._plans
        arrived, carried = [], []
        for f in routed:
            s = slot.get(f.fid)
            if s is not None and idents[s] == (f.tenant, f.route):
                flows[s] = f
                carried.append(s)
            else:
                arrived.append(f)
        touched, moved = set(), set()
        if len(carried) < len(flows):
            # from the last slot down, so that the slot moved into a freed
            # one never belongs to a flow that left
            for s in sorted(set(range(len(flows))).difference(carried),
                            reverse=True):
                tenant, route = idents[s]
                fid = flows[s].fid
                for dkey in route:
                    by_tenant = members[dkey]
                    by_tenant[tenant].remove(fid)
                    if not by_tenant[tenant]:
                        del by_tenant[tenant]
                        if not by_tenant:
                            del members[dkey]
                touched.update(route)
                del slot[fid]
                last = flows.pop()
                ident = idents.pop()
                if s < len(flows):
                    flows[s], idents[s] = last, ident
                    slot[last.fid] = s
                    moved.update(ident[1])
        for f in arrived:
            slot[f.fid] = len(flows)
            flows.append(f)
            idents.append((f.tenant, f.route))
            for dkey in f.route:
                fids = members.setdefault(dkey, {}).setdefault(f.tenant, [])
                if fids and fids[-1] > f.fid:
                    bisect.insort(fids, f.fid)
                else:
                    fids.append(f.fid)
            touched.update(f.route)
        for dkey in touched:
            plans.pop(dkey, None)
        kept = len(plans)
        if kept < len(members):
            plans.update((dkey, self._plan(dkey, by_tenant))
                         for dkey, by_tenant in members.items()
                         if dkey not in plans)
            self._plans = plans = dict(sorted(plans.items()))
        for dkey in moved.difference(touched):
            plan = plans.get(dkey)
            if plan is not None:
                plan.place([slot[fid] for fid in plan.fids])
        self.plans_kept += kept
        self.plans_built += len(plans) - kept
        sigs, sigs_prev = self._sigs, self._sigs_prev
        for plan in plans.values():
            # ids start at 1, so a found id is never falsy
            sid = (plan.sid or sigs.get(plan.sig) or sigs_prev.get(plan.sig)
                   or next(self._next_sid))
            sigs[plan.sig] = plan.sid = sid
        distinct: dict = {}
        for plan in plans.values():
            distinct.setdefault((plan.sid, plan.positions), plan)
        self._distinct = list(distinct.values())

    def _plan(self, dkey: tuple, by_tenant: dict) -> _LinkPlan:
        """A new plan of link `dkey` for its fids by tenant (see _LinkPlan)."""
        view = self.views[link_key(*dkey)]
        res, qweights = view.reservations, view.qweights
        static = self.mode == "static"
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
        plan = _LinkPlan(view.capacity, static, queues)
        plan.fids = fids
        plan.place([self._slot[fid] for fid in fids])
        return plan

    def _sweep(self, rates: list, lift: bool) -> list:
        """New per-slot rates: the minimum over each flow's links of its
        lifted grant (`lift`) or of its capped projection, every flow
        demanding its current rate (see _link_levels), each link's levels
        taken from the memo when its input repeats. A plan of a (signature
        id, slots) group stands for the whole group."""
        out = [math.inf] * len(rates)
        memo, memo_prev, levels_memo = self._memo, self._memo_prev, self._levels
        runs = 0
        for plan in self._distinct:
            C = plan.C
            capped = plan.gather(rates)
            # `C if C < r else r` is min(r, C), without the call; after the
            # first sweep a demand rarely exceeds C. No capped demand is
            # -0.0, which would share a key with 0.0: rates start at inf,
            # _lift_levels clamps negative levels to 0.0, and the fills give
            # min(cap, positive share) or 0.0.
            if max(capped) > C:
                capped = tuple([C if C < r else r for r in capped])
            key = (lift, plan.sid, capped)
            levels = memo.get(key)
            if levels is None:
                levels = memo_prev.get(key)
                if levels is None:
                    levels = _link_levels(plan, capped, lift, levels_memo)
                    runs += 1
                memo[key] = levels
            for i, r in zip(plan.positions, levels):
                if r < out[i]:
                    out[i] = r
        self.kernel_runs += runs
        self.kernel_hits += len(self._plans) - runs
        self.level_runs, self.level_hits = levels_memo.runs, levels_memo.hits
        return out


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

    def start_events(self) -> list:
        return [(c.start, ("activate", i))
                for i, c in enumerate(self.clients)
                for _ in range(c.concurrency)]

    def next_flow(self, sim, idx: int, now: float):
        c = self.clients[idx]
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
        return Flow(
            fid=sim.next_fid(), tenant=c.tenant,
            src_vm=src, dst_vm=c.vm,
            src_hyp=vms[src], dst_hyp=vms[c.vm],
            size=size * scale, start=now,
            route=tenant_route(tenant, vms[src], vms[c.vm]),
            client=idx,
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
    across that link to its Mbps there per sample; `usage` is every tenant's
    (in, out) Mbps per hypervisor over the interval."""

    index: int
    start: float
    end: float
    link_util: dict
    tenant_throughput_mbps: dict
    usage: dict
    fcts: list
    scores: dict


@dataclass
class SegmentStats:
    """Online acceptance checks on one monitored directed link, evaluated per
    piecewise-constant rate segment.

    A tenant's entitled bandwidth on the link during a segment is the hose
    bound: min(reservation on the link, sum of its hose guarantees at the
    engaged source hypervisors, same at the engaged destinations). A tenant
    engaging every hypervisor it occupies is entitled to its full link
    reservation.

    guarantee_violation_time counts wall seconds in which at least one tenant
    got less than its entitlement; guarantee_violation_tenant_time sums those
    seconds over the violating tenants (tenant-seconds).

    What depends only on the flow set is carried from one segment to the
    next and rebuilt when the flows passed differ by identity from the last
    segment's: the flows crossing the link and, per tenant with a positive
    entitlement, its crossing flows and the rate below which it is short.
    Rates are still added in flow order every segment.
    """

    dkey: tuple
    capacity: float
    guarantees: dict
    nic_guarantees: dict
    time_active: float = 0.0
    time_total: float = 0.0
    busy_time: float = 0.0
    guarantee_violation_time: float = 0.0
    guarantee_violation_tenant_time: float = 0.0
    conservation_violation_time: float = 0.0
    violating_tenants: set = field(default_factory=set)

    def __post_init__(self):
        self._flows: list = []
        self._crossing: list = []
        self._entitled: dict = {}  # tenant -> (srcs, dsts, entitlement)
        self._short: list = []  # (tenant, its crossing flows, threshold)

    def entitlement(self, tenant: str, srcs: set, dsts: set) -> float:
        out = math.fsum(self.nic_guarantees.get((tenant, h), 0.0) for h in srcs)
        inn = math.fsum(self.nic_guarantees.get((tenant, h), 0.0) for h in dsts)
        return min(self.guarantees.get(tenant, 0.0), out, inn)

    def _carry(self, flows: list) -> None:
        """Carry `flows`: a tenant whose engaged hypervisors are those of
        the last carry keeps its entitlement."""
        self._flows = list(flows)
        self._crossing = [f for f in flows if self.dkey in f.route]
        per_tenant: dict = {}
        for f in self._crossing:
            per_tenant.setdefault(f.tenant, []).append(f)
        last, self._entitled, self._short = self._entitled, {}, []
        for tenant, crossing in per_tenant.items():
            srcs = {f.src_hyp for f in crossing}
            dsts = {f.dst_hyp for f in crossing}
            kept = last.get(tenant)
            entitled = (kept[2] if kept and kept[:2] == (srcs, dsts)
                        else self.entitlement(tenant, srcs, dsts))
            self._entitled[tenant] = (srcs, dsts, entitled)
            if entitled > 0:
                self._short.append((tenant, crossing, entitled * (1.0 - 1e-6)))

    def observe(self, t0: float, t1: float, flows: list, owners: set,
                all_unsaturated) -> None:
        """Account the segment [t0, t1) at constant rates: only the flows
        in `flows` that cross `dkey` count, and `owners` are the tenants
        with a dedicated queue."""
        dt = t1 - t0
        if dt <= 0:
            return
        self.time_total += dt
        if not _same_objects(flows, self._flows):
            self._carry(flows)
        crossing = self._crossing
        if not crossing:
            return
        self.time_active += dt
        util = sum(map(_rate, crossing)) / self.capacity
        if util >= 1.0 - 1e-6:
            self.busy_time += dt
        else:
            for f in crossing:
                if f.tenant in owners and all_unsaturated(f, self.dkey):
                    self.conservation_violation_time += dt
                    break
        violated = False
        for tenant, tenant_flows, short in self._short:
            if sum(map(_rate, tenant_flows)) < short:
                self.guarantee_violation_tenant_time += dt
                self.violating_tenants.add(tenant)
                violated = True
        if violated:
            self.guarantee_violation_time += dt


class FluidSimulation:
    """Event-driven control loop over an embedded tenant set.

    `monitor` is the one directed link the run measures: `stats` checks it
    per segment, and the reports' `link_util` and `tenant_throughput_mbps`
    series cover it alone. Binding reads per-hypervisor usage, which every
    flow feeds.

    `self.flows` holds the active flows in fid order (fids only grow). The
    loop carries what depends only on that flow set and the interval's
    accumulators, and rebuilds it when a flow starts or ends or an interval
    begins: each flow's (in, out) usage cells in the interval's `usage`
    dict, and the flows crossing the monitor with their sample buckets.

    When `run` returns, it adds to `counters`, when given, the rate
    solver's counters (see RateSolver.COUNTERS) under "solver", and under
    "loop" its `steps` (loop iterations) and the rate hook's `fifo_stops`
    (0 without a hook)."""

    def __init__(self, topo: Topology, tenants: dict, generator: DemandGenerator,
                 *, interval: float = 4.0, policy: str = "qshare",
                 weight_mode: str = "normalized", seed: int = 0,
                 monitor: tuple, sample: float = 0.1,
                 initial_dedicated: list | None = None,
                 rate_hook=None, quantum: float | None = None,
                 counters: dict | None = None):
        self.topo = topo
        self.tenants = tenants
        self.generator = generator
        self.interval = interval
        self.policy = policy
        self.seed = seed
        self.sample = sample
        self.rate_hook = rate_hook
        self.quantum = quantum
        self.counters = counters
        self.rng = np.random.default_rng([seed, 0xB1ED])
        self.vm_map = {tid: _expand_vms(t) for tid, t in tenants.items()}
        self.controller = BindingController(queue_count=topo.max_queue_count)
        self.solver = RateSolver(topo, mode="static" if policy == "static" else "wfq",
                                 weight_mode=weight_mode)
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
        # the flows and interval accumulators _advance last carried, each
        # flow with its usage cells, and the monitor-crossing flows alone
        # and with their (monitor, tenant) sample buckets
        self._stepped: list | None = None
        self._accumulators: tuple | None = None
        self._cell_of: dict = {}  # fid -> cells, for these accumulators
        self._cells: list = []
        self._crossing: list = []
        self._crossing_buckets: list = []
        link = topo.links[link_key(*monitor)]
        nic_g = {}
        for tid, t in tenants.items():
            n = t.request.vm_count
            for hyp, m in t.vm_placement.items():
                nic_g[(tid, hyp)] = t.request.per_vm_guarantee * min(m, n - m)
        self.stats = SegmentStats(
            monitor, link.capacity,
            {tid: link.reservations.get(tid, 0.0) for tid in tenants}, nic_g)

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
        next_quantum = self.quantum if self.quantum is not None else math.inf
        usage: dict = {}
        buckets: dict = {}
        ten_bytes: dict = {}
        fcts: list = []
        dirty = True
        while t < horizon - _TOL:
            if dirty:
                self._resolve(t)
                dirty = False
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
            crossing, done = self._advance(t, t_next, usage, buckets,
                                           ten_bytes)
            if t >= measure_from - _TOL:
                self.stats.observe(t, t_next, crossing,
                                   self.controller.state.dedicated,
                                   self._all_unsaturated)
            t = t_next
            for f in done:
                del self.flows[f.fid]
                fcts.append((f.fid, f.tenant, f.size, f.start, t - f.start, f.client))
                nxt = self.generator.after_completion(f.client, t)
                seq += 1
                heapq.heappush(events, (nxt, seq, ("request", f.client)))
                dirty = True
            while events and events[0][0] <= t + _TOL:
                _, _, ev = heapq.heappop(events)
                if self._handle_event(ev, t):
                    dirty = True
            if t >= next_quantum - _TOL:
                if self.rate_hook is not None:
                    self.rate_hook.on_quantum(self, t)
                next_quantum += self.quantum
                dirty = True
            if t >= int_start + self.interval - _TOL and t < horizon - _TOL:
                interval_idx += 1
                self._interval_boundary(interval_idx, int_start, t, usage,
                                        buckets, ten_bytes, fcts)
                int_start = t
                usage, buckets, ten_bytes, fcts = {}, {}, {}, []
                dirty = True
        if usage or buckets or fcts or self.flows:
            interval_idx += 1
            self._interval_boundary(interval_idx, int_start, t, usage, buckets,
                                    ten_bytes, fcts, rebind=False)
        if self.counters is not None:
            for group, values in (
                    ("solver", {name: getattr(self.solver, name)
                                for name in RateSolver.COUNTERS}),
                    ("loop", {"steps": self.steps,
                              "fifo_stops": getattr(self.rate_hook,
                                                    "fifo_stops", 0)})):
                sums = self.counters.setdefault(group, {})
                for name, value in values.items():
                    sums[name] = sums.get(name, 0) + value
        return self.reports

    def _handle_event(self, ev, t: float) -> bool:
        kind = ev[0]
        if kind in ("activate", "request"):
            idx = ev[1]
            flow = self.generator.next_flow(self, idx, t)
            if flow is not None:
                flow.client = idx
                self.flows[flow.fid] = flow
                return True
        return False

    def _resolve(self, t: float) -> None:
        flows = list(self.flows.values())
        if self.rate_hook is not None:
            self.rate_hook.compute(self, flows, t)
        else:
            self.solver.solve(flows)

    def _carry(self, accumulators: tuple) -> None:
        """Carry the current flow set into the interval's `accumulators`
        (usage, buckets, ten_bytes). A flow keeps its cells while the
        accumulators stay; a new flow's missing entries are created in flow
        order, as a per-flow pass would create them."""
        usage, buckets, ten_bytes = accumulators
        if not _same_objects(accumulators, self._accumulators):
            self._accumulators, self._cell_of = accumulators, {}
        cell_of = self._cell_of
        self._stepped = list(self.flows.values())
        self._cells = []
        for f in self._stepped:
            cells = cell_of.get(f.fid)
            if cells is None or cells[0] is not f:
                u = usage.setdefault(f.tenant, {})
                src = u.setdefault(f.src_hyp, [0.0, 0.0])
                dst = u.setdefault(f.dst_hyp, [0.0, 0.0])
                if self.monitor in f.route:
                    cells = (f, src, dst, buckets.setdefault(self.monitor, {}),
                             ten_bytes.setdefault(f.tenant, {}))
                else:
                    cells = (f, src, dst, None, None)
                cell_of[f.fid] = cells
            self._cells.append(cells)
        self._crossing_buckets = [c for c in self._cells if c[3] is not None]
        self._crossing = [c[0] for c in self._crossing_buckets]

    def _advance(self, t0: float, t1: float, usage, buckets,
                 ten_bytes) -> tuple:
        """Move every flow on by its rate over [t0, t1), adding its bytes to
        `usage` and, when it crosses the monitored link, to the monitor's and
        its tenant's sample buckets. Returns the flows crossing the monitor
        and the flows now complete, each in flow order."""
        dt = t1 - t0
        if dt <= 0:
            return [], [f for f in self.flows.values()
                        if f.rate > 0 and f.remaining <= 1e-6]
        accumulators = (usage, buckets, ten_bytes)
        if not (_same_objects(self.flows.values(), self._stepped)
                and _same_objects(accumulators, self._accumulators)):
            self._carry(accumulators)
        done = []
        for f, src, dst, _, _ in self._cells:
            rate = f.rate
            moved = rate * BYTES_PER_MBPS_SEC * dt
            left = f.remaining - moved
            f.remaining = left = 0.0 if left < 0.0 else left
            src[1] += moved
            dst[0] += moved
            if left <= 1e-6 and rate > 0:
                done.append(f)
        if self._crossing:
            spans = _spans(t0, t1, self.sample)
            for f, _, _, monitor_bucket, tenant_bucket in self._crossing_buckets:
                per_s = f.rate * BYTES_PER_MBPS_SEC
                for bucket in (monitor_bucket, tenant_bucket):
                    for i, width in spans:
                        bucket[i] = bucket.get(i, 0.0) + per_s * width
        return self._crossing, done

    def _all_unsaturated(self, flow, excluding) -> bool:
        for dkey in flow.route:
            if dkey == excluding:
                continue
            total = sum(f.rate for f in self.flows.values() if dkey in f.route)
            if total >= self.topo.links[link_key(*dkey)].capacity * (1 - 1e-6):
                return False
        return True

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
