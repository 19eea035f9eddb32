"""Comparison policy at fluid fidelity: an endhost guarantee-partitioning +
rate-allocation model (conservative and aggressive variants). The other
baseline, static reservation, is the rate solver's static mode
(`fluid.RateSolver`).

The endhost baseline keeps a per-VM-pair rate limiter updated every probe
quantum from congestion feedback, with the classic conservative mechanisms
(headroom, hold-increase, rate-caution) that trade utilization for guarantee
safety. Links are FIFO here, not WFQ: when offered load exceeds capacity,
every flow is scaled down proportionally, which is exactly how an aggressive
probe hurts other tenants' guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fluid import LOOPBACK_MBPS, FlowChange, FlowIndex, _rate

_TOL = 1e-9


@dataclass
class RAConfig:
    """Endhost rate-allocation parameters.

    overload_goodput_exponent models drop-tail goodput under sustained
    overload: flows on a link offered rho > 1 times its capacity deliver
    goodput scaled by (1/rho)**exponent. 1.0 is lossless FIFO; 2.0
    approximates loss-and-retransmit collapse, the regime aggressive probing
    creates.
    """

    mode: str = "conservative"
    headroom: float = 0.1
    hold_increase: int = 3
    rate_caution: float = 0.5
    probe_period: float = 0.015
    ai_gain: float = 0.25
    overload_goodput_exponent: float = 2.0

    def __post_init__(self):
        if self.mode not in ("conservative", "aggressive"):
            raise ValueError("mode must be conservative or aggressive")
        if self.mode == "aggressive":
            # all three conservative mechanisms disabled
            self.headroom = 0.0
            self.hold_increase = 0
            self.rate_caution = 1.0


def ra_update(rate: float, guarantee: float, congested: bool, hold: int,
              cfg: RAConfig) -> tuple[float, int]:
    """One quantum of the rate-allocation control law for a single pair.
    Returns (new_rate, new_hold)."""
    if congested:
        return max(guarantee, guarantee + (rate - guarantee) * 0.5), cfg.hold_increase
    if hold > 0:
        return rate, hold - 1
    step = cfg.ai_gain * max(guarantee, 1e-6)  # weighted increase
    if rate > guarantee:
        step *= cfg.rate_caution
    return rate + step, 0


def _overloads(on_link: dict, capacities: dict) -> dict:
    """Offered load over capacity of every link above it, in `capacities`
    order."""
    out = {}
    for dkey, cap in capacities.items():
        total = sum(f.rate for f in on_link.get(dkey, {}).values())
        if total > cap * (1 + 1e-9):
            out[dkey] = total / cap
    return out


def fifo_scale(on_link: dict, capacities: dict, offered: dict,
               max_rounds: int = 50, goodput_exponent: float = 1.0) -> bool:
    """Scale flow rates down per overloaded link until no link exceeds
    capacity. With goodput_exponent 1 this is proportional FIFO sharing of
    the offered load; above 1 the delivered goodput additionally collapses
    with overload (drop-tail losses feeding retransmissions). Each round
    scales the most overloaded link, the first in `capacities` order on a
    tie. Returns False when `max_rounds` rounds left some link over.

    `on_link` maps each link to the flows crossing it by fid (a
    fluid.FlowIndex's `links`) and `offered` each link of `capacities` to
    its offered load, summed in fid order. When no link is offered above
    capacity, nothing is scaled."""
    if not any(offered[dkey] > cap * (1 + 1e-9)
               for dkey, cap in capacities.items()):
        return True
    if goodput_exponent > 1.0:
        shrunk = False  # offered loads hold until some link is scaled
        for dkey, cap in capacities.items():
            load = (sum(f.rate for f in on_link.get(dkey, {}).values())
                    if shrunk else offered[dkey])
            if load > cap * (1 + 1e-9):
                shrink = (cap / load) ** goodput_exponent
                for f in on_link[dkey].values():
                    f.rate *= shrink
                shrunk = True
    for _ in range(max_rounds):
        over = _overloads(on_link, capacities)
        if not over:
            return True
        dkey = max(over, key=over.get)
        for f in on_link[dkey].values():
            f.rate /= over[dkey]
    return not _overloads(on_link, capacities)


class EndhostRatePolicy:
    """Rate hook for the fluid engine: per-pair limiters driven by probe-
    quantum congestion feedback, enforced on FIFO links.

    Each crossed link's flows, by fid, are the simulation's flow index's
    (a fluid.FlowIndex), which the hook only reads. What else depends only
    on the flow set is carried between calls: the loopback flows and each
    active pair's routed flows, by fid, and the crossed links with their
    capacities in first-touch order (the order in which a pass over the
    flows in fid order touches them, which fifo_scale breaks ties in).
    `follow` applies each simulation step's record (a fluid.FlowChange),
    which the event loop pushes once per step that changed the flows, after
    applying it to the index, in the size of the change. Only a link whose
    first flow leaves while another stays can move, so the order is rebuilt
    only then. So `compute` reads each pair's limiter once, sums each link's
    offered load once and scales the flows followed so far.

    The beliefs and each believed pair's route and guarantee are carried
    from one quantum to the next as well. A pair's guarantee reads only its
    tenant's belief at its source VM and at its destination VM, so a
    quantum after some pairs started or stopped updates the beliefs from
    those pairs alone, re-derives the guarantees of the pairs of their
    tenant that share a source or a destination VM with one of them, and
    drops the limiters of the pairs that stopped; every quantum then runs
    `ra_update` per believed pair.

    `fifo_stops` counts the compute calls whose FIFO scaling stopped at its
    round cap with some link still over capacity."""

    def __init__(self, topo, tenants: dict, cfg: RAConfig):
        self.tenants = tenants
        self.cfg = cfg
        self.capacities = {dkey: link.capacity
                           for (u, v), link in topo.links.items()
                           for dkey in ((u, v), (v, u))}
        self.fifo_stops = 0
        self.limiters: dict = {}
        self.holds: dict = {}
        self.beliefs: dict = {tid: {} for tid in tenants}
        self.congested_links: set = set()
        self._loopback: dict = {}  # None -> the loopback flows by fid
        self._pairs: dict = {}  # pair key -> its routed flows by fid
        self._index = FlowIndex()  # the simulation's, once followed
        self._caps: dict = {}  # link -> capacity, in first-touch order
        self._guarantees: dict = {}  # believed pair -> (route, guarantee)
        # the pairs that started or stopped since the last quantum
        self._changed: dict = {}

    def _pair_guarantee(self, f) -> float:
        """Believed pairs split each endpoint's hose guarantee; a pair the
        current belief does not cover gets only the all-peers seed until the
        partition is re-learned (the traffic-matrix change lag)."""
        tenant = self.tenants[f.tenant]
        b = tenant.request.per_vm_guarantee
        n = tenant.request.vm_count
        seed = b / max(n - 1, 1)
        belief = self.beliefs[f.tenant]
        gs = belief.get(("src", f.src_vm))
        gd = belief.get(("dst", f.dst_vm))
        g_src = b / len(gs) if gs and f.dst_vm in gs else seed
        g_dst = b / len(gd) if gd and f.src_vm in gd else seed
        return min(g_src, g_dst)

    def follow(self, change: FlowChange, index: FlowIndex) -> None:
        """Apply one step's record; `index` is the simulation's flow index,
        the record already applied to it."""
        change.regroup(self._loopback, lambda f: () if f.route else (None,))
        self._changed.update(dict.fromkeys(change.regroup(
            self._pairs, lambda f: (
                ((f.tenant, f.src_vm, f.dst_vm),) if f.route else ()))))
        self._index = index
        links = index.links
        # links stay in the order a pass over the flows touches them: a new
        # link comes last, and only a link whose first flow left while
        # another stays can move
        if any(dkey in links and next(iter(links[dkey])) > f.fid
               for f in change.left for dkey in f.route):
            self._caps = {dkey: self.capacities[dkey] for dkey in sorted(
                links, key=lambda dkey: next((f.fid, f.route.index(dkey))
                                             for f in links[dkey].values()))}
            return
        for dkey in {d for f in change.left for d in f.route} - links.keys():
            del self._caps[dkey]
        self._caps.update((dkey, self.capacities[dkey])
                          for f in change.added for dkey in f.route)

    def compute(self, sim, flows: list, t: float) -> None:
        for f in self._loopback.get(None, {}).values():
            f.rate = LOOPBACK_MBPS
        limiters = self.limiters
        for key, pair in self._pairs.items():
            rate = limiters.get(key)
            if rate is None:
                rate = limiters[key] = self._pair_guarantee(
                    next(iter(pair.values())))
                self.holds[key] = 0
            for f in pair.values():
                f.rate = rate
        on_link, caps = self._index.links, self._caps
        offered = {dkey: sum(map(_rate, on.values()))
                   for dkey, on in on_link.items()}
        # congestion observed on offered load, before FIFO scaling
        threshold = 1.0 - (self.cfg.headroom if self.cfg.mode == "conservative" else 0.0)
        self.congested_links = {dkey for dkey, load in offered.items()
                                if load > caps[dkey] * threshold + _TOL}
        if not fifo_scale(on_link, caps, offered,
                          goodput_exponent=self.cfg.overload_goodput_exponent):
            self.fifo_stops += 1

    def on_quantum(self, sim, t: float) -> None:
        pairs, limiters, holds = self._pairs, self.limiters, self.holds
        guarantees = self._guarantees
        if self._changed:
            beliefs, stale = self.beliefs, []
            for key in self._changed:
                tid, src, dst = key
                active = key in pairs
                if not active:
                    # rate-allocation state decays with the pair: an idle
                    # pair's limiter is dropped, so traffic-matrix changes
                    # pay the re-learning lag
                    limiters.pop(key, None)
                    holds.pop(key, None)
                if active == (key in guarantees):
                    continue  # stopped and started again, or the reverse
                guarantees.pop(key, None)
                stale.append(key)
                for end, peer in ((("src", src), dst), (("dst", dst), src)):
                    ends = beliefs[tid].setdefault(end, set())
                    (ends.add if active else ends.discard)(peer)
                    if not ends:
                        del beliefs[tid][end]
            self._changed = {}
            # the believed pairs that share an endpoint with a changed one
            redo: dict = {}
            for tid, src, dst in stale:
                belief = beliefs[tid]
                redo.update(dict.fromkeys(
                    (tid, src, d) for d in belief.get(("src", src), ())))
                redo.update(dict.fromkeys(
                    (tid, s, dst) for s in belief.get(("dst", dst), ())))
            for key in redo:
                f = next(iter(pairs[key].values()))
                guarantees[key] = f.route, self._pair_guarantee(f)
        congested_links, cfg = self.congested_links, self.cfg
        for key, (route, g) in guarantees.items():
            limiters[key], holds[key] = ra_update(
                limiters.get(key, g), g, not congested_links.isdisjoint(route),
                holds.get(key, 0), cfg)
