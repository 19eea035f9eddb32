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

from .fluid import LOOPBACK_MBPS, _rate, _same_objects

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
        total = sum(f.rate for f in on_link.get(dkey, ()))
        if total > cap * (1 + 1e-9):
            out[dkey] = total / cap
    return out


def fifo_scale(flows: list, capacities: dict, max_rounds: int = 50,
               goodput_exponent: float = 1.0, on_link: dict | None = None,
               offered: dict | None = None) -> bool:
    """Scale flow rates down per overloaded link until no link exceeds
    capacity. With goodput_exponent 1 this is proportional FIFO sharing of
    the offered load; above 1 the delivered goodput additionally collapses
    with overload (drop-tail losses feeding retransmissions). Each round
    scales the most overloaded link, the first in `capacities` order on a
    tie. Returns False when `max_rounds` rounds left some link over.

    `on_link` maps each link to the flows crossing it in flow order and
    `offered` each link of `capacities` to its offered load, summed in that
    order; both are derived from `flows` when not given. When no link is
    offered above capacity, nothing is scaled."""
    if on_link is None:
        on_link = {}
        for f in flows:
            for dkey in f.route:
                on_link.setdefault(dkey, []).append(f)
    if offered is None:
        offered = {dkey: sum(f.rate for f in on_link.get(dkey, ()))
                   for dkey in capacities}
    if not any(offered[dkey] > cap * (1 + 1e-9)
               for dkey, cap in capacities.items()):
        return True
    if goodput_exponent > 1.0:
        shrunk = False  # offered loads hold until some link is scaled
        for dkey, cap in capacities.items():
            load = (sum(f.rate for f in on_link.get(dkey, ())) if shrunk
                    else offered[dkey])
            if load > cap * (1 + 1e-9):
                shrink = (cap / load) ** goodput_exponent
                for f in on_link[dkey]:
                    f.rate *= shrink
                shrunk = True
    for _ in range(max_rounds):
        over = _overloads(on_link, capacities)
        if not over:
            return True
        dkey = max(over, key=over.get)
        for f in on_link[dkey]:
            f.rate /= over[dkey]
    return not _overloads(on_link, capacities)


class EndhostRatePolicy:
    """Rate hook for the fluid engine: per-pair limiters driven by probe-
    quantum congestion feedback, enforced on FIFO links.

    Everything that depends only on the flow set is carried between calls
    and rebuilt when a flow starts or ends (the flows passed differ by
    identity from the last call's). `compute` carries the routed flows,
    their pair keys, each link's flows in flow order and the links'
    capacities in first-touch order, so a call reads the limiters, sums
    each link's offered load once and scales. `on_quantum` carries the
    beliefs, the sorted active pairs with each one's route and guarantee,
    and prunes idle limiters only when the limiters hold some other pair,
    so a quantum runs only `ra_update` per pair.

    `fifo_stops` counts the compute calls whose FIFO scaling stopped at its
    round cap with some link still over capacity."""

    def __init__(self, topo, tenants: dict, cfg: RAConfig):
        self.topo = topo
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
        # compute's flow set and what it derives from it
        self._flows: list | None = None
        self._loopback: list = []
        self._routed: list = []
        self._keys: list = []
        self._on_link: dict = {}
        self._caps: dict = {}
        # on_quantum's flow set, its active pair keys, and each active
        # pair's (key, route, guarantee) in key order; the flow set's
        # beliefs are `beliefs`
        self._quantum_flows: list | None = None
        self._active: set = set()
        self._pairs: list = []

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

    def _carry_flows(self, flows: list) -> None:
        self._flows = list(flows)
        self._loopback = [f for f in flows if not f.route]
        self._routed = [f for f in flows if f.route]
        self._keys = [(f.tenant, f.src_vm, f.dst_vm) for f in self._routed]
        on_link: dict = {}  # first-touch order, each link's flows in order
        for f in self._routed:
            for dkey in f.route:
                on_link.setdefault(dkey, []).append(f)
        self._on_link = on_link
        self._caps = {dkey: self.capacities[dkey] for dkey in on_link}

    def compute(self, sim, flows: list, t: float) -> None:
        if not _same_objects(flows, self._flows):
            self._carry_flows(flows)
        for f in self._loopback:
            f.rate = LOOPBACK_MBPS
        limiters = self.limiters
        for f, key in zip(self._routed, self._keys):
            rate = limiters.get(key)
            if rate is None:
                rate = limiters[key] = self._pair_guarantee(f)
                self.holds[key] = 0
            f.rate = rate
        caps = self._caps
        offered = {dkey: sum(map(_rate, on))
                   for dkey, on in self._on_link.items()}
        # congestion observed on offered load, before FIFO scaling
        threshold = 1.0 - (self.cfg.headroom if self.cfg.mode == "conservative" else 0.0)
        self.congested_links = {dkey for dkey, load in offered.items()
                                if load > caps[dkey] * threshold + _TOL}
        if not fifo_scale(self._routed, caps,
                          goodput_exponent=self.cfg.overload_goodput_exponent,
                          on_link=self._on_link, offered=offered):
            self.fifo_stops += 1

    def _carry_pairs(self, flows) -> None:
        self._quantum_flows = list(flows)
        active_pairs = {(f.tenant, f.src_vm, f.dst_vm): f
                        for f in flows if f.route}
        beliefs: dict = {tid: {} for tid in self.tenants}
        for (tid, src, dst) in active_pairs:
            beliefs[tid].setdefault(("src", src), set()).add(dst)
            beliefs[tid].setdefault(("dst", dst), set()).add(src)
        self.beliefs = beliefs
        self._active = set(active_pairs)
        self._pairs = [(key, f.route, self._pair_guarantee(f))
                       for key, f in sorted(active_pairs.items())]

    def on_quantum(self, sim, t: float) -> None:
        if not _same_objects(sim.flows.values(), self._quantum_flows):
            self._carry_pairs(sim.flows.values())
        limiters, holds = self.limiters, self.holds
        # rate-allocation state decays with the pair: an idle pair's limiter
        # is dropped, so traffic-matrix changes pay the re-learning lag
        if not limiters.keys() <= self._active:
            for key in [k for k in limiters if k not in self._active]:
                del limiters[key]
                holds.pop(key, None)
        congested_links, cfg = self.congested_links, self.cfg
        for key, route, g in self._pairs:
            limiters[key], holds[key] = ra_update(
                limiters.get(key, g), g, not congested_links.isdisjoint(route),
                holds.get(key, 0), cfg)
