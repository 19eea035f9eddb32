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
               goodput_exponent: float = 1.0) -> bool:
    """Scale flow rates down per overloaded link until no link exceeds
    capacity. With goodput_exponent 1 this is proportional FIFO sharing of
    the offered load; above 1 the delivered goodput additionally collapses
    with overload (drop-tail losses feeding retransmissions). Each round
    scales the most overloaded link, the first in `capacities` order on a
    tie. Returns False when `max_rounds` rounds left some link over."""
    on_link: dict = {}  # the flows crossing each link, in flow order
    for f in flows:
        for dkey in f.route:
            on_link.setdefault(dkey, []).append(f)
    if goodput_exponent > 1.0:
        for dkey, cap in capacities.items():
            offered = sum(f.rate for f in on_link.get(dkey, ()))
            if offered > cap * (1 + 1e-9):
                shrink = (cap / offered) ** goodput_exponent
                for f in on_link[dkey]:
                    f.rate *= shrink
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

    def _pair_key(self, f):
        return (f.tenant, f.src_vm, f.dst_vm)

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

    def compute(self, sim, flows: list, t: float) -> None:
        routed = []
        offered: dict = {}  # per directed link, summed in flow order
        for f in flows:
            if not f.route:
                f.rate = 100_000.0
                continue
            key = self._pair_key(f)
            if key not in self.limiters:
                self.limiters[key] = self._pair_guarantee(f)
                self.holds[key] = 0
            f.rate = self.limiters[key]
            routed.append(f)
            for dkey in f.route:
                offered[dkey] = offered.get(dkey, 0.0) + f.rate
        caps = {dkey: self.capacities[dkey] for dkey in offered}
        # congestion observed on offered load, before FIFO scaling
        threshold = 1.0 - (self.cfg.headroom if self.cfg.mode == "conservative" else 0.0)
        self.congested_links = {dkey for dkey, load in offered.items()
                                if load > caps[dkey] * threshold + _TOL}
        if not fifo_scale(routed, caps,
                          goodput_exponent=self.cfg.overload_goodput_exponent):
            self.fifo_stops += 1

    def on_quantum(self, sim, t: float) -> None:
        flows = [f for f in sim.flows.values() if f.route]
        active_pairs = {self._pair_key(f): f for f in flows}
        # update beliefs from this quantum's active set
        beliefs = {tid: {} for tid in self.tenants}
        for (tid, src, dst), f in active_pairs.items():
            beliefs[tid].setdefault(("src", src), set()).add(dst)
            beliefs[tid].setdefault(("dst", dst), set()).add(src)
        self.beliefs = beliefs
        # rate-allocation state decays with the pair: an idle pair's limiter
        # is dropped, so traffic-matrix changes pay the re-learning lag
        for key in [k for k in self.limiters if k not in active_pairs]:
            del self.limiters[key]
            self.holds.pop(key, None)
        for key, f in sorted(active_pairs.items()):
            g = self._pair_guarantee(f)
            congested = not self.congested_links.isdisjoint(f.route)
            rate, hold = ra_update(self.limiters.get(key, g), g, congested,
                                   self.holds.get(key, 0), self.cfg)
            self.limiters[key] = rate
            self.holds[key] = hold
