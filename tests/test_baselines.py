import math

import pytest

from qshare import baselines as BL
from qshare import fluid as F
from qshare import placement as P
from qshare import scenarios as S
from qshare import topology as T
from qshare.tenants import TenantRequest


def test_raconfig_modes():
    cons = BL.RAConfig(mode="conservative")
    assert cons.headroom > 0 and cons.hold_increase > 0 and cons.rate_caution < 1
    aggr = BL.RAConfig(mode="aggressive")
    assert aggr.headroom == 0 and aggr.hold_increase == 0 and aggr.rate_caution == 1
    with pytest.raises(ValueError):
        BL.RAConfig(mode="bogus")


def test_gp_split_rules():
    topo = T.build_testbed()
    t = P.embed_fixed(topo, TenantRequest(10, 9.0), "t", "a000",
                      {h: 1 for h in topo.hypervisors()})
    policy = BL.EndhostRatePolicy(topo, {"t": t}, BL.RAConfig())
    vms = F._expand_vms(t)
    pair = F.Flow(1, "t", 0, 5, vms[0], vms[5], 1e6, 0.0)

    def guarantee(src_peers, dst_peers):
        policy.beliefs["t"] = {("src", 0): src_peers, ("dst", 5): dst_peers}
        return policy._pair_guarantee(pair)

    # single believed peer on both ends: the pair carries the full hose B
    assert math.isclose(guarantee({5}, {0}), 9.0)
    # three believed peers: B/3 each
    assert math.isclose(guarantee({5, 6, 7}, {0}), 3.0)
    # a pair outside the belief re-learns from the all-peers seed
    assert math.isclose(guarantee({5}, {9}), 1.0)  # 9 / (10 - 1)


def test_ra_update_dynamics():
    cfg = BL.RAConfig(mode="aggressive")
    rate, hold = BL.ra_update(100.0, 50.0, congested=True, hold=0, cfg=cfg)
    assert rate == 75.0 and hold == 0
    rate, hold = BL.ra_update(50.0, 50.0, congested=False, hold=0, cfg=cfg)
    assert rate == 50.0 + cfg.ai_gain * 50.0
    cons = BL.RAConfig(mode="conservative")
    rate, hold = BL.ra_update(100.0, 50.0, congested=True, hold=0, cfg=cons)
    assert hold == cons.hold_increase
    held, hold = BL.ra_update(rate, 50.0, congested=False, hold=hold, cfg=cons)
    assert held == rate and hold == cons.hold_increase - 1
    above, _ = BL.ra_update(60.0, 50.0, congested=False, hold=0, cfg=cons)
    assert math.isclose(above, 60.0 + cons.ai_gain * cons.rate_caution * 50.0)


def test_aggressive_converges_to_capacity_in_bounded_quanta():
    cfg = BL.RAConfig(mode="aggressive")
    g, cap = 50.0, 1000.0
    rate, hold = g, 0
    bound = math.ceil((cap - g) / (cfg.ai_gain * g)) + 1
    for quantum in range(bound):
        if rate >= cap:
            break
        rate, hold = BL.ra_update(rate, g, congested=False, hold=hold, cfg=cfg)
    assert rate >= cap


def test_fifo_scale_respects_capacity_and_collapses_goodput():
    def mk():
        return [type("F", (), {"rate": 600.0, "route": (("a", "b"),)})(),
                type("F", (), {"rate": 600.0, "route": (("a", "b"),)})()]
    flows = mk()
    BL.fifo_scale(flows, {("a", "b"): 1000.0}, goodput_exponent=1.0)
    assert math.isclose(sum(f.rate for f in flows), 1000.0)
    flows = mk()
    BL.fifo_scale(flows, {("a", "b"): 1000.0}, goodput_exponent=2.0)
    assert math.isclose(sum(f.rate for f in flows), 1000.0 * (1000.0 / 1200.0))


def test_tradeoff_scenario_orderings():
    doc = {"name": "tradeoff", "kind": "tradeoff", "seed": 3,
           "duration_s": 12.0, "size_scale": 50.0}
    summary, _ = S.run_tradeoff(doc)
    assert summary["conservative_unreserved_waste"] >= 0.30
    assert summary["qshare_capacity_deficit"] <= 0.09
    assert summary["qshare_mean_mbps"] >= summary["conservative_mean_mbps"]
    assert summary["aggressive_violating_intervals"] >= 1
    assert summary["qshare_violating_intervals"] == 0


def test_static_never_exceeds_and_never_starves(rng):
    from test_fluid import random_wfq_case
    from qshare import fluid as F
    for _ in range(60):
        topo, tenants, owners, flows = random_wfq_case(rng)
        if not flows:
            continue
        solver = F.RateSolver(topo, mode="static")
        solver.rebuild({})
        solver.solve(flows)
        per = {}
        for f in flows:
            for dk in f.route:
                per.setdefault(dk, {}).setdefault(f.tenant, 0.0)
                per[dk][f.tenant] += f.rate
        for dk, ten in per.items():
            uk = T.link_key(*dk)
            for tid, got in ten.items():
                g = topo.links[uk].reservations.get(tid, 0.0)
                assert got <= g * (1 + 1e-9)
        # no flow beats its tenant's tightest per-link reservation
        for f in flows:
            caps = [topo.links[T.link_key(*dk)].reservations.get(f.tenant, 0.0)
                    for dk in f.route]
            assert f.rate <= min(caps) * (1 + 1e-9)
