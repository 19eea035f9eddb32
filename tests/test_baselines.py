import collections
import copy
import functools
import math
import types

import pytest

import oracles
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


def _random_fifo_case(rng):
    """Up to 30 flows over up to six directed links, each flow crossing one
    to three of them at a random rate; the capacities come in random link
    order, so that order and not the links' names breaks ties."""
    links = [(f"s{i}", f"d{i}") for i in range(int(rng.integers(1, 7)))]
    caps = {links[i]: float(rng.integers(5, 20) * 100)
            for i in rng.permutation(len(links))}
    flows = []
    for fid in range(1, int(rng.integers(1, 31)) + 1):
        hops = rng.choice(len(links), replace=False,
                          size=int(rng.integers(1, min(3, len(links)) + 1)))
        flows.append(F.Flow(fid, "t", 0, 1, "a", "b", 1e9, 0.0,
                            rate=float(rng.uniform(1.0, 600.0)),
                            route=tuple(links[h] for h in hops)))
    return flows, caps


def test_fifo_scale_matches_the_scanning_reference(rng):
    outcomes = set()
    for case in range(300):
        flows, caps = _random_fifo_case(rng)
        exponent = float(rng.choice([1.0, 2.0]))
        rounds = int(rng.choice([1, 2, 50]))
        ref = copy.deepcopy(flows)
        met = BL.fifo_scale(flows, caps, rounds, exponent)
        assert met == oracles.fifo_scale_reference(ref, caps, rounds, exponent)
        assert [f.rate for f in flows] == [f.rate for f in ref], f"case {case}"
        outcomes.add(met)
    assert outcomes == {True, False}


def _pair_flows(rng, tenants, count):
    """`count` flows between random distinct VMs of random tenants."""
    flows = []
    tids = sorted(tenants)
    for fid in range(1, count + 1):
        tid = tids[int(rng.integers(0, len(tids)))]
        vms = F._expand_vms(tenants[tid])
        src, dst = (int(v) for v in rng.choice(len(vms), size=2, replace=False))
        flows.append(F.Flow(fid, tid, src, dst, vms[src], vms[dst], 1e9, 0.0,
                            route=F.tenant_route(tenants[tid], vms[src],
                                                 vms[dst])))
    return flows


@pytest.mark.parametrize("mode", ["aggressive", "conservative"])
def test_compute_matches_the_scanning_reference(rng, monkeypatch, mode):
    topo = T.build_testbed()
    tenants = {tid: P.embed_fixed(topo, TenantRequest(10, 9.0), tid, "a000",
                                  {h: 1 for h in topo.hypervisors()})
               for tid in ("t0", "t1", "t2")}
    cfg = BL.RAConfig(mode=mode)
    threshold = 1.0 - cfg.headroom
    for case in range(40):
        flows = _pair_flows(rng, tenants, int(rng.integers(1, 40)))
        limiters = {(f.tenant, f.src_vm, f.dst_vm): float(rng.uniform(1, 500))
                    for f in flows}
        policy, ref_policy = (BL.EndhostRatePolicy(topo, tenants, cfg)
                              for _ in range(2))
        policy.limiters, ref_policy.limiters = dict(limiters), dict(limiters)
        ref = copy.deepcopy(flows)
        policy.compute(None, flows, 0.0)
        offered = copy.deepcopy(ref)
        for f in offered:
            f.rate = limiters[(f.tenant, f.src_vm, f.dst_vm)]
        with monkeypatch.context() as m:
            m.setattr(BL, "fifo_scale", oracles.fifo_scale_reference)
            ref_policy.compute(None, ref, 0.0)
        assert [f.rate for f in flows] == [f.rate for f in ref], f"case {case}"
        caps = {dkey: topo.links[T.link_key(*dkey)].capacity
                for f in flows for dkey in f.route}
        assert policy.congested_links == oracles.congested_reference(
            offered, caps, threshold)


def test_fifo_stops_count_the_calls_left_over_capacity(monkeypatch):
    topo = T.build_testbed()
    t = P.embed_fixed(topo, TenantRequest(10, 9.0), "t", "a000",
                      {h: 1 for h in topo.hypervisors()})
    policy = BL.EndhostRatePolicy(topo, {"t": t},
                                  BL.RAConfig(overload_goodput_exponent=1.0))
    vms = F._expand_vms(t)

    def pair(fid, src, dst, rate):
        policy.limiters[("t", src, dst)] = rate
        return F.Flow(fid, "t", src, dst, vms[src], vms[dst], 1e9, 0.0,
                      route=F.tenant_route(t, vms[src], vms[dst]))

    # two same-rack flows, one per rack: disjoint links, both over 1000 Mbps
    flows = [pair(1, 0, 1, 1500.0), pair(2, 5, 6, 1200.0)]
    monkeypatch.setattr(BL, "fifo_scale",
                        functools.partial(BL.fifo_scale, max_rounds=1))
    policy.compute(None, flows, 0.0)
    # the one round scaled the worse link only
    assert [f.rate for f in flows] == [1000.0, 1200.0]
    assert policy.fifo_stops == 1
    policy.compute(None, flows[:1], 0.0)
    assert flows[0].rate == 1000.0 and policy.fifo_stops == 1


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


def _endhost_state(policy, flows):
    """Everything the endhost policy leaves behind, floats as `float.hex`."""
    return ([f.rate.hex() for f in flows], policy.congested_links,
            {k: v.hex() for k, v in policy.limiters.items()}, policy.holds,
            policy.beliefs, policy.fifo_stops)


@pytest.mark.parametrize("exponent", [1.0, 2.0])
@pytest.mark.parametrize("mode", ["aggressive", "conservative"])
def test_endhost_policy_matches_the_rederiving_reference(rng, mode, exponent):
    """Random arrivals, departures, quanta and limiter jolts, with compute
    called through a simulation's flows or directly on a sublist with no
    simulation; after every call the carried policy and the reference that
    re-derives everything agree bit for bit."""
    topo = T.build_testbed(nic_mbps=40.0, core_mbps=60.0)
    hyps = topo.hypervisors()
    tenants = {tid: P.embed_fixed(topo, TenantRequest(10, 2.0), tid, "a000",
                                  {h: 1 for h in hyps})
               for tid in ("t0", "t1")}
    # two VMs per server in rack 0: pairs on one server are loopback flows
    tenants["t2"] = P.embed_fixed(topo, TenantRequest(10, 2.0), "t2", "a000",
                                  {h: 2 for h in hyps[:5]})
    cfg = BL.RAConfig(mode=mode, overload_goodput_exponent=exponent)
    policies = (BL.EndhostRatePolicy(topo, tenants, cfg),
                oracles.EndhostReference(topo, tenants, cfg))
    sims = [types.SimpleNamespace(flows={}) for _ in policies]
    seen = collections.Counter()
    fid = 0
    for step in range(600):
        action = rng.choice(["arrive", "depart", "jolt", "compute", "direct",
                             "quantum"], p=[.2, .15, .1, .25, .1, .2])
        if action == "arrive":
            fid += 1
            tid = f"t{int(rng.integers(0, 3))}"
            vms = F._expand_vms(tenants[tid])
            src, dst = (int(v) for v in rng.choice(len(vms), size=2,
                                                   replace=False))
            route = F.tenant_route(tenants[tid], vms[src], vms[dst])
            seen["loopback"] += not route
            for sim in sims:
                sim.flows[fid] = F.Flow(fid, tid, src, dst, vms[src],
                                        vms[dst], 1e9, 0.0, route=route)
        elif action == "depart" and sims[0].flows:
            gone = list(sims[0].flows)[int(rng.integers(0, len(sims[0].flows)))]
            for sim in sims:
                del sim.flows[gone]
        elif action == "jolt" and policies[0].limiters:
            keys = sorted(policies[0].limiters)
            key = keys[int(rng.integers(0, len(keys)))]
            rate = float(rng.uniform(1.0, 80.0))
            for policy in policies:
                policy.limiters[key] = rate
        elif action in ("compute", "direct"):
            keep = rng.random(len(sims[0].flows)) < (
                0.7 if action == "direct" else 1.0)
            for policy, sim in zip(policies, sims):
                flows = [f for f, k in zip(sim.flows.values(), keep) if k]
                policy.compute(sim if action == "compute" else None, flows,
                               step * 0.001)
            seen["congested"] += bool(policies[1].congested_links)
        elif action == "quantum":
            before = len(policies[1].limiters)
            for policy, sim in zip(policies, sims):
                policy.on_quantum(sim, step * 0.001)
            seen["pruned"] += len(policies[1].limiters) < before
        got, want = (_endhost_state(p, list(s.flows.values()))
                     for p, s in zip(policies, sims))
        assert got == want, f"step {step}: {action}"
        seen[action] += 1
    assert min(seen.values()) > 0, seen
