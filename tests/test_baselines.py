import collections
import copy
import functools
import math
import types

import pytest

import oracles
from qshare import baselines as BL
from qshare import cli
from qshare import fluid as F
from qshare import placement as P
from qshare import scenarios as S
from qshare import topology as T
from qshare.tenants import TenantRequest
from test_fluid import _segment_fields


def follow(policy, index, change):
    """Apply `change` to `index`, then let `policy` follow it, as the event
    loop does."""
    index.apply(change)
    policy.follow(change, index)


def fifo_scale(flows, caps, *args):
    """baselines.fifo_scale over `flows`, grouped by a flow index, with
    each link's offered load summed in fid order."""
    index = F.FlowIndex()
    index.apply(F.FlowChange([], flows))
    offered = {dk: sum(f.rate for f in index.links.get(dk, {}).values())
               for dk in caps}
    return BL.fifo_scale(index.links, caps, offered, *args)


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
        return [F.Flow(fid, "t", 0, 1, "a", "b", 1e9, 0.0, rate=600.0,
                       route=(("a", "b"),)) for fid in (1, 2)]
    flows = mk()
    fifo_scale(flows, {("a", "b"): 1000.0}, 50, 1.0)
    assert math.isclose(sum(f.rate for f in flows), 1000.0)
    flows = mk()
    fifo_scale(flows, {("a", "b"): 1000.0}, 50, 2.0)
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
        met = fifo_scale(flows, caps, rounds, exponent)
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
        follow(policy, F.FlowIndex(), F.FlowChange([], flows))
        follow(ref_policy, F.FlowIndex(), F.FlowChange([], ref))
        policy.compute(None, flows, 0.0)
        offered = copy.deepcopy(ref)
        for f in offered:
            f.rate = limiters[(f.tenant, f.src_vm, f.dst_vm)]
        with monkeypatch.context() as m:
            # the scanning reference scales the flows, not the link groups
            m.setattr(BL, "fifo_scale", lambda on_link, caps, offered, **kw:
                      oracles.fifo_scale_reference(ref, caps, **kw))
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
    index = F.FlowIndex()
    follow(policy, index, F.FlowChange([], flows))
    policy.compute(None, flows, 0.0)
    # the one round scaled the worse link only
    assert [f.rate for f in flows] == [1000.0, 1200.0]
    assert policy.fifo_stops == 1
    follow(policy, index, F.FlowChange(flows[1:], []))
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
    """Random arrivals, departures (one at a time or a batch in one
    record, followed by a compute), quanta, limiter jolts and computes,
    each arrival and departure followed as its own record; after every call
    the carried policy and the reference that re-derives everything agree
    bit for bit."""
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
    sims = [types.SimpleNamespace(flows={}, index=F.FlowIndex())
            for _ in policies]
    seen = collections.Counter()
    fid = 0
    for step in range(600):
        action = rng.choice(["arrive", "depart", "jolt", "compute", "batch",
                             "quantum"], p=[.2, .15, .1, .25, .1, .2])
        if action == "arrive":
            fid += 1
            tid = f"t{int(rng.integers(0, 3))}"
            vms = F._expand_vms(tenants[tid])
            src, dst = (int(v) for v in rng.choice(len(vms), size=2,
                                                   replace=False))
            route = F.tenant_route(tenants[tid], vms[src], vms[dst])
            seen["loopback"] += not route
            for policy, sim in zip(policies, sims):
                sim.flows[fid] = F.Flow(fid, tid, src, dst, vms[src],
                                        vms[dst], 1e9, 0.0, route=route)
                follow(policy, sim.index, F.FlowChange([], [sim.flows[fid]]))
        elif action == "depart" and sims[0].flows:
            gone = list(sims[0].flows)[int(rng.integers(0, len(sims[0].flows)))]
            for policy, sim in zip(policies, sims):
                follow(policy, sim.index,
                       F.FlowChange([sim.flows.pop(gone)], []))
        elif action == "jolt" and policies[0].limiters:
            keys = sorted(policies[0].limiters)
            key = keys[int(rng.integers(0, len(keys)))]
            rate = float(rng.uniform(1.0, 80.0))
            for policy in policies:
                policy.limiters[key] = rate
        elif action in ("compute", "batch"):
            gone = [g for g in sims[0].flows
                    if action == "batch" and rng.random() < 0.3]
            seen["batch of 2+"] += len(gone) > 1
            for policy, sim in zip(policies, sims):
                follow(policy, sim.index,
                       F.FlowChange([sim.flows.pop(g) for g in gone], []))
                policy.compute(sim, list(sim.flows.values()), step * 0.001)
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


@pytest.mark.parametrize("mode", ["aggressive", "conservative"])
def test_endhost_policy_following_step_records_matches_the_reference(rng, mode):
    """Steps as the event loop takes them: flows end in any order and start
    in fid order, the policy follows the step's record, then maybe a
    quantum and, after any change, a compute. A quantum comes first, before
    any flow exists. The policy agrees bit for bit with the reference
    re-deriving everything after every call."""
    topo = T.build_testbed(nic_mbps=40.0, core_mbps=60.0)
    hyps = topo.hypervisors()
    tenants = {tid: P.embed_fixed(topo, TenantRequest(10, 2.0), tid, "a000",
                                  {h: 1 for h in hyps})
               for tid in ("t0", "t1")}
    tenants["t2"] = P.embed_fixed(topo, TenantRequest(10, 2.0), "t2", "a000",
                                  {h: 2 for h in hyps[:5]})
    cfg = BL.RAConfig(mode=mode)
    policy = BL.EndhostRatePolicy(topo, tenants, cfg)
    ref_policy = oracles.EndhostReference(topo, tenants, cfg)
    sim = types.SimpleNamespace(flows={}, index=F.FlowIndex())
    ref_sim = types.SimpleNamespace(flows={})
    policy.on_quantum(sim, 0.0)
    ref_policy.on_quantum(ref_sim, 0.0)
    assert _endhost_state(policy, []) == _endhost_state(ref_policy, [])
    seen = collections.Counter()
    fid = 0
    for step in range(400):
        gone = [g for g in sim.flows if rng.random() < 0.15]
        left = [sim.flows.pop(g) for g in gone]
        for g in gone:
            del ref_sim.flows[g]
        added = []
        for _ in range(int(rng.integers(0, 4))):
            fid += 1
            tid = f"t{int(rng.integers(0, 3))}"
            vms = F._expand_vms(tenants[tid])
            src, dst = (int(v) for v in rng.choice(len(vms), size=2,
                                                   replace=False))
            if rng.random() < 0.3 and sim.flows:  # another flow of a pair
                other = list(sim.flows.values())[-1]
                tid, src, dst = other.tenant, other.src_vm, other.dst_vm
                vms = F._expand_vms(tenants[tid])
            route = F.tenant_route(tenants[tid], vms[src], vms[dst])
            for flows in (sim.flows, ref_sim.flows):
                flows[fid] = F.Flow(fid, tid, src, dst, vms[src], vms[dst],
                                    1e9, 0.0, route=route)
            added.append(sim.flows[fid])
        if policy.limiters and rng.random() < 0.3:  # a limiter jolt
            key = sorted(policy.limiters)[int(rng.integers(
                0, len(policy.limiters)))]
            policy.limiters[key] = ref_policy.limiters[key] = float(
                rng.uniform(1.0, 80.0))
        follow(policy, sim.index, F.FlowChange(left, added))
        quantum = rng.random() < 0.3
        if quantum:
            policy.on_quantum(sim, step * 0.001)
            ref_policy.on_quantum(ref_sim, step * 0.001)
            seen["quantum with change"] += bool(left or added)
        if left or added or quantum:
            policy.compute(sim, list(sim.flows.values()), step * 0.001)
            ref_policy.compute(ref_sim, list(ref_sim.flows.values()),
                               step * 0.001)
            seen["congested"] += bool(ref_policy.congested_links)
        assert _endhost_state(policy, list(sim.flows.values())) == \
            _endhost_state(ref_policy, list(ref_sim.flows.values())), \
            f"step {step}"
        seen["departures"] += len(left)
    assert min(seen.values()) > 20, seen


def test_a_quantum_rederives_only_the_guarantees_a_changed_pair_touches():
    """A pair that starts beside unchanged pairs sharing its source VM and
    its destination VM, and another pair that stops, in one step's record:
    the next quantum re-derives the guarantees of the new pair and of the
    pairs of its tenant that share one of its VMs, and no other (not those
    of another tenant on the same VM numbers), drops the stopped pair's
    limiter, and agrees bit for bit with the reference that re-derives
    everything."""
    topo = T.build_testbed(nic_mbps=40.0, core_mbps=60.0)
    hyps = topo.hypervisors()
    tenants = {tid: P.embed_fixed(topo, TenantRequest(10, 2.0), tid, "a000",
                                  {h: 1 for h in hyps})
               for tid in ("t0", "t1")}
    cfg = BL.RAConfig(mode="conservative")
    policy = BL.EndhostRatePolicy(topo, tenants, cfg)
    ref_policy = oracles.EndhostReference(topo, tenants, cfg)
    derived = []
    pair_guarantee = policy._pair_guarantee

    def counted(f):
        derived.append((f.tenant, f.src_vm, f.dst_vm))
        return pair_guarantee(f)

    policy._pair_guarantee = counted
    sims = [types.SimpleNamespace(flows={}, index=F.FlowIndex())
            for _ in range(2)]

    def step(left, added, t, quantum=True):
        for p, sim in zip((policy, ref_policy), sims):
            gone = [sim.flows.pop(fid) for fid in left]
            new = []
            for fid, (tid, src, dst) in added:
                vms = F._expand_vms(tenants[tid])
                sim.flows[fid] = F.Flow(
                    fid, tid, src, dst, vms[src], vms[dst], 1e9, 0.0,
                    route=F.tenant_route(tenants[tid], vms[src], vms[dst]))
                new.append(sim.flows[fid])
            follow(p, sim.index, F.FlowChange(gone, new))
            p.compute(sim, list(sim.flows.values()), t)
        derived.clear()
        if quantum:
            for p, sim in zip((policy, ref_policy), sims):
                p.on_quantum(sim, t)
                p.compute(sim, list(sim.flows.values()), t)
        assert _endhost_state(policy, list(sims[0].flows.values())) == \
            _endhost_state(ref_policy, list(sims[1].flows.values()))
        return sorted(derived)

    pairs = [("t0", 0, 1), ("t0", 0, 2), ("t0", 3, 4), ("t0", 5, 6),
             ("t0", 7, 8), ("t1", 0, 4), ("t1", 3, 4)]
    assert step([], list(enumerate(pairs, 1)), 0.0) == sorted(pairs)
    assert step([], [], 0.015) == []
    assert ("t0", 5, 6) in policy.limiters
    # ("t0", 0, 4) starts: it shares VM 0 with the first two pairs as a
    # source and VM 4 with ("t0", 3, 4) as a destination; ("t0", 5, 6) stops
    assert step([4], [(8, ("t0", 0, 4))], 0.03) == [
        ("t0", 0, 1), ("t0", 0, 2), ("t0", 0, 4), ("t0", 3, 4)]
    assert ("t0", 5, 6) not in policy.limiters
    # a pair that stops leaves the guarantees of the pairs sharing its VMs
    # to be re-derived; one that starts and stops between quanta changes
    # nothing but its limiter
    assert step([1], [], 0.045) == [("t0", 0, 2), ("t0", 0, 4)]
    assert step([8], [(9, ("t0", 7, 9))], 0.06) == [
        ("t0", 0, 2), ("t0", 3, 4), ("t0", 7, 8), ("t0", 7, 9)]
    step([], [(10, ("t0", 2, 3))], 0.07, quantum=False)
    assert ("t0", 2, 3) in policy.limiters
    assert step([10], [], 0.075) == []
    assert ("t0", 2, 3) not in policy.limiters


@pytest.mark.parametrize("policy", ["es_aggressive", "es_conservative"])
def test_endhost_hook_driven_by_the_loop_matches_the_reference(monkeypatch,
                                                                policy):
    """The bundled unpredictable run with the endhost policy as the rate
    hook, which follows the loop's per-step flow-set record, and with the
    reference that re-derives everything on every call: the reports, the
    completed flows and the segment stats agree bit for bit."""
    doc = dict(cli.load_scenario("unpredictable"), seed=3, duration_s=1.0,
               control_interval_s=0.5, policy=policy)
    run = S.build_wcbg(doc, stats=True)
    monkeypatch.setattr(S, "EndhostRatePolicy", oracles.EndhostReference)
    ref = S.build_wcbg(doc, stats=True)
    assert isinstance(ref.sim.rate_hook, oracles.EndhostReference)
    assert sum(len(rep.fcts) for rep in run.reports) > 50
    assert repr(run.reports) == repr(ref.reports)
    assert _segment_fields(run.sim.stats) == _segment_fields(ref.sim.stats)
    assert run.sim.stats.time_active > 0
    assert run.sim.rate_hook.fifo_stops == ref.sim.rate_hook.fifo_stops
