"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 4, 5 and 6 assert reproduction bands that conflict with the
minimum-reservation allocation contract enforced by criterion 9; the blocking
analysis lives in the reviewer notes, and their tests remain faithful to the
stated bounds rather than weakened. The gain criteria (5 and 6) print the
data that explains them: per inactive ratio how many eligible tenants hold
no dedicated queue, and the median utilization over reserved links only.
"""

import json
import math
import time
import zlib
from importlib import resources

import numpy as np
import pytest

from conftest import random_request, random_tree
from oracles import (WfqOracle, alg2_reference, exhaustive_min_cb,
                     idealized_all_dormant_frequency)
from qshare import binding as B
from qshare import fluid as F
from qshare import largescale as L
from qshare import placement as P
from qshare import scenarios as S
from qshare import topology as T
from qshare.tenants import TenantRequest, cut_reservation, reserve_on_link
from test_fluid import random_wfq_case


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def bundled(name):
    return json.loads(resources.files("qshare.scenario_data")
                      .joinpath(f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# criteria 1-3: work-conserving bandwidth guarantees at testbed scale
# ---------------------------------------------------------------------------

def test_criterion_01_perfect_work_conservation():
    t0 = time.monotonic()
    run = S.build_wcbg(bundled("predictable"), stats=True)
    wall = time.monotonic() - t0
    stats = run.sim.stats
    ok = (stats.below_static_time == 0.0
          and stats.conservation_violation_time == 0.0
          and stats.busy_time >= stats.time_active - 1e-9
          and wall < 10.0)
    assert report(1, ok,
                  f"below static {stats.below_static_time:.3g}s, "
                  f"conservation violations {stats.conservation_violation_time:.3g}s, "
                  f"busy {stats.busy_time:.1f}/{stats.time_active:.1f}s, "
                  f"wall {wall:.1f}s < 10s")


def test_criterion_02_unpredictable_utilization():
    t0 = time.monotonic()
    run = S.build_wcbg(bundled("unpredictable"))
    wall = time.monotonic() - t0
    util = run.mean_core_utilization()
    ok = util >= 0.88 and wall < 30.0
    assert report(2, ok, f"mean core utilization {util * 100:.1f}% >= 88%, "
                         f"wall {wall:.1f}s < 30s")


def test_criterion_03_control_interval_sweep():
    doc = bundled("interval-sweep")
    doc["duration_s"] = 32.0
    _, artifacts = S.run_interval_sweep(doc)
    rows = artifacts["interval_sweep"][1]
    utils = [float(r["mean_core_utilization"]) for r in rows]
    non_increasing = all(utils[i + 1] <= utils[i] + 0.02
                         for i in range(len(utils) - 1))
    predictable = dict(bundled("predictable"))
    full = []
    for interval in (1.0, 2.0, 4.0, 8.0):
        sub = dict(predictable, control_interval_s=interval, duration_s=8.0)
        run = S.build_wcbg(sub)
        full.append(run.mean_core_utilization())
    always_full = all(u >= 1.0 - 1e-6 for u in full)
    ok = non_increasing and always_full
    assert report(3, ok,
                  f"unpredictable utils {['%.3f' % u for u in utils]} "
                  f"non-increasing(+-2pts)={non_increasing}; predictable "
                  f"{['%.4f' % u for u in full]} always 100%={always_full}")


# ---------------------------------------------------------------------------
# criteria 4-6: production-scale studies
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fills():
    out = {}
    for ratio in ("1:1", "4:1", "16:1"):
        doc = dict(bundled("queue-scarcity"), oversub=ratio)
        t0 = time.monotonic()
        out[ratio] = (S.build_fill(doc), time.monotonic() - t0)
    return out


def test_criterion_04_scarcity_reproduction(fills):
    targets_under9 = {"1:1": 96.7, "4:1": 95.1, "16:1": 92.1}
    targets_nd = {"1:1": 66.7, "4:1": 67.2, "16:1": 66.7}
    failures = []
    details = []
    for ratio, (result, wall) in fills.items():
        rep = result.report
        details.append(
            f"{ratio}: R<9={rep.r_under_9:.1f} (target {targets_under9[ratio]}+-4) "
            f"R9-12={rep.r_9_to_12:.2f} R>12={rep.r_over_12:.2f} "
            f"R_ND={rep.r_nd:.1f} (target {targets_nd[ratio]}+-6) "
            f"R_NI={rep.r_ni:.1f} dscp={rep.dscp_values_used} wall={wall:.0f}s")
        if rep.r_over_12 != 0.0:
            failures.append(f"{ratio}: R>12 nonzero")
        if abs(rep.r_under_9 - targets_under9[ratio]) > 4.0:
            failures.append(f"{ratio}: R<9 {rep.r_under_9:.1f} outside "
                            f"{targets_under9[ratio]}+-4")
        if abs(rep.r_nd - targets_nd[ratio]) > 6.0:
            failures.append(f"{ratio}: R_ND {rep.r_nd:.1f} outside "
                            f"{targets_nd[ratio]}+-6")
        if rep.r_ni < 85.0:
            failures.append(f"{ratio}: R_NI {rep.r_ni:.1f} < 85")
        if rep.dscp_values_used > 63:
            failures.append(f"{ratio}: dscp {rep.dscp_values_used} > 63")
        if wall >= 120.0:
            failures.append(f"{ratio}: wall {wall:.0f}s >= 120s")
    ok = report(4, not failures, "; ".join(details) +
                (f" | failures: {failures}" if failures else ""))
    assert ok, failures


def test_criterion_05_throughput_gain(fills):
    result, _ = fills["16:1"]
    gains, covered = {}, {}
    for r_in in [round(0.1 * k, 1) for k in range(1, 10)]:
        rep = L.throughput_gain(result.topo, result.tenants, r_in, seed=42)
        gains[r_in] = rep.mean_gain
        covered[r_in] = f"{rep.undedicated}/{rep.high_count}"
    floor_ok = all(g >= 3.0 for g in gains.values())
    growth_ok = gains[0.9] >= 10.0 * gains[0.1]
    ok = report(5, floor_ok and growth_ok,
                "mean gains " +
                " ".join(f"{r}:{g:.1f}" for r, g in gains.items()) +
                " | undedicated/eligible " +
                " ".join(f"{r}:{c}" for r, c in covered.items()) +
                f" | floor>=3 {floor_ok}, gain(0.9)>=10x(0.1) {growth_ok}")
    assert ok


def test_criterion_06_utilization_cdf(fills):
    result, _ = fills["16:1"]
    rep = L.throughput_gain(result.topo, result.tenants, 0.5, seed=42)
    qs = rep.util_cdf(static=False)
    st = rep.util_cdf(static=True)
    q_med, s_med = float(np.median(qs)), float(np.median(st))
    q_med_reserved = float(np.median(rep.util_cdf(reserved_only=True)))
    q_full = float(np.mean(qs >= 1 - 1e-9))
    s_full = float(np.mean(st >= 1 - 1e-9))
    checks = {
        "qshare median >= 55%": q_med >= 0.55,
        "static median <= 30%": s_med <= 0.30,
        "qshare full fraction in [8,20]%": 0.08 <= q_full <= 0.20,
        "static full fraction == 0": s_full == 0.0,
    }
    ok = report(6, all(checks.values()),
                f"qshare med {q_med*100:.0f}% full {q_full*100:.1f}%; "
                f"static med {s_med*100:.0f}% full {s_full*100:.2f}%; "
                f"qshare med over the {len(rep.reserved)} reserved of "
                f"{len(qs)} links {q_med_reserved*100:.0f}%, undedicated "
                f"{rep.undedicated}/{rep.high_count}; checks {checks}")
    assert ok, checks


# ---------------------------------------------------------------------------
# criteria 7-8: baselines
# ---------------------------------------------------------------------------

def test_criterion_07_endhost_tradeoff():
    summary, _ = S.run_tradeoff(bundled("tradeoff"))
    checks = {
        "conservative wastes >= 30% of unreserved":
            summary["conservative_unreserved_waste"] >= 0.30,
        "work-conserving deficit <= 9%":
            summary["qshare_capacity_deficit"] <= 0.09,
        "aggressive violates >= 1 interval":
            summary["aggressive_violating_intervals"] >= 1,
        "work-conserving violates 0":
            summary["qshare_violating_intervals"] == 0,
        "utilization dominance":
            summary["qshare_mean_mbps"] >= summary["conservative_mean_mbps"],
    }
    ok = report(7, all(checks.values()),
                f"waste {summary['conservative_unreserved_waste']*100:.0f}%, "
                f"deficit {summary['qshare_capacity_deficit']*100:.1f}%, "
                f"violations aggr/qshare "
                f"{summary['aggressive_violating_intervals']}/"
                f"{summary['qshare_violating_intervals']}")
    assert ok, checks


def test_criterion_08_fct_ordering():
    summary, _ = S.run_fct(bundled("shuffle-fct"))
    loads = bundled("shuffle-fct")["loads"]
    orderings = {}
    for load in loads:
        q = summary[f"qshare@{load}"]
        a = summary[f"es_aggressive@{load}"]
        s = summary[f"static@{load}"]
        orderings[load] = (q <= a <= s, q, a, s)
    ok = report(8, all(v[0] for v in orderings.values()),
                " ".join(f"load{ld}: q={v[1]:.3f}<=a={v[2]:.3f}<=s={v[3]:.3f}"
                         f"({'ok' if v[0] else 'VIOLATED'})"
                         for ld, v in orderings.items()))
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: oracle equivalence suites
# ---------------------------------------------------------------------------

def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(2024)
    alloc_mism = 0
    for _ in range(1000):
        topo = random_tree(rng)
        skel = T.trs_at_layer(topo, 2)[0]
        req = random_request(rng)
        ev = P.evaluate_tr(topo, skel, req)
        oracle = exhaustive_min_cb(topo, skel, req)
        if ev.feasible != (oracle is not None):
            alloc_mism += 1
        elif ev.feasible and not math.isclose(ev.c_b, oracle, rel_tol=1e-9,
                                              abs_tol=1e-9):
            alloc_mism += 1

    wfq_err = 0.0
    wfq_cases = 0
    for _ in range(1000):
        topo, tenants, owners, flows = random_wfq_case(rng)
        if not flows:
            continue
        wfq_cases += 1
        solver = F.RateSolver(topo)
        solver.rebuild(owners)
        solver.solve(flows)
        capacities, reservations, dir_owners, weights = {}, {}, {}, {}
        for f in flows:
            for dk in f.route:
                uk = T.link_key(*dk)
                view = solver.views[uk]
                capacities[dk] = view.capacity
                reservations[dk] = view.reservations
                dir_owners[dk] = view.owners
                weights[dk] = view.qweights
        orates = WfqOracle(capacities, dir_owners, reservations,
                           weights).solve(flows)
        for f in flows:
            ref = orates[f.fid]
            wfq_err = max(wfq_err, abs(f.rate - ref) / max(ref, 1.0))

    alg2_mism = 0
    for _ in range(1000):
        qc = int(rng.integers(2, 6))
        links = [f"L{i}" for i in range(int(rng.integers(1, 4)))]
        tenants = {}
        tr_links = {}
        for i in range(int(rng.integers(2, 8))):
            tid = f"t{i}"
            chosen = tuple(sorted(rng.choice(
                links, size=int(rng.integers(1, len(links) + 1)),
                replace=False)))
            tr_links[tid] = chosen
            tenants[tid] = type("T", (), {
                "id": tid, "tr": type("R", (), {"links": chosen})(),
                "state": "shared"})()
        scores = {tid: float(rng.random()) for tid in tenants}
        prev = B.QueueAllocationState(qc)
        for tid in tenants:
            if rng.random() < 0.4 and all(
                    len(prev.owners_on(k)) < qc - 1 for k in tr_links[tid]):
                prev.enqueue(tenants[tid])
        ref_owners, ref_ded = alg2_reference(
            tr_links, scores, {k: set(v) for k, v in prev.owners.items()}, qc)
        st = B.allocate_queues(tenants, scores, prev, np.random.default_rng(7))
        if st.dedicated != ref_ded:
            alg2_mism += 1
        elif any(st.owners.get(k, set()) != ref_owners.get(k, set())
                 for k in set(ref_owners) | set(st.owners)):
            alg2_mism += 1

    dorm_ok = True
    mc = np.random.default_rng(99)
    for n in range(1, 11):
        draws = 120_000
        freq = idealized_all_dormant_frequency(n, draws, mc)
        p = F.dormancy_probability(n)
        sigma = math.sqrt(p * (1 - p) / draws)
        if abs(freq - p) > 3 * sigma + 1e-12:
            dorm_ok = False

    ok = (alloc_mism == 0 and wfq_err <= 1e-6 and alg2_mism == 0 and dorm_ok)
    assert report(9, ok,
                  f"allocation mismatches {alloc_mism}/1000; wfq max rel err "
                  f"{wfq_err:.2e} over {wfq_cases} cases; queue-allocation "
                  f"mismatches {alg2_mism}/1000; dormancy within 3-sigma "
                  f"{dorm_ok}")


# ---------------------------------------------------------------------------
# criterion 10: invariant property suites (>= 500 random cases each)
# ---------------------------------------------------------------------------

CASES = 500


def _random_testbed_sequence(rng):
    topo = T.build_testbed(vm_slots=int(rng.integers(4, 12)))
    live = []
    for i in range(int(rng.integers(2, 8))):
        if live and rng.random() < 0.35:
            tenant = live.pop(int(rng.integers(0, len(live))))
            P.depart(topo, tenant)
            continue
        out = P.embed(topo, TenantRequest(int(rng.integers(2, 14)),
                                          float(rng.integers(1, 8) * 10)),
                      tenant_id=f"x{i}")
        if out.feasible:
            live.append(out.tenant)
    return topo, live


def prop_residual_accounting(rng):
    topo, live = _random_testbed_sequence(rng)
    for link in topo.links.values():
        assert math.isclose(link.reserved,
                            math.fsum(link.reservations.values()),
                            rel_tol=0, abs_tol=0)
        assert link.reserved <= link.capacity + 1e-9


def prop_skeleton_soundness(rng):
    layers = int(rng.integers(1, 4))
    fanouts = tuple(int(rng.integers(1, 4)) for _ in range(layers))
    red = (1,) + tuple(int(rng.integers(1, 3)) for _ in range(layers - 1))
    topo = T.build_multirooted(T.MultiRootedParams(
        layers=layers, fanouts=fanouts, redundancy=red,
        capacities=tuple(10.0 for _ in range(layers)), vm_slots=2,
        seed=int(rng.integers(0, 100))))
    for layer in range(1, topo.layer_count):
        for skel in T.trs_at_layer(topo, layer):
            assert len(skel.links) == len(skel.order) - 1
            for node, parent in skel.parent.items():
                if parent is not None:
                    assert topo.nodes[node].layer < topo.nodes[parent].layer


def prop_topology_determinism(rng):
    seed = int(rng.integers(0, 10_000))
    a = T.fattree_like("4:1", k=4, vm_slots=2, seed=seed)
    b = T.fattree_like("4:1", k=4, vm_slots=2, seed=seed)
    assert sorted(a.nodes) == sorted(b.nodes)
    assert sorted(a.links) == sorted(b.links)
    assert [s.root for s in T.trs_at_layer(a, 1)] == \
        [s.root for s in T.trs_at_layer(b, 1)]


def prop_cut_rule_symmetry_monotone(rng):
    a = list(rng.integers(1, 50, size=rng.integers(1, 5)).astype(float))
    b = list(rng.integers(1, 50, size=rng.integers(1, 5)).astype(float))
    assert reserve_on_link(a, b) == reserve_on_link(b, a)
    smaller = a if sum(a) <= sum(b) else b
    before = reserve_on_link(a, b)
    smaller.append(float(rng.integers(1, 20)))
    assert reserve_on_link(a, b) >= before


def prop_tree_cut_equals_components(rng):
    topo = random_tree(rng, max_hyps=4, max_mid=3)
    skel = T.trs_at_layer(topo, 2)[0]
    req = random_request(rng)
    hyps = skel.leaves
    counts = rng.multinomial(req.vm_count, np.ones(len(hyps)) / len(hyps))
    placement = dict(zip(hyps, counts.tolist()))
    for u in skel.order:
        parent = skel.parent[u]
        if parent is None:
            continue
        below_ids = []
        stack = [u]
        while stack:
            x = stack.pop()
            if topo.nodes[x].is_hypervisor():
                below_ids.append(x)
            stack.extend(skel.children[x])
        below = sum(placement.get(h, 0) for h in below_ids)
        side_a = [req.per_vm_guarantee] * below
        side_b = [req.per_vm_guarantee] * (req.vm_count - below)
        assert math.isclose(reserve_on_link(side_a, side_b),
                            cut_reservation(req, below))


def prop_guarantee_soundness(rng):
    topo, _ = _random_testbed_sequence(rng)
    for key, link in topo.links.items():
        total = math.fsum(link.reservations.values())
        assert total <= link.capacity * (1 + 1e-9)


def prop_early_return_layering(rng):
    topo = T.fattree_like("1:1", k=4, vm_slots=int(rng.integers(2, 5)),
                          nic_mbps=float(rng.integers(5, 20)), port_mbps=40.0)
    req = random_request(rng, n_hi=7)
    out = P.embed(topo, req, tenant_id="probe")
    if not out.feasible:
        return
    P.depart(topo, out.tenant)
    minimal = None
    for layer in range(1, topo.layer_count):
        if any(P.evaluate_tr(topo, s, req).feasible
               for s in T.trs_at_layer(topo, layer)):
            minimal = layer
            break
    assert out.layer == minimal


_COMPLEXITY_CEILING = {}


def prop_complexity_ceiling(rng):
    if not _COMPLEXITY_CEILING:
        topo4 = T.fattree_like("1:1", k=4, vm_slots=3, nic_mbps=10.0,
                               port_mbps=40.0)
        out = P.embed(topo4, TenantRequest(7, 1.0, wcs=0.7), tenant_id="cal")
        _COMPLEXITY_CEILING["c"] = 3.0 * out.ops / len(topo4.nodes) ** (5 / 3)
        _COMPLEXITY_CEILING["topo"] = T.fattree_like(
            "1:1", k=8, vm_slots=3, nic_mbps=10.0, port_mbps=40.0)
    topo = _COMPLEXITY_CEILING["topo"]
    req = TenantRequest(int(rng.integers(4, 9)), 1.0, wcs=0.7)
    out = P.embed(topo, req, tenant_id=f"c{rng.integers(1e9)}")
    if out.feasible:
        P.depart(topo, out.tenant)
    assert out.ops <= _COMPLEXITY_CEILING["c"] * len(topo.nodes) ** (5 / 3)


def _scored_tenant(rng, topo):
    n = int(rng.integers(2, 12))
    b = float(rng.integers(1, 20) * 5)
    half = n // 2
    return P.embed_fixed(topo, TenantRequest(n, b),
                         f"s{rng.integers(1e9)}", "a000",
                         {"h0000": half, "h0005": n - half}
                         if half else {"h0000": n})


def prop_score_monotone_and_capped(rng):
    topo = T.build_testbed(vm_slots=50, nic_mbps=1e6, core_mbps=1e6)
    t = _scored_tenant(rng, topo)
    usages = {h: (float(rng.random() * 400), float(rng.random() * 400))
              for h in t.vm_placement}
    u1, b1 = B.u_factor(t, usages)
    s1 = B.score(t, u1, b1)
    pay = t.payment()
    assert s1.score <= pay + 1e-9
    hyp = sorted(t.vm_placement)[int(rng.integers(0, len(t.vm_placement)))]
    bumped = dict(usages)
    bumped[hyp] = (usages[hyp][0] + float(rng.random() * 300), usages[hyp][1])
    u2, b2 = B.u_factor(t, bumped)
    s2 = B.score(t, u2, b2)
    assert s2.score >= s1.score - 1e-9
    maxed = {h: (1e9, 1e9) for h in t.vm_placement}
    u3, b3 = B.u_factor(t, maxed)
    assert math.isclose(B.score(t, u3, b3).score, pay)


def _random_binding_instance(rng):
    qc = int(rng.integers(2, 6))
    links = [f"L{i}" for i in range(int(rng.integers(1, 4)))]
    tenants = {}
    tr_links = {}
    for i in range(int(rng.integers(2, 8))):
        tid = f"t{i}"
        chosen = tuple(sorted(rng.choice(
            links, size=int(rng.integers(1, len(links) + 1)), replace=False)))
        tr_links[tid] = chosen
        tenants[tid] = type("T", (), {
            "id": tid, "tr": type("R", (), {"links": chosen})(),
            "state": "shared"})()
    scores = {tid: float(rng.random()) for tid in tenants}
    prev = B.QueueAllocationState(qc)
    for tid in tenants:
        if rng.random() < 0.4 and all(
                len(prev.owners_on(k)) < qc - 1 for k in tr_links[tid]):
            prev.enqueue(tenants[tid])
    return qc, tenants, tr_links, scores, prev


def prop_allocation_safety(rng):
    qc, tenants, tr_links, scores, prev = _random_binding_instance(rng)
    st = B.allocate_queues(tenants, scores, prev, np.random.default_rng(3))
    for k, owners in st.owners.items():
        assert len(owners) <= qc - 1
    for tid in tenants:
        owns_everywhere = all(tid in st.owners.get(k, set())
                              for k in tr_links[tid])
        assert (tid in st.dedicated) == owns_everywhere
        if tid not in st.dedicated:
            # enqueue is all-or-nothing and preemption dequeues globally
            assert all(tid not in owners for owners in st.owners.values())


def prop_preemption_order(rng):
    qc, tenants, tr_links, scores, prev = _random_binding_instance(rng)
    before = {k: set(v) for k, v in prev.owners.items()}
    was_dedicated = set(prev.dedicated)
    st = B.allocate_queues(tenants, scores, prev, np.random.default_rng(3))
    for victim in was_dedicated - st.dedicated:
        # the preemptor that dequeued the victim outranks it on some link;
        # lower-scored tenants may then fill the vacancies it left elsewhere
        outranked = False
        for k in tr_links[victim]:
            gainers = st.owners.get(k, set()) - before.get(k, set())
            if any(scores[g] > scores[victim] for g in gainers):
                outranked = True
                break
        assert outranked, f"{victim} displaced without a higher-scored gainer"


def prop_coloring_validity(rng):
    _, tenants, tr_links, scores, _ = _random_binding_instance(rng)
    dedicated = {t for t in tenants if rng.random() < 0.7}
    asg, _failed = B.assign_dscp(tenants, dedicated, scores)
    for a in dedicated:
        for b in dedicated:
            if a < b and set(tr_links[a]) & set(tr_links[b]):
                if a in asg and b in asg:
                    assert asg[a] != asg[b]
    assert all(1 <= v <= 63 for v in asg.values())


def prop_weight_normalization(rng):
    topo = T.build_testbed(vm_slots=60, nic_mbps=1e6, core_mbps=1e6)
    tenants = {}
    for _ in range(int(rng.integers(1, 6))):
        t = _scored_tenant(rng, topo)
        tenants[t.id] = t
    st = B.QueueAllocationState(8)
    key = ("a000", "t000")
    pool = [t for t in tenants if key in tenants[t].tr.links]
    st.owners[key] = set(pool[: int(rng.integers(0, min(len(pool), 7) + 1))])
    w = B.link_queue_weights(topo.links[key], st.owners[key])
    if w:
        assert abs(math.fsum(v[0] for v in w.values()) - 1.0) <= 1e-9
        assert all(1 <= v[1] <= 15 for v in w.values())


def _single_bottleneck_case(rng):
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 60), ("h2", "hypervisor", 0, 60),
         ("s1", "switch", 1, 0)],
        [("h1", "s1", 1000.0), ("h2", "s1", 1000.0)])
    n_t = int(rng.integers(1, 7))
    budget = 1000.0
    tenants = {}
    for i in range(n_t):
        g = float(rng.integers(1, 8) * 20)
        if g > budget:
            break
        tenants[f"T{i}"] = P.embed_fixed(
            topo, TenantRequest(10, g / 5), f"T{i}", "s1", {"h1": 5, "h2": 5})
        budget -= g
        if budget < 20:
            break
    owners = set()
    for tid in tenants:
        if rng.random() < 0.5 and len(owners) < 7:
            owners.add(tid)
    solver = F.RateSolver(topo)
    solver.rebuild({("h1", "s1"): owners, ("h2", "s1"): owners})
    flows = []
    active = []
    for i, tid in enumerate(sorted(tenants)):
        if rng.random() < 0.7:
            active.append(tid)
            flows.append(F.Flow(i + 1, tid, 0, 5, "h1", "h2", 1e9, 0.0,
                                route=F.tenant_route(tenants[tid], "h1", "h2")))
    return topo, tenants, owners, flows, active, solver


def prop_guarantee_satisfaction(rng):
    topo, tenants, owners, flows, active, solver = _single_bottleneck_case(rng)
    if not flows:
        return
    solver.solve(flows)
    for f in flows:
        g = tenants[f.tenant].tr.reserved[("h1", "s1")]
        assert f.rate >= g * (1 - 1e-6), (f.tenant, f.rate, g)


def prop_work_conservation(rng):
    topo, tenants, owners, flows, active, solver = _single_bottleneck_case(rng)
    if not flows:
        return
    solver.solve(flows)
    if any(f.tenant in owners for f in flows):
        total = sum(f.rate for f in flows)
        assert total >= 1000.0 * (1 - 1e-6), total


def prop_capacity_respect(rng):
    topo, tenants, owners, flows = random_wfq_case(rng)
    if not flows:
        return
    solver = F.RateSolver(topo)
    solver.rebuild(owners)
    solver.solve(flows)
    per = {}
    for f in flows:
        for dk in f.route:
            per[dk] = per.get(dk, 0.0) + f.rate
    for dk, total in per.items():
        assert total <= topo.links[T.link_key(*dk)].capacity * (1 + 1e-9)


def _micro_sim(seed, duration=0.4):
    topo = T.build_testbed()
    tenants = {}
    for i in range(3):
        tid = f"t{i}"
        tenants[tid] = P.embed_fixed(topo, TenantRequest(10, 10.0), tid,
                                     "a000", {h: 1 for h in topo.hypervisors()})
    vm_map = {t: F._expand_vms(x) for t, x in tenants.items()}
    clients = F.make_clients(tenants, vm_map,
                             client_hyps={"h0000", "h0001"})
    gen = F.DemandGenerator("unpredictable", ("fixed", 2e5), dormancy=0.2,
                            seed=seed, clients=clients)
    sim = F.FluidSimulation(topo, tenants, gen, interval=0.2, seed=seed,
                            monitor=("a000", "t000"))
    reports = sim.run(duration)
    return sim, reports


def prop_flow_conservation(rng):
    seed = int(rng.integers(0, 1_000_000))
    sim, reports = _micro_sim(seed)
    for rep in reports:
        for (fid, tid, size, start, dur, client) in rep.fcts:
            assert dur > 0
    for f in sim.flows.values():
        assert 0 <= f.remaining <= f.size + 1e-6
    delivered = sum(size for rep in reports
                    for (_, _, size, _, _, _) in rep.fcts)
    in_flight = sum(f.size - f.remaining for f in sim.flows.values())
    injected = sum(f.size for f in sim.flows.values()) + delivered
    moved = delivered + in_flight
    assert moved <= injected + 1e-6


def prop_sim_determinism(rng):
    seed = int(rng.integers(0, 1_000_000))
    _, a = _micro_sim(seed, duration=0.3)
    _, b = _micro_sim(seed, duration=0.3)
    sig_a = [(rep.index, sorted(rep.fcts)) for rep in a]
    sig_b = [(rep.index, sorted(rep.fcts)) for rep in b]
    assert sig_a == sig_b


def prop_static_baseline_bounds(rng):
    topo, tenants, owners, flows = random_wfq_case(rng)
    if not flows:
        return
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
            assert got <= topo.links[uk].reservations.get(tid, 0.0) * (1 + 1e-9)


def prop_tradeoff_ordering(rng):
    """Aggressive probing utilizes at least as much as guarantee-capped
    sharing, which utilizes at least as much as conservative probing, on
    short bursty half-reserved scenarios."""
    # the ordering is a statement about bursty short transfers: flows finish
    # before the probe loop redistributes, the regime the endhost baselines
    # were designed around; tolerances are utilization noise on 3 s windows
    seed = int(rng.integers(0, 1_000_000))
    doc = {"name": "x", "kind": "wcbg", "seed": seed,
           "control_interval_s": 1.0, "duration_s": 3.0,
           "tenants": {"count": 2, "vms_per_tenant": 10,
                       "core_guarantee_mbps": 250.0},
           "demand": {"mode": "unpredictable", "flow_sizes": ["fixed", 5e5],
                      "dormancy_s": 0.5, "clients": "rack0",
                      "peers": "remote"}}
    utils = {}
    for policy in ("es_aggressive", "static", "es_conservative"):
        run = S.build_wcbg(dict(doc, policy=policy))
        utils[policy] = run.mean_core_utilization()
    assert utils["es_aggressive"] >= utils["static"] - 0.01
    assert utils["static"] >= utils["es_conservative"] - 0.03


def _largescale_bundle(rng):
    topo = T.fattree_like("1:1", k=4, vm_slots=6, nic_mbps=100.0,
                          port_mbps=400.0)
    spec = L.PopulationSpec(vm_mean=5.0, vm_floor=2,
                            guarantees=(1.0, 2.0, 5.0, 10.0))
    return L.fill_to_capacity(topo, spec, seed=int(rng.integers(0, 1_000_000)),
                              reject_streak=5, intervals=3)


def prop_largescale_invariants(rng):
    result = _largescale_bundle(rng)
    rep = result.report
    assert math.isclose(rep.r_under_9 + rep.r_9_to_12 + rep.r_over_12, 100.0)
    gains = L.throughput_gain(result.topo, result.tenants,
                              float(rng.choice([0.2, 0.5, 0.8])), seed=1)
    assert all(g >= 1.0 - 1e-12 for g in gains.gains.values())
    assert all(u <= 1.0 + 1e-9 for u in gains.link_util.values())


def prop_cli_reproducibility(rng):
    doc = {"name": "m", "kind": "wcbg", "seed": int(rng.integers(0, 1_000_000)),
           "control_interval_s": 0.5, "duration_s": 0.4,
           "tenants": {"count": 3, "vms_per_tenant": 10,
                       "core_guarantee_mbps": 60.0},
           "demand": {"mode": "unpredictable", "flow_sizes": ["fixed", 4e5],
                      "dormancy_s": 0.2, "clients": "rack0",
                      "peers": "remote"}}
    a = S.run_wcbg(json.loads(json.dumps(doc)))
    b = S.run_wcbg(json.loads(json.dumps(doc)))
    assert a == b


PROPERTIES = [
    ("topology residual accounting", prop_residual_accounting),
    ("topology skeleton soundness", prop_skeleton_soundness),
    ("topology determinism", prop_topology_determinism),
    ("cut-rule symmetry and monotonicity", prop_cut_rule_symmetry_monotone),
    ("tree cut equals component rule", prop_tree_cut_equals_components),
    ("placement guarantee soundness", prop_guarantee_soundness),
    ("placement early-return layering", prop_early_return_layering),
    ("placement complexity ceiling", prop_complexity_ceiling),
    ("binding score monotone and capped", prop_score_monotone_and_capped),
    ("binding allocation safety", prop_allocation_safety),
    ("binding preemption order", prop_preemption_order),
    ("binding coloring validity", prop_coloring_validity),
    ("binding weight normalization", prop_weight_normalization),
    ("fluid guarantee satisfaction", prop_guarantee_satisfaction),
    ("fluid work conservation", prop_work_conservation),
    ("fluid capacity respect", prop_capacity_respect),
    ("baseline static bounds", prop_static_baseline_bounds),
]

LIGHT_PROPERTIES = [
    ("fluid flow conservation", prop_flow_conservation, 500),
    ("fluid determinism", prop_sim_determinism, 500),
    ("baseline tradeoff ordering", prop_tradeoff_ordering, 500),
    ("largescale invariants", prop_largescale_invariants, 500),
    ("scenario runner reproducibility", prop_cli_reproducibility, 500),
]


def test_criterion_10_property_suites():
    failures = []
    for name, prop in PROPERTIES:
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        try:
            for _ in range(CASES):
                prop(rng)
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    for name, prop, cases in LIGHT_PROPERTIES:
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        try:
            for _ in range(cases):
                prop(rng)
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    ok = report(10, not failures,
                f"{len(PROPERTIES)} suites x {CASES} cases + "
                f"{len(LIGHT_PROPERTIES)} simulation suites"
                + (f" | failures: {failures}" if failures else ""))
    assert ok, failures
