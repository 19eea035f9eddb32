import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_tree
from oracles import fill_reference
from qshare import largescale as L
from qshare import placement as P
from qshare import topology as T
from qshare.tenants import TenantRequest


def small_fattree(vm_slots=6):
    return T.fattree_like("1:1", k=4, vm_slots=vm_slots, nic_mbps=100.0,
                          port_mbps=400.0)


def small_population():
    return L.PopulationSpec(vm_mean=5.0, vm_floor=2,
                            guarantees=(1.0, 2.0, 5.0, 10.0))


def test_population_sampling_is_deterministic():
    spec = L.PopulationSpec()
    a = [spec.sample(np.random.default_rng(1)) for _ in range(50)]
    b = [spec.sample(np.random.default_rng(1)) for _ in range(50)]
    assert a == b
    assert all(r.vm_count >= 2 for r in a)
    assert all(r.per_vm_guarantee in (10, 50, 100, 200, 300) for r in a)


@pytest.mark.parametrize("guarantees", [(10.0, 50.0, 100.0, 200.0, 300.0),
                                        [1.0, 2.0, 5.0, 10.0]])
def test_population_sampling_draws_as_rng_choice(guarantees):
    """An indexed draw of the guarantees gives the same values as
    `rng.choice` over them and leaves the generator in the same place."""
    spec = L.PopulationSpec(vm_mean=20.0, guarantees=guarantees)
    got_rng, old_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(10_000):
        req = spec.sample(got_rng)
        n = max(spec.vm_floor, int(round(old_rng.exponential(spec.vm_mean))))
        b = float(old_rng.choice(spec.guarantees))
        assert (req.vm_count, req.per_vm_guarantee) == (n, b)
    assert got_rng.random() == old_rng.random()


class _SomeWcs:
    """Population whose requests set wcs 0.5 with probability one third."""

    def __init__(self, spec):
        self.spec = spec

    def sample(self, rng):
        req = self.spec.sample(rng)
        return replace(req, wcs=0.5) if rng.random() < 1 / 3 else req


class _Scripted:
    def __init__(self, requests):
        self.requests = iter(requests)

    def sample(self, rng):
        return next(self.requests)


def _fill_view(fill):
    return ({tid: (sorted(t.vm_placement.items()), sorted(t.tr.reserved.items()),
                   t.tr.root, t.tr.cost_b, t.tr.cost_q)
             for tid, t in fill.tenants.items()},
            fill.report.as_row(), fill.attempted, fill.rejected,
            fill.placement["accepted"], fill.placement["candidates"])


@pytest.mark.parametrize("k, oversub", [(4, "1:1"), (4, "4:1"), (8, "16:1")])
def test_fill_matches_the_embed_every_request_reference(k, oversub):
    """Skipping the embed of dominated requests changes no tenant, placement,
    reservation, report, count or candidate total; every request is either
    embedded or dominated. (At k = 4 a 16:1 ratio would disable every core,
    so 16:1 runs at k = 8.)"""
    base = L.PopulationSpec(vm_mean=8.0)
    dominated = {False: 0, True: 0}
    for seed in range(3):
        for streak in (1, 5, 30):
            for wcs in (False, True):
                spec = _SomeWcs(base) if wcs else base

                def topo():
                    return T.fattree_like(oversub, k=k, vm_slots=12,
                                          nic_mbps=1000.0, port_mbps=2000.0,
                                          seed=seed)
                args = dict(seed=seed, reject_streak=streak, intervals=3)
                got = L.fill_to_capacity(topo(), spec, **args)
                ref = fill_reference(topo(), spec, **args)
                assert _fill_view(got) == _fill_view(ref)
                counts = got.placement
                assert counts["embeds"] + counts["dominated"] == got.attempted
                assert ref.placement["embeds"] == got.attempted
                dominated[wcs] += counts["dominated"]
    assert min(dominated.values()) >= 10, dominated


def test_a_refused_request_rules_out_every_larger_one(rng):
    """On random fill states of random trees and k = 4 fattrees: when embed
    refuses (N0, B0), it refuses every sampled request with N >= N0 and
    B >= B0 (wcs unset) too, both at once and after more tenants were
    accepted; a refusal commits nothing."""
    stress = P.CostPolicy.stress()
    dominated = {(kind, later): 0 for kind in ("random tree", "fattree")
                 for later in (False, True)}
    for case in range(120):
        kind = "random tree" if case % 2 else "fattree"
        if kind == "random tree":
            topo = random_tree(rng, max_hyps=5, slot_hi=8, cap_hi=40)
            n_hi, b_hi = 12, 12.0
        else:
            topo = T.fattree_like("4:1", k=4, vm_slots=int(rng.integers(2, 8)),
                                  nic_mbps=100.0, port_mbps=200.0,
                                  seed=int(rng.integers(0, 100)))
            n_hi, b_hi = 40, 60.0

        def request(n_lo=2, b_lo=0.0):
            return TenantRequest(int(rng.integers(n_lo, n_hi + 1)),
                                 float(rng.uniform(b_lo, b_hi)))
        for i in range(int(rng.integers(0, 12))):  # a random fill state
            P.embed(topo, request(), stress, tenant_id=f"f{i}")
        for j in range(4):
            free = topo._free_arr.copy()
            small = request()
            if P.embed(topo, small, stress, f"p{j}").feasible:
                continue
            assert np.array_equal(topo._free_arr, free)
            for later in (False, True):
                if later:  # accept more tenants after the refusal
                    accepted = [P.embed(topo, request(), stress,
                                        f"a{j}.{i}").feasible
                                for i in range(int(rng.integers(1, 8)))]
                    if not any(accepted):
                        break
                for _ in range(3):
                    big = request(small.vm_count, small.per_vm_guarantee)
                    out = P.embed(topo, big, stress, "refused")
                    assert not out.feasible, (small, big, later)
                    dominated[kind, later] += 1
    assert min(dominated.values()) >= 30, dominated


def test_a_request_with_wcs_stays_out_of_the_dominance_rule():
    """At wcs 0.5, 9 VMs need three hypervisors (at most 4 on each) but 10
    fit on two (5 on each): a larger request can be placed where a smaller
    one cannot, so the fill embeds it rather than refusing it unseen."""
    def two_hypervisors(slots=5):
        return T.build_custom(
            [("h1", "hypervisor", 0, slots), ("h2", "hypervisor", 0, slots),
             ("s1", "switch", 1, 0)],
            [("h1", "s1", 1000.0), ("h2", "s1", 1000.0)])
    nine, ten = TenantRequest(9, 1.0, wcs=0.5), TenantRequest(10, 1.0, wcs=0.5)
    assert not P.embed(two_hypervisors(), nine).feasible
    assert P.embed(two_hypervisors(), ten).feasible
    fill = L.fill_to_capacity(two_hypervisors(), _Scripted([nine, ten]),
                              reject_streak=2, max_attempts=2, intervals=1)
    assert list(fill.tenants) == ["t00002"]
    assert fill.placement["embeds"] == 2 and fill.placement["dominated"] == 0
    # without wcs, 10 VMs after a refused 9 are refused unseen
    plain = TenantRequest(9, 1.0), TenantRequest(10, 1.0)
    fill = L.fill_to_capacity(two_hypervisors(4), _Scripted(plain),
                              reject_streak=2,
                              max_attempts=2, intervals=1)
    assert not fill.tenants and fill.rejected == 2
    assert fill.placement["dominated"] == 1


def test_fill_single_tenant_everything_dedicated():
    topo = small_fattree()
    spec = L.PopulationSpec(vm_mean=3.0, guarantees=(1.0,))
    result = L.fill_to_capacity(topo, spec, seed=1, reject_streak=2,
                                max_attempts=1)
    rep = result.report
    assert rep.r_under_9 == 100.0
    assert rep.r_nd == 100.0
    assert rep.r_over_12 == 0.0


def test_fill_partitions_sum_and_bounds():
    topo = small_fattree()
    result = L.fill_to_capacity(topo, small_population(), seed=3,
                                reject_streak=10)
    rep = result.report
    assert math.isclose(rep.r_under_9 + rep.r_9_to_12 + rep.r_over_12, 100.0)
    assert 0 <= rep.r_nd <= 100
    assert rep.r_ni is not None and rep.r_ni >= rep.r_nd - 1e-9
    assert rep.dscp_values_used <= 63
    assert len(result.tenants) > 0


def test_interval_dedication_on_uncontended_fill():
    topo = small_fattree()
    result = L.fill_to_capacity(topo, small_population(), seed=3,
                                reject_streak=10)
    mean_pct, dscp = L.interval_dedication(
        topo, result.tenants, r_in=0.5, intervals=5, seed=1)
    assert 0 <= mean_pct <= 100
    assert dscp <= 63


def test_gain_floor_and_safety(rng):
    for seed in range(6):
        topo = small_fattree()
        result = L.fill_to_capacity(topo, small_population(), seed=seed,
                                    reject_streak=10)
        rep = L.throughput_gain(topo, result.tenants, 0.5, seed=seed)
        assert all(g >= 1.0 - 1e-12 for g in rep.gains.values())
        assert all(u <= 1.0 + 1e-9 for u in rep.link_util.values())
        assert all(s <= u + 1e-9 for s, u in
                   zip(rep.static_util.values(), rep.link_util.values()))


def test_gain_single_active_tenant_bottleneck():
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 10), ("h2", "hypervisor", 0, 10),
         ("s1", "switch", 1, 0)],
        [("h1", "s1", 1000.0), ("h2", "s1", 1000.0)])
    t = P.embed_fixed(topo, TenantRequest(4, 50.0), "t", "s1",
                      {"h1": 2, "h2": 2})
    rep = L.throughput_gain(topo, {"t": t}, 0.0, seed=0)
    # alone and active: gain = capacity / guarantee on the bottleneck
    assert math.isclose(rep.gains["t"], 1000.0 / 100.0)


def test_gain_counts_the_undedicated_and_the_reserved_links():
    """Two tenants on h1 and h2 under one switch with 2 queues per link
    (one dedicated): both are eligible at r_in 0, one holds the dedicated
    queue and the other counts at gain 1; at r_in 1 neither is eligible.
    h3's link carries no reservation, so the reserved-only CDF leaves it
    out."""
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 10), ("h2", "hypervisor", 0, 10),
         ("h3", "hypervisor", 0, 10), ("s1", "switch", 1, 0)],
        [("h1", "s1", 1000.0), ("h2", "s1", 1000.0), ("h3", "s1", 1000.0)],
        queue_count=2)
    tenants = {tid: P.embed_fixed(topo, TenantRequest(2, 10.0), tid, "s1",
                                  {"h1": 1, "h2": 1}) for tid in "AB"}
    rep = L.throughput_gain(topo, tenants, 0.0, seed=0)
    assert (rep.high_count, rep.undedicated) == (2, 1)
    assert rep.reserved == set(topo.links) - {T.link_key("h3", "s1")}
    assert rep.util_cdf(reserved_only=True).tolist() == sorted(
        rep.link_util[k] for k in rep.reserved)
    assert len(rep.util_cdf()) == len(rep.reserved) + 1
    rep = L.throughput_gain(topo, tenants, 1.0, seed=0)
    assert (rep.high_count, rep.undedicated) == (0, 0)


def test_gain_mean_monotone_in_inactive_ratio():
    """Pooled across seeds: per-seed eligible populations are tiny and gains
    heavy-tailed, so monotonicity is a statement about the aggregate."""
    pooled = {0.2: [0.0, 0], 0.8: [0.0, 0]}
    for seed in range(20):
        topo = small_fattree()
        result = L.fill_to_capacity(topo, small_population(), seed=seed + 10,
                                    reject_streak=10)
        for r_in in pooled:
            rep = L.throughput_gain(topo, result.tenants, r_in, seed=1)
            pooled[r_in][0] += rep.mean_gain * rep.high_count
            pooled[r_in][1] += rep.high_count
    low = pooled[0.2][0] / pooled[0.2][1]
    high = pooled[0.8][0] / pooled[0.8][1]
    assert high >= low - 1e-9


def test_fill_stops_on_rejection_streak():
    topo = small_fattree(vm_slots=2)
    spec = L.PopulationSpec(vm_mean=50.0, vm_floor=40, guarantees=(1.0,))
    result = L.fill_to_capacity(topo, spec, seed=0, reject_streak=5)
    assert result.rejected >= 5
    assert not result.tenants or result.report.tenants > 0


def test_scarcity_and_gains_use_the_topologys_queue_count():
    """At 4 queues per link a link has 3 dedicated queues: R_ND counts the
    tenants none of whose links carries more than 3 tenants, and of 4
    high-demand tenants on one link only 3 are dedicated and gain."""
    topo = T.fattree_like("4:1", k=8, seed=3, queue_count=4)
    fill = L.fill_to_capacity(topo, L.PopulationSpec(vm_mean=12.0), seed=3,
                              reject_streak=20)
    fits = [all(topo.links[k].tenant_count() <= 3 for k in t.tr.links)
            for t in fill.tenants.values()]
    assert 0 < sum(fits) < len(fits)
    assert math.isclose(fill.report.r_nd, sum(fits) / len(fits) * 100)

    topo = T.build_custom(
        [("h1", "hypervisor", 0, 10), ("h2", "hypervisor", 0, 10),
         ("s1", "switch", 1, 0)],
        [("h1", "s1", 1000.0), ("h2", "s1", 1000.0)], queue_count=4)
    tenants = {tid: P.embed_fixed(topo, TenantRequest(2, 10.0), tid, "s1",
                                  {"h1": 1, "h2": 1}) for tid in "ABCD"}
    rep = L.throughput_gain(topo, tenants, 0.0, seed=0)
    assert sorted(g > 1.0 for g in rep.gains.values()) == [False] + [True] * 3
    # the fourth is eligible but holds no dedicated queue
    assert (rep.high_count, rep.undedicated) == (4, 1)
