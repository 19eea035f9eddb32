import math

import numpy as np

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
