import math

import numpy as np
import pytest

from oracles import alg2_reference
from qshare import binding as B
from qshare import placement as P
from qshare import topology as T
from qshare.tenants import TenantRequest


def split_tenant(topo, tid, b=50.0, n=10):
    return P.embed_fixed(topo, TenantRequest(n, b), tid, "a000",
                         {"h0000": n // 2, "h0005": n - n // 2})


def test_u_factor_direct_evaluation():
    topo = T.build_testbed()
    t = split_tenant(topo, "t")
    u, b_star = B.u_factor(t, {"h0000": (100.0, 125.0), "h0005": (200.0, 150.0)})
    assert math.isclose(u, 0.8)
    assert b_star == 250.0


def test_u_factor_zero_without_usage_and_capped():
    topo = T.build_testbed()
    t = split_tenant(topo, "t")
    u, _ = B.u_factor(t, {})
    assert u == 0.0
    u, _ = B.u_factor(t, {"h0000": (0.0, 500.0)})
    assert u == 1.0


def test_u_factor_colocated_tenant_excluded():
    topo = T.build_testbed()
    t = P.embed_fixed(topo, TenantRequest(4, 10.0), "c", "t000", {"h0000": 4})
    u, b_star = B.u_factor(t, {"h0000": (999.0, 999.0)})
    assert u == 0.0 and b_star is None
    assert B.score(t, u, b_star).score == 0.0


def test_score_cap_and_k_tilde():
    topo = T.build_testbed()
    t = split_tenant(topo, "t")
    s = B.score(t, 1.0, 250.0)
    assert s.score == 500.0 and s.k_tilde == 2.0
    s2 = B.score(t, 0.8, 250.0)
    assert math.isclose(s2.score, 400.0)
    with pytest.raises(ValueError):
        B.score(t, 1.2)


def test_lying_tenant_loses():
    topo = T.build_testbed()
    honest = split_tenant(topo, "honest", b=100.0)
    liar = split_tenant(topo, "liar", b=10.0)
    s_honest = B.score(honest, 0.5, 500.0)
    s_liar = B.score(liar, 1.0, 50.0)
    assert s_honest.score == 500.0 and s_liar.score == 100.0
    assert s_honest.score > s_liar.score


def contended_link_tenants(count=3, queue_count=3):
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 60), ("h2", "hypervisor", 0, 60),
         ("s1", "switch", 1, 0)],
        [("h1", "s1", 10_000.0), ("h2", "s1", 10_000.0)],
        queue_count=queue_count)
    tenants = {}
    for i in range(count):
        tid = f"t{i}"
        tenants[tid] = P.embed_fixed(topo, TenantRequest(4, 10.0), tid, "s1",
                                     {"h1": 2, "h2": 2})
    return topo, tenants


def test_allocate_queues_by_score():
    _, tenants = contended_link_tenants()
    st = B.allocate_queues(tenants, {"t0": 9, "t1": 5, "t2": 3},
                           B.QueueAllocationState(3), np.random.default_rng(0))
    assert st.dedicated == {"t0", "t1"}
    assert tenants["t2"].state == "shared"


def test_dropped_score_gets_preempted_next_interval():
    _, tenants = contended_link_tenants()
    st = B.allocate_queues(tenants, {"t0": 9, "t1": 5, "t2": 3},
                           B.QueueAllocationState(3), np.random.default_rng(0))
    st2 = B.allocate_queues(tenants, {"t0": 1, "t1": 5, "t2": 3}, st,
                            np.random.default_rng(0))
    assert st2.dedicated == {"t1", "t2"}
    assert tenants["t0"].state == "shared"


def test_single_tenant_is_dedicated():
    _, tenants = contended_link_tenants(count=1, queue_count=8)
    st = B.allocate_queues(tenants, {"t0": 0.0}, B.QueueAllocationState(8),
                           np.random.default_rng(0))
    assert st.dedicated == {"t0"}


def test_equal_scores_never_preempt():
    _, tenants = contended_link_tenants()
    st = B.allocate_queues(tenants, {"t0": 5, "t1": 5, "t2": 5},
                           B.QueueAllocationState(3), np.random.default_rng(1))
    held = set(st.dedicated)
    st2 = B.allocate_queues(tenants, {"t0": 5, "t1": 5, "t2": 5}, st,
                            np.random.default_rng(2))
    assert st2.dedicated == held


def test_queue_weights_example():
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 60), ("h2", "hypervisor", 0, 60),
         ("s1", "switch", 1, 0)],
        [("h1", "s1", 1000.0), ("h2", "s1", 1000.0)])
    for tid in ("A", "B", "C"):
        P.embed_fixed(topo, TenantRequest(10, 60.0), tid, "s1",
                      {"h1": 5, "h2": 5})  # 300 Mbps each on both links
    st = B.QueueAllocationState(8)
    st.owners[("h1", "s1")] = {"A"}
    w = B.queue_weights(("h1", "s1"), topo.links[("h1", "s1")], st)
    assert math.isclose(w[("dedicated", "A")][0], 1 / 3)
    assert math.isclose(w[("shared",)][0], 2 / 3)
    assert (w[("dedicated", "A")][1], w[("shared",)][1]) == (5, 10)


def test_queue_weights_sole_occupant_and_equal_tenants():
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 120), ("h2", "hypervisor", 0, 120),
         ("s1", "switch", 1, 0)],
        [("h1", "s1", 10_000.0), ("h2", "s1", 10_000.0)], queue_count=16)
    sole = P.embed_fixed(topo, TenantRequest(4, 100.0), "solo", "s1",
                         {"h1": 2, "h2": 2})
    st = B.QueueAllocationState(16)
    st.owners[("h1", "s1")] = {"solo"}
    w = B.queue_weights(("h1", "s1"), topo.links[("h1", "s1")], st)
    assert w[("dedicated", "solo")] == (1.0, 15)
    for i in range(10):
        P.embed_fixed(topo, TenantRequest(10, 94.0 / 5), f"e{i}", "s1",
                      {"h1": 5, "h2": 5})
    st.owners[("h1", "s1")] = {f"e{i}" for i in range(10)} | {"solo"}
    w = B.queue_weights(("h1", "s1"), topo.links[("h1", "s1")], st)
    equal = {qid: round(v[0], 9) for qid, v in w.items() if qid[1].startswith("e")}
    assert len(set(equal.values())) == 1


def test_queue_weights_zero_reserved_degenerates_to_equal():
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 60), ("s1", "switch", 1, 0),
         ("h2", "hypervisor", 0, 60)],
        [("h1", "s1", 1000.0), ("h2", "s1", 1000.0)])
    P.embed_fixed(topo, TenantRequest(4, 0.0), "z", "s1", {"h1": 2, "h2": 2})
    st = B.QueueAllocationState(8)
    st.owners[("h1", "s1")] = {"z"}
    w = B.queue_weights(("h1", "s1"), topo.links[("h1", "s1")], st)
    assert w[("dedicated", "z")][0] == 1.0


def test_dscp_disjoint_trees_share_and_clique_needs_n():
    topo = T.build_testbed()
    a = P.embed_fixed(topo, TenantRequest(2, 5.0), "a", "t000",
                      {"h0000": 1, "h0001": 1})
    b = P.embed_fixed(topo, TenantRequest(2, 5.0), "b", "t000",
                      {"h0002": 1, "h0003": 1})
    asg, failed = B.assign_dscp({"a": a, "b": b}, {"a", "b"}, {})
    assert failed == 0
    assert asg["a"] == asg["b"] == 1

    big = T.build_custom(
        [("h1", "hypervisor", 0, 200), ("h2", "hypervisor", 0, 200),
         ("s1", "switch", 1, 0)],
        [("h1", "s1", 1e9), ("h2", "s1", 1e9)])
    clique = {f"c{i:02d}": P.embed_fixed(big, TenantRequest(2, 1.0), f"c{i:02d}",
                                         "s1", {"h1": 1, "h2": 1})
              for i in range(63)}
    asg, failed = B.assign_dscp(clique, set(clique), {})
    assert failed == 0
    assert len(set(asg.values())) == 63
    one_more = P.embed_fixed(big, TenantRequest(2, 1.0), "c64", "s1",
                             {"h1": 1, "h2": 1})
    clique["c64"] = one_more
    asg, failed = B.assign_dscp(clique, set(clique), {})
    assert failed == 1  # ran out of values: reported, not raised


def test_allocate_queues_matches_reference(rng):
    for _ in range(300):
        qc = int(rng.integers(1, 5))  # 1: one queue, every tenant shared
        links = [f"L{i}" for i in range(int(rng.integers(1, 4)))]
        tenants = {}
        tr_links = {}
        for i in range(int(rng.integers(2, 7))):
            tid = f"t{i}"
            chosen = tuple(sorted(rng.choice(links,
                                             size=int(rng.integers(1, len(links) + 1)),
                                             replace=False)))
            tr_links[tid] = chosen
            tenants[tid] = _FakeTenant(tid, chosen)
        scores = {tid: float(rng.random()) for tid in tenants}
        prev = B.QueueAllocationState(qc)
        # random consistent previous state
        for tid in tenants:
            if rng.random() < 0.4:
                if all(len(prev.owners_on(k)) < qc - 1 for k in tr_links[tid]):
                    prev.enqueue(tenants[tid])
        ref_owners, ref_ded = alg2_reference(
            tr_links, scores, {k: set(v) for k, v in prev.owners.items()}, qc)
        st = B.allocate_queues(tenants, scores, prev, np.random.default_rng(1))
        assert st.dedicated == ref_ded
        for k in set(ref_owners) | set(st.owners):
            assert st.owners.get(k, set()) == ref_owners.get(k, set())


class _FakeTenant:
    def __init__(self, tid, links):
        self.id = tid
        self.tr = type("TR", (), {"links": links})()
        self.state = "shared"
