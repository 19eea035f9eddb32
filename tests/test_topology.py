import pytest

from qshare import placement as P
from qshare import topology as T
from qshare.tenants import TenantRequest


def test_smallest_tree_star():
    topo = T.build_multirooted(T.MultiRootedParams(
        layers=1, fanouts=(2,), capacities=(1.0,), vm_slots=4))
    assert topo.layer_count == 2
    assert sorted(topo.links) == [("h0000", "t000"), ("h0001", "t000")]
    assert all(l.capacity == 1.0 for l in topo.links.values())


def test_fattree_scale_and_descriptor():
    topo = T.fattree_like("1:1")
    assert len(topo.hypervisors()) == 1024
    assert topo.total_vm_slots() == 1024 * 100
    assert topo.oversubscription() == 1.0


@pytest.mark.parametrize("ratio,cores", [("4:1", 16), ("16:1", 4)])
def test_disabling_realizes_oversubscription(ratio, cores):
    topo = T.fattree_like(ratio, seed=3)
    assert len(topo.nodes_at_layer(3)) == cores
    assert topo.oversubscription() == {"4:1": 4.0, "16:1": 16.0}[ratio]


def test_testbed_oversubscription():
    assert T.build_testbed().oversubscription() == 5.0


def test_disabling_everything_disconnects():
    with pytest.raises(T.ConstructionError):
        T.build_multirooted(T.MultiRootedParams(
            layers=2, fanouts=(2, 2), capacities=(1.0, 1.0), vm_slots=2,
            disabled_fraction={2: 0.99}))


def test_trs_at_layer_fig3_shape():
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 4), ("h2", "hypervisor", 0, 4),
         ("s1", "switch", 1, 0)],
        [("h1", "s1", 10.0), ("h2", "s1", 10.0)])
    skels = T.trs_at_layer(topo, 1)
    assert len(skels) == 1
    assert skels[0].root == "s1"
    assert skels[0].leaves == ["h1", "h2"]


def test_trs_pods_partition_and_core_spans():
    topo = T.fattree_like("1:1", k=4, vm_slots=4, nic_mbps=10, port_mbps=40)
    tors = T.trs_at_layer(topo, 1)
    assert len(tors) == 8
    seen = set()
    for skel in tors:
        assert not (set(skel.leaves) & seen)
        seen.update(skel.leaves)
    assert len(seen) == 16
    cores = T.trs_at_layer(topo, 3)
    for skel in cores:
        assert len(skel.leaves) == 16
        # every skeleton is a tree with strictly downward links
        assert len(skel.links) == len(skel.order) - 1
        for node, parent in skel.parent.items():
            if parent is not None:
                assert topo.nodes[node].layer < topo.nodes[parent].layer


def test_empty_layer_returns_empty_list():
    topo = T.build_testbed()
    assert T.trs_at_layer(topo, topo.layer_count) == []
    with pytest.raises(ValueError):
        T.trs_at_layer(topo, 0)


def test_reservation_bookkeeping_roundtrip():
    topo = T.build_testbed()
    key = ("h0000", "t000")

    def arrays_kept():
        return all(topo._residual_arr[i] == topo.links[k].residual
                   and topo._tenant_arr[i] == topo.links[k].tenant_count()
                   for k, i in topo.link_index.items())

    topo.reserve(key, "x", 400.0)
    assert arrays_kept()
    topo.reserve(key, "y", 0.0)
    assert topo.links[key].reserved == 400.0
    assert topo.links[key].tenant_count() == 2
    assert arrays_kept() and topo._residual_arr[topo.link_index[key]] == 600.0
    assert topo._tenant_arr[topo.link_index[key]] == 2
    with pytest.raises(ValueError):
        topo.reserve(key, "z", 700.0)
    assert arrays_kept()
    topo.release(key, "x")
    assert arrays_kept()
    topo.release(key, "y")
    assert topo.links[key].reserved == 0.0
    assert arrays_kept() and not topo._tenant_arr.any()

    tenants = []
    for i in range(6):
        out = P.embed(topo, TenantRequest(4 + 3 * i, 20.0), tenant_id=f"t{i}")
        assert out.feasible and arrays_kept()
        tenants.append(out.tenant)
    assert topo._tenant_arr.max() >= 2
    for t in tenants[::2] + tenants[1::2]:
        P.depart(topo, t)
        assert arrays_kept()
    assert not topo._tenant_arr.any()


def test_determinism_same_seed_same_topology():
    a = T.fattree_like("16:1", seed=9)
    b = T.fattree_like("16:1", seed=9)
    assert sorted(a.nodes) == sorted(b.nodes)
    assert sorted(a.links) == sorted(b.links)
    sa = [s.root for s in T.trs_at_layer(a, 2)]
    sb = [s.root for s in T.trs_at_layer(b, 2)]
    assert sa == sb
