import pytest

from qshare import placement as P
from qshare import topology as T
from qshare.tenants import (Tenant, TenantRequest, cut_reservation,
                            payment_factor, reserve_on_link)


def test_reserve_on_link_min_of_sums():
    assert reserve_on_link([1.0, 2.0], [3.0, 4.0]) == 3.0
    assert reserve_on_link([5.0], [1.0, 1.0, 1.0]) == 3.0
    assert reserve_on_link([], [1.0]) == 0.0


def test_reserve_on_link_homogeneous_cases():
    b = 7.0
    assert reserve_on_link([b], [b] * 4) == b
    assert reserve_on_link([b] * 2, [b] * 3) == 2 * b


def test_guarantee_edge_cases():
    assert cut_reservation(TenantRequest(2, 5.0), 1) == 5.0
    assert cut_reservation(TenantRequest(10, 5.0), 10) == 0.0


def test_payment_factor():
    assert payment_factor(TenantRequest(10, 50.0)) == 500.0
    assert payment_factor(TenantRequest(10, 100.0)) == 2 * payment_factor(
        TenantRequest(10, 50.0))
    with pytest.raises(ValueError):
        TenantRequest(1, 50.0)


def test_ha_cap():
    assert TenantRequest(4, 1.0, wcs=0.5).per_hypervisor_cap == 2
    assert TenantRequest(10, 1.0).per_hypervisor_cap == 10
    assert TenantRequest(2, 1.0, wcs=0.9).per_hypervisor_cap == 1


def test_request_validation():
    with pytest.raises(ValueError):
        TenantRequest(3, -1.0)
    with pytest.raises(ValueError):
        TenantRequest(3, 1.0, payment_constant=0.0)
    with pytest.raises(ValueError):
        TenantRequest(3, 1.0, wcs=1.0)


def test_tenant_placement_must_cover_all_vms():
    topo = T.build_testbed()
    t = P.embed_fixed(topo, TenantRequest(4, 10.0), "t", "a000",
                      {"h0000": 2, "h0005": 2})
    with pytest.raises(ValueError):
        Tenant("bad", TenantRequest(4, 10.0), t.tr, {"h0000": 3})
