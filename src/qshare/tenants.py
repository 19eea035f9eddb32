"""Tenants, hose-model guarantees, payment factors, and reservation arithmetic.

A tenant asks for N VMs, each with a symmetric per-VM guarantee B. Embedding
confines the tenant's traffic to a routing tree (TR) over the physical
topology; the bandwidth reserved on each tree link follows the cut rule
implemented by `reserve_on_link`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TenantRequest:
    vm_count: int
    per_vm_guarantee: float
    payment_constant: float = 1.0
    wcs: float | None = None

    def __post_init__(self):
        if self.vm_count < 2:
            raise ValueError("a tenant needs at least 2 VMs")
        if self.per_vm_guarantee < 0:
            raise ValueError("guarantee must be non-negative")
        if self.payment_constant <= 0:
            raise ValueError("payment constant must be positive")
        if self.wcs is not None and not (0 <= self.wcs < 1):
            raise ValueError("wcs must be in [0, 1)")

    @property
    def per_hypervisor_cap(self) -> int:
        """Max VMs one hypervisor may host for this tenant (fault-domain cap)."""
        if self.wcs is None:
            return self.vm_count
        cap = math.floor((1 - self.wcs) * self.vm_count)
        return max(cap, 1)


def payment_factor(request: TenantRequest) -> float:
    return request.payment_constant * request.vm_count * request.per_vm_guarantee


def reserve_on_link(side_a, side_b) -> float:
    """Bandwidth needed on a tree link separating VM guarantee multisets
    side_a and side_b: min(sum(side_a), sum(side_b)). Empty side -> 0."""
    if not side_a or not side_b:
        return 0.0
    return min(math.fsum(side_a), math.fsum(side_b))


def cut_reservation(request: TenantRequest, below: int) -> float:
    """Homogeneous cut rule for a link with `below` of the tenant's VMs under
    it: B * min(below, N - below)."""
    n = request.vm_count
    if below < 0 or below > n:
        raise ValueError("below must be in [0, N]")
    return request.per_vm_guarantee * min(below, n - below)


@dataclass
class TenantRouting:
    """Pruned routing tree spanning the TR root and every hosting hypervisor."""

    root: str
    layer: int
    links: tuple
    reserved: dict
    parent: dict
    cost_b: float = 0.0
    cost_q: int = 0


@dataclass
class Tenant:
    id: str
    request: TenantRequest
    tr: TenantRouting
    vm_placement: dict
    dscp: int = 0
    state: str = "shared"
    embedded: bool = True

    def __post_init__(self):
        total = sum(self.vm_placement.values())
        if total != self.request.vm_count:
            raise ValueError(f"placement hosts {total} VMs, expected "
                             f"{self.request.vm_count}")

    def hypervisors(self) -> list:
        return sorted(h for h, m in self.vm_placement.items() if m > 0)

    def payment(self) -> float:
        return payment_factor(self.request)
