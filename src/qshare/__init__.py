"""Work-conserving bandwidth guarantees for multi-tenant datacenters:
balanced tenant placement, dynamic tenant-queue binding, and a fluid WFQ
flow-level simulator with static-reservation and endhost rate-allocation
baselines."""

from .tenants import Tenant, TenantRequest, TenantRouting, payment_factor, reserve_on_link
from .topology import Topology, build_multirooted, build_testbed, fattree_like, trs_at_layer
from .placement import CostPolicy, PlacementOutcome, depart, embed, evaluate_tr
from .binding import QueueAllocationState, allocate_queues, assign_dscp, queue_weights, score, u_factor
from .fluid import DemandGenerator, Flow, FluidSimulation, RateSolver, dormancy_probability, sample_flow_size
from .baselines import EndhostRatePolicy, RAConfig
from .largescale import PopulationSpec, ScarcityReport, fill_to_capacity, throughput_gain

__version__ = "0.1.0"
