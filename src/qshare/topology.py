"""Layered datacenter topologies with capacity and queue bookkeeping.

Topologies are multi-rooted trees: hypervisors at layer 0, switch tiers
above, links between adjacent layers only (multi-rooted trees, fattree
equivalents, the two-tier testbed, hand-built trees). A routing-tree skeleton
is the downward closure of one switch.

Reservation state on links is mutated only by the placement module under a
single-writer contract; everything else is immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HYPERVISOR = "hypervisor"
SWITCH = "switch"

_REL_EPS = 1e-9


class ConstructionError(ValueError):
    """Topology parameters produced an unusable network."""


@dataclass
class Node:
    id: str
    kind: str
    layer: int
    vm_slots_total: int = 0
    vm_slots_free: int = 0

    def is_hypervisor(self) -> bool:
        return self.kind == HYPERVISOR


@dataclass
class Link:
    """Undirected link; `reservations` maps tenant id -> reserved Mbps.

    A tenant appears in `reservations` for every link of its routing tree,
    possibly with a 0.0 reservation; membership is what queue accounting and
    per-port tenant counts are based on.
    """

    a: str
    b: str
    capacity: float
    queue_count: int = 8
    reserved: float = 0.0
    reservations: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        return (self.a, self.b)

    @property
    def residual(self) -> float:
        return self.capacity - self.reserved

    def tenant_count(self) -> int:
        return len(self.reservations)

    def _recompute(self) -> None:
        self.reserved = math.fsum(self.reservations.values())


def link_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u < v else (v, u)


@dataclass
class Topology:
    nodes: dict
    links: dict
    layer_count: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for (u, v) in self.links:
            adj[u].append(v)
            adj[v].append(u)
        for n in adj:
            adj[n].sort()
        self.adjacency = adj
        self.total_capacity = math.fsum(l.capacity for l in self.links.values())
        self.max_queue_count = max(
            (l.queue_count for l in self.links.values()), default=8)
        self._reserved_sum = math.fsum(l.reserved for l in self.links.values())
        self._skel_cache: dict[int, list] = {}
        self._star_cache: StarTable | None = None
        self._layer_cache: dict[int, LayerTable] = {}
        hyps = sorted(n for n, d in self.nodes.items() if d.kind == HYPERVISOR)
        self.hyp_index = {h: i for i, h in enumerate(hyps)}
        self._free_arr = np.array(
            [self.nodes[h].vm_slots_free for h in hyps], dtype=np.int64)
        # each link's residual and tenant count, in `links` order, kept by
        # reserve and release
        self.link_index = {key: i for i, key in enumerate(self.links)}
        self._residual_arr = np.array(
            [l.residual for l in self.links.values()], dtype=np.float64)
        self._tenant_arr = np.array(
            [l.tenant_count() for l in self.links.values()], dtype=np.int64)

    # -- queries -------------------------------------------------------
    def hypervisors(self) -> list[str]:
        return sorted(n for n, d in self.nodes.items() if d.kind == HYPERVISOR)

    def nodes_at_layer(self, layer: int) -> list[str]:
        return sorted(n for n, d in self.nodes.items() if d.layer == layer)

    def link(self, u: str, v: str) -> Link:
        return self.links[link_key(u, v)]

    def down_neighbors(self, node: str) -> list[str]:
        lay = self.nodes[node].layer
        return [m for m in self.adjacency[node] if self.nodes[m].layer < lay]

    def up_neighbors(self, node: str) -> list[str]:
        lay = self.nodes[node].layer
        return [m for m in self.adjacency[node] if self.nodes[m].layer > lay]

    def total_reserved(self) -> float:
        return self._reserved_sum

    def load(self) -> float:
        if self.total_capacity <= 0:
            return 0.0
        return self.total_reserved() / self.total_capacity

    def total_vm_slots(self) -> int:
        return sum(d.vm_slots_total for d in self.nodes.values())

    def free_vm_slots(self) -> int:
        return sum(d.vm_slots_free for d in self.nodes.values())

    def oversubscription(self) -> float:
        """Aggregate downlink/uplink capacity ratio at the highest link tier."""
        top = self.layer_count - 1
        if top < 2:
            return 1.0
        down = math.fsum(
            l.capacity for l in self.links.values()
            if max(self.nodes[l.a].layer, self.nodes[l.b].layer) == top - 1
        )
        up = math.fsum(
            l.capacity for l in self.links.values()
            if max(self.nodes[l.a].layer, self.nodes[l.b].layer) == top
        )
        if up <= 0:
            raise ConstructionError("no uplinks at the top tier")
        return down / up

    # -- reservation state (single-writer: placement module) ------------
    def reserve(self, key: tuple[str, str], tenant_id: str, amount: float) -> None:
        lnk = self.links[key]
        if amount > lnk.residual + _REL_EPS * lnk.capacity:
            raise ValueError(f"over-reservation on {key}: {amount} > {lnk.residual}")
        before = lnk.reserved
        lnk.reservations[tenant_id] = amount
        lnk._recompute()
        self._reserved_sum += lnk.reserved - before
        i = self.link_index[key]
        self._residual_arr[i] = lnk.residual
        self._tenant_arr[i] = lnk.tenant_count()

    def release(self, key: tuple[str, str], tenant_id: str) -> None:
        lnk = self.links[key]
        before = lnk.reserved
        del lnk.reservations[tenant_id]
        lnk._recompute()
        self._reserved_sum += lnk.reserved - before
        i = self.link_index[key]
        self._residual_arr[i] = lnk.residual
        self._tenant_arr[i] = lnk.tenant_count()

    def occupy_slots(self, hyp: str, count: int) -> None:
        node = self.nodes[hyp]
        if node.vm_slots_free < count:
            raise ValueError(f"not enough free VM slots on {hyp}")
        node.vm_slots_free -= count
        self._free_arr[self.hyp_index[hyp]] = node.vm_slots_free

    def free_slots(self, hyp: str, count: int) -> None:
        node = self.nodes[hyp]
        node.vm_slots_free += count
        if node.vm_slots_free > node.vm_slots_total:
            raise ValueError(f"slot underflow on {hyp}")
        self._free_arr[self.hyp_index[hyp]] = node.vm_slots_free


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

@dataclass
class MultiRootedParams:
    """Parameters for a multi-rooted tree with up to three switch tiers.

    fanouts[0] = hypervisors per ToR, fanouts[1] = ToRs per pod,
    fanouts[2] = number of pods (every core switch attaches to each pod).
    redundancy[i] = switches per group at tier i+1 (redundancy[0] is always 1:
    one ToR per hypervisor group). Core switch c attaches to aggregation
    switch (c mod redundancy[1]) in every pod.

    capacities[i] is the capacity of links whose upper endpoint is at layer
    i+1. disabled_fraction maps a switch layer to the fraction of its switches
    removed (uniform per seed) to realize oversubscription.
    """

    layers: int
    fanouts: tuple
    capacities: tuple
    vm_slots: int
    redundancy: tuple = ()
    queue_count: int = 8
    disabled_fraction: dict = field(default_factory=dict)
    seed: int = 0


def _hyp_id(i: int) -> str:
    return f"h{i:04d}"


_TIER_PREFIX = {1: "t", 2: "a", 3: "c"}


def _switch_id(layer: int, i: int) -> str:
    return f"{_TIER_PREFIX[layer]}{i:03d}"


def build_multirooted(params: MultiRootedParams) -> Topology:
    """Deterministic multi-rooted tree; raises ConstructionError on bad params
    or if disabling disconnects any hypervisor from the top layer."""
    n = params.layers
    if n < 1 or n > 3:
        raise ConstructionError("1 to 3 switch layers supported")
    if len(params.fanouts) != n or len(params.capacities) != n:
        raise ConstructionError("fanouts/capacities must have one entry per layer")
    if any(f <= 0 for f in params.fanouts) or any(c <= 0 for c in params.capacities):
        raise ConstructionError("fanouts and capacities must be positive")
    red = tuple(params.redundancy) or (1,) * n
    if len(red) != n or red[0] != 1 or any(r <= 0 for r in red):
        raise ConstructionError("redundancy must be per-layer with redundancy[0] == 1")
    for lay, frac in params.disabled_fraction.items():
        if not (0 <= frac < 1):
            raise ConstructionError("disabled fraction must be in [0, 1)")
        if not (1 <= lay <= n):
            raise ConstructionError(f"disabled fraction names unknown layer {lay}")

    nodes: dict[str, Node] = {}
    links: dict[tuple[str, str], Link] = {}

    def add_link(u: str, v: str, cap: float) -> None:
        k = link_key(u, v)
        links[k] = Link(k[0], k[1], float(cap), queue_count=params.queue_count)

    f1 = params.fanouts[0]
    tor_count = params.fanouts[1] * params.fanouts[2] if n >= 3 else (
        params.fanouts[1] if n == 2 else 1)
    hyp_count = f1 * tor_count
    for i in range(hyp_count):
        nodes[_hyp_id(i)] = Node(_hyp_id(i), HYPERVISOR, 0,
                                 params.vm_slots, params.vm_slots)
    for t in range(tor_count):
        tid = _switch_id(1, t)
        nodes[tid] = Node(tid, SWITCH, 1)
        for j in range(f1):
            add_link(tid, _hyp_id(t * f1 + j), params.capacities[0])

    if n >= 2:
        if n == 2:
            pods, aggs_per_pod = 1, red[1]
            tors_per_pod = params.fanouts[1]
        else:
            pods, aggs_per_pod = params.fanouts[2], red[1]
            tors_per_pod = params.fanouts[1]
        agg_ids = []
        for p in range(pods):
            for r in range(aggs_per_pod):
                aid = _switch_id(2, p * aggs_per_pod + r)
                agg_ids.append(aid)
                nodes[aid] = Node(aid, SWITCH, 2)
                for t in range(tors_per_pod):
                    add_link(aid, _switch_id(1, p * tors_per_pod + t),
                             params.capacities[1])

    if n >= 3:
        cores = red[2]
        for c in range(cores):
            cid = _switch_id(3, c)
            nodes[cid] = Node(cid, SWITCH, 3)
            for p in range(pods):
                aid = _switch_id(2, p * aggs_per_pod + (c % aggs_per_pod))
                add_link(cid, aid, params.capacities[2])

    rng = np.random.default_rng(params.seed)
    for lay in sorted(params.disabled_fraction):
        frac = params.disabled_fraction[lay]
        if frac == 0:
            continue
        layer_nodes = sorted(n_ for n_, d in nodes.items()
                             if d.kind == SWITCH and d.layer == lay)
        kill = rng.choice(len(layer_nodes),
                          size=int(round(frac * len(layer_nodes))), replace=False)
        for idx in sorted(kill):
            dead = layer_nodes[idx]
            del nodes[dead]
            for k in [k for k in links if dead in k]:
                del links[k]

    topo = Topology(nodes, links, layer_count=n + 1,
                    params={"multirooted": params.__dict__ | {
                        "disabled_fraction": dict(params.disabled_fraction)}})
    _check_upward_connectivity(topo)
    return topo


def _check_upward_connectivity(topo: Topology) -> None:
    top = topo.layer_count - 1
    top_nodes = set(topo.nodes_at_layer(top))
    if not top_nodes:
        raise ConstructionError("no switches at the top layer")
    for h in topo.hypervisors():
        frontier, seen = [h], {h}
        reached = False
        while frontier and not reached:
            u = frontier.pop()
            for v in topo.up_neighbors(u):
                if v in top_nodes:
                    reached = True
                    break
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        if not reached:
            raise ConstructionError(f"{h} cannot reach the top layer after disabling")


def fattree_like(oversub: str = "1:1", *, k: int = 16, vm_slots: int = 100,
                 nic_mbps: float = 10_000.0, port_mbps: float = 40_000.0,
                 queue_count: int = 8, seed: int = 0) -> Topology:
    """k-ary fattree-equivalent multi-rooted tree; oversubscription realized
    by disabling core switches uniformly at random per seed."""
    half = k // 2
    num, _, den = oversub.partition(":")
    ratio = int(num) / int(den or "1")
    cores_full = half * half
    frac = 1.0 - 1.0 / ratio if ratio > 1 else 0.0
    return build_multirooted(MultiRootedParams(
        layers=3,
        fanouts=(half, half, k),
        redundancy=(1, half, cores_full),
        capacities=(nic_mbps, port_mbps, port_mbps),
        vm_slots=vm_slots,
        queue_count=queue_count,
        disabled_fraction={3: frac},
        seed=seed,
    ))


def build_testbed(racks: int = 2, servers_per_rack: int = 5, vm_slots: int = 10,
                  nic_mbps: float = 1000.0, core_mbps: float = 1000.0,
                  queue_count: int = 8) -> Topology:
    """Two-tier rack topology: ToR per rack, one core switch on top."""
    return build_multirooted(MultiRootedParams(
        layers=2,
        fanouts=(servers_per_rack, racks),
        capacities=(nic_mbps, core_mbps),
        vm_slots=vm_slots,
        queue_count=queue_count,
    ))


def build_custom(nodes: list, links: list, *, queue_count: int = 8) -> Topology:
    """Hand-built topology from (id, kind, layer, vm_slots) node tuples and
    (u, v, capacity) link tuples."""
    nd = {}
    for (nid, kind, layer, slots) in nodes:
        nd[nid] = Node(nid, kind, layer, slots, slots)
    lk = {}
    for (u, v, cap) in links:
        k = link_key(u, v)
        lk[k] = Link(k[0], k[1], float(cap), queue_count=queue_count)
    layer_count = max(d.layer for d in nd.values()) + 1
    return Topology(nd, lk, layer_count=layer_count)


# ---------------------------------------------------------------------------
# routing-tree skeletons
# ---------------------------------------------------------------------------

@dataclass
class TRSkeleton:
    """Tree rooted at a switch whose leaves are the hypervisors reachable
    using only downward links."""

    root: str
    parent: dict
    children: dict
    order: list
    leaves: list
    links: list


def _bfs_tree(topo: Topology, root: str) -> TRSkeleton:
    parent = {root: None}
    children: dict[str, list] = {root: []}
    order = [root]
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(topo.down_neighbors(u)):
                if v in parent:
                    continue
                parent[v] = u
                children.setdefault(u, []).append(v)
                children.setdefault(v, [])
                order.append(v)
                nxt.append(v)
        frontier = nxt
    leaves = sorted(n for n in order if topo.nodes[n].kind == HYPERVISOR)
    links = [link_key(n, parent[n]) for n in order if parent[n] is not None]
    return TRSkeleton(root, parent, children, order, leaves, links)


def trs_at_layer(topo: Topology, layer: int) -> list:
    """One skeleton per node at `layer`, in node-id order; empty if the layer
    has no switches. Skeletons are structural and cached per topology."""
    if layer < 1 or layer > topo.layer_count:
        raise ValueError(f"layer must be in [1, {topo.layer_count}]")
    cached = topo._skel_cache.get(layer)
    if cached is not None:
        return cached
    skeletons = []
    for root in topo.nodes_at_layer(layer):
        if topo.nodes[root].kind != SWITCH:
            continue
        skel = _bfs_tree(topo, root)
        if skel.leaves:
            skeletons.append(skel)
    topo._skel_cache[layer] = skeletons
    return skeletons


@dataclass
class StarTable:
    """Every star switch of a topology: a switch whose down-neighbours are
    all hypervisors. A hypervisor hangs under one switch, so a star's
    children are the same in every skeleton: its down-neighbours in sorted
    order. Rows are padded to the widest star; `valid` is False in padding.
    """

    row: dict          # star switch id -> row
    hyps: list         # per row, its hypervisors in skeleton-children order
    hyp_idx: np.ndarray  # (stars, width) indices into `_free_arr`, 0 in padding
    valid: np.ndarray    # (stars, width) bool
    link_idx: np.ndarray  # (stars, width) indices of the star-to-hypervisor
                          # links into `_residual_arr`, 0 in padding


def star_table(topo: Topology) -> StarTable:
    """The topology's star table, built on first use and cached (it is
    structural)."""
    if topo._star_cache is not None:
        return topo._star_cache
    stars = []
    for node in sorted(topo.nodes):
        down = topo.down_neighbors(node) if topo.nodes[node].kind == SWITCH else []
        if down and all(topo.nodes[h].kind == HYPERVISOR for h in down):
            stars.append((node, sorted(down)))
    width = max((len(hs) for _, hs in stars), default=0)
    hyp_idx = np.zeros((len(stars), width), dtype=np.int64)
    valid = np.zeros((len(stars), width), dtype=bool)
    link_idx = np.zeros((len(stars), width), dtype=np.int64)
    for r, (node, hs) in enumerate(stars):
        hyp_idx[r, :len(hs)] = [topo.hyp_index[h] for h in hs]
        valid[r, :len(hs)] = True
        link_idx[r, :len(hs)] = [topo.link_index[link_key(node, h)] for h in hs]
    topo._star_cache = StarTable(
        {node: r for r, (node, _) in enumerate(stars)}, [hs for _, hs in stars],
        hyp_idx, valid, link_idx)
    return topo._star_cache


@dataclass
class LayerTable:
    """The skeletons of one layer (`trs_at_layer` order) as arrays, so that
    all of them can be screened in one pass."""

    leaf_idx: np.ndarray  # every skeleton's leaves' indices into `_free_arr`,
                          # concatenated in skeleton order
    starts: np.ndarray    # where each skeleton's run of `leaf_idx` starts
    sizes: np.ndarray     # each skeleton's node count, len(order)
    star_row: np.ndarray  # each root's row in the star table, -1 if no star


def layer_table(topo: Topology, layer: int) -> LayerTable:
    """The layer's table, built on first use and cached (it is structural)."""
    cached = topo._layer_cache.get(layer)
    if cached is not None:
        return cached
    skels = trs_at_layer(topo, layer)
    rows = star_table(topo).row
    leaves = [topo.hyp_index[h] for s in skels for h in s.leaves]
    starts = np.cumsum([0] + [len(s.leaves) for s in skels], dtype=np.int64)
    topo._layer_cache[layer] = LayerTable(
        np.array(leaves, dtype=np.int64), starts[:-1],
        np.array([len(s.order) for s in skels], dtype=np.int64),
        np.array([rows.get(s.root, -1) for s in skels], dtype=np.int64))
    return topo._layer_cache[layer]
