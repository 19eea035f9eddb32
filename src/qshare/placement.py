"""Balanced tenant placement: layered routing-tree exploration, optimal VM
allocation, and candidate election on combined bandwidth/queue cost.

Exploration starts at the lowest switch layer and returns the cheapest
feasible candidate at the first layer that has one, so tenants stay as low in
the tree as resources allow. Feasibility of a routing-tree option is decided
by computing a minimum-reservation VM allocation for it.

The allocation itself is an exact dynamic program over the tree (min-plus
convolution on VM counts) rather than a largest-first greedy: the greedy is
not optimal once a tree has two switch levels, and the test suite holds this
module to an exhaustive-search oracle. A hypervisor's usable slots are its
free slots capped by the fault-domain limit; what its root path can absorb
enters through the per-link edge costs.

Links and slots do not change within one embed, so each embed computes
only what its election reads. A star root is elected from count N of its
closed-form profile, for all star roots of a layer and all their
hypervisors in one array pass; the full profiles of all star switches
(switches over hypervisors only) come from one pass the first time a merge
needs one. Every link's window of admissible counts comes from one array
pass per embed, and a switch reads its children through a per-skeleton
table of their links and star rows, so a child costs a few lookups and a
star child that can take no VM is never read. A merge is a min-plus
convolution in array form: each feasible count of the child is added to a
shifted view of the profile so far, a bounded block of counts at a time,
over only the counts the two operands can reach. A child that can take no
VM leaves the profile as it is, and a profile that holds only zero VMs so
far gives the child's own. Switches whose children sit behind the same
windows of admissible counts (aggregations of one pod, cores of one group)
share each merge, so each distinct merge input is convolved once per embed.

`embed` takes each layer in two array passes. The first screens every
skeleton of the layer on its usable-slot sum. The second costs every star
root that passes straight from the star arrays: its VMs, c_b and c_q come
out as they would from the tree built for it, but no tree is built, and
only the least-cost star goes on to the election. Any other root goes
through `evaluate_tr`, which builds its tree. A star that wins gets its
tree last, from the VMs it was elected with, and the tree must cost what
it was elected on.

`ops` counts defined work units, not the work performed: what evaluating
every skeleton with `evaluate_tr` and no sharing would spend,
hypervisors x (N+1) the first time an embed uses a star's profile, N+1 per
child of every merge (run, shared or skipped), and the skeleton size per
screened routing tree.

Both the chosen and an explicitly given placement (`embed_fixed`) become a
routing tree the same way: the skeleton pruned to the hosting hypervisors,
each link reserving the cut rule for the VMs below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tenants import Tenant, TenantRequest, TenantRouting, cut_reservation
from .topology import (Topology, TRSkeleton, layer_table, link_key,
                       star_table, trs_at_layer)

_EPS = 1e-9


@dataclass
class CostPolicy:
    """Weights for combined candidate cost w_b * c_b_hat + w_q * c_q_hat.

    With both weights None the policy is load-adaptive: w_b = load and
    w_q = 1 - load, where load is the reserved fraction of total capacity.
    """

    w_b: float | None = None
    w_q: float | None = None

    def weights(self, load: float) -> tuple[float, float]:
        if self.w_b is None and self.w_q is None:
            return load, 1.0 - load
        wb = self.w_b or 0.0
        wq = self.w_q or 0.0
        if wb < 0 or wq < 0 or (wb == 0 and wq == 0):
            raise ValueError("cost weights must be non-negative, not both zero")
        return wb, wq

    @staticmethod
    def stress() -> "CostPolicy":
        """Queue-balancing stress mode: c_q dominates the election."""
        return CostPolicy(w_b=0.01, w_q=1.0)


@dataclass
class TrEvaluation:
    feasible: bool
    placement: dict | None = None
    c_b: float = 0.0
    c_q: int = 0
    pruned_links: tuple = ()
    reserved: dict | None = None
    parent: dict | None = None
    root: str = ""
    layer: int = 0


@dataclass
class PlacementOutcome:
    feasible: bool
    tenant: Tenant | None = None
    layer: int = 0
    candidates: int = 0
    ops: int = 0
    error: str | None = None
    merges: dict | None = None  # merges run, shared and skipped as identity


class _EpisodeContext:
    """Per-embed cache. `profiles` holds each node's subtree profile and
    record, keyed by node id (valid because the downward closure of a node
    is identical in every skeleton), and `tops` the largest VM count each
    profile admits (-1 if none). `merged` holds every merge result, keyed by
    the merges that led to it: the children merged so far, each with its
    link's window as the number of VM counts the cut rule excludes there.
    Switches with the same children behind the same windows (aggregations
    of one pod, cores of one group) share one result. `stars` are the full
    star profiles with each row's top, and `windows` each link's window,
    each from one pass the first time the embed needs one. `stars_used`
    marks the star rows whose profiles the embed used. `cut` is the
    cut-rule cost B*min(j, N-j) of each VM count j below a link. `merges`
    counts the merges run, shared and skipped as the identity."""

    def __init__(self, topo: Topology, request: TenantRequest):
        self.topo = topo
        self.request = request
        self.n = request.vm_count
        self.b = request.per_vm_guarantee
        self.ha = request.per_hypervisor_cap
        j = np.arange(self.n + 1)
        self.cut = self.b * np.minimum(j, self.n - j).astype(float)
        self.cut_sorted = np.sort(self.cut)
        self.delta0 = np.full(self.n + 1, np.inf)  # no VM, at no cost
        self.delta0[0] = 0.0
        self.zeros = np.zeros(self.n + 1, dtype=np.int32)
        self.profiles: dict[str, tuple] = {}
        self.tops: dict[str, int] = {}
        self.merged: dict[tuple, tuple] = {}
        self.stars_used = np.zeros(len(star_table(topo).hyps), dtype=bool)
        self.counted = 0
        self.merges = {"run": 0, "shared": 0, "skipped": 0}

    @property
    def ops(self) -> int:
        """The ops counted so far, plus hypervisors x (N+1) for each star
        row whose profile the embed used."""
        used = star_table(self.topo).valid[self.stars_used]
        return self.counted + int(used.sum()) * (self.n + 1)

    @cached_property
    def stars(self) -> tuple:
        return _star_profiles(self)

    @cached_property
    def windows(self) -> tuple:
        """Per link, in `links` order: the most its residual admits (with
        the reservation tolerance), and how many VM counts the cut rule
        excludes below it (as a list)."""
        residual = self.topo._residual_arr
        limits = residual + _EPS * np.maximum(residual, 1.0)
        excluded = self.n + 1 - np.searchsorted(self.cut_sorted, limits,
                                                side="right")
        return limits, excluded.tolist()


def _leaf_indices(topo: Topology, skel: TRSkeleton) -> np.ndarray:
    idx = getattr(skel, "_leaf_idx", None)
    if idx is None:
        idx = np.array([topo.hyp_index[h] for h in skel.leaves], dtype=np.int64)
        skel._leaf_idx = idx
    return idx


def _child_links(topo: Topology, skel: TRSkeleton) -> dict:
    """Per switch of `skel` that is not a star, one (child, index of its
    link in `links` order, its star row or -1) per child in order. Built on
    first use and cached on the skeleton (it is structural)."""
    table = getattr(skel, "_child_links", None)
    if table is None:
        rows = star_table(topo).row
        table = skel._child_links = {
            u: [(c, topo.link_index[link_key(u, c)], rows.get(c, -1))
                for c in children]
            for u, children in skel.children.items()
            if u not in rows and not topo.nodes[u].is_hypervisor()}
    return table


_MINPLUS_ROWS = 32  # rows of H per block: temporaries stay at 32 x (N+1)


def _minplus(G: np.ndarray, g_top: int, H: np.ndarray) -> tuple:
    """Min-plus convolution restricted to 0..N: out[t] = min over finite
    H[j], j <= t, of G[t - j] + H[j], with arg[t] the smallest such j (0
    where out is inf); returns (out, arg, the last finite t of out or -1).
    `g_top` is the last finite index of G (-1 if none), so only the columns
    up to it plus the last finite j of H can be finite, and only those are
    computed. A G finite at 0 alone gives out = G[0] + H. Otherwise each
    finite H[j] is added to G shifted right by j, read off one strided view;
    the first such row seeds out, the others follow a block of rows at a
    time."""
    n = len(G)
    out = np.full(n, np.inf)
    arg = np.zeros(n, dtype=np.int32)
    js = (H < np.inf).nonzero()[0]
    if not len(js) or g_top < 0:
        return out, arg, -1
    if g_top == 0:
        out[js] = G[0] + H[js]
        arg[js] = js
        return out, arg, int(js[-1])
    m = min(n, g_top + int(js[-1]) + 1)
    pad = np.full(2 * m - 1, np.inf)
    pad[m - 1:] = G[:m]
    # shifted[j][t] is G[t - j], or inf for t < j
    shifted = np.ndarray((m, m), buffer=pad, offset=(m - 1) * pad.itemsize,
                         strides=(-pad.itemsize, pad.itemsize))
    head, head_arg = out[:m], arg[:m]
    head[:] = shifted[js[0]] + H[js[0]]
    head_arg[head < np.inf] = js[0]
    for lo in range(1, len(js), _MINPLUS_ROWS):
        rows = js[lo:lo + _MINPLUS_ROWS]
        cand = shifted[rows] + H[rows, None]
        best = cand.min(axis=0)
        better = best < head
        head[better] = best[better]
        head_arg[better] = rows[cand.argmin(axis=0)[better]]
    return out, arg, int(np.flatnonzero(head < np.inf)[-1])


def _star_windows(ctx: _EpisodeContext, rows) -> tuple:
    """The admissible counts of the star rows `rows` of `star_table`, per
    hypervisor slot: (upper, a, gap, cap_low, rest). `upper` is the slot's
    usable VM count and `a` the most VMs its NIC link admits on one side of
    the cut. Where `gap` holds the window is split (m <= a or m >= N - a) and
    `cap_low` is the lower part's cap; `rest` is what the other slots of the
    row can take (-1 in padding, which nothing fits)."""
    topo, n, b = ctx.topo, ctx.n, ctx.b
    tab = star_table(topo)
    pad = ~tab.valid[rows]
    upper = np.maximum(np.minimum(topo._free_arr[tab.hyp_idx[rows]],
                                  min(ctx.ha, n)), 0)
    upper[pad] = 0
    if b > 0:
        residual = topo._residual_arr[tab.link_idx[rows]]
        residual[pad] = 0.0
        a = np.floor(residual / b + _EPS).astype(np.int64)
    else:
        a = np.full(pad.shape, n, dtype=np.int64)
    a = np.minimum(a, n)
    gap = 2 * a < n
    cap_low = np.where(gap, np.minimum(upper, a), upper)
    rest = cap_low.sum(axis=1, keepdims=True) - cap_low
    rest[pad] = -1
    return upper, a, gap, cap_low, rest


def _star_profiles(ctx: _EpisodeContext) -> tuple:
    """Closed-form profiles of every star switch of `star_table` over the VM
    counts 0..N, one row per star: (F, best_h, best_m, cap_low, top), with
    `top` the list of each row's last finite count. All rows are computed
    at once, one hypervisor slot at a time.

    For j VMs inside a star the internal cost is B*(j - m + min(m, N - m))
    where m is the count on a designated hypervisor; cost is minimized by the
    largest admissible m, trying every hypervisor as the designee (the first
    in children order wins a tie). Padding slots are never feasible. Only
    the counts up to the largest sum of caps can be finite (j - m <= rest
    gives j <= sum of caps), so only those are computed. Zero VMs always
    fit, so every row has a finite count."""
    n, b = ctx.n, ctx.b
    upper, a, gap, cap_low, rest = _star_windows(ctx, slice(None))
    F = np.full((len(upper), n + 1), np.inf)
    best_h = np.full(F.shape, -1, dtype=np.int32)
    best_m = np.zeros(F.shape, dtype=np.int32)
    js = np.arange(min(n, int(upper.sum(axis=1).max())) + 1)
    F_js, h_js, m_js = (x[:, :len(js)] for x in (F, best_h, best_m))
    for i in range(upper.shape[1]):
        ai = a[:, i, None]
        hi = np.minimum(upper[:, i, None], js)
        m = np.where(gap[:, i, None] & (hi < n - ai), np.minimum(hi, ai), hi)
        cost = b * (js - m + np.minimum(m, n - m))
        cost[js - m > rest[:, i, None]] = np.inf
        better = cost < F_js
        F_js[better] = cost[better]
        h_js[better] = i
        m_js[better] = m[better]
    top = n - (F < np.inf)[:, ::-1].argmax(axis=1)
    return F, best_h, best_m, cap_low, top.tolist()


def _star_column_n(ctx: _EpisodeContext, rows: np.ndarray) -> tuple:
    """Count N of the profiles of the star rows `rows`, as `_star_profiles`
    gives it: (F, best_h, best_m, cap_low), one entry per row (best_h -1 and
    best_m 0 where F is inf). Every (row, slot) is costed at once; the first
    slot of least cost is the designee, as the slot loop's first strict
    improvement is."""
    n = ctx.n
    upper, a, gap, cap_low, rest = _star_windows(ctx, rows)
    # at count N a slot's admissible m is capped by `upper` alone
    m = np.where(gap & (upper < n - a), np.minimum(upper, a), upper)
    cost = ctx.b * (n - m + np.minimum(m, n - m))
    cost[n - m > rest] = np.inf
    h = cost.argmin(axis=1)
    at = np.arange(len(h))
    F = cost[at, h]
    feasible = F < np.inf
    best_h = np.where(feasible, h, -1).astype(np.int32)
    best_m = np.where(feasible, m[at, h], 0).astype(np.int32)
    return F, best_h, best_m, cap_low


def _star_candidates(ctx: _EpisodeContext, rows: np.ndarray, cost) -> tuple:
    """How many stars of `rows` can host the N VMs, and the one of least
    `cost`(c_b, c_q), the first in `rows` on a tie: (position in `rows`,
    cost, c_b, c_q, designee, VMs per hypervisor), or None if none can. All
    rows are read off count N of their profiles (`_star_column_n`) and
    costed in one pass, without building a tree. The VMs go where
    `_reconstruct` puts them: best_m on the designee, then the other
    hypervisors fill up to cap_low in children order. c_b is the fsum of
    their links' cut-rule reservations, as `_pruned_tree` sums them, and c_q
    is 1 + the most tenants on one of those links."""
    if not len(rows):
        return 0, None
    topo, n = ctx.topo, ctx.n
    ctx.stars_used[rows] = True
    F, best_h, best_m, cap_low = _star_column_n(ctx, rows)
    pos = np.flatnonzero(F < np.inf)
    if not len(pos):
        return 0, None
    F, h, m, caps = F[pos], best_h[pos], best_m[pos], cap_low[pos]
    at = np.arange(len(pos))
    caps[at, h] = 0
    before = np.cumsum(caps, axis=1) - caps
    vms = np.minimum(caps, np.maximum((n - m)[:, None] - before, 0))
    vms[at, h] = m
    if (vms.sum(axis=1) != n).any():
        raise AssertionError("star reconstruction failed")
    c_b = [math.fsum(r) for r in (ctx.b * np.minimum(vms, n - vms)).tolist()]
    tenants = topo._tenant_arr[star_table(topo).link_idx[rows[pos]]]
    c_q = np.where(vms > 0, tenants, 0).max(axis=1) + 1
    for cb, f in zip(c_b, F.tolist()):
        if not math.isclose(cb, f, rel_tol=1e-9, abs_tol=1e-6):
            raise AssertionError(f"allocation cost mismatch: {cb} vs {f}")
    # the same IEEE operations as one scalar call per star
    costs = cost(np.array(c_b), c_q)
    i = int(costs.argmin())
    return len(pos), (int(pos[i]), float(costs[i]), c_b[i], int(c_q[i]),
                      int(h[i]), vms[i].tolist())


def _reconstruct(ctx: _EpisodeContext, node: str, j: int, placement: dict) -> None:
    if j == 0:
        return
    recon = ctx.profiles[node][1]
    kind = recon[0]
    if kind == "leaf":
        placement[node] = placement.get(node, 0) + j
    elif kind == "star":
        _, hyps, best_h, best_m, cap_low = recon
        i = int(best_h[j])
        m = int(best_m[j])
        placement[hyps[i]] = placement.get(hyps[i], 0) + m
        left = j - m
        for k, hx in enumerate(hyps):
            if left == 0:
                break
            if k == i:
                continue
            take = min(left, int(cap_low[k]))
            if take:
                placement[hx] = placement.get(hx, 0) + take
                left -= take
        if left:
            raise AssertionError("star reconstruction failed")
    else:
        _, children, args = recon
        t = j
        for child, arg in zip(reversed(children), reversed(args)):
            jc = int(arg[t])
            _reconstruct(ctx, child, jc, placement)
            t -= jc
        if t != 0:
            raise AssertionError("merge reconstruction failed")


def _subtree_profile(ctx: _EpisodeContext, skel: TRSkeleton, node: str):
    """The profile of `node`'s subtree: F[j] is the least reservation that
    hosts j VMs below it, inf where none can. Profiles go in `ctx.profiles`
    as they are computed, and a star child that a merge skips gets none: it
    takes no VM, so `_reconstruct` never reads it.

    A merge reads each child by direct lookups: its link and star row from
    `_child_links`, its link's window from `ctx.windows` (one array pass
    over every link per embed) and its largest VM count from `ctx.stars`
    for a star, else from its profile. Only the children that can take a
    VM are merged, in children order."""
    if node in ctx.profiles:
        return ctx.profiles[node][0]
    topo, n = ctx.topo, ctx.n
    nd = topo.nodes[node]
    if nd.is_hypervisor():
        cap = max(min(nd.vm_slots_free, ctx.ha, n), 0)
        F = np.full(n + 1, np.inf)
        F[: cap + 1] = 0.0
        ctx.profiles[node] = (F, ("leaf",))
        ctx.tops[node] = cap
        return F
    tab = star_table(topo)
    row = tab.row.get(node)
    if row is not None:
        ctx.stars_used[row] = True
        F, best_h, best_m, cap_low, top = (x[row] for x in ctx.stars)
        ctx.profiles[node] = (F, ("star", tab.hyps[row], best_h, best_m,
                                  cap_low))
        ctx.tops[node] = top
        return F
    children = skel.children[node]
    limits, excluded = ctx.windows
    ctx.counted += (n + 1) * len(children)
    # G starts as the profile of no child and takes one child at a time;
    # `key` names the merges that made G
    G, top, key = ctx.delta0, 0, ()
    args = []
    for c, li, row in _child_links(topo, skel)[node]:
        if row < 0:
            _subtree_profile(ctx, skel, c)
            c_top = ctx.tops[c]
        else:
            ctx.stars_used[row] = True
            c_top = ctx.stars[4][row]
        if c_top == 0 and excluded[li] <= n:
            # the child takes no VM, at no cost: G stays as it is
            ctx.merges["skipped"] += 1
            args.append(ctx.zeros)
            continue
        Fc = _subtree_profile(ctx, skel, c)
        key += ((c, excluded[li]),)
        merged = ctx.merged.get(key)
        if merged is None:
            H = np.where(ctx.cut > limits[li], np.inf, Fc + ctx.cut)
            merged = ctx.merged[key] = _minplus(G, top, H)
            ctx.merges["run"] += 1
        else:
            ctx.merges["shared"] += 1
        G, arg, top = merged
        args.append(arg)
    ctx.profiles[node] = (G, ("merge", list(children), args))
    ctx.tops[node] = top
    return G


def evaluate_tr(topo: Topology, skel: TRSkeleton, request: TenantRequest,
                ctx: _EpisodeContext | None = None) -> TrEvaluation:
    """Feasibility plus (c_b, c_q) for one routing-tree option."""
    if ctx is None:
        ctx = _EpisodeContext(topo, request)
    n = request.vm_count
    idx = _leaf_indices(topo, skel)
    usable = np.minimum(topo._free_arr[idx], ctx.ha)
    ctx.counted += len(skel.order)
    if int(usable.sum()) < n:
        return TrEvaluation(False, root=skel.root,
                            layer=topo.nodes[skel.root].layer)
    F = _subtree_profile(ctx, skel, skel.root)
    if not np.isfinite(F[n]):
        return TrEvaluation(False, root=skel.root,
                            layer=topo.nodes[skel.root].layer)
    placement: dict[str, int] = {}
    _reconstruct(ctx, skel.root, n, placement)
    placement = {h: m for h, m in placement.items() if m > 0}
    ev = _pruned_tree(topo, skel, request, placement)
    if not math.isclose(ev.c_b, float(F[n]), rel_tol=1e-9, abs_tol=1e-6):
        raise AssertionError(f"allocation cost mismatch: {ev.c_b} vs {F[n]}")
    return ev


def _pruned_tree(topo: Topology, skel: TRSkeleton, request: TenantRequest,
                 placement: dict) -> TrEvaluation:
    """The skeleton pruned to the hosting hypervisors: its links in sorted
    order, each reserving the cut rule for the VMs below it, their parent
    pointers, c_b, and c_q as 1 + the most tenants on one of its links."""
    below: dict[str, int] = {}
    pruned_nodes = {skel.root}
    for h, m in placement.items():
        u = h
        while u not in pruned_nodes:
            below[u] = below.get(u, 0) + m
            pruned_nodes.add(u)
            u = skel.parent[u]
        while u is not None:
            below[u] = below.get(u, 0) + m
            u = skel.parent[u]
    links, reserved, parent = [], {}, {skel.root: None}
    for u in sorted(pruned_nodes - {skel.root}):
        p = skel.parent[u]
        key = link_key(u, p)
        links.append(key)
        reserved[key] = cut_reservation(request, below[u])
        parent[u] = p
    c_q = max((topo.links[key].tenant_count() + 1 for key in links), default=1)
    return TrEvaluation(True, placement, math.fsum(reserved.values()), c_q,
                        tuple(links), reserved, parent, skel.root,
                        topo.nodes[skel.root].layer)


def embed(topo: Topology, request: TenantRequest, policy: CostPolicy | None = None,
          tenant_id: str = "tenant") -> PlacementOutcome:
    """Explore layers bottom-up; at the first layer with feasible candidates
    commit the one with minimum combined cost, the smaller root id breaking
    a tie. Returns an embedding-error outcome when the whole topology is
    exhausted.

    One pass screens every skeleton of a layer on its usable-slot sum. The
    star roots that pass are costed from count N of their star profiles in
    one pass (`_star_candidates`), and the least of them competes with the
    other roots, each evaluated through `evaluate_tr`. Only then is a star
    winner's tree built, by `_pruned_tree` from the VMs it was elected with,
    and its c_b and c_q must equal those it won on. `ops` counts what
    evaluating every skeleton on its own would."""
    policy = policy or CostPolicy()
    ctx = _EpisodeContext(topo, request)
    w_b, w_q = policy.weights(topo.load())
    qc = topo.max_queue_count
    denom_b = request.per_vm_guarantee * request.vm_count

    def cost(c_b, c_q):
        """Of one candidate, or elementwise of arrays of them."""
        chat_b = c_b / denom_b if denom_b > 0 else 0.0
        return w_b * chat_b + w_q * (c_q / qc)

    total_candidates = 0
    for layer in range(1, topo.layer_count + 1):
        skels = trs_at_layer(topo, layer)
        table = layer_table(topo, layer)
        usable = np.minimum(topo._free_arr[table.leaf_idx], ctx.ha)
        passed = np.add.reduceat(usable, table.starts) >= ctx.n
        scalar = passed & (table.star_row < 0)
        # evaluate_tr counts the rest
        ctx.counted += int(table.sizes[~scalar].sum())
        # ((cost, root), c_b, c_q, skeleton, its evaluation if one was made,
        # else the star's (row, designee, VMs per hypervisor)); of the stars
        # only the least, since skeletons are in root order
        cands = []
        stars = np.flatnonzero(passed & ~scalar)
        rows = table.star_row[stars]
        count, best = _star_candidates(ctx, rows, cost)
        if best is not None:
            k, c, c_b, c_q, h, vms = best
            skel = skels[stars[k]]
            cands.append(((c, skel.root), c_b, c_q, skel, None,
                          (int(rows[k]), h, vms)))
        for i in np.flatnonzero(scalar):
            ev = evaluate_tr(topo, skels[i], request, ctx)
            if ev.feasible:
                count += 1
                cands.append(((cost(ev.c_b, ev.c_q), ev.root), ev.c_b, ev.c_q,
                              skels[i], ev, None))
        total_candidates += count
        if not cands:
            continue
        _, c_b, c_q, skel, ev, star = min(cands, key=lambda c: c[0])
        if ev is None:
            row, h, vms = star
            hyps = star_table(topo).hyps[row]
            # the designee first, as `_reconstruct` places them
            placement = {hyps[i]: vms[i] for i in (h, *range(len(hyps)))
                         if vms[i]}
            ev = _pruned_tree(topo, skel, request, placement)
            if (ev.c_b, ev.c_q) != (c_b, c_q):
                raise AssertionError(f"{skel.root} won on ({c_b}, {c_q}) but "
                                     f"its tree costs ({ev.c_b}, {ev.c_q})")
        _commit(topo, request, tenant_id, ev)
        tenant = Tenant(
            id=tenant_id, request=request,
            tr=TenantRouting(ev.root, ev.layer, ev.pruned_links,
                             dict(ev.reserved), dict(ev.parent),
                             cost_b=ev.c_b, cost_q=ev.c_q),
            vm_placement=dict(ev.placement),
        )
        return PlacementOutcome(True, tenant, ev.layer, total_candidates,
                                ctx.ops, merges=ctx.merges)
    return PlacementOutcome(False, None, 0, total_candidates, ctx.ops,
                            error="no feasible routing tree at any layer",
                            merges=ctx.merges)


def _commit(topo: Topology, request: TenantRequest, tenant_id: str,
            ev: TrEvaluation) -> None:
    for key in ev.pruned_links:
        topo.reserve(key, tenant_id, ev.reserved[key])
    try:
        for h, m in ev.placement.items():
            topo.occupy_slots(h, m)
    except ValueError:
        for key in ev.pruned_links:
            topo.release(key, tenant_id)
        raise


def depart(topo: Topology, tenant: Tenant) -> None:
    """Restore every reservation and VM slot held by the tenant. Departing an
    unknown or already-departed tenant is a fault."""
    if not tenant.embedded:
        raise ValueError(f"tenant {tenant.id} is not embedded")
    for key in tenant.tr.links:
        topo.release(key, tenant.id)
    for h, m in tenant.vm_placement.items():
        topo.free_slots(h, m)
    tenant.embedded = False


def embed_fixed(topo: Topology, request: TenantRequest, tenant_id: str,
                root: str, placement: dict) -> Tenant:
    """Commit an explicitly chosen placement (testbed-style scenarios where VM
    spread is part of the experiment design). The routing tree is the pruned
    tree spanning root and hosts within the root's skeleton."""
    layer = topo.nodes[root].layer
    skels = trs_at_layer(topo, layer) if layer >= 1 else []
    skel = next((s for s in skels if s.root == root), None)
    if skel is None:
        raise ValueError(f"{root} roots no routing-tree skeleton")
    ev = _pruned_tree(topo, skel, request, placement)
    _commit(topo, request, tenant_id, ev)
    c_q = max((topo.links[k].tenant_count() for k in ev.pruned_links), default=1)
    return Tenant(id=tenant_id, request=request,
                  tr=TenantRouting(root, layer, ev.pruned_links, ev.reserved,
                                   ev.parent, cost_b=ev.c_b, cost_q=c_q),
                  vm_placement=dict(placement))
