import collections
import copy
import math

import numpy as np
import pytest

from conftest import random_request, random_tree
from oracles import embed_reference, exhaustive_min_cb, profiles_reference
from qshare import largescale as L
from qshare import placement as P
from qshare import topology as T
from qshare.tenants import TenantRequest


def fig3_topology(h1_cap=100.0, slots=(4, 10)):
    return T.build_custom(
        [("h1", "hypervisor", 0, slots[0]), ("h2", "hypervisor", 0, slots[1]),
         ("s1", "switch", 1, 0)],
        [("h1", "s1", h1_cap), ("h2", "s1", 100.0)])


def test_colocation_costs_nothing():
    topo = fig3_topology(slots=(10, 10))
    skel = T.trs_at_layer(topo, 1)[0]
    ev = P.evaluate_tr(topo, skel, TenantRequest(5, 10.0))
    assert ev.feasible and ev.c_b == 0.0
    assert ev.placement in ({"h1": 5}, {"h2": 5})


def test_fig3_split_costs():
    topo = fig3_topology(slots=(4, 4))
    skel = T.trs_at_layer(topo, 1)[0]
    ev = P.evaluate_tr(topo, skel, TenantRequest(5, 10.0))
    # neither side fits all five: (1, 4) split, both links carry B
    assert ev.feasible
    assert sorted(ev.placement.values()) == [1, 4]
    assert math.isclose(ev.c_b, 20.0)


def test_ha_spreads_allocation():
    topo = fig3_topology(slots=(10, 10))
    skel = T.trs_at_layer(topo, 1)[0]
    ev = P.evaluate_tr(topo, skel, TenantRequest(4, 10.0, wcs=0.5))
    assert ev.feasible
    assert max(ev.placement.values()) == 2


def test_infeasible_when_slots_short():
    topo = fig3_topology(slots=(1, 1))
    skel = T.trs_at_layer(topo, 1)[0]
    ev = P.evaluate_tr(topo, skel, TenantRequest(5, 1.0))
    assert not ev.feasible and ev.placement is None


def test_embed_early_return_at_layer1():
    topo = T.build_testbed()
    out = P.embed(topo, TenantRequest(5, 10.0), tenant_id="t")
    assert out.feasible and out.layer == 1


def test_embed_error_when_capacity_exhausted():
    topo = T.build_testbed()
    out = P.embed(topo, TenantRequest(101, 1.0), tenant_id="t")
    assert not out.feasible and out.error


def test_embed_prefers_lower_cq_on_tie():
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 10), ("h2", "hypervisor", 0, 10),
         ("s1", "switch", 1, 0), ("s2", "switch", 1, 0)],
        [("h1", "s1", 100.0), ("h2", "s2", 100.0)])
    first = P.embed(topo, TenantRequest(2, 1.0), P.CostPolicy(w_b=0.5, w_q=0.5),
                    tenant_id="a")
    assert first.feasible
    second = P.embed(topo, TenantRequest(2, 1.0), P.CostPolicy(w_b=0.5, w_q=0.5),
                     tenant_id="b")
    # equal c_b; the empty subtree serves fewer tenants per link
    assert second.tenant.tr.root != first.tenant.tr.root


def test_depart_restores_everything_and_double_departs_fault():
    topo = T.build_testbed()
    before = {k: (l.reserved, dict(l.reservations)) for k, l in topo.links.items()}
    free = {h: topo.nodes[h].vm_slots_free for h in topo.hypervisors()}
    out = P.embed(topo, TenantRequest(8, 50.0), tenant_id="t")
    P.depart(topo, out.tenant)
    assert all(topo.links[k].reserved == before[k][0]
               and topo.links[k].reservations == before[k][1]
               for k in topo.links)
    assert all(topo.nodes[h].vm_slots_free == free[h]
               for h in topo.hypervisors())
    with pytest.raises(ValueError):
        P.depart(topo, out.tenant)


def test_optimality_matches_exhaustive_search(rng):
    mismatches = 0
    for _ in range(300):
        topo = random_tree(rng)
        skel = T.trs_at_layer(topo, 2)[0]
        req = random_request(rng)
        ev = P.evaluate_tr(topo, skel, req)
        oracle = exhaustive_min_cb(topo, skel, req)
        if ev.feasible != (oracle is not None):
            mismatches += 1
        elif ev.feasible and not math.isclose(ev.c_b, oracle, rel_tol=1e-9,
                                              abs_tol=1e-9):
            mismatches += 1
    assert mismatches == 0


def test_embed_fixed_rejects_a_root_without_a_skeleton():
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 4), ("s1", "switch", 1, 0),
         ("s2", "switch", 1, 0)],
        [("h1", "s1", 10.0)])
    for root in ("s2", "h1"):
        with pytest.raises(ValueError, match=root):
            P.embed_fixed(topo, TenantRequest(2, 1.0), "t", root, {"h1": 2})


def test_embed_fixed_builds_the_evaluated_tree(rng):
    """Committing evaluate_tr's placement with embed_fixed reproduces the
    routing tree, its reservations and c_b that evaluate_tr reported."""
    feasible = 0
    for _ in range(300):
        topo = random_tree(rng)
        fresh = copy.deepcopy(topo)
        req = random_request(rng)
        ev = P.evaluate_tr(topo, T.trs_at_layer(topo, 2)[0], req)
        if not ev.feasible:
            continue
        feasible += 1
        t = P.embed_fixed(fresh, req, "t", ev.root, ev.placement)
        assert t.tr.links == ev.pruned_links
        assert t.tr.reserved == ev.reserved
        assert t.tr.parent == ev.parent
        assert t.tr.cost_b == ev.c_b
    assert feasible >= 200


def test_star_profile_matches_generic_merge(rng):
    """The closed-form star allocator and the generic DP agree."""
    for _ in range(200):
        n_h = int(rng.integers(1, 6))
        nodes = [("s0", "switch", 1, 0)]
        links = []
        for h in range(n_h):
            nodes.append((f"h{h}", "hypervisor", 0, int(rng.integers(0, 8))))
            links.append((f"h{h}", "s0", float(rng.integers(1, 25))))
        topo = T.build_custom(nodes, links)
        skel = T.trs_at_layer(topo, 1)[0]
        req = random_request(rng)
        ev = P.evaluate_tr(topo, skel, req)
        oracle = exhaustive_min_cb(topo, skel, req)
        assert ev.feasible == (oracle is not None)
        if ev.feasible:
            assert math.isclose(ev.c_b, oracle, rel_tol=1e-9, abs_tol=1e-9)


def _load_randomly(topo, rng):
    """Fill every slot of a quarter of the hypervisors and reserve up to
    half of every link."""
    for hyp in topo.hypervisors():
        if rng.random() < 0.25:
            topo.occupy_slots(hyp, topo.nodes[hyp].vm_slots_free)
    for key, lnk in topo.links.items():
        topo.reserve(key, "filler", lnk.capacity * float(rng.random()) * 0.5)
    return topo


def ragged_stars(rng):
    """A root over 1-4 ToRs with 1-5 hypervisors each: random slots, some
    hypervisors full, random link capacities, part of each reserved."""
    nodes, links = [("s0", "switch", 2, 0)], []
    h = 0
    for t in range(int(rng.integers(1, 5))):
        nodes.append((f"t{t}", "switch", 1, 0))
        links.append((f"t{t}", "s0", float(rng.integers(1, 60))))
        for _ in range(int(rng.integers(1, 6))):
            nodes.append((f"h{h}", "hypervisor", 0, int(rng.integers(0, 8))))
            links.append((f"h{h}", f"t{t}", float(rng.integers(1, 30))))
            h += 1
    return _load_randomly(T.build_custom(nodes, links), rng)


def small_fattree(rng, case):
    """A k = 4 fattree, where the two aggregations of a pod share their ToRs
    and the two cores of a group their aggregations: random slots and NIC
    capacities, some hypervisors full, part of each link reserved."""
    topo = T.fattree_like("1:1", k=4, vm_slots=int(rng.integers(1, 6)),
                          nic_mbps=float(rng.integers(5, 30)),
                          port_mbps=float(rng.integers(10, 60)), seed=case)
    return _load_randomly(topo, rng)


def test_profiles_match_reference_kernels(rng, monkeypatch):
    """Every subtree profile one embed computes, bit for bit, with the same
    argmins wherever it is finite and the same ops, as the scalar reference
    kernels: random trees, ragged stars and small fattrees, b = 0,
    wcs-capped requests and full hypervisors. Every merge path is taken:
    a child that takes no VM, a profile that holds no VM yet, a merge shared
    with another switch, and a full convolution."""
    paths = collections.Counter()
    minplus = P._minplus

    def counted(G, g_top, H):
        paths["nothing yet" if g_top == 0 else "full" if g_top > 0 else
              "nothing possible"] += 1
        return minplus(G, g_top, H)

    monkeypatch.setattr(P, "_minplus", counted)
    stars = 0
    for case in range(450):
        kind = case % 3
        topo = (ragged_stars(rng) if kind == 0 else random_tree(rng)
                if kind == 1 else small_fattree(rng, case))
        req = random_request(rng, n_hi=12)
        if case % 5 == 0:
            req = TenantRequest(req.vm_count, 0.0, wcs=req.wcs)
        ctx = P._EpisodeContext(topo, req)
        ref: dict = {}
        ref_ops = 0
        for layer in range(1, topo.layer_count):
            for skel in T.trs_at_layer(topo, layer):
                P._subtree_profile(ctx, skel, skel.root)
                ref_ops += profiles_reference(topo, skel, req, ref)
        assert ctx.ops == ref_ops
        assert ctx.profiles.keys() == ref.keys()
        paths["shared"] += ctx.merges["shared"]
        paths["no VM in child"] += ctx.merges["skipped"]
        for node, (F, rec) in ctx.profiles.items():
            ref_F, ref_rec = ref[node]
            assert F.tobytes() == ref_F.tobytes(), node
            assert rec[0] == ref_rec[0]
            top = np.flatnonzero(np.isfinite(F))
            assert ctx.tops[node] == (top[-1] if len(top) else -1)
            if rec[0] == "star":
                stars += 1
                _, hyps, best_h, best_m, cap_low = rec
                assert hyps == ref_rec[1]
                assert list(cap_low[:len(hyps)]) == ref_rec[4]
                for j in np.flatnonzero(np.isfinite(F)):
                    assert (best_h[j], best_m[j]) == (ref_rec[2][j],
                                                      ref_rec[3][j])
            elif rec[0] == "merge":
                assert rec[1] == ref_rec[1]
                assert all(a.dtype == np.int32 for a in rec[2])
                assert [list(a) for a in rec[2]] == ref_rec[2]
    assert stars >= 300
    for path in ("no VM in child", "nothing yet", "shared", "full"):
        assert paths[path] >= 50, (path, paths)


def _two_aggregations(slots, tor_residuals):
    """Aggregations a0 and a1 over the same ToRs, each ToR over two
    hypervisors with `slots` free slots each; a1's link to ToR i keeps
    `tor_residuals[i]` of its 100 Mbps, every other link all of it."""
    nodes = [("a0", "switch", 2, 0), ("a1", "switch", 2, 0)]
    links = []
    for t, free in enumerate(slots):
        nodes.append((f"t{t}", "switch", 1, 0))
        links += [(f"t{t}", "a0", 100.0), (f"t{t}", "a1", 100.0)]
        for h in (2 * t, 2 * t + 1):
            nodes.append((f"h{h}", "hypervisor", 0, 2))
            links.append((f"h{h}", f"t{t}", 100.0))
    topo = T.build_custom(nodes, links)
    for t, free in enumerate(slots):
        for h in (2 * t, 2 * t + 1):
            topo.occupy_slots(f"h{h}", 2 - free)
    for t, residual in enumerate(tor_residuals):
        topo.reserve(T.link_key(f"t{t}", "a1"), "filler", 100.0 - residual)
    return topo


def _aggregation_profiles(topo, req):
    ctx = P._EpisodeContext(topo, req)
    ref: dict = {}
    ref_ops = 0
    for skel in T.trs_at_layer(topo, 2):
        P._subtree_profile(ctx, skel, skel.root)
        ref_ops += profiles_reference(topo, skel, req, ref)
    assert ctx.ops == ref_ops
    for node in ("a0", "a1"):
        F, (_, children, args) = ctx.profiles[node]
        ref_F, (_, ref_children, ref_args) = ref[node]
        assert F.tobytes() == ref_F.tobytes(), node
        assert children == ref_children
        assert [list(a) for a in args] == ref_args, node
    return ctx


def test_merges_share_only_equal_windows():
    """Two aggregations over the same ToRs share the merges up to the one
    ToR link where a1 keeps less bandwidth: there its window excludes more
    VM counts, so from there on its profile is its own, and both match the
    scalar reference."""
    req = TenantRequest(10, 10.0)
    # a1 keeps 5 Mbps to t2, where 1..9 VMs would need 10-50: a1 can host
    # only the 8 VMs t0 and t1 hold
    ctx = _aggregation_profiles(_two_aggregations((2, 2, 2), (100, 100, 5)),
                                req)
    assert ctx.merges == {"run": 4, "shared": 2, "skipped": 0}
    (F0, (_, _, args0)), (F1, (_, _, args1)) = (ctx.profiles[a]
                                                for a in ("a0", "a1"))
    assert args1[:2] == args0[:2] and args1[2] is not args0[2]
    assert np.isfinite(F0[10]) and np.isinf(F1[9:]).all()
    # with equal windows the aggregations share every merge and profile
    ctx = _aggregation_profiles(_two_aggregations((2, 2, 2), (100, 100, 100)),
                                req)
    assert ctx.merges == {"run": 3, "shared": 3, "skipped": 0}
    assert ctx.profiles["a0"][0] is ctx.profiles["a1"][0]


def test_a_full_rack_between_others_is_skipped():
    """A rack with no free slot adds nothing: both aggregations keep their
    profile over it with an all-zero argmin and no convolution, and the
    racks around it still merge, shared up to where the windows part."""
    req = TenantRequest(6, 10.0)
    ctx = _aggregation_profiles(_two_aggregations((2, 0, 1), (100, 100, 15)),
                                req)
    assert ctx.merges == {"run": 3, "shared": 1, "skipped": 2}
    for node in ("a0", "a1"):
        args = ctx.profiles[node][1][2]
        assert not args[1].any() and args[1].dtype == np.int32
    placement: dict = {}
    P._reconstruct(ctx, "a0", req.vm_count, placement)
    assert not {"h2", "h3"} & {h for h, m in placement.items() if m}
    assert sum(placement.values()) == req.vm_count
    # a link reserved just past its capacity (within the reservation
    # tolerance) admits not even zero VMs, so a1 can host nothing at all
    ctx = _aggregation_profiles(_two_aggregations((2, 0, 1), (100, -5e-8, 100)),
                                req)
    assert ctx.merges == {"run": 4, "shared": 1, "skipped": 1}
    assert np.isinf(ctx.profiles["a1"][0]).all() and ctx.tops["a1"] == -1


def test_star_election_reads_column_n_of_the_full_profiles(rng):
    """The column-N star pass gives, bit for bit, column N of the full star
    profiles with the same best_h, best_m and cap_low, for any set of rows:
    ragged stars with full hypervisors, b = 0, N above every star's sum of
    caps, and designee ties (two slots of least cost at N, where the first
    must win)."""
    seen = collections.Counter()
    for case in range(300):
        topo = ragged_stars(rng) if case % 2 else small_fattree(rng, case)
        req = random_request(rng, n_hi=40 if case % 7 == 0 else 12)
        if case % 5 == 0:
            req = TenantRequest(req.vm_count, 0.0, wcs=req.wcs)
        ctx = P._EpisodeContext(topo, req)
        n = req.vm_count
        F, best_h, best_m, cap_low, _ = P._star_profiles(ctx)
        tab = T.star_table(topo)
        stars = len(tab.hyps)
        rows = rng.permutation(stars)[:int(rng.integers(1, stars + 1))]
        col = P._star_column_n(ctx, rows)
        assert col[0].tobytes() == F[rows, n].tobytes()
        assert col[1].tobytes() == best_h[rows, n].tobytes()
        assert col[2].tobytes() == best_m[rows, n].tobytes()
        assert col[3].tobytes() == cap_low[rows].tobytes()
        caps = np.minimum(topo._free_arr[tab.hyp_idx[rows]],
                          req.per_hypervisor_cap)
        seen["b = 0"] += req.per_vm_guarantee == 0
        seen["full hypervisor"] += bool((caps[tab.valid[rows]] == 0).any())
        seen["N above every sum of caps"] += bool(
            (np.where(tab.valid[rows], caps, 0).sum(axis=1) < n).all())
        seen["feasible"] += bool(np.isfinite(col[0]).any())
        # each slot's cost as the designee at N, to count the ties
        upper, a, gap, _, rest = P._star_windows(ctx, rows)
        m = np.where(gap & (upper < n - a), np.minimum(upper, a), upper)
        cost = np.where(n - m > rest, np.inf, n - m + np.minimum(m, n - m))
        least = cost.min(axis=1, keepdims=True)
        seen["designee tie"] += bool(
            ((cost == least).sum(axis=1)[np.isfinite(least[:, 0])] >= 2).any())
    for what in ("b = 0", "full hypervisor", "N above every sum of caps",
                 "feasible", "designee tie"):
        assert seen[what] >= 30, (what, seen)


def test_early_return_layering_is_minimal(rng):
    for _ in range(100):
        topo = T.fattree_like("1:1", k=4, vm_slots=int(rng.integers(2, 6)),
                              nic_mbps=float(rng.integers(5, 30)),
                              port_mbps=40.0)
        req = random_request(rng, n_hi=8)
        out = P.embed(topo, req, tenant_id="probe")
        if not out.feasible:
            continue
        feasible_layers = []
        P.depart(topo, out.tenant)
        for layer in range(1, topo.layer_count):
            if any(P.evaluate_tr(topo, s, req).feasible
                   for s in T.trs_at_layer(topo, layer)):
                feasible_layers.append(layer)
        assert out.layer == min(feasible_layers)


def test_embed_log_costs_match_links():
    topo = T.build_testbed()
    out = P.embed(topo, TenantRequest(12, 30.0), tenant_id="t")
    t = out.tenant
    assert math.isclose(t.tr.cost_b, math.fsum(t.tr.reserved.values()))
    assert t.tr.cost_q >= 1
    for key in t.tr.links:
        assert t.id in topo.links[key].reservations


def test_operation_counter_scales_polynomially():
    budgets = {}
    for k in (4, 8):
        topo = T.fattree_like("1:1", k=k, vm_slots=2, nic_mbps=10.0,
                              port_mbps=40.0)
        # a filler holds every slot but those of one hypervisor per ToR, so
        # no pod has the six hypervisors the probe needs (one VM each) and
        # exploration reaches the core layer at both sizes
        for tor in topo.nodes_at_layer(1):
            for h in topo.down_neighbors(tor)[1:]:
                topo.occupy_slots(h, topo.nodes[h].vm_slots_free)
        out = P.embed(topo, TenantRequest(6, 1.0, wcs=0.8), tenant_id="t")
        assert out.feasible and out.layer == topo.layer_count - 1
        budgets[k] = (out.ops, len(topo.nodes))
    ops4, v4 = budgets[4]
    ops8, v8 = budgets[8]
    c = 3.0 * ops4 / v4 ** (5 / 3)
    assert ops8 <= c * v8 ** (5 / 3)



POLICIES = (P.CostPolicy(), P.CostPolicy.stress(), P.CostPolicy(w_b=1.0, w_q=0.0))


def mixed_layers(rng):
    """A star and a merge root at layer 2 under a layer-3 root: s0 over 1-4
    hypervisors, s1 over 1-3 ToRs of 1-3 hypervisors each; random slots and
    capacities, part of each link reserved."""
    nodes = [("c0", "switch", 3, 0), ("s0", "switch", 2, 0),
             ("s1", "switch", 2, 0)]
    links = [("s0", "c0", float(rng.integers(1, 60))),
             ("s1", "c0", float(rng.integers(1, 60)))]
    parents = ["s0"] * int(rng.integers(1, 5))
    for t in range(int(rng.integers(1, 4))):
        nodes.append((f"t{t}", "switch", 1, 0))
        links.append((f"t{t}", "s1", float(rng.integers(1, 60))))
        parents += [f"t{t}"] * int(rng.integers(1, 4))
    for h, up in enumerate(parents):
        nodes.append((f"h{h}", "hypervisor", 0, int(rng.integers(0, 8))))
        links.append((f"h{h}", up, float(rng.integers(1, 30))))
    topo = T.build_custom(nodes, links)
    for key, lnk in topo.links.items():
        topo.reserve(key, "filler", lnk.capacity * float(rng.random()) * 0.5)
    return topo


def _outcome_fields(out):
    fields = (out.feasible, out.layer, out.candidates, out.ops)
    t = out.tenant
    if t is None:
        return repr(fields)
    return repr(fields + (t.tr.root, sorted(t.vm_placement.items()),
                          sorted(t.tr.reserved.items()), t.tr.cost_b,
                          t.tr.cost_q))


def test_embed_matches_scalar_election(rng):
    """embed screens, elects, places and counts bit for bit as the
    per-skeleton loop of `embed_reference` over embed/depart sequences:
    ragged stars, random trees, 4:1 fattrees and a star competing with a
    merge at one layer, three policies, b = 0 every fifth request, wcs caps,
    rejections, and exact cost ties that the root decides."""
    seen = collections.Counter()
    for case in range(400):
        kind = case % 4
        if kind == 0:
            topo = ragged_stars(rng)
        elif kind == 1:
            topo = random_tree(rng)
        elif kind == 2:
            topo = T.fattree_like("4:1", k=4, vm_slots=int(rng.integers(2, 6)),
                                  nic_mbps=float(rng.integers(5, 30)),
                                  port_mbps=40.0, seed=case)
        else:
            topo = mixed_layers(rng)
        twin = copy.deepcopy(topo)
        policy = POLICIES[case // 4 % len(POLICIES)]
        live = []
        for step in range(6):
            if live and rng.random() < 0.3:
                mine, ref = live.pop(int(rng.integers(len(live))))
                P.depart(topo, mine)
                P.depart(twin, ref)
                seen["depart"] += 1
                continue
            req = random_request(rng, n_hi=12)
            if seen["embed"] % 5 == 0:
                req = TenantRequest(req.vm_count, 0.0, wcs=req.wcs)
            seen["embed"] += 1
            out = P.embed(topo, req, policy, tenant_id=f"t{step}")
            ref, ties = embed_reference(twin, req, policy, f"t{step}")
            assert _outcome_fields(out) == _outcome_fields(ref), (case, step)
            if not out.feasible:
                seen["rejected"] += 1
                continue
            live.append((out.tenant, ref.tenant))
            root = out.tenant.tr.root
            seen["star win" if root in T.star_table(topo).row else
                 "merge win"] += 1
            seen["layer-2 star win"] += kind == 3 and root == "s0"
            if ties:
                seen["tie"] += 1
                seen["fresh tie"] += kind == 2 and step == 0
        assert topo._residual_arr.tobytes() == twin._residual_arr.tobytes()
        assert np.array_equal(topo._free_arr, twin._free_arr)
    assert seen["embed"] >= 1200 and seen["depart"] >= 100
    for what in ("rejected", "star win", "merge win", "tie", "fresh tie",
                 "layer-2 star win"):
        assert seen[what] >= 30, (what, seen)


def test_embed_builds_one_tree_per_star_win(monkeypatch):
    """A fill builds one routing tree per feasible non-star candidate and
    one per embed that a star root wins, none for a losing star."""
    calls = collections.Counter()
    pruned_tree, evaluate_tr = P._pruned_tree, P.evaluate_tr

    def counted_tree(*args):
        calls["trees"] += 1
        return pruned_tree(*args)

    def counted_evaluate(topo, skel, request, ctx=None):
        ev = evaluate_tr(topo, skel, request, ctx)
        if ev.feasible and skel.root not in T.star_table(topo).row:
            calls["non-star feasible"] += 1
        return ev

    monkeypatch.setattr(P, "_pruned_tree", counted_tree)
    monkeypatch.setattr(P, "evaluate_tr", counted_evaluate)
    topo = T.fattree_like("1:1", k=4, vm_slots=10, seed=1)
    fill = L.fill_to_capacity(topo, L.PopulationSpec(vm_mean=20.0), seed=2,
                              reject_streak=10, intervals=1)
    star_wins = sum(t.tr.root in T.star_table(topo).row
                    for t in fill.tenants.values())
    assert star_wins >= 5 and calls["non-star feasible"] >= 10, calls
    assert calls["trees"] == star_wins + calls["non-star feasible"]
