import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest

import oracles
from oracles import WfqOracle
from qshare import cli
from qshare import fluid as F
from qshare import placement as P
from qshare import scenarios as S
from qshare import topology as T
from qshare.tenants import TenantRequest


def contended_link(owners=("A",), guarantees=(300.0, 300.0, 300.0)):
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 60), ("h2", "hypervisor", 0, 60),
         ("s1", "switch", 1, 0)],
        [("h1", "s1", 1000.0), ("h2", "s1", 1000.0)])
    tenants = {}
    for tid, g in zip(("A", "B", "C"), guarantees):
        tenants[tid] = P.embed_fixed(topo, TenantRequest(10, g / 5), tid, "s1",
                                     {"h1": 5, "h2": 5})
    solver = F.RateSolver(topo)
    solver.rebuild({("h1", "s1"): set(owners), ("h2", "s1"): set(owners)})
    return topo, tenants, solver


def flow(fid, tenants, tid):
    return F.Flow(fid, tid, 0, 5, "h1", "h2", 1e9, 0.0,
                  route=F.tenant_route(tenants[tid], "h1", "h2"))


def test_single_active_tenant_fills_link():
    _, tenants, solver = contended_link()
    flows = [flow(1, tenants, "A")]
    solver.solve(flows)
    assert math.isclose(flows[0].rate, 1000.0)


def test_guarantees_with_shared_queue():
    _, tenants, solver = contended_link()
    flows = [flow(1, tenants, "A"), flow(2, tenants, "B"), flow(3, tenants, "C")]
    solver.solve(flows)
    rates = {f.tenant: f.rate for f in flows}
    assert rates["A"] >= 1000 / 3 - 1e-6
    assert math.isclose(rates["B"], 300.0) and math.isclose(rates["C"], 300.0)
    assert math.isclose(sum(rates.values()), 1000.0)


def test_two_equal_queues_split_evenly():
    _, tenants, solver = contended_link(owners=("A", "B"))
    flows = [flow(1, tenants, "A"), flow(2, tenants, "B")]
    solver.solve(flows)
    assert math.isclose(flows[0].rate, 500.0)
    assert math.isclose(flows[1].rate, 500.0)


def test_flow_completion_time_basics():
    assert 12.5e6 / (100 * F.BYTES_PER_MBPS_SEC) == 1.0


def test_event_driven_completion_and_idle():
    topo = T.build_testbed()
    tenants = {"t": P.embed_fixed(topo, TenantRequest(10, 20.0), "t", "a000",
                                  {h: 1 for h in topo.hypervisors()})}
    clients = [F.ClientSpec("t", 0, "h0000", 0.0, stop=0.5)]
    gen = F.DemandGenerator("predictable", ("fixed", 2.5e6), seed=1,
                            clients=clients)
    # shared tenant: 20 Mbps cap -> the 20 Mb flow completes in exactly 1 s;
    # the client stopped at 0.5 s, so the network then goes idle
    sim = F.FluidSimulation(topo, tenants, gen, interval=4.0, seed=1,
                            monitor=("a000", "t000"))
    reports = sim.run(4.0)
    fcts = [f for rep in reports for f in rep.fcts]
    assert len(fcts) == 1
    assert math.isclose(fcts[0][4], 1.0, rel_tol=1e-9)
    assert not sim.flows
    series = reports[0].link_util.get(("a000", "t000"), [])
    assert all(u <= 1e-12 for u in series[12:])


def test_mid_step_completion_splits_segments():
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 10), ("h2", "hypervisor", 0, 10),
         ("s1", "switch", 1, 0)],
        [("h1", "s1", 100.0), ("h2", "s1", 100.0)])
    t = P.embed_fixed(topo, TenantRequest(2, 50.0), "t", "s1",
                      {"h1": 1, "h2": 1})
    route = F.tenant_route(t, "h1", "h2")
    f1 = F.Flow(1, "t", 0, 1, "h1", "h2", 12.5e5, 0.0, route=route)
    f2 = F.Flow(2, "t", 0, 1, "h1", "h2", 1e9, 0.0, route=route)
    solver = F.RateSolver(topo)
    solver.rebuild({})
    solver.solve([f1, f2])
    # shared tenant: both flows split the 50 Mbps reservation cap
    assert math.isclose(f1.rate, 25.0) and math.isclose(f2.rate, 25.0)
    f1.remaining = 0.0
    solver.solve([f2])
    assert math.isclose(f2.rate, 50.0)  # cap redistributes within the tenant


def test_sample_flow_sizes_against_tables(rng):
    sizes = np.array([F.sample_flow_size("enterprise", rng)
                      for _ in range(200_000)])
    table_mass = 0.80
    assert abs(float(np.mean(sizes <= 100_000)) - table_mass) < 0.01
    dm = np.array([F.sample_flow_size("datamining", rng)
                   for _ in range(200_000)])
    median = F.cdf_quantile("datamining", 0.5)
    assert abs(float(np.median(dm)) - median) / median < 0.05
    assert F.sample_flow_size(("fixed", 1_000_000), rng) == 1_000_000
    with pytest.raises(KeyError):
        F.load_workload_cdf("nope")


def test_dormancy_probability():
    assert F.dormancy_probability(0) == 1.0
    assert F.dormancy_probability(3) == 0.125
    with pytest.raises(ValueError):
        F.dormancy_probability(-1)


def test_idealized_dormancy_frequency(rng):
    for n in (1, 3, 6, 10):
        draws = 200_000
        freq = F.idealized_all_dormant_frequency(n, draws, rng)
        p = F.dormancy_probability(n)
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(freq - p) <= 3 * sigma + 1e-12


def random_wfq_case(rng, max_links=4, max_flows=6):
    """Random small network + queue config; returns solver inputs and the
    matching oracle."""
    n_links = int(rng.integers(1, max_links + 1))
    nodes = [("s0", "switch", 1, 0)]
    links = []
    for i in range(n_links):
        nodes.append((f"h{i}", "hypervisor", 0, 50))
        links.append((f"h{i}", "s0", float(rng.integers(10, 20) * 100)))
    topo = T.build_custom(nodes, links)
    tenants = {}
    n_ten = int(rng.integers(1, 4))
    for ti in range(n_ten):
        tid = f"T{ti}"
        b = float(rng.integers(1, 4) * 50)
        n_vms = max(n_links, 2)
        spread = {f"h{i}": 1 for i in range(min(n_links, n_vms))}
        while sum(spread.values()) < n_vms:
            spread["h0"] += 1
        tenants[tid] = P.embed_fixed(topo, TenantRequest(n_vms, b), tid, "s0",
                                     spread)
    owners = {}
    for key in topo.links:
        pool = [t for t in tenants if key in tenants[t].tr.links]
        take = [t for t in pool if rng.random() < 0.5]
        for t in take[: topo.links[key].queue_count - 1]:
            owners.setdefault(key, set()).add(t)
    # dedicated only if owning everywhere
    dedicated = {t for t in tenants
                 if all(t in owners.get(k, set()) for k in tenants[t].tr.links)}
    owners = {k: v & dedicated for k, v in owners.items()}
    flows = []
    fid = 0
    n_flows = int(rng.integers(1, max_flows + 1))
    hyps = [f"h{i}" for i in range(n_links)]
    for _ in range(n_flows):
        tid = f"T{int(rng.integers(0, n_ten))}"
        t = tenants[tid]
        hosts = t.hypervisors()
        if len(hosts) < 2:
            continue
        a, b_ = rng.choice(hosts, size=2, replace=False)
        fid += 1
        flows.append(F.Flow(fid, tid, 0, 1, a, b_, 1e9, 0.0,
                            route=F.tenant_route(t, a, b_)))
    return topo, tenants, owners, flows


def large_shared_case(rng, dedicated_queues=(0, 1)):
    """Star of 2-4 links where 2-8 tenants span every link and up to 40 flows
    cross it. A count drawn from `dedicated_queues` of the tenants own a
    dedicated queue on every link; the rest, up to 8, share the shared
    queue. Reservations take one of two values, so tenants often tie on
    reservation and on demand/weight."""
    n_links = int(rng.integers(2, 5))
    hyps = [f"h{i}" for i in range(n_links)]
    topo = T.build_custom(
        [("s0", "switch", 1, 0)] + [(h, "hypervisor", 0, 50) for h in hyps],
        [(h, "s0", float(rng.integers(20, 40) * 100)) for h in hyps])
    tenants = {}
    for ti in range(int(rng.integers(2, 9))):
        tid = f"T{ti}"
        tenants[tid] = P.embed_fixed(
            topo, TenantRequest(n_links, float(rng.choice([50.0, 100.0]))),
            tid, "s0", {h: 1 for h in hyps})
    tids = sorted(tenants)
    n_ded = min(int(rng.choice(dedicated_queues)), len(tids) - 1)
    dedicated = set(rng.choice(tids, size=n_ded, replace=False).tolist())
    owners = {key: set(dedicated) for key in topo.links}
    flows = []
    for fid in range(1, int(rng.integers(1, 41)) + 1):
        tid = tids[int(rng.integers(0, len(tids)))]
        a, b = rng.choice(hyps, size=2, replace=False).tolist()
        flows.append(F.Flow(fid, tid, 0, 1, a, b, 1e9, 0.0,
                            route=F.tenant_route(tenants[tid], a, b)))
    return topo, tenants, owners, flows


def oracle_rates(solver, flows):
    """WfqOracle's fixed point for the queue configuration `solver` holds."""
    capacities, reservations, dir_owners, weights = {}, {}, {}, {}
    for f in flows:
        for dk in f.route:
            view = solver.views[T.link_key(*dk)]
            capacities[dk] = view.capacity
            reservations[dk] = view.reservations
            dir_owners[dk] = view.owners
            weights[dk] = view.qweights
    return WfqOracle(capacities, dir_owners, reservations, weights).solve(flows)


def check_against_oracle(rng, case_maker, cases):
    for case in range(cases):
        topo, tenants, owners, flows = case_maker(rng)
        if not flows:
            continue
        solver = F.RateSolver(topo)
        solver.rebuild(owners)
        solver.solve(flows)
        assert (solver.solves, solver.nonconverged) == (1, 0), f"case {case}"
        orates = oracle_rates(solver, flows)
        for f in flows:
            ref = orates[f.fid]
            assert abs(f.rate - ref) <= 1e-6 * max(ref, 1.0), \
                f"case {case}: flow {f.fid} {f.rate} vs {ref}"


def test_fixed_point_matches_oracle(rng):
    # quick development slice; the acceptance suite runs the 1000-case sweep
    check_against_oracle(rng, random_wfq_case, 80)


def test_many_shared_tenants_match_oracle(rng):
    check_against_oracle(rng, large_shared_case, 100)


def test_static_mode_caps_tenants_and_bottlenecks_every_flow(rng):
    for case in range(100):
        topo, tenants, _, flows = large_shared_case(rng)
        solver = F.RateSolver(topo, mode="static")
        solver.rebuild({})
        solver.solve(flows)
        assert solver.nonconverged == 0
        load, tenant_load = {}, {}
        for f in flows:
            for dk in f.route:
                load[dk] = load.get(dk, 0.0) + f.rate
                tenant_load[dk, f.tenant] = (tenant_load.get((dk, f.tenant), 0.0)
                                             + f.rate)

        def reservation(dk, tid):
            return topo.links[T.link_key(*dk)].reservations[tid]

        def capacity(dk):
            return topo.links[T.link_key(*dk)].capacity

        for (dk, tid), total in tenant_load.items():
            assert total <= reservation(dk, tid) * (1 + 1e-9), f"case {case}"
        for dk, total in load.items():
            assert total <= capacity(dk) * (1 + 1e-9), f"case {case}"
        for f in flows:
            assert any(
                tenant_load[dk, f.tenant] >= reservation(dk, f.tenant) * (1 - 1e-9)
                or load[dk] >= capacity(dk) * (1 - 1e-9)
                for dk in f.route), f"case {case}: flow {f.fid} not bottlenecked"


@pytest.mark.xfail(strict=True, reason=(
    "known fault: with two dedicated queues on shared links the per-sweep "
    "lifted grants can settle into a 2-cycle, in RateSolver and in "
    "WfqOracle alike, so the solve stops at its sweep cap"))
def test_two_dedicated_queues_converge(rng):
    for case in range(40):
        topo, tenants, owners, flows = large_shared_case(rng, (2,))
        solver = F.RateSolver(topo)
        solver.rebuild(owners)
        solver.solve(flows)
        assert solver.nonconverged == 0, f"case {case}"


def test_solver_counts_sweeps_and_nonconverged_solves(monkeypatch):
    _, tenants, solver = contended_link()
    flows = [flow(1, tenants, "A"), flow(2, tenants, "B")]
    solver.solve(flows)
    assert (solver.solves, solver.nonconverged) == (1, 0)
    first = solver.sweeps
    assert 1 <= first < 20
    # two directed links: the sweep cap is max(10 * 2, 8); a negative
    # tolerance keeps every sweep short of convergence
    monkeypatch.setattr(F, "_TOL", -1.0)
    solver.solve(flows)
    assert (solver.solves, solver.nonconverged) == (2, 1)
    assert solver.sweeps == first + 20


def sweep_by_fid(solver, demands: dict, lift: bool) -> dict:
    """fid -> float.hex of one sweep of `solver`'s current plans, every
    routed flow demanding demands[fid]."""
    rates = solver._sweep([demands[f.fid] for f in solver._flows], lift)
    return {f.fid: r.hex() for f, r in zip(solver._flows, rates)}


@pytest.mark.parametrize("mode", ["wfq", "static"])
def test_memoised_solves_match_fresh_solvers_bit_for_bit(rng, mode):
    """One solver takes a sequence of solves: flows arrive one at a time and
    then leave one at a time, with a rebuild to other owners halfway, so
    its plans are carried across solves. Every solve's rates, and one lift
    and one projection sweep from arbitrary demands, equal bit for bit those
    of a fresh solver (empty memo, every link planned anew) with the same
    views. Re-solving an unchanged flow set is all memo hits, the memo
    holds at most the kernel inputs of the last two solves, the level memo
    at most the group inputs looked up since the start of the solve
    2 * _LEVEL_SOLVES - 1 solves back, and every planned link's lift and
    projection sweeps count once as a run or a hit."""
    def fresh_solver():
        fresh = F.RateSolver(topo, mode=mode)
        fresh.rebuild(owners)
        return fresh

    def hexes(rates):
        return [r.hex() for r in rates]

    for case in range(12):
        maker = random_wfq_case if case % 2 else large_shared_case
        topo, tenants, owners, flows = maker(rng)
        if not flows:
            continue
        solver = fresh_solver()
        tids = sorted(tenants)
        later = {key: {tids[int(rng.integers(0, len(tids)))]}
                 for key in topo.links}
        arrive = [flows[j] for j in rng.permutation(len(flows))]
        steps = [arrive[:n] for n in range(1, len(arrive) + 1)]
        for j in rng.permutation(len(flows))[:-1]:
            steps.append([f for f in steps[-1] if f is not flows[j]])
        marks = [0]  # kernel evaluations before each solve
        level_marks = [0] * 2 * F._LEVEL_SOLVES  # group lookups, likewise

        def solve(active):
            marks.append(solver.kernel_runs + solver.kernel_hits)
            level_marks.append(solver.level_runs + solver.level_hits)
            sweeps = solver.sweeps
            solver.solve(active)
            evals = solver.kernel_runs + solver.kernel_hits
            links = len({dk for f in active for dk in f.route})
            assert evals - marks[-1] == links * (solver.sweeps - sweeps + 2)
            assert len(solver._memo) + len(solver._memo_prev) <= evals - marks[-2]
            levels = solver._levels
            assert len(levels.cur) + len(levels.prev) <= \
                solver.level_runs + solver.level_hits \
                - level_marks[-2 * F._LEVEL_SOLVES]

        for step, active in enumerate(steps):
            where = f"case {case} step {step}"
            if step == len(steps) // 2:
                owners = later
                solver.rebuild(owners)
            solve(active)
            copies = [dataclasses.replace(f) for f in active]
            fresh_solver().solve(copies)
            assert hexes(f.rate for f in active) == \
                hexes(f.rate for f in copies), where
            runs = solver.kernel_runs
            solve(active)
            assert solver.kernel_runs == runs, where
            routed = [f for f in active if f.route]
            # few distinct values, so that links of equal structure often
            # see equal demands, some above capacity
            demands = dict(zip((f.fid for f in routed), rng.choice(
                [50.0, 200.0, 1500.0, 5000.0], len(routed)).tolist()))
            for lift in (True, False, True):
                fresh = fresh_solver()
                fresh._update(routed)
                assert sweep_by_fid(solver, demands, lift) == \
                    sweep_by_fid(fresh, demands, lift), f"{where} lift {lift}"


def test_memo_keeps_links_apart_that_differ_only_in_capacity():
    # a lone dedicated flow is lifted to each link's capacity, whatever
    # it demands, so the link keyed second must not reuse the first's level
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 10), ("h2", "hypervisor", 0, 10),
         ("s1", "switch", 1, 0)],
        [("h1", "s1", 2000.0), ("h2", "s1", 1000.0)])
    t = P.embed_fixed(topo, TenantRequest(2, 50.0), "A", "s1",
                      {"h1": 1, "h2": 1})
    solver = F.RateSolver(topo)
    solver.rebuild({key: {"A"} for key in topo.links})
    f = F.Flow(1, "A", 0, 1, "h1", "h2", 1e9, 0.0,
               route=F.tenant_route(t, "h1", "h2"))
    solver.solve([f])
    assert f.rate == 1000.0
    assert solver._sweep([300.0], lift=True) == [1000.0]


def random_kernel_plan(rng):
    """(mode, capacity, queues) of one random link plan, queues as
    _LinkPlan takes them; the capacity may be 0. Reservations come from a
    small set, with two below the 1e-12 weight floor (a tenant's cap/weight
    key is then not 1), and so do queue weights and group sizes (1, 2 and
    3-8 flows)."""
    static = rng.random() < 0.25
    C = float(rng.choice([0.0, 1000.0, 2500.0, rng.uniform(100.0, 5000.0)]))
    reservations = [0.0, 5e-13, 50.0, 100.0, 100.0,
                    float(rng.uniform(1.0, 400.0))]

    def group(dedicated):
        g = float(rng.choice(reservations))
        n = int(rng.choice([1, 1, 2, 2, 3, int(rng.integers(4, 9))]))
        return (None if dedicated else g, max(g, 1e-12), n)

    def weight():
        return max(float(rng.choice([0.0, 0.25, 0.5, 0.5, 1.0])), 1e-12)

    if static:
        groups = [group(False) for _ in range(int(rng.integers(1, 7)))]
        return "static", C, [(1e-12, groups)]
    n_ded = int(rng.integers(0, 4))
    queues = [(weight(), [group(True)]) for _ in range(n_ded)]
    if n_ded == 0 or rng.random() < 0.7:
        queues.append((weight(), [group(False)
                                  for _ in range(int(rng.integers(1, 7)))]))
    return "wfq", C, queues


def test_kernel_matches_reference_bit_for_bit(rng):
    """fluid._link_levels on a _LinkPlan equals oracles.link_levels_reference
    (the kernel as first written) bit for bit, in lift and projection
    sweeps, on dedicated-only, shared-only, mixed and static plans whose
    demands often tie, are zero or reach the capacity: with a throwaway
    level memo, and twice through one level memo kept over every case,
    the second time all hits."""
    kinds = collections.Counter()
    memo = F._LevelMemo()
    for case in range(1500):
        mode, C, queues = random_kernel_plan(rng)
        plan = F._LinkPlan(C, mode == "static", queues)
        ref_queues = [(w_q, math.fsum(w for _, w, _ in groups),
                       [(g, w, range(n)) for g, w, n in groups])
                      for w_q, groups in queues]
        qwsum = math.fsum(w_q for w_q, _ in queues)
        n = sum(n for _, groups in queues for _, _, n in groups)
        pool = [0.0, 50.0, 100.0, C / 3, C, float(rng.uniform(0.0, C))]
        capped = tuple(float(x) for x in rng.choice(pool, n))
        for lift in (True, False):
            want = [x.hex() for x in oracles.link_levels_reference(
                mode, C, qwsum, ref_queues, capped, lift)]
            for rerun in range(3):
                runs = memo.runs
                got = F._link_levels(plan, capped, lift,
                                     memo if rerun else None)
                assert [x.hex() for x in got] == want, \
                    f"case {case} lift {lift} rerun {rerun}: " \
                    f"{mode} {C} {queues} {capped}"
            assert memo.runs == runs, f"case {case} lift {lift}"
        kinds[mode, bool(plan.ded), bool(plan.groups)] += 1
        kinds.update(min(n, 3) for _, groups in queues for _, _, n in groups)
    assert min(kinds[k] for k in (1, 2, 3, ("static", False, True),
                                  ("wfq", True, False), ("wfq", False, True),
                                  ("wfq", True, True))) >= 50, kinds
    # some first lookups find a group of an earlier case
    assert memo.runs >= 500 and memo.hits > memo.runs, (memo.runs, memo.hits)


def searched_ranks(total: float, caps) -> int:
    """How many ranks, from the smallest cap up, fluid._lift_levels searches
    on their own: those up to the highest mid that the largest rank's search
    in oracles._lift_levels visits."""
    S = sorted(caps)
    P = list(itertools.accumulate(S, initial=0.0))
    n, lo, hi, top = len(S), 0, len(S) - 1, 0
    while lo < hi:
        mid = (lo + hi) // 2
        top = max(top, mid)
        if S[mid] < (total - P[mid]) / (n - mid) - 1e-15:
            lo = mid + 1
        else:
            hi = mid
    return top + 1


def test_lift_levels_match_reference_bit_for_bit(rng):
    """fluid._lift_levels, which searches once for every rank above the
    largest rank's highest visited mid, equals oracles._lift_levels (one
    search per rank) bit for bit on 3-12 caps that often tie or are zero,
    with totals below 0, zero, equal to a cap, between caps and up to past
    their sum."""
    shared = searched = 0
    for case in range(1500):
        n = int(rng.integers(3, 13))
        pool = [0.0, 0.0, 50.0, 100.0, 100.0, float(rng.uniform(0.0, 400.0))]
        caps = tuple(float(x) for x in rng.choice(pool, n))
        total = float(rng.choice([
            -float(rng.uniform(0.0, 100.0)), 0.0, rng.choice(caps),
            rng.uniform(min(caps), max(caps)),
            rng.uniform(0.0, sum(caps) + 100.0)]))
        got = F._lift_levels(total, caps)
        want = oracles._lift_levels(total, caps)
        assert [x.hex() for x in got] == [x.hex() for x in want], \
            f"case {case}: {total!r} {caps}"
        k = searched_ranks(total, caps)
        searched += k
        shared += n - k
    assert min(shared, searched) >= 200, (shared, searched)


def test_twin_links_run_once_per_sweep():
    """On a chain h1-s1-s2-h2 of equal capacities (and h3 under s1), the
    links a flow set crosses in one direction carry the same flows under
    equal signatures. As flows arrive (h3's flows split the groups) and
    leave, every sweep reads each (signature, flows) group once, through
    its first plan, the other links count as memo hits, and the rates equal
    a fresh solver's bit for bit and WfqOracle's within 1e-6."""
    topo = T.build_custom(
        [("h1", "hypervisor", 0, 10), ("h2", "hypervisor", 0, 10),
         ("h3", "hypervisor", 0, 10), ("s1", "switch", 1, 0),
         ("s2", "switch", 2, 0)],
        [("h1", "s1", 1000.0), ("h3", "s1", 1000.0), ("s1", "s2", 1000.0),
         ("h2", "s2", 1000.0)])
    tenants = {tid: P.embed_fixed(topo, TenantRequest(3, 100.0), tid, "s2",
                                  {"h1": 1, "h2": 1, "h3": 1})
               for tid in ("A", "B")}
    owners = {key: {"B"} for key in topo.links}
    ends = [("A", "h1", "h2"), ("B", "h1", "h2"), ("A", "h1", "h2"),
            ("A", "h2", "h1"), ("B", "h2", "h1"), ("A", "h3", "h2"),
            ("B", "h1", "h3")]
    flows = [F.Flow(fid, tid, 0, 1, a, b, 1e9, 0.0,
                    route=F.tenant_route(tenants[tid], a, b))
             for fid, (tid, a, b) in enumerate(ends, 1)]
    steps = [flows[:n] for n in range(1, len(flows) + 1)]
    steps += [flows[n:] for n in range(1, len(flows))]
    solver = F.RateSolver(topo)
    solver.rebuild(owners)
    for step, active in enumerate(steps):
        evals, sweeps = solver.kernel_runs + solver.kernel_hits, solver.sweeps
        solver.solve(active)
        plans = solver._plans
        assert solver.kernel_runs + solver.kernel_hits - evals == \
            len(plans) * (solver.sweeps - sweeps + 2), f"step {step}"
        groups = {(p.sig, tuple(p.fids)) for p in plans.values()}
        assert len(solver._distinct) == len(groups), f"step {step}"
        if step == 4:  # flows 1-5: one group per direction
            assert (len(plans), len(groups)) == (6, 2)
        assert [f.rate.hex() for f in active] == \
            solved_elsewhere(topo, owners, active), f"step {step}"
        orates = oracle_rates(solver, active)
        for f in active:
            ref = orates[f.fid]
            assert abs(f.rate - ref) <= 1e-6 * max(ref, 1.0), \
                f"step {step}: flow {f.fid} {f.rate} vs {ref}"
        # every plan counts its gathers; from distinct demands a sweep of
        # a fresh memo runs each group's kernel once
        read = collections.Counter()
        kept = {dk: plan.gather for dk, plan in plans.items()}
        for dk, plan in plans.items():
            plan.gather = (lambda rates, dk=dk, gather=plan.gather:
                           read.update([dk]) or gather(rates))
        fresh = F.RateSolver(topo)
        fresh.rebuild(owners)
        fresh._update(active)
        runs, hits = fresh.kernel_runs, fresh.kernel_hits
        for lift in (True, False):
            read.clear()
            demands = [100.0 + 7.0 * s for s in range(len(active))]
            solver._sweep(demands, lift)
            assert sorted(read.values()) == [1] * len(groups), f"step {step}"
            fresh._sweep(demands, lift)
        for dk, gather in kept.items():
            plans[dk].gather = gather
        assert (fresh.kernel_runs - runs, fresh.kernel_hits - hits) == \
            (2 * len(groups), 2 * (len(fresh._plans) - len(groups)))


def solved_elsewhere(topo, owners, flows, mode="wfq") -> list:
    """float.hex of every flow's rate from a fresh solver, in flow order."""
    copies = [dataclasses.replace(f) for f in flows]
    fresh = F.RateSolver(topo, mode=mode)
    fresh.rebuild(owners)
    fresh.solve(copies)
    return [f.rate.hex() for f in copies]


def test_departure_replans_only_the_links_on_its_route(rng):
    for case in range(30):
        topo, tenants, owners, flows = large_shared_case(rng)
        if len(flows) < 2:
            continue
        solver = F.RateSolver(topo)
        solver.rebuild(owners)
        solver.solve(flows)
        before = dict(solver._plans)
        gone = flows[int(rng.integers(0, len(flows)))]
        rest = [f for f in flows if f is not gone]
        built, kept = solver.plans_built, solver.plans_kept
        solver.solve(rest)
        crossed = {dk for f in rest for dk in f.route}
        assert list(solver._plans) == sorted(crossed), f"case {case}"
        for dk, plan in solver._plans.items():
            assert (plan is before[dk]) == (dk not in gone.route), \
                f"case {case}"
        replanned = len(crossed.intersection(gone.route))
        assert solver.plans_built - built == replanned
        assert solver.plans_kept - kept == len(crossed) - replanned
        # the flow that took the freed slot reads its rate from there
        assert [f.rate.hex() for f in rest] == \
            solved_elsewhere(topo, owners, rest), f"case {case}"


def test_rebuild_replans_every_link():
    topo, tenants, owners, flows = large_shared_case(np.random.default_rng(7))
    solver = F.RateSolver(topo)
    solver.rebuild(owners)
    solver.solve(flows)
    rates = [f.rate.hex() for f in flows]
    before = dict(solver._plans)
    built, kept = solver.plans_built, solver.plans_kept
    solver.rebuild(owners)
    solver.solve(flows)
    assert solver.plans_built - built == len(before)
    assert solver.plans_kept == kept
    assert not any(solver._plans[dk] is plan for dk, plan in before.items())
    assert [f.rate.hex() for f in flows] == rates


def test_empty_solve_then_flows_again(rng):
    topo, tenants, owners, flows = large_shared_case(rng)
    solver = F.RateSolver(topo)
    solver.rebuild(owners)
    want = solved_elsewhere(topo, owners, flows)
    for _ in range(2):
        solver.solve([])
        assert (solver._plans, solver._flows, solver._slot) == ({}, [], {})
        solver.solve(flows)
        assert [f.rate.hex() for f in flows] == want
    links = len({dk for f in flows for dk in f.route})
    assert (solver.plans_built, solver.plans_kept) == (2 * links, 0)


def test_reused_fid_with_another_tenant_or_route_is_planned_anew():
    topo, tenants, solver = contended_link()
    owners = {("h1", "s1"): {"A"}, ("h2", "s1"): {"A"}}
    first = flow(1, tenants, "A")
    back = F.Flow(1, "A", 5, 0, "h2", "h1", 1e9, 0.0,
                  route=F.tenant_route(tenants["A"], "h2", "h1"))
    other = F.Flow(1, "B", 0, 5, "h1", "h2", 1e9, 0.0, route=first.route)
    solver.solve([first, flow(2, tenants, "B")])
    for f in (back, other):
        peer = flow(2, tenants, "B")
        built = solver.plans_built
        solver.solve([f, peer])
        assert list(solver._plans) == sorted({*f.route, *peer.route})
        assert solver.plans_built - built == len(solver._plans)
        assert [f.rate.hex(), peer.rate.hex()] == \
            solved_elsewhere(topo, owners, [f, peer])


def test_bundled_unpredictable_solves_converge():
    for seed in (1, 2, 3):
        doc = dict(cli.load_scenario("unpredictable"), seed=seed,
                   duration_s=2.0)
        solver = S.build_wcbg(doc).sim.solver
        assert solver.solves > 0 and solver.nonconverged == 0, f"seed {seed}"


def test_segment_stats_skip_the_warmup_interval():
    doc = dict(cli.load_scenario("unpredictable"), seed=1, duration_s=2.0)
    assert doc["warmup_intervals"] == 1
    run = S.build_wcbg(doc)
    stats = run.sim.stats
    assert 0.0 < stats.time_active <= stats.time_total
    assert math.isclose(stats.time_total, 2.0)
    assert stats.busy_time <= stats.time_active
    assert stats.guarantee_violation_time <= stats.time_active


def test_violation_time_counts_wall_and_tenant_seconds():
    dkey = ("h1", "s1")
    stats = F.SegmentStats(
        dkey, 1000.0, {"A": 100.0, "B": 100.0},
        {(t, h): 100.0 for t in "AB" for h in ("h1", "h2")})

    def flows(rate_a, rate_b):
        out = []
        for fid, (tid, rate) in enumerate((("A", rate_a), ("B", rate_b))):
            out.append(F.Flow(fid, tid, 0, 1, "h1", "h2", 1e9, 0.0,
                              rate=rate, route=(dkey, ("s1", "h2"))))
        return out

    def unsaturated(f, excluding):
        return False

    stats.observe(0.0, 2.0, flows(10.0, 20.0), set(), unsaturated)
    assert stats.guarantee_violation_time == 2.0  # both below 100 at once
    assert stats.guarantee_violation_tenant_time == 4.0
    stats.observe(2.0, 3.0, flows(10.0, 100.0), set(), unsaturated)
    assert stats.guarantee_violation_time == 3.0
    assert stats.guarantee_violation_tenant_time == 5.0
    assert stats.violating_tenants == {"A", "B"}


def _segment_fields(stats):
    """Every SegmentStats field, floats as `float.hex`."""
    out = {}
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        out[field.name] = value.hex() if isinstance(value, float) else value
    return out


def test_observe_matches_the_rederiving_reference(rng):
    """Random arrivals, departures, rate changes and owner sets, and
    segments of zero or negative length; after every segment the carried
    observe and the reference that re-derives each segment agree on every
    field, bit for bit."""
    dkey = ("h1", "s1")
    hyps = ("h1", "h2", "h3")
    nic = {(t, h): float(rng.integers(0, 4)) * 40.0 for t in "ABC" for h in hyps}
    guarantees = {"A": 100.0, "B": 60.0, "C": 0.0}
    stats, ref = (F.SegmentStats(dkey, 400.0, dict(guarantees), dict(nic))
                  for _ in range(2))
    flows: list = []
    seen = collections.Counter()
    t = 0.0
    for step in range(1500):
        action = rng.choice(["arrive", "depart", "rates", "segment"],
                            p=[.2, .15, .15, .5])
        if action == "arrive":
            src, dst = (str(h) for h in rng.choice(hyps, size=2))
            route = ((src, "s1"), ("s1", dst)) if rng.random() < 0.7 else (
                ("s1", dst),)
            flows.append(F.Flow(step, str(rng.choice(list("ABC"))), 0, 1, src,
                                dst, 1e9, 0.0, rate=float(rng.uniform(0, 150)),
                                route=route))
        elif action == "depart" and flows:
            del flows[int(rng.integers(0, len(flows)))]
        elif action == "rates":
            for f in flows:
                if rng.random() < 0.5:
                    f.rate = float(rng.uniform(0, 150))
        else:
            dt = float(rng.choice([0.0, -0.01, rng.uniform(0.001, 0.5)]))
            owners = {tid for tid in "ABC" if rng.random() < 0.4}
            cut = int(rng.integers(0, 3))

            def all_unsaturated(f, excluding):
                return f.fid % 3 != cut and excluding == dkey

            for s, observe in ((stats, F.SegmentStats.observe),
                               (ref, oracles.observe_reference)):
                observe(s, t, t + dt, list(flows), owners, all_unsaturated)
            t += max(dt, 0.0)
            seen["busy"] += stats.busy_time > 0
            seen["short"] += bool(stats.violating_tenants)
            seen["unsaturated"] += stats.conservation_violation_time > 0
        assert _segment_fields(stats) == _segment_fields(ref), f"step {step}"
        seen[action] += 1
    assert min(seen.values()) > 0, seen


def test_capacity_respected_and_flows_conserved(rng):
    for _ in range(100):
        topo, tenants, owners, flows = random_wfq_case(rng)
        if not flows:
            continue
        solver = F.RateSolver(topo)
        solver.rebuild(owners)
        solver.solve(flows)
        per_link = {}
        for f in flows:
            for dk in f.route:
                per_link[dk] = per_link.get(dk, 0.0) + f.rate
        for dk, total in per_link.items():
            cap = topo.links[T.link_key(*dk)].capacity
            assert total <= cap * (1 + 1e-9)


def test_simulation_determinism():
    def run():
        topo = T.build_testbed()
        tenants = {}
        for i in range(4):
            tid = f"t{i}"
            tenants[tid] = P.embed_fixed(
                topo, TenantRequest(10, 10.0), tid, "a000",
                {h: 1 for h in topo.hypervisors()})
        vm_map = {t: F._expand_vms(x) for t, x in tenants.items()}
        clients = F.make_clients(tenants, vm_map)
        gen = F.DemandGenerator("unpredictable", "enterprise", seed=5,
                                size_scale=20.0, clients=clients)
        sim = F.FluidSimulation(topo, tenants, gen, interval=2.0, seed=5,
                                monitor=("a000", "t000"))
        reports = sim.run(6.0)
        return [(rep.index, sorted(rep.fcts), rep.link_util.get(("a000", "t000")))
                for rep in reports]

    assert run() == run()


@pytest.mark.parametrize("policy", ["qshare", "es_aggressive"])
def test_monitored_series_match_the_per_hop_reference(monkeypatch, policy):
    doc = dict(cli.load_scenario("unpredictable"), seed=4, duration_s=1.0,
               control_interval_s=0.4, warmup_intervals=0, policy=policy)
    run = S.build_wcbg(doc)
    monkeypatch.setattr(F.FluidSimulation, "_advance",
                        oracles.advance_reference)
    ref = S.build_wcbg(doc)
    monitor = run.sim.monitor
    assert len(run.reports) == len(ref.reports) > 1
    for rep, want in zip(run.reports, ref.reports):
        # the reference buckets every link; the simulation keeps the monitor's
        assert len(want.link_util) > 1
        assert rep.link_util == {monitor: want.link_util[monitor]}
        assert rep.tenant_throughput_mbps == want.tenant_throughput_mbps
        assert rep.usage == want.usage and rep.fcts == want.fcts
    assert vars(run.sim.stats) == vars(ref.sim.stats)


def test_link_util_holds_only_the_monitored_direction():
    doc = dict(cli.load_scenario("unpredictable"), seed=1, duration_s=1.0,
               control_interval_s=0.4, warmup_intervals=0)
    run = S.build_wcbg(doc)
    assert len(run.reports) == 3
    for rep in run.reports:
        assert list(rep.link_util) == [run.sim.monitor]
        assert rep.tenant_throughput_mbps


def test_tenant_route_within_tree():
    topo = T.build_testbed()
    t = P.embed_fixed(topo, TenantRequest(10, 10.0), "t", "a000",
                      {h: 1 for h in topo.hypervisors()})
    r = F.tenant_route(t, "h0000", "h0007")
    assert r == (("h0000", "t000"), ("t000", "a000"), ("a000", "t001"),
                 ("t001", "h0007"))
    assert F.tenant_route(t, "h0001", "h0001") == ()
