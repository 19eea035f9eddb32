"""Each benchmark output check passes on a real output of the program and
fails on a copy of that output with one deliberate corruption.

Real outputs come from short runs: the same scenarios as the benchmark's
workloads at a smaller size, so the whole module runs in seconds.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import checks  # noqa: E402
from oracles import WfqOracle  # noqa: E402
from qshare import cli, fluid, largescale, topology  # noqa: E402
from qshare.placement import CostPolicy, embed_fixed  # noqa: E402
from qshare.tenants import TenantRequest  # noqa: E402


def _run_cli(outdir: Path, *argv) -> Path:
    assert cli.main(["run", *argv, "--out", str(outdir)]) == 0
    return outdir


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# wcbg
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def wcbg_out(tmp_path_factory):
    return _run_cli(tmp_path_factory.mktemp("wcbg") / "out", "unpredictable",
                    "--set", "duration_s=1", "--set", "control_interval_s=1")


def _wcbg(outdir):
    return checks.check_wcbg(outdir, 1000.0, 1000.0)


def test_wcbg_real_output_passes(wcbg_out):
    assert _wcbg(wcbg_out) == []


def test_wcbg_utilization_above_one_fails(wcbg_out, tmp_path):
    out = _copy(wcbg_out, tmp_path / "o")
    _rewrite_csv(out / "utilization.csv",
                 lambda rows: rows[0].update(utilization="1.01"))
    assert any("exceeds 1" in f for f in _wcbg(out))


def test_wcbg_tenant_sum_mismatch_fails(wcbg_out, tmp_path):
    out = _copy(wcbg_out, tmp_path / "o")
    _rewrite_csv(out / "tenant_throughput.csv",
                 lambda rows: rows[0].update(mbps=repr(float(rows[0]["mbps"]) + 1.0)))
    assert any("tenant throughput sums" in f for f in _wcbg(out))


def test_wcbg_low_utilization_fails(wcbg_out, tmp_path):
    out = _copy(wcbg_out, tmp_path / "o")

    def scale(field):
        def edit(rows):
            for r in rows:
                r[field] = repr(float(r[field]) * 0.8)
        return edit

    _rewrite_csv(out / "utilization.csv", scale("utilization"))
    _rewrite_csv(out / "tenant_throughput.csv", scale("mbps"))
    assert [f for f in _wcbg(out) if "mean core utilization" in f]
    assert not [f for f in _wcbg(out) if "sums" in f or "exceeds" in f]


def test_wcbg_flow_faster_than_line_rate_fails(wcbg_out, tmp_path):
    out = _copy(wcbg_out, tmp_path / "o")
    lines = (out / "flows.jsonl").read_text().splitlines()
    flow = json.loads(lines[0])
    flow["fct_s"] = repr(float(flow["bytes"]) / 125e6 * 0.99)
    lines[0] = json.dumps(flow, sort_keys=True)
    (out / "flows.jsonl").write_text("\n".join(lines) + "\n")
    assert any("faster than" in f for f in _wcbg(out))


# ---------------------------------------------------------------------------
# fct
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fct_out(tmp_path_factory):
    return _run_cli(tmp_path_factory.mktemp("fct") / "out", "shuffle-fct",
                    "--set", "duration_s=3", "--set", "loads=[0.3,0.9]")


def _edit_fct(src, dst, edit):
    out = _copy(src, dst)
    _rewrite_csv(out / "fct.csv", edit)
    return checks.check_fct(out)


def test_fct_real_output_passes(fct_out):
    assert checks.check_fct(fct_out) == []
    assert checks.fct_order_breaks(fct_out) == []


def _swap_qshare_es(rows):
    q = next(r for r in rows if r["policy"] == "qshare")
    a = next(r for r in rows if r["policy"] == "es_aggressive"
             and r["load"] == q["load"])
    q["mean_fct_s"], a["mean_fct_s"] = a["mean_fct_s"], q["mean_fct_s"]


def test_fct_order_violation_is_counted(fct_out, tmp_path):
    out = _copy(fct_out, tmp_path / "o")
    _rewrite_csv(out / "fct.csv", _swap_qshare_es)
    assert len(checks.fct_order_breaks(out)) == 1


def test_fct_order_fails_the_fixed_execution_only(fct_out, tmp_path):
    from workloads import FctShuffle

    workload = FctShuffle(1, tmp_path)
    for name, failures in ((FctShuffle.ORDER_DIR, 1), ("seed2", 0)):
        out = _copy(fct_out, tmp_path / name)
        assert workload.check(out) == []
        _rewrite_csv(out / "fct.csv", _swap_qshare_es)
        assert len(workload.check(out)) == failures


def test_fct_static_differs_across_loads_fails(fct_out, tmp_path):
    def nudge(rows):
        s = [r for r in rows if r["policy"] == "static"][-1]
        s["mean_fct_s"] = repr(float(s["mean_fct_s"]) * (1 + 1e-6))
    assert any("differs across loads" in f
               for f in _edit_fct(fct_out, tmp_path / "o", nudge))


def test_fct_infinite_mean_and_no_flows_fail(fct_out, tmp_path):
    def breakit(rows):
        rows[0]["mean_fct_s"] = "inf"
        rows[1]["flows"] = "0"
    fails = _edit_fct(fct_out, tmp_path / "o", breakit)
    assert any("finite" in f for f in fails)
    assert any("no paired flows" in f for f in fails)


# ---------------------------------------------------------------------------
# fill
# ---------------------------------------------------------------------------

QC = 8


def _fill(k=6, seed=3):
    topo = topology.fattree_like("16:1", k=k, seed=seed)
    fill = largescale.fill_to_capacity(topo, largescale.PopulationSpec(),
                                       CostPolicy.stress(), seed=seed)
    gains = [largescale.throughput_gain(topo, fill.tenants, r, seed=seed)
             for r in (0.2, 0.5, 0.8)]
    return topo, fill, gains


@pytest.fixture
def fill():
    return _fill()


def _spread_tenant(fill):
    return next(t for t in sorted(fill.tenants.values(), key=lambda t: t.id)
                if len(t.vm_placement) >= 2 and any(
                    r > 0 for r in t.tr.reserved.values()))


def test_fill_real_output_passes(fill):
    topo, result, gains = fill
    assert checks.check_fill(topo, result, gains, QC) == []


def test_fill_moved_vm_fails(fill):
    topo, result, gains = fill
    t = _spread_tenant(result)
    hyps = sorted(t.vm_placement)
    t.vm_placement[hyps[0]] -= 1
    t.vm_placement[hyps[1]] += 1
    fails = checks.check_fill(topo, result, gains, QC)
    assert any("cut rule gives" in f or "routing-tree links" in f
               for f in fails)


def test_fill_lost_vm_fails(fill):
    topo, result, gains = fill
    t = _spread_tenant(result)
    t.vm_placement[sorted(t.vm_placement)[0]] -= 1
    assert any("not N=" in f for f in checks.check_fill(topo, result, gains, QC))


def test_fill_link_accounting_fails(fill):
    topo, result, gains = fill
    key, link = next((k, l) for k, l in sorted(topo.links.items())
                     if l.reserved > 0)
    link.reserved += 1.0
    assert any("tenant reservations sum" in f
               for f in checks.check_fill(topo, result, gains, QC))
    link.reserved = link.capacity * 1.01
    assert any("exceeds capacity" in f
               for f in checks.check_fill(topo, result, gains, QC))


def test_fill_slot_accounting_fails(fill):
    topo, result, gains = fill
    hyp = next(h for h in topo.hypervisors())
    topo.nodes[hyp].vm_slots_free += 1
    assert any("free slots" in f
               for f in checks.check_fill(topo, result, gains, QC))
    topo.nodes[hyp].vm_slots_total = 0
    assert any("VMs on 0 slots" in f
               for f in checks.check_fill(topo, result, gains, QC))


def test_fill_report_and_counts_fail(fill):
    topo, result, gains = fill
    result.report.r_nd += 0.5
    result.rejected += 1
    fails = checks.check_fill(topo, result, gains, QC)
    assert any("ScarcityReport.r_nd" in f for f in fails)
    assert any("!= attempted" in f for f in fails)


def test_fill_gain_and_utilization_fail(fill):
    topo, result, gains = fill
    g = gains[0]
    tid = next(iter(g.gains))
    g.gains[tid] = 0.5
    key2 = next(k for k in g.static_util if g.static_util[k] > 0)
    g.link_util[key2] = g.static_util[key2] / 2
    key = next(k for k in g.link_util if k != key2)
    g.link_util[key] = 1.5
    fails = checks.check_fill(topo, result, gains, QC)
    assert any("gains below 1" in f for f in fails)
    assert any("utilization 1.5 > 1" in f for f in fails)
    assert any("below static" in f for f in fails)


def test_fill_loads_recount(fill):
    topo, result, _ = fill
    loads = checks.fill_loads(topo, result.tenants)
    assert loads["bandwidth_load_pct"] == pytest.approx(100 * topo.load())
    assert loads["slot_load_pct"] == pytest.approx(
        100 * (1 - topo.free_vm_slots() / topo.total_vm_slots()))


# ---------------------------------------------------------------------------
# per-solve checks
# ---------------------------------------------------------------------------

def _solved(owners_of_first: bool):
    topo = topology.build_testbed(racks=2, servers_per_rack=2, vm_slots=4)
    root = topo.nodes_at_layer(topo.layer_count - 1)[0]
    hyps = topo.hypervisors()
    tenants = {
        tid: embed_fixed(topo, TenantRequest(4, b), tid, root,
                         {h: 1 for h in hyps})
        for tid, b in (("a", 200.0), ("b", 50.0))}
    vm_map = {tid: fluid._expand_vms(t) for tid, t in tenants.items()}
    flows = []
    for tid, t in tenants.items():
        for src, dst in ((0, 2), (1, 3), (0, 3)):
            vms = vm_map[tid]
            flows.append(fluid.Flow(len(flows) + 1, tid, src, dst, vms[src],
                                    vms[dst], 1e6, 0.0,
                                    route=fluid.tenant_route(t, vms[src],
                                                             vms[dst])))
    owners = {}
    if owners_of_first:
        owners = {k: {"a"} for k in tenants["a"].tr.links}
    solver = fluid.RateSolver(topo)
    solver.rebuild(owners)
    solver.solve(flows)
    return solver, flows


@pytest.mark.parametrize("dedicated", [False, True])
def test_solve_checks_pass_on_real_solve(dedicated):
    solver, flows = _solved(dedicated)
    assert checks.solve_violations(solver, flows) == (False, 0)
    assert not checks.oracle_mismatch(solver, flows, WfqOracle)


def test_solve_checks_catch_corrupted_rates():
    solver, flows = _solved(True)
    for f in flows:
        f.rate *= 0.5
    over, free = checks.solve_violations(solver, flows)
    assert not over and free > 0
    assert checks.oracle_mismatch(solver, flows, WfqOracle)
    for f in flows:
        f.rate *= 4.0
    assert checks.solve_violations(solver, flows)[0]


# ---------------------------------------------------------------------------
# host-speed normalisation
# ---------------------------------------------------------------------------

def test_speedometer_probes_run_off_the_clock():
    from hostspeed import REFERENCE_PROBE_S, Speedometer
    from tracing import PausableClock

    clk = PausableClock()
    t0 = clk.clock()
    wall0 = time.perf_counter()
    with Speedometer(clk.paused) as speed:
        while time.perf_counter() - wall0 < 0.5:
            pass
    timed = clk.clock() - t0
    probe_s = sum(speed.probes)
    assert len(speed.probes) >= 5
    assert timed == pytest.approx(time.perf_counter() - wall0 - probe_s, abs=0.02)
    assert speed.factor() == pytest.approx(
        sum(REFERENCE_PROBE_S / p for p in speed.probes) / len(speed.probes))
