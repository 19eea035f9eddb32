"""Every boundary the benchmark's traced run wraps must exist at the name it
is looked up by; a missing one makes `perfbench/run.py --trace 1` die with a
KeyError when it installs its wrappers. The run must also reach each one
through that name, or its span metrics silently read 0."""

import collections
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from oracles import WfqOracle  # noqa: E402
from qshare import baselines, cli, fluid, scenarios  # noqa: E402
from qshare import placement, topology  # noqa: E402
from qshare.tenants import TenantRequest  # noqa: E402


def test_traced_names_exist_at_their_lookup_names():
    targets = layers.targets(WfqOracle)
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in vars(owner)]
    assert missing == []


def _count_calls(monkeypatch, owner, attr, calls):
    original = vars(owner)[attr]

    def counted(*args, **kwargs):
        calls[attr] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def test_compute_calls_fifo_scale_by_its_module_name(monkeypatch):
    topo = topology.build_testbed()
    t = placement.embed_fixed(topo, TenantRequest(10, 9.0), "t", "a000",
                              {h: 1 for h in topo.hypervisors()})
    vms = fluid._expand_vms(t)
    flows = [fluid.Flow(1, "t", 0, 5, vms[0], vms[5], 1e6, 0.0,
                        route=fluid.tenant_route(t, vms[0], vms[5]))]
    calls = collections.Counter()
    _count_calls(monkeypatch, baselines, "fifo_scale", calls)
    policy = baselines.EndhostRatePolicy(topo, {"t": t}, baselines.RAConfig())
    change = fluid.FlowChange([], flows)
    index = fluid.FlowIndex()
    index.apply(change)
    policy.follow(change, index)
    policy.compute(None, flows, 0.0)
    assert calls == {"fifo_scale": 1}


def test_an_endhost_run_reaches_every_traced_loop_boundary(monkeypatch):
    calls = collections.Counter()
    for owner, attr in ((baselines, "fifo_scale"),
                        (baselines.EndhostRatePolicy, "compute"),
                        (baselines.EndhostRatePolicy, "on_quantum"),
                        (fluid.SegmentStats, "observe"),
                        (fluid.RateSolver, "rebuild")):
        _count_calls(monkeypatch, owner, attr, calls)
    doc = dict(cli.load_scenario("unpredictable"), seed=1, duration_s=0.2,
               control_interval_s=0.1, warmup_intervals=0,
               policy="es_aggressive")
    run = scenarios.build_wcbg(doc, stats=True)
    assert set(calls) == {"fifo_scale", "compute", "on_quantum", "observe",
                          "rebuild"}
    assert calls["fifo_scale"] == calls["compute"]
    # the benchmark's solve checks read these fields of every link's view
    for view in run.sim.solver.views.values():
        assert {"capacity", "owners", "reservations"} <= set(vars(view))
