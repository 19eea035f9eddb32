import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qshare import cli, largescale, scenarios
from qshare.fluid import FluidSimulation, RateSolver
from qshare.scenarios import (KINDS, ScenarioError, build_wcbg, resolve,
                              validate)


def tiny_scenario(**overrides):
    doc = {
        "name": "tiny", "kind": "wcbg", "seed": 3, "policy": "qshare",
        "control_interval_s": 1.0, "duration_s": 1.0,
        "tenants": {"count": 4, "vms_per_tenant": 10,
                    "core_guarantee_mbps": 100.0},
        "demand": {"mode": "unpredictable", "flow_sizes": "enterprise",
                   "size_scale": 10.0, "clients": "rack0", "peers": "remote"},
    }
    doc.update(overrides)
    return doc


def test_list_scenarios_contains_bundled():
    names = cli.list_bundled()
    for expected in ("predictable", "unpredictable", "interval-sweep",
                     "queue-scarcity", "throughput-gain", "tradeoff",
                     "shuffle-fct"):
        assert expected in names


def test_validate_rejects_bad_documents():
    with pytest.raises(ScenarioError):
        validate({"name": "x", "kind": "nope"})
    with pytest.raises(ScenarioError):
        validate(tiny_scenario(policy="wrong"))
    with pytest.raises(ScenarioError):
        validate({"kind": "wcbg"})


def test_validate_rejects_unknown_weight_mode():
    with pytest.raises(ScenarioError, match="^weight_mode: "):
        validate(tiny_scenario(weight_mode="quantised"))
    for mode in ("normalized", "quantized"):
        validate(tiny_scenario(weight_mode=mode))


def test_validate_names_the_unknown_fct_policy():
    doc = {"name": "f", "kind": "fct", "policies": ["qshare", "es_aggresive"]}
    with pytest.raises(ScenarioError, match=r"^policies\[1\]: .*es_aggresive"):
        validate(doc)
    validate(dict(doc, policies=["qshare", "es_aggressive", "static"]))


@pytest.mark.parametrize("scenario,item,path", [
    ("unpredictable", "weight_mode=quantised", "weight_mode"),
    ("shuffle-fct", 'policies=["qshare","bogus"]', "policies[1]"),
    ("unpredictable", "seed.x=1", "seed.x"),
    ("unpredictable", "duraton_s=30", "duraton_s"),
    ("tradeoff", "ra.headrom=0.2", "ra.headrom"),
    ("unpredictable", 'duration_s="abc"', "duration_s"),
    ("unpredictable", 'tenants.count="abc"', "tenants.count"),
    ("shuffle-fct", 'loads=["a"]', "loads[0]"),
    ("unpredictable", "seed=true", "seed"),
    ("unpredictable", "demand.mdoe=shuffle", "demand.mdoe"),
    ("unpredictable", "control_interval_s=0", "control_interval_s"),
    ("interval-sweep", "intervals=[2,0]", "intervals[1]"),
    ("unpredictable", "topology.racks=1", "topology.vm_slots"),
    ("unpredictable", "topology.vm_slots=0", "topology.vm_slots"),
    ("unpredictable", "tenants.vms_per_tenant=30", "topology.vm_slots"),
    ("unpredictable", "demand.dormancy_s=-1", "demand.dormancy_s"),
    ("unpredictable", "demand.size_scale=0", "demand.size_scale"),
    ("tradeoff", "size_scale=0", "size_scale"),
    ("shuffle-fct", "size_scale=-1", "size_scale"),
    ("unpredictable", "topology.racks=0", "topology.racks"),
    ("unpredictable", "topology.servers_per_rack=0", "topology.servers_per_rack"),
    ("unpredictable", "topology.queues_per_link=0", "topology.queues_per_link"),
    ("unpredictable", "topology.nic_mbps=0", "topology.nic_mbps"),
    ("unpredictable", "topology.core_mbps=0", "topology.core_mbps"),
    ("shuffle-fct", "topology.core_mbps=-1", "topology.core_mbps"),
    ("unpredictable", "tenants.core_guarantee_mbps=-5",
     "tenants.core_guarantee_mbps"),
    ("unpredictable", "tenants.core_guarantee_mbps=500", "topology.core_mbps"),
    ("unpredictable", "topology.nic_mbps=50", "topology.nic_mbps"),
    ("shuffle-fct", "topology.core_mbps=300", "topology.core_mbps"),
    ("queue-scarcity", "topology.queues_per_link=0", "topology.queues_per_link"),
])
def test_run_rejects_bad_overrides(tmp_path, capsys, scenario, item, path):
    rc = cli.main(["run", scenario, "--set", item,
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"scenario error: {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_over_reservation_names_the_guarantee_and_the_capacity(tmp_path,
                                                             capsys):
    rc = cli.main(["run", "unpredictable", "--set",
                   "tenants.core_guarantee_mbps=500",
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "scenario error: topology.core_mbps: 1000.0 Mbps per link" in err
    assert "reserves 5000.0 Mbps on t000-a000" in err
    assert "tenants.core_guarantee_mbps" in err


def test_one_queue_per_link_runs_with_every_tenant_shared(tmp_path):
    out = tmp_path / "out"
    doc = tiny_scenario(topology={"queues_per_link": 1}, control_interval_s=0.5)
    path = tmp_path / "one-queue.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    rows = [json.loads(line) for line in
            (out / "binding.jsonl").read_text().splitlines()]
    assert rows and {r["state"] for r in rows} == {"shared"}


def test_sweep_checks_every_grid_point_before_running(tmp_path, capsys):
    rc = cli.main(["sweep", "unpredictable", "--grid", "duraton_s=1,2",
                   "--out", str(tmp_path / "sweep")])
    assert rc == 2
    assert "scenario error: duraton_s: " in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


# What the runners read when a document sets nothing but its name and kind.
TESTBED = {
    "seed": 0, "control_interval_s": 4.0, "weight_mode": "normalized",
    "sample_s": 0.1,
    "topology": {"racks": 2, "servers_per_rack": 5, "vm_slots": 10,
                 "nic_mbps": 1000.0, "core_mbps": 1000.0,
                 "queues_per_link": 8},
    "ra": {"headroom": 0.1, "hold_increase": 3, "rate_caution": 0.5,
           "probe_period": 0.015, "ai_gain": 0.25,
           "overload_goodput_exponent": 2.0},
}
WCBG = {
    **TESTBED, "policy": "qshare", "duration_s": 10.0, "warmup_intervals": 0,
    "tenants": {"count": 10, "vms_per_tenant": 10, "core_guarantee_mbps": 94.0},
    "demand": {"mode": "unpredictable", "flow_sizes": "enterprise",
               "dormancy_s": 1.0, "size_scale": 1.0, "clients": "rack0",
               "concurrency": 1, "peers": "any", "activations": {},
               "initial_dedicated": []},
}
FILL = {
    "seed": 0, "oversub": "1:1", "topology": {"queues_per_link": 8},
    "population": {"vm_mean": 49.0, "vm_floor": 2,
                   "guarantees": [10.0, 50.0, 100.0, 200.0, 300.0]},
    "fill": {"reject_streak": 50, "r_in": 0.5, "intervals": 20},
}
DEFAULTS = {
    "wcbg": WCBG,
    "sweep": {**WCBG, "warmup_intervals": 1, "intervals": [1.0, 2.0, 4.0, 8.0]},
    "scarcity": FILL,
    "gain": {**FILL, "cdf_r_in": 0.5,
             "r_in_values": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]},
    "tradeoff": {**TESTBED, "duration_s": 30.0, "size_scale": 50.0},
    "fct": {**TESTBED, "duration_s": 20.0, "size_scale": 100.0,
            "loads": [0.3, 0.5, 0.7, 0.9],
            "policies": ["qshare", "es_aggressive", "static"],
            "background_tenants": 4, "background_flow_mb": 3.0},
}


@pytest.mark.parametrize("kind", KINDS)
def test_minimal_document_resolves_to_the_runner_defaults(kind):
    doc = {"name": "m", "kind": kind}
    assert resolve(doc) == {"name": "m", "kind": kind, **DEFAULTS[kind]}
    assert doc == {"name": "m", "kind": kind}


def test_bundled_scenarios_resolve_and_resolving_is_idempotent():
    for name in cli.list_bundled():
        doc = cli.load_scenario(name)
        cfg = resolve(doc)
        assert resolve(cfg) == cfg, name


def test_resolve_takes_ints_for_floats_but_no_bool_for_an_int():
    cfg = resolve(tiny_scenario(duration_s=2, tenants={"count": 4}))
    assert cfg["duration_s"] == 2 and isinstance(cfg["duration_s"], int)
    with pytest.raises(ScenarioError, match=r"^tenants\.count: true "):
        resolve(tiny_scenario(tenants={"count": True}))


def test_readme_wcbg_example_validates():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Scenario files", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    doc = json.loads(example)
    assert doc["kind"] == "wcbg"
    assert validate(doc) == doc


def test_malformed_file_reports_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x",\n  "kind": }')
    with pytest.raises(ScenarioError) as err:
        cli.load_scenario(str(bad))
    assert "line 2" in str(err.value)


def test_run_writes_artifacts_and_manifest(tmp_path):
    scn = tmp_path / "tiny.json"
    scn.write_text(json.dumps(tiny_scenario()))
    rc = cli.main(["run", str(scn), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"]["name"] == "tiny"
    assert manifest["seed"] == 3
    assert "wall_time_s" in manifest
    for name in manifest["artifacts"]:
        assert (out / name).exists()


def test_run_is_byte_reproducible(tmp_path):
    scn = tmp_path / "tiny.json"
    scn.write_text(json.dumps(tiny_scenario()))
    cli.main(["run", str(scn), "--out", str(tmp_path / "a")])
    cli.main(["run", str(scn), "--out", str(tmp_path / "b")])
    for name in ("utilization.csv", "tenant_throughput.csv", "binding.jsonl",
                 "flows.jsonl", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


# SHA-256 of the byte-stable artifact bodies, pinned so that a change which
# claims identical outputs is held to it; summary.json and manifest.json are
# left out (the manifest holds wall times, and summary keys may be renamed)
PINNED_BODIES = {
    ("unpredictable", "--seed", "1", "--set", "duration_s=2.0"): {
        "utilization.csv":
            "851522c0842885d70a023a8bb371c45dcb1acd43d14cb6f4155a713e3f3e9bcf",
        "tenant_throughput.csv":
            "80bb6fefd3794981d79f8e84fad89c4b2cba7acc5a1b20b33c515f733f08dd61",
        "binding.jsonl":
            "62d8fb4d23204fef967c512cc4a8cd58405014e2ed4f3f0d496e51849e1bc313",
        "flows.jsonl":
            "c5b67797006773fa5442843082b03e761f8f3c168acd31ec3a244c96b7bd23e0",
    },
    ("shuffle-fct", "--seed", "5", "--set", "loads=[0.5,0.9]"): {
        "fct.csv":
            "11ce10d3afb3a8a58fbb120dd4bc61db942690a80713597df2298a8c667374f9",
    },
    ("tradeoff", "--set", "duration_s=8"): {
        "tradeoff.csv":
            "81249728606f0700ac1a4ad1375b0b6e1b785d3b700cc437b05f762057222788",
    },
    ("unpredictable", "--seed", "3", "--set", "duration_s=2.0",
     "--set", "policy=es_conservative"): {
        "utilization.csv":
            "d67d7f08b16d5c9b41d6b272c6d50117b7e867e21c9c5811df5fad37aeaa6a14",
        "tenant_throughput.csv":
            "8cb8c7e47090ee7703d275a316c7c560d187a075021aeac30ff87e23b9fe9e4a",
        "binding.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "flows.jsonl":
            "e4c9dd04adef8138d05ae9538a1371d0077a02d09180c656be5b0f5d37a69256",
    },
    # the dedicated queues of criterion 1; this run's flows.jsonl is empty
    ("predictable",): {
        "utilization.csv":
            "73c87903d7bdbcadbe3f550bc8fcb23c20b23ba2a6a21aacbee60d8ecfb3fd17",
        "tenant_throughput.csv":
            "6b2db4669f759be9ad52af076460cbd56deef260c62170b895a2a674c18ad313",
        "binding.jsonl":
            "88992ba8b5a7aced63f193f2e72f37076d4a610d048343795db2585c71b0c2ea",
        "flows.jsonl":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    ("unpredictable", "--seed", "2", "--set", "duration_s=2.0",
     "--set", "weight_mode=quantized"): {  # quantized queue weights
        "utilization.csv":
            "9f2e6f0dbbe273a9d4b78b4d3e1164cd3be6e59de4f74085aaeb978a024833e0",
        "tenant_throughput.csv":
            "ae0a3d62ea8ace6f5c4208509e5f764e207ca3185d0fe290f2505768da7c2f69",
        "binding.jsonl":
            "b3b91f116f682e2d88215ea6582f8f34f334edd3f80b603d7f2c046f49b3345a",
        "flows.jsonl":
            "7420f8136de054dabac7322f0ec6f55a3262146bd33120f56d55150266f8aa8c",
    },
}


def _pin_id(argv):
    """The scenario name, and the policy or weight mode when the run
    overrides it."""
    return "-".join([argv[0], *(a.split("=", 1)[1] for a in argv
                                if a.startswith(("policy=", "weight_mode=")))])


@pytest.mark.parametrize("argv", list(PINNED_BODIES), ids=_pin_id)
def test_artifact_bodies_match_pinned_digests(tmp_path, argv):
    assert cli.main(["run", *argv, "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED_BODIES[argv]}
    assert digests == PINNED_BODIES[argv]


def test_manifest_holds_the_solver_counters_summed_over_simulations(tmp_path):
    assert cli.main(["run", "unpredictable", "--set", "duration_s=2",
                     "--out", str(tmp_path / "u")]) == 0
    manifest = json.loads((tmp_path / "u" / "manifest.json").read_text())
    counters = manifest["solver"]
    assert set(counters) == set(RateSolver.COUNTERS)
    assert counters["nonconverged"] == 0
    assert 0 < counters["solves"] <= counters["sweeps"]
    assert counters["kernel_runs"] > 0 and counters["kernel_hits"] > 0
    assert counters["plans_built"] > 0 and counters["plans_kept"] > 0
    assert counters["level_runs"] > 0 and counters["level_hits"] > 0
    for name in ("summary.json", "utilization.csv", "tenant_throughput.csv",
                 "binding.jsonl", "flows.jsonl"):
        body = (tmp_path / "u" / name).read_text()
        assert not any(key in body for key in RateSolver.COUNTERS), name
    # a sweep over two control intervals runs two simulations
    doc = tiny_scenario(kind="sweep", intervals=[0.5, 1.0])
    del doc["control_interval_s"]
    scn = tmp_path / "sweep.json"
    scn.write_text(json.dumps(doc))
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "s")]) == 0
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    counters = manifest["solver"]
    solvers = [build_wcbg(dict(resolve(doc), control_interval_s=iv)).sim.solver
               for iv in (0.5, 1.0)]
    assert counters == {name: sum(getattr(s, name) for s in solvers)
                        for name in RateSolver.COUNTERS}


def test_manifest_holds_the_loop_counters_summed_over_simulations(
        tmp_path, monkeypatch):
    sims = []
    run = FluidSimulation.run

    def recorded(self, *args, **kwargs):
        sims.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(FluidSimulation, "run", recorded)
    assert cli.main(["run", "shuffle-fct", "--set", "loads=[0.5]",
                     "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    # one simulation per policy, one of them driven by the endhost hook
    assert [s.policy for s in sims] == ["qshare", "es_aggressive", "static"]
    assert all(s.steps > 0 for s in sims)
    assert manifest["loop"] == {
        "steps": sum(s.steps for s in sims),
        "fifo_stops": sims[1].rate_hook.fifo_stops}
    assert set(manifest["solver"]) == set(RateSolver.COUNTERS)
    for name in ("fct.csv", "summary.json"):
        body = (tmp_path / name).read_text()
        assert "steps" not in body and "fifo_stops" not in body, name


@pytest.mark.parametrize("scenario, bodies", [
    ("queue-scarcity", ("scarcity.csv", "embedding.jsonl", "summary.json")),
    ("throughput-gain", ("gains.csv", "utilization_cdf.csv", "summary.json"))])
def test_manifest_holds_the_fill_placement_counters(tmp_path, monkeypatch,
                                                    scenario, bodies):
    outcomes = []
    embed, fattree_like = largescale.embed, scenarios.fattree_like

    def recorded(*args, **kwargs):
        outcomes.append(embed(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(largescale, "embed", recorded)
    # a k = 4 fattree instead of the bundled k = 16 keeps the fill small
    monkeypatch.setattr(scenarios, "fattree_like",
                        lambda *a, **kw: fattree_like(*a, k=4, **kw))
    assert cli.main(["run", scenario, "--set", "oversub=4:1",
                     "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    placement = manifest["placement"]
    assert placement == {
        "embeds": len(outcomes),
        "accepted": sum(o.feasible for o in outcomes),
        "candidates": sum(o.candidates for o in outcomes),
        "ops": sum(o.ops for o in outcomes),
        **{f"merges_{name}": sum(o.merges[name] for o in outcomes)
           for name in ("run", "shared", "skipped")}}
    assert placement["accepted"] >= 10
    assert min(placement[f"merges_{name}"]
               for name in ("run", "shared", "skipped")) > 0
    for name in bodies:
        body = (tmp_path / name).read_text()
        assert "merges_" not in body and "embeds" not in body, name


def test_cli_overrides_apply(tmp_path):
    scn = tmp_path / "tiny.json"
    scn.write_text(json.dumps(tiny_scenario()))
    rc = cli.main(["run", str(scn), "--out", str(tmp_path / "out"),
                   "--seed", "9", "--interval", "0.5",
                   "--set", "demand.size_scale=5.0"])
    assert rc == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["scenario"]["seed"] == 9
    assert manifest["scenario"]["control_interval_s"] == 0.5
    assert manifest["scenario"]["demand"]["size_scale"] == 5.0


def test_missing_scenario_is_an_error(capsys):
    rc = cli.main(["run", "does-not-exist"])
    assert rc == 2
    assert "scenario error" in capsys.readouterr().err


def test_empty_sweep_is_noop(tmp_path):
    scn = tmp_path / "tiny.json"
    scn.write_text(json.dumps(tiny_scenario()))
    rc = cli.main(["sweep", str(scn), "--out", str(tmp_path / "sweep")])
    assert rc == 0
    manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    assert manifest["points"] == []


def test_sweep_grid_runs_points(tmp_path):
    scn = tmp_path / "tiny.json"
    scn.write_text(json.dumps(tiny_scenario(duration_s=0.5)))
    rc = cli.main(["sweep", str(scn), "--out", str(tmp_path / "sweep"),
                   "--grid", "seed=1,2", "--jobs", "2"])
    assert rc == 0
    body = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert len(body) == 3  # header + 2 points
    manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    assert manifest["completed"] == 2 and manifest["failure"] is None


def test_validate_verb_round_trips(tmp_path, capsys):
    scn = tmp_path / "tiny.json"
    doc = tiny_scenario()
    scn.write_text(json.dumps(doc))
    rc = cli.main(["validate", str(scn)])
    assert rc == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed == doc


def test_console_entrypoint_exists():
    proc = subprocess.run([sys.executable, "-m", "qshare.cli",
                           "list-scenarios"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "predictable" in proc.stdout
