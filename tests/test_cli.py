import json
import subprocess
import sys

import pytest

from qshare import cli
from qshare.scenarios import ScenarioError, validate


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
])
def test_run_rejects_bad_overrides(tmp_path, capsys, scenario, item, path):
    rc = cli.main(["run", scenario, "--set", item,
                   "--out", str(tmp_path / "out")])
    assert rc != 0
    assert f"scenario error: {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
