"""The tools under tools/, run on small inputs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(path: Path, manifest: dict, summary: dict) -> Path:
    path.mkdir()
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))
    (path / "summary.json").write_text(json.dumps(summary, indent=2))
    (path / "flows.csv").write_text("fid,fct_s\n1,0.25\n")
    return path


def test_compare_names_each_differing_entry_by_its_path(tmp_path):
    """Two run directories that differ in one solver counter, one summary
    key and the wall-clock entries: `compare` reports the counter and the
    key by dotted path with both values, parent first, and nothing else."""
    tool = load_tool("compare_outputs")
    manifest = {"scenario": "tiny", "wall_time_s": 1.5,
                "phase_s": {"solve": 0.25},
                "solver": {"kernel_runs": 1385, "sweeps": 40},
                "loop": {"steps": 12}}
    summary = {"mean_fct_s": 0.125, "tenants": ["a", "b"]}
    parent = write_run(tmp_path / "parent", manifest, summary)
    changed = json.loads(json.dumps(manifest))
    changed["solver"]["kernel_runs"] = 1386
    changed["wall_time_s"], changed["phase_s"] = 2.5, {"solve": 0.5}
    change = write_run(tmp_path / "change", changed,
                       dict(summary, tenants=["a"]))
    assert tool.compare(parent, change) == [
        "manifest.json: solver.kernel_runs 1385 -> 1386",
        'summary.json: tenants ["a", "b"] -> ["a"]']
    assert tool.compare(parent, parent) == []


def test_entry_diffs_mark_entries_one_side_lacks():
    """An entry only one side has shows `(absent)` on the other, whole."""
    tool = load_tool("compare_outputs")
    assert tool.entry_diffs({"stats": {"static_solves": 3}, "x": 1},
                            {"x": 1, "new": [0]}) == [
        "new (absent) -> [0]", 'stats {"static_solves": 3} -> (absent)']
