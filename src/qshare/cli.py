"""Scenario-driven experiment runner.

Verbs:
  run             execute one scenario (bundled name or JSON path)
  sweep           run a scenario over a parameter grid, in parallel
  validate        check a scenario file and echo the parsed document
  list-scenarios  show the bundled scenarios

Every run writes a manifest.json (config echo, seed, version, wall time and,
for runs that simulate flows, the rate solvers' and event loops' counters;
for fills, the placement counters)
plus CSV/JSON artifacts into the output directory; CSV bodies are
byte-stable for a given seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from importlib import metadata, resources
from pathlib import Path

from . import scenarios
from .scenarios import ScenarioError


def _version() -> str:
    try:
        return metadata.version("qshare")
    except metadata.PackageNotFoundError:
        return "0.0.0+local"


def list_bundled() -> list:
    files = resources.files("qshare.scenario_data")
    return sorted(p.name.removesuffix(".json") for p in files.iterdir()
                  if p.name.endswith(".json"))


def load_scenario(ref: str) -> dict:
    path = Path(ref)
    if path.exists():
        text = path.read_text()
    else:
        try:
            text = resources.files("qshare.scenario_data").joinpath(
                f"{ref}.json").read_text()
        except FileNotFoundError:
            raise ScenarioError(
                f"no scenario file {ref!r} and no bundled scenario of that name")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{ref}: line {exc.lineno} column {exc.colno}: "
                            f"{exc.msg}")
    return scenarios.validate(doc)


def _apply_overrides(doc: dict, args, point: dict | None = None) -> dict:
    """A checked copy of `doc` with the command line's overrides set, then
    a sweep grid `point`'s (dotted path -> value)."""
    values = [] if args.seed is None else [("seed", args.seed)]
    for key, flag in (("oversub", "oversub"), ("policy", "policy"),
                      ("control_interval_s", "interval")):
        if getattr(args, flag, None):
            values.append((key, getattr(args, flag)))
    for item in getattr(args, "set", None) or []:
        key, _, value = item.partition("=")
        values.append((key, _value(value)))
    doc = json.loads(json.dumps(doc))
    for key, value in [*values, *(point or {}).items()]:
        _set_path(doc, key, value)
    return scenarios.validate(doc)


def _value(text: str):
    """A --set or --grid value: its JSON reading, or the bare string."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _set_path(doc: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = doc
    for i, p in enumerate(parts[:-1]):
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ScenarioError(
                f"{dotted}: {'.'.join(parts[:i + 1])} is not an object")
    node[parts[-1]] = value


def write_artifacts(outdir: Path, doc: dict, summary: dict, artifacts: dict,
                    wall: float, counters: dict | None = None) -> None:
    """Artifacts whose name carries a .jsonl suffix are written as JSON lines;
    everything else as CSV. Wall time, version and the `counters` (the
    `solver` and `loop` groups summed over the run's simulations, when
    given; see fluid.FluidSimulation) live in the manifest only, so
    CSV/JSONL bodies are byte-stable per seed. A fill's `placement` group
    comes the same way (see largescale.FillResult)."""
    outdir.mkdir(parents=True, exist_ok=True)
    names = []
    for name, (fields, rows) in artifacts.items():
        if name.endswith(".jsonl"):
            names.append(name)
            with open(outdir / name, "w") as fh:
                for row in rows:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
        else:
            names.append(f"{name}.csv")
            with open(outdir / f"{name}.csv", "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=fields)
                writer.writeheader()
                writer.writerows(rows)
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, default=str, sort_keys=True)
        fh.write("\n")
    manifest = {
        "scenario": doc,
        "seed": doc.get("seed", 0),
        "version": _version(),
        "wall_time_s": wall,
        "artifacts": sorted(names) + ["summary.json"],
    }
    manifest.update(counters or {})
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_run(args) -> int:
    doc = _apply_overrides(load_scenario(args.scenario), args)
    counters: dict = {}
    t0 = time.monotonic()
    summary, artifacts = scenarios.run_scenario(doc, counters)
    wall = time.monotonic() - t0
    outdir = Path(args.out) if args.out else Path("runs") / doc["name"]
    write_artifacts(outdir, doc, summary, artifacts, wall, counters or None)
    print(f"{doc['name']}: done in {wall:.1f}s -> {outdir}")
    for key, val in summary.items():
        print(f"  {key}: {val}")
    return 0


def _grid_points(grid_args: list) -> list:
    points = [{}]
    for item in grid_args:
        key, _, values = item.partition("=")
        points = [dict(p, **{key: _value(v)}) for p in points
                  for v in values.split(",")]
    return points if grid_args else []


def _summary(doc: dict) -> dict:
    return scenarios.run_scenario(doc)[0]


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    doc = _apply_overrides(scenario, args)
    points = _grid_points(args.grid or [])
    # every point is checked before any runs or the output directory exists
    docs = [_apply_overrides(scenario, args, point) for point in points]
    outdir = Path(args.out) if args.out else Path("runs") / f"{doc['name']}-sweep"
    outdir.mkdir(parents=True, exist_ok=True)
    if not points:
        with open(outdir / "manifest.json", "w") as fh:
            json.dump({"scenario": doc, "points": [], "status": "empty grid"},
                      fh, indent=2, sort_keys=True)
        print("empty grid: nothing to run")
        return 0
    t0 = time.monotonic()
    summaries = []
    failure = None
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        try:
            for summary in pool.map(_summary, docs):
                summaries.append(summary)
        except Exception as exc:  # partial-results manifest, nonzero exit
            failure = repr(exc)
    keys = sorted({k for p in points[:len(summaries)] for k in p})
    metric_keys = sorted({k for s in summaries for k in s
                          if isinstance(s[k], (int, float))})
    rows = [{"point": i, **{k: points[i].get(k) for k in keys},
             **{k: s.get(k) for k in metric_keys}}
            for i, s in enumerate(summaries)]
    with open(outdir / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["point"] + keys + metric_keys)
        writer.writeheader()
        writer.writerows(rows)
    with open(outdir / "manifest.json", "w") as fh:
        json.dump({
            "scenario": doc,
            "points": points,
            "completed": len(summaries),
            "failure": failure,
            "version": _version(),
            "wall_time_s": time.monotonic() - t0,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if failure:
        print(f"sweep aborted after {len(summaries)}/{len(points)} points: "
              f"{failure}", file=sys.stderr)
        return 1
    print(f"swept {len(points)} points -> {outdir}")
    return 0


def cmd_validate(args) -> int:
    doc = load_scenario(args.scenario)
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_list(_args) -> int:
    for name in list_bundled():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshare",
        description="Bandwidth-guarantee placement/binding simulator")
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("scenario", help="bundled scenario name or JSON path")
    run.add_argument("--seed", type=int)
    run.add_argument("--out", help="output directory")
    run.add_argument("--oversub", choices=scenarios.OVERSUBS)
    run.add_argument("--policy", choices=list(scenarios.POLICIES))
    run.add_argument("--interval", type=float,
                     help="control interval override, seconds")
    run.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="dotted-path scenario override (repeatable)")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run a scenario over a grid")
    sweep.add_argument("scenario")
    sweep.add_argument("--grid", action="append", metavar="KEY=V1,V2,...",
                       help="grid axis over a dotted scenario path")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--out")
    sweep.add_argument("--jobs", type=int, default=None)
    sweep.add_argument("--set", action="append", metavar="KEY=VALUE")
    sweep.set_defaults(func=cmd_sweep)

    val = sub.add_parser("validate", help="validate a scenario file")
    val.add_argument("scenario")
    val.set_defaults(func=cmd_validate)

    lst = sub.add_parser("list-scenarios", help="list bundled scenarios")
    lst.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
