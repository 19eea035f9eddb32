"""Compare the outputs of two checkouts of this repository.

    python tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT [--work DIR]

Runs the byte-identity scenario set (RUNS) with each checkout's own
`src/` on the path, each run into its own directory under DIR, then:

- `cmp`s every artifact of each run between the two sides;
- compares each run's `manifest.json` with the wall-clock entries
  (`wall_time_s`, `phase_s`) dropped, so the solver, loop and placement
  counters must be equal too;
- names every differing entry of `manifest.json` and `summary.json` by its
  dotted path with both values, parent first
  (`manifest.json: solver.kernel_runs 1385 -> 1386`);
- prints each side's `src/qshare` code lines: lines holding a token other
  than a comment, with blank lines and docstrings left out (tokenize plus
  ast).

Exits 0 when every artifact and every manifest is identical, else 1. A
difference made on purpose (say a new summary key) shows up as a listed
difference; the caller decides whether it is the expected one.
"""

from __future__ import annotations

import argparse
import ast
import filecmp
import io
import json
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

# (run name, `qshare run` arguments)
RUNS = [
    *((f"unpredictable-s{s}",
       ["unpredictable", "--seed", str(s), "--set", "duration_s=2.0"])
      for s in range(1, 7)),
    ("unpredictable-es_conservative",
     ["unpredictable", "--seed", "3", "--set", "duration_s=2.0",
      "--policy", "es_conservative"]),
    ("unpredictable-es_aggressive",
     ["unpredictable", "--seed", "4", "--set", "duration_s=2.0",
      "--policy", "es_aggressive"]),
    ("unpredictable-static",
     ["unpredictable", "--seed", "5", "--set", "duration_s=2.0",
      "--policy", "static"]),
    ("predictable", ["predictable"]),
    ("shuffle-fct-s1", ["shuffle-fct", "--seed", "1"]),
    ("shuffle-fct-s5", ["shuffle-fct", "--seed", "5"]),
    ("tradeoff", ["tradeoff", "--set", "duration_s=8"]),
    # the sweep kind reads the monitored series (mean_core_utilization)
    ("interval-sweep", ["interval-sweep", "--set", "duration_s=4",
                        "--set", "intervals=[1.0,4.0]"]),
    ("queue-scarcity-16to1", ["queue-scarcity", "--oversub", "16:1"]),
    ("throughput-gain", ["throughput-gain"]),
]

WALL_CLOCK = ("wall_time_s", "phase_s")


def code_lines(path: Path) -> int:
    """Lines of `path` that hold a token other than a comment, blank lines
    and docstrings left out."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docstrings.update(range(body[0].lineno,
                                        body[0].end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode()).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def package_lines(root: Path) -> dict:
    """File name -> code lines of every module of `root`/src/qshare."""
    return {p.name: code_lines(p)
            for p in sorted((root / "src" / "qshare").glob("*.py"))}


def run_one(root: Path, out: Path, args: list) -> str:
    """Run `qshare run` from `root`'s sources into `out`; '' or the error."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qshare.cli", "run", *args, "--out", str(out)],
        env=env, cwd=root, capture_output=True, text=True)
    return "" if proc.returncode == 0 else proc.stderr.strip()[-400:]


def manifest(path: Path) -> dict:
    doc = json.loads(path.read_text())
    for key in WALL_CLOCK:
        doc.pop(key, None)
    return doc


ABSENT = object()


def entry_diffs(a, b, path: str = "") -> list:
    """'dotted.path parent -> change' for every entry in which two JSON
    documents differ, objects compared key by key (an entry only one side
    has shows `(absent)` on the other), anything else as a whole."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [line for key in sorted(set(a) | set(b))
                for line in entry_diffs(a.get(key, ABSENT), b.get(key, ABSENT),
                                        f"{path}.{key}" if path else key)]
    if a == b:
        return []
    shown = ["(absent)" if v is ABSENT else json.dumps(v) for v in (a, b)]
    return [f"{path or '(document)'} {shown[0]} -> {shown[1]}"]


def compare(parent: Path, change: Path) -> list:
    """The differences between two run directories, one line each."""
    out = []
    names = sorted({p.name for p in parent.iterdir()}
                   | {p.name for p in change.iterdir()})
    for name in names:
        a, b = parent / name, change / name
        if not a.exists() or not b.exists():
            side = "change" if b.exists() else "parent"
            out.append(f"{name}: only on the {side} side")
        elif name == "manifest.json":
            out += [f"{name}: {line}"
                    for line in entry_diffs(manifest(a), manifest(b))]
        elif not filecmp.cmp(a, b, shallow=False):
            lines = []
            if name == "summary.json":
                lines = entry_diffs(json.loads(a.read_text()),
                                    json.loads(b.read_text()))
            out += [f"{name}: {line}" for line in lines] or [f"{name} differs"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent checkout root")
    parser.add_argument("change", type=Path, help="changed checkout root")
    parser.add_argument("--work", type=Path,
                        help="directory for the runs (default: a new "
                             "temporary directory)")
    args = parser.parse_args(argv)
    work = args.work or Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    failed = False
    for name, cmd in RUNS:
        for side, root in sides.items():
            error = run_one(root, work / side / name, cmd)
            if error:
                print(f"{name} ({side}) failed: {error}")
                failed = True
    for name, _ in RUNS:
        dirs = [work / side / name for side in sides]
        if not all(d.is_dir() for d in dirs):
            continue
        diffs = compare(*dirs)
        failed |= bool(diffs)
        count = len(list(dirs[0].iterdir()))
        print(f"{name}: {'identical' if not diffs else '; '.join(diffs)}"
              f" ({count} files)")
    for side, root in sides.items():
        lines = package_lines(root)
        print(f"{side} src/qshare code lines: {sum(lines.values())} "
              f"({', '.join(f'{k} {v}' for k, v in lines.items())})")
    print(f"runs kept in {work}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
