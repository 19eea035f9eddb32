"""Every boundary the benchmark's traced run wraps must exist at the name it
is looked up by; a missing one makes `perfbench/run.py --trace 1` die with a
KeyError when it installs its wrappers."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from oracles import WfqOracle  # noqa: E402


def test_traced_names_exist_at_their_lookup_names():
    targets = layers.targets(WfqOracle)
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if attr not in vars(owner)]
    assert missing == []
