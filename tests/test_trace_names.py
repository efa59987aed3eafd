"""The benchmark tracer still wraps the package, and traced commands still run.

`bench/child.py`'s `install` wraps gbbmlab functions and methods by name, and
`bench/spans.py`'s `drop_missing` leaves out every per-layer metric whose spans
could not be installed. Deleting or renaming a wrapped name therefore removes
declared metrics from every traced run without failing anything else. The
tracer's enter hooks read attributes of their arguments (the grid of each
`GroundState.profile` call among them), so two short commands run under it.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# install() patches module attributes, so it runs in a process of its own; the
# commands print to stdout, so the probe's JSON is its last line
PROBE = """
import json, sys
sys.path.insert(0, "bench")
import gbbmlab.cli
import child, spans
tracer = child.Tracer()
missing, _ = child.install(tracer)
required = set().union(*spans.REQUIRES.values())
out = sys.argv[1]
codes = [
    gbbmlab.cli.main(["evolve", "--p", "4.5", "--t-end", "0.5", "--out", out + "/evolve"]),
    gbbmlab.cli.main(["instability", "--a", "0.02", "--t-end", "1", "--out", out + "/instability"]),
]
profiles = [span[5] for span in tracer.spans if span[2] == "ground_state.profile"]
print(json.dumps({"missing": sorted(set(missing) & required), "codes": codes,
                  "profiles": profiles}))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    # nothing is compiled into bench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path_factory.mktemp("traced"))], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_no_metric_source_span_is_missing(probe):
    assert probe["missing"] == []


def test_traced_commands_run(probe):
    # evolve passes and this instability run is monotone-decreasing, as untraced
    assert probe["codes"] == [0, 2]
    # every traced profile call recorded its grid's key and node count
    assert probe["profiles"]
    for attrs in probe["profiles"]:
        assert attrs["points"] == attrs["key"][3]
