"""The names the benchmark tracer wraps still exist in the package.

`bench/child.py`'s `install` wraps gbbmlab functions and methods by name, and
`bench/spans.py`'s `drop_missing` leaves out every per-layer metric whose spans
could not be installed. Deleting or renaming a wrapped name therefore removes
declared metrics from every traced run without failing anything else.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# install() patches module attributes, so it runs in a process of its own
PROBE = """
import json, sys
sys.path.insert(0, "bench")
import gbbmlab.cli
import child, spans
missing, _ = child.install(child.Tracer())
required = set().union(*spans.REQUIRES.values())
print(json.dumps(sorted(set(missing) & required)))
"""


def test_no_metric_source_span_is_missing():
    # nothing is compiled into bench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert json.loads(out.stdout) == []
