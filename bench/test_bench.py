"""Self-tests of the benchmark harness: python3 -m pytest bench -q"""
from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import spans
from run import Launcher, import_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_self_time_subtracts_union_of_children():
    tree = [
        [1, 0, "root", 0.0, 10.0, None],
        [2, 1, "b", 1.0, 4.0, None],
        [3, 1, "c", 3.0, 6.0, None],   # overlaps b: children cover [1, 6]
        [4, 2, "d", 2.0, 3.0, None],
        [5, 1, "e", 9.0, 12.0, None],  # runs past its parent: clipped to [9, 10]
    ]
    st = spans.self_times(tree)
    assert st[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)
    assert st[5] == pytest.approx(3.0)


def test_layer_metrics_on_a_synthetic_command():
    tree = [
        [1, 0, "cli.main", 0.0, 10.0, None],
        [2, 1, "cli.cmd_evolve", 0.0, 10.0, None],
        [3, 2, "dynamics.evolve", 1.0, 9.0, None],
        [4, 3, "fft.rfft", 1.0, 2.0, {"n": 8}],
        [5, 3, "fft.irfft", 2.0, 3.0, {"n": 8}],
        [6, 3, "functionals.momentum", 3.0, 5.0, None],
        [7, 6, "fft.irfft", 3.5, 4.0, {"n": 8}],
        [8, 3, "functionals.energy", 5.0, 5.5, None],
    ]
    m = spans.layer_metrics([tree])
    assert m["dynamics.evolve_s"] == pytest.approx(8.0)
    assert m["dynamics.evolve.self_s"] == pytest.approx(8.0 - 1.0 - 1.0 - 2.0 - 0.5)
    assert m["dynamics.rhs_evals"] == 1  # the irfft under momentum is a record
    assert m["dynamics.records"] == 1
    assert m["dynamics.record_s"] == pytest.approx(2.5)
    assert m["fft.calls"] == 3
    assert m["fft.gflop_computed"] == pytest.approx(3 * 2.5 * 8 * 3 / 1e9)
    assert m["trace.span_coverage"] == pytest.approx(0.8)


def test_missing_span_drops_only_its_metrics():
    m = {"spectral.qr_s": 1.0, "spectral.dense_mb_computed": 2.0, "spectral.eigh_s": 3.0}
    assert spans.drop_missing(m, ["spectral.qr"]) == {"spectral.eigh_s": 3.0}


def test_import_times_reads_outermost_package_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy",
        "import time:        70 |        120 |     scipy.linalg",
        "import time:        10 |        430 |   gbbmlab.grid",
        "import time:         5 |        435 | gbbmlab",
    ])
    t = import_times(text)
    assert t["setup.numpy_import_s"] == pytest.approx(300e-6)
    assert t["setup.scipy_import_s"] == pytest.approx(120e-6)
    assert t["setup.gbbmlab_import_s"] == pytest.approx(15e-6)


def _table_observation(reference):
    return copy.deepcopy({"rows": reference["table"]["rows"]})


def test_checker_accepts_seed_outputs_and_rejects_a_perturbed_table_value():
    ref = checks.load_reference()
    obs = _table_observation(ref)
    assert checks.problems("table", 0, obs, ref["table"]) == []
    obs["rows"][4]["form_value"] *= 1.0 + 1e-6
    obs["rows"][4]["operator_value"] *= 1.0 + 1e-6
    found = checks.problems("table", 0, obs, ref["table"])
    assert len(found) == 1 and "1e-9 relative" in found[0]


def test_checker_rejects_a_wrong_exit_code():
    ref = checks.load_reference()
    for command in ("coercivity", "instability", "table"):
        obs = {k: v for k, v in ref[command].items() if k not in ("args", "exit_code")}
        good = checks.EXPECTED_EXIT[command]
        assert checks.problems(command, good, obs, ref[command]) == []
        assert checks.problems(command, 1 - min(good, 1), obs, ref[command])


def test_checker_rejects_a_changed_verdict():
    ref = checks.load_reference()["instability"]
    obs = {k: v for k, v in ref.items() if k not in ("args", "exit_code")}
    obs["verdict"] = "monotone-increasing"
    assert any("verdict" in p for p in checks.problems("instability", 2, obs, ref))


def test_reduced_size_smoke_run(tmp_path):
    launcher = Launcher(ROOT, tmp_path)
    args = ("evolve", "--p", "5", "--N", "1024", "--dt", "0.01", "--t-end", "0.05")
    plain = launcher.run(args)
    traced = launcher.run(args, trace=True)
    probe = launcher.run(probe=True)
    for res in (plain, traced):
        assert res["exit_code"] == 0 and res["returncode"] == 0
        assert res["gbbmlab_file"].startswith(str(ROOT / "src"))
        assert res["solve_s"] > 0 and res["setup_s"] > 0
    assert probe["setup_s"] > 0 and probe["versions"]["numpy"]
    assert traced["missing"] == []
    assert traced["imports"]["setup.numpy_import_s"] > 0
    tree = json.loads(Path(traced["spans_path"]).read_text())["spans"]
    m = spans.layer_metrics([tree])
    assert m["dynamics.rhs_evals"] == 4 * 5
    assert m["dynamics.records"] == 2
    assert m["ground_state.profile.calls"] == 1
    assert 0.0 < m["trace.span_coverage"] <= 1.0
    ref = launcher.speed("weinstein_spectral")
    assert ref["import_s"] > 0 and ref["kernel_s"] > 0


def test_install_survives_a_removed_function():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import gbbmlab.cli, gbbmlab.spectral, child\n"
        "del gbbmlab.spectral.qr\n"
        "missing, notes = child.install(child.Tracer())\n"
        "print(missing)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(BENCH)],
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "['spectral.qr']"


def test_run_refuses_a_directory_without_sources(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "soliton_evolve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and out.stdout == ""
