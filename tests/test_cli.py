import argparse
import gc
import json
import math
import weakref

import numpy as np
import pytest

from scipy.linalg import eigh_tridiagonal

from gbbmlab import (
    BlowupError,
    ExperimentReport,
    Field,
    GroundState,
    UnresolvedError,
    cli,
    critical_speed,
    evolve,
    kappa_closed_form,
    make_grid,
    modulation,
    spectral,
    structure,
)
from gbbmlab.cli import main


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


class TestTable:
    def test_default_p_list_is_the_full_table(self, tmp_path):
        assert run(tmp_path, "table") == 0
        doc = json.loads((tmp_path / "table.json").read_text())
        assert [r["p"] for r in doc["result"]] == [
            4.1, 4.5, 5.0, 6.0, 6.5, 10.0, 30.0, 50.0, 70.0, 100.0
        ]
        assert all(r["negative"] for r in doc["result"])

    def test_small_table(self, tmp_path):
        assert run(tmp_path, "table", "--p-list", "4.5,5") == 0
        csv = (tmp_path / "table.csv").read_text()
        assert csv.startswith("# schema=gbbmlab/1 command=table")
        assert "p,c0,form_value,negative" in csv
        doc = json.loads((tmp_path / "table.json").read_text())
        assert doc["schema"] == "gbbmlab/1"
        assert len(doc["result"]) == 2
        assert all(r["negative"] for r in doc["result"])

    def test_deterministic_output(self, tmp_path):
        run(tmp_path / "a", "table", "--p-list", "5,6")
        run(tmp_path / "b", "table", "--p-list", "5,6")
        assert (tmp_path / "a" / "table.csv").read_bytes() == (
            tmp_path / "b" / "table.csv"
        ).read_bytes()

    def test_workers_flag_usage_error(self, tmp_path):
        # rows are computed in this process; there is no worker pool to size
        assert run(tmp_path, "table", "--p-list", "5,6", "--workers", "2") == 64

    def test_empty_p_list_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "table", "--p-list", "") == 64
        assert capsys.readouterr().err == "usage error: p_list must not be empty\n"

    def test_subcritical_p_usage_error(self, tmp_path):
        assert run(tmp_path, "table", "--p-list", "3.5") == 64

    def test_nan_p_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "table", "--p-list", "nan") == 64
        assert "p > 4, got nan" in capsys.readouterr().err

    def test_slow_decay_row_on_a_wide_box_resolves(self, tmp_path):
        # p = 4.1 on L = 100 pi: a uniform grid of 16384 intervals with the
        # 4th-order operator path missed the dual-path tolerance here (scalar
        # 1.2e-6, exit 3). -1024.827450015874 is the row's value in closed
        # form, from sech^a moments
        assert run(tmp_path, "table", "--p-list", "4.1", "--L", "314.1592653589793") == 0
        (row,) = json.loads((tmp_path / "table.json").read_text())["result"]
        assert row["form_value"] == pytest.approx(-1024.827450015874, rel=1e-11)

    def test_n_caps_a_row(self, tmp_path):
        # N was a floor: at 2^22 intervals the uniform p = 4.1 row's finite
        # differences lost to rounding (sup 8.6e-6, exit 3). As a cap above
        # the row's own size it changes nothing
        assert run(tmp_path / "big", "table", "--p-list", "4.1", "--N", "4194304") == 0
        assert run(tmp_path / "default", "table", "--p-list", "4.1") == 0
        big, default = (json.loads((tmp_path / d / "table.json").read_text())["result"]
                        for d in ("big", "default"))
        assert big == default and default[0]["points"] < 8192
        # below it, the row takes N intervals
        assert run(tmp_path / "capped", "table", "--p-list", "4.1", "--N", "512") == 0
        (row,) = json.loads((tmp_path / "capped" / "table.json").read_text())["result"]
        assert row["points"] == 512

    def test_large_p_rows(self, tmp_path):
        # a uniform grid at k h <= 0.1 needed 2^21 and 2^24 intervals here
        assert run(tmp_path, "table", "--p-list", "1000,10000") == 0
        rows = json.loads((tmp_path / "table.json").read_text())["result"]
        for row in rows:
            assert row["negative"] and row["points"] <= 8192
            assert row["dual_sup_error"] <= 1e-8
            scalar = abs(row["operator_value"] - row["form_value"]) / abs(row["form_value"])
            assert scalar <= 1e-8

    def test_dual_path_failure_is_a_consistency_failure(self, tmp_path, capsys, monkeypatch):
        original = structure._kappa

        def skewed(prof):
            return original(prof) * (1.0 + 2e-6)

        monkeypatch.setattr(structure, "_kappa", skewed)
        assert run(tmp_path, "table", "--p-list", "5") == 3
        assert "consistency failure: dual-path" in capsys.readouterr().err
        assert not (tmp_path / "table.csv").exists()
        assert not (tmp_path / "table.json").exists()


class TestOtherCommands:
    def test_identities(self, tmp_path):
        assert run(tmp_path, "identities", "--p", "5") == 0
        doc = json.loads((tmp_path / "identities.json").read_text())
        assert all(r["rel_error"] < 1e-8 for r in doc["result"])

    def test_identities_claim_failure_names_the_worst_identity(self, tmp_path, capsys):
        # N = 512 leaves dc_momentum, the worst identity, at 1.44e-6
        assert run(tmp_path, "identities", "--N", "512") == 2
        assert capsys.readouterr().err == (
            "claim failure: identity dc_momentum has rel_error 1.437e-06 "
            "(must be below 1e-08)\n")
        doc = json.loads((tmp_path / "identities.json").read_text())
        assert max(doc["result"], key=lambda r: r["rel_error"])["name"] == "dc_momentum"

    def test_spectrum(self, tmp_path):
        assert run(tmp_path, "spectrum", "--p", "5", "--N", "2048") == 0
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert doc["result"]["negative_count"] == 1

    def test_spectrum_unresolved_grid_is_a_consistency_failure(self, tmp_path, capsys):
        # at N = 64 the kernel candidate is a continuum eigenvalue near the edge
        assert run(tmp_path, "spectrum", "--p", "5", "--N", "64") == 3
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert doc["result"]["kernel_overlap"] < 0.99
        assert "kernel_overlap" in capsys.readouterr().err

    def test_spectrum_barely_unresolved_grid_is_a_consistency_failure(self, tmp_path, capsys):
        # at N = 512 the overlap is 0.9988 and the kernel eigenvalue about 100x
        # its N = 4096 value: close to the translation mode, still not resolved
        assert run(tmp_path, "spectrum", "--p", "5", "--N", "512") == 3
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert 0.99 < doc["result"]["kernel_overlap"] < 0.999
        assert "kernel_overlap" in capsys.readouterr().err

    def test_spectrum_makes_one_eigensolve_per_half_and_one_solve(self, tmp_path, monkeypatch):
        # the m lowest eigenvalues alternate between the halves, so no Sturm
        # count checks their merge; inverse iteration from phi_c', the
        # closed-form kernel eigenfunction, takes one solve at N = 4096
        selects, solves = [], []
        eigensolve, solve = spectral.eigh_tridiagonal, spectral._shifted_solve

        def eigensolving(*args, **kwargs):
            selects.append(kwargs["select"])
            return eigensolve(*args, **kwargs)

        def solving(diag, off, shift, rhs):
            solves.append(shift)
            return solve(diag, off, shift, rhs)

        monkeypatch.setattr(spectral, "eigh_tridiagonal", eigensolving)
        monkeypatch.setattr(spectral, "_shifted_solve", solving)
        assert run(tmp_path, "spectrum") == 0
        assert selects == ["i", "i"]
        assert len(solves) == 1

    def test_spectrum_even_kernel_candidate_is_a_consistency_failure(self, tmp_path, capsys):
        # at p = 30 on N = 4096 the eigenvalue nearest zero is an even box
        # mode, orthogonal to the odd phi_c'
        assert run(tmp_path, "spectrum", "--p", "30") == 3
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert (doc["result"]["N"], doc["result"]["kernel_overlap"]) == (4096, 0.0)
        assert "kernel_overlap 0.000000" in capsys.readouterr().err

    def test_coercivity_reports_claim_failure(self, tmp_path):
        # the command reports the literal positivity claim, which the package
        # refutes (the minimum on {phi', kappa} is negative): exit 2, and the
        # report is still written
        assert run(tmp_path, "coercivity", "--p", "5", "--N", "1024") == 2
        doc = json.loads((tmp_path / "coercivity.json").read_text())
        assert doc["result"]["constrained_min"] < 0.0
        # the resolution sequence does not depend on --N; N = 1024 is in it
        seq = doc["result"]["resolution"]
        assert [r["N"] for r in seq] == [1024, 2048, 4096, 8192, 16384]
        assert seq[0]["constrained_min"] == doc["result"]["constrained_min"]
        mins = [r["constrained_min"] for r in seq]
        assert all(a < b < 0.0 for a, b in zip(mins, mins[1:]))

    def test_coercivity_unresolved_grid_is_a_consistency_failure(self, tmp_path, capsys):
        # N = 16 gives a positive minimum that the resolution sequence refutes
        assert run(tmp_path, "coercivity", "--p", "5", "--N", "16") == 3
        doc = json.loads((tmp_path / "coercivity.json").read_text())
        claim = doc["result"]["constrained_min"]
        finest = doc["result"]["resolution"][-1]["constrained_min"]
        assert claim > 0.0 > finest
        err = capsys.readouterr().err
        assert f"{claim:.6f} at N=16" in err and f"{finest:.6f} at N=16384" in err
        assert "k h" not in err

    @pytest.mark.parametrize("p, code", [("30", 3), ("5", 2)])
    def test_coercivity_claim_grid_must_resolve_the_profile(self, tmp_path, capsys, p, code):
        # at p = 30 the claim grid N = 2048 has k h = 1.76, and its raw_min of
        # -217.5 is far from the exact -148.8: no verdict is drawn from it.
        # At p = 5 it has k h = 0.12 and the claim failure stands
        assert run(tmp_path, "coercivity", "--p", p) == code
        note = "consistency failure: the claim grid N=2048 has k h = 1.76 > 1"
        assert (note in capsys.readouterr().err) == (code == 3)

    @pytest.mark.parametrize("argv, grids", [
        ([], (1024, 2048, 4096, 8192, 16384)),
        (["--N", "1500"], (1024, 1500, 2048, 4096, 8192, 16384)),
    ], ids=["default", "N1500"])
    def test_coercivity_makes_no_index_range_eigensolve(self, tmp_path, monkeypatch, argv, grids):
        # each grid's two lowest eigenvalues come from the closed-form bound
        # states, certified by one value-range Sturm count: a certificate that
        # always failed would make index-range calls on every grid, and the
        # outputs would still agree
        selects = []

        def counting(*args, **kwargs):
            selects.append(kwargs["select"])
            return eigh_tridiagonal(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigh_tridiagonal", counting)
        assert run(tmp_path, "coercivity", *argv) == 2
        assert selects == ["v"] * len(grids)
        doc = json.loads((tmp_path / "coercivity.json").read_text())["result"]
        # reference: the bracket from the index-range eigensolves on every grid
        monkeypatch.setattr(spectral, "_certified_bound_states", lambda *args: None)
        gs = GroundState(5.0, critical_speed(5.0))
        reference = {}
        for n in grids:
            grid = make_grid(50.0 * math.pi, n)
            prof = gs.sample(grid)
            constraints = {"translation_mode": Field(grid, prof.phi_x),
                           "kappa": kappa_closed_form(prof)}
            tol = spectral._resolution(spectral.discretize_weinstein(gs.sample(grid))[0])
            reference[n] = spectral.constrained_form_minimum(prof, constraints), tol
        ref, tol = reference[doc["N"]]
        assert abs(doc["constrained_min"] - ref.constrained_min) <= 2.0 * tol
        assert abs(doc["raw_min"] - ref.raw_min) <= 2.0 * tol
        for entry in doc["resolution"]:
            ref, tol = reference[entry["N"]]
            assert abs(entry["constrained_min"] - ref.constrained_min) <= 2.0 * tol

    def test_coercivity_banded_solve_count(self, tmp_path, monkeypatch):
        # each grid after the first starts its secular search at the O(h^2)
        # prediction from the coarser grids (from the bracket midpoint every
        # grid takes 7-8 probes), and its two bound states take 2-3
        # inverse-iteration solves each: 23 probes and 21 solves in all
        probes, solves = {}, []
        solve = spectral._shifted_solve

        def counting(diag, off, shift, rhs):
            solves.append(shift)
            if np.ndim(rhs) == 2:  # a secular probe; inverse iteration solves one vector
                probes[diag.size + 1] = probes.get(diag.size + 1, 0) + 1
            return solve(diag, off, shift, rhs)

        monkeypatch.setattr(spectral, "_shifted_solve", counting)
        assert run(tmp_path, "coercivity") == 2
        assert sorted(probes) == [1024, 2048, 4096, 8192, 16384]
        assert all(probes[n] <= 5 for n in (2048, 4096, 8192, 16384))
        assert len(solves) <= 44

    @pytest.mark.parametrize("argv, code", [([], 2), (["--N", "16"], 3)], ids=["default", "N16"])
    def test_coercivity_probes_per_grid(self, tmp_path, monkeypatch, argv, code):
        # N = 16 has k h = 16 and passes its minimum on to no grid, so N = 1024
        # starts at its bracket midpoint as in a default run; started at the
        # N = 16 minimum, it took 11 probes
        probes = {}
        solve = spectral._shifted_solve

        def counting(diag, off, shift, rhs):
            if np.ndim(rhs) == 2:
                probes[diag.size + 1] = probes.get(diag.size + 1, 0) + 1
            return solve(diag, off, shift, rhs)

        monkeypatch.setattr(spectral, "_shifted_solve", counting)
        assert run(tmp_path, "coercivity", *argv) == code
        probes.pop(16, None)
        assert probes == {1024: 8, 2048: 5, 4096: 4, 8192: 3, 16384: 3}

    def test_eigensolves_run_on_the_halves(self, tmp_path, monkeypatch):
        # on a grid with the n = N - 1 nodes of T, every index-range eigensolve
        # and inverse-iteration solve runs on an even or odd half of T (N/2 or
        # N/2 - 1 unknowns), and every Sturm count and secular probe on T
        grids, calls = [], []
        discretize, eigensolve = spectral.discretize_weinstein, spectral.eigh_tridiagonal
        solve = spectral._shifted_solve

        def discretizing(prof):
            diag, off = discretize(prof)
            grids.append(diag.size)
            return diag, off

        def eigensolving(*args, **kwargs):
            calls.append((kwargs["select"], grids[-1], args[0].size))
            return eigensolve(*args, **kwargs)

        def solving(diag, off, shift, rhs):
            calls.append(("probe" if np.ndim(rhs) == 2 else "inverse", grids[-1], diag.size))
            return solve(diag, off, shift, rhs)

        monkeypatch.setattr(spectral, "discretize_weinstein", discretizing)
        monkeypatch.setattr(spectral, "eigh_tridiagonal", eigensolving)
        monkeypatch.setattr(spectral, "_shifted_solve", solving)
        assert run(tmp_path / "spectrum", "spectrum") == 0
        assert run(tmp_path / "coercivity", "coercivity") == 2
        assert grids == [4095, 1023, 2047, 4095, 8191, 16383]
        assert {kind for kind, *_ in calls} == {"i", "v", "inverse", "probe"}
        for kind, n, size in calls:
            assert size in ({n} if kind in ("v", "probe") else {(n + 1) // 2, (n - 1) // 2})

    @pytest.mark.parametrize("failure", ["singular banded solve", "non-finite secular matrix"])
    def test_coercivity_eigensolve_failure_is_a_consistency_failure(
            self, tmp_path, capsys, monkeypatch, failure):
        # a failed eigensolve exits 3, not with a traceback or as a usage error
        def failing_solve(diag, off, shift, rhs):
            if failure == "singular banded solve":
                raise spectral.EigenSolveError(f"singular banded solve at shift {shift!r}")
            return np.full(np.shape(rhs), np.nan)

        monkeypatch.setattr(spectral, "_shifted_solve", failing_solve)
        assert run(tmp_path, "coercivity", "--N", "1024") == 3
        assert f"consistency failure: {failure} at shift" in capsys.readouterr().err

    def test_evolve(self, tmp_path):
        assert run(tmp_path, "evolve", "--p", "5", "--N", "2048",
                   "--dt", "0.002", "--t-end", "1") == 0
        doc = json.loads((tmp_path / "evolve.json").read_text())
        assert doc["result"]["energy_drift"] < 1e-8
        # the series CSV holds every digit of the E values the drift came from
        lines = (tmp_path / "evolve_series.csv").read_text().splitlines()[2:]
        E = [float(line.split(",")[1]) for line in lines]
        assert len(E) == 3  # t = 0, 0.5, 1
        assert max(abs(e - E[0]) for e in E) / abs(E[0]) == doc["result"]["energy_drift"]

    def test_evolve_shorter_than_dt_ends_at_t_end(self, tmp_path):
        assert run(tmp_path, "evolve", "--p", "4.5", "--dt", "0.3", "--t-end", "0.1") == 0
        last = (tmp_path / "evolve_series.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == 0.1
        doc = json.loads((tmp_path / "evolve.json").read_text())
        assert doc["result"]["soliton_sup_error"] <= 1e-6

    def test_instability_reports_sign_flip(self, tmp_path):
        # the command reports the literal positivity claim; the increments
        # are definite-signed negative, which the exit-code contract maps to 2
        assert run(tmp_path, "instability", "--p", "5", "--a", "0.01",
                   "--N", "2048", "--dt", "0.002", "--t-end", "3") == 2
        doc = json.loads((tmp_path / "instability.json").read_text())
        assert doc["result"]["verdict"] == "monotone-decreasing"
        assert doc["result"]["mode"] == "fit"

    def test_instability_of_the_soliton_uses_the_fit_pair(self, tmp_path):
        # at a = 0 the kappa pair has a root too; the frames still use the fit pair
        run(tmp_path, "instability", "--p", "5", "--a", "0",
            "--N", "2048", "--dt", "0.002", "--t-end", "3")
        doc = json.loads((tmp_path / "instability.json").read_text())
        assert doc["result"]["mode"] == "fit"

    def test_instability_of_the_soliton_is_below_the_noise_floor(self, tmp_path, capsys):
        # at a = 0 every |dI| is at most 1.9e-10, under the floor RTOL (3R/2) E(u0)
        # = 7.8e-9: no sign is resolved, so there is no verdict on one
        assert run(tmp_path, "instability", "--a", "0", "--t-end", "20") == 3
        doc = json.loads((tmp_path / "instability.json").read_text())
        assert doc["result"]["verdict"] == "below-noise-floor"
        assert "noise floor 7.82e-09" in capsys.readouterr().err

    def test_instability_above_the_noise_floor_keeps_its_sign(self, tmp_path):
        # at a = 0.005 the smallest |dI| is 5.5e-3 to t = 5
        assert run(tmp_path, "instability", "--a", "0.005", "--t-end", "5") == 2
        doc = json.loads((tmp_path / "instability.json").read_text())
        assert doc["result"]["verdict"] == "monotone-decreasing"

    @pytest.mark.parametrize("verdict, code", [
        ("monotone-increasing", 0), ("monotone-decreasing", 2), ("inconclusive", 2),
        ("modulation-failed", 3), ("below-noise-floor", 3),
    ])
    def test_instability_exit_code_is_the_verdicts(self, tmp_path, monkeypatch, verdict, code):
        def reporting(p, a, grid, **kwargs):
            return ExperimentReport(p, a, 1.0, (), None, verdict, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0)

        monkeypatch.setattr(cli, "instability_experiment", reporting)
        assert run(tmp_path, "instability", "--N", "1024") == code

    def test_instability_wide_cutoff_usage_error(self, tmp_path, capsys):
        # at p = 4.1 the cutoff R = 10 / tail rate = 90.41, and 2R exceeds the
        # half-width 50 pi: the cutoff would jump at the wrap. The refusal names
        # the half-width the run needs, and a box above it runs
        out = tmp_path / "out"
        assert main(["instability", "--p", "4.1", "--out", str(out)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage error: cutoff needs 2R < L and R > 0, got R=90.41")
        assert err.endswith("; the run needs a half-width L > 2R = 180.83\n")
        assert not out.exists()
        assert main(["instability", "--p", "4.1", "--L", "200", "--t-end", "2",
                     "--out", str(out)]) == 2
        doc = json.loads((out / "instability.json").read_text())
        assert doc["result"]["verdict"] == "monotone-decreasing"

    def test_instability_negative_cutoff_usage_error(self, tmp_path, capsys):
        # the cutoff is always 10 / tail rate: neither a flag nor a config
        # line sets R, not even to a radius the box would take, and naming it
        # is a usage error before anything is written
        cfg = tmp_path / "run.cfg"
        cfg.write_text("R = 5\n")
        out = tmp_path / "out"
        assert main(["instability", "--R", "5", "--t-end", "1", "--out", str(out)]) == 64
        assert "unrecognized arguments: --R 5" in capsys.readouterr().err
        assert main(["--config", str(cfg), "instability", "--t-end", "1",
                     "--out", str(out)]) == 64
        assert capsys.readouterr().err == "usage error: unknown config key 'R'\n"
        assert not out.exists()


# per command: extra flags, the keys of its JSON result (of each row when the
# result is a list), and its CSV file and header (None when it writes no CSV)
OUTPUTS = [
    pytest.param(
        "table", ["--p-list", "4.5,5"],
        ["p", "c0", "form_value", "operator_value", "dual_sup_error", "points", "negative"],
        "table.csv", "p,c0,form_value,negative", id="table",
    ),
    pytest.param(
        "identities", [], ["name", "closed_form", "quadrature", "rel_error"],
        "identities.csv", "name,closed_form,quadrature,rel_error", id="identities",
    ),
    pytest.param(
        "spectrum", ["--N", "1024"],
        ["N", "eigenvalues", "negative_count", "kernel_eigenvalue", "kernel_overlap"],
        None, None, id="spectrum",
    ),
    pytest.param(
        "coercivity", ["--N", "1024"],
        ["N", "constrained_min", "constraints_used", "raw_min", "resolution"],
        None, None, id="coercivity",
    ),
    pytest.param(
        "evolve", ["--N", "1024", "--dt", "0.01", "--t-end", "1"],
        ["energy_drift", "momentum_drift", "soliton_sup_error"],
        "evolve_series.csv", "t,E,Q", id="evolve",
    ),
    pytest.param(
        "instability", ["--N", "1024", "--dt", "0.025", "--t-end", "2"],
        ["p", "a", "c0", "tube_exit_time", "verdict", "mode", "positive_fraction",
         "negative_fraction", "lambda_shift_at_end", "beta_initial",
         "beta_linear_prediction", "frames"],
        "instability_frames.csv", "t,lambda,y,xi_h1,I,I1,I2", id="instability",
    ),
]
FRAME_KEYS = ["t", "I1", "I2", "I", "beta", "gamma", "lambda", "tube_distance",
              "kappa_residual"]


class TestSchema:
    @pytest.mark.parametrize("command, argv, keys, csv_name, header", OUTPUTS)
    def test_result_keys_and_csv_header(self, tmp_path, command, argv, keys, csv_name,
                                        header):
        assert run(tmp_path, command, *argv) in (0, 2)
        doc = json.loads((tmp_path / f"{command}.json").read_text())
        assert list(doc) == ["schema", "command", "config", "result"]
        assert (doc["schema"], doc["command"]) == ("gbbmlab/1", command)
        result = doc["result"]
        records = result if isinstance(result, list) else [result]
        assert records and all(list(r) == keys for r in records)
        # the rows the CSV repeats: table and identity rows, instability frames
        rows = result if isinstance(result, list) else result.get("frames")
        if command == "instability":
            assert rows and all(list(f) == FRAME_KEYS for f in rows)
        if csv_name is None:
            return
        raw = (tmp_path / csv_name).read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().split("\n")
        assert lines.pop() == ""
        assert lines[0].startswith(f"# schema=gbbmlab/1 command={command} ")
        assert lines[1] == header
        cells = [line.split(",") for line in lines[2:]]
        assert cells and all(len(c) == len(header.split(",")) for c in cells)
        if rows is not None:
            assert len(cells) == len(rows)

    @pytest.mark.parametrize("command, argv, n, code", [
        ("spectrum", [], 4096, 0),
        ("spectrum", ["--N", "1024"], 1024, 0),
        ("coercivity", [], 2048, 2),
        ("coercivity", ["--N", "1024"], 1024, 2),
        # at p = 30 the default sizes do not resolve phi_c; these do
        ("spectrum", ["--p", "30", "--N", "16384"], 16384, 0),
        ("coercivity", ["--p", "30", "--N", "8192"], 8192, 2),
    ], ids=["spectrum-default", "spectrum-N1024", "coercivity-default", "coercivity-N1024",
            "spectrum-p30-N16384", "coercivity-p30-N8192"])
    def test_result_records_the_size_it_was_computed_at(self, tmp_path, capsys, command, argv,
                                                        n, code):
        # every size is computed at as given: the config and the result agree
        assert run(tmp_path, command, *argv) == code
        assert "consistency failure" not in capsys.readouterr().err
        doc = json.loads((tmp_path / f"{command}.json").read_text())
        assert doc["config"]["N"] == doc["result"]["N"] == n


class TestExitCodes:
    def test_repeated_calls_in_one_process_keep_the_contracts(self, tmp_path):
        # every call freezes the heap it starts with; exit codes and bit-identical
        # CSV still hold from call to call, and a command's own cycles are collected
        assert run(tmp_path / "u", "table", "--no-such-flag") == 64  # before any command
        codes = [run(tmp_path / "a", "table", "--p-list", "5,6"),
                 run(tmp_path / "s", "spectrum", "--p", "5", "--N", "64"),
                 run(tmp_path / "c", "coercivity", "--p", "5", "--N", "1024"),
                 run(tmp_path / "e", "evolve", "--t-end", "inf"),
                 run(tmp_path / "b", "table", "--p-list", "5,6")]
        assert codes == [0, 3, 2, 64, 0]
        assert not (tmp_path / "u").exists()
        assert (tmp_path / "a" / "table.csv").read_bytes() == (
            tmp_path / "b" / "table.csv"
        ).read_bytes()
        cycle = argparse.Namespace()
        cycle.self = cycle
        alive = weakref.ref(cycle)
        del cycle
        gc.collect()
        assert alive() is None

    def test_huge_first_step_is_only_a_rejected_trial(self, tmp_path, monkeypatch):
        trajectories = []

        def recording_evolve(u0, *args):
            trajectories.append(evolve(u0, *args))
            return trajectories[-1]

        monkeypatch.setattr(cli, "evolve", recording_evolve)
        assert run(tmp_path, "evolve", "--N", "2048", "--dt", "3", "--t-end", "5") == 0
        assert trajectories[0].frames[-1].steps_rejected >= 1

    # instability iterates the frame stream; only evolve collects it
    @pytest.mark.parametrize("command, module, name", [
        ("evolve", cli, "evolve"),
        ("instability", modulation, "stream"),
    ], ids=["evolve", "instability"])
    def test_blowup_is_a_consistency_failure(self, tmp_path, capsys, monkeypatch,
                                             command, module, name):
        def blowing_up(u0, *args):
            raise BlowupError(1.5)

        monkeypatch.setattr(module, name, blowing_up)
        assert run(tmp_path, command, "--N", "512", "--t-end", "2") == 3
        assert "consistency failure: state or its conserved quantities became non-finite" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("command, module, name", [
        ("evolve", cli, "evolve"),
        ("instability", modulation, "stream"),
    ], ids=["evolve", "instability"])
    def test_outgrown_grid_is_a_consistency_failure(self, tmp_path, capsys, monkeypatch,
                                                    command, module, name):
        def outgrowing(u0, *args):
            raise UnresolvedError("N=512 does not resolve the run", 1e-3)

        monkeypatch.setattr(module, name, outgrowing)
        assert run(tmp_path, command, "--N", "512", "--t-end", "2") == 3
        assert "consistency failure: N=512 does not resolve the run" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, key", [
        ("--t-end", "inf", "t_end"),
        ("--p", "nan", "p"),
        ("--L", "nan", "L"),
        ("--dt", "nan", "dt"),
    ])
    def test_non_finite_flag_is_a_usage_error(self, tmp_path, capsys, flag, value, key):
        assert run(tmp_path, "evolve", flag, value) == 64
        assert f"usage error: {key} must be finite, got {value}" in capsys.readouterr().err


def embedded_n(tmp_path, command, csv_name):
    """N from the JSON config and from the CSV header; they must agree."""
    n = json.loads((tmp_path / f"{command}.json").read_text())["config"]["N"]
    header = (tmp_path / csv_name).read_text().splitlines()[0]
    assert f" N={n} " in header
    return n


class TestGridSize:
    @pytest.mark.parametrize("p, n", [("4.5", 1536), ("5", 2048), ("6", 3072), ("10", 8192)])
    def test_evolve_sizes_its_grid_from_the_profile(self, tmp_path, p, n):
        assert run(tmp_path, "evolve", "--p", p, "--t-end", "0.1") == 0
        assert embedded_n(tmp_path, "evolve", "evolve_series.csv") == n

    def test_zero_means_auto_and_an_explicit_size_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 0\n")
        runs = {
            "flag": ["instability", "--N", "0"],
            "file": ["--config", str(cfg), "instability"],
            "explicit": ["--config", str(cfg), "instability", "--N", "1024"],
        }
        for name, argv in runs.items():
            assert main([*argv, "--a", "0.02", "--t-end", "1", "--out",
                         str(tmp_path / name)]) == 2
        sizes = {name: embedded_n(tmp_path / name, "instability", "instability_frames.csv")
                 for name in runs}
        assert sizes == {"flag": 2048, "file": 2048, "explicit": 1024}

    def test_explicit_unresolved_size_is_noted(self, tmp_path, capsys):
        # phi_c at p = 30 keeps a relative tail of 1.8e-6 beyond the 2/3 cutoff
        # at N = 8192; the run goes on and fails its drift claim, as without the note
        assert run(tmp_path, "evolve", "--p", "30", "--N", "8192", "--t-end", "0.01") == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "note: at N=8192 the initial state's relative spectral tail beyond the 2/3 "
            "cutoff is 1.81e-06 > 1e-12; auto (N = 0) would pick N=24576",
            "claim failure: Q drift 6.536e-08 (must be below 1e-08)",
        ]

    @pytest.mark.parametrize("argv", [[], ["--N", "2048"]], ids=["auto", "resolved"])
    def test_resolved_size_prints_no_note(self, tmp_path, capsys, argv):
        assert run(tmp_path, "evolve", "--p", "5", *argv, "--t-end", "0.01") == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["evolve", "table"])
    @pytest.mark.parametrize("n", ["-2", "7"])
    def test_negative_or_odd_size_usage_error(self, tmp_path, capsys, command, n):
        assert run(tmp_path, command, "--N", n) == 64
        assert "usage error: N must be 0 (auto) or even and positive" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    def test_no_size_resolves_is_a_consistency_failure(self, tmp_path, capsys):
        # p = 100 needs N = 98304 on L = 50 pi, so 2^20 on a 16 times wider box
        # is not enough; nothing is written
        assert run(tmp_path, "evolve", "--p", "100", "--L", str(800 * math.pi)) == 3
        assert "no N up to 1048576 resolves phi_c" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, argv", [
        ("table", ["--p-list", "4.5,30"]),
        ("identities", []),
        ("spectrum", []),
        ("coercivity", []),
    ])
    def test_default_is_the_fixed_size(self, tmp_path, command, argv):
        # the default run writes exactly the files of an explicit --N at the
        # size the command's reference values were taken at
        n = {"table": 8192, "identities": 8192, "spectrum": 4096, "coercivity": 2048}[command]
        run(tmp_path / "default", command, *argv)
        run(tmp_path / "explicit", command, *argv, "--N", str(n))
        names = sorted(f.name for f in (tmp_path / "default").iterdir())
        assert names and names == sorted(f.name for f in (tmp_path / "explicit").iterdir())
        for name in names:
            assert (tmp_path / "default" / name).read_bytes() == (
                tmp_path / "explicit" / name).read_bytes()

    def test_auto_size_against_twice_the_size(self, tmp_path):
        # the resolution sequence behind the auto size: per frame, I, lambda,
        # y and ||xi||_H1 at N = 2048 agree with N = 4096 to 1e-10 (measured:
        # at most 8.6e-14)
        frames = {}
        for name, argv in (("auto", []), ("double", ["--N", "4096"])):
            assert run(tmp_path / name, "instability", "--a", "0.02", "--t-end", "5",
                       *argv) == 2
            frames[name] = np.loadtxt(tmp_path / name / "instability_frames.csv",
                                      delimiter=",", skiprows=2)
        assert embedded_n(tmp_path / "auto", "instability", "instability_frames.csv") == 2048
        auto, double = frames["auto"], frames["double"]
        assert auto.shape == double.shape == (11, 7)
        assert np.array_equal(auto[:, 0], double[:, 0])
        # columns t, lambda, y, xi_h1, I
        assert np.max(np.abs(auto[:, 1:5] - double[:, 1:5])) <= 1e-10


class TestTables:
    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_each_command_dispatches_to_its_own_handler(self, tmp_path, monkeypatch, name):
        assert cli.COMMANDS[name] is getattr(cli, f"cmd_{name}")
        called = []
        for key in cli.COMMANDS:
            monkeypatch.setitem(cli.COMMANDS, key, lambda cfg, key=key: called.append(key) or 0)
        assert run(tmp_path, name) == 0
        assert called == [name]

    # per DEFAULTS key: (value in a config file, value of its flag)
    SETTINGS = {
        "L": ("100.0", "120.0"), "N": ("1024", "2048"), "dt": ("0.01", "0.02"),
        "t_end": ("1.0", "2.0"), "a": ("0.02", "0.03"), "p": ("6.0", "7.0"),
        "p_list": ("5,6", "7"), "out": ("file_out", "flag_out"),
    }

    def test_every_key_is_set_by_file_and_flag_and_the_flag_wins(self, tmp_path, monkeypatch):
        assert set(self.SETTINGS) == set(cli.DEFAULTS)
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "table", lambda cfg: seen.append(cfg) or 0)
        for key, (in_file, on_flag) in self.SETTINGS.items():
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {in_file}\n")
            flag = "--" + key.replace("_", "-")
            runs = (["--config", str(cfg), "table"], ["table", flag, on_flag],
                    ["--config", str(cfg), "table", flag, on_flag])
            seen.clear()
            # the stub handler writes nothing; every other key's run is sent to tmp_path
            out = [] if key == "out" else ["--out", str(tmp_path)]
            for argv in runs:
                assert main([*argv, *out]) == 0
            kind = type(cli.DEFAULTS[key])
            assert [c[key] for c in seen] == [kind(in_file), kind(on_flag), kind(on_flag)]

    def test_help_lists_every_command_and_flag(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "{table,identities,spectrum,coercivity,evolve,instability}" in out
        for flag, metavar in (("--p", "P"), ("--p-list", "P_LIST"), ("--L", "L"), ("--N", "N"),
                              ("--dt", "DT"), ("--t-end", "T_END"), ("--a", "A"),
                              ("--out", "OUT")):
            assert f"{flag} {metavar}" in out
        # the cutoff radius is not an input
        assert "--R" not in out


class TestConfigFile:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 5\nN = 1024\n# comment\nt_end = 1\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "spectrum", "--N", "2048",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "spectrum.json").read_text())
        assert doc["config"]["N"] == 2048  # flag wins
        assert doc["config"]["p"] == 5.0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("banana = 1\n")
        assert main(["--config", str(cfg), "spectrum", "--out", str(tmp_path)]) == 64

    def test_bad_format_rejected(self, tmp_path):
        assert run(tmp_path, "identities", "--p", "5", "--format", "yaml") == 64

    def test_format_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = json\n")
        assert main(["--config", str(cfg), "identities", "--out", str(tmp_path)]) == 64

    def test_workers_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 2\n")
        assert main(["--config", str(cfg), "table", "--out", str(tmp_path)]) == 64

    def test_zero_dt_means_estimate(self, tmp_path, flow_calls):
        # the default, --dt 0 and a config line dt = 0 all estimate the first
        # step (110 flow evaluations on the soliton_evolve run); a positive
        # --dt is the first trial step (133)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dt = 0\n")
        runs = {
            "default": ["evolve"],
            "flag": ["evolve", "--dt", "0"],
            "file": ["--config", str(cfg), "evolve"],
            "explicit": ["evolve", "--dt", "0.001"],
        }
        counts, series = {}, {}
        for name, argv in runs.items():
            flow_calls.clear()
            out = tmp_path / name
            assert main([*argv, "--p", "4.5", "--t-end", "2", "--out", str(out)]) == 0
            counts[name] = len(flow_calls)
            series[name] = (out / "evolve_series.csv").read_text()
        assert counts == {"default": 110, "flag": 110, "file": 110, "explicit": 133}
        assert series["default"] == series["flag"] == series["file"]
        assert " dt=0.0 " in series["default"].splitlines()[0]

    def test_negative_dt_usage_error(self, tmp_path, capsys):
        assert run(tmp_path, "evolve", "--dt", "-1") == 64
        assert "usage error: dt >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evolve", "instability"])
    @pytest.mark.parametrize("flag, value", [("--dt", "-1"), ("--t-end", "0")],
                             ids=["dt-1", "t_end0"])
    def test_refused_run_writes_nothing(self, tmp_path, capsys, command, flag, value):
        # the stepper checks dt and t_end when its first frame is asked for,
        # before either command writes a file
        out = tmp_path / "out"
        assert main([command, flag, value, "--out", str(out)]) == 64
        assert capsys.readouterr().err == (
            "usage error: dt >= 0 (0 = estimate) and t_end > 0 required\n")
        assert not out.exists()
