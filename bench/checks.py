"""Scientific-output checks for the benchmark's commands.

``observe`` reads the JSON a command wrote into its output directory;
``check`` compares an observation and exit code with ``reference.json``,
captured from the seed commit by ``capture.py``. An exit code or verdict other
than the by-design one is a failure, never a pass.
"""
from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# by design: instability fails criterion 7b and coercivity criterion 4c
EXPECTED_EXIT = {"evolve": 0, "instability": 2, "table": 0, "identities": 0,
                 "spectrum": 0, "coercivity": 2}


def _result(outdir: Path, name: str):
    return json.loads((outdir / name).read_text())["result"]


def observe(command: str, outdir: Path) -> dict:
    """The numbers a command's check needs, read from its output files."""
    outdir = Path(outdir)
    if command == "evolve":
        r = _result(outdir, "evolve.json")
        return {k: r[k] for k in ("energy_drift", "momentum_drift", "soliton_sup_error")}
    if command == "instability":
        r = _result(outdir, "instability.json")
        keys = ("verdict", "mode", "negative_fraction", "tube_exit_time", "lambda_shift_at_end")
        return {k: r[k] for k in keys}
    if command == "table":
        rows = _result(outdir, "table.json")
        return {"rows": [{k: row[k] for k in ("p", "form_value", "operator_value",
                                              "dual_sup_error", "negative")}
                         for row in rows]}
    if command == "identities":
        return {"rel_errors": {r["name"]: r["rel_error"]
                               for r in _result(outdir, "identities.json")}}
    if command == "spectrum":
        r = _result(outdir, "spectrum.json")
        return {k: r[k] for k in ("eigenvalues", "negative_count", "kernel_overlap")}
    if command == "coercivity":
        r = _result(outdir, "coercivity.json")
        return {k: r[k] for k in ("constrained_min", "raw_min")}
    raise ValueError(f"no check for command {command!r}")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def problems(command: str, exit_code: int, obs: dict, ref: dict) -> list[str]:
    """Every way the observation misses its gate; empty when it passes."""
    out = []
    if exit_code != EXPECTED_EXIT[command]:
        out.append(f"exit code {exit_code}, expected {EXPECTED_EXIT[command]}")
    if command == "evolve":
        for key in ("energy_drift", "momentum_drift"):
            if not obs[key] <= 1e-8:
                out.append(f"{key} {obs[key]:.3e} > 1e-8")
        if not obs["soliton_sup_error"] <= 1e-6:
            out.append(f"soliton sup error {obs['soliton_sup_error']:.3e} > 1e-6")
    elif command == "instability":
        if obs["verdict"] != "monotone-decreasing":
            out.append(f"verdict {obs['verdict']!r}, expected 'monotone-decreasing'")
        if obs["mode"] != "fit":
            out.append(f"mode {obs['mode']!r}, expected 'fit'")
        if not obs["negative_fraction"] >= 0.95:
            out.append(f"negative fraction {obs['negative_fraction']:.3f} < 0.95")
        exit_t = obs["tube_exit_time"]
        if exit_t is None or not abs(exit_t - 52.0) <= 0.5:
            out.append(f"tube exit {exit_t!r} not within 0.5 of t = 52")
        shift, ref_shift = obs["lambda_shift_at_end"], ref["lambda_shift_at_end"]
        if not abs(shift - ref_shift) <= 1e-6:
            out.append(f"end |lambda-c| {shift!r} differs from seed {ref_shift!r} by > 1e-6")
    elif command == "table":
        rows, ref_rows = obs["rows"], ref["rows"]
        if [r["p"] for r in rows] != [r["p"] for r in ref_rows]:
            out.append(f"table p values {[r['p'] for r in rows]} differ from the seed")
            return out
        for row, ref_row in zip(rows, ref_rows):
            p, v = row["p"], row["form_value"]
            if not (row["negative"] and v < 0.0):
                out.append(f"p={p}: form value {v!r} is not negative")
            if not _rel(v, ref_row["form_value"]) <= 1e-9:
                out.append(f"p={p}: form value {v!r} off seed {ref_row['form_value']!r} "
                           f"by more than 1e-9 relative")
            dual = max(row["dual_sup_error"], _rel(row["operator_value"], v))
            if not dual <= 1e-6:
                out.append(f"p={p}: dual-path error {dual:.3e} > 1e-6")
    elif command == "identities":
        for name, err in obs["rel_errors"].items():
            if not err <= 1e-12:
                out.append(f"identity {name}: rel error {err:.3e} > 1e-12")
        if set(obs["rel_errors"]) != set(ref["rel_errors"]):
            out.append("identity names differ from the seed")
    elif command == "spectrum":
        if obs["negative_count"] != 1:
            out.append(f"negative_count {obs['negative_count']}, expected 1")
        if not obs["kernel_overlap"] >= 0.999:
            out.append(f"kernel overlap {obs['kernel_overlap']:.6f} < 0.999")
        ev, ref_ev = obs["eigenvalues"], ref["eigenvalues"]
        if len(ev) != len(ref_ev) or any(not abs(a - b) <= 1e-9 for a, b in zip(ev, ref_ev)):
            out.append(f"eigenvalues {ev} differ from seed {ref_ev} by more than 1e-9")
    elif command == "coercivity":
        cmin, ref_min = obs["constrained_min"], ref["constrained_min"]
        if not (abs(cmin - ref_min) <= 1e-8 and abs(cmin + 0.009042) <= 5e-7):
            out.append(f"constrained_min {cmin!r} not within 1e-8 of seed {ref_min!r} "
                       f"(-0.009042)")
    return out


def check(command: str, exit_code: int, outdir: Path, reference: dict) -> list[str]:
    """problems() on the files in outdir; unreadable output is a failure too."""
    try:
        obs = observe(command, outdir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"exit code {exit_code}; output unreadable: {exc!r}"]
    return problems(command, exit_code, obs, reference[command])


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
