"""Command-line driver: every experiment as a reproducible command.

Exit-code contract: 0 = all checks passed, 2 = a scientific claim failed,
3 = internal consistency failed, 64 = usage error. Outputs embed the fully
resolved configuration and a schema version so a run can be reproduced from
its own files. Configuration precedence: flags > config file > defaults.

Process model: each command computes in the process that calls `main`, and
`main` first freezes the heap that exists when it starts (`gc.freeze()`): the
interpreter's, numpy's, scipy's and this package's import objects move to the
cyclic collector's permanent generation. The interpreter's last collections at
exit then skip those ~40 000 containers: the time from the end of `main` to
the process exit fell from 53-58 ms to 11 ms, a saving larger than most
commands' solve. For in-process callers (tests, notebooks) the objects alive
when `main` is called are never visited by the cyclic collector again;
refcounting still frees them, and the command's own objects are collected as
before.

This module alone owns the output schema (SCHEMA): the report objects it
receives are plain data, and every JSON key and CSV column is chosen here.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import (
    BlowupError,
    Field,
    GroundState,
    UnresolvedError,
    auto_points,
    closed_form_identities,
    constrained_form_minimum,
    critical_speed,
    eigenpairs,
    essential_spectrum_edge,
    evolve,
    instability_experiment,
    kappa_closed_form,
    make_grid,
    negativity_table,
    translate,
)
from .dynamics import AUTO_POINTS, TAIL_TOL, relative_tail
from .grid import DEFAULT_HALF_WIDTH, DEFAULT_POINTS
from .spectral import EigenSolveError
from .structure import DualPathError

SCHEMA = "gbbmlab/1"
EXIT_OK = 0
EXIT_CLAIM = 2
EXIT_CONSISTENCY = 3
EXIT_USAGE = 64
RESOLUTION_SEQUENCE = (1024, 2048, 4096, 8192, 16384)
KERNEL_OVERLAP_MIN = 0.999
# the N that N = 0 means for the commands that do not start from phi_c: the
# sizes their reference values were taken at
FIXED_POINTS = {"table": DEFAULT_POINTS, "identities": DEFAULT_POINTS,
                "spectrum": 4096, "coercivity": 2048}

# each key is a config-file key and, with "_" written "-", a flag of its default's type
DEFAULTS = {
    "L": DEFAULT_HALF_WIDTH,
    "N": 0,  # 0 means auto (see _grid_size)
    "dt": 0.0,  # 0 means estimate the first step from the initial state
    "t_end": 20.0,
    "a": 0.01,
    "p": 5.0,
    "p_list": "4.1,4.5,5,6,6.5,10,30,50,70,100",
    "out": "out",
}


def _load_config_file(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        out[key] = val
    return out


def _resolve(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(_load_config_file(args.config))
    for key, default in DEFAULTS.items():
        val = getattr(args, key)
        cfg[key] = type(default)(cfg[key] if val is None else val)
        if isinstance(cfg[key], float) and not math.isfinite(cfg[key]):
            raise ValueError(f"{key} must be finite, got {cfg[key]!r}")
    if cfg["N"] < 0 or cfg["N"] % 2:
        raise ValueError(f"N must be 0 (auto) or even and positive, got {cfg['N']!r}")
    return cfg


def _grid_size(cfg: dict, command: str) -> int:
    """The N that command runs at, on the one periodic grid of every command.
    table, identities, spectrum and coercivity take N = 0 as their entry of
    FIXED_POINTS and compute at any explicit N. evolve and instability
    start from a multiple of phi_c, so they take it as the smallest 2^k or
    3 * 2^k that resolves phi_c (`auto_points`: a radix-3 FFT is cheap and the
    steps do not depend on N); at an explicit N they print one stderr line
    when phi_c's relative spectral tail beyond the 2/3 cutoff exceeds
    TAIL_TOL, naming the tail and the N that N = 0 would pick, and the run
    goes on."""
    n, L = cfg["N"], cfg["L"]
    if command in FIXED_POINTS:
        return n or FIXED_POINTS[command]
    gs = GroundState(cfg["p"], critical_speed(cfg["p"]))
    if not n:
        return auto_points(gs, L)
    grid = make_grid(L, n)
    tail = relative_tail(gs.profile(grid).values, grid.dealias_cut)
    if tail > TAIL_TOL:
        try:
            auto = f"auto (N = 0) would pick N={auto_points(gs, L)}"
        except UnresolvedError:
            auto = f"no N up to {AUTO_POINTS[-1]} resolves it"
        print(f"note: at N={n} the initial state's relative spectral tail beyond the "
              f"2/3 cutoff is {tail:.2e} > {TAIL_TOL:.0e}; {auto}", file=sys.stderr)
    return n


def _embedded(cfg: dict) -> dict:
    # the output directory is not part of the computation
    return {k: v for k, v in cfg.items() if k != "out"}


def _config_header(cfg: dict, command: str) -> str:
    emb = _embedded(cfg)
    pairs = " ".join(f"{k}={emb[k]}" for k in sorted(emb))
    return f"# schema={SCHEMA} command={command} {pairs}\n"


def _write(outdir: Path, name: str, text: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(text)


def _fields(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


def _csv(header, rows) -> str:
    """Comma-separated lines, each ending in a bare newline; floats are
    written as repr, so every digit survives."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _plain(obj):
    # numpy arrays and scalars become lists and Python numbers
    return obj.tolist()


def _json_doc(cfg: dict, command: str, payload) -> str:
    return json.dumps(
        {"schema": SCHEMA, "command": command, "config": _embedded(cfg), "result": payload},
        indent=2,
        default=_plain,
    )


def cmd_table(cfg: dict) -> int:
    p_list = [float(s) for s in str(cfg["p_list"]).split(",") if s.strip()]
    report = negativity_table(p_list, L=cfg["L"], n_request=cfg["N"])
    outdir = Path(cfg["out"])
    csv_rows = [(r.p, r.c0, r.form_value, str(r.negative).lower()) for r in report.rows]
    _write(outdir, "table.csv", _config_header(cfg, "table")
           + _csv(("p", "c0", "form_value", "negative"), csv_rows))
    rows = [
        _fields(r, "p", "c0", "form_value", "operator_value", "dual_sup_error", "points",
                "negative")
        for r in report.rows
    ]
    _write(outdir, "table.json", _json_doc(cfg, "table", rows))
    for r in report.rows:
        print(f"p={r.p:<6g} c0={r.c0:.6f} <hess(Gamma),Gamma>={r.form_value:.2f} "
              f"negative={r.negative}")
    if not report.all_negative():
        print("claim failure: a table row is not negative", file=sys.stderr)
        return EXIT_CLAIM
    return EXIT_OK


def cmd_identities(cfg: dict) -> int:
    p = cfg["p"]
    gs = GroundState(p, critical_speed(p))
    grid = make_grid(cfg["L"], cfg["N"])
    report = closed_form_identities(gs, grid)
    outdir = Path(cfg["out"])
    keys = ("name", "closed_form", "quadrature", "rel_error")
    rows = [_fields(r, *keys) for r in report.records]
    _write(outdir, "identities.json", _json_doc(cfg, "identities", rows))
    _write(outdir, "identities.csv", _config_header(cfg, "identities")
           + _csv(keys, [r.values() for r in rows]))
    for r in report.records:
        print(f"{r.name:<16} rel_error={r.rel_error:.3e}")
    if not report.max_rel_error() < 1e-8:
        worst = max(report.records, key=lambda r: r.rel_error)
        print(f"claim failure: identity {worst.name} has rel_error {worst.rel_error:.3e} "
              f"(must be below 1e-08)", file=sys.stderr)
        return EXIT_CLAIM
    return EXIT_OK


def cmd_spectrum(cfg: dict) -> int:
    p = cfg["p"]
    gs = GroundState(p, critical_speed(p))
    grid = make_grid(cfg["L"], cfg["N"])
    report = eigenpairs(gs, grid)
    payload = {"N": grid.points, **_fields(
        report, "eigenvalues", "negative_count", "kernel_eigenvalue", "kernel_overlap")}
    _write(Path(cfg["out"]), "spectrum.json", _json_doc(cfg, "spectrum", payload))
    print(f"negative_count={report.negative_count} "
          f"kernel_eigenvalue={report.kernel_eigenvalue:.3e} "
          f"kernel_overlap={report.kernel_overlap:.6f}")
    if report.kernel_overlap < KERNEL_OVERLAP_MIN:
        # the kernel candidate is a continuum eigenvalue: the grid does not
        # resolve the translation mode, so no count on it is a verdict
        print(f"consistency failure: kernel_overlap {report.kernel_overlap:.6f} < "
              f"{KERNEL_OVERLAP_MIN} at N={grid.points}; the grid is unresolved",
              file=sys.stderr)
        return EXIT_CONSISTENCY
    return EXIT_OK if report.negative_count == 1 else EXIT_CLAIM


def cmd_coercivity(cfg: dict) -> int:
    p = cfg["p"]
    gs = GroundState(p, critical_speed(p))
    claim_n = cfg["N"]
    reports = {}
    # each grid's first secular probe comes from the coarser grids' minima
    previous = None
    for n in sorted({claim_n, *RESOLUTION_SEQUENCE}):
        grid = make_grid(cfg["L"], n)
        prof = gs.sample(grid)
        constraints = {
            "translation_mode": Field(grid, prof.phi_x),
            "kappa": kappa_closed_form(prof),
        }
        previous = reports[n] = constrained_form_minimum(prof, constraints, previous)
    report = reports[claim_n]
    payload = {
        "N": claim_n,
        **_fields(report, "constrained_min", "constraints_used", "raw_min"),
        # the O(h^2) approach to the continuum limit, at the command's L
        "resolution": [
            {"N": n, "constrained_min": reports[n].constrained_min}
            for n in RESOLUTION_SEQUENCE
        ],
    }
    _write(Path(cfg["out"]), "coercivity.json", _json_doc(cfg, "coercivity", payload))
    threshold = 1e-3 * essential_spectrum_edge(gs)
    print(f"raw_min={report.raw_min:.6f} constrained_min={report.constrained_min:.6f} "
          f"(positivity threshold {threshold:.2e})")
    finest = reports[RESOLUTION_SEQUENCE[-1]].constrained_min
    if (report.constrained_min > threshold) != (finest > threshold):
        print(f"consistency failure: constrained_min {report.constrained_min:.6f} at "
              f"N={claim_n} and {finest:.6f} at N={RESOLUTION_SEQUENCE[-1]} fall on "
              f"opposite sides of the threshold; the claim grid is unresolved",
              file=sys.stderr)
        return EXIT_CONSISTENCY
    if not report.resolved:
        print(f"consistency failure: the claim grid N={claim_n} has k h = {report.kh:.2f} > 1 "
              f"and does not resolve phi_c", file=sys.stderr)
        return EXIT_CONSISTENCY
    if report.constrained_min <= threshold:
        print("claim failure: constrained minimum is not strictly positive",
              file=sys.stderr)
        return EXIT_CLAIM
    return EXIT_OK


def cmd_evolve(cfg: dict) -> int:
    p = cfg["p"]
    c = critical_speed(p)
    gs = GroundState(p, c)
    phi = gs.profile(make_grid(cfg["L"], cfg["N"]))
    traj = evolve(phi, p, cfg["t_end"], cfg["dt"])
    exact = translate(phi, -c * cfg["t_end"])
    sup_err = float(np.max(np.abs(traj.frames[-1].state.values - exact.values)))
    outdir = Path(cfg["out"])
    _write(outdir, "evolve_series.csv", _config_header(cfg, "evolve")
           + _csv(("t", "E", "Q"), zip(traj.times, traj.E_series, traj.Q_series)))
    payload = {
        "energy_drift": traj.energy_drift(),
        "momentum_drift": traj.momentum_drift(),
        "soliton_sup_error": sup_err,
    }
    _write(outdir, "evolve.json", _json_doc(cfg, "evolve", payload))
    print(f"E drift={payload['energy_drift']:.3e} Q drift={payload['momentum_drift']:.3e} "
          f"soliton sup error={sup_err:.3e}")
    failed = [f"{name} drift {payload[key]:.3e}"
              for name, key in (("E", "energy_drift"), ("Q", "momentum_drift"))
              if not payload[key] < 1e-8]
    if failed:
        print(f"claim failure: {' and '.join(failed)} (must be below 1e-08)", file=sys.stderr)
        return EXIT_CLAIM
    return EXIT_OK


def instability_outputs(cfg: dict, report) -> dict:
    """The files ``instability`` writes for ``report``, by name: the JSON
    document and the per-frame CSV."""
    # every frame is decomposed in the fit pair; schema gbbmlab/1 keeps the key
    payload = {
        **_fields(report, "p", "a", "c0", "tube_exit_time", "verdict"),
        "mode": "fit",
        **_fields(report, "positive_fraction", "negative_fraction", "lambda_shift_at_end",
                  "beta_initial", "beta_linear_prediction"),
    }
    payload["frames"] = [
        {
            "t": f.t, "I1": f.I1, "I2": f.I2, "I": f.I,
            "beta": f.beta, "gamma": f.gamma_of_lambda,
            "lambda": f.lam, "tube_distance": f.tube_distance,
            "kappa_residual": f.kappa_residual,
        }
        for f in report.frames
    ]
    frame_rows = [(f.t, f.lam, f.y, f.tube_distance, f.I, f.I1, f.I2) for f in report.frames]
    return {
        "instability.json": _json_doc(cfg, "instability", payload),
        "instability_frames.csv": _config_header(cfg, "instability")
        + _csv(("t", "lambda", "y", "xi_h1", "I", "I1", "I2"), frame_rows),
    }


def cmd_instability(cfg: dict) -> int:
    grid = make_grid(cfg["L"], cfg["N"])
    report = instability_experiment(cfg["p"], cfg["a"], grid, dt=cfg["dt"], t_end=cfg["t_end"])
    outdir = Path(cfg["out"])
    for name, text in instability_outputs(cfg, report).items():
        _write(outdir, name, text)
    print(f"verdict={report.verdict} "
          f"positive_fraction={report.positive_fraction:.3f} "
          f"negative_fraction={report.negative_fraction:.3f} "
          f"|lambda-c| at end={report.lambda_shift_at_end:.3e}")
    if report.verdict == "below-noise-floor":
        print(f"consistency failure: every in-tube increment of I is at or below the "
              f"noise floor {report.noise_floor:.2e}; the run resolves no sign",
              file=sys.stderr)
    # monotone-decreasing and inconclusive fail the claim
    return {"monotone-increasing": EXIT_OK, "modulation-failed": EXIT_CONSISTENCY,
            "below-noise-floor": EXIT_CONSISTENCY}.get(report.verdict, EXIT_CLAIM)


# the command name -> handler map that the parser's choices and main's dispatch read
COMMANDS = {
    "table": cmd_table,
    "identities": cmd_identities,
    "spectrum": cmd_spectrum,
    "coercivity": cmd_coercivity,
    "evolve": cmd_evolve,
    "instability": cmd_instability,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gbbmlab",
        description="gBBM critical-speed solitary-wave laboratory",
    )
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("command", choices=COMMANDS)
    for key, default in DEFAULTS.items():
        ap.add_argument("--" + key.replace("_", "-"), type=type(default))
    return ap


def main(argv=None) -> int:
    gc.freeze()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = _resolve(args)
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # the files embed cfg, so they record the N that was used
        cfg["N"] = _grid_size(cfg, args.command)
        return COMMANDS[args.command](cfg)
    except (BlowupError, DualPathError, EigenSolveError, UnresolvedError) as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
