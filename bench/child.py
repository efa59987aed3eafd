"""Run one gbbmlab command in this interpreter and report what it cost.

    python3 [-X importtime] bench/child.py RESULT.json LAUNCHED [--probe]
        [--trace SPANS.json] -- CLI ARGS...

LAUNCHED is the wall-clock time (``time.time()``) at which the parent started
this process, so ``setup_s`` covers interpreter start-up plus the import of
``gbbmlab.cli``. ``--probe`` stops after the import. ``--trace`` wraps the
package's public functions, the ``numpy.fft`` transforms and the
``scipy.linalg`` solvers that ``gbbmlab.spectral`` binds, records one span per
call in memory, and writes the spans after the command returns. No function
body of the package is changed: wrappers replace module and class attributes
of this process only. The exit status is the command's own.
"""
from __future__ import annotations

import json
import os
import sys
import time

# (span name, home module, attribute). Every gbbmlab module that bound the
# same object by name gets the wrapper too; numpy.fft is patched in place.
FUNCTIONS = [
    *(("cli." + n, "gbbmlab.cli", n) for n in (
        "cmd_table", "cmd_identities", "cmd_spectrum", "cmd_coercivity",
        "cmd_evolve", "cmd_instability")),
    ("cli.write", "gbbmlab.cli", "_write"),
    *(("grid." + n, "gbbmlab.grid", n) for n in (
        "make_grid", "translate", "derivative", "helmholtz_inverse", "inner",
        "quadrature", "norm_l2", "norm_h1")),
    ("ground_state.closed_form_identities", "gbbmlab.ground_state", "closed_form_identities"),
    ("ground_state.normalized_profile_norm_sq", "gbbmlab.ground_state",
     "normalized_profile_norm_sq"),
    *(("functionals." + n, "gbbmlab.functionals", n) for n in (
        "energy", "momentum", "hessian_apply")),
    *(("structure." + n, "gbbmlab.structure", n) for n in (
        "coefficients", "gamma_direction", "kappa_closed_form", "kappa_operator",
        "build_structure", "negativity_form", "negativity_table")),
    *(("spectral." + n, "gbbmlab.spectral", n) for n in (
        "discretize_weinstein", "eigenpairs", "constrained_form_minimum")),
    # scipy.linalg entry points as bound in gbbmlab.spectral
    *(("spectral." + n, "gbbmlab.spectral", n) for n in ("qr", "eigh", "eigh_tridiagonal")),
    ("dynamics.evolve", "gbbmlab.dynamics", "evolve"),
    *(("modulation." + n, "gbbmlab.modulation", n) for n in (
        "decompose", "instability_experiment", "gamma_of_lambda")),
    ("fft.rfft", "numpy.fft", "rfft"),
    ("fft.irfft", "numpy.fft", "irfft"),
]
METHODS = [
    ("ground_state." + n, "gbbmlab.ground_state", "GroundState", n)
    for n in ("profile", "profile_dx", "profile_dxx", "profile_pow_p",
              "profile_dc", "profile_dc_dx")
]


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _profile_attrs(args, kwargs):
    gs, grid = args[0], _arg(args, kwargs, 1, "grid")
    return {"key": [gs.p, gs.c, grid.half_width, grid.points, grid.boundary],
            "points": grid.node_count}


def _rfft_attrs(args, kwargs):
    return {"n": len(args[0])}


def _irfft_attrs(args, kwargs):
    return {"n": _arg(args, kwargs, 1, "n") or 2 * (len(args[0]) - 1)}


def _qr_attrs(args, kwargs):
    rows, cols = args[0].shape
    return {"rows": rows, "cols": cols}


def _decompose_attrs(args, kwargs):
    return {"mode": _arg(args, kwargs, 3, "mode", "kappa")}


def _decompose_leave(attrs, result, exc):
    state = result if exc is None else getattr(exc, "state", None)
    if state is not None:
        attrs["newton_iters"] = state.newton_iters
        attrs["converged"] = exc is None and bool(state.converged)


ENTER = {
    "fft.rfft": _rfft_attrs,
    "fft.irfft": _irfft_attrs,
    "spectral.qr": _qr_attrs,
    "structure.negativity_form": lambda a, k: {"p": a[0].p},
    "modulation.decompose": _decompose_attrs,
}
ENTER.update({name: _profile_attrs for name, *_ in METHODS if name.endswith(".profile")})
LEAVE = {"modulation.decompose": _decompose_leave}


class Tracer:
    """In-memory span recorder; spans are [id, parent, name, start, end, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = [0]

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        enter, leave = ENTER.get(name), LEAVE.get(name)

        def traced(*args, **kwargs):
            attrs = enter(args, kwargs) if enter else None
            rec = [len(spans) + 1, stack[-1], name, clock(), 0.0, attrs]
            spans.append(rec)
            stack.append(rec[0])
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                rec[4] = clock()
                stack.pop()
                if leave:
                    leave(attrs, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced


def install(tracer: Tracer) -> tuple[list, list]:
    """Wrap every target that exists; return (missing span names, notes)."""
    import importlib

    gbb = [m for n, m in sorted(sys.modules.items())
           if (n == "gbbmlab" or n.startswith("gbbmlab.")) and m is not None]
    missing, notes = [], []

    def lookup(home, attr):
        try:
            return getattr(importlib.import_module(home), attr, None)
        except ImportError:
            return None

    for name, home, attr in FUNCTIONS:
        orig = lookup(home, attr)
        if orig is None:
            missing.append(name)
            notes.append(f"{home}.{attr} not found: metrics from span {name} are absent")
            continue
        wrapped = tracer.wrap(name, orig)
        if not home.startswith("gbbmlab"):
            setattr(sys.modules[home], attr, wrapped)
        for m in gbb:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
    for name, home, cls_name, attr in METHODS:
        cls = lookup(home, cls_name)
        orig = getattr(cls, attr, None) if cls is not None else None
        if orig is None:
            missing.append(name)
            notes.append(f"{home}.{cls_name}.{attr} not found: metrics from span {name} "
                         f"are absent")
            continue
        setattr(cls, attr, tracer.wrap(name, orig))
    return missing, notes


def blas_threads() -> int:
    """Largest thread count reported by the OpenBLAS libraries mapped into this process."""
    import ctypes

    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path and ".so" in path:
                libs.add(path)
    counts = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(int(fn()))
                break
    return max(counts) if counts else 0


def versions() -> dict:
    import platform

    import numpy
    import scipy

    def blas(cfg):
        return cfg.get("Build Dependencies", {}).get("blas", {}).get("version")

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
    }


def main(argv) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[1:sep], argv[sep + 1:]
    result_path, launched = opts[0], float(opts[1])
    probe = "--probe" in opts
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    import gbbmlab.cli as cli

    setup_s = time.time() - launched
    result = {"setup_s": setup_s, "gbbmlab_file": cli.__file__}
    code = 0
    if probe:
        result["versions"] = versions()
        result["blas_threads"] = blas_threads()
    else:
        main_fn, tracer = cli.main, None
        if trace_path:
            tracer = Tracer()
            result["missing"], result["notes"] = install(tracer)
            main_fn = tracer.wrap("cli.main", cli.main)
        t0 = time.perf_counter()
        code = main_fn(cli_args)
        result["solve_s"] = time.perf_counter() - t0
        result["exit_code"] = code
        if tracer is not None:
            result["blas_threads"] = blas_threads()
            # spans of one command share this id: <run directory>/<launch tag>
            trace_id = "/".join(trace_path.split(os.sep)[-2:]).split(".")[0]
            with open(trace_path, "w") as fh:
                json.dump({"trace_id": trace_id, "spans": tracer.spans}, fh,
                          separators=(",", ":"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
