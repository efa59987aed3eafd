"""Span arithmetic and the per-layer metrics derived from a traced command.

A span is a list ``[id, parent, name, start, end, attrs]``: ids start at 1,
parent 0 marks a root, start/end are ``time.perf_counter`` seconds of the
traced process, attrs is a dict or None. Self time is a span's duration minus
the part of its interval that its children cover. Stdlib only, so the
harness can aggregate without importing numpy.
"""
from __future__ import annotations

import math
import statistics
from collections import defaultdict

SID, PARENT, NAME, START, END, ATTRS = range(6)

DERIV_SPANS = (
    "ground_state.profile_dx",
    "ground_state.profile_dxx",
    "ground_state.profile_pow_p",
    "ground_state.profile_dc",
    "ground_state.profile_dc_dx",
)
FFT_SPANS = ("fft.rfft", "fft.irfft")
DECOMPOSE = ("modulation.decompose",)

# metric-name prefix -> spans it is computed from; a metric is dropped when
# any of its spans could not be installed (the wrapped function is gone)
REQUIRES = {
    "dynamics.evolve": ("dynamics.evolve",),
    "dynamics.rhs_evals": ("dynamics.evolve", "fft.irfft"),
    "dynamics.record": ("dynamics.evolve", "functionals.energy", "functionals.momentum"),
    "fft.": FFT_SPANS,
    "ground_state.profile.": ("ground_state.profile",),
    "ground_state.derivs.": DERIV_SPANS,
    "ground_state.identities_s": ("ground_state.closed_form_identities",),
    "structure.negativity_form": ("structure.negativity_form",),
    "structure.coefficients.": ("structure.coefficients",),
    "structure.kappa_closed_form.": ("structure.kappa_closed_form",),
    "functionals.hessian_apply.": ("functionals.hessian_apply",),
    "spectral.eigenpairs_s": ("spectral.eigenpairs",),
    "spectral.constrained_min_s": ("spectral.constrained_form_minimum",),
    "spectral.qr_s": ("spectral.qr",),
    "spectral.dense_mb_computed": ("spectral.qr",),
    "spectral.eigh_s": ("spectral.eigh",),
    "modulation.decompose": DECOMPOSE,
    "modulation.newton_iters": DECOMPOSE,
    "modulation.converged_ratio": DECOMPOSE,
    "modulation.kappa_attempt_s": DECOMPOSE,
    "modulation.experiment.": ("modulation.instability_experiment",),
    "trace.span_coverage": ("cli.main",),
}


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Map span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[START], s[END]))
    return {
        s[SID]: (s[END] - s[START]) - _covered(children[s[SID]], s[START], s[END])
        for s in spans
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _real_fft_length(s) -> int:
    return int((s[ATTRS] or {}).get("n", 0))


def layer_metrics(commands) -> dict:
    """Per-layer metrics of one repetition, from the span lists of its commands.

    Counts and times are summed over the commands; percentiles pool their
    samples. Every value is a plain float or int.
    """
    by_name = defaultdict(list)
    dur, self_t, name_of = {}, {}, {}
    for ci, spans in enumerate(commands):
        st = self_times(spans)
        for s in spans:
            key = (ci, s[SID])
            by_name[s[NAME]].append((ci, s))
            dur[key] = s[END] - s[START]
            self_t[key] = st[s[SID]]
            name_of[key] = s[NAME]

    def spans_of(*names):
        return [(ci, s) for n in names for ci, s in by_name.get(n, [])]

    def total(items, table):
        return sum(table[(ci, s[SID])] for ci, s in items)

    def parent_is(items, parent_name):
        return [(ci, s) for ci, s in items if name_of.get((ci, s[PARENT])) == parent_name]

    m = {}
    evolve = spans_of("dynamics.evolve")
    m["dynamics.evolve_s"] = total(evolve, dur)
    m["dynamics.evolve.self_s"] = total(evolve, self_t)
    m["dynamics.rhs_evals"] = len(parent_is(spans_of("fft.irfft"), "dynamics.evolve"))
    m["dynamics.records"] = len(parent_is(spans_of("functionals.energy"), "dynamics.evolve"))
    records = parent_is(spans_of("functionals.energy", "functionals.momentum"), "dynamics.evolve")
    m["dynamics.record_s"] = total(records, dur)

    fft = spans_of(*FFT_SPANS)
    m["fft.calls"] = len(fft)
    m["fft.self_s"] = total(fft, self_t)
    fft_us = [1e6 * dur[(ci, s[SID])] for ci, s in fft]
    m["fft.us_p50"] = percentile(fft_us, 50)
    m["fft.us_p99"] = percentile(fft_us, 99)
    m["fft.gflop_computed"] = sum(
        2.5 * n * math.log2(n) for n in (_real_fft_length(s) for _, s in fft) if n > 1
    ) / 1e9

    grid = [(ci, s) for n, items in by_name.items() if n.startswith("grid.") for ci, s in items]
    m["grid.calls"] = len(grid)
    m["grid.self_s"] = total(grid, self_t)

    profile = spans_of("ground_state.profile")
    m["ground_state.profile.calls"] = len(profile)
    m["ground_state.profile.self_s"] = total(profile, self_t)
    m["ground_state.profile.mpoints"] = sum(s[ATTRS]["points"] for _, s in profile) / 1e6
    keys = {tuple(s[ATTRS]["key"]) for _, s in profile}
    m["ground_state.profile.distinct_ratio"] = len(keys) / len(profile) if profile else 0.0
    derivs = spans_of(*DERIV_SPANS)
    m["ground_state.derivs.calls"] = len(derivs)
    m["ground_state.derivs.self_s"] = total(derivs, self_t)
    m["ground_state.identities_s"] = total(spans_of("ground_state.closed_form_identities"), dur)

    form = spans_of("structure.negativity_form")
    m["structure.negativity_form_s"] = total(form, dur)
    for p in (5, 100):
        m[f"structure.negativity_form.p{p}_s"] = total(
            [(ci, s) for ci, s in form if s[ATTRS]["p"] == p], dur
        )
    for fn in ("structure.coefficients", "structure.kappa_closed_form",
               "functionals.hessian_apply"):
        items = spans_of(fn)
        m[f"{fn}.calls"] = len(items)
        m[f"{fn}.self_s"] = total(items, self_t)

    m["spectral.eigenpairs_s"] = total(spans_of("spectral.eigenpairs"), dur)
    m["spectral.constrained_min_s"] = total(spans_of("spectral.constrained_form_minimum"), dur)
    qr = spans_of("spectral.qr")
    m["spectral.qr_s"] = total(qr, dur)
    m["spectral.eigh_s"] = total(spans_of("spectral.eigh"), dur)
    # the n x (n+k) matrix QR factors plus the n x n dense operator, float64
    m["spectral.dense_mb_computed"] = sum(
        8.0 * s[ATTRS]["rows"] * (s[ATTRS]["cols"] + s[ATTRS]["rows"]) for _, s in qr
    ) / 1e6

    dec = spans_of("modulation.decompose")
    m["modulation.decompose_s"] = total(dec, dur)
    m["modulation.decompose.calls"] = len(dec)
    m["modulation.decompose.self_s"] = total(dec, self_t)
    dec_ms = [1e3 * dur[(ci, s[SID])] for ci, s in dec]
    m["modulation.decompose.ms_p50"] = percentile(dec_ms, 50)
    m["modulation.decompose.ms_p90"] = percentile(dec_ms, 90)
    m["modulation.newton_iters"] = sum(s[ATTRS].get("newton_iters", 0) for _, s in dec)
    converged = sum(1 for _, s in dec if s[ATTRS].get("converged"))
    m["modulation.converged_ratio"] = converged / len(dec) if dec else 0.0
    m["modulation.kappa_attempt_s"] = total(
        [(ci, s) for ci, s in dec if s[ATTRS].get("mode") == "kappa"], dur
    )
    m["modulation.experiment.self_s"] = total(spans_of("modulation.instability_experiment"), self_t)

    # share of solve time spent inside named spans below the command driver
    roots = spans_of("cli.main")
    driver = [(ci, s) for n, items in by_name.items()
              if n.startswith("cli.") and n != "cli.write" for ci, s in items]
    solve = total(roots, dur)
    m["trace.span_coverage"] = 1.0 - total(driver, self_t) / solve if solve else 0.0
    return m


def drop_missing(metrics: dict, missing) -> dict:
    """Metrics whose source spans were all installed; the rest are left out."""
    missing = set(missing)
    out = {}
    for name, value in metrics.items():
        needs = [spans for prefix, spans in REQUIRES.items() if name.startswith(prefix)]
        if not any(missing.intersection(spans) for spans in needs):
            out[name] = value
    return out


def top_self_times(commands, limit: int = 12) -> list:
    """[(span name, summed self time, calls)] sorted by self time, largest first."""
    acc = defaultdict(lambda: [0.0, 0])
    for spans in commands:
        st = self_times(spans)
        for s in spans:
            acc[s[NAME]][0] += st[s[SID]]
            acc[s[NAME]][1] += 1
    ranked = sorted(acc.items(), key=lambda kv: -kv[1][0])
    return [(name, t, n) for name, (t, n) in ranked[:limit]]


def median_dicts(dicts) -> dict:
    """Key-wise median of metric dicts that share their keys."""
    keys = dicts[0].keys()
    return {k: statistics.median(d[k] for d in dicts) for k in keys}
