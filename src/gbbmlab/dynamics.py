"""Pseudo-spectral time evolution of the gBBM flow in Hamiltonian form.

u_t = -(1 - d_xx)^{-1} d_x (u + |u|^p u) on a periodic box. The linear symbol
-ik/(1 + k^2) has modulus at most 1/2 at every k, so the flow is not stiff:
accuracy, not stability, sets the step. `stream` therefore takes
error-controlled steps of the 8th-order Dormand-Prince pair DOP853 (Prince &
Dormand 1981; Hairer, Norsett & Wanner, Solving ODEs I, secs. II.5 and II.10),
whose steps are long at tight tolerances, with the error measured in the max
norm, which does not depend on N or L. Unless the caller fixes it, the first
trial step is estimated from the initial state (Hairer, Norsett & Wanner,
sec. II.4) for one flow evaluation, so no stream spends steps climbing from a
fixed guess: the soliton run at p = 4.5 to t = 2 starts at 0.038 and takes 9
steps and 110 flow evaluations, where a first step of 1e-3 takes 11 and 133.
Conservation of E and Q is monitored, not enforced. The fractional
nonlinearity cannot be dealiased exactly; the 2/3 rule zeroes the top third of
the transform of the flow. `stream` yields one `Frame` per record time,
every RECORD_INTERVAL; `evolve` collects them.

A step allocates nothing per stage. `stream` sizes the stage array K and the
flow's work arrays (the nonlinearity, its running square and the spectrum)
once; each stage sums its state in place and its flow's irfft writes straight
into its row of K. The one array a step allocates holds its stage states and
then the 8th-order state, so each accepted state is a new array that no later
step writes to, and every frame may keep it.

The grid is sized from the data (Boyd, Chebyshev and Fourier Spectral Methods,
2nd ed., ch. 2): a Fourier coefficient below what the stepper resolves is one
the grid need not carry. `auto_points` picks the smallest 2^k or 3 * 2^k
on which phi_c has a relative spectral tail beyond the 2/3 cutoff of at
most TAIL_TOL, the stepper's ATOL. A 3 * 2^k rung has a quarter fewer nodes
than the power of two above it, and a radix-3 FFT of 1536 points is cheaper
than one of 2048; since the max-norm error control makes the steps
independent of N, a smaller grid takes the same steps at a lower cost per
flow evaluation. `stream` then watches the tail over the top half of the
resolved band, bins [cut/2, cut), and raises UnresolvedError when it grows
past both 10 times its t = 0 value and sqrt(TAIL_TOL): the run has outgrown
its grid. Bins at or beyond the cutoff cannot serve as the guard, since the
2/3 rule zeroes their flow and they never move.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, GridError, _parseval_h1_sq, make_grid
from .functionals import energy, _flow
from .ground_state import GroundState

# per-node error tolerance of an accepted step: ATOL + RTOL * max(|v|, |v_new|)
RTOL = 1e-10
ATOL = 1e-12
# the largest relative spectral tail a resolved state may carry
TAIL_TOL = ATOL
# the time between frames of a stream
RECORD_INTERVAL = 0.5
# the sizes auto_points tries, in order: every 2^k and 3 * 2^k from 2^8 to 2^20
AUTO_POINTS = tuple(sorted([2 ** k for k in range(8, 21)] + [3 * 2 ** k for k in range(7, 19)]))

# DOP853, the 8th-order Dormand-Prince pair with embedded 5th- and 3rd-order
# estimates (Prince & Dormand 1981; Hairer, Norsett & Wanner, sec. II.5).
# Row i of _A builds the state of stage i + 1 from stages 0..i; the last row
# holds the 8th-order weights, so the last stage is the flow at the new state
# and starts the next step (FSAL). _E5 and _E3 hold the 8th-order minus the
# 5th- and 3rd-order weights.
_A = tuple(np.array(row) for row in (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
))
_E3 = np.array((-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
    0.20136540080403034, 0.02265179219836082))
_E5 = np.array((0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294))


class BlowupError(RuntimeError):
    """The run cannot go on at time t: its state or conserved quantities became
    non-finite, or, when a message says so, its step collapsed."""

    def __init__(self, t: float, message: str = ""):
        super().__init__(
            message or f"state or its conserved quantities became non-finite at t={t:.6g}"
        )
        self.t = t


class UnresolvedError(RuntimeError):
    """The grid does not resolve the state: its relative spectral tail is too
    large. `tail` is the tail that was reached."""

    def __init__(self, message: str, tail: float):
        super().__init__(message)
        self.tail = tail


def relative_tail(v: np.ndarray, lo: int, hi: int | None = None) -> float:
    """max |v_hat_k| over the rfft bins lo <= k < hi, relative to the max over
    all bins; 0 for v = 0."""
    return _tail(np.fft.rfft(v), lo, hi)


def _tail(v_hat: np.ndarray, lo: int, hi: int | None) -> float:
    a = np.abs(v_hat)
    peak = float(np.max(a))
    return float(np.max(a[lo:hi])) / peak if peak else 0.0


def auto_points(gs: GroundState, L: float) -> int:
    """The first N in AUTO_POINTS on which gs's profile, sampled on the
    grid of half-width L and N points, has a relative spectral tail
    beyond the 2/3 cutoff of at most TAIL_TOL. Raises UnresolvedError, naming
    the tail reached, when none has. The ladder holds 3 * 2^k between the
    powers of two because a radix-3 FFT pair is cheap and the steps `stream`
    takes do not depend on N, so the smallest resolving size is the fastest."""
    for n in AUTO_POINTS:
        grid = make_grid(L, n)
        tail = relative_tail(gs.profile(grid).values, grid.dealias_cut)
        if tail <= TAIL_TOL:
            return n
    raise UnresolvedError(
        f"no N up to {n} resolves phi_c: its relative spectral tail "
        f"beyond the 2/3 cutoff is {tail:.2e} > {TAIL_TOL:.0e} at N={n}", tail
    )


@dataclass(frozen=True)
class Frame:
    """The state at record time t, its E and Q, and the steps taken and flow
    evaluations made so far."""
    t: float
    state: Field
    E: float
    Q: float
    steps_accepted: int
    steps_rejected: int
    rhs_evals: int


def _drift(series: np.ndarray) -> float:
    """max |s - s[0]| / |s[0]|, and 0 for a series that never leaves its first
    value: E and Q vanish only at u = 0, which the flow keeps exactly."""
    dev = np.max(np.abs(series - series[0]))
    return float(dev / abs(series[0])) if dev else 0.0


def _dop853(v: np.ndarray, K: np.ndarray, h: float, g: Grid, p: float,
            work: tuple) -> np.ndarray:
    """One DOP853 trial step of size h from v, where the stage array K has
    len(_A) + 1 rows and K[0] is the flow at v: fills K[1:], whose last row is
    the flow at the returned 8th-order state. Twelve flow evaluations, each
    written straight into its row of K with `_flow`'s work arrays `work`.
    Every stage state is built in the one array the step returns,
    v + h (row @ K[:i]) bitwise, so that state is new each step and aliases
    neither K nor `work`."""
    u = np.empty_like(v)
    for i, row in enumerate(_A, start=1):
        np.dot(row, K[:i], out=u)
        u *= h
        u += v
        _flow(u, g, p, K[i], work)
    return u


def _first_step(v: np.ndarray, f0: np.ndarray, g: Grid, p: float) -> float:
    """The starting step of Hairer, Norsett & Wanner (Solving ODEs I, sec. II.4;
    Gladwell, Shampine & Brankin 1987) for the 8th-order pair, from the state v
    and its flow f0, at the cost of one flow evaluation.

    Norms are the error control's: per node scaled by ATOL + RTOL |v|, in the
    max norm, so the step does not depend on N. h0 = 0.01 |v| / |f0| (1e-6 when
    either norm is below 1e-5) sizes one explicit Euler probe, whose flow change
    gives d2 = |f(v + h0 f0) - f0| / h0; the step is
    min(100 h0, (0.01 / max(|f0|, d2))^(1/8)), or min(100 h0, max(1e-6, 1e-3 h0))
    when both are below 1e-15. A non-finite norm or probe returns
    RECORD_INTERVAL / 100.
    """
    scale = ATOL + RTOL * np.abs(v)
    with np.errstate(over="ignore", invalid="ignore"):
        dv = float(np.max(np.abs(v) / scale))
        df = float(np.max(np.abs(f0) / scale))
        if not math.isfinite(df):
            return RECORD_INTERVAL / 100
        h0 = 0.01 * dv / df if dv >= 1e-5 and df >= 1e-5 else 1e-6
        d2 = float(np.max(np.abs(_flow(v + h0 * f0, g, p) - f0) / scale)) / h0
    if not math.isfinite(d2):
        return RECORD_INTERVAL / 100
    d = max(df, d2)
    return min(100.0 * h0, (0.01 / d) ** 0.125 if d > 1e-15 else max(1e-6, 1e-3 * h0))


def stream(u0: Field, p: float, t_end: float, dt: float = 0.0) -> Iterator[Frame]:
    """One Frame per record time, from error-controlled DOP853 steps of the
    flow of exponent p on u0's grid.

    dt is the first trial step, not a cap: the error control picks every
    later step. dt = 0, the default, takes `_first_step` from u0 instead, one
    flow evaluation more. dt >= 0 and finite t_end > 0 are checked when the
    first frame is asked for, since this is a generator; ValueError otherwise.

    Each embedded estimate is scaled per node by ATOL + RTOL max(|v|, |v_new|)
    and measured in the max norm, giving err5 and err3; a step is accepted when
    err = err5^2 / sqrt(err5^2 + 0.01 err3^2) is at most 1. The next step is
    the current one times 0.9 err^(-1/8), clipped to [1/3, 6], and does not
    grow right after a rejection. A trial step with a non-finite stage or
    estimate is rejected and the step cut to 1/100; a rejected step below 1e-10
    RECORD_INTERVAL raises BlowupError as a step collapse, naming the step and
    its error estimate. Frames fall at t = 0 (before any flow evaluation), at
    each k * RECORD_INTERVAL < t_end and at t_end, hit exactly by shortening
    steps. One stage array and one set of flow work arrays serve every
    step; each step's state is a new array.

    Each frame transforms its state once. From that transform it takes Q by
    Parseval and then (so that BlowupError on a non-finite E or Q wins) the
    relative tail over rfft bins [cut/2, cut), raising UnresolvedError when
    the tail exceeds both 10 times the t = 0 value and sqrt(TAIL_TOL).
    """
    g = u0.grid
    if not (dt >= 0 and t_end > 0 and math.isfinite(t_end)):
        raise ValueError("dt >= 0 (0 = estimate) and t_end > 0 required")
    # the frames after t = 0; the k-th falls at k * RECORD_INTERVAL, the last at t_end
    n_rec = max(1, math.ceil(t_end / RECORD_INTERVAL - 1e-9))
    v, accepted, rejected = u0.values.copy(), 0, 0
    lo, hi, limit = g.dealias_cut // 2, g.dealias_cut, None

    def frame(t: float) -> Frame:
        nonlocal limit
        f = Field(g, v)  # v is replaced, never written in place
        try:
            E = energy(f, p)
        except GridError as exc:  # a finite state whose E density overflows
            raise BlowupError(t) from exc
        v_hat = np.fft.rfft(v)
        Q = 0.5 * _parseval_h1_sq(v_hat, g)
        if not math.isfinite(Q):
            raise BlowupError(t)
        tail = _tail(v_hat, lo, hi)
        if limit is None:  # the t = 0 frame sets it
            limit = max(10.0 * tail, math.sqrt(TAIL_TOL))
        if tail > limit:
            raise UnresolvedError(
                f"relative spectral tail {tail:.2e} over bins [{lo}, {hi}) at t={t:.6g} "
                f"exceeds {limit:.2e}: N={g.points} does not resolve the run", tail
            )
        return Frame(t, f, E, Q, accepted, rejected, evals)

    evals = 0
    yield frame(0.0)
    # the stage array and the flow's work arrays, sized once for every step
    K = np.empty((len(_A) + 1, v.size))
    work = (np.empty(v.size), np.empty(v.size), np.empty(v.size // 2 + 1, complex))
    _flow(v, g, p, K[0], work)
    t, h, after_reject, evals = 0.0, dt, False, 1
    if not h:
        h, evals = _first_step(v, K[0], g, p), 2
    for k in range(1, n_rec + 1):
        t_rec = t_end if k == n_rec else k * RECORD_INTERVAL
        while t < t_rec:
            h_try = min(h, t_rec - t)
            evals += 12
            with np.errstate(over="ignore", invalid="ignore"):
                v_new = _dop853(v, K, h_try, g, p, work)
                scale = ATOL + RTOL * np.maximum(np.abs(v), np.abs(v_new))
                e5, e3 = (h_try * float(np.max(np.abs(e @ K[:-1]) / scale))
                          for e in (_E5, _E3))
            if math.isfinite(e5) and math.isfinite(e3):
                # err5^2 / sqrt(err5^2 + 0.01 err3^2), with no square to overflow
                err = e5 / math.hypot(1.0, 0.1 * e3 / e5) if e5 else 0.0
                fac = min(6.0, max(1 / 3, 0.9 * err ** -0.125)) if err else 6.0
            else:
                err, fac = math.inf, 0.01
            if err > 1.0:
                rejected += 1
                if h_try < 1e-10 * RECORD_INTERVAL:
                    raise BlowupError(t, f"step collapse at t={t:.6g}: trial step {h_try:.3e} "
                                         f"< 1e-10 RECORD_INTERVAL rejected at error {err:.3e}")
                h, after_reject = h_try * fac, True
                continue
            accepted += 1
            t = t_rec if h_try == t_rec - t else t + h_try
            v, K[0] = v_new, K[-1]
            h, after_reject = h_try * (min(fac, 1.0) if after_reject else fac), False
        yield frame(t_rec)


def evolve(u0: Field, p: float, t_end: float, dt: float = 0.0) -> tuple[Frame, ...]:
    """Integrate to t_end: every frame of `stream`, collected."""
    return tuple(stream(u0, p, t_end, dt))

