"""Machine-speed reference for one workload: no gbbmlab code runs here.

    python3 bench/speed.py WORKLOAD LAUNCHED

Prints ``{"import_s": ..., "kernel_s": ...}``: the seconds from LAUNCHED (the
parent's ``time.time()`` at start) until numpy and scipy.linalg are imported,
the same kind of work as a command's set-up, and the seconds of a fixed numpy
kernel of the kind of work that dominates the workload's commands. run.py
runs this before every repetition and divides the machine's current speed
out of the times it reports.
"""
import json
import sys
import time


def fft_power(np, linalg):
    """FFT pairs at N = 8192 with a fractional power, as in an RK4 stage."""
    x = np.cos(np.linspace(-40.0, 40.0, 8192))
    for _ in range(250):
        x = np.fft.irfft(np.fft.rfft(x + np.sign(x) * np.abs(x) ** 5.5) * 0.5, n=8192)


def array_math(np, linalg):
    """Log-sech profiles and finite-difference stencils on 2^20 nodes."""
    x = np.linspace(-160.0, 160.0, (1 << 20) + 1)
    for _ in range(6):
        az = np.abs(x)
        v = np.exp(0.4 * (np.log(2.0) - az - np.log1p(np.exp(-2.0 * az))))
        (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) * x[2:-2]
        np.tanh(az) * v


def dense(np, linalg):
    """Economic QR of an n x (n+2) matrix and a lowest-eigenvalue eigh, n = 1000."""
    n = 1000
    a = np.cos(np.add.outer(np.arange(n, dtype=float), np.arange(n + 2.0)))
    q, _ = linalg.qr(a, mode="economic")
    t = q.T @ q[:, :n] + np.eye(n)
    linalg.eigh(t, eigvals_only=True, subset_by_index=[0, 0])


KERNELS = {
    "soliton_evolve": fft_power,
    "instability_scan": fft_power,
    "negativity_table": array_math,
    "weinstein_spectral": dense,
}
# typical seconds on the 2-core machine the benchmark was defined on; run.py
# scales measured times by nominal / measured, so only their ratio matters
NOMINAL_IMPORT_S = 0.45
NOMINAL_KERNEL_S = {fft_power: 0.16, array_math: 0.2, dense: 0.25}


def nominal_s(workload: str) -> float:
    """Typical import_s + kernel_s of this workload's reference."""
    return NOMINAL_IMPORT_S + NOMINAL_KERNEL_S[KERNELS[workload]]


def main(argv) -> int:
    kernel, launched = KERNELS[argv[1]], float(argv[2])
    import numpy as np
    import scipy.linalg

    import_s = time.time() - launched
    t0 = time.perf_counter()
    kernel(np, scipy.linalg)
    print(json.dumps({"import_s": import_s, "kernel_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
