"""Slow reference paths that the library's fast paths are tested against.

Each function here computes, by a simpler or older method, what a library
function computes. No command needs them, so they live with the tests.
"""
import numpy as np


def second_difference_4(v: np.ndarray, h: float) -> np.ndarray:
    """The 4th-order central second difference (-1, 16, -30, 16, -1)/(12 h^2),
    2nd-order at the two nodes next to each end: the Dirichlet grids' second
    derivative before `grid._fd_derivative` took the 8th-order interior."""
    out = np.empty_like(v)
    out[2:-2] = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * h * h)
    out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
    out[1] = (v[0] - 2 * v[1] + v[2]) / (h * h)
    out[-2] = (v[-3] - 2 * v[-2] + v[-1]) / (h * h)
    out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / (h * h)
    return out
