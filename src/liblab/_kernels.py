"""Elementwise numeric kernels around the stepper's eigendecomposition:
GUE assembly before ``eigh`` and the phase reconstruction after it."""

from __future__ import annotations

import math

import numpy as np


def assemble_gue(A, B):
    """H = (G + G^H) / sqrt(4N) with G = A + iB; E tr_N H^2 = 1."""
    N = A.shape[-1]
    G = A + 1j * B
    return (G + np.conjugate(np.swapaxes(G, -1, -2))) / math.sqrt(4.0 * N)


def phase_scale(V, w, sqrt_h):
    """exp(i sqrt(h) H) from the eigensystem of H: (V * e^{i sqrt(h) w}) V^H."""
    phases = np.exp(1j * sqrt_h * w)
    return (V * phases[..., None, :]) @ np.conjugate(np.swapaxes(V, -1, -2))
