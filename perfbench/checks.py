"""Correctness checks on the program's outputs.

Each function takes numbers (or CSV cells) that the program produced and the
inputs the benchmark gave it, and returns whether the output is acceptable.
The reference values come from ``oracles``, never from liblab.
"""

from __future__ import annotations

import math
import re

import oracles

# Monte Carlo band: BAND_SE standard errors. With 16 paths the studentized
# error of a correct stepper exceeds 8 with probability below 1e-6 per cell,
# so the band holds at any seed in practice.
BAND_SE = 8.0
EXACT_TOL = 1e-9  # closed forms, symmetries and the Prop 8.1 pairing
RATE_VALUE_TOL = 1e-8  # the rate integrand is <= 0 at its minimizer

PASS, KEPT_FAULT, FAIL = "pass", "kept-fault", "fail"
_NP_FLOAT = re.compile(r"^np\.float64\((.*)\)$")


def ubm_band(n, t, empirical, stderr, N, h):
    """Check (a) of ubm-ensemble: the empirical moment lies within
    BAND_SE * stderr + 2 / N^2 + (the scheme's O(h) bias) of Biane's value."""
    target = oracles.biane_moment(n, t)
    band = BAND_SE * stderr + 2.0 / N**2 + oracles.scheme_bias(n, t, h)
    return abs(empirical - target) <= band


def ubm_ode_cell(text, n, t):
    """Check (b) of ubm-ensemble on the raw ``ode`` cell.

    PASS for a plain number within EXACT_TOL of Biane's value. KEPT_FAULT for
    the known fault: a correct value written as ``np.float64(...)``, which is
    not a plain number. FAIL for anything else.
    """
    target = oracles.biane_moment(n, t)
    match = _NP_FLOAT.match(text)
    try:
        value = float(match.group(1) if match else text)
    except ValueError:
        return FAIL
    if abs(value - target) > EXACT_TOL:
        return FAIL
    return KEPT_FAULT if match else PASS


def metric_in_range(d, m_max, l_max):
    return 0.0 <= d <= oracles.metric_ceiling(m_max, l_max)


def metric_converges(d_small_n, d_large_n):
    """Mean distance at the larger N is below the mean at the smaller N."""
    return sum(d_large_n) / len(d_large_n) < sum(d_small_n) / len(d_small_n)


def close(value, reference, tol=EXACT_TOL):
    return abs(complex(value) - reference) <= tol


def rotation_invariant(value, rotated):
    return close(rotated, complex(value))


def reversal_conjugates(value, reversed_value):
    return close(reversed_value, complex(value).conjugate())


def rate_value(value):
    return value <= RATE_VALUE_TOL


def rate_quadratic(quadratic):
    return quadratic >= 0.0


def pairing(residual):
    return math.isfinite(residual) and residual <= EXACT_TOL
