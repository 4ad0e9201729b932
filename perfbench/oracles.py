"""Reference values computed apart from liblab.

Nothing here imports the program. Every formula comes from the literature:

- Biane's closed form for the moments of free unitary Brownian motion
  (Biane 1997, "Free Brownian motion, free stochastic calculus and random
  matrices").
- The large-N moments of the stepping scheme ``U(t+h) = exp(i sqrt(h) H) U(t)``:
  the factors are free and identically distributed, each with the law of
  ``exp(i sqrt(h) s)`` for a standard semicircular ``s``, so the S-transform of
  the product is the K-th power of one factor's (Voiculescu's multiplicative
  free convolution). The gap between these moments and Biane's is the O(h)
  bias of the scheme.
- Two free trace-1/2 projections p, q: ``pq`` has law 1/2 delta_0 + 1/2
  arcsine, so tau((pq)^k) = 1/2 C(2k, k) / 4^k (Nica-Speicher, Lecture 14).
- For p free from a unitary v: tau(p v p v*) = tau(p)^2 + (tau(p) - tau(p)^2)
  |tau(v)|^2, which for one liberated projection at times s, t gives
  1/4 + 1/4 e^{-|t-s|}.
"""

from __future__ import annotations

import math


def biane_moment(n: int, t: float) -> float:
    """n-th moment of free unitary Brownian motion at time t (n >= 1)."""
    total = 0.0
    for k in range(n):
        total += (-t) ** k / math.factorial(k) * n ** (k - 1) * math.comb(n, k + 1)
    return math.exp(-n * t / 2.0) * total


def semicircle_char(theta: float) -> float:
    """E exp(i theta s) for a standard semicircular s: J_1(2 theta) / theta."""
    total, term, j = 0.0, 1.0, 0
    while True:
        total += term
        j += 1
        term *= -theta * theta / (j * (j + 1))
        if abs(term) < 1e-18:
            return total + term


# -- truncated power series in z, as coefficient lists [c_0, ..., c_n] --------


def _mul(a, b):
    n = len(a)
    out = [0.0] * n
    for i, ai in enumerate(a):
        if ai:
            for j in range(n - i):
                out[i + j] += ai * b[j]
    return out


def _pow(a, k):
    out = [1.0] + [0.0] * (len(a) - 1)
    base = a
    while k:
        if k & 1:
            out = _mul(out, base)
        base = _mul(base, base)
        k >>= 1
    return out


def _compose(f, g):
    """f(g(z)) for g with zero constant term."""
    out = [0.0] * len(f)
    power = [1.0] + [0.0] * (len(f) - 1)
    for c in f:
        out = [o + c * p for o, p in zip(out, power)]
        power = _mul(power, g)
    return out


def _inverse(f):
    """Compositional inverse of f(z) = f_1 z + f_2 z^2 + ... (f_1 != 0)."""
    n = len(f)
    g = [0.0, 1.0 / f[1]] + [0.0] * (n - 2)
    for _ in range(n):
        fg = _compose(f, g)
        fg[1] -= 1.0
        g = [gi - ri / f[1] for gi, ri in zip(g, fg)]
    return g


def scheme_moments(n_max: int, t: float, h: float) -> list:
    """Large-N moments m_1..m_{n_max} of ``U(t) = exp(i sqrt(h) H_K) ... exp(i sqrt(h) H_1)``
    with K = t / h steps of independent GUE generators (E tr H^2 = 1)."""
    steps = round(t / h)
    if steps == 0:
        return [1.0] * n_max
    root = math.sqrt(h)
    psi = [0.0] + [semicircle_char(n * root) for n in range(1, n_max + 1)]
    chi = _inverse(psi)
    # S(z) = chi(z) (1 + z) / z; the product's S is the steps-th power, and
    # chi_U(z) = S_U(z) z / (1 + z) = chi(z)^steps ((1 + z) / z)^(steps - 1).
    one_plus = [1.0, 1.0] + [0.0] * (n_max - 1)
    s_factor = _mul(chi[1:] + [0.0], one_plus)  # chi(z) (1 + z) / z
    s_total = _pow(s_factor, steps)
    geometric = [(-1.0) ** k for k in range(n_max + 1)]  # 1 / (1 + z)
    chi_u = [0.0] + _mul(s_total, geometric)[:n_max]
    return _inverse(chi_u)[1:]


def scheme_bias(n: int, t: float, h: float) -> float:
    """|large-N moment of the h-step scheme - Biane's moment| at order n."""
    if t == 0:
        return 0.0
    return abs(scheme_moments(n, t, h)[n - 1] - biane_moment(n, t))


def projection_pair_moment(length: int) -> float:
    """tau of an alternating word of the given length in two free trace-1/2
    projections, each carrying one time: 1/2 at length 1, otherwise
    1/2 C(2k, k) / 4^k with k = length // 2."""
    if length == 1:
        return 0.5
    k = length // 2
    return 0.5 * math.comb(2 * k, k) / 4**k


def two_time_moment(s: float, t: float) -> float:
    """tau(x(s) x(t)) for one liberated trace-1/2 projection."""
    return 0.25 + 0.25 * math.exp(-abs(t - s))


def metric_ceiling(m_max: int, l_max: int) -> float:
    """Largest value of the truncated trajectory metric: sum of 2^{-m-l}."""
    return sum(2.0 ** (-m - l) for m in range(1, m_max + 1) for l in range(1, l_max + 1))
