"""U(N) heat-kernel asymptotics on the supercritical branch T > pi^2.

The complete elliptic integrals K, E are computed by the arithmetic-geometric
mean iteration from the complementary parameter m1 = 1 - k^2 only: near
k -> 1 the modulus rounds to 1.0 in double precision long before K diverges,
while m1 stays resolvable down to ~1e-300. The time parametrization is
T = 4K(2E - m1 K); its inversion (bisection in log m1, carried directly,
never via log(1 - k^2)), the free energy F(T) and the Li-Yau sandwich follow
the same m1-based stable forms. For small m1 the closed form of F cancels
terms of size T/8 down to F ~ m1^2/128, so that regime is evaluated from its
series in m1 instead.
"""

from __future__ import annotations

import math

from .errors import DomainError

PI_SQ = math.pi * math.pi


# ---------------------------------------------------------------------------
# Elliptic integrals (AGM)


def elliptic_ke_m1(m1: float):
    """(K, E) from the complementary parameter m1 = 1 - k^2, 0 < m1 <= 1
    (stable deep into the k -> 1 corner)."""
    if not 0.0 < m1 <= 1.0:
        raise DomainError("complementary parameter must be in (0, 1], got %r" % m1)
    a, b = 1.0, math.sqrt(m1)
    c_sq_sum = 0.5 * (1.0 - m1)  # 2^{-1} c_0^2 with c_0^2 = a0^2 - b0^2 = k^2
    pow2 = 1.0
    for _ in range(60):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        pow2 *= 2.0
        c_sq_sum += 0.5 * pow2 * c * c
        if c == 0.0 or abs(c) < 1e-18 * a:
            break
    K = math.pi / (2.0 * a)
    E = K * (1.0 - c_sq_sum)
    return K, E


# ---------------------------------------------------------------------------
# The supercritical parametrization T(m1) and its inversion


def _T_of_m1(m1: float) -> float:
    """T = 4K(2E - m1 K); T(m1 = 1) = pi^2, decreasing in m1."""
    K, E = elliptic_ke_m1(m1)
    return 4.0 * K * (2.0 * E - m1 * K)


# For T beyond this, m1 = 1 - k^2 underflows double precision; the AGM branch
# is replaced by the K = T/8 asymptotics (error O(e^{-T/4}), far below noise).
_T_ASYMPTOTIC = 2000.0


def _invert_T_log_m1(T: float) -> float:
    """Inversion in log(m1) coordinates (T is decreasing in m1)."""
    if not T > PI_SQ + 1e-8:
        raise DomainError("supercritical branch needs T > pi^2, got %r" % T)
    if T > _T_ASYMPTOTIC:
        # T ~ 8K and K ~ log(4/sqrt(m1))
        return 2.0 * (math.log(4.0) - T / 8.0)
    lo, hi = math.log(1e-300), 0.0  # log m1 bracket; T(1e-300) ~ 2.8e3 > T
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _T_of_m1(math.exp(mid)) >= T:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Free energy and the sandwich


# Below this m1 (T > ~24) F comes from its small-m1 series; both branches
# agree with a 100-digit evaluation of the closed form to ~3e-9 relative here.
_M1_SERIES = 0.04

# F = sum_i m1^(i+2) sum_j c_ij L^j with L = log(4/sqrt(m1)), exact through
# m1^7 (truncation error O(m1^8 L^5)). Obtained by inserting the logarithmic
# series of K and E (DLMF 19.12.1-2) into the closed form below.
_SMALL_M1_SERIES = (
    (1 / 128,),
    (1 / 128,),
    (463 / 65536, -1 / 4096, -3 / 2048),
    (209 / 32768, 1 / 4096, -3 / 1024),
    (18023 / 3145728, 141 / 131072, -541 / 131072, 5 / 49152, 1 / 12288),
    (16087 / 3145728, 523 / 262144, -673 / 131072, 11 / 49152, 1 / 4096),
)


def _free_energy_from_m1(m1: float) -> float:
    if m1 < _M1_SERIES:
        L = math.log(4.0) - 0.5 * math.log(m1)  # K ~ L as m1 -> 0
        total = 0.0
        for row in reversed(_SMALL_M1_SERIES):
            total = total * m1 + sum(c * L**j for j, c in enumerate(row))
        return total * m1 * m1
    K, E = elliptic_ke_m1(m1)
    G = 2.0 * E - m1 * K  # T = 4 K G
    log_term = 0.5 * (math.log(m1) - math.log(4.0) - 2.0 * math.log(G))
    return (
        K * G / 6.0
        + log_term
        + 2.0 * (2.0 - m1) * K / (3.0 * G)
        + (m1 * K) ** 2 / (12.0 * G * G)
    )


class FreeEnergyPoint:
    """T with its m1 = 1 - k^2, modulus k and free energy F, from one inversion
    of T. Past T ~ 150 k rounds to 1.0; m1 keeps the point's resolution."""

    __slots__ = ("T", "m1", "k", "F")

    def __init__(self, T):
        log_m1 = _invert_T_log_m1(T)
        self.T = T
        self.m1 = math.exp(log_m1)
        self.k = math.sqrt(max(0.0, 1.0 - self.m1))
        if log_m1 < math.log(1e-290):
            # F ~ m1^2/128 ~ 2 e^{-T/2}, far below the smallest double here
            self.F = 0.0
        else:
            self.F = _free_energy_from_m1(self.m1)


def free_energy_F(T: float) -> float:
    """F(T) = lim (1/N^2) log p_{N,T}(I_N) on the branch T > pi^2."""
    return FreeEnergyPoint(T).F


def liyau_sandwich(T: float, eps: float):
    """(low, high) with low = F(eps T) + (1/2) log eps - pi^2 / (2 (1-eps) T)
    and high = F(T); both endpoints must be supercritical."""
    if not 0.0 < eps < 1.0:
        raise DomainError("eps must lie in (0, 1), got %r" % eps)
    if not eps * T > PI_SQ + 1e-8:
        raise DomainError("eps*T = %r is not supercritical" % (eps * T,))
    low = free_energy_F(eps * T) + 0.5 * math.log(eps) - PI_SQ / (2.0 * (1.0 - eps) * T)
    high = free_energy_F(T)
    return low, high

