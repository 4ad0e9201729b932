"""U(N) heat-kernel asymptotics on the supercritical branch T > pi^2.

Complete elliptic integrals K(k), E(k) are computed by the arithmetic-
geometric mean iteration, parametrized internally by the complementary
parameter m1 = 1 - k^2: near k -> 1 the modulus rounds to 1.0 in double
precision long before K diverges, while m1 stays resolvable down to ~1e-300.
The time parametrization is T = 4K(2E - (1-k^2)K); its inversion and the
free energy F(T) follow the same m1-based stable forms (log m1 is carried
directly, never via log(1 - k^2)). For small m1 the closed form of F cancels
terms of size T/8 down to F ~ m1^2/128, so that regime is evaluated from its
series in m1 instead.
"""

from __future__ import annotations

import math

from .errors import DomainError

PI_SQ = math.pi * math.pi


# ---------------------------------------------------------------------------
# Elliptic integrals (AGM)


def _agm_ke_m1(m1: float):
    """(K, E) from the complementary parameter m1 = 1 - k^2, 0 < m1 <= 1."""
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


class EllipticValues:
    __slots__ = ("k", "K", "E")

    def __init__(self, k, K, E):
        self.k = k
        self.K = K
        self.E = E

    def __repr__(self):
        return "EllipticValues(k=%r, K=%r, E=%r)" % (self.k, self.K, self.E)


def elliptic_ke(k: float) -> EllipticValues:
    """Complete elliptic integrals of the first and second kind."""
    if not 0.0 <= k < 1.0:
        raise DomainError("modulus must satisfy 0 <= k < 1, got %r" % k)
    # m1 via (1-k)(1+k) keeps full precision for k near 1
    m1 = (1.0 - k) * (1.0 + k)
    K, E = _agm_ke_m1(m1)
    return EllipticValues(k, K, E)


def elliptic_ke_m1(m1: float):
    """(K, E) directly from m1 = 1 - k^2 (stable deep into the k -> 1 corner)."""
    K, E = _agm_ke_m1(m1)
    return K, E


def dK_dk(k: float) -> float:
    v = elliptic_ke(k)
    return (v.E - (1.0 - k * k) * v.K) / (k * (1.0 - k * k))

def dE_dk(k: float) -> float:
    v = elliptic_ke(k)
    return (v.E - v.K) / k


# ---------------------------------------------------------------------------
# The supercritical parametrization T(k) and its inversion


def _T_of_m1(m1: float) -> float:
    K, E = _agm_ke_m1(m1)
    return 4.0 * K * (2.0 * E - m1 * K)


def T_of_k(k: float) -> float:
    """T = 4K(2E - (1-k^2)K); T(0) = pi^2, increasing in k."""
    v = elliptic_ke(k)
    return 4.0 * v.K * (2.0 * v.E - (1.0 - k * k) * v.K)


def invert_T(T: float) -> float:
    """The unique modulus k with T(k) = T, for T on the supercritical branch.

    For very large T the exact modulus is closer to 1 than the nearest double;
    the returned value then rounds to 1.0 (use the internal log-m1 inversion
    where more resolution matters).
    """
    return math.sqrt(max(0.0, -math.expm1(_invert_T_log_m1(T))))


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
    K, E = _agm_ke_m1(m1)
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


# ---------------------------------------------------------------------------
# N = 1 sanity case: heat kernel on the circle


def circle_heat_kernel(theta: float, t: float, terms: int = 64) -> float:
    """Heat-kernel density on U(1) = the circle (normalized Haar measure),
    truncated theta series: p_t(theta) = sum_m e^{-m^2 t / 2} e^{i m theta}."""
    if t <= 0:
        raise DomainError("time must be positive")
    total = 1.0
    for m in range(1, terms + 1):
        total += 2.0 * math.exp(-0.5 * m * m * t) * math.cos(m * theta)
    return total
