"""Elliptic integrals from m1 = 1 - k^2, the supercritical parametrization
T(m1) and its inversion, the free energy and the sandwich bounds."""

import math

import mpmath
import pytest
from scipy.integrate import quad
from scipy.special import ellipe, ellipkm1

from liblab import heatkern
from liblab.errors import DomainError
from liblab.heatkern import (
    PI_SQ,
    FreeEnergyPoint,
    _T_of_m1,
    elliptic_ke_m1,
    free_energy_F,
    liyau_sandwich,
)


def ke_of_k(k):
    """(K, E) at modulus k, through m1 = (1 - k)(1 + k)."""
    return elliptic_ke_m1((1 - k) * (1 + k))


class TestElliptic:
    def test_k_zero(self):
        K, E = ke_of_k(0.0)
        assert abs(K - math.pi / 2) < 1e-14
        assert abs(E - math.pi / 2) < 1e-14

    def test_against_scipy(self):
        for k in (0.05, 0.3, 0.5, 0.8, 0.95, 0.999):
            K, E = ke_of_k(k)
            m1 = (1 - k) * (1 + k)
            assert abs(K - ellipkm1(m1)) < 1e-12
            assert abs(E - ellipe(k * k)) < 1e-12

    def test_against_direct_quadrature(self):
        # second independent route: numerical integration of the definitions
        for k in (0.2, 0.7):
            K_q = quad(lambda s: 1 / math.sqrt((1 - s * s) * (1 - k * k * s * s)), 0, 1)[0]
            E_q = quad(lambda s: math.sqrt(1 - k * k * s * s) / math.sqrt(1 - s * s), 0, 1)[0]
            K, E = ke_of_k(k)
            assert abs(K - K_q) < 1e-9
            assert abs(E - E_q) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            ke_of_k(1.0)

    def test_invariant_ordering(self):
        for k in (0.1, 0.5, 0.9):
            K, E = ke_of_k(k)
            assert K >= math.pi / 2
            assert E <= math.pi / 2
            assert E <= K

    def test_log_divergence_of_K(self):
        diffs = []
        for m in range(2, 9):
            k = 1 - 10.0**-m
            m1 = (1 - k) * (1 + k)
            K, _ = elliptic_ke_m1(m1)
            diffs.append(K - math.log(4 / math.sqrt(m1)))
        assert all(a > b for a, b in zip(diffs, diffs[1:]))
        assert abs(diffs[-1]) < 1e-4

    def test_E_limit_rate(self):
        vals = []
        for m in range(2, 9):
            k = 1 - 10.0**-m
            _, E = elliptic_ke_m1((1 - k) * (1 + k))
            vals.append((E - 1) / math.sqrt(1 - k))
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_K_times_power_vanishes(self):
        vals = []
        for m in range(2, 9):
            k = 1 - 10.0**-m
            K, _ = elliptic_ke_m1((1 - k) * (1 + k))
            vals.append((1 - k) ** 0.25 * K)
        assert all(a > b for a, b in zip(vals, vals[1:]))

class TestInvertT:
    def test_boundary_value(self):
        assert abs(_T_of_m1(1.0) - PI_SQ) < 1e-12

    def test_monotone(self):
        m1s = [0.1 * q for q in range(1, 11)]
        Ts = [_T_of_m1(m1) for m1 in m1s]
        assert all(a > b for a, b in zip(Ts, Ts[1:]))

    def test_round_trip(self):
        for k in (0.2, 0.5, 0.8, 0.99):
            m1 = (1 - k) * (1 + k)
            assert abs(FreeEnergyPoint(_T_of_m1(m1)).m1 - m1) < 1e-9 * m1

    def test_residual(self):
        # m1 keeps the resolution that k loses near k -> 1 (past T ~ 350 k
        # rounds to exactly 1.0), so the residual is checked in m1
        for T in (12.0, 25.0, 100.0, 400.0, 1000.0):
            assert abs(_T_of_m1(FreeEnergyPoint(T).m1) - T) < 1e-9 * T

    def test_domain(self):
        with pytest.raises(DomainError):
            FreeEnergyPoint(PI_SQ)
        with pytest.raises(DomainError):
            FreeEnergyPoint(5.0)


class TestFreeEnergy:
    def test_finite_on_range(self):
        for T in (12, 15, 50, 100, 200, 400):
            F = free_energy_F(T)
            assert math.isfinite(F)

    def test_decays_toward_zero(self):
        # signed: p_T(I) >= 1 makes F >= 0, so a negative value is an error
        assert 0.0 < free_energy_F(400) < free_energy_F(50) < free_energy_F(15)

    @pytest.mark.parametrize("T", [12, 20, 25, 50, 100, 200, 400])  # 25: series side of the switch
    def test_against_mpmath(self, T):
        # the same closed form in 200-digit arithmetic: forming 1 - m1 costs
        # ~T/9 digits and the cancellation down to F ~ 2 e^{-T/2} another
        # ~T/5, which still leaves > 60 digits at T = 400
        with mpmath.workdps(200):

            def m1_K_G(log_m1):
                m1 = mpmath.exp(log_m1)
                K = mpmath.ellipk(1 - m1)
                return m1, K, 2 * mpmath.ellipe(1 - m1) - m1 * K

            def T_minus(log_m1):
                _m1, K, G = m1_K_G(log_m1)
                return 4 * K * G - T

            # T falls from ~1000 at log m1 = -250 to pi^2 at m1 = 1; findroot
            # verifies the residual itself
            log_m1 = mpmath.findroot(T_minus, (-250, -1e-9), solver="anderson")
            m1, K, G = m1_K_G(log_m1)
            exact = (
                K * G / 6
                + (log_m1 - mpmath.log(4) - 2 * mpmath.log(G)) / 2
                + 2 * (2 - m1) * K / (3 * G)
                + (m1 * K) ** 2 / (12 * G * G)
            )
            assert exact > 0
            assert abs(free_energy_F(T) - exact) <= 1e-6 * exact

    def test_continuity(self):
        T, d = 20.0, 1e-4
        assert abs(free_energy_F(T + d) - free_energy_F(T)) < 1.0 * d * 100

    def test_near_transition_finite(self):
        assert math.isfinite(free_energy_F(PI_SQ + 0.01))

    def test_monotone_decreasing_sampled(self):
        Ts = [15, 25, 50, 100, 200, 400]
        vals = [free_energy_F(T) for T in Ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_point_invariant(self):
        pt = FreeEnergyPoint(40.0)
        assert abs(_T_of_m1(pt.m1) - 40.0) < 1e-8 * 40.0
        # past T ~ 150 k rounds to 1.0; m1 keeps the point's resolution
        pt = FreeEnergyPoint(200.0)
        assert pt.k == 1.0
        assert abs(_T_of_m1(pt.m1) - 200.0) < 1e-9 * 200.0
        assert pt.F == heatkern.free_energy_F(200.0)


class TestSandwich:
    def test_low_below_high_grid(self):
        for qe in range(1, 20):
            eps = qe / 20
            for qt in range(1, 21):
                T = 15 + (400 - 15) * qt / 20
                if eps * T <= PI_SQ + 1e-6:
                    continue
                low, high = liyau_sandwich(T, eps)
                assert low <= high

    def test_low_bound_pointwise(self):
        for T in (12, 20, 50, 100, 200, 400):
            low, high = liyau_sandwich(T, 0.9)
            assert low <= free_energy_F(T)

    def test_gap_closes_in_the_iterated_limit(self):
        # at fixed eps the gap is dominated by pi^2/(2(1-eps)T): it closes
        # only for T >> pi^2/(1-eps)
        low, high = liyau_sandwich(2.0e4, 0.99)
        assert high - low < 0.1
        g1 = liyau_sandwich(1.0e3, 0.99)
        g2 = liyau_sandwich(1.0e4, 0.99)
        assert (g2[1] - g2[0]) < (g1[1] - g1[0])

    def test_domain(self):
        with pytest.raises(DomainError):
            liyau_sandwich(12.0, 0.5)  # eps*T subcritical
        with pytest.raises(DomainError):
            liyau_sandwich(100.0, 1.5)

    def test_half_eps_uses_shrunk_argument(self):
        T = 4 * PI_SQ
        low, high = liyau_sandwich(T, 0.5)
        expected = free_energy_F(2 * PI_SQ) + 0.5 * math.log(0.5) - PI_SQ / T
        assert abs(low - expected) < 1e-12

