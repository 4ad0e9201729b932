"""Elliptic integrals, the supercritical free energy, the sandwich bounds,
and the circle heat kernel."""

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
    T_of_k,
    circle_heat_kernel,
    dE_dk,
    dK_dk,
    elliptic_ke,
    elliptic_ke_m1,
    free_energy_F,
    invert_T,
    liyau_sandwich,
)


class TestElliptic:
    def test_k_zero(self):
        v = elliptic_ke(0.0)
        assert abs(v.K - math.pi / 2) < 1e-14
        assert abs(v.E - math.pi / 2) < 1e-14

    def test_against_scipy(self):
        for k in (0.05, 0.3, 0.5, 0.8, 0.95, 0.999):
            v = elliptic_ke(k)
            m1 = (1 - k) * (1 + k)
            assert abs(v.K - ellipkm1(m1)) < 1e-12
            assert abs(v.E - ellipe(k * k)) < 1e-12

    def test_against_direct_quadrature(self):
        # second independent route: numerical integration of the definitions
        for k in (0.2, 0.7):
            K_q = quad(lambda s: 1 / math.sqrt((1 - s * s) * (1 - k * k * s * s)), 0, 1)[0]
            E_q = quad(lambda s: math.sqrt(1 - k * k * s * s) / math.sqrt(1 - s * s), 0, 1)[0]
            v = elliptic_ke(k)
            assert abs(v.K - K_q) < 1e-9
            assert abs(v.E - E_q) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            elliptic_ke(1.0)
        with pytest.raises(DomainError):
            elliptic_ke(-0.1)

    def test_invariant_ordering(self):
        for k in (0.1, 0.5, 0.9):
            v = elliptic_ke(k)
            assert v.K >= math.pi / 2
            assert v.E <= math.pi / 2
            assert v.E <= v.K

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

    def test_derivative_closed_forms(self):
        eps = 1e-6
        for k in [0.1 * q for q in range(1, 10)]:
            fd_K = (elliptic_ke(k + eps).K - elliptic_ke(k - eps).K) / (2 * eps)
            fd_E = (elliptic_ke(k + eps).E - elliptic_ke(k - eps).E) / (2 * eps)
            assert abs(fd_K - dK_dk(k)) < 1e-6 * max(1, abs(dK_dk(k)))
            assert abs(fd_E - dE_dk(k)) < 1e-6


class TestInvertT:
    def test_boundary_value(self):
        assert abs(T_of_k(0.0) - PI_SQ) < 1e-12

    def test_monotone(self):
        ks = [0.1 * q for q in range(10)]
        Ts = [T_of_k(k) for k in ks]
        assert all(a < b for a, b in zip(Ts, Ts[1:]))

    def test_round_trip(self):
        assert abs(invert_T(T_of_k(0.5)) - 0.5) < 1e-9
        for k in (0.2, 0.8, 0.99):
            assert abs(invert_T(T_of_k(k)) - k) < 1e-9

    def test_residual(self):
        for T in (12.0, 25.0):
            k = invert_T(T)
            assert abs(T_of_k(k) - T) < 1e-9 * T
        # near k -> 1 the modulus itself carries only ~sqrt(eps) of the m1
        # information (k = 1 - m1/2 + ...), so the k-space round trip degrades
        # and past T ~ 350 k rounds to exactly 1.0; check m1 coordinates there
        k = invert_T(100.0)
        assert abs(T_of_k(k) - 100.0) < 1e-4 * 100.0
        for T in (100.0, 400.0, 1000.0):
            m1 = FreeEnergyPoint(T).m1
            assert abs(heatkern._T_of_m1(m1) - T) < 1e-9 * T
        assert invert_T(400.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            invert_T(PI_SQ)
        with pytest.raises(DomainError):
            invert_T(5.0)


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
        assert abs(T_of_k(pt.k) - 40.0) < 1e-8 * 40.0
        # past T ~ 150 k rounds to 1.0 and T_of_k(k) would raise; m1 does not
        pt = FreeEnergyPoint(200.0)
        assert pt.k == 1.0
        assert abs(heatkern._T_of_m1(pt.m1) - 200.0) < 1e-9 * 200.0
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


class TestCircleKernel:
    def test_symmetry(self):
        for th in (0.3, 1.2, 2.9):
            assert circle_heat_kernel(th, 0.7) == circle_heat_kernel(-th, 0.7)

    def test_normalization(self):
        val = quad(lambda th: circle_heat_kernel(th, 0.5), -math.pi, math.pi)[0] / (
            2 * math.pi
        )
        assert abs(val - 1.0) < 1e-8

    def test_argmax_at_identity(self):
        t = 0.4
        p0 = circle_heat_kernel(0.0, t)
        for th in [q * math.pi / 16 for q in range(1, 17)]:
            assert circle_heat_kernel(th, t) < p0

    def test_domain(self):
        with pytest.raises(DomainError):
            circle_heat_kernel(0.0, 0.0)
