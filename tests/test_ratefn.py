"""Trajectory metric, moment neighborhoods, orbital-entropy Monte Carlo, and
the rate integrand."""

import collections
import itertools
import math
from fractions import Fraction as F

import pytest

from liblab import ratefn, rmt
from liblab.errors import UnsupportedState
from liblab.freestate import (
    AtomicComponent,
    InitialLaw,
    LiberationState,
    MarginalLaw,
    conditional_expectation_prop81,
    free_product_limit_state,
)
from liblab.ncalg import NCPolynomial, Word, Xs, format_word
from liblab.ratefn import (
    NEG_INF,
    EmpiricalTrajectory,
    NeighborhoodSpec,
    chi_orb_mc,
    neighborhood_member,
    rate_integrand_eq9,
    trajectory_metric_d,
    trajectory_metric_words,
)


def two_projections():
    return InitialLaw.free_product(
        [
            MarginalLaw(1, atoms=[1, 0], weights=[F(1, 2), F(1, 2)]),
            MarginalLaw(2, atoms=[1, 0], weights=[F(1, 2), F(1, 2)]),
        ]
    )


def correlated_projections():
    return InitialLaw(
        [AtomicComponent([(1, 1), (2, 1)], [(1, 1), (0, 0)], [F(1, 2), F(1, 2)])]
    )


def hash_evaluator(seed):
    """Deterministic pseudo-random word moments in [0, 1]."""

    def ev(word):
        h = hash((seed, format_word(word)))
        return (h % 10_000) / 10_000

    return ev


GEN_IDS = [(1, 1), (2, 1)]


class TestEmpiricalTrajectory:
    def test_single_resolver_trace(self):
        fam = rmt.build_initial_family(
            InitialLaw.free_product([MarginalLaw(1, atoms=[1, 0], weights=[F(1, 2), F(1, 2)])]), 4
        )
        tup = rmt.HaarTuple({1: rmt.sample_haar(4, rmt.path_rng(0, 0))})
        emp = EmpiricalTrajectory(fam, tup)
        w = Word((Xs(1, 1, 0),))
        assert abs(emp.moment(w) - 0.5) < 1e-12


class TestMetric:
    def test_self_distance_zero(self):
        tau = LiberationState(two_projections(), 2)
        d = trajectory_metric_d(tau, tau, 2, 2, [F(0), F(1, 2)], gen_ids=GEN_IDS)
        assert d == 0.0

    def test_symmetry(self):
        e1, e2 = hash_evaluator(1), hash_evaluator(2)
        grid = [F(0), F(1, 2)]
        d12 = trajectory_metric_d(e1, e2, 2, 2, grid, gen_ids=GEN_IDS)
        d21 = trajectory_metric_d(e2, e1, 2, 2, grid, gen_ids=GEN_IDS)
        assert d12 == d21
        assert d12 > 0

    def test_bounded_below_one(self):
        # each (m, l) level contributes at most 2^{-m-l}
        e1, e2 = hash_evaluator(3), (lambda w: 10.0)
        d = trajectory_metric_d(e1, e2, 3, 3, [F(0)], gen_ids=GEN_IDS)
        cap = sum(2.0 ** (-m - l) for m in range(1, 4) for l in range(1, 4))
        assert d == pytest.approx(cap)  # all deltas clip at 1
        assert d < 1.0

    def test_triangle_inequality(self):
        grid = [F(0), F(1)]
        evs = [hash_evaluator(s) for s in (5, 6, 7)]
        d = {
            (a, b): trajectory_metric_d(evs[a], evs[b], 2, 2, grid, gen_ids=GEN_IDS)
            for a in range(3)
            for b in range(3)
            if a != b
        }
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert d[(a, b)] <= d[(a, c)] + d[(c, b)] + 1e-12

    def test_each_word_evaluated_once(self):
        # the liberation-convergence defaults: 297 words over the levels,
        # 258 distinct, since level 1's 39 words recur at level 2
        grid, m_max, l_max = [F(0), F(1, 2), F(1)], 2, 3
        fam = rmt.build_initial_family(two_projections(), 8)
        traj = rmt.simulate_trajectory(8, 2, [F(1, 2), F(1)], F(1, 10), base_seed=4)
        calls = [collections.Counter(), collections.Counter()]

        def counted(side, state):
            def moment(w):
                calls[side][w] += 1
                return state.moment(w)

            return moment

        emp, oracle = EmpiricalTrajectory(fam, traj), LiberationState(two_projections(), 2)
        d = trajectory_metric_d(counted(0, emp), counted(1, oracle), m_max, l_max, grid, GEN_IDS)
        for side in calls:
            assert sum(side.values()) == len(side) == 258
        assert list(calls[0]) == trajectory_metric_words(m_max, l_max, grid, GEN_IDS)

        def recomputed(w):
            return min(
                abs(
                    EmpiricalTrajectory(fam, traj).moment(w)
                    - LiberationState(two_projections(), 2).moment(w)
                ),
                1.0,
            )

        ref = 0.0
        for m in range(1, m_max + 1):
            ids = [g for g in GEN_IDS if g[0] <= m]
            for ell in range(1, l_max + 1):
                words = [
                    Word(tuple(Xs(i, j, t) for (i, j), t in zip(combo, ts)))
                    for combo in itertools.product(ids, repeat=ell)
                    for ts in itertools.product(grid, repeat=ell)
                ]
                ref += 2.0 ** (-m - ell) * max(recomputed(w) for w in words)
        assert d == ref

    def test_distinguishes_free_from_liberated(self):
        sigma0 = correlated_projections()
        lib = LiberationState(sigma0, 2)
        fr = free_product_limit_state(sigma0, 2)
        d = trajectory_metric_d(lib, fr, 2, 2, [F(1, 2), F(1)], gen_ids=GEN_IDS)
        assert d > 1e-3


class TestNeighborhood:
    def test_self_membership(self):
        sigma = free_product_limit_state(two_projections(), 2)
        for closed in (False, True):
            spec = NeighborhoodSpec(2, 0.05, closed=closed)
            assert neighborhood_member(sigma, sigma, spec, gen_ids=GEN_IDS)

    def test_boundary_open_vs_closed(self):
        sigma = free_product_limit_state(two_projections(), 2)
        delta = 0.0625  # exactly representable so the boundary gap is exact

        def shifted(word):
            return complex(sigma.moment(word)) + delta

        open_spec = NeighborhoodSpec(2, delta, closed=False)
        closed_spec = NeighborhoodSpec(2, delta, closed=True)
        assert not neighborhood_member(shifted, sigma, open_spec, gen_ids=GEN_IDS)
        assert neighborhood_member(shifted, sigma, closed_spec, gen_ids=GEN_IDS)

    def test_outside_both(self):
        sigma = free_product_limit_state(two_projections(), 2)

        def far(word):
            return complex(sigma.moment(word)) + 1.0

        for closed in (False, True):
            spec = NeighborhoodSpec(2, 0.05, closed=closed)
            assert not neighborhood_member(far, sigma, spec, gen_ids=GEN_IDS)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NeighborhoodSpec(0, 0.1)
        with pytest.raises(ValueError):
            NeighborhoodSpec(2, 0.0)


class TestChiOrb:
    def setup_method(self):
        self.sigma = free_product_limit_state(two_projections(), 2)
        self.family = rmt.build_initial_family(two_projections(), 16)

    def test_deterministic(self):
        spec = NeighborhoodSpec(2, 0.2)
        r1 = chi_orb_mc(self.sigma, self.family, spec, 20, base_seed=3, n_motions=2)
        r2 = chi_orb_mc(self.sigma, self.family, spec, 20, base_seed=3, n_motions=2)
        assert r1 == r2

    def test_huge_delta_all_hits(self):
        spec = NeighborhoodSpec(2, 10.0)
        logf, hits, samples = chi_orb_mc(
            self.sigma, self.family, spec, 10, base_seed=0, n_motions=2
        )
        assert (hits, samples) == (10, 10)
        assert logf == 0.0

    def test_infeasible_target_tagged(self):
        def impossible(word):
            return 100.0

        spec = NeighborhoodSpec(1, 0.01)
        logf, hits, samples = chi_orb_mc(
            impossible, self.family, spec, 10, base_seed=0, n_motions=2
        )
        assert hits == 0
        assert logf == NEG_INF
        assert isinstance(logf, str)

    def test_log_matches_fraction(self):
        spec = NeighborhoodSpec(2, 0.15)
        logf, hits, samples = chi_orb_mc(
            self.sigma, self.family, spec, 40, base_seed=1, n_motions=2
        )
        if hits:
            assert logf == pytest.approx(math.log(hits / samples))

    def test_size_is_the_family_size(self):
        # the Haar draws take N from the family, so no separate N can disagree
        small = rmt.build_initial_family(two_projections(), 4)
        assert chi_orb_mc(self.sigma, small, NeighborhoodSpec(2, 10.0), 5, 0, n_motions=2)[1:] == (5, 5)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            chi_orb_mc(self.sigma, self.family, NeighborhoodSpec(1, 0.1), 0, 0, n_motions=2)


class TestRateIntegrand:
    def setup_method(self):
        self.tau = LiberationState(two_projections(), 2)

    def test_scalar_is_exact_zero(self):
        [(value, br)] = rate_integrand_eq9(self.tau, NCPolynomial.scalar(1.0), [F(1)])
        assert value == 0.0
        assert br["quadratic"] == 0.0

    def test_breakdown_consistent(self):
        w = Word((Xs(1, 1, F(1, 2)), Xs(2, 1, F(1, 2))))
        [(value, br)] = rate_integrand_eq9(self.tau, w, [F(1)], s_points=4)
        assert value == pytest.approx(
            br["shifted"] - br["reference"] - br["quadratic"], abs=1e-14
        )
        assert br["quadratic"] >= 0.0

    def test_nonpositive_at_minimizer(self):
        # at tau = sigma0^lib: shifted == reference by stationarity, so the
        # value reduces to minus the (nonnegative) quadratic term
        for w in (
            Word((Xs(1, 1, F(1, 2)),)),
            Word((Xs(1, 1, F(1, 2)), Xs(2, 1, F(1, 2)))),
        ):
            [(value, br)] = rate_integrand_eq9(self.tau, w, [F(1)], s_points=4)
            assert value <= 1e-10
            assert abs(br["shifted"] - br["reference"]) < 1e-9

    def test_positive_off_minimizer(self):
        # a correlated initial law left un-liberated (constant free-product
        # trajectory) admits a certifying P with strictly positive value
        sigma0 = correlated_projections()
        fr = free_product_limit_state(sigma0, 2)
        w = Word((Xs(1, 1, F(1, 2)), Xs(2, 1, F(1, 2))))
        P = (NCPolynomial.from_word(w) + NCPolynomial.from_word(w).adjoint()) * (-1)
        [(value, _)] = rate_integrand_eq9(fr, P, [F(1)], s_points=4)
        assert value > 0.01

    def test_word_input_accepted(self):
        w = Word((Xs(1, 1, F(1, 2)),))
        [(v1, _)] = rate_integrand_eq9(self.tau, w, [F(1)], s_points=4)
        [(v2, _)] = rate_integrand_eq9(self.tau, NCPolynomial.from_word(w), [F(1)], s_points=4)
        assert v1 == v2

    def test_rejects_non_oracle(self):
        with pytest.raises(UnsupportedState):
            rate_integrand_eq9(lambda w: 0.0, NCPolynomial.scalar(1.0), [F(1)])

    def test_subclass_gets_plain_reference(self):
        # x(t) = u(ct) x u(ct)* subclasses LiberationState but is not
        # sigma0^lib, so its reference is the plain state's moment
        class TimeChanged(LiberationState):
            def _x_letters(self, sym):
                return super()._x_letters(Xs(sym.i, sym.j, sym.t * F(3, 2)))

        changed = TimeChanged(two_projections(), 2)
        w = Word((Xs(1, 1, F(1, 4)), Xs(1, 1, F(1, 2))))
        plain = complex(self.tau.moment(w)).real
        assert abs(complex(changed.moment(w)).real - plain) > 1e-3
        [(_, br)] = rate_integrand_eq9(changed, w, [F(1)], s_points=2)
        assert br["reference"] == plain

    def test_horizon_list_matches_single_horizons(self):
        # word times 1/4 and 1/2; horizons above, at and below the largest,
        # t = 0, and a repeat
        P = NCPolynomial.from_word(Word((Xs(1, 1, F(1, 2)), Xs(2, 1, F(1, 4))))) + (
            NCPolynomial.from_word(Word((Xs(2, 1, F(1, 2)),))) * 0.5
        )
        ts = [F(2), F(1, 2), F(1, 3), F(0), F(1, 2), F(1, 8)]
        together = rate_integrand_eq9(self.tau, P, ts, s_points=4)
        alone = [rate_integrand_eq9(self.tau, P, [t], s_points=4)[0] for t in ts]
        assert together == alone
        assert together[3][1]["quadratic"] == 0.0
        assert rate_integrand_eq9(self.tau, P, [], s_points=4) == []

    @pytest.mark.parametrize("ts", [[F(1)], [F(1, 2), F(1), F(2)]])
    def test_prop81_once_per_node(self, ts, monkeypatch):
        # one word at time 1/2, n = 2: the 8 nodes in [0, 1/2) times 2 motions,
        # however many horizons >= 1/2 share them
        calls = []

        def counted(w, k, s, tau):
            calls.append((w, k, s))
            return conditional_expectation_prop81(w, k, s, tau)

        monkeypatch.setattr(ratefn, "conditional_expectation_prop81", counted)
        w = Word((Xs(1, 1, F(1, 2)), Xs(2, 1, F(1, 2))))
        rate_integrand_eq9(self.tau, w, ts, s_points=8)
        assert len(calls) == 16
        assert len(set(calls)) == 16
