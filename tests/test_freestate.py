"""Exact trace oracles: free products, free unitary BM, liberation states,
and the conditional-expectation expansion."""

import gc
import math
import random
import weakref
from fractions import Fraction as F

import pytest

from liblab import ncalg
from liblab.errors import DegreeOverflow, NonXPolynomial, SizeLimit, UnsupportedWord
from liblab.freestate import (
    AtomicComponent,
    FreeMomentEngine,
    FreeProductState,
    InitialLaw,
    LiberationState,
    MarginalLaw,
    conditional_expectation_prop81,
    free_ubm_moment,
    lemma51_bound_check,
)
from liblab.ncalg import EMPTY_WORD, NCPolynomial, Vs, VsStar, Word, Xs, format_word
from references import TupleLetterMoment, free_product_moment, liberation_derivation


def closed_form_moment(n, t):
    """Independent closed form for the n-th free unitary BM moment (float sum,
    accurate to 1e-9 only for n <= ~20: the alternating terms cancel)."""
    return math.exp(-n * t / 2) * sum(
        (-t) ** k / math.factorial(k) * n ** (k - 1) * math.comb(n, k + 1)
        for k in range(n)
    )


def ode_moments(n_max, t):
    """Independent reference: integrate the large-N moment ODE
    m_j' = -(j/2) m_j - (j/2) sum_{k=1}^{j-1} m_k m_{j-k}, m_j(0) = 1, to time t."""
    import numpy as np
    from scipy.integrate import solve_ivp

    def rhs(_, m):
        out = np.empty(n_max)
        for j in range(1, n_max + 1):
            conv = sum(m[k - 1] * m[j - k - 1] for k in range(1, j))
            out[j - 1] = -0.5 * j * (m[j - 1] + conv)
        return out

    sol = solve_ivp(rhs, (0.0, t), np.ones(n_max), method="DOP853", rtol=1e-12, atol=1e-14)
    return [float(v) for v in sol.y[:, -1]]


def two_projections(correlated=False):
    if correlated:
        return InitialLaw(
            [AtomicComponent([(1, 1), (2, 1)], [(1, 1), (0, 0)], [F(1, 2), F(1, 2)])]
        )
    return InitialLaw.free_product(
        [
            MarginalLaw(1, atoms=[1, 0], weights=[F(1, 2), F(1, 2)]),
            MarginalLaw(2, atoms=[1, 0], weights=[F(1, 2), F(1, 2)]),
        ]
    )


def marginal_moment(law, k):
    """tau(x^k) of the first generator of a MarginalLaw."""
    gid = law.component.ids[0]
    return law.component.joint_moment((gid,) * k)


class TestMarginalLaw:
    def test_atomic_moments(self):
        law = MarginalLaw(1, atoms=[2, -1], weights=[F(1, 3), F(2, 3)])
        assert marginal_moment(law, 1) == 0
        assert marginal_moment(law, 2) == 2


class TestFreeUbmMoment:
    def test_first_moment(self):
        for t in (0.0, 0.25, 1.0, 3.0):
            assert abs(free_ubm_moment(1, t) - math.exp(-t / 2)) < 1e-10

    def test_time_zero(self):
        for n in range(1, 8):
            assert free_ubm_moment(n, 0) == 1.0

    def test_second_moment_closed_form(self):
        for t in (0.5, 1.0, 2.0):
            assert abs(free_ubm_moment(2, t) - math.exp(-t) * (1 - t)) < 1e-10
        assert abs(free_ubm_moment(2, 1.0)) < 1e-10

    def test_against_independent_closed_form(self):
        for n in range(1, 7):
            for t in (0.3, 1.0, 2.5, 5.0):
                assert abs(free_ubm_moment(n, t) - closed_form_moment(n, t)) < 1e-9
        for t in (0.3, 1.0, 2.5, 5.0):
            ode = ode_moments(40, t)
            for n in (1, 2, 3, 6, 24, 40):
                assert abs(free_ubm_moment(n, t) - ode[n - 1]) < 1e-9


class TestFreeProduct:
    def test_two_algebra_factorization(self):
        a = MarginalLaw(1, atoms=[2, 0], weights=[F(1, 4), F(3, 4)])
        b = MarginalLaw(2, atoms=[1, -1], weights=[F(1, 2), F(1, 2)])
        w = Word((Xs(1, 1, 0), Xs(2, 1, 0)))
        assert free_product_moment([a, b], w) == marginal_moment(a, 1) * marginal_moment(b, 1)

    def test_alternating_centered_vanishes(self):
        # elements with zero mean: alternating words vanish exactly
        a = MarginalLaw(1, atoms=[1, -1], weights=[F(1, 2), F(1, 2)])
        b = MarginalLaw(2, atoms=[2, -2], weights=[F(1, 2), F(1, 2)])
        for L in (2, 3, 4, 5):
            letters = tuple(Xs(1 + q % 2, 1, 0) for q in range(L))
            assert free_product_moment([a, b], Word(letters)) == 0

    def test_abab(self):
        a = MarginalLaw(1, atoms=[1, 0], weights=[F(1, 3), F(2, 3)])
        b = MarginalLaw(2, atoms=[3, 1], weights=[F(1, 2), F(1, 2)])
        w = Word((Xs(1, 1, 0), Xs(2, 1, 0), Xs(1, 1, 0), Xs(2, 1, 0)))
        ta1, ta2 = marginal_moment(a, 1), marginal_moment(a, 2)
        tb1, tb2 = marginal_moment(b, 1), marginal_moment(b, 2)
        expected = ta2 * tb1**2 + ta1**2 * tb2 - ta1**2 * tb1**2
        assert free_product_moment([a, b], w) == expected

    def test_projection_pqpq(self):
        sigma0 = two_projections()
        state = FreeProductState(sigma0, 2)
        w = Word((Xs(1, 1, 0), Xs(2, 1, 0), Xs(1, 1, 0), Xs(2, 1, 0)))
        assert state.moment(w) == F(3, 16)

    def test_marginals_preserved(self):
        sigma0 = two_projections(correlated=True)
        state = FreeProductState(sigma0, 2)
        for i in (1, 2):
            for k in (1, 2, 3):
                w = Word((Xs(i, 1, 0),) * k)
                assert state.moment(w) == F(1, 2)

    def test_limit_state_frees_correlated_rows(self):
        sigma0 = two_projections(correlated=True)
        state = FreeProductState(sigma0, 2)
        w = Word((Xs(1, 1, 0), Xs(2, 1, 0)))
        assert state.moment(w) == F(1, 4)  # not sigma0(x y) = 1/2

    def test_constant_in_time(self):
        sigma0 = two_projections()
        state = FreeProductState(sigma0, 2)
        w0 = Word((Xs(1, 1, 0), Xs(2, 1, 0), Xs(1, 1, 0)))
        w1 = Word((Xs(1, 1, 2), Xs(2, 1, F(1, 2)), Xs(1, 1, 1)))
        assert state.moment(w0) == state.moment(w1)


class TestMixedVMoment:
    # V/V* words under n free unitary BMs: a liberation state of the empty law

    def test_single_motion_mean(self):
        tau = LiberationState(InitialLaw([]), 2)
        assert abs(tau.extended_moment(Word((Vs(1, 1),))) - math.exp(-0.5)) < 1e-10

    def test_cross_term(self):
        w = Word((VsStar(1, 1), Vs(2, 1)))
        tau = LiberationState(InitialLaw([]), 2)
        assert abs(tau.extended_moment(w) - math.exp(-1.0)) < 1e-10

    def test_constant_motion(self):
        # index n_free + 1 acts as the constant 1
        w = Word((VsStar(1, 1), Vs(3, 1)))
        tau = LiberationState(InitialLaw([]), 2)
        assert abs(tau.extended_moment(w) - math.exp(-0.5)) < 1e-10

    def test_unitarity(self):
        w = Word((Vs(1, 1), VsStar(1, 1)))
        assert LiberationState(InitialLaw([]), 2).extended_moment(w) == 1

    def test_multi_time_increment_reduction(self):
        # tau(v(t2) v(t1)*) = m_1(t2 - t1) by free multiplicative increments
        tau = LiberationState(InitialLaw([]), 1)
        for t1, t2 in ((F(1, 2), F(1)), (F(1, 4), F(3, 4))):
            w = Word((Vs(1, t2), VsStar(1, t1)))
            assert abs(tau.extended_moment(w) - math.exp(-float(t2 - t1) / 2)) < 1e-10

    def test_power_collapse(self):
        w = Word((Vs(1, 1), Vs(1, 1)))
        tau = LiberationState(InitialLaw([]), 1)
        assert abs(tau.extended_moment(w) - free_ubm_moment(2, 1)) < 1e-12

    def test_rejects_x_letters(self):
        # an X letter names a generator that the empty initial law lacks
        tau = LiberationState(InitialLaw([]), 1)
        with pytest.raises(UnsupportedWord, match=r"x_\{1,1\} is not in the initial law"):
            tau.extended_moment(Word((Xs(1, 1, 0),)))

    @pytest.mark.parametrize("state_cls", [LiberationState, FreeProductState])
    def test_unknown_generator_named(self, state_cls):
        state = state_cls(two_projections(), 2)
        with pytest.raises(UnsupportedWord, match=r"x_\{3,1\} is not in the initial law"):
            state.extended_moment(Word((Xs(1, 1, F(1, 2)), Xs(3, 1, 0))))


class TestLiberationState:
    def test_single_letter_trace_invariance(self):
        sigma0 = two_projections()
        for t in (0, F(1, 2), 3):
            w = Word((Xs(1, 1, t),))
            assert LiberationState(sigma0, 2).moment(w) == F(1, 2)

    def test_all_times_zero_reduces_to_sigma0(self):
        sigma0 = two_projections(correlated=True)
        state = LiberationState(sigma0, 2)
        w = Word((Xs(1, 1, 0), Xs(2, 1, 0)))
        assert state.moment(w) == F(1, 2)

    def test_two_point_interpolation(self):
        # tau(x_11(T) x_21(T)) = ab + e^{-2T}(sigma0(x y) - ab)
        sigma0 = two_projections(correlated=True)
        state = LiberationState(sigma0, 2)
        for T in (F(1, 2), F(1), F(2), F(4)):
            w = Word((Xs(1, 1, T), Xs(2, 1, T)))
            expected = 0.25 + math.exp(-2 * float(T)) * 0.25
            assert abs(complex(state.moment(w)) - expected) < 1e-9

    def test_free_sigma0_makes_two_point_constant(self):
        sigma0 = two_projections()
        state = LiberationState(sigma0, 2)
        for T in (F(1, 2), F(2)):
            w = Word((Xs(1, 1, T), Xs(2, 1, T)))
            assert abs(complex(state.moment(w)) - 0.25) < 1e-12

    def test_converges_to_free_product(self):
        sigma0 = two_projections(correlated=True)
        lib = LiberationState(sigma0, 2)
        fr = FreeProductState(sigma0, 2)
        w_at = lambda T: Word(
            (Xs(1, 1, T), Xs(2, 1, T), Xs(1, 1, T), Xs(2, 1, T))
        )
        gap = lambda T: abs(complex(lib.moment(w_at(T)) - fr.moment(Word((Xs(1, 1, 0), Xs(2, 1, 0), Xs(1, 1, 0), Xs(2, 1, 0))))))
        gaps = [gap(F(T)) for T in (1, 2, 4, 8)]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3

    def test_stationarity_under_time_shift(self):
        sigma0 = two_projections(correlated=True)
        state = LiberationState(sigma0, 2)
        w = Word((Xs(1, 1, 1), Xs(2, 1, 1), Xs(1, 1, 1), Xs(2, 1, 1)))
        base = complex(state.moment(w))
        for t in (F(1, 2), F(1), F(2)):
            assert abs(complex(state.time_shifted_moment(w, t)) - base) < 1e-9

    def test_traciality(self):
        rng = random.Random(43)
        sigma0 = two_projections(correlated=True)
        for state in (LiberationState(sigma0, 2), FreeProductState(sigma0, 2)):
            for _ in range(40):
                L1, L2 = rng.randint(1, 3), rng.randint(1, 3)
                mk = lambda L: Word(
                    tuple(
                        Xs(rng.randint(1, 2), 1, F(rng.randint(0, 4), 2))
                        for _ in range(L)
                    )
                )
                p, q = mk(L1), mk(L2)
                assert abs(complex(state.moment(p * q) - state.moment(q * p))) < 1e-10

    def test_positivity(self):
        rng = random.Random(47)
        sigma0 = two_projections(correlated=True)
        state = LiberationState(sigma0, 2)
        for _ in range(30):
            p = NCPolynomial.zero()
            for _ in range(2):
                L = rng.randint(0, 2)
                w = Word(
                    tuple(
                        Xs(rng.randint(1, 2), 1, F(rng.randint(0, 2), 2))
                        for _ in range(L)
                    )
                )
                p = p + NCPolynomial.from_word(w, rng.uniform(-1, 1))
            val = complex(state.extended_moment(p.adjoint() * p))
            assert val.real >= -1e-10
            assert abs(val.imag) < 1e-10

    def test_unit(self):
        sigma0 = two_projections()
        state = LiberationState(sigma0, 2)
        assert state.moment(EMPTY_WORD) == 1


class TestMomentEngine:
    @pytest.mark.parametrize("times", [(1, 1), (F(1, 2), 1), (F(1, 4), F(3, 2)), (0, F(2, 3))])
    def test_alternating_projection_words(self, times):
        # one time per row leaves two free trace-1/2 projections p, q, and
        # tau((pq)^k) = 1/2 C(2k, k) / 4^k; an odd word folds to (pq)^k by p^2 = p
        state = LiberationState(two_projections(), 2)
        for length in range(2, 13):
            w = Word(tuple(Xs(1 + q % 2, 1, times[q % 2]) for q in range(length)))
            k = length // 2
            expected = 0.5 * math.comb(2 * k, k) / 4**k
            assert abs(complex(state.moment(w)) - expected) < 1e-12

    def test_one_projection_at_two_times(self):
        # tau(p v p v*) = tau(p)^2 + (tau(p) - tau(p)^2) |tau(v)|^2 with
        # v = u(s)* u(t), whose mean is e^{-|t-s|/2}
        state = LiberationState(two_projections(), 2)
        grid = [F(0), F(1, 8), F(1, 3), F(1, 2), F(1), F(7, 4)]
        for s in grid:
            for t in grid:
                if s != t:
                    w = Word((Xs(1, 1, s), Xs(1, 1, t)))
                    expected = 0.25 + 0.25 * math.exp(-abs(float(t - s)))
                    assert abs(complex(state.moment(w)) - expected) < 1e-12

    def test_repeated_word_expands_once(self, monkeypatch):
        calls = []

        def counted(engine, letters):
            calls.append(letters)
            return free_letters(engine, letters)

        free_letters = FreeMomentEngine._free_letters
        monkeypatch.setattr(FreeMomentEngine, "_free_letters", counted)
        w = Word((Xs(1, 1, F(1, 2)), Vs(2, 1), Xs(2, 1, 1), VsStar(1, F(1, 4))))
        state = LiberationState(two_projections(), 2)
        first = state.extended_moment(w)
        assert state.extended_moment(w) == first
        p = NCPolynomial.from_word(w) * 2 + NCPolynomial.from_word(w * w)
        assert state.extended_moment(p) == 2 * first + state.extended_moment(w * w)
        assert len(calls) == 2  # w and w * w
        assert LiberationState(two_projections(), 2).extended_moment(w) == first
        assert len(calls) == 3
        # a word over the cap is refused every time, before any expansion
        long_word = Word(tuple(Xs(1 + q % 2, 1, 1) for q in range(14)))
        for _ in range(2):
            with pytest.raises(DegreeOverflow):
                state.moment(long_word)
        assert len(calls) == 3

    def test_matches_tuple_letter_recursion(self):
        # letter codes and the explicit promotion give the bytes of the
        # recursion over (color id, elem) tuples with Python's own operators
        rng = random.Random(5)
        times = [F(0), F(1, 4), F(1, 2), F(1)]
        alphabet = [Xs(i, 1, t) for i in (1, 2) for t in times]
        alphabet += [f(i, t) for f in (Vs, VsStar) for i in (1, 2, 3) for t in times[1:]]
        corpus = [Word(tuple(rng.choice(alphabet) for _ in range(k))) for k in range(1, 5) for _ in range(40)]
        float_atoms = InitialLaw.free_product(
            [
                MarginalLaw(1, atoms=[0.3, -1.2], weights=[F(1, 3), F(2, 3)]),
                MarginalLaw(2, atoms=[1, 0], weights=[F(1, 3), F(2, 3)]),
            ]
        )
        mixed = False
        for sigma0 in (two_projections(), two_projections(correlated=True), float_atoms):
            for state_cls in (LiberationState, FreeProductState):
                state = state_cls(sigma0, 2)
                reference = TupleLetterMoment(FreeMomentEngine(sigma0))
                for w in corpus:
                    value, expected = state.extended_moment(w), reference(state._letters(w))
                    assert (value, type(value)) == (expected, type(expected)), format_word(w)
                mixed = mixed or reference.mixed
        assert mixed

    def test_matches_tuple_letter_recursion_on_long_words(self):
        # gaps nested many levels deep: alternating words of length 6 to 10
        # at mixed times, and mixed X/V words of 20 or more free letters
        rng = random.Random(11)
        times = [F(0), F(1, 4), F(1, 2), F(1)]
        alternating = [
            Word(tuple(Xs(1 + (q + start) % 2, 1, rng.choice(times)) for q in range(length)))
            for length in range(6, 11)
            for start in (0, 1)
            for _ in range(2)
        ]
        alphabet = [Xs(i, 1, t) for i in (1, 2) for t in times]
        alphabet += [f(i, t) for f in (Vs, VsStar) for i in (1, 2) for t in times[1:]]
        counter = LiberationState(two_projections(), 2)
        mixed_words = []
        while len(mixed_words) < 8:
            w = Word(tuple(rng.choice(alphabet) for _ in range(rng.randint(7, 9))))
            if len(counter.engine._free_letters(counter._letters(w))) >= 20:
                mixed_words.append(w)
        third = InitialLaw.free_product(
            [MarginalLaw(i, atoms=[1, 0], weights=[F(1, 3), F(2, 3)]) for i in (1, 2)]
        )
        mixed = False
        for sigma0 in (two_projections(), two_projections(correlated=True), third):
            state = LiberationState(sigma0, 2)
            reference = TupleLetterMoment(FreeMomentEngine(sigma0))
            for w in alternating + mixed_words:
                value, expected = state.extended_moment(w), reference(state._letters(w))
                assert (value, type(value)) == (expected, type(expected)), format_word(w)
            mixed = mixed or reference.mixed
        assert mixed

    def test_evaluation_leaves_no_garbage(self):
        # the recursion builds no reference cycle, so words evaluated with the
        # cyclic collector off leave nothing for it to find
        words = [Word(tuple(Xs(1 + q % 2, 1, F(q % 3, 2)) for q in range(length))) for length in range(2, 9)]
        words.append(Word((Xs(1, 1, 1), Vs(2, F(1, 2)), Xs(2, 1, 0), VsStar(1, F(1, 4)))))
        gc.collect()
        gc.disable()
        try:
            state = LiberationState(two_projections(), 2)
            for w in words:
                state.extended_moment(w)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_time_zero_words_stay_exact(self):
        # free projections p, q of trace 1/3: tau(pq) = ab and
        # tau(pqpq) = a^2 b + a b^2 - a^2 b^2, exact in rationals
        sigma0 = InitialLaw.free_product(
            [MarginalLaw(i, atoms=[1, 0], weights=[F(1, 3), F(2, 3)]) for i in (1, 2)]
        )
        state = LiberationState(sigma0, 2)
        a = F(1, 3)
        p, q = Xs(1, 1, 0), Xs(2, 1, 0)
        cases = [((p,), a), ((p, p, p), a), ((p, q), a * a), ((p, q, p), a * a)]
        cases += [((p, q, p, q), 2 * a**3 - a**4), ((q, p, q, p, p), 2 * a**3 - a**4)]
        for letters, expected in cases:
            value = state.moment(Word(letters))
            assert type(value) is F
            assert value == expected

    @pytest.mark.parametrize("state_cls", [LiberationState, FreeProductState])
    def test_dropped_state_frees_engine(self, state_cls):
        # no reference cycle through the engine: its memos go with the state,
        # without waiting for a full collection
        gc.disable()
        try:
            state = state_cls(two_projections(correlated=True), 2)
            state.moment(Word((Xs(1, 1, 1), Xs(2, 1, F(1, 2)), Xs(1, 1, 1), Xs(2, 1, 2))))
            engine = weakref.ref(state.engine)
            del state
            assert engine() is None
        finally:
            gc.enable()


@pytest.fixture(scope="module")
def tau():
    return LiberationState(two_projections(), 3)


class TestProp81:

    def test_s_past_time_vanishes(self, tau):
        E = conditional_expectation_prop81(Word((Xs(1, 1, 1),)), 1, F(3, 2), tau)
        assert not E.terms

    def test_single_letter_vanishes(self, tau):
        E = conditional_expectation_prop81(Word((Xs(1, 1, 1),)), 1, F(1, 4), tau)
        assert not E.terms

    def test_output_is_x_polynomial(self, tau):
        w = Word((Xs(1, 1, 1), Xs(2, 1, F(1, 2)), Xs(1, 1, 2)))
        E = conditional_expectation_prop81(w, 1, F(1, 4), tau)
        assert E.is_x_only()
        assert all(sym.t <= F(1, 4) for word in E.terms for sym in word.letters)

    def test_size_limit(self, tau):
        w = Word(tuple(Xs(1 + q % 2, 1, 1) for q in range(7)))
        with pytest.raises(SizeLimit):
            conditional_expectation_prop81(w, 1, F(1, 2), tau)

    def test_repeated_call_expands_nothing(self, monkeypatch):
        # the unitary words w_l go through the state's word memo, so a second
        # expansion of the same word finds every moment there
        calls = []

        def counted(engine, letters):
            calls.append(letters)
            return free_letters(engine, letters)

        free_letters = FreeMomentEngine._free_letters
        monkeypatch.setattr(FreeMomentEngine, "_free_letters", counted)
        state = LiberationState(two_projections(), 3)
        w = Word((Xs(1, 1, 1), Xs(2, 1, F(1, 2)), Xs(1, 1, 2), Xs(2, 1, F(3, 4))))
        first = conditional_expectation_prop81(w, 1, F(1, 4), state)
        assert first.terms
        expanded = len(calls)
        assert expanded == len(set(calls))
        for _ in range(3):
            assert conditional_expectation_prop81(w, 1, F(1, 4), state) == first
        assert len(calls) == expanded

    def test_pairing_identity(self, tau):
        # the defining property of the conditional expectation, paired against
        # X-words from the trajectory algebra
        words_P = [
            Word((Xs(1, 1, 1), Xs(2, 1, 1))),
            Word((Xs(1, 1, 1), Xs(2, 1, F(1, 2)), Xs(1, 1, 2))),
            Word((Xs(2, 1, 1), Xs(1, 1, 1), Xs(2, 1, 1), Xs(1, 1, F(1, 2)))),
        ]
        words_y = [
            EMPTY_WORD,
            Word((Xs(1, 1, F(1, 2)),)),
            Word((Xs(1, 1, F(3, 4)), Xs(2, 1, F(3, 4)))),
        ]
        for P in words_P:
            for y in words_y:
                for k in (1, 2, 3):
                    for s in (F(1, 4), F(3, 4), F(3, 2)):
                        dP = ncalg.pi_s_substitution(
                            ncalg.cyclic_derivative(NCPolynomial.from_word(P), k, s),
                            s,
                            tau.n,
                        )
                        lhs = tau.extended_moment(dP * NCPolynomial.from_word(y))
                        E = conditional_expectation_prop81(P, k, s, tau)
                        rhs = tau.extended_moment(E * NCPolynomial.from_word(y))
                        assert abs(complex(lhs - rhs)) < 1e-9

    def test_norm_decay_envelope(self, tau):
        # 2-norm of the expansion decays like e^{(s-T)/2} in T - s, uniformly
        # after fitting the constant once per word
        w_at = lambda T: Word((Xs(1, 1, T), Xs(2, 1, T)))
        k = 1

        def norm_at(s, T):
            E = conditional_expectation_prop81(w_at(T), k, s, tau)
            return math.sqrt(max(tau.norm2_squared(E), 0.0))

        for s in (F(1, 4), F(1, 2), F(3, 4)):
            prev_T, prev = None, None
            for T in (F(1), F(2), F(4)):
                cur = norm_at(s, T)
                if prev is not None:
                    # at least as fast as the e^{(s-T)/2} envelope shrinks
                    assert cur <= prev * math.exp(float(prev_T - T) / 2) + 1e-12
                prev_T, prev = T, cur
        # past the word time the derivation has no support at all
        assert norm_at(F(3, 2), F(1)) == 0.0


class TestAlternatingDecayBound:
    def test_m1_is_zero(self):
        sigma0 = two_projections(correlated=True)
        lhs, rhs = lemma51_bound_check(sigma0, [(1, 1)], F(1))
        assert lhs == 0 and rhs == 0

    def test_m2_exact_decay(self):
        sigma0 = two_projections(correlated=True)
        for T in (F(1, 2), F(1), F(2)):
            lhs, rhs = lemma51_bound_check(sigma0, [(1, 1), (2, 1)], T)
            assert abs(lhs - math.exp(-2 * float(T)) * 0.25) < 1e-10
            assert lhs <= rhs

    def test_monotone_decay(self):
        sigma0 = two_projections(correlated=True)
        vals = [
            lemma51_bound_check(sigma0, [(1, 1), (2, 1)], F(T))[0]
            for T in (1, 2, 4, 8)
        ]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] < 1e-6

    def test_m3_bound_with_margin(self):
        sigma0 = two_projections(correlated=True)
        for T in (F(1, 2), F(2)):
            lhs, rhs = lemma51_bound_check(sigma0, [(1, 1), (2, 1), (1, 1)], T)
            assert lhs <= rhs + 1e-10

    def test_rejects_repeated_motion(self):
        sigma0 = two_projections(correlated=True)
        with pytest.raises(ValueError):
            lemma51_bound_check(sigma0, [(1, 1), (1, 1)], F(1))


class TestErrors:
    def test_derivation_guard_from_algebra(self):
        p = NCPolynomial.from_word(Word((Vs(1, 1),)))
        with pytest.raises(NonXPolynomial):
            liberation_derivation(p, 1, 0)

    def test_overflow_names_user_word_length(self):
        # 14 liberated letters expand to 42 engine letters (u x u* each)
        state = LiberationState(two_projections(), 2)
        w = Word(tuple(Xs(1 + q % 2, 1, 1) for q in range(14)))
        with pytest.raises(DegreeOverflow) as err:
            state.moment(w)
        assert "14" in str(err.value)
        assert "42" in str(err.value)
