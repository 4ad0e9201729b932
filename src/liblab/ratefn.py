"""Rate-function layer: trajectory metric, moment neighborhoods, the
orbital-entropy Monte Carlo estimator, and the rate integrand

    I(tau, P; t) = tau^t(P) - sigma0^lib(P)
                   - (1/2) sum_k int_0^t || E(Pi^s(D_s^(k) P)) ||_{tau~,2}^2 ds

with the conditional expectation from freestate.conditional_expectation_prop81.

The metric and the neighborhoods read every moment source the same way, as a
callable word -> moment: a state's or a trajectory's bound ``moment``, or a
table's ``__getitem__``. The neighborhoods are the open O_{m,delta}.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import ncalg, rmt
from .errors import UnsupportedState
from .freestate import LiberationState, TraceState, conditional_expectation_prop81
from .ncalg import NCPolynomial, Word, Xs

NEG_INF = "-inf"  # tagged value for log(0) outputs; never a float sentinel


# ---------------------------------------------------------------------------
# Empirical word moments


class EmpiricalTrajectory:
    """Word moments of one resolved path (a trajectory or a Haar tuple) of a
    fixed initial family: normalized matrix traces.

    A letter memo keeps each letter's matrix, formed once however many words
    use it, and a word reuses the prefix product of the word before it when
    they share that prefix."""

    def __init__(self, family, resolver):
        self.family = family
        self.resolver = resolver
        self._letters = {}

    def moment(self, word: Word) -> complex:
        return rmt.evaluate_word_trace(word, self.family, self.resolver, self._letters)


# ---------------------------------------------------------------------------
# Trajectory metric (truncated)


def _metric_levels(m_max, l_max, grid, gen_ids):
    """(m, l, words) for each level of the truncated metric, in order;
    ``words`` iterates over the level's words, the last letter's time
    innermost."""
    for m in range(1, m_max + 1):
        times_m = [t for t in grid if 0 <= t <= m]
        ids = [(i, j) for (i, j) in gen_ids if i <= m and j <= m]
        if not ids or not times_m:
            continue
        for ell in range(1, l_max + 1):
            words = (
                Word(tuple(Xs(i, j, t) for (i, j), t in zip(combo, ts)))
                for combo in itertools.product(ids, repeat=ell)
                for ts in itertools.product(times_m, repeat=ell)
            )
            yield m, ell, words


def trajectory_metric_words(m_max, l_max, grid, gen_ids):
    """The distinct words that ``trajectory_metric_d`` reads, in the order it
    first reads them."""
    levels = _metric_levels(m_max, l_max, grid, gen_ids)
    return list(dict.fromkeys(w for _m, _ell, words in levels for w in words))


def trajectory_metric_d(t1, t2, m_max, l_max, grid, gen_ids) -> float:
    """Truncated metric between the moment sources ``t1`` and ``t2``
    (callables word -> moment): sum over m <= m_max, l <= l_max of 2^{-m-l}
    times the max over words of length l in the generators ``gen_ids`` with
    indices <= m and letter times from ``grid`` (restricted to [0, m]) of
    min(|Delta moment|, 1).

    A word that several levels share is evaluated once per call, on both
    sides."""
    total = 0.0
    gaps = {}  # word -> min(|Delta moment|, 1)
    for m, ell, words in _metric_levels(m_max, l_max, grid, gen_ids):
        worst = 0.0
        for w in words:
            if w not in gaps:
                gaps[w] = min(abs(t1(w) - t2(w)), 1.0)
            worst = max(worst, gaps[w])
            if worst >= 1.0:
                break
        total += 2.0 ** (-m - ell) * worst
    return total


# ---------------------------------------------------------------------------
# Moment neighborhoods


def neighborhood_member(sigma_prime, sigma, m, delta, gen_ids) -> bool:
    """Membership of sigma' in the open neighborhood O_{m,delta}(sigma):
    every time-0 word of length <= m in the generators ``gen_ids`` has
    |sigma'(w) - sigma(w)| < delta. Both states are callables
    word -> moment; the first word outside ends the check."""
    words = (
        Word(tuple(Xs(i, j, 0) for i, j in combo))
        for length in range(1, m + 1)
        for combo in itertools.product(gen_ids, repeat=length)
    )
    for w in words:
        if abs(sigma_prime(w) - sigma(w)) >= delta:
            return False
    return True


# ---------------------------------------------------------------------------
# chi_orb Monte Carlo


def chi_orb_mc(sigma, family, m, delta, samples, base_seed, n_motions):
    """Estimate log nu_N({U tuples whose rotated trace lands in
    O_{m,delta}(sigma)}), with ``sigma`` a callable word -> moment.

    Returns (log_fraction, hits, samples) where log_fraction is the tagged
    NEG_INF on zero hits. Sample s draws its Haar tuple from
    ``rmt.path_rng(base_seed, s)`` (one stream, motions in index order).
    """
    if m < 1:
        raise ValueError("m must be >= 1, got %d" % m)
    if not delta > 0:
        raise ValueError("delta must be > 0, got %r" % delta)
    if samples < 1:
        raise ValueError("samples must be >= 1, got %d" % samples)
    gen_ids = sorted(family.entries)
    hits = 0
    for s in range(samples):
        rng = rmt.path_rng(base_seed, s)
        tup = rmt.HaarTuple({i: rmt.sample_haar(family.N, rng) for i in range(1, n_motions + 1)})
        emp = EmpiricalTrajectory(family, tup)
        if neighborhood_member(emp.moment, sigma, m, delta, gen_ids):
            hits += 1
    log_fraction = NEG_INF if hits == 0 else math.log(hits / samples)
    return log_fraction, hits, samples


# ---------------------------------------------------------------------------
# Rate integrand


def rate_integrand_eq9(tau, P, ts, s_points=6):
    """[(value, breakdown), ...] of the rate integrand at trajectory tau and
    test polynomial P, one entry per horizon t in ``ts``, in order.

    breakdown = {"shifted": tau^t(P), "reference": sigma0^lib(P),
                 "quadratic": (1/2) sum_k int_0^t ||E||^2 ds}.
    The s-integrand is smooth between kink points (0, t and the word times
    below t) and vanishes past the largest word time, where it jumps. So the
    s-integral takes ``s_points`` Gauss-Legendre nodes inside each interval
    between kinks, up to the largest word time, and evaluates no endpoint;
    each node is the Fraction of its float. The s-integrand depends on P and
    s, not on t, so each node is evaluated once per call for all horizons.
    """
    if not isinstance(tau, TraceState):
        raise UnsupportedState(
            "rate_integrand_eq9 needs an oracle TraceState (conditional "
            "expectations are not computable for empirical trajectories)"
        )
    # A subclass of LiberationState (a time-changed motion, say) is not
    # sigma0^lib, so only the class itself serves as its own reference.
    ref = tau if type(tau) is LiberationState else LiberationState(tau.sigma0, tau.n)
    if isinstance(P, Word):
        P = NCPolynomial.from_word(P)
    n = tau.n
    reference = complex(ref.moment(P)).real

    # ||E(Pi^s(D_s^(k) P))||^2 summed over k, at node s in (0, max_t).
    max_t = P.max_time()
    f = {}  # node s -> integrand, shared by the horizons of this call
    rule = _gauss_legendre(s_points)

    def integrand(s):
        if s not in f:
            total = 0.0
            for k in range(1, n + 1):
                E = NCPolynomial(
                    (w2, c2 * c)
                    for w, c in P.terms.items()
                    for w2, c2 in conditional_expectation_prop81(w, k, s, tau).terms.items()
                )
                total += tau.norm2_squared(E)
            f[s] = total
        return f[s]

    out = []
    for t in ts:
        t = ncalg._as_time(t)
        shifted = complex(tau.time_shifted_moment(P, t)).real
        quad = 0.0
        kinks = _kink_times_capped(P, t)
        for a, b in zip(kinks, kinks[1:]):
            # max_t is a kink when it is below t, so no interval crosses it
            if a >= max_t:
                continue
            half, mid = float(b - a) / 2, float(a + b) / 2
            quad += half * sum(w * integrand(Fraction(mid + half * x)) for x, w in rule)
        quad *= 0.5
        value = shifted - reference - quad
        out.append((value, {"shifted": shifted, "reference": reference, "quadratic": quad}))
    return out


def _gauss_legendre(n):
    """[(node, weight), ...] of the n-point Gauss-Legendre rule on [-1, 1]:
    the roots x of P_n by Newton's method, with weights 2 / ((1 - x^2)
    P_n'(x)^2). Plain floats, so the bytes do not depend on the LAPACK build
    and the process does not pay LAPACK's first call (about 1 MiB)."""
    rule = []
    for i in range(n):
        x, step = math.cos(math.pi * (i + 0.75) / (n + 0.5)), 1.0
        for _ in range(100):  # a handful of steps from this guess
            prev, p = 1.0, x  # P_{k-1}(x), P_k(x) by the three-term recurrence
            for k in range(2, n + 1):
                prev, p = p, ((2 * k - 1) * x * p - (k - 1) * prev) / k
            dp = n * (x * p - prev) / (x * x - 1)
            if abs(step) < 1e-15:  # converged, and dp is taken at this x
                break
            step = p / dp
            x -= step
        rule.append((x, 2 / ((1 - x * x) * dp * dp)))
    return rule


def _kink_times_capped(P: NCPolynomial, t: Fraction):
    kinks = {Fraction(0), t}
    for w in P.terms:
        for sym in w.letters:
            if 0 < sym.t < t:
                kinks.add(sym.t)
    return sorted(kinks)
