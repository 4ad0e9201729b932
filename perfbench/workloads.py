"""The four workloads: inputs made from the seed, the timed call into the
program, and the checks on what it returned.

A workload object is built once per process (input generation is part of
set-up). ``run(job)`` is the timed part and calls only the program;
``check(job, output, ops)`` runs afterwards, untimed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
from fractions import Fraction

import checks
import oracles

JOB_POOL = 64  # inputs made up front; later jobs reuse them in turn


class Ops:
    """Tally of checks. An operation is one check on one output value."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kept_fault = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def outcome(self, result, what):
        """Record a PASS / KEPT_FAULT / FAIL verdict from ``checks``."""
        if result == checks.KEPT_FAULT:
            self.attempted += 1
            self.failed += 1
            self.kept_fault += 1
        else:
            self.check(result == checks.PASS, what)

    @property
    def correct(self):
        """True when every failed operation is the kept fault."""
        return self.failed == self.kept_fault


def _job_rngs(seed, name):
    return [random.Random("%s:%d:%d" % (name, seed, job)) for job in range(JOB_POOL)]


def _cli(lib, argv):
    """Run ``liberation-lab argv`` in-process; return the CSV it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main(argv)
    if code != 0:
        raise RuntimeError("liberation-lab %s exited with %r" % (" ".join(argv), code))
    return buf.getvalue()


def _csv_rows(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, list(reader)


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return float("nan")


# ---------------------------------------------------------------------------


class UbmEnsemble:
    """``liberation-lab ubm-moments`` at N = 128: the batched stepper."""

    name = "ubm-ensemble"
    N, PATHS, STEPS, N_MAX, T = 128, 16, 20, 4, 1
    # BatchedUBM seeds path p with base_seed ^ p, so the low bits of the seed
    # are cleared: distinct seeds then give disjoint sets of path streams.
    SEED_SHIFT = 8
    COLUMNS = ["n", "t", "empirical", "ode", "gap", "stderr"]

    def __init__(self, seed, lib):
        self.lib = lib
        self.argv = []
        for rng in _job_rngs(seed, self.name):
            cli_seed = rng.randrange(1, 1 << 22) << self.SEED_SHIFT
            self.argv.append(
                ["ubm-moments", "--N", str(self.N), "--paths", str(self.PATHS),
                 "--steps", str(self.STEPS), "--n-max", str(self.N_MAX),
                 "--T", str(self.T), "--seed", str(cli_seed), "--out", "-"]
            )

    def run(self, job):
        return _cli(self.lib, self.argv[job])

    def check(self, job, output, ops):
        header, rows = _csv_rows(output)
        ops.check(header == self.COLUMNS and len(rows) == 5 * self.N_MAX, "ubm-ensemble: CSV shape")
        h = self.T / self.STEPS
        for row in rows:
            n, t = int(row[0]), float(row[1])
            emp, se = _float(row[2]), _float(row[5])
            ops.check(
                checks.ubm_band(n, t, emp, se, self.N, h),
                "ubm-ensemble: n=%d t=%g empirical=%s stderr=%s outside the band" % (n, t, row[2], row[5]),
            )
            ops.outcome(
                checks.ubm_ode_cell(row[3], n, t),
                "ubm-ensemble: n=%d t=%g ode=%s" % (n, t, row[3]),
            )


class LiberationMetric:
    """``liberation-lab liberation-convergence``: single paths of two motions
    and the word traces of the trajectory metric."""

    name = "liberation-metric"
    N_LIST, SEEDS, M_MAX, L_MAX = (16, 128), 5, 2, 3
    # The CLI draws trajectory s from seed ^ (s * 7919), below 2^16 here.
    SEED_SHIFT = 16

    def __init__(self, seed, lib):
        self.lib = lib
        self.argv = []
        for rng in _job_rngs(seed, self.name):
            cli_seed = rng.randrange(1, 1 << 14) << self.SEED_SHIFT
            self.argv.append(
                ["liberation-convergence", "--N-list", ",".join(map(str, self.N_LIST)),
                 "--seeds", str(self.SEEDS), "--grid", "0,1/2,1",
                 "--m-max", str(self.M_MAX), "--l-max", str(self.L_MAX),
                 "--seed", str(cli_seed), "--out", "-"]
            )

    def run(self, job):
        return _cli(self.lib, self.argv[job])

    def check(self, job, output, ops):
        header, rows = _csv_rows(output)
        ops.check(
            header == ["N", "seed_index", "d"] and len(rows) == len(self.N_LIST) * self.SEEDS,
            "liberation-metric: CSV shape",
        )
        by_n = {N: [] for N in self.N_LIST}
        for row in rows:
            d = _float(row[2])
            ops.check(checks.metric_in_range(d, self.M_MAX, self.L_MAX), "liberation-metric: d=%s out of range" % row[2])
            by_n.setdefault(int(row[0]), []).append(d)
        small, large = (by_n[N] for N in self.N_LIST)
        ops.check(
            bool(small) and bool(large) and checks.metric_converges(small, large),
            "liberation-metric: mean d at N=%d not below N=%d" % self.N_LIST[::-1],
        )


# ---------------------------------------------------------------------------


ONE, HALF, QUARTER = Fraction(1), Fraction(1, 2), Fraction(1, 4)
PATTERNS = {
    "all-1": lambda q, row: ONE,
    "rows-1/2-1": lambda q, row: HALF if row == 1 else ONE,
    "cycle-1/4-1/2-1": lambda q, row: (QUARTER, HALF, ONE)[q % 3],
}


def alternating(length, start, pattern):
    """Letters (row, time) of the alternating word x_{start,1} x_{other,1} ..."""
    rows = [start if q % 2 == 0 else 3 - start for q in range(length)]
    return tuple((row, PATTERNS[pattern](q, row)) for q, row in enumerate(rows))


def single_time_per_row(letters):
    times = {}
    for row, t in letters:
        times.setdefault(row, set()).add(t)
    return all(len(ts) == 1 for ts in times.values())


class ExactWords:
    """``LiberationState(sigma0, 2).moment(w)``: the exact engine on long
    alternating words in two free trace-1/2 projections."""

    name = "exact-words"
    SHORT, MID, LONG = 6, 8, 10
    TWO_TIME = 4
    TIME_GRID = [Fraction(k, 8) for k in range(17)]

    def __init__(self, seed, lib):
        self.lib = lib
        self.jobs = [self._make_job(rng) for rng in _job_rngs(seed, self.name)]

    def _make_job(self, rng):
        """(letter tuples to evaluate, checks over their indices)."""
        words, plan = [], []

        def add(letters):
            words.append(letters)
            return len(words) - 1

        for pattern in PATTERNS:
            for length in range(2, self.MID + 1):
                base = alternating(length, rng.choice((1, 2)), pattern)
                i = add(base)
                if single_time_per_row(base):
                    plan.append(("closed", i, oracles.projection_pair_moment(length)))
                if length <= self.SHORT:
                    r = rng.randrange(1, length)
                    plan.append(("rotation", i, add(base[r:] + base[:r])))
                if length <= self.SHORT or not single_time_per_row(base):
                    plan.append(("reversal", i, add(base[::-1])))
        longest = alternating(self.LONG, rng.choice((1, 2)), "all-1")
        plan.append(("closed", add(longest), oracles.projection_pair_moment(self.LONG)))
        for _ in range(self.TWO_TIME):
            row = rng.choice((1, 2))
            s, t = rng.choice(self.TIME_GRID), rng.choice(self.TIME_GRID)
            plan.append(("closed", add(((row, s), (row, t))), oracles.two_time_moment(s, t)))
        ncalg = self.lib.ncalg
        return [ncalg.Word(tuple(ncalg.Xs(row, 1, t) for row, t in w)) for w in words], plan

    def run(self, job):
        state = self.lib.freestate.LiberationState(self.lib.cli.two_free_projections(), 2)
        return [state.moment(w) for w in self.jobs[job][0]]

    def check(self, job, output, ops):
        words, plan = self.jobs[job]
        for kind, i, ref in plan:
            what = "exact-words: %s of %s = %r" % (kind, self.lib.ncalg.format_word(words[i]), output[i])
            if kind == "closed":
                ops.check(checks.close(output[i], ref), what + " vs %r" % ref)
            elif kind == "rotation":
                ops.check(checks.rotation_invariant(output[i], output[ref]), what + " rotated %r" % output[ref])
            else:
                ops.check(checks.reversal_conjugates(output[i], output[ref]), what + " reversed %r" % output[ref])


class RateIntegrand:
    """``liberation-lab rate-minimizer`` plus Prop 8.1's pairing identity on
    criterion 07's cases: thousands of short mixed X/V words.

    A job runs the rate minimizer at one of the two word times, in turn, so
    that any two consecutive jobs give the 48 rows of
    ``rate-minimizer --max-len 4 --word-times 1/4,1/2 --t-list 1/2,1,2``.
    The two word times cost the same to within a few per cent, and a job of
    half the size lets a run hold two sessions.
    """

    name = "rate-integrand"
    MAX_LEN, WORD_TIMES, T_LIST = 4, ("1/4", "1/2"), ("1/2", "1", "2")
    COLUMNS = ["P", "t", "value", "shifted", "reference", "quadratic"]

    def __init__(self, seed, lib):
        self.lib = lib
        self.jobs = []
        F = Fraction
        cli = lib.cli
        p_words = cli.projection_test_words([F(1)], max_len=4)[:10]
        y_words = cli.projection_test_words([F(1, 2)], max_len=3)[:10]
        s_vals = [F(1, 4), F(3, 4), F(3, 2), F(5, 2)]
        for job, rng in enumerate(_job_rngs(seed, self.name)):
            # The seed orders the inputs; the set of cases is criterion 07's.
            word_time = self.WORD_TIMES[(job + seed) % len(self.WORD_TIMES)]
            t_list = list(self.T_LIST)
            rng.shuffle(t_list)
            argv = ["rate-minimizer", "--max-len", str(self.MAX_LEN),
                    "--word-times", word_time, "--t-list", ",".join(t_list),
                    "--out", "-"]
            cases = [(P, k, s) for P in p_words for k in (1, 2, 3) for s in s_vals]
            rng.shuffle(cases)
            ys = list(y_words)
            rng.shuffle(ys)
            self.jobs.append((argv, cases, ys))

    def run(self, job):
        argv, cases, ys = self.jobs[job]
        lib = self.lib
        ncalg, poly = lib.ncalg, lib.ncalg.NCPolynomial
        table = _cli(lib, argv)
        tau = lib.freestate.LiberationState(lib.cli.two_free_projections(), 3)
        residuals = []
        for P, k, s in cases:
            dP = ncalg.cyclic_derivative(poly.from_word(P), k, s)
            lhs_poly = ncalg.pi_s_substitution(dP, s, tau.n)
            E = lib.freestate.conditional_expectation_prop81(P, k, s, tau)
            for y in ys:
                ypoly = poly.from_word(y)
                lhs = tau.extended_moment(lhs_poly * ypoly)
                rhs = tau.extended_moment(E * ypoly)
                residuals.append(abs(lhs - rhs))
        return table, residuals

    def check(self, job, output, ops):
        table, residuals = output
        header, rows = _csv_rows(table)
        rows_expected = 2 * self.MAX_LEN * len(self.T_LIST)
        ops.check(header == self.COLUMNS and len(rows) == rows_expected, "rate-integrand: CSV shape")
        for row in rows:
            value, reference, quadratic = _float(row[2]), _float(row[4]), _float(row[5])
            length = row[0].count("X[")
            what = "rate-integrand: P=%s t=%s" % (row[0], row[1])
            ops.check(checks.rate_value(value), what + " value=%s > 1e-8" % row[2])
            ops.check(checks.rate_quadratic(quadratic), what + " quadratic=%s < 0" % row[5])
            ops.check(
                checks.close(reference, oracles.projection_pair_moment(length)),
                what + " reference=%s" % row[4],
            )
        for r in residuals:
            ops.check(checks.pairing(r), "rate-integrand: pairing residual %.3e" % r)


WORKLOADS = {w.name: w for w in (UbmEnsemble, LiberationMetric, ExactWords, RateIntegrand)}
