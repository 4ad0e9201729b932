"""Each correctness check of the benchmark passes the right value and fails a
value perturbed past its tolerance.

    python3 -m pytest perfbench/tests -q
"""

import math

import pytest

import checks
import oracles
import tracer as tracer_mod
import worker
from workloads import ExactWords, LiberationMetric, Ops, RateIntegrand, UbmEnsemble


@pytest.fixture(scope="module")
def lib():
    return worker.import_program()


# -- oracles ------------------------------------------------------------------


def test_biane_low_orders():
    for t in (0.25, 1.0, 3.0):
        assert oracles.biane_moment(1, t) == pytest.approx(math.exp(-t / 2), abs=1e-15)
        assert oracles.biane_moment(2, t) == pytest.approx(math.exp(-t) * (1 - t), abs=1e-15)
    assert oracles.biane_moment(4, 0.0) == 1.0


def test_scheme_moments_tend_to_biane():
    for n in range(1, 5):
        assert oracles.scheme_moments(4, 1.0, 1e-4)[n - 1] == pytest.approx(oracles.biane_moment(n, 1.0), abs=1e-4)
    # The first moment has a closed form: phi(sqrt h)^(t/h).
    h = 0.05
    assert oracles.scheme_moments(1, 1.0, h)[0] == pytest.approx(oracles.semicircle_char(math.sqrt(h)) ** 20, rel=1e-12)
    assert 1e-4 < oracles.scheme_bias(1, 1.0, h) < 1e-2


def test_projection_and_metric_closed_forms():
    assert [oracles.projection_pair_moment(L) for L in (1, 2, 3, 4, 10)] == [0.5, 0.25, 0.25, 0.1875, 0.123046875]
    assert oracles.two_time_moment(0.5, 0.5) == 0.5
    assert oracles.metric_ceiling(2, 3) == 0.65625


# -- checks -------------------------------------------------------------------


def test_ubm_band_bites_just_past_its_width():
    n, t, se, N, h = 2, 0.5, 1e-3, 128, 0.05
    target = oracles.biane_moment(n, t)
    band = checks.BAND_SE * se + 2.0 / N**2 + oracles.scheme_bias(n, t, h)
    assert checks.ubm_band(n, t, target + 0.99 * band, se, N, h)
    assert checks.ubm_band(n, t, target - 0.99 * band, se, N, h)
    assert not checks.ubm_band(n, t, target + 1.01 * band, se, N, h)
    assert not checks.ubm_band(n, t, float("nan"), se, N, h)


def test_ubm_ode_cell():
    good = repr(oracles.biane_moment(1, 0.5))
    bad = repr(oracles.biane_moment(1, 0.5) + 1e-6)
    assert checks.ubm_ode_cell(good, 1, 0.5) == checks.PASS
    assert checks.ubm_ode_cell("np.float64(%s)" % good, 1, 0.5) == checks.KEPT_FAULT
    assert checks.ubm_ode_cell(bad, 1, 0.5) == checks.FAIL
    assert checks.ubm_ode_cell("np.float64(%s)" % bad, 1, 0.5) == checks.FAIL
    assert checks.ubm_ode_cell("1.0", 3, 0.0) == checks.PASS
    assert checks.ubm_ode_cell("oops", 1, 0.5) == checks.FAIL


def test_metric_checks():
    assert checks.metric_in_range(0.0, 2, 3) and checks.metric_in_range(0.65625, 2, 3)
    assert not checks.metric_in_range(0.65626, 2, 3)
    assert not checks.metric_in_range(-1e-9, 2, 3)
    assert checks.metric_converges([0.026] * 5, [0.0239] * 5)
    assert not checks.metric_converges([0.0239] * 5, [0.026] * 5)


def test_exact_checks():
    assert checks.close(0.25 + 5e-10, 0.25)
    assert not checks.close(0.25 + 2e-9, 0.25)
    z = 0.1 + 0.2j
    assert checks.rotation_invariant(z, z + 5e-10)
    assert not checks.rotation_invariant(z, z + 2e-9j)
    assert checks.reversal_conjugates(z, z.conjugate())
    assert not checks.reversal_conjugates(z, z)


def test_rate_checks():
    assert checks.rate_value(0.0) and checks.rate_value(-0.02) and checks.rate_value(1e-8)
    assert not checks.rate_value(2e-8)
    assert checks.rate_quadratic(0.0) and not checks.rate_quadratic(-1e-12)
    assert checks.pairing(4e-16)
    assert not checks.pairing(2e-9) and not checks.pairing(float("nan"))


# -- the checks as the workloads apply them --------------------------------------


def ubm_csv(ode_text):
    lines = ["# liberation-lab", ",".join(UbmEnsemble.COLUMNS)]
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        for n in range(1, 5):
            m = oracles.biane_moment(n, t)
            ode = repr(m) if t == 0 else ode_text(m)
            lines.append("%d,%r,%r,%s,0.0,%r" % (n, t, m, ode, 1e-3 if t else 0.0))
    return "\n".join(lines) + "\n"


def test_ubm_workload_counts_the_kept_fault():
    wl = UbmEnsemble(1, None)
    ops = Ops()
    wl.check(0, ubm_csv(lambda m: "np.float64(%r)" % m), ops)
    assert (ops.attempted, ops.failed, ops.kept_fault, ops.correct) == (41, 16, 16, True)
    ops = Ops()
    wl.check(0, ubm_csv(repr), ops)
    assert (ops.failed, ops.correct) == (0, True)
    ops = Ops()
    wl.check(0, ubm_csv(lambda m: "np.float64(%r)" % (m + 1e-6)), ops)
    assert not ops.correct


def metric_csv(d16, d128):
    rows = ["16,%d,%r" % (s, d16) for s in range(5)] + ["128,%d,%r" % (s, d128) for s in range(5)]
    return "N,seed_index,d\n" + "\n".join(rows) + "\n"


def test_metric_workload():
    wl = LiberationMetric(1, None)
    ops = Ops()
    wl.check(0, metric_csv(0.026, 0.0239), ops)
    assert (ops.attempted, ops.failed) == (12, 0)
    ops = Ops()
    wl.check(0, metric_csv(0.0239, 0.026), ops)
    assert ops.failed == 1 and not ops.correct
    ops = Ops()
    wl.check(0, metric_csv(0.7, 0.0239), ops)
    assert ops.failed == 5


def test_exact_workload(lib):
    wl = ExactWords(1, lib)
    words, plan = wl.jobs[0]
    values = [0.1] * len(words)
    for kind, i, ref in sorted(plan, key=lambda step: step[0] != "closed"):
        if kind == "closed":
            values[i] = ref
        else:  # a rotated or reversed copy of word i; the values are real
            values[ref] = values[i]
    ops = Ops()
    wl.check(0, values, ops)
    assert ops.failed == 0 and ops.attempted == len(plan)
    closed = next(i for kind, i, _ in plan if kind == "closed")
    values[closed] += 1e-6
    ops = Ops()
    wl.check(0, values, ops)
    assert ops.failed >= 1 and not ops.correct


def test_rate_workload(lib):
    wl = RateIntegrand(1, lib)
    # Two consecutive jobs give the rows of both word times.
    assert sorted(argv[4] for argv, _, _ in wl.jobs[:2]) == sorted(wl.WORD_TIMES)
    rows = []
    for length in range(1, 5):
        for t in ("1/2", "1", "2"):
            for start in range(2):
                P = "X[1,1;1/2]" * length
                rows.append('"%s",%s,-0.01,0.2,%r,0.01' % (P, t, oracles.projection_pair_moment(length)))
    table = ",".join(wl.COLUMNS) + "\n" + "\n".join(rows) + "\n"
    ops = Ops()
    wl.check(0, (table, [1e-16] * 3), ops)
    assert (ops.attempted, ops.failed) == (1 + 3 * 24 + 3, 0)
    ops = Ops()
    wl.check(0, (table.replace(",-0.01,", ",2e-8,", 1), [1e-16, 2e-9, 1e-16]), ops)
    assert ops.failed == 2


# -- tracer ---------------------------------------------------------------------


def test_tracer_counts_and_restores(lib, monkeypatch):
    from liblab import ncpart

    original = ncpart.kreweras
    tr = tracer_mod.Tracer()
    monkeypatch.setattr(tracer_mod, "TARGETS", tracer_mod.TARGETS + [("gone.fn", "liblab.ncpart", "no_such_fn")])
    tr.install()
    assert ncpart.kreweras is not original
    pi = next(iter(ncpart.iter_nc(4)))
    ncpart.kreweras(pi)
    tr.uninstall()
    assert ncpart.kreweras is original
    assert tr.calls["ncpart.kreweras"] == 1 and tr.calls["ncpart.iter_nc"] == 1
    assert tr.absent == ["gone.fn"]
    assert all(span[3] in ("ncpart.kreweras", "ncpart.iter_nc") for span in tr.spans)
