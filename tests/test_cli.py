"""Command-line runner: exit codes, config/flag precedence, CSV output."""

import functools
import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import liblab
from liblab import __version__, cli, ratefn, rmt
from liblab.freestate import LiberationState


def run_main(argv):
    return cli.main(argv)


def read_lines(path):
    return path.read_text().splitlines()


class TestExitCodes:
    def test_success(self, tmp_path):
        out = tmp_path / "hk.csv"
        code = run_main(
            ["heat-kernel", "--points", "3", "--t-min", "12", "--t-max", "40", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()

    def test_config_error_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[heat-kernel]\nbogus = 1\n")
        assert run_main(["heat-kernel", "--config", str(cfg)]) == 2

    def test_config_error_missing_file(self, tmp_path):
        assert run_main(["heat-kernel", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_config_error_bad_value(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[chi-orb]\ndelta = -1\n")
        assert run_main(["chi-orb", "--config", str(cfg)]) == 2

    def test_domain_error(self, tmp_path):
        # t_min below the supercritical threshold pi^2
        code = run_main(
            ["heat-kernel", "--points", "2", "--t-min", "1", "--t-max", "40",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 3

    def test_io_error(self, tmp_path):
        code = run_main(
            ["heat-kernel", "--points", "2", "--out", str(tmp_path / "no_dir" / "x.csv")]
        )
        assert code == 4

    def test_unknown_subcommand(self, capsys):
        assert run_main(["not-an-experiment"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv", [["ubm-moments", "--seed", "-1"], ["chi-orb", "--seed", "-5"]]
    )
    def test_negative_seed_is_config_error(self, argv, monkeypatch, capsys):
        _never_run(monkeypatch, argv[0])
        assert run_main(argv) == 2
        assert "seed must be >= 0, got %s" % argv[-1] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ubm-moments", "--N", "0"], "N must be >= 1, got 0"),
            (["ubm-moments", "--paths", "-2"], "paths must be >= 1, got -2"),
            (["ubm-moments", "--steps", "0"], "steps must be >= 1, got 0"),
            (["ubm-moments", "--n-max", "0"], "n_max must be >= 1, got 0"),
            (["liberation-convergence", "--seeds", "0"], "seeds must be >= 1, got 0"),
            (["liberation-convergence", "--N-list", "16,0"], "N_list must be nonempty with every entry >= 1, got 16,0"),
            (["liberation-convergence", "--N-list", ""], "N_list must be nonempty with every entry >= 1, got an empty list"),
            (["chi-orb", "--m", "0"], "m must be >= 1, got 0"),
            (["chi-orb", "--samples", "0"], "samples must be >= 1, got 0"),
            (["chi-orb", "--delta", "-1"], "delta must be > 0, got -1.0"),
            (["metric", "--m-max", "0"], "m_max must be >= 1, got 0"),
            (["metric", "--l-max", "0"], "l_max must be >= 1, got 0"),
            (["heat-kernel", "--points", "0"], "points must be >= 1, got 0"),
            (["prop81-check", "--n-words", "0"], "n_words must be >= 1, got 0"),
            (["prop81-check", "--n-motions", "0"], "n_motions must be >= 1, got 0"),
            (["rate-minimizer", "--max-len", "0"], "max_len must be >= 1, got 0"),
            (["bounds-51", "--m-list", "0"], "m_list must be nonempty with every entry >= 1, got 0"),
            (["bounds-51", "--m-list", "2,-1"], "m_list must be nonempty with every entry >= 1, got 2,-1"),
            (["ubm-moments", "--T", "-1"], "T must be > 0, got -1"),
            (["ubm-moments", "--T", "0"], "T must be > 0, got 0"),
            (["ubm-moments", "--T=-1/2"], "T must be > 0, got -1/2"),
            (["ubm-moments", "--T", "-1/2"], "T must be > 0, got -1/2"),
            (["rate-minimizer", "--max-len", "7"], "max_len must be <= 6, the Prop 8.1 word-length cap, got 7"),
            (["prop81-check", "--n-words", "100"], "n_words must be <= 4, the alternating words of length <= 2, got 100"),
        ],
    )
    def test_nonpositive_count_is_config_error(self, argv, message, monkeypatch, capsys):
        _never_run(monkeypatch, argv[0])
        assert run_main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["metric", "--N", "4", "--grid", ","], "grid must be nonempty with every entry >= 0, got an empty list"),
            (["metric", "--N", "4", "--grid", "-1"], "grid must be nonempty with every entry >= 0, got -1"),
            (["metric", "--N", "4", "--grid", "5"], "grid must hold a time <= m_max = 2, got 5"),
            (["liberation-convergence", "--grid", "3,4", "--m-max", "2"], "grid must hold a time <= m_max = 2, got 3,4"),
            (["rate-minimizer", "--t-list", ","], "t_list must be nonempty with every entry >= 0, got an empty list"),
            (["rate-minimizer", "--t-list", "-1"], "t_list must be nonempty with every entry >= 0, got -1"),
            (["rate-minimizer", "--word-times", "1/2,-1/4"], "word_times must be nonempty with every entry >= 0, got 1/2,-1/4"),
            (["bounds-51", "--T-list", ","], "T_list must be nonempty with every entry >= 0, got an empty list"),
            (["bounds-51", "--T-list", "-1"], "T_list must be nonempty with every entry >= 0, got -1"),
            (["prop81-check", "--s-list", ","], "s_list must be nonempty with every entry >= 0, got an empty list"),
            (["metric", "--grid", "-1/2"], "grid must be nonempty with every entry >= 0, got -1/2"),
            (["metric", "--grid", "-1/2,1"], "grid must be nonempty with every entry >= 0, got -1/2,1"),
            (["metric", "--grid", "0,1/3"], "grid times must be multiples of the step 1/50, got 1/3"),
            (["liberation-convergence", "--grid", "0,1/3"], "grid times must be multiples of the step 1/50, got 1/3"),
        ],
    )
    def test_bad_time_list_is_config_error(self, argv, message, monkeypatch, capsys):
        _never_run(monkeypatch, argv[0])
        assert run_main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["2", "3", "202"])
    def test_report_times_off_step_grid_is_config_error(self, steps, monkeypatch, capsys):
        # ubm-moments reports t = T/4, T/2, 3T/4; these steps would drop rows
        argv = ["ubm-moments", "--steps", steps]
        _never_run(monkeypatch, argv[0])
        assert run_main(argv) == 2
        assert (
            "steps must be a multiple of 4 to put T/4, T/2 and 3T/4 on the step grid, got %s"
            % steps
        ) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["metric", "--grid", "0,1/0"], "invalid _frac_list value: '0,1/0'"),
            (["ubm-moments", "--T", "1/0"], "invalid _frac value: '1/0'"),
        ],
    )
    def test_zero_denominator_is_usage_error(self, argv, message, monkeypatch, capsys):
        _never_run(monkeypatch, argv[0])
        assert run_main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["no_dir/x.csv", "."])
    def test_bad_out_fails_before_run(self, target, tmp_path, monkeypatch, capsys):
        # a missing directory, or a directory as the target
        _never_run(monkeypatch, "heat-kernel")
        code = run_main(["heat-kernel", "--out", str(tmp_path / target)])
        assert code == 4
        assert "error: io:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_leaves_no_file(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run_main(
            ["heat-kernel", "--points", "2", "--t-min", "1", "--out", str(out)]
        )
        assert code == 3
        assert list(tmp_path.iterdir()) == []

    def test_out_replaced_whole(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_text("stale\n")
        assert run_main(["bounds-51", "--m-list", "1", "--T-list", "1", "--out", str(out)]) == 0
        assert read_lines(out)[0] == "# liberation-lab %s" % __version__
        assert list(tmp_path.iterdir()) == [out]


def _never_run(monkeypatch, name):
    """Replace a subcommand's runner by one that fails the test if called."""
    _, schema = cli._EXPERIMENTS[name]

    def runner(cfg):
        raise AssertionError("runner of %s called" % name)

    monkeypatch.setitem(cli._EXPERIMENTS, name, (runner, schema))


class TestConfigPrecedence:
    def test_config_applies(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[heat-kernel]\npoints = 4\nt-min = 13\nt-max = 50\n")
        out = tmp_path / "o.csv"
        assert run_main(["heat-kernel", "--config", str(cfg), "--out", str(out)]) == 0
        header = [l for l in read_lines(out) if l.startswith("#")]
        assert any("points = 4" in l for l in header)
        data = [l for l in read_lines(out) if not l.startswith("#")]
        assert len(data) == 1 + 4  # column row + 4 points

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[heat-kernel]\npoints = 4\nt-min = 13\nt-max = 50\n")
        out = tmp_path / "o.csv"
        code = run_main(
            ["heat-kernel", "--config", str(cfg), "--points", "2", "--out", str(out)]
        )
        assert code == 0
        header = [l for l in read_lines(out) if l.startswith("#")]
        assert any("points = 2" in l for l in header)
        data = [l for l in read_lines(out) if not l.startswith("#")]
        assert len(data) == 1 + 2

    def test_other_sections_ignored(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[bounds-51]\nbogus = 1\n[heat-kernel]\npoints = 2\n")
        out = tmp_path / "o.csv"
        assert run_main(["heat-kernel", "--config", str(cfg), "--out", str(out)]) == 0


class TestCsvOutput:
    def test_header_schema(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run_main(["bounds-51", "--m-list", "1,2", "--T-list", "1", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0] == "# liberation-lab %s" % __version__
        assert lines[1] == "# schema = 1"
        header = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# experiment = bounds-51") for l in header)
        assert not any(l.startswith("# seed = ") for l in header)
        cols = [l for l in lines if not l.startswith("#")][0]
        assert cols == "m,T,lhs,rhs,margin"
        # a stochastic subcommand echoes the seed it ran with
        out = tmp_path / "u.csv"
        argv = ["ubm-moments", "--N", "4", "--paths", "2", "--steps", "4", "--n-max", "1"]
        assert run_main(argv + ["--seed", "5", "--out", str(out)]) == 0
        assert "# seed = 5" in read_lines(out)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bounds-51", "--m-list", "1,2,3", "--T-list", "1,2"]
        assert run_main(args + ["--out", str(a)]) == 0
        assert run_main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_default(self, capsys):
        assert run_main(["bounds-51", "--m-list", "1", "--T-list", "1"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("# liberation-lab")
        assert "m,T,lhs,rhs,margin" in text

    def test_bounds_margin_positive(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run_main(["bounds-51", "--m-list", "2", "--T-list", "1,4", "--out", str(out)]) == 0
        rows = [l.split(",") for l in read_lines(out) if not l.startswith("#")][1:]
        for m, T, lhs, rhs, margin in rows:
            assert float(margin) > 0


def _child_env():
    """The environment of a child that imports the same liblab as this test,
    installed or not."""
    src = os.path.dirname(os.path.dirname(liblab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


class TestConsoleScript:
    def test_entry_point_version(self):
        res = subprocess.run(
            [sys.executable, "-m", "liblab.cli", "--version"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert res.returncode == 0
        assert __version__ in res.stdout


class TestConfigSchema:
    def test_every_key_is_read(self):
        # a key the runner never reads is an option that does nothing
        unread = [
            (name, key)
            for name, (runner, schema) in cli._EXPERIMENTS.items()
            for key in schema
            if 'cfg["%s"]' % key not in inspect.getsource(runner)
        ]
        assert unread == []


class TestSeeding:
    def test_seeds_share_no_trajectory(self, tmp_path):
        # trajectory s is path s of --seed; under the old seed ^ (s * 7919)
        # rule, trajectory 1 of seed 7919 was trajectory 0 of seed 0
        argv = ["liberation-convergence", "--N-list", "4", "--seeds", "3", "--grid", "0,1/2",
                "--m-max", "1", "--l-max", "2"]
        ds = {}
        for seed in (0, 7919):
            out = tmp_path / ("s%d.csv" % seed)
            assert run_main(argv + ["--seed", str(seed), "--out", str(out)]) == 0
            rows = [l.split(",") for l in read_lines(out) if not l.startswith("#")][1:]
            ds[seed] = [row[2] for row in rows]
        assert len(set(ds[0]) | set(ds[7919])) == 6


_ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


class TestShards:
    @pytest.mark.skipif(len(_ALLOWED_CPUS) < 2, reason="needs two allowed CPUs")
    @pytest.mark.parametrize(
        "argv",
        [
            ["liberation-convergence", "--N-list", "16,128", "--seeds", "5", "--grid", "0,1/2,1",
             "--m-max", "2", "--l-max", "3"],
            ["ubm-moments", "--N", "128", "--paths", "6", "--steps", "8", "--n-max", "3"],
        ],
        ids=["liberation-convergence", "ubm-moments"],
    )
    def test_csv_does_not_depend_on_core_count(self, argv, tmp_path):
        # the BLAS thread count would follow the CPU count and move last bits
        env = _child_env()
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(var, None)
        csvs = []
        for cpus in ({_ALLOWED_CPUS[0]}, set(_ALLOWED_CPUS[:2])):
            out = tmp_path / ("cpus%d.csv" % len(cpus))
            subprocess.run(
                [sys.executable, "-m", "liblab.cli", *argv, "--out", str(out)],
                env=env,
                check=True,
                timeout=600,
                preexec_fn=lambda cpus=cpus: os.sched_setaffinity(0, cpus),
            )
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_failure_is_clean(self, tmp_path, monkeypatch, capsys):
        name = "liberation-convergence"
        argv = [name, "--N-list", "16,128", "--seeds", "2", "--grid", "0,1/2", "--m-max", "1",
                "--l-max", "2"]
        out = tmp_path / "x.csv"
        monkeypatch.setattr(rmt, "_allowed_cpus", lambda: 2)
        assert run_main(argv + ["--out", str(out)]) == 0
        if rmt._blas_threads():  # the workers outlive the run, none unreaped
            assert os.waitpid(-1, os.WNOHANG) == (0, 0)
        out.unlink()

        def run_failing(cfg):
            # path -1 has no random stream, so the second worker raises
            table = cli._oracle_table(cfg["grid"], cfg["m_max"], cfg["l_max"])
            fn = functools.partial(cli._trajectory_d, cfg["seed"], cfg["grid"], cfg["m_max"],
                                   cfg["l_max"], table)
            rmt.map_shards(fn, [cli.Trajectory(16, 0), cli.Trajectory(16, -1)])

        monkeypatch.setitem(cli._EXPERIMENTS, name, (run_failing, cli._EXPERIMENTS[name][1]))
        assert run_main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "error: Trajectory(N=16, seed_index=-1) failed: ValueError" in err
        assert list(tmp_path.iterdir()) == []
        if rmt._blas_threads():  # a failing item leaves the workers alive
            assert os.waitpid(-1, os.WNOHANG) == (0, 0)
        rmt._close_pool()
        with pytest.raises(ChildProcessError):  # no worker left unreaped
            os.waitpid(-1, os.WNOHANG)


class TestUbmMomentsRunner:
    def test_ode_and_gap_are_plain_numbers(self, tmp_path):
        out = tmp_path / "u.csv"
        code = run_main(
            ["ubm-moments", "--N", "8", "--paths", "4", "--steps", "4", "--n-max", "3",
             "--T", "1", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in read_lines(out) if not l.startswith("#")]
        header, rows = lines[0].split(","), [l.split(",") for l in lines[1:]]
        assert rows
        for row in rows:
            float(row[header.index("ode")])
            float(row[header.index("gap")])


class TestMetricRunner:
    def test_times_past_m_max_are_not_simulated(self, tmp_path, monkeypatch):
        # the metric reads no time past m_max = 2: a grid time 40 changes
        # neither d nor the simulated path
        stored = []
        simulate = rmt.simulate_trajectory

        def recorded(N, n_motions, sample_times, *args, **kw):
            stored.append(sorted(sample_times))
            return simulate(N, n_motions, sample_times, *args, **kw)

        monkeypatch.setattr(rmt, "simulate_trajectory", recorded)
        ds = []
        for grid in ("0,1/2,1", "0,1/2,1,40"):
            out = tmp_path / "m.csv"
            assert run_main(["metric", "--N", "16", "--grid", grid, "--out", str(out)]) == 0
            ds.append(read_lines(out)[-1])
        assert ds[0] == ds[1]
        assert stored == [[Fraction(1, 2), Fraction(1)]] * 2

    def test_table_matches_fresh_oracle(self):
        # one table serves every trajectory with a fresh oracle's values
        grid, m_max, l_max, seed = [Fraction(0), Fraction(1, 2), Fraction(1)], 2, 3, 7
        table = cli._oracle_table(grid, m_max, l_max)
        for N in (16, 32):
            for s in (0, 1):
                got = cli._trajectory_d(seed, grid, m_max, l_max, table, cli.Trajectory(N, s))
                emp = cli._empirical_liberation(N, seed, grid, m_max, path=s)
                fresh = LiberationState(cli.two_free_projections(), 2)
                want = ratefn.trajectory_metric_d(
                    emp.moment, fresh.moment, m_max, l_max, grid, gen_ids=[(1, 1), (2, 1)]
                )
                assert got == want


class TestProp81Runner:
    def test_residuals_small(self, tmp_path):
        out = tmp_path / "p.csv"
        code = run_main(
            ["prop81-check", "--n-words", "2", "--s-list", "1/4", "--n-motions", "2",
             "--out", str(out)]
        )
        assert code == 0
        rows = [l.split(",") for l in read_lines(out) if not l.startswith("#")][1:]
        assert rows
        for row in rows:
            assert float(row[-1]) < 1e-9
