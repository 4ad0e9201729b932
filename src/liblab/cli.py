"""Experiment runner.

Subcommands: ubm-moments, liberation-convergence, chi-orb, heat-kernel,
prop81-check, rate-minimizer, bounds-51, metric.

Every output file is self-describing: a ``#``-prefixed header echoes the tool
version, schema version, and the full resolved configuration (including the
seed of the four stochastic subcommands). Config files are INI-style (one
section per subcommand); command-line flags override config values. An
``--out`` file is opened before the run and written through a temporary file
beside it, so it is never left half-written.

Exit codes: 0 success, 2 configuration error, 3 numeric domain error, 4 I/O.
"""

from __future__ import annotations

import argparse
import collections
import configparser
import contextlib
import csv
import functools
import os
import sys
from fractions import Fraction

from . import __version__, ncalg, ratefn, rmt
from .errors import ConfigError, DomainError, GridMiss, IncompatibleN, LiblabError
from .freestate import (
    PROP81_LENGTH_CAP,
    InitialLaw,
    LiberationState,
    MarginalLaw,
    free_product_limit_state,
    lemma51_bound_check,
)
from .ncalg import Word, Xs

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Shared fixtures


def two_free_projections() -> InitialLaw:
    """sigma0 = two free trace-1/2 projections, generator ids (1,1), (2,1)."""
    return InitialLaw.free_product(
        [
            MarginalLaw(1, atoms=[1, 0], weights=[Fraction(1, 2), Fraction(1, 2)]),
            MarginalLaw(2, atoms=[1, 0], weights=[Fraction(1, 2), Fraction(1, 2)]),
        ]
    )


def projection_test_words(times, max_len=4):
    """Alternating words in x_{11}, x_{21} up to max_len, at the given times."""
    words = []
    for t in times:
        t = Fraction(t)
        for length in range(1, max_len + 1):
            for start in (1, 2):
                letters = tuple(
                    Xs(start if q % 2 == 0 else 3 - start, 1, t) for q in range(length)
                )
                words.append(Word(letters))
    return words


# ---------------------------------------------------------------------------
# Output plumbing


@contextlib.contextmanager
def _output(path):
    """Yield the CSV handle: stdout, or a temporary file beside ``path`` that
    replaces ``path`` only once the block completes."""
    if path is None or path == "-":
        yield sys.stdout
        return
    if os.path.isdir(path):
        raise IsADirectoryError("output path %s is a directory" % path)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_csv(fh, config_echo, columns, rows):
    fh.write("# liberation-lab %s\n" % __version__)
    fh.write("# schema = %d\n" % SCHEMA_VERSION)
    for key, val in sorted(config_echo.items()):
        fh.write("# %s = %s\n" % (key, val))
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)


# ---------------------------------------------------------------------------
# Experiments


def run_ubm_moments(cfg):
    rows = rmt.finite_n_moment_ode_check(
        n_max=cfg["n_max"],
        T=Fraction(cfg["T"]),
        N=cfg["N"],
        paths=cfg["paths"],
        h=Fraction(cfg["T"]) / cfg["steps"],
        base_seed=cfg["seed"],
    )
    return ["n", "t", "empirical", "ode", "gap", "stderr"], [
        (n, t, repr(emp), repr(ode), repr(gap), repr(se)) for n, t, emp, ode, gap, se in rows
    ]


def run_heat_kernel(cfg):
    from . import heatkern

    t_min, t_max, points, eps = cfg["t_min"], cfg["t_max"], cfg["points"], cfg["eps"]
    rows = []
    for q in range(points):
        T = t_min + (t_max - t_min) * q / max(points - 1, 1)
        pt = heatkern.FreeEnergyPoint(T)
        low, high = heatkern.liyau_sandwich(T, eps)
        rows.append((repr(T), repr(pt.k), repr(pt.F), repr(low), repr(high)))
    return ["T", "k", "F", "low", "high"], rows


def run_chi_orb(cfg):
    sigma0 = two_free_projections()
    sigma = free_product_limit_state(sigma0, n_motions=2)
    spec = ratefn.NeighborhoodSpec(cfg["m"], cfg["delta"])
    rows = []
    for N in cfg["N_list"]:
        family = rmt.build_initial_family(sigma0, N)
        logf, hits, samples = ratefn.chi_orb_mc(
            sigma, family, spec, cfg["samples"], cfg["seed"], n_motions=2
        )
        rows.append(
            (
                N,
                hits,
                samples,
                repr(hits / samples),
                ratefn.NEG_INF if logf == ratefn.NEG_INF else repr(logf),
            )
        )
    return ["N", "hits", "samples", "fraction", "log_fraction"], rows


# Step size of the simulated motions: 1/50 puts every grid time with
# denominator dividing 50 on the step grid.
_STEP = Fraction(1, 50)


def _empirical_liberation(N, seed, grid, horizon, path=0):
    """One path of the two motions, stored at the grid times in (0, horizon]."""
    sigma0 = two_free_projections()
    family = rmt.build_initial_family(sigma0, N, strict=False)
    times = [Fraction(t) for t in grid if 0 < t <= horizon]
    traj = rmt.simulate_trajectory(N, 2, times, _STEP, seed, path)
    return ratefn.EmpiricalTrajectory(family, traj)


# One trajectory of liberation-convergence: path seed_index at dimension N.
Trajectory = collections.namedtuple("Trajectory", "N seed_index")

# The metric's alphabet: the two projections' generators.
_METRIC_IDS = [(1, 1), (2, 1)]


def _oracle_table(grid, m_max, l_max):
    """tau^lib of every word the metric reads, from one fresh oracle in the
    metric's own order: the values that a fresh oracle gives inside
    ``trajectory_metric_d``, so that no trajectory's value depends on which
    trajectories ran before it. The oracle is dropped on return."""
    oracle = LiberationState(two_free_projections(), 2)
    words = ratefn.trajectory_metric_words(m_max, l_max, grid, gen_ids=_METRIC_IDS)
    return {w: oracle.moment(w) for w in words}


def _trajectory_d(seed, grid, m_max, l_max, table, item):
    """d(tau_N, tau^lib) on one trajectory, with the liberation moments read
    from ``table`` (``_oracle_table`` of the same grid, m_max and l_max)."""
    # the metric reads no time past m_max, so the path stops there
    emp = _empirical_liberation(item.N, seed, grid, m_max, path=item.seed_index)
    return ratefn.trajectory_metric_d(
        emp, table.__getitem__, m_max, l_max, grid, gen_ids=_METRIC_IDS
    )


def run_liberation_convergence(cfg):
    grid = [Fraction(t) for t in cfg["grid"]]
    table = _oracle_table(grid, cfg["m_max"], cfg["l_max"])
    items = [Trajectory(N, s) for N in cfg["N_list"] for s in range(cfg["seeds"])]
    # interleaved over the workers, so each gets some of the largest N
    ds = rmt.map_shards(
        functools.partial(_trajectory_d, cfg["seed"], grid, cfg["m_max"], cfg["l_max"], table),
        items,
    )
    return ["N", "seed_index", "d"], [(N, s, repr(d)) for (N, s), d in zip(items, ds)]


def run_metric(cfg):
    grid = [Fraction(t) for t in cfg["grid"]]
    table = _oracle_table(grid, cfg["m_max"], cfg["l_max"])
    d = _trajectory_d(
        cfg["seed"], grid, cfg["m_max"], cfg["l_max"], table, Trajectory(cfg["N"], 0)
    )
    return ["N", "d"], [(cfg["N"], repr(d))]


def run_prop81_check(cfg):
    from .freestate import conditional_expectation_prop81

    sigma0 = two_free_projections()
    tau = LiberationState(sigma0, cfg["n_motions"])
    s_vals = [Fraction(x) for x in cfg["s_list"]]
    p_words = projection_test_words([1], max_len=2)[: cfg["n_words"]]
    y_words = projection_test_words([Fraction(1, 2)], max_len=2)[: cfg["n_words"]]
    rows = []
    for P in p_words:
        for y in y_words:
            for k in range(1, cfg["n_motions"] + 1):
                for s in s_vals:
                    dP = ncalg.cyclic_derivative(ncalg.NCPolynomial.from_word(P), k, s)
                    lhs = tau.extended_moment(
                        ncalg.pi_s_substitution(dP, s, tau.n) * ncalg.NCPolynomial.from_word(y)
                    )
                    E = conditional_expectation_prop81(P, k, s, tau)
                    rhs = tau.extended_moment(E * ncalg.NCPolynomial.from_word(y))
                    rows.append(
                        (
                            ncalg.format_word(P),
                            ncalg.format_word(y),
                            k,
                            str(s),
                            repr(abs(lhs - rhs)),
                        )
                    )
    return ["P", "y", "k", "s", "residual"], rows


def run_rate_minimizer(cfg):
    sigma0 = two_free_projections()
    tau = LiberationState(sigma0, 2)
    words = projection_test_words(cfg["word_times"], max_len=cfg["max_len"])
    per_word = [ratefn.rate_integrand_eq9(tau, w, cfg["t_list"]) for w in words]
    rows = []
    for q, t in enumerate(cfg["t_list"]):
        for w, results in zip(words, per_word):
            value, br = results[q]
            rows.append(
                (
                    ncalg.format_word(w),
                    str(t),
                    repr(value),
                    repr(br["shifted"]),
                    repr(br["reference"]),
                    repr(br["quadratic"]),
                )
            )
    return ["P", "t", "value", "shifted", "reference", "quadratic"], rows


def run_bounds_51(cfg):
    # Perfectly correlated projections across the two rows: the decay bound is
    # then nontrivial (the free case has lhs identically 0).
    from .freestate import AtomicComponent

    sigma0 = InitialLaw(
        [
            AtomicComponent(
                [(1, 1), (2, 1)], [(1, 1), (0, 0)], [Fraction(1, 2), Fraction(1, 2)]
            )
        ]
    )
    rows = []
    for m in cfg["m_list"]:
        entries = [(1, 1) if q % 2 == 0 else (2, 1) for q in range(m)]
        for T in cfg["T_list"]:
            lhs, rhs = lemma51_bound_check(sigma0, entries, Fraction(T))
            rows.append((m, str(T), repr(lhs), repr(rhs), repr(rhs - lhs)))
    return ["m", "T", "lhs", "rhs", "margin"], rows


# ---------------------------------------------------------------------------
# Argument handling


def _int_list(text):
    return [int(x) for x in str(text).split(",") if x]


def _frac(text):
    # argparse reports a ValueError as a usage error, a ZeroDivisionError not
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %s" % text) from None


def _frac_list(text):
    return [_frac(x) for x in str(text).split(",") if x]


_EXPERIMENTS = {
    "ubm-moments": (
        run_ubm_moments,
        {
            "N": (int, 64),
            "paths": (int, 400),
            "T": (_frac, Fraction(1)),
            "n_max": (int, 4),
            "steps": (int, 200),
            "seed": (int, 0),
        },
    ),
    "liberation-convergence": (
        run_liberation_convergence,
        {
            "N_list": (_int_list, [16, 128]),
            "seeds": (int, 10),
            "grid": (_frac_list, [Fraction(0), Fraction(1, 2), Fraction(1)]),
            "m_max": (int, 2),
            "l_max": (int, 3),
            "seed": (int, 0),
        },
    ),
    "chi-orb": (
        run_chi_orb,
        {
            "N_list": (_int_list, [8, 16, 32, 64]),
            "m": (int, 2),
            "delta": (float, 0.1),
            "samples": (int, 500),
            "seed": (int, 0),
        },
    ),
    "heat-kernel": (
        run_heat_kernel,
        {
            "t_min": (float, 12.0),
            "t_max": (float, 400.0),
            "points": (int, 50),
            "eps": (float, 0.9),
        },
    ),
    "prop81-check": (
        run_prop81_check,
        {
            "n_motions": (int, 2),
            "n_words": (int, 4),
            "s_list": (_frac_list, [Fraction(1, 4), Fraction(3, 4)]),
        },
    ),
    "rate-minimizer": (
        run_rate_minimizer,
        {
            "t_list": (_frac_list, [Fraction(1, 2), Fraction(1)]),
            "word_times": (_frac_list, [Fraction(1, 2)]),
            "max_len": (int, 2),
        },
    ),
    "bounds-51": (
        run_bounds_51,
        {
            "m_list": (_int_list, [1, 2, 3]),
            "T_list": (_frac_list, [Fraction(1, 2), Fraction(1), Fraction(2)]),
        },
    ),
    "metric": (
        run_metric,
        {
            "N": (int, 64),
            "grid": (_frac_list, [Fraction(0), Fraction(1, 2), Fraction(1)]),
            "m_max": (int, 2),
            "l_max": (int, 3),
            "seed": (int, 0),
        },
    ),
}


def _build_parser():
    parser = argparse.ArgumentParser(prog="liberation-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, schema) in _EXPERIMENTS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        for key, (typ, _default) in schema.items():
            p.add_argument(
                "--%s" % key.replace("_", "-"),
                dest=key,
                type=typ,
                default=argparse.SUPPRESS,
            )
    return parser


def _resolve_config(args):
    name = args.experiment
    _, schema = _EXPERIMENTS[name]
    cfg = {key: default for key, (_t, default) in schema.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        if not os.path.exists(config_path):
            raise ConfigError("config file %s does not exist" % config_path)
        ini = configparser.ConfigParser()
        try:
            ini.read(config_path)
        except configparser.Error as exc:
            raise ConfigError("bad config file: %s" % exc)
        if ini.has_section(name):
            for key, raw in ini.items(name):
                key = key.replace("-", "_")
                if key not in schema:
                    raise ConfigError("unknown config key %r for %s" % (key, name))
                typ = schema[key][0]
                try:
                    cfg[key] = typ(raw)
                except ValueError as exc:
                    raise ConfigError("bad value for %s: %s" % (key, exc))
    for key in schema:
        if hasattr(args, key):  # explicit flag wins over config
            cfg[key] = getattr(args, key)
    _validate(cfg)
    return cfg


# Sizes and counts: zero or less would fail deep in a run, or write an empty
# table or a vacuous d = 0.
_COUNT_KEYS = (
    "N", "paths", "samples", "seeds", "steps", "n_max", "m", "m_max", "l_max",
    "points", "n_words", "n_motions", "max_len",
)
# Lists, with the least entry allowed: counts from 1, times from 0. An empty
# list of times writes an empty table or a vacuous d = 0 too.
_LIST_KEYS = {
    "N_list": 1, "m_list": 1, "grid": 0, "t_list": 0, "s_list": 0, "T_list": 0, "word_times": 0,
}


def _list_text(values):
    return ",".join(map(str, values)) or "an empty list"


def _validate(cfg):
    for key in _COUNT_KEYS:
        if key in cfg and cfg[key] < 1:
            raise ConfigError("%s must be >= 1, got %d" % (key, cfg[key]))
    for key, least in _LIST_KEYS.items():
        if key in cfg and (not cfg[key] or min(cfg[key]) < least):
            raise ConfigError(
                "%s must be nonempty with every entry >= %d, got %s"
                % (key, least, _list_text(cfg[key]))
            )
    if "grid" in cfg and min(cfg["grid"]) > cfg["m_max"]:
        raise ConfigError(
            "grid must hold a time <= m_max = %d, got %s" % (cfg["m_max"], _list_text(cfg["grid"]))
        )
    if "grid" in cfg:
        off_step = [t for t in cfg["grid"] if t % _STEP]
        if off_step:
            # the motions are stored only at multiples of the step
            raise ConfigError(
                "grid times must be multiples of the step %s, got %s"
                % (_STEP, _list_text(off_step))
            )
    if "max_len" in cfg and cfg["max_len"] > PROP81_LENGTH_CAP:
        # the rate integrand expands every word through Prop 8.1
        raise ConfigError(
            "max_len must be <= %d, the Prop 8.1 word-length cap, got %d"
            % (PROP81_LENGTH_CAP, cfg["max_len"])
        )
    if "n_words" in cfg and cfg["n_words"] > 4:
        # prop81-check draws its P and y from the alternating words of length <= 2
        raise ConfigError(
            "n_words must be <= 4, the alternating words of length <= 2, got %d" % cfg["n_words"]
        )
    if "T" in cfg and not cfg["T"] > 0:
        raise ConfigError("T must be > 0, got %s" % cfg["T"])
    if "steps" in cfg and cfg["steps"] % 4:
        # ubm-moments reports t = 0, T/4, T/2, 3T/4, T; each must be a step time
        raise ConfigError(
            "steps must be a multiple of 4 to put T/4, T/2 and 3T/4 on the step grid, got %d"
            % cfg["steps"]
        )
    if "delta" in cfg and not cfg["delta"] > 0:
        raise ConfigError("delta must be > 0, got %r" % cfg["delta"])
    if "seed" in cfg and cfg["seed"] < 0:
        raise ConfigError("seed must be >= 0, got %d" % cfg["seed"])


def _attach_negative_values(argv):
    """Join an argument that starts with ``-<digit>`` to the option before it.

    argparse reads ``-1/2`` as an unknown option, so ``--T -1/2`` would fail
    before ``_validate`` could name the value. No option here starts with
    ``-<digit>``, so such an argument is always a value.
    """
    out = []
    for arg in argv:
        is_value = arg[:1] == "-" and arg[1:2].isdigit()
        if is_value and out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        cfg = _resolve_config(args)
        runner, _ = _EXPERIMENTS[args.experiment]
        with _output(getattr(args, "out", None)) as fh:
            columns, rows = runner(cfg)
            echo = {"experiment": args.experiment}
            echo.update({k: v for k, v in cfg.items()})
            _write_csv(fh, echo, columns, rows)
    except ConfigError as exc:
        print("error: config: %s" % exc, file=sys.stderr)
        return 2
    except (DomainError, GridMiss, IncompatibleN) as exc:
        print("error: domain: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("error: io: %s" % exc, file=sys.stderr)
        return 4
    except LiblabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
