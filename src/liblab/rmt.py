"""Finite-N simulation: deterministic initial families, unitary Brownian
motion trajectories, Haar sampling, and empirical word traces.

Stepping scheme: U(t+h) = exp(i sqrt(h) H) U(t) with H a self-adjoint
Gaussian generator normalized so E tr_N H^2 = 1. The exponential is
``_kernels.expi``, Sastre's degree-15+ formula in the skew-Hermitian
X = i sqrt(h) H: a degree-16 polynomial, equal to the Taylor series through
degree 15, from 4 matrix products. Its error is at most 2^-53 while the
bound b = ||X^2||_1^(1/2) (or ||X^4||_1^(1/4), formed only when the first
exceeds theta) is at most theta = 0.699; past that, X is halved and the
result squared. So every iterate is unitary to rounding. It is evaluated one
path at a time.

Seeding: every random draw in the package comes from ``path_rng(seed, path)``,
a generator seeded by the NumPy ``SeedSequence([seed, path])``, so distinct
(seed, path) pairs give independent streams. Within a path the draw order is
fixed (per step, motions in index order, real part then imaginary part), so
identical seeds give bit-identical runs. The initial family's fixed rotations
draw from ``path_rng(ROTATION_SEED, c)``, one stream per component c >= 1.

Shards: ``map_shards`` runs independent work items (paths, trajectories) on
a pool of workers, one per allowed CPU, each with one BLAS thread, and
returns their results in input order, so outputs do not depend on the CPU
count. The workers are children forked from this process at the first call
that needs them, and they serve every later call of this process until it
exits. The function and the items cross to them pickled, and the results
cross back pickled, so all of them must pickle; a worker sees the modules as
they were when it was forked, and a monkeypatch made later does not reach
it. Where numpy's OpenBLAS exposes no thread-count setter, every shard runs
in this process.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import math
import os
import pickle
import signal
import sys
import traceback
import warnings
from fractions import Fraction

import numpy as np

from . import _kernels, ncalg
from .errors import GridMiss, IncompatibleN, ShardError
from .freestate import InitialLaw, free_ubm_moment
from .ncalg import Word


# ---------------------------------------------------------------------------
# Initial families


class InitialFamily:
    """Deterministic self-adjoint matrices xi_{ij}(N), one per generator id."""

    def __init__(self, N, entries):
        self.N = N
        self.entries = dict(entries)

    def matrix(self, gid):
        return self.entries[tuple(gid)]


def _atom_counts(weights, N, strict):
    exact = [Fraction(w) * N for w in weights]
    if all(c.denominator == 1 for c in exact):
        return [int(c) for c in exact]
    if strict:
        raise IncompatibleN(
            "weights %r not exactly realizable at N=%d" % ([str(w) for w in weights], N)
        )
    counts = [int(c) for c in exact]
    rema = sorted(range(len(exact)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in rema[: N - sum(counts)]:
        counts[i] += 1
    return counts


def _turned_diagonal(vals, V):
    """diag(vals), conjugated by the unitary V unless V is None."""
    D = np.array(vals, dtype=np.complex128)
    if V is None:
        return np.diag(D)
    M = (V * D) @ V.conj().T
    return (M + M.conj().T) / 2  # exactly self-adjoint


def build_initial_family(law: InitialLaw, N, strict=True) -> InitialFamily:
    """Atom-diagonal realization of the initial law at dimension N.

    Each atom of a component of ``law`` fills N times its weight diagonal
    entries, exactly when every such count is an integer; otherwise
    IncompatibleN in strict mode, largest-remainder rounding if not.

    Each component's generators are diagonal in one basis. Component c >= 1
    (in order) is turned by the fixed Haar unitary
    ``sample_haar(N, path_rng(ROTATION_SEED, c))``, so that distinct
    components are asymptotically free rather than all diagonal together.
    """
    entries = {}
    for c, comp in enumerate(law.components):
        V = sample_haar(N, path_rng(ROTATION_SEED, c)) if c else None
        counts = _atom_counts(comp.weights, N, strict)
        for pos, gid in enumerate(comp.ids):
            vals = []
            for atom, k in zip(comp.atoms, counts):
                vals.extend([float(atom[pos])] * k)
            vals.sort()
            entries[gid] = _turned_diagonal(vals, V)
    return InitialFamily(N, entries)


# ---------------------------------------------------------------------------
# Random streams, Gaussian generators and Haar sampling


# The base seed of the initial family's fixed rotations: above every 64-bit
# run seed, so those rotations share no stream with a run's paths.
ROTATION_SEED = 2**64


def path_rng(seed, path):
    """The random stream of path ``path`` under base seed ``seed``."""
    return np.random.default_rng([seed, path])


def sample_haar(N, rng):
    """Exactly Haar-distributed unitary: QR of a Ginibre matrix with the
    triangular factor's diagonal phases folded back in."""
    Z = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / math.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# Batched stepping engine


class BatchedUBM:
    """P independent paths of n motions, stepped in lockstep: paths
    ``first_path`` to ``first_path + P - 1`` of ``base_seed``.

    ``self.U[i]`` is the (P, N, N) stack of the current unitaries of motion i;
    ``self.time`` is the exact current time (a Fraction multiple of h). A
    step updates every stack in place: copy a stack to keep it past the next
    step.

    A step draws, assembles, exponentiates and propagates one path at a
    time, through one draw pair, one generator and one product buffer of
    shape (N, N), so its scratch does not grow with P.
    """

    def __init__(self, N, n_motions, h, paths, base_seed, first_path=0):
        self.N = N
        self.n = n_motions
        self.h = Fraction(h)
        self.paths = paths
        self.rngs = [path_rng(base_seed, p) for p in range(first_path, first_path + paths)]
        eye = np.eye(N, dtype=np.complex128)
        self.U = {i: np.tile(eye, (paths, 1, 1)) for i in range(1, n_motions + 1)}
        self._A = np.empty((N, N))
        self._B = np.empty((N, N))
        self._H = np.empty((N, N), dtype=np.complex128)
        self._product = np.empty((N, N), dtype=np.complex128)
        self._work = _kernels.expi_workspace(N)
        self.steps_done = 0

    @property
    def time(self) -> Fraction:
        return self.h * self.steps_done

    def step(self):
        sh = math.sqrt(float(self.h))
        A, B, H, product = self._A, self._B, self._H, self._product
        for i in range(1, self.n + 1):
            for rng, U in zip(self.rngs, self.U[i]):
                rng.standard_normal(out=A)
                rng.standard_normal(out=B)
                _kernels.assemble_gue(A, B, out=H)
                np.matmul(_kernels.expi(H, sh, self._work), U, out=product)
                U[...] = product
        self.steps_done += 1

    def run_until(self, t, snapshot_times=(), callback=None):
        """Step to time t; at each time in ``snapshot_times`` (exact h
        multiples) call ``callback(time, U_dict)``."""
        t = Fraction(t)
        snaps = {Fraction(x) for x in snapshot_times}
        if self.time in snaps and callback is not None:
            callback(self.time, self.U)
        while self.time < t:
            self.step()
            if self.time in snaps and callback is not None:
                callback(self.time, self.U)


# ---------------------------------------------------------------------------
# Single-path trajectories and word traces


class UnitaryTrajectory:
    """One path's unitaries at a stored set of grid times."""

    def __init__(self, N, n_motions, h, snapshots):
        self.N = N
        self.n = n_motions
        self.h = Fraction(h)
        self.snapshots = snapshots  # (i, time Fraction) -> matrix

    def unitary(self, i, t):
        t = Fraction(t)
        if t == 0:
            return np.eye(self.N, dtype=np.complex128)
        key = (i, t)
        if key not in self.snapshots:
            raise GridMiss("time %s of motion %d is not on the stored grid" % (t, i))
        return self.snapshots[key]

    def unitarity_defect(self):
        worst = 0.0
        for M in self.snapshots.values():
            worst = max(
                worst,
                np.linalg.norm(M.conj().T @ M - np.eye(self.N), ord=2),
            )
        return worst


def simulate_trajectory(N, n_motions, sample_times, h, base_seed, path=0) -> UnitaryTrajectory:
    """Simulate path ``path`` of ``base_seed`` (the same stream as that path
    of a BatchedUBM) and store the unitaries at ``sample_times`` (each an
    exact multiple of h)."""
    h = Fraction(h)
    times = sorted(Fraction(t) for t in sample_times)
    for t in times:
        if t % h != 0:
            raise GridMiss("sample time %s is not a multiple of h=%s" % (t, h))
    engine = BatchedUBM(N, n_motions, h, paths=1, base_seed=base_seed, first_path=path)
    snapshots = {}

    def grab(t, U):
        for i in range(1, n_motions + 1):
            snapshots[(i, t)] = U[i][0].copy()

    horizon = times[-1] if times else Fraction(0)
    engine.run_until(horizon, snapshot_times=times, callback=grab)
    return UnitaryTrajectory(N, n_motions, h, snapshots)


class HaarTuple:
    """Constant-in-time unitaries, one per motion (for the chi_orb microstates)."""

    def __init__(self, unitaries):
        self.unitaries = dict(unitaries)  # i -> matrix
        self.n = max(unitaries) if unitaries else 0

    def unitary(self, i, t):
        return self.unitaries[i]


def _letter(sym, family, resolver):
    """The matrix of one letter: U_i(t) xi_ij U_i(t)^* for X(i,j,t) with
    i <= n (xi_ij unconjugated for i > n), U_i(t) or U_i(t)^* for V and V*,
    and None for v_{n+1} := 1."""
    n = getattr(resolver, "n", 0)
    if sym.kind == ncalg.X:
        xi = family.matrix((sym.i, sym.j))
        if sym.i > n:
            return xi
        U = resolver.unitary(sym.i, sym.t)
        return U @ xi @ U.conj().T
    if sym.i > n:
        return None
    U = resolver.unitary(sym.i, sym.t)
    return U if sym.kind == ncalg.V else U.conj().T


# Memo key of the last prefix product: (letters, product of their matrices).
_PREFIX = "prefix"


def evaluate_word_trace(word: Word, family: InitialFamily, resolver, letters=None) -> complex:
    """Normalized trace of the word with X(i,j,t) -> U_i(t) xi_ij U_i(t)^*
    for i <= n (unconjugated for i > n) and V(i,t) -> U_i(t).

    ``resolver`` is a UnitaryTrajectory or HaarTuple; GridMiss propagates for
    off-grid times. ``letters`` is an optional memo, valid for this one
    (family, resolver) pair. It maps each letter to its matrix, formed once;
    a letter that fails is not stored. Under ``_PREFIX`` it also keeps the
    product of all letter matrices but the last of the latest word with
    three or more of them, which the next word with the same prefix reuses:
    one N x N matrix per memo, the same left-to-right product as forming it
    afresh.
    """
    if letters is None:
        letters = {}
    syms, mats = [], []
    for sym in word.letters:
        if sym not in letters:
            letters[sym] = _letter(sym, family, resolver)
        if letters[sym] is not None:
            syms.append(sym)
            mats.append(letters[sym])
    if not mats:
        return complex(1.0)
    if len(mats) == 1:
        return complex(np.trace(mats[0]) / family.N)
    M = mats[0]
    if len(mats) > 2:
        head = tuple(syms[:-1])
        last = letters.get(_PREFIX)
        if last is not None and last[0] == head:
            M = last[1]
        else:
            for L in mats[1:-1]:
                M = M @ L
            letters[_PREFIX] = (head, M)
    # the last product only through its trace
    return complex(np.einsum("ij,ji->", M, mats[-1]) / family.N)


# ---------------------------------------------------------------------------
# Oracle certification harness


def finite_n_moment_ode_check(n_max, T, N, paths, h=None, base_seed=0, sample_times=None):
    """Empirical E[tr_N U(t)^n] against the large-N moments (Biane's closed form).

    The paths run in contiguous ranges, one per allowed CPU (``map_shards``),
    and their traces are joined in path order before the mean is taken.
    Returns rows (n, t, empirical, ode, gap, stderr).
    """
    T = Fraction(T)
    if h is None:
        h = T / 200
    h = Fraction(h)
    if sample_times is None:
        sample_times = [T * q / 4 for q in range(5)]
    W = min(_allowed_cpus(), paths)
    ranges = [range(paths * w // W, paths * (w + 1) // W) for w in range(W)]
    run = functools.partial(_power_traces, N, h, base_seed, T, sample_times, n_max)
    per_range = map_shards(run, ranges)
    rows = []
    for snaps in zip(*per_range):  # one snapshot time, every range
        t = snaps[0][0]
        for n in range(1, n_max + 1):
            vals = np.concatenate([traces[n - 1] for _t, traces in snaps])
            emp = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
            ode = free_ubm_moment(n, float(t))
            rows.append((n, float(t), emp, ode, emp - ode, se))
    return rows


def _power_traces(N, h, base_seed, T, sample_times, n_max, paths):
    """Per-path tr_N U(t)^n, n = 1..n_max, of the paths in the range
    ``paths`` of one motion: a list of (t, (n_max, len(paths)) array), one
    entry per time of ``sample_times`` that the steps to T reach.

    Only the powers up to U^ceil(n_max/2) are formed: tr U^n is the trace of
    the product U^a U^b with a = ceil(n/2), b = n - a, taken without forming
    that product (tr U for n = 1)."""
    engine = BatchedUBM(N, 1, h, len(paths), base_seed, first_path=paths.start)
    found = []

    def grab(t, U):
        powers = [None, U[1]]
        while len(powers) <= (n_max + 1) // 2:
            powers.append(powers[-1] @ U[1])
        traces = np.empty((n_max, len(paths)))
        traces[0] = np.trace(U[1], axis1=-2, axis2=-1).real / N
        for n in range(2, n_max + 1):
            a, b = powers[(n + 1) // 2], powers[n // 2]
            traces[n - 1] = np.einsum("pij,pji->p", a, b).real / N
        found.append((t, traces))

    engine.run_until(T, snapshot_times=sample_times, callback=grab)
    return found


# ---------------------------------------------------------------------------
# Shards: independent work items over the allowed CPUs


def _allowed_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform: one process
        return 1


@functools.cache
def _blas_threads():
    """(set, get) of the thread count of the OpenBLAS that numpy links, or
    None when numpy's extension exports neither the plain nor the
    ``scipy_``-prefixed, ``64_``-suffixed OpenBLAS entry points."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            setter = getattr(lib, prefix + "openblas_set_num_threads" + suffix, None)
            getter = getattr(lib, prefix + "openblas_get_num_threads" + suffix, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def map_shards(fn, items):
    """``[fn(item) for item in items]``, split over the CPUs this process may
    run on.

    With W = min(allowed CPUs, len(items)) > 1, worker w of this process's
    pool (``_Worker``) runs ``items[w::W]`` in order with one BLAS thread:
    the thread count changes the last bits of large products, and one thread
    per worker makes the results the same for every W. ``fn`` and the items
    cross to the worker pickled and the results cross back pickled, so all
    of them must pickle. The workers are forked at the first call that needs
    them and serve every later call, so they see the modules as they were
    when they were forked: a monkeypatch, or a function defined in
    ``__main__``, made after that does not reach them. Each worker sets its
    thread count once, through numpy's OpenBLAS (``_blas_threads``). With
    W = 1, or where no such setter is found, all items run in this process
    through the same ``_run_shard``, with this process's thread count.
    Results come back in input order.

    If any call raises, ShardError names the first such item in input order,
    and the workers live on. If a worker dies, or this call is left by any
    other exception or an interrupt, every worker is killed and reaped before
    it raises, and the next call forks a fresh pool.
    """
    items = list(items)
    threads = _blas_threads()
    W = max(1, min(_allowed_cpus(), len(items))) if threads else 1
    if W == 1:
        outcomes = [_run_shard(fn, items)]
    else:
        outcomes = _call_pool(fn, [items[w::W] for w in range(W)], threads[0])
    failed = [
        (w + W * len(results), failure)
        for w, (results, failure) in enumerate(outcomes)
        if failure is not None
    ]
    if failed:
        index, (summary, trace) = min(failed)
        raise ShardError("%r failed: %s" % (items[index], summary), trace)
    merged = [None] * len(items)
    for w, (results, _failure) in enumerate(outcomes):
        merged[w::W] = results
    return merged


def _run_shard(fn, items):
    """(results, failure): fn over items in order, up to the first call that
    raises; failure is None or ("Type: message", traceback text) of it."""
    results = []
    for item in items:
        try:
            results.append(fn(item))
        except Exception as exc:  # map_shards reports it with the item
            return results, ("%s: %s" % (type(exc).__name__, exc), traceback.format_exc())
    return results, None


_POOL = []  # this process's workers, in the order they were forked


def _call_pool(fn, shards, set_threads):
    """The outcomes of ``_run_shard(fn, shard)``, shard w on worker w of the
    pool, which first grows to ``len(shards)`` workers. The requests all go
    out before the first reply is read, so the workers run side by side."""
    try:
        requests = [pickle.dumps((fn, shard)) for shard in shards]
        while len(_POOL) < len(shards):
            _POOL.append(_Worker(set_threads))
        for worker, request, shard in zip(_POOL, requests, shards):
            try:
                _send(worker.requests, request)
            except BrokenPipeError:
                raise worker.died(shard) from None
        outcomes = []
        for worker, shard in zip(_POOL, shards):
            reply = _receive(worker.replies)
            if reply is None:
                raise worker.died(shard)
            outcomes.append(pickle.loads(reply))
        return outcomes
    except BaseException:  # a request or reply may be half sent: start afresh
        _close_pool(kill=True)
        raise


class _Worker:
    """A child forked from this process that runs one ``_run_shard`` per
    request until its request pipe ends.

    The fork is safe although OpenBLAS's thread pool runs in this process:
    OpenBLAS registers a ``pthread_atfork`` handler that shuts the pool down
    before every fork, and the child sets its one thread before any BLAS
    work, so it never waits on a pool thread it did not inherit. Python 3.12
    and later warn on a fork in a process with threads; that warning is
    silenced at the fork call only.

    ``requests`` is the write end of the request pipe and ``replies`` a
    reader on the reply pipe; each message is one frame (``_send``).
    """

    def __init__(self, set_threads):
        request_read, request_write = os.pipe()
        reply_read, reply_write = os.pipe()
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
                pid = os.fork()
        except BaseException:
            for fd in (request_read, request_write, reply_read, reply_write):
                os.close(fd)
            raise
        if pid == 0:
            os.close(request_write)
            os.close(reply_read)
            _serve(request_read, reply_write, set_threads)
        os.close(request_read)
        os.close(reply_write)
        self.pid, self.code = pid, None
        self.requests = request_write
        self.replies = open(reply_read, "rb")

    def reap(self, kill=False):
        """The exit code, once the worker has exited and been reaped; with
        ``kill``, a worker not yet reaped is sent SIGKILL first."""
        if self.code is None:
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.code

    def died(self, shard):
        """The ShardError for a worker that exited while given ``shard``."""
        return ShardError(
            "worker for %d items from %r exited with code %d" % (len(shard), shard[0], self.reap())
        )

    def close(self):
        """This process's ends of the worker's pipes."""
        os.close(self.requests)
        self.replies.close()


def _serve(requests, replies, set_threads):
    """A worker's main: one BLAS thread, then, for each pickled (fn, shard)
    read from the pipe end ``requests``, the pickled outcome of
    ``_run_shard`` written to the pipe end ``replies``. At the end of
    ``requests`` it leaves by ``os._exit(0)``, so it runs none of this
    process's ``finally`` blocks, ``atexit`` handlers or buffered output. It
    ignores SIGINT, so that an interrupt between calls leaves the pool
    whole; an interrupt during a call reaches it as the caller's SIGKILL.
    Never returns."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        set_threads(1)
        with open(requests, "rb") as pipe:
            while (request := _receive(pipe)) is not None:
                _send(replies, pickle.dumps(_run_shard(*pickle.loads(request))))
        code = 0
    except BaseException:  # the caller reports the exit code
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _send(fd, data):
    """Write one frame, the length of ``data`` in 8 bytes and then
    ``data``, to the pipe end ``fd``."""
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(pipe):
    """The next frame's data from the buffered reader ``pipe``, or None where
    the pipe ends before a whole frame."""
    head = pipe.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        data = pipe.read(size)
        if len(data) == size:
            return data
    return None


def _close_pool(kill=False):
    """Close this process's end of every worker's pipes, so that an idle
    worker reads the end of its requests and leaves, and reap every worker;
    with ``kill``, SIGKILL each one first. The next call that needs workers
    forks a fresh pool."""
    workers = _POOL[:]
    _POOL.clear()
    for worker in workers:
        worker.close()
    for worker in workers:
        worker.reap(kill)


def _forget_pool():
    """In a child forked from this process, a worker or any other: close the
    inherited ends of this process's worker pipes, so that a worker still
    sees their end when this process closes them, and drop the pool without
    using or reaping it."""
    for worker in _POOL:
        worker.close()
    _POOL.clear()


atexit.register(_close_pool)
if hasattr(os, "register_at_fork"):  # absent where there is no fork
    os.register_at_fork(after_in_child=_forget_pool)
