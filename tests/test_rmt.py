"""Finite-N simulation: initial families, unitary BM stepping, Haar sampling,
word traces."""

import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from liblab import _kernels, ncalg, rmt
from liblab.cli import two_free_projections
from liblab.errors import GridMiss, IncompatibleN, ShardError
from liblab.freestate import AtomicComponent, InitialLaw, LiberationState, MarginalLaw
from liblab.ncalg import EMPTY_WORD, Vs, VsStar, Word, Xs
from liblab.ratefn import EmpiricalTrajectory, trajectory_metric_d
from references import gaussian_generator


class TestInitialFamily:
    def test_projection_exact(self):
        fam = rmt.build_initial_family(two_free_projections(), 4)
        m = fam.matrix((1, 1))
        assert np.array_equal(np.sort(np.diag(m).real), [0, 0, 1, 1])
        assert np.trace(m).real / 4 == 0.5

    def test_symmetric_sign_law(self):
        law = MarginalLaw(1, atoms=[1, -1], weights=[F(1, 2), F(1, 2)])
        fam = rmt.build_initial_family(InitialLaw.free_product([law]), 2)
        assert np.trace(fam.matrix((1, 1))).real == 0

    def test_incompatible_N(self):
        law = MarginalLaw(1, atoms=[1, 0], weights=[F(1, 3), F(2, 3)])
        with pytest.raises(IncompatibleN):
            rmt.build_initial_family(InitialLaw.free_product([law]), 4)
        fam = rmt.build_initial_family(InitialLaw.free_product([law]), 4, strict=False)
        assert fam.matrix((1, 1)).shape == (4, 4)

    def test_correlated_component(self):
        joint = InitialLaw(
            [AtomicComponent([(1, 1), (2, 1)], [(1, 1), (0, 0)], [F(1, 2), F(1, 2)])]
        )
        fam = rmt.build_initial_family(joint, 8)
        assert np.array_equal(fam.matrix((1, 1)), fam.matrix((2, 1)))

    def test_matrices_selfadjoint(self):
        fam = rmt.build_initial_family(two_free_projections(), 8)
        for m in fam.entries.values():
            assert np.allclose(m, m.conj().T, atol=1e-12)

    @pytest.mark.parametrize("N", [16, 32, 64, 128])
    def test_free_components_start_free(self, N):
        # tau(x11 x21) = tau(x11) tau(x21) = 1/4 for free projections; a shared
        # diagonal basis would give tau(x11^2) = 1/2
        fam = rmt.build_initial_family(two_free_projections(), N)
        a, b = fam.matrix((1, 1)), fam.matrix((2, 1))
        assert abs(np.trace(a @ b).real / N - 0.25) <= 2 / N
        assert abs(np.trace(b).real / N - 0.5) < 1e-12
        assert np.max(np.abs(b @ b - b)) < 1e-12

    def test_fixed_rotation_is_reproducible(self):
        a = rmt.build_initial_family(two_free_projections(), 8).matrix((2, 1))
        b = rmt.build_initial_family(two_free_projections(), 8).matrix((2, 1))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("N", [16, 32, 64, 128])
    def test_metric_shrinks_like_one_over_N(self, N):
        # Against the free oracle, d falls like 1/N (N d near 0.09); a model
        # of the correlated pair P = Q floors at d = 0.0236 for every N.
        sigma0 = two_free_projections()
        fam = rmt.build_initial_family(sigma0, N)
        oracle = LiberationState(sigma0, 2)
        grid = [F(0), F(1, 2), F(1)]
        ds = []
        for seed in (0, 1):
            traj = rmt.simulate_trajectory(N, 2, grid[1:], F(1, 50), seed)
            emp = EmpiricalTrajectory(fam, traj)
            ds.append(trajectory_metric_d(emp, oracle, 2, 3, grid, gen_ids=[(1, 1), (2, 1)]))
        assert 0.03 <= N * np.mean(ds) <= 0.3


class TestGaussianGenerator:
    def test_selfadjoint(self):
        rng = np.random.default_rng(0)
        H = gaussian_generator(16, rng)
        assert np.allclose(H, H.conj().T)

    def test_trace_square_normalization(self):
        rng = np.random.default_rng(1)
        vals = [
            float(np.trace(H @ H).real / 32)
            for H in (gaussian_generator(32, rng) for _ in range(1000))
        ]
        assert abs(np.mean(vals) - 1.0) < 0.05


class TestExpi:
    # h = 1 and h = 16 put ||sqrt(h) H||_2 above 1 (for N >= 2), so the
    # halving-and-squaring branch runs there.
    @pytest.mark.parametrize("h", [F(1, 200), F(1, 20), F(1), F(16)])
    @pytest.mark.parametrize("N", [1, 2, 8, 64])
    def test_matches_expm(self, N, h):
        from scipy.linalg import expm

        s = math.sqrt(h)
        H = gaussian_generator(N, rmt.path_rng(2, N))
        E = _kernels.expi(H, s)
        assert np.max(np.abs(E - expm(1j * s * H))) <= 1e-13
        assert np.linalg.norm(E.conj().T @ E - np.eye(N), ord=2) <= 1e-13

    @pytest.mark.parametrize("s", [0.0, 0.1, 3.0])
    def test_zero_generator_is_identity(self, s):
        E = _kernels.expi(np.zeros((8, 8), dtype=np.complex128), s)
        assert np.array_equal(E, np.eye(8))


def _assemble_reference(A, B):
    """GUE assembly by the plain formula, allocating afresh."""
    G = A + 1j * B
    return (G + np.conjugate(np.swapaxes(G, -1, -2))) / math.sqrt(4.0 * A.shape[-1])


def _expi_reference(H, s):
    """The Paterson-Stockmeyer exponential with every intermediate allocated
    afresh: the arithmetic that ``_kernels.expi`` does in its workspace."""
    N = H.shape[-1]
    P = np.empty((3, N, N), dtype=np.complex128)
    X, X2, X3 = P
    np.multiply(H, 1j * s, out=X)
    np.matmul(X, X, out=X2)
    X4 = X2 @ X2

    def norm1(M):
        return float(np.abs(M).sum(axis=0).max())

    b = min(norm1(X), norm1(X2) ** 0.5, norm1(X4) ** 0.25)
    q = math.ceil(math.log2(b)) if b > 1.0 else 0
    if q:
        X *= 2.0**-q
        X2 *= 4.0**-q
        X4 *= 16.0**-q
        b *= 2.0**-q
    K = next(K for K in _kernels._DEGREES if b ** (K + 1) / math.factorial(K + 1) <= 2.0**-53)
    np.matmul(X2, X, out=X3)
    coef = _kernels._BLOCKS[: (K + 1) // 4]
    blocks = (coef[:, 1:] @ P.reshape(3, -1)).reshape(-1, N, N)
    blocks.reshape(len(coef), -1)[:, :: N + 1] += coef[:, :1]
    E = blocks[-1]
    for block in blocks[-2::-1]:
        E = block + E @ X4
    for _ in range(q):
        E = E @ E
    return E


class TestStepperBuffers:
    """The stepper's reused buffers give the bytes of fresh allocations."""

    @pytest.mark.parametrize("N", [1, 8, 128])
    def test_assemble_gue_into_buffer(self, N):
        rng = rmt.path_rng(4, N)
        A, B = rng.standard_normal((3, N, N)), rng.standard_normal((3, N, N))
        ref = _assemble_reference(A, B)
        assert np.array_equal(_kernels.assemble_gue(A, B), ref)
        out = np.full((3, N, N), np.nan + 1j * np.nan)
        assert _kernels.assemble_gue(A, B, out=out) is out
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("N", [1, 2, 8, 64, 128])
    def test_expi_workspace_matches_fresh(self, N):
        # one workspace through every degree and the squaring branch
        work = _kernels.expi_workspace(N)
        for k, h in enumerate([F(1, 200), F(1, 20), F(1), F(16), F(1, 50)]):
            H = gaussian_generator(N, rmt.path_rng(3, 10 * N + k))
            s = math.sqrt(h)
            ref = _expi_reference(H, s)
            assert np.array_equal(_kernels.expi(H, s, work), ref)
            assert np.array_equal(_kernels.expi(H, s), ref)

    @pytest.mark.parametrize("N, n_motions, paths", [(8, 2, 3), (128, 1, 2)])
    def test_step_matches_fresh_draws(self, N, n_motions, paths):
        h = F(1, 20)
        eng = rmt.BatchedUBM(N, n_motions, h, paths=paths, base_seed=6, first_path=2)
        rngs = [rmt.path_rng(6, p) for p in range(2, 2 + paths)]
        U = {i: np.tile(np.eye(N, dtype=np.complex128), (paths, 1, 1)) for i in eng.U}
        for _ in range(3):
            eng.step()
            for i in range(1, n_motions + 1):
                A, B = np.empty((paths, N, N)), np.empty((paths, N, N))
                for p, rng in enumerate(rngs):
                    A[p] = rng.standard_normal((N, N))
                    B[p] = rng.standard_normal((N, N))
                H = _assemble_reference(A, B)
                U[i] = np.array([_expi_reference(H[p], math.sqrt(h)) @ U[i][p] for p in range(paths)])
                assert np.array_equal(eng.U[i], U[i])


    def test_step_scratch_does_not_grow_with_paths(self):
        # a step works one path at a time, so at 400 paths its buffers come
        # to a small part of one (P, N, N) complex stack (25 MiB here)
        tracemalloc.start()
        try:
            eng = rmt.BatchedUBM(64, 1, F(1, 200), paths=400, base_seed=0)
            eng.step()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        extra = peak - eng.U[1].nbytes
        assert extra < 4 * 2**20, "%.1f MiB beyond the U stack" % (extra / 2**20)


class TestHaar:
    def test_unitary(self):
        U = rmt.sample_haar(16, rmt.path_rng(3, 0))
        assert np.allclose(U @ U.conj().T, np.eye(16), atol=1e-12)

    def test_mean_trace_vanishes(self):
        rng = np.random.default_rng(4)
        vals = [np.trace(rmt.sample_haar(8, rng)) / 8 for _ in range(1000)]
        se = np.std(vals) / math.sqrt(len(vals))
        assert abs(np.mean(vals)) < 3 * se + 1e-3

    def test_second_moment(self):
        # E |Tr U|^2 = 1 for Haar on U(N)
        rng = np.random.default_rng(5)
        vals = [abs(np.trace(rmt.sample_haar(6, rng))) ** 2 for _ in range(2000)]
        assert abs(np.mean(vals) - 1.0) < 0.1

    def test_n1_uniform_phase(self):
        rng = np.random.default_rng(6)
        vals = [complex(rmt.sample_haar(1, rng)[0, 0]) for _ in range(10000)]
        assert all(abs(abs(v) - 1) < 1e-12 for v in vals)
        assert abs(np.mean(vals)) < 0.05

    def test_seed_determinism(self):
        assert np.array_equal(
            rmt.sample_haar(8, rmt.path_rng(7, 0)), rmt.sample_haar(8, rmt.path_rng(7, 0))
        )


class TestTrajectory:
    def test_determinism_bit_identical(self):
        kw = dict(N=8, n_motions=2, sample_times=[F(1, 4), F(1, 2)], h=F(1, 20), base_seed=11)
        t1, t2 = rmt.simulate_trajectory(**kw), rmt.simulate_trajectory(**kw)
        assert t1.snapshots.keys() == t2.snapshots.keys()
        for key in t1.snapshots:
            assert np.array_equal(t1.snapshots[key], t2.snapshots[key])

    def test_path_is_batched_path(self):
        t = rmt.simulate_trajectory(4, 2, [F(1, 5)], F(1, 10), base_seed=8, path=3)
        eng = rmt.BatchedUBM(4, 2, F(1, 10), paths=4, base_seed=8)
        eng.run_until(F(1, 5))
        for i in (1, 2):
            assert np.array_equal(t.snapshots[(i, F(1, 5))], eng.U[i][3])

    def test_seeds_give_distinct_ensembles(self):
        # path p of seed S draws from SeedSequence([S, p]): no two (S, p) pairs
        # share a stream, so seeds 0..3 with 16 paths each give 64 distinct paths
        seen = set()
        for seed in range(4):
            eng = rmt.BatchedUBM(4, 1, F(1, 10), paths=16, base_seed=seed)
            eng.step()
            seen.update(U.tobytes() for U in eng.U[1])
        assert len(seen) == 4 * 16

    def test_unitarity_drift(self):
        t = rmt.simulate_trajectory(16, 1, [F(2)], F(1, 100), base_seed=13)
        assert t.unitarity_defect() < 1e-10

    def test_time_zero_is_identity(self):
        t = rmt.simulate_trajectory(8, 1, [F(1, 10)], F(1, 10), base_seed=1)
        assert np.array_equal(t.unitary(1, 0), np.eye(8))

    def test_grid_miss(self):
        t = rmt.simulate_trajectory(4, 1, [F(1, 2)], F(1, 10), base_seed=1)
        with pytest.raises(GridMiss):
            t.unitary(1, F(1, 3))
        with pytest.raises(GridMiss):
            rmt.simulate_trajectory(4, 1, [F(1, 3)], F(1, 10), base_seed=1)

    def test_zero_step_count(self):
        eng = rmt.BatchedUBM(4, 1, F(1, 10), paths=2, base_seed=0)
        eng.run_until(F(0))
        assert eng.steps_done == 0
        assert np.array_equal(eng.U[1][0], np.eye(4))


class TestWordTrace:
    def test_empty_word(self):
        fam = rmt.build_initial_family(two_free_projections(), 4)
        t = rmt.simulate_trajectory(4, 2, [F(1, 10)], F(1, 10), base_seed=2)
        assert rmt.evaluate_word_trace(EMPTY_WORD, fam, t) == 1

    def test_single_letter_time_invariant(self):
        fam = rmt.build_initial_family(two_free_projections(), 8)
        t = rmt.simulate_trajectory(8, 2, [F(1, 10), F(1, 5)], F(1, 10), base_seed=3)
        v0 = rmt.evaluate_word_trace(Word((Xs(1, 1, 0),)), fam, t)
        v1 = rmt.evaluate_word_trace(Word((Xs(1, 1, F(1, 10)),)), fam, t)
        v2 = rmt.evaluate_word_trace(Word((Xs(1, 1, F(1, 5)),)), fam, t)
        assert abs(v0 - 0.5) < 1e-12
        assert abs(v1 - v0) < 1e-10 and abs(v2 - v0) < 1e-10

    def test_fixed_row_unconjugated(self):
        fams = [
            MarginalLaw(1, atoms=[1, 0], weights=[F(1, 2), F(1, 2)]),
            MarginalLaw(3, atoms=[1, -1], weights=[F(1, 2), F(1, 2)]),
        ]
        fam = rmt.build_initial_family(InitialLaw.free_product(fams), 4)
        t = rmt.simulate_trajectory(4, 2, [F(1, 10)], F(1, 10), base_seed=5)
        # row 3 > n_motions = 2: xi enters raw; a pure row-3 word sees only
        # the deterministic diagonal matrix
        w = Word((Xs(3, 1, F(1, 10)), Xs(3, 1, F(1, 10))))
        val = rmt.evaluate_word_trace(w, fam, t)
        assert abs(val - 1.0) < 1e-12

    def test_v_letters_resolve_to_unitaries(self):
        fam = rmt.build_initial_family(two_free_projections(), 8)
        t = rmt.simulate_trajectory(8, 2, [F(1, 10)], F(1, 10), base_seed=6)
        w = Word((Vs(1, F(1, 10)), VsStar(1, F(1, 10))))
        assert abs(rmt.evaluate_word_trace(w, fam, t) - 1.0) < 1e-10

    def test_haar_tuple_ignores_time(self):
        fam = rmt.build_initial_family(two_free_projections(), 8)
        tup = rmt.HaarTuple(
            {1: rmt.sample_haar(8, rmt.path_rng(1, 0)), 2: rmt.sample_haar(8, rmt.path_rng(2, 0))}
        )
        w1 = rmt.evaluate_word_trace(Word((Xs(1, 1, 0), Xs(2, 1, 0))), fam, tup)
        w2 = rmt.evaluate_word_trace(Word((Xs(1, 1, 5), Xs(2, 1, 5))), fam, tup)
        assert w1 == w2


def _per_letter_matrices(word, family, resolver):
    """Every letter's matrix, conjugated afresh where it occurs (v_{n+1} = 1
    is left out)."""
    n = getattr(resolver, "n", 0)
    mats = []
    for sym in word.letters:
        if sym.kind == ncalg.X:
            xi = family.matrix((sym.i, sym.j))
            if sym.i <= n:
                U = resolver.unitary(sym.i, sym.t)
                mats.append(U @ xi @ U.conj().T)
            else:
                mats.append(xi)
        elif sym.i <= n:
            U = resolver.unitary(sym.i, sym.t)
            mats.append(U if sym.kind == ncalg.V else U.conj().T)
    return mats


def _full_product_trace(word, family, resolver):
    """Reference: the trace of the whole product from the identity."""
    M = np.eye(family.N, dtype=np.complex128)
    for L in _per_letter_matrices(word, family, resolver):
        M = M @ L
    return complex(np.trace(M) / family.N)


def _per_letter_trace(word, family, resolver):
    """Reference in the same arithmetic as evaluate_word_trace: the product
    from the identity of all letters but the last, paired with the last
    through the trace."""
    mats = _per_letter_matrices(word, family, resolver)
    if len(mats) < 2:
        return _full_product_trace(word, family, resolver)
    M = np.eye(family.N, dtype=np.complex128)
    for L in mats[:-1]:
        M = M @ L
    return complex(np.einsum("ij,ji->", M, mats[-1]) / family.N)


def three_row_family(N, sign_law=False):
    """Rows 1 and 2 for the motions, row 3 > n = 2 left unconjugated."""
    atoms = [1, -1] if sign_law else [1, 0]
    return rmt.build_initial_family(
        InitialLaw.free_product(
            [MarginalLaw(g, atoms=atoms, weights=[F(1, 2), F(1, 2)]) for g in (1, 2, 3)]
        ),
        N,
    )


def _letter_words():
    a, b = F(1, 10), F(1, 5)
    return [
        EMPTY_WORD,
        Word((Xs(1, 1, 0),)),
        Word((Vs(1, b),)),
        Word((VsStar(2, a),)),
        Word((Xs(1, 1, 0), Xs(2, 1, a), Xs(1, 1, b))),
        Word((Xs(1, 1, a), Xs(1, 1, a), Xs(2, 1, b), Xs(2, 1, b), Xs(1, 1, a))),
        Word((Vs(1, a), Xs(2, 1, 0), VsStar(1, a), Xs(1, 1, b))),
        Word((Xs(3, 1, a), Xs(1, 1, b), Xs(3, 1, 0), Xs(2, 1, a))),
        Word((Vs(3, b), Xs(2, 1, a), VsStar(2, b), Xs(3, 1, b), Vs(2, a))),
        Word((Xs(2, 1, b), Xs(1, 1, 0), Xs(2, 1, b), Xs(1, 1, 0))),
    ]


def _resolvers(N):
    traj = rmt.simulate_trajectory(N, 2, [F(1, 10), F(1, 5)], F(1, 10), base_seed=8)
    rng = rmt.path_rng(9, 0)
    tup = rmt.HaarTuple({i: rmt.sample_haar(N, rng) for i in (1, 2)})
    return {"trajectory": traj, "haar": tup}


class TestLetterMemo:
    @pytest.mark.parametrize("kind", ["trajectory", "haar"])
    def test_trace_pairing_matches_full_product(self, kind):
        fam = three_row_family(16)
        res = _resolvers(16)[kind]
        for w in _letter_words():
            ref = _full_product_trace(w, fam, res)
            assert abs(rmt.evaluate_word_trace(w, fam, res) - ref) <= 1e-12

    @pytest.mark.parametrize("kind", ["trajectory", "haar"])
    def test_memo_keeps_numbers_exact(self, kind):
        fam = three_row_family(8)
        res = _resolvers(8)[kind]
        emp = EmpiricalTrajectory(fam, res)
        memo = {}
        for _ in range(2):  # the second pass reads every letter from the memo
            for w in _letter_words():
                ref = _per_letter_trace(w, fam, res)
                assert rmt.evaluate_word_trace(w, fam, res) == ref
                assert rmt.evaluate_word_trace(w, fam, res, memo) == ref
                assert emp.moment(w) == ref

    def test_off_grid_letter_is_not_stored(self):
        fam = three_row_family(8)
        traj = _resolvers(8)["trajectory"]
        emp = EmpiricalTrajectory(fam, traj)
        on_grid = Word((Xs(1, 1, F(1, 10)), Xs(2, 1, F(1, 5))))
        off_grid = Word((Xs(1, 1, F(1, 10)), Xs(2, 1, F(3, 20))))
        for _ in range(2):
            with pytest.raises(GridMiss):
                emp.moment(off_grid)
        assert emp.moment(on_grid) == _per_letter_trace(on_grid, fam, traj)
        memo = {}
        with pytest.raises(GridMiss):
            rmt.evaluate_word_trace(off_grid, fam, traj, memo)
        assert Xs(2, 1, F(3, 20)) not in memo

    @pytest.mark.parametrize("kind", ["trajectory", "haar"])
    def test_prefix_reuse_keeps_numbers_exact(self, kind):
        fam = three_row_family(8)
        res = _resolvers(8)[kind]
        a, b = F(1, 10), F(1, 5)
        lasts = [Xs(1, 1, a), Xs(2, 1, b), Xs(3, 1, 0), Vs(1, a), VsStar(3, b)]
        # prefixes that differ in their last letter only, the last letter innermost
        shared = [
            Word(w.letters[:k] + (mid, last))
            for w in _letter_words()
            for k in (1, 2)
            if len(w) > k
            for mid in lasts
            for last in lasts
        ]
        words = _letter_words() + shared
        memo = {}
        for order in (words, words[::-1], words[::2] + words[1::2], words[1::3] + words[::-3]):
            for w in order:
                assert rmt.evaluate_word_trace(w, fam, res, memo) == _per_letter_trace(w, fam, res)

    def test_off_grid_last_letter_keeps_prefix_exact(self):
        fam = three_row_family(8)
        traj = _resolvers(8)["trajectory"]
        head = (Xs(1, 1, F(1, 10)), Xs(2, 1, F(1, 5)))
        before, after = Word(head + (Xs(1, 1, 0),)), Word(head + (Xs(2, 1, F(1, 10)),))
        off_grid = Word(head + (Xs(2, 1, F(3, 20)),))
        memo = {}
        assert rmt.evaluate_word_trace(before, fam, traj, memo) == _per_letter_trace(before, fam, traj)
        with pytest.raises(GridMiss):
            rmt.evaluate_word_trace(off_grid, fam, traj, memo)
        assert Xs(2, 1, F(3, 20)) not in memo
        assert rmt.evaluate_word_trace(after, fam, traj, memo) == _per_letter_trace(after, fam, traj)

    def test_memo_does_not_leak_across_families(self):
        traj = _resolvers(8)["trajectory"]
        fam_a, fam_b = three_row_family(8), three_row_family(8, sign_law=True)
        emp_a = EmpiricalTrajectory(fam_a, traj)
        emp_b = EmpiricalTrajectory(fam_b, traj)
        w = Word((Xs(1, 1, F(1, 10)), Xs(2, 1, F(1, 5)), Xs(3, 1, 0)))
        for _ in range(2):
            got_a, got_b = emp_a.moment(w), emp_b.moment(w)
            assert got_a == _per_letter_trace(w, fam_a, traj)
            assert got_b == _per_letter_trace(w, fam_b, traj)
            assert abs(got_a - got_b) > 1e-3


needs_blas_setter = pytest.mark.skipif(
    rmt._blas_threads() is None, reason="no OpenBLAS thread setter: map_shards runs in-process"
)


def _worker_pid(_item):
    return os.getpid()


def _pid_and_blas_threads(_item):
    return os.getpid(), rmt._blas_threads()[1]()


def _no_zombie():
    # the pool's workers live between calls, and none has exited unreaped
    assert os.waitpid(-1, os.WNOHANG) == (0, 0)


def _no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShards:
    def test_results_in_input_order(self):
        items = ["%d/7" % k for k in range(11)]
        assert rmt.map_shards(F, items) == [F(k, 7) for k in range(11)]
        assert rmt.map_shards(F, []) == []
        assert rmt.map_shards(F, ["1/2"]) == [F(1, 2)]

    @needs_blas_setter
    def test_failure_names_first_failing_item(self, monkeypatch):
        monkeypatch.setattr(rmt, "_allowed_cpus", lambda: 2)
        # on two workers, worker 1 (items 1, 3, 5) stops at "1/0"; "x" never runs
        with pytest.raises(ShardError) as info:
            rmt.map_shards(F, ["1", "2", "3", "1/0", "5", "x"])
        assert str(info.value).startswith("'1/0' failed: ZeroDivisionError")
        assert "Traceback" in info.value.traceback
        _no_zombie()
        rmt._close_pool()
        _no_child()  # every worker was reaped

    @needs_blas_setter
    def test_workers_run_one_blas_thread(self, monkeypatch):
        monkeypatch.setattr(rmt, "_allowed_cpus", lambda: 2)
        set_threads, get_threads = rmt._blas_threads()
        before = get_threads()
        set_threads(2)  # so that one thread in a worker is its own setting
        try:
            got = rmt.map_shards(_pid_and_blas_threads, range(2))
            assert get_threads() == 2
        finally:
            set_threads(before)
        assert [threads for _pid, threads in got] == [1, 1]
        assert len({pid for pid, _threads in got} | {os.getpid()}) == 3

    def test_no_blas_setter_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(rmt, "_allowed_cpus", lambda: 2)
        items = ["%d/7" % k for k in range(5)]
        forked = rmt.map_shards(F, items)
        monkeypatch.setattr(rmt, "_blas_threads", lambda: None)
        assert rmt.map_shards(F, items) == forked
        assert rmt.map_shards(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3

    @needs_blas_setter
    def test_no_worker_is_left_unreaped(self, monkeypatch):
        monkeypatch.setattr(rmt, "_allowed_cpus", lambda: 3)
        assert rmt.map_shards(F, ["1", "2", "3"]) == [1, 2, 3]
        _no_zombie()
        with pytest.raises(ShardError, match="'1/0' failed"):
            rmt.map_shards(F, ["1", "1/0", "3"])
        _no_zombie()
        with pytest.raises(ShardError, match="exited with code 3"):
            rmt.map_shards(os._exit, [3, 3, 3])  # a worker that dies
        _no_child()

        # a fork that fails while a closed pool grows
        fork, forked = os.fork, []

        def fork_once():
            if forked:
                raise OSError("no second fork")
            forked.append(fork())
            return forked[-1]

        monkeypatch.setattr(os, "fork", fork_once)
        start = time.monotonic()
        with pytest.raises(OSError, match="no second fork"):
            rmt.map_shards(time.sleep, [60, 0, 0])
        assert time.monotonic() - start < 30  # the first worker was killed
        assert len(forked) == 1 and rmt._POOL == []
        _no_child()

    @needs_blas_setter
    def test_consecutive_calls_share_workers(self, monkeypatch):
        monkeypatch.setattr(rmt, "_allowed_cpus", lambda: 2)
        first = rmt.map_shards(_worker_pid, range(2))
        assert rmt.map_shards(_worker_pid, range(2)) == first
        assert len(set(first) | {os.getpid()}) == 3
        _no_zombie()

    @needs_blas_setter
    def test_failing_item_keeps_workers(self, monkeypatch):
        monkeypatch.setattr(rmt, "_allowed_cpus", lambda: 2)
        pids = rmt.map_shards(_worker_pid, range(2))
        with pytest.raises(ShardError, match="'1/0' failed"):
            rmt.map_shards(F, ["1", "1/0"])
        assert rmt.map_shards(_worker_pid, range(2)) == pids
        _no_zombie()

    @needs_blas_setter
    def test_dead_worker_drops_the_pool(self, monkeypatch):
        monkeypatch.setattr(rmt, "_allowed_cpus", lambda: 3)
        pids = rmt.map_shards(_worker_pid, range(3))
        with pytest.raises(ShardError, match="exited with code 3"):
            rmt.map_shards(os._exit, [3, 0, 0])
        _no_child()  # the dead worker and the two live ones were reaped
        assert not set(rmt.map_shards(_worker_pid, range(3))) & set(pids)

    @needs_blas_setter
    def test_forked_process_leaves_the_pool_alone(self, monkeypatch):
        monkeypatch.setattr(rmt, "_allowed_cpus", lambda: 2)
        pids = rmt.map_shards(_worker_pid, range(2))
        child = os.fork()
        if child == 0:  # a fork of the owner forks workers of its own
            code = 1
            try:
                own = rmt.map_shards(_worker_pid, range(2))
                rmt._close_pool()
                code = 0 if not set(own) & set(pids) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(child, os.WNOHANG)) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(child, signal.SIGKILL)
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0
        assert rmt.map_shards(_worker_pid, range(2)) == pids
        _no_zombie()

    @needs_blas_setter
    def test_workers_leave_with_their_process(self):
        script = (
            "import os\n"
            "from liblab import rmt\n"
            "def pid(_):\n"
            "    return os.getpid()\n"
            "rmt._allowed_cpus = lambda: 2\n"
            "print(*rmt.map_shards(pid, range(2)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=120
        ).stdout
        pids = [int(p) for p in out.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 30
        for pid in pids:
            while True:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "worker %d outlived its process" % pid
                time.sleep(0.05)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_path_ranges_join_in_path_order(self, cpus, monkeypatch):
        kw = dict(n_max=2, T=F(1, 2), N=8, paths=7, h=F(1, 8), base_seed=5)
        monkeypatch.setattr(rmt, "_allowed_cpus", lambda: 1)
        whole = rmt.finite_n_moment_ode_check(**kw)
        monkeypatch.setattr(rmt, "_allowed_cpus", lambda: cpus)
        assert rmt.finite_n_moment_ode_check(**kw) == whole


class TestMomentCheck:
    def test_time_zero_exact(self):
        rows = rmt.finite_n_moment_ode_check(3, F(1), 8, 4, h=F(1, 4), base_seed=0)
        for n, t, emp, ode, gap, se in rows:
            if t == 0:
                assert emp == 1.0 and ode == 1.0

    def test_small_run_tracks_ode(self):
        rows = rmt.finite_n_moment_ode_check(
            2, F(1), 32, 100, h=F(1, 25), base_seed=0
        )
        for n, t, emp, ode, gap, se in rows:
            assert abs(gap) <= 3 * se + 2 / 32**2 + 0.01
