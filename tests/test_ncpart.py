"""Non-crossing partition combinatorics."""

import itertools
import random
from fractions import Fraction

import pytest

from liblab import ncpart
from liblab.cli import two_free_projections
from liblab.errors import SizeLimit
from liblab.freestate import LiberationState
from liblab.ncalg import Word, Xs
from liblab.ncpart import (
    NC_ENUM_CAP,
    CumulantFunctional,
    NonCrossingPartition,
    catalan,
    enumerate_nc,
    first_block_splits,
    kreweras,
    scalar_cumulants,
)
from references import moment_from_cumulants


def all_set_partitions(n):
    if n == 0:
        yield []
        return
    for rest in all_set_partitions(n - 1):
        for idx in range(len(rest)):
            yield rest[:idx] + [rest[idx] + [n]] + rest[idx + 1 :]
        yield rest + [[n]]


def has_crossing(blocks):
    for b1, b2 in itertools.combinations(blocks, 2):
        for a, c in itertools.combinations(b1, 2):
            for b, d in itertools.combinations(b2, 2):
                if a < b < c < d or b < a < d < c:
                    return True
    return False


class TestEnumeration:
    def test_n1(self):
        parts = enumerate_nc(1)
        assert len(parts) == 1
        assert parts[0].blocks == ((1,),)

    def test_counts_match_catalan(self):
        for n in range(1, 11):
            assert len(enumerate_nc(n)) == catalan(n)

    def test_no_duplicates(self):
        for n in range(1, 9):
            parts = enumerate_nc(n)
            assert len(set(parts)) == len(parts)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_agrees_with_brute_force_filter(self, n):
        brute = {
            tuple(sorted(tuple(sorted(b)) for b in p))
            for p in all_set_partitions(n)
            if not has_crossing(p)
        }
        fast = {tuple(sorted(p.blocks)) for p in enumerate_nc(n)}
        assert brute == fast

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            enumerate_nc(15)

    def test_crossing_rejected_by_constructor(self):
        with pytest.raises(ValueError):
            NonCrossingPartition([[1, 3], [2, 4]])
        # nested is fine
        NonCrossingPartition([[1, 4], [2, 3]])


class TestTextForm:
    def test_explicit_form(self):
        p = NonCrossingPartition([[4, 1], [3, 2]])
        assert p.blocks == ((1, 4), (2, 3))
        assert repr(p) == "{1,4|2,3}"


class TestKreweras:
    def test_extremes(self):
        for n in range(1, 7):
            full = NonCrossingPartition([list(range(1, n + 1))])
            singles = NonCrossingPartition([[i] for i in range(1, n + 1)])
            assert kreweras(full) == singles
            assert kreweras(singles) == full

    def test_rank_identity_exhaustive(self):
        for n in range(1, 8):
            for p in enumerate_nc(n):
                assert len(p) + len(kreweras(p)) == n + 1

    def test_result_noncrossing(self):
        for p in enumerate_nc(6):
            kp = kreweras(p)
            assert isinstance(kp, NonCrossingPartition)


class TestMomentCumulant:
    def test_identity_element(self):
        cf = CumulantFunctional(lambda args: 1)
        assert cf.kappa(("a",)) == 1
        for k in range(2, 7):
            assert cf.kappa(("a",) * k) == 0

    def test_symmetric_bernoulli(self):
        # moments 0,1,0,1,...  ->  kappa_2 = 1, kappa_4 = -1
        kappas = scalar_cumulants([0, 1, 0, 1], 4)
        assert kappas == {1: 0, 2: 1, 3: 0, 4: -1}

    def test_semicircle(self):
        kappas = scalar_cumulants([0, 1, 0, 2, 0, 5], 6)
        assert kappas == {1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}

    def test_round_trip_exact(self):
        # exact rational moments of a two-atom law, round trip through kappa
        atoms = [(Fraction(3, 5), Fraction(1, 3)), (Fraction(-1, 2), Fraction(2, 3))]

        def moment(args):
            k = len(args)
            return sum(w * a**k for a, w in atoms)

        cf = CumulantFunctional(moment)
        for k in range(1, 9):
            args = ("x",) * k
            assert moment_from_cumulants(cf, args) == moment(args)

    def test_round_trip_float_tolerance(self):
        import random

        rng = random.Random(7)
        moments = [rng.uniform(-1, 1) for _ in range(8)]

        def moment(args):
            return moments[len(args) - 1]

        cf = CumulantFunctional(moment)
        for k in range(1, 9):
            args = ("y",) * k
            assert abs(moment_from_cumulants(cf, args) - moments[k - 1]) < 1e-12

    def test_kappa_pi_multiplicative(self):
        kappas = scalar_cumulants([1, 2, 6, 22], 4)
        cf = CumulantFunctional(lambda args: [1, 2, 6, 22][len(args) - 1])
        for p in enumerate_nc(4):
            expected = 1
            for b in p.blocks:
                expected *= kappas[len(b)]
            assert cf.kappa_pi(p, ("a",) * 4) == expected

    def test_round_trip_mixed_non_tracial(self):
        # A vector state X -> X[0][0] on 3x3 rational matrices is not tracial,
        # so every gap must be the exact contiguous slice of the arguments.
        F = Fraction
        mats = {
            "a": [[F(1, 2), F(1), F(0)], [F(0), F(-1, 3), F(2)], [F(1), F(0), F(1, 4)]],
            "b": [[F(0), F(2, 3), F(1)], [F(1, 5), F(1), F(0)], [F(-1), F(1, 2), F(0)]],
            "c": [[F(1), F(0), F(-1, 2)], [F(3), F(0), F(1)], [F(0), F(1, 3), F(-2)]],
        }

        def moment(args):
            vec = [F(1), F(0), F(0)]
            for a in args:
                vec = [sum(vec[i] * mats[a][i][j] for i in range(3)) for j in range(3)]
            return vec[0]

        assert moment(("a", "b")) != moment(("b", "a"))
        rng = random.Random(11)
        words = [("a", "b", "a", "c", "a", "b", "c", "a")]
        words += [tuple(rng.choice("abc") for _ in range(k)) for k in range(1, 9) for _ in range(6)]
        cf = CumulantFunctional(moment)
        for args in words:
            assert moment_from_cumulants(cf, args) == moment(args)

    def test_first_block_splits(self):
        splits = list(first_block_splits(6, (2, 5)))
        assert splits == [
            ((0,), ((1, 6),)),
            ((0, 2), ((1, 2), (3, 6))),
            ((0, 5), ((1, 5),)),
            ((0, 2, 5), ((1, 2), (3, 5))),
        ]
        assert len(list(first_block_splits(9, range(1, 9)))) == 2**8


def _count_split_lengths(monkeypatch):
    """Patch ``ncpart.first_block_splits`` to record the length of each call."""
    lengths = []

    def counted(k, positions):
        lengths.append(k)
        return splits(k, positions)

    splits = ncpart.first_block_splits
    monkeypatch.setattr(ncpart, "first_block_splits", counted)
    return lengths


class TestSplitTables:
    def test_one_walk_per_length(self, monkeypatch):
        lengths = _count_split_lengths(monkeypatch)
        rng = random.Random(3)
        words = [tuple(rng.choice("abc") for _ in range(k)) for k in range(1, 11) for _ in range(20)]
        atoms = {"a": Fraction(1, 2), "b": Fraction(-1, 3), "c": Fraction(2)}
        cf = CumulantFunctional(lambda args: Fraction(len(args)) * sum(atoms[a] for a in args))
        for args in words:
            cf.kappa(args)
        assert len(set(map(len, words))) == 10
        assert sorted(lengths) == list(range(1, 11))
        # the generator's splits in its order, without the full block
        for k in range(1, 11):
            full = [split for split in first_block_splits(k, range(1, k)) if len(split[0]) != k]
            assert list(cf._splits[k]) == full

    def test_fresh_state_starts_with_no_tables(self, monkeypatch):
        w = Word(tuple(Xs(1 + q % 2, 1, Fraction(1, 1 + q % 3)) for q in range(6)))
        first = LiberationState(two_free_projections(), 2)
        value = first.moment(w)
        lengths = _count_split_lengths(monkeypatch)
        state = LiberationState(two_free_projections(), 2)
        assert not state.engine._laws
        assert state.moment(w) == value
        tables = [cf._splits for cf in state.engine._laws.values()]
        assert sorted(lengths) == sorted(k for splits in tables for k in splits)
        assert all(tables) and lengths

    def test_nothing_stored_above_cap(self, monkeypatch):
        lengths = _count_split_lengths(monkeypatch)
        catalan_moments = [0 if k % 2 else catalan(k // 2) for k in range(1, 17)]
        cf = CumulantFunctional(lambda args: catalan_moments[len(args) - 1])
        kappas = {k: cf.kappa(("s",) * k) for k in range(1, 17)}
        assert kappas == {k: int(k == 2) for k in range(1, 17)}
        assert sorted(cf._splits) == list(range(1, NC_ENUM_CAP + 1))
        assert lengths == list(range(1, 17))
        cf.kappa(("s", "s") * 8)  # memoised: no walk
        cf._cache.clear()
        cf.kappa(("s",) * 16)  # the tables serve every length up to the cap
        assert lengths == list(range(1, 17)) + [16, 15]
        assert scalar_cumulants(catalan_moments, 16) == kappas
