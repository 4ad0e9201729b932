"""Non-crossing partition combinatorics."""

import itertools
import random
from fractions import Fraction

import pytest

from liblab.cli import two_free_projections
from liblab.errors import SizeLimit
from liblab.freestate import LiberationState
from liblab.ncalg import Word, Xs
from liblab.ncpart import (
    CumulantFunctional,
    NonCrossingPartition,
    catalan,
    enumerate_nc,
    kreweras,
    scalar_cumulants,
)
from references import cumulant_by_splits, moment_from_cumulants


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

    def test_kappa_subtracts_splits_in_order(self):
        # float moments of a non-tracial functional, one per argument tuple:
        # a different order of the subtractions moves the last bits
        def moment(args):
            return random.Random(repr(args)).uniform(-1, 1)

        rng = random.Random(5)
        words = [tuple(rng.choice("abc") for _ in range(k)) for k in range(1, 10) for _ in range(4)]
        cf = CumulantFunctional(moment)
        memo = {}
        for args in words:
            assert cf.kappa(args) == cumulant_by_splits(moment, args, memo)

    def test_catalan_cumulants_to_16(self):
        # past the NC enumeration cap as well
        catalan_moments = [0 if k % 2 else catalan(k // 2) for k in range(1, 17)]
        cf = CumulantFunctional(lambda args: catalan_moments[len(args) - 1])
        kappas = {k: cf.kappa(("s",) * k) for k in range(1, 17)}
        assert kappas == {k: int(k == 2) for k in range(1, 17)}
        assert scalar_cumulants(catalan_moments, 16) == kappas

    def test_fresh_state_starts_with_no_laws(self):
        w = Word(tuple(Xs(1 + q % 2, 1, Fraction(1, 1 + q % 3)) for q in range(6)))
        first = LiberationState(two_free_projections(), 2)
        value = first.moment(w)
        state = LiberationState(two_free_projections(), 2)
        assert not state.engine._laws
        assert state.moment(w) == value
        assert state.engine._laws
