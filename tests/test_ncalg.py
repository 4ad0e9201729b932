"""Symbolic word algebra, liberation derivation, cyclic derivative, Pi^s."""

import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from liblab import ncalg, rmt
from liblab.errors import NonXPolynomial
from liblab.ncalg import (
    EMPTY_WORD,
    NCPolynomial,
    Vs,
    VsStar,
    Word,
    Xs,
    cyclic_derivative,
    format_polynomial,
    format_word,
    parse_word,
    pi_s_substitution,
)
from references import (
    TensorPolynomial,
    cyclic_derivative_commutator_form,
    liberation_derivation,
    parse_polynomial,
)


def rand_x_word(rng, max_len=5, rows=3):
    L = rng.randint(0, max_len)
    return Word(
        tuple(Xs(rng.randint(1, rows), rng.randint(1, 2), F(rng.randint(0, 8), 4)) for _ in range(L))
    )


def rand_x_poly(rng, terms=3, **kw):
    p = NCPolynomial.zero()
    for _ in range(terms):
        p = p + NCPolynomial.from_word(rand_x_word(rng, **kw), rng.choice([1, -1, 2, 0.5]))
    return p


class TestWords:
    def test_unit_law(self):
        rng = random.Random(0)
        for _ in range(20):
            w = rand_x_word(rng)
            p = NCPolynomial.from_word(w)
            assert NCPolynomial.scalar(1) * p == p
            assert p * NCPolynomial.scalar(1) == p

    def test_unitarity_cancellation(self):
        t = F(1, 2)
        assert Word((Vs(1, t), VsStar(1, t))) == EMPTY_WORD
        assert Word((VsStar(1, t), Vs(1, t))) == EMPTY_WORD
        # different time or index: no cancellation
        assert len(Word((Vs(1, t), VsStar(1, F(1, 3))))) == 2
        assert len(Word((Vs(1, t), VsStar(2, t)))) == 2

    def test_v_at_time_zero_dropped(self):
        assert Word((Vs(1, 0),)) == EMPTY_WORD
        w = Word((Xs(1, 1, 1), Vs(2, 0), Xs(1, 1, 1)))
        assert len(w) == 2

    def test_square_expansion(self):
        s = F(1, 2)
        p = NCPolynomial.from_word(Word((Xs(1, 1, s),))) + NCPolynomial.from_word(
            Word((Xs(2, 1, s),))
        )
        sq = p * p
        assert len(sq.terms) == 4
        assert all(c == 1 for c in sq.terms.values())

    def test_canonicalization_confluent(self):
        rng = random.Random(3)
        for _ in range(100):
            L = rng.randint(0, 12)
            letters = []
            for _ in range(L):
                kind = rng.choice(["x", "v", "v*"])
                i, t = rng.randint(1, 2), F(rng.randint(0, 2), 2)
                if kind == "x":
                    letters.append(Xs(i, 1, t))
                elif kind == "v":
                    letters.append(Vs(i, t))
                else:
                    letters.append(VsStar(i, t))
            direct = Word(letters)
            # build up by random association order
            pieces = [Word((sym,)) for sym in letters] or [EMPTY_WORD]
            while len(pieces) > 1:
                idx = rng.randrange(len(pieces) - 1)
                pieces[idx : idx + 2] = [pieces[idx] * pieces[idx + 1]]
            assert pieces[0] == direct

    def test_adjoint_antihomomorphism(self):
        rng = random.Random(5)
        for _ in range(20):
            p, q = rand_x_poly(rng), rand_x_poly(rng)
            assert (p * q).adjoint() == q.adjoint() * p.adjoint()

    def test_pairs_collect_equal_words(self):
        w, u = Word((Xs(1, 1, 1),)), Word((Xs(2, 1, F(1, 2)), Xs(1, 1, 1)))
        p = NCPolynomial([(w, 1), (w, 2), (u, 1), (u, -1)])
        assert p.terms == {w: 3}
        assert p == NCPolynomial({w: 3.0})

    def test_float_time_rejected(self):
        with pytest.raises(TypeError):
            Xs(1, 1, 0.1)
        assert Xs(1, 1, 0.5).t == F(1, 2)  # exact dyadic ok


def _pickle_words():
    a = F(1, 3)
    return [
        EMPTY_WORD,
        Word((Xs(1, 1, 0),)),
        Word((Xs(2, 1, a), Vs(1, a), Xs(1, 2, 1), VsStar(2, F(1, 2)))),
        Word((Vs(3, 2), Xs(3, 1, a))),
    ]


class TestPickle:
    def test_round_trip_in_process(self):
        syms = [Xs(1, 1, 0), Xs(2, 1, F(1, 3)), Vs(1, F(1, 2)), VsStar(2, 1)]
        for obj in syms + _pickle_words():
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj and hash(back) == hash(obj)

    def test_round_trip_through_workers(self, monkeypatch):
        monkeypatch.setattr(rmt, "_allowed_cpus", lambda: 2)
        words = _pickle_words()
        table = {w: k for k, w in enumerate(words)}
        shards = [tuple(words[:2]), tuple(words[2:])]
        returned = rmt.map_shards(dict.fromkeys, shards)  # keyed in the worker
        assert [table[w] for got in returned for w in got] == list(range(len(words)))
        for got, shard in zip(returned, shards):
            assert all(w in got for w in shard)
        # words cross into the workers pickled as well as back, and words
        # built in a worker are found here too; forked workers share this
        # process's string-hash seed, so rehashing on receipt is checked by
        # test_round_trip_across_hash_seeds
        built = rmt.map_shards(parse_word, [format_word(w) for w in words])
        assert [table[w] for w in built] == list(range(len(words)))

    def test_round_trip_across_hash_seeds(self):
        # The symbol hash hashes the kind string, which differs with the
        # string-hash seed: a fresh interpreter under another seed finds the
        # received words among those it builds only if they are rehashed on
        # receipt, and this process finds its built words likewise.
        words = _pickle_words()
        table = {w: k for k, w in enumerate(words)}
        script = (
            "import pickle, sys\n"
            "from liblab.ncalg import X, parse_word\n"
            "received, texts = pickle.load(sys.stdin.buffer)\n"
            "built = dict.fromkeys(parse_word(t) for t in texts)\n"
            "pickle.dump((hash(X), [w in built for w in received], list(built)), sys.stdout.buffer)\n"
        )
        src = os.path.dirname(os.path.dirname(ncalg.__file__))
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        res = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps((words, [format_word(w) for w in words])),
            capture_output=True, env=env, check=True, timeout=60,
        )
        kind_hash, found, built = pickle.loads(res.stdout)
        assert kind_hash != hash(ncalg.X)  # the seed boundary was crossed
        assert found == [True] * len(words)
        assert [table[w] for w in built] == list(range(len(words)))


class TestDerivation:
    def test_wrong_motion_index_is_zero(self):
        d = liberation_derivation(NCPolynomial.from_word(Word((Xs(2, 1, 1),))), 1, F(1, 2))
        assert not d.terms

    def test_s_past_time_is_zero(self):
        d = liberation_derivation(NCPolynomial.from_word(Word((Xs(1, 1, 1),))), 1, F(3, 2))
        assert not d.terms

    def test_single_letter_tensor_output(self):
        t, s = F(1), F(1, 4)
        d = liberation_derivation(NCPolynomial.from_word(Word((Xs(1, 1, t),))), 1, s)
        v, vstar = Vs(1, t - s), VsStar(1, t - s)
        expected = TensorPolynomial(
            {
                (Word((Xs(1, 1, t), v)), Word((vstar,))): 1.0,
                (Word((v,)), Word((vstar, Xs(1, 1, t)))): -1.0,
            }
        )
        assert d == expected

    def test_rejects_v_letters(self):
        p = NCPolynomial.from_word(Word((Vs(1, 1),)))
        with pytest.raises(NonXPolynomial):
            liberation_derivation(p, 1, 0)
        with pytest.raises(NonXPolynomial):
            cyclic_derivative(p, 1, 0)

    def test_leibniz(self):
        rng = random.Random(11)
        for _ in range(50):
            p, q = rand_x_poly(rng, terms=2, max_len=3), rand_x_poly(rng, terms=2, max_len=3)
            k, s = rng.randint(1, 3), F(rng.randint(0, 8), 4)
            lhs = liberation_derivation(p * q, k, s)
            dp, dq = liberation_derivation(p, k, s), liberation_derivation(q, k, s)
            # delta(pq) = delta(p) . (1 otimes q) + (p otimes 1) . delta(q)
            rhs = TensorPolynomial({})
            for wq, cq in q.terms.items():
                rhs = rhs + TensorPolynomial(
                    {(a, b * wq): c * cq for (a, b), c in dp.terms.items()}
                )
            for wp, cp in p.terms.items():
                rhs = rhs + TensorPolynomial(
                    {(wp * a, b): c * cp for (a, b), c in dq.terms.items()}
                )
            assert lhs == rhs

    def test_linearity(self):
        rng = random.Random(13)
        p, q = rand_x_poly(rng), rand_x_poly(rng)
        k, s = 1, F(1, 2)
        lhs = liberation_derivation(p + q * 2, k, s)
        dp, dq = liberation_derivation(p, k, s), liberation_derivation(q, k, s)
        rhs = dp + TensorPolynomial({pair: 2 * c for pair, c in dq.terms.items()})
        assert lhs == rhs


class TestCyclicDerivative:
    def test_single_letter_vanishes(self):
        # theta maps both tensor legs of delta(x) to the same word, so the
        # cyclic derivative of one letter cancels exactly
        d = cyclic_derivative(NCPolynomial.from_word(Word((Xs(1, 1, 1),))), 1, F(1, 4))
        assert not d.terms

    def test_scalar_vanishes(self):
        assert not cyclic_derivative(NCPolynomial.scalar(3.0), 1, F(1, 2)).terms

    def test_commutator_form_matches_theta_delta(self):
        rng = random.Random(17)
        for _ in range(60):
            w = rand_x_word(rng, max_len=6)
            k, s = rng.randint(1, 3), F(rng.randint(0, 8), 4)
            a = cyclic_derivative(NCPolynomial.from_word(w), k, s)
            b = cyclic_derivative_commutator_form(w, k, s)
            assert a == b

    def test_time_s_commutator_identity_after_pi_s(self):
        # Independent route: after Pi^s the cyclic derivative of a monomial
        # equals the sum over qualifying letters of
        # Pi^s([v_k(t_l - s)* (rotation) v_k(t_l - s), x_l(s)]).
        rng = random.Random(19)
        n = 3
        for _ in range(40):
            w = rand_x_word(rng, max_len=5)
            if not len(w):
                continue
            k, s = rng.randint(1, n), F(rng.randint(0, 8), 4)
            lhs = pi_s_substitution(cyclic_derivative(NCPolynomial.from_word(w), k, s), s, n)
            rhs = NCPolynomial.zero()
            letters = w.letters
            for idx, sym in enumerate(letters):
                if sym.i != k or not (0 <= s <= sym.t):
                    continue
                v, vstar = Word((Vs(k, sym.t - s),)), Word((VsStar(k, sym.t - s),))
                rot = Word(letters[idx + 1 :] + letters[:idx])
                inner = NCPolynomial.from_word(vstar) * pi_s_substitution(
                    NCPolynomial.from_word(rot), s, n
                ) * NCPolynomial.from_word(v)
                xs = NCPolynomial.from_word(Word((Xs(sym.i, sym.j, s),)))
                rhs = rhs + inner * xs - xs * inner
            assert lhs == rhs

    def test_theta_of_collected_derivation(self):
        # Collecting theta of the raw terms gives theta of the collected
        # tensor. A word minus its rotation has a zero cyclic derivative, so
        # the added rotations make terms cancel on the way.
        rng = random.Random(43)
        cancelled = 0
        for _ in range(60):
            p = rand_x_poly(rng, terms=3, max_len=5)
            w = rand_x_word(rng, max_len=5)
            r = rng.randint(0, max(len(w) - 1, 0))
            rot = Word(w.letters[r:] + w.letters[:r])
            p = p + NCPolynomial.from_word(w, 2) - NCPolynomial.from_word(rot, 2)
            k, s = rng.randint(1, 3), F(rng.randint(0, 8), 4)
            d = liberation_derivation(p, k, s)
            theta = NCPolynomial((b * a, c) for (a, b), c in d.terms.items())
            assert cyclic_derivative(p, k, s) == theta
            q = NCPolynomial.from_word(w) - NCPolynomial.from_word(rot)
            assert not cyclic_derivative(q, k, s).terms
            cancelled += bool(liberation_derivation(q, k, s).terms)
        assert cancelled > 10

    def test_star_law(self):
        # The commutator structure makes the cyclic derivative a *skew*
        # operation: (D P)* = -D(P*); in particular D of a self-adjoint P is
        # anti-self-adjoint.
        rng = random.Random(23)
        for _ in range(30):
            p = rand_x_poly(rng, terms=2, max_len=4)
            k, s = rng.randint(1, 3), F(rng.randint(0, 4), 2)
            assert cyclic_derivative(p, k, s).adjoint() == cyclic_derivative(
                p.adjoint(), k, s
            ) * (-1)
        q = rand_x_poly(rng, terms=2, max_len=3)
        p = q + q.adjoint()
        d = cyclic_derivative(p, 1, F(1, 2))
        assert not (d + d.adjoint()).terms


class TestPiS:
    def test_fixed_row_untouched(self):
        n = 2
        p = NCPolynomial.from_word(Word((Xs(3, 1, 1),)))
        assert pi_s_substitution(p, F(1, 2), n) == p

    def test_s_zero(self):
        p = NCPolynomial.from_word(Word((Xs(1, 1, 1),)))
        out = pi_s_substitution(p, 0, 2)
        expected = NCPolynomial.from_word(Word((Vs(1, 1), Xs(1, 1, 0), VsStar(1, 1))))
        assert out == expected

    def test_s_past_all_times_is_identity(self):
        rng = random.Random(29)
        for _ in range(20):
            w = rand_x_word(rng, max_len=4)
            s = w.max_time() + F(rng.randint(0, 3), 2)
            p = NCPolynomial.from_word(w)
            assert pi_s_substitution(p, s, 3) == p

    def test_v_letters_fixed(self):
        p = NCPolynomial.from_word(Word((Vs(1, 1), Xs(2, 1, 1))))
        out = pi_s_substitution(p, F(1, 2), 2)
        expected = NCPolynomial.from_word(
            Word((Vs(1, 1), Vs(2, F(1, 2)), Xs(2, 1, F(1, 2)), VsStar(2, F(1, 2))))
        )
        assert out == expected

    def test_homomorphic(self):
        rng = random.Random(31)
        for _ in range(20):
            p, q = rand_x_poly(rng, terms=2), rand_x_poly(rng, terms=2)
            s = F(rng.randint(0, 6), 4)
            assert pi_s_substitution(p * q, s, 3) == pi_s_substitution(
                p, s, 3
            ) * pi_s_substitution(q, s, 3)


class TestSerialization:
    def test_word_round_trip(self):
        rng = random.Random(37)
        for _ in range(50):
            w = rand_x_word(rng)
            assert parse_word(format_word(w)) == w

    def test_v_words(self):
        w = Word((Vs(1, F(3, 4)), VsStar(2, 2), Xs(1, 2, F(5, 2))))
        text = format_word(w)
        assert text == "V[1;3/4]V*[2;2]X[1,2;5/2]"
        assert parse_word(text) == w

    def test_empty_word(self):
        assert format_word(EMPTY_WORD) == "1"
        assert parse_word("1") == EMPTY_WORD

    def test_polynomial_round_trip(self):
        rng = random.Random(41)
        for _ in range(30):
            p = rand_x_poly(rng)
            assert parse_polynomial(format_polynomial(p)) == p

    def test_zero(self):
        assert format_polynomial(NCPolynomial.zero()) == "0"

    def test_complex_coefficients(self):
        p = NCPolynomial.from_word(Word((Xs(1, 1, 1),)), 1 + 2j) + NCPolynomial.scalar(
            -0.5
        )
        assert parse_polynomial(format_polynomial(p)) == p
