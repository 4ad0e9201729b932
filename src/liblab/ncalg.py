"""Noncommutative word/polynomial algebra over x_{ij}(t) and v_i(t).

Letters carry exact rational times (``fractions.Fraction``) so that the
unitarity rewrite v_i(t) v_i(t)* -> 1 and the indicator in the liberation
derivation are decidable. Coefficients are complex floats.

Coefficients are collected in one place: ``_collect`` adds the coefficients
of equal words (or word pairs) and drops a zero sum, and every polynomial is
built through it. The cyclic derivative lists the raw terms of the liberation
derivation in one pass and collects theta of them once.

Text forms: ``X[i,j;t]``, ``V[i;t]``, ``V*[i;t]``; juxtaposition for products,
``+`` between terms.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from .errors import NonXPolynomial

X = "X"
V = "V"
VSTAR = "V*"

def _as_time(t) -> Fraction:
    if isinstance(t, Fraction):
        return t
    if isinstance(t, int):
        return Fraction(t)
    if isinstance(t, str):
        return Fraction(t)
    if isinstance(t, float):
        if not float(t).is_integer() and Fraction(t).limit_denominator(10**6) != Fraction(t):
            raise TypeError(
                "times must be exact rationals; got float %r (pass Fraction or str)" % t
            )
        return Fraction(t)
    raise TypeError("unsupported time type: %r" % (t,))


class GeneratorSymbol:
    """One letter: X(i,j,t), V(i,t) or VStar(i,t). Immutable and hashable.

    The hash is computed once, at construction, from the time's numerator
    and denominator (a Fraction is always in lowest terms): dict and set
    lookups would otherwise rehash the time through ``Fraction.__hash__``,
    which is slow, on every call.
    """

    __slots__ = ("kind", "i", "j", "t", "_hash")

    def __init__(self, kind, i, j, t):
        if kind not in (X, V, VSTAR):
            raise ValueError("kind must be X, V or V*")
        t = _as_time(t)
        if t.numerator < 0:  # the denominator is positive; cheaper than t < 0
            raise ValueError("time must be nonnegative")
        if i < 1:
            raise ValueError("index i must be >= 1")
        if kind == X:
            if j is None or j < 1:
                raise ValueError("X symbols need a column index j >= 1")
        else:
            if j is not None:
                raise ValueError("V symbols carry no column index")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_hash", hash((kind, i, j, t.numerator, t.denominator)))

    def __setattr__(self, *_):
        raise AttributeError("GeneratorSymbol is immutable")

    def __reduce__(self):
        # through the constructor: the hash of ``kind`` differs per process
        return GeneratorSymbol, (self.kind, self.i, self.j, self.t)

    def _key(self):
        return (self.kind, self.i, self.j, self.t)

    def __eq__(self, other):
        return isinstance(other, GeneratorSymbol) and self._key() == other._key()

    def __hash__(self):
        return self._hash

    def adjoint(self):
        if self.kind == X:
            return self
        return GeneratorSymbol(V if self.kind == VSTAR else VSTAR, self.i, None, self.t)

    def __repr__(self):
        if self.kind == X:
            return "X[%d,%d;%s]" % (self.i, self.j, self.t)
        return "%s[%d;%s]" % (self.kind, self.i, self.t)


def Xs(i, j, t):
    return GeneratorSymbol(X, i, j, t)


def Vs(i, t):
    return GeneratorSymbol(V, i, None, t)


def VsStar(i, t):
    return GeneratorSymbol(VSTAR, i, None, t)


def _canonical(letters):
    """Drop V(i,0)/V*(i,0) and cancel adjacent inverse pairs (stack pass).

    The rewrite system is length-reducing and the stack construction applies
    it to a fixed point, so the result is independent of application order.
    """
    out = []
    for sym in letters:
        if sym.kind in (V, VSTAR) and sym.t == 0:
            continue
        if out:
            top = out[-1]
            if (
                sym.kind in (V, VSTAR)
                and top.kind in (V, VSTAR)
                and top.kind != sym.kind
                and top.i == sym.i
                and top.t == sym.t
            ):
                out.pop()
                continue
        out.append(sym)
    return tuple(out)


class Word:
    """A canonical product of letters; the empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        object.__setattr__(self, "letters", _canonical(letters))

    def __setattr__(self, *_):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        return Word, (self.letters,)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if isinstance(other, Word):
            return Word(self.letters + other.letters)
        return NotImplemented

    def adjoint(self):
        return Word(tuple(sym.adjoint() for sym in reversed(self.letters)))

    def is_x_only(self):
        return all(sym.kind == X for sym in self.letters)

    def max_time(self):
        return max((sym.t for sym in self.letters), default=Fraction(0))

    def __repr__(self):
        if not self.letters:
            return "1"
        return "".join(repr(sym) for sym in self.letters)


EMPTY_WORD = Word()


def _collect(pairs):
    """Sum the coefficients of equal keys from (key, coefficient) pairs; a key
    whose sum is zero is dropped."""
    out = {}
    for key, coeff in pairs:
        cur = out.get(key, 0.0) + coeff
        if cur == 0:
            out.pop(key, None)
        else:
            out[key] = cur
    return out


def _pairs(terms):
    """(key, coefficient) pairs from a mapping or an iterable of pairs."""
    return terms.items() if hasattr(terms, "keys") else terms


class NCPolynomial:
    """Finite complex-linear combination of canonical words.

    Built, as ``dict`` is, from a mapping or from (word, coefficient) pairs;
    the coefficients of equal words are added.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        pairs = ((w if isinstance(w, Word) else Word(w), complex(c)) for w, c in _pairs(terms))
        object.__setattr__(self, "terms", _collect(pairs))

    def __setattr__(self, *_):
        raise AttributeError("NCPolynomial is immutable")

    @classmethod
    def from_word(cls, word, coeff=1.0):
        return cls({word if isinstance(word, Word) else Word(word): coeff})

    @classmethod
    def scalar(cls, value):
        return cls({EMPTY_WORD: value})

    @classmethod
    def zero(cls):
        return cls({})

    def __eq__(self, other):
        return isinstance(other, NCPolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = NCPolynomial.scalar(other)
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return NCPolynomial(itertools.chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return NCPolynomial({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = NCPolynomial.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return NCPolynomial.scalar(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return NCPolynomial({w: c * other for w, c in self.terms.items()})
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return NCPolynomial(
            (w1 * w2, c1 * c2)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
        )

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def adjoint(self):
        return NCPolynomial({w.adjoint(): c.conjugate() for w, c in self.terms.items()})

    def is_x_only(self):
        return all(w.is_x_only() for w in self.terms)

    def max_time(self):
        return max((w.max_time() for w in self.terms), default=Fraction(0))

    def __repr__(self):
        return format_polynomial(self)


def _derivation_terms(p: NCPolynomial, k: int, s):
    """Raw terms (a, b, c) of delta_s^(k) p, the tensor legs as letter tuples.

    Each letter x = x_{kj}(t) with s <= t of a word prefix.x.suffix with
    coefficient c gives prefix.x.v (x) v*.suffix with +c and
    prefix.v (x) v*.x.suffix with -c, where v = v_k(t - s).
    """
    s = _as_time(s)
    if not p.is_x_only():
        raise NonXPolynomial("polynomial contains V/V* letters")
    for word, coeff in p.terms.items():
        letters = word.letters
        for idx, sym in enumerate(letters):
            if sym.i != k or not (0 <= s <= sym.t):
                continue
            v, vstar = Vs(k, sym.t - s), VsStar(k, sym.t - s)
            prefix, suffix = letters[:idx], letters[idx + 1 :]
            yield prefix + (sym, v), (vstar,) + suffix, coeff
            yield prefix + (v,), (vstar, sym) + suffix, -coeff


def cyclic_derivative(p: NCPolynomial, k: int, s) -> NCPolynomial:
    """D_s^(k) = theta . delta_s^(k), with theta(a (x) b) = b a."""
    return NCPolynomial((Word(b + a), c) for a, b, c in _derivation_terms(p, k, s))


def pi_s_substitution(p: NCPolynomial, s, n: int) -> NCPolynomial:
    """Homomorphic Pi^s with `n` motions.

    X(i,j,t) with i <= n maps to V(i,(t-s)v0) X(i,j,s^t) V*(i,(t-s)v0);
    X letters with i > n (the fixed row n+1) and all V letters are unchanged.
    """
    s = _as_time(s)
    return NCPolynomial((_pi_s_word(word, s, n), coeff) for word, coeff in p.terms.items())


def _pi_s_word(word: Word, s: Fraction, n: int) -> Word:
    letters = []
    for sym in word.letters:
        if sym.kind != X or sym.i > n:
            letters.append(sym)
            continue
        shifted = max(sym.t - s, Fraction(0))
        letters += (Vs(sym.i, shifted), Xs(sym.i, sym.j, min(s, sym.t)), VsStar(sym.i, shifted))
    return Word(letters)


# ---------------------------------------------------------------------------
# Text serialization


_SYM_RE = re.compile(
    r"X\[(\d+),(\d+);([0-9]+(?:/[0-9]+)?)\]|V(\*?)\[(\d+);([0-9]+(?:/[0-9]+)?)\]"
)


def format_word(word: Word) -> str:
    return repr(word)


def parse_word(text: str) -> Word:
    text = text.strip()
    if text == "1":
        return EMPTY_WORD
    letters = []
    pos = 0
    while pos < len(text):
        m = _SYM_RE.match(text, pos)
        if not m:
            raise ValueError("cannot parse word at %r" % text[pos:])
        if m.group(1) is not None:
            letters.append(Xs(int(m.group(1)), int(m.group(2)), Fraction(m.group(3))))
        else:
            kind = VSTAR if m.group(4) == "*" else V
            letters.append(
                GeneratorSymbol(kind, int(m.group(5)), None, Fraction(m.group(6)))
            )
        pos = m.end()
    return Word(letters)


def _format_coeff(c: complex) -> str:
    if c.imag == 0:
        r = c.real
        if r == int(r):
            return "%d" % int(r)
        return repr(r)
    s = repr(c)
    return s if s.startswith("(") else "(%s)" % s


def format_polynomial(p: NCPolynomial) -> str:
    if not p.terms:
        return "0"
    parts = []
    for word in sorted(p.terms, key=lambda w: (len(w), repr(w))):
        c = p.terms[word]
        w = format_word(word)
        if c == 1 and word.letters:
            parts.append(w)
        elif not word.letters:
            parts.append(_format_coeff(c))
        else:
            parts.append("%s*%s" % (_format_coeff(c), w))
    return " + ".join(parts)
