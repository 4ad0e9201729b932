"""Independent references that tests compare the library against."""

import itertools
import math
from fractions import Fraction

from liblab import _kernels
from liblab.errors import NonXPolynomial
from liblab.freestate import FreeProductState, InitialLaw, conditional_expectation_prop81
from liblab.ncalg import (
    EMPTY_WORD,
    NCPolynomial,
    Vs,
    VsStar,
    Word,
    _collect,
    _derivation_terms,
    _pairs,
    parse_word,
)
from liblab.ncpart import enumerate_nc


def gaussian_generator(N, rng):
    """Self-adjoint Gaussian H with E tr_N H^2 = 1 (GUE normalization), the
    generator ``BatchedUBM.step`` assembles from the same two draws."""
    A = rng.standard_normal((N, N))
    B = rng.standard_normal((N, N))
    return _kernels.assemble_gue(A, B)


def scheme_first_moment(N, h):
    """phi_N(h) = E tr_N exp(i sqrt(h) H) for the stepper's GUE H, the
    GUE moment generating function (Haagerup & Thorbjornsen 2003):

        phi_N(h) = e^{-h/(2N)} L^(1)_{N-1}(h/N) / N,
        L^(1)_{N-1}(x) = sum_{k<N} (-x)^k/k! C(N, k+1),

    the Laguerre sum taken in exact rationals. By unitary invariance one step
    has E exp(i sqrt(h) H) = phi_N(h) I, so E tr_N U(kh) = phi_N(h)^k.
    """
    x = Fraction(h) / N
    laguerre = sum((-x) ** k / math.factorial(k) * math.comb(N, k + 1) for k in range(N))
    return math.exp(-float(h) / (2 * N)) * float(laguerre) / N


def cyclic_derivative_commutator_form(word, k, s):
    """Closed form of D_s^(k) on a monomial: sum over qualifying letters l of

        v_k(t_l - s)^* [R_l, x_l] v_k(t_l - s)

    with R_l the cyclic rotation x_{l+1} ... x_{l-1} of the remaining letters.
    An independent route for cross-checking ``ncalg.cyclic_derivative``.
    """
    s = Fraction(s)
    if not word.is_x_only():
        raise NonXPolynomial("commutator form applies to X-words")
    letters = word.letters
    total = NCPolynomial.zero()
    for idx, sym in enumerate(letters):
        if sym.i != k or not (0 <= s <= sym.t):
            continue
        vstar = Word((VsStar(k, sym.t - s),))
        v = Word((Vs(k, sym.t - s),))
        rot = Word(letters[idx + 1 :] + letters[:idx])
        xw = Word((sym,))
        term = NCPolynomial.from_word(vstar * rot * xw * v) - NCPolynomial.from_word(
            vstar * xw * rot * v
        )
        total = total + term
    return total


def free_product_moment(marginals, word):
    """Moment of an X-word under the free product of the marginals."""
    sigma0 = InitialLaw.free_product(marginals)
    state = FreeProductState(sigma0, n_motions=0)
    return state.moment(word)


def first_block_splits(k, positions):
    """The first-block splits of 0..k-1 whose block is 0 and a subset S of
    ``positions`` (sorted, all > 0), in the order the library documents: S
    by size, each size in ``itertools.combinations`` order. Yields the block
    ``(0,) + S`` and the nonempty half-open gaps ``(a, b)`` between
    consecutive block elements and after the last one."""
    positions = tuple(positions)
    for r in range(len(positions) + 1):
        for chosen in itertools.combinations(positions, r):
            block = (0,) + chosen
            ends = chosen + (k,)
            yield block, tuple((a + 1, b) for a, b in zip(block, ends) if b > a + 1)


def cumulant_by_splits(moment, args, memo):
    """kappa(args) of the functional ``moment``: m(args) minus the term of
    each proper first-block split, ``kappa(block) * prod m(gaps)``, taken
    from left to right and subtracted in the order of
    ``first_block_splits``. ``memo`` keeps the cumulants of this functional."""
    if args in memo:
        return memo[args]
    k = len(args)
    val = moment(args)
    for block, gaps in first_block_splits(k, range(1, k)):
        if len(block) == k:
            continue
        term = cumulant_by_splits(moment, tuple(args[e] for e in block), memo)
        for a, b in gaps:
            if term == 0:
                break
            term = term * moment(args[a:b])
        val -= term
    memo[args] = val
    return val


def moment_from_cumulants(cf, args):
    """Forward sum over NC(k) of ``cf``'s cumulant products: reproduces the
    moment that ``cf`` was built from (round-trip check)."""
    args = tuple(args)
    if not args:
        return 1
    return sum(cf.kappa_pi(pi, args) for pi in enumerate_nc(len(args)))


class TupleLetterMoment:
    """The engine's first-block recursion over free letters ``(color id,
    elem)`` as plain tuples, with Python's own operators mixing the number
    types. It reads a ``FreeMomentEngine``'s free letters and cumulant tables
    only; ``mixed`` records whether a Fraction ever met a float."""

    def __init__(self, engine):
        self.engine = engine
        self.memo = {}
        self.mixed = False

    def __call__(self, letters):
        return self._moment(self.engine._free_letters(letters))

    def _moment(self, letters):
        if not letters:
            return 1
        hit = self.memo.get(letters)
        if hit is not None:
            return hit
        color0 = letters[0][0]
        positions = [p for p in range(1, len(letters)) if letters[p][0] == color0]
        table = self.engine._tables[color0]
        total = 0
        for block, gaps in first_block_splits(len(letters), positions):
            prod = table.kappa(tuple(letters[p][1] for p in block))
            for a, b in gaps:
                if prod == 0:
                    break
                m = self._moment(letters[a:b])
                self._note(prod, m)
                prod = prod * m
            if prod != 0:
                self._note(total, prod)
                total = total + prod
        self.memo[letters] = total
        return total

    def _note(self, a, b):
        if {type(a), type(b)} == {Fraction, float}:
            self.mixed = True


def rate_s_integrand(tau, P, s):
    """sum_k ||E(Pi^s(D_s^(k) P))||^2, the s-integrand of the rate
    integrand's quadratic term, taken as 0 from the largest word time on."""
    if s >= P.max_time():
        return 0.0
    total = 0.0
    for k in range(1, tau.n + 1):
        E = NCPolynomial(
            (w2, c2 * c)
            for w, c in P.terms.items()
            for w2, c2 in conditional_expectation_prop81(w, k, s, tau).terms.items()
        )
        total += tau.norm2_squared(E)
    return total


def trapezoid_quadratic(tau, P, t, panels, memo):
    """(1/2) int_0^t of ``rate_s_integrand`` by the trapezoid rule with
    ``panels`` panels on each interval between 0, t and the word times below
    t. It evaluates the endpoints, where the integrand jumps, so its error is
    first order in the panel width. ``memo`` keeps the integrand by node."""
    kinks = sorted({Fraction(0), t} | {sym.t for w in P.terms for sym in w.letters if 0 < sym.t < t})
    total = 0.0
    for a, b in zip(kinks, kinks[1:]):
        ys = []
        for q in range(panels + 1):
            s = a + (b - a) * Fraction(q, panels)
            if s not in memo:
                memo[s] = rate_s_integrand(tau, P, s)
            ys.append(memo[s])
        total += float(b - a) / panels * (sum(ys) - (ys[0] + ys[-1]) / 2)
    return 0.5 * total


class TensorPolynomial:
    """Finite map (Word, Word) -> coefficient; target of the liberation
    derivation.

    Built like ``NCPolynomial``, from a mapping or from (pair, coefficient)
    pairs.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        pairs = ((pair, complex(c)) for pair, c in _pairs(terms))
        object.__setattr__(self, "terms", _collect(pairs))

    def __setattr__(self, *_):
        raise AttributeError("TensorPolynomial is immutable")

    def __eq__(self, other):
        return isinstance(other, TensorPolynomial) and self.terms == other.terms

    def __add__(self, other):
        return TensorPolynomial(itertools.chain(self.terms.items(), other.terms.items()))


def liberation_derivation(p, k, s):
    """delta_s^(k), extended to polynomials by linearity and Leibniz: the raw
    terms of ``ncalg.cyclic_derivative`` kept as tensors, not rotated."""
    return TensorPolynomial(((Word(a), Word(b)), c) for a, b, c in _derivation_terms(p, k, s))


def parse_polynomial(text):
    """The inverse of ``ncalg.format_polynomial``."""
    return NCPolynomial(_parse_term(raw.strip()) for raw in _split_terms(text) if raw.strip())


def _parse_term(raw):
    if "*X[" in raw or "*V" in raw:
        coeff_txt, word_txt = raw.split("*", 1)
        return parse_word(word_txt), complex(coeff_txt)
    if raw.startswith(("X[", "V[", "V*[")):
        return parse_word(raw), 1.0
    return EMPTY_WORD, complex(raw)


def _split_terms(text):
    # split on '+' at depth 0 (outside brackets/parens)
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "+" and depth == 0:
            yield "".join(cur)
            cur = []
        else:
            cur.append(ch)
    yield "".join(cur)
