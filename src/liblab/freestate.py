"""Exact large-N trace oracles.

The central device is a moment engine for families of mutually free "colors".
Each word is first written over free colors: a unitary Brownian motion letter
u(t_q) becomes the motion's left increments g_q ... g_1 over the word's own
times for that motion, which are free from each other and from everything
else (Biane 1997). The word is then evaluated by the non-crossing cumulant
sum restricted to color-homogeneous partitions (mixed free cumulants vanish),
run as the first-block recursion over the intervals of each word: the
subsets of the first block's other positions go by size and, within one
size, in ``itertools.combinations`` order. Joint cumulants come from the same
recursion, inverted, in the same order, with one table per law:

- a component of the initial law gives exact rational joint moments;
- an increment over an interval of length dt collapses words in g, g* to a
  power g^k by unitarity, whose moment is Biane's closed form at dt,
  computed once per order for each law.

On top of the engine sit the oracle states sigma0^fr (free product, constant
in time) and sigma0^lib (liberation process), their free-BM extensions
tau-tilde, and the conditional-expectation expansion in terms of free
cumulants and the Kreweras complement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import ncalg
from .errors import DegreeOverflow, SizeLimit, UnsupportedState, UnsupportedWord
from .ncalg import NCPolynomial, Vs, VsStar, Word, Xs
from .ncpart import CumulantFunctional, enumerate_nc, kreweras

WORD_LENGTH_CAP = 40


# ---------------------------------------------------------------------------
# Free unitary Brownian motion moments (Biane's closed form)


def free_ubm_moment(n: int, t) -> float:
    """n-th moment of one free unitary Brownian motion at time t:
    e^{-nt/2} sum_{k<n} (-t)^k/k! n^{k-1} C(n, k+1) (Biane 1997).

    The alternating polynomial cancels catastrophically in floats for large
    n, so it is summed exactly in rationals at the binary value of
    ``float(t)`` (a Fraction time such as 1/3 is rounded to a float first).
    """
    if n < 0:
        raise ValueError("moment order must be >= 0")
    t = float(t)
    if t < 0:
        raise ValueError("time must be >= 0")
    if n == 0:
        return 1.0
    x = Fraction(t)
    poly = sum(
        (-x) ** k / math.factorial(k) * Fraction(n) ** (k - 1) * math.comb(n, k + 1)
        for k in range(n)
    )
    return float(poly) * math.exp(-n * t / 2)


# ---------------------------------------------------------------------------
# Initial laws


class AtomicComponent:
    """One freely-independent component of the initial law, with finite joint
    spectrum: atoms are value tuples over the component's generator ids."""

    def __init__(self, ids, atoms, weights):
        self.ids = tuple(tuple(g) for g in ids)
        self.atoms = [tuple(Fraction(v) if not isinstance(v, float) else v for v in a) for a in atoms]
        self.weights = [Fraction(w) if not isinstance(w, float) else w for w in weights]
        if any(len(a) != len(self.ids) for a in self.atoms):
            raise ValueError("atom arity must match generator count")
        if sum(self.weights) != 1:
            raise ValueError("weights must sum to 1")
        self._pos = {g: idx for idx, g in enumerate(self.ids)}

    def joint_moment(self, id_seq):
        total = 0
        for atom, w in zip(self.atoms, self.weights):
            prod = w
            for g in id_seq:
                prod = prod * atom[self._pos[g]]
            total = total + prod
        return total

    def mean(self, gid):
        return self.joint_moment((gid,))

    def centered_norm(self, gid):
        """Sup-norm of the centered generator (atomic law)."""
        mu = self.mean(gid)
        return max(abs(a[self._pos[gid]] - mu) for a in self.atoms)


class MarginalLaw:
    """Law of the generators attached to one algebra index i: finitely many
    atoms (a value, or a value tuple over the generators (i, 1), (i, 2), ...)
    with their weights."""

    def __init__(self, label, atoms, weights):
        self.label = label
        vec_atoms = [a if isinstance(a, (tuple, list)) else (a,) for a in atoms]
        ids = [(label, j + 1) for j in range(len(vec_atoms[0]))]
        self.component = AtomicComponent(ids, vec_atoms, weights)


class InitialLaw:
    """sigma0: a tracial state on the time-zero generators, presented as a
    free product of components (a single component may correlate generators
    across different algebra indices)."""

    def __init__(self, components):
        self.components = list(components)
        self._comp_of = {}
        for idx, comp in enumerate(self.components):
            for gid in comp.ids:
                if gid in self._comp_of:
                    raise ValueError("generator %r in two components" % (gid,))
                self._comp_of[gid] = idx

    @classmethod
    def free_product(cls, marginals):
        return cls([m.component for m in marginals])

    def component_index(self, gid):
        try:
            return self._comp_of[tuple(gid)]
        except KeyError:
            raise UnsupportedWord(
                "generator x_{%s} is not in the initial law" % ",".join(map(str, gid))
            ) from None

    def component(self, gid):
        return self.components[self.component_index(gid)]


# ---------------------------------------------------------------------------
# The free-family moment engine


class FreeMomentEngine:
    """Moment evaluator for a family of mutually free colors.

    ``moment`` takes letters ``(color, elem)``:

    - ``('x', comp_idx)``: component of the initial law; elem is a generator id
    - ``('xr', i)``: row i of the initial law, freed from the other rows; elem
      is a generator id of that row
    - ``('u', i)`` / ``('v', i)``: unitary BM motion; elem is ``(time, +-1)``

    Each word is first written over mutually free colors. With
    0 = t_0 < t_1 < ... a motion's distinct times in the word,
    ``u(t_q) = g_q ... g_1`` with ``g_r`` its increment over
    ``[t_{r-1}, t_r]``; adjacent ``g g*`` cancel. Each row of a component of
    the initial law under ``'xr'`` is a color of its own.

    Cumulant tables are kept per law: one per component of the initial law,
    and one per increment length, shared by every motion. An increment's
    law computes Biane's moment once per order. No table refers back to the
    engine, so a dropped state frees its memos at once.

    ``moment`` gives each free letter ``(color id, elem)`` a small integer
    code the first time it meets it, and the memo runs over tuples of codes.
    Every gap of a first-block split is a contiguous interval of the word,
    so the recursion runs over the intervals of each word it is given: it
    reads their moments from a flat table by position, checks the state
    memo once per interval, and reads a law's cumulant memo before it calls
    ``kappa``. Each ``TraceState`` keeps the value of every ``Word`` it
    evaluated, so a repeated word is expanded once per state. Every memo,
    and every table of first-block splits, goes with its state.
    """

    def __init__(self, sigma0: InitialLaw | None):
        self.sigma0 = sigma0
        self._moment_memo = {}  # word of letter codes -> moment
        self._color_ids = {}  # free variable -> color id
        self._tables = []  # color id -> CumulantFunctional of its law
        self._laws = {}  # law -> CumulantFunctional
        self._codes = {}  # free letter (color id, elem) -> letter code
        self._code_color = []  # letter code -> color id
        self._code_elem = []  # letter code -> elem

    # -- public ------------------------------------------------------------

    def moment(self, letters) -> complex:
        codes = self._codes
        word = []
        for letter in self._free_letters(letters):
            code = codes.get(letter)
            if code is None:
                code = codes[letter] = len(self._code_color)
                self._code_color.append(letter[0])
                self._code_elem.append(letter[1])
            word.append(code)
        return self._moment(tuple(word)) if word else 1

    # -- engine ------------------------------------------------------------

    def _free_letters(self, letters):
        """The word as letters ``(color id, elem)`` over mutually free colors."""
        times = {}
        for color, elem in letters:
            if color[0] in ("u", "v"):
                times.setdefault(color, {0}).add(elem[0])
        increments = {}
        for color, ts in times.items():
            ts = sorted(ts)
            increments[color] = (ts, [self._increment(color, a, b) for a, b in zip(ts, ts[1:])])
        out = []
        for color, elem in letters:
            kind = color[0]
            if kind == "x":
                out.append((self._component(color, color[1]), elem))
            elif kind == "xr":
                comp = self.sigma0.component_index(elem)
                out.append((self._component(color + (comp,), comp), elem))
            elif kind in ("u", "v"):
                t, e = elem
                if e not in (1, -1):
                    raise UnsupportedWord("unitary letters carry exponent +-1")
                ts, gs = increments[color]
                gs = gs[: ts.index(t)]
                for g in reversed(gs) if e == 1 else gs:
                    if out and out[-1] == (g, -e):
                        out.pop()
                    else:
                        out.append((g, e))
            else:
                raise UnsupportedState("unknown color %r" % (color,))
        return tuple(out)

    def _component(self, key, comp):
        return self._color(key, ("x", comp), self.sigma0.components[comp].joint_moment)

    def _increment(self, motion, a, b):
        dt = float(b - a)
        biane = {}  # order n -> Biane's n-th moment at dt, for this law only

        def moment(exps):
            n = abs(sum(exps))
            m = biane.get(n)
            if m is None:
                m = biane[n] = free_ubm_moment(n, dt)
            return m

        return self._color((motion, a, b), ("g", dt), moment)

    def _color(self, key, law, moment):
        """Id of the free variable ``key``; ``moment`` gives its law's joint
        moments when the law is new."""
        cid = self._color_ids.get(key)
        if cid is None:
            table = self._laws.get(law)
            if table is None:
                table = self._laws[law] = CumulantFunctional(moment)
            cid = self._color_ids[key] = len(self._tables)
            self._tables.append(table)
        return cid

    def _moment(self, word):
        """Moment of a nonempty word of letter codes.

        Every gap of a split of an interval ``word[a:b]`` is again an
        interval ``word[lo:hi]``, so the recursion runs over the intervals of
        this one word: their colors and elems are read once, and each
        interval's moment is kept in the flat ``local`` table at
        ``lo * width + hi``, the float of a Fraction moment at
        ``hi * width + lo``."""
        color, elem = self._code_color, self._code_elem
        width = len(word) + 1
        cols = [color[c] for c in word]
        els = [elem[c] for c in word]
        return self._interval(word, cols, els, [None] * (width * width), width, 0, len(word))

    def _interval(self, word, cols, els, local, width, a, b):
        """Moment of ``word[a:b]``, from the state memo or by its first-block
        splits: subsets of the positions of the first letter's color by
        size, each size in ``combinations`` order, the order in which
        ``CumulantFunctional.kappa`` subtracts its splits.

        Exact laws stay exact. A Fraction that meets a float is turned into a
        float first, which gives the bytes of Fraction's own operator
        fallback, ``float(a) op float(b)``, without its dispatch."""
        memo = self._moment_memo
        sub = word[a:b]
        total = memo.get(sub)
        if total is not None:
            return total
        color0 = cols[a]
        positions = [p for p in range(a + 1, b) if cols[p] == color0]
        table = self._tables[color0]
        kappa, cumulants = table.kappa, table._cache
        first = els[a]
        for r in range(len(positions) + 1):
            for chosen in combinations(positions, r):
                args = (first, *[els[p] for p in chosen])
                prod = cumulants.get(args)
                if prod is None:
                    prod = kappa(args)
                lo = a + 1
                for hi in chosen + (b,):
                    if hi > lo:
                        if not prod:
                            break
                        at = lo * width + hi
                        m = local[at]
                        if m is None:
                            m = local[at] = self._interval(word, cols, els, local, width, lo, hi)
                        if type(prod) is float and type(m) is Fraction:
                            m = local[hi * width + lo]
                            if m is None:
                                m = local[hi * width + lo] = float(local[at])
                        elif type(prod) is Fraction and type(m) is float:
                            prod = float(prod)
                        prod = prod * m
                    lo = hi + 1
                if prod:
                    if total is None:  # the first nonzero term, as 0 + term would give
                        total = prod
                    elif type(total) is float and type(prod) is Fraction:
                        total = total + float(prod)
                    elif type(total) is Fraction and type(prod) is float:
                        total = float(total) + prod
                    else:
                        total = total + prod
        if total is None:
            total = 0
        memo[sub] = total
        return total


# ---------------------------------------------------------------------------
# Oracle trace states


class TraceState:
    """Common interface: tau on X-words (with times) plus the free-BM-extended
    tau-tilde on mixed X/V words."""

    def __init__(self, sigma0: InitialLaw, n_motions: int):
        self.sigma0 = sigma0
        self.n = n_motions
        self.engine = FreeMomentEngine(sigma0)
        self._words = {}  # Word -> tau-tilde of it

    # Subclasses define how one X letter expands into engine letters.
    def _x_letters(self, sym):
        raise NotImplementedError

    def _letters(self, word: Word):
        out = []
        for sym in word.letters:
            if sym.kind == ncalg.X:
                out.extend(self._x_letters(sym))
            else:
                if sym.i > self.n:
                    continue  # v_{n+1} := 1
                e = 1 if sym.kind == ncalg.V else -1
                if sym.t > 0:
                    out.append((("v", sym.i), (sym.t, e)))
        return tuple(out)

    def _word_moment(self, word: Word):
        hit = self._words.get(word)
        if hit is None:
            letters = self._letters(word)
            if len(letters) > WORD_LENGTH_CAP:
                raise DegreeOverflow(
                    "word of %d letters expands to %d engine letters, over the cap of %d"
                    % (len(word), len(letters), WORD_LENGTH_CAP)
                )
            hit = self._words[word] = self.engine.moment(letters)
        return hit

    def extended_moment(self, p) -> complex:
        """tau-tilde of a mixed X/V polynomial."""
        if isinstance(p, Word):
            return self._word_moment(p)
        total = 0
        for word, coeff in p.terms.items():
            total = total + coeff * self._word_moment(word)
        return total

    def moment(self, p) -> complex:
        """tau of an X-polynomial (also accepts mixed words: tau-tilde)."""
        return self.extended_moment(p)

    def time_shifted_moment(self, p, t) -> complex:
        """tau^t(P) = tau-tilde(Pi^t(P))."""
        if isinstance(p, Word):
            p = NCPolynomial.from_word(p)
        return self.extended_moment(ncalg.pi_s_substitution(p, t, self.n))

    def norm2_squared(self, p) -> float:
        """||p||_{tau-tilde,2}^2 = tau-tilde(p* p)."""
        val = self.extended_moment(p.adjoint() * p)
        return float(complex(val).real)


class FreeProductState(TraceState):
    """sigma0^fr as a constant trajectory: x_{ij}(t) = x_{ij} for all t, with
    the rows (algebra indices i) freely independent; each row keeps its
    sigma0 joint law.

    This is the T -> infinity limit of the liberation process, the free
    product of the row marginals of sigma0. The rows become freely
    independent in the limit even when sigma0 correlates them, so the state
    frees them."""

    def _x_letters(self, sym):
        gid = (sym.i, sym.j)
        return [(("xr", sym.i), gid)]


class LiberationState(TraceState):
    """sigma0^lib: x_{ij}(t) = u_i(t) x_{ij} u_i(t)^* with the motions u_i
    free from the initial algebra and from each other; rows i > n are fixed."""

    def _x_letters(self, sym):
        gid = (sym.i, sym.j)
        xcol = (("x", self.sigma0.component_index(gid)), gid)
        if sym.i > self.n or sym.t == 0:
            return [xcol]
        ucol = ("u", sym.i)
        return [(ucol, (sym.t, 1)), xcol, (ucol, (sym.t, -1))]


# ---------------------------------------------------------------------------
# Prop 8.1 conditional expectation


PROP81_LENGTH_CAP = 6


def conditional_expectation_prop81(word: Word, k: int, s, tau: TraceState) -> NCPolynomial:
    """Expansion of E_{N(tau)}(pi(Pi^s(D_s^(k) word))) as an X-polynomial.

    The coefficients are joint free cumulants kappa_pi[w_1..w_n] of the
    unitary words w_l = v_{i_{l-1}}((t_{l-1}-s)_+)^* v_{i_l}((t_l-s)_+)
    (cyclic convention i_0 = i_n, v index above n acts as 1), and the words
    come from the partitioned-moment combination C(tau; K(pi)) evaluated at
    the time-s letters, pushed through D_s^(k).
    """
    s = ncalg._as_time(s)
    letters = word.letters
    n = len(letters)
    if n > PROP81_LENGTH_CAP:
        raise SizeLimit("Prop 8.1 expansion capped at words of length %d" % PROP81_LENGTH_CAP)
    if not word.is_x_only():
        raise UnsupportedWord("Prop 8.1 applies to X-words")
    if n == 0:
        return NCPolynomial.zero()
    if not isinstance(tau, TraceState):
        raise UnsupportedState("tau must be an oracle TraceState")

    # each w_l as a word, so that its moments go through tau's word memo
    shifted = [max(sym.t - s, Fraction(0)) for sym in letters]
    w_letters = [
        (VsStar(letters[ell - 1].i, shifted[ell - 1]), Vs(letters[ell].i, shifted[ell]))
        for ell in range(n)
    ]

    def w_moment(args):
        return tau.extended_moment(Word(tuple(sym for w in args for sym in w)))

    cf = CumulantFunctional(w_moment)

    sub_letters = [Xs(sym.i, sym.j, min(s, sym.t)) for sym in letters]

    terms = []
    for pi in enumerate_nc(n):
        kap = cf.kappa_pi(pi, tuple(w_letters))
        if kap == 0:
            continue
        kp = kreweras(pi)
        # C(tau; K(pi)) at the time-s letters
        block_words = [Word(tuple(sub_letters[e - 1] for e in b)) for b in kp.blocks]
        block_traces = [tau.moment(bw) for bw in block_words]
        comb = NCPolynomial(
            (bw, math.prod(tr for o_idx, tr in enumerate(block_traces) if o_idx != b_idx))
            for b_idx, bw in enumerate(block_words)
        )
        kap = complex(kap)
        terms += ((w, c * kap) for w, c in ncalg.cyclic_derivative(comb, k, s).terms.items())
    return NCPolynomial(terms)


def lemma51_bound_check(sigma0: InitialLaw, entries, T):
    """Decay bound for alternating products of centered liberated elements.

    ``entries`` is a list of generator ids (i, j) with alternating motion
    indices i_k != i_{k+1}; each element is centered under sigma0. Returns
    (lhs, rhs) with

        lhs = |sigma0^lib( prod_k (X(i_k, j_k, T) - sigma0(x_{i_k j_k})) )|
        rhs = (2^{m-1} - 1) (sup_k ||x_k - tau(x_k)||)^m e^{-T/2}
    """
    m = len(entries)
    if m == 0:
        raise ValueError("need at least one entry")
    for a, b in zip(entries, entries[1:]):
        if a[0] == b[0]:
            raise ValueError("motion indices must alternate")
    n_motions = max(gid[0] for gid in entries)
    state = LiberationState(sigma0, n_motions)
    poly = NCPolynomial.scalar(1)
    norms = []
    for gid in entries:
        comp = sigma0.component(gid)
        mean = comp.mean(gid)
        norms.append(comp.centered_norm(gid))
        poly = poly * (NCPolynomial.from_word(Word((Xs(gid[0], gid[1], T),))) - complex(mean))
    lhs = abs(complex(state.moment(poly)))
    rhs = float((2 ** (m - 1) - 1) * max(norms) ** m) * float(np.exp(-float(T) / 2))
    return lhs, rhs
