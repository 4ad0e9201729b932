"""Non-crossing partition combinatorics.

Provides enumeration of NC(n) and the Kreweras complement (used by the
Prop 8.1 expansion), and the moment-cumulant relation between joint moments
and free cumulants, computed by the first-block recursion over subsets.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import SizeLimit

NC_ENUM_CAP = 14


class NonCrossingPartition:
    """A partition of {1..n} stored as disjoint sorted blocks, ordered by
    minimum, with no a<b<c<d such that {a,c} and {b,d} split across two
    blocks."""

    __slots__ = ("blocks", "n")

    def __init__(self, blocks, n=None):
        blocks = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        elems = [e for b in blocks for e in b]
        if len(set(elems)) != len(elems):
            raise ValueError("blocks are not disjoint")
        if n is None:
            n = len(elems)
        if sorted(elems) != list(range(1, n + 1)):
            raise ValueError("blocks do not cover {1..%d}" % n)
        if not _is_noncrossing(blocks):
            raise ValueError("partition is crossing: %r" % (blocks,))
        self.blocks = blocks
        self.n = n

    def __eq__(self, other):
        return isinstance(other, NonCrossingPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __repr__(self):
        return "{" + "|".join(",".join(str(e) for e in b) for b in self.blocks) + "}"


def _is_noncrossing(blocks):
    # Stack check over positions 1..n: opening a block pushes it, elements must
    # only extend the top-of-stack block.
    n = sum(len(b) for b in blocks)
    owner = {}
    for b in blocks:
        for e in b:
            owner[e] = b
    stack = []
    for p in range(1, n + 1):
        b = owner[p]
        if stack and stack[-1][0] is b:
            stack[-1][1] += 1
            if stack[-1][1] == len(b):
                stack.pop()
        else:
            if any(s[0] is b for s in stack):
                return False
            if len(b) > 1:
                stack.append([b, 1])
    return True


def _nc_blocks(points):
    """Yield the block lists of all NC partitions of the sorted tuple `points`."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    # The block containing `first` is first + an increasing subsequence of rest;
    # the gaps between consecutive block elements are partitioned independently.
    for blocks in _first_block_choices((first,), rest):
        yield blocks


def _first_block_choices(block_so_far, remaining):
    # Close the block here: partition everything remaining on its own.
    for tail in _nc_blocks(remaining):
        yield [list(block_so_far)] + tail
    # Or extend the block with remaining[idx]; points before idx form a gap
    # that must be partitioned among themselves.
    for idx in range(len(remaining)):
        gap, nxt = remaining[:idx], remaining[idx:]
        for gap_blocks in _nc_blocks(gap):
            for blocks in _first_block_choices(block_so_far + (nxt[0],), nxt[1:]):
                yield blocks[:1] + gap_blocks + blocks[1:]


def iter_nc(n: int):
    """Iterate over NC(n) without materializing the whole list."""
    if n < 1 or n > NC_ENUM_CAP:
        raise SizeLimit("NC enumeration supports 1 <= n <= %d, got %d" % (NC_ENUM_CAP, n))
    for blocks in _nc_blocks(tuple(range(1, n + 1))):
        yield NonCrossingPartition(blocks, n)


@lru_cache(maxsize=None)
def enumerate_nc(n: int):
    """All non-crossing partitions of {1..n} (Catalan(n) of them), as a
    tuple enumerated once per n."""
    return tuple(iter_nc(n))


def catalan(n: int) -> int:
    from math import comb

    return comb(2 * n, n) // (n + 1)


def kreweras(pi: NonCrossingPartition) -> NonCrossingPartition:
    """Kreweras complement.

    Uses the permutation picture: a non-crossing partition corresponds to the
    permutation whose cycles are its blocks traversed in increasing order; the
    complement corresponds to sigma_pi^{-1} composed with the full cycle
    (1 2 ... n).
    """
    n = pi.n
    perm = {}
    for b in pi.blocks:
        for a, bnext in zip(b, b[1:] + b[:1]):
            perm[a] = bnext
    inv = {v: k for k, v in perm.items()}
    comp = {i: inv[i % n + 1] for i in range(1, n + 1)}
    blocks = []
    seen = set()
    for start in range(1, n + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = comp[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = comp[cur]
        blocks.append(cyc)
    return NonCrossingPartition(blocks, n)


class CumulantFunctional:
    """Joint free cumulants of a moment functional, by the first-block
    recursion ``kappa(a) = m(a) - sum_{block != all} kappa(a_block) prod m(gaps)``.

    ``moment`` maps a tuple of argument ids to a number (the trace of the
    product in the given order); it need not be tracial. Moments and
    cumulants are memoized per argument tuple; ``kappa_pi`` is multiplicative
    over blocks.

    The first block of a split of ``a_1..a_k`` is position 1 with a subset
    of the positions ``2..k``; the gaps between its elements and after the
    last one are intervals of ``a`` (Nica-Speicher, Lecture 11). ``kappa``
    subtracts the proper splits in one order: by the size of that subset,
    ``0..k-2``, and within one size in ``itertools.combinations`` order,
    the order in which the moment engine walks its splits too.
    """

    def __init__(self, moment):
        self._moment_fn = moment
        self._moments = {}
        self._cache = {}

    def _moment(self, args):
        hit = self._moments.get(args)
        if hit is None:
            hit = self._moments[args] = self._moment_fn(args)
        return hit

    def kappa(self, args):
        args = tuple(args)
        if not args:
            return 1
        cache = self._cache
        hit = cache.get(args)
        if hit is not None:
            return hit
        val = self._moment(args)
        first, k = args[0], len(args)
        width = k + 1
        gaps = [None] * (width * width)  # moment of args[lo:hi] at lo * width + hi
        for r in range(k - 1):
            for chosen in combinations(range(1, k), r):
                sub = (first, *[args[p] for p in chosen])
                term = cache.get(sub)
                if term is None:
                    term = self.kappa(sub)
                lo = 1
                for hi in chosen + (k,):
                    if hi > lo:
                        if term == 0:
                            break
                        at = lo * width + hi
                        m = gaps[at]
                        if m is None:
                            m = gaps[at] = self._moment(args[lo:hi])
                        term = term * m
                    lo = hi + 1
                val -= term
        cache[args] = val
        return val

    def kappa_pi(self, pi, args):
        args = tuple(args)
        out = 1
        for b in pi.blocks:
            out *= self.kappa(tuple(args[e - 1] for e in b))
        return out


def scalar_cumulants(moments, n: int):
    """Free cumulants kappa_1..kappa_n of a single variable.

    `moments` is a sequence [m_1, m_2, ..., m_n]; returns a dict {k: kappa_k}.
    """
    seq = list(moments)

    def moment(args):
        return seq[len(args) - 1]

    cf = CumulantFunctional(moment)
    return {k: cf.kappa(("a",) * k) for k in range(1, n + 1)}
