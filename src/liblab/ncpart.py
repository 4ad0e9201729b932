"""Non-crossing partition combinatorics.

Provides enumeration of NC(n) and the Kreweras complement (used by the
Prop 8.1 expansion), and the moment-cumulant relation between joint moments
and free cumulants, computed by the first-block recursion over subsets.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

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


def first_block_splits(k: int, positions):
    """Split 0..k-1 by the block that holds position 0.

    For each subset S of ``positions`` (sorted, all > 0), yields the block
    ``(0,) + S`` and the nonempty ranges ``(a, b)`` (half-open) between
    consecutive block elements and after the last one. Every non-crossing
    partition of 0..k-1 whose first block is that block is the union of the
    block with non-crossing partitions of those ranges, which gives
    ``m(a) = sum over blocks of kappa(a_block) * prod of m(a[a:b])``
    (Nica-Speicher, Lecture 11). Subsets come in order of size.
    """
    positions = tuple(positions)
    for r in range(len(positions) + 1):
        for chosen in itertools.combinations(positions, r):
            block = (0,) + chosen
            ends = chosen + (k,)
            yield block, tuple((a + 1, b) for a, b in zip(block, ends) if b > a + 1)


class CumulantFunctional:
    """Joint free cumulants of a moment functional, by the first-block
    recursion ``kappa(a) = m(a) - sum_{block != all} kappa(a_block) prod m(gaps)``.

    ``moment`` maps a tuple of argument ids to a number (the trace of the
    product in the given order); it need not be tracial. Moments and
    cumulants are memoized per argument tuple; ``kappa_pi`` is multiplicative
    over blocks.

    The proper first-block splits of an argument of length ``k`` depend on
    ``k`` alone. Each functional keeps them in one table per length, built
    on first use, for ``k <= NC_ENUM_CAP`` (8,191 splits, about 3.3 MiB, at
    the cap); a longer argument walks ``first_block_splits`` again. The
    tables go with the functional, as its memos do.
    """

    def __init__(self, moment):
        self._moment_fn = moment
        self._moments = {}
        self._cache = {}
        self._splits = {}  # argument length -> its proper first-block splits

    def _moment(self, args):
        hit = self._moments.get(args)
        if hit is None:
            hit = self._moments[args] = self._moment_fn(args)
        return hit

    def _proper_splits(self, k):
        """``first_block_splits(k, range(1, k))`` in its order, without the
        full block, which comes last."""
        splits = self._splits.get(k)
        if splits is None:
            splits = itertools.islice(first_block_splits(k, range(1, k)), 2 ** (k - 1) - 1)
            if k <= NC_ENUM_CAP:
                splits = self._splits[k] = tuple(splits)
        return splits

    def kappa(self, args):
        args = tuple(args)
        if not args:
            return 1
        cache = self._cache
        hit = cache.get(args)
        if hit is not None:
            return hit
        val = self._moment(args)
        for block, gaps in self._proper_splits(len(args)):
            sub = tuple([args[e] for e in block])
            term = cache.get(sub)
            if term is None:
                term = self.kappa(sub)
            for a, b in gaps:
                if term == 0:
                    break
                term = term * self._moment(args[a:b])
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
