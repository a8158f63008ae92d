"""Symmetric chain decomposition of the cube by 1-0 pair marking.

This is the classical De Bruijn-Tengbergen-Kruyswijk partition.  Repeatedly
pick an adjacent pair "10" (adjacent in the string with already-marked
symbols deleted) and mark both symbols; stop when the unmarked residue has
the shape 0...01...1.  The marked positions keep their bits, the unmarked
ones become gaps, and the resulting signature names the chain: the chain is
exactly the set of points obtained by filling the gaps with every pattern
0^a 1^b.

The marking is order-independent: viewing 1 as an opening and 0 as a closing
parenthesis, the marked positions are the maximal matched subsequence, which
a single left-to-right stack pass computes.  The seeded variant,
signature(x, n, order_seed), picks eligible pairs in random order and exists
to let the checks demonstrate that the result does not depend on the order.

A chain is its Signature: signature(x, n) names the chain of the packed
point x, enumerate_partition yields every chain, and element_bits_all()
lists a chain's points as packed ints, ascending by weight.

Arrays of points are marked one bit plane at a time (mark_masks) and their
chains' points filled in gap by gap (chain_elements).  Every point of a cube
at once is cheaper: the stack pass appends one top bit at a time, so
chain_layout derives the marking of all 2^m points by prefix doubling, in
O(2^m) word operations, and lays every chain out as one run of an array.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Iterator

import numpy as np

from .cube_core import (EDGE_SCAN_MAX_N, PARTITION_MAX_N, TABLE_MAX_N, check_n, format_bits,
                        slices)

GAP = "_"

_EDGE_BLOCK = 2048  # edges per block of the edge scan
# Tails per step of chain_layout's passes; steps of 2^16 raise analyze's
# peak RSS at n = 19 from 35.0 to 35.7 MB.
_LAYOUT_SLICE = 1 << 14


def _mark_mask(bits: int, n: int) -> int:
    """Mask of marked positions (0-based), single stack pass."""
    mask = 0
    stack: list[int] = []
    for i in range(n):
        if (bits >> i) & 1:
            stack.append(i)
        elif stack:
            mask |= (1 << stack.pop()) | (1 << i)
    return mask


def mark_masks(xs: np.ndarray, n: int) -> np.ndarray:
    """_mark_mask of every entry of a uint64 array, one bit-plane at a time:
    with 1 opening and 0 closing, a 0 is marked iff the running balance
    before it exceeds the running minimum so far (an unmatched 1 is open),
    and a 1 iff the same holds right to left with the roles swapped.
    Balances stay within +-n, so int8 state suffices."""
    masks = np.zeros_like(xs)
    for positions, one_opens in ((range(n), True), (range(n - 1, -1, -1), False)):
        balance = np.zeros(xs.shape, dtype=np.int8)
        low = np.zeros(xs.shape, dtype=np.int8)
        for i in positions:
            bit = np.uint64(1 << i)
            opens = ((xs & bit) != 0) == one_opens
            np.bitwise_or(masks, bit, out=masks, where=~opens & (balance > low))
            balance += opens.view(np.int8) * np.int8(2) - np.int8(1)
            np.minimum(low, balance, out=low)
    return masks


def chain_elements(xs: np.ndarray, masks: np.ndarray, levels: np.ndarray,
                   n: int) -> np.ndarray:
    """Signature.element_bits(level) on the chain of each x, whose marking is
    given: the marked bits stay and a pass from the high end fills the top
    level - k gaps, k being the chain's minimum level."""
    out = xs & masks
    left = (np.asarray(levels) - np.bitwise_count(masks) // 2).astype(np.int8)
    for i in range(n - 1, -1, -1):
        bit = np.uint64(1 << i)
        fill = ((masks & bit) == 0) & (left > 0)
        np.bitwise_or(out, bit, out=out, where=fill)
        left -= fill.view(np.int8)
    return out


def _double_masks(m: int) -> np.ndarray:
    """_mark_mask of every m-bit tail, uint32, by prefix doubling: the masks
    of the (b+1)-bit tails follow from those of the b-bit ones, because bit b
    is the last symbol of the stack pass.  A top 1 stays open, so the mask is
    unchanged; a top 0 closes the highest open 1 below it, the high bit of
    t & ~mask (np.frexp reads it exactly from a float32 below 2^24)."""
    masks = np.zeros(1 << m, dtype=np.uint32)
    for b in range(m):
        masks[1 << b:2 << b] = masks[:1 << b]
        for lo, hi in slices(1 << b, _LAYOUT_SLICE):
            low = masks[lo:hi]
            _, exp = np.frexp((np.arange(lo, hi, dtype=np.uint32) & ~low).astype(np.float32))
            high = (np.uint32(1) << exp.astype(np.uint32)) >> np.uint32(1)  # 0: none open
            low |= high | (high != 0) * np.uint32(1 << b)
    return masks


def chain_layout(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every chain of the m-cube, laid out one after another: (order, start).

    order (uint32, 2^m entries) lists the points chain by chain, the chains
    ascending by their bottom point and each one ascending by level.
    start[t] (uint32) is the offset in order of the chain of t, with the
    chain's minimum level k packed above bit 24, so the point at level L on
    the chain of t is order[(start[t] & 0xFFFFFF) + L - (start[t] >> 24)].
    The two arrays are the only ones that grow with 2^m; order reuses the
    buffer of the masks.
    """
    check_n(m, TABLE_MAX_N - 1, low=0, what="m")
    masks = _double_masks(m)
    # a chain's bottom point has no open 1; its run in order has m + 1 - 2k points
    start = np.empty_like(masks)
    for lo, hi in slices(start.size, _LAYOUT_SLICE):
        t = np.arange(lo, hi, dtype=np.uint32)
        mk = masks[lo:hi]
        start[lo:hi] = np.where(t & ~mk == 0, np.uint32(m + 1) - np.bitwise_count(mk), 0)
    np.cumsum(start, dtype=np.uint32, out=start)
    # the chain of t is the one of its bottom t & mask <= t, so high slices
    # read the cumulative sums before they are overwritten; indices are intp,
    # numpy's fast path for gathers and scatters
    for lo, hi in reversed(list(slices(start.size, _LAYOUT_SLICE))):
        mk = masks[lo:hi]
        twice_k = np.bitwise_count(mk).astype(np.uint32)
        bottom = np.arange(lo, hi, dtype=np.intp) & mk
        start[lo:hi] = (start[bottom] - (np.uint32(m + 1) - twice_k)) | (twice_k << np.uint32(23))
    order = masks
    for lo, hi in slices(start.size, _LAYOUT_SLICE):
        t = np.arange(lo, hi, dtype=np.uint32)
        s = start[lo:hi]
        at = (s & np.uint32(0xFFFFFF)) + np.bitwise_count(t) - (s >> np.uint32(24))
        order[at.astype(np.intp)] = t
    return order, start


def _mark_mask_seeded(bits: int, n: int, seed: int) -> int:
    """Mark by repeatedly choosing a random eligible adjacent 1,0 pair."""
    rng = random.Random(seed)
    alive = list(range(n))
    mask = 0
    while True:
        pairs = [
            t for t in range(len(alive) - 1)
            if (bits >> alive[t]) & 1 and not (bits >> alive[t + 1]) & 1
        ]
        if not pairs:
            return mask
        t = rng.choice(pairs)
        mask |= (1 << alive[t]) | (1 << alive[t + 1])
        del alive[t:t + 2]


@dataclass(frozen=True)
class Signature:
    """Chain identifier: marked bits plus a mask saying which positions are gaps.

    ``bits`` holds the values of the marked positions (zero elsewhere) and
    ``mask`` the marked positions themselves; positions outside ``mask`` are
    gaps.  The chain spans weights k .. n-k, where 2k positions are marked.
    """

    bits: int
    mask: int
    n: int

    def __post_init__(self) -> None:
        if self.bits & ~self.mask:
            raise ValueError("signature bits outside the marked mask")
        if self.mask >> self.n:
            raise ValueError("marked mask wider than the dimension")
        if self.mask.bit_count() % 2:
            raise ValueError("marked positions must pair up")

    @property
    def k(self) -> int:
        """Minimum weight on the chain."""
        return self.mask.bit_count() // 2

    @property
    def text(self) -> str:
        return "".join(
            ("1" if (self.bits >> i) & 1 else "0") if (self.mask >> i) & 1 else GAP
            for i in range(self.n)
        )

    def gap_positions(self) -> tuple[int, ...]:
        """0-based gap positions, ascending."""
        return tuple(i for i in range(self.n) if not (self.mask >> i) & 1)

    def element_bits(self, j: int) -> int:
        """The unique chain point of weight j, as packed bits."""
        k = self.k
        if not k <= j <= self.n - k:
            raise ValueError(f"level {j} outside chain range {k}..{self.n - k}")
        gaps = self.gap_positions()
        out = self.bits
        for pos in gaps[len(gaps) - (j - k):] if j > k else ():
            out |= 1 << pos
        return out

    def element_bits_all(self) -> tuple[int, ...]:
        """All chain points ascending by weight."""
        gaps = self.gap_positions()
        out = [self.bits]
        acc = self.bits
        for pos in reversed(gaps):
            acc |= 1 << pos
            out.append(acc)
        return tuple(out)

    def __str__(self) -> str:
        return self.text


def signature(x: int, n: int, order_seed: int | None = None) -> Signature:
    """The signature of the chain of the n-cube point x; a seed randomizes
    the pair-picking order."""
    if order_seed is None:
        mask = _mark_mask(x, n)
    else:
        mask = _mark_mask_seeded(x, n, order_seed)
    return Signature(x & mask, mask, n)


def signature_distance(x: int, y: int, n: int) -> int:
    """Hamming distance of the signatures of two n-cube points over the
    3-letter alphabet."""
    mx = _mark_mask(x, n)
    my = _mark_mask(y, n)
    return ((mx ^ my) | (mx & my & (x ^ y))).bit_count()


def enumerate_partition(n: int) -> Iterator[Signature]:
    """The signatures of all chains of the n-cube, streamed in ASCII order
    of their text.

    Signatures are generated directly: scanning left to right with 1 as an
    opening and 0 as a closing parenthesis, a gap is allowed only where the
    running balance is zero, closing needs positive balance, and opening
    needs room to close later.  Exactly the signatures that the marking
    gives some point survive, so each point of the cube lands in exactly
    one emitted chain.
    """
    check_n(n, PARTITION_MAX_N)

    def rec(pos: int, balance: int, bits: int, mask: int) -> Iterator[Signature]:
        if pos == n:
            if balance == 0:
                yield Signature(bits, mask, n)
            return
        if balance > 0:
            yield from rec(pos + 1, balance - 1, bits, mask | (1 << pos))
        if balance + 1 <= n - pos - 1:
            p = 1 << pos
            yield from rec(pos + 1, balance + 1, bits | p, mask | p)
        if balance == 0:
            yield from rec(pos + 1, 0, bits, mask)

    yield from rec(0, 0, 0, 0)


def chain_count(n: int) -> int:
    """Number of chains in the partition = C(n, floor(n/2))."""
    return comb(n, n // 2)


@dataclass(frozen=True)
class EdgeScanResult:
    """Worst cases over all cube edges of the chain-distance quantities."""

    n: int
    edges: int
    max_signature_distance: int
    max_level_gap: int
    max_cross_excess: int
    max_hausdorff: int


def _scan_edges(n: int, xs: np.ndarray, bit: int, masks: np.ndarray, ks: np.ndarray,
                elements: np.ndarray) -> tuple[int, int, int, int]:
    """adjacent_chain_scan's four maxima over the edges (x, x | bit), x in xs:
    one level of x's chain against every level of y's per array pass."""
    ys = xs | bit
    mx, my = masks[xs], masks[ys]
    sd = np.bitwise_count((mx ^ my) | (mx & my & np.uint64(bit)))
    gap = np.abs(ks[xs].astype(np.int8) - ks[ys])
    levels = np.arange(n + 1)
    on_y = (ks[ys] <= levels[:, None]) & (levels[:, None] <= n - ks[ys])
    ey = elements[:, ys]
    far = np.uint8(n + 1)
    mins_y = np.full(ey.shape, far)
    max_excess = max_haus = 0
    for j in range(n + 1):
        on_x = (ks[xs] <= j) & (j <= n - ks[xs])
        d = np.bitwise_count(elements[j, xs] ^ ey)
        excess = d.astype(np.int8) - np.abs(j - levels).astype(np.int8)[:, None]
        max_excess = max(max_excess, int(excess.max(initial=0, where=on_y & on_x)))
        d[~on_y] = far
        max_haus = max(max_haus, int(d.min(axis=0).max(initial=0, where=on_x)))
        np.minimum(mins_y, d, out=mins_y, where=on_x)
    max_haus = max(max_haus, int(mins_y.max(initial=0, where=on_y)))
    return int(sd.max(initial=0)), int(gap.max(initial=0)), max_excess, max_haus


def adjacent_chain_scan(n: int) -> EdgeScanResult:
    """Exhaustively compare the chains of every adjacent pair of points.

    For each edge (x, y) this records the signature distance, the gap
    |k - k'| between chain minimum levels, the worst excess of
    dist(c_j, c'_j') over |j - j'| across all element pairs, and the
    Hausdorff distance between the two chains.  The edges of one direction
    are scanned a block at a time.
    """
    check_n(n, EDGE_SCAN_MAX_N, low=0)
    size = 1 << n
    points = np.arange(size, dtype=np.uint64)
    masks = mark_masks(points, n)
    ks = np.bitwise_count(masks) // 2
    # elements[j] is the level-j element of each point's chain; a level
    # outside k..n-k is not on the chain and is masked out
    elements = np.empty((n + 1, size), dtype=np.uint16)
    for j in range(n + 1):
        elements[j] = chain_elements(points, masks, j, n)
    del points
    worst = (0, 0, 0, 0)
    edges = 0
    for b in range(n):
        for lo in range(0, size // 2, _EDGE_BLOCK):
            # the points with bit b clear, numbered lo, lo + 1, ...
            t = np.arange(lo, min(lo + _EDGE_BLOCK, size // 2))
            xs = ((t >> b) << (b + 1)) | (t & ((1 << b) - 1))
            edges += xs.size
            worst = tuple(map(max, worst, _scan_edges(n, xs, 1 << b, masks, ks, elements)))
    return EdgeScanResult(n, edges, *worst)


def partition_covers_cube(n: int) -> tuple[int, int]:
    """(chains, points) if the partition tiles the cube exactly; raises otherwise."""
    check_n(n, PARTITION_MAX_N)  # enumerate_partition checks only once iterated
    size = 1 << n
    seen = bytearray(size)
    chains = points = 0
    for sig in enumerate_partition(n):
        chains += 1
        prev = None
        for j, bits in enumerate(sig.element_bits_all(), start=sig.k):
            if seen[bits]:
                raise AssertionError(f"point {format_bits(bits, n)} covered twice")
            seen[bits] = 1
            points += 1
            if bits.bit_count() != j:
                raise AssertionError("chain element weight differs from its level")
            if prev is not None and (prev ^ bits).bit_count() != 1:
                raise AssertionError("consecutive chain elements are not adjacent")
            prev = bits
    if points != size:
        raise AssertionError(f"partition covered {points} of {size} points")
    return chains, points
