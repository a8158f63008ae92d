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

A chain is read two ways.  One point goes through the stack pass
(_mark_mask).  An array of points goes through chains_of: the marking is
parenthesis matching, so it composes chunk by chunk, and per-chunk tables
of 2^12 rows give each point's minimum level and its chain's point at any
level, for tails of up to 64 bits.  Chain-map tables and the edge scan read
their chains from chains_of too, the edge scan as one row of chain points
per level over the whole cube.  It scans one direction at a time, from the
rows of the edges' two ends alone, and per edge reads only the level pairs
that can set a maximum: for the cross excess one pair per level, and for
the Hausdorff distance the diagonals within _HAUSDORFF_BAND levels of each
other, with every pair read again only for a direction whose banded
maximum could hide a nearer point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Callable, Iterator

import numpy as np

from .cube_core import EDGE_SCAN_MAX_N, PARTITION_MAX_N, check_n, format_bits

GAP = "_"

# Level offsets |j' - j| the edge scan's Hausdorff pass reads before it
# falls back to every pair of levels.  Up to n = 16 every edge's Hausdorff
# distance is at most 3 = band + 1, so no direction falls back; a band of 3
# reads two more diagonals for nothing (0.07 against 0.06 CPU s for n <= 14).
_HAUSDORFF_BAND = 2
# Bits per chunk of chains_of: its tables take 2^12 * 13 uint16 entries,
# 106 KB, held for the life of the process.
_CHUNK = 12


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


def _high_bit(xs: np.ndarray) -> np.ndarray:
    """The highest set bit of each uint32 entry below 2^24, 0 for 0: np.frexp
    reads it exactly from a float32."""
    _, exp = np.frexp(xs.astype(np.float32))
    return (np.uint32(1) << exp.astype(np.uint32)) >> np.uint32(1)


def _double_masks(m: int) -> np.ndarray:
    """_mark_mask of every m-bit tail (m = _CHUNK, for the chunk tables),
    uint32, by prefix doubling: the masks of the (b+1)-bit tails follow from
    those of the b-bit ones, because bit b is the last symbol of the stack
    pass.  A top 1 stays open, so the mask is unchanged; a top 0 closes the
    highest open 1 below it, the high bit of t & ~mask (exact to m = 24)."""
    masks = np.zeros(1 << m, dtype=np.uint32)
    for b in range(m):
        masks[1 << b:2 << b] = masks[:1 << b]
        low = masks[:1 << b]
        high = _high_bit(np.arange(1 << b, dtype=np.uint32) & ~low)  # 0: none open
        low |= high | (high != 0) * np.uint32(1 << b)
    return masks


@cache
def _chunk_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of chains_of, for every _CHUNK-bit string v on its own:
    zeros[v] and ones[v] (int16), the sizes of its residue 0^a 1^b, and
    fill (uint16, flat, row v of _CHUNK + 1 entries), whose entry v, u is v's
    marked ones with its top u residue positions set."""
    size = 1 << _CHUNK
    v = np.arange(size, dtype=np.uint32)
    residue = ~_double_masks(_CHUNK) & np.uint32(size - 1)
    ones = np.bitwise_count(v & residue).astype(np.int16)
    zeros = np.bitwise_count(residue).astype(np.int16) - ones
    fill = np.empty((size, _CHUNK + 1), dtype=np.uint16)
    fill[:, 0] = v & ~residue
    for u in range(1, _CHUNK + 1):  # past the residue's size, u adds nothing
        fill[:, u] = fill[:, u - 1] | _high_bit(residue & ~fill[:, u - 1])
    tables = zeros, ones, fill.ravel()
    for t in tables:  # every caller shares them
        t.flags.writeable = False
    return tables


def chains_of(tails: np.ndarray, m: int) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The chains of m-bit tails (uint64 array, m <= 64): (k, climb).

    k (int16) is each chain's minimum level, and climb(steps) (uint64) the
    point steps levels above each chain's bottom, steps an int16 array.

    The tails are cut into chunks of _CHUNK bits, and the marking composes
    chunk by chunk.  Chunk c on its own leaves a residue of zeros[c] zeros
    below ones[c] ones.  Read from the low chunk up, its zeros close the
    open ones of the chunks below it, the highest first, so the stack of
    open ones falls to depth floor[c] and then rises by ones[c].  A chunk's
    ones below every later floor stay open; the others close, highest first,
    so they are the chunk's top residue positions.  A chain's point r
    levels above its bottom sets the top r of the positions left open: the
    open ones from the highest chunk down, then the unmatched zeros from
    the highest chunk down.  In each chunk that is a band of its residue
    just below the closed ones, so one gather from fill reads it.  The top
    chunk is padded with ones above the tail: they never close anything, so
    they are the first positions that r fills, and they are cut off at the
    end.
    """
    zeros_of, ones_of, fill = _chunk_tables()
    count = max(1, -(-m // _CHUNK))
    pad = count * _CHUNK - m
    shifts = np.arange(count, dtype=np.uint64)[:, None] * np.uint64(_CHUNK)
    v = ((tails >> shifts) & np.uint64((1 << _CHUNK) - 1)).astype(np.intp)
    v[-1] |= ((1 << pad) - 1) << (_CHUNK - pad)
    zeros, ones = zeros_of[v], ones_of[v]
    floor = np.empty_like(zeros)
    depth = 0
    for c in range(count):
        floor[c] = np.maximum(depth - zeros[c], 0)
        depth = floor[c] + ones[c]
    # open ones of chunk c: those above its floor that no later floor reaches.
    # Here and below the chunk rows are walked one at a time: numpy's
    # accumulations along axis 0 take about 30 times as long.
    still_open = ones.copy()
    later = floor[-1]
    for c in reversed(range(count - 1)):
        still_open[c] = np.minimum(np.maximum(later - floor[c], 0), ones[c])
        later = np.minimum(later, floor[c])
    # unmatched zeros of chunk c: those below the depth left by the chunks below
    unmatched = zeros + floor
    unmatched[1:] -= floor[:-1] + ones[:-1]
    closed = ones - still_open
    # the open ones and unmatched zeros of the chunks above each chunk
    ones_above = np.zeros_like(still_open)
    zeros_above = np.zeros_like(unmatched)
    for c in reversed(range(count - 1)):
        np.add(ones_above[c + 1], still_open[c + 1], out=ones_above[c])
        np.add(zeros_above[c + 1], unmatched[c + 1], out=zeros_above[c])
    open_total = ones_above[0] + still_open[0]
    row = v * (_CHUNK + 1) + closed
    k = np.bitwise_count(tails).astype(np.int16) + pad - open_total

    def climb(steps: np.ndarray) -> np.ndarray:
        r = steps.astype(np.int16) + pad
        band = (np.minimum(np.maximum(r - ones_above, 0), still_open)
                + np.minimum(np.maximum(r - open_total - zeros_above, 0), unmatched))
        points = fill[row + band].astype(np.uint64) << shifts
        return np.bitwise_or.reduce(points, axis=0) & np.uint64((1 << m) - 1)

    return k, climb


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


def _hausdorff(ex: np.ndarray, ey: np.ndarray, near_x: np.ndarray, near_y: np.ndarray,
               band: int) -> int:
    """The largest of each chain row's distance to the nearest row of the
    other chain, reading only the diagonals j' - j in -band..band.

    ex and ey are the elements rows of the edges' two ends; near_x and
    near_y start at n + 1 on each chain's own levels and at 0 elsewhere, so
    the clamped rows off a chain never count.  Every row pair read is a
    pair of chain points, so each minimum is at least the true one, and at
    most the minimum over the band.
    """
    rows = ex.shape[0]
    near_x, near_y = near_x.copy(), near_y.copy()
    for s in range(-min(band, rows - 1), min(band, rows - 1) + 1):
        on_x = slice(max(0, -s), rows - max(0, s))
        on_y = slice(max(0, s), rows - max(0, -s))
        d = np.bitwise_count(ex[on_x] ^ ey[on_y])
        np.minimum(near_x[on_x], d, out=near_x[on_x])
        np.minimum(near_y[on_y], d, out=near_y[on_y])
    return max(int(near_x.max(initial=0)), int(near_y.max(initial=0)))


def _scan_edges(n: int, ex: np.ndarray, ey: np.ndarray, bit: int) -> tuple[int, int, int, int]:
    """adjacent_chain_scan's four maxima over the edges whose two ends have
    the elements rows ex and ey (row j along axis 0), the ends y = x | bit.

    Every fact is read off the rows.  A row is its chain's point at level j
    clamped to the chain, so its popcount is the clamped level: row 0's is
    k, the rows on the chain are those whose popcount is j, and rows 0 and
    n, the chain's bottom and top, differ in exactly its unmarked positions,
    so ~(row 0 ^ row n) holds its marks (and the bits above n).

    Let c_j and c'_j' be the points at levels j and j' of the two chains.
    Then dist(c_j, c'_j') - |j - j'| is 2 * (min(j, j') - |c_j & c'_j'|),
    and the overlap never falls as either level rises, because each chain's
    points are nested.  So for min(j, j') = j the excess is largest at the
    lowest j' on y's chain, max(j, k'), and likewise with the ends swapped.
    Row j of the two ends holds exactly that pair for every j in
    min(k, k')..n - max(k, k'), a level below a chain reading its bottom.
    Every row pair is a pair of chain points c and c', whose excess is
    2 * (min(|c|, |c'|) - |c & c'|), so the largest of these over all rows
    is the cross excess and no row is masked.

    The Hausdorff distance reads the diagonals |j' - j| <= _HAUSDORFF_BAND.
    Since dist(c_j, c'_j') >= |j - j'|, a pair off the band is at least
    _HAUSDORFF_BAND + 1 apart, so the banded minima are exact whenever the
    maximum is at most that; otherwise the rows are read again at full
    width.
    """
    ex, ey = ex.reshape(n + 1, -1), ey.reshape(n + 1, -1)  # copies strided views
    mx, my = ~(ex[0] ^ ex[n]), ~(ey[0] ^ ey[n])
    sd = np.bitwise_count((mx ^ my) | (mx & my & np.uint16(bit)))
    wx, wy = np.bitwise_count(ex), np.bitwise_count(ey)
    gap = np.abs(wx[0].astype(np.int8) - wy[0].astype(np.int8))
    excess = np.minimum(wx, wy) - np.bitwise_count(ex & ey)  # halved
    levels = np.arange(n + 1, dtype=np.uint8)[:, None]
    far = np.uint8(n + 1)
    near_x, near_y = (wx == levels) * far, (wy == levels) * far
    haus = _hausdorff(ex, ey, near_x, near_y, _HAUSDORFF_BAND)
    if haus > _HAUSDORFF_BAND + 1:
        haus = _hausdorff(ex, ey, near_x, near_y, n)
    return int(sd.max(initial=0)), int(gap.max(initial=0)), 2 * int(excess.max(initial=0)), haus


def adjacent_chain_scan(n: int) -> EdgeScanResult:
    """Exhaustively compare the chains of every adjacent pair of points.

    For each edge (x, y) this records the signature distance, the gap
    |k - k'| between chain minimum levels, the worst excess of
    dist(c_j, c'_j') over |j - j'| across all element pairs, and the
    Hausdorff distance between the two chains.  The edges of one direction
    are scanned at once.
    """
    check_n(n, EDGE_SCAN_MAX_N, low=0)
    size = 1 << n
    ks, climb = chains_of(np.arange(size, dtype=np.uint64), n)
    # elements[j] is the level-j element of each point's chain; a level
    # outside k..n-k reads the chain's nearer end
    elements = np.empty((n + 1, size), dtype=np.uint16)
    for j in range(n + 1):
        elements[j] = climb(np.clip(j - ks, 0, n - 2 * ks))
    del ks, climb
    worst = (0, 0, 0, 0)
    for b in range(n):
        # the points with bit b clear, and the same points with it set
        halves = elements.reshape(n + 1, -1, 2, 1 << b)
        worst = tuple(map(max, worst, _scan_edges(n, halves[:, :, 0], halves[:, :, 1], 1 << b)))
    return EdgeScanResult(n, n * size // 2, *worst)


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
