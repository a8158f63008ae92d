"""Round-based matching of poor vertices to rich ones, and the bijections
it yields onto random balanced functions.

Fix a target set A inside the n-cube and view the (n-1)-cube as the points
to be extended by one coordinate.  A vertex x is rich if both extensions
x|0 and x|1 lie in A, poor if neither does, mixed otherwise.  Round i
simultaneously matches every still-unmatched poor x to its direction-i
neighbor when that neighbor is rich and unmatched; direction-i edges form a
perfect matching of the cube, so rounds never conflict, and matching stops
after floor((n-1)/2) rounds.

The resulting injective extension map sends a mixed vertex to its extension
inside A, an unconsumed rich vertex to x|1, a consumed rich vertex to x|0
(both of its extensions are in A, so this dodges its poor partner's image
without leaving A), a matched poor vertex to its partner's upper extension,
and an unmatched poor vertex to x|0, the only case that exits A.

The matching state is a handful of bitsets over the (n-1)-cube, one bit per
point in little-endian uint64 words (point x is bit x & 63 of word x >> 6;
below n = 7 the one word is padded with zero bits): the two halves of A's
truth table, the rich points left unmatched, and the round planes.  From
n = 7 on each half is a whole number of words, and the two are uint64 views
of A's bitmap (``BooleanFunction.bitmap``), not copies.  The rounds'
matched poor sets are disjoint, so each point has one round index (0: not
matched as a poor point) and plane j holds bit j of it: ceil(log2(rounds +
1)) planes, 4 at n = 24, in place of one bitset per round.  A round's
matched rich points are the partners of its matched poor ones, so they are
not stored.  The partner bitset of direction b < 6 is a masked shift swap
inside each word, and of b >= 6 a swap of whole words.

For a balanced f the dictator-to-f bijection runs this construction once
per class of f, with coordinates rotated so the extension coordinate is
coordinate 1.  It repairs what the matching could not place (an O(1/n)
fraction) from the state alone: each unmatched poor source takes the lower
extension of an unmatched rich point, both in ascending order.

Images and tables are uint32 (``TABLE_DTYPE``).  The injection, its check,
the rotation back, the composition and the displacements work on slices
of ``SLICE`` points, so beyond their bitmaps and results none makes a
temporary the size of a table.  The check needs no 2^n bitmap either: an
image differs from its source in at most one of the first n - 1
coordinates, so images can only collide within one aligned block of
sources that the widest such flip stays inside, and distinctness is
checked one block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cube_core import (
    MATCHING_MAX_N,
    SLICE,
    TABLE_DTYPE,
    TABLE_MAX_N,
    BooleanFunction,
    check_n,
    random_balanced,
    random_subset_function,
    slices,
)
from .stretch_metrics import Mapping, stretch_report

# _SWAP_MASKS[b]: the bit positions p of a word with bit b of p clear
_SWAP_MASKS = tuple(np.uint64(sum(1 << p for p in range(64) if not p >> b & 1))
                    for b in range(6))


@dataclass
class MatchState:
    """Outcome of the matching rounds over the (n-1)-cube, as bitsets.

    low and high hold the set's two halves (x|0 and x|1 in A), rich_unmatched
    the rich points no round consumed, and round_planes[j] bit j of each
    point's round index: i when round i matched the point as a poor point
    to its direction-i neighbor, else 0.
    """

    n: int
    low: np.ndarray
    high: np.ndarray
    rich_unmatched: np.ndarray
    round_planes: list[np.ndarray]
    round_stats: list[tuple[int, int]]

    @property
    def size(self) -> int:
        return 1 << (self.n - 1)

    @property
    def rounds(self) -> int:
        return len(self.round_stats) - 1

    def poor_unmatched_count(self) -> int:
        return self.round_stats[-1][0]


def _unpack(words: np.ndarray, count: int) -> np.ndarray:
    """The first count bits of a bitset as 0/1 uint8 values."""
    return np.unpackbits(words.view(np.uint8), count=count, bitorder="little")


def _partner(words: np.ndarray, b: int) -> np.ndarray:
    """The bitset reindexed by x -> x ^ (1 << b)."""
    if b < 6:
        s, m = 1 << b, _SWAP_MASKS[b]
        return ((words & m) << s) | ((words >> s) & m)
    return words.reshape(-1, 2, 1 << (b - 6))[:, ::-1, :].reshape(words.shape)


def _count(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum(dtype=np.int64))


def run_matching(a: BooleanFunction) -> MatchState:
    """Run all floor((n-1)/2) matching rounds against the set a.

    Eligibility in each round is decided from the frozen end-of-previous-
    round state, so all matches in a round happen simultaneously.
    """
    n = a.n
    check_n(n, MATCHING_MAX_N, low=2)
    half = 1 << (n - 1)
    bitmap = a.bitmap()
    if half >= 64:  # each half is whole words of the bitmap: view them in place
        words = bitmap.view("<u8")
        low, high = words[:half >> 6], words[half >> 6:]
    else:  # each half in one zero-padded word
        whole = int.from_bytes(bitmap.tobytes(), "little")
        low = np.array([whole & ((1 << half) - 1)], dtype="<u8")
        high = np.array([whole >> half], dtype="<u8")
    poor_un = ~(low | high)
    if half < 64:
        poor_un &= np.uint64((1 << half) - 1)
    rich_un = low & high
    stats = [(_count(poor_un), _count(rich_un))]
    rounds = (n - 1) // 2
    planes = [np.zeros_like(poor_un) for _ in range(rounds.bit_length())]
    for i in range(1, rounds + 1):
        match_poor = poor_un & _partner(rich_un, i - 1)
        poor_un ^= match_poor
        rich_un ^= _partner(match_poor, i - 1)
        for j, plane in enumerate(planes):
            if i >> j & 1:
                plane |= match_poor
        stats.append((_count(poor_un), _count(rich_un)))
    return MatchState(n=n, low=low, high=high, rich_unmatched=rich_un,
                      round_planes=planes, round_stats=stats)


def build_injection(state: MatchState) -> np.ndarray:
    """Injective extension table: entry x is an n-bit point over x's cube.

    Cases: mixed -> the extension inside the set; unconsumed rich -> x|1;
    consumed rich -> x|0; matched poor -> partner|1; unmatched poor -> x|0.
    """
    half = state.size
    # the image of x is x XOR this table at x's code: the image's top bit
    # plus twice the round that matched x as a poor point (0: none); every
    # matched poor point goes to the top half
    lut = np.array([top_bit * half | (1 << (i - 1) if i else 0)
                    for i in range(state.rounds + 1) for top_bit in (0, 1)], dtype=TABLE_DTYPE)
    img = np.empty(half, dtype=TABLE_DTYPE)
    for lo, hi in slices(half):
        words = slice(lo >> 6, (hi + 63) >> 6)  # a slice starts on a word
        top = (state.high[words] & ~state.low[words]) | state.rich_unmatched[words]
        for plane in state.round_planes:
            top |= plane[words]
        code = _unpack(top, hi - lo)
        for j, plane in enumerate(state.round_planes, 1):
            bits = _unpack(plane[words], hi - lo)
            bits <<= j
            code |= bits
        part = img[lo:hi]
        # "clip" writes straight into part, where "raise" buffers it; every
        # code is below lut.size, so nothing clips
        np.take(lut, code, out=part, mode="clip")
        part ^= np.arange(lo, hi, dtype=TABLE_DTYPE)
    return img


def injection_is_valid(state: MatchState, img: np.ndarray) -> bool:
    """Injectivity plus the one-coordinate condition on the first n-1 bits,
    checked slice by slice for an integer image of any dtype: distinctness
    in a window of two slices' targets, wider only where an image flips a
    coordinate whose bit is at least SLICE."""
    half = state.size
    if img.size != half:
        return False
    buf = np.empty(min(SLICE, half), dtype=img.dtype)  # one slice's work, reused
    # the range and the one-coordinate rule, noting the widest flip
    widest = 0
    for lo, hi in slices(half, SLICE):
        part, diff = img[lo:hi], buf[:hi - lo]
        if part.min() < 0 or part.max() >= 2 * half:
            return False
        np.bitwise_and(part, half - 1, out=diff)
        diff ^= np.arange(lo, hi, dtype=diff.dtype)
        if (np.bitwise_count(diff) > 1).any():
            return False
        widest = max(widest, int(diff.max()))
    # the first n - 1 bits of an image then lie in its source's aligned
    # block of `block` points, so only images of one block can be equal; an
    # image's slot in that block's window is top * block + its offset in the
    # block, which is the image - top * (half - block) - the block's start
    block = min(half, max(SLICE, 1 << widest.bit_length()))
    window = np.empty(2 * block, dtype=bool)
    for start in range(0, half, block):
        window[:] = False
        for lo, hi in slices(block, SLICE):
            part, slot = img[start + lo:start + hi], buf[:hi - lo]
            np.right_shift(part, state.n - 1, out=slot)
            slot *= half - block
            np.subtract(part, slot, out=slot)
            slot -= start
            window[slot] = True
        if np.count_nonzero(window) != block:
            return False
    return True


def recursion_curve(n: int, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-round unmatched fractions over fresh random sets, as (p_hat, q_hat):
    float64 arrays of shape (trials, rounds + 1) whose row t is trial t's
    round_stats (column 0 before any round) over 2^(n-1), so exact.  Each
    trial draws its density-1/2 set from a named substream of the seed."""
    if trials < 1:
        raise ValueError("need at least one trial")
    check_n(n, MATCHING_MAX_N, low=2)
    stats = np.array([run_matching(random_subset_function(n, child)).round_stats
                      for child in np.random.SeedSequence(seed).spawn(trials)]) / (1 << (n - 1))
    return stats[..., 0], stats[..., 1]


def _half_cube_images(f_vals: np.ndarray, n: int, cls: int) -> tuple[np.ndarray, int]:
    """Images for sources u = coordinates 2..n of the cls half, plus the
    count of repaired sources: the unmatched poor, whose image x|0 leaves
    the class, each take the lower extension of an unmatched rich point (a
    target no image reaches), both in ascending order."""
    # f^{-1}(cls) with coordinates rotated one step left: coordinate 1 of the
    # cube becomes the top coordinate, the one the matching extends
    rotated = np.concatenate([f_vals[0::2], f_vals[1::2]])
    rotated ^= 1 - cls  # the indicator of class cls
    state = run_matching(BooleanFunction(n, table=rotated))
    del rotated  # the state holds the set as bitsets
    img = build_injection(state)
    placed = state.low | state.high  # with the matched poor: all but the unmatched poor
    for plane in state.round_planes:
        placed |= plane
    poor = np.flatnonzero(_unpack(~placed, img.size))
    img[poor] = np.flatnonzero(_unpack(state.rich_unmatched, img.size))
    del state, placed
    # rotate each image back, in place; rich x|0 becomes 2x, still ascending
    mask = (1 << n) - 1
    for lo, hi in slices(img.size):
        part = img[lo:hi]
        part[:] = ((part << 1) & mask) | (part >> (n - 1))
    return img, poor.size


@dataclass(frozen=True)
class DictToRandomResult:
    """The bijection plus per-class construction diagnostics."""

    mapping: Mapping
    repaired: tuple[int, int]

    @property
    def unmatched_poor_fraction(self) -> Fraction:
        half = 1 << (self.mapping.n - 1)
        return Fraction(self.repaired[0] + self.repaired[1], 2 * half)


def build_dict_to_random_details(f: BooleanFunction) -> DictToRandomResult:
    """Bijection phi with dictator(x) = f(phi(x)) everywhere, together with
    the repair counts per class.  Leftover sources are repaired in ascending
    order onto the uncovered targets, also ascending."""
    n = f.n
    check_n(n, TABLE_MAX_N, low=2)
    if not f.is_balanced():
        raise ValueError("target function must be balanced")
    vals = f.values()
    table = np.empty(1 << n, dtype=TABLE_DTYPE)
    repaired = []
    for cls in (1, 0):
        table[cls::2], nbad = _half_cube_images(vals, n, cls)
        repaired.append(nbad)
    mapping = Mapping.from_table(n, table, name="dict2random")
    return DictToRandomResult(mapping=mapping, repaired=(repaired[0], repaired[1]))


def displacements(phi: Mapping) -> np.ndarray:
    """Hamming distance from each point to its image, as uint8."""
    t = phi.table()
    out = np.empty(t.size, dtype=np.uint8)
    for lo, hi in slices(t.size):
        np.bitwise_count(t[lo:hi] ^ np.arange(lo, hi, dtype=t.dtype), out=out[lo:hi])
    return out


@dataclass(frozen=True)
class DictToRandomTrial:
    """One dictator -> random balanced f construction, the fraction of points
    it moves by <= 2, and exactly its mean displacement and avg stretch both ways."""

    f: BooleanFunction
    details: DictToRandomResult
    frac_dist_le2: float
    mean_displacement: Fraction
    avg_stretch: Fraction
    avg_stretch_inv: Fraction


def dict_to_random_trial(n: int, seed) -> DictToRandomTrial:
    """Draw a balanced f from the seed, build dictator -> f, and measure its
    displacements and its average stretch both ways."""
    check_n(n, TABLE_MAX_N, low=2)
    f = random_balanced(n, seed)
    details = build_dict_to_random_details(f)
    phi = details.mapping
    d = displacements(phi)
    frac, mean = float((d <= 2).mean()), Fraction(int(d.sum(dtype=np.int64)), d.size)
    del d  # before the stretch reports build their tables
    return DictToRandomTrial(f, details, frac, mean, stretch_report(phi).avg,
                             stretch_report(phi.inverse_mapping()).avg)


def build_random_to_random(f: BooleanFunction, g: BooleanFunction) -> Mapping:
    """Bijection from f to g: the g-construction composed with the inverse
    of the f-construction."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    check_n(f.n, TABLE_MAX_N, low=2)
    phi_f = build_dict_to_random_details(f).mapping
    phi_g = build_dict_to_random_details(g).mapping
    g_table, f_inverse = phi_g.table(), phi_f.inverse_mapping().table()
    table = np.empty_like(g_table)
    for lo, hi in slices(table.size):
        # f_inverse is a permutation, so "clip" (no buffered out) never clips
        np.take(g_table, f_inverse[lo:hi], out=table[lo:hi], mode="clip")
    return Mapping.from_table(f.n, table, name="rand2rand")
