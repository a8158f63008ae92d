"""Stretch statistics for cube bijections, exact and sampled.

The average stretch of a mapping is the expected image distance over a
uniformly random edge.  Edges are undirected and counted once; because
every direction contributes the same number of edges, this equals the
expectation over a random point and a random direction.  Exhaustive
reports use exact rationals; sampled reports keep the sample mean exact
and carry the sample size and a floating standard error.

Every table, the local search's working table included, holds its images
as ``TABLE_DTYPE`` (uint32) words, 4 bytes a point.  A mapping builds its
table slice by slice with ``forward``, the evaluator that points and
samples call.  Exhaustive statistics come from a private hook,
``_exhaustive_histogram``, as a per-direction distance histogram.  A
linear map reads it off its column weights, with no table, so its reports
go past ``TABLE_MAX_N``.  Every other map fills it in one single-threaded
pass over its table in blocks of ``_BLOCK`` entries.  The lowest
``_TRANSPOSED`` directions pair whole rows of the block's transpose, the
other directions whose edges stay inside a block pair runs of the block
itself, and a longer one pairs a block with the block 2^b entries further
on.  Each step writes its edges' distances as bytes and counts them two
at a time, as uint16 keys, into a grid of distance pairs per direction;
the grids fold to the histogram at the end.  The steps reuse buffers the
size of a block, so the pass makes no table-sized temporaries.  A
direction's distance sum is read off its histogram row in Python ints,
which n = 63 needs.  Validation, inversion and the law check likewise work
on slices of a table.

Also here: brute-force oracles at n <= ``ORACLE_MAX_N`` (the ground truth
the heuristics and the impossibility checks compare against), which write
every class-preserving table between two functions as one row of an array
and score all rows with one popcount; a seeded transposition-descent
heuristic; and the two counting facts about middle binomial levels and
typical weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from math import comb, isqrt
from typing import Callable

import numpy as np

from .cube_core import (FORMULA_MAX_N, LOCAL_SEARCH_MAX_N, ORACLE_MAX_N, TABLE_DTYPE,
                        TABLE_MAX_N, TYPICAL_MAX_N, BooleanFunction, check_n, slices)

# Proposals drawn and scored per numpy pass in the local search.
_PROPOSAL_BLOCK = 256
# Table builds call forward on slices of this many points, so its
# temporaries stay small at any n; slices of SLICE = 2^16 points raise the
# peak RSS of analyze --mapping maj2dict --n 19 from 34.4 to 40.0 MB.
_TABLE_SLICE = 1 << 14
# Table entries per step of the exhaustive pass; a block and its buffers
# stay in a core's L2 cache.  On a 2-vCPU Xeon a pass over a
# dictator->random table at n = 20 takes 41, 34 and 31 ms with blocks of
# 2^14, 2^15 and 2^16, but 2^16 raises the peak of
# analyze --mapping identity --n 24 from 94.1-94.4 to 94.8 MB.
_BLOCK = 1 << 15
# Directions the exhaustive pass pairs on the block's (2^5, block / 2^5)
# transpose, whose rows are contiguous: on the block itself direction b
# xors runs 2^b entries long, 99 us per 2^14 edges at b = 1 against 10 us
# on the transpose.
_TRANSPOSED = 5


class Mapping:
    """A map of the n-cube given by two array evaluators.

    ``forward(xs)`` and ``inverse(xs)`` map a uint64 array of packed points
    to the array of their images.  Point evaluation, sampled statistics and
    ``table()`` call them; ``table()`` caches the forward table as
    ``TABLE_DTYPE`` (uint32) images.
    """

    def __init__(self, n: int, forward: Callable[[np.ndarray], np.ndarray],
                 inverse: Callable[[np.ndarray], np.ndarray], name: str = ""):
        check_n(n, FORMULA_MAX_N)
        self.n = n
        self.name = name
        self.forward = forward
        self.inverse = inverse
        self._table: np.ndarray | None = None

    @classmethod
    def from_table(cls, n: int, table, name: str = "") -> "Mapping":
        """The permutation with these images.  A contiguous ``TABLE_DTYPE``
        array is held as it is; any other integer input is checked as it
        is and then converted."""
        arr = np.asarray(table)
        if arr.size != 1 << n:
            raise ValueError(f"table must have {1 << n} entries, got {arr.size}")
        if arr.dtype.kind not in "iu" or not _is_permutation(arr):
            raise ValueError("table is not a permutation of the cube")
        return _TableMapping(n, np.ascontiguousarray(arr, dtype=TABLE_DTYPE), None, name)

    @classmethod
    def identity(cls, n: int) -> "Mapping":
        return cls(n, np.asarray, np.asarray, name="identity")

    def apply_bits(self, x: int) -> int:
        return int(self.forward(self._point(x))[0])

    def inverse_bits(self, y: int) -> int:
        return int(self.inverse(self._point(y))[0])

    def _point(self, x: int) -> np.ndarray:
        if not 0 <= x < 1 << self.n:
            raise ValueError(f"point {x} is outside the {self.n}-cube, 0..2^{self.n}-1")
        return np.array([x], dtype=np.uint64)

    def table(self) -> np.ndarray:
        check_n(self.n, TABLE_MAX_N)  # also for a table given to from_table
        if self._table is None:
            table = np.empty(1 << self.n, dtype=TABLE_DTYPE)
            for lo, hi in slices(table.size, _TABLE_SLICE):
                table[lo:hi] = self.forward(np.arange(lo, hi, dtype=np.uint64))
            self._table = table
        return self._table

    def _exhaustive_histogram(self) -> np.ndarray:
        """(n, n+1) int64 histogram of every edge: row b counts the 2^(n-1)
        edges in direction b+1 by image distance.  A subclass may derive it
        from its structure instead of a pass over the table."""
        return _exhaustive_stats(self.table(), self.n)

    def inverse_mapping(self) -> "Mapping":
        return Mapping(self.n, self.inverse, self.forward, _inverse_name(self.name))

    def __repr__(self) -> str:
        return f"Mapping(n={self.n}, name={self.name!r})"


def _is_permutation(t: np.ndarray) -> bool:
    """True iff the integer array t holds each of 0..t.size-1 exactly once:
    a range check, then a scatter slice by slice into a bitmap of t.size
    entries (not a sort) whose set bits are counted."""
    if t.size and (t.min() < 0 or t.max() >= t.size):
        return False
    seen = np.zeros(t.size, dtype=bool)
    for lo, hi in slices(t.size):
        seen[t[lo:hi]] = True
    return bool(np.count_nonzero(seen) == t.size)


def _inverse_name(name: str) -> str:
    return f"{name}^-1" if name else ""


class _TableMapping(Mapping):
    """A permutation held as its table and evaluated by gathers.  The inverse
    table is scattered from it once, on first use; the inverse mapping takes
    both arrays over without copying.  The evaluators close over the arrays,
    not the mapping, so no reference cycle delays freeing them."""

    def __init__(self, n: int, table: np.ndarray, inverse_table: np.ndarray | None,
                 name: str):
        tables = [table, inverse_table]
        super().__init__(n, table.__getitem__, lambda ys: _inverted(tables)[ys], name)
        self._table = table
        self._tables = tables

    def inverse_mapping(self) -> "Mapping":
        return _TableMapping(self.n, _inverted(self._tables), self._table,
                             _inverse_name(self.name))


def _inverted(tables: list) -> np.ndarray:
    """tables[1], scattered slice by slice from the permutation tables[0] if
    still None."""
    if tables[1] is None:
        table = tables[0]
        inv = np.empty_like(table)
        for lo, hi in slices(table.size):
            inv[table[lo:hi]] = np.arange(lo, hi, dtype=inv.dtype)
        tables[1] = inv
    return tables[1]


def is_mapping_between(phi: Mapping, f: BooleanFunction, g: BooleanFunction) -> bool:
    """True iff phi is a bijection and f(z) = g(phi(z)) at every point."""
    if not (phi.n == f.n == g.n):
        raise ValueError(
            f"dimension mismatch: mapping n={phi.n}, f n={f.n}, g n={g.n}")
    t = phi.table()
    if not _is_permutation(t):
        return False
    f_vals, g_vals = f.values(), g.values()
    return all(np.array_equal(f_vals[lo:hi], g_vals[t[lo:hi]]) for lo, hi in slices(t.size))


@dataclass(frozen=True)
class StretchReport:
    """Edge-stretch statistics of one mapping."""

    n: int
    mapping: str
    mode: str
    avg: Fraction
    per_direction: tuple[Fraction, ...]
    max_stretch: int
    histogram: dict[int, int] = field(compare=False)
    edges_total: int
    samples: int | None = None
    stderr: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        total = sum(self.histogram.values())
        if total != self.edges_total:
            raise ValueError("histogram does not cover edges_total")
        weighted = sum(d * c for d, c in self.histogram.items())
        if Fraction(weighted, self.edges_total) != self.avg:
            raise ValueError("avg inconsistent with histogram")

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "mapping": self.mapping,
            "mode": self.mode,
            "avg": {"num": self.avg.numerator, "den": self.avg.denominator},
            "max": self.max_stretch,
            "per_direction": [
                {"num": v.numerator, "den": v.denominator} for v in self.per_direction
            ],
            "histogram": {str(d): self.histogram[d] for d in sorted(self.histogram)},
            "edges_total": self.edges_total,
        }
        if self.mode == "sampled":
            out["samples"] = self.samples
            out["stderr"] = self.stderr
            out["seed"] = self.seed
        return out

    def histogram_csv(self) -> str:
        lines = ["distance,count"]
        lines += [f"{d},{self.histogram[d]}" for d in sorted(self.histogram)]
        return "\n".join(lines) + "\n"


def _exhaustive_stats(table: np.ndarray, n: int) -> np.ndarray:
    """(n, n+1) int64 histogram of a ``TABLE_DTYPE`` table: row b counts the
    2^(n-1) edges in direction b+1 by image distance.  The key d + 256 d'
    of two adjacent distance bytes counts one edge at d and one at d' in
    cell (d', d) of the direction's grid (or (d, d') on a big-endian host),
    so a distance's count is its row plus its column there."""
    if n == 1:  # one edge, which no uint16 key can hold
        hist = np.zeros((1, 2), dtype=np.int64)
        hist[0, int(table[0] ^ table[1]).bit_count()] = 1
        return hist
    grid = np.zeros((n, n + 1, n + 1), dtype=np.int64)
    block = min(_BLOCK, table.size)
    inner = block.bit_length() - 1
    low = min(_TRANSPOSED, inner)
    rows = np.empty((1 << low, block >> low), dtype=table.dtype)
    xor = np.empty(block, dtype=table.dtype)
    dist = np.empty(block, dtype=np.uint8)
    half_xor, half_dist = xor[:block // 2], dist[:block // 2]

    def count(b: int, dists: np.ndarray) -> None:
        keys = np.bincount(dists.view(np.uint16), minlength=(n + 1) << 8)
        grid[b] += keys.reshape(n + 1, 256)[:, :n + 1]

    for lo in range(0, table.size, block):
        blk = table[lo:lo + block]
        rows[...] = blk.reshape(-1, 1 << low).T
        for b in range(inner):
            paired = (rows.reshape(-1, 2, (block >> low) << b) if b < low
                      else blk.reshape(-1, 2, 1 << b))
            np.bitwise_xor(paired[:, 0], paired[:, 1],
                           out=half_xor.reshape(len(paired), -1))
            np.bitwise_count(half_xor, out=half_dist)
            count(b, half_dist)
        for b in range(inner, n):
            if lo & (1 << b):
                continue
            np.bitwise_xor(blk, table[lo + (1 << b):lo + (1 << b) + block], out=xor)
            np.bitwise_count(xor, out=dist)
            count(b, dist)
    return grid.sum(axis=1) + grid.sum(axis=2)


def _distance_sums(hist: np.ndarray) -> list[int]:
    """Per-row distance sums of a histogram indexed by distance, as Python
    ints: at n = 63 a direction's sum can pass 2^63."""
    return [sum(d * c for d, c in enumerate(row)) for row in hist.tolist()]


def _direction_hist_sampled(phi: Mapping, rng: np.random.Generator, samples: int,
                            b: int) -> np.ndarray:
    """Distance histogram (n+1 counts) of random edges in direction b+1."""
    n = phi.n
    if n <= 62:
        xs = rng.integers(0, 1 << n, size=samples, dtype=np.int64).astype(np.uint64)
    else:
        lo = rng.integers(0, 1 << 32, size=samples, dtype=np.int64)
        hi = rng.integers(0, 1 << (n - 32), size=samples, dtype=np.int64)
        xs = (hi.astype(np.uint64) << np.uint64(32)) | lo.astype(np.uint64)
    return np.bincount(np.bitwise_count(phi.forward(xs) ^ phi.forward(xs ^ np.uint64(1 << b))),
                       minlength=n + 1)


def stretch_report(phi: Mapping, mode: str = "exhaustive",
                   samples: int | None = None, seed: int | None = None) -> StretchReport:
    """Stretch statistics over all edges, or over sampled edges per direction.

    Sampled mode needs a per-direction sample count and a seed; the report
    then carries the observed maximum and the standard error of the mean.
    """
    n = phi.n
    if mode == "exhaustive":
        rows = phi._exhaustive_histogram()
        per_edge_count = 1 << (n - 1)
        samples = seed = None
    elif mode == "sampled":
        if samples is None or seed is None:
            raise ValueError("sampled mode needs samples and seed")
        if samples < 1:
            raise ValueError(f"sampled mode needs at least one sample per direction, got {samples}")
        rng = np.random.Generator(np.random.PCG64(seed))
        rows = np.array([_direction_hist_sampled(phi, rng, samples, b) for b in range(n)])
        per_edge_count = samples
    else:
        raise ValueError(f"unknown mode {mode!r}")
    sums, hist = _distance_sums(rows), map(sum, zip(*rows.tolist()))
    histogram = {d: c for d, c in enumerate(hist) if c}
    total = sum(sums)
    edges_total = n * per_edge_count
    stderr = None
    if mode == "sampled":
        mean = total / edges_total
        var = sum(d * d * c for d, c in histogram.items()) / edges_total - mean * mean
        stderr = float((max(var, 0.0) / edges_total) ** 0.5)
    return StretchReport(
        n=n, mapping=phi.name, mode=mode,
        avg=Fraction(total, edges_total),
        per_direction=tuple(Fraction(s, per_edge_count) for s in sums),
        max_stretch=max(histogram) if histogram else 0,
        histogram=histogram,
        edges_total=edges_total,
        samples=samples, stderr=stderr, seed=seed,
    )


# ---------------------------------------------------------------------------
# brute-force oracles over every class-preserving table
# ---------------------------------------------------------------------------

def _min_over_tables(f: BooleanFunction, g: BooleanFunction, metric: str,
                     direction: int | None = None) -> tuple[int, np.ndarray]:
    """The least score over every class-preserving table from f to g, and
    the first table in ascending order that reaches it.

    Every such table is one row of an array, at most 8! = 40,320 rows at
    ``ORACLE_MAX_N``.  The rows are sorted ascending and scored at once, so
    the first minimum np.argmin finds is the first minimal table.  metric
    "avg" scores the sum of edge distances, "max" the largest edge
    distance, "direction" the sum over the edges along one direction.
    """
    n = f.n
    if g.n != n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    check_n(n, ORACLE_MAX_N)
    f_vals, g_vals = f.values(), g.values()
    if np.count_nonzero(f_vals) != np.count_nonzero(g_vals):
        raise ValueError("class sizes differ; no mapping from f to g exists")
    if direction is not None:
        check_n(direction, n, what="direction")
    perms = [np.array(list(permutations(np.flatnonzero(g_vals == c))), dtype=TABLE_DTYPE)
             for c in (0, 1)]
    tables = np.empty((len(perms[0]) * len(perms[1]), 1 << n), dtype=TABLE_DTYPE)
    tables[:, f_vals == 0] = np.repeat(perms[0], len(perms[1]), axis=0)
    tables[:, f_vals == 1] = np.tile(perms[1], (len(perms[0]), 1))
    tables = tables[np.lexsort(tables.T[::-1])]
    bits = [direction - 1] if metric == "direction" else range(n)
    lo, hi = np.array([(x, x | 1 << b) for b in bits for x in range(1 << n)
                       if not x >> b & 1]).T
    dist = np.bitwise_count(tables[:, lo] ^ tables[:, hi])
    scores = dist.max(axis=1) if metric == "max" else dist.sum(axis=1)
    best = int(np.argmin(scores))
    return int(scores[best]), tables[best].copy()


def exhaustive_min_avg_stretch(f: BooleanFunction, g: BooleanFunction
                               ) -> tuple[Fraction, Mapping]:
    """Global minimum of avgStretch over all mappings from f to g, with witness."""
    total, table = _min_over_tables(f, g, "avg")
    edges = f.n * (1 << (f.n - 1))
    return Fraction(total, edges), Mapping.from_table(f.n, table, name="oracle-min-avg")


def exhaustive_min_max_stretch(f: BooleanFunction, g: BooleanFunction
                               ) -> tuple[int, Mapping]:
    """Global minimum of the worst edge stretch over all mappings from f to g."""
    value, table = _min_over_tables(f, g, "max")
    return value, Mapping.from_table(f.n, table, name="oracle-min-max")


def exhaustive_min_directional(f: BooleanFunction, g: BooleanFunction, i: int
                               ) -> tuple[Fraction, Mapping]:
    """Global minimum of the direction-i average stretch over all mappings."""
    total, table = _min_over_tables(f, g, "direction", direction=i)
    return Fraction(total, 1 << (f.n - 1)), Mapping.from_table(
        f.n, table, name=f"oracle-min-dir{i}")


# ---------------------------------------------------------------------------
# seeded transposition descent
# ---------------------------------------------------------------------------

def _draw_proposals(rng: np.random.Generator, k: int, sizes: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next k proposals (c, a, b) of the scalar draws

        c = rng.integers(0, 2); a, b = rng.integers(0, sizes[c], size=2)

    taken from one block of 32-bit words, leaving the generator in the same
    state.  numpy draws an integer below m from a word w as the high half of
    w * m and rejects w, moving on to the next word, while the low half is
    below 2^32 mod m; a rejected word is dropped and one more word pulled.
    """
    words = rng.integers(0, 1 << 32, size=3 * k, dtype=np.uint32)
    sizes = sizes.astype(np.uint64)
    thresholds = np.uint64(1 << 32) % sizes
    while True:
        w = words.astype(np.uint64).reshape(k, 3)
        c = w[:, 0] >> np.uint64(31)
        scaled = w[:, 1:] * sizes[c, None]
        rejected = (scaled & np.uint64(0xFFFFFFFF)) < thresholds[c, None]
        if not rejected.any():
            ab = (scaled >> np.uint64(32)).astype(np.int64)
            return c.astype(np.int64), ab[:, 0], ab[:, 1]
        i, j = divmod(int(np.flatnonzero(rejected)[0]), 2)
        words = np.append(np.delete(words, 3 * i + 1 + j),
                          rng.integers(0, 1 << 32, size=1, dtype=np.uint32))


def _swap_deltas(table: np.ndarray, bits: np.ndarray, us: np.ndarray,
                 vs: np.ndarray) -> np.ndarray:
    """Change in the total edge sum if the images of us[i] and vs[i] swap,
    for every i.  The edge between u and v, if any, keeps its length."""
    nu = us[:, None] ^ bits
    nv = vs[:, None] ^ bits
    tu = table[us][:, None]
    tv = table[vs][:, None]
    tnu = table[nu]
    tnv = table[nv]
    gain = np.bitwise_count(tv ^ tnu) + np.bitwise_count(tu ^ tnv)
    loss = np.bitwise_count(tu ^ tnu) + np.bitwise_count(tv ^ tnv)
    d = gain.astype(np.int16) - loss
    d[nu == vs[:, None]] = 0
    return d.sum(axis=1)


def _descend(table: np.ndarray, bits: np.ndarray, us: np.ndarray,
             vs: np.ndarray) -> tuple[int, int]:
    """Make, in order, every swap (us[i], vs[i]) that lowers the edge sum of
    the table as it stands by then; the block is rescored after each swap.
    Returns the change in the sum and the index of the last swap made, -1
    if none."""
    total = 0
    last = -1
    while last + 1 < len(us):
        d = _swap_deltas(table, bits, us[last + 1:], vs[last + 1:])
        hits = np.flatnonzero(d < 0)
        if not hits.size:
            break
        last += 1 + int(hits[0])
        u, v = us[last], vs[last]
        table[u], table[v] = table[v], table[u]
        total += int(d[hits[0]])
    return total, last


def local_search_min_stretch(f: BooleanFunction, g: BooleanFunction, seed: int,
                             restarts: int = 8) -> tuple[Fraction, Mapping]:
    """Best avgStretch found by seeded transposition descent.

    The first restart starts from the ascending class-preserving pairing
    (for f = g that is the identity, which is already optimal); later
    restarts shuffle the pairing.  Small instances descend by full
    first-improvement sweeps to a genuine local optimum; larger ones use
    random proposals with a stall cutoff.  Proposals are drawn and scored
    in blocks, each swap taking effect before the rest of its block is
    rescored; a block never outruns the stall cutoff, so the random stream,
    and with it the result, is the same per seed as when each proposal is
    drawn and scored on its own.
    """
    n = f.n
    check_n(n, LOCAL_SEARCH_MAX_N)
    if restarts < 1:
        raise ValueError(f"local search needs at least one restart, got {restarts}")
    f_vals = f.values()
    g_vals = g.values()
    sources = [np.flatnonzero(f_vals == c) for c in (0, 1)]
    targets = [np.flatnonzero(g_vals == c) for c in (0, 1)]
    if len(sources[0]) != len(targets[0]):
        raise ValueError("class sizes differ; no mapping from f to g exists")
    rng = np.random.Generator(np.random.PCG64(seed))
    size = 1 << n
    edges = n * size // 2
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    sizes = np.array([len(s) for s in sources])
    small = sizes.max() <= 64
    if not (small or sizes.min()):
        raise ValueError("random proposals need both classes non-empty")
    pairs = []  # the sweep's pairs of each class, in loop order
    if small:
        for pts in sources:
            a, b = np.triu_indices(len(pts), 1)
            pairs.append((pts[a], pts[b]))
    pooled = np.concatenate(sources)
    offsets = np.array([0, sizes[0]])

    best_sum: int | None = None
    best_table: np.ndarray | None = None
    for r in range(restarts):
        table = np.empty(size, dtype=TABLE_DTYPE)
        for c in (0, 1):
            table[sources[c]] = targets[c] if r == 0 else rng.permutation(targets[c])
        current = sum(_distance_sums(_exhaustive_stats(table, n)))
        if small:
            improved = True
            while improved:
                improved = False
                for us, vs in pairs:
                    delta, last = _descend(table, bits, us, vs)
                    current += delta
                    improved |= last >= 0
        else:
            stall = 0
            max_stall = 200 * n
            while stall < max_stall:
                k = min(_PROPOSAL_BLOCK, max_stall - stall)
                c, a, b = _draw_proposals(rng, k, sizes)
                delta, last = _descend(table, bits, pooled[offsets[c] + a],
                                       pooled[offsets[c] + b])
                current += delta
                stall = stall + k if last < 0 else k - 1 - last
        if best_sum is None or current < best_sum:
            best_sum = current
            best_table = table.copy()
    return Fraction(best_sum, edges), Mapping.from_table(n, best_table, name="local-search")


# ---------------------------------------------------------------------------
# counting facts
# ---------------------------------------------------------------------------

def typical_fraction(n: int, c) -> Fraction:
    """Exact fraction of points whose weight differs from n/2 by more than c*sqrt(n).

    Floats are interpreted decimally (0.01 means 1/100).  For c = a/b, weight
    w is typical exactly when |2w - n| <= isqrt(4 a^2 n // b^2): one band,
    summed in integers with one running binomial.
    """
    check_n(n, TYPICAL_MAX_N)
    c = Fraction(str(c)) if isinstance(c, float) else Fraction(c)
    s = isqrt(4 * c.numerator ** 2 * n // c.denominator ** 2)
    lo, hi = max(0, (n - s + 1) // 2), min(n, (n + s) // 2)
    count = 0
    binom = comb(n, lo)
    for w in range(lo, hi + 1):
        count += binom
        binom = binom * (n - w) // (w + 1)
    return 1 - Fraction(count, 1 << n)


def _middle_binomial_squares(limit: int):
    """C(n, floor(n/2))^2 for n = 1..limit, each carried from the one before:
    C(n+1, (n+1)//2) = C(n, n//2) (n+1) / (n//2 + 1) exactly, for both
    parities, so the squares divide exactly too."""
    c2 = 1
    for n in range(1, limit + 1):
        yield c2
        c2 = c2 * (n + 1) ** 2 // (n // 2 + 1) ** 2
