"""Points of the Hamming cube and the boolean functions that live on it.

Coordinate convention: a point of the n-cube is a plain int (a uint64
array entry in bulk) in which coordinate i (1-based) occupies bit i-1;
there is no point type.  The string form puts coordinate 1 LEFTMOST, so
``parse_point("100")`` has coordinate 1 set and equals int 1; parse_point
and format_bits own this reversal and nothing else in the package needs to
know about it.

The module also holds the size caps of the whole package and check_n, the
one check that enforces them.
"""

from __future__ import annotations

import numpy as np

# Size caps: the largest n each kind of work accepts, and why.  Every entry
# point calls check_n with its cap before it allocates anything that grows
# with n.
FORMULA_MAX_N = 63  # dtype: a packed point and its image fit one uint64 word
EXHAUSTIVE_MAX_N = 30  # memory: a truth table is 2^n uint8 values, 1 GiB at n = 30
MATCHING_MAX_N = 26  # memory: run_matching's 2^n-bit set bitmap and 2^(n-1)-bit bitsets; 80 MB peak at n = 26
TABLE_MAX_N = 24  # memory: a 2^n uint32 table (n <= 32) is 64 MB at n = 24; analyze peaks at 94 MB, and at 65 MB for a chain map at n = 23; random at 180 MB
PARTITION_MAX_N = 24  # run time: C(24, 12) = 2,704,156 chains from a Python recursion
CHAINS_DUMP_MAX_N = 20  # run time: a full dump prints C(n, n/2) lines, 184,756 at n = 20
LOCAL_SEARCH_MAX_N = 20  # run time: ~2.2x per unit of n, 5 s for two restarts at n = 13
EDGE_SCAN_MAX_N = 16  # dtype: chain elements are held as uint16
ORACLE_MAX_N = 3  # memory: a row per class-preserving table, 8! at n = 3, (8!)^2 = 1.6e9 for a balanced pair at n = 4
ELIMINATION_MAX_N = 4096  # run time: n^2 XORs of 2n-bit rows, 7 s at n = 4096
TYPICAL_MAX_N = 10 ** 6  # run time: one n-bit binomial, C(n, lo) at the band's low end, dominates; 10 s at n = 10^6

# Every mapping table holds its images in this dtype, which fits a point of
# the n-cube up to n = 32.
TABLE_DTYPE = np.dtype(np.uint32)
# Passes over a whole table work on slices of this many entries, so their
# temporaries stay well under 1 MB at any n.
SLICE = 1 << 16


def parse_point(s: str) -> int:
    """Parse a bit string into a packed point, leftmost character =
    coordinate 1."""
    if not s or any(c not in "01" for c in s):
        raise ValueError(f"point string must match [01]+, got {s!r}")
    check_n(len(s), FORMULA_MAX_N)
    return int(s[::-1], 2)


def format_bits(bits: int, n: int) -> str:
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(n))


def slices(size: int, step: int = SLICE):
    """(lo, hi) bounds of the consecutive step-entry slices of range(size)."""
    return ((lo, min(lo + step, size)) for lo in range(0, size, step))


def check_n(n: int, cap: int, low: int = 1, what: str = "n", note: str = "") -> None:
    """Raise ValueError unless low <= n <= cap, naming the range and n."""
    if not low <= n <= cap:
        raise ValueError(f"{what} must be in {low}..{cap}{note}, got {n}")


class BooleanFunction:
    """A function {0,1}^n -> {0,1}, formula-backed or table-backed.

    A named formula builds its truth table from the formula.  A table-backed
    function holds its truth table in one of two forms, or both: values(),
    2^n uint8 values of 0 or 1 indexed by packed point, and bitmap(), the
    same bits little-endian in ((2^n + 7) // 8) bytes (point x is bit x & 7
    of byte x >> 3, and the padding bits past point 2^n - 1 are 0).  The
    form it lacks is derived on first use, as a formula's table is.
    """

    _FORMULAS = ("majority", "dictator", "xor")

    def __init__(self, n: int, *, name: str | None = None, table: np.ndarray | None = None,
                 bitmap: np.ndarray | None = None, balanced: bool = False):
        if name is not None:
            if name not in self._FORMULAS:
                raise ValueError(f"unknown formula {name!r}")
            if table is not None or bitmap is not None:
                raise ValueError("give either a formula name or a table, not both")
            check_n(n, FORMULA_MAX_N)
        else:
            if (table is None) == (bitmap is None):
                raise ValueError("a table-backed function needs one of a table and a bitmap")
            check_n(n, EXHAUSTIVE_MAX_N)
            if table is not None and (table.dtype != np.uint8 or table.shape != (1 << n,)
                                      or table.max() > 1):
                raise ValueError(f"table must be {1 << n} uint8 values of 0 or 1")
            size = ((1 << n) + 7) // 8
            if bitmap is not None and (bitmap.dtype != np.uint8 or bitmap.shape != (size,)
                                       or not bitmap.flags.c_contiguous):
                raise ValueError(f"bitmap must be {size} contiguous uint8 bytes")
            if bitmap is not None and n < 3 and bitmap[0] >> (1 << n):
                raise ValueError("bitmap padding bits past point 2^n - 1 must be 0")
        self.n = n
        self.name = name
        self._values = table
        self._bitmap = bitmap
        if balanced and self.ones_count() != 1 << (n - 1):
            raise ValueError("function marked balanced is not balanced")

    # -- constructors -------------------------------------------------

    @classmethod
    def majority(cls, n: int) -> "BooleanFunction":
        return cls(n, name="majority")

    @classmethod
    def dictator(cls, n: int) -> "BooleanFunction":
        return cls(n, name="dictator")

    @classmethod
    def xor(cls, n: int) -> "BooleanFunction":
        return cls(n, name="xor")

    # -- evaluation ---------------------------------------------------

    def values(self) -> np.ndarray:
        """Full truth table as a uint8 array of 2^n entries (a formula's is
        built, a bitmap's unpacked, on first use)."""
        if self._values is None and self._bitmap is not None:
            self._values = np.unpackbits(self._bitmap, count=1 << self.n, bitorder="little")
        elif self._values is None:
            check_n(self.n, EXHAUSTIVE_MAX_N)
            idx = np.arange(1 << self.n, dtype=np.uint64)
            if self.name == "majority":
                self._values = (2 * np.bitwise_count(idx) > self.n).astype(np.uint8)
            elif self.name == "dictator":
                self._values = (idx & 1).astype(np.uint8)
            else:
                self._values = (np.bitwise_count(idx) & 1).astype(np.uint8)
        return self._values

    def bitmap(self) -> np.ndarray:
        """The truth table as a little-endian uint8 bitmap of (2^n + 7) // 8
        bytes, zero past point 2^n - 1 (packed from values() on first use)."""
        if self._bitmap is None:
            self._bitmap = np.packbits(self.values(), bitorder="little")
        return self._bitmap

    def ones_count(self) -> int:
        """Points mapped to 1: a popcount of the bitmap when that is the one
        form held, else a count over values() (built for a formula, capped)."""
        if self._values is None and self._bitmap is not None:
            return int(np.bitwise_count(self._bitmap).sum(dtype=np.int64))
        return int(np.count_nonzero(self.values()))

    def is_balanced(self) -> bool:
        return self.ones_count() == 1 << (self.n - 1)

    def __repr__(self) -> str:
        kind = self.name if self.name else "table"
        return f"BooleanFunction(n={self.n}, {kind})"


def random_balanced(n: int, seed: int) -> BooleanFunction:
    """A uniformly random balanced function, reproducible per seed.

    The table starts as 2^(n-1) ones followed by zeros and is shuffled
    in place by numpy's PCG64 generator, so the result is identical
    across platforms for a given seed.
    """
    check_n(n, EXHAUSTIVE_MAX_N)
    rng = np.random.Generator(np.random.PCG64(seed))
    vals = np.zeros(1 << n, dtype=np.uint8)
    vals[: 1 << (n - 1)] = 1
    rng.shuffle(vals)
    return BooleanFunction(n, table=vals, balanced=True)


def random_subset_function(n: int, seed: int | np.random.SeedSequence) -> BooleanFunction:
    """Each point independently mapped to 1 with probability 1/2.

    The seed is an int or a SeedSequence; either one fixes the result.  The
    function holds the draw itself, (2^n + 7) // 8 uniform PCG64 bytes, as
    its bitmap: point x is bit x & 7 of byte x >> 3.  Below n = 3 the one
    byte's bits past point 2^n - 1 are cleared.
    """
    check_n(n, EXHAUSTIVE_MAX_N)
    rng = np.random.Generator(np.random.PCG64(seed))
    draw = rng.integers(0, 256, size=((1 << n) + 7) // 8, dtype=np.uint8)
    if n < 3:
        draw &= (1 << (1 << n)) - 1
    return BooleanFunction(n, bitmap=draw)
