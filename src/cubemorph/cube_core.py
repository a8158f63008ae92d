"""Points of the Hamming cube and the boolean functions that live on it.

Coordinate convention: a point of the n-cube is a Python int in which
coordinate i (1-based) occupies bit i-1.  The string form puts coordinate 1
LEFTMOST, so ``parse_point("100")`` has coordinate 1 set and equals int 1;
the codec owns this reversal and nothing else in the package needs to know
about it.

Size caps: exhaustive operations stop at n = 30 (2**30 table entries);
formula-only evaluation is allowed up to n = 63 so points always fit a
machine word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXHAUSTIVE_MAX_N = 30
FORMULA_MAX_N = 63

_TABLE_MAGIC = b"CMBF"
_TABLE_VERSION = 1


def popcount(bits: int) -> int:
    return bits.bit_count()


def popcount_array(arr: np.ndarray) -> np.ndarray:
    """Per-element popcount of an integer array."""
    return np.bitwise_count(arr)


@dataclass(frozen=True)
class Point:
    """A vertex of the n-dimensional Hamming cube."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= FORMULA_MAX_N:
            raise ValueError(f"dimension must be in 1..{FORMULA_MAX_N}, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits 0x{self.bits:x} out of range for n={self.n}")

    def coordinate(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate {i} out of range 1..{self.n}")
        return (self.bits >> (i - 1)) & 1

    def __str__(self) -> str:
        return format_point(self)


def parse_point(s: str) -> Point:
    """Parse a bit string, leftmost character = coordinate 1."""
    if not s or any(c not in "01" for c in s):
        raise ValueError(f"point string must match [01]+, got {s!r}")
    bits = 0
    for i, c in enumerate(s):
        if c == "1":
            bits |= 1 << i
    return Point(bits, len(s))


def format_point(x: Point) -> str:
    return format_bits(x.bits, x.n)


def format_bits(bits: int, n: int) -> str:
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(n))


def weight(x: Point) -> int:
    """Number of 1-coordinates."""
    return popcount(x.bits)


def dist(x: Point, y: Point) -> int:
    """Hamming distance between two points of the same cube."""
    if x.n != y.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {y.n}")
    return popcount(x.bits ^ y.bits)


def flip(x: Point, i: int) -> Point:
    """Toggle coordinate i (1-based)."""
    if not 1 <= i <= x.n:
        raise ValueError(f"direction {i} out of range 1..{x.n}")
    return Point(x.bits ^ (1 << (i - 1)), x.n)


def _check_exhaustive(n: int, cap: int = EXHAUSTIVE_MAX_N) -> None:
    if n > cap:
        raise ValueError(f"n={n} exceeds the exhaustive cap of {cap}")


class BooleanFunction:
    """A function {0,1}^n -> {0,1}, formula-backed or table-backed.

    Named formulas evaluate directly from the packed point; table-backed
    functions store the truth table as a packed little-endian bitmap
    (bit x of the function sits at byte x>>3, bit x&7).
    """

    _FORMULAS = ("majority", "dictator", "xor")

    def __init__(self, n: int, *, name: str | None = None,
                 table: np.ndarray | None = None, balanced: bool = False):
        if name is not None:
            if name not in self._FORMULAS:
                raise ValueError(f"unknown formula {name!r}")
            if table is not None:
                raise ValueError("give either a formula name or a table, not both")
            if not 1 <= n <= FORMULA_MAX_N:
                raise ValueError(f"formula dimension must be in 1..{FORMULA_MAX_N}")
        else:
            if table is None:
                raise ValueError("table-backed function needs a table")
            _check_exhaustive(n)
            expected = ((1 << n) + 7) // 8
            if table.dtype != np.uint8 or table.size != expected:
                raise ValueError(f"packed table must be {expected} uint8 bytes")
        self.n = n
        self.name = name
        self._packed = table
        self._unpacked: np.ndarray | None = None
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

    @classmethod
    def from_values(cls, n: int, values, balanced: bool = False) -> "BooleanFunction":
        """Build from an iterable/array of 2^n bits indexed by packed point."""
        _check_exhaustive(n)
        arr = np.asarray(values, dtype=np.uint8)
        if arr.size != 1 << n:
            raise ValueError(f"expected {1 << n} values, got {arr.size}")
        packed = np.packbits(arr, bitorder="little")
        return cls(n, table=packed, balanced=balanced)

    @classmethod
    def from_ones(cls, n: int, ones, balanced: bool = False) -> "BooleanFunction":
        """Build from the set of packed points mapped to 1."""
        vals = np.zeros(1 << n, dtype=np.uint8)
        vals[list(ones)] = 1
        return cls.from_values(n, vals, balanced=balanced)

    # -- evaluation ---------------------------------------------------

    def value(self, bits: int) -> int:
        if not 0 <= bits < (1 << self.n):
            raise ValueError(f"point 0x{bits:x} out of range for n={self.n}")
        if self.name == "majority":
            return 1 if 2 * popcount(bits) > self.n else 0
        if self.name == "dictator":
            return bits & 1
        if self.name == "xor":
            return popcount(bits) & 1
        return int((self._packed[bits >> 3] >> (bits & 7)) & 1)

    def __call__(self, x: Point) -> int:
        if x.n != self.n:
            raise ValueError(f"dimension mismatch: function n={self.n}, point n={x.n}")
        return self.value(x.bits)

    def values(self) -> np.ndarray:
        """Full truth table as a uint8 array of 2^n entries (cached)."""
        _check_exhaustive(self.n)
        if self._unpacked is None:
            if self._packed is not None:
                self._unpacked = np.unpackbits(
                    self._packed, count=1 << self.n, bitorder="little")
            else:
                idx = np.arange(1 << self.n, dtype=np.uint64)
                if self.name == "majority":
                    self._unpacked = (2 * popcount_array(idx) > self.n).astype(np.uint8)
                elif self.name == "dictator":
                    self._unpacked = (idx & 1).astype(np.uint8)
                else:
                    self._unpacked = (popcount_array(idx) & 1).astype(np.uint8)
        return self._unpacked

    def ones_count(self) -> int:
        if self.name == "majority":
            from math import comb
            return sum(comb(self.n, w) for w in range(self.n // 2 + 1, self.n + 1))
        if self.name in ("dictator", "xor"):
            return 1 << (self.n - 1)
        return int(popcount_array(self._packed.astype(np.uint8)).sum())

    def is_balanced(self) -> bool:
        return self.ones_count() == 1 << (self.n - 1)

    def ones(self) -> np.ndarray:
        """Packed points mapped to 1, ascending."""
        return np.flatnonzero(self.values())

    # -- serialization ------------------------------------------------

    def to_bytes(self) -> bytes:
        """8-byte header (magic, version, n, padding) + little-endian bitmap."""
        _check_exhaustive(self.n)
        if self._packed is not None:
            packed = self._packed
        else:
            packed = np.packbits(self.values(), bitorder="little")
        return _TABLE_MAGIC + bytes([_TABLE_VERSION, self.n, 0, 0]) + packed.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BooleanFunction":
        if len(data) < 8 or data[:4] != _TABLE_MAGIC:
            raise ValueError("bad function table header")
        version, n = data[4], data[5]
        if version != _TABLE_VERSION:
            raise ValueError(f"unsupported table version {version}")
        body = np.frombuffer(data[8:], dtype=np.uint8)
        expected = ((1 << n) + 7) // 8
        if body.size != expected:
            raise ValueError(f"expected {expected} bitmap bytes, got {body.size}")
        return cls(n, table=body.copy())

    def __repr__(self) -> str:
        kind = self.name if self.name else "table"
        return f"BooleanFunction(n={self.n}, {kind})"


def random_balanced(n: int, seed: int) -> BooleanFunction:
    """A uniformly random balanced function, reproducible per seed.

    The table starts as 2^(n-1) ones followed by zeros and is shuffled
    in place by numpy's PCG64 generator, so the result is identical
    across platforms for a given seed.
    """
    _check_exhaustive(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    vals = np.zeros(1 << n, dtype=np.uint8)
    vals[: 1 << (n - 1)] = 1
    rng.shuffle(vals)
    return BooleanFunction.from_values(n, vals, balanced=True)


def random_subset_function(n: int, seed: int | np.random.SeedSequence) -> BooleanFunction:
    """Each point independently mapped to 1 with probability 1/2.

    The seed is an int or a SeedSequence; either one fixes the result.
    """
    _check_exhaustive(n)
    rng = np.random.Generator(np.random.PCG64(seed))
    nbytes = ((1 << n) + 7) // 8
    packed = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
    if (1 << n) % 8:
        packed[-1] &= (1 << ((1 << n) % 8)) - 1
    return BooleanFunction(n, table=packed)
