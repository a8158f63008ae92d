import hashlib
from math import comb

import numpy as np
import pytest

from cubemorph.cube_core import (
    BooleanFunction,
    format_bits,
    parse_point,
    random_balanced,
    random_subset_function,
)
from scalar_reference import formula_value


def test_point_string_codec_roundtrip():
    for s in ("01100110", "0", "1", "0001", "111111"):
        assert format_bits(parse_point(s), len(s)) == s
    # coordinate 1 is the leftmost character and the lowest bit
    assert parse_point("100") == 1
    assert parse_point("001") == 4


def test_parse_point_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_point("01a")
    with pytest.raises(ValueError):
        parse_point("")


def test_point_validation():
    # a point has 1..63 coordinates, so that it and its image fit one uint64
    assert parse_point("1" * 63) == (1 << 63) - 1
    with pytest.raises(ValueError, match=r"^n must be in 1\.\.63, got 64$"):
        parse_point("0" * 64)
    with pytest.raises(ValueError):
        parse_point("")


def test_named_function_values():
    maj = BooleanFunction.majority(3)
    dic = BooleanFunction.dictator(3)
    xor = BooleanFunction.xor(3)
    assert maj.values()[parse_point("110")] == 1
    assert dic.values()[parse_point("011")] == 0
    assert xor.values()[parse_point("110")] == 0


def test_named_function_tables_match_formulas():
    for n in (1, 2, 3, 6, 9):
        for fn in (BooleanFunction.majority, BooleanFunction.dictator, BooleanFunction.xor):
            f = fn(n)
            vals = f.values()
            assert all(int(vals[x]) == formula_value(f.name, n, x) for x in range(1 << n))


def test_all_pairs_distance_positive_n12():
    n = 12
    idx = np.arange(1 << n, dtype=np.uint64)
    d = np.bitwise_count(idx[:, None] ^ idx[None, :])
    assert d[np.eye(1 << n, dtype=bool)].max() == 0
    assert d[~np.eye(1 << n, dtype=bool)].min() == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_formula_ones_count_is_the_closed_form(n):
    # counted over the built table: majority is the weights above n/2, and
    # dictator and parity are balanced
    majority = sum(comb(n, w) for w in range(n // 2 + 1, n + 1))
    assert BooleanFunction.majority(n).ones_count() == majority
    assert BooleanFunction.dictator(n).ones_count() == 1 << (n - 1)
    assert BooleanFunction.xor(n).ones_count() == 1 << (n - 1)
    assert BooleanFunction.majority(n).is_balanced() == (n % 2 == 1)


def test_random_balanced_is_balanced_and_deterministic():
    a = random_balanced(10, seed=7)
    b = random_balanced(10, seed=7)
    c = random_balanced(10, seed=8)
    assert a.ones_count() == 512
    assert np.array_equal(a.values(), b.values())
    assert not np.array_equal(a.values(), c.values())


def test_random_balanced_n1():
    f = random_balanced(1, seed=0)
    assert f.ones_count() == 1


def test_random_balanced_pointwise_frequency():
    # over many seeds, each point should be a 1-point about half the time
    n, trials = 4, 10_000
    acc = np.zeros(1 << n, dtype=np.int64)
    for seed in range(trials):
        acc += random_balanced(n, seed).values()
    freq = acc / trials
    assert freq.min() >= 0.45
    assert freq.max() <= 0.55


def test_table_serialization_roundtrip():
    # the bitmap is the function's packed form: one bit a point, 64 bytes at n = 9
    f = random_balanced(9, seed=3)
    data = f.bitmap()
    assert data.size == (1 << 9) // 8
    g = BooleanFunction(9, bitmap=data)
    assert g.n == 9
    assert np.array_equal(f.values(), g.values())


def test_table_serialization_of_formula():
    f = BooleanFunction.xor(5)
    g = BooleanFunction(5, bitmap=f.bitmap())
    assert np.array_equal(f.values(), g.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_serialization_roundtrip_partial_byte(n):
    for seed in range(4):
        f = random_subset_function(n, seed)
        data = f.bitmap()
        assert data.size == 1
        g = BooleanFunction(n, bitmap=data)
        assert g.n == n and np.array_equal(g.values(), f.values())
        assert np.array_equal(BooleanFunction(n, table=g.values()).bitmap(), data)


def test_table_holds_zeros_and_ones():
    f = BooleanFunction(2, table=np.array([0, 1, 1, 0], dtype=np.uint8))
    assert f.values().tolist() == [0, 1, 1, 0]
    assert f.is_balanced() and f.values()[2] == 1
    with pytest.raises(ValueError):
        BooleanFunction(2, table=np.array([0, 2, 1, 0], dtype=np.uint8))
    with pytest.raises(ValueError):
        BooleanFunction(2, table=np.zeros(5, dtype=np.uint8))


def test_balanced_flag_enforced():
    with pytest.raises(ValueError):
        BooleanFunction(3, table=np.array([1, 0, 0, 0, 0, 0, 0, 0], np.uint8), balanced=True)
    BooleanFunction(3, table=np.array([1, 1, 1, 1, 0, 0, 0, 0], np.uint8), balanced=True)


def test_random_subset_function_density():
    f = random_subset_function(14, seed=1)
    density = f.ones_count() / (1 << 14)
    assert 0.45 < density < 0.55


def test_exhaustive_caps():
    with pytest.raises(ValueError):
        random_balanced(31, seed=0)
    with pytest.raises(ValueError):
        BooleanFunction(31, table=np.zeros(0, np.uint8))


# sha256 of random_subset_function(n, seed)'s truth table; n <= 2 draws one
# byte of which only 2^n bits are used, n = 3 exactly one byte
SUBSET_PINS = [
    (1, 5, "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7"),
    (2, 6, "cbd95ae5ef8810691e3fc7efb7c39ef9ffb661135d858aa0ccc81fc74a0160ae"),
    (3, 7, "29ca6fca9f9ebb1d333c81ce76b51f4b0132ad06b9a0b88a5ef01a4358742545"),
    (12, 8, "6769093f9985742e876ecf559846fed8282347e3de58e0c281750815cbe0773a"),
]


@pytest.mark.parametrize("n,seed,digest", SUBSET_PINS, ids=[f"n{n}" for n, *_ in SUBSET_PINS])
def test_random_subset_function_pinned(n, seed, digest):
    assert hashlib.sha256(random_subset_function(n, seed).values().tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n", range(1, 13))
def test_random_subset_function_holds_its_draw(n):
    # point x is bit x & 7 of byte x >> 3 of the PCG64 draw; for n = 1 and 2
    # the one byte's padding bits are cleared, so the bitmap is the packed
    # values either way
    for seed in range(4):
        rng = np.random.Generator(np.random.PCG64(seed))
        draw = rng.integers(0, 256, size=((1 << n) + 7) // 8, dtype=np.uint8)
        f = random_subset_function(n, seed)
        assert np.array_equal(f.values(), np.unpackbits(draw, count=1 << n, bitorder="little"))
        assert np.array_equal(f.bitmap(), np.packbits(f.values(), bitorder="little"))


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_bitmap_and_table_forms_agree(n):
    for f in [random_subset_function(n, seed) for seed in range(4)] + [random_balanced(n, 5)]:
        table = BooleanFunction(n, table=f.values())

        def packed():  # a fresh function that holds only the bitmap
            return BooleanFunction(n, bitmap=f.bitmap(), balanced=table.is_balanced())

        assert packed().ones_count() == table.ones_count()
        assert packed().is_balanced() == table.is_balanced()
        assert np.array_equal(packed().bitmap(), table.bitmap())
        assert np.array_equal(packed().values(), table.values())
        assert [int(packed().values()[x]) for x in range(1 << n)] == table.values().tolist()


def test_from_bytes_rejects_set_padding_bits():
    # n = 2 uses bits 0..3 of the one bitmap byte; bit 4 is padding
    with pytest.raises(ValueError, match="padding"):
        BooleanFunction(2, bitmap=np.array([0x10], np.uint8))
    with pytest.raises(ValueError, match="padding"):
        BooleanFunction(2, bitmap=np.array([0x11], np.uint8))
    assert BooleanFunction(2, bitmap=np.array([0x01], np.uint8)).values().tolist() == [1, 0, 0, 0]


def test_bitmap_constructor_checks():
    for bad in (np.zeros(1, np.uint8), np.zeros(2, np.uint16), np.zeros(4, np.uint8)[::2]):
        with pytest.raises(ValueError, match="2 contiguous uint8 bytes"):
            BooleanFunction(4, bitmap=bad)
    with pytest.raises(ValueError, match="padding"):
        BooleanFunction(1, bitmap=np.array([0x04], np.uint8))
    with pytest.raises(ValueError):
        BooleanFunction(3, table=np.zeros(8, np.uint8), bitmap=np.zeros(1, np.uint8))
    with pytest.raises(ValueError):
        BooleanFunction(3, name="xor", bitmap=np.zeros(1, np.uint8))
    with pytest.raises(ValueError, match="not balanced"):
        BooleanFunction(3, bitmap=np.array([0x07], np.uint8), balanced=True)
    assert BooleanFunction(2, bitmap=np.array([0x0F], np.uint8)).values().tolist() == [1] * 4
