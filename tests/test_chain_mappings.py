import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemorph.btk_chains import Signature, signature
from cubemorph.chain_mappings import (
    dictator_to_majority_map,
    majority_to_dictator_map,
    majority_to_xor_map,
)
from cubemorph.cube_core import BooleanFunction, format_bits, parse_point
from cubemorph.stretch_metrics import is_mapping_between, stretch_report

from scalar_reference import chain_point


def _tail_signature(bits: int, m: int) -> Signature:
    return signature(bits, m) if m else Signature(0, 0, 0)


def maj_to_dict_reference(x: int, n: int) -> int:
    """The chain formula one point at a time: the reference for the kernels."""
    m = n - 1
    xp = x & ((1 << m) - 1)
    xn = x >> m
    sig = _tail_signature(xp, m)
    k = sig.k
    j = xp.bit_count()
    if 2 * (j + xn) >= n + 1:
        return 1 | (chain_point(sig, 2 * j - (n - k) + xn) << 1)
    return chain_point(sig, (n + k) - 2 * j - 1 - xn) << 1


def dict_to_maj_reference(y: int, n: int) -> int:
    m = n - 1
    z = y >> 1
    sig = _tail_signature(z, m)
    k = sig.k
    level = z.bit_count()
    if y & 1:
        xn = (level + n - k) & 1
        j = (level + n - k - xn) // 2
    else:
        xn = (n + k - 1 - level) & 1
        j = (n + k - 1 - level - xn) // 2
    return chain_point(sig, j) | (xn << m)

# the full 6-point block of the n=3 chain {00, 01, 11}
EXAMPLE_BLOCK = [
    ("111", "111"),
    ("110", "101"),
    ("011", "100"),
    ("010", "000"),
    ("001", "001"),
    ("000", "011"),
]


@pytest.mark.parametrize("src,img", EXAMPLE_BLOCK)
def test_example_block_forward(src, img):
    assert format_bits(majority_to_dictator_map(3).apply_bits(parse_point(src)), 3) == img


@pytest.mark.parametrize("src,img", EXAMPLE_BLOCK)
def test_example_block_inverse(src, img):
    assert format_bits(dictator_to_majority_map(3).apply_bits(parse_point(img)), 3) == src
    assert format_bits(majority_to_dictator_map(3).inverse_bits(parse_point(img)), 3) == src


def test_even_n_rejected():
    with pytest.raises(ValueError):
        majority_to_dictator_map(4)
    with pytest.raises(ValueError):
        dictator_to_majority_map(2)
    with pytest.raises(ValueError):
        majority_to_xor_map(6)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
def test_function_mapping_law(n):
    phi = majority_to_dictator_map(n)
    assert is_mapping_between(phi, BooleanFunction.majority(n),
                              BooleanFunction.dictator(n))


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11])
def test_two_sided_inverse(n):
    phi = majority_to_dictator_map(n)
    xs = np.arange(1 << n, dtype=np.uint64)
    table = phi.table()
    assert np.array_equal(phi.inverse(table.astype(np.uint64)), xs)
    assert np.array_equal(phi.forward(phi.inverse(xs)), xs)
    for x in random.Random(n).sample(range(1 << n), min(40, 1 << n)):
        y = int(table[x])
        assert dictator_to_majority_map(n).apply_bits(y) == x
        assert phi.apply_bits(x) == y


@pytest.mark.parametrize("n", range(1, 14, 2))
def test_kernels_match_scalar_formula_exhaustive(n):
    xs = np.arange(1 << n, dtype=np.uint64)
    forward = [maj_to_dict_reference(x, n) for x in range(1 << n)]
    backward = [dict_to_maj_reference(y, n) for y in range(1 << n)]
    assert majority_to_dictator_map(n).table().tolist() == forward
    assert dictator_to_majority_map(n).table().tolist() == backward
    assert majority_to_dictator_map(n).inverse(xs).tolist() == backward


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 31).map(lambda h: 2 * h + 1).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1),
                                             min_size=1, max_size=40))))
def test_kernels_match_scalar_formula_drawn(case):
    n, points = case
    phi = majority_to_dictator_map(n)
    xs = np.array(points, dtype=np.uint64)
    ys = phi.forward(xs)
    assert ys.tolist() == [maj_to_dict_reference(x, n) for x in points]
    assert phi.inverse(xs).tolist() == [dict_to_maj_reference(y, n) for y in points]
    assert phi.inverse(ys).tolist() == points


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_lipschitz_bound(n):
    rep = stretch_report(majority_to_dictator_map(n))
    assert rep.max_stretch <= 11


def test_half_cube_respect():
    for n in (3, 5, 9):
        t = majority_to_dictator_map(n).table()
        w = np.bitwise_count(np.arange(1 << n, dtype=np.uint64))
        assert bool((((t & 1) == 1) == (w >= (n + 1) // 2)).all())


def test_maj_to_xor_examples():
    phi = majority_to_xor_map(3)
    assert format_bits(phi.apply_bits(parse_point("111")), 3) == "001"
    assert format_bits(phi.apply_bits(parse_point("010")), 3) == "000"
    assert format_bits(phi.apply_bits(parse_point("001")), 3) == "011"


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_composition_law_and_bound(n):
    phi = majority_to_xor_map(n)
    assert is_mapping_between(phi, BooleanFunction.majority(n), BooleanFunction.xor(n))
    assert stretch_report(phi).max_stretch <= 22
    table = phi.table()
    assert np.array_equal(phi.inverse(table.astype(np.uint64)), np.arange(1 << n))
    for x in range(min(20, 1 << n)):
        assert phi.inverse_bits(int(table[x])) == x


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 7).map(lambda h: 2 * h + 1),
       st.sampled_from([majority_to_dictator_map, majority_to_xor_map]), st.booleans())
def test_sliced_table_matches_one_forward_call(n, build, inverse):
    # table() calls forward on slices of points; one call takes every point
    phi = build(n).inverse_mapping() if inverse else build(n)
    xs = np.arange(1 << n, dtype=np.uint64)
    assert phi.table().tolist() == phi.forward(xs).tolist()
