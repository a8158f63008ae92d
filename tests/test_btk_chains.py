import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemorph.btk_chains import (
    Signature,
    _mark_mask,
    adjacent_chain_scan,
    chain_count,
    enumerate_partition,
    mark_masks,
    partition_covers_cube,
    signature,
    signature_distance,
)
from cubemorph.cube_core import EDGE_SCAN_MAX_N, Point, parse_point, popcount


def hausdorff_reference(s1: Signature, s2: Signature) -> int:
    """Symmetrized max-min Hamming distance between the points of two chains."""
    e1, e2 = s1.element_bits_all(), s2.element_bits_all()
    return max(max(min(popcount(a ^ b) for b in e2) for a in e1),
               max(min(popcount(a ^ b) for a in e1) for b in e2))


def marked_positions(s: Signature) -> tuple[int, ...]:
    """1-based coordinates that the marking paired up."""
    return tuple(i + 1 for i in range(s.n) if (s.mask >> i) & 1)


def residue(x: Point) -> str:
    """x's unmarked symbols, read from its signature's gap positions."""
    return "".join(str(x.bits >> i & 1) for i in signature(x).gap_positions())


def test_mark_worked_example():
    x = parse_point("01100110")
    assert marked_positions(signature(x)) == (2, 3, 4, 5, 7, 8)
    assert residue(x) == "01"


def test_mark_trivial_cases():
    assert marked_positions(signature(parse_point("0011"))) == ()
    assert marked_positions(signature(parse_point("10"))) == (1, 2)


@pytest.mark.parametrize("n", range(0, 15))
def test_array_marking_matches_stack_pass_exhaustive(n):
    masks = mark_masks(np.arange(1 << n, dtype=np.uint64), n)
    assert masks.tolist() == [_mark_mask(x, n) for x in range(1 << n)]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 63).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1),
                                             min_size=1, max_size=40))))
def test_array_marking_matches_stack_pass_drawn(case):
    n, points = case
    masks = mark_masks(np.array(points, dtype=np.uint64), n)
    assert masks.tolist() == [_mark_mask(x, n) for x in points]


def test_signature_examples():
    assert signature(parse_point("01100110")).text == "_1100_10"
    assert signature(parse_point("0011")).text == "____"
    assert signature(parse_point("10")).text == "10"


def test_signature_text_roundtrip():
    s = signature(parse_point("01100110"))
    assert Signature.from_text(s.text) == s
    with pytest.raises(ValueError):
        Signature.from_text("1_0")
    with pytest.raises(ValueError):
        Signature.from_text("01x")


def _chain_text(x: Point) -> list[str]:
    sig = signature(x)
    return [str(Point(b, sig.n)) for b in sig.element_bits_all()]


def test_chain_of_examples():
    assert _chain_text(parse_point("01100110")) == ["01100010", "01100110", "11100110"]
    assert _chain_text(parse_point("10")) == ["10"]
    assert _chain_text(parse_point("0011")) == ["0000", "0001", "0011", "0111", "1111"]


def test_chain_membership():
    s = signature(parse_point("01100110"))
    assert signature(parse_point("11100110")) == s
    assert signature(parse_point("01100111")) != s


def test_chain_element_examples():
    s = signature(parse_point("01100110"))
    assert str(s.element(3)) == "01100010"
    assert str(s.element(5)) == "11100110"
    assert str(signature(parse_point("10")).element(1)) == "10"
    with pytest.raises(ValueError):
        s.element(2)
    with pytest.raises(ValueError):
        s.element(6)


def test_partition_small_examples():
    assert [s.text for s in enumerate_partition(1)] == ["_"]
    texts = {s.text for s in enumerate_partition(2)}
    assert texts == {"__", "10"}
    assert sum(1 for _ in enumerate_partition(3)) == chain_count(3) == 3


def test_partition_covers_cube_small():
    for n in range(1, 11):
        chains, points = partition_covers_cube(n)
        assert chains == chain_count(n)
        assert points == 1 << n


def test_partition_streams_in_ascii_order():
    texts = [s.text for s in enumerate_partition(4)]
    assert texts == sorted(texts)
    assert len(texts) == 6


def test_partition_cap():
    with pytest.raises(ValueError):
        next(enumerate_partition(25))


def test_order_invariance_of_signature():
    # the marking order must never change the signature
    rng = random.Random(20260810)
    for _ in range(1000):
        n = rng.randint(1, 20)
        x = Point(rng.getrandbits(n), n)
        base = signature(x)
        for _ in range(10):
            seeded = signature(x, order_seed=rng.getrandbits(32))
            assert seeded == base


def test_marked_string_residue_shape():
    rng = random.Random(9)
    for _ in range(500):
        n = rng.randint(1, 18)
        r = residue(Point(rng.getrandbits(n), n))
        assert r == "0" * r.count("0") + "1" * r.count("1")


def test_chain_shape_properties():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 16)
        s = signature(Point(rng.getrandbits(n), n))
        elems = s.element_bits_all()
        assert len(elems) == s.top - s.k + 1
        for j, b in enumerate(elems, start=s.k):
            assert popcount(b) == j
            assert s.element_bits(j) == b
        for a, b in zip(elems, elems[1:]):
            assert popcount(a ^ b) == 1


def test_signature_distance_examples():
    x = parse_point("01100110")
    assert signature_distance(x, x) == 0
    assert signature_distance(x, parse_point("01100010")) == 0
    with pytest.raises(ValueError):
        signature_distance(x, parse_point("10"))


def test_hausdorff_examples():
    s = signature(parse_point("01100110"))
    assert hausdorff_reference(s, s) == 0
    single = signature(parse_point("10"))
    big = signature(parse_point("00"))
    assert hausdorff_reference(single, big) == 2
    assert hausdorff_reference(big, single) == 2


@pytest.mark.parametrize("n", range(1, 10))
def test_edge_scan_matches_per_edge_reference(n):
    # the scan's maxima, recomputed edge by edge from the chains' points
    sigs = [signature(Point(x, n)) for x in range(1 << n)]
    haus = sig_dist = gap = 0
    for x in range(1 << n):
        for b in range(n):
            y = x | 1 << b
            if y == x:
                continue
            haus = max(haus, hausdorff_reference(sigs[x], sigs[y]))
            sig_dist = max(sig_dist, signature_distance(Point(x, n), Point(y, n)))
            gap = max(gap, abs(sigs[x].k - sigs[y].k))
    r = adjacent_chain_scan(n)
    assert (r.max_hausdorff, r.max_signature_distance, r.max_level_gap) == (haus, sig_dist, gap)


def test_adjacent_chain_bounds_small():
    for n in range(1, 11):
        r = adjacent_chain_scan(n)
        assert r.edges == n << (n - 1)
        assert r.max_signature_distance <= 3
        assert r.max_level_gap <= 1
        assert r.max_cross_excess <= 6
        assert r.max_hausdorff <= 7


# adjacent_chain_scan(n) for n = 1..14, recorded from the per-edge scalar
# scan that the per-direction array scan replaced.
EDGE_SCAN_PINS = [
    (1, 1, 0, 0, 0, 0),
    (2, 4, 2, 1, 2, 2),
    (3, 12, 3, 1, 2, 2),
    (4, 32, 3, 1, 2, 3),
    (5, 80, 3, 1, 4, 3),
    (6, 192, 3, 1, 4, 3),
    (7, 448, 3, 1, 4, 3),
    (8, 1024, 3, 1, 4, 3),
    (9, 2304, 3, 1, 4, 3),
    (10, 5120, 3, 1, 4, 3),
    (11, 11264, 3, 1, 4, 3),
    (12, 24576, 3, 1, 4, 3),
    (13, 53248, 3, 1, 4, 3),
    (14, 114688, 3, 1, 4, 3),
]


def test_adjacent_chain_scan_pinned():
    assert [astuple(adjacent_chain_scan(n)) for n in range(1, 15)] == EDGE_SCAN_PINS
    assert sum(r[1] for r in EDGE_SCAN_PINS) == 212993
    assert astuple(adjacent_chain_scan(0)) == (0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        adjacent_chain_scan(EDGE_SCAN_MAX_N + 1)


def test_case_split_generator():
    worst = 0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    lo = parse_point("0" * a + "1" * b + "0" + "0" * c + "1" * d)
                    hi = parse_point("0" * a + "1" * b + "1" + "0" * c + "1" * d)
                    worst = max(worst, signature_distance(lo, hi))
    assert worst == 3


def test_canonical_signature_agrees_with_minimum_fill():
    # a signature is canonical exactly when re-marking its lowest chain
    # element reproduces it
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randint(1, 12)
        bits = mask = 0
        for i in range(n):
            c = rng.choice("01_")
            if c != "_":
                mask |= 1 << i
                if c == "1":
                    bits |= 1 << i
        if bin(mask).count("1") % 2:
            continue
        sig = Signature(bits, mask, n)
        expected = signature(Point(bits, n)) == sig
        assert sig.is_canonical() == expected
