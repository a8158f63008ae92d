import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemorph import btk_chains
from cubemorph.btk_chains import (
    Signature,
    _mark_mask,
    adjacent_chain_scan,
    chain_count,
    chains_of,
    enumerate_partition,
    partition_covers_cube,
    signature,
    signature_distance,
)
from cubemorph.cube_core import EDGE_SCAN_MAX_N, format_bits, parse_point

from scalar_reference import chain_point


def hausdorff_reference(s1: Signature, s2: Signature) -> int:
    """Symmetrized max-min Hamming distance between the points of two chains."""
    e1, e2 = s1.element_bits_all(), s2.element_bits_all()
    return max(max(min((a ^ b).bit_count() for b in e2) for a in e1),
               max(min((a ^ b).bit_count() for a in e1) for b in e2))


def cross_excess_reference(s1: Signature, s2: Signature) -> int:
    """The largest dist(c_j, c'_j') - |j - j'| over every pair of levels of
    the two chains."""
    return max((a ^ b).bit_count() - abs(j - jj)
               for j, a in enumerate(s1.element_bits_all(), start=s1.k)
               for jj, b in enumerate(s2.element_bits_all(), start=s2.k))


def marked_positions(s: Signature) -> tuple[int, ...]:
    """1-based coordinates that the marking paired up."""
    return tuple(i + 1 for i in range(s.n) if (s.mask >> i) & 1)


def sig(s: str):
    """The signature of the point written s."""
    return signature(parse_point(s), len(s))


def residue(x: int, n: int) -> str:
    """x's unmarked symbols, read from its signature's gap positions."""
    return "".join(str(x >> i & 1) for i in signature(x, n).gap_positions())


def test_mark_worked_example():
    assert marked_positions(sig("01100110")) == (2, 3, 4, 5, 7, 8)
    assert residue(parse_point("01100110"), 8) == "01"


def test_mark_trivial_cases():
    assert marked_positions(sig("0011")) == ()
    assert marked_positions(sig("10")) == (1, 2)


def assert_chains_match_stack_pass(points, m):
    """chains_of gives each tail's k and its chain's point at every level
    k..m-k that the stack pass and chain_point give."""
    k, climb = chains_of(np.array(points, dtype=np.uint64), m)
    signatures = [Signature(x & _mark_mask(x, m), _mark_mask(x, m), m) for x in points]
    assert k.tolist() == [s.k for s in signatures]
    for steps in range(m + 1):
        got = climb(np.full(len(points), steps, dtype=np.int16)).tolist()
        assert [g for g, s in zip(got, signatures) if s.k + steps <= m - s.k] == [
            chain_point(s, s.k + steps) for s in signatures if s.k + steps <= m - s.k], steps


@pytest.mark.parametrize("n", range(0, 15))
def test_array_marking_matches_stack_pass_exhaustive(n):
    assert_chains_match_stack_pass(range(1 << n), n)


# tail widths at and next to chunk boundaries, for chunks of 12 or 16 bits
CHUNK_EDGE_WIDTHS = (11, 12, 13, 15, 16, 17, 23, 24, 25, 31, 32, 33, 35, 36, 37, 47, 48, 49,
                     59, 60, 61, 62, 63)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(CHUNK_EDGE_WIDTHS), st.integers(1, 63)).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1),
                                             min_size=1, max_size=40))))
def test_array_marking_matches_stack_pass_drawn(case):
    n, points = case
    # the all-zero and all-one tails join the drawn ones at every width
    assert_chains_match_stack_pass([*points, 0, (1 << n) - 1], n)


@pytest.mark.parametrize("m", CHUNK_EDGE_WIDTHS)
def test_chains_at_chunk_edges(m):
    rng = random.Random(m)
    assert_chains_match_stack_pass([rng.getrandbits(m) for _ in range(300)] + [0, (1 << m) - 1], m)


@pytest.mark.parametrize("m", range(0, 13))
def test_chain_layout_lists_every_chain_once(m):
    # chains_of over every m-bit tail: the climbs 0..m - 2k of each tail are
    # one chain of the partition, and every chain comes out
    tails = np.arange(1 << m, dtype=np.uint64)
    k, climb = chains_of(tails, m)
    levels = np.stack([climb(np.full(tails.size, j, dtype=np.int16)) for j in range(m + 1)])
    runs = {tuple(levels[:m + 1 - 2 * int(k[t]), t].tolist()) for t in range(1 << m)}
    chains = {s.element_bits_all() for s in enumerate_partition(m)} if m else {(0,)}
    assert runs == chains
    # each tail sits its level minus k above its chain's bottom
    assert np.array_equal(climb(np.bitwise_count(tails).astype(np.int16) - k), tails)
    assert k.tolist() == [signature(t, m).k if m else 0 for t in range(1 << m)]


def test_signature_examples():
    assert sig("01100110").text == "_1100_10"
    assert sig("0011").text == "____"
    assert sig("10").text == "10"


def _chain_text(s: str) -> list[str]:
    chain = sig(s)
    return [format_bits(b, chain.n) for b in chain.element_bits_all()]


def test_chain_of_examples():
    assert _chain_text("01100110") == ["01100010", "01100110", "11100110"]
    assert _chain_text("10") == ["10"]
    assert _chain_text("0011") == ["0000", "0001", "0011", "0111", "1111"]


def test_chain_membership():
    s = sig("01100110")
    assert sig("11100110") == s
    assert sig("01100111") != s


def test_chain_element_examples():
    s = sig("01100110")
    assert format_bits(chain_point(s, 3), 8) == "01100010"
    assert format_bits(chain_point(s, 5), 8) == "11100110"
    assert format_bits(chain_point(sig("10"), 1), 2) == "10"
    with pytest.raises(ValueError):
        chain_point(s, 2)
    with pytest.raises(ValueError):
        chain_point(s, 6)


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
        x = rng.getrandbits(n)
        base = signature(x, n)
        for _ in range(10):
            seeded = signature(x, n, order_seed=rng.getrandbits(32))
            assert seeded == base


def test_marked_string_residue_shape():
    rng = random.Random(9)
    for _ in range(500):
        n = rng.randint(1, 18)
        r = residue(rng.getrandbits(n), n)
        assert r == "0" * r.count("0") + "1" * r.count("1")


def test_chain_shape_properties():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 16)
        s = signature(rng.getrandbits(n), n)
        elems = s.element_bits_all()
        assert len(elems) == n - 2 * s.k + 1
        for j, b in enumerate(elems, start=s.k):
            assert b.bit_count() == j
            assert chain_point(s, j) == b
        for a, b in zip(elems, elems[1:]):
            assert (a ^ b).bit_count() == 1


def test_signature_distance_examples():
    x = parse_point("01100110")
    assert signature_distance(x, x, 8) == 0
    assert signature_distance(x, parse_point("01100010"), 8) == 0
    assert signature_distance(x, parse_point("01100111"), 8) == 2


def test_hausdorff_examples():
    s = sig("01100110")
    assert hausdorff_reference(s, s) == 0
    single = sig("10")
    big = sig("00")
    assert hausdorff_reference(single, big) == 2
    assert hausdorff_reference(big, single) == 2


@pytest.mark.parametrize("n", range(1, 10))
def test_edge_scan_matches_per_edge_reference(n):
    # the scan's maxima, recomputed edge by edge from the chains' points
    sigs = [signature(x, n) for x in range(1 << n)]
    haus = sig_dist = gap = excess = 0
    for x in range(1 << n):
        for b in range(n):
            y = x | 1 << b
            if y == x:
                continue
            haus = max(haus, hausdorff_reference(sigs[x], sigs[y]))
            sig_dist = max(sig_dist, signature_distance(x, y, n))
            gap = max(gap, abs(sigs[x].k - sigs[y].k))
            excess = max(excess, cross_excess_reference(sigs[x], sigs[y]))
    r = adjacent_chain_scan(n)
    assert (r.max_hausdorff, r.max_signature_distance, r.max_level_gap, r.max_cross_excess) == (
        haus, sig_dist, gap, excess)


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


def test_edge_scan_full_width_retry(monkeypatch):
    # with no band, a block is read again at every pair of levels whenever
    # its diagonal alone leaves a Hausdorff distance above 1
    banded = [adjacent_chain_scan(n) for n in (15, EDGE_SCAN_MAX_N)]
    bands = []
    hausdorff = btk_chains._hausdorff
    monkeypatch.setattr(btk_chains, "_HAUSDORFF_BAND", 0)
    monkeypatch.setattr(btk_chains, "_hausdorff", lambda *a: bands.append(a[-1]) or hausdorff(*a))
    assert [astuple(adjacent_chain_scan(n)) for n in range(1, 15)] == EDGE_SCAN_PINS
    assert {band for band in bands if band} == set(range(2, 15))
    assert [adjacent_chain_scan(n) for n in (15, EDGE_SCAN_MAX_N)] == banded


def test_case_split_generator():
    worst = 0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    lo = parse_point("0" * a + "1" * b + "0" + "0" * c + "1" * d)
                    hi = parse_point("0" * a + "1" * b + "1" + "0" * c + "1" * d)
                    worst = max(worst, signature_distance(lo, hi, a + b + c + d + 1))
    assert worst == 3


def test_enumerated_signatures_are_the_markings_of_their_points():
    # the enumeration's gap rule yields exactly the signatures that the
    # marking gives the points of each chain, exhaustively for n <= 10
    for n in range(1, 11):
        for s in enumerate_partition(n):
            assert all(signature(x, n) == s for x in s.element_bits_all())
