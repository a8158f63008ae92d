import hashlib
import json
from fractions import Fraction
from itertools import permutations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubemorph import checks, stretch_metrics
from cubemorph.chain_mappings import majority_to_dictator_map, majority_to_xor_map
from cubemorph.cube_core import BooleanFunction, random_balanced
from cubemorph.gf2_maps import prefix_xor_mapping, tree_mapping
from cubemorph.random_matching import build_dict_to_random_details
from cubemorph.stretch_metrics import (
    Mapping,
    _draw_proposals,
    _middle_binomial_squares,
    exhaustive_min_avg_stretch,
    exhaustive_min_directional,
    exhaustive_min_max_stretch,
    is_mapping_between,
    local_search_min_stretch,
    stretch_report,
    typical_fraction,
)


def naive_min_over_bijections(f, g, n, metric, direction=None):
    """Independent oracle: plain itertools enumeration, no pruning.  Returns
    the least score and the first table in ascending order that reaches it;
    "direction" scores only the edges along that direction."""
    f_vals, g_vals = f.values().tolist(), g.values().tolist()
    targets = [[y for y in range(1 << n) if g_vals[y] == c] for c in (0, 1)]
    bits = [direction - 1] if metric == "direction" else range(n)
    edges = [(x, x | (1 << b)) for x in range(1 << n)
             for b in bits if not x & (1 << b)]
    best = None
    for p0 in permutations(targets[0]):
        for p1 in permutations(targets[1]):
            images = [iter(p0), iter(p1)]
            t = [next(images[c]) for c in f_vals]
            ds = [(t[a] ^ t[b]).bit_count() for a, b in edges]
            val = max(ds) if metric == "max" else sum(ds)
            if best is None or (val, t) < best:
                best = (val, t)
    return best


def test_is_mapping_between_examples():
    xor3 = BooleanFunction.xor(3)
    assert is_mapping_between(Mapping.identity(3), xor3, xor3)
    assert is_mapping_between(majority_to_dictator_map(3),
                              BooleanFunction.majority(3), BooleanFunction.dictator(3))
    assert not is_mapping_between(Mapping.identity(3), xor3, BooleanFunction.majority(3))


def test_is_mapping_between_rejects_non_bijection():
    const = Mapping(2, np.zeros_like, np.zeros_like, name="collapse")
    assert not is_mapping_between(const, BooleanFunction.xor(2), BooleanFunction.xor(2))


def test_is_mapping_between_checks_every_slice():
    # n = 18: the law is checked in four slices of 2^16
    f = random_balanced(18, seed=4)
    dic = BooleanFunction.dictator(18)
    table = build_dict_to_random_details(f).mapping.table().copy()
    assert is_mapping_between(Mapping.from_table(18, table), dic, f)
    # the last point is odd, the one before it even: swapped, both break the law
    table[[-1, -2]] = table[[-2, -1]]
    assert not is_mapping_between(Mapping.from_table(18, table), dic, f)


def test_is_mapping_between_dimension_checks():
    with pytest.raises(ValueError):
        is_mapping_between(Mapping.identity(3), BooleanFunction.xor(3),
                           BooleanFunction.xor(4))
    with pytest.raises(ValueError):
        stretch_report(Mapping.identity(25))


def test_identity_report():
    for n in (1, 4, 8):
        rep = stretch_report(Mapping.identity(n))
        assert rep.avg == 1
        assert rep.max_stretch == 1
        assert rep.histogram == {1: n << (n - 1)}
        assert rep.edges_total == n << (n - 1)


def test_prefix_report_n3():
    rep = stretch_report(prefix_xor_mapping(3))
    assert rep.avg == Fraction(5, 3)
    assert rep.max_stretch == 2
    assert rep.per_direction == (Fraction(1), Fraction(2), Fraction(2))


def test_per_direction_consistency():
    rep = stretch_report(tree_mapping(9))
    assert sum(rep.per_direction, Fraction(0)) / rep.n == rep.avg
    assert sum(rep.histogram.values()) == rep.edges_total
    assert max(rep.histogram) == rep.max_stretch


def test_directional_examples():
    assert stretch_report(Mapping.identity(5)).per_direction[3 - 1] == 1
    per_direction = stretch_report(prefix_xor_mapping(3)).per_direction
    assert per_direction[1 - 1] == 1
    assert per_direction[3 - 1] == 2
    assert len(per_direction) == 3


def test_avg_stretch_at_least_one_for_bijections():
    rng = np.random.Generator(np.random.PCG64(5))
    for n in (2, 3, 6):
        table = rng.permutation(1 << n)
        rep = stretch_report(Mapping.from_table(n, table))
        assert rep.avg >= 1


def _per_edge_rows(table, n):
    """Distance histogram per direction, one gather per direction over the
    lower ends of its edges."""
    xs = np.arange(1 << n)
    rows = []
    for b in range(n):
        lo = xs[(xs >> b) & 1 == 0]
        d = np.bitwise_count((table[lo] ^ table[lo | 1 << b]).astype(np.uint64))
        rows.append(np.bincount(d, minlength=n + 1))
    return rows


def _check_against_per_edge(table, n):
    rows = _per_edge_rows(table, n)
    table = table.astype(np.uint32)
    assert np.array_equal(stretch_metrics._exhaustive_stats(table, n), rows)
    rep = stretch_report(Mapping.from_table(n, table))
    half = 1 << (n - 1)
    assert rep.per_direction == tuple(
        Fraction(int(r @ np.arange(n + 1)), half) for r in rows)
    total = sum(rows)
    assert rep.histogram == {d: int(c) for d, c in enumerate(total) if c}
    assert rep.avg == Fraction(int(total @ np.arange(n + 1)), n * half)
    assert rep.max_stretch == max(rep.histogram)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2 ** 32))
@example(10, 0)
def test_exhaustive_pass_matches_per_edge_reference(n, seed):
    # blocks of 8 entries, so directions 4..n pair whole blocks
    table = np.random.Generator(np.random.PCG64(seed)).permutation(1 << n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stretch_metrics, "_BLOCK", 1 << 3)
        _check_against_per_edge(table, n)


def test_exhaustive_pass_matches_per_edge_reference_at_block_size():
    n = 17  # directions 16 and 17 pair whole blocks
    _check_against_per_edge(np.random.Generator(np.random.PCG64(17)).permutation(1 << n), n)


@pytest.mark.parametrize("block", [1 << 3, 1 << 7])
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32))
def test_exhaustive_pass_pairs_every_kind_of_direction(block, n, seed):
    # blocks of 2^3 entries: directions 1..3 on the transpose, the rest across
    # blocks; of 2^7: 1..5 on the transpose, 6 and 7 in the block, 8..12 across
    table = np.random.Generator(np.random.PCG64(seed)).permutation(1 << n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stretch_metrics, "_BLOCK", block)
        _check_against_per_edge(table, n)


@pytest.mark.parametrize("block", [1 << 3, 1 << 7, 1 << 15])
@pytest.mark.parametrize("n", [2, 6, 12])
def test_exhaustive_pass_counts_antipodal_edges(block, n):
    # x -> x ^ (2^n - 2) on odd x: every direction-1 edge goes to two
    # antipodal points, so the top pair key n + 256 n is counted
    xs = np.arange(1 << n)
    table = xs ^ np.where(xs & 1, (1 << n) - 2, 0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stretch_metrics, "_BLOCK", block)
        _check_against_per_edge(table, n)
        assert stretch_metrics._exhaustive_stats(table.astype(np.uint32), n)[0, n] == 1 << (n - 1)


def test_sampled_matches_exhaustive_within_3_se():
    phi = majority_to_dictator_map(9)
    exact = stretch_report(phi)
    sampled = stretch_report(phi, mode="sampled", samples=4000, seed=17)
    assert sampled.samples == 4000
    assert abs(float(sampled.avg) - float(exact.avg)) <= 3 * sampled.stderr
    assert sampled.max_stretch <= exact.max_stretch


def test_sampled_requires_seed_and_samples():
    with pytest.raises(ValueError):
        stretch_report(Mapping.identity(4), mode="sampled")


def test_sampled_deterministic():
    phi = tree_mapping(8)
    a = stretch_report(phi, mode="sampled", samples=500, seed=3)
    b = stretch_report(phi, mode="sampled", samples=500, seed=3)
    assert a.avg == b.avg and a.histogram == b.histogram


# ground truth at n=3, frozen from the naive 576-bijection enumeration below
XOR_TO_MAJ_MIN_AVG = Fraction(3, 2)
XOR_TO_MAJ_MIN_DIRECTIONAL = (Fraction(3, 2), Fraction(3, 2), Fraction(3, 2))
DICT_TO_MAJ_MIN_MAX = 2


def test_oracle_identity_floor():
    xor2 = BooleanFunction.xor(2)
    v, wit = exhaustive_min_avg_stretch(xor2, xor2)
    assert v == 1
    assert is_mapping_between(wit, xor2, xor2)


def test_oracle_xor_to_majority_ground_truth():
    xor3, maj3 = BooleanFunction.xor(3), BooleanFunction.majority(3)
    v, wit = exhaustive_min_avg_stretch(xor3, maj3)
    assert v == XOR_TO_MAJ_MIN_AVG
    assert v > 1
    assert is_mapping_between(wit, xor3, maj3)
    naive_total, _ = naive_min_over_bijections(xor3, maj3, 3, "avg")
    assert Fraction(naive_total, 12) == v


def test_oracle_directional_minima():
    xor3, maj3 = BooleanFunction.xor(3), BooleanFunction.majority(3)
    for i in (1, 2, 3):
        v, wit = exhaustive_min_directional(xor3, maj3, i)
        assert v == XOR_TO_MAJ_MIN_DIRECTIONAL[i - 1]
        assert stretch_report(wit).per_direction[i - 1] == v


def test_oracle_dict_to_majority_min_max():
    dic3, maj3 = BooleanFunction.dictator(3), BooleanFunction.majority(3)
    v, wit = exhaustive_min_max_stretch(dic3, maj3)
    assert v == DICT_TO_MAJ_MIN_MAX
    assert v >= 2
    assert naive_min_over_bijections(dic3, maj3, 3, "max")[0] == v
    assert is_mapping_between(wit, dic3, maj3)


def _assert_oracles_match_naive(f, g):
    n = f.n
    oracles = [("avg", None, exhaustive_min_avg_stretch(f, g), n << (n - 1)),
               ("max", None, exhaustive_min_max_stretch(f, g), 1)]
    oracles += [("direction", i, exhaustive_min_directional(f, g, i), 1 << (n - 1))
                for i in range(1, n + 1)]
    for metric, i, (value, witness), edges in oracles:
        total, table = naive_min_over_bijections(f, g, n, metric, i)
        assert value == Fraction(total, edges), (metric, i)
        assert witness.table().tolist() == table, (metric, i)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracles_match_naive_on_named_pairs(n):
    named = [fn(n) for fn in (BooleanFunction.majority, BooleanFunction.dictator,
                              BooleanFunction.xor)]
    for f in named:
        for g in named:
            if f.ones_count() == g.ones_count():
                _assert_oracles_match_naive(f, g)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n)).flatmap(
    lambda f: st.tuples(st.just(f), st.permutations(f))))
@example(([0] * 8, [0] * 8))
@example(([1] * 8, [1] * 8))
@example(([1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1]))
@example(([0, 1, 1, 1, 1, 1, 1, 0], [1, 1, 0, 1, 1, 1, 0, 1]))
def test_oracles_match_naive_on_tables(pair):
    n = len(pair[0]).bit_length() - 1
    f, g = (BooleanFunction(n, table=np.array(t, dtype=np.uint8)) for t in pair)
    _assert_oracles_match_naive(f, g)


def test_oracle_directional_refuses_directions_outside_the_cube():
    xor3, maj3 = BooleanFunction.xor(3), BooleanFunction.majority(3)
    for i in (0, 4):
        with pytest.raises(ValueError, match=rf"^direction must be in 1\.\.3, got {i}$"):
            exhaustive_min_directional(xor3, maj3, i)


def test_oracle_class_mismatch():
    with pytest.raises(ValueError):
        exhaustive_min_avg_stretch(BooleanFunction.xor(2), BooleanFunction.majority(2))


def test_oracle_size_cap():
    with pytest.raises(ValueError):
        exhaustive_min_avg_stretch(BooleanFunction.xor(4), BooleanFunction.xor(4))


def test_local_search_matches_oracle_at_n3():
    xor3, maj3 = BooleanFunction.xor(3), BooleanFunction.majority(3)
    for seed in (1, 2, 42):
        v, wit = local_search_min_stretch(xor3, maj3, seed=seed, restarts=8)
        assert v == XOR_TO_MAJ_MIN_AVG
        assert is_mapping_between(wit, xor3, maj3)


def test_local_search_identity_case():
    for n in (2, 4, 6):
        f = BooleanFunction.xor(n)
        v, _ = local_search_min_stretch(f, f, seed=9)
        assert v == 1


def test_local_search_deterministic():
    f, g = BooleanFunction.xor(9), BooleanFunction.majority(9)
    a, witness = local_search_min_stretch(f, g, seed=5, restarts=2)
    b, _ = local_search_min_stretch(f, g, seed=5, restarts=2)
    assert a == b
    # the descent's running value is the witness's exact average stretch
    assert a == stretch_report(witness).avg
    naive, _ = exhaustive_min_avg_stretch(BooleanFunction.xor(3), BooleanFunction.majority(3))
    c, _ = local_search_min_stretch(BooleanFunction.xor(3), BooleanFunction.majority(3),
                                    seed=5, restarts=8)
    assert c >= naive


# (f, g, n, seed, value, sha256 of the little-endian int64 witness table),
# recorded when every proposal was drawn and scored on its own.  The last
# case has classes of 64 and so runs the full-sweep branch; maj8 has classes
# of 163 and 93, where numpy's bounded draws can reject a word.
LOCAL_SEARCH_PINS = [
    ("xor", "majority", 9, 1, Fraction(3907, 1152),
     "308883ab00dc7e2fefd6079e03744c7a256a9f155c6d39ec7150a857ff5e6027"),
    ("majority", "majority", 8, 3, Fraction(1),
     "bbd330b12e8159e117376ef24fa106413bc9fc18032a0d43e95c5dae5e47953f"),
    ("dictator", "xor", 8, 5, Fraction(15, 8),
     "e4826bd856940a42159ae8e79b707775213746dfcff709739b1faa0453685bd3"),
    ("xor", "majority", 7, 2, Fraction(75, 28),
     "cfeed823f13ed63f5b09298dcdcdb37d176ad3a959d615f7cdf09d16a66c19cb"),
]


@pytest.mark.parametrize("f, g, n, seed, value, digest", LOCAL_SEARCH_PINS)
def test_local_search_pinned(f, g, n, seed, value, digest):
    v, witness = local_search_min_stretch(getattr(BooleanFunction, f)(n),
                                          getattr(BooleanFunction, g)(n), seed=seed)
    assert v == value
    assert hashlib.sha256(witness.table().astype("<i8").tobytes()).hexdigest() == digest


def test_local_search_random_proposals_need_both_classes():
    empty = BooleanFunction(8, table=np.zeros(1 << 8, dtype=np.uint8))
    with pytest.raises(ValueError):
        local_search_min_stretch(empty, empty, seed=1)
    # at most 64 points per class the sweep runs, whatever the class sizes
    zero = BooleanFunction(6, table=np.zeros(1 << 6, dtype=np.uint8))
    v, _ = local_search_min_stretch(zero, zero, seed=1)
    assert v == 1


def _scalar_proposals(rng, k, sizes):
    """k proposals drawn one number per call, as the descent once did."""
    out = []
    for _ in range(k):
        c = int(rng.integers(0, 2))
        a, b = rng.integers(0, sizes[c], size=2)
        out.append((c, int(a), int(b)))
    return out


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _generator_with_zero_output(seed, at):
    """A PCG64 generator whose raw 64-bit output number ``at`` is 0, so that
    its 32-bit words 2*at and 2*at + 1 are 0.  numpy rejects the word 0 when
    drawing below any m that is not a power of two."""
    bit_gen = np.random.PCG64(seed)
    inc = bit_gen.state["state"]["inc"]
    modulus = 1 << 128
    back = pow(_PCG64_MULTIPLIER, -1, modulus)
    state = (1 << 64) | 1  # XSL-RR outputs (high ^ low) rotated: 0
    for _ in range(at + 1):  # the generator steps before each output
        state = (state - inc) * back % modulus
    bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                     "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_gen)


@pytest.mark.parametrize("m", [256, 163])
@pytest.mark.parametrize("zero_at", [None, 0, 7, 30])
def test_block_draws_follow_scalar_stream(m, zero_at):
    sizes = (m, m)
    for seed in (1, 2):
        def fresh():
            if zero_at is None:
                return np.random.Generator(np.random.PCG64(seed))
            return _generator_with_zero_output(seed, zero_at)

        if zero_at is not None:
            words = fresh().integers(0, 1 << 32, size=2 * zero_at + 2, dtype=np.uint32)
            assert words[-2:].tolist() == [0, 0]
        ref, blocked = fresh(), fresh()
        expected = _scalar_proposals(ref, 64, sizes)
        got = []
        for k in (1, 16, 47):
            c, a, b = _draw_proposals(blocked, k, np.array(sizes))
            got += zip(c.tolist(), a.tolist(), b.tolist())
        assert got == expected
        assert blocked.bit_generator.state == ref.bit_generator.state
        if zero_at is not None:
            # the scalar draws consumed more than 3 words per proposal
            # exactly when m is not a power of two
            plain = fresh()
            plain.integers(0, 1 << 32, size=3 * 64, dtype=np.uint32)
            assert (plain.bit_generator.state == ref.bit_generator.state) == (m == 256)


def test_typical_fraction_examples():
    assert typical_fraction(16, 0.01) == 1 - Fraction(12870, 1 << 16)
    for n in (3, 21, 333, 2499):
        assert typical_fraction(n, 0.01) == 1
    # just past the odd-n boundary the half-integer gap stops being typical
    assert typical_fraction(2501, 0.01) < 1
    for n in (64, 256, 1024, 4096, 10 ** 4):
        assert typical_fraction(n, 0.01) >= Fraction(9, 10)


def test_typical_fraction_exact_arithmetic():
    # c is taken decimally: at n=2500 the threshold 0.01*50 = 1/2 exactly,
    # and odd-weight gaps of exactly 1/2 are NOT atypical (strict >)
    assert typical_fraction(2500, Fraction(1, 100)) == typical_fraction(2500, 0.01)


def typical_fraction_reference(n: int, c: Fraction) -> Fraction:
    """1 - the weight of every w passing (2w - n)^2 <= 4 c^2 n, tested one by one."""
    typical = sum(comb(n, w) for w in range(n + 1) if (2 * w - n) ** 2 <= 4 * c * c * n)
    return 1 - Fraction(typical, 1 << n)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 400),
       c=st.fractions(min_value=-12, max_value=12, max_denominator=200))
@example(n=1, c=Fraction(0))
@example(n=5, c=Fraction(0))  # odd n: no weight is typical
@example(n=6, c=Fraction(0))  # even n: only n/2
@example(n=400, c=Fraction(-1, 7))
@example(n=400, c=Fraction(10))  # the band covers the whole cube
@example(n=100, c=Fraction(1, 20))  # c sqrt(n) = 1/2: on the boundary, typical
@example(n=101, c=Fraction(1, 20))  # |w - n/2| = 1/2 past c sqrt(n) < 1/2
def test_typical_fraction_matches_the_weight_by_weight_reference(n, c):
    assert typical_fraction(n, c) == typical_fraction_reference(n, c)


def middle_binomial_reference(n: int) -> bool:
    """C(n, floor(n/2)) < 2^n / sqrt(n), compared exactly for one n."""
    c = comb(n, n // 2)
    return c * c * n < 1 << (2 * n)


def test_middle_binomial_examples():
    assert middle_binomial_reference(1)
    assert middle_binomial_reference(4)
    assert middle_binomial_reference(16)
    assert checks.middle_binomial(2000).ok
    assert all(middle_binomial_reference(n) for n in range(1, 2001))
    # the check carries the square of the binomial from one n to the next
    assert list(_middle_binomial_squares(2999)) == [comb(n, n // 2) ** 2 for n in range(1, 3000)]


def test_mapping_table_roundtrip_and_inverse():
    phi = majority_to_dictator_map(5)
    table = phi.table()
    inv = phi.inverse_mapping()
    for x in range(32):
        assert inv.apply_bits(int(table[x])) == x
    tbl_map = Mapping.from_table(5, table)
    assert tbl_map.inverse_mapping().apply_bits(int(table[7])) == 7


def test_given_table_is_held_to_the_table_cap(monkeypatch):
    # from_table takes any n, but exhaustive statistics on it obey TABLE_MAX_N
    monkeypatch.setattr(stretch_metrics, "TABLE_MAX_N", 3)
    phi = Mapping.from_table(4, np.arange(16)[::-1])
    xor4 = BooleanFunction.xor(4)
    for use in (stretch_report, lambda p: is_mapping_between(p, xor4, xor4), Mapping.table):
        with pytest.raises(ValueError, match=r"must be in 1\.\.3, got 4$"):
            use(phi)


@pytest.mark.parametrize("table, ok", [
    ([2, 0, 3, 1], True),
    ([2, 0, -1, 1], False),  # negative entry
    ([2, 0, 4, 1], False),   # entry >= size
    ([2, 0, 2, 1], False),   # duplicate
])
def test_is_permutation_cases(table, ok):
    assert stretch_metrics._is_permutation(np.array(table, dtype=np.int64)) is ok


def test_from_table_rejects_non_permutation():
    for table in ([0, 0, 1, 2],   # duplicate
                  [0, 1, 2],      # too short
                  [0, 1, 2, 4],   # entry >= size
                  [0, 1, -1, 3],  # negative entry
                  [0, 1, 2, 1 << 33]):
        for given in (table, np.array(table, dtype=np.int64)):
            with pytest.raises(ValueError):
                Mapping.from_table(2, given)


def test_from_table_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        Mapping.from_table(2, [0.0, 1.0, 2.0, 3.0])


def test_from_table_holds_a_uint32_table_without_copying():
    table = np.random.Generator(np.random.PCG64(2)).permutation(1 << 18).astype(np.uint32)
    phi = Mapping.from_table(18, table)
    assert np.shares_memory(phi.table(), table)
    assert np.array_equal(phi.table(), table)


def test_tables_are_uint32():
    for phi in (majority_to_dictator_map(5), tree_mapping(6),
                Mapping.from_table(3, [3, 1, 0, 2, 7, 6, 4, 5]),
                Mapping.from_table(3, np.arange(8, dtype=np.int64)[::-1])):
        assert phi.table().dtype == np.uint32
        inv = phi.inverse_mapping()
        assert inv.table().dtype == np.uint32
        assert np.array_equal(inv.table()[phi.table()], np.arange(1 << phi.n))


def test_inverse_table_across_slices():
    # n = 18: the inverse is scattered in four slices of 2^16
    table = np.random.Generator(np.random.PCG64(3)).permutation(1 << 18)
    inv = Mapping.from_table(18, table).inverse_mapping().table()
    assert np.array_equal(inv, np.argsort(table))


def test_is_permutation_across_slices():
    table = np.arange(1 << 18, dtype=np.uint32)
    assert stretch_metrics._is_permutation(table)
    table[-1] = 3  # a duplicate in the last slice, so one image is missing
    assert not stretch_metrics._is_permutation(table)


def _dict_to_random(n, seed):
    return build_dict_to_random_details(random_balanced(n, seed)).mapping


# sha256 of the sorted-key JSON of stretch_report(phi) for tables large enough
# to put directions both inside and across the exhaustive pass's blocks.
REPORT_PINS = [
    (lambda: majority_to_dictator_map(17),
     "3ac2d26e8a5c6fdfb465c0e4e1e9b4e2fb54daf670149a5c28043e96894fe664"),
    (lambda: majority_to_dictator_map(17).inverse_mapping(),
     "e497330ee2e1a7a058e50afa8c597eac2c55db57770d9b1745a97b6dabfb45e8"),
    (lambda: tree_mapping(16),
     "802b75d2a54681315abf221d34e6344ee71fa0e8816269c4eb9ed84fd735f81a"),
    (lambda: _dict_to_random(18, 3),
     "be264fb5163a9f4032a1312d15d9e15441abd62f180840f7ce2ff586ec217f50"),
    (lambda: _dict_to_random(18, 3).inverse_mapping(),
     "0f1ee6c9ee1e5aee4e71d7be5dc2de773ee1d2583f26f98651628817648ce701"),
]


@pytest.mark.parametrize("build, digest", REPORT_PINS,
                         ids=["maj2dict17", "maj2dict17-inv", "tree16", "dict2random18",
                              "dict2random18-inv"])
def test_exhaustive_report_pinned(build, digest):
    rep = stretch_report(build()).to_json_dict()
    assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("build", [majority_to_dictator_map, majority_to_xor_map, tree_mapping])
@pytest.mark.parametrize("point", [8, 10, -1, 1 << 40])
def test_points_outside_the_cube_are_refused(build, point):
    phi = build(3)
    for evaluate in (phi.apply_bits, phi.inverse_bits, phi.inverse_mapping().apply_bits,
                     phi.inverse_mapping().inverse_bits):
        with pytest.raises(ValueError, match=rf"^point {point} is outside the 3-cube"):
            evaluate(point)
