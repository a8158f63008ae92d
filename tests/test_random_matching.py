import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubemorph import random_matching
from cubemorph.cube_core import (
    BooleanFunction,
    parse_point,
    random_balanced,
    random_subset_function,
)
from cubemorph.random_matching import (
    _half_cube_images,
    build_dict_to_random_details,
    build_injection,
    build_random_to_random,
    displacements,
    injection_is_valid,
    recursion_curve,
    run_matching,
)
from cubemorph.stretch_metrics import _exhaustive_stats, is_mapping_between, stretch_report


def _with_ones(n, ones):
    """The table-backed function that is 1 exactly on the given points."""
    values = np.zeros(1 << n, dtype=np.uint8)
    values[list(ones)] = 1
    return BooleanFunction(n, table=values)


def _bits(words, count):
    """The first count points of a bitset as a list of 0/1."""
    return [int(words[x >> 6]) >> (x & 63) & 1 for x in range(count)]


def _matched_in_round(state, i):
    """Round i's matched poor points (i >= 1) as a bitset: the points whose
    round index, read bit j from round plane j, is i."""
    words = np.full_like(state.rich_unmatched, np.uint64(2 ** 64 - 1))
    for j, plane in enumerate(state.round_planes):
        words &= plane if i >> j & 1 else ~plane
    return words


def test_classify_definitions():
    # x is rich when both x|0 and x|1 lie in the set, poor when neither does
    st = run_matching(_with_ones(3, [0, 4, 1, 7]))
    low, high = _bits(st.low, 4), _bits(st.high, 4)
    kind = {x: "rich" if low[x] and high[x] else "mixed" if low[x] or high[x] else "poor"
            for x in range(4)}
    assert kind[parse_point("00")] == "rich"
    assert kind[parse_point("01")] == "poor"
    assert kind[parse_point("10")] == "mixed"
    assert kind[parse_point("11")] == "mixed"


def test_matching_hand_trace():
    # poor 01 stays unmatched (its only round-1 partner 11 is mixed) and
    # rich 00 stays unmatched
    a = _with_ones(3, [0, 4, 1, 7])
    st = run_matching(a)
    assert st.round_stats == [(1, 1), (1, 1)]
    x01, x00 = parse_point("01"), parse_point("00")
    assert _bits(st.low, 4)[x01] == _bits(st.high, 4)[x01] == 0
    assert [_bits(_matched_in_round(st, i), 4)[x01] for i in range(1, st.rounds + 1)] == [0]
    assert _bits(st.rich_unmatched, 4)[x00] == 1


def test_matching_trivial_sets():
    full = BooleanFunction(3, table=np.ones(8, dtype=np.uint8))
    empty = BooleanFunction(3, table=np.zeros(8, dtype=np.uint8))
    assert run_matching(full).poor_unmatched_count() == 0
    assert run_matching(empty).poor_unmatched_count() == 4


def test_matched_pairs_are_poor_rich_adjacent():
    for seed in range(8):
        a = random_subset_function(12, seed=seed)
        st = run_matching(a)
        half = st.size
        low, high = _bits(st.low, half), _bits(st.high, half)
        rich_free = _bits(st.rich_unmatched, half)
        seen_poor, seen_rich = set(), set()
        for d in range(1, st.rounds + 1):
            xs = [x for x, m in enumerate(_bits(_matched_in_round(st, d), half)) if m]
            assert st.round_stats[d - 1][0] - st.round_stats[d][0] == len(xs)
            for x in xs:
                y = x ^ (1 << (d - 1))
                assert not low[x] and not high[x]
                assert low[y] and high[y] and not rich_free[y]
                assert x not in seen_poor and y not in seen_rich
                seen_poor.add(x)
                seen_rich.add(y)


def _matching_reference(a):
    """The rounds and the injection point by point, as the module docstring
    states them: round i matches x to y = x ^ (1 << (i - 1)) when x is poor,
    y is rich and both are unmatched at the end of round i - 1."""
    n, vals = a.n, a.values()
    half = 1 << (n - 1)
    low = [int(vals[x]) for x in range(half)]
    high = [int(vals[half + x]) for x in range(half)]
    poor_un = {x for x in range(half) if not low[x] and not high[x]}
    rich_un = {x for x in range(half) if low[x] and high[x]}
    stats = [(len(poor_un), len(rich_un))]
    pairs = {}  # matched poor x -> (its rich partner, the round)
    for i in range(1, (n - 1) // 2 + 1):
        found = [(x, x ^ (1 << (i - 1))) for x in sorted(poor_un)
                 if x ^ (1 << (i - 1)) in rich_un]
        for x, y in found:
            poor_un.remove(x)
            rich_un.remove(y)
            pairs[x] = (y, i)
        stats.append((len(poor_un), len(rich_un)))
    img = []
    for x in range(half):
        if low[x] != high[x]:  # mixed: the extension inside the set
            img.append(x + half * high[x])
        elif low[x]:  # rich: x|1 while unconsumed, else x|0
            img.append(x + half if x in rich_un else x)
        elif x in pairs:  # matched poor: the partner's upper extension
            img.append(pairs[x][0] + half)
        else:  # unmatched poor
            img.append(x)
    return stats, pairs, img


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 32))
@example(15, 1)  # round 7 swaps whole 64-bit words
def test_matching_matches_per_point_reference(n, seed):
    a = random_subset_function(n, seed=seed)
    stats, pairs, img = _matching_reference(a)
    state = run_matching(a)
    half = state.size
    assert state.round_stats == stats
    assert len(state.round_planes) == state.rounds.bit_length()
    got = {}
    for i in range(1, state.rounds + 1):
        for x, m in enumerate(_bits(_matched_in_round(state, i), half)):
            if m:
                got[x] = (x ^ (1 << (i - 1)), i)
    assert got == pairs
    assert build_injection(state).tolist() == img


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 32))
@example(9, 3)  # the halves are views of the bitmap from n = 7 on
def test_matching_on_bitmap_and_table_forms_agree(n, seed):
    packed = random_subset_function(n, seed=seed)
    table = BooleanFunction(n, table=random_subset_function(n, seed=seed).values())
    got, want = run_matching(packed), run_matching(table)
    assert got.round_stats == want.round_stats
    for a, b in zip([got.low, got.high, got.rich_unmatched, *got.round_planes],
                    [want.low, want.high, want.rich_unmatched, *want.round_planes], strict=True):
        assert np.array_equal(a, b)
    assert np.array_equal(build_injection(got), build_injection(want))
    if n >= 7:
        assert np.shares_memory(got.low, packed.bitmap())
        assert np.shares_memory(got.high, packed.bitmap())


def test_poor_unmatched_nonincreasing():
    for seed in range(5):
        st = run_matching(random_subset_function(14, seed=seed))
        poor = [p for p, _ in st.round_stats]
        assert all(a >= b for a, b in zip(poor, poor[1:]))


def test_injection_valid_and_mostly_in_set():
    stable_c = []
    for n in (16, 20, 24):
        a = random_subset_function(n, seed=n)
        st = run_matching(a)
        img = build_injection(st)
        assert injection_is_valid(st, img)
        in_a = float(a.values()[img].mean())
        stable_c.append(n * (1 - in_a))
    # Pr[image in set] = 1 - c/n with c stable and small
    assert all(c < 2.0 for c in stable_c)
    assert max(stable_c) / min(stable_c) < 1.5


def test_injection_cases():
    a = _with_ones(3, [0, 4, 1, 7])
    st = run_matching(a)
    img = build_injection(st)
    # mixed 10 extends into the set, mixed 11 extends into the set
    x10 = parse_point("10")
    assert int(img[x10]) in (x10, x10 + 4)
    assert a.values()[int(img[x10])] == 1
    # unmatched rich 00 -> 00|1, unmatched poor 01 -> 01|0
    assert int(img[parse_point("00")]) == parse_point("001")
    assert int(img[parse_point("01")]) == parse_point("010")


def test_injection_validity_rejects_bad_images():
    st = run_matching(random_subset_function(7, seed=3))
    img = build_injection(st)
    assert injection_is_valid(st, img)
    top = 2 * st.size
    for x, bad in ((1, img[0]), (0, top), (0, top + 5), (0, -1)):
        broken = img.astype(np.int64)
        broken[x] = bad
        assert not injection_is_valid(st, broken)
    assert not injection_is_valid(st, img[:-1])


def _injection_valid_reference(n, img):
    """injection_is_valid by brute force: a set of images and a loop."""
    half = 1 << (n - 1)
    images = [int(v) for v in img]
    return (len(images) == half and all(0 <= v < 2 * half for v in images)
            and len(set(images)) == half
            and all(bin(x ^ (v % half)).count("1") <= 1 for x, v in enumerate(images)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(2, 9), st.integers(0, 2 ** 16), st.data())
def test_injection_validity_matches_brute_force(n, seed, data):
    state = run_matching(random_subset_function(n, seed=seed))
    img = build_injection(state).astype(np.int64)
    half = state.size
    for _ in range(data.draw(st.integers(0, 3))):
        x = data.draw(st.integers(0, half - 1))
        if data.draw(st.booleans()):  # swap two images: injectivity stays
            y = data.draw(st.integers(0, half - 1))
            img[x], img[y] = img[y], img[x]
        else:
            img[x] = data.draw(st.integers(-2, 2 * half + 1))
    if data.draw(st.booleans()):
        img = img[:data.draw(st.integers(1, half))]
    expected = _injection_valid_reference(n, img)
    assert injection_is_valid(state, img) == expected
    if img.min() >= 0:  # the same image as the uint32 table build_injection returns
        assert injection_is_valid(state, img.astype(np.uint32)) == expected


def test_injection_validity_checks_every_slice():
    # n = 19: 2^18 images, four slices of 2^16; break only the last one
    state = run_matching(random_subset_function(19, seed=6))
    img = build_injection(state)
    assert injection_is_valid(state, img)
    dup = img.copy()
    dup[-1] = dup[-2]
    assert not injection_is_valid(state, dup)
    # a swap inside the last slice keeps the images distinct but moves two
    # prefixes far away
    far = img.copy()
    far[[-1, -(1 << 15)]] = far[[-(1 << 15), -1]]
    assert not injection_is_valid(state, far)


# (case, n, {source: image} edits of the identity image, verdict); with
# slices of 4 points, n = 7 has 16 slices of sources
PAST_ONE_SLICE = [
    ("identity", 7, {}, True),
    # 3 ^ 4 = 7: a flip above the slice makes source 3 collide with source 7,
    # which lies in the next slice, so the window widens to 8 points
    ("duplicate-across-blocks", 7, {3: 7}, False),
    ("flip-above-slice", 7, {3: 7 + 64}, True),
    # a flip of coordinate 6 widens the window to the whole half-cube
    ("widest-flip-duplicate", 7, {1: 33}, False),
    ("widest-flip", 7, {1: 33 + 64, 33: 1 + 64}, True),
    ("negative", 7, {40: -1}, False),
    ("negative-int64-min", 7, {63: -2 ** 63}, False),
    ("out-of-range", 7, {40: 128}, False),
    ("out-of-range-int64-max", 7, {0: 2 ** 63 - 1}, False),
]


@pytest.mark.parametrize("n,edits,valid", [case[1:] for case in PAST_ONE_SLICE],
                         ids=[case[0] for case in PAST_ONE_SLICE])
def test_injection_validity_past_one_slice(monkeypatch, n, edits, valid):
    monkeypatch.setattr(random_matching, "SLICE", 4)
    state = run_matching(random_subset_function(n, seed=1))
    img = np.arange(1 << (n - 1), dtype=np.int64)
    for x, image in edits.items():
        img[x] = image
    assert _injection_valid_reference(n, img) == valid
    assert injection_is_valid(state, img) == valid


def test_built_injection_valid_past_one_slice(monkeypatch):
    # n = 11 matches in directions up to 4, so slices of 4 points need a
    # window of 32
    monkeypatch.setattr(random_matching, "SLICE", 4)
    state = run_matching(random_subset_function(11, seed=2))
    img = build_injection(state)
    assert injection_is_valid(state, img)
    dup = img.astype(np.int64)
    moved = int(np.flatnonzero((dup & 1023) == np.arange(1024) ^ 16)[0])
    dup[moved ^ 16] = dup[moved]  # the source whose own image moved there
    assert not _injection_valid_reference(11, dup)
    assert not injection_is_valid(state, dup)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(2, 9), st.sampled_from([1, 2, 4, 8]), st.data())
def test_windowed_validity_matches_brute_force(n, slice_size, data):
    # the identity with random top bits, then a few sources moved by one
    # flip each: the moved images collide, or not, within and across
    # slices of slice_size sources
    half = 1 << (n - 1)
    tops = data.draw(st.lists(st.integers(0, 1), min_size=half, max_size=half))
    img = np.arange(half, dtype=np.int64) + half * np.array(tops, dtype=np.int64)
    for _ in range(data.draw(st.integers(0, 4))):
        x = data.draw(st.integers(0, half - 1))
        flip = 1 << data.draw(st.integers(0, n - 2))
        img[x] = (x ^ flip) + half * data.draw(st.integers(0, 1))
    state = run_matching(random_subset_function(n, seed=0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random_matching, "SLICE", slice_size)
        assert injection_is_valid(state, img) == _injection_valid_reference(n, img)


def test_curve_statistics_n16():
    p_hat, q_hat = recursion_curve(16, trials=20, seed=11)
    p, q = p_hat.mean(axis=0), q_hat.mean(axis=0)
    rounds = len(p) - 1
    assert abs(p[0] - 0.25) <= 0.01
    assert abs(q[0] - 0.25) <= 0.01
    assert abs(p[1] - 0.1875) <= 0.01
    for i in range(rounds):
        assert abs(p[i + 1] - p[i] * (1 - p[i])) <= 0.01
    for i in range(rounds + 1):
        assert abs(p[i] - q[i]) <= 0.01
    assert p_hat.shape == q_hat.shape == (20, rounds + 1)


def test_curve_deterministic():
    a_p, a_q = recursion_curve(10, trials=3, seed=4)
    b_p, b_q = recursion_curve(10, trials=3, seed=4)
    assert np.array_equal(a_p, b_p)
    assert np.array_equal(a_q, b_q)


@pytest.mark.parametrize("n", [2, 6, 7, 12])  # no rounds; either side of one bitset word
def test_curve_rows_are_each_trials_round_stats(n):
    trials, seed = 4, 9
    p_hat, q_hat = recursion_curve(n, trials=trials, seed=seed)
    assert p_hat.dtype == q_hat.dtype == np.float64
    assert p_hat.shape == q_hat.shape == (trials, (n - 1) // 2 + 1)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        stats = run_matching(random_subset_function(n, child)).round_stats
        assert [Fraction(x) for x in p_hat[t]] == [Fraction(pu, 1 << (n - 1)) for pu, _ in stats]
        assert [Fraction(x) for x in q_hat[t]] == [Fraction(ru, 1 << (n - 1)) for _, ru in stats]


def test_unmatched_poor_mean_below_2_over_n():
    p_hat, _ = recursion_curve(20, trials=30, seed=2)
    final = p_hat[:, -1]
    se = final.std(ddof=1) / 30 ** 0.5
    assert final.mean() < 2 / 20 + 3 * se


def test_dict_to_random_on_dictator_itself():
    f = BooleanFunction(10, table=BooleanFunction.dictator(10).values(), balanced=True)
    phi = build_dict_to_random_details(f).mapping
    assert is_mapping_between(phi, BooleanFunction.dictator(10), f)
    t = phi.table()
    d = np.bitwise_count((t ^ np.arange(1 << 10)).astype(np.uint64))
    assert int(d.max()) <= 2


def test_dict_to_random_law_and_distance():
    n = 14
    f = random_balanced(n, seed=3)
    res = build_dict_to_random_details(f)
    assert is_mapping_between(res.mapping, BooleanFunction.dictator(n), f)
    t = res.mapping.table()
    d = np.bitwise_count((t ^ np.arange(1 << n)).astype(np.uint64))
    assert float((d <= 2).mean()) >= 1 - 5 / n
    assert res.unmatched_poor_fraction < 0.2


def test_displacements_match_per_point_distances():
    # n = 18: four slices of 2^16
    phi = build_dict_to_random_details(random_balanced(18, seed=5)).mapping
    t = phi.table().astype(np.int64)
    d = displacements(phi)
    assert d.dtype == np.uint8
    assert np.array_equal(d, np.bitwise_count((t ^ np.arange(1 << 18)).astype(np.uint64)))


def test_tables_are_uint32():
    state = run_matching(random_subset_function(9, seed=1))
    assert build_injection(state).dtype == np.uint32
    phi = build_dict_to_random_details(random_balanced(9, seed=2)).mapping
    assert phi.table().dtype == np.uint32
    comp = build_random_to_random(random_balanced(9, seed=3), random_balanced(9, seed=4))
    assert comp.table().dtype == np.uint32


def _traced_peak(call):
    """The result of call() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_matching_tables_make_no_table_sized_temporaries():
    # at n = 20 an int64 temporary of the 2^19 images is 4 MiB, of the 2^20
    # table entries 8 MiB; each pass may hold only slices beyond its own
    # bitmaps and results, and the validity check not even a bitmap of the
    # 2^n targets, only a window of two slices
    n = 20
    state = run_matching(random_subset_function(n, seed=7))
    img, peak = _traced_peak(lambda: build_injection(state))
    assert peak <= img.nbytes + (1 << n) + (1 << 20)
    valid, peak = _traced_peak(lambda: injection_is_valid(state, img))
    assert valid
    assert peak <= 1 << 20
    phi = build_dict_to_random_details(random_balanced(n, seed=7)).mapping
    d, peak = _traced_peak(lambda: displacements(phi))
    assert peak <= d.nbytes + (1 << 20)


def test_matching_reads_the_set_bitmap_in_place():
    # beside the bitsets the state owns and the 2^n-bit set bitmap, only
    # slices of 1 MiB in all; unpacking the set at n = 20 takes 1 MiB itself
    n = 20
    state, peak = _traced_peak(lambda: run_matching(random_subset_function(n, seed=7)))
    owned = sum(w.nbytes for w in (state.rich_unmatched, *state.round_planes))
    assert peak <= owned + (1 << n) // 8 + (1 << 20)


def test_half_cube_images_repair_makes_no_table_sized_temporaries():
    # at n = 20 the rotated class indicator is 1 MiB; the repair unpacks
    # a bitset of the 2^19 sources (0.5 MiB) and lists the unmatched poor
    # and rich points as int64 indices (about 0.3 MiB each); beside its
    # image only these, slices and bitsets may be held
    n = 20
    f_vals = random_balanced(n, seed=7).values()
    for cls in (0, 1):
        (img, _), peak = _traced_peak(lambda: _half_cube_images(f_vals, n, cls))
        assert peak <= img.nbytes + (1 << n) + (1 << 20)


def _generic_repair(f_vals, n, cls):
    """The cls half's images repaired without the matching state: mark the
    targets in the class that the rotated-back injection takes, and give the
    free ones, ascending, to the sources whose image left the class, also
    ascending.  Returns the images, those sources and the state."""
    rotated = np.concatenate([f_vals[0::2], f_vals[1::2]]) ^ (1 - cls)
    state = run_matching(BooleanFunction(n, table=rotated))
    img = build_injection(state).astype(np.int64)
    img = ((img << 1) & ((1 << n) - 1)) | (img >> (n - 1))
    inside = f_vals[img] == cls
    taken = np.zeros(1 << n, dtype=bool)
    taken[img[inside]] = True
    left = np.flatnonzero(~inside)
    img[left] = np.flatnonzero(~taken & (f_vals == cls))
    return img, left, state


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2 ** 32), st.sampled_from([0, 1]))
@example(6, 1, 0)  # the half-cube is one padded word
@example(7, 2, 1)  # the half-cube is one whole word
def test_half_cube_images_match_the_generic_repair(n, seed, cls):
    f_vals = random_balanced(n, seed).values()
    want, left, state = _generic_repair(f_vals, n, cls)
    img, repaired = _half_cube_images(f_vals, n, cls)
    assert img.tolist() == want.tolist()
    assert repaired == left.size
    # what the repair rests on: the sources that leave the class are the
    # unmatched poor, and each takes 2x, the rotated-back lower extension
    # of an unmatched rich x, both ascending
    half = state.size
    low, high = _bits(state.low, half), _bits(state.high, half)
    matched = {x for i in range(1, state.rounds + 1)
               for x, m in enumerate(_bits(_matched_in_round(state, i), half)) if m}
    assert left.tolist() == [x for x in range(half)
                             if not low[x] and not high[x] and x not in matched]
    rich = [x for x, r in enumerate(_bits(state.rich_unmatched, half)) if r]
    assert img[left].tolist() == [2 * x for x in rich]


def test_exhaustive_pass_makes_no_table_sized_temporaries():
    # the pass holds a block's transpose, xors and distances, the intp copy
    # np.bincount makes of the distance pairs, and a grid of pair counts:
    # 0.5 MiB at n = 20
    n = 20
    table = build_dict_to_random_details(random_balanced(n, seed=7)).mapping.table()
    hist, peak = _traced_peak(lambda: _exhaustive_stats(table, n))
    assert int(hist.sum()) == n << (n - 1)
    assert peak < table.nbytes // 4


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [8, 12, 16])
def test_stretch_within_displacement_bound(n, seed):
    # on an edge xy, dist(phi x, phi y) <= dist(phi x, x) + 1 + dist(y, phi y),
    # and each point ends n of the n 2^(n-1) edges, so avgStretch is at most
    # 1 + 2 E[dist(x, phi x)]; the same holds for phi^-1
    phi = build_dict_to_random_details(random_balanced(n, seed=seed)).mapping
    for m in (phi, phi.inverse_mapping()):
        mean_displacement = Fraction(int(displacements(m).sum()), 1 << n)
        assert stretch_report(m).avg <= 1 + 2 * mean_displacement


def test_dict_to_random_requires_balanced():
    with pytest.raises(ValueError):
        build_dict_to_random_details(_with_ones(4, [0, 1, 2]))


def test_random_to_random_composition():
    n = 14
    f = random_balanced(n, seed=21)
    g = random_balanced(n, seed=22)
    comp = build_random_to_random(f, g)
    assert is_mapping_between(comp, f, g)
    t = comp.table()
    d = np.bitwise_count((t ^ np.arange(1 << n)).astype(np.uint64))
    assert float((d >= 4).mean()) <= 10 / n
    assert float(stretch_report(comp).avg) <= 20


def test_random_to_random_same_function():
    f = random_balanced(10, seed=8)
    comp = build_random_to_random(f, f)
    assert is_mapping_between(comp, f, f)


# sha256 of the dictator -> f table and the per-class repair counts for
# f = random_balanced(n, seed); pinned so a change of representation can
# not move a single image
DICT_TO_RANDOM_PINS = [
    (2, 1, "bbcefeebda2cbf31bb9b51748a1548a3d6be1cdd2c4cdef976c0a0bc99b79e47", (1, 1)),
    (3, 2, "0cb2946799983234cb50560e63770aab7c78db9c50158ab9d435760f76b6199a", (1, 1)),
    (9, 3, "29a841f12a12917b6871eb42318c9203cbdde59317abd195206f1b638f93c21d", (27, 27)),
    (14, 4, "9384659859d9b9e88ca41f25346c7642afa259efcb7834996cc8859c40b4b694", (727, 727)),
]


@pytest.mark.parametrize("n,seed,digest,repaired", DICT_TO_RANDOM_PINS,
                         ids=[f"n{n}" for n, *_ in DICT_TO_RANDOM_PINS])
def test_dict_to_random_tables_pinned(n, seed, digest, repaired):
    res = build_dict_to_random_details(random_balanced(n, seed))
    assert hashlib.sha256(res.mapping.table().astype("<i8").tobytes()).hexdigest() == digest
    assert res.repaired == repaired


# sha256 of build_injection(run_matching(random_subset_function(n, seed)))
# as little-endian int64, and the round counts.  n = 3 puts the half-cube
# in one padded 64-bit word, n = 7 fills one word exactly, n = 8, 16 and 20
# span several words; pinned so a change of the matching state's
# representation can not move a single image
INJECTION_PINS = [
    (3, 5, "a7fbafa59b1fde7864900ff3c46ac4221f1ded606d973f8bc51c10d2028389b3",
     [(2, 1), (1, 0)]),
    (7, 2, "cf47f30f2aedc5e250e37070bcf5ec05a54f0b7f6e134b33e34445627f4b797c",
     [(19, 17), (12, 10), (11, 9), (11, 9)]),
    (8, 3, "8e3f2770c07b7cbd98bf32acf85e08688f785fddf700e851529381b4163b5ea2",
     [(28, 33), (20, 25), (15, 20), (13, 18)]),
    (16, 4, "e32947bc10c535ae85a26f509a5fd8e3c4eb5053f198d689b15cedb85d6ca5bb",
     [(8186, 8314), (6098, 6226), (4932, 5060), (4191, 4319), (3666, 3794),
      (3255, 3383), (2924, 3052), (2656, 2784)]),
    (20, 5, "911c8bba3717ac1592e9dc15cce6cf5634499f2ecdd403674431d30190aa03b7",
     [(131008, 130715), (98230, 97937), (79825, 79532), (67736, 67443),
      (59147, 58854), (52548, 52255), (47295, 47002), (43172, 42879),
      (39660, 39367), (36745, 36452)]),
]


@pytest.mark.parametrize("n,seed,digest,round_stats", INJECTION_PINS,
                         ids=[f"n{n}" for n, *_ in INJECTION_PINS])
def test_injection_tables_pinned(n, seed, digest, round_stats):
    state = run_matching(random_subset_function(n, seed))
    assert state.round_stats == round_stats
    img = build_injection(state)
    assert hashlib.sha256(img.astype("<i8").tobytes()).hexdigest() == digest
