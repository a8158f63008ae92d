import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubemorph import cli
from cubemorph.checks import _tree_conditions_hold, tree_size_grid
from cubemorph.cube_core import TABLE_MAX_N, BooleanFunction, format_bits, parse_point
from cubemorph.gf2_maps import (
    SparseGF2Matrix,
    _tree_inverse_consistent,
    build_tree_matrix,
    gf2_inverse_rows,
    prefix_xor_mapping,
    tree_mapping,
    verify_conditions,
    xor_head_mapping,
)
from cubemorph.stretch_metrics import _exhaustive_stats, is_mapping_between, stretch_report

from scalar_reference import extract_even_bits, tree2_apply_bits


def _linear_maps(n):
    """Every named linear map at dimension n."""
    return [tree_mapping(n, arity) for arity in (2, 3, 4, 5)] + [
        prefix_xor_mapping(n), xor_head_mapping(n)]


def _rows(cols, n):
    """Row masks of the matrix with these column masks."""
    return [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(n)]


def _row_parity_apply(rows, x):
    """Reference evaluator: output bit i is the parity of row i against x."""
    return sum((bin(r & x).count("1") & 1) << i for i, r in enumerate(rows))


def _naive_children(i, n, arity):
    """Children of vertex i in the level-order arity-ary tree on n vertices."""
    return range(arity * (i - 1) + 2, min(arity * i + 1, n) + 1)


def test_tree_matrix_examples():
    a = build_tree_matrix(3, 2)
    assert a.rows.tolist() == [1, 1, 1, 2, 3]
    assert a.cols.tolist() == [1, 2, 3, 2, 3]
    assert a.to_text().splitlines() == ["1 2 3", "2", "3"]
    assert build_tree_matrix(1, 2).to_text() == "1"
    assert build_tree_matrix(7, 2).to_text().splitlines()[1] == "2 4 5"


def test_tree_matrix_rejects_bad_arity():
    with pytest.raises(ValueError):
        build_tree_matrix(4, 1)


def test_tree_labeling():
    # the entries and parent array against the per-vertex children formula
    for arity in range(2, 7):
        for n in tree_size_grid(300, 9):
            a = build_tree_matrix(n, arity)
            rows, cols, parent = [], [], [0] * (n + 1)
            for i in range(1, n + 1):
                children = _naive_children(i, n, arity)
                rows += [i] * (len(children) + 1)
                cols += [i, *children]
                for c in children:
                    parent[c] = i
            assert a.rows.tolist() == rows, (n, arity)
            assert a.cols.tolist() == cols, (n, arity)
            assert a.parent.tolist() == parent, (n, arity)
    with pytest.raises(ValueError):
        build_tree_matrix(0, 2)


def test_tree_map_columns_are_the_matrix_columns():
    # the evaluated map and the checked matrix derive from one parent array
    for arity in range(2, 7):
        for n in range(1, 64):
            a = build_tree_matrix(n, arity)
            cols = [0] * n
            for i, j in zip(a.rows.tolist(), a.cols.tolist()):
                cols[j - 1] |= 1 << (i - 1)
            assert tree_mapping(n, arity).cols == tuple(cols), (n, arity)


def _image(mapping, s: str) -> str:
    """The image of the point written s, written the same way."""
    return format_bits(mapping.apply_bits(parse_point(s)), len(s))


def test_apply_examples():
    tm = tree_mapping(3)
    assert _image(tm, "100") == "100"
    assert _image(tm, "010") == "110"
    assert tm.apply_bits(0) == 0


def test_tree_inverse_examples():
    inv = tree_mapping(3).inverse_mapping()
    assert inv.name == "tree^-1"
    assert _image(inv, "110") == "010"
    assert _image(inv, "100") == "100"
    assert tree_mapping(5).inverse_mapping().apply_bits(0) == 0


@pytest.mark.parametrize("n", range(1, 17))
def test_round_trip_exhaustive(n):
    inv = tree_mapping(n).inverse_mapping()
    ys = np.array([tree2_apply_bits(n, x) for x in range(1 << n)], dtype=np.uint64)
    assert np.array_equal(inv.forward(ys), np.arange(1 << n))
    for x in random.Random(n).sample(range(1 << n), min(20, 1 << n)):
        assert inv.apply_bits(int(ys[x])) == x


@pytest.mark.parametrize("n", [33, 47, 63])
def test_round_trip_large_odd_n(n):
    rng = random.Random(n)
    for m in _linear_maps(n):
        xs = [rng.getrandbits(n) for _ in range(500)]
        ys = m.forward(np.array(xs, dtype=np.uint64))
        assert int(ys.max()) >> n == 0
        assert m.inverse(ys).tolist() == xs
        assert m.inverse_mapping().forward(ys).tolist() == xs
        for x, y in zip(xs[:10], ys[:10].tolist()):
            assert m.apply_bits(x) == y and m.inverse_bits(y) == x


def test_fast_word_path_matches_generic():
    for n in (1, 2, 3, 5, 8, 11):
        table = tree_mapping(n).table()
        assert [tree2_apply_bits(n, x) for x in range(1 << n)] == table.tolist()
    rng = random.Random(5)
    for n in (40, 63):
        tm = tree_mapping(n)
        xs = [rng.getrandbits(n) for _ in range(200)]
        ys = tm.forward(np.array(xs, dtype=np.uint64)).tolist()
        assert [tree2_apply_bits(n, x) for x in xs] == ys
        assert all(tm.apply_bits(x) == y for x, y in zip(xs[:20], ys))
    rows = build_tree_matrix(200).row_masks()
    for _ in range(200):
        x = rng.getrandbits(200)
        assert tree2_apply_bits(200, x) == _row_parity_apply(rows, x)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 19, 40, 63])
def test_inverse_columns_match_elimination(n):
    for m in _linear_maps(n):
        inv_rows = gf2_inverse_rows(_rows(m.cols, n), n)
        assert inv_rows is not None
        assert _rows(m.inverse_cols, n) == inv_rows, m.name


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.integers(1, 63), st.sampled_from(["tree2", "tree3", "tree4", "tree5", "prefix",
                                            "xorhead"]))
def test_inverse_columns_match_elimination_drawn(n, kind):
    m = {"prefix": prefix_xor_mapping, "xorhead": xor_head_mapping}.get(
        kind, lambda n: tree_mapping(n, int(kind[-1])))(n)
    assert _rows(m.inverse_cols, n) == gf2_inverse_rows(_rows(m.cols, n), n)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 14])
def test_chunked_evaluator_matches_table(n):
    for fwd in _linear_maps(n):
        for m in (fwd, fwd.inverse_mapping()):
            rows = _rows(m.cols, n)
            reference = [_row_parity_apply(rows, x) for x in range(1 << n)]
            assert m.table().tolist() == reference, m.name
            xs = np.arange(1 << n, dtype=np.uint64)
            assert m.forward(xs).tolist() == reference, m.name
            assert m.inverse(np.array(reference, dtype=np.uint64)).tolist() == xs.tolist()
            for x in range(0, 1 << n, max(1, (1 << n) // 8)):
                assert m.apply_bits(x) == reference[x] and m.inverse_bits(reference[x]) == x


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(1, 20), st.sampled_from(["tree2", "tree3", "tree4", "prefix", "xorhead"]),
       st.booleans())
def test_column_report_matches_table_pass(n, kind, inverse):
    m = {"prefix": prefix_xor_mapping, "xorhead": xor_head_mapping}.get(
        kind, lambda n: tree_mapping(n, int(kind[-1])))(n)
    m = m.inverse_mapping() if inverse else m
    assert np.array_equal(m._exhaustive_histogram(), _exhaustive_stats(m.table(), n))


def test_column_report_past_the_table_cap():
    # the column weights give the report at any n; the table keeps its cap
    m = tree_mapping(63).inverse_mapping()
    rep = stretch_report(m)
    # inverse column j is the ancestor chain of j, bit_length(j) vertices long
    weights = [j.bit_length() for j in range(1, 64)]
    assert rep.per_direction == tuple(Fraction(w) for w in weights)
    assert rep.avg == Fraction(sum(weights), 63) == Fraction(107, 21)
    assert rep.histogram == {w: weights.count(w) << 62 for w in set(weights)}
    assert rep.edges_total == 63 << 62
    with pytest.raises(ValueError, match=rf"must be in 1\.\.{TABLE_MAX_N}, got 63$"):
        m.table()


def test_extract_even_bits_against_naive():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 200)
        x = rng.getrandbits(n)
        naive = 0
        for i in range(0, n, 2):
            if (x >> i) & 1:
                naive |= 1 << (i // 2)
        assert extract_even_bits(x, n) == naive


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12, 16])
def test_mapping_law_tree(n):
    assert is_mapping_between(tree_mapping(n), BooleanFunction.dictator(n),
                              BooleanFunction.xor(n))


@pytest.mark.parametrize("n", [1, 2, 5, 10, 14, 16])
def test_mapping_law_prefix_and_xorhead(n):
    dic, xor = BooleanFunction.dictator(n), BooleanFunction.xor(n)
    assert is_mapping_between(prefix_xor_mapping(n), dic, xor)
    assert is_mapping_between(xor_head_mapping(n), dic, xor)


def test_locality_row_weight():
    for n in (1, 2, 3, 17, 64, 1000):
        a = build_tree_matrix(n, 2)
        assert max(a.row_weights()) <= 3
        assert max(a.col_weights()) <= 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12, 16])
def test_tree_stretch_bounds(n):
    tm = tree_mapping(n)
    assert stretch_report(tm).max_stretch <= 2
    assert stretch_report(tm.inverse_mapping()).max_stretch <= n.bit_length()


def test_verify_conditions_examples():
    r = verify_conditions(build_tree_matrix(3, 2), cross_check=True)
    assert _tree_conditions_hold(r, 3, 2)
    assert r.max_inverse_col_weight == 2

    rid = verify_conditions(SparseGF2Matrix(4, [1, 2, 3, 4], [1, 2, 3, 4]))
    assert rid.max_inverse_col_weight is not None
    assert not rid.parity_ok
    assert not _tree_conditions_hold(rid, 4, 2)

    r15 = verify_conditions(build_tree_matrix(15, 2), cross_check=True)
    assert _tree_conditions_hold(r15, 15, 2)
    assert r15.max_inverse_col_weight == 4


def test_tree_inverse_check_rejects_corruption():
    # 70001 lies past the 2^16 of the condition grid
    for n, arity, height in ((1, 2, 0), (2, 2, 1), (100, 2, 6), (100, 3, 4), (5000, 2, 12),
                             (70001, 2, 16)):
        a = build_tree_matrix(n, arity)
        parent = a.parent
        assert _tree_inverse_consistent(a, parent) == height + 1
        if n < 3:
            continue
        j = n // 2 + 1
        assert parent[parent[j]] > 0  # j has a grandparent
        for corrupt in (parent[j] + 1,           # another vertex as parent
                        parent[parent[j]],       # parent[j] dropped from j's chain
                        j,                       # a chain that never ends
                        0,                       # a second root
                        n + 1):                  # no such vertex
            bad = parent.copy()
            bad[j] = corrupt
            assert _tree_inverse_consistent(a, bad) is None, (n, arity, corrupt)
        # the matrix loses the entry that ties j to its parent
        keep = (a.rows != parent[j]) | (a.cols != j)
        assert keep.sum() == a.rows.size - 1
        assert _tree_inverse_consistent(
            SparseGF2Matrix(n, a.rows[keep], a.cols[keep]), parent) is None


def tree_inverse_reference(a: SparseGF2Matrix, parent: np.ndarray, chunk: int = 2048):
    """The product a B, B the ancestor indicator of the tree, column by
    column: chunks of columns walk their chains together, one level per
    pass, and keep the entries collected an odd number of times so far; at
    the end exactly the diagonal must be left.  Returns the longest chain,
    or None."""
    n = a.n
    if parent.shape != (n + 1,) or parent.min() < 0 or parent.max() > n:
        return None
    up = parent.copy()
    up[0] = 0
    for _ in range(n.bit_length()):
        up = up[up]
    if up.any():
        return None
    # a's entries column by column: column v's rows - 1 are col_rows[end[v-1]:end[v]]
    col_rows = a.rows[np.argsort(a.cols, kind="stable")] - 1
    end = np.cumsum(np.bincount(a.cols, minlength=n + 1))
    longest = 0
    for lo in range(1, n + 1, chunk):
        cols = np.arange(lo, min(lo + chunk, n + 1))
        owner, vs = cols - lo, cols
        odd = np.empty(0, dtype=np.int64)  # product entries owner * n + row - 1
        levels = 0
        while vs.size:
            levels += 1
            first = end[vs - 1]
            count = end[vs] - first
            at = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
            odd = np.setxor1d(odd, np.repeat(owner * n, count) + col_rows[at],
                              assume_unique=True)
            vs = parent[vs]
            owner, vs = owner[vs > 0], vs[vs > 0]
        if not np.array_equal(odd, (cols - lo) * n + cols - 1):
            return None
        longest = max(longest, levels)
    return longest


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(1, 300), st.integers(2, 6), st.sampled_from(["none", "parent", "drop", "add"]),
       st.randoms(use_true_random=False))
def test_tree_inverse_check_matches_product_walk(n, arity, corruption, rng):
    # the entry-wise check against the product walked level by level, on
    # trees, corrupted parent arrays and matrices one entry off
    a = tree = build_tree_matrix(n, arity)
    parent = a.parent.copy()
    if corruption == "parent":
        parent[rng.randint(1, n)] = rng.randint(0, n + 1)
    elif corruption == "drop":
        keep = np.arange(a.rows.size) != rng.randrange(a.rows.size)
        a = SparseGF2Matrix(n, a.rows[keep], a.cols[keep])
    elif corruption == "add" and n > 1:
        taken = set(zip(a.rows.tolist(), a.cols.tolist()))
        while (entry := (rng.randint(1, n), rng.randint(1, n))) in taken:
            pass
        rows, cols = map(list, zip(*sorted(taken | {entry})))
        a = SparseGF2Matrix(n, rows, cols)
    expected = tree_inverse_reference(a, parent)
    assert _tree_inverse_consistent(a, parent) == expected
    intact = np.array_equal(parent, tree.parent) and a is tree
    assert (expected is None) != intact


def test_structural_and_elimination_agree():
    for n in range(1, 130):
        verify_conditions(build_tree_matrix(n, 2), cross_check=True)
        verify_conditions(build_tree_matrix(n, 3), cross_check=True)


def test_arity_generalization():
    for arity in (2, 3, 4, 5):
        for n in (1, 2, 7, 50, 333, 2048):
            rep = verify_conditions(build_tree_matrix(n, arity))
            assert _tree_conditions_hold(rep, n, arity)
            assert rep.max_row_weight <= arity + 1
            height = 0
            while arity ** height < n:
                height += 1
            assert rep.max_inverse_col_weight <= height + 1


def test_gf2_inverse_rows():
    rows = [0b001, 0b011, 0b111]
    inv = gf2_inverse_rows(rows, 3)
    # multiply back: row i of A times the inverse must be e_i
    for i, r in enumerate(rows):
        out = 0
        for j in range(3):
            if (r >> j) & 1:
                out ^= inv[j]
        assert out == 1 << i
    assert gf2_inverse_rows([0b01, 0b01], 2) is None


def test_prefix_xor_examples():
    pm = prefix_xor_mapping(3)
    assert _image(pm, "111") == "001"
    assert _image(pm, "100") == "100"
    assert _image(pm.inverse_mapping(), "001") == "111"


def test_prefix_xor_inverse_flip_property():
    # flipping output coordinate k flips the first k input coordinates
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 40)
        x = rng.getrandbits(n)
        pm = prefix_xor_mapping(n)
        y = pm.apply_bits(x)
        k = rng.randint(1, n)
        got = pm.inverse_bits(y ^ (1 << (k - 1)))
        assert got == x ^ ((1 << k) - 1)


def test_xor_head_examples():
    xm = xor_head_mapping(3)
    assert _image(xm, "100") == "100"
    assert _image(xm, "110") == "010"
    assert _image(xm, "011") == "011"


def test_xor_head_self_inverse():
    for n in (1, 2, 7):
        xm = xor_head_mapping(n)
        for x in range(1 << n):
            assert xm.apply_bits(xm.apply_bits(x)) == x


def test_matrix_text_export():
    assert build_tree_matrix(3, 2).to_text() == "1 2 3\n2\n3"
    assert SparseGF2Matrix(3, [1, 3], [1, 3]).to_text() == "1\n\n3"  # an empty row


# sha256 of build_tree_matrix(n, arity).to_text(), recorded from the earlier
# tuple-of-rows implementation
_TEXT_SHA256 = {
    (1, 2): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (1, 3): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    (3, 2): "9998bbfa168fd9d9f1729d66f19176a344e18ab139c7400b0b36f7f1239e86bc",
    (3, 3): "9998bbfa168fd9d9f1729d66f19176a344e18ab139c7400b0b36f7f1239e86bc",
    (100, 2): "cb2aea96a9fee9b31041e8b29b9e7dc0c5cf3aed29b83afbf0185f610951eba4",
    (100, 3): "074daa532138fbde52cb145014b4d5bb9dd7c85ebfab1b5de94dd350759de703",
    (4097, 2): "877272d6a0b9bd8477712f09cf95e8e0b08d0a1a81b10cd1858d25707ecc5cdd",
    (4097, 3): "2b2b85b6ff4364cd098b5bc33e8550a3baf98cc9331012716032990bc8935384",
    (1 << 16, 2): "944972c5f03836c62e9b36449e36ba8cba71c8f57835d002daab26a3325c9338",
    (1 << 16, 3): "3d5917f5f2eaa2ea235e3741d49e1682de2799a81ce5f5b3ebd2f141a042925f",
}


def test_matrix_text_pinned():
    for (n, arity), digest in _TEXT_SHA256.items():
        text = build_tree_matrix(n, arity).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, arity)


# max_inverse_col_weight over tree_size_grid(64, 7), run-length encoded as
# (weight, number of consecutive sizes), recorded when the weight was still
# computed as the tree height plus one
_INVERSE_WEIGHT_RUNS = {
    2: [(1, 1), (2, 2), (3, 4), (4, 8), (5, 16), (6, 32), (7, 2), (8, 3), (9, 3), (10, 3),
        (11, 3), (12, 3), (13, 3), (14, 3), (15, 3), (16, 3), (17, 1)],
    3: [(1, 1), (2, 3), (3, 9), (4, 27), (5, 24), (6, 6), (7, 6), (8, 3), (9, 6), (10, 3),
        (11, 5)],
    4: [(1, 1), (2, 4), (3, 16), (4, 43), (5, 6), (6, 6), (7, 6), (8, 6), (9, 5)],
    5: [(1, 1), (2, 5), (3, 25), (4, 36), (5, 6), (6, 6), (7, 9), (8, 5)],
    6: [(1, 1), (2, 6), (3, 36), (4, 27), (5, 6), (6, 9), (7, 6), (8, 2)],
}


def test_inverse_col_weight_pinned():
    for arity, runs in _INVERSE_WEIGHT_RUNS.items():
        weights = [verify_conditions(build_tree_matrix(n, arity)).max_inverse_col_weight
                   for n in tree_size_grid(64, 7)]
        assert [(w, len(list(g))) for w, g in itertools.groupby(weights)] == runs, arity


def test_sparse_matrix_validation():
    for rows, cols in (([1], [1, 2]),              # index arrays of different lengths
                       ([1, 1, 2], [2, 1, 2]),     # a row's columns out of order
                       ([1, 1, 2], [1, 3, 2]),     # column 3 outside 1..2
                       ([0, 1, 2], [1, 1, 2]),     # row 0 outside 1..2
                       ([1, 1, 2], [1, 1, 2])):    # a duplicate entry
        with pytest.raises(ValueError):
            SparseGF2Matrix(2, rows, cols)
    assert SparseGF2Matrix(2, [1, 2], [2, 1]).row_masks() == [0b10, 0b01]


def test_dimension_mismatch_errors(capsys):
    # a point is a plain int, so its dimension is checked where it is parsed
    assert cli.main(["map", "--mapping", "tree", "--n", "3", "--x", "10"]) == 2
    assert cli.main(["map", "--mapping", "tree", "--n", "3", "--x", "1010", "--inverse"]) == 2
    assert capsys.readouterr().err == ("error: point '10' has 2 coordinates, expected 3\n"
                                       "error: point '1010' has 4 coordinates, expected 3\n")
