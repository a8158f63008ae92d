"""Each check of the catalogue can fail: an empty coverage never passes, and
a corrupted construction turns the verdict to ok=False."""

import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cubemorph import checks
from cubemorph.chain_mappings import majority_to_dictator_map
from cubemorph.cube_core import BooleanFunction
from cubemorph.stretch_metrics import Mapping

EMPTY_COVERAGE = {
    "partition_tiles": lambda: checks.partition_tiles([]),
    "edge_facts": lambda: checks.edge_facts(0),
    "maj2dict_bijection": lambda: checks.maj2dict_bijection([]),
    "maj2xor_composition": lambda: checks.maj2xor_composition([]),
    "tree_conditions": lambda: checks.tree_conditions([], 64),
    "tree_exhaustive": lambda: checks.tree_exhaustive(0),
    "tree_arity-arities": lambda: checks.tree_arity([], [7]),
    "tree_arity-ns": lambda: checks.tree_arity([2], []),
    "middle_binomial": lambda: checks.middle_binomial(0),
    "typical_fraction": lambda: checks.typical_fraction([]),
    "matching_curve": lambda: checks.matching_curve(8, 0, 1),
    "injection": lambda: checks.injection(16, []),
    "dict2random": lambda: checks.dict2random(8, []),
    "rand2rand": lambda: checks.rand2rand(8, []),
}


@pytest.mark.parametrize("call", EMPTY_COVERAGE.values(), ids=EMPTY_COVERAGE.keys())
def test_empty_coverage_never_passes(call):
    try:
        result = call()
    except ValueError:
        return
    assert not result.ok


def _swapped_maj2dict(n):
    # 0 and 1...1 have different majority, so their images trade dictator values
    t = majority_to_dictator_map(n).table().copy()
    t[[0, -1]] = t[[-1, 0]]
    return Mapping.from_table(n, t, name="maj2dict")


def test_maj2dict_bijection_fails_on_a_broken_law(monkeypatch):
    assert checks.maj2dict_bijection([3, 5]).ok
    monkeypatch.setattr(checks, "majority_to_dictator_map", _swapped_maj2dict)
    assert not checks.maj2dict_bijection([3, 5]).ok


def test_maj2dict_block_fails_on_a_moved_image(monkeypatch):
    assert checks.maj2dict_block().ok
    monkeypatch.setattr(checks, "majority_to_dictator_map", _swapped_maj2dict)
    assert not checks.maj2dict_block().ok


def _swap_classes(mapping, f_vals):
    """The mapping with the images of f's first class-0 and first class-1
    points traded: still a permutation, but the law breaks at both."""
    t = mapping.table().copy()
    pair = [int(np.argmin(f_vals)), int(np.argmax(f_vals))]
    t[pair] = t[pair[::-1]]
    return Mapping.from_table(mapping.n, t, name=mapping.name)


def test_maj2xor_composition_fails_on_a_broken_law(monkeypatch):
    assert checks.maj2xor_composition([3, 5]).ok
    real = checks.majority_to_xor_map
    monkeypatch.setattr(checks, "majority_to_xor_map", lambda n: _swap_classes(
        real(n), BooleanFunction.majority(n).values()))
    result = checks.maj2xor_composition([3, 5])
    assert not result.ok
    assert result.detail.startswith("law broken,")


def test_dict2random_fails_on_a_broken_law(monkeypatch):
    # with the repair wrong the table can still be a permutation, so only
    # the law check tells
    seeds = [1, 2]
    result = checks.dict2random(10, seeds)
    assert result.ok and result.detail.startswith("law exact,")
    real = checks.dict_to_random_trial

    def swapped(n, seed):
        trial = real(n, seed)
        mapping = _swap_classes(trial.details.mapping, BooleanFunction.dictator(n).values())
        return replace(trial, details=replace(trial.details, mapping=mapping))

    monkeypatch.setattr(checks, "dict_to_random_trial", swapped)
    result = checks.dict2random(10, seeds)
    assert not result.ok
    assert result.detail.startswith("law broken,")


@pytest.mark.parametrize("excess,ok,slack", [(Fraction(0), True, "0.00"),
                                             (Fraction(1, 1 << 10), False, "-0.00")])
def test_dict2random_fails_past_the_displacement_bound(monkeypatch, excess, ok, slack):
    seeds = [1, 2]
    assert checks.dict2random(10, seeds).ok
    real = checks.dict_to_random_trial

    def stretched(n, seed):
        # the inverse's average stretch at 1 + 2 E[dist] plus excess, still
        # far within the check's other bound of 10
        trial = real(n, seed)
        bound = 1 + 2 * trial.mean_displacement
        assert bound + excess < 10
        return replace(trial, avg_stretch_inv=bound + excess)

    monkeypatch.setattr(checks, "dict_to_random_trial", stretched)
    result = checks.dict2random(10, seeds)
    assert result.ok == ok
    assert result.detail.endswith(f"(min slack {slack})")


def test_rand2rand_fails_on_a_broken_law(monkeypatch):
    pairs = [(1, 2), (3, 4)]
    result = checks.rand2rand(10, pairs)
    assert result.ok and result.detail.startswith("law exact,")
    real = checks.build_random_to_random
    monkeypatch.setattr(checks, "build_random_to_random",
                        lambda f, g: _swap_classes(real(f, g), f.values()))
    result = checks.rand2rand(10, pairs)
    assert not result.ok
    assert result.detail.startswith("law broken,")


def test_partition_tiles_fails_when_the_tiling_check_raises(monkeypatch):
    def overlapping(n):
        raise AssertionError("point 010 covered twice")

    monkeypatch.setattr(checks, "partition_covers_cube", overlapping)
    result = checks.partition_tiles(range(1, 4))
    assert not result.ok
    assert "covered twice" in result.detail


def test_injection_fails_on_a_duplicated_image(monkeypatch):
    seeds = [1, 2]
    assert checks.injection(9, seeds).ok
    real = checks.build_injection

    def duplicated(state):
        img = real(state).copy()
        # a source one step from img[0]'s prefix, so only injectivity breaks
        prefix = int(img[0]) & (state.size - 1)
        img[prefix or 1] = img[0]
        return img

    monkeypatch.setattr(checks, "build_injection", duplicated)
    assert not checks.injection(9, seeds).ok


def test_tree_size_grid():
    assert checks.tree_size_grid(3, 15) == [1, 2, 3, (1 << 15) - 1, 1 << 15,
                                            (1 << 15) + 1, (1 << 16) - 1, 1 << 16]


@pytest.mark.parametrize("max_n", range(1, 17))
def test_tree_exhaustive_names_8_16_and_its_largest_n_once(max_n):
    detail = checks.tree_exhaustive(max_n).detail
    assert re.search(rf" n={max_n}:fwd=\d+,inv=\d+$", detail), detail
    named = [int(k) for k in re.findall(r"n=(\d+):", detail)]
    assert named == sorted({k for k in (8, 16, max_n) if k <= max_n})


def test_tree_exhaustive_fails_on_a_wrong_column_report(monkeypatch):
    assert checks.tree_exhaustive(5).ok
    real = checks.LinearMap._exhaustive_histogram

    def shifted(self):
        # move one edge of direction 1 to the next distance: same maximum
        hist = real(self).copy()
        w = int(hist[0].argmax())
        hist[0, w] -= 1
        hist[0, w - 1] += 1
        return hist

    monkeypatch.setattr(checks.LinearMap, "_exhaustive_histogram", shifted)
    assert not checks.tree_exhaustive(5).ok


# Each case below pushes the one measurement a check reads just past the
# check's bound and leaves everything else as measured.

@pytest.mark.parametrize("field,value", [("max_signature_distance", 4), ("max_level_gap", 2),
                                         ("max_cross_excess", 7), ("max_hausdorff", 8)])
def test_edge_facts_fails_past_each_bound(monkeypatch, field, value):
    assert checks.edge_facts(4).ok
    real = checks.adjacent_chain_scan
    monkeypatch.setattr(checks, "adjacent_chain_scan",
                        lambda n: replace(real(n), **{field: value}))
    assert not checks.edge_facts(4).ok


def test_order_invariance_fails_on_an_order_dependent_signature(monkeypatch):
    assert checks.order_invariance(1).ok
    real = checks.signature
    monkeypatch.setattr(checks, "signature", lambda x, n, order_seed=None: (
        real(x, n) if order_seed is None else real(x ^ 1, n)))
    assert not checks.order_invariance(1).ok


def test_case_split_fails_past_distance_3(monkeypatch):
    assert checks.case_split().ok
    monkeypatch.setattr(checks, "signature_distance", lambda x, y, n: 4)
    assert not checks.case_split().ok


# one case per tree-map condition: singular, not dictator -> parity, a row
# past arity + 1, a column past 2, an inverse column past floor(log2 n) + 1
TREE_BREAKS = {
    "invertible": lambda a: {"max_inverse_col_weight": None},
    "parity": lambda a: {"parity_ok": False},
    "row-weight": lambda a: {"max_row_weight": 4},
    "col-weight": lambda a: {"max_col_weight": 3},
    "inverse-weight": lambda a: {"max_inverse_col_weight": a.n.bit_length() + 1},
}


@pytest.mark.parametrize("broken", TREE_BREAKS.values(), ids=TREE_BREAKS.keys())
def test_tree_conditions_fail_on_each_condition(monkeypatch, broken):
    sizes = range(1, 17)
    assert checks.tree_conditions(sizes, 16).ok
    real = checks.verify_conditions
    monkeypatch.setattr(checks, "verify_conditions", lambda a, cross_check=False: replace(
        real(a, cross_check), **broken(a)))
    assert not checks.tree_conditions(sizes, 16).ok


def test_tree_arity_fails_past_height_plus_one(monkeypatch):
    # a ternary tree on 64 vertices has height 4; weight 6 still meets the
    # floor(log2 64) + 1 = 7 of the five conditions, so only the height bound fails
    assert checks.tree_arity([3], [64]).ok
    real = checks.verify_conditions
    monkeypatch.setattr(checks, "verify_conditions", lambda a, cross_check=False: replace(
        real(a, cross_check), max_inverse_col_weight=6))
    assert not checks.tree_arity([3], [64]).ok


def test_middle_binomial_fails_on_doubled_squares(monkeypatch):
    # C(n, n/2)^2 n is about 0.64 * 2^(2n) at large n, so doubling it passes 2^(2n)
    assert checks.middle_binomial(100).ok
    real = checks._middle_binomial_squares
    monkeypatch.setattr(checks, "_middle_binomial_squares",
                        lambda limit: (2 * c2 for c2 in real(limit)))
    assert not checks.middle_binomial(100).ok


def test_typical_fraction_fails_below_nine_tenths(monkeypatch):
    assert checks.typical_fraction([64]).ok
    monkeypatch.setattr(checks, "_typical_fraction", lambda n, c: Fraction(9, 10) - Fraction(1, n))
    assert not checks.typical_fraction([64]).ok


def test_oracle_n3_fails_on_an_average_of_1(monkeypatch):
    assert checks.oracle_n3(1).ok
    real = checks.exhaustive_min_avg_stretch
    monkeypatch.setattr(checks, "exhaustive_min_avg_stretch",
                        lambda f, g: (Fraction(1), real(f, g)[1]))
    assert not checks.oracle_n3(1).ok


def test_dict2maj_impossibility_fails_on_a_worst_edge_of_1(monkeypatch):
    assert checks.dict2maj_impossibility().ok
    real = checks.exhaustive_min_max_stretch
    monkeypatch.setattr(checks, "exhaustive_min_max_stretch", lambda f, g: (1, real(f, g)[1]))
    assert not checks.dict2maj_impossibility().ok


@pytest.mark.parametrize("n", [8, 10])
def test_matching_curve_passes_on_every_seed(n):
    # 20 trials as verify runs them; the tolerance is 4u above n = 8 and 10
    for seed in range(1, 21):
        result = checks.matching_curve(n, 20, seed)
        assert result.ok, (seed, result.detail)


def test_matching_curve_tolerance_reaches_0_01_at_n_14():
    assert "within 0.0100," in checks.matching_curve(14, 20, 1).detail
    assert "within 0.0791," in checks.matching_curve(8, 20, 1).detail


@pytest.mark.parametrize("n,shift", [(16, 0.02), (8, 0.1)])
def test_matching_curve_fails_on_a_shifted_round(monkeypatch, n, shift):
    assert checks.matching_curve(n, 20, 1).ok
    real = checks.recursion_curve

    def shifted(n, trials, seed):
        p_hat, q_hat = real(n, trials=trials, seed=seed)
        p_hat[:, 1] += shift
        return p_hat, q_hat

    monkeypatch.setattr(checks, "recursion_curve", shifted)
    assert not checks.matching_curve(n, 20, 1).ok
