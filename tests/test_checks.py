"""Each check of the catalogue can fail: an empty coverage never passes, and
a corrupted construction turns the verdict to ok=False."""

from dataclasses import replace

import numpy as np
import pytest

from cubemorph import checks
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


def test_maj2dict_bijection_fails_on_a_broken_law(monkeypatch):
    assert checks.maj2dict_bijection([3, 5]).ok
    real = checks.majority_to_dictator_map

    def swapped(n):
        # 0 and 1...1 have different majority, so their images trade dictator values
        t = real(n).table().copy()
        t[[0, -1]] = t[[-1, 0]]
        return Mapping.from_table(n, t, name="maj2dict")

    monkeypatch.setattr(checks, "majority_to_dictator_map", swapped)
    assert not checks.maj2dict_bijection([3, 5]).ok


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
