"""The size caps: one table in cube_core, one check per entry point, and the
README's copy of the table."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cubemorph import cli, cube_core
from cubemorph.btk_chains import adjacent_chain_scan, enumerate_partition, partition_covers_cube
from cubemorph.cube_core import BooleanFunction, random_balanced, random_subset_function
from cubemorph.gf2_maps import (
    SparseGF2Matrix,
    prefix_xor_mapping,
    tree_mapping,
    verify_conditions,
    xor_head_mapping,
)
from cubemorph.random_matching import (
    build_dict_to_random_details,
    build_random_to_random,
    dict_to_random_trial,
    recursion_curve,
    run_matching,
)
from cubemorph.stretch_metrics import (
    Mapping,
    exhaustive_min_avg_stretch,
    exhaustive_min_max_stretch,
    is_mapping_between,
    local_search_min_stretch,
    stretch_report,
    typical_fraction,
)

CAPS = {name: value for name, value in vars(cube_core).items() if name.endswith("_MAX_N")}
xor = BooleanFunction.xor


def _identity_matrix(n):
    return SparseGF2Matrix(n, np.arange(1, n + 1), np.arange(1, n + 1))


# (row id, cap, lowest accepted n, entry point): each entry point must reject
# n outside low..cap before it allocates anything that grows with n.  A row
# keeps its id for good, and a new row takes the next unused one, so the test
# ids f"{cap}-{row id}" do not move when a row is removed.
GUARDS = [
    (0, "EXHAUSTIVE_MAX_N", 1, lambda n: random_balanced(n, seed=0)),
    (1, "EXHAUSTIVE_MAX_N", 1, lambda n: random_subset_function(n, seed=0)),
    (4, "EXHAUSTIVE_MAX_N", 1, lambda n: BooleanFunction(n, table=np.zeros(1, np.uint8))),
    (5, "EXHAUSTIVE_MAX_N", 1, lambda n: xor(n).values()),
    (7, "FORMULA_MAX_N", 1, BooleanFunction.majority),
    (8, "FORMULA_MAX_N", 1, Mapping.identity),
    (9, "FORMULA_MAX_N", 1, tree_mapping),
    (10, "FORMULA_MAX_N", 1, prefix_xor_mapping),
    (11, "FORMULA_MAX_N", 1, xor_head_mapping),
    (12, "TABLE_MAX_N", 1, lambda n: Mapping.identity(n).table()),
    (13, "TABLE_MAX_N", 1, lambda n: stretch_report(Mapping.identity(n))),
    (15, "TABLE_MAX_N", 1, lambda n: is_mapping_between(Mapping.identity(n), xor(n), xor(n))),
    (16, "TABLE_MAX_N", 2, lambda n: dict_to_random_trial(n, seed=0)),
    (17, "MATCHING_MAX_N", 2, lambda n: run_matching(xor(n))),
    (18, "MATCHING_MAX_N", 2, lambda n: recursion_curve(n, trials=1, seed=0)),
    (19, "TABLE_MAX_N", 2, lambda n: build_dict_to_random_details(xor(n))),
    (20, "PARTITION_MAX_N", 1, lambda n: next(enumerate_partition(n))),
    (21, "PARTITION_MAX_N", 1, partition_covers_cube),
    (22, "LOCAL_SEARCH_MAX_N", 1, lambda n: local_search_min_stretch(xor(n), xor(n), seed=1)),
    (23, "EDGE_SCAN_MAX_N", 0, adjacent_chain_scan),
    (24, "ORACLE_MAX_N", 1, lambda n: exhaustive_min_avg_stretch(xor(n), xor(n))),
    (25, "ORACLE_MAX_N", 1, lambda n: exhaustive_min_max_stretch(xor(n), xor(n))),
    (26, "ELIMINATION_MAX_N", 1, lambda n: verify_conditions(_identity_matrix(n))),
    (27, "TYPICAL_MAX_N", 1, lambda n: typical_fraction(n, 0.01)),
    (28, "TABLE_MAX_N", 2, lambda n: build_random_to_random(xor(n), xor(n))),
    (29, "EXHAUSTIVE_MAX_N", 1, lambda n: BooleanFunction(n, bitmap=np.zeros(1, np.uint8))),
    (30, "EXHAUSTIVE_MAX_N", 1, lambda n: BooleanFunction.majority(n).ones_count()),
]

# (cap, lowest accepted n, subcommand arguments before --n's value, after it)
CLI_GUARDS = [
    ("CHAINS_DUMP_MAX_N", 1, ("chains", "--n"), ()),
    ("TABLE_MAX_N", 2, ("random", "--n"), ("--trials", "1", "--seed", "1")),
    ("MATCHING_MAX_N", 2, ("random", "--n"), ("--trials", "1", "--seed", "1", "--curve")),
]


def test_every_cap_is_guarded():
    assert {cap for _, cap, _, _ in GUARDS} | {cap for cap, *_ in CLI_GUARDS} == set(CAPS)


def test_guard_row_ids_are_unique():
    assert len({row for row, *_ in GUARDS}) == len(GUARDS)


@pytest.mark.parametrize("cap,low,entry", [row[1:] for row in GUARDS],
                         ids=[f"{cap}-{row}" for row, cap, _, _ in GUARDS])
def test_entry_point_rejects_n_outside_its_range(cap, low, entry):
    high = CAPS[cap]
    with pytest.raises(ValueError, match=rf"must be in {low}\.\.{high}\b.*, got {high + 1}$"):
        entry(high + 1)
    # below the floor the input's own constructor may be the one that refuses
    for n in (low - 1, -5):
        with pytest.raises(ValueError, match=rf"must be in \d+\.\.\d+.*, got {n}$"):
            entry(n)


@pytest.mark.parametrize("cap,low,before,after", CLI_GUARDS,
                         ids=[cap for cap, *_ in CLI_GUARDS])
def test_cli_rejects_n_outside_its_range(capsys, cap, low, before, after):
    high = CAPS[cap]
    for n in (high + 1, low - 1):
        assert cli.main([*before, str(n), *after]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"error: --n must be in {low}\.\.{high}\b.*, got {n}\n",
                            captured.err)


def test_table_dtype_holds_every_point_up_to_the_table_cap():
    assert cube_core.TABLE_MAX_N <= 8 * cube_core.TABLE_DTYPE.itemsize


def test_exhaustive_analyze_of_a_chain_map_keeps_the_table_cap(capsys):
    n = cube_core.TABLE_MAX_N + 1 | 1
    assert cli.main(["analyze", "--mapping", "maj2dict", "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n must be in 1..{cube_core.TABLE_MAX_N}, got {n}\n"


@pytest.mark.parametrize("build", [tree_mapping, prefix_xor_mapping, xor_head_mapping])
def test_linear_maps_reject_large_n_before_building_masks(build):
    # the O(n^2)-bit column masks used to be built before n was checked
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="got 20000$"):
            build(20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_readme_quotes_the_cap_table():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Size caps\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([A-Z_]+_MAX_N)` \| ([\d,]+) \|", section, flags=re.M)
    assert len(rows) == len(CAPS)
    assert {name: int(value.replace(",", "")) for name, value in rows} == CAPS
