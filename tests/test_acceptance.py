"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` captures them but the test verdicts carry the same
information.
"""

import json
import random
import time

import jsonschema
import numpy as np
import pytest

from cubemorph import checks, cli
from scalar_reference import tree2_apply_bits
from test_cli import REPORT_SCHEMA


def report(num, results, ok=True, note=""):
    """Print criterion num's line from its catalogue checks (and a test-only
    verdict), then assert them all."""
    ok = ok and all(c.ok for c in results)
    detail = "; ".join([f"{'' if c.ok else 'FAIL '}{c.name}: {c.detail}" for c in results]
                       + ([note] if note else []))
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_partition_tiles_every_cube():
    t0 = time.time()
    result = checks.partition_tiles(range(1, 17))
    elapsed = time.time() - t0
    report(1, [result], elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_2_chain_distance_facts_exhaustive():
    report(2, [checks.edge_facts(14)])


def test_criterion_3_case_split_generator():
    report(3, [checks.case_split()])


def test_criterion_4_majority_to_dictator():
    report(4, [checks.maj2dict_block(), checks.maj2dict_bijection(range(3, 16, 2))])


def test_criterion_5_no_short_dictator_to_majority():
    report(5, [checks.dict2maj_impossibility()])


def test_criterion_6_tree_map():
    sizes = checks.tree_size_grid(256, 8) + [1000, 10000, 1 << 16]
    rng = random.Random(616)
    parity_ok = all((tree2_apply_bits(1 << 16, v).bit_count() & 1) == (v & 1)
                    for v in (rng.getrandbits(1 << 16) for _ in range(100_000)))
    report(6, [checks.tree_conditions(sizes, 128), checks.tree_exhaustive(16),
               checks.tree_arity((2, 3, 4, 5, 6), (1, 7, 64, 333, 4096))],
           parity_ok, "parity law on 10^5 points at n=2^16")


def test_criterion_7_lower_bound_ingredients():
    report(7, [checks.middle_binomial(10 ** 4),
               checks.typical_fraction((64, 256, 1024, 4096)), checks.oracle_n3(7)])


def test_criterion_8_majority_to_parity_composition():
    report(8, [checks.maj2xor_composition(range(3, 16, 2))])


def test_criterion_9_matching_statistics():
    t0 = time.time()
    results = []
    for n in (16, 20, 24):
        results.append(checks.matching_curve(n, 20, 900 + n))
        results.append(checks.injection(n, checks.derived_seeds(800 + n, 20, 2 ** 62)))
    elapsed = time.time() - t0
    report(9, results, elapsed < 300, f"{elapsed:.0f}s")


def test_criterion_10_dictator_to_random_balanced():
    report(10, [checks.dict2random(n, np.random.SeedSequence(1000 + n).spawn(20))
                for n in range(14, 21)])


def test_criterion_11_random_to_random_composition():
    pairs = [child.spawn(2) for child in np.random.SeedSequence(1100).spawn(20)]
    report(11, [checks.rand2rand(16, pairs)])


def test_criterion_12_cli_contract(tmp_path, capsys, monkeypatch):
    ok = cli.main(["chains", "--n", "8", "--point", "01100110"]) == 0
    ok &= capsys.readouterr().out == "_1100_10 : 01100010 01100110 11100110\n"

    for src, img in [("111", "111"), ("110", "101"), ("011", "100"),
                     ("010", "000"), ("001", "001"), ("000", "011")]:
        ok &= cli.main(["map", "--mapping", "maj2dict", "--n", "3", "--x", src]) == 0
        ok &= capsys.readouterr().out == img + "\n"

    out = tmp_path / "rep.json"
    ok &= cli.main(["analyze", "--mapping", "maj2dict", "--n", "9",
                    "--out", str(out)]) == 0
    jsonschema.validate(json.loads(out.read_text()), REPORT_SCHEMA)

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        ok &= cli.main(["random", "--n", "12", "--trials", "3", "--seed", "7",
                        "--out", str(path)]) == 0
    ok &= a.read_bytes() == b.read_bytes()

    ok &= cli.main(["map", "--mapping", "maj2dict", "--n", "4", "--x", "1100"]) == 2
    ok &= cli.main(["chains", "--n", "21"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["random", "--n", "8", "--trials", "2"])
    ok &= exc.value.code == 2
    capsys.readouterr()
    monkeypatch.setitem(cli._SUITES, "btk",
                        lambda *args: [checks.Check("forced", False, "")])
    ok &= cli.main(["verify", "--suite", "btk"]) == 1
    capsys.readouterr()
    report(12, [], ok, "golden chains/map lines, schema-valid analyze report, "
                       "byte-identical seeded CSV, exit codes 0/1/2")
