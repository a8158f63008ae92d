import ast
import json
import os
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

from cubemorph import checks, cli, cube_core, random_matching

REPORT_SCHEMA = {
    "type": "object",
    "required": ["n", "mapping", "mode", "avg", "max", "per_direction",
                 "histogram", "edges_total"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "mapping": {"type": "string"},
        "mode": {"enum": ["exhaustive", "sampled"]},
        "avg": {
            "type": "object",
            "required": ["num", "den"],
            "properties": {"num": {"type": "integer", "minimum": 0},
                           "den": {"type": "integer", "minimum": 1}},
            "additionalProperties": False,
        },
        "max": {"type": "integer", "minimum": 0},
        "per_direction": {
            "type": "array",
            "items": {"type": "object", "required": ["num", "den"],
                      "additionalProperties": False,
                      "properties": {"num": {"type": "integer"},
                                     "den": {"type": "integer"}}},
        },
        "histogram": {
            "type": "object",
            "patternProperties": {"^[0-9]+$": {"type": "integer", "minimum": 1}},
            "additionalProperties": False,
        },
        "edges_total": {"type": "integer", "minimum": 1},
        "samples": {"type": "integer"},
        "stderr": {"type": "number"},
        "seed": {"type": "integer"},
    },
    "additionalProperties": False,
}


def run_cli(*argv):
    return cli.main(list(argv))


def test_chains_golden_single_chain(capsys):
    assert run_cli("chains", "--n", "8", "--point", "01100110") == 0
    assert capsys.readouterr().out == "_1100_10 : 01100010 01100110 11100110\n"


def test_chains_golden_n1(capsys):
    assert run_cli("chains", "--n", "1") == 0
    assert capsys.readouterr().out == "_ : 0 1\n"


def test_chains_full_dump_n2(capsys):
    assert run_cli("chains", "--n", "2") == 0
    assert capsys.readouterr().out == "10 : 10\n__ : 00 01 11\n"


def test_chains_cap_is_usage_error(capsys):
    assert run_cli("chains", "--n", "21") == 2
    assert "--n must be in 1..20 without --point" in capsys.readouterr().err


def test_chains_point_cap_is_usage_error(capsys):
    assert run_cli("chains", "--n", "64", "--point", "0" * 64) == 2
    assert capsys.readouterr() == ("", "error: n must be in 1..63, got 64\n")
    assert run_cli("chains", "--n", "63", "--point", "0" * 62 + "1") == 0
    # the point's chain is all gaps: 0^(63-w) 1^w for every weight w
    chain = " ".join("0" * (63 - w) + "1" * w for w in range(64))
    assert capsys.readouterr().out == "_" * 63 + " : " + chain + "\n"


def test_map_golden_block(capsys):
    table = [("111", "111"), ("110", "101"), ("011", "100"),
             ("010", "000"), ("001", "001"), ("000", "011")]
    for src, img in table:
        assert run_cli("map", "--mapping", "maj2dict", "--n", "3", "--x", src) == 0
        assert capsys.readouterr().out == img + "\n"


def test_map_tree_and_inverse(capsys):
    assert run_cli("map", "--mapping", "tree", "--n", "3", "--x", "010") == 0
    assert capsys.readouterr().out == "110\n"
    assert run_cli("map", "--mapping", "tree", "--n", "3", "--x", "110", "--inverse") == 0
    assert capsys.readouterr().out == "010\n"


def test_map_even_n_exit2(capsys):
    assert run_cli("map", "--mapping", "maj2dict", "--n", "4", "--x", "1100") == 2
    assert "odd" in capsys.readouterr().err


def test_map_bad_point_exit2(capsys):
    assert run_cli("map", "--mapping", "prefix", "--n", "3", "--x", "01a") == 2
    capsys.readouterr()
    assert run_cli("map", "--mapping", "prefix", "--n", "3", "--x", "0110") == 2


def test_map_matrix_export(capsys):
    assert run_cli("map", "--mapping", "tree", "--n", "3", "--matrix-out", "-") == 0
    assert capsys.readouterr().out == "1 2 3\n2\n3\n"
    # the matrix needs no mapping, so it exports beyond the point cap
    assert run_cli("map", "--mapping", "tree", "--n", "100", "--matrix-out", "-") == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 100 and rows[0] == "1 2 3" and rows[49] == "50 100" and rows[99] == "100"


@pytest.mark.parametrize("n,x", [("64", "0"), ("3", "01a"), ("3", "0110")])
def test_map_matrix_out_refused_point_writes_nothing(capsys, n, x):
    # the mapping and --x are checked before the matrix goes to stdout
    assert run_cli("map", "--mapping", "tree", "--n", n, "--matrix-out", "-", "--x", x) == 2
    assert capsys.readouterr().out == ""


def test_map_matrix_out_with_point(capsys):
    assert run_cli("map", "--mapping", "tree", "--n", "3", "--matrix-out", "-",
                   "--x", "001") == 0
    assert capsys.readouterr().out == "1 2 3\n2\n3\n101\n"


def test_map_tree_arity3(capsys):
    assert run_cli("map", "--mapping", "tree", "--n", "5", "--arity", "3",
                   "--matrix-out", "-") == 0
    assert capsys.readouterr().out == "1 2 3 4\n2 5\n3\n4\n5\n"
    assert run_cli("map", "--mapping", "tree", "--n", "5", "--arity", "3",
                   "--x", "01000") == 0
    assert capsys.readouterr().out == "11000\n"


def test_analyze_schema_and_values(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("analyze", "--mapping", "identity", "--n", "8",
                   "--out", str(out)) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["avg"] == {"num": 1, "den": 1}
    assert report["max"] == 1
    assert report["edges_total"] == 1024


def test_analyze_maj2dict_bound(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("analyze", "--mapping", "maj2dict", "--n", "11",
                   "--out", str(out)) == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["max"] <= 11


def test_analyze_tree_bound(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("analyze", "--mapping", "tree", "--n", "14",
                   "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["max"] <= 2


def test_analyze_linear_map_past_the_table_cap(tmp_path, capsys):
    # a linear map's exact report comes from its column weights, no table
    out = tmp_path / "r.json"
    start = time.process_time()
    assert run_cli("analyze", "--mapping", "tree", "--n", "63", "--inverse",
                   "--out", str(out)) == 0
    assert time.process_time() - start < 1
    report = json.loads(out.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert (report["mode"], report["mapping"], report["max"]) == ("exhaustive", "tree^-1", 6)
    assert report["avg"] == {"num": 107, "den": 21}
    assert report["edges_total"] == 63 << 62
    assert capsys.readouterr().err == f"avg 107/21 max 6 over {63 << 62} edges\n"


def test_analyze_sampled_schema_and_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("analyze", "--mapping", "tree", "--n", "30",
                       "--mode", "sampled", "--samples", "200",
                       "--seed", "9", "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["mode"] == "sampled"
    assert report["samples"] == 200


def test_analyze_sampled_missing_seed_exit2(capsys):
    assert run_cli("analyze", "--mapping", "tree", "--n", "30",
                   "--mode", "sampled", "--samples", "10") == 2
    capsys.readouterr()
    # outside the 1..63 point dimensions
    for n in ("64", "0"):
        assert run_cli("analyze", "--mapping", "identity", "--n", n,
                       "--mode", "sampled", "--samples", "10", "--seed", "1") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_analyze_sampled_nonpositive_samples_exit2(capsys, samples):
    assert run_cli("analyze", "--mapping", "tree", "--n", "30", "--mode", "sampled",
                   "--samples", samples, "--seed", "1") == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("analyze", "--mapping", "prefix", "--n", "3", "--out"),
    ("analyze", "--mapping", "prefix", "--n", "3", "--histogram-csv"),
    ("search", "--from", "dict", "--to", "maj", "--n", "3", "--mode", "exhaustive", "--out"),
], ids=["--out", "--histogram-csv", "search-out"])
def test_write_into_missing_directory_exit2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "file.txt"
    assert run_cli(*argv, str(target)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no report or header precedes the error
    assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1


def test_analyze_histogram_csv(tmp_path):
    out = tmp_path / "r.json"
    hist = tmp_path / "h.csv"
    assert run_cli("analyze", "--mapping", "prefix", "--n", "3",
                   "--out", str(out), "--histogram-csv", str(hist)) == 0
    assert hist.read_text() == "distance,count\n1,4\n2,8\n"


def test_random_requires_seed():
    # argparse exits 2 for a missing required argument
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["random", "--n", "8", "--trials", "2"])
    assert exc.value.code == 2


def test_random_curve_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run_cli("random", "--n", "10", "--trials", "3", "--seed", "5",
                       "--curve", "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "trial,round,p_hat,q_hat"
    first = lines[1].split(",")
    assert first[:2] == ["0", "0"]
    assert abs(float(first[2]) - 0.25) < 0.1


def test_random_experiment_csv(tmp_path):
    out = tmp_path / "exp.csv"
    assert run_cli("random", "--n", "10", "--trials", "2", "--seed", "3",
                   "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,frac_unmatched_poor,frac_dist_le2,avg_stretch,avg_stretch_inv"
    assert len(lines) == 3


def test_random_beyond_stretch_cap_exit2(capsys, monkeypatch):
    # without --curve the stretch statistics cap n; refuse before any work
    def refuse(*args, **kwargs):
        raise AssertionError("construction ran before the size check")

    # the command imports both from random_matching when it runs
    monkeypatch.setattr(random_matching, "dict_to_random_trial", refuse)
    monkeypatch.setattr(random_matching, "recursion_curve", refuse)
    assert run_cli("random", "--n", "25", "--trials", "1", "--seed", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2..24 without --curve" in captured.err


def test_search_exhaustive_golden(capsys):
    assert run_cli("search", "--from", "xor", "--to", "maj", "--n", "3",
                   "--mode", "exhaustive") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "min avg stretch = 3/2"
    assert len(out) == 1 + 8
    assert all("→" in line for line in out[1:])


def test_search_beyond_n4_prints_the_header_only(capsys, monkeypatch, tmp_path):
    argv = ("search", "--from", "xor", "--to", "maj", "--n", "5", "--mode", "local",
            "--seed", "1")
    out = tmp_path / "witness.txt"
    assert run_cli(*argv, "--out", str(out)) == 0
    header = capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert header == lines[0] + "\n" and len(lines) == 1 + 32
    # without --out the 2^n witness lines are not even formatted

    def refuse(*args):
        raise AssertionError("a witness line was formatted")

    monkeypatch.setattr(cube_core, "format_bits", refuse)
    assert run_cli(*argv) == 0
    captured = capsys.readouterr()
    assert captured.out == header
    assert captured.err == "witness omitted (32 lines); use --out FILE\n"


def test_search_out_dash_prints_the_file_once(capsys, tmp_path):
    argv = ("search", "--from", "xor", "--to", "maj", "--n", "3", "--mode", "exhaustive")
    out = tmp_path / "witness.txt"
    assert run_cli(*argv, "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli(*argv, "--out", "-") == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text(encoding="utf-8")
    assert printed.count("min avg stretch = 3/2") == 1 and len(printed.splitlines()) == 1 + 8


def test_search_min_max_metric(capsys):
    assert run_cli("search", "--from", "dict", "--to", "maj", "--n", "3",
                   "--mode", "exhaustive", "--metric", "max") == 0
    assert capsys.readouterr().out.splitlines()[0] == "min max stretch = 2"


def test_search_local_identity(capsys):
    assert run_cli("search", "--from", "xor", "--to", "xor", "--n", "3",
                   "--mode", "local", "--seed", "1") == 0
    assert capsys.readouterr().out.splitlines()[0] == "best avg stretch = 1"


def test_search_local_needs_seed(capsys):
    # without a seed, or with no restart to run
    for extra in ((), ("--seed", "1", "--restarts", "0"), ("--seed", "1", "--restarts", "-2")):
        assert run_cli("search", "--from", "xor", "--to", "xor", "--n", "3",
                       "--mode", "local", *extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_search_infeasible_pair_exit2(capsys):
    assert run_cli("search", "--from", "xor", "--to", "maj", "--n", "2",
                   "--mode", "exhaustive") == 2


def test_search_cap_exit2(capsys):
    assert run_cli("search", "--from", "xor", "--to", "maj", "--n", "5",
                   "--mode", "exhaustive") == 2


def test_verify_exit_codes(capsys, monkeypatch):
    assert run_cli("verify", "--suite", "lowerbound", "--max-n", "3") == 0
    out = capsys.readouterr().out
    assert all(line.startswith("PASS") for line in out.splitlines())
    # the exhaustive n=3 minimum is part of the printed record
    assert "min avg 3/2" in out
    monkeypatch.setitem(cli._SUITES, "lowerbound",
                        lambda *a: [checks.Check("forced-failure", False, "injected")])
    assert run_cli("verify", "--suite", "lowerbound") == 1
    assert "FAIL forced-failure" in capsys.readouterr().out


# an n bound, an n set or a size grid
COVERAGE = re.compile(r"\bn(<=|=)\d|\bn in \{\d+(,\d+)*\}|\bgrid to \S|\ba,b,c,d<=\d")


@pytest.mark.parametrize("max_n", ["14", "5"])
def test_every_verify_line_names_its_coverage(capsys, max_n):
    assert run_cli("verify", "--suite", "all", "--max-n", max_n, "--seed", "1") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 18
    for line in lines:
        assert COVERAGE.search(line.partition(" - ")[0]), line


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_verify_empty_range_exit2(capsys, max_n):
    assert run_cli("verify", "--suite", "btk", "--max-n", max_n) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_verify_check_that_raises_is_a_fail(capsys, monkeypatch):
    def partition_tiles(ns):
        raise AssertionError("forced")

    monkeypatch.setattr(checks, "partition_tiles", partition_tiles)
    assert run_cli("verify", "--suite", "btk", "--max-n", "3") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "FAIL partition_tiles - AssertionError: forced"
    assert all(line.startswith("PASS") for line in out[1:])


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--seed", "-1")])
def test_verify_bad_trials_or_seed_exit2(capsys, flag, value):
    assert run_cli("verify", "--suite", "all", "--max-n", "8", flag, value) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("analyze", "--mapping", "tree", "--n", "5"),
    ("analyze", "--mapping", "tree", "--n", "5", "--mode", "sampled", "--samples", "10"),
    ("verify", "--suite", "btk", "--max-n", "3"),
    ("random", "--n", "8", "--trials", "2"),
    ("search", "--from", "xor", "--to", "xor", "--n", "3", "--mode", "local"),
], ids=["analyze", "analyze-sampled", "verify", "random", "search"])
def test_negative_seed_exit2(capsys, argv):
    # one rule for every command that takes --seed, exhaustive analyze included
    assert run_cli(*argv, "--seed", "-1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be at least 0\n"


def test_verify_has_no_workers_option(capsys):
    for argv in (["verify", "--suite", "btk"], ["analyze", "--mapping", "tree", "--n", "5"]):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([*argv, "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_verify_all_suites_pass(capsys):
    assert run_cli("verify", "--suite", "all", "--max-n", "8", "--trials", "8") == 0
    out = capsys.readouterr().out
    assert all(line.startswith("PASS") for line in out.splitlines())
    assert len(out.splitlines()) >= 15


@pytest.mark.parametrize("suite", ["matching", "all"])
def test_verify_max_n_1_passes(capsys, suite):
    # the matching constructions need n >= 2, so the suite clamps its n up
    assert run_cli("verify", "--suite", suite, "--max-n", "1") == 0
    out = capsys.readouterr().out
    assert all(line.startswith("PASS") for line in out.splitlines())
    assert "PASS matching.dict2random n=2" in out


def test_workers_env_is_ignored(tmp_path, monkeypatch):
    monkeypatch.delenv("CUBEMORPH_WORKERS", raising=False)
    a = tmp_path / "a.json"
    assert run_cli("analyze", "--mapping", "maj2dict", "--n", "9", "--out", str(a)) == 0
    monkeypatch.setenv("CUBEMORPH_WORKERS", "zzz")
    b = tmp_path / "b.json"
    assert run_cli("analyze", "--mapping", "maj2dict", "--n", "9", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def _readme_cli_lines():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("\n```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("cubemorph ")]


def test_readme_examples_run(tmp_path, monkeypatch):
    lines = _readme_cli_lines()
    assert len(lines) >= 12
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line, comments=True)[1:]) == 0, line


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cubemorph", "chains", "--n", "8",
         "--point", "01100110"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "_1100_10 : 01100010 01100110 11100110\n"


_STARTUP = """
import os
import sys
import time
from collections import Counter
import {module}
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
loaded = ",".join(sorted(m for m in sys.modules if m.startswith("cubemorph."))) or "none"
print(tasks, os.environ.get("OPENBLAS_NUM_THREADS"), loaded)
"""


def _import_in_subprocess(blas_threads, module="cubemorph"):
    """(threads after `import module` or "None" without /proc, the
    OPENBLAS_NUM_THREADS it leaves in os.environ, the cubemorph.* modules it
    loaded or "none") in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", _STARTUP.format(module=module)], env=env,
                          capture_output=True, text=True, check=True)
    return tuple(proc.stdout.split())


def test_import_starts_no_blas_threads_and_leaves_no_variable():
    tasks, blas_threads, _ = _import_in_subprocess(None)
    assert blas_threads == "None"
    if tasks == "None":
        pytest.skip("no /proc/self/task to count threads")
    assert tasks == "1"


def test_import_keeps_the_users_blas_setting():
    assert _import_in_subprocess("2")[1] == "2"


def test_import_loads_no_module_of_the_package():
    # the package root binds no layer name: callers import the modules
    assert _import_in_subprocess(None)[2] == "none"


def test_cli_import_loads_no_other_module_of_the_package():
    # each command imports the layers it runs when it runs
    assert _import_in_subprocess(None, "cubemorph.cli")[2] == "cubemorph.cli"


# public names that no module of the package and nothing under bench/ uses,
# each with its reason; code that only tests need lives under tests/
_CALLERLESS: set[str] = set()


def _public_definitions(tree: ast.Module):
    """(name, node) for each top-level public function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from ((name, node) for name in names if not name.startswith("_"))


def _public_methods(tree: ast.Module):
    """(class.name, node) for each public method and property of each
    top-level public class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            yield from ((f"{cls.name}.{node.name}", node) for node in cls.body
                        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))


def _referenced(node: ast.AST) -> set[str]:
    """Names a node's subtree uses: loaded or stored names, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            out.update(a.name.rsplit(".", 1)[-1] for a in sub.names)
    return out


def _attributes(node: ast.AST) -> Counter:
    """How often each attribute name is referenced in a node's subtree."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_public_name_has_a_caller():
    root = Path(__file__).parent.parent
    modules = {p: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted((root / "src" / "cubemorph").glob("*.py"))}
    bench = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((root / "bench").glob("*.py"))]
    # every top-level statement outside the package root, with what it uses
    uses = [(stmt, _referenced(stmt)) for path, tree in modules.items()
            if path.name != "__init__.py" for stmt in tree.body]
    uses += [(tree, _referenced(tree)) for tree in bench]
    callerless = {f"{path.stem}.{name}"
                  for path, tree in modules.items() for name, node in _public_definitions(tree)
                  if not any(name in names for stmt, names in uses if stmt is not node)}
    # a method or property needs an attribute reference outside its own body
    package = sum((_attributes(tree) for tree in modules.values()), Counter())
    bench_attributes = set().union(*map(_attributes, bench))
    callerless |= {f"{path.stem}.{name}"
                   for path, tree in modules.items() for name, node in _public_methods(tree)
                   if (package[node.name] == _attributes(node)[node.name]
                       and node.name not in bench_attributes)}
    assert _CALLERLESS == set()
    assert callerless == _CALLERLESS
