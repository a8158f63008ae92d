"""Tests of the benchmark itself.

    python -m pytest bench -q

The smoke tests run every request kind and every output check at tiny n
(a few seconds per workload); the others check the output checks and the
self-time arithmetic without launching a workload.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, check_request_sums, layer_totals, self_times  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_traced_run_passes_every_check(workload):
    result = _result(_bench("--workload", workload, "--smoke", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    assert result["metrics"]["cli.self_s"]["value"] > 0


def test_smoke_end_to_end_metrics():
    proc = _bench("--workload", "matching", "--smoke", "--trace", "0")
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fail_frac 0.0000" in proc.stdout


def test_outside_a_checkout_fails_without_a_result(tmp_path):
    proc = _bench("--workload", "verify", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_corrupted_output_counts_as_failed(tmp_path):
    request = next(r for r in workloads.verify(workloads.DEFAULT_SEED, smoke=True)
                   if r.argv[0] == "map")
    launcher = run.Launcher(ROOT, tmp_path, workloads.DEFAULT_SEED, time.monotonic() + 60,
                            run.load_digests())
    tally = run.Tally()
    good = launcher.run(request)
    tally.record(request, good)
    assert good.failure is None

    corrupted = bytearray(good.stdout)
    corrupted[0] ^= 1
    reason = run.check_output(request, workloads.DEFAULT_SEED, 0, bytes(corrupted),
                              launcher.digests, {})
    assert reason is not None
    tally.record(request, run.Outcome(good.wall_s, good.cpu_s, good.maxrss_kb, bytes(corrupted), reason))
    assert tally.attempted == 2 and len(tally.failures) == 1


def test_output_checks():
    check = run.check_output
    seeded = workloads.matching(7)[0]
    first: dict = {}
    assert check(seeded, 7, 0, b"a\n", {}, first) is None  # no digest off the default seed
    assert check(seeded, 7, 0, b"b\n", {}, first) is not None  # repetition differs
    assert check(seeded, 7, 1, b"a\n", {}, first) is not None  # exit status

    verify = workloads.verify(7)[0]
    assert check(verify, 7, 0, b"PASS x\n", {}, {}) is None
    assert check(verify, 7, 0, b"PASS x\nFAIL y\n", {}, {}) is not None
    assert check(verify, 7, 0, b"", {}, {}) is not None

    setup = workloads.SETUP_REQUEST  # exit status only, no digest
    assert check(setup, workloads.DEFAULT_SEED, 0, b"cubemorph 9.9\n", {}, {}) is None
    assert check(setup, workloads.DEFAULT_SEED, 1, b"", {}, {}) is not None

    gate = workloads.matching(7)[2]
    assert check(gate, 7, 0, b"set 0 n=8 valid=True rounds=3\n", {}, {}) is None
    assert check(gate, 7, 0, b"set 0 n=8 valid=False rounds=3\n", {}, {}) is not None


def _span(name, start, end, parent, request="r1", **counts):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "request": request, "counts": counts}


def test_self_times_on_hand_built_spans():
    spans = [
        _span("cli.request", 0.0, 10.0, None),
        _span("stretch_metrics.exhaustive", 1.0, 4.0, 0, edges=80),
        _span("chain_mappings.table", 2.0, 3.0, 1, points=32),
        _span("gf2_maps.conditions", 5.0, 6.0, 0),
        _span("cli.request", 0.0, 2.0, None, request="r2"),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 2.0]
    assert check_request_sums(spans) == []
    seconds, counts = layer_totals(spans)
    assert seconds["cli.request"] == 8.0
    assert counts["stretch_metrics.exhaustive.edges"] == 80
    assert counts["gf2_maps.conditions.calls"] == 1
    metrics = run.per_layer_metrics(spans)
    assert metrics["chain_mappings.points_per_s"] == 32.0
    assert metrics["stretch_metrics.edges_per_s"] == 40.0
    assert metrics["cli.self_s"] == 8.0


def test_self_times_clip_and_merge_children():
    # Overlapping children are counted once; a child running past its
    # parent is clipped to the parent.  The sums then no longer match.
    spans = [
        _span("cli.request", 0.0, 10.0, None),
        _span("btk_chains.edge_scan", 1.0, 4.0, 0),
        _span("btk_chains.partition", 3.0, 6.0, 0),
        _span("gf2_maps.conditions", 8.0, 12.0, 0),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 4.0]
    assert len(check_request_sums(spans)) == 1
    assert len(check_request_sums([_span("gf2_maps.conditions", 0.0, 1.0, None)])) == 1


def test_recorder_nests_spans():
    recorder = Recorder("r9")
    outer = recorder.open("cli.request")
    inner = recorder.open("gf2_maps.conditions")
    recorder.close(inner, points=4)
    recorder.close(outer)
    assert [s["parent"] for s in recorder.spans] == [None, 0]
    assert recorder.spans[1]["counts"] == {"points": 4}
    assert check_request_sums(recorder.spans) == []
