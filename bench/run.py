"""cubemorph benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a cubemorph checkout (the package is imported from
``src/``; nothing is installed or built):

    python3 bench/run.py --workload analyze --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload matching --seed 1 --trace 1
    python3 bench/run.py --workload verify --smoke --trace 1   # tiny n, seconds

Each workload is a closed loop: one client sends one request at a time, and
every request is a fresh child process.  A pass sends every request of the
workload once.

``--trace 0`` repeats passes until the next one would end after
``--seconds``; at least one always runs (at ``--seconds 40`` every workload
runs exactly one pass, so the repetition check below then only sees the
setup launches).  It reports the end-to-end metrics:
  cpu_s        median over passes of a pass's CPU time, the sum of its
               requests' user + system time from ``os.wait4``
               (quartiles, pass count and the pass's wall time are printed
               above the result line)
  setup_s      median CPU time of a no-op launch, ``python -m cubemorph
               --version``; the launches are spread through the passes,
               before the requests, so they sample the same moments
  peak_rss_mb  median over passes of the largest ``ru_maxrss`` among the
               pass's children, from ``os.wait4``
The times are CPU times, not wall times, because on a shared host the
hypervisor takes the CPU away from the sandbox for a share of the time that
changes from minute to minute; that stolen time is in the wall time but not
in a child's user + system time.  Every request is one single-threaded
process, so without that contention its CPU time is its wall time.
``--trace 1`` runs one untraced pass, then traced passes until the next
would end after ``--seconds``, at least two (fewer only if a second would
not end within the run time limit), and reports the per-layer
metrics of the traced passes (median over them).  The traced requests run
through ``bench/launcher.py``, which records spans around every layer's
entry points.  The median traced pass minus the untraced one is printed as
the tracing overhead.  Every request thus runs three times or more, and
the exact counts are compared between the traced passes.

Every request's output is checked (see ``check_output``); a request that
fails or whose check fails counts in ``failed``, and fail_frac =
failed / attempted is printed with the metrics.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

All timings are taken on this process's own children, CPU times from
``os.wait4`` and wall-clock times around each child.  No system-wide
tracing or performance counters are used.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import check_request_sums, layer_totals
from workloads import DEFAULT_SEED, SETUP_REQUEST, WORKLOADS, Request

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
RUN_LIMIT_S = 170.0  # a run must end well within 180 s
SETUP_LAUNCHES = 9  # at least this many per pass

END_TO_END_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: name -> unit.  Every ``_s`` metric is a summed self time.
PER_LAYER_UNITS = {
    "chain_mappings.table_s": "s",
    "chain_mappings.inverse_table_s": "s",
    "chain_mappings.points_per_s": "1/s",
    "chain_mappings.sampled_s": "s",
    "gf2_maps.table_s": "s",
    "gf2_maps.inverse_table_s": "s",
    "gf2_maps.points_per_s": "1/s",
    "gf2_maps.sampled_s": "s",
    "gf2_maps.matrix_s": "s",
    "gf2_maps.conditions_s": "s",
    "gf2_maps.conditions_count": "count",
    "stretch_metrics.exhaustive_s": "s",
    "stretch_metrics.edges_per_s": "1/s",
    "stretch_metrics.law_check_s": "s",
    "stretch_metrics.oracle_s": "s",
    "stretch_metrics.local_search_s": "s",
    "random_matching.validity_s": "s",
    "random_matching.run_matching_s": "s",
    "random_matching.injection_s": "s",
    "random_matching.dict2random_s": "s",
    "random_matching.curve_s": "s",
    "random_matching.rounds": "count",
    "random_matching.poor_unmatched": "count",
    "random_matching.repaired": "count",
    "random_matching.match_ratio": "ratio",
    "cube_core.random_function_s": "s",
    "btk_chains.partition_s": "s",
    "btk_chains.edge_scan_s": "s",
    "btk_chains.edges_scanned": "count",
    "cli.self_s": "s",
}

# Per-layer metrics that must repeat exactly for a given seed.
EXACT_COUNTS = ("random_matching.rounds", "random_matching.poor_unmatched",
                "random_matching.repaired", "random_matching.match_ratio",
                "gf2_maps.conditions_count", "btk_chains.edges_scanned")


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float  # the child's user + system time
    maxrss_kb: int
    stdout: bytes
    failure: str | None


@dataclass
class Tally:
    """Requests attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, request: Request, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.failure is not None:
            self.failures.append(f"{request.key}: {outcome.failure}")


def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(request: Request, seed: int, returncode: int, stdout: bytes,
                 digests: dict[str, str], first_outputs: dict[str, bytes]) -> str | None:
    """Why this request's result is wrong, or None when it passes.

    - every request must exit with status 0;
    - verify must print PASS lines and no FAIL line (its detail text may
      change, so it has no digest);
    - the gate must report every injection valid;
    - the setup launch is checked for its exit status only;
    - other outputs must match the sha256 recorded at the default seed
      (requests that ignore the seed are checked at every seed);
    - every repetition must be byte-identical to the run's first output
      of the same request.
    """
    if returncode != 0:
        return f"exit status {returncode}"
    lines = stdout.decode("utf-8", errors="replace").splitlines()
    if request.check == "verify":
        if any(line.startswith("FAIL") for line in lines):
            return "verify printed a FAIL line"
        if not any(line.startswith("PASS") for line in lines):
            return "verify printed no PASS line"
    elif request.check == "gate":
        if not lines or not all(" valid=True " in line for line in lines):
            return "gate reported an invalid injection"
    elif request.check == "digest" and (not request.seeded or seed == DEFAULT_SEED):
        expected = digests.get(request.key)
        if expected is None:
            return "no recorded digest"
        if hashlib.sha256(stdout).hexdigest() != expected:
            return "output digest differs from the recorded one"
    first = first_outputs.setdefault(request.key, stdout)
    if first != stdout:
        return "output differs from the first repetition in this run"
    return None


class Launcher:
    """Starts request processes one at a time and reaps them with
    ``os.wait4``.  Their stdout and span files go to ``workdir``."""

    def __init__(self, root: Path, workdir: Path, seed: int, deadline: float,
                 digests: dict[str, str]):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.deadline = deadline
        self.digests = digests
        self.first_outputs: dict[str, bytes] = {}
        self.launches = 0
        self.spans: list[dict] = []
        env = dict(os.environ)
        env.pop("CUBEMORPH_WORKERS", None)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.env = env

    def command(self, request: Request, spans_path: Path | None) -> list[str]:
        if spans_path is not None:
            return [sys.executable, str(BENCH_DIR / "launcher.py"), str(spans_path),
                    spans_path.stem, request.kind, *request.argv]
        if request.kind == "gate":
            return [sys.executable, str(BENCH_DIR / "gate.py"), *request.argv]
        return [sys.executable, "-m", "cubemorph", *request.argv]

    def run(self, request: Request, traced: bool = False) -> Outcome:
        self.launches += 1
        spans_path = self.workdir / f"r{self.launches}.json" if traced else None
        out_path = self.workdir / "stdout"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Outcome(0.0, 0.0, 0, b"", "run time limit reached before launch")
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(self.command(request, spans_path), cwd=self.root,
                                    env=self.env, stdout=out, stderr=subprocess.DEVNULL)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if status is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        failure = check_output(request, self.seed, proc.returncode, stdout,
                               self.digests, self.first_outputs)
        if failure is None and spans_path is not None:
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
            offset = len(self.spans)  # parent indices are per request file
            for span in spans:
                if span["parent"] is not None:
                    span["parent"] += offset
            self.spans.extend(spans)
        return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, stdout, failure)


def run_pass(launcher: Launcher, requests: list[Request], tally: Tally,
             traced: bool = False, setups: list[float] | None = None,
             setups_per_request: int = 0) -> tuple[float, float, float]:
    """One pass: (wall seconds, CPU seconds, largest child ru_maxrss in MB).

    The pass times are the sums of its requests' times.  When ``setups`` is
    given, ``setups_per_request`` no-op launches run before each request,
    outside the pass times, and their CPU times are appended to it.
    """
    wall = cpu = 0.0
    peak = 0
    for request in requests:
        for _ in range(setups_per_request if setups is not None else 0):
            outcome = launcher.run(SETUP_REQUEST)
            tally.record(SETUP_REQUEST, outcome)
            setups.append(outcome.cpu_s)
        outcome = launcher.run(request, traced)
        tally.record(request, outcome)
        wall += outcome.wall_s
        cpu += outcome.cpu_s
        peak = max(peak, outcome.maxrss_kb)
    return wall, cpu, peak / 1024


def per_layer_metrics(spans: list[dict]) -> dict[str, float]:
    s, c = layer_totals(spans)

    def rate(work: int, busy: float) -> float:
        return work / busy if busy > 0 else 0.0

    out = {}
    for layer in ("chain_mappings", "gf2_maps"):
        out[f"{layer}.table_s"] = s[f"{layer}.table"]
        out[f"{layer}.inverse_table_s"] = s[f"{layer}.inverse_table"]
        out[f"{layer}.points_per_s"] = rate(
            c[f"{layer}.table.points"] + c[f"{layer}.inverse_table.points"],
            s[f"{layer}.table"] + s[f"{layer}.inverse_table"])
        out[f"{layer}.sampled_s"] = s[f"{layer}.sampled"]
    out["gf2_maps.matrix_s"] = s["gf2_maps.matrix"]
    out["gf2_maps.conditions_s"] = s["gf2_maps.conditions"]
    out["gf2_maps.conditions_count"] = c["gf2_maps.conditions.calls"]
    out["stretch_metrics.exhaustive_s"] = s["stretch_metrics.exhaustive"]
    out["stretch_metrics.edges_per_s"] = rate(c["stretch_metrics.exhaustive.edges"],
                                              s["stretch_metrics.exhaustive"])
    for name in ("law_check", "oracle", "local_search"):
        out[f"stretch_metrics.{name}_s"] = s[f"stretch_metrics.{name}"]
    for name in ("validity", "run_matching", "injection", "dict2random", "curve"):
        out[f"random_matching.{name}_s"] = s[f"random_matching.{name}"]
    initial = c["random_matching.run_matching.poor_initial"]
    unmatched = c["random_matching.run_matching.poor_unmatched"]
    out["random_matching.rounds"] = c["random_matching.run_matching.rounds"]
    out["random_matching.poor_unmatched"] = unmatched
    out["random_matching.repaired"] = c["random_matching.dict2random.repaired"]
    out["random_matching.match_ratio"] = (initial - unmatched) / initial if initial else 0.0
    out["cube_core.random_function_s"] = s["cube_core.random_function"]
    out["btk_chains.partition_s"] = s["btk_chains.partition"]
    out["btk_chains.edge_scan_s"] = s["btk_chains.edge_scan"]
    out["btk_chains.edges_scanned"] = c["btk_chains.edge_scan.edges_scanned"]
    out["cli.self_s"] = s["cli.request"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def measure(args, root: Path, workdir: Path, deadline: float) -> tuple[dict, Tally, list[str]]:
    """Run the workload; returns (metrics, tally, extra correctness problems)."""
    requests = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    launcher = Launcher(root, workdir, args.seed, deadline, load_digests())
    tally = Tally()
    problems: list[str] = []
    min_rounds = 2 if args.smoke else 1

    # One untimed launch first, so byte-compiling the package is not timed:
    # users pay that once, not on every run.
    tally.record(SETUP_REQUEST, launcher.run(SETUP_REQUEST))
    metrics: dict[str, dict] = {}

    if not args.trace:
        walls, cpus, peaks, setups = [], [], [], []
        per_request = 1 if args.smoke else -(-SETUP_LAUNCHES // len(requests))
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            wall, cpu, peak = run_pass(launcher, requests, tally, setups=setups,
                                       setups_per_request=per_request)
            walls.append(wall)
            cpus.append(cpu)
            peaks.append(peak)
            now = time.perf_counter()
            if tally.failures or (len(walls) >= min_rounds
                                  and now - start + (now - pass_start) > args.seconds):
                break
        q1, cpu_med, q3 = quartiles(cpus)
        spread = f"quartiles {q1:.4f} .. {q3:.4f} s" if len(cpus) > 1 else "no quartiles"
        print(f"cpu_s median {cpu_med:.4f} s, {spread} "
              f"over {len(cpus)} passes of {len(requests)} requests "
              f"(wall time median {statistics.median(walls):.4f} s)")
        print(f"setup_s median {statistics.median(setups):.4f} s CPU over {len(setups)} "
              f"launches ({per_request} before each request)")
        print(f"peak_rss_mb median {statistics.median(peaks):.1f} MB, "
              f"max {max(peaks):.1f} MB over {len(peaks)} passes")
        values = {"cpu_s": cpu_med, "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(peaks)}
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
        return metrics, tally, problems

    start = time.perf_counter()
    plain = run_pass(launcher, requests, tally)[0]
    traced, layer_runs = [], []
    while not tally.failures:
        launcher.spans = []
        traced.append(run_pass(launcher, requests, tally, traced=True)[0])
        if tally.failures:
            break
        problems += check_request_sums(launcher.spans)
        layer_runs.append(per_layer_metrics(launcher.spans))
        elapsed = time.perf_counter() - start
        if len(traced) >= 2 and elapsed + traced[-1] > args.seconds:
            break
        if time.monotonic() + 1.25 * traced[-1] > deadline:
            # A slow host: another pass could hit the run time limit, which
            # would count its requests as failed.
            print(f"only {len(traced)} traced pass(es) fit in the run time limit")
            break
    for name in EXACT_COUNTS:
        if len({run[name] for run in layer_runs}) > 1:
            problems.append(f"{name} differs between traced passes")
    if traced:
        print(f"tracing overhead {statistics.median(traced) - plain:+.4f} s per pass "
              f"(traced median {statistics.median(traced):.4f} s over {len(traced)} passes, "
              f"untraced {plain:.4f} s)")
    for name, unit in PER_LAYER_UNITS.items():
        value = statistics.median(run[name] for run in layer_runs) if layer_runs else 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics, tally, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-n requests, every request kind and check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.smoke:
        args.seconds = 0  # the minimum number of passes

    root = Path.cwd()
    if not (root / "src" / "cubemorph" / "__init__.py").is_file():
        print("error: run from the root of a cubemorph checkout (src/cubemorph not found)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    # The scratch directory is inside the checkout because the benchmark
    # reads and writes nothing outside it.
    workdir = Path(tempfile.mkdtemp(prefix=".bench_run_", dir=root))
    try:
        metrics, tally, problems = measure(args, root, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"environment: nproc {os.cpu_count()}, Python {sys.version.split()[0]}, "
          f"numpy {importlib.metadata.version('numpy')}")
    failed = len(tally.failures)
    print(f"fail_frac {failed / tally.attempted:.4f} ({failed} of {tally.attempted} requests)")
    for line in tally.failures + problems:
        print(f"FAILED {line}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
