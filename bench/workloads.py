"""The benchmark's workloads: which requests one pass sends, and how each
request's output is checked.

Every request is one fresh process, ``python -m cubemorph ...`` or the
benchmark's gate script, because that is how the tool is used.  Requests
that draw random numbers take the workload seed; the others ignore it.
The request mix and the n values are fixed; ``smoke=True`` gives the same
request kinds and checks at tiny n, for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass

# Output digests in digests.json were recorded at this seed; other seeds
# check only exit status, the verify/gate verdicts and repeatability.
DEFAULT_SEED = 1

MAP_POINT = "01101001011010010110100101101001011010010"  # 41 coordinates


@dataclass(frozen=True)
class Request:
    """One child process.  ``kind`` is ``cli`` (python -m cubemorph) or
    ``gate`` (bench/gate.py); ``check`` is ``digest``, ``verify``, ``gate`` or
    ``exit`` (exit status only)."""

    kind: str
    argv: tuple[str, ...]
    check: str
    seeded: bool = False

    @property
    def key(self) -> str:
        prog = "cubemorph" if self.kind == "cli" else "gate"
        return " ".join((prog, *self.argv))


def _cli(*argv, check="digest", seeded=False) -> Request:
    return Request("cli", tuple(str(a) for a in argv), check, seeded)


def analyze(seed: int, smoke: bool = False) -> list[Request]:
    # Exhaustive analysis: the per-point table build dominates, chain maps
    # most of all; no matching code runs.
    n = 5 if smoke else 19
    requests = []
    for mapping in (("maj2dict",), ("maj2xor",), ("tree",), ("tree", "--arity", "3"),
                    ("prefix",)):
        for inverse in ((), ("--inverse",)):
            requests.append(_cli("analyze", "--mapping", mapping[0], *mapping[1:],
                                 "--n", n, *inverse))
    requests.append(_cli("analyze", "--mapping", "xorhead", "--n", n))
    return requests


def matching(seed: int, smoke: bool = False) -> list[Request]:
    # random_matching at n = 20 and 24: 64 MB tables, far beyond L2; the gate
    # is acceptance criterion 9's per-set validity check at n = 24.
    n20, n24, trials, curve_trials, sets = (6, 8, 2, 2, 2) if smoke else (20, 24, 8, 6, 1)
    return [
        _cli("random", "--n", n20, "--trials", trials, "--seed", seed, seeded=True),
        _cli("random", "--n", n24, "--curve", "--trials", curve_trials, "--seed", seed,
             seeded=True),
        Request("gate", ("--n", str(n24), "--sets", str(sets), "--seed", str(seed)),
                "gate", seeded=True),
    ]


def verify(seed: int, smoke: bool = False) -> list[Request]:
    # The same layers at small n or through the scalar path: many small
    # tables, btk scans, GF(2) conditions, the local search, sampling.
    suite = ("--suite", "btk", "--max-n", 6) if smoke else ("--suite", "all", "--max-n", 14)
    local_n, samples, chains_n = (5, 20, 6) if smoke else (9, 2000, 14)
    return [
        _cli("verify", *suite, "--seed", seed, check="verify", seeded=True),
        _cli("search", "--from", "xor", "--to", "maj", "--n", local_n, "--mode", "local",
             "--seed", seed, seeded=True),
        _cli("search", "--from", "xor", "--to", "maj", "--n", 3, "--mode", "exhaustive"),
        _cli("search", "--from", "dict", "--to", "maj", "--n", 3, "--mode", "exhaustive",
             "--metric", "max"),
        _cli("analyze", "--mapping", "maj2dict", "--n", 41, "--mode", "sampled",
             "--samples", samples, "--seed", seed, seeded=True),
        _cli("analyze", "--mapping", "tree", "--n", 40, "--mode", "sampled",
             "--samples", samples, "--seed", seed, seeded=True),
        _cli("chains", "--n", chains_n),
        _cli("map", "--mapping", "tree", "--n", 41, "--x", MAP_POINT),
    ]


WORKLOADS = {"analyze": analyze, "matching": matching, "verify": verify}

# The no-op launch timed as setup_s: interpreter start, the numpy and
# cubemorph imports and building the parser, started like every request.
SETUP_REQUEST = _cli("--version", check="exit")
