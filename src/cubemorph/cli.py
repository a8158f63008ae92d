"""Command-line front door: construct mappings, dump chains, analyze
stretch, run seeded experiments, and run the check catalogue's suites.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage or
argument errors.  Data goes to stdout (or the requested file); summaries
and progress go to stderr.  Every stochastic subcommand requires an
explicit seed and produces byte-identical output for identical arguments.

Importing this module loads no other module of the package: each command
imports the layers it runs, so a launch compiles and loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .btk_chains import Signature
    from .stretch_metrics import Mapping

MAP_NAMES = ("maj2dict", "dict2maj", "maj2xor", "tree", "prefix", "xorhead")
ANALYZE_NAMES = ("identity",) + MAP_NAMES
# --from/--to name -> the BooleanFunction formula
FUNCTION_NAMES = {"xor": "xor", "maj": "majority", "dict": "dictator"}


class UsageError(Exception):
    """Invalid arguments detected after parsing; exits with status 2."""


def _build_mapping(name: str, n: int, arity: int = 2) -> Mapping:
    if name == "identity":
        from .stretch_metrics import Mapping
        return Mapping.identity(n)
    if name in ("tree", "prefix", "xorhead"):
        from . import gf2_maps
        if name == "tree":
            return gf2_maps.tree_mapping(n, arity)
        return {"prefix": gf2_maps.prefix_xor_mapping,
                "xorhead": gf2_maps.xor_head_mapping}[name](n)
    from . import chain_mappings
    return {"maj2dict": chain_mappings.majority_to_dictator_map,
            "dict2maj": chain_mappings.dictator_to_majority_map,
            "maj2xor": chain_mappings.majority_to_xor_map}[name](n)


def _parse_point_arg(s: str, n: int) -> int:
    from .cube_core import parse_point
    x = parse_point(s)
    if len(s) != n:
        raise UsageError(f"point {s!r} has {len(s)} coordinates, expected {n}")
    return x


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write {path}: {e.strerror}") from None


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def _chain_line(sig: Signature) -> str:
    from .cube_core import format_bits
    elems = " ".join(format_bits(x, sig.n) for x in sig.element_bits_all())
    return f"{sig.text} : {elems}"


def cmd_chains(args) -> int:
    from .btk_chains import enumerate_partition, signature
    from .cube_core import CHAINS_DUMP_MAX_N, check_n
    if args.point is not None:
        x = _parse_point_arg(args.point, args.n)
        print(_chain_line(signature(x, args.n)))
        return 0
    check_n(args.n, CHAINS_DUMP_MAX_N, what="--n", note=" without --point")
    for sig in enumerate_partition(args.n):
        print(_chain_line(sig))
    return 0


# ---------------------------------------------------------------------------
# map
# ---------------------------------------------------------------------------

def cmd_map(args) -> int:
    from .cube_core import format_bits
    from .gf2_maps import build_tree_matrix
    if args.matrix_out is not None and args.mapping != "tree":
        raise UsageError("--matrix-out only applies to the tree mapping")
    if args.matrix_out is None and args.x is None:
        raise UsageError("--x is required")
    # the mapping and the point are checked before anything is written
    image = None
    if args.x is not None:
        mapping = _build_mapping(args.mapping, args.n, args.arity)
        x = _parse_point_arg(args.x, args.n)
        out = mapping.inverse_bits(x) if args.inverse else mapping.apply_bits(x)
        image = format_bits(out, args.n)
    if args.matrix_out is not None:
        _write_text(args.matrix_out, build_tree_matrix(args.n, args.arity).to_text() + "\n")
    if image is not None:
        print(image)
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    from .stretch_metrics import stretch_report
    mapping = _build_mapping(args.mapping, args.n, args.arity)
    if args.inverse:
        mapping = mapping.inverse_mapping()
    if args.mode == "sampled":
        if args.samples is None or args.seed is None:
            raise UsageError("sampled mode requires --samples and --seed")
    report = stretch_report(mapping, mode=args.mode, samples=args.samples, seed=args.seed)
    # the histogram first: a bad path then exits 2 before any report is out
    if args.histogram_csv is not None:
        _write_text(args.histogram_csv, report.histogram_csv())
    _write_text(args.out, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    print(f"avg {report.avg} max {report.max_stretch} over {report.edges_total} edges",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_btk(max_n: int, trials: int, seed: int) -> list:
    from . import checks
    return [partial(checks.partition_tiles, range(1, min(max_n, 16) + 1)),
            partial(checks.order_invariance, seed),
            partial(checks.edge_facts, min(max_n, 14)),
            checks.case_split]


def _suite_maj2dict(max_n: int, trials: int, seed: int) -> list:
    from . import checks
    odd = range(1, min(max_n, 15) + 1, 2)
    return [checks.maj2dict_block,
            partial(checks.maj2dict_bijection, odd),
            partial(checks.maj2xor_composition, odd)]


def _suite_tree(max_n: int, trials: int, seed: int) -> list:
    from . import checks
    return [partial(checks.tree_conditions, checks.tree_size_grid(64, 7), 64),
            partial(checks.tree_exhaustive, min(max_n, 16)),
            partial(checks.tree_arity, (2, 3, 4, 5), (7, 64, 333, 4096))]


def _suite_lowerbound(max_n: int, trials: int, seed: int) -> list:
    from . import checks
    return [partial(checks.middle_binomial, 10 ** 4),
            partial(checks.typical_fraction, (64, 256, 1024, 4096)),
            partial(checks.oracle_n3, seed),
            checks.dict2maj_impossibility]


def _suite_matching(max_n: int, trials: int, seed: int) -> list:
    import numpy as np

    from . import checks
    n = max(8, min(max_n, 24))
    m = max(2, min(max_n, 16))
    return [partial(checks.matching_curve, n, trials, seed),
            partial(checks.injection, min(n, 16), checks.derived_seeds(seed, trials, 2 ** 31)),
            partial(checks.dict2random, m,
                    np.random.SeedSequence(seed + 1).spawn(max(5, trials // 4))),
            partial(checks.rand2rand, m, [(seed + 2, seed + 3)])]


# A suite lists catalogue calls (callables returning a Check) or ready Checks.
_SUITES = {
    "btk": _suite_btk,
    "maj2dict": _suite_maj2dict,
    "tree": _suite_tree,
    "lowerbound": _suite_lowerbound,
    "matching": _suite_matching,
}


def cmd_verify(args) -> int:
    from .checks import Check
    for flag, value, low in (("--max-n", args.max_n, 1), ("--trials", args.trials, 1)):
        if value < low:
            raise UsageError(f"{flag} must be at least {low}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for suite in names:
        for item in _SUITES[suite](args.max_n, args.trials, args.seed):
            # a catalogue call that raises is that check's failure, not a traceback
            try:
                check = item if isinstance(item, Check) else item()
            except Exception as e:  # noqa: BLE001 - any exception is a failed check
                name = getattr(item, "func", item).__name__
                check = Check(name, False, f"{type(e).__name__}: {e}")
            status = "PASS" if check.ok else "FAIL"
            print(f"{status} {check.name}" + (f" - {check.detail}" if check.detail else ""))
            failed += 0 if check.ok else 1
    print(f"{failed} failed" if failed else "all checks passed", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# random
# ---------------------------------------------------------------------------

def cmd_random(args) -> int:
    import numpy as np

    from .cube_core import MATCHING_MAX_N, TABLE_MAX_N, check_n
    from .random_matching import dict_to_random_trial, recursion_curve
    # without --curve every trial also takes exhaustive stretch statistics
    if args.curve:
        check_n(args.n, MATCHING_MAX_N, low=2, what="--n")
    else:
        check_n(args.n, TABLE_MAX_N, low=2, what="--n", note=" without --curve")
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    lines = []
    if args.curve:
        p_hat, q_hat = recursion_curve(args.n, trials=args.trials, seed=args.seed)
        lines.append("trial,round,p_hat,q_hat")
        for t, r in np.ndindex(p_hat.shape):
            lines.append(f"{t},{r},{float(p_hat[t, r])!r},{float(q_hat[t, r])!r}")
    else:
        lines.append("trial,frac_unmatched_poor,frac_dist_le2,avg_stretch,avg_stretch_inv")
        for t, child in enumerate(np.random.SeedSequence(args.seed).spawn(args.trials)):
            tr = dict_to_random_trial(args.n, child)
            lines.append(f"{t},{float(tr.details.unmatched_poor_fraction)!r},{tr.frac_dist_le2!r},"
                         f"{float(tr.avg_stretch)!r},{float(tr.avg_stretch_inv)!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def cmd_search(args) -> int:
    from .cube_core import BooleanFunction, format_bits
    from .stretch_metrics import (exhaustive_min_avg_stretch, exhaustive_min_max_stretch,
                                  local_search_min_stretch)
    f = BooleanFunction(args.n, name=FUNCTION_NAMES[args.source])
    g = BooleanFunction(args.n, name=FUNCTION_NAMES[args.target])
    if args.mode == "exhaustive":
        if args.metric == "max":
            value, witness = exhaustive_min_max_stretch(f, g)
            header = f"min max stretch = {value}"
        else:
            value, witness = exhaustive_min_avg_stretch(f, g)
            header = f"min avg stretch = {value}"
    else:
        if args.seed is None:
            raise UsageError("local mode requires --seed")
        if args.metric == "max":
            raise UsageError("local mode only supports the avg metric")
        value, witness = local_search_min_stretch(f, g, seed=args.seed,
                                                  restarts=args.restarts)
        header = f"best avg stretch = {value}"
    if args.out is None and args.n > 4:  # too long to print, so never formatted
        print(header)
        print(f"witness omitted ({1 << args.n} lines); use --out FILE", file=sys.stderr)
        return 0
    table = witness.table()
    lines = "\n".join(f"{format_bits(x, args.n)} → {format_bits(int(table[x]), args.n)}"
                      for x in range(1 << args.n))
    # the file first: a bad path then exits 2 before the header is out
    _write_text(args.out, header + "\n" + lines + "\n")
    if args.out not in (None, "-"):
        print(header)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubemorph",
        description="Explicit Lipschitz bijections between boolean functions "
                    "on the Hamming cube, with verification tools.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chains", help="dump symmetric chains")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--point", help="dump only the chain containing this point")
    p.set_defaults(func=cmd_chains)

    p = sub.add_parser("map", help="apply a named mapping to one point")
    p.add_argument("--mapping", choices=MAP_NAMES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", help="input point as a bit string")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--arity", type=int, default=2, help="tree branching factor")
    p.add_argument("--matrix-out", help="write the tree matrix rows to this file ('-' = stdout)")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("analyze", help="stretch report for a named mapping")
    p.add_argument("--mapping", choices=ANALYZE_NAMES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--inverse", action="store_true", help="analyze the inverse mapping")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, help="edges sampled per direction (sampled mode)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--histogram-csv", help="also write the distance,count histogram")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=(*_SUITES, "all"), required=True)
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=1234)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("random", help="seeded matching experiments, CSV output")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--curve", action="store_true",
                   help="per-round unmatched fractions instead of end-to-end stats")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("search", help="minimum-stretch search between two functions")
    p.add_argument("--from", dest="source", choices=sorted(FUNCTION_NAMES), required=True)
    p.add_argument("--to", dest="target", choices=sorted(FUNCTION_NAMES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "local"), default="exhaustive")
    p.add_argument("--metric", choices=("avg", "max"), default="avg")
    p.add_argument("--seed", type=int)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--out", help="write the witness permutation here")
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if (getattr(args, "seed", None) or 0) < 0:  # one rule for every command's seed
            raise UsageError("--seed must be at least 0")
        return args.func(args)
    except (UsageError, ValueError) as e:
        # library preconditions (caps, parity, dimensions) reached through
        # command arguments are argument errors
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
