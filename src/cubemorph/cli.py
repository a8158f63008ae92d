"""Command-line front door: construct mappings, dump chains, analyze
stretch, run seeded experiments, and run the verification suites.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage or
argument errors.  Data goes to stdout (or the requested file); summaries
and progress go to stderr.  Every stochastic subcommand requires an
explicit seed and produces byte-identical output for identical arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .btk_chains import (
    Signature,
    adjacent_chain_scan,
    enumerate_partition,
    mark,
    partition_covers_cube,
    signature,
    signature_distance,
)
from .chain_mappings import (
    dictator_to_majority_map,
    majority_to_dictator_map,
    majority_to_xor_map,
)
from .cube_core import BooleanFunction, Point, parse_point, popcount_array, random_balanced
from .gf2_maps import (
    build_tree_matrix,
    prefix_xor_mapping,
    tree_mapping,
    verify_conditions,
    xor_head_mapping,
)
from .random_matching import (
    build_dict_to_random_details,
    build_injection,
    build_random_to_random,
    injection_is_valid,
    recursion_curve,
    run_matching,
)
from .stretch_metrics import (
    Mapping,
    exhaustive_min_avg_stretch,
    exhaustive_min_directional,
    exhaustive_min_max_stretch,
    is_mapping_between,
    local_search_min_stretch,
    middle_binomial_check_range,
    stretch_report,
    typical_fraction,
)

CHAINS_DUMP_MAX_N = 20

MAP_NAMES = ("maj2dict", "dict2maj", "maj2xor", "tree", "prefix", "xorhead")
ANALYZE_NAMES = ("identity",) + MAP_NAMES
FUNCTION_NAMES = {"xor": BooleanFunction.xor, "maj": BooleanFunction.majority,
                  "dict": BooleanFunction.dictator}


class UsageError(Exception):
    """Invalid arguments detected after parsing; exits with status 2."""


def _build_mapping(name: str, n: int, arity: int = 2) -> Mapping:
    if name == "identity":
        return Mapping.identity(n)
    if name == "maj2dict":
        return majority_to_dictator_map(n)
    if name == "dict2maj":
        return dictator_to_majority_map(n)
    if name == "maj2xor":
        return majority_to_xor_map(n)
    if name == "tree":
        return tree_mapping(n, arity)
    if name == "prefix":
        return prefix_xor_mapping(n)
    if name == "xorhead":
        return xor_head_mapping(n)
    raise UsageError(f"unknown mapping {name!r}")


def _parse_point_arg(s: str, n: int) -> Point:
    try:
        x = parse_point(s)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if x.n != n:
        raise UsageError(f"point {s!r} has {x.n} coordinates, expected {n}")
    return x


def _workers(args) -> int:
    if getattr(args, "workers", None):
        return args.workers
    env = os.environ.get("CUBEMORPH_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(f"CUBEMORPH_WORKERS={env!r} is not an integer") from None
    return 1


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
    elems = " ".join(str(p) for p in
                     (sig.element(j) for j in range(sig.k, sig.top + 1)))
    return f"{sig.text} : {elems}"


def cmd_chains(args) -> int:
    if args.point is not None:
        x = _parse_point_arg(args.point, args.n)
        print(_chain_line(signature(x)))
        return 0
    if args.n > CHAINS_DUMP_MAX_N:
        raise UsageError(
            f"a full dump of the {args.n}-cube is too large; the cap is "
            f"n={CHAINS_DUMP_MAX_N} (use --point for a single chain)")
    for chain in enumerate_partition(args.n):
        print(_chain_line(chain.signature))
    return 0


# ---------------------------------------------------------------------------
# map
# ---------------------------------------------------------------------------

def cmd_map(args) -> int:
    try:
        mapping = _build_mapping(args.mapping, args.n, args.arity)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if args.matrix_out is not None:
        if args.mapping != "tree":
            raise UsageError("--matrix-out only applies to the tree mapping")
        _write_text(args.matrix_out, build_tree_matrix(args.n, args.arity).to_text() + "\n")
        if args.x is None:
            return 0
    if args.x is None:
        raise UsageError("--x is required")
    x = _parse_point_arg(args.x, args.n)
    if args.inverse:
        if not mapping.has_inverse:
            raise UsageError(f"mapping {args.mapping!r} has no inverse evaluator")
        out = mapping.inverse_bits(x.bits)
    else:
        out = mapping.apply_bits(x.bits)
    print(str(Point(out, args.n)))
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    try:
        mapping = _build_mapping(args.mapping, args.n, args.arity)
    except ValueError as e:
        raise UsageError(str(e)) from None
    if args.inverse:
        if not mapping.has_inverse:
            raise UsageError(f"mapping {args.mapping!r} has no inverse evaluator")
        mapping = mapping.inverse_mapping()
    if args.mode == "sampled":
        if args.samples is None or args.seed is None:
            raise UsageError("sampled mode requires --samples and --seed")
    try:
        report = stretch_report(mapping, mode=args.mode, samples=args.samples,
                                seed=args.seed, workers=_workers(args))
    except ValueError as e:
        raise UsageError(str(e)) from None
    _write_text(args.out, json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    if args.histogram_csv is not None:
        _write_text(args.histogram_csv, report.histogram_csv())
    print(f"avg {report.avg} max {report.max_stretch} over {report.edges_total} edges",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class Check:
    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail


def _suite_btk(max_n: int, trials: int, seed: int, workers: int) -> list[Check]:
    checks = []
    top = min(max_n, 16)
    total_chains = 0
    for n in range(1, top + 1):
        chains, _ = partition_covers_cube(n)
        total_chains += chains
    checks.append(Check(f"btk.partition n<={top}", True,
                        f"{total_chains} chains tile every cube exactly once"))

    rng = np.random.Generator(np.random.PCG64(seed))
    bad = 0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        x = Point(int(rng.integers(0, 1 << n)), n)
        base = mark(x).signature()
        for s in rng.integers(0, 2 ** 31, size=5):
            if mark(x, order_seed=int(s)).signature() != base:
                bad += 1
    checks.append(Check("btk.order-invariance", bad == 0,
                        "signature identical across marking orders"))

    worst = (0, 0, 0, 0)
    for n in range(1, min(max_n, 14) + 1):
        r = adjacent_chain_scan(n)
        worst = tuple(max(a, b) for a, b in zip(worst, (
            r.max_signature_distance, r.max_level_gap, r.max_cross_excess,
            r.max_hausdorff)))
    ok = worst[0] <= 3 and worst[1] <= 1 and worst[2] <= 6 and worst[3] <= 7
    checks.append(Check(f"btk.edge-facts n<={min(max_n, 14)}", ok,
                        f"sig<={worst[0]} level-gap<={worst[1]} "
                        f"cross-excess<={worst[2]} hausdorff<={worst[3]}"))

    worst_sig = 0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    lo = parse_point("0" * a + "1" * b + "0" + "0" * c + "1" * d)
                    hi = parse_point("0" * a + "1" * b + "1" + "0" * c + "1" * d)
                    worst_sig = max(worst_sig, signature_distance(lo, hi))
    checks.append(Check("btk.case-split a,b,c,d<=6", worst_sig <= 3,
                        f"max signature distance {worst_sig}"))
    return checks


def _suite_maj2dict(max_n: int, trials: int, seed: int, workers: int) -> list[Check]:
    checks = []
    block = [("111", "111"), ("110", "101"), ("011", "100"),
             ("010", "000"), ("001", "001"), ("000", "011")]
    from .chain_mappings import dict_to_maj, maj_to_dict
    ok = all(str(maj_to_dict(parse_point(s))) == t and
             str(dict_to_maj(parse_point(t))) == s for s, t in block)
    checks.append(Check("maj2dict.example-block n=3", ok, "all 6 pairs reproduced"))

    per_n = []
    ok_all = True
    for n in range(1, min(max_n, 15) + 1, 2):
        phi = majority_to_dictator_map(n)
        law = is_mapping_between(phi, BooleanFunction.majority(n),
                                 BooleanFunction.dictator(n))
        t = phi.table()
        inv_ok = all(phi.inverse_bits(int(t[x])) == x for x in range(1 << n))
        rep = stretch_report(phi, workers=workers)
        half_ok = bool((((t & 1) == 1) ==
                        (popcount_array(np.arange(1 << n).astype(np.uint64))
                         >= (n + 1) // 2)).all())
        ok_all &= law and inv_ok and rep.max_stretch <= 11 and half_ok
        per_n.append(f"n={n}:C={rep.max_stretch}")
    checks.append(Check("maj2dict.bijection odd n", ok_all,
                        "law+inverse+halfcube, measured constants " + " ".join(per_n)))

    comp_ok = True
    worst = 0
    for n in range(1, min(max_n, 15) + 1, 2):
        phi = majority_to_xor_map(n)
        comp_ok &= is_mapping_between(phi, BooleanFunction.majority(n),
                                      BooleanFunction.xor(n))
        worst = max(worst, stretch_report(phi, workers=workers).max_stretch)
    checks.append(Check("maj2dict.composition-to-parity", comp_ok and worst <= 22,
                        f"law holds, max stretch {worst} <= 22"))
    return checks


def _suite_tree(max_n: int, trials: int, seed: int, workers: int) -> list[Check]:
    checks = []
    sizes = list(range(1, 65))
    k = 7
    while (1 << k) <= (1 << 16):
        for n in ((1 << k) - 1, 1 << k, (1 << k) + 1):
            if n <= (1 << 16):
                sizes.append(n)
        k += 1
    cond_ok = True
    for n in sorted(set(sizes)):
        rep = verify_conditions(build_tree_matrix(n, 2), cross_check=n <= 64)
        cond_ok &= rep.all_pass
    checks.append(Check("tree.conditions grid to 2^16", cond_ok,
                        f"{len(set(sizes))} sizes, elimination cross-check to 64"))

    ok = True
    details = []
    for n in range(1, min(max_n, 16) + 1):
        tm = tree_mapping(n)
        law = is_mapping_between(tm, BooleanFunction.dictator(n), BooleanFunction.xor(n))
        fwd = stretch_report(tm, workers=workers).max_stretch
        inv = stretch_report(tm.inverse_mapping(), workers=workers).max_stretch
        t = tm.table()
        rt = all(tm.inverse_bits(int(t[x])) == x for x in range(1 << n))
        ok &= law and rt and fwd <= 2 and inv <= n.bit_length()
        if n in (8, 16):
            details.append(f"n={n}:fwd={fwd},inv={inv}")
    checks.append(Check(f"tree.exhaustive n<={min(max_n, 16)}", ok,
                        "law+roundtrip+stretch " + " ".join(details)))

    gen_ok = True
    for arity in (2, 3, 4, 5):
        for n in (7, 64, 333, 4096):
            rep = verify_conditions(build_tree_matrix(n, arity))
            height = 0
            while arity ** height < n:
                height += 1
            gen_ok &= rep.all_pass and rep.max_inverse_col_weight <= height + 1
    checks.append(Check("tree.arity-generalization", gen_ok,
                        "inverse column weight <= height+1 for arity 2..5"))
    return checks


def _suite_lowerbound(max_n: int, trials: int, seed: int, workers: int) -> list[Check]:
    checks = []
    ok = middle_binomial_check_range(10 ** 4)
    checks.append(Check("lowerbound.middle-binomial n<=10^4", ok,
                        "C(n,n/2) < 2^n/sqrt(n) throughout"))

    fr_ok = True
    for n in (64, 256, 1024, 4096):
        fr_ok &= typical_fraction(n, 0.01) >= Fraction(9, 10)
    checks.append(Check("lowerbound.typical-fraction", fr_ok,
                        ">= 0.9 at n in {64,256,1024,4096}"))

    xr, mj, dc = (BooleanFunction.xor(3), BooleanFunction.majority(3),
                  BooleanFunction.dictator(3))
    v, _ = exhaustive_min_avg_stretch(xr, mj)
    lv, _ = local_search_min_stretch(xr, mj, seed=seed, restarts=8)
    dirs = [exhaustive_min_directional(xr, mj, i)[0] for i in (1, 2, 3)]
    checks.append(Check("lowerbound.oracle n=3", v > 1 and lv == v,
                        f"min avg {v}, per-direction minima "
                        f"{', '.join(str(d) for d in dirs)}, local search agrees"))

    mv, _ = exhaustive_min_max_stretch(dc, mj)
    checks.append(Check("lowerbound.dict2maj-impossibility n=3", mv >= 2,
                        f"min worst-edge stretch {mv} >= ceil(n/2) = 2"))
    return checks


def _suite_matching(max_n: int, trials: int, seed: int, workers: int) -> list[Check]:
    checks = []
    n = max(8, min(max_n, 24))
    cv = recursion_curve(n, trials=trials, seed=seed)
    p, q = cv.p_mean(), cv.q_mean()
    rec_err = max(abs(p[i + 1] - p[i] * (1 - p[i])) for i in range(cv.rounds))
    pq_err = max(abs(p[i] - q[i]) for i in range(cv.rounds + 1))
    se = cv.p_hat[:, -1].std(ddof=1) / trials ** 0.5 if trials > 1 else 0.0
    ok = (abs(p[0] - 0.25) <= 0.01 and rec_err <= 0.01 and pq_err <= 0.01
          and p[-1] < 2 / n + 3 * se)
    checks.append(Check(f"matching.curve n={n}", ok,
                        f"p0={p[0]:.4f} recursion-err={rec_err:.4f} "
                        f"|p-q|={pq_err:.4f} final={p[-1]:.4f} < 2/n={2 / n:.4f}+3se"))

    from .cube_core import random_subset_function
    inj_ok = True
    children = np.random.SeedSequence(seed).spawn(trials)
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        a = random_subset_function(min(n, 16), seed=int(rng.integers(0, 2 ** 31)))
        st = run_matching(a)
        inj_ok &= injection_is_valid(st, build_injection(st))
    checks.append(Check("matching.injection", inj_ok,
                        f"injective with the 1-coordinate condition, {trials} trials"))

    m = min(max_n, 16)
    law_ok = True
    worst_avg = 0.0
    worst_frac = 1.0
    children = np.random.SeedSequence(seed + 1).spawn(max(5, trials // 4))
    for child in children:
        f = random_balanced(m, child)
        res = build_dict_to_random_details(f)
        phi = res.mapping
        law_ok &= is_mapping_between(phi, BooleanFunction.dictator(m), f)
        t = phi.table()
        d = popcount_array((t ^ np.arange(1 << m)).astype(np.uint64))
        worst_frac = min(worst_frac, float((d <= 2).mean()))
        worst_avg = max(worst_avg, float(stretch_report(phi, workers=workers).avg),
                        float(stretch_report(phi.inverse_mapping(), workers=workers).avg))
    ok = law_ok and worst_frac >= 1 - 5 / m and worst_avg <= 10
    checks.append(Check(f"matching.dict2random n={m}", ok,
                        f"law exact, min frac(dist<=2)={worst_frac:.4f}, "
                        f"max avg stretch {worst_avg:.2f} <= 10"))

    f = random_balanced(m, seed + 2)
    g = random_balanced(m, seed + 3)
    comp = build_random_to_random(f, g)
    t = comp.table()
    d = popcount_array((t ^ np.arange(1 << m)).astype(np.uint64))
    far = float((d >= 4).mean())
    avg = float(stretch_report(comp, workers=workers).avg)
    ok = is_mapping_between(comp, f, g) and avg <= 20 and far <= 10 / m
    checks.append(Check(f"matching.rand2rand n={m}", ok,
                        f"law exact, avg {avg:.2f} <= 20, frac(dist>=4)={far:.4f} <= 10/n"))
    return checks


_SUITES = {
    "btk": _suite_btk,
    "maj2dict": _suite_maj2dict,
    "tree": _suite_tree,
    "lowerbound": _suite_lowerbound,
    "matching": _suite_matching,
}


def cmd_verify(args) -> int:
    if args.max_n < 1:
        raise UsageError("--max-n must be at least 1")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    workers = _workers(args)
    failed = 0
    for name in names:
        for check in _SUITES[name](args.max_n, args.trials, args.seed, workers):
            status = "PASS" if check.ok else "FAIL"
            print(f"{status} {check.name}" + (f" - {check.detail}" if check.detail else ""))
            failed += 0 if check.ok else 1
    print(f"{failed} failed" if failed else "all checks passed", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# random
# ---------------------------------------------------------------------------

def cmd_random(args) -> int:
    from .random_matching import MATCHING_MAX_N
    if not 2 <= args.n <= MATCHING_MAX_N:
        raise UsageError(f"--n must be in 2..{MATCHING_MAX_N}")
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    lines = []
    if args.curve:
        cv = recursion_curve(args.n, trials=args.trials, seed=args.seed)
        lines.append("trial,round,p_hat,q_hat")
        for t in range(args.trials):
            for r in range(cv.rounds + 1):
                lines.append(f"{t},{r},{float(cv.p_hat[t, r])!r},{float(cv.q_hat[t, r])!r}")
    else:
        lines.append("trial,frac_unmatched_poor,frac_dist_le2,avg_stretch,avg_stretch_inv")
        children = np.random.SeedSequence(args.seed).spawn(args.trials)
        idx = np.arange(1 << args.n, dtype=np.int64)
        for t, child in enumerate(children):
            f = random_balanced(args.n, child)
            res = build_dict_to_random_details(f)
            table = res.mapping.table()
            d = popcount_array((table ^ idx).astype(np.uint64))
            frac2 = float((d <= 2).mean())
            avg = float(stretch_report(res.mapping).avg)
            avg_inv = float(stretch_report(res.mapping.inverse_mapping()).avg)
            lines.append(f"{t},{float(res.unmatched_poor_fraction)!r},"
                         f"{frac2!r},{avg!r},{avg_inv!r}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def cmd_search(args) -> int:
    if args.n > 24:
        raise UsageError("search is capped at n=24")
    f = FUNCTION_NAMES[args.source](args.n)
    g = FUNCTION_NAMES[args.target](args.n)
    try:
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
    except ValueError as e:
        raise UsageError(str(e)) from None
    print(header)
    table = witness.table()
    witness_lines = [f"{Point(x, args.n)} → {Point(int(table[x]), args.n)}"
                     for x in range(1 << args.n)]
    if args.out is not None:
        _write_text(args.out, header + "\n" + "\n".join(witness_lines) + "\n")
    elif args.n <= 4:
        print("\n".join(witness_lines))
    else:
        print(f"witness omitted ({1 << args.n} lines); use --out FILE", file=sys.stderr)
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
    p.add_argument("--workers", type=int)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--histogram-csv", help="also write the distance,count histogram")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=(*_SUITES, "all"), required=True)
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--workers", type=int)
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
