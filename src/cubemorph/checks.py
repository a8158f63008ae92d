"""The check catalogue: one function per claim of the paper that the package
verifies, each holding that claim's bound.

Both ``cubemorph verify`` and the acceptance tests (``tests/test_acceptance.py``)
call these functions; they differ only in the coverage they pass in (the
n values, sizes, seeds and trial counts).  The bounds live here and nowhere
else.  Every function returns a ``Check``; one that is handed an empty
coverage raises ``ValueError`` rather than pass over nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .btk_chains import (
    adjacent_chain_scan,
    chain_count,
    partition_covers_cube,
    signature,
    signature_distance,
)
from .chain_mappings import (
    majority_to_dictator_map,
    majority_to_xor_map,
)
from .cube_core import (
    BooleanFunction,
    format_bits,
    parse_point,
    random_balanced,
    random_subset_function,
)
from .gf2_maps import LinearMap, build_tree_matrix, tree_mapping, verify_conditions
from .random_matching import (
    build_injection,
    build_random_to_random,
    dict_to_random_trial,
    displacements,
    injection_is_valid,
    recursion_curve,
    run_matching,
)
from .stretch_metrics import (
    Mapping,
    _exhaustive_stats,
    _middle_binomial_squares,
    exhaustive_min_avg_stretch,
    exhaustive_min_directional,
    exhaustive_min_max_stretch,
    is_mapping_between,
    local_search_min_stretch,
    stretch_report,
)
from .stretch_metrics import typical_fraction as _typical_fraction


@dataclass(frozen=True)
class Check:
    """One verdict: a name that states the coverage, pass/fail, and what was measured."""

    name: str
    ok: bool
    detail: str = ""


def _coverage(values, what: str) -> list:
    values = list(values)
    if not values:
        raise ValueError(f"empty coverage: no {what} to check")
    return values


def _power_text(value: int) -> str:
    """65536 -> '2^16', 10000 -> '10^4'; other values in decimal."""
    for base, k in ((2, value.bit_length() - 1), (10, len(str(value)) - 1)):
        if k > 1 and base ** k == value:
            return f"{base}^{k}"
    return str(value)


def _inverse_is_two_sided(phi: Mapping) -> bool:
    """The inverse evaluator undoes the table, composed on either side."""
    t = phi.table()
    idx = np.arange(t.size, dtype=np.int64)
    inv = phi.inverse(idx.astype(np.uint64)).astype(np.int64)
    return bool(np.array_equal(inv[t], idx) and np.array_equal(t[inv], idx))


def derived_seeds(root: int, count: int, high: int) -> list[int]:
    """One integer in [0, high) from each of count children of SeedSequence(root)."""
    return [int(np.random.Generator(np.random.PCG64(child)).integers(0, high))
            for child in np.random.SeedSequence(root).spawn(count)]


def tree_size_grid(dense_to: int, powers_from: int) -> list[int]:
    """Every n up to dense_to, plus 2^k - 1, 2^k and 2^k + 1 for k from
    powers_from on, up to 2^16."""
    sizes = set(range(1, dense_to + 1))
    for k in range(powers_from, 17):
        sizes.update(((1 << k) - 1, 1 << k, (1 << k) + 1))
    return sorted(sizes - {(1 << 16) + 1})


def partition_tiles(ns) -> Check:
    """The chain partition tiles each cube, with C(n, n/2) chains."""
    ns = _coverage(ns, "n")
    name = f"btk.partition n<={max(ns)}"
    total = 0
    for n in ns:
        try:
            chains, points = partition_covers_cube(n)
        except AssertionError as e:
            return Check(name, False, f"n={n}: {e}")
        if chains != chain_count(n) or points != 1 << n:
            return Check(name, False, f"n={n}: {chains} chains over {points} points")
        total += chains
    return Check(name, True, f"{total} chains tile every cube exactly once")


def edge_facts(max_n: int) -> Check:
    """Across every cube edge, the chain-distance quantities stay small."""
    worst = (0, 0, 0, 0)
    edges = 0
    for n in _coverage(range(1, max_n + 1), "n"):
        r = adjacent_chain_scan(n)
        edges += r.edges
        worst = tuple(max(a, b) for a, b in zip(worst, (
            r.max_signature_distance, r.max_level_gap, r.max_cross_excess,
            r.max_hausdorff)))
    ok = worst[0] <= 3 and worst[1] <= 1 and worst[2] <= 6 and worst[3] <= 7
    return Check(f"btk.edge-facts n<={max_n}", ok,
                 f"sig<={worst[0]} level-gap<={worst[1]} "
                 f"cross-excess<={worst[2]} hausdorff<={worst[3]} over {edges} edges")


def order_invariance(seed: int) -> Check:
    """The signature does not depend on the order the 1-0 pairs are marked in."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 21))
        x = int(rng.integers(0, 1 << n))
        base = signature(x, n)
        ok &= all(signature(x, n, order_seed=int(s)) == base
                  for s in rng.integers(0, 2 ** 31, size=5))
    return Check("btk.order-invariance 200 points n<=20", ok,
                 "signature identical across marking orders")


def case_split() -> Check:
    """Flipping the middle bit of 0^a 1^b ? 0^c 1^d moves the signature by <= 3."""
    worst = 0
    for a, b, c, d in product(range(7), repeat=4):
        lo = parse_point("0" * a + "1" * b + "0" + "0" * c + "1" * d)
        hi = parse_point("0" * a + "1" * b + "1" + "0" * c + "1" * d)
        worst = max(worst, signature_distance(lo, hi, a + b + 1 + c + d))
    return Check("btk.case-split a,b,c,d<=6", worst <= 3,
                 f"max signature distance {worst}")


def maj2dict_block() -> Check:
    """The paper's n = 3 example block, both directions."""
    block = [("111", "111"), ("110", "101"), ("011", "100"),
             ("010", "000"), ("001", "001"), ("000", "011")]
    phi = majority_to_dictator_map(3)
    inv = phi.inverse_mapping()
    ok = all(format_bits(phi.apply_bits(parse_point(s)), 3) == t
             and format_bits(inv.apply_bits(parse_point(t)), 3) == s for s, t in block)
    return Check("maj2dict.example-block n=3", ok, "all 6 pairs reproduced")


def maj2dict_bijection(ns) -> Check:
    """majority -> dictator: the law, a two-sided inverse, the upper half cube
    onto the odd points, and Lipschitz constant C <= 11."""
    ns = _coverage(ns, "n")
    ok = True
    per_n = []
    for n in ns:
        phi = majority_to_dictator_map(n)
        law = is_mapping_between(phi, BooleanFunction.majority(n),
                                 BooleanFunction.dictator(n))
        t = phi.table()
        upper = np.bitwise_count(np.arange(1 << n).astype(np.uint64)) >= (n + 1) // 2
        half_ok = bool((((t & 1) == 1) == upper).all())
        c = stretch_report(phi).max_stretch
        ok &= law and _inverse_is_two_sided(phi) and half_ok and c <= 11
        per_n.append(f"n={n}:C={c}")
    return Check(f"maj2dict.bijection odd n<={max(ns)}", ok,
                 "law+inverse+halfcube, measured constants " + " ".join(per_n))


def maj2xor_composition(ns) -> Check:
    """majority -> parity by composition: the law and stretch <= 22."""
    ns = _coverage(ns, "n")
    ok = True
    worst = 0
    for n in ns:
        phi = majority_to_xor_map(n)
        ok &= is_mapping_between(phi, BooleanFunction.majority(n), BooleanFunction.xor(n))
        worst = max(worst, stretch_report(phi).max_stretch)
    return Check(f"maj2dict.composition-to-parity odd n<={max(ns)}", ok and worst <= 22,
                 f"law {'holds' if ok else 'broken'}, max stretch {worst} <= 22")


def _tree_conditions_hold(rep, n: int, arity: int) -> bool:
    """The five conditions on the ConditionReport rep of an n-vertex tree
    matrix: invertible, dictator -> parity, rows of weight <= arity + 1
    (3-local when binary), columns of weight <= 2 (2-Lipschitz) and inverse
    columns of weight <= floor(log2 n) + 1."""
    inv = rep.max_inverse_col_weight
    return (inv is not None and rep.parity_ok and rep.max_row_weight <= arity + 1
            and rep.max_col_weight <= 2 and inv <= n.bit_length())


def tree_conditions(sizes, cross_check_max: int) -> Check:
    """The binary tree matrix meets the five conditions at every size, checked
    against Gaussian elimination up to cross_check_max."""
    sizes = sorted(set(_coverage(sizes, "sizes")))
    reports = [verify_conditions(build_tree_matrix(n, 2), cross_check=n <= cross_check_max)
               for n in sizes]
    ok = all(_tree_conditions_hold(r, n, 2) for r, n in zip(reports, sizes))
    return Check(f"tree.conditions grid to {_power_text(sizes[-1])}", ok,
                 f"{len(sizes)} sizes, elimination cross-check to {cross_check_max}, "
                 f"inverse column weight {reports[-1].max_inverse_col_weight} "
                 f"at {_power_text(sizes[-1])}")


def _column_report_is_exact(phi: LinearMap) -> bool:
    """The report a linear map reads off its column weights equals the
    per-direction histogram of a pass over its table."""
    return np.array_equal(phi._exhaustive_histogram(), _exhaustive_stats(phi.table(), phi.n))


def tree_exhaustive(max_n: int) -> Check:
    """dictator -> parity by the tree map: the law, a two-sided inverse,
    forward stretch <= 2 and inverse stretch <= bit length of n, each
    stretch report also checked against a pass over the table."""
    ok = True
    details = []
    for n in _coverage(range(1, max_n + 1), "n"):
        tm = tree_mapping(n)
        inverse = tm.inverse_mapping()
        law = is_mapping_between(tm, BooleanFunction.dictator(n), BooleanFunction.xor(n))
        fwd = stretch_report(tm).max_stretch
        inv = stretch_report(inverse).max_stretch
        ok &= law and _inverse_is_two_sided(tm) and fwd <= 2 and inv <= n.bit_length()
        ok &= _column_report_is_exact(tm) and _column_report_is_exact(inverse)
        if n in (8, 16, max_n):
            details.append(f"n={n}:fwd={fwd},inv={inv}")
    return Check(f"tree.exhaustive n<={max_n}", ok,
                 "law+roundtrip+stretch " + " ".join(details))


def tree_arity(arities, ns) -> Check:
    """Trees of any arity meet the conditions, with inverse column weight at
    most the tree height plus one."""
    arities = _coverage(arities, "arities")
    ns = _coverage(ns, "n")
    ok = True
    for arity in arities:
        for n in ns:
            rep = verify_conditions(build_tree_matrix(n, arity))
            height = 0
            while arity ** height < n:
                height += 1
            ok &= (_tree_conditions_hold(rep, n, arity)
                   and rep.max_inverse_col_weight <= height + 1)
    return Check(f"tree.arity-generalization arity {min(arities)}..{max(arities)} "
                 f"n in {{{','.join(map(str, ns))}}}", ok,
                 f"inverse column weight <= height+1 for arity "
                 f"{min(arities)}..{max(arities)}")


def middle_binomial(limit: int) -> Check:
    """C(n, n/2) < 2^n / sqrt(n) for every n up to limit, compared exactly as
    C(n, n/2)^2 n < 2^(2n), that is, as a bit length of at most 2n."""
    ns = _coverage(range(1, limit + 1), "n")
    ok = all((c2 * n).bit_length() <= 2 * n
             for n, c2 in zip(ns, _middle_binomial_squares(limit)))
    return Check(f"lowerbound.middle-binomial n<={_power_text(limit)}",
                 ok, "C(n,n/2) < 2^n/sqrt(n) throughout")


def typical_fraction(ns) -> Check:
    """At most a tenth of the cube has weight within 0.01 sqrt(n) of n/2."""
    ns = _coverage(ns, "n")
    ok = all(_typical_fraction(n, 0.01) >= Fraction(9, 10) for n in ns)
    return Check(f"lowerbound.typical-fraction n in {{{','.join(map(str, ns))}}}", ok,
                 ">= 0.9 throughout")


def oracle_n3(seed: int) -> Check:
    """Every XOR -> Majority bijection at n = 3 has average stretch > 1; the
    witness obeys the law and the seeded local search finds the same minimum."""
    xr, mj = BooleanFunction.xor(3), BooleanFunction.majority(3)
    v, witness = exhaustive_min_avg_stretch(xr, mj)
    lv, _ = local_search_min_stretch(xr, mj, seed=seed, restarts=8)
    dirs = [exhaustive_min_directional(xr, mj, i)[0] for i in (1, 2, 3)]
    ok = v > 1 and is_mapping_between(witness, xr, mj) and lv == v
    return Check("lowerbound.oracle n=3", ok,
                 f"min avg {v}, per-direction minima "
                 f"{', '.join(str(d) for d in dirs)}, local search agrees")


def dict2maj_impossibility() -> Check:
    """Every dictator -> majority bijection at n = 3 stretches some edge to
    >= ceil(n/2) = 2; the witness obeys the law."""
    dc, mj = BooleanFunction.dictator(3), BooleanFunction.majority(3)
    mv, witness = exhaustive_min_max_stretch(dc, mj)
    return Check("lowerbound.dict2maj-impossibility n=3",
                 mv >= 2 and is_mapping_between(witness, dc, mj),
                 f"min worst-edge stretch {mv} >= ceil(n/2) = 2")


def matching_curve(n: int, trials: int, seed: int) -> Check:
    """The unmatched-poor fraction starts at 1/4, follows p' = p(1 - p), equals
    the rich fraction, and ends below 2/n (plus three standard errors).  The
    first three hold within max(0.01, 4u), u = 1/sqrt(2^(n-1) trials) the
    sampling error of a mean over the trials' half cubes."""
    p_hat, q_hat = recursion_curve(n, trials=trials, seed=seed)
    p, q = p_hat.mean(axis=0), q_hat.mean(axis=0)
    rounds = len(p) - 1
    rec_err = max(abs(p[i + 1] - p[i] * (1 - p[i])) for i in range(rounds))
    pq_err = max(abs(p[i] - q[i]) for i in range(rounds + 1))
    tol = max(0.01, 4 / ((1 << (n - 1)) * trials) ** 0.5)
    se = p_hat[:, -1].std(ddof=1) / trials ** 0.5 if trials > 1 else 0.0
    ok = bool(max(abs(p[0] - 0.25), rec_err, pq_err) <= tol and p[-1] < 2 / n + 3 * se)
    return Check(f"matching.curve n={n}", ok,
                 f"p0={p[0]:.4f} recursion-err={rec_err:.4f} |p-q|={pq_err:.4f} "
                 f"within {tol:.4f}, final={p[-1]:.4f} < 2/n={2 / n:.4f}+3se")


def injection(n: int, seeds) -> Check:
    """For a random set per seed, the matched extension is injective and moves
    each point by at most one coordinate on the first n - 1 bits."""
    seeds = _coverage(seeds, "seeds")
    ok = True
    for s in seeds:
        state = run_matching(random_subset_function(n, seed=s))
        ok &= injection_is_valid(state, build_injection(state))
    return Check(f"matching.injection n={n}", ok,
                 f"injective with the 1-coordinate condition, {len(seeds)} trials")


def dict2random(n: int, seed_seqs) -> Check:
    """dictator -> random balanced f, one f per seed: the law, all but 5/n of
    the points moved by <= 2, and average stretch both ways <= 10 and <=
    1 + 2 E[dist(x, phi(x))], the triangle-inequality bound of any bijection."""
    seed_seqs = _coverage(seed_seqs, "seeds")
    dic = BooleanFunction.dictator(n)
    law_ok = True
    worst_avg = Fraction(0)
    worst_frac = 1.0
    slacks = []  # 1 + 2 E[dist] - the larger average stretch, per trial
    for seed in seed_seqs:
        trial = dict_to_random_trial(n, seed)
        law_ok &= is_mapping_between(trial.details.mapping, dic, trial.f)
        worst_frac = min(worst_frac, trial.frac_dist_le2)
        avg = max(trial.avg_stretch, trial.avg_stretch_inv)
        worst_avg = max(worst_avg, avg)
        slacks.append(1 + 2 * trial.mean_displacement - avg)
    ok = law_ok and worst_frac >= 1 - 5 / n and worst_avg <= 10 and min(slacks) >= 0
    return Check(f"matching.dict2random n={n}", ok,
                 f"law {'exact' if law_ok else 'broken'}, min frac(dist<=2)={worst_frac:.4f}, "
                 f"max avg stretch {float(worst_avg):.2f} <= 10, "
                 f"avg stretch <= 1+2*mean-dist (min slack {float(min(slacks)):.2f})")


def rand2rand(n: int, seed_pairs) -> Check:
    """random f -> random g by composition, one (f, g) per seed pair: the law,
    average stretch <= 20 and at most 10/n of the points moved by >= 4."""
    seed_pairs = _coverage(seed_pairs, "seed pairs")
    law_ok = True
    worst_avg = 0.0
    worst_far = 0.0
    for f_seed, g_seed in seed_pairs:
        f = random_balanced(n, f_seed)
        g = random_balanced(n, g_seed)
        comp = build_random_to_random(f, g)
        law_ok &= is_mapping_between(comp, f, g)
        worst_avg = max(worst_avg, float(stretch_report(comp).avg))
        worst_far = max(worst_far, float((displacements(comp) >= 4).mean()))
    ok = law_ok and worst_avg <= 20 and worst_far <= 10 / n
    return Check(f"matching.rand2rand n={n}", ok,
                 f"law {'exact' if law_ok else 'broken'}, avg {worst_avg:.2f} <= 20, "
                 f"frac(dist>=4)={worst_far:.4f} <= 10/n")
