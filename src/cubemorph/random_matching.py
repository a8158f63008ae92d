"""Round-based matching of poor vertices to rich ones, and the bijections
it yields onto random balanced functions.

Fix a target set A inside the n-cube and view the (n-1)-cube as the points
to be extended by one coordinate.  A vertex x is rich if both extensions
x|0 and x|1 lie in A, poor if neither does, mixed otherwise.  Round i
simultaneously matches every still-unmatched poor x to its direction-i
neighbor when that neighbor is rich and unmatched; direction-i edges form a
perfect matching of the cube, so rounds never conflict, and matching stops
after floor((n-1)/2) rounds.

The resulting injective extension map sends a mixed vertex to its extension
inside A, an unconsumed rich vertex to x|1, a consumed rich vertex to x|0
(both of its extensions are in A, so this dodges its poor partner's image
without leaving A), a matched poor vertex to its partner's upper extension,
and an unmatched poor vertex to x|0, the only case that exits A.

For a balanced f the dictator-to-f bijection runs this construction once
per class of f, with coordinates rotated so the extension coordinate is
coordinate 1; whatever the matching could not place (an O(1/n) fraction)
is repaired by pairing leftover sources with uncovered targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction

import numpy as np

from .cube_core import (
    MATCHING_MAX_N,
    TABLE_MAX_N,
    BooleanFunction,
    check_n,
    popcount_array,
    random_balanced,
    random_subset_function,
)
from .stretch_metrics import Mapping, stretch_report


class Status(IntEnum):
    MIXED = 0
    RICH = 1
    POOR = 2


@dataclass
class MatchState:
    """Outcome of the matching rounds over the (n-1)-cube."""

    n: int
    kinds: np.ndarray
    matched_dir: np.ndarray
    in_high: np.ndarray
    round_stats: list[tuple[int, int]]

    @property
    def size(self) -> int:
        return 1 << (self.n - 1)

    @property
    def rounds(self) -> int:
        return len(self.round_stats) - 1

    def poor_unmatched_count(self) -> int:
        return self.round_stats[-1][0]


def _xor_partner(arr: np.ndarray, b: int) -> np.ndarray:
    """arr reindexed by x -> x ^ (1 << b)."""
    return arr.reshape(-1, 2, 1 << b)[:, ::-1, :].reshape(arr.shape)


def run_matching(a: BooleanFunction) -> MatchState:
    """Run all floor((n-1)/2) matching rounds against the set a.

    Eligibility in each round is decided from the frozen end-of-previous-
    round state, so all matches in a round happen simultaneously.
    """
    n = a.n
    check_n(n, MATCHING_MAX_N, low=2)
    vals = a.values()
    half = 1 << (n - 1)
    in_low = vals[:half].view(bool)
    in_high = vals[half:].view(bool)
    rich = in_low & in_high
    poor = ~in_low & ~in_high
    kinds = np.zeros(half, dtype=np.uint8)
    kinds[rich] = Status.RICH
    kinds[poor] = Status.POOR
    matched_dir = np.zeros(half, dtype=np.int8)
    poor_un = poor.copy()
    rich_un = rich.copy()
    stats = [(int(poor_un.sum()), int(rich_un.sum()))]
    for i in range(1, (n - 1) // 2 + 1):
        b = i - 1
        match_poor = poor_un & _xor_partner(rich_un, b)
        match_rich = _xor_partner(match_poor, b)
        matched_dir[match_poor] = i
        matched_dir[match_rich] = i
        poor_un &= ~match_poor
        rich_un &= ~match_rich
        stats.append((int(poor_un.sum()), int(rich_un.sum())))
    return MatchState(n=n, kinds=kinds, matched_dir=matched_dir,
                      in_high=vals[half:], round_stats=stats)


def build_injection(state: MatchState) -> np.ndarray:
    """Injective extension table: entry x is an n-bit point over x's cube.

    Cases: mixed -> the extension inside the set; unconsumed rich -> x|1;
    consumed rich -> x|0; matched poor -> partner|1; unmatched poor -> x|0.
    """
    half = state.size
    top = half
    x = np.arange(half, dtype=np.int64)
    kinds = state.kinds
    matched = state.matched_dir != 0
    img = x.copy()
    mixed_high = (kinds == Status.MIXED) & state.in_high.view(bool)
    img[mixed_high] += top
    rich_free = (kinds == Status.RICH) & ~matched
    img[rich_free] += top
    poor_matched = (kinds == Status.POOR) & matched
    dirs = state.matched_dir[poor_matched].astype(np.int64)
    img[poor_matched] = (x[poor_matched] ^ (1 << (dirs - 1))) + top
    return img


def injection_is_valid(state: MatchState, img: np.ndarray) -> bool:
    """Injectivity plus the one-coordinate condition on the first n-1 bits."""
    half = state.size
    if img.size != half or img.min() < 0 or img.max() >= 2 * half:
        return False
    # a bitmap of the images, not a sort: np.unique takes seconds at n = 24
    seen = np.zeros(2 * half, dtype=bool)
    seen[img] = True
    if np.count_nonzero(seen) != half:
        return False
    x = np.arange(half, dtype=np.int64)
    prefix_dist = popcount_array((x ^ (img & (half - 1))).astype(np.uint64))
    return bool((prefix_dist <= 1).all())


@dataclass(frozen=True)
class CurveResult:
    """Per-round unmatched fractions across trials; round 0 is pre-matching."""

    n: int
    trials: int
    p_hat: np.ndarray
    q_hat: np.ndarray

    @property
    def rounds(self) -> int:
        return self.p_hat.shape[1] - 1

    def p_mean(self) -> np.ndarray:
        return self.p_hat.mean(axis=0)

    def q_mean(self) -> np.ndarray:
        return self.q_hat.mean(axis=0)


def recursion_curve(n: int, trials: int, seed: int) -> CurveResult:
    """Empirical per-round poor/rich unmatched fractions over fresh random sets.

    Each trial draws its own density-1/2 set from a named substream of the
    seed, runs the matching, and records fractions after every round.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    check_n(n, MATCHING_MAX_N, low=2)
    children = np.random.SeedSequence(seed).spawn(trials)
    rounds = (n - 1) // 2
    half = 1 << (n - 1)
    p = np.empty((trials, rounds + 1))
    q = np.empty((trials, rounds + 1))
    for t in range(trials):
        state = run_matching(random_subset_function(n, children[t]))
        for r, (pu, ru) in enumerate(state.round_stats):
            p[t, r] = pu / half
            q[t, r] = ru / half
    return CurveResult(n=n, trials=trials, p_hat=p, q_hat=q)


def _half_cube_images(f_vals: np.ndarray, n: int, cls: int) -> tuple[np.ndarray, int]:
    """Images for sources u = coordinates 2..n of the cls half, plus the
    count of repaired sources (= the unmatched poor of that half)."""
    # f^{-1}(cls) with coordinates rotated one step left: coordinate 1 of the
    # cube becomes the top coordinate, the one the matching extends
    rotated = np.concatenate([f_vals[0::2], f_vals[1::2]]) == cls
    img_rot = build_injection(run_matching(BooleanFunction.from_values(n, rotated)))
    mask = (1 << n) - 1
    img = ((img_rot << 1) & mask) | (img_rot >> (n - 1))
    good = f_vals[img] == cls
    bad_sources = np.flatnonzero(~good)
    used = np.zeros(1 << n, dtype=bool)
    used[img[good]] = True
    img[bad_sources] = np.flatnonzero((f_vals == cls) & ~used)
    return img, bad_sources.size


@dataclass(frozen=True)
class DictToRandomResult:
    """The bijection plus per-class construction diagnostics."""

    mapping: Mapping
    repaired: tuple[int, int]

    @property
    def unmatched_poor_fraction(self) -> Fraction:
        half = 1 << (self.mapping.n - 1)
        return Fraction(self.repaired[0] + self.repaired[1], 2 * half)


def build_dict_to_random_details(f: BooleanFunction) -> DictToRandomResult:
    """Bijection phi with dictator(x) = f(phi(x)) everywhere, together with
    the repair counts per class.  Leftover sources are repaired in ascending
    order onto the uncovered targets, also ascending."""
    n = f.n
    check_n(n, MATCHING_MAX_N, low=2)
    if not f.is_balanced():
        raise ValueError("target function must be balanced")
    vals = f.values()
    table = np.empty(1 << n, dtype=np.int64)
    half = 1 << (n - 1)
    u = np.arange(half, dtype=np.int64)
    repaired = []
    for cls in (1, 0):
        img, nbad = _half_cube_images(vals, n, cls)
        table[(u << 1) | cls] = img
        repaired.append(nbad)
    mapping = Mapping.from_table(n, table, name="dict2random")
    return DictToRandomResult(mapping=mapping, repaired=(repaired[0], repaired[1]))


def displacements(phi: Mapping) -> np.ndarray:
    """Hamming distance from each point to its image."""
    t = phi.table()
    return popcount_array((t ^ np.arange(t.size, dtype=np.int64)).astype(np.uint64))


@dataclass(frozen=True)
class DictToRandomTrial:
    """One dictator -> random balanced f construction and its end-to-end numbers."""

    f: BooleanFunction
    details: DictToRandomResult
    frac_dist_le2: float
    avg_stretch: float
    avg_stretch_inv: float


def dict_to_random_trial(n: int, seed) -> DictToRandomTrial:
    """Draw a balanced f from the seed, build dictator -> f, and measure the
    fraction of points it moves by at most 2 and its average stretch both ways."""
    check_n(n, TABLE_MAX_N, low=2)
    f = random_balanced(n, seed)
    details = build_dict_to_random_details(f)
    phi = details.mapping
    return DictToRandomTrial(
        f=f, details=details,
        frac_dist_le2=float((displacements(phi) <= 2).mean()),
        avg_stretch=float(stretch_report(phi).avg),
        avg_stretch_inv=float(stretch_report(phi.inverse_mapping()).avg))


def build_random_to_random(f: BooleanFunction, g: BooleanFunction) -> Mapping:
    """Bijection from f to g: the g-construction composed with the inverse
    of the f-construction."""
    if f.n != g.n:
        raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
    check_n(f.n, TABLE_MAX_N, low=2)
    phi_f = build_dict_to_random_details(f).mapping
    phi_g = build_dict_to_random_details(g).mapping
    table = phi_g.table()[phi_f.inverse_mapping().table()]
    return Mapping.from_table(f.n, table, name="rand2rand")
