"""The chain-based bijection from the majority function to the dictator
function, its closed-form inverse, and the composition onward to parity.

For odd n, split x into its first n-1 coordinates x' and its last bit b.
Within the symmetric chain C = {c_k, ..., c_{n-1-k}} of x' (with x' = c_j),
the map sends the whole block {c o b} to {1 o c} u {0 o c}:

    x  ->  1 o c_{2j-(n-k)+b}      if |x| >= (n+1)/2
    x  ->  0 o c_{(n+k)-2j-1-b}    if |x| <= (n-1)/2

The upper half of the cube lands on points with first coordinate 1 and the
lower half on first coordinate 0, so majority maps to dictator.  Walking
along a chain in steps of two keeps the output's tail inside one chain, and
adjacent points have chains at bounded distance, which is what makes the
map Lipschitz.

The inverse recovers (j, b) from the tail's level m because the two
branches use opposite parities: with y = y1 o z and z = c_m, for y1 = 1 we
have m = 2j - (n-k) + b, so b = (m + n - k) mod 2, and for y1 = 0 we have
m = (n+k) - 2j - 1 - b, so b = (n + k - 1 - m) mod 2.

Both kernels read two things about the chain of each tail: its minimum
level k and the point a given number of steps above its bottom.  Points,
samples and whole tables all get them from btk_chains.chains_of, which
composes the marking of 12-bit chunks from small tables, at any n up to 63.
"""

from __future__ import annotations

import numpy as np

from .btk_chains import chains_of
from .gf2_maps import prefix_xor_mapping
from .stretch_metrics import Mapping


def _require_odd(n: int) -> None:
    if n % 2 == 0:
        raise ValueError(f"the chain mapping needs odd n, got {n}")


# Levels are int16: every level expression below stays within +-2n.

def _maj_to_dict_array(xs: np.ndarray, n: int) -> np.ndarray:
    m = n - 1
    tails = xs & np.uint64((1 << m) - 1)
    last = (xs >> np.uint64(m)).astype(np.int16)
    j = np.bitwise_count(tails).astype(np.int16)
    upper = 2 * (j + last) >= n + 1
    # levels 2j - (n-k) + last and (n+k) - 2j - 1 - last: k cancels in the
    # steps, v = 2j - n + last and n - 2j - 1 - last = ~v
    v = 2 * j + (last - n)
    _, climb = chains_of(tails, m)
    return (climb(np.where(upper, v, ~v)) << 1) | upper


def _dict_to_maj_array(ys: np.ndarray, n: int) -> np.ndarray:
    m = n - 1
    tails = ys >> np.uint64(1)
    k, climb = chains_of(tails, m)
    level = np.bitwise_count(tails).astype(np.int16)
    # both branches give 2j + last: the last bit is the parity, j the rest
    r = np.where((ys & np.uint64(1)) == 1, level + n - k, n + k - 1 - level)
    image = climb(r // 2 - k)
    return image | ((r & 1).astype(image.dtype) << m)


def majority_to_dictator_map(n: int) -> Mapping:
    """The chain map carrying majority to dictator, 11-Lipschitz, with its
    closed-form inverse bound."""
    _require_odd(n)
    return Mapping(n, lambda xs: _maj_to_dict_array(xs, n),
                   lambda ys: _dict_to_maj_array(ys, n), "maj2dict")


def dictator_to_majority_map(n: int) -> Mapping:
    _require_odd(n)
    return Mapping(n, lambda ys: _dict_to_maj_array(ys, n),
                   lambda xs: _maj_to_dict_array(xs, n), "dict2maj")


def majority_to_xor_map(n: int) -> Mapping:
    """The chain map followed by the adjacent-sums map on the dictator side."""
    _require_odd(n)
    prefix = prefix_xor_mapping(n)
    return Mapping(n, lambda xs: prefix.forward(_maj_to_dict_array(xs, n)),
                   lambda ys: _dict_to_maj_array(prefix.inverse(ys), n), "maj2xor")
