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
"""

from __future__ import annotations

from .btk_chains import Signature, _mark_mask
from .cube_core import Point, popcount
from .gf2_maps import prefix_xor_mapping
from .stretch_metrics import Mapping


def _require_odd(n: int) -> None:
    if n % 2 == 0:
        raise ValueError(f"the chain mapping needs odd n, got {n}")


def _tail_signature(bits: int, m: int) -> Signature:
    mask = _mark_mask(bits, m)
    return Signature(bits & mask, mask, m)


def maj_to_dict_bits(x: int, n: int) -> int:
    m = n - 1
    xp = x & ((1 << m) - 1)
    xn = x >> m
    sig = _tail_signature(xp, m)
    k = sig.k
    j = popcount(xp)
    if 2 * (j + xn) >= n + 1:
        return 1 | (sig.element_bits(2 * j - (n - k) + xn) << 1)
    return sig.element_bits((n + k) - 2 * j - 1 - xn) << 1


def dict_to_maj_bits(y: int, n: int) -> int:
    m = n - 1
    z = y >> 1
    sig = _tail_signature(z, m)
    k = sig.k
    level = popcount(z)
    if y & 1:
        xn = (level + n - k) & 1
        j = (level + n - k - xn) // 2
    else:
        xn = (n + k - 1 - level) & 1
        j = (n + k - 1 - level - xn) // 2
    return sig.element_bits(j) | (xn << m)


def maj_to_dict(x: Point) -> Point:
    """Bijection carrying majority to dictator; 11-Lipschitz."""
    _require_odd(x.n)
    return Point(maj_to_dict_bits(x.bits, x.n), x.n)


def dict_to_maj(y: Point) -> Point:
    """Two-sided inverse of maj_to_dict."""
    _require_odd(y.n)
    return Point(dict_to_maj_bits(y.bits, y.n), y.n)


def maj_to_xor(x: Point) -> Point:
    """Composition with the adjacent-sums map: carries majority to parity."""
    return majority_to_xor_map(x.n)(x)


def majority_to_dictator_map(n: int):
    """Mapping object for maj_to_dict with its inverse bound."""
    _require_odd(n)
    return Mapping(
        n,
        forward=lambda b: maj_to_dict_bits(b, n),
        inverse=lambda b: dict_to_maj_bits(b, n),
        name="maj2dict",
    )


def dictator_to_majority_map(n: int):
    _require_odd(n)
    return Mapping(
        n,
        forward=lambda b: dict_to_maj_bits(b, n),
        inverse=lambda b: maj_to_dict_bits(b, n),
        name="dict2maj",
    )


def majority_to_xor_map(n: int):
    _require_odd(n)
    prefix = prefix_xor_mapping(n)
    return Mapping(
        n,
        forward=lambda b: prefix.apply_bits(maj_to_dict_bits(b, n)),
        inverse=lambda b: dict_to_maj_bits(prefix.inverse_bits(b), n),
        name="maj2xor",
    )
