"""Scalar evaluators that only the tests use, as references for the
package's array kernels and past the package's own size limits."""

from functools import cache

from cubemorph.btk_chains import Signature


def formula_value(name: str, n: int, x: int) -> int:
    """The named formula at the packed point x of the n-cube."""
    if name == "majority":
        return 1 if 2 * x.bit_count() > n else 0
    if name == "dictator":
        return x & 1
    if name == "xor":
        return x.bit_count() & 1
    raise ValueError(f"unknown formula {name!r}")


def chain_point(sig: Signature, j: int) -> int:
    """The unique point of weight j on the chain sig, as packed bits: the
    marked bits with the top j - k gaps set."""
    k = sig.k
    if not k <= j <= sig.n - k:
        raise ValueError(f"level {j} outside chain range {k}..{sig.n - k}")
    gaps = sig.gap_positions()
    out = sig.bits
    for pos in gaps[len(gaps) - (j - k):] if j > k else ():
        out |= 1 << pos
    return out


@cache
def _repeat_mask(block: int, period: int, width: int) -> int:
    m = (1 << block) - 1
    shift = period
    while shift < width:
        m |= m << shift
        shift <<= 1
    return m & ((1 << width) - 1)


def extract_even_bits(x: int, nbits: int) -> int:
    """Compact bits 0, 2, 4, ... of the low nbits of x."""
    width = 1
    while width < nbits:
        width <<= 1
    x &= _repeat_mask(1, 2, width)
    s = 1
    while s < width:
        x = (x | (x >> s)) & _repeat_mask(2 * s, 4 * s, width)
        s <<= 1
    return x


def tree2_apply_bits(n: int, x: int) -> int:
    """The binary tree map at x, for any n, in O(log n) word operations.

    Output bit b is x_b ^ x_{2b+1} ^ x_{2b+2} (0-based), i.e. vertex b+1
    folded with its two children, which is one odd-bit and one shifted
    even-bit extraction.  It is the only tree-map evaluator past n = 63,
    where the uint64 evaluators of gf2_maps.tree_mapping stop (acceptance
    criterion 6 samples n = 2^16).
    """
    x &= (1 << n) - 1
    odd = extract_even_bits(x >> 1, n - 1) if n > 1 else 0
    even = extract_even_bits(x, n)
    return (x ^ odd ^ (even >> 1)) & ((1 << n) - 1)
