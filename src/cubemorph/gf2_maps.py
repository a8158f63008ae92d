"""GF(2) linear bijections on the cube, built from rooted trees.

The tree map is I + M where M is the parent-to-child adjacency matrix of a
complete arity-ary tree labeled in level order: root 1, and parent[j] =
(j - 2) // arity + 1 for every other vertex j up to n.  Every row then has
weight at most arity+1 and every column at most 2, the first column has odd
weight and the rest even, so the map is 2-Lipschitz and sends the dictator
function to parity.  Its inverse is the descendant-indicator matrix, whose
column j is the ancestor chain of j, so the inverse is (height+1)-Lipschitz.

The parent array is the one form of the tree: the tree map's columns and
its inverse's, the matrix's entries and the structural inverse check all
derive from it.  A SparseGF2Matrix holds its nonzero entries as two sorted
index arrays, and its weights, row bitmaps and text form derive from those.

Also here: the adjacent-sums map (x1+x2, x2+x3, ..., xn) and the
parity-head map (XOR(x), x2, ..., xn), the two textbook bijections from
dictator to parity.

All three are LinearMaps: the column masks of the map and of its inverse
give the two array evaluators, and through them points and the whole
table.  The column weights alone give the exact stretch report, at any
n up to 63.  Sparse matrices stay for the condition measurements, which
run to n = 2^16; the bounds they are held to live in ``checks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .cube_core import ELIMINATION_MAX_N, FORMULA_MAX_N, check_n
from .stretch_metrics import Mapping, _inverse_name

_CHUNK_BITS = 8


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------

def _tree_parent(n: int, arity: int) -> np.ndarray:
    """parent[j] of each vertex j of the level-order arity-ary tree on n
    vertices; 0 at the root and at the unused index 0."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    if arity < 2:
        raise ValueError("arity must be at least 2")
    parent = (np.arange(n + 1) - 2) // arity + 1
    parent[:2] = 0
    return parent


@dataclass(frozen=True, eq=False)
class SparseGF2Matrix:
    """Square 0/1 matrix stored as its nonzero entries (rows[k], cols[k]),
    1-based and sorted by row, then column.

    A matrix built from a tree also carries the tree: parent[j] is the
    parent of vertex j, 0 at the root and at the unused index 0.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    parent: np.ndarray | None = None

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError(f"row and column indices differ in shape: "
                             f"{rows.shape} vs {cols.shape}")
        if rows.size and (min(rows.min(), cols.min()) < 1
                          or max(rows.max(), cols.max()) > self.n):
            raise ValueError(f"an entry index is outside 1..{self.n}")
        if (np.diff((rows - 1) * self.n + cols) <= 0).any():
            raise ValueError("entries must be strictly sorted by row, then column")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    def row_weights(self) -> np.ndarray:
        return np.bincount(self.rows, minlength=self.n + 1)[1:]

    def col_weights(self) -> np.ndarray:
        return np.bincount(self.cols, minlength=self.n + 1)[1:]

    def row_masks(self) -> list[int]:
        """Rows as int bitmaps indexed 0..n-1; column j is bit j-1."""
        masks = [0] * self.n
        for i, j in zip(self.rows.tolist(), self.cols.tolist()):
            masks[i - 1] |= 1 << (j - 1)
        return masks

    def to_text(self) -> str:
        """One line per row: the row's column indices, space separated."""
        cols = self.cols.tolist()
        ends = np.cumsum(self.row_weights()).tolist()
        return "\n".join(" ".join(map(str, cols[lo:hi]))
                         for lo, hi in zip([0, *ends], ends))


def build_tree_matrix(n: int, arity: int = 2) -> SparseGF2Matrix:
    """I + parent-to-child adjacency of the level-order arity-ary tree."""
    parent = _tree_parent(n, arity)
    vertices = np.arange(1, n + 1)
    # The diagonal entries come first and children follow their parent in
    # level order, so a stable sort by row leaves each row's columns sorted.
    rows = np.concatenate([vertices, parent[2:]])
    cols = np.concatenate([vertices, vertices[1:]])
    order = np.argsort(rows, kind="stable")
    return SparseGF2Matrix(n, rows[order], cols[order], parent)


# ---------------------------------------------------------------------------
# condition measurements
# ---------------------------------------------------------------------------

def gf2_inverse_rows(rows: list[int], n: int) -> list[int] | None:
    """Inverse of an n x n GF(2) matrix given as int rows, or None."""
    work = [rows[i] | (1 << (n + i)) for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        for r in range(n):
            if r != col and (work[r] >> col) & 1:
                work[r] ^= work[col]
    return [w >> n for w in work]


def _tree_inverse_consistent(a: SparseGF2Matrix, parent: np.ndarray) -> int | None:
    """Check that the ancestor-indicator matrix B of a tree inverts a.

    parent[j] is the parent of vertex j and 0 at a root (index 0 is
    unused); column j of B is the chain j, parent[j], ..., root.  So column
    j of a B is a_j, column j of a, plus column parent[j] of a B, and by
    induction on depth a B = I exactly when a_j = e_j + e_parent[j] at every
    vertex j below a root and a_r = e_r at every root r.  Once every chain
    is known to end at a root, the check is that each of a's entries (i, j),
    which are distinct, has i = j or i = parent[j], and that there are as
    many as those required.

    Returns the longest chain, 1 + the most ancestors of a vertex, which is
    B's largest column weight, or None if the check fails.
    """
    n = a.n
    if parent.shape != (n + 1,) or parent.min() < 0 or parent.max() > n:
        return None
    # by pointer doubling: up[j] is j's 2^s-th ancestor (0 past a root) and
    # depth[j] the steps taken towards it
    up = parent.astype(np.intp)
    up[0] = 0
    depth = (up > 0).astype(np.intp)
    for _ in range(n.bit_length()):
        depth += depth[up]
        up = up[up]
    if up.any():  # a chain that never reaches a root
        return None
    if a.rows.size != n + np.count_nonzero(parent[1:]):
        return None
    if not ((a.rows == a.cols) | (a.rows == parent[a.cols])).all():
        return None
    return int(depth.max()) + 1


@dataclass(frozen=True)
class ConditionReport:
    """The weights the tree-map conditions judge (the bounds are in checks):
    parity_ok is column 1 odd and every other column even, the pattern that
    sends dictator to parity; max_inverse_col_weight is None when singular."""

    max_row_weight: int
    max_col_weight: int
    parity_ok: bool
    max_inverse_col_weight: int | None


def verify_conditions(a: SparseGF2Matrix, cross_check: bool = False) -> ConditionReport:
    """Measure the weights of a matrix and of its inverse.

    Invertibility and inverse column weights come from Gaussian elimination
    for generic matrices; matrices built from a tree use the explicit
    ancestor-indicator inverse instead, which scales to large n.  With
    cross_check=True a tree matrix additionally runs the elimination path
    and the two must agree.
    """
    n = a.n
    structural = a.parent is not None
    eliminate = cross_check or not structural
    if eliminate:
        check_n(n, ELIMINATION_MAX_N, what="n for Gaussian elimination")
    inv_col_w = _tree_inverse_consistent(a, a.parent) if structural else None
    if eliminate:
        inv_rows = gf2_inverse_rows(a.row_masks(), n)
        elim_w = None if inv_rows is None else max(
            sum((r >> c) & 1 for r in inv_rows) for c in range(n))
        if not structural:
            inv_col_w = elim_w
        elif elim_w != inv_col_w:  # None on either side: not invertible
            raise AssertionError(f"inverse column weight: structural {inv_col_w} "
                                 f"vs elimination {elim_w}")
    col_w = a.col_weights()
    return ConditionReport(
        max_row_weight=int(a.row_weights().max()),
        max_col_weight=int(col_w.max()),
        parity_ok=bool(col_w[0] % 2 == 1 and not (col_w[1:] % 2).any()),
        max_inverse_col_weight=inv_col_w,
    )


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

def _span_table(cols: Sequence[int]) -> np.ndarray:
    """Images of 0 .. 2^len(cols)-1 under the map with these columns, by
    doubling: t[2^b : 2^(b+1)] = t[:2^b] ^ cols[b]."""
    t = np.zeros(1 << len(cols), dtype=np.uint64)
    for b, c in enumerate(cols):
        np.bitwise_xor(t[:1 << b], np.uint64(c), out=t[1 << b:2 << b])
    return t


def _linear_evaluator(cols: Sequence[int]) -> Callable[[np.ndarray], np.ndarray]:
    """Array evaluator: XOR of one span-table gather per _CHUNK_BITS input bits."""
    tables = [_span_table(cols[i:i + _CHUNK_BITS]) for i in range(0, len(cols), _CHUNK_BITS)]
    low = np.uint64((1 << _CHUNK_BITS) - 1)

    def apply(xs: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(xs), dtype=np.uint64)
        for i, t in enumerate(tables):
            # chunks below 2^8 read as intp, numpy's fast gather index
            out ^= t[((xs >> np.uint64(i * _CHUNK_BITS)) & low).view(np.intp)]
        return out

    return apply


class LinearMap(Mapping):
    """A GF(2)-linear bijection of the n-cube given by column masks.

    cols[b] is the image of the unit vector with bit b set, inverse_cols[b]
    its preimage; the two lists must be mutually inverse, which is not
    checked.  Both evaluators, and so the table, derive from them, and the
    exhaustive stretch histogram from the weights of cols.  The builders
    below check n before they compute the masks, which take O(n^2) bits.
    """

    def __init__(self, n: int, cols: Sequence[int], inverse_cols: Sequence[int],
                 name: str = ""):
        if len(cols) != n or len(inverse_cols) != n:
            raise ValueError(f"a linear map of the {n}-cube needs {n} columns each way")
        self.cols = tuple(cols)
        self.inverse_cols = tuple(inverse_cols)
        super().__init__(n, _linear_evaluator(self.cols), _linear_evaluator(self.inverse_cols),
                         name=name)

    def _exhaustive_histogram(self) -> np.ndarray:
        """Column weights, not a table: the edge (x, x ^ e_b) goes to two
        points that differ by cols[b] whatever x is, so all 2^(n-1) edges of
        direction b+1 stretch to |cols[b]|.  No table cap applies."""
        n = self.n
        hist = np.zeros((n, n + 1), dtype=np.int64)
        hist[np.arange(n), [c.bit_count() for c in self.cols]] = 1 << (n - 1)
        return hist

    def inverse_mapping(self) -> "LinearMap":
        return LinearMap(self.n, self.inverse_cols, self.cols, _inverse_name(self.name))


def tree_mapping(n: int, arity: int = 2) -> LinearMap:
    """The tree map: column j is e_j + e_parent(j), and its inverse's column
    j the ancestor chain of j."""
    check_n(n, FORMULA_MAX_N)
    cols = []
    chains = [0] * (n + 1)  # parents precede their children in level order
    for j, p in enumerate(_tree_parent(n, arity).tolist()[1:], start=1):
        cols.append(1 << (j - 1) | 1 << p >> 1)  # no bit for the root's p = 0
        chains[j] = 1 << (j - 1) | chains[p]
    return LinearMap(n, cols, chains[1:], name=f"tree{arity}" if arity != 2 else "tree")


def prefix_xor_mapping(n: int) -> LinearMap:
    """(x1+x2, x2+x3, ..., x_{n-1}+x_n, x_n): 2-Lipschitz, inverse is not.

    The inverse recovers x via suffix parities: x_i = y_i + ... + y_n.
    """
    check_n(n, FORMULA_MAX_N)
    return LinearMap(n, [(3 << b) >> 1 for b in range(n)],
                     [(2 << b) - 1 for b in range(n)], name="prefix")


def xor_head_mapping(n: int) -> LinearMap:
    """(XOR(x), x2, ..., xn): a self-inverse 2-bi-Lipschitz bijection."""
    check_n(n, FORMULA_MAX_N)
    cols = [(1 << b) | 1 for b in range(n)]
    return LinearMap(n, cols, cols, name="xorhead")
