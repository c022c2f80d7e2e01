"""Radial kernels, their integrability norm, and potential evaluation.

A radial kernel on the tree boundary depends only on the ultrametric
distance, hence only on the shared-prefix level of a leaf pair: it is a
table of one value per level plus a diagonal convention.  The power-law
(Riesz) kernel ``d(x,y)**(-Q*s)`` is supported both in the ultrametric and
in the embedded metrics; in the latter case it is no longer radial in the
tree, but it still depends only on the digit differences of a leaf pair.
Either way every potential K*f, K*mu and the norm ||K||_1 comes from
``kernel_operator(kernel, space)`` on a ``ModelSpace``, whose dimension Q
the Riesz kernel uses.

Atoms carry no self-interaction for the Riesz kind: the diagonal is the
discretization artifact of a measure with no point masses, so it is
excluded from every integral.  General radial kernels instead declare
their own diagonal value (the level-N entry of the table).

Both operators are exact and apply through dense blocks of b**k leaves: the
tree operator holds one block within a subtree and sums subtree masses
above it; the embedded one holds each kernel value once, one per digit
difference vector, and when it applies gathers the block of each kept top
digit difference once, using it as is and, for the mirror difference,
transposed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .space import ModelSpace

KERNEL_KINDS = ("riesz", "radial")


@dataclass(frozen=True)
class RadialKernel:
    """Kernel description: ``riesz`` with (s, p) or ``radial`` with a level table.

    ``p`` is the integrability exponent the kernel is meant to be used
    with; the Riesz kind requires 1/p' <= s < 1 so the kernel integrates
    against any Ahlfors-regular mass profile.
    """

    kind: str = "riesz"
    s: float = 0.75
    p: float = 2.0
    level_values: tuple | None = None   # radial kind: one value per level 0..N

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not self.p > 1.0 or not np.isfinite(self.p):
            raise ValueError("exponent p must be finite and > 1")
        if self.kind == "riesz":
            if not (1.0 / self.conjugate() <= self.s < 1.0):
                raise ValueError(f"riesz exponent must satisfy 1/p' <= s < 1; "
                                 f"got s={self.s}, p={self.p}")
        else:
            if self.level_values is None:
                raise ValueError("radial kernel needs a level-value table")
            vals = np.asarray(self.level_values, dtype=float)
            if vals.ndim != 1 or not np.all(np.isfinite(vals)) or np.any(vals < 0):
                raise ValueError("level values must be finite and nonnegative")
            # K*1 > 0 at every leaf exactly when some level carries mass
            if not np.any(vals > 0):
                raise ValueError("level values must not all be zero")
            # a hashable table, so the kernel itself can key caches
            object.__setattr__(self, "level_values", tuple(vals.tolist()))

    def conjugate(self) -> float:
        return self.p / (self.p - 1.0)

    def level_table(self, space: ModelSpace) -> np.ndarray:
        """Per-level kernel values, diagonal convention in slot ``depth``.

        A radial table lives on the ultrametric only; embedded metrics
        support the Riesz kernel alone.
        """
        if self.kind == "radial":
            if space.kind != "tree-boundary":
                raise ValueError("embedded metrics support only the riesz kernel")
            vals = np.asarray(self.level_values, dtype=float)
            if vals.shape != (space.depth + 1,):
                raise ValueError(
                    f"level table needs {space.depth + 1} entries, got {vals.shape}")
            return vals
        table = np.empty(space.depth + 1)
        table[: space.depth] = space._radii[: space.depth] ** (-space.dimension * self.s)
        table[space.depth] = 0.0   # atoms have no self-interaction
        return table


def convolve_naive(kernel: RadialKernel, space: ModelSpace, f: np.ndarray) -> np.ndarray:
    """Exact quadratic-cost potential of the function f (oracle of the tree
    operator, so ultrametric only)."""
    if space.kind != "tree-boundary":
        raise ValueError("the naive oracle sums over the ultrametric")
    table = kernel.level_table(space)
    kmat = table[space.lca_matrix()]
    return kmat @ (np.asarray(f, dtype=float) * space.weights)


def lp_norm(values: np.ndarray, weights: np.ndarray, p: float) -> float:
    """Weighted L^p norm, for finite p."""
    values = np.asarray(values, dtype=float)
    return float((weights @ np.abs(values) ** p) ** (1.0 / p))


# -- kernel operators ------------------------------------------------------------


class KernelOperator:
    """Uniform interface for potentials, ``TreeKernelOperator`` on the
    ultrametric and ``DenseKernelOperator`` on embedded metrics.

    ``apply_function`` and ``apply_measure`` take one input as an (n,)
    vector or k inputs as the columns of an (n, k) block, and return the
    same shape.  A block makes one pass over the operator for all k
    columns, so its columns can differ from one-at-a-time applies in the
    last bits.  ``row`` takes one leaf for its (n,) row K(x, .) or m leaves
    for an (m, n) block of rows, read-only; both operators split the leaves
    into depth-T subtrees and copy a row from their tables per subtree pair.
    """

    _mass = None

    def __init__(self, kernel: RadialKernel, space: ModelSpace):
        # what an apply reads of the space, not the space itself, so that the
        # space's operator memo makes no reference cycle
        self.kernel = kernel
        self.weights, self.n_leaves = space.weights, space.n_leaves
        self.branching = space.branching
        # T, the top digits of the shared leaf layout
        self._top = space.depth - _bottom_digits(space.branching, space.depth)

    def mass(self) -> np.ndarray:
        """K*1, the kernel's mass integral at every leaf: computed once per
        operator, hence once per (space, kernel) through ``kernel_operator``,
        and read-only, since every caller shares it."""
        if self._mass is None:
            self._mass = self.apply_function(np.ones(self.n_leaves))
            self._mass.setflags(write=False)
        return self._mass

    def apply_function(self, f: np.ndarray) -> np.ndarray:
        """K*f = potential of the measure f dmu (per column of a block)."""
        f = np.asarray(f, dtype=float)
        w = self.weights
        return self._apply(f * (w[:, None] if f.ndim == 2 else w))

    def apply_measure(self, masses: np.ndarray) -> np.ndarray:
        """K*mu for a measure given by per-leaf masses (per column of a block)."""
        return self._apply(np.asarray(masses, dtype=float))

    def norm_1(self) -> float:
        """max over leaves of the kernel's mass integral (the kernels are
        symmetric, so the two sup-integrals coincide)."""
        return float(self.mass().max())

    def row(self, leaves):
        # each run of consecutive leaves in one depth-T subtree s (one run per
        # subtree when the leaves are sorted) has its rows against every
        # subtree t filled by the subclass, as copies of its table values
        leaves = np.asarray(leaves)
        size = self.n_leaves // self.branching**self._top
        subtree, leaf = np.divmod(leaves.reshape(-1), size)
        out = np.empty((subtree.size, self.n_leaves // size, size))
        starts = np.flatnonzero(np.diff(subtree, prepend=-1, append=-1))
        for lo, hi in zip(starts[:-1], starts[1:]):
            self._fill(out[lo:hi], subtree[lo], leaf[lo:hi])
        # read-only, like the tables it copies
        out.setflags(write=False)
        return out.reshape(leaves.shape + (self.n_leaves,))


# leaves on a side of the dense block of either operator: the smallest power of b
# with at least _LEAF_FLOOR, unless it passes _LEAF_BLOCK, then the largest with
# at most that.  Only b = 2 gets a block below the largest (128, not 512):
# smaller blocks at b = 3 and 4 slow the one-column applies
_LEAF_FLOOR = 128
_LEAF_BLOCK = 512


def _bottom_digits(b: int, depth: int) -> int:
    """k of the leaf block b**k by the rule above, capped at the depth."""
    k = 0
    while k < depth and b**k < _LEAF_FLOOR and b ** (k + 1) <= _LEAF_BLOCK:
        k += 1
    return k


class TreeKernelOperator(KernelOperator):
    """K on the ultrametric: one dense ``block`` within each depth-T subtree
    of b**k leaves (k from ``_bottom_digits``, T = N - k), and between two
    subtrees the one value table[lca of their top digits].  An apply, exact,
    is one product of the block with every subtree, O(n * b**k), plus
    telescoped sums of the b**T subtree masses, O(b**T) per top level."""

    def __init__(self, kernel: RadialKernel, space: ModelSpace):
        super().__init__(kernel, space)
        self.table = kernel.level_table(space)
        # the first subtree's leaves share its top T digits, so their lca is T
        # plus that of their bottom digits; read-only, as every caller shares it
        leaves = np.arange(space.n_leaves // space.branching**self._top)
        self.block = self.table[space.lca_levels(leaves[:, None], leaves)]
        self.block.setflags(write=False)

    def _apply(self, masses):
        top, size, cols = self._top, self.block.shape[0], masses.size // masses.shape[0]
        # one row per subtree and column: one product with the symmetric block
        rows = masses.reshape(-1, size, cols).transpose(0, 2, 1).reshape(-1, size)
        out = (rows @ self.block).reshape(-1, cols, size)
        # between subtrees: the sum over the top levels of K(delta**l) * (level-l
        # mass - level-(l+1) mass), telescoped; the block holds level T and below
        sums = rows.sum(axis=1).reshape(-1, cols)
        far = -self.table[top - 1] * sums if top else np.zeros_like(sums)
        for level in range(top):
            coef = self.table[level] - (self.table[level - 1] if level else 0.0)
            span = self.branching ** (top - level)
            far += coef * sums.reshape(-1, span, cols).sum(axis=1).repeat(span, axis=0)
        out += far[:, :, None]
        return out.transpose(0, 2, 1).reshape(masses.shape)

    def _fill(self, rows, s, leaves):
        # table[lca of the top digits of s and t] over every subtree t, the
        # number of leading top digits they share; over s itself, block rows
        spans = self.branching ** np.arange(self._top)[:, None]
        shared = (s // spans == np.arange(rows.shape[1]) // spans).sum(axis=0)
        rows[:] = self.table[shared][:, None]
        rows[:, s] = self.block[leaves]


class DenseKernelOperator(KernelOperator):
    """K on an embedded space, held as one value per digit-difference vector.

    The embedding coordinate is linear in the base-b digits of a leaf, so
    K(x, y) depends only on the vector of digit differences of x and y.  The
    bottom k digits index the rows and columns of a block of b**k leaves, k
    from ``_bottom_digits``; the top T = N - k digit differences pick the
    block.
    ``matrix[e]`` holds the ``(2b - 1)**k`` values of K between two depth-T
    subtrees whose top digits differ by the e-th vector of
    ``range(1 - b, b) ** T`` (C order), one per bottom difference vector, so
    each kernel value is held once.  Entry (i, j) of that block is
    ``matrix[e, index[i, j]]`` with the shared ``index[i, j] = code(i) -
    code(j) + middle`` (``_digit_codes``; middle is the zero bottom
    difference).  K is symmetric, so the block of a difference is the
    transposed block of its negative: the table keeps the
    ``((2b - 1)**T + 1) / 2`` top differences up to and including zero.  The
    last, ``zero = matrix.shape[0] - 1``, is the zero difference, and a
    difference e past it is the transposed block of ``2 * zero - e``.  The
    build never holds the distances of all (2b - 1)**N difference vectors.
    An apply gathers each kept block once into one scratch block; one
    matrix product takes every subtree pair of its difference, and, before
    zero, a second one with the transposed block every pair of its mirror.
    A row segment against a subtree is the leaf's row of their block, gathered
    from the values through ``index``; past zero, from the mirror's values
    read backwards.
    """

    def __init__(self, kernel: RadialKernel, space: ModelSpace):
        if kernel.kind != "riesz":
            raise ValueError("embedded metrics support only the riesz kernel")
        super().__init__(kernel, space)
        b, depth, delta = space.branching, space.depth, space.delta
        top = self._top
        bottom = depth - top
        # the distance of a digit-difference vector is the sum of its per-level
        # terms from the finest level up, never the difference of two nearly
        # equal coordinates: the sums over the bottom levels once, in every row
        step = (1.0 - delta) / (b - 1)
        terms = [np.arange(1 - b, b, dtype=float) * step * delta**level
                 for level in range(depth)]
        fine = np.zeros(1)
        for level in range(depth - 1, top - 1, -1):
            fine = np.add.outer(terms[level], fine).reshape(-1)
        middle = fine.size // 2
        # row e holds K over the bottom differences at the e-th top difference,
        # for those up to zero; the last is the zero vector, whose middle is a
        # leaf and itself.  Each top level's term goes onto every row, finest
        # first, in place (IEEE addition commutes, so no value moves)
        kept = (2 * b - 1) ** top // 2 + 1
        matrix = np.empty((kept, fine.size))
        matrix[:] = fine
        for level in range(top - 1, -1, -1):
            digit = np.arange(kept) // (2 * b - 1) ** (top - 1 - level) % (2 * b - 1)
            matrix += terms[level][digit][:, None]
        np.abs(matrix, out=matrix)
        matrix[-1, middle] = 1.0
        np.power(matrix, -space.dimension * kernel.s, out=matrix)
        matrix[-1, middle] = 0.0
        # read-only, like the index, because every caller shares them
        matrix.setflags(write=False)
        self.matrix = matrix
        codes = _digit_codes(b, bottom)
        self._index = (codes[:, None] + middle) - codes
        self._index.setflags(write=False)
        self._codes = _digit_codes(b, top)
        # per kept top difference, the top digits of the output and input
        # subtree pairs it links, as slices of the (b, ..., b, block, columns)
        # leaf layout; its mirror links the same pairs swapped
        diffs = itertools.product(range(1 - b, b), repeat=top)
        self._pairs = [(tuple(slice(max(0, d), b + min(0, d)) for d in diff),
                        tuple(slice(max(0, -d), b + min(0, -d)) for d in diff))
                       for diff in itertools.islice(diffs, kept)]

    def _apply(self, masses):
        block, zero = self._index.shape[0], self.matrix.shape[0] - 1
        # leaves in their own order, (top digits..., bottom leaf, column): each
        # subtree's panel is contiguous, and one matrix product takes every
        # subtree pair of a difference
        x = masses.reshape((self.branching,) * self._top
                           + (block, masses.size // masses.shape[0]))
        out = np.zeros(x.shape)
        kmat = np.empty((block, block))
        for e, (dst, src) in enumerate(self._pairs):
            np.take(self.matrix[e], self._index, out=kmat, mode="clip")
            out[dst] += kmat @ x[src]
            if e < zero:
                # the mirror 2 * zero - e: the block transposed (BLAS reads it
                # through its transpose flag), the pairs swapped
                out[src] += kmat.T @ x[dst]
        return out.reshape(masses.shape)

    def _fill(self, rows, s, leaves):
        # against subtree t, rows of the block of e = code(s) - code(t) + zero;
        # past zero, of the mirror's values read backwards
        zero = self.matrix.shape[0] - 1
        e = self._codes[s] - self._codes + zero
        values = self.matrix[np.minimum(e, 2 * zero - e)]
        values[e > zero] = values[e > zero, ::-1]
        rows[:] = np.take(values, self._index[leaves], axis=1).transpose(1, 0, 2)


def _digit_codes(b: int, digits: int) -> np.ndarray:
    """The base-b digits of 0 .. b**digits - 1 read in base 2b - 1, so the
    code of x minus the code of y, plus the code of all digits b - 1, is the
    C-order index of their digit-difference vector in range(1 - b, b)**digits."""
    idx = np.arange(b**digits, dtype=np.int64)
    codes = np.zeros_like(idx)
    for level in range(digits):
        codes = codes * (2 * b - 1) + (idx // b ** (digits - 1 - level)) % b
    return codes


def kernel_operator(kernel: RadialKernel, space: ModelSpace) -> KernelOperator:
    """The operator of ``kernel`` on ``space``, built once per (space, kernel)."""
    cls = TreeKernelOperator if space.kind == "tree-boundary" else DenseKernelOperator
    return space._cached(("operator", kernel), lambda: cls(kernel, space))
