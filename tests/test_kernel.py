import fnmatch
import gc
import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from potlab import kernel as kernel_module
from potlab.kernel import (DenseKernelOperator, RadialKernel, convolve_naive,
                           kernel_operator, lp_norm)
from potlab.space import ModelSpace, model_space

SPANS = Path(__file__).resolve().parents[1] / "potbench" / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src"


def fast(kernel, space, f):
    return kernel_operator(kernel, space).apply_function(f)


def norm_1(kernel, space):
    return kernel_operator(kernel, space).norm_1()


def constant_kernel(space, value=1.0, p=2.0):
    return RadialKernel("radial", p=p, level_values=(value,) * (space.depth + 1))


def test_kernel_validation():
    with pytest.raises(ValueError):
        RadialKernel("riesz", s=0.3, p=2.0)       # below 1/p'
    with pytest.raises(ValueError):
        RadialKernel("riesz", s=1.0, p=2.0)
    with pytest.raises(ValueError):
        RadialKernel("riesz", s=0.75, p=1.0)
    with pytest.raises(ValueError):
        RadialKernel("radial", level_values=(1.0, -1.0))
    with pytest.raises(ValueError):
        RadialKernel("radial", level_values=(0.0,) * 7)   # K*1 = 0 at every leaf
    with pytest.raises(ValueError):
        RadialKernel("nosuch")


def kernel_value(kernel, space, x, y):
    return kernel_operator(kernel, space).row(x)[y]


def test_kernel_value_examples(tree6, interval6):
    k = RadialKernel("riesz", s=0.5, p=2.0)
    x, y = 0, 16    # lca level 2 on depth 6: distance 0.25
    assert tree6.lca_levels(x, y) == 1
    y = 8           # lca level 2 -> distance 0.25
    assert tree6.lca_levels(x, y) == 2
    assert kernel_value(k, tree6, x, y) == pytest.approx(0.25**-0.5)
    const = constant_kernel(tree6)
    assert kernel_value(const, tree6, 3, 3) == 1.0
    assert kernel_value(const, tree6, 3, 60) == 1.0
    assert kernel_value(k, tree6, 5, 5) == 0.0   # atoms have no self-interaction
    # embedded metric: the Euclidean distance 1/64, not the ultrametric 1/2
    k75 = RadialKernel("riesz", s=0.75, p=2.0)
    assert kernel_value(k75, interval6, 0, 1) == pytest.approx(64**0.75)
    with pytest.raises(ValueError):
        kernel_value(const, interval6, 0, 1)   # radial tables are ultrametric only


def test_kernel_value_symmetric_exhaustive():
    ms = model_space("tree-boundary", 2, 4, 0.6)
    k = RadialKernel("riesz", s=0.8, p=2.0)
    rows = kernel_operator(k, ms).row(np.arange(16))
    assert np.array_equal(rows, rows.T)


def test_norm_constant_kernel(tree6):
    assert norm_1(constant_kernel(tree6), tree6) == pytest.approx(1.0)


def test_norm_closed_form_level_histogram():
    ms = model_space("tree-boundary", 2, 3, 0.5)
    k = RadialKernel("riesz", s=0.5, p=2.0)
    expected = sum((2 - 1) * 2 ** (3 - 1 - lvl) * 2.0**-3 * (0.5**lvl) ** -0.5
                   for lvl in range(3))
    assert norm_1(k, ms) == pytest.approx(expected)


def test_norm_linear_in_mass(rng):
    w = rng.random(16) + 0.2
    t1 = ModelSpace("tree-boundary", 2, 4, 0.5, w)
    t2 = ModelSpace("tree-boundary", 2, 4, 0.5, 2 * w)
    k = RadialKernel("riesz", s=0.75, p=2.0)
    assert norm_1(k, t2) == pytest.approx(2 * norm_1(k, t1))


def test_norm_monotone_in_kernel(tree6):
    lo = RadialKernel("radial", level_values=tuple(range(1, 8)))
    hi = RadialKernel("radial", level_values=tuple(2 * v for v in range(1, 8)))
    assert norm_1(lo, tree6) <= norm_1(hi, tree6)


def test_norm_stabilizes_with_depth():
    k = RadialKernel("riesz", s=0.75, p=2.0)
    norms = [norm_1(k, model_space("tree-boundary", 2, n, 0.5))
             for n in range(4, 11)]
    assert np.all(np.diff(norms) > 0)


def test_convolve_trivia(tree6):
    n = tree6.n_leaves
    k = RadialKernel("riesz", s=0.75, p=2.0)
    assert np.allclose(convolve_naive(k, tree6, np.zeros(n)), 0.0)
    assert np.allclose(fast(k, tree6, np.zeros(n)), 0.0)
    const = constant_kernel(tree6)
    out = fast(const, tree6, np.full(n, 3.7))
    assert np.allclose(out, 3.7)
    # the Riesz exponent scales with the space's dimension, here log 3 / log 2
    ms = model_space("tree-boundary", 3, 4, 0.5)
    ones = np.ones(ms.n_leaves)
    pot = fast(k, ms, ones)[0]
    assert pot == pytest.approx(convolve_naive(k, ms, ones)[0], rel=1e-12)
    assert pot == pytest.approx(1.8506, abs=1e-4)


def test_convolve_single_spike():
    ms = model_space("tree-boundary", 2, 3, 0.5)
    k = RadialKernel("riesz", s=0.75, p=2.0)
    spike = 5
    f = np.zeros(8)
    f[spike] = 1.0
    out = convolve_naive(k, ms, f)
    for x in range(8):
        if x == spike:
            assert out[x] == 0.0     # no self-interaction
        else:
            expected = ms.distance(x, spike) ** (-ms.dimension * k.s) * ms.weights[spike]
            assert out[x] == pytest.approx(expected)


@pytest.mark.parametrize("b,depth", [(2, 4), (2, 7), (3, 4), (2, 10)])
def test_fast_equals_naive(b, depth, rng):
    ms = model_space("tree-boundary", b, depth, 1.0 / b)
    k = RadialKernel("riesz", s=0.75, p=2.0)
    for _ in range(5):
        f = rng.random(ms.n_leaves)
        a = convolve_naive(k, ms, f)
        c = fast(k, ms, f)
        assert np.max(np.abs(a - c) / np.maximum(np.abs(a), 1e-300)) < 1e-10


def test_fast_equals_naive_custom_weights_and_tables(rng):
    w = rng.random(81) + 0.1
    t = ModelSpace("tree-boundary", 3, 4, 0.4, w)
    table = RadialKernel("radial", level_values=tuple(rng.random(5) * 3.0))
    riesz = RadialKernel("riesz", s=0.7, p=2.0)
    for k in (table, riesz):
        for _ in range(5):
            f = rng.standard_normal(81)
            a = convolve_naive(k, t, f)
            c = fast(k, t, f)
            assert np.max(np.abs(a - c)) <= 1e-12 * max(np.abs(a).max(), 1.0)


def test_fast_linearity(tree6, rng):
    k = RadialKernel("riesz", s=0.6, p=2.0)
    f, g = rng.random(64), rng.random(64)
    lhs = fast(k, tree6, 2.0 * f + 0.3 * g)
    rhs = 2.0 * fast(k, tree6, f) + 0.3 * fast(k, tree6, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_apply_measure_identities(tree6, rng):
    k = RadialKernel("riesz", s=0.75, p=2.0)
    op = kernel_operator(k, tree6)
    point = np.zeros(64)
    point[11] = 1.0
    out = op.apply_measure(point)
    for x in (0, 10, 12, 63):
        assert out[x] == pytest.approx(kernel_value(k, tree6, x, 11))
    f = rng.random(64)
    assert np.allclose(op.apply_measure(f * tree6.weights), op.apply_function(f))
    assert np.allclose(op.apply_measure(3.0 * point), 3.0 * op.apply_measure(point))


# fresh spaces below: the session fixtures carry their operator memo


def full_matrix(op):
    return np.vstack([op.row(x) for x in range(op.n_leaves)])


@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_row_block_equals_stacked_rows(kind):
    ms = model_space(kind, 2, 6)
    op = kernel_operator(RadialKernel("riesz", s=0.75, p=2.0), ms)
    assert op.row(5).shape == (ms.n_leaves,)
    for leaves in (np.array([5]), np.array([40, 3, 3, 63]), np.arange(ms.n_leaves)):
        block = op.row(leaves)
        assert block.shape == (leaves.size, ms.n_leaves)
        stacked = np.vstack([op.row(int(x)) for x in leaves])
        assert block.tobytes() == stacked.tobytes()


@pytest.mark.parametrize("b,depth", [(2, 1), (2, 8), (3, 4), (3, 7), (4, 6)])
def test_tree_row_block_matches_level_lookup(b, depth, rng):
    # the row block against the shared-prefix lookup it replaces
    ms = model_space("tree-boundary", b, depth, 0.3)
    op = kernel_operator(RadialKernel("riesz", s=0.75, p=2.0), ms)
    leaves_all = np.arange(ms.n_leaves)

    def lookup(leaves):
        return op.table[ms.lca_levels(np.asarray(leaves)[..., None], leaves_all)]

    cases = [rng.choice(ms.n_leaves, size=min(ms.n_leaves, 20), replace=False)
             for _ in range(5)]
    cases += [0, ms.n_leaves - 1, rng.integers(0, ms.n_leaves, size=(3, 4)),
              np.array([], dtype=np.int64)]
    for leaves in cases:
        block, expected = op.row(leaves), lookup(leaves)
        assert block.shape == np.shape(leaves) + (ms.n_leaves,)
        assert block.tobytes() == expected.tobytes()


@pytest.mark.parametrize("b,depth,top", [(2, 7, 0), (2, 10, 3), (3, 4, 0), (3, 6, 1)])
@pytest.mark.parametrize("kind", ["riesz", "radial"])
def test_tree_operator_exact_against_long_double_oracle(kind, b, depth, top, rng):
    # the within-subtree block and the top-level subtree sums add up to
    # table[lca] @ masses to rounding, on inputs spanning six decades; the
    # radial table carries a nonzero diagonal, the Riesz one a zero diagonal
    ms = model_space("tree-boundary", b, depth)
    kernel = (RadialKernel("riesz", s=0.75, p=2.0) if kind == "riesz" else
              RadialKernel("radial", level_values=tuple(rng.random(depth + 1) + 0.5)))
    op = kernel_operator(kernel, ms)
    assert op.block.shape == (b ** (depth - top),) * 2
    lca = ms.lca_matrix()
    oracle = op.table.astype(np.longdouble)[lca]
    assert (op.table[depth] == 0.0) == (kind == "riesz")
    for shape in ((ms.n_leaves,), (ms.n_leaves, 3)):
        for _ in range(3):
            f = 10.0 ** rng.uniform(0.0, 6.0, size=shape)
            masses = f * ms.weights.reshape((-1,) + (1,) * (f.ndim - 1))
            for out, m in ((op.apply_function(f), masses), (op.apply_measure(f), f)):
                ref = oracle @ m.astype(np.longdouble)
                assert out.shape == f.shape
                assert float(np.max(np.abs(out - ref) / ref)) <= 2e-15
    for leaves in (0, ms.n_leaves - 1, np.arange(ms.n_leaves),
                   rng.integers(0, ms.n_leaves, size=(3, 4))):
        assert op.row(leaves).tobytes() == op.table[lca[leaves]].tobytes()


@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_operator_built_once_per_space_and_kernel(kind):
    ms = model_space(kind, 2, 6)
    k75 = RadialKernel("riesz", s=0.75, p=2.0)
    k90 = RadialKernel("riesz", s=0.9, p=2.0)
    op75 = kernel_operator(k75, ms)
    assert kernel_operator(k75, ms) is op75
    op90 = kernel_operator(k90, ms)
    assert op90 is not op75
    assert not np.array_equal(full_matrix(op90), full_matrix(op75))
    for k, op in ((k75, op75), (k90, op90)):
        fresh = kernel_operator(k, model_space(kind, 2, 6))
        assert np.array_equal(full_matrix(op), full_matrix(fresh))


@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_operator_dies_with_its_space(kind):
    # the space memoizes its operator and the operator keeps only what an apply
    # reads, so no reference cycle waits for the collector
    gc.disable()
    try:
        ms = model_space(kind, 2, 6)
        op = kernel_operator(RadialKernel("riesz", s=0.75, p=2.0), ms)
        op.norm_1()
        alive = weakref.ref(op)
        del op, ms
        assert alive() is None
    finally:
        gc.enable()
    # an operator built on a space nothing else holds still works
    op = DenseKernelOperator(RadialKernel("riesz", s=0.75, p=2.0), model_space(kind, 2, 6))
    assert op.mass().shape == (64,) and op.mass() is op.mass()


def test_traced_build_reads_the_operator_bytes():
    # the benchmark's tracer records a dense build's bytes from the operator's
    # ``matrix``; a rename would fail every traced run that builds one
    spec = importlib.util.spec_from_file_location("potbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    op = DenseKernelOperator(RadialKernel("riesz", s=0.75, p=2.0),
                             model_space("cantor-set", 2, 9))
    attrs = spans.ATTRS["kernel.DenseKernelOperator.__init__"]
    assert attrs((op, None, None), {}, None) == {"bytes": op.matrix.nbytes}


def test_traced_classes_name_the_row_span():
    # the tracer wraps the methods each listed class defines itself: the class
    # that defines ``row`` must be listed and name the span the row metrics
    # match, and the dense build's span needs ``__init__`` on the dense class
    spec = importlib.util.spec_from_file_location("potbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    listed = spans.CLASSES["kernel"]
    assert all(hasattr(kernel_module, name) for name in listed)
    assert "__init__" in vars(DenseKernelOperator)
    for cls in (kernel_module.TreeKernelOperator, DenseKernelOperator):
        owner = next(c for c in cls.__mro__ if "row" in vars(c)).__name__
        assert owner in listed
        assert fnmatch.fnmatchcase(f"kernel.{owner}.row", "kernel.*Operator.row")


def riesz_of(d, kernel, space):
    """The Riesz kernel at the distances d, 0 on the diagonal."""
    np.fill_diagonal(d, 1.0)
    d **= -space.dimension * kernel.s
    np.fill_diagonal(d, 0.0)
    return d


def riesz_oracle(kernel, space):
    """The Riesz kernel of the embedded metric from the distance matrix."""
    return riesz_of(space.distance_matrix(), kernel, space)


def exact_riesz_matrix(kernel, space):
    """The Riesz kernel at the exact distances of the embedding of the float
    delta: coordinates in rationals, each distance rounded once."""
    b, depth = space.branching, space.depth
    delta = Fraction(space.delta)
    step = (1 - delta) / (b - 1)
    coords = [sum((x // b ** (depth - 1 - level)) % b * step * delta**level
                  for level in range(depth)) for x in range(space.n_leaves)]
    den = math.lcm(*(c.denominator for c in coords))
    nums = np.array([c.numerator * (den // c.denominator) for c in coords], dtype=object)
    # int / int is correctly rounded
    return riesz_of((np.abs(nums[:, None] - nums[None, :]) / den).astype(float), kernel, space)


def max_rel_error(a, ref):
    off = ref != 0.0
    assert np.array_equal(a[~off], ref[~off])
    return float((np.abs(a - ref)[off] / ref[off]).max())


@pytest.mark.parametrize("kind", ["unit-interval", "cantor-set"])
def test_dense_operator_exact_and_read_only(kind):
    ms = model_space(kind, 2, 6)
    k = RadialKernel("riesz", s=0.75, p=2.0)
    op = kernel_operator(k, ms)
    # T = 0: one top difference, its values over every digit difference
    assert op.matrix.shape == (1, 3**6)
    full = op.row(np.arange(ms.n_leaves))
    if kind == "unit-interval":
        # b-adic coordinates are exact, so their differences are too
        off = ~np.eye(ms.n_leaves, dtype=bool)
        expected = np.zeros((ms.n_leaves, ms.n_leaves))
        expected[off] = np.abs(ms.coords[:, None] - ms.coords[None, :])[off] \
            ** (-ms.dimension * k.s)
        assert np.array_equal(full, expected)
    else:
        assert max_rel_error(full, exact_riesz_matrix(k, ms)) <= 1e-15
    with pytest.raises(ValueError):
        op.matrix[0, 1] = 1.0
    with pytest.raises(ValueError):
        op.row(3)[0] = 1.0
    with pytest.raises(ValueError):
        op.row(np.array([3, 4]))[0, 0] = 1.0


def test_cantor_entries_match_exact_distances():
    # the entries come from digit differences, so nearest pairs lose nothing
    # to the cancellation of two coordinates near 1/2
    ms = model_space("cantor-set", 2, 8)
    k = RadialKernel("riesz", s=0.75, p=2.0)
    op = DenseKernelOperator(k, ms)
    assert max_rel_error(op.row(np.arange(ms.n_leaves)), exact_riesz_matrix(k, ms)) <= 1e-15


@pytest.mark.parametrize("b,depth,leaf_block,top", [
    (2, 7, 512, 0), (2, 7, 8, 4), (3, 4, 512, 0), (3, 4, 9, 2), (3, 6, 512, 1)])
@pytest.mark.parametrize("kind", ["unit-interval", "cantor-set"])
def test_block_operator_equals_distance_matrix_oracle(kind, b, depth, leaf_block, top,
                                                      monkeypatch, rng):
    # T = top digits pick the block; a small leaf block gives several
    monkeypatch.setattr(kernel_module, "_LEAF_BLOCK", leaf_block)
    ms = model_space(kind, b, depth, 0.25 if kind == "cantor-set" and b == 3 else None)
    k = RadialKernel("riesz", s=0.75, p=2.0)
    op = DenseKernelOperator(k, ms)
    n, block = ms.n_leaves, b ** (depth - top)
    # K is symmetric, so the table keeps the top differences up to zero, each
    # with one value per bottom digit difference
    assert op.matrix.shape == (((2 * b - 1) ** top + 1) // 2, (2 * b - 1) ** (depth - top))
    oracle = riesz_oracle(k, ms)
    full = op.row(np.arange(n))
    assert max_rel_error(full, oracle) <= 1e-12
    assert np.array_equal(full, full.T)
    for leaves in (5, np.array([n - 1, 0, 5, 5]), rng.integers(0, n, size=(3, 4))):
        rows = op.row(leaves)
        assert rows.shape == np.shape(leaves) + (n,)
        assert np.array_equal(rows, full[leaves])
    for f in (rng.random(n), rng.random((n, 3))):
        masses = f * ms.weights.reshape((n,) + (1,) * (f.ndim - 1))
        for out, ref in ((op.apply_function(f), oracle @ masses),
                         (op.apply_measure(f), oracle @ f)):
            assert out.shape == f.shape
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def rule_block(b, depth):
    """The leaf block of the table: the smallest power of b with at least 128
    leaves, or the largest with at most 512 when that one has more, capped at
    b**depth."""
    powers = [b**k for k in range(depth + 1)]
    at_least = [x for x in powers if x >= 128]
    if at_least and at_least[0] <= 512:
        return at_least[0]
    return max(x for x in powers if x <= 512)


@pytest.mark.parametrize("b,depth,block", [
    (2, 5, 32), (2, 9, 128), (3, 6, 243), (4, 5, 256), (5, 4, 125), (6, 4, 216),
    (7, 4, 343), (8, 4, 512), (9, 3, 81), (12, 3, 144)])
def test_leaf_block_rule(b, depth, block):
    # only b = 2 moves below the largest block of at most 512 leaves
    ms = model_space("unit-interval", b, depth)
    op = DenseKernelOperator(RadialKernel("riesz", s=0.75, p=2.0), ms)
    assert block == rule_block(b, depth)
    bottom = round(math.log(block, b))
    assert op.matrix.shape == (((2 * b - 1) ** (depth - bottom) + 1) // 2, (2 * b - 1) ** bottom)


@pytest.mark.parametrize("kind", ["unit-interval", "cantor-set"])
def test_dense_operator_build_holds_one_matrix(kind):
    # the value table is filled in place from the sums over the bottom digit
    # differences, with no second table-sized buffer and no vector over every
    # difference
    k = RadialKernel("riesz", s=0.75, p=2.0)
    for depth in (9, 10, 12):
        ms = model_space(kind, 2, depth)
        tracemalloc.start()
        try:
            op = DenseKernelOperator(k, ms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bottom = round(math.log2(rule_block(2, depth)))
        kept = (3 ** (depth - bottom) + 1) // 2
        assert op.matrix.shape == (kept, 3**bottom)
        # the values and the shared index, plus the two 8192-entry buffers numpy
        # takes for the broadcast that forms the index; never above the old
        # bound, 1.25 x the (kept, block, block) table of gathered blocks
        bound = 1.25 * (op.matrix.nbytes + op._index.nbytes) + 2 * 8192 * 8
        assert peak <= bound <= 1.25 * kept * 4**bottom * 8


def all_difference_table(kernel, space, top):
    """The values of every digit-difference vector at once, summed over the
    levels from the finest up, one row per top difference up to zero
    (reference)."""
    b, depth, delta = space.branching, space.depth, space.delta
    diffs = np.arange(1 - b, b, dtype=float)
    step = (1.0 - delta) / (b - 1)
    values = np.zeros(1)
    for level in range(depth - 1, -1, -1):
        values = np.add.outer(diffs * step * delta**level, values).reshape(-1)
    kept = (2 * b - 1) ** top // 2 + 1
    values = np.abs(values.reshape(2 * kept - 1, -1)[:kept])
    centre = (kept - 1, values.shape[1] // 2)
    values[centre] = 1.0
    values **= -space.dimension * kernel.s
    values[centre] = 0.0
    return values


@pytest.mark.parametrize("kind,b,depths", [
    ("unit-interval", 2, (9, 10, 11, 12)), ("cantor-set", 2, (9, 10, 11, 12)),
    ("unit-interval", 3, (5, 6)), ("cantor-set", 3, (5, 6))])
def test_block_table_equals_all_difference_chain(kind, b, depths):
    k = RadialKernel("riesz", s=0.75, p=2.0)
    for depth in depths:
        ms = model_space(kind, b, depth)
        op = DenseKernelOperator(k, ms)
        assert op.matrix.tobytes() == all_difference_table(k, ms, op._top).tobytes()


def gathered_blocks(op):
    """The value table gathered into the (kept, block, block) layout: block
    entry (i, j) at code(i) - code(j) past the middle value (reference)."""
    bottom = round(math.log(op.n_leaves, op.branching)) - op._top
    codes = kernel_module._digit_codes(op.branching, bottom)
    index = (codes[:, None] + op.matrix.shape[1] // 2) - codes
    return np.stack([values[index] for values in op.matrix])


def blocks_apply(op, blocks, masses):
    """The apply over the gathered blocks in the apply's order, on the leaves'
    own layout: each kept block onto its subtree pairs, then, before zero,
    transposed onto the swapped pairs of its mirror (reference)."""
    block, zero = blocks.shape[1], blocks.shape[0] - 1
    x = masses.reshape((op.branching,) * op._top + (block, masses.size // masses.shape[0]))
    out = np.zeros(x.shape)
    for e, (dst, src) in enumerate(op._pairs):
        out[dst] += np.matmul(blocks[e], x[src])
        if e < zero:
            out[src] += np.matmul(blocks[e].T, x[dst])
    return out.reshape(masses.shape)


def blocks_row(op, blocks, leaves):
    """Rows from the gathered blocks, a segment past zero read as a column of
    the mirror's block (reference)."""
    leaves = np.asarray(leaves)
    codes = kernel_module._digit_codes(op.branching, op._top)
    zero = blocks.shape[0] - 1
    subtree, leaf = np.divmod(leaves, blocks.shape[1])
    e = codes[subtree][..., None] - codes + zero
    leaf = np.broadcast_to(leaf[..., None], e.shape)
    flip = e > zero
    out = np.empty(e.shape + blocks.shape[2:])
    out[~flip] = blocks[e[~flip], leaf[~flip]]
    out[flip] = blocks[2 * zero - e[flip], :, leaf[flip]]
    return out.reshape(leaves.shape + (op.n_leaves,))


@pytest.mark.parametrize("kind,b,depths", [
    ("unit-interval", 2, (9, 10, 11, 12)), ("cantor-set", 2, (9, 10, 11, 12)),
    ("unit-interval", 3, (6, 7)), ("cantor-set", 3, (6, 7))])
def test_value_table_applies_and_rows_equal_gathered_blocks(kind, b, depths, rng):
    # gathering each block per apply and the block rows per row call gives the
    # bytes of the (kept, block, block) table, applies and rows alike
    k = RadialKernel("riesz", s=0.75, p=2.0)
    for depth in depths:
        ms = model_space(kind, b, depth)
        op = DenseKernelOperator(k, ms)
        blocks = gathered_blocks(op)
        n = ms.n_leaves
        for cols in (1, 3, 14):
            f = rng.random((n, cols))
            assert op.apply_measure(f).tobytes() == blocks_apply(op, blocks, f).tobytes()
            masses = f * ms.weights[:, None]
            assert op.apply_function(f).tobytes() == blocks_apply(op, blocks, masses).tobytes()
        f = rng.random(n)
        assert op.apply_measure(f).tobytes() == blocks_apply(op, blocks, f).tobytes()
        cases = [0, n - 1, np.arange(n // 2 - 256, n // 2 + 256),
                 rng.integers(0, n, size=(3, 4)), np.array([], dtype=np.int64)]
        if depth <= 10:
            cases.append(np.arange(n))
        for leaves in cases:
            rows = op.row(leaves)
            assert rows.shape == np.shape(leaves) + (n,)
            assert rows.tobytes() == blocks_row(op, blocks, leaves).tobytes()


@pytest.mark.parametrize("b,depth,kept", [(2, 12, 122), (3, 7, 13)])
def test_dense_apply_gathers_each_kept_block_once(b, depth, kept, monkeypatch, rng):
    # one gather per kept top difference serves it and, transposed, its mirror
    op = DenseKernelOperator(RadialKernel("riesz", s=0.75, p=2.0),
                             model_space("cantor-set", b, depth))
    assert op.matrix.shape[0] == kept
    take, calls = np.take, []

    def spy(*args, **kwargs):
        calls.append(args)
        return take(*args, **kwargs)

    monkeypatch.setattr(np, "take", spy)
    for f in (rng.random(op.n_leaves), rng.random((op.n_leaves, 14))):
        for apply in (op.apply_function, op.apply_measure):
            calls.clear()
            apply(f)
            assert len(calls) == op.matrix.shape[0]
    assert len(op._pairs) == kept


THREAD_HASHES = """if True:
    import hashlib
    import numpy as np
    from potlab.kernel import RadialKernel, kernel_operator
    from potlab.space import model_space
    digest = hashlib.sha256()
    for kind in ("cantor-set", "unit-interval"):
        op = kernel_operator(RadialKernel("riesz", s=0.75, p=2.0), model_space(kind, 2, 11))
        rng = np.random.default_rng(7)
        for cols in (1, 3, 14):
            f = rng.random((op.n_leaves, cols))
            digest.update(op.apply_measure(f).tobytes())
            digest.update(op.apply_function(f).tobytes())
        digest.update(op.apply_measure(rng.random(op.n_leaves)).tobytes())
        digest.update(op.row(rng.integers(0, op.n_leaves, size=40)).tobytes())
    print(digest.hexdigest())
"""


def test_dense_operator_bytes_do_not_depend_on_blas_threads():
    # applies and rows at T = 4 top digits, under one and two BLAS threads
    hashes = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", THREAD_HASHES], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        hashes.append(done.stdout)
    assert hashes[0] == hashes[1] != ""


def young_sides(kernel, space, f, p):
    """Both sides of ||K*f||_p <= ||K||_1 ||f||_p; p = inf takes sup norms."""
    op = kernel_operator(kernel, space)

    def norm(v):
        return float(np.abs(v).max()) if np.isinf(p) else lp_norm(v, space.weights, p)

    return norm(op.apply_function(f)), op.norm_1() * norm(f)


def test_young_equality_case(tree6):
    const = constant_kernel(tree6)
    lhs, rhs = young_sides(const, tree6, np.ones(64), 2.0)
    assert lhs == pytest.approx(rhs) == pytest.approx(1.0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
def test_young_random(p, tree6, rng):
    k = RadialKernel("riesz", s=0.75, p=2.0)
    for _ in range(20):
        f = rng.random(64)
        lhs, rhs = young_sides(k, tree6, f, p)
        assert lhs <= rhs * (1.0 + 1e-12), (lhs, rhs)


@pytest.mark.parametrize("k", [1, 13])
@pytest.mark.parametrize("kind", ["tree-boundary", "unit-interval", "cantor-set"])
def test_block_apply_matches_column_applies(kind, k, rng):
    op = kernel_operator(RadialKernel("riesz", s=0.75, p=2.0), model_space(kind, 2, 7))
    block = rng.random((op.n_leaves, k))
    for apply in (op.apply_function, op.apply_measure):
        out = apply(block)
        ref = np.column_stack([apply(block[:, j]) for j in range(k)])
        assert out.shape == block.shape
        assert np.all(np.abs(out - ref) <= 1e-13 * np.abs(ref))
