"""Property-based tests (hypothesis) over randomly generated
contractions and configurations.

These exercise the structural invariants the whole system rests on:
index classification, tiling decomposition correctness, cost-model /
address-trace consistency, and split/merge round-trips.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.costmodel import CostModel
from repro.core.ir import Contraction, IndexKind, TensorRef
from repro.core.mapping import config_from_spec
from repro.core.plan import KernelPlan, decompose
from repro.core.splitting import merge_output, split_operand
from repro.gpu.executor import (
    execute_plan,
    integer_operands,
    random_operands,
    reference_contract,
)
from repro.gpu.memory import (
    VectorizedReplay,
    count_transactions,
    sampled_is_exact,
)

from .oracles import count_transactions_reference, tile_loop_interpret

# -- strategies -------------------------------------------------------------

ALPHABET = "abcdefgh"


@st.composite
def contractions(draw, max_ext=3, max_int=2, max_extent=6, extents=None):
    """Random valid binary contractions with bound extents.

    ``extents`` (a strategy) draws each index's extent; the default is
    ``1..max_extent``.
    """
    if extents is None:
        extents = st.integers(1, max_extent)
    n_ext_a = draw(st.integers(1, max_ext))
    n_ext_b = draw(st.integers(0, max_ext - 1))
    n_int = draw(st.integers(0 if n_ext_b else 1, max_int))
    names = list(ALPHABET[: n_ext_a + n_ext_b + n_int])
    ext_a = names[:n_ext_a]
    ext_b = names[n_ext_a:n_ext_a + n_ext_b]
    ints = names[n_ext_a + n_ext_b:]

    def shuffle(items):
        items = list(items)
        perm = draw(st.permutations(items)) if len(items) > 1 else items
        return list(perm)

    a_indices = shuffle(ext_a + ints)
    b_indices = shuffle(ext_b + ints)
    c_indices = shuffle(ext_a + ext_b)
    if not b_indices:
        b_indices = ints
    sizes = {name: draw(extents) for name in names}
    return Contraction(
        c=TensorRef("C", tuple(c_indices)),
        a=TensorRef("A", tuple(a_indices)),
        b=TensorRef("B", tuple(b_indices)),
        sizes=sizes,
    )


@st.composite
def planned_contractions(draw, extents=None):
    """A contraction plus a random legal configuration for it."""
    c = draw(contractions(extents=extents))

    def tile_for(index):
        return draw(st.integers(1, c.extent(index)))

    x_ext = list(c.externals_of(c.x_input))
    y_ext = list(c.externals_of(c.y_input))
    spec = {"tb_x": [], "tb_y": [], "reg_x": [], "reg_y": [], "tb_k": []}
    for index in x_ext:
        where = draw(st.sampled_from(["tb_x", "reg_x", "grid"]))
        if where != "grid":
            spec[where].append((index, tile_for(index)))
    for index in y_ext:
        where = draw(st.sampled_from(["tb_y", "reg_y", "grid"]))
        if where != "grid":
            spec[where].append((index, tile_for(index)))
    for index in c.internal_indices:
        spec["tb_k"].append((index, tile_for(index)))
    config = config_from_spec(c, **spec)
    return KernelPlan(c, config)


# -- invariants -------------------------------------------------------------


@given(contractions())
@settings(max_examples=60, deadline=None)
def test_every_index_in_exactly_two_tensors(c):
    for idx in c.all_indices:
        count = sum(idx in t for t in (c.c, c.a, c.b))
        assert count == 2


@given(contractions())
@settings(max_examples=60, deadline=None)
def test_reuse_groups_partition(c):
    groups = c.reuse_groups()
    flat = sorted(i for idxs in groups.values() for i in idxs)
    assert flat == sorted(c.all_indices)
    # Internal indices are always reuse directions for the output.
    for idx in c.internal_indices:
        assert idx in groups[c.c.name]


@given(contractions())
@settings(max_examples=60, deadline=None)
def test_flops_is_twice_iteration_space(c):
    assert c.flops == 2 * c.iteration_space


@given(contractions())
@settings(max_examples=40, deadline=None)
def test_einsum_spec_agrees_with_manual_loops(c):
    a, b = random_operands(c, seed=3)
    got = reference_contract(c, a, b)
    assert got.shape == c.extents_of(c.c)


@given(planned_contractions())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_tiled_execution_matches_einsum(plan):
    """The central correctness property: any legal mapping/tiling of any
    contraction computes exactly the einsum result."""
    c = plan.contraction
    a, b = random_operands(c, seed=1)
    got = execute_plan(plan, a, b)
    want = reference_contract(c, a, b)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


# Prime extents (no tile strictly between 1 and the extent divides it)
# and size-1 axes.
PRIME_EXTENTS = st.sampled_from([1, 2, 3, 5, 7])

_RAGGED = Contraction(
    c=TensorRef("C", ("a", "b")),
    a=TensorRef("A", ("a", "k")),
    b=TensorRef("B", ("k", "b")),
    sizes={"a": 7, "b": 1, "k": 5},
)
_RAGGED_PLAN = KernelPlan(
    _RAGGED,
    config_from_spec(
        _RAGGED, tb_x=[("a", 3)], tb_y=[("b", 1)], tb_k=[("k", 2)]
    ),
)


@given(
    planned_contractions() | planned_contractions(extents=PRIME_EXTENTS),
    st.sampled_from([np.float64, np.float32]),
)
@example(_RAGGED_PLAN, np.float32)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_step_interpreter_equals_tile_loop_oracle(plan, dtype):
    """One einsum per step computes what one einsum per (block, step)
    tile does: byte for byte on integer operands (and equal to
    ``numpy.einsum``), to rounding on random floats."""
    c = plan.contraction
    a, b = integer_operands(c, seed=2, dtype=dtype)
    got = execute_plan(plan, a, b)
    assert got.dtype == dtype
    assert got.tobytes() == tile_loop_interpret(plan, a, b).tobytes()
    assert got.tobytes() == reference_contract(c, a, b).tobytes()
    a, b = random_operands(c, dtype, seed=3)
    tol = {"rtol": 1e-12} if dtype == np.float64 else {
        "rtol": 1e-4, "atol": 1e-4}
    assert np.allclose(
        execute_plan(plan, a, b), tile_loop_interpret(plan, a, b), **tol
    )


@given(planned_contractions())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_blocks_cover_output_exactly_once(plan):
    c = plan.contraction
    coverage = np.zeros(c.extents_of(c.c), dtype=int)
    for blk in range(plan.num_blocks):
        offs = plan.block_offsets(blk)
        slices = tuple(
            slice(offs[i], min(offs[i] + plan.tile_of(i), c.extent(i)))
            for i in c.c.indices
        )
        coverage[slices] += 1
    assert (coverage == 1).all()


@given(planned_contractions())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cost_model_and_trace_within_bounded_ratio(plan):
    """The analytic model and the replayed addresses may differ (edge
    tiles, misalignment, tiny rows) but must stay within a constant
    factor on these small problems."""
    measured = count_transactions(plan, exact=True)
    model = CostModel(plan.dtype_bytes).estimate(plan)
    assert measured.total > 0
    assert model.total > 0
    ratio = model.total / measured.total
    assert 1 / 8 <= ratio <= 8


@given(planned_contractions(), st.sampled_from([4, 8]))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_vectorized_replay_equals_loop_reference(plan, dtype_bytes):
    """Property (issue satellite): the batched equivalence-class replay
    produces bit-for-bit the loads (A and B) and stores (C) of the
    retained per-(block, step) loop oracle, for any legal plan —
    including non-divisible boundary tiles — and both dtype widths."""
    plan = KernelPlan(plan.contraction, plan.config, dtype_bytes)
    vectorized = VectorizedReplay(plan).count()
    reference = count_transactions_reference(plan)
    assert vectorized.load_a == reference.load_a
    assert vectorized.load_b == reference.load_b
    assert vectorized.store_c == reference.store_c


@given(planned_contractions())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sampled_is_exact_predicate_is_sound(plan):
    """Whenever the divisibility/alignment predicate promises the
    sampled estimate is exact, it must actually equal the full replay
    (``exact="auto"`` relies on this)."""
    if sampled_is_exact(plan):
        assert count_transactions(plan, exact=False) == \
            count_transactions(plan, exact=True)
    assert count_transactions(plan, exact="auto") == \
        count_transactions(plan, exact=True)


@given(
    st.integers(1, 6).flatmap(
        lambda f: st.tuples(st.just(f), st.integers(1, 5))
    ),
    st.integers(0, 2),
)
@settings(max_examples=40, deadline=None)
def test_split_merge_roundtrip(fq, extra_axes):
    factor, quotient = fq
    shape = [factor * quotient] + [2] * extra_axes
    arr = np.arange(math.prod(shape), dtype=float).reshape(shape)
    if factor == 1 or quotient == 1:
        return  # split_index would reject; operand helper still works
    split = split_operand(arr, 0, factor)
    merged = merge_output(split, 0)
    assert np.array_equal(merged, arr)


@given(st.integers(0, 1000), st.lists(st.integers(1, 7), min_size=1,
                                      max_size=4))
@settings(max_examples=60, deadline=None)
def test_decompose_is_mixed_radix_inverse(flat, sizes):
    total = math.prod(sizes)
    flat = flat % total
    coords = decompose(flat, sizes)
    back = 0
    scale = 1
    for coord, size in zip(coords, sizes):
        back += coord * scale
        scale *= size
    assert back == flat


_SHARED_COST_MODEL = CostModel()


@given(st.lists(planned_contractions(), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_memoized_cost_model_equals_fresh(plans):
    """Property (issue satellite): estimates served through a shared,
    memo-accumulating cost model are identical to freshly computed
    ``TransactionEstimate``s, for any plan sequence and both clipping
    modes."""
    for plan in plans:
        for clipped in (False, True):
            shared = _SHARED_COST_MODEL.estimate(plan, clipped)
            fresh = CostModel(plan.dtype_bytes).estimate(plan, clipped)
            assert shared == fresh
    info = _SHARED_COST_MODEL.memo_info()
    assert info["hits"] + info["misses"] >= 3 * len(plans)
