"""Shape-generic OpenMP programs: one build per kernel structure.

The OpenMP target spells index names canonically and takes every tile
size as an ``entry`` argument, so the built text depends only on a
kernel's structure (its tensors' index layout, the TB_K order and the
element width).  One build must then be exact across every
extent and tiling of its structure, and a network's step kernels must
collapse onto a few programs, which is what lets networks run natively.
"""

from __future__ import annotations

import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Cogent, api, obs
from repro.core.codegen import chost, get_target, openmp
from repro.core.library import clamp_config
from repro.core.mapping import config_from_spec
from repro.core.parser import parse
from repro.core.plan import KernelPlan
from repro.gpu.executor import integer_operands, random_operands
from repro.tccg import get

from .conftest import requires_cc

#: The ``network_warm`` shapes of the end-to-end benchmark: 16 chains
#: of 11 matrices, extents 2-48, drawn from seed 2019.
NETWORK_SHAPE_SEED = 2019


def chain_networks(count=16, tensors=11):
    shapes = np.random.default_rng(NETWORK_SHAPE_SEED)
    letters = string.ascii_letters[: tensors + 1]
    networks = []
    for _ in range(count):
        extents = shapes.integers(2, 49, size=tensors + 1)
        expr = ",".join(
            letters[j:j + 2] for j in range(tensors)
        ) + "->" + letters[0] + letters[-1]
        networks.append((expr, dict(zip(letters, map(int, extents)))))
    return networks


@pytest.fixture(scope="module")
def compiled_chains():
    options = api.Options(workers=1)
    return [
        api.compile_network(expr, sizes, options=options)
        for expr, sizes in chain_networks()
    ]


def test_network_steps_share_few_programs(compiled_chains):
    kernels = [k for net in compiled_chains for k in net.kernels]
    assert len(kernels) == 160
    keys = {openmp.program_key(k.plan) for k in kernels}
    assert len(keys) <= 3


@requires_cc
def test_network_second_execute_is_native(compiled_chains, monkeypatch):
    monkeypatch.setattr(chost, "_LIBRARIES", {})
    # The first network with a split step.
    (expr, sizes), network = next(
        (shape, net) for shape, net in zip(chain_networks(), compiled_chains)
        if any(k.split_specs for k in net.kernels)
    )
    steps = len(network.path.steps)
    rng = np.random.default_rng(3)
    operands = [
        rng.integers(-2, 3, size=[sizes[i] for i in subscript])
        .astype(np.float64)
        for subscript in network.spec.inputs
    ]
    want = np.einsum(expr, *operands, optimize=True)
    for tier in ("interpreter_calls", "native_calls"):
        with obs.tracing() as session:
            got = network.execute(*operands)
        assert session.metrics.counter(f"execute.{tier}") == steps
        assert np.allclose(got, want, rtol=1e-10)


# -- one build, every tiling of a structure ----------------------------------


def run_exact(plan):
    """Run ``plan`` natively, exact against einsum and cemu; return the
    number of OpenMP builds the runs took."""
    c = plan.contraction
    a, b = integer_operands(c, seed=1)
    x, y = random_operands(c, seed=2)
    with obs.tracing() as session:
        exact = openmp.compile_and_run(plan, a, b)
        real = openmp.compile_and_run(plan, x, y)
    assert exact.tobytes() == np.einsum(c.einsum_spec(), a, b).tobytes()
    cemu = get_target("cemu").compile_and_run(plan, x, y)
    assert real.tobytes() == cemu.tobytes()
    return session.metrics.counter("chost.builds")


def assert_one_build_per_structure(examples):
    """Run every plan ``examples`` draws; one build per program key."""
    keys, builds = set(), []

    def run(plan):
        keys.add(openmp.program_key(plan))
        builds.append(run_exact(plan))

    examples(run)
    assert sum(builds) == len(keys)
    return keys


@requires_cc
def test_matmul_one_build_across_extents_and_tiles(monkeypatch):
    monkeypatch.setattr(chost, "_LIBRARIES", {})

    # ``ab,bc->ac``: the text depends on the tensors' index layout, the
    # TB_K order and the element width only, so every draw has one
    # structure.
    @settings(max_examples=12, deadline=None, database=None)
    @given(
        tiles=st.tuples(st.sampled_from([3, 9, 15]),
                        st.sampled_from([1, 3, 5, 7]),
                        st.sampled_from([5, 10, 15, 20])),
        slack=st.tuples(*[st.integers(0, 20)] * 3),
    )
    def examples(run, tiles, slack):
        sizes = {i: t + s for i, t, s in zip("abc", tiles, slack)}
        c = parse("ac-ab-bc", sizes)
        run(KernelPlan(c, config_from_spec(
            c, tb_x=[("a", tiles[0])], tb_y=[("c", tiles[2])],
            tb_k=[("b", tiles[1])],
        )))

    assert len(assert_one_build_per_structure(examples)) == 1


@requires_cc
def test_tccg_entry_one_build_per_structure(monkeypatch):
    monkeypatch.setattr(chost, "_LIBRARIES", {})
    entry = get("ttm_mode2")
    kernel = Cogent(top_k=4, allow_split=False).generate(entry.scaled(0.1))
    names = kernel.contraction.all_indices

    # The searched config clamped to random (often ragged or prime)
    # extents, as a size dispatch rebinds it.
    @settings(max_examples=10, deadline=None, database=None)
    @given(extents=st.tuples(*[st.integers(2, 33)] * len(names)))
    def examples(run, extents):
        c = kernel.contraction.with_sizes(dict(zip(names, extents)))
        run(KernelPlan(c, clamp_config(kernel.config, c)))

    assert_one_build_per_structure(examples)


# -- byte identity with the emulation over random plans -----------------------

#: Structures for random plans: Eq. 1 (two TB_K indices), an output FVI
#: in B (so B is the x input), a three-index TB_K, and smaller shapes.
PROPERTY_EXPRS = (
    "abcd-aebf-dfce", "abcdef-gfec-abdg", "ab-acde-cdeb", "abc-adc-bd",
    "abc-acd-db", "ab-ak-kb",
)


@st.composite
def random_plans(draw, max_extent=7):
    """A plan with random extents (size-1 axes included), a random
    placement of every free index on its side's thread, register or
    grid dimension, random tiles, a random TB_K order and width."""
    expr = draw(st.sampled_from(PROPERTY_EXPRS))
    names = sorted(set(expr) - {"-"})
    sizes = {i: draw(st.integers(1, max_extent)) for i in names}
    c = parse(expr, sizes)
    spec = {dim: [] for dim in ("tb_x", "reg_x", "tb_y", "reg_y", "grid")}
    for side, tensor in (("x", c.x_input), ("y", c.y_input)):
        for index in c.externals_of(tensor):
            dim = draw(st.sampled_from([f"tb_{side}", f"reg_{side}", "grid"]))
            tile = 1 if dim == "grid" else draw(
                st.integers(1, sizes[index])
            )
            spec[dim].append((index, tile))
    spec["tb_k"] = [
        (index, draw(st.integers(1, sizes[index])))
        for index in draw(st.permutations(c.internal_indices))
    ]
    dtype_bytes = draw(st.sampled_from([8, 4]))
    return KernelPlan(c, config_from_spec(c, **spec), dtype_bytes)


def permuted_columns_plan():
    """An fp32 plan whose one 8-column y sliver has B offsets that are
    a permutation of a contiguous run, so it must not be copied as one
    run: only checking every row's offset tells the two apart."""
    c = parse("abcd-aebf-dfce",
              {"a": 1, "b": 1, "c": 2, "d": 4, "e": 1, "f": 1})
    return KernelPlan(c, config_from_spec(
        c, tb_x=[("a", 1), ("b", 1)], tb_k=[("e", 1), ("f", 1)],
    ), 4)


@requires_cc
@settings(max_examples=30, deadline=None, database=None)
@given(plan=random_plans(), seed=st.integers(0, 2**16))
@example(plan=permuted_columns_plan(), seed=0)
def test_openmp_bytes_equal_cemu_on_random_plans(plan, seed):
    dtype = np.float64 if plan.dtype_bytes == 8 else np.float32
    a, b = random_operands(plan.contraction, dtype, seed=seed)
    # Signed zeros: their products must not change any sum's sign bit.
    rng = np.random.default_rng(seed)
    a[rng.random(a.shape) < 0.2] = -0.0
    b[rng.random(b.shape) < 0.2] = 0.0
    got = openmp.compile_and_run(plan, a, b)
    want = get_target("cemu").compile_and_run(plan, a, b)
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()


# -- operands read where they lie ---------------------------------------------

#: Layouts an operand is passed in; :func:`lay_out` builds each as a
#: view equal to the array it is given.
LAYOUTS = ("C", "F", "permuted", "step", "reversed", "broadcast")


def lay_out(x, layout, rng):
    """``x`` (or, for ``broadcast``, ``x`` constant along random axes)
    as an array or view of the given layout."""
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "permuted":
        perm = rng.permutation(x.ndim)
        return np.ascontiguousarray(x.transpose(perm)).transpose(
            np.argsort(perm)
        )
    if layout == "step":
        every = (slice(None, None, 2),) * x.ndim
        wide = np.zeros([2 * n for n in x.shape], dtype=x.dtype)
        wide[every] = x
        return wide[every]
    if layout == "reversed":
        back = (slice(None, None, -1),) * x.ndim
        return np.ascontiguousarray(x[back])[back]
    # Stride-0 axes: one value along each broadcast axis.
    keep = tuple(
        slice(None) if rng.random() < 0.5 else slice(0, 1)
        for _ in range(x.ndim)
    )
    return np.broadcast_to(x[keep], x.shape)


@requires_cc
def test_openmp_strided_operands_one_build(monkeypatch):
    """One build per structure is exact on operands in any layout,
    read where they lie: integer operands byte-equal to einsum, real
    ones to cemu (which copies them to Fortran order)."""
    monkeypatch.setattr(chost, "_LIBRARIES", {})

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        plan=random_plans(max_extent=9),
        layouts=st.tuples(*[st.sampled_from(LAYOUTS)] * 2),
        seed=st.integers(0, 2**16),
    )
    def examples(run, plan, layouts, seed):
        run(plan, layouts, seed)

    keys, builds = set(), []

    def run(plan, layouts, seed):
        keys.add(openmp.program_key(plan))
        c = plan.contraction
        dtype = np.float64 if plan.dtype_bytes == 8 else np.float32
        rng = np.random.default_rng(seed)
        a, b = (
            lay_out(x.astype(dtype), layout, rng) for x, layout
            in zip(integer_operands(c, seed=seed), layouts)
        )
        x, y = (
            lay_out(v, layout, rng) for v, layout
            in zip(random_operands(c, dtype, seed=seed), layouts)
        )
        with obs.tracing() as session:
            exact = openmp.compile_and_run(plan, a, b)
            real = openmp.compile_and_run(plan, x, y)
        assert session.metrics.counter("chost.operand_copies") == 0
        builds.append(session.metrics.counter("chost.builds"))
        assert exact.flags.c_contiguous and real.flags.c_contiguous
        want = np.einsum(c.einsum_spec(), a, b)
        assert exact.tobytes() == want.tobytes()
        cemu = get_target("cemu").compile_and_run(plan, x, y)
        assert real.tobytes() == cemu.tobytes()

    examples(run)
    assert sum(builds) == len(keys)


@requires_cc
def test_openmp_copies_each_unreadable_operand_once():
    """An operand of another dtype, or misaligned, is copied once."""
    c = parse("ab-ak-kb", {"a": 5, "b": 3, "k": 4})
    plan = KernelPlan(c, config_from_spec(
        c, tb_x=[("a", 2)], tb_y=[("b", 2)], tb_k=[("k", 2)],
    ))
    a, b = integer_operands(c, seed=4)
    want = np.einsum(c.einsum_spec(), a, b)
    raw = np.zeros(b.nbytes + 1, dtype=np.uint8)
    misaligned = raw[1:].view(np.float64).reshape(b.shape)
    misaligned[...] = b
    assert not misaligned.flags.aligned
    for operands, copies in (
        ((a, b), 0),
        ((a.astype(np.int64), b), 1),
        ((a, misaligned), 1),
        ((a.astype(np.int64), misaligned), 2),
    ):
        with obs.tracing() as session:
            got = openmp.compile_and_run(plan, *operands)
        assert session.metrics.counter("chost.operand_copies") == copies
        assert got.tobytes() == want.tobytes()
