"""Pinned contraction/config cases backing the golden-file snapshot tests.

Each case is a hand-written :func:`config_from_spec` mapping — never the
output of a search — so the emitted source only changes when an emitter
changes, not when the cost model is retuned.  ``tools/update_goldens.py``
regenerates the snapshots from these same definitions.
"""

from repro.core.mapping import config_from_spec
from repro.core.parser import parse
from repro.core.plan import KernelPlan

# TCCG-flavoured slice: a plain GEMM, the paper's Eq. 1 with register
# tiles and a two-index TB_K, a single-precision TTM, and a contraction
# whose output FVI lives in B, so B is staged on the x side (s_a).
_CASES = {
    "matmul": dict(
        expr="ab-ak-kb",
        sizes={"a": 24, "b": 16, "k": 12},
        spec=dict(tb_x=[("a", 8)], tb_y=[("b", 8)], tb_k=[("k", 8)]),
        dtype_bytes=8,
    ),
    "eq1": dict(
        expr="abcd-aebf-dfce",
        sizes={"a": 7, "b": 5, "c": 6, "d": 4, "e": 3, "f": 5},
        spec=dict(
            tb_x=[("a", 4)], tb_y=[("d", 2)],
            reg_x=[("b", 2)], reg_y=[("c", 3)],
            tb_k=[("e", 2), ("f", 2)],
        ),
        dtype_bytes=8,
    ),
    "ttm_sp": dict(
        expr="abc-adc-bd",
        sizes={"a": 6, "b": 5, "c": 4, "d": 7},
        spec=dict(tb_x=[("a", 4)], tb_y=[("b", 4)], tb_k=[("d", 3)]),
        dtype_bytes=4,
    ),
    "x_is_b": dict(
        expr="abcdef-gfec-abdg",
        sizes={"a": 5, "b": 3, "c": 4, "d": 3, "e": 3, "f": 4, "g": 5},
        spec=dict(
            tb_x=[("a", 4)], tb_y=[("f", 2)],
            reg_x=[("b", 2)], reg_y=[("c", 2)],
            tb_k=[("g", 3)],
        ),
        dtype_bytes=8,
    ),
}

GOLDEN_CASES = tuple(sorted(_CASES))


def golden_plan(case: str) -> KernelPlan:
    spec = _CASES[case]
    c = parse(spec["expr"], spec["sizes"])
    cfg = config_from_spec(c, **spec["spec"])
    return KernelPlan(c, cfg, spec["dtype_bytes"])
