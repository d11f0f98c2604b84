"""The per-block/per-step transaction replay loop."""

from __future__ import annotations

from repro.core.plan import KernelPlan
from repro.gpu.memory import MeasuredTransactions, TransactionCounter


def count_transactions_reference(plan: KernelPlan) -> MeasuredTransactions:
    """Exact counts via the per-block/per-step loop (reference oracle)."""
    counter = TransactionCounter(plan)
    contraction = plan.contraction
    load_a = load_b = store_c = 0
    for block in range(plan.num_blocks):
        store_c += counter.store_transactions(block)
        for step in range(plan.num_steps):
            load_a += counter.load_transactions(contraction.a, block, step)
            load_b += counter.load_transactions(contraction.b, block, step)
    return MeasuredTransactions(load_a, load_b, store_c)
