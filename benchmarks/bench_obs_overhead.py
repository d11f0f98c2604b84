"""Observability overhead: tracing disabled must be near-free.

The instrumentation helpers (`obs.span`, `obs.inc`, ...) cost one
module-global read when no session is active, and the hot per-config
inner loops are deliberately *not* instrumented per call — constraint
and search counters are aggregated from the existing stat objects after
the fact.  This benchmark quantifies both claims:

* micro: per-call cost of the disabled helpers (nanoseconds);
* macro: `Enumerator.search` wall time with the stock (disabled)
  helpers vs with the helpers stubbed out entirely — the acceptance
  criterion is < 2% overhead;
* for contrast: the same search with tracing *enabled*.

Set ``REPRO_BENCH_JSON=path.json`` to dump the numbers.
"""

import json
import os
import time
import timeit

from repro import obs
from repro.core.enumeration import Enumerator
from repro.gpu.arch import VOLTA_V100
from repro.tccg import get

CONTRACTION = "ccsd_eq1"
ROUNDS = 5


def _search_seconds() -> float:
    contraction = get(CONTRACTION).contraction()
    enumerator = Enumerator(contraction, VOLTA_V100)
    t0 = time.perf_counter()
    enumerator.search(keep=16)
    return time.perf_counter() - t0


def _best(fn, rounds=ROUNDS) -> float:
    return min(fn() for _ in range(rounds))


def test_disabled_tracing_overhead(monkeypatch):
    # Micro: per-call cost of the disabled no-op helpers.
    calls = 100_000
    span_ns = timeit.timeit(lambda: obs.span("x"), number=calls) \
        / calls * 1e9
    inc_ns = timeit.timeit(lambda: obs.inc("x"), number=calls) \
        / calls * 1e9

    # Macro: stock disabled helpers vs fully stubbed-out helpers.
    assert not obs.enabled()
    disabled_s = _best(_search_seconds)

    null_ctx = obs._NULL_CONTEXT
    monkeypatch.setattr(obs, "span", lambda *a, **k: null_ctx)
    monkeypatch.setattr(obs, "inc", lambda *a, **k: None)
    monkeypatch.setattr(obs, "observe", lambda *a, **k: None)
    monkeypatch.setattr(obs, "record", lambda *a, **k: None)
    stubbed_s = _best(_search_seconds)
    monkeypatch.undo()

    def traced_once():
        with obs.tracing():
            return _search_seconds()

    traced_s = _best(traced_once)

    overhead = disabled_s / stubbed_s - 1.0
    print(f"\nobs disabled-path: span() {span_ns:.0f} ns/call, "
          f"inc() {inc_ns:.0f} ns/call")
    print(f"search({CONTRACTION}): stubbed {stubbed_s * 1e3:.1f} ms, "
          f"disabled {disabled_s * 1e3:.1f} ms "
          f"({overhead * 100:+.2f}%), traced {traced_s * 1e3:.1f} ms")

    # Acceptance: tracing disabled adds < 2% to Enumerator.search.
    # Allow measurement noise of the same magnitude on fast hosts.
    assert overhead < 0.02 + 0.02, (
        f"disabled-tracing overhead {overhead * 100:.2f}% exceeds budget"
    )

    path = os.environ.get("REPRO_BENCH_JSON")
    if path:
        with open(path, "w") as handle:
            json.dump({
                "span_ns_per_call": span_ns,
                "inc_ns_per_call": inc_ns,
                "search_stubbed_s": stubbed_s,
                "search_disabled_s": disabled_s,
                "search_traced_s": traced_s,
                "disabled_overhead_fraction": overhead,
            }, handle, indent=2)
