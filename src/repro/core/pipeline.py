"""Staged whole-network compilation pipeline.

The paper generates one high-performance binary contraction at a time;
its headline applications (coupled-cluster residuals, tensor networks)
are multi-contraction DAGs.  This module compiles such a DAG as a unit,
in the staged style of codelets' ``CompilationStage``/``CodeletProgram``
(see SNIPPETS.md) and CoNST's whole-tensor-network compilation:

    parse -> path -> schedule -> memory -> dedup -> codegen

* **parse** — the n-ary einsum expression becomes a
  :class:`~repro.core.network.NetworkSpec`.
* **path** — :func:`~repro.core.network.optimal_path` (vectorized
  bitmask DP, optionally peak-memory-capped) picks the
  pairwise contraction order.
* **schedule** — the pairwise steps become a :class:`ContractionDAG`
  and a :class:`NetworkSchedule`: topological levels of independent
  steps plus last-use liveness per node.
* **memory** — :func:`plan_memory` assigns every intermediate to a
  reusable buffer arena (greedy best-fit on sorted sizes), bounding
  peak intermediate bytes by the *live* set rather than the sum of all
  intermediates; ``ContractionPath.planned_peak_bytes`` records the
  arena footprint.
* **dedup** — the steps are compiled as one batch through
  :class:`~repro.core.program.CompilationSession`: one search per
  canonical equivalence class, persistent-store aware.
* **codegen** — the kernels are bound into the executable
  :class:`CompiledNetwork` (level-parallel, liveness-freeing).

:meth:`NetworkPipeline.compile` is the only way to build a network and
:class:`CompiledNetwork` the only object that runs one;
:func:`contract_network` is the one-call form of both.  Every stage
runs under an ``obs`` span (``network.<stage>``) and records its wall
time in :attr:`CompiledNetwork.stage_wall`.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .. import obs
from .generator import Cogent, GeneratedKernel
from .ir import Contraction, ContractionError, operand_extents
from .network import (
    ContractionPath,
    NetworkSpec,
    optimal_path,
    parse_network,
)
from .program import CompilationSession, CompiledProgram

__all__ = [
    "ContractionDAG",
    "DagNode",
    "DagStep",
    "NetworkSchedule",
    "MemoryPlan",
    "NetworkPipeline",
    "CompiledNetwork",
    "compute_schedule",
    "contract_network",
    "plan_memory",
]


# ---------------------------------------------------------------------------
# Contraction DAG
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DagNode:
    """One value in the contraction DAG: input, intermediate or output."""

    id: int
    name: str
    indices: Tuple[str, ...]
    elements: int
    is_input: bool
    is_output: bool


@dataclass(frozen=True)
class DagStep:
    """One binary contraction ``(left, right) -> result`` by node id."""

    left: int
    right: int
    result: int
    contraction: Contraction
    kernel_name: str


@dataclass(frozen=True)
class ContractionDAG:
    """A DAG of binary contraction steps over value nodes.

    :meth:`from_path` turns one network's pairwise contraction order
    into a chain/tree.
    """

    nodes: Tuple[DagNode, ...]
    steps: Tuple[DagStep, ...]

    @property
    def inputs(self) -> Tuple[DagNode, ...]:
        return tuple(n for n in self.nodes if n.is_input)

    @property
    def outputs(self) -> Tuple[DagNode, ...]:
        return tuple(n for n in self.nodes if n.is_output)

    @property
    def intermediates(self) -> Tuple[DagNode, ...]:
        return tuple(
            n for n in self.nodes if not n.is_input and not n.is_output
        )

    @classmethod
    def from_path(cls, path: ContractionPath) -> "ContractionDAG":
        """The DAG of one network's pairwise contraction order."""
        sizes = path.spec.sizes
        n = len(path.spec.inputs)
        final = path.steps[-1].result
        nodes: List[DagNode] = []
        for pos, subscript in enumerate(path.spec.inputs):
            nodes.append(DagNode(
                id=pos,
                name=f"T{pos}",
                indices=subscript,
                elements=math.prod(sizes[i] for i in subscript) or 1,
                is_input=True,
                is_output=False,
            ))
        steps: List[DagStep] = []
        for i, step in enumerate(path.steps):
            indices = step.contraction.c.indices
            nodes.append(DagNode(
                id=step.result,
                name=step.contraction.c.name,
                indices=indices,
                elements=math.prod(sizes[i] for i in indices) or 1,
                is_input=False,
                is_output=step.result == final,
            ))
            steps.append(DagStep(
                left=step.left,
                right=step.right,
                result=step.result,
                contraction=step.contraction,
                kernel_name=f"net_step{i}",
            ))
        return cls(tuple(nodes), tuple(steps))


# ---------------------------------------------------------------------------
# Schedule: topological levels + liveness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkSchedule:
    """Topological levels of independent steps, plus liveness.

    ``levels[k]`` holds indices into the DAG's step list; every step in
    one level depends only on inputs and results of strictly earlier
    levels, so a level's steps may execute concurrently.  ``last_use``
    maps a node id to the last level that reads it (output nodes are
    pinned past the final level so they are never freed or recycled).
    """

    levels: Tuple[Tuple[int, ...], ...]
    node_level: Dict[int, int]
    last_use: Dict[int, int]

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def width(self) -> int:
        return max((len(level) for level in self.levels), default=0)


def compute_schedule(dag: ContractionDAG) -> NetworkSchedule:
    """Level-schedule the DAG: ``level(step) = 1 + max(level(deps))``."""
    node_level: Dict[int, int] = {
        node.id: 0 for node in dag.nodes if node.is_input
    }
    by_level: Dict[int, List[int]] = {}
    for index, step in enumerate(dag.steps):
        try:
            level = 1 + max(node_level[step.left], node_level[step.right])
        except KeyError as exc:
            raise ContractionError(
                f"step {index} consumes node {exc.args[0]} before it is "
                f"produced"
            ) from exc
        node_level[step.result] = level
        by_level.setdefault(level, []).append(index)
    depth = max(by_level, default=0)
    levels = tuple(
        tuple(by_level[k]) for k in range(1, depth + 1)
    )
    last_use: Dict[int, int] = {}
    for step in dag.steps:
        level = node_level[step.result]
        for operand in (step.left, step.right):
            last_use[operand] = max(last_use.get(operand, 0), level)
    for node in dag.nodes:
        if node.is_output:
            last_use[node.id] = depth + 1  # never freed
    return NetworkSchedule(levels, node_level, last_use)


# ---------------------------------------------------------------------------
# Memory plan: liveness-based buffer arena
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryPlan:
    """Intermediates assigned to a reusable buffer arena.

    ``planned_peak_bytes`` (the arena footprint, ``sum(buffer_bytes)``)
    is bounded above by ``naive_peak_bytes`` (allocate-per-step with no
    reuse: the sum of *all* intermediate sizes) by construction — a new
    arena buffer is only created when no freed buffer fits, and each
    buffer's size is the exact size of the intermediate that created
    it.  Output nodes are excluded from both figures: they are the
    caller's to hold either way.
    """

    assignments: Dict[int, int]
    buffer_bytes: Tuple[int, ...]
    planned_peak_bytes: int
    naive_peak_bytes: int
    dtype_bytes: int

    @property
    def reduction(self) -> float:
        """Naive-over-planned peak ratio (>= 1.0)."""
        if self.planned_peak_bytes == 0:
            return 1.0
        return self.naive_peak_bytes / self.planned_peak_bytes


def plan_memory(
    dag: ContractionDAG,
    schedule: NetworkSchedule,
    dtype_bytes: int = 8,
) -> MemoryPlan:
    """Greedy best-fit arena assignment driven by liveness.

    Walk the levels in order; at each level allocate that level's
    intermediates largest-first into the smallest free buffer that
    fits (or a new exact-size buffer), then free every node whose last
    consumer has now run.  Operands read *at* a level stay live through
    it, so a level's results never alias its own operands and execution
    through the plan is bit-identical to allocate-per-step.
    """
    node_by_id = {node.id: node for node in dag.nodes}
    free: List[int] = []  # indices into buffers, currently unowned
    buffers: List[int] = []
    owner: Dict[int, int] = {}  # buffer index -> occupying node id
    assignments: Dict[int, int] = {}
    naive = 0
    for level, step_ids in enumerate(schedule.levels, start=1):
        produced = [
            node_by_id[dag.steps[i].result]
            for i in step_ids
            if not node_by_id[dag.steps[i].result].is_output
        ]
        produced.sort(key=lambda node: (-node.elements, node.id))
        for node in produced:
            need = node.elements * dtype_bytes
            naive += need
            fitting = [b for b in free if buffers[b] >= need]
            if fitting:
                chosen = min(fitting, key=lambda b: (buffers[b], b))
                free.remove(chosen)
            else:
                buffers.append(need)
                chosen = len(buffers) - 1
            assignments[node.id] = chosen
            owner[chosen] = node.id
        # Free buffers whose occupant's last consumer ran at this level.
        for buffer, node_id in list(owner.items()):
            if schedule.last_use.get(node_id, 0) <= level:
                del owner[buffer]
                free.append(buffer)
    return MemoryPlan(
        assignments=assignments,
        buffer_bytes=tuple(buffers),
        planned_peak_bytes=sum(buffers),
        naive_peak_bytes=naive,
        dtype_bytes=dtype_bytes,
    )


# ---------------------------------------------------------------------------
# Compiled network
# ---------------------------------------------------------------------------


@dataclass
class CompiledNetwork:
    """One compiled network: its pipeline artifacts and its executor.

    ``kernels[i]`` runs ``dag.steps[i]``.  Independent steps of one
    schedule level run on a thread pool when ``workers > 1``, with a
    deterministic merge — every step writes a distinct node slot — and
    intermediates whose last use has passed are dropped at each level
    boundary, realising the memory plan's liveness analysis.
    """

    spec: NetworkSpec
    path: ContractionPath
    dag: ContractionDAG
    schedule: NetworkSchedule
    memory_plan: MemoryPlan
    program: CompiledProgram
    stage_wall: Dict[str, float]
    generator: Cogent
    workers: int = 1
    kernels: Tuple[GeneratedKernel, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.kernels = tuple(self.program.kernels)

    # -- execution --------------------------------------------------------

    def execute(self, *operands: np.ndarray) -> np.ndarray:
        """Run the pairwise kernels level by level.

        Each step runs its kernel's :meth:`~repro.core.generator.
        GeneratedKernel.execute`, under the same per-kernel rule as
        :func:`repro.contract`: a step's first call runs the numpy tile
        interpreter, every later one the kernel's OpenMP build.  The
        build is shared by every kernel of the same structure (whatever
        its extents or tile sizes), so a network builds a few programs,
        not one per step.

        Native kernels and the interpreter's numpy calls release the
        GIL, so same-level steps overlap when ``workers > 1``; the
        output is bit-identical to serial path-order execution.
        """
        if len(operands) != len(self.spec.inputs):
            raise ValueError(
                f"expected {len(self.spec.inputs)} operands, got "
                f"{len(operands)}"
            )
        values: Dict[int, np.ndarray] = dict(enumerate(operands))
        last_use = self.schedule.last_use
        result_node = self.path.steps[-1].result

        def run_step(index: int) -> Tuple[int, np.ndarray]:
            step = self.dag.steps[index]
            return step.result, self.kernels[index].execute(
                values[step.left], values[step.right]
            )

        for level, step_ids in enumerate(self.schedule.levels, start=1):
            if self.workers > 1 and len(step_ids) > 1:
                with ThreadPoolExecutor(
                    max_workers=min(self.workers, len(step_ids))
                ) as pool:
                    for node, value in pool.map(run_step, step_ids):
                        values[node] = value
            else:
                for index in step_ids:
                    node, value = run_step(index)
                    values[node] = value
            # Liveness: drop intermediates whose last consumer has run.
            for node in list(values):
                if node != result_node and last_use.get(node, 0) <= level:
                    del values[node]

        result = values[result_node]
        final_indices = self.path.steps[-1].contraction.c.indices
        if final_indices != self.spec.output:
            perm = tuple(
                final_indices.index(i) for i in self.spec.output
            )
            result = np.ascontiguousarray(np.transpose(result, perm))
        return result

    def reference(self, *operands: np.ndarray) -> np.ndarray:
        """numpy.einsum over the whole network (oracle).

        ``optimize=True`` lets einsum pick its own pairwise order —
        without it an n-operand einsum iterates the full joint index
        space, which is intractable for chains past a few tensors.
        """
        subs = ",".join("".join(t) for t in self.spec.inputs)
        return np.einsum(f"{subs}->{''.join(self.spec.output)}",
                         *operands, optimize=True)

    # -- reporting --------------------------------------------------------

    def predicted_time_s(self) -> float:
        total = 0.0
        for kernel in self.kernels:
            sim = kernel.candidates[0].simulated
            if sim is None:
                sim = self.generator.predict(kernel.plan)
            total += sim.time_s
        return total

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly summary (CLI ``--json`` payload)."""
        return {
            "steps": len(self.dag.steps),
            "levels": self.schedule.depth,
            "max_level_width": self.schedule.width,
            "planned_peak_bytes": self.memory_plan.planned_peak_bytes,
            "naive_peak_bytes": self.memory_plan.naive_peak_bytes,
            "memory_reduction": round(self.memory_plan.reduction, 4),
            "arena_buffers": len(self.memory_plan.buffer_bytes),
            "stage_wall_s": {
                name: round(wall, 6)
                for name, wall in self.stage_wall.items()
            },
            "program": self.program.stats.as_dict(),
            "network": (
                ",".join("".join(t) for t in self.spec.inputs)
                + "->" + "".join(self.spec.output)
            ),
            "path": str(self.path),
            "total_flops": self.path.total_flops,
            "peak_intermediate": self.path.peak_intermediate,
        }

    def summary(self) -> str:
        plan = self.memory_plan
        lines = [
            f"network: "
            + ",".join("".join(t) for t in self.spec.inputs)
            + "->" + "".join(self.spec.output),
            f"path   : {self.path}",
            f"flops  : {self.path.total_flops / 1e6:.3f} MFLOP total, "
            f"peak intermediate {self.path.peak_intermediate} elements",
            f"sched  : {len(self.schedule.levels)} levels, "
            f"max width {self.schedule.width}, {self.workers} workers",
            f"memory : {plan.planned_peak_bytes} B arena "
            f"({len(plan.buffer_bytes)} buffers) vs "
            f"{plan.naive_peak_bytes} B allocate-per-step "
            f"({plan.reduction:.2f}x)",
            f"time   : {self.predicted_time_s() * 1e6:.1f} us predicted "
            f"on {self.generator.arch.name}",
            "stages : " + ", ".join(
                f"{name} {wall * 1e3:.1f}ms"
                for name, wall in self.stage_wall.items()
            ),
            self.program.stats.summary(),
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@contextmanager
def _stage(name: str, stage_wall: Dict[str, float]) -> Iterator[None]:
    """Run one stage under its ``network.<name>`` span and time it."""
    start = time.perf_counter()
    with obs.span(f"network.{name}"):
        yield
    stage_wall[name] = time.perf_counter() - start


class NetworkPipeline:
    """The staged whole-network compiler.

    One pipeline owns one :class:`CompilationSession`, so successive
    :meth:`compile` calls share the dedup memory and persistent store:
    a CCSD-sized burst of networks collapses to one search per
    canonical kernel class.
    """

    def __init__(
        self,
        generator: Optional[Cogent] = None,
        store=None,
        *,
        memory_cap: Optional[int] = None,
        workers: int = 1,
    ) -> None:
        self.generator = generator or Cogent()
        self.session = CompilationSession(self.generator, store=store)
        self.memory_cap = memory_cap
        self.workers = max(1, int(workers))

    def compile(
        self,
        network: Union[str, NetworkSpec],
        sizes=None,
    ) -> CompiledNetwork:
        """Compile one n-ary network end to end, stage by stage."""
        stage_wall: Dict[str, float] = {}
        with obs.span("network.pipeline"):
            with _stage("parse", stage_wall):
                if isinstance(network, NetworkSpec):
                    spec = network
                else:
                    spec = parse_network(network, sizes)
                obs.inc("network.parse.tensors", len(spec.inputs))

            with _stage("path", stage_wall):
                path = optimal_path(spec, memory_cap=self.memory_cap)
                dag = ContractionDAG.from_path(path)
                obs.gauge("network.path.flops", float(path.total_flops))
                obs.gauge(
                    "network.path.peak_intermediate",
                    float(path.peak_intermediate),
                )

            with _stage("schedule", stage_wall):
                schedule = compute_schedule(dag)
                obs.gauge("network.schedule.levels", float(schedule.depth))
                obs.gauge("network.schedule.width", float(schedule.width))

            with _stage("memory", stage_wall):
                memory_plan = plan_memory(
                    dag, schedule, dtype_bytes=self.generator.dtype_bytes
                )
                path.planned_peak_bytes = memory_plan.planned_peak_bytes
                obs.gauge(
                    "network.memory.planned_peak_bytes",
                    float(memory_plan.planned_peak_bytes),
                )
                obs.gauge(
                    "network.memory.naive_peak_bytes",
                    float(memory_plan.naive_peak_bytes),
                )

            with _stage("dedup", stage_wall):
                program = self.session.compile(
                    [step.contraction for step in dag.steps],
                    kernel_names=[step.kernel_name for step in dag.steps],
                    workers=self.workers,
                )
                stats = program.stats
                obs.inc("network.dedup.contractions", stats.contractions)
                obs.inc("network.dedup.classes", stats.classes)
                obs.inc("network.dedup.searches", stats.searches)

            # ``stage_wall`` is shared, so the codegen entry lands in
            # ``compiled.stage_wall`` when the stage closes.
            with _stage("codegen", stage_wall):
                compiled = CompiledNetwork(
                    spec=spec,
                    path=path,
                    dag=dag,
                    schedule=schedule,
                    memory_plan=memory_plan,
                    program=program,
                    stage_wall=stage_wall,
                    generator=self.generator,
                    workers=self.workers,
                )
                obs.inc("network.codegen.kernels", len(compiled.kernels))
        return compiled


def contract_network(
    expr: str,
    *operands: np.ndarray,
    sizes=None,
    generator: Optional[Cogent] = None,
) -> np.ndarray:
    """One-call n-ary contraction: ``contract_network("ab,bc,cd->ad", ...)``.

    Extents are read off the operands unless ``sizes`` is given; the
    network is compiled by :class:`NetworkPipeline` and executed once.
    """
    if sizes is None:
        sizes = operand_extents(
            ("".join(subscript), subscript, array)
            for subscript, array in zip(
                parse_network(expr, 2).inputs, operands
            )
        )
    return NetworkPipeline(generator).compile(expr, sizes).execute(*operands)
