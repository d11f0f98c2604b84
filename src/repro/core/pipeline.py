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
* **codegen** — the kernels are bound to an executable
  :class:`~repro.core.network.NetworkContractor` (level-parallel,
  liveness-freeing).

Every stage runs under an ``obs`` span (``network.<stage>``) and
records its wall time in :attr:`CompiledNetwork.stage_wall`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from .. import obs
from .generator import Cogent, GeneratedKernel
from .ir import Contraction, ContractionError
from .network import (
    ContractionPath,
    NetworkContractor,
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
    "PipelineStage",
    "NetworkPipeline",
    "CompiledNetwork",
    "compute_schedule",
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

    Two constructors cover the pipeline's entry points:
    :meth:`from_path` turns one network's pairwise contraction order
    into a chain/tree, and :meth:`from_workload` wraps a batch of
    independent binary contractions (e.g. the CCSD diagram set) so the
    same schedule/memory/dedup stages apply without rewriting the
    contractions themselves — important because apps pin exact output
    index orders that a network-spec round-trip would not preserve.
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

    @classmethod
    def from_workload(
        cls,
        contractions: Sequence[Contraction],
        kernel_names: Optional[Sequence[str]] = None,
    ) -> "ContractionDAG":
        """A DAG of independent binary contractions (all level 1).

        Every contraction keeps its exact :class:`Contraction` —
        operand and output index orders untouched — so compiled kernels
        are bit-identical to per-contraction compilation.
        """
        if kernel_names is None:
            kernel_names = [f"work{i}" for i in range(len(contractions))]
        if len(kernel_names) != len(contractions):
            raise ValueError(
                "kernel_names must match contractions one-to-one"
            )
        nodes: List[DagNode] = []
        steps: List[DagStep] = []
        next_id = 0

        def add(ref, is_input: bool, is_output: bool,
                contraction: Contraction) -> int:
            nonlocal next_id
            nodes.append(DagNode(
                id=next_id,
                name=ref.name,
                indices=ref.indices,
                elements=contraction.num_elements(ref) or 1,
                is_input=is_input,
                is_output=is_output,
            ))
            next_id += 1
            return next_id - 1

        for contraction, kernel_name in zip(contractions, kernel_names):
            left = add(contraction.a, True, False, contraction)
            right = add(contraction.b, True, False, contraction)
            result = add(contraction.c, False, True, contraction)
            steps.append(DagStep(
                left=left,
                right=right,
                result=result,
                contraction=contraction,
                kernel_name=kernel_name,
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
# Pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineStage:
    """One named compilation stage (codelets ``CompilationStage`` style).

    ``fn`` mutates the build context in place; the pipeline wraps each
    stage in an ``obs`` span (``network.<name>``) and records wall
    time.  ``requires`` names context attributes that must already be
    populated — a cheap structural dependency check that keeps stage
    order honest.
    """

    name: str
    fn: Callable[["_Build"], None]
    requires: Tuple[str, ...] = ()

    def run(self, build: "_Build") -> float:
        for attr in self.requires:
            if getattr(build, attr, None) is None:
                raise ContractionError(
                    f"stage {self.name!r} requires {attr!r}, which no "
                    f"earlier stage produced"
                )
        start = time.perf_counter()
        with obs.span(f"network.{self.name}"):
            self.fn(build)
        return time.perf_counter() - start


@dataclass
class _Build:
    """Mutable state threaded through the pipeline stages."""

    source: Union[str, NetworkSpec, None] = None
    sizes: Optional[Mapping[str, int]] = None
    workload: Optional[Tuple[Contraction, ...]] = None
    kernel_names: Optional[Tuple[str, ...]] = None
    spec: Optional[NetworkSpec] = None
    path: Optional[ContractionPath] = None
    dag: Optional[ContractionDAG] = None
    schedule: Optional[NetworkSchedule] = None
    memory_plan: Optional[MemoryPlan] = None
    program: Optional[CompiledProgram] = None
    contractor: Optional[NetworkContractor] = None
    stage_wall: Dict[str, float] = field(default_factory=dict)


@dataclass
class CompiledNetwork:
    """Everything the pipeline produced for one network or workload.

    For network compiles every field is populated and :meth:`execute`
    runs the level-parallel contractor; for workload compiles (a batch
    of independent contractions) ``spec``/``path``/``contractor`` are
    ``None`` and the per-contraction kernels live in ``kernels``.
    """

    dag: ContractionDAG
    schedule: NetworkSchedule
    memory_plan: MemoryPlan
    program: CompiledProgram
    stage_wall: Dict[str, float]
    spec: Optional[NetworkSpec] = None
    path: Optional[ContractionPath] = None
    contractor: Optional[NetworkContractor] = None

    @property
    def kernels(self) -> Tuple[GeneratedKernel, ...]:
        return tuple(self.program.kernels)

    @property
    def stats(self):
        return self.program.stats

    def execute(self, *operands: np.ndarray) -> np.ndarray:
        if self.contractor is None:
            raise ContractionError(
                "workload compiles have independent kernels; use "
                ".kernels[i].execute(a, b) per contraction"
            )
        return self.contractor.execute(*operands)

    def reference(self, *operands: np.ndarray) -> np.ndarray:
        if self.contractor is None:
            raise ContractionError(
                "workload compiles have no single network reference"
            )
        return self.contractor.reference(*operands)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly summary (CLI ``--json`` payload)."""
        payload: Dict[str, object] = {
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
        }
        if self.spec is not None:
            payload["network"] = (
                ",".join("".join(t) for t in self.spec.inputs)
                + "->" + "".join(self.spec.output)
            )
        if self.path is not None:
            payload["path"] = str(self.path)
            payload["total_flops"] = self.path.total_flops
            payload["peak_intermediate"] = self.path.peak_intermediate
        return payload

    def summary(self) -> str:
        lines = []
        if self.contractor is not None:
            lines.append(self.contractor.summary())
        else:
            plan = self.memory_plan
            lines.append(
                f"workload: {len(self.dag.steps)} contractions, "
                f"{self.schedule.depth} level(s)"
            )
            lines.append(
                f"memory  : {plan.planned_peak_bytes} B arena vs "
                f"{plan.naive_peak_bytes} B allocate-per-step"
            )
        lines.append("stages : " + ", ".join(
            f"{name} {wall * 1e3:.1f}ms"
            for name, wall in self.stage_wall.items()
        ))
        lines.append(self.program.stats.summary())
        return "\n".join(lines)


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
        self.stages: Tuple[PipelineStage, ...] = (
            PipelineStage("parse", self._stage_parse),
            PipelineStage("path", self._stage_path),
            PipelineStage(
                "schedule", self._stage_schedule, requires=("dag",)
            ),
            PipelineStage(
                "memory", self._stage_memory, requires=("schedule",)
            ),
            PipelineStage("dedup", self._stage_dedup, requires=("dag",)),
            PipelineStage(
                "codegen", self._stage_codegen, requires=("program",)
            ),
        )

    # -- stages -----------------------------------------------------------

    def _stage_parse(self, build: _Build) -> None:
        if build.workload is not None:
            return  # workload entry: contractions arrive pre-parsed
        if isinstance(build.source, NetworkSpec):
            build.spec = build.source
        else:
            build.spec = parse_network(build.source, build.sizes)
        obs.inc("network.parse.tensors", len(build.spec.inputs))

    def _stage_path(self, build: _Build) -> None:
        if build.workload is not None:
            build.dag = ContractionDAG.from_workload(
                build.workload, build.kernel_names
            )
            return
        build.path = optimal_path(build.spec, memory_cap=self.memory_cap)
        build.dag = ContractionDAG.from_path(build.path)
        obs.gauge("network.path.flops", float(build.path.total_flops))
        obs.gauge(
            "network.path.peak_intermediate",
            float(build.path.peak_intermediate),
        )

    def _stage_schedule(self, build: _Build) -> None:
        build.schedule = compute_schedule(build.dag)
        obs.gauge("network.schedule.levels", float(build.schedule.depth))
        obs.gauge("network.schedule.width", float(build.schedule.width))

    def _stage_memory(self, build: _Build) -> None:
        build.memory_plan = plan_memory(
            build.dag, build.schedule,
            dtype_bytes=self.generator.dtype_bytes,
        )
        if build.path is not None:
            build.path.planned_peak_bytes = (
                build.memory_plan.planned_peak_bytes
            )
        obs.gauge(
            "network.memory.planned_peak_bytes",
            float(build.memory_plan.planned_peak_bytes),
        )
        obs.gauge(
            "network.memory.naive_peak_bytes",
            float(build.memory_plan.naive_peak_bytes),
        )

    def _stage_dedup(self, build: _Build) -> None:
        build.program = self.session.compile(
            [step.contraction for step in build.dag.steps],
            kernel_names=[step.kernel_name for step in build.dag.steps],
            workers=self.workers,
        )
        stats = build.program.stats
        obs.inc("network.dedup.contractions", stats.contractions)
        obs.inc("network.dedup.classes", stats.classes)
        obs.inc("network.dedup.searches", stats.searches)

    def _stage_codegen(self, build: _Build) -> None:
        if build.path is None:
            return  # workload kernels are already executable
        build.contractor = NetworkContractor(
            build.spec,
            self.generator,
            path=build.path,
            program=build.program,
            schedule=build.schedule,
            memory_plan=build.memory_plan,
            workers=self.workers,
        )
        obs.inc("network.codegen.kernels", len(build.program.kernels))

    # -- entry points -----------------------------------------------------

    def compile(
        self,
        network: Union[str, NetworkSpec],
        sizes=None,
    ) -> CompiledNetwork:
        """Compile one n-ary network end to end."""
        build = _Build(source=network, sizes=sizes)
        return self._run(build)

    def compile_workload(
        self,
        contractions: Sequence[Contraction],
        kernel_names: Optional[Sequence[str]] = None,
    ) -> CompiledNetwork:
        """Compile a batch of independent binary contractions.

        The schedule is one level wide and every result is an output;
        dedup and the memory plan still apply (the plan reports zero
        arena bytes — outputs are the caller's).
        """
        build = _Build(
            workload=tuple(contractions),
            kernel_names=(
                tuple(kernel_names) if kernel_names is not None else None
            ),
        )
        return self._run(build)

    def _run(self, build: _Build) -> CompiledNetwork:
        with obs.span("network.pipeline"):
            for stage in self.stages:
                build.stage_wall[stage.name] = stage.run(build)
        return CompiledNetwork(
            dag=build.dag,
            schedule=build.schedule,
            memory_plan=build.memory_plan,
            program=build.program,
            stage_wall=build.stage_wall,
            spec=build.spec,
            path=build.path,
            contractor=build.contractor,
        )
