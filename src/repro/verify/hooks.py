"""Per-pass invariant hooks for the compile pipeline (PR 3).

The :class:`~repro.compiler.manager.PassManager` fires registered hooks
right after each pass completes; a hook that raises is wrapped into a
:class:`~repro.compiler.errors.PassInvariantError` *naming the pass* —
so a broken invariant points at the stage that introduced it instead of
surfacing as a downstream validation failure three passes later.

:func:`compile_invariant_hooks` builds the standard hook set, one per
checkable stage:

========================= ============================================
pass                      invariant checked after it runs
========================= ============================================
``compact-kernel``        kernel resource feasibility (exclusive PEs,
                          placements inside the period)
``analyze-edges``         Theorem 3.1: every per-edge retiming
                          requirement in ``{0, 1, 2}`` and
                          cache-vs-eDRAM monotonicity
``dp-allocate``           capacity feasibility and profit accounting of
                          the allocation
``liveness-reweight``     same allocation invariants on the re-weighted
                          outcome
``solve-retiming``        Definition 3.1 legality of the vertex/edge
                          retiming
``emit-schedule``         full semantic validation of the emitted
                          periodic schedule
========================= ============================================

Wire them in with ``ParaConv(..., invariant_hooks=compile_invariant_hooks())``
or hand them to :class:`~repro.compiler.manager.PassManager` directly.
The sweep runner (:func:`repro.verify.runner.verify_workload`) compiles
the DP plan under these hooks so a pipeline regression is attributed at
the pass level.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.compiler.context import CompileContext

__all__ = [
    "compile_invariant_hooks",
    "check_kernel_feasible",
    "check_theorem_bounds",
    "check_allocation_feasible",
    "check_retiming_legal",
    "check_schedule_semantics",
]

#: Matches :data:`repro.compiler.manager.InvariantHook`.
Hook = Callable[[CompileContext], None]


def check_kernel_feasible(ctx: CompileContext) -> None:
    """After ``compact-kernel``: resource-feasible kernel for the width."""
    from repro.core.schedule import validate_kernel

    width = ctx.width
    if width is None:
        raise ValueError("kernel invariant hook needs a width-bound context")
    validate_kernel(ctx.graph, ctx.get("kernel"), width)


def check_theorem_bounds(ctx: CompileContext) -> None:
    """After ``analyze-edges``: Theorem 3.1 bounds on every edge timing.

    ``delta_cache``/``delta_edram`` must lie in ``{0, 1, 2}``, caching can
    never *increase* the requirement (``ΔR >= 0``), and transfers are
    clamped to the kernel period.
    """
    period = ctx.get("kernel").period
    for key, timing in ctx.get("timings").items():
        for label, delta in (
            ("cache", timing.delta_cache),
            ("eDRAM", timing.delta_edram),
        ):
            if not 0 <= delta <= 2:
                raise ValueError(
                    f"edge {key}: {label} retiming requirement {delta} "
                    f"outside the Theorem 3.1 bound [0, 2]"
                )
        if timing.delta_r < 0:
            raise ValueError(
                f"edge {key}: caching increases the retiming requirement "
                f"(ΔR = {timing.delta_r} < 0)"
            )
        if timing.transfer_cache > period or timing.transfer_edram > period:
            raise ValueError(
                f"edge {key}: transfer time exceeds the period {period}"
            )
        if timing.transfer_cache > timing.transfer_edram:
            raise ValueError(
                f"edge {key}: cache transfer slower than eDRAM "
                "(inverted memory hierarchy)"
            )


def check_allocation_feasible(ctx: CompileContext) -> None:
    """After ``dp-allocate``/``liveness-reweight``: capacity + accounting."""
    allocation = ctx.get("allocation")
    timings = ctx.get("timings")
    if allocation.slots_used > allocation.capacity_slots:
        raise ValueError(
            f"allocation uses {allocation.slots_used} slots, capacity is "
            f"{allocation.capacity_slots}"
        )
    placed = set(allocation.placements)
    edges = set(timings)
    if placed != edges:
        raise ValueError(
            f"allocation places {len(placed)} edges, graph has {len(edges)}"
        )
    for key in allocation.cached:
        if key not in edges:
            raise ValueError(f"allocation caches unknown edge {key}")
    expected_profit = sum(timings[key].delta_r for key in allocation.cached)
    if allocation.total_delta_r != expected_profit:
        raise ValueError(
            f"allocation claims profit {allocation.total_delta_r}, cached "
            f"set earns {expected_profit}"
        )


def check_retiming_legal(ctx: CompileContext) -> None:
    """After ``solve-retiming``: Definition 3.1 legality of the solution."""
    solution = ctx.get("retiming")
    vertex = solution.vertex_retiming
    for op_id, value in vertex.items():
        if value < 0:
            raise ValueError(f"negative retiming R({op_id}) = {value}")
    for key, value in solution.edge_retiming.items():
        producer, consumer = key
        if not vertex[consumer] <= value <= vertex[producer]:
            raise ValueError(
                f"edge retiming R{key} = {value} outside the legal band "
                f"[{vertex[consumer]}, {vertex[producer]}]"
            )


def check_schedule_semantics(ctx: CompileContext) -> None:
    """After ``emit-schedule``: the full periodic-schedule validation."""
    from repro.core.schedule import validate_periodic_schedule

    validate_periodic_schedule(
        ctx.get("schedule"), topology=ctx.shared_topology()
    )


def compile_invariant_hooks() -> Dict[str, List[Hook]]:
    """The standard pass-name → invariant-hook wiring (see module docs)."""
    return {
        "compact-kernel": [check_kernel_feasible],
        "analyze-edges": [check_theorem_bounds],
        "dp-allocate": [check_allocation_feasible],
        "liveness-reweight": [check_allocation_feasible],
        "solve-retiming": [check_retiming_legal],
        "emit-schedule": [check_schedule_semantics],
    }
