"""The heap-driven kernel compactor against the O(P) scan it replaced.

:func:`compact_kernel_schedule` picks, for each op, the PE that frees up
first, lowest index on ties. It keeps a ``(free_at, pe)`` heap; the
reference below is the linear ``min`` scan over every PE. Tie-heavy
graphs (few distinct execution times) make every pick a tie-break, so
any drift in the tie rule changes some op's ``(pe, start, finish)``.
"""

import random
from typing import Dict, Tuple

import pytest

from repro.core.scheduler import compact_kernel_schedule
from repro.graph.analysis import asap_levels
from repro.graph.taskgraph import TaskGraph


def scan_reference(
    graph: TaskGraph, num_pes: int, order: str
) -> Tuple[int, Dict[int, Tuple[int, int, int]]]:
    """Period and ``op -> (pe, start, finish)`` by the O(P) min scan."""
    if order == "topological":
        levels = asap_levels(graph)
        ordered = sorted(
            graph.operations(),
            key=lambda op: (levels[op.op_id], -op.execution_time, op.op_id),
        )
    else:
        ordered = sorted(
            graph.operations(), key=lambda op: (-op.execution_time, op.op_id)
        )
    free_at = [0] * num_pes
    placed: Dict[int, Tuple[int, int, int]] = {}
    for op in ordered:
        pe = min(range(num_pes), key=lambda k: (free_at[k], k))
        start = free_at[pe]
        free_at[pe] = start + op.execution_time
        placed[op.op_id] = (pe, start, free_at[pe])
    return max(free_at), placed


def tie_heavy_graph(seed: int) -> TaskGraph:
    """A random DAG whose execution times come from a two-value pool."""
    rng = random.Random(seed)
    pool = rng.choice([(1,), (1, 2), (2, 3), (4,)])
    n = rng.randint(1, 90)
    graph = TaskGraph(name=f"ties-{seed}")
    for op_id in range(n):
        graph.add_op(op_id, execution_time=rng.choice(pool))
    for consumer in range(1, n):
        for producer in rng.sample(range(consumer), min(consumer, rng.randint(0, 3))):
            graph.connect(producer, consumer, size_bytes=rng.randint(1, 4096))
    graph.validate()
    return graph


@pytest.mark.parametrize("order", ["topological", "lpt"])
@pytest.mark.parametrize("num_pes", [1, 2, 3, 16, 64])
@pytest.mark.parametrize("seed", range(12))
def test_heap_matches_scan(seed, num_pes, order):
    graph = tie_heavy_graph(seed)
    kernel = compact_kernel_schedule(graph, num_pes, order=order)
    period, expected = scan_reference(graph, num_pes, order)
    assert kernel.period == period
    assert {
        op_id: (p.pe, p.start, p.finish)
        for op_id, p in kernel.placements.items()
    } == expected


def test_equal_ops_fill_pes_in_index_order():
    graph = TaskGraph(name="flat")
    for op_id in range(7):
        graph.add_op(op_id, execution_time=2)
    kernel = compact_kernel_schedule(graph, 3)
    assert [kernel.placements[i].pe for i in range(7)] == [0, 1, 2, 0, 1, 2, 0]
    assert kernel.period == 6
