"""The width-invariant edge table and the passes that read it.

:class:`EdgeTable` prices every edge once per (graph, machine); the
per-width passes clamp those prices to the period and read kernel
offsets. These tests pin that the table-driven code keeps every error
path and message, that passing the table and letting a function build
its own give the same answer, and that a width search builds the table
and sorts the graph once, not once per candidate width.
"""

import pytest

from repro.cnn import load_workload
from repro.compiler.pipeline import transfer_critical_path
from repro.core.paraconv import ParaConv
from repro.core.retiming import (
    EdgeTable,
    RetimingError,
    analyze_edges,
    placement_deltas,
    required_retiming,
    solve_retiming,
)
from repro.core.schedule import (
    KernelSchedule,
    PeriodicSchedule,
    PlacedOp,
    ScheduleError,
    validate_periodic_schedule,
)
from repro.core.scheduler import compact_kernel_schedule
from repro.graph.analysis import critical_path_length
from repro.graph.taskgraph import GraphTopology, TaskGraph
from repro.pim.config import PimConfig
from repro.pim.memory import Placement


class InvertedConfig(PimConfig):
    """A machine whose eDRAM path is faster than its cache."""

    def edram_transfer_units(self, size_bytes: int) -> int:
        return 0


def pair_graph(size_bytes: int = 512) -> TaskGraph:
    graph = TaskGraph(name="pair")
    graph.add_op(0, execution_time=1)
    graph.add_op(1, execution_time=1)
    graph.connect(0, 1, size_bytes=size_bytes)
    graph.validate()
    return graph


class TestEdgeTable:
    def test_rows_are_raw_prices_in_insertion_order(self, diamond_graph):
        config = PimConfig(num_pes=4, cache_bytes_per_unit=512)
        table = EdgeTable.build(diamond_graph, config)
        assert [row[0] for row in table.rows] == [
            e.key for e in diamond_graph.edges()
        ]
        for (key, producer, consumer, cache, edram, slots), edge in zip(
            table.rows, diamond_graph.edges()
        ):
            assert (producer, consumer) == key == edge.key
            assert cache == config.cache_transfer_units(edge.size_bytes)
            assert edram == config.edram_transfer_units(edge.size_bytes)
            assert slots == config.slots_required(edge.size_bytes)

    @pytest.mark.parametrize("name", ["cat", "flower", "protein"])
    @pytest.mark.parametrize("width", [2, 5, 16])
    def test_shared_table_matches_self_built_and_the_formula(self, name, width):
        graph = load_workload(name)
        config = PimConfig(num_pes=16)
        kernel = compact_kernel_schedule(graph, width)
        table = EdgeTable.build(graph, config)
        timings = analyze_edges(graph, kernel, config, table)
        assert timings == analyze_edges(graph, kernel, config)
        for (producer, consumer), timing in timings.items():
            finish, start = kernel.finish(producer), kernel.start(consumer)
            assert timing.delta_cache == required_retiming(
                finish, start, timing.transfer_cache, kernel.period
            )
            assert timing.delta_edram == required_retiming(
                finish, start, timing.transfer_edram, kernel.period
            )

    @pytest.mark.parametrize("name", ["cat", "car", "vgg16"])
    @pytest.mark.parametrize("floor", [1, 3, 40, 10_000])
    def test_critical_path_matches_forward_dp(self, name, floor):
        graph = load_workload(name)
        config = PimConfig(num_pes=32)
        expected = critical_path_length(
            graph,
            lambda edge: min(floor, config.cache_transfer_units(edge.size_bytes)),
        )
        table = EdgeTable.build(graph, config)
        assert transfer_critical_path(graph, config, floor, table) == expected
        assert transfer_critical_path(graph, config, floor) == expected


class TestAnalyzeEdgesErrors:
    @pytest.mark.parametrize("shared", [False, True])
    def test_inverted_hierarchy_names_the_edge(self, shared):
        graph = pair_graph(size_bytes=4 * 8192)
        config = InvertedConfig(num_pes=2)
        kernel = compact_kernel_schedule(graph, 2)
        table = EdgeTable.build(graph, config) if shared else None
        with pytest.raises(RetimingError) as info:
            analyze_edges(graph, kernel, config, table)
        assert str(info.value) == (
            "edge (0, 1): eDRAM transfer faster than cache "
            "(configuration inverts the memory hierarchy)"
        )

    @pytest.mark.parametrize("shared", [False, True])
    def test_theorem_bound_breach_names_the_edge(self, shared):
        graph = pair_graph()
        config = PimConfig(num_pes=2)
        # A producer finishing far past the period needs delta > 2.
        kernel = KernelSchedule(
            period=2,
            placements={0: PlacedOp(0, 0, 0, 5), 1: PlacedOp(1, 1, 0, 1)},
        )
        table = EdgeTable.build(graph, config) if shared else None
        with pytest.raises(RetimingError) as info:
            analyze_edges(graph, kernel, config, table)
        assert str(info.value) == (
            "edge (0, 1): required retiming exceeds Theorem 3.1 bound "
            "(cache=3, eDRAM=3)"
        )

    def test_non_positive_period_rejected(self):
        graph = pair_graph()
        with pytest.raises(RetimingError, match="period must be positive"):
            analyze_edges(graph, KernelSchedule(period=0), PimConfig(num_pes=2))

    def test_op_missing_from_kernel(self):
        graph = pair_graph()
        kernel = KernelSchedule(period=2, placements={0: PlacedOp(0, 0, 0, 1)})
        with pytest.raises(ScheduleError, match="op 1 missing from kernel"):
            analyze_edges(graph, kernel, PimConfig(num_pes=2))


class TestSolveRetimingErrors:
    @pytest.mark.parametrize("shared", [False, True])
    def test_missing_delta(self, diamond_graph, shared):
        topology = GraphTopology(diamond_graph) if shared else None
        with pytest.raises(RetimingError) as info:
            solve_retiming(diamond_graph, {(0, 1): 0}, topology)
        assert str(info.value) == (
            "missing deltas for edges: [(0, 2), (1, 3), (2, 3)]"
        )

    @pytest.mark.parametrize("shared", [False, True])
    def test_negative_delta(self, diamond_graph, shared):
        topology = GraphTopology(diamond_graph) if shared else None
        deltas = {e.key: 0 for e in diamond_graph.edges()}
        deltas[(2, 3)] = -1
        with pytest.raises(RetimingError) as info:
            solve_retiming(diamond_graph, deltas, topology)
        assert str(info.value) == "edge (2, 3): negative delta -1"

    def test_placement_deltas_pick_the_placed_tier(self, figure2_graph):
        config = PimConfig(num_pes=2, cache_bytes_per_unit=64)
        kernel = compact_kernel_schedule(figure2_graph, 2)
        timings = analyze_edges(figure2_graph, kernel, config)
        placements = {
            key: Placement.CACHE if key[0] == 0 else Placement.EDRAM
            for key in timings
        }
        assert placement_deltas(timings, placements) == {
            key: timing.delta_for(placements[key])
            for key, timing in timings.items()
        }


def diamond_schedule(graph: TaskGraph) -> PeriodicSchedule:
    """A valid hand schedule of the diamond at period 4 (all cached)."""
    retiming = {0: 2, 1: 1, 2: 1, 3: 0}
    keys = [e.key for e in graph.edges()]
    return PeriodicSchedule(
        graph=graph,
        kernel=KernelSchedule(
            period=4,
            placements={
                0: PlacedOp(0, 0, 0, 1),
                1: PlacedOp(1, 0, 1, 3),
                2: PlacedOp(2, 1, 0, 2),
                3: PlacedOp(3, 1, 2, 3),
            },
        ),
        retiming=retiming,
        edge_retiming={k: retiming[k[1]] for k in keys},
        placements={k: Placement.CACHE for k in keys},
        transfer_times={k: 0 for k in keys},
    )


def _period_zero(s):
    s.kernel.period = 0


def _unretimed(s):
    s.retiming.update({op: 0 for op in s.retiming})
    s.edge_retiming.update({key: 0 for key in s.edge_retiming})


def _late_producer(s):
    s.kernel.placements[0] = PlacedOp(0, 0, 0, 10)


#: ``(corruption, message)`` for every :class:`ScheduleError` the
#: periodic-schedule validator raises.
SCHEDULE_FAULTS = [
    (_period_zero, "period must be positive"),
    (lambda s: s.retiming.pop(3), "no retiming value for op 3"),
    (lambda s: s.retiming.update({3: -1}), "negative retiming for op 3"),
    (
        lambda s: s.placements.pop((0, 1)),
        "no placement for intermediate result (0, 1)",
    ),
    (
        lambda s: s.transfer_times.pop((0, 1)),
        "no transfer time for intermediate result (0, 1)",
    ),
    (
        lambda s: s.retiming.update({0: 0}),
        "edge (0, 1): R(i)=0 < R(j)=1 breaks the dependency",
    ),
    (lambda s: s.edge_retiming.pop((0, 1)), "edge (0, 1): missing R(i,j)"),
    (
        lambda s: s.edge_retiming.update({(0, 1): 5}),
        "edge (0, 1): illegal retiming R(i)=2 >= R(i,j)=5 >= R(j)=1 violated",
    ),
    (
        lambda s: s.transfer_times.update({(0, 1): 5}),
        "edge (0, 1): transfer time 5 exceeds period 4 "
        "(Theorem 3.1 requires c_ij <= p)",
    ),
    (
        _late_producer,
        "edge (0, 1): required relative retiming 3 exceeds the Theorem 3.1 "
        "bound of 2",
    ),
    (
        _unretimed,
        "edge (0, 2): data arrives at offset 1 but consumer starts at 0 "
        "(delta=0, p=4)",
    ),
    (lambda s: s.kernel.placements.pop(1), "op 1 missing from kernel"),
]


class TestValidatePeriodicScheduleErrors:
    @pytest.mark.parametrize("shared", [False, True])
    def test_valid_schedule_passes(self, diamond_graph, shared):
        topology = GraphTopology(diamond_graph) if shared else None
        validate_periodic_schedule(
            diamond_schedule(diamond_graph), topology=topology
        )

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize(
        "corrupt,message",
        SCHEDULE_FAULTS,
        ids=[message.split(":")[-1].strip()[:32] for _, message in SCHEDULE_FAULTS],
    )
    def test_each_fault_raises_its_message(
        self, diamond_graph, corrupt, message, shared
    ):
        schedule = diamond_schedule(diamond_graph)
        corrupt(schedule)
        topology = GraphTopology(diamond_graph) if shared else None
        with pytest.raises(ScheduleError) as info:
            validate_periodic_schedule(schedule, topology=topology)
        assert str(info.value) == message


class TestPaidOncePerSearch:
    @pytest.mark.parametrize("liveness_aware", [False, True])
    def test_table_built_and_graph_sorted_once(
        self, monkeypatch, liveness_aware
    ):
        graph = load_workload("cat")
        builds = []
        sorts = []
        build = EdgeTable.build.__func__
        sort = TaskGraph.topological_order

        def counting_build(cls, *args, **kwargs):
            builds.append(1)
            return build(cls, *args, **kwargs)

        def counting_sort(self):
            sorts.append(1)
            return sort(self)

        monkeypatch.setattr(EdgeTable, "build", classmethod(counting_build))
        monkeypatch.setattr(TaskGraph, "topological_order", counting_sort)
        result = ParaConv(
            PimConfig(num_pes=64), liveness_aware=liveness_aware
        ).run(graph)
        explored = result.compile_stats.num_explored
        assert explored > 3
        assert len(builds) == 1
        # graph.validate(), the ASAP levels and the shared topology.
        assert len(sorts) == 3
