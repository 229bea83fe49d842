"""Periodic task-graph application model (paper Section 2.2).

A CNN application is modelled as a weighted directed acyclic graph
``G = (V, E, P, R)`` executed periodically:

* vertices are convolution / pooling operations (:class:`Operation`),
* edges carry intermediate processing results (:class:`IntermediateResult`),
* ``P`` associates each intermediate result with placement profits
  (on-chip cache vs. stacked eDRAM),
* ``R`` is the retiming function computed by :mod:`repro.core.retiming`.
"""

from repro.graph.taskgraph import (
    GraphTopology,
    GraphValidationError,
    IntermediateResult,
    Operation,
    OperationKind,
    TaskGraph,
)
from repro.graph.instances import OperationInstance, IntermediateInstance, unroll
from repro.graph.generators import (
    SyntheticGraphGenerator,
    generate_series_parallel,
    synthetic_benchmark,
)
from repro.graph.analysis import (
    critical_path,
    critical_path_length,
    degree_histogram,
    graph_statistics,
    max_parallelism,
    parallelism_profile,
)
from repro.graph.io import graph_from_dict, graph_from_json, graph_to_dict, graph_to_json
from repro.graph.randwired import (
    RandwiredSpec,
    barabasi_albert_dag,
    erdos_renyi_dag,
    randwired_benchmark,
    randwired_graph,
    watts_strogatz_dag,
)
from repro.graph.transforms import coarsen_chains, fuse_stages

__all__ = [
    "coarsen_chains",
    "fuse_stages",
    "GraphTopology",
    "GraphValidationError",
    "IntermediateInstance",
    "IntermediateResult",
    "Operation",
    "OperationInstance",
    "OperationKind",
    "RandwiredSpec",
    "SyntheticGraphGenerator",
    "TaskGraph",
    "barabasi_albert_dag",
    "critical_path",
    "critical_path_length",
    "degree_histogram",
    "erdos_renyi_dag",
    "generate_series_parallel",
    "graph_from_dict",
    "graph_from_json",
    "graph_statistics",
    "graph_to_dict",
    "graph_to_json",
    "max_parallelism",
    "parallelism_profile",
    "randwired_benchmark",
    "randwired_graph",
    "synthetic_benchmark",
    "unroll",
    "watts_strogatz_dag",
]
