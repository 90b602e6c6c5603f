"""LOCAL model substrate: graphs, identifiers, views, simulator, metrics."""

from .algorithm import (
    CONTINUE,
    BatchedAlgorithm,
    CommitSchedule,
    LocalAlgorithm,
    View,
)
from .frontier import BatchedViews, FrontierScheduler
from .graph import (
    Graph,
    balanced_tree,
    cycle_graph,
    disjoint_union,
    from_networkx,
    grid_graph,
    path_graph,
    star_graph,
    to_networkx,
)
from .ids import (
    ID_MODES,
    IdMode,
    bit_reversal_ids,
    boundary_clustered_ids,
    descending_ids,
    id_space_size,
    make_ids,
    random_ids,
    sequential_ids,
    validate_ids,
)
from .message import MessageAlgorithm, NodeInfo, run_message_dynamics
from .metrics import ExecutionTrace, node_averaged, worst_case
from .simulator import ENGINES, LocalSimulator, SimulationError

__all__ = [
    "CONTINUE",
    "BatchedAlgorithm",
    "BatchedViews",
    "CommitSchedule",
    "FrontierScheduler",
    "LocalAlgorithm",
    "View",
    "Graph",
    "balanced_tree",
    "cycle_graph",
    "disjoint_union",
    "from_networkx",
    "grid_graph",
    "path_graph",
    "star_graph",
    "to_networkx",
    "ID_MODES",
    "IdMode",
    "bit_reversal_ids",
    "boundary_clustered_ids",
    "descending_ids",
    "id_space_size",
    "make_ids",
    "random_ids",
    "sequential_ids",
    "validate_ids",
    "MessageAlgorithm",
    "NodeInfo",
    "run_message_dynamics",
    "ExecutionTrace",
    "node_averaged",
    "worst_case",
    "ENGINES",
    "LocalSimulator",
    "SimulationError",
]
