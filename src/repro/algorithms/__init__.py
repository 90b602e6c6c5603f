"""The paper's algorithms: upper bounds, decompositions, and baselines."""

from .baselines import WaitForWholeGraph, run_naive_weighted25
from .dfree_solver import (
    DFreeAlgorithmA,
    DFreeSolution,
    astar_assignment,
    dfree_radius,
    optimal_copy_assignment,
    run_algorithm_a,
)
from .fast_decomposition import run_fast_dfree
from .generic_message import GenericPhaseColoring
from .generic_phases import (
    default_gammas_25,
    default_gammas_35,
    phase_schedule,
    run_generic_fast_forward,
)
from .labeling_solver import (
    LabelingSolution,
    run_weight_augmented_solver,
    solve_hierarchical_labeling,
)
from .schedule_replay import ScheduleReplay, replay_apoly, replay_weighted35
from .rake_compress import (
    Decomposition,
    Layer,
    RakeCompressLayering,
    gamma_for_k_layers,
    rake_compress,
    validate_decomposition,
)
from .symmetry_breaking import (
    CanonicalTwoColoring,
    ColeVishkin3Coloring,
    cv_iterations,
    cv_total_rounds,
    three_color_path,
    two_coloring_fast_forward,
)
from .weighted25 import apoly_gammas, run_a35, run_apoly, run_weighted_solver
from .weighted35 import run_weighted35

__all__ = [
    "WaitForWholeGraph",
    "run_naive_weighted25",
    "DFreeAlgorithmA",
    "DFreeSolution",
    "astar_assignment",
    "dfree_radius",
    "optimal_copy_assignment",
    "run_algorithm_a",
    "run_fast_dfree",
    "GenericPhaseColoring",
    "default_gammas_25",
    "default_gammas_35",
    "phase_schedule",
    "run_generic_fast_forward",
    "LabelingSolution",
    "run_weight_augmented_solver",
    "solve_hierarchical_labeling",
    "ScheduleReplay",
    "replay_apoly",
    "replay_weighted35",
    "Decomposition",
    "Layer",
    "RakeCompressLayering",
    "gamma_for_k_layers",
    "rake_compress",
    "validate_decomposition",
    "CanonicalTwoColoring",
    "ColeVishkin3Coloring",
    "cv_iterations",
    "cv_total_rounds",
    "three_color_path",
    "two_coloring_fast_forward",
    "apoly_gammas",
    "run_a35",
    "run_apoly",
    "run_weighted_solver",
    "run_weighted35",
]
