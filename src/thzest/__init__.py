"""Wideband THz MIMO channel simulation and beam-split-aware estimation."""

from .arrays import (
    ArrayConfig,
    Dictionary,
    Direction,
    SubcarrierGrid,
    build_dictionary,
    fraunhofer_distance,
    steering,
)
from .channel import (
    ChannelRealization,
    PathParams,
    PilotObservation,
    gen_channel,
    gen_pilot_matrix,
    observe,
)
from .sbce import SbceResult, run_sbce
from .harness import ExperimentConfig, nmse, run_sweep

__all__ = [
    "ArrayConfig", "Dictionary", "Direction", "SubcarrierGrid",
    "build_dictionary", "fraunhofer_distance", "steering",
    "ChannelRealization", "PathParams", "PilotObservation",
    "gen_channel", "gen_pilot_matrix", "observe",
    "SbceResult", "run_sbce",
    "ExperimentConfig", "nmse", "run_sweep",
]
