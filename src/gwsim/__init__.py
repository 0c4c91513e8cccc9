"""State-vector simulator for a three-laboratory GHZ experiment with nested
observers, frame-dependent measurement schedules, and single-outcome
interpretation models."""

from .measurement import (
    MeasurementModel,
    Observable,
    distinguishability_report,
    haar_random_unitary,
    ideal_von_neumann,
)
from .models import (
    InterpretationModel,
    RunReport,
    erasure_experiment,
    nonideal_sweep,
    run_model,
)
from .qmath import Operator, StateVector
from .scenario import (
    ParityConstraint,
    Schedule,
    build_schedule,
    collect_constraints,
    enumerate_assignments,
    order_events,
)
from .spacetime import (
    Frame,
    GeometrySpec,
    SpacetimePoint,
    boost_for_simultaneity,
    frame_time,
    interval,
    standard_geometry,
    tilted_frames,
    validate_geometry,
)
from .systems import SpinAxis, LabLabel, ghz_state, initial_scenario_state

__version__ = "0.1.0"

__all__ = [
    "Frame",
    "GeometrySpec",
    "InterpretationModel",
    "LabLabel",
    "MeasurementModel",
    "Observable",
    "Operator",
    "ParityConstraint",
    "RunReport",
    "Schedule",
    "SpacetimePoint",
    "SpinAxis",
    "StateVector",
    "boost_for_simultaneity",
    "build_schedule",
    "collect_constraints",
    "distinguishability_report",
    "enumerate_assignments",
    "erasure_experiment",
    "frame_time",
    "ghz_state",
    "haar_random_unitary",
    "ideal_von_neumann",
    "initial_scenario_state",
    "interval",
    "nonideal_sweep",
    "order_events",
    "run_model",
    "standard_geometry",
    "tilted_frames",
    "validate_geometry",
]
