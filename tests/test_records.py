"""The package's records are named tuples, not dataclasses: importing gwsim
loads no dataclass machinery, and every field stays read-only after
construction."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gwsim.cli
from gwsim.measurement import ideal_von_neumann
from gwsim.models import (
    InterpretationModel,
    SweepReport,
    erasure_experiment,
    run_model,
)
from gwsim.qmath import BasisGroup, Operator, StateVector, layout
from gwsim.scenario import (
    ParityConstraint,
    analyze_stack,
    build_schedule,
    order_events,
)
from gwsim.spacetime import CheckResult, Frame, SpacetimePoint
from gwsim.systems import SupportEntry

from _oracles import door_observable


def _records() -> dict:
    """One instance of each record type, with the field the test assigns to."""
    schedule = build_schedule(10.0, 1.0)
    frames = schedule.frames
    model = ideal_von_neumann()
    preferred = InterpretationModel("round_born", "sigma")
    state = StateVector(layout("A"), np.array([1.0, 0.0]))
    (table, *_) = analyze_stack(model, {"sigma": order_events(schedule, frames["sigma"])})
    return {
        "FactorLayout": (layout("A"), "names"),
        "StateVector": (state, "amplitudes"),
        "Operator": (Operator(np.eye(2)), "matrix"),
        "BasisGroup": (BasisGroup(("A",), (+1, -1), np.eye(2)), "vectors"),
        "SupportEntry": (SupportEntry((+1,), 1.0), "amplitude"),
        "MeasurementModel": (model, "site_unitaries"),
        "Observable": (door_observable(), "eigenpairs"),
        "SpacetimePoint": (SpacetimePoint(0.0, (0.0, 0.0)), "t"),
        "Frame": (frames["sigma_p"], "velocity"),
        "GeometrySpec": (schedule.geometry, "t1"),
        "CheckResult": (CheckResult("check", True, ""), "passed"),
        "MeasurementEvent": (schedule.events[0], "site"),
        "Schedule": (schedule, "frames"),
        "ParityConstraint": (ParityConstraint(("x_A",), 1), "slots"),
        "RoundTable": (table, "weights"),
        "InterpretationModel": (preferred, "mode"),
        "RunReport": (run_model(schedule, model, preferred, 10, 1), "counts"),
        "ErasureReport": (erasure_experiment(10, 1), "down_frequency"),
        "SweepReport": (SweepReport(True, 0, [True]), "support_ok"),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assigning_to_a_field_raises(name):
    record, field = RECORDS[name]
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before
    with pytest.raises(AttributeError):  # no instance dict to take new attributes either
        record.extra = None


def test_importing_the_cli_loads_no_dataclasses():
    src = str(Path(gwsim.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, gwsim.cli; sys.exit('dataclasses' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, timeout=120
    )
    assert proc.returncode == 0


def test_validated_records_compare_and_hash_by_their_normalised_fields():
    a = ParityConstraint(("x_C", "z_A", "x_B"), -1)
    assert a.slots == ("z_A", "x_B", "x_C")
    assert {a, ParityConstraint(("x_B", "x_C", "z_A"), -1)} == {a}
    assert Frame((0.1, 0.0)) == Frame((0.1, 0.0)) != Frame((0.0, 0.1))
    assert len({Frame((0.1, 0.0)), Frame((0.1, 0.0))}) == 1
