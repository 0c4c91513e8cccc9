import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import _oracles
import gwsim.cli
import gwsim.measurement
import gwsim.models
import gwsim.scenario
import gwsim.systems
from gwsim.cli import (
    COMMANDS,
    ConfigError,
    DEFAULT_CONFIG,
    FLAGS,
    _parse_model_spec,
    load_config,
    main,
    parse_args,
)
from gwsim.models import MAX_MODELS, MAX_TRIALS, MODES
from gwsim.scenario import FRAME_NAMES
import gwsim.spacetime
from gwsim.spacetime import (
    MAX_SPEED,
    boost_for_simultaneity,
    standard_geometry,
    tilted_frame_events,
)
from test_fuzz import FLAG_VALUES

REPORT_KEYS = {"schema_version", "command", "config", "results", "checks", "passed"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def check_names(report):
    return {c["name"]: c["passed"] for c in report["checks"]}


class TestConfigLoading:
    def test_defaults(self):
        config = load_config(None)
        assert config == DEFAULT_CONFIG
        config["geometry"]["side"] = 99.0
        assert DEFAULT_CONFIG["geometry"]["side"] == 10.0

    def test_file_merges_over_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"geometry": {"side": 25.0}, "run": {"trials": 7}}))
        config = load_config(str(path))
        assert config["geometry"]["side"] == 25.0
        assert config["geometry"]["tau"] == 1.0
        assert config["run"]["trials"] == 7
        assert config["run"]["mode"] == "round_born"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"geometry": {"sides": 25.0}}))
        with pytest.raises(ConfigError, match="unknown config key 'geometry.sides'"):
            load_config(str(path))

    def test_section_must_be_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"geometry": 5}))
        with pytest.raises(ConfigError, match="must be an object"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "content",
        [b"\xff{}", b'{"run": {"trials": 1' + b"0" * 5000 + b"}}"],
        ids=["invalid-utf-8", "integer-past-the-digit-limit"],
    )
    def test_every_decode_failure_names_the_config_file(self, capsys, tmp_path, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: config file is not valid JSON: ")

    def test_model_spec_parsing(self):
        assert _parse_model_spec("ideal") == {"kind": "ideal", "seed": 0}
        assert _parse_model_spec("random:42") == {"kind": "random", "seed": 42}
        with pytest.raises(ConfigError, match="random:<int>"):
            _parse_model_spec("random:xyz")
        with pytest.raises(ConfigError, match="bad model spec"):
            _parse_model_spec("perfect")


class TestGhzNogo:
    def test_happy_path(self, capsys):
        code, report = run_json(capsys, "ghz-nogo")
        assert code == 0
        assert set(report) == REPORT_KEYS
        assert report["schema_version"] == "12"
        assert report["command"] == "ghz-nogo"
        assert report["passed"] is True
        assert len(report["results"]["constraints"]) == 4
        assert report["results"]["satisfying_assignments"] == 0
        assert report["results"]["dropped_constraint"] is None
        tables = report["results"]["support_tables"]
        assert len(tables) == 4
        for table in tables:
            assert len(table["entries"]) == 4
            for entry in table["entries"]:
                assert entry["probability"] == 0.25  # exact for the ideal device
        assert check_names(report) == {
            "support_tables_quarter": True,
            "constraint_count": True,
            "unsatisfiable": True,
        }

    def test_drop_constraint(self, capsys):
        code, report = run_json(capsys, "ghz-nogo", "--drop-constraint", "2")
        assert code == 0
        assert report["results"]["satisfying_assignments"] == 8
        assert report["results"]["dropped_constraint"] is not None
        assert check_names(report)["dropped_constraint_leaves_eight"] is True

    @pytest.mark.parametrize("bad", ["0", "5"])
    def test_drop_constraint_out_of_range(self, capsys, bad):
        code, out, err = run_cli(capsys, "ghz-nogo", "--drop-constraint", bad)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_random_model(self, capsys):
        code, report = run_json(capsys, "ghz-nogo", "--model", "random:5")
        assert code == 0
        assert report["config"]["model"] == {"kind": "random", "seed": 5}

    def test_bad_model_spec(self, capsys):
        code, out, err = run_cli(capsys, "ghz-nogo", "--model", "perfect")
        assert code == 2
        assert "bad model spec" in err


class TestDistinguish:
    def test_happy_path(self, capsys):
        code, report = run_json(capsys, "distinguish")
        assert code == 0
        dists = report["results"]["distributions"]
        assert dists["door"]["unitary_record"] == pytest.approx(
            dists["door"]["collapsed_record"], abs=1e-12
        )
        assert dists["pair_x"]["unitary_record"]["+1"] == pytest.approx(1.0, abs=1e-10)
        assert dists["pair_x"]["collapsed_record"]["+1"] == pytest.approx(0.5, abs=1e-10)
        assert dists["pair_x"]["collapsed_record"]["-1"] == pytest.approx(0.5, abs=1e-10)
        assert all(check_names(report).values())

    def test_the_ideal_device_prints_exact_probabilities(self, capsys):
        code, report = run_json(capsys, "distinguish")
        assert code == 0
        dists = report["results"]["distributions"]
        half = {"+1": 0.5, "-1": 0.5, "0": 0.0}
        assert dists["door"] == {"unitary_record": half, "collapsed_record": half}
        assert dists["pair_x"] == {
            "unitary_record": {"+1": 1.0, "-1": 0.0, "0": 0.0},
            "collapsed_record": half,
        }

    def test_a_random_device_lets_the_door_see_the_branch_coherence(self, capsys):
        # A non-ideal recorder leaves the branches' coherence in the lab, so the
        # door's rows differ between the unitary and the collapsed record.
        code, report = run_json(capsys, "distinguish", "--model", "random:7")
        assert code == 1
        assert check_names(report) == {
            "door_rows_equal": False,
            "pair_x_unitary_point_mass": True,
            "pair_x_collapsed_even": True,
        }


class TestFrames:
    def test_happy_path(self, capsys):
        code, report = run_json(capsys, "frames")
        assert code == 0
        frames = report["results"]["frames"]
        assert set(frames) == {"sigma", "sigma_p", "sigma_pp", "sigma_ppp"}
        assert frames["sigma"]["speed"] == 0.0
        assert frames["sigma_p"]["speed"] == pytest.approx(
            1.0 / (5.0 * 3.0**0.5), abs=1e-9
        )
        orderings = report["results"]["orderings"]
        assert len(orderings["sigma"]) == 2
        assert len(orderings["sigma_p"]) == 3
        assert check_names(report)["tilted_speeds_equal"] is True

    def test_invalid_geometry_fails_checks(self, capsys):
        code, report = run_json(capsys, "frames", "--tau", "20")
        assert code == 1
        assert report["passed"] is False
        names = check_names(report)
        assert names["geometry_epoch_shorter_than_separation"] is False
        assert "frames" not in report["results"]

    @pytest.mark.parametrize("command", ["frames", "ghz-nogo", "run", "sweep"])
    def test_nonpositive_side_is_a_config_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--side", "-3")
        assert code == 2
        assert out == ""
        assert err == "error: side must be positive, got -3.0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["frames", "--side", "1e300", "--tau", "1e-300"],
            ["frames", "--side", "10", "--tau", "1e-320"],
            ["sweep", "--tau", "1e-320"],
            ["frames", "--side", "1", "--tau", "1e-308"],
        ],
    )
    def test_a_subnormal_tilted_boost_speed_is_a_config_error(self, capsys, argv):
        # tau/(side·√3/2) underflows, and no float frame can be solved for.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: tau must keep the tilted boost speed")

    def test_a_tiny_normal_tilted_boost_speed_passes(self, capsys):
        code, report = run_json(capsys, "frames", "--side", "1", "--tau", "1e-300")
        assert code == 0
        assert report["passed"] is True

    @pytest.mark.parametrize("tau", ["0", "-1e-320", "-1"])
    def test_a_nonpositive_tau_fails_the_epoch_check(self, capsys, tau):
        code, report = run_json(capsys, "frames", f"--tau={tau}")
        assert code == 1
        assert check_names(report)["geometry_equal_epochs"] is False

    def test_superluminal_tilted_frames_are_reported(self, capsys):
        # tau < side, but the tilted boosts would need speed 8.7 / (10·√3/2) > 1.
        code, report = run_json(capsys, "frames", "--side", "10", "--tau", "8.7")
        assert code == 1
        names = check_names(report)
        assert names["geometry_epoch_shorter_than_separation"] is True
        assert names["geometry_tilted_frames_subluminal"] is False
        (check,) = [c for c in report["checks"] if c["name"] == "geometry_tilted_frames_subluminal"]
        assert check["detail"].endswith(f"(need ≤ {MAX_SPEED!r})")
        assert "frames" not in report["results"]

    def test_smallest_normal_scale_passes(self, capsys):
        code, report = run_json(capsys, "frames", "--side", "1e-300", "--tau", "1e-301")
        assert code == 0
        assert report["passed"] is True

    def test_an_unbounded_boost_fails_its_check_without_a_warning(self, capsys):
        # The suite turns any RuntimeWarning into an error.
        code, report = run_json(capsys, "frames", "--side", "1e-300", "--tau", "1e10")
        assert code == 1
        assert check_names(report)["geometry_tilted_frames_subluminal"] is False

    def test_a_boost_failing_simultaneity_fails_the_tilted_check(self, capsys):
        # The tilted speed is a normal float, but tau keeps too few bits for
        # the solved boost to make its three events simultaneous.
        code, report = run_json(capsys, "frames", "--side", "1e-10", "--tau", "1.92697e-318")
        assert code == 1
        failed = [c for c in report["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["geometry_tilted_frames_subluminal"]
        assert failed[0]["detail"].endswith("; solved boost fails the simultaneity check")

    @pytest.mark.parametrize("geometry", [("10", "8.7"), ("1e-10", "1.92697e-318")])
    @pytest.mark.parametrize("command", ["ghz-nogo", "run", "sweep"])
    def test_unbuildable_tilted_frames_are_rejected_by_name(self, capsys, command, geometry):
        code, out, err = run_cli(capsys, command, "--side", geometry[0], "--tau", geometry[1])
        assert code == 2
        assert out == ""
        assert "tilted_frames_subluminal" in err

    @pytest.mark.parametrize(
        "argv", [["frames"], ["ghz-nogo"], ["run", "--trials", "100"], ["sweep", "--models", "3"]]
    )
    def test_tiny_epochs_give_passing_reports(self, capsys, argv):
        # Rounds group frame times relative to the frame's time scale, so a
        # tau of 1e-9 orders the events as tau = 1 does.
        code, out, err = run_cli(capsys, *argv, "--tau", "1e-9")
        assert code == 0, err
        assert err == ""
        assert json.loads(out)["passed"] is True


# tau / side where the tilted boosts reach the fastest speed a Frame allows,
# where cross-lab measurements stop being spacelike, and where the tilted
# boost speed falls to the smallest normal float.
_TAU_BOUNDS = (MAX_SPEED * math.sqrt(3.0) / 2.0, 1.0, sys.float_info.min * math.sqrt(3.0) / 2.0)


@settings(max_examples=150, deadline=None)
@given(
    side=st.floats(1e-12, 1e4),
    bound=st.sampled_from(_TAU_BOUNDS),
    offset=st.one_of(st.floats(-1e-3, 1e-3), st.floats(-1e-13, 1e-13)),
)
def test_frames_reports_every_geometry_near_the_bounds(side, bound, offset):
    tau = side * bound * (1.0 + offset)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["frames", "--side", repr(side), "--tau", repr(tau)])
    try:
        geometry = standard_geometry(side, tau)
    except ValueError as exc:
        # Below the last bound the geometry itself is rejected.
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {exc}\n")
        return
    assert code in (0, 1), err.getvalue()
    assert err.getvalue() == ""
    checks = {c["name"]: c["passed"] for c in json.loads(out.getvalue())["checks"]}
    try:
        [boost_for_simultaneity(*events) for events in tilted_frame_events(geometry)]
        built = True
    except ValueError:
        built = False
    assert checks["geometry_tilted_frames_subluminal"] == built


@pytest.mark.parametrize(
    "argv, code, solves",
    [
        (["run", "--trials", "100", "--mode", "round_born"], 0, 3),
        (["run", "--trials", "100", "--mode", "sequential_collapse"], 0, 3),
        (["sweep", "--models", "3"], 0, 3),
        (["ghz-nogo"], 0, 3),
        (["frames"], 0, 3),
        # Superluminal tilted frames: each failed boost is solved once more
        # for the speed the check prints.
        (["frames", "--tau", "9"], 1, 6),
    ],
    ids=["round_born", "sequential_collapse", "sweep", "ghz-nogo", "frames", "frames-failing"],
)
def test_each_tilted_frame_is_solved_once(capsys, monkeypatch, argv, code, solves):
    # Each tilted frame is solved and boosted once, for the geometry
    # checks and the schedule's frames both.
    counts = {"_simultaneity_velocity": 0, "boost_for_simultaneity": 0}
    for name in counts:
        original = getattr(gwsim.spacetime, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(gwsim.spacetime, name, counted)
    assert run_json(capsys, *argv)[0] == code
    assert counts == {"_simultaneity_velocity": solves, "boost_for_simultaneity": 3}


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--trials", "100", "--mode", "round_born"],
        ["run", "--trials", "100", "--mode", "sequential_collapse"],
        ["ghz-nogo"],
    ],
    ids=["round_born", "sequential_collapse", "ghz-nogo"],
)
def test_the_ideal_device_needs_no_numpy_linalg(capsys, monkeypatch, argv):
    # The geometry is solved in closed form and the ideal device is a fixed
    # permutation, so neither least squares nor QR (nor any other routine
    # of numpy.linalg) runs.
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy.linalg routine ran")

    routines = [name for name in np.linalg.__all__ if not inspect.isclass(getattr(np.linalg, name))]
    assert {"lstsq", "qr"} <= set(routines)
    for name in routines:
        monkeypatch.setattr(np.linalg, name, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--trials", "100", "--mode", "round_born"],
        ["run", "--trials", "100", "--mode", "sequential_collapse"],
        ["ghz-nogo"],
    ],
    ids=["round_born", "sequential_collapse", "ghz-nogo"],
)
def test_the_ideal_device_path_runs_on_python_numbers(capsys, monkeypatch, argv):
    # After the device's one run on the pair (``apply_local``), the frame
    # pass, the outcome tables, the violation mask and the tallies are tuples
    # of Python numbers, built with none of these numpy array ops.
    def refuse(*args, **kwargs):
        raise AssertionError("an array op ran on the ideal-device path")

    for name in ("outer", "where", "maximum", "empty", "stack"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(np, "multiply", types.SimpleNamespace(outer=refuse))
    seen = {"apply_local": [], "collect_constraints": [], "run_model": []}

    def recording(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            seen[name].append(result := original(*args))
            return result

        monkeypatch.setattr(module, name, wrapper)

    recording(gwsim.scenario, "apply_local")
    recording(gwsim.cli, "collect_constraints")
    recording(gwsim.models, "collect_constraints")
    recording(gwsim.cli, "run_model")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(seen["apply_local"]) == 1

    def python_numbers(values, kind):
        return isinstance(values, tuple) and all(type(v) is kind for v in values)

    ((analysed, _),) = seen["collect_constraints"]
    assert len(analysed) == 11
    for table in analysed:
        assert python_numbers(table.weights, float) and python_numbers(table.possible, bool)
        assert type(table.product) is int
    if argv[0] == "run":
        (report,) = seen["run_model"]
        assert python_numbers(report.probabilities, float) and len(report.probabilities) == 64
        assert python_numbers(report.counts, int) and sum(report.counts) == 100
        assert len(report.violation_mask) == 64
        assert all(python_numbers(row, bool) and len(row) == 4 for row in report.violation_mask)
        assert python_numbers(report.violation_counts, int)
        assert python_numbers(report.exact_rates, float)
        assert type(report.exact_nonpreferred_probability) is float


# SHA-256 of stdout and the exit code per command line. A change that moves
# a byte edits its pin and says why.
#
# Exact pins: the ideal device's reports. Every number they print is an exact
# dyadic fraction or an integer, and the sweep prints only verdicts, so these
# digests hold on any platform.
PINNED_DIGESTS = [
    ("sweep --models 60 --seed 1 --format json", 0, "6fc5a79b8bc9654f9c76961629e0ec68bdf43b182bc6bad0a274cd7b41317db5"),
    ("sweep --models 60 --seed 1 --format text", 0, "d6f42495183c615d00db4aa09cccd1a9b901d2ac10a2be436de613b938ceacc1"),
    ("run --mode round_born --trials 10000 --seed 1 --format json", 0, "d7bb2ada00224d53fdc244cba4824a8030ecb8cda896e4e6bd1ba70485ca5293"),
    ("run --mode round_born --trials 10000 --seed 1 --format text", 0, "c63758d2a091c1741e05a7bc69e42ac09f9afa02f075a9da80d9cc126539105d"),
    ("run --mode sequential_collapse --trials 600 --seed 1 --format json", 0, "3cb88670541120112d56ec1a28b4e4fd3df4f9cdc66819c923bc13a2d7441db8"),
    ("run --mode sequential_collapse --trials 600 --seed 1 --format text", 0, "a3e890fb65f37162acbdeb3f1913cf2dd0e1c2a0bf0342d9f314bf006b036f9f"),
    ("erasure --trials 2000 --seed 1 --format json", 0, "fed07c1ac33efb8e39506e05a5834727cc7e76acc9942ffde9dbda52e13bb7eb"),
    ("erasure --trials 2000 --seed 1 --format text", 0, "190ba532bfd79a1c3a2bfec9eb1a3623568991f1e14ba93c51a7bb38f15c03a1"),
    ("ghz-nogo --format json", 0, "144f9262ae779269ae63ade104bf17ec44db02b09593e8ee69fde043afe0b4ce"),
    ("ghz-nogo --format text", 0, "14605ca7e2ecd6fea3f84103b99e29c3d93b699c37a960b60d67a95f1d0ae1b3"),
    ("frames --format json", 0, "90e8a1da4e07ac5f3ad42d237740243d65366cdae4868e169f5593bcba8aca98"),
    ("frames --format text", 0, "e20cad287ea3ed625c5048e479a3f371a41d13801306b1218f8fc7756e69dad5"),
    ("distinguish --format json", 0, "b6c4ae514e4a4a4cda429b98d3f814f7203575a334cd51500da8cff6196f5360"),
    ("distinguish --format text", 0, "218f9bdadda73fab5d451862d65e778706cd94634af1eba0da413748142baeff"),
    # The four benchmark workloads' command lines at another seed.
    ("sweep --models 60 --seed 2 --format json", 0, "b34d497ab2a1ad424056d413c9f9551c9e05d38516b0711e6ba73b8e4ec65ac7"),
    ("sweep --models 60 --seed 2 --format text", 0, "a67dfa8d06df0ae800d65549521238b4c4486e0548fe866071d436f26b25f6eb"),
    ("run --mode round_born --trials 10000 --seed 2 --format json", 0, "e3a5770d2c201d072deced1726d0f5dcb638275443910cd06acaa7be15b72743"),
    ("run --mode round_born --trials 10000 --seed 2 --format text", 0, "6587097876719235c80c750a65ed30195c1f264b5876a7db136d398e1ab1dab5"),
    ("run --mode sequential_collapse --trials 600 --seed 2 --format json", 0, "f0103c3bce2509a56419206b69965ae07ded858c5e253c799709c78bd81d6ef0"),
    ("run --mode sequential_collapse --trials 600 --seed 2 --format text", 0, "88d48da812e7caafa0c12b7a7114471bdaab41ea34733a81c50781f47068a561"),
    ("erasure --trials 2000 --seed 2 --format json", 0, "850b7b428a5c073f66ada0155f0839d853f63a7587d2147045e7ece6e089dc53"),
    ("erasure --trials 2000 --seed 2 --format text", 0, "79f450b28f94e5ab21c483c21d1fa728b065bab95fe7d8fe7a2a8c87b4cd7269"),
    # The standard frames' analysis read without trials, with a constraint
    # dropped, and for a stacked sweep at another geometry.
    ("run --trials 0 --format json", 0, "2623e70ed6f1bb0fb891bcae80c619b0ca0e3b7c8144bedd8bec17b9dc1c0a3d"),
    ("run --trials 0 --format text", 0, "f80367970bdecbdbcc55fa3e623bcf4ac40c8eee040bd89a4dd3e2be54d807d2"),
    ("ghz-nogo --drop-constraint 2 --format json", 0, "bc6ce334b83e79e441be8246779518af7478d0211e6cb92dd8699185e8d9a055"),
    ("ghz-nogo --drop-constraint 2 --format text", 0, "ce0c742c3c92e65fc0950f9017dcf2f6ef943feda9c6c77c3f00676aa155b2a9"),
    ("sweep --models 3 --seed 2 --side 3 --tau 2 --format json", 0, "ab75ebf694ea17452fc217ad3a9f1a68b7e91806323e849939d440f7a105368a"),
    ("sweep --models 3 --seed 2 --side 3 --tau 2 --format text", 0, "720c373a883388e3d0b745b968cfb294bf05f34b56ea14da6b9fa56d8f965340"),
    # A sweep crossing two SWEEP_BLOCK boundaries (models 128 and 256).
    ("sweep --models 300 --seed 3 --format json", 0, "002b0777918c2d77100410c1bc8f87f752f7a2d21ef18303d96cbb85345e6f73"),
    ("sweep --models 300 --seed 3 --format text", 0, "79975205a3a3c92b4db07e7354a65cba1bd3211e2591cdca580120e08baf13f2"),
    # The erasure table without the outsider, with no trials, and at the most
    # trials a count holds.
    ("erasure --skip-j --trials 2000 --seed 1 --format json", 0, "12728ac15461d9d3370c57550c69194dee41d4c195929ad25bb6024d55ebcf3d"),
    ("erasure --skip-j --trials 2000 --seed 1 --format text", 0, "cb937ef93ae051e56984dbed6a8fa8aceccf005bde3e31741b03689877236a78"),
    ("erasure --trials 0 --format json", 0, "d29dbef70b75c8b0fe3e5ad0c96d0e5ad34db3af1f2e7e958d7fa8638b50244b"),
    ("erasure --trials 0 --format text", 0, "f0f514927f86635430af7a4fe89d54f3fc292ece4060ee3e480fe7ea9823767a"),
    ("erasure --trials 9223372036854775807 --seed 3 --format json", 0, "e41ca4bcd0f4ba775474bd60f3b48d688c0de7d950cd4869c5e708cdc7547b55"),
    ("erasure --trials 9223372036854775807 --seed 3 --format text", 0, "3020d95326c0eb17cec12594422882ebb1c36264e91a3cb2119f4b1bc9b0d442"),
    # Haar pins: devices of --model random:N. Their reports print
    # rounding-level values (an exact_rate of 0.4999999999999997, a pruned
    # weight of 2.8e-17). Their Ready columns are Gram–Schmidt in numpy's real
    # arithmetic, with no LAPACK call, but numpy's log1p, cos and sin (the
    # Box–Muller normals) and the BLAS build's matmul (in apply_local) reach
    # these values, so the digests hold for this numpy/BLAS build only.
    #
    # Three distinct devices, one per site: no device-dependent work is shared.
    ("run --model random:11 --mode round_born --preferred sigma_pp --trials 100 --format json", 0, "1c8f5acf7d065d41a505ce842731eeceb58656ae1c07ecc27250d8c223d98288"),
    ("run --model random:11 --mode round_born --preferred sigma_pp --trials 100 --format text", 0, "bfaee87cc7b7ba4d812689c37586dafb65766409932e9294b484d92e352a9735"),
    ("run --model random:4 --mode sequential_collapse --trials 100 --format json", 0, "597b69d3099ac8137d52ef48a44b6e84d8af30344094928f1d523ea05cd4a0ee"),
    ("run --model random:4 --mode sequential_collapse --trials 100 --format text", 0, "f529ffbcfacff7a58d43d3f1a917a94f51836cd31d75d629932fba48985c8440"),
    ("ghz-nogo --model random:7 --format json", 0, "1dd5a8ea6dc4dd7ef249f76a8c199623f0b1cbbdb7c877d68c52e79b14566d1b"),
    ("ghz-nogo --model random:7 --format text", 0, "450d0ce3743c53cd3e49932d01c67be69509753ef146a1ec99bae912c35c26ea"),
    # A non-ideal recorder: the door sees the branch coherence, so the door check fails.
    ("distinguish --model random:7 --format json", 1, "f3ee2fad41a26aeb0780ed08bb991632ab7ab8f46be5226d42c5f8b005c3d4af"),
    ("distinguish --model random:7 --format text", 1, "9a2c30b1c33bff8220870c5f01f18c7a7f2e643da73c6b8888801c0b40d233c2"),
    # A Haar device at another geometry.
    ("ghz-nogo --model random:7 --side 3 --tau 2 --format json", 0, "311ffe9b4488b9eaa72b8daedb0dcaee851c097e7fa47d269a6110af1c9c2704"),
    ("ghz-nogo --model random:7 --side 3 --tau 2 --format text", 0, "7af1cc06d899ee487ab53636a104fce5b6e5aaf831ee8dfd0b3935a9952bb2ea"),
    # The collapse and distinguish tables of three distinct Haar devices, read
    # off their recorded columns.
    ("run --model random:11 --mode sequential_collapse --trials 100 --format json", 0, "b93ec7a4c342b40def5b85ef68e9d3530c4ab0690d0c69dd83802a077e1c86e2"),
    ("run --model random:11 --mode sequential_collapse --trials 100 --format text", 0, "a5937760ba35ff6521d409ae6d6521988d9f0d6948a3b49a7059e59c2b3e30d9"),
    ("distinguish --model random:11 --format json", 1, "d39aa75580c513b511a833fa5d4c5b65da76e8f07ee52937dcdab33ad4a64108"),
    ("distinguish --model random:11 --format text", 1, "41839baaae886d0f06418f90efa453ae8064b38cce04c10f524c6668cf0b1cd1"),
]


@pytest.mark.parametrize("line, code, digest", PINNED_DIGESTS, ids=[p[0] for p in PINNED_DIGESTS])
def test_reports_match_pinned_digests(capsys, line, code, digest):
    actual, out, err = run_cli(capsys, *line.split())
    assert (actual, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, "")


class TestJsonWriter:
    """``_write`` against the stdlib's indenting encoder, ``json_reference``."""

    @staticmethod
    def written(report, out=None) -> str:
        out = io.StringIO() if out is None else out
        gwsim.cli._write(report, {"output": {"format": "json"}}, out)
        return out.getvalue()

    @pytest.mark.parametrize("line", [p[0] for p in PINNED_DIGESTS])
    def test_every_pinned_report(self, capsys, monkeypatch, line):
        reports = []
        monkeypatch.setattr(gwsim.cli, "emit", lambda report, config: reports.append(report))
        run_cli(capsys, *line.split())
        [report] = reports
        assert self.written(report) == _oracles.json_reference(report)

    def test_a_crafted_report(self):
        report = _oracles.CRAFTED_REPORT
        assert self.written(report) == _oracles.json_reference(report)

    @pytest.mark.parametrize("key", [1, 2.5, True, None, ("a",)])
    def test_a_key_that_is_not_a_string_raises(self, key):
        with pytest.raises(TypeError):
            self.written({"results": {"fine": 1, key: 2}})

    @pytest.mark.parametrize("value", [{1, 2}, object(), np.float32(0.5), b"bytes"])
    def test_a_value_json_cannot_hold_raises(self, value):
        with pytest.raises(TypeError):
            _oracles.json_reference({"results": [value]})
        with pytest.raises(TypeError):
            self.written({"results": [value]})

    def test_a_numpy_float_raises(self):
        # json.dumps prints a float subclass as a float; a report holds
        # builtin scalars only, so one that leaks into it fails loudly.
        with pytest.raises(TypeError):
            self.written({"results": {"rate": np.float64(0.5)}})

    def test_a_long_report_reaches_write_in_batches(self):
        class Recording(io.StringIO):
            def write(self, text):
                calls.append(len(text))
                return super().write(text)

        calls = []
        _, config, arguments = parse_args(["sweep", "--models", "3000"])
        report = gwsim.cli.cmd_sweep(config, **arguments)
        text = self.written(report, Recording())
        assert text == _oracles.json_reference(report)
        assert len(calls) > 1 and max(calls) < len(text) / 2


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_frames_builds_no_device(capsys, monkeypatch, fmt):
    # The schedule holds no device, so the frames report builds none.
    def refuse(*args, **kwargs):
        raise AssertionError("a device model was built")

    monkeypatch.setattr(gwsim.cli, "ideal_von_neumann", refuse)
    monkeypatch.setattr(gwsim.measurement.MeasurementModel, "__new__", refuse)
    line = f"frames --format {fmt}"
    ((_, code, digest),) = [pin for pin in PINNED_DIGESTS if pin[0] == line]
    actual, out, err = run_cli(capsys, *line.split())
    assert (actual, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, "")


class TestRun:
    def test_round_born(self, capsys):
        code, report = run_json(
            capsys, "run", "--trials", "300", "--seed", "4", "--mode", "round_born"
        )
        assert code == 0
        run = report["results"]["run"]
        assert run["mode"] == "round_born"
        assert run["trials"] == 300
        assert run["seed"] == 4
        assert run["trials_violating_nonpreferred"] == 300
        stats = run["constraint_statistics"]
        assert len(stats) == 4
        assert sum(s["preferred"] for s in stats) == 1
        for s in stats:
            if s["preferred"]:
                assert s["violations"] == 0
        names = check_names(report)
        assert names["preferred_constraints_never_violated"] is True
        assert names["nonpreferred_rates_half"] is True
        assert names["every_trial_violates_nonpreferred"] is True

    def test_round_born_exact_checks(self, capsys):
        code, report = run_json(capsys, "run", "--trials", "50", "--model", "random:3")
        assert code == 0
        run = report["results"]["run"]
        for s in run["constraint_statistics"]:
            expected = 0.0 if s["preferred"] else 0.5
            assert s["exact_rate"] == pytest.approx(expected, abs=1e-12)
        assert 0.0 <= run["pruned_weight"] <= 1e-12
        names = check_names(report)
        assert names["pruned_weight_negligible"] is True
        assert names["preferred_exact_rates_zero"] is True
        assert names["nonpreferred_exact_rates_half"] is True
        assert names["exact_nonpreferred_violation_certain"] is True

    def test_sequential_collapse(self, capsys):
        code, report = run_json(
            capsys,
            "run",
            "--trials",
            "400",
            "--seed",
            "4",
            "--mode",
            "sequential_collapse",
        )
        assert code == 0
        rate = report["results"]["run"]["outsider_product_minus_one_rate"]
        assert rate == pytest.approx(0.5, abs=4.0 * (0.25 / 400) ** 0.5)
        assert check_names(report)["outsider_parity_rate_half"] is True
        run = report["results"]["run"]
        # The ideal device's collapse table is exactly 1/64 per outcome.
        assert run["outsider_product_minus_one_exact_rate"] == 0.5
        for s in run["constraint_statistics"]:
            assert s["exact_rate"] == 0.5
        assert run["pruned_weight"] == 0.0
        assert check_names(report)["outsider_parity_exact_half"] is True
        assert check_names(report)["pruned_weight_negligible"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--mode", "sequential_collapse", "--trials", "200"),
            ("run", "--mode", "sequential_collapse", "--model", "random:5", "--trials", "200"),
            ("erasure", "--trials", "200"),
            ("erasure", "--trials", "200", "--skip-j"),
        ],
    )
    def test_collapse_and_erasure_simulate_only_pairs(self, capsys, monkeypatch, argv):
        # Neither table builds the 216-dim state: ``apply_local`` only ever
        # sees one site's 6-dim pair.
        def pair_only(apply):
            def checked(op, targets, state):
                assert state.layout.names == tuple(targets) and state.dim == 6
                return apply(op, targets, state)

            return checked

        def refuse(*args):
            raise AssertionError("dense scenario state built")

        for module in (gwsim.models, gwsim.scenario):
            monkeypatch.setattr(module, "apply_local", pair_only(module.apply_local))
        for module in (gwsim.systems, gwsim.scenario):
            monkeypatch.setattr(module, "initial_scenario_state", refuse)
        code, report = run_json(capsys, *argv)
        assert code == 0
        assert report["passed"] is True

    def test_preferred_frame_flag(self, capsys):
        code, report = run_json(
            capsys, "run", "--trials", "100", "--seed", "1", "--preferred", "sigma_pp"
        )
        assert code == 0
        stats = report["results"]["run"]["constraint_statistics"]
        (preferred,) = [s for s in stats if s["preferred"]]
        assert preferred["slots"] == ["z_A", "x_B", "z_C"]

    def test_zero_trials_skips_the_monte_carlo(self, capsys, monkeypatch):
        # Zero trials go through run_model too, but draw no uniform.
        def no_uniforms(*args):
            raise AssertionError("uniforms drawn at zero trials")

        monkeypatch.setattr(gwsim.models, "_philox_block", no_uniforms)
        code, report = run_json(capsys, "run", "--trials", "0")
        assert code == 0
        assert "run" not in report["results"]
        assert check_names(report) == {"constraint_count": True, "unsatisfiable": True}

    def test_output_is_deterministic(self, capsys):
        args = ("run", "--trials", "150", "--seed", "9")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    def test_bad_mode_via_config(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"run": {"mode": "bogus"}}))
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert "run.mode" in err

    @pytest.mark.parametrize(
        "section, key",
        [("run", "trials"), ("run", "seed"), ("geometry", "side"), ("geometry", "tau")],
    )
    def test_boolean_is_not_a_number(self, capsys, tmp_path, section, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({section: {key: True}}))
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert out == ""
        assert f"{section}.{key}" in err

    @pytest.mark.parametrize("key", ["side", "tau"])
    @pytest.mark.parametrize("command", ["ghz-nogo", "frames", "run", "sweep"])
    def test_huge_integer_geometry_is_a_config_error(self, capsys, tmp_path, command, key):
        # A 401-digit JSON integer has no float value.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"geometry": {key: 10**400}}))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: geometry.{key} must be a finite number")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "erasure"])
    def test_trials_beyond_an_int64_count_are_a_config_error(self, capsys, tmp_path, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"run": {"trials": 10**30}}))
        for argv in (["--trials", str(2**63)], ["--config", str(path)]):
            code, out, err = run_cli(capsys, command, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: run.trials must be at most 2**63 - 1")

    @pytest.mark.parametrize("command", ["ghz-nogo", "frames", "run", "sweep"])
    @pytest.mark.parametrize(
        "side, tau, key",
        [("1e-308", "1e-309", "side"), ("1e-315", "1e-316", "side"), ("1", "1e308", "tau")],
    )
    def test_geometry_a_float_cannot_carry_is_a_config_error(self, capsys, command, side, tau, key):
        code, out, err = run_cli(capsys, command, "--side", side, "--tau", tau)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {key} must ")

    def test_negative_seed_is_a_config_error(self, capsys):
        code, out, err = run_cli(capsys, "run", "--trials", "5", "--seed", "-1")
        assert code == 2
        assert "run.seed" in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_command_refuses_a_negative_run_seed(self, capsys, tmp_path, command):
        # Also the commands that draw nothing: the config is checked whole.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"run": {"seed": -1}}))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out, err) == (2, "", "error: run.seed must be non-negative, got -1\n")

    @pytest.mark.parametrize("seed", ["x", 1.5, True, -1])
    def test_bad_model_seed_is_a_config_error(self, capsys, tmp_path, seed):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model": {"kind": "random", "seed": seed}}))
        code, out, err = run_cli(capsys, "ghz-nogo", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: model.seed must be a non-negative integer")
        assert "Traceback" not in err

    def test_negative_trials_via_config(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"run": {"trials": -5}}))
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert "non-negative" in err


@pytest.mark.parametrize(
    "argv, devices",
    [(["ghz-nogo"], 1), (["run", "--trials", "100"], 1), (["ghz-nogo", "--model", "random:7"], 3)],
)
def test_each_device_is_checked_for_unitarity_once(capsys, monkeypatch, argv, devices):
    shapes = []
    original = gwsim.measurement.check_unitary

    def counting(op):
        shapes.append(op.matrix.shape)
        return original(op)

    monkeypatch.setattr(gwsim.measurement, "check_unitary", counting)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    # One check per distinct device of the model, which the analysis reads
    # as it is: the ideal model's three sites share one.
    assert shapes == [(6, 6)] * devices


class TestErasure:
    def test_happy_path(self, capsys):
        code, report = run_json(capsys, "erasure", "--trials", "400", "--seed", "2")
        assert code == 0
        results = report["results"]
        assert results["exact_down_probability"] == pytest.approx(0.5, abs=1e-12)
        assert results["door_counts"]["+1"] + results["door_counts"]["-1"] == 400
        assert 0.0 <= results["pruned_weight"] <= 1e-12
        names = check_names(report)
        assert names["exact_down_half"] is True
        assert names["pruned_weight_negligible"] is True
        assert names["down_rate_half"] is True
        assert names["pair_x_balanced"] is True

    def test_skip_pair_measurement(self, capsys):
        code, report = run_json(
            capsys, "erasure", "--trials", "100", "--seed", "2", "--skip-j"
        )
        assert code == 0
        results = report["results"]
        assert results["skip_pair_x"] is True
        assert results["door_counts"] == {"+1": 100, "-1": 0, "0": 0}
        assert results["exact_down_probability"] == 0.0
        names = check_names(report)
        assert names["exact_down_zero"] is True
        assert names["no_down_reports"] is True


class TestSweep:
    def test_small_sweep(self, capsys):
        code, report = run_json(capsys, "sweep", "--models", "3", "--seed", "5")
        assert code == 0
        results = report["results"]
        assert results["n_models"] == 3
        assert results["n_passed"] == 3
        assert [m["kind"] for m in results["models"]] == ["ideal", "haar", "haar"]
        assert all(m["passed"] for m in results["models"])
        assert check_names(report)["all_models_reproduce_contradiction"] is True

    def test_rejects_zero_models(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--models", "0")
        assert code == 2
        assert "--models" in err

    @pytest.mark.parametrize("models", [MAX_MODELS + 1, 10**400])
    def test_models_beyond_the_bound_are_a_config_error(self, capsys, monkeypatch, models):
        def refuse(*args, **kwargs):
            raise AssertionError("sweep started")

        monkeypatch.setattr(gwsim.cli, "nonideal_sweep", refuse)
        code, out, err = run_cli(capsys, "sweep", "--models", str(models))
        assert code == 2
        assert out == ""
        assert err == f"error: --models must be at most {MAX_MODELS}, got {models}\n"

    def test_the_bound_itself_is_accepted(self, monkeypatch):
        class Started(Exception):
            pass

        def started(n_models, *args, **kwargs):
            raise Started(n_models)

        monkeypatch.setattr(gwsim.cli, "nonideal_sweep", started)
        with pytest.raises(Started, match=f"^{MAX_MODELS}$"):
            main(["sweep", "--models", str(MAX_MODELS)])


@pytest.mark.parametrize("spec", ["ideal", "random:7"])
def test_every_command_reads_the_same_constraints(capsys, monkeypatch, spec):
    lists = []
    for argv in (["ghz-nogo"], ["run", "--trials", "0"], ["run", "--trials", "50"]):
        code, report = run_json(capsys, *argv, "--model", spec)
        assert code == 0
        lists.append(report["results"]["constraints"])
    assert lists[0] == lists[1] == lists[2]
    assert len(lists[0]) == 4

    # The sweep's model 0, with this device's site A unitary at every site
    # in place of the ideal one.
    device = gwsim.cli._build_model({"model": _parse_model_spec(spec)}).unitary("A")
    ideal = gwsim.measurement.MeasurementModel((device,) * 3)
    monkeypatch.setattr(gwsim.models, "ideal_von_neumann", lambda: ideal)
    found, collect = [], gwsim.models.collect_constraints

    def recorded(schedule, model):
        tables, constraints = collect(schedule, model)
        found.append(constraints)
        assert all(u is device for u in model.site_unitaries)
        return tables, constraints

    monkeypatch.setattr(gwsim.models, "collect_constraints", recorded)
    code, report = run_json(capsys, "sweep", "--models", "2")
    assert code == 0 and report["results"]["models"][0]["constraints_match"]
    assert len(found) == 1
    assert [gwsim.cli._constraint_dict(c) for c in found[0]] == lists[0]


@pytest.mark.parametrize(
    "command, error",
    [
        ("frames", "unrecognized argument: --model"),
        ("sweep", "unrecognized argument: --model"),
    ],
)
def test_commands_without_a_device_take_no_model(capsys, command, error):
    # frames builds no device, and sweep's model 0 is always the ideal one.
    assert "--model " not in gwsim.cli._help(command)
    assert run_cli(capsys, command, "--model", "random:3") == (2, "", f"error: {error}\n")


def test_no_report_reads_a_device_past_its_ready_columns(capsys, monkeypatch):
    # ``haar_model`` completes a random device's Ready columns 0-1 with
    # columns 2-5. Turning those by one random 4×4 unitary keeps the devices
    # unitary and their Ready columns, and every report. The sweep draws no
    # column past the Ready ones.
    turn = gwsim.measurement.haar_unitaries(np.random.default_rng(5).normal(size=(2, 4, 4)))
    build = gwsim.cli._build_model

    def turned(config):
        devices = np.stack([u.matrix for u in build(config).site_unitaries])
        devices[..., 2:] = devices[..., 2:] @ turn
        return gwsim.measurement.MeasurementModel(tuple(map(gwsim.qmath.Operator, devices)))

    config = {"model": {"kind": "random", "seed": 7}}
    devices = [model(config).unitary("A").matrix for model in (build, turned)]
    assert not np.array_equal(*devices)
    assert gwsim.models._haar_devices(3, range(1, 4)).shape == (3, 3, 6, 2)
    argvs = [
        ["ghz-nogo", "--model", "random:7"],
        ["run", "--model", "random:11", "--mode", "round_born", "--trials", "1000"],
        ["run", "--model", "random:4", "--mode", "sequential_collapse", "--trials", "1000"],
        ["distinguish", "--model", "random:7"],
    ]
    for argv in argvs:
        reports = []
        for model in (build, turned):
            monkeypatch.setattr(gwsim.cli, "_build_model", model)
            for text in ("json", "text"):
                reports.append(run_cli(capsys, *argv, "--format", text))
        assert reports[:2] == reports[2:], argv


def test_a_closed_stdout_ends_the_report_quietly():
    # A reader that stops after one line (``gwsim sweep | head -1``) closes
    # the pipe while the report is still being written.
    src = str(Path(gwsim.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen(
        [sys.executable, "-m", "gwsim.cli", "sweep", "--models", "1000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.wait()
    assert b"Traceback" not in err
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--mode", "round_born"],
        ["run", "--mode", "sequential_collapse"],
        ["erasure"],
    ],
)
def test_the_most_trials_accepted_give_a_report(argv):
    # The draw costs the same at every trial count, so the largest one
    # accepted reports in a fresh process well within the timeout.
    src = str(Path(gwsim.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gwsim.cli", *argv, "--trials", str(MAX_TRIALS), "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert all(check["passed"] for check in report["checks"])
    results = report["results"]
    if argv[0] == "erasure":
        assert sum(results["door_counts"].values()) == MAX_TRIALS
        assert sum(results["pair_x_counts"].values()) == MAX_TRIALS
    else:
        # The report prints tallies, not the counts behind them.
        assert results["run"]["trials"] == MAX_TRIALS
        schedule = gwsim.scenario.build_schedule(10.0, 1.0)
        m = gwsim.models.InterpretationModel(argv[2], "sigma")
        model = gwsim.measurement.ideal_von_neumann()
        run = gwsim.models.run_model(schedule, model, m, MAX_TRIALS, 0)
        assert sum(run.counts) == MAX_TRIALS
        stats = results["run"]["constraint_statistics"]
        assert [stat["violations"] for stat in stats] == list(run.violation_counts)


class TestSeedResolution:
    @pytest.mark.parametrize("value", ["77", "abc", "-3"])
    def test_the_environment_sets_no_seed(self, capsys, monkeypatch, value):
        monkeypatch.delenv("GWSIM_SEED", raising=False)
        unset = run_cli(capsys, "erasure", "--trials", "10")
        monkeypatch.setenv("GWSIM_SEED", value)
        assert run_cli(capsys, "erasure", "--trials", "10") == unset
        assert unset[0] == 0 and json.loads(unset[1])["config"]["run"]["seed"] == 0

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GWSIM_SEED", "77")
        code, report = run_json(capsys, "erasure", "--trials", "10", "--seed", "3")
        assert code == 0
        assert report["config"]["run"]["seed"] == 3

    def test_config_beats_env(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("GWSIM_SEED", "77")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"run": {"seed": 5, "trials": 10}}))
        code, report = run_json(capsys, "erasure", "--config", str(path))
        assert code == 0
        assert report["config"]["run"]["seed"] == 5

    def test_default_seed_is_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("GWSIM_SEED", raising=False)
        code, report = run_json(capsys, "erasure", "--trials", "10")
        assert code == 0
        assert report["config"]["run"]["seed"] == 0


class TestFlagPrecedence:
    def test_flags_override_config_file(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"geometry": {"side": 20.0}, "run": {"trials": 50}})
        )
        code, report = run_json(
            capsys, "run", "--config", str(path), "--trials", "80", "--seed", "1"
        )
        assert code == 0
        assert report["config"]["geometry"]["side"] == 20.0
        assert report["config"]["run"]["trials"] == 80


class TestOutput:
    def test_text_format(self, capsys):
        code, out, err = run_cli(capsys, "distinguish", "--format", "text")
        assert code == 0
        assert out.startswith("command: distinguish")
        assert "[PASS]" in out
        assert out.rstrip().endswith("passed: yes")

    def test_report_written_to_path(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"output": {"path": str(out_path)}}))
        code, out, _ = run_cli(capsys, "distinguish", "--config", str(config))
        assert code == 0
        assert out_path.read_text() == out

    def test_unwritable_path_is_a_clean_error(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        target = tmp_path / "missing_dir" / "report.json"
        config.write_text(json.dumps({"output": {"path": str(target)}}))
        code, out, err = run_cli(capsys, "distinguish", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write output.path")
        assert "Traceback" not in err

    def test_an_empty_path_is_an_unwritable_path(self, capsys, tmp_path):
        # "" names no file, so it is an error, not a request to write none.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"output": {"path": ""}}))
        code, out, err = run_cli(capsys, "frames", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write output.path")

    @pytest.mark.parametrize("path", [True, 1, ["report.json"]])
    def test_path_must_be_a_string(self, capsys, tmp_path, path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"output": {"path": path}}))
        code, out, err = run_cli(capsys, "distinguish", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "output.path" in err

    def test_json_is_parseable_and_has_no_extra_top_level_keys(self, capsys):
        _, report = run_json(capsys, "frames")
        assert set(report) == REPORT_KEYS


# ---------------------------------------------------------------------------
# The flag table against the argparse front end it replaced


def _dash_values(argv) -> list[str]:
    """The tokens starting with ``-`` that follow a valued flag, given with a
    space, and that its type reads: values argparse took for flags."""
    allowed = gwsim.cli._flags(argv[0]) if argv and argv[0] in COMMANDS else ()
    values = []
    for token, value in zip(argv[1:], argv[2:]):
        if token not in allowed or not value.startswith("-"):
            continue
        kind = FLAGS.get(token, (None,))[0]
        if kind in (int, float, str):
            try:
                kind(value)
            except ValueError:
                continue
            values.append(value)
    return values


def assert_parses_as_argparse(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            expected = _oracles.reference_parse(argv)
    except SystemExit as exc:
        assert exc.code == 2, "help is tested on its own"
        expected, reason = None, err.getvalue()
    except ConfigError as exc:
        expected, reason = None, str(exc)
    if expected is None:
        try:
            parse_args(argv)
        except ConfigError:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(argv) == 2
            assert out.getvalue() == ""
            return "both refuse"
        # The one difference: the token after a valued flag is its value.
        # argparse refuses the flag left without one.
        assert _dash_values(argv) and "expected one argument" in reason, reason
        return "a dash value"
    command, config, arguments = parse_args(argv)
    bound = inspect.signature(COMMANDS[command][0]).bind(config, **arguments)
    bound.apply_defaults()
    assert (command, config, dict(list(bound.arguments.items())[1:])) == expected
    assert json.dumps(config) == json.dumps(expected[1])  # -0.0 and 0.0 apart
    return "both accept"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["--trials", "5", "run"],
        ["run", "--trials", "5", "--seed=3"],
        ["run", "--tri", "5"],
        ["run", "--tri=5", "--se", "1", "--pref=sigma_pp"],
        ["run", "--mod", "round_born"],
        ["run", "--mode", "sequential_collapse", "--model", "random:2"],
        ["run", "--s", "5"],
        ["run", "--trials", "5", "--trials", "7", "--tr=9"],
        ["run", "--trials"],
        ["run", "--seed=1", "--trials"],
        ["run", "5"],
        ["run", "--bogus"],
        ["run", "--bogus=1"],
        ["run", "-x"],
        ["run", "--"],
        ["run", "--trials", "x"],
        ["run", "--trials", "10" * 2200],
        ["run", "--format", "xml"],
        ["run", "--format", "xml", "--format", "json"],
        ["run", "--mode", "bogus", "--mode", "round_born"],
        ["run", "--preferred", "sigma_q"],
        ["run", "--tau", "-inf"],
        ["run", "--config", "no-such-file.json"],
        ["sweep", "--model", "random:3", "--models", "4"],
        ["sweep", "--mod", "random:3"],
        ["sweep", "--mode", "round_born"],
        ["sweep", "--models=7", "--mo", "1"],
        ["sweep", "--config", "--mode=round_born"],
        ["erasure", "--s", "5"],
        ["erasure", "--sk", "--see", "4"],
        ["erasure", "--skip-j=1"],
        ["erasure", "--skip-j=", "--trials", "3"],
        ["erasure", "--skip-j", "--skip-j"],
        ["erasure", "--side", "1"],
        ["ghz-nogo", "--drop-constraint=2"],
        ["ghz-nogo", "--dr", "x"],
        ["ghz-nogo", "--model", "perfect", "--model", "ideal"],
        ["ghz-nogo", "--model", "perfect"],
        ["distinguish", "--side", "1"],
        ["distinguish", "--s", "1"],
        ["frames", "--side", "-3", "--tau=-1e-3"],
        ["frames", "--side", "-1e-3"],
        ["frames", "--si", "20", "--ta", "2", "--format=text"],
    ],
)
def test_the_flag_table_parses_as_argparse_did(argv):
    assert_parses_as_argparse(argv)


@pytest.mark.parametrize(
    "argv, token",
    [
        (["run", "--tri", "5"], "--tri"),
        (["run", "--tri=5"], "--tri=5"),
        (["run", "--mod", "round_born"], "--mod"),
        (["sweep", "--model", "5"], "--model"),
        (["erasure", "--skip"], "--skip"),
        (["ghz-nogo", "--he"], "--he"),
    ],
)
def test_a_flag_is_spelled_in_full(capsys, argv, token):
    assert run_cli(capsys, *argv) == (2, "", f"error: unrecognized argument: {token}\n")


SPELLINGS = sorted(set(FLAGS) | {"--bogus", "--sides", "-x"})
GOOD_VALUES = {
    int: ["0", "3", "7", "-5", "-1_0"],
    float: ["0.5", "1", "20", "-.5", "-1e-3"],
    "--format": ["json", "text", "xml", ""],
    "--mode": [*MODES, "bogus"],
    "--preferred": [*FRAME_NAMES, "sigma_q"],
    "--model": ["ideal", "random:5", "random:x", "perfect", "-1"],
}


@st.composite
def flag_argvs(draw, config_file):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    own = [f for f in gwsim.cli._flags(command) if f in FLAGS]
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(SPELLINGS if draw(st.integers(0, 3)) == 3 else own))
        kind = FLAGS.get(flag, (str,))[0]
        good = [config_file] if flag == "--config" else GOOD_VALUES.get(flag, GOOD_VALUES.get(kind))
        if flag.startswith("--") and draw(st.booleans()):  # maybe abbreviated, which both refuse
            flag = flag[: draw(st.integers(3, len(flag)))]
        value = draw(FLAG_VALUES if not good or draw(st.integers(0, 3)) == 3 else st.sampled_from(good))
        forms = ["bare"] * 3 + ["eq"] if kind is None else ["space"] * 3 + ["eq"] * 3 + ["bare", "stray"]
        form = draw(st.sampled_from(forms))
        if form == "space":
            argv += [flag, value]
        elif form == "eq":
            argv.append(f"{flag}={value}")
        else:
            argv.append(flag if form == "bare" else value)
    return argv


@pytest.fixture(scope="module")
def flag_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("flags") / "config.json"
    path.write_text(json.dumps({"geometry": {"side": 20.0}, "run": {"trials": 7, "seed": 3}}))
    return str(path)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_flag_line_parses_as_argparse_did(flag_config, data):
    event(assert_parses_as_argparse(data.draw(flag_argvs(flag_config))))


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["frames", "--side", "-1e-3"], 2, "error: side must be positive, got -0.001\n"),
        (["run", "--tau", "-inf"], 2, "error: geometry.tau must be a finite number, got -inf\n"),
        (["erasure", "--seed", "-1_0"], 2, "error: run.seed must be non-negative, got -10\n"),
        (["frames", "--tau", "-1e-320"], 1, ""),
    ],
)
def test_a_negative_value_reads_the_same_after_a_space_as_after_equals(capsys, argv, code, err):
    spaced = run_cli(capsys, *argv)
    joined = run_cli(capsys, argv[0], f"{argv[1]}={argv[2]}")
    assert spaced == joined
    assert spaced[0::2] == (code, err)


def test_help_lists_every_command_and_flag(capsys):
    code, out, err = run_cli(capsys, "-h")
    assert (code, err) == (0, "")
    assert all(f"  {command} " in out for command in COMMANDS)
    commands = next(
        a for a in _oracles.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert set(commands) == set(COMMANDS)
    for command, parser in commands.items():
        code, out, err = run_cli(capsys, command, "--help")
        assert (code, err) == (0, "")
        accepted = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        listed = {word for word in out.split() if word.startswith("--")}
        assert listed == accepted
        assert out.startswith(f"usage: gwsim {command} ")
