import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gwsim.spacetime
from _oracles import boost_point, lstsq_velocity
from gwsim.scenario import build_schedule, checked_schedule, order_events
from gwsim.spacetime import (
    MAX_SPEED,
    Frame,
    GeometrySpec,
    REST_FRAME,
    _simultaneity_velocity,
    boost_for_simultaneity,
    frame_time,
    interval,
    point,
    simultaneous,
    standard_geometry,
    tilted_frame_events,
    validate_geometry,
)

SQ3 = math.sqrt(3.0)


def test_standard_geometry_coordinates():
    g = standard_geometry(10.0, 1.0)
    np.testing.assert_allclose(g.x_a, (0.0, 10.0 / SQ3))
    np.testing.assert_allclose(g.x_b, (-5.0, -5.0 / SQ3))
    np.testing.assert_allclose(g.x_c, (5.0, -5.0 / SQ3))
    assert (g.t0, g.t1, g.t2) == (0.0, 1.0, 2.0)


def test_standard_geometry_side_length():
    g = standard_geometry(10.0, 1.0)
    assert math.dist(g.x_a, g.x_b) == pytest.approx(10.0, abs=1e-12)
    g = standard_geometry(1000.0, 1.0)
    assert math.dist(g.x_a, g.x_b) == pytest.approx(1000.0, rel=1e-12)


# The check each bad tau fails at side 10 (among others it may fail too).
_BAD_TAU_CHECK = {
    10.0: "epoch_shorter_than_separation",
    20.0: "epoch_shorter_than_separation",
    0.0: "equal_epochs",
    -1.0: "equal_epochs",
}


@pytest.mark.parametrize("side,tau", [(10.0, 10.0), (10.0, 20.0), (10.0, 0.0), (10.0, -1.0), (0.0, 1.0), (-5.0, 1.0)])
def test_standard_geometry_rejects_bad_parameters(side, tau):
    if side <= 0:
        with pytest.raises(ValueError, match="side must be positive"):
            standard_geometry(side, tau)
        return
    # A bad tau still gives a geometry, so validation can name what fails;
    # building a schedule on it raises with those names.
    failed = [r.name for r in validate_geometry(standard_geometry(side, tau))[0] if not r.passed]
    assert _BAD_TAU_CHECK[tau] in failed
    with pytest.raises(ValueError, match="geometry checks failed: " + ", ".join(failed) + "$"):
        build_schedule(side, tau)


def test_interval_examples():
    origin = (0.0, 0.0)
    assert interval(point(1.0, origin), point(1.0, origin)) == 0.0
    assert interval(point(1.0, origin), point(0.0, origin)) == pytest.approx(1.0)
    g = standard_geometry(10.0, 1.0)
    assert interval(point(g.t1, g.x_a), point(g.t0, g.x_b)) == pytest.approx(-99.0)


def test_frame_validation():
    Frame((0.9, 0.0))
    with pytest.raises(ValueError, match="subluminal"):
        Frame((1.0, 0.5))


def test_frame_time_in_rest_frame_is_plain_time():
    p = point(3.5, (1.0, -2.0))
    assert frame_time(REST_FRAME, p) == pytest.approx(3.5)


def test_frame_time_is_monotone_in_time():
    f = Frame((0.3, -0.2))
    x = (1.0, 4.0)
    times = [frame_time(f, point(t, x)) for t in (0.0, 1.0, 2.0)]
    assert times[0] < times[1] < times[2]


def test_boost_for_simultaneity_standard_example():
    g = standard_geometry(10.0, 1.0)
    f = boost_for_simultaneity(point(g.t1, g.x_a), point(g.t0, g.x_b), point(g.t0, g.x_c))
    assert f.velocity[0] == pytest.approx(0.0, abs=1e-12)
    assert f.speed == pytest.approx(1.0 / (5.0 * SQ3), abs=1e-9)
    times = [
        frame_time(f, p)
        for p in (point(g.t1, g.x_a), point(g.t0, g.x_b), point(g.t0, g.x_c))
    ]
    assert max(times) - min(times) <= 1e-12 * max(1.0, *map(abs, times))


def test_boost_for_simultaneity_degenerate_case_gives_rest_frame():
    g = standard_geometry(10.0, 1.0)
    f = boost_for_simultaneity(point(0.0, g.x_a), point(0.0, g.x_b), point(0.0, g.x_c))
    assert f.speed == pytest.approx(0.0, abs=1e-12)


def test_boost_for_simultaneity_speed_shrinks_with_distance():
    speeds = []
    for side in (10.0, 100.0, 1000.0):
        g = standard_geometry(side, 1.0)
        f = boost_for_simultaneity(
            point(g.t1, g.x_a), point(g.t0, g.x_b), point(g.t0, g.x_c)
        )
        speeds.append(f.speed)
    assert speeds[0] > speeds[1] > speeds[2]
    assert speeds[2] == pytest.approx(1.0 / (500.0 * SQ3), abs=1e-9)


def test_boost_for_simultaneity_rejects_timelike_separation():
    # Events directly above each other in time cannot be made simultaneous.
    with pytest.raises(ValueError):
        boost_for_simultaneity(
            point(1.0, (0.0, 0.0)), point(0.0, (0.0, 0.0)), point(0.0, (5.0, 0.0))
        )


def test_boost_for_simultaneity_rejects_superluminal_requirement():
    with pytest.raises(ValueError, match="≥ 1|speed"):
        boost_for_simultaneity(
            point(20.0, (0.0, 0.0)), point(0.0, (10.0, 0.0)), point(0.0, (0.0, 10.0))
        )


def test_boost_point_zero_velocity_is_identity():
    p = point(2.0, (3.0, -1.0))
    assert boost_point(REST_FRAME, p) == p


def test_boost_point_time_component_matches_frame_time():
    f = Frame((0.2, -0.4))
    p = point(1.5, (0.3, 2.0))
    assert boost_point(f, p).t == pytest.approx(frame_time(f, p))


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-0.7, 0.7),
    st.floats(-0.7, 0.7),
    st.floats(-5, 5),
    st.floats(-5, 5),
    st.floats(-5, 5),
    st.floats(-5, 5),
    st.floats(-5, 5),
    st.floats(-5, 5),
)
def test_interval_is_boost_invariant(vx, vy, t1, x1, y1, t2, x2, y2):
    if math.hypot(vx, vy) > 0.95:
        return
    f = Frame((vx, vy))
    p, q = point(t1, (x1, y1)), point(t2, (x2, y2))
    s_rest = interval(p, q)
    s_boosted = interval(boost_point(f, p), boost_point(f, q))
    assert s_boosted == pytest.approx(s_rest, abs=1e-9, rel=1e-9)


def test_spacelike_pairs_admit_either_temporal_order():
    p = point(0.0, (0.0, 0.0))
    q = point(0.1, (5.0, 0.0))  # spacelike: |Δx| > |Δt|
    assert interval(p, q) < 0
    orders = set()
    for vx in np.linspace(-0.9, 0.9, 37):
        f = Frame((float(vx), 0.0))
        orders.add(frame_time(f, p) < frame_time(f, q))
    assert orders == {True, False}


def test_timelike_pairs_keep_their_order_in_every_frame():
    rng = np.random.default_rng(33)
    p = point(0.0, (0.0, 0.0))
    q = point(2.0, (0.5, 0.5))  # timelike
    assert interval(p, q) > 0
    for _ in range(200):
        v = rng.uniform(-1.0, 1.0, size=2)
        if np.linalg.norm(v) >= 0.99:
            continue
        f = Frame((float(v[0]), float(v[1])))
        assert frame_time(f, p) < frame_time(f, q)


def test_simultaneous_predicate():
    g = standard_geometry(10.0, 1.0)
    f = boost_for_simultaneity(point(g.t1, g.x_a), point(g.t0, g.x_b), point(g.t0, g.x_c))
    assert simultaneous(f, point(g.t1, g.x_a), point(g.t0, g.x_b))
    assert not simultaneous(f, point(g.t1, g.x_a), point(g.t2, g.x_a))


def test_simultaneity_tolerance_scales_with_the_frame_times():
    # 5e-13 apart is no tie when the frame times themselves are that small.
    assert not simultaneous(REST_FRAME, point(0.0, (0.0, 0.0)), point(5e-13, (1.0, 0.0)))
    assert simultaneous(REST_FRAME, point(1e-12, (0.0, 0.0)), point(1e-12, (1.0, 0.0)))


def test_a_frame_time_near_zero_is_compared_on_the_scale_of_its_terms():
    # γ(t − v·x) cancels to about 1e-16 here; a rounding-sized difference is a tie,
    # and one on the scale of t is none.
    f = Frame((0.5, 0.0))
    assert simultaneous(f, point(0.5, (1.0, 0.0)), point(0.5 + 2e-16, (1.0, 0.0)))
    assert not simultaneous(f, point(0.5, (1.0, 0.0)), point(0.5 + 1e-9, (1.0, 0.0)))
    # γ·t overflows here (γ ≈ 2.29), but the tolerance stays finite.
    f = Frame((0.9, 0.0))
    far = sys.float_info.max / 2.0
    assert not simultaneous(f, point(far, (far, 0.0)), point(0.0, (0.0, 0.0)))


def test_validate_geometry_passes_standard_arrangement(monkeypatch):
    g = standard_geometry(10.0, 1.0)
    results, frames = validate_geometry(g)
    assert [r.name for r in results] == [
        "equilateral",
        "equal_epochs",
        "epoch_shorter_than_separation",
        "cross_lab_spacelike",
        "tilted_frames_subluminal",
    ]
    assert all(r.passed for r in results)
    assert len(frames) == 3 and all(isinstance(f, Frame) for f in frames)
    # A schedule's tilted frames are the very frames its checks built.
    built, boost = [], gwsim.spacetime.boost_for_simultaneity

    def recording(*events):
        built.append(boost(*events))
        return built[-1]

    monkeypatch.setattr(gwsim.spacetime, "boost_for_simultaneity", recording)
    schedule = checked_schedule(g)[1]
    tilted = [schedule.frames[name] for name in ("sigma_p", "sigma_pp", "sigma_ppp")]
    assert len(built) == 3 and all(f is b for f, b in zip(tilted, built))


def test_validate_geometry_names_failures_without_raising():
    bad = GeometrySpec(
        x_a=(0.0, 10.0 / SQ3),
        x_b=(-5.0, -5.0 / SQ3),
        x_c=(5.0, -5.0 / SQ3),
        t0=0.0,
        t1=20.0,
        t2=40.0,
    )
    checks, frames = validate_geometry(bad)
    results = {r.name: r for r in checks}
    assert results["equilateral"].passed
    assert results["equal_epochs"].passed
    assert not results["epoch_shorter_than_separation"].passed
    assert not results["cross_lab_spacelike"].passed
    assert frames is None
    # Frames come back only where every check passes, the tilted one too.
    checks, frames = validate_geometry(standard_geometry(10.0, 9.0))
    assert [r.name for r in checks if not r.passed] == ["tilted_frames_subluminal"]
    assert frames is None


def test_validate_geometry_flags_non_equilateral():
    bad = GeometrySpec(
        x_a=(0.0, 6.0), x_b=(-5.0, -3.0), x_c=(9.0, -3.0), t0=0.0, t1=1.0, t2=2.0
    )
    results = {r.name: r for r in validate_geometry(bad)[0]}
    assert not results["equilateral"].passed


def test_validate_geometry_flags_unequal_epochs():
    g = standard_geometry(10.0, 1.0)
    bad = GeometrySpec(g.x_a, g.x_b, g.x_c, t0=0.0, t1=1.0, t2=3.5)
    results = {r.name: r for r in validate_geometry(bad)[0]}
    assert not results["equal_epochs"].passed


def test_unequal_tiny_epochs_fail_equal_epochs():
    bad = standard_geometry(10.0, 1e-12)._replace(t2=5e-10)
    results = {r.name: r for r in validate_geometry(bad)[0]}
    assert not results["equal_epochs"].passed


def test_non_equilateral_tiny_triangle_fails_equilateral():
    g = standard_geometry(1e-9, 1e-12)
    bad = g._replace(x_c=(g.x_c[0] * 1.001, g.x_c[1]))
    results = {r.name: r for r in validate_geometry(bad)[0]}
    assert not results["equilateral"].passed


@pytest.mark.parametrize("k", [1e-12, 1e-10, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e8])
def test_standard_geometry_passes_every_check_at_any_scale(k):
    g = standard_geometry(10.0 * k, 1.0 * k)
    assert [r.name for r in validate_geometry(g)[0] if not r.passed] == []
    for events in tilted_frame_events(g):
        f = boost_for_simultaneity(*events)
        assert all(simultaneous(f, events[0], other) for other in events[1:])


def _orderings(side, tau):
    schedule = build_schedule(side, tau)
    return {
        name: [[ev.id for ev in rnd] for rnd in order_events(schedule, f)]
        for name, f in schedule.frames.items()
    }


@pytest.mark.parametrize("side", [1e-300, 1e-200, 1e-170, 1e170, 1e200, 1e300, 1e308])
def test_geometry_is_scale_free_where_squared_lengths_leave_float_range(side):
    # ‖Δx‖² and the intervals under- or overflow at these sides; the checks,
    # frames and orderings must come out as at side 10, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = standard_geometry(side, side / 10.0)
        results = {r.name: r for r in validate_geometry(g)[0]}
        orderings = _orderings(side, side / 10.0)
    assert [name for name, r in results.items() if not r.passed] == []
    assert orderings == _orderings(10.0, 1.0)
    assert math.dist(g.x_a, g.x_b) == pytest.approx(side, rel=1e-12)
    detail = results["cross_lab_spacelike"].detail
    assert "inf" not in detail and " at (" in detail


@pytest.mark.parametrize("side", [10.0, 1e-10, 1e10])
def test_the_cross_lab_detail_names_one_pair_at_every_scale(side):
    # The largest cross-lab intervals tie by symmetry; rounding must not pick
    # which of them the detail names.
    tau = side / 10.0
    results = {r.name: r for r in validate_geometry(standard_geometry(side, tau))[0]}
    detail = results["cross_lab_spacelike"].detail
    assert detail.endswith(f" at ({tau:g},A)–({2.0 * tau:g},B)")


def test_point_rejects_non_finite_coordinates():
    with pytest.raises(ValueError, match="finite"):
        point(float("nan"), (0.0, 0.0))


@pytest.mark.parametrize("side", [1e-308, 1e-310, 1e-312, 1e-315, 5e-324])
def test_standard_geometry_rejects_a_subnormal_side(side):
    # Coordinates of a subnormal triangle keep too few bits to be equilateral.
    with pytest.raises(ValueError, match="side must be a normal float"):
        standard_geometry(side, side / 10.0)


@pytest.mark.parametrize("tau", [1e308, -1e308, 9e307])
def test_standard_geometry_rejects_a_tau_whose_double_overflows(tau):
    with pytest.raises(ValueError, match="tau must keep 2·tau finite"):
        standard_geometry(1.0, tau)


@pytest.mark.parametrize("side", [1e308, 1e300, 10.0, 1.0, 1e-10])
def test_a_tau_just_above_the_speed_bound_gives_finite_tilted_speeds(side):
    tau = sys.float_info.min * side * math.sqrt(3.0) / 2.0 * 10.0
    results = {r.name: r for r in validate_geometry(standard_geometry(side, tau))[0]}
    assert results["tilted_frames_subluminal"].passed
    assert "inf" not in results["tilted_frames_subluminal"].detail


@pytest.mark.parametrize("side, built", [(1e-10, False), (1e-4, False), (1.0, True), (1e300, True)])
def test_the_tilted_check_passes_exactly_when_the_tilted_frames_build(side, built):
    # Just above the smallest tau a geometry takes, a small side leaves tau
    # too few bits for the solved boost to pass the simultaneity check.
    tau = sys.float_info.min * side * math.sqrt(3.0) / 2.0 * (1.0 + 1e-6)
    g = standard_geometry(side, tau)
    try:
        frames = [boost_for_simultaneity(*events) for events in tilted_frame_events(g)]
    except ValueError as exc:
        assert str(exc) == "solved boost fails the simultaneity check"
        frames = None
    check = {r.name: r for r in validate_geometry(g)[0]}["tilted_frames_subluminal"]
    assert (frames is not None) == check.passed == built
    assert check.detail.endswith("(need ≤ 0.999999999999)") == built


def test_standard_geometry_accepts_the_smallest_normal_side():
    g = standard_geometry(sys.float_info.min, sys.float_info.min / 10.0)
    assert math.dist(g.x_a, g.x_b) == pytest.approx(sys.float_info.min, rel=1e-12)


def test_an_unbounded_simultaneity_solve_is_no_boost_and_no_warning():
    # At side 1e-300 and tau 1e10 the least-squares velocity overflows.
    g = standard_geometry(1e-300, 1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = {r.name: r for r in validate_geometry(g)[0]}
        with pytest.raises(ValueError, match="no common simultaneity plane"):
            boost_for_simultaneity(*tilted_frame_events(g)[0])
    assert not results["tilted_frames_subluminal"].passed
    assert "inf" in results["tilted_frames_subluminal"].detail


def assert_the_solves_agree(g: GeometrySpec) -> None:
    """The closed-form solve against least squares on one geometry: where
    both solve, velocities within 1e-12 of the speed; every geometry check
    alike, but for the tilted check where a speed lies within 1e-12 relative
    of MAX_SPEED."""
    near_bound = False
    for events in tilted_frame_events(g):
        mine, reference = _simultaneity_velocity(*events), lstsq_velocity(*events)
        for v in (mine, reference):
            near_bound |= v is not None and abs(math.hypot(*v) - MAX_SPEED) <= 1e-12 * MAX_SPEED
        if mine is not None and reference is not None:
            assert math.dist(mine, reference) <= 1e-12 * math.hypot(*reference)
    checks, _ = validate_geometry(g)
    with mock.patch.object(gwsim.spacetime, "_simultaneity_velocity", lstsq_velocity):
        expected, _ = validate_geometry(g)
    compared = slice(None, -1) if near_bound else slice(None)
    assert [c.passed for c in checks][compared] == [c.passed for c in expected][compared]


@settings(max_examples=300, deadline=None)
@given(
    side_exponent=st.floats(-300, 300),
    tau_fraction=st.one_of(
        st.floats(-330, 0).map(lambda e: 10.0**e), st.floats(0.0, 1.0), st.just(1.0)
    ),
)
def test_the_closed_form_solve_agrees_with_least_squares(side_exponent, tau_fraction):
    side = 10.0**side_exponent
    try:
        g = standard_geometry(side, tau_fraction * side * SQ3 / 2.0 * MAX_SPEED)
    except ValueError:
        return  # a tau too small for the side: rejected before any solve
    assert_the_solves_agree(g)


@settings(max_examples=300, deadline=None)
@given(
    side_exponent=st.floats(-300, 300),
    tau_fraction=st.floats(1e-6, 1.2),
    offsets=st.lists(st.floats(-0.3, 0.3), min_size=8, max_size=8),
)
# Lab C's common frame time is 1.9e-4 on terms near 0.4: the two solves'
# frame times differ by 2.5e-16, a tie only on the scale of those terms.
@example(
    side_exponent=0.0,
    tau_fraction=0.5,
    offsets=[0.29999999999999993, -0.091796875, 0.16796875, -0.248046875, 0.0, 0.0, 0.0, 0.0],
)
def test_the_closed_form_solve_agrees_on_perturbed_geometries(side_exponent, tau_fraction, offsets):
    # Labs moved by up to 0.3 of the side and epochs stretched by up to 30 %:
    # no longer equilateral, nor equal epochs, so the checks may fail.
    side = 10.0**side_exponent
    g = standard_geometry(side, tau_fraction * side * SQ3 / 2.0)
    moved = [
        (x + side * offsets[2 * i], y + side * offsets[2 * i + 1])
        for i, (x, y) in enumerate((g.x_a, g.x_b, g.x_c))
    ]
    t1, t2 = g.t1 * (1.0 + offsets[6]), g.t2 * (1.0 + offsets[7])
    assert_the_solves_agree(GeometrySpec(*moved, g.t0, t1, t2))
