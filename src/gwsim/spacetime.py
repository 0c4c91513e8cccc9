"""Flat-spacetime geometry of the three-laboratory arrangement.

Two spatial dimensions, units with c = 1, metric signature (+,−,−). The labs
sit at the vertices of an equilateral triangle and are treated as pointlike;
each runs a measurement at time t1 (inside) and one at t2 (outside), with
t2 − t1 = t1 − t0 = tau. Keeping tau smaller than the triangle side makes
every cross-lab pair of measurement events spacelike separated, which is what
lets different inertial frames disagree about their order.

Frames are specified by their boost velocity relative to the rest frame of
the labs. ``boost_for_simultaneity`` constructs the frame in which one lab's
measurement is simultaneous with given events at the other two labs.

All arithmetic is on plain Python floats: the geometry is a handful of
numbers, and numpy's per-call cost would exceed the work.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple

MAX_SPEED = 1.0 - 1e-12
# Two frame times count as simultaneous within this, scaled by the larger of
# the frame times and the terms γ·t, γ·v·x that they are summed from.
SIMULTANEITY_TOL = 1e-12
# Geometry checks compare lengths and epochs within this, relative to their scale.
GEOMETRY_TOL = 1e-9


class SpacetimePoint(namedtuple("SpacetimePoint", "t x")):
    """Event location: time and planar position, c = 1."""

    __slots__ = ()

    def __new__(cls, t: float, x: tuple[float, float]):
        if not (math.isfinite(t) and all(math.isfinite(c) for c in x)):
            raise ValueError(f"non-finite spacetime point ({t}, {x})")
        return super().__new__(cls, t, x)


def point(t: float, x: tuple[float, float]) -> SpacetimePoint:
    return SpacetimePoint(float(t), (float(x[0]), float(x[1])))


class Frame(namedtuple("Frame", "velocity gamma")):
    """Inertial frame: its boost velocity relative to the rest frame, and its γ."""

    __slots__ = ()

    def __new__(cls, velocity: tuple[float, float]):
        speed = math.hypot(*velocity)
        if speed > MAX_SPEED:
            raise ValueError(f"boost speed {speed} is not subluminal")
        return super().__new__(cls, velocity, 1.0 / math.sqrt(1.0 - speed**2))

    def __getnewargs__(self):  # copy and pickle rebuild a frame from its velocity
        return (self.velocity,)

    @property
    def speed(self) -> float:
        return math.hypot(*self.velocity)


REST_FRAME = Frame((0.0, 0.0))


class GeometrySpec(NamedTuple):
    """Lab positions and the three epoch times t0 < t1 < t2.

    Deliberately constructible with invalid values; ``validate_geometry``
    reports (rather than throws) which conditions fail.
    """

    x_a: tuple[float, float]
    x_b: tuple[float, float]
    x_c: tuple[float, float]
    t0: float
    t1: float
    t2: float

    def position(self, site: str) -> tuple[float, float]:
        return {"A": self.x_a, "B": self.x_b, "C": self.x_c}[site]


def standard_geometry(side: float, tau: float) -> GeometrySpec:
    """Equilateral triangle of the given side, centered at the origin, with
    lab A on the +y axis; epochs 0, tau, 2·tau.

    Any other tau is accepted, so ``validate_geometry`` can name what fails;
    the arrangement is valid for 0 < tau ≤ side·√3/2·MAX_SPEED, beyond which
    the tilted frames need a superluminal boost. A nonpositive side is
    rejected here, since validation only sees the (unsigned) distances; so
    are a subnormal side, whose coordinates keep too few bits, a tau whose
    2·tau overflows, and a positive tau whose tilted boost speed
    tau/(side·√3/2) would be subnormal, which no float frame can solve for.
    """
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
    if side < sys.float_info.min:
        raise ValueError(f"side must be a normal float, at least {sys.float_info.min!r}, got {side!r}")
    if not math.isfinite(2.0 * tau):
        raise ValueError(f"tau must keep 2·tau finite, got {tau!r}")
    altitude = side * math.sqrt(3.0) / 2.0
    if 0 < tau < sys.float_info.min * altitude:
        raise ValueError(
            f"tau must keep the tilted boost speed tau/(side·√3/2) a normal float, "
            f"at least {sys.float_info.min * altitude!r} for side {side!r}, got {tau!r}"
        )
    h = side / math.sqrt(3.0)
    return GeometrySpec(
        x_a=(0.0, h),
        x_b=(-side / 2.0, -h / 2.0),
        x_c=(side / 2.0, -h / 2.0),
        t0=0.0,
        t1=tau,
        t2=2.0 * tau,
    )


def interval(p: SpacetimePoint, q: SpacetimePoint) -> float:
    """Invariant interval (Δt)² − ‖Δx‖²; negative means spacelike."""
    dt, dx0, dx1 = p.t - q.t, p.x[0] - q.x[0], p.x[1] - q.x[1]
    return dt * dt - (dx0 * dx0 + dx1 * dx1)


def frame_time(f: Frame, p: SpacetimePoint) -> float:
    """Time coordinate of the event in the boosted frame: γ(t − v·x)."""
    (v0, v1), (x0, x1) = f.velocity, p.x
    return f.gamma * (p.t - v0 * x0 - v1 * x1)


def simultaneous(f: Frame, p: SpacetimePoint, q: SpacetimePoint) -> bool:
    """Equal frame times within SIMULTANEITY_TOL of their scale.

    A frame time near 0 is a sum that cancels, and carries the rounding of
    its terms γ·t and γ·v·x, so the scale is the largest of those terms as
    well as of the two frame times.
    """
    tp, tq = frame_time(f, p), frame_time(f, q)
    (v0, v1), gamma = f.velocity, f.gamma
    terms = max(max(abs(e.t), abs(v0 * e.x[0]), abs(v1 * e.x[1])) for e in (p, q))
    # SIMULTANEITY_TOL·γ first, so the product stays finite where γ·terms would not.
    tol = max(SIMULTANEITY_TOL * max(abs(tp), abs(tq)), SIMULTANEITY_TOL * gamma * terms)
    return abs(tp - tq) <= tol


def _simultaneity_velocity(
    p: SpacetimePoint, q: SpacetimePoint, r: SpacetimePoint
) -> tuple[float, float] | None:
    """Boost velocity giving p, q and r one frame time, or None if none does.

    Equal frame times γ(t − v·x) reduce to the linear system
    v·(x_p − x_q) = t_p − t_q, v·(x_p − x_r) = t_p − t_r. It is solved in
    closed form on its rows divided by their largest |Δx|, so no product of
    two terms leaves float range, and accepted where every row holds within
    GEOMETRY_TOL·max|Δt| + 1e-5·|Δt|: a non-finite v holds in none.
    """
    rows = [(p.x[0] - o.x[0], p.x[1] - o.x[1], p.t - o.t) for o in (q, r)]
    scale = max(abs(c) for row in rows for c in row[:2]) or 1.0
    (a0, a1, e0), (b0, b1, e1) = [[c / scale for c in row] for row in rows]
    det = a0 * b1 - a1 * b0
    if det == 0.0:
        return None
    v = ((e0 * b1 - a1 * e1) / det, (a0 * e1 - e0 * b0) / det)
    atol = GEOMETRY_TOL * max(abs(dt) for *_, dt in rows)
    solved = all(abs(c0 * v[0] + c1 * v[1] - dt) <= atol + 1e-5 * abs(dt) for c0, c1, dt in rows)
    return v if solved else None


def boost_for_simultaneity(
    p: SpacetimePoint, q: SpacetimePoint, r: SpacetimePoint
) -> Frame:
    """Frame in which p, q and r share one time coordinate.

    Raises if no subluminal velocity gives them one (e.g. a timelike pair
    among the arguments).
    """
    v = _simultaneity_velocity(p, q, r)
    if v is None:
        raise ValueError("events admit no common simultaneity plane")
    frame = Frame(v)  # raises past MAX_SPEED
    for other in (q, r):
        if not simultaneous(frame, p, other):
            raise ValueError("solved boost fails the simultaneity check")
    return frame


def tilted_frame_events(spec: GeometrySpec) -> list[tuple[SpacetimePoint, ...]]:
    """Per lab A, B, C: its inside measurement (t1) and the start (t0) at the
    other two labs, the events one tilted frame makes simultaneous."""
    pos = {site: spec.position(site) for site in "ABC"}
    return [
        (point(spec.t1, pos[lab]), point(spec.t0, pos[a]), point(spec.t0, pos[b]))
        for lab, a, b in ("ABC", "BAC", "CAB")
    ]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def validate_geometry(spec: GeometrySpec) -> tuple[list[CheckResult], list[Frame] | None]:
    """Named checks for the arrangement's separation conditions, and the
    tilted frames of labs A, B and C where every check passes, else None.

    Failures are reported, not raised, so invalid geometries can be examined.
    Tolerances scale with the geometry (its mean side, its largest epoch
    time), and intervals are taken in units of the larger of the two, so a
    geometry passes or fails alike at every scale a float can hold. Each
    tilted frame is ``boost_for_simultaneity`` of its ``tilted_frame_events``,
    built once: the frames returned are those the last check judged.
    """
    results = []
    pos = {s: spec.position(s) for s in "ABC"}
    dists = {pair: math.dist(pos[pair[0]], pos[pair[1]]) for pair in ("AB", "BC", "CA")}
    mean_side = sum(d / 3.0 for d in dists.values())
    spread = max(dists.values()) - min(dists.values())
    results.append(
        CheckResult(
            "equilateral",
            spread <= GEOMETRY_TOL * mean_side,
            f"pairwise distances {dists['AB']:.12g}, {dists['BC']:.12g}, {dists['CA']:.12g}",
        )
    )

    early, late = spec.t1 - spec.t0, spec.t2 - spec.t1
    time_scale = max(abs(spec.t0), abs(spec.t1), abs(spec.t2))
    results.append(
        CheckResult(
            "equal_epochs",
            abs(early - late) <= GEOMETRY_TOL * time_scale and early > 0,
            f"t1−t0 = {early:.12g}, t2−t1 = {late:.12g}",
        )
    )

    results.append(
        CheckResult(
            "epoch_shorter_than_separation",
            early < dists["AB"],
            f"t1−t0 = {early:.12g} vs ‖x_A−x_B‖ = {dists['AB']:.12g}",
        )
    )

    # Every measurement event (friend at t1, outsider at t2) at one lab must
    # be spacelike separated from every measurement event at any other lab.
    # Intervals are squared lengths, so they are taken on the points divided
    # by the geometry's largest scale, where no coordinate exceeds 1, and
    # reported in the geometry's units where a float holds them.
    # The detail names the first pair, in the loops' order, within
    # GEOMETRY_TOL of the largest: intervals equal by symmetry differ in the
    # last digits, so the largest alone would name one of them by rounding.
    unit = max(mean_side, time_scale) or 1.0
    times = (spec.t1, spec.t2)
    scaled = {(s, t): point(t / unit, [c / unit for c in pos[s]]) for s in "ABC" for t in times}
    intervals = [
        (
            interval(scaled[labs[0], ta], scaled[labs[1], tb]),
            f"({ta:g},{labs[0]})–({tb:g},{labs[1]})",
        )
        for labs in ("AB", "BC", "CA")
        for ta in times
        for tb in times
    ]
    worst = max(s for s, _ in intervals)
    worst_pair = next(pair for s, pair in intervals if s >= worst - GEOMETRY_TOL)
    span = worst * unit * unit  # 0 or inf where a float cannot hold it
    in_range = math.isfinite(span) and (span or not worst)
    shown = f"{span:.12g}" if in_range else f"{worst:.12g}·({unit:.12g})²"
    results.append(
        CheckResult(
            "cross_lab_spacelike", worst < 0, f"largest cross-lab interval {shown} at {worst_pair}"
        )
    )

    # A tilted frame exists only if its boost is subluminal (for the standard
    # triangle the speed is tau / (side·√3/2)) and, in float arithmetic,
    # really makes its three events simultaneous. The check reads the built
    # frames, so it passes exactly when they can be built; where the speeds
    # pass, the detail says why a frame still could not be. A frame that
    # failed keeps its error, and is solved once more for its speed.
    events, frames = tilted_frame_events(spec), []
    for triple in events:
        try:
            frames.append(boost_for_simultaneity(*triple))
        except ValueError as exc:
            frames.append(exc)
    reasons = {str(f) for f in frames if isinstance(f, ValueError)}
    velocities = [
        f.velocity if isinstance(f, Frame) else _simultaneity_velocity(*triple)
        for triple, f in zip(events, frames)
    ]
    speeds = [math.inf if v is None else math.hypot(*v) for v in velocities]
    shown = sorted(reasons) if max(speeds) <= MAX_SPEED else []
    results.append(
        CheckResult(
            "tilted_frames_subluminal",
            not reasons,
            f"tilted-frame boost speeds {', '.join(f'{v:.12g}' for v in speeds)} "
            f"(need ≤ {MAX_SPEED!r})" + "".join(f"; {reason}" for reason in shown),
        )
    )
    return results, frames if all(r.passed for r in results) else None
