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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_SPEED = 1.0 - 1e-12
# Two frame times count as simultaneous within this, scaled by the larger |t|.
SIMULTANEITY_TOL = 1e-12
# Geometry checks compare lengths and epochs within this, relative to their scale.
GEOMETRY_TOL = 1e-9


@dataclass(frozen=True)
class SpacetimePoint:
    """Event location: time and planar position, c = 1."""

    t: float
    x: tuple[float, float]

    def __post_init__(self):
        if not (math.isfinite(self.t) and all(math.isfinite(c) for c in self.x)):
            raise ValueError(f"non-finite spacetime point ({self.t}, {self.x})")

    @property
    def position(self) -> np.ndarray:
        return np.array(self.x, dtype=float)


def point(t: float, x: tuple[float, float]) -> SpacetimePoint:
    return SpacetimePoint(float(t), (float(x[0]), float(x[1])))


@dataclass(frozen=True)
class Frame:
    """Inertial frame, given by its boost velocity relative to the rest frame."""

    velocity: tuple[float, float]

    def __post_init__(self):
        speed = math.hypot(*self.velocity)
        if speed > MAX_SPEED:
            raise ValueError(f"boost speed {speed} is not subluminal")

    @property
    def speed(self) -> float:
        return math.hypot(*self.velocity)

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.speed**2)


REST_FRAME = Frame((0.0, 0.0))


@dataclass(frozen=True)
class GeometrySpec:
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

    def position(self, site: str) -> np.ndarray:
        return np.array({"A": self.x_a, "B": self.x_b, "C": self.x_c}[site], dtype=float)

    @property
    def side(self) -> float:
        return math.hypot(*(self.position("A") - self.position("B")))


def standard_geometry(side: float, tau: float) -> GeometrySpec:
    """Equilateral triangle of the given side, centered at the origin, with
    lab A on the +y axis; epochs 0, tau, 2·tau.

    Any tau is accepted, so ``validate_geometry`` can name what fails; the
    arrangement is valid for 0 < tau ≤ side·√3/2·MAX_SPEED, beyond which the
    tilted frames need a superluminal boost. A nonpositive side is rejected
    here, since validation only sees the (unsigned) distances.
    """
    if side <= 0:
        raise ValueError(f"side must be positive, got {side}")
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
    dt = p.t - q.t
    dx = p.position - q.position
    return dt * dt - float(dx @ dx)


def frame_time(f: Frame, p: SpacetimePoint) -> float:
    """Time coordinate of the event in the boosted frame: γ(t − v·x)."""
    v = np.array(f.velocity)
    return f.gamma * (p.t - float(v @ p.position))


def simultaneous(f: Frame, p: SpacetimePoint, q: SpacetimePoint) -> bool:
    tp, tq = frame_time(f, p), frame_time(f, q)
    return abs(tp - tq) <= SIMULTANEITY_TOL * max(abs(tp), abs(tq))


def _simultaneity_velocity(
    p: SpacetimePoint, q: SpacetimePoint, r: SpacetimePoint
) -> np.ndarray | None:
    """Boost velocity giving p, q and r one frame time, or None if none does.

    Equal frame times γ(t − v·x) reduce to the linear system
    v·(x_p − x_q) = t_p − t_q, v·(x_p − x_r) = t_p − t_r.
    """
    dx = np.array([p.position - q.position, p.position - r.position])
    dt = np.array([p.t - q.t, p.t - r.t])
    v, *_ = np.linalg.lstsq(dx, dt, rcond=None)
    solved = np.allclose(dx @ v, dt, atol=GEOMETRY_TOL * float(np.max(np.abs(dt))))
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
    frame = Frame((float(v[0]), float(v[1])))  # raises past MAX_SPEED
    for other in (q, r):
        if not simultaneous(frame, p, other):
            raise ValueError("solved boost fails the simultaneity check")
    return frame


def tilted_frame_events(spec: GeometrySpec) -> list[tuple[SpacetimePoint, ...]]:
    """Per lab A, B, C: its inside measurement (t1) and the start (t0) at the
    other two labs, the events one tilted frame makes simultaneous."""
    pos = {site: tuple(spec.position(site)) for site in "ABC"}
    return [
        (point(spec.t1, pos[lab]), point(spec.t0, pos[a]), point(spec.t0, pos[b]))
        for lab, a, b in ("ABC", "BAC", "CAB")
    ]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def validate_geometry(spec: GeometrySpec) -> list[CheckResult]:
    """Named checks for the arrangement's separation conditions.

    Failures are reported, not raised, so invalid geometries can be examined.
    Tolerances scale with the geometry (its mean side, its largest epoch
    time), and intervals are taken in units of the larger of the two, so a
    geometry passes or fails alike at every scale a float can hold.
    """
    results = []
    pos = {s: spec.position(s) for s in "ABC"}
    dists = {pair: math.hypot(*(pos[pair[0]] - pos[pair[1]])) for pair in ("AB", "BC", "CA")}
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
    unit = max(mean_side, time_scale) or 1.0
    worst = -math.inf
    worst_pair = ""
    for labs in ("AB", "BC", "CA"):
        for ta in (spec.t1, spec.t2):
            for tb in (spec.t1, spec.t2):
                s = interval(
                    point(ta / unit, tuple(pos[labs[0]] / unit)),
                    point(tb / unit, tuple(pos[labs[1]] / unit)),
                )
                if s > worst:
                    worst, worst_pair = s, f"({ta:g},{labs[0]})–({tb:g},{labs[1]})"
    span = worst * unit * unit  # 0 or inf where a float cannot hold it
    in_range = math.isfinite(span) and (span or not worst)
    shown = f"{span:.12g}" if in_range else f"{worst:.12g}·({unit:.12g})²"
    results.append(
        CheckResult(
            "cross_lab_spacelike", worst < 0, f"largest cross-lab interval {shown} at {worst_pair}"
        )
    )

    # A tilted frame exists only if its boost is subluminal; for the standard
    # triangle the speed is tau / (side·√3/2).
    velocities = [_simultaneity_velocity(*events) for events in tilted_frame_events(spec)]
    speeds = [math.inf if v is None else math.hypot(*v) for v in velocities]
    results.append(
        CheckResult(
            "tilted_frames_subluminal",
            max(speeds) <= MAX_SPEED,
            f"tilted-frame boost speeds {', '.join(f'{v:.12g}' for v in speeds)} "
            f"(need ≤ {MAX_SPEED!r})",
        )
    )
    return results
