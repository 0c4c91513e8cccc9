import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import gwsim.scenario
from _oracles import dense_weights
from gwsim.cli import _build_model
from gwsim.measurement import (
    SITES,
    MeasurementModel,
    haar_random_unitary,
    haar_unitaries,
    ideal_von_neumann,
)
from gwsim.models import CANONICAL_CONSTRAINT_KEYS, trial_rng
from gwsim.scenario import (
    CANONICAL_SLOTS,
    FRAME_NAMES,
    ParityConstraint,
    RoundTable,
    Schedule,
    analyze_stack,
    build_schedule,
    collect_constraints,
    distinct_constraints,
    enumerate_assignments,
    evolve_to,
    order_events,
    round_slots,
    standard_frames,
    support_constraint,
)
from gwsim.qmath import Operator, apply_local
from gwsim.spacetime import Frame
from gwsim.systems import SITE_FACTORS, initial_scenario_state


def event(schedule, event_id):
    return next(ev for ev in schedule.events if ev.id == event_id)


@pytest.fixture(scope="module")
def schedule():
    return build_schedule(10.0, 1.0, ideal_von_neumann())


@pytest.fixture(scope="module")
def frames(schedule):
    return standard_frames(schedule.geometry)


class TestSchedule:
    def test_six_events_with_expected_ids(self, schedule):
        assert [ev.id for ev in schedule.events] == [
            "friend_A",
            "outsider_A",
            "friend_B",
            "outsider_B",
            "friend_C",
            "outsider_C",
        ]

    def test_event_locations(self, schedule):
        g = schedule.geometry
        assert event(schedule, "friend_B").location.t == g.t1
        assert event(schedule, "outsider_B").location.t == g.t2
        np.testing.assert_allclose(event(schedule, "friend_B").location.x, g.x_b)

    def test_event_kinds_and_slots(self, schedule):
        ev = event(schedule, "friend_C")
        assert ev.kind == "friend_z"
        assert ev.slot == "z_C"
        assert ev.targets == ("N", "C")
        ev = event(schedule, "outsider_A")
        assert ev.kind == "outsider_x"
        assert ev.slot == "x_A"
        assert ev.targets == ("L", "A")

    def test_rejects_epochs_longer_than_separation(self):
        with pytest.raises(ValueError):
            build_schedule(10.0, 20.0, ideal_von_neumann())


class TestStandardFrames:
    def test_names(self, frames):
        assert tuple(frames) == FRAME_NAMES

    def test_rest_frame_is_stationary(self, frames):
        assert frames["sigma"].speed == 0.0

    def test_tilted_frames_share_one_speed(self, frames):
        speeds = [frames[name].speed for name in FRAME_NAMES[1:]]
        np.testing.assert_allclose(speeds, speeds[0], atol=1e-12)
        assert speeds[0] == pytest.approx(1.0 / (5.0 * np.sqrt(3.0)), abs=1e-9)

    def test_tilted_frames_point_toward_their_lab(self, schedule, frames):
        # Each boost heads from the triangle's center toward the lab whose
        # inside measurement it pulls back into simultaneity with t0.
        g = schedule.geometry
        for name, site in (("sigma_p", "A"), ("sigma_pp", "B"), ("sigma_ppp", "C")):
            v = np.array(frames[name].velocity)
            toward = np.array(g.position(site))
            assert np.dot(v, toward) > 0
            colinearity = v[0] * toward[1] - v[1] * toward[0]
            assert colinearity == pytest.approx(0.0, abs=1e-12)


class TestOrderEvents:
    def test_rest_frame_two_rounds(self, schedule, frames):
        rounds = order_events(schedule, frames["sigma"])
        assert [[ev.id for ev in rnd] for rnd in rounds] == [
            ["friend_A", "friend_B", "friend_C"],
            ["outsider_A", "outsider_B", "outsider_C"],
        ]

    @pytest.mark.parametrize(
        "name,expected",
        [
            (
                "sigma_p",
                [["friend_A"], ["friend_B", "friend_C", "outsider_A"], ["outsider_B", "outsider_C"]],
            ),
            (
                "sigma_pp",
                [["friend_B"], ["friend_A", "friend_C", "outsider_B"], ["outsider_A", "outsider_C"]],
            ),
            (
                "sigma_ppp",
                [["friend_C"], ["friend_A", "friend_B", "outsider_C"], ["outsider_A", "outsider_B"]],
            ),
        ],
    )
    def test_tilted_frames_three_rounds(self, schedule, frames, name, expected):
        rounds = order_events(schedule, frames[name])
        assert [[ev.id for ev in rnd] for rnd in rounds] == expected

    def test_round_slots_follow_site_order(self, schedule, frames):
        rounds = order_events(schedule, frames["sigma_p"])
        assert round_slots(rounds[1]) == ("x_A", "z_B", "z_C")
        assert round_slots(rounds[2]) == ("x_B", "x_C")

    def test_rejects_simultaneous_events_on_shared_factors(self, schedule):
        ev = event(schedule, "friend_A")
        clash = type(ev)("friend_A2", "A", "friend_z", ev.location)
        broken = Schedule(schedule.geometry, (ev, clash), schedule.model)
        with pytest.raises(ValueError, match="overlap"):
            order_events(broken, standard_frames(schedule.geometry)["sigma"])

    @pytest.mark.parametrize("k", [1e-12, 1e-10, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e8])
    def test_orderings_do_not_depend_on_the_geometry_scale(self, k):
        # Rounds group frame times relative to the frame's own time scale, so
        # scaling side and tau together leaves every ordering unchanged.
        def orderings(side, tau):
            s = build_schedule(side, tau, ideal_von_neumann())
            return {
                name: [[ev.id for ev in rnd] for rnd in order_events(s, f)]
                for name, f in standard_frames(s.geometry).items()
            }

        assert orderings(10.0 * k, 1.0 * k) == orderings(10.0, 1.0)


@pytest.fixture(scope="module")
def ideal_tables(schedule):
    """The ideal device's round tables, by frame name, in round order."""
    by_frame = {}
    for table in analyze_stack(schedule.model, standard_orderings(schedule)):
        by_frame.setdefault(table.frame, []).append(table)
    return by_frame


def test_evolve_to_round_index_bounds(schedule, frames):
    with pytest.raises(ValueError, match="round index"):
        evolve_to(schedule, frames["sigma"], 0)
    with pytest.raises(ValueError, match="round index"):
        evolve_to(schedule, frames["sigma"], 3)


class TestPreRoundStates:
    @pytest.fixture
    def states(self, schedule, frames):
        """The ideal device's replayed pre-round states, by frame name."""
        return {
            name: [
                evolve_to(schedule, frame, k).amplitudes
                for k in range(1, len(order_events(schedule, frame)) + 1)
            ]
            for name, frame in frames.items()
        }

    def test_first_round_sees_the_initial_state(self, states):
        for name in FRAME_NAMES:
            assert np.array_equal(states[name][0], initial_scenario_state().amplitudes)

    def test_rest_frame_second_round_applies_all_three_devices(self, schedule, states):
        expected = initial_scenario_state()
        for site in "ABC":
            expected = apply_local(
                schedule.model.unitary(site), event(schedule, f"friend_{site}").targets, expected
            )
        np.testing.assert_allclose(states["sigma"][1], expected.amplitudes, atol=1e-12)

    def test_tilted_frame_second_round_applies_only_its_lab(self, schedule, states):
        expected = apply_local(schedule.model.unitary("A"), ("L", "A"), initial_scenario_state())
        np.testing.assert_allclose(states["sigma_p"][1], expected.amplitudes, atol=1e-12)

    def test_last_round_state_is_frame_independent(self, states):
        # Every frame has all three friend events before its final round, so
        # the pre-final-round state must agree exactly across frames.
        for name in FRAME_NAMES[1:]:
            np.testing.assert_allclose(states[name][-1], states["sigma"][-1], atol=1e-12)

    def test_norm_is_preserved(self, states):
        for name in FRAME_NAMES:
            for state in states[name]:
                assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def possible_labels(table) -> set:
    return set(itertools.compress(table.labels, table.possible[0]))


class TestRoundTables:
    def test_friends_round_has_full_support_and_no_constraint(self, ideal_tables):
        table = ideal_tables["sigma"][0]
        assert table.products[0] == 0
        assert table.possible[0].sum() == 8
        np.testing.assert_allclose(table.weights[0], 0.125, atol=1e-10)

    def test_outsiders_round_yields_odd_parity(self, ideal_tables):
        table = ideal_tables["sigma"][1]
        assert table.constraint(0) == ParityConstraint(("x_A", "x_B", "x_C"), -1)
        assert possible_labels(table) == {(+1, +1, -1), (+1, -1, +1), (-1, +1, +1), (-1, -1, -1)}
        np.testing.assert_allclose(table.weights[0][table.possible[0]], 0.25, atol=1e-10)

    def test_mixed_round_yields_even_parity(self, ideal_tables):
        table = ideal_tables["sigma_p"][1]
        assert table.constraint(0) == ParityConstraint(("x_A", "z_B", "z_C"), +1)
        assert possible_labels(table) == {(+1, +1, +1), (+1, -1, -1), (-1, +1, -1), (-1, -1, +1)}

    def test_products_need_one_parity_shared_by_the_possible_tuples(self):
        labels = ((+1, -1, -1), (-1, +1, +1), (+1, +1, +1))
        weights = np.array([[0.5, 0, 0.5], [0, 1.0, 0], [0.5, 0.5, 0], [1e-10, 1.0, 0]])
        table = RoundTable("sigma", (), labels, weights)
        assert table.products.tolist() == [+1, -1, 0, -1]

    def test_two_slot_round_is_unconstrained(self, ideal_tables):
        table = ideal_tables["sigma_p"][2]
        assert table.products[0] == 0
        assert table.constraint(0) is None
        assert len(possible_labels(table)) == 4


class TestCollectConstraints:
    def test_four_frames_give_the_canonical_quartet(self, schedule, frames):
        constraints = collect_constraints(schedule, frames)
        assert {(c.slots, c.required_product) for c in constraints} == {
            (("x_A", "x_B", "x_C"), -1),
            (("x_A", "z_B", "z_C"), +1),
            (("z_A", "x_B", "z_C"), +1),
            (("z_A", "z_B", "x_C"), +1),
        }
        assert len(constraints) == 4

    def test_accepts_a_plain_frame_list(self, schedule, frames):
        constraints = collect_constraints(schedule, [frames["sigma"], frames["sigma"]])
        assert constraints == [ParityConstraint(("x_A", "x_B", "x_C"), -1)]

    @pytest.mark.parametrize(
        "name,slots,product",
        [
            ("sigma", ("x_A", "x_B", "x_C"), -1),
            ("sigma_p", ("x_A", "z_B", "z_C"), +1),
            ("sigma_pp", ("z_A", "x_B", "z_C"), +1),
            ("sigma_ppp", ("z_A", "z_B", "x_C"), +1),
        ],
    )
    def test_each_frame_contributes_one_constraint(
        self, schedule, frames, name, slots, product
    ):
        constraints = collect_constraints(schedule, [frames[name]])
        assert constraints == [ParityConstraint(slots, product)]

    def test_reproduced_by_a_random_device_model(self):
        rng = np.random.default_rng(7)
        model = MeasurementModel(tuple(haar_random_unitary(6, rng) for _ in range(3)))
        schedule = build_schedule(10.0, 1.0, model)
        constraints = collect_constraints(schedule, standard_frames(schedule.geometry))
        assert {(c.slots, c.required_product) for c in constraints} == {
            (("x_A", "x_B", "x_C"), -1),
            (("x_A", "z_B", "z_C"), +1),
            (("z_A", "x_B", "z_C"), +1),
            (("z_A", "z_B", "x_C"), +1),
        }


def _haar_model(seed):
    rng = np.random.default_rng(seed)
    return MeasurementModel(tuple(haar_random_unitary(6, rng) for _ in range(3)))


ANALYSIS_MODELS = {
    "ideal": ideal_von_neumann,
    "random:5": lambda: _build_model({"model": {"kind": "random", "seed": 5}}),
    "haar:7": lambda: _haar_model(7),
    "haar:8": lambda: _haar_model(8),
}


def standard_orderings(schedule):
    return {
        name: order_events(schedule, f) for name, f in standard_frames(schedule.geometry).items()
    }


def assert_row_matches_the_dense_oracle(table, m, replayed, model):
    """Model m's row of the table against the dense replayed pre-round state:
    the scalar path's possible tuples and constraint exactly, and every
    tuple's weight within 1e-14, since the two sum in different orders."""
    entries, constraint = support_constraint(replayed, table.events, model)
    possible = table.possible[m]
    assert list(itertools.compress(table.labels, possible)) == [e.labels for e in entries]
    assert table.products[m] == (constraint.required_product if constraint else 0)
    assert constraint is None or constraint.slots == round_slots(table.events)
    assert table.weights[m].min() >= 0.0
    dense = dense_weights(replayed, table.events, model)
    np.testing.assert_allclose(table.weights[m], dense, rtol=0, atol=1e-14)


@pytest.mark.parametrize("spec", sorted(ANALYSIS_MODELS))
class TestAnalyze:
    def test_matches_the_replay_oracle(self, spec):
        schedule = build_schedule(10.0, 1.0, ANALYSIS_MODELS[spec]())
        frames = standard_frames(schedule.geometry)
        orderings = standard_orderings(schedule)
        tables = analyze_stack(schedule.model, orderings)
        assert len(tables) == sum(len(rounds) for rounds in orderings.values())
        for name, frame in frames.items():
            mine = [t for t in tables if t.frame == name]
            assert [t.events for t in mine] == orderings[name]
            for k, table in enumerate(mine, start=1):
                assert table.weights.shape == (1, len(table.labels))
                replayed = evolve_to(schedule, frame, k)
                assert_row_matches_the_dense_oracle(table, 0, replayed, schedule.model)

    def test_a_single_device_is_a_stack_of_one(self, spec):
        schedule = build_schedule(10.0, 1.0, ANALYSIS_MODELS[spec]())
        orderings = standard_orderings(schedule)
        single = analyze_stack(schedule.model, orderings)
        stacked = analyze_stack(stack_models([schedule.model]), orderings)
        assert len(single) == len(stacked) == 11
        for one, other in zip(single, stacked):
            assert (one.frame, one.events, one.labels) == (other.frame, other.events, other.labels)
            assert np.array_equal(one.weights, other.weights)

    @pytest.mark.parametrize("size", [1, 5])
    def test_each_site_factor_is_built_once(self, spec, size, monkeypatch):
        schedule = build_schedule(10.0, 1.0, ANALYSIS_MODELS[spec]())
        built, site_gram = [], gwsim.scenario._site_gram

        def counting(vectors, operators, scale=1.0):
            gram = site_gram(vectors, operators, scale)
            built.append((scale, gram.shape))
            return gram

        monkeypatch.setattr(gwsim.scenario, "_site_gram", counting)
        tables = analyze_stack(stack_models([schedule.model] * size), standard_orderings(schedule))
        assert len(tables) == 11
        # Each site is seen before its device (as a spectator and by its
        # friend), one factor shared by every model, and after it (as a
        # spectator and by its outsider, whose Gram carries the scale 1/2),
        # one per model: 4 × 3 factors, whatever the stack size.
        assert sorted(built, key=str) == sorted(
            [(1.0, (4, 1, 1)), (1.0, (4, 2, 1))] * 3
            + [(1.0, (4, 1, size)), (0.5, (4, 2, size))] * 3,
            key=str,
        )


def test_the_pass_builds_no_dense_state(schedule, monkeypatch):
    # The pass works on the two product terms alone: it never builds the
    # 216-dim initial state, and ``apply_local`` only runs each site's device
    # on that site's 6-dim pair vectors, once per product term for the whole
    # stack.
    applied, apply = [], gwsim.scenario.apply_local

    def pair_only(op, targets, state):
        assert state.layout.names == tuple(targets) and state.dim == 6
        applied.append((tuple(targets), state.amplitudes.shape))
        return apply(op, targets, state)

    def refuse(*args):
        raise AssertionError("dense state built by the frame pass")

    monkeypatch.setattr(gwsim.scenario, "apply_local", pair_only)
    monkeypatch.setattr(gwsim.scenario, "initial_scenario_state", refuse)
    tables = analyze_stack(stack_models(stack_of(5)), standard_orderings(schedule))
    assert len(tables) == 11
    assert sorted(applied) == sorted([(SITE_FACTORS[site], (5, 6)) for site in SITES] * 2)
    assert {(c.slots, c.required_product) for c in distinct_constraints(tables)} == (
        CANONICAL_CONSTRAINT_KEYS
    )


def stack_of(n):
    """n device models: ideal, random:5, two Haar seeds, then trial_rng draws."""
    models = [ANALYSIS_MODELS[spec]() for spec in ("ideal", "random:5", "haar:7", "haar:8")]
    for index in range(4, n):
        rng = trial_rng(11, index)
        models.append(MeasurementModel(tuple(haar_random_unitary(6, rng) for _ in range(3))))
    return models[:n]


def stack_models(models):
    """One stacked model, the pass's input, whose entry m is ``models[m]``."""
    return MeasurementModel(
        tuple(Operator(np.stack([m.unitary(site).matrix for m in models])) for site in SITES)
    )


class TestAnalyzeStack:
    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_every_model_matches_the_per_model_reference(self, schedule, frames, n):
        models = stack_of(n)
        orderings = standard_orderings(schedule)
        tables = analyze_stack(stack_models(models), orderings)
        assert [(t.frame, t.events) for t in tables] == [
            (name, rnd) for name, rounds in orderings.items() for rnd in rounds
        ]
        assert all(t.weights.shape == (n, len(t.labels)) for t in tables)
        rounds = [k for r in orderings.values() for k in range(1, len(r) + 1)]
        for m, model in enumerate(models):
            s = replace(schedule, model=model)
            for table, k in zip(tables, rounds):
                replayed = evolve_to(s, frames[table.frame], k)
                assert_row_matches_the_dense_oracle(table, m, replayed, model)

    def test_margins_hold_over_2000_haar_devices(self, schedule):
        # The ideal device plus 2000 Haar models drawn as the sweep draws
        # them (seed 3): impossible tuples stay far below the support
        # cutoff, possible ones far above it, and each round's weights
        # sum to 1.
        draws = [trial_rng(3, index).normal(size=(3, 2, 6, 6)) for index in range(1, 2001)]
        unitaries = haar_unitaries(np.array(draws))
        ideal = ideal_von_neumann()
        stacked = MeasurementModel(
            tuple(
                Operator(np.concatenate([ideal.unitary(site).matrix[None], unitaries[:, k]]))
                for k, site in enumerate(SITES)
            )
        )
        for table in analyze_stack(stacked, standard_orderings(schedule)):
            assert table.weights.shape == (2001, len(table.labels))
            assert table.weights.min() >= 0.0
            possible = table.possible
            assert np.where(possible, 0.0, table.weights).max() < 1e-12
            assert np.where(possible, table.weights, 1.0).min() >= 0.1
            assert np.abs(1.0 - table.weights.sum(axis=1)).max() < 1e-12


def test_weights_of_the_ideal_device_are_exact_dyadic_fractions(ideal_tables):
    # The product terms, the permutation device and the unnormalised
    # recorded-basis overlaps are all exact in binary floating point, so the
    # ideal device's weights come out exact: no rounding reaches the cutoff.
    expected = {
        "sigma": [{0.125}, {0.0, 0.25}],
        "sigma_p": [{0.5}, {0.0, 0.25}, {0.25}],
        "sigma_pp": [{0.5}, {0.0, 0.25}, {0.25}],
        "sigma_ppp": [{0.5}, {0.0, 0.25}, {0.25}],
    }
    assert {
        name: [set(table.weights[0].tolist()) for table in tables]
        for name, tables in ideal_tables.items()
    } == expected


def test_standard_frames_yield_exactly_the_canonical_constraints(schedule):
    tables = analyze_stack(schedule.model, standard_orderings(schedule))
    found = [(c.slots, c.required_product) for c in distinct_constraints(tables)]
    assert len(found) == 4
    assert set(found) == CANONICAL_CONSTRAINT_KEYS


def test_random_subluminal_frames_yield_no_new_constraint(schedule):
    # Generic frames split the six events into singleton rounds; whatever a
    # frame yields must be one of the four the standard frames give, and
    # every device's row must match its dense replay.
    rng = np.random.default_rng(20181106)
    speeds = 0.999 * rng.random(1000)
    angles = 2.0 * math.pi * rng.random(1000)
    frames = [
        Frame((float(v * math.cos(a)), float(v * math.sin(a)))) for v, a in zip(speeds, angles)
    ]
    orderings = {i: order_events(schedule, f) for i, f in enumerate(frames)}
    models = stack_of(4)
    tables = analyze_stack(stack_models(models), orderings)
    assert {t.frame for t in tables} == set(range(1000))
    for m in range(len(models)):
        for c in filter(None, (t.constraint(m) for t in tables)):
            assert (c.slots, c.required_product) in CANONICAL_CONSTRAINT_KEYS
    # Many frames share an ordering, so each distinct pre-round state and
    # round (the friends measured before it, its events) is replayed once,
    # and every other table of it must hold the same weights.
    replayed_rounds = {}
    rounds = [k for r in orderings.values() for k in range(1, len(r) + 1)]
    for table, k in zip(tables, rounds):
        before = orderings[table.frame][: k - 1]
        friends = tuple(ev.id for rnd in before for ev in rnd if ev.kind == "friend_z")
        first, _ = replayed_rounds.setdefault((friends, table.events), (table, k))
        assert np.array_equal(table.weights, first.weights)
    assert len(replayed_rounds) > 20
    for table, k in replayed_rounds.values():
        for m, model in enumerate(models):
            replayed = evolve_to(replace(schedule, model=model), frames[table.frame], k)
            assert_row_matches_the_dense_oracle(table, m, replayed, model)


class TestEnumerateAssignments:
    def test_no_constraints_leaves_all_64(self):
        rows = enumerate_assignments([])
        assert len(rows) == 64
        assert rows.shape == (64, len(CANONICAL_SLOTS)) and rows.dtype == np.int8

    def test_matches_the_exhaustive_loop(self, schedule, frames):
        canonical = collect_constraints(schedule, frames)
        cases = [
            list(subset)
            for n in range(len(canonical) + 1)
            for subset in itertools.combinations(canonical, n)
        ]
        cases.append([ParityConstraint(("x_A", "z_B"), -1)])
        for constraints in cases:
            expected = [
                signs
                for signs in itertools.product((+1, -1), repeat=len(CANONICAL_SLOTS))
                if all(
                    math.prod(signs[CANONICAL_SLOTS.index(slot)] for slot in c.slots)
                    == c.required_product
                    for c in constraints
                )
            ]
            expected = np.array(expected, dtype=np.int8).reshape(-1, len(CANONICAL_SLOTS))
            assert np.array_equal(enumerate_assignments(constraints), expected)

    def test_full_quartet_is_unsatisfiable(self, schedule, frames):
        constraints = collect_constraints(schedule, frames)
        assert enumerate_assignments(constraints).shape == (0, len(CANONICAL_SLOTS))

    def test_dropping_any_one_constraint_leaves_eight(self, schedule, frames):
        constraints = collect_constraints(schedule, frames)
        for skip in range(4):
            kept = [c for i, c in enumerate(constraints) if i != skip]
            assert len(enumerate_assignments(kept)) == 8

    def test_single_constraint_leaves_half(self):
        only = [ParityConstraint(("x_A", "x_B", "x_C"), -1)]
        assert len(enumerate_assignments(only)) == 32


class TestParityConstraint:
    def test_slots_are_canonically_sorted(self):
        c = ParityConstraint(("z_B", "x_A", "z_C"), +1)
        assert c.slots == ("x_A", "z_B", "z_C")

    def test_rejects_bad_product(self):
        with pytest.raises(ValueError, match="±1"):
            ParityConstraint(("x_A",), 0)

    def test_rejects_empty_slots(self):
        with pytest.raises(ValueError, match="at least one"):
            ParityConstraint((), +1)
