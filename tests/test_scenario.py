import itertools
import math

import numpy as np
import pytest

import gwsim.models
import gwsim.scenario
import gwsim.spacetime
from _oracles import born_weights_reference, dense_weights, random_state, round_by_round_tables
from test_models import sweep_model
from gwsim.cli import _build_model
from gwsim.measurement import (
    SITES,
    MeasurementModel,
    haar_random_unitary,
    ideal_von_neumann,
)
from gwsim.models import (
    CANONICAL_CONSTRAINT_KEYS,
    READY_GRAM_TOL,
    _haar_devices,
    sequential_collapse_distribution,
    trial_rng,
)
from gwsim.scenario import (
    CANONICAL_SLOTS,
    FRAME_NAMES,
    ParityConstraint,
    OUTCOME_SIGNS,
    analyze_stack,
    born_weights,
    build_schedule,
    collect_constraints,
    enumerate_assignments,
    evolve_to,
    order_events,
    round_slots,
    support_constraint,
)
from gwsim.qmath import Operator, apply_local
from gwsim.spacetime import Frame
from gwsim.systems import (
    SITE_FACTORS,
    SUPPORT_EPS,
    LabLabel,
    initial_scenario_state,
    lab_vector,
)


IDEAL = ideal_von_neumann()


def event(schedule, event_id):
    return next(ev for ev in schedule.events if ev.id == event_id)


@pytest.fixture(scope="module")
def schedule():
    return build_schedule(10.0, 1.0)


@pytest.fixture(scope="module")
def frames(schedule):
    return schedule.frames


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
            build_schedule(10.0, 20.0)

    def test_the_tilted_events_are_built_once(self, monkeypatch):
        # The tilted frames and the geometry check read one list of events.
        calls, events = [], gwsim.spacetime.tilted_frame_events

        def counting(spec):
            calls.append(spec)
            return events(spec)

        for module in (gwsim.spacetime, gwsim.scenario):
            monkeypatch.setattr(module, "tilted_frame_events", counting, raising=False)
        schedule = build_schedule(10.0, 1.0)
        assert calls == [schedule.geometry]


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
        broken = schedule._replace(events=(ev, clash))
        with pytest.raises(ValueError, match="overlap"):
            order_events(broken, schedule.frames["sigma"])

    @pytest.mark.parametrize("k", [1e-12, 1e-10, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e8])
    def test_orderings_do_not_depend_on_the_geometry_scale(self, k):
        # Rounds group frame times relative to the frame's own time scale, so
        # scaling side and tau together leaves every ordering unchanged.
        def orderings(side, tau):
            s = build_schedule(side, tau)
            return {
                name: [[ev.id for ev in rnd] for rnd in order_events(s, f)]
                for name, f in s.frames.items()
            }

        assert orderings(10.0 * k, 1.0 * k) == orderings(10.0, 1.0)


@pytest.fixture(scope="module")
def ideal_tables(schedule):
    """The ideal device's round tables, by frame name, in round order."""
    by_frame = {}
    for table in analyze_stack(IDEAL, standard_orderings(schedule)):
        by_frame.setdefault(table.frame, []).append(table)
    return by_frame


def test_evolve_to_round_index_bounds(schedule, frames):
    with pytest.raises(ValueError, match="round index"):
        evolve_to(schedule, frames["sigma"], 0, IDEAL)
    with pytest.raises(ValueError, match="round index"):
        evolve_to(schedule, frames["sigma"], 3, IDEAL)


class TestPreRoundStates:
    @pytest.fixture
    def states(self, schedule, frames):
        """The ideal device's replayed pre-round states, by frame name."""
        return {
            name: [
                evolve_to(schedule, frame, k, IDEAL).amplitudes
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
                IDEAL.unitary(site), event(schedule, f"friend_{site}").targets, expected
            )
        np.testing.assert_allclose(states["sigma"][1], expected.amplitudes, atol=1e-12)

    def test_tilted_frame_second_round_applies_only_its_lab(self, schedule, states):
        expected = apply_local(IDEAL.unitary("A"), ("L", "A"), initial_scenario_state())
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
    return set(itertools.compress(table.labels, table.possible))


class TestRoundTables:
    def test_friends_round_has_full_support_and_no_constraint(self, ideal_tables):
        table = ideal_tables["sigma"][0]
        assert table.product == 0
        assert table.possible == (True,) * 8
        np.testing.assert_allclose(table.weights, 0.125, atol=1e-10)

    def test_outsiders_round_yields_odd_parity(self, ideal_tables):
        table = ideal_tables["sigma"][1]
        assert table.constraint() == ParityConstraint(("x_A", "x_B", "x_C"), -1)
        assert possible_labels(table) == {(+1, +1, -1), (+1, -1, +1), (-1, +1, +1), (-1, -1, -1)}
        probabilities = list(itertools.compress(table.weights, table.possible))
        np.testing.assert_allclose(probabilities, 0.25, atol=1e-10)

    def test_mixed_round_yields_even_parity(self, ideal_tables):
        table = ideal_tables["sigma_p"][1]
        assert table.constraint() == ParityConstraint(("x_A", "z_B", "z_C"), +1)
        assert possible_labels(table) == {(+1, +1, +1), (+1, -1, -1), (-1, +1, -1), (-1, -1, +1)}

    def test_products_need_one_parity_shared_by_the_possible_tuples(self, schedule, monkeypatch):
        # A one-event round whose outcome weights are set through the site
        # factors: c_0 c̄_0 = 1/16 times 16·w times the spectators' 1 is w.
        cases = [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (1e-10, 1.0), (0.0, 0.0), (2.0, 1e-9)]
        weights = iter(cases)

        def factor(vectors, ev, model):
            if ev is None:
                return ((1.0, 0.0, 0.0, 0.0),)
            return tuple((16.0 * w, 0.0, 0.0, 0.0) for w in next(weights))

        monkeypatch.setattr(gwsim.scenario, "_site_factor", factor)
        rounds = [(event(schedule, "friend_A"),)]
        tables = [analyze_stack(IDEAL, {"sigma": rounds})[0] for _ in cases]
        assert [t.weights for t in tables] == cases
        assert [t.possible for t in tables] == [
            (True, True), (True, False), (False, True), (False, True), (False, False), (True, False)
        ]
        assert [t.product for t in tables] == [0, +1, -1, -1, 0, +1]
        assert [t.constraint() for t in tables[1:3]] == [
            ParityConstraint(("z_A",), sign) for sign in (+1, -1)
        ]

    def test_constraints_read_the_product_field(self, schedule, ideal_tables, monkeypatch):
        table = ideal_tables["sigma"][1]
        flipped = table._replace(product=-table.product)
        assert flipped.constraint() == ParityConstraint(("x_A", "x_B", "x_C"), +1)
        later = flipped._replace(frame="sigma_p")
        tables = [flipped, table._replace(product=0), later]
        monkeypatch.setattr(gwsim.scenario, "analyze_stack", lambda model, orderings: tables)
        _, found = collect_constraints(schedule, IDEAL)
        assert list(found) == [ParityConstraint(("x_A", "x_B", "x_C"), +1)]
        assert found[ParityConstraint(("x_A", "x_B", "x_C"), +1)] is flipped

    def test_two_slot_round_is_unconstrained(self, ideal_tables):
        table = ideal_tables["sigma_p"][2]
        assert table.product == 0
        assert table.constraint() is None
        assert len(possible_labels(table)) == 4


class TestCollectConstraints:
    def test_four_frames_give_the_canonical_quartet(self, schedule):
        _, constraints = collect_constraints(schedule, IDEAL)
        assert {(c.slots, c.required_product) for c in constraints} == {
            (("x_A", "x_B", "x_C"), -1),
            (("x_A", "z_B", "z_C"), +1),
            (("z_A", "x_B", "z_C"), +1),
            (("z_A", "z_B", "x_C"), +1),
        }
        assert len(constraints) == 4

    def test_no_frames_give_no_tables_and_no_constraints(self, schedule):
        assert analyze_stack(IDEAL, {}) == []
        assert collect_constraints(schedule._replace(frames={}), IDEAL) == ([], {})

    def test_accepts_a_plain_frame_list(self, schedule, frames, monkeypatch):
        # The four frames named from a plain list give one pass, each frame
        # ordered once, and the schedule's own tables and constraints.
        plain, standard = collect_constraints(schedule, IDEAL)
        calls, ordered = [], []
        analyze, order = gwsim.scenario.analyze_stack, gwsim.scenario.order_events

        def counting(model, orderings):
            calls.append((model, list(orderings)))
            return analyze(model, orderings)

        monkeypatch.setattr(gwsim.scenario, "analyze_stack", counting)
        monkeypatch.setattr(gwsim.scenario, "order_events", lambda s, f: ordered.append(f) or order(s, f))
        named = schedule._replace(frames=dict(zip(FRAME_NAMES, list(frames.values()))))
        tables, constraints = collect_constraints(named, IDEAL)
        assert calls == [(IDEAL, list(FRAME_NAMES))]
        assert ordered == list(frames.values())
        assert [(t.frame, t.events) for t in tables] == [(t.frame, t.events) for t in plain]
        assert list(constraints) == list(standard)

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
        only = schedule._replace(frames={name: frames[name]})
        _, constraints = collect_constraints(only, IDEAL)
        assert list(constraints) == [ParityConstraint(slots, product)]

    @pytest.mark.parametrize("spec", [{"kind": "ideal", "seed": 0}, {"kind": "random", "seed": 7}])
    def test_each_constraint_maps_to_the_first_table_yielding_it(self, schedule, spec):
        tables, constraints = collect_constraints(schedule, _build_model({"model": spec}))
        assert len(constraints) == 4
        for constraint, table in constraints.items():
            assert table is next(t for t in tables if t.constraint() == constraint)
            assert table.frame in FRAME_NAMES

    def test_reproduced_by_a_random_device_model(self, schedule):
        rng = np.random.default_rng(7)
        model = MeasurementModel(tuple(haar_random_unitary(6, rng) for _ in range(3)))
        _, constraints = collect_constraints(schedule, model)
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
        name: order_events(schedule, f) for name, f in schedule.frames.items()
    }


def assert_matches_the_dense_oracle(table, replayed, model):
    """The table against the dense replayed pre-round state: the scalar
    path's possible tuples and constraint exactly, and every tuple's weight
    within 1e-14, since the two sum in different orders."""
    entries, constraint = support_constraint(replayed, table.events, model)
    assert list(itertools.compress(table.labels, table.possible)) == [e.labels for e in entries]
    assert table.product == (constraint.required_product if constraint else 0)
    assert constraint is None or constraint.slots == round_slots(table.events)
    assert min(table.weights) >= 0.0
    dense = dense_weights(replayed, table.events, model)
    np.testing.assert_allclose(table.weights, dense, rtol=0, atol=1e-14)


@pytest.mark.parametrize("spec", sorted(ANALYSIS_MODELS))
class TestAnalyze:
    def test_matches_the_replay_oracle(self, schedule, spec):
        model = ANALYSIS_MODELS[spec]()
        frames = schedule.frames
        orderings = standard_orderings(schedule)
        tables = analyze_stack(model, orderings)
        assert len(tables) == sum(len(rounds) for rounds in orderings.values())
        for name, frame in frames.items():
            mine = [t for t in tables if t.frame == name]
            assert [t.events for t in mine] == orderings[name]
            for k, table in enumerate(mine, start=1):
                assert isinstance(table.weights, tuple) and len(table.weights) == len(table.labels)
                assert isinstance(table.product, int)
                replayed = evolve_to(schedule, frame, k, model)
                assert_matches_the_dense_oracle(table, replayed, model)

    def test_matches_the_array_oracle(self, schedule, spec):
        model = ANALYSIS_MODELS[spec]()
        orderings = standard_orderings(schedule)
        assert_matches_the_array_oracle(model, orderings, exact=spec == "ideal")

    def test_each_site_factor_is_built_once(self, schedule, spec, monkeypatch):
        model = ANALYSIS_MODELS[spec]()
        built, site_factor = [], gwsim.scenario._site_factor
        applied, apply = [], gwsim.scenario.apply_local

        def counting(vectors, ev, model):
            factor = site_factor(vectors, ev, model)
            built.append((ev and ev.kind, len(factor)))
            assert all(len(entries) == 4 for entries in factor)
            return factor

        def counting_apply(op, targets, state):
            applied.append(op)
            return apply(op, targets, state)

        monkeypatch.setattr(gwsim.scenario, "_site_factor", counting)
        monkeypatch.setattr(gwsim.scenario, "apply_local", counting_apply)
        tables = analyze_stack(model, standard_orderings(schedule))
        assert len(tables) == 11
        # Before its device runs, a site (a spectator, or its friend) reads the
        # pair vectors every site shares: two factors for the whole pass.
        # After it (a spectator, or its outsider), one per device: 4 factors
        # for the ideal device shared by all three sites, 8 for three devices.
        # A spectator's factor has one entry, an event's one per outcome.
        devices = len({id(u) for u in model.site_unitaries})
        assert (spec == "ideal") == (devices == 1)
        assert sorted(built, key=str) == sorted(
            [(None, 1), ("friend_z", 2)] + [(None, 1), ("outsider_x", 2)] * devices, key=str
        )
        # The device runs once, on the stack of both product terms, whichever
        # sites share it.
        assert len(applied) == devices
        assert set(map(id, applied)) == set(map(id, model.site_unitaries))


@pytest.mark.parametrize("matrix", ["ideal", "haar"])
def test_sharing_a_device_changes_no_bit(schedule, matrix, monkeypatch):
    # Three equal but distinct copies of one device get none of the pass's
    # or the collapse table's per-device reuse; the results are the same bits.
    read, original = [], gwsim.models.outsider_parts
    monkeypatch.setattr(gwsim.models, "outsider_parts", lambda *a: read.append(a) or original(*a))
    device = ideal_von_neumann().unitary("A") if matrix == "ideal" else _haar_model(7).unitary("B")
    shared = MeasurementModel((device,) * 3)
    copies = MeasurementModel(tuple(Operator(device.matrix) for _ in SITES))
    one, found_one = collect_constraints(schedule, shared)
    three, found_three = collect_constraints(schedule, copies)
    assert len(one) == len(three) == 11
    for a, b in zip(one, three):
        assert np.array_equal(a.weights, b.weights) and a.product == b.product
    assert list(found_one) == list(found_three)
    collapse = [sequential_collapse_distribution(m) for m in (shared, copies)]
    assert np.array_equal(collapse[0][0], collapse[1][0]) and collapse[0][1] == collapse[1][1]
    # The collapse table reads each distinct device's two recorded columns.
    assert len(read) == 2 * (1 + 3)


def assert_matches_the_array_oracle(model, orderings, exact: bool):
    """The scalar pass against the numpy array formulation it replaced: the
    same possible tuples and products, and weights within 1e-15, as the two
    sum in different orders; bit for bit where ``exact`` (the ideal
    device's dyadic fractions)."""
    tables = analyze_stack(model, orderings)
    oracle = round_by_round_tables(model, orderings)
    assert len(tables) == len(oracle) == sum(len(rounds) for rounds in orderings.values())
    for table, (weights, product) in zip(tables, oracle):
        assert isinstance(table.weights, tuple) and len(table.weights) == len(weights)
        assert table.possible == tuple((weights > SUPPORT_EPS).tolist())
        assert table.product == product
        if exact:
            assert table.weights == tuple(weights.tolist())
        else:
            assert np.abs(np.asarray(table.weights) - weights).max() <= 1e-15


@pytest.mark.parametrize("spec", ["ideal", "random:3", "haar-sweep"])
def test_the_scalar_pass_matches_the_array_oracle(spec):
    orderings = standard_orderings(build_schedule(10.0, 1.0))
    if spec == "haar-sweep":
        # A sample of the sweep's own devices, each in its own pass.
        models = [sweep_model(index, 5) for index in (1, 2, 63, 127, 128, 129)]
    else:
        models = [_build_model({"model": {"kind": spec[:6], "seed": int(spec[7:] or 0)}})]
    for model in models:
        assert_matches_the_array_oracle(model, orderings, exact=spec == "ideal")


def test_the_scalar_pass_matches_the_array_oracle_over_200_random_devices():
    # The devices of --model random:0 to random:199, each in its own pass.
    orderings = standard_orderings(build_schedule(10.0, 1.0))
    for seed in range(200):
        model = _build_model({"model": {"kind": "random", "seed": seed}})
        assert_matches_the_array_oracle(model, orderings, exact=False)


def test_the_pass_builds_no_dense_state(schedule, monkeypatch):
    # The pass works on the two product terms alone: it never builds the
    # 216-dim initial state, and ``apply_local`` only runs each site's device
    # on that site's 6-dim pair vectors, once, on the (2, 6) stack of terms.
    applied, apply = [], gwsim.scenario.apply_local

    def pair_only(op, targets, state):
        assert state.layout.names == tuple(targets) and state.dim == 6
        applied.append((tuple(targets), state.amplitudes.shape))
        return apply(op, targets, state)

    def refuse(*args):
        raise AssertionError("dense state built by the frame pass")

    monkeypatch.setattr(gwsim.scenario, "apply_local", pair_only)
    monkeypatch.setattr(gwsim.scenario, "initial_scenario_state", refuse)
    tables, found = collect_constraints(schedule, ANALYSIS_MODELS["random:5"]())
    assert len(tables) == 11
    assert sorted(applied) == sorted([(SITE_FACTORS[site], (2, 6)) for site in SITES])
    assert {(c.slots, c.required_product) for c in found} == (
        CANONICAL_CONSTRAINT_KEYS
    )


class TestBornWeights:
    def test_every_call_matches_the_generator_form(self, schedule, monkeypatch):
        # Each call the frame pass and the collapse table make, for the ideal
        # device and random:0 to random:199, against the generator form: the
        # hoisted partial products keep every weight's bits.
        calls = []

        def recording(coefficients, site_factors):
            weights = born_weights(coefficients, site_factors)
            calls.append((coefficients, site_factors, weights))
            return weights

        monkeypatch.setattr(gwsim.scenario, "born_weights", recording)
        monkeypatch.setattr(gwsim.models, "born_weights", recording)
        specs = [("ideal", 0)] + [("random", seed) for seed in range(200)]
        for kind, seed in specs:
            model = _build_model({"model": {"kind": kind, "seed": seed}})
            collect_constraints(schedule, model)
            sequential_collapse_distribution(model)
        assert len(calls) == 12 * len(specs)
        for coefficients, site_factors, weights in calls:
            assert repr(weights) == repr(born_weights_reference(coefficients, site_factors))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_terms_match_the_generator_form(self, seed):
        # Coefficients off the GHZ form's ±½, ±½i, whose products are exact
        # in any grouping, so the left-to-right grouping shows in the bits.
        rng = np.random.default_rng(seed)

        def draw(*shape):
            return (rng.normal(size=shape) + 1j * rng.normal(size=shape)).tolist()

        coefficients, factors = draw(2), [draw(n, 4) for n in (1, 2, 6)]
        assert repr(born_weights(coefficients, factors)) == repr(
            born_weights_reference(coefficients, factors)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_an_einsum_reference(self, seed):
        # Three sites with 1, 2 and 6 outcomes, each outcome's Gram entries
        # ⟨u_j|u_k⟩ of random vectors; the site's vectors carry unit weight.
        rng = np.random.default_rng(seed)
        coefficients = random_state(2, rng)
        grams = []
        for outcomes in (1, 2, 6):
            u = rng.normal(size=(outcomes, 2, 4)) + 1j * rng.normal(size=(outcomes, 2, 4))
            u /= np.sqrt((np.abs(u) ** 2).sum(axis=(0, 2)))[:, None]
            grams.append(np.einsum("lkd,ljd->lkj", u, u.conj()))
        rho = np.outer(coefficients, coefficients.conj())
        expected = np.einsum("kj,akj,bkj,ckj->abc", rho, *grams).real.reshape(-1)
        factors = [g.reshape(len(g), 4).tolist() for g in grams]
        weights = born_weights(coefficients.tolist(), factors)
        assert len(weights) == 12 and all(type(w) is float for w in weights)
        assert np.abs(np.array(weights) - np.maximum(expected, 0.0)).max() <= 1e-15

    @pytest.mark.parametrize("negative", [-1e-17, -1.0])
    def test_a_negative_sum_is_clamped_to_positive_zero(self, negative):
        one = [(1 + 0j,) * 4]
        (weight,) = born_weights((1 + 0j, 0j), [[(complex(negative), 0j, 0j, 0j)], one, one])
        assert weight == 0.0 and math.copysign(1.0, weight) == 1.0

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_the_collapse_friends_table_is_the_friends_round(self, schedule, monkeypatch, seed):
        # With every record left on the outsider's +1 outcome, the collapse's
        # x = +1 block is its friends' table alone, and so equals the weights
        # of sigma's friends' round bit for bit: both are ``born_weights`` of
        # the same terms. ``seed`` draws a two-term state off the GHZ form.
        if seed is not None:
            rng = np.random.default_rng(seed)
            ready = lab_vector(LabLabel.READY)
            pair = tuple(np.kron(ready, random_state(2, rng)).tolist() for _ in range(2))
            terms = (tuple(random_state(2, rng).tolist()), pair)
            for module in (gwsim.models, gwsim.scenario):
                monkeypatch.setattr(module, "initial_product_terms", lambda: terms)
        monkeypatch.setattr(
            gwsim.models, "outsider_parts", lambda model, site, r: [r, [0j] * 6, [0j] * 6]
        )
        probabilities, _ = sequential_collapse_distribution(IDEAL)
        rounds = order_events(schedule, schedule.frames["sigma"])
        friends_round = analyze_stack(IDEAL, {"sigma": rounds})[0]
        assert round_slots(friends_round.events) == ("z_A", "z_B", "z_C")
        assert probabilities[::8] == friends_round.weights
        spread = max(friends_round.weights) - min(friends_round.weights)
        assert spread == 0.0 if seed is None else spread > 1e-3


def device_models(n):
    """n device models: ideal, random:5, two Haar seeds, then trial_rng draws."""
    models = [ANALYSIS_MODELS[spec]() for spec in ("ideal", "random:5", "haar:7", "haar:8")]
    for index in range(4, n):
        rng = trial_rng(11, index)
        models.append(MeasurementModel(tuple(haar_random_unitary(6, rng) for _ in range(3))))
    return models[:n]


class TestManyDevices:
    def test_every_model_matches_the_per_model_reference(self, schedule, frames):
        orderings = standard_orderings(schedule)
        rounds = [k for r in orderings.values() for k in range(1, len(r) + 1)]
        for model in device_models(40):
            tables = analyze_stack(model, orderings)
            assert [(t.frame, t.events) for t in tables] == [
                (name, rnd) for name, rounds in orderings.items() for rnd in rounds
            ]
            for table, k in zip(tables, rounds):
                replayed = evolve_to(schedule, frames[table.frame], k, model)
                assert_matches_the_dense_oracle(table, replayed, model)

    def test_margins_hold_over_2000_haar_devices(self, schedule):
        # 2000 Haar models drawn as the sweep draws them (seed 3): each
        # site's Ready columns are orthonormal to rounding, far inside
        # READY_GRAM_TOL, which is what the sweep checks of them.
        ready = _haar_devices(3, range(1, 2001))[..., :2]
        gram = ready.conj().swapaxes(-1, -2) @ ready
        assert np.abs(gram - np.eye(2)).max() < 1e-14 < READY_GRAM_TOL
        # On a sample, each device's own pass: impossible tuples stay far
        # below the support cutoff, possible ones far above it, each round's
        # weights sum to 1, and every weight is the ideal device's to rounding.
        orderings = standard_orderings(schedule)
        ideal = analyze_stack(ideal_von_neumann(), orderings)
        for index in range(1, 2001, 50):
            for table, exact in zip(analyze_stack(sweep_model(index, 3), orderings), ideal):
                weights, possible = np.asarray(table.weights), np.asarray(table.possible)
                assert weights.min() >= 0.0
                assert np.where(possible, 0.0, weights).max() < 1e-12
                assert np.where(possible, weights, 1.0).min() >= 0.1
                assert abs(1.0 - weights.sum()) < 1e-12
                assert np.abs(weights - exact.weights).max() < 1e-14
                assert table.product == exact.product


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
        name: [set(table.weights) for table in tables]
        for name, tables in ideal_tables.items()
    } == expected


def test_standard_frames_yield_exactly_the_canonical_constraints(schedule):
    found = [(c.slots, c.required_product) for c in collect_constraints(schedule, IDEAL)[1]]
    assert len(found) == 4
    assert set(found) == CANONICAL_CONSTRAINT_KEYS


def test_random_subluminal_frames_yield_no_new_constraint(schedule):
    # Generic frames split the six events into singleton rounds; whatever a
    # frame yields must be one of the four the standard frames give, and
    # every device's tables must match its dense replay.
    rng = np.random.default_rng(20181106)
    speeds = 0.999 * rng.random(1000)
    angles = 2.0 * math.pi * rng.random(1000)
    frames = [
        Frame((float(v * math.cos(a)), float(v * math.sin(a)))) for v, a in zip(speeds, angles)
    ]
    orderings = {i: order_events(schedule, f) for i, f in enumerate(frames)}
    models = device_models(4)
    passes = [analyze_stack(model, orderings) for model in models]
    for tables in passes:
        assert {t.frame for t in tables} == set(range(1000))
        for c in filter(None, (t.constraint() for t in tables)):
            assert (c.slots, c.required_product) in CANONICAL_CONSTRAINT_KEYS
    # Many frames share an ordering, so each distinct pre-round state and
    # round (the friends measured before it, its events) is replayed once,
    # and every other table of it must hold the same weights.
    replayed_rounds = {}
    rounds = [k for r in orderings.values() for k in range(1, len(r) + 1)]
    for r, (table, k) in enumerate(zip(passes[0], rounds)):
        before = orderings[table.frame][: k - 1]
        friends = tuple(ev.id for rnd in before for ev in rnd if ev.kind == "friend_z")
        first, _ = replayed_rounds.setdefault((friends, table.events), (r, k))
        for tables in passes:
            assert np.array_equal(tables[r].weights, tables[first].weights)
    assert len(replayed_rounds) > 20
    for r, k in replayed_rounds.values():
        for model, tables in zip(models, passes):
            replayed = evolve_to(schedule, frames[tables[r].frame], k, model)
            assert_matches_the_dense_oracle(tables[r], replayed, model)


class TestEnumerateAssignments:
    def test_no_constraints_leaves_all_64(self):
        rows = enumerate_assignments([])
        assert len(rows) == 64 and rows == OUTCOME_SIGNS
        assert all(type(v) is int for signs in rows for v in signs)

    def test_matches_the_exhaustive_loop(self, schedule):
        canonical = list(collect_constraints(schedule, IDEAL)[1])
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
            assert enumerate_assignments(constraints) == tuple(expected)

    def test_full_quartet_is_unsatisfiable(self, schedule):
        constraints = list(collect_constraints(schedule, IDEAL)[1])
        assert enumerate_assignments(constraints) == ()

    def test_dropping_any_one_constraint_leaves_eight(self, schedule):
        constraints = list(collect_constraints(schedule, IDEAL)[1])
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
