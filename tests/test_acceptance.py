"""End-to-end acceptance suite.

One test per numbered criterion, each run at its stated scale and tolerance;
every test prints a single ``[acceptance] criterion N: PASS`` line on success
so a quick scan of the output shows the whole scorecard.
"""

import itertools
import math

import numpy as np
import pytest

from _oracles import (
    axis_spec,
    boost_point,
    brute_support,
    dense_ghz,
    door_observable,
    outsider_observable,
    random_state,
    random_unitary,
    site_gram,
    spin_observable,
    sweep_failures,
    sym_ghz_amplitudes,
)
from gwsim.measurement import (
    SAMPLE_FLOOR,
    MeasurementModel,
    distinguishability_report,
    haar_random_unitary,
    ideal_von_neumann,
)
from gwsim.models import (
    InterpretationModel,
    _signed_outcomes,
    erasure_experiment,
    nonideal_sweep,
    quarter_support,
    run_model,
)
from gwsim.qmath import (
    BasisGroup,
    Operator,
    StateVector,
    apply_local,
    grouped_amplitudes,
    layout,
)
from gwsim.scenario import (
    CANONICAL_SLOTS,
    OUTCOME_SIGNS,
    analyze_stack,
    build_schedule,
    collect_constraints,
    enumerate_assignments,
    order_events,
)
from gwsim.spacetime import (
    Frame,
    boost_for_simultaneity,
    frame_time,
    interval,
    point,
    standard_geometry,
    validate_geometry,
)
from gwsim.systems import (
    SITE_FACTORS,
    SUPPORT_EPS,
    SupportEntry,
    support_table,
)

SEED = 2026
TRIALS = 10_000
FOUR_SIGMA_HALF = 4.0 * math.sqrt(0.25 / TRIALS)


@pytest.fixture(scope="module")
def schedule():
    return build_schedule(10.0, 1.0)


@pytest.fixture(scope="module")
def frames(schedule):
    return schedule.frames


def package_weights(state: StateVector, groups) -> np.ndarray:
    """Born weight of every joint outcome tuple, in ``itertools.product``
    order of the groups' labels: the package's ``grouped_amplitudes`` summed
    over the spectator axis."""
    amps, _ = grouped_amplitudes(state, groups)
    return (np.abs(amps) ** 2).sum(axis=-1).ravel()


def assert_support_table_keeps(state: StateVector, groups, weights) -> list[SupportEntry]:
    """``support_table`` keeps exactly the tuples whose weight clears the
    cutoff, each with that weight."""
    entries, _ = support_table(state, groups)
    labels = list(itertools.product(*(g.labels for g in groups)))
    kept = [(l, w) for l, w in zip(labels, weights) if w > SUPPORT_EPS]
    assert [e.labels for e in entries] == [l for l, _ in kept]
    assert all(abs(abs(e.amplitude) ** 2 - w) <= 1e-12 for e, (_, w) in zip(entries, kept))
    return entries


def test_criterion_1_ghz_expansions():
    tol = 1e-10
    ghz = dense_ghz()

    def support(axes):
        groups = axis_spec(ghz, axes)
        weights = package_weights(ghz, groups)
        exact = sym_ghz_amplitudes(axes)
        labels = list(itertools.product(*(g.labels for g in groups)))
        for signs, weight in zip(labels, weights):
            assert abs(weight - abs(complex(exact[signs].evalf())) ** 2) <= tol
        entries = assert_support_table_keeps(ghz, groups, weights)
        return {e.labels: abs(e.amplitude) ** 2 for e in entries}

    z_entries = support("zzz")
    assert len(z_entries) == 8
    assert all(abs(w - 0.125) <= tol for w in z_entries.values())

    x_entries = support("xxx")
    assert len(x_entries) == 4
    assert all(math.prod(signs) == -1 for signs in x_entries)
    assert all(abs(w - 0.25) <= tol for w in x_entries.values())

    for mixed_axes in ("xzz", "zxz", "zzx"):
        mixed = support(mixed_axes)
        assert len(mixed) == 4
        assert all(math.prod(signs) == +1 for signs in mixed)
        assert all(abs(w - 0.25) <= tol for w in mixed.values())

    print("[acceptance] criterion 1: PASS")


def test_criterion_2_distinguishability():
    tol = 1e-10
    report = distinguishability_report(ideal_von_neumann())
    door = report["distributions"]["door"]
    pair = report["distributions"]["pair_x"]

    for state in ("unitary_record", "collapsed_record"):
        assert abs(door[state][+1] - 0.5) <= tol
        assert abs(door[state][-1] - 0.5) <= tol
        assert abs(door[state][0]) <= tol

    assert abs(pair["unitary_record"][+1] - 1.0) <= tol
    assert abs(pair["unitary_record"][-1]) <= tol
    assert abs(pair["collapsed_record"][+1] - 0.5) <= tol
    assert abs(pair["collapsed_record"][-1] - 0.5) <= tol

    print("[acceptance] criterion 2: PASS")


def test_criterion_3_frame_geometry():
    g = standard_geometry(10.0, 1.0)

    targets = (point(g.t1, g.x_a), point(g.t0, g.x_b), point(g.t0, g.x_c))
    boost = boost_for_simultaneity(*targets)
    assert abs(boost.speed - 1.0 / (5.0 * math.sqrt(3.0))) <= 1e-9

    times = [frame_time(boost, p) for p in targets]
    assert max(times) - min(times) <= 1e-12

    assert all(r.passed for r in validate_geometry(g)[0])

    rng = np.random.default_rng(SEED)
    for _ in range(100):
        speed = 1.1
        while speed > 0.9:
            v = rng.uniform(-0.9, 0.9, size=2)
            speed = float(np.linalg.norm(v))
        frame = Frame((float(v[0]), float(v[1])))
        p = point(float(rng.uniform(-5, 5)), tuple(rng.uniform(-5, 5, size=2)))
        q = point(float(rng.uniform(-5, 5)), tuple(rng.uniform(-5, 5, size=2)))
        boosted = interval(boost_point(frame, p), boost_point(frame, q))
        assert abs(boosted - interval(p, q)) <= 1e-9

    print("[acceptance] criterion 3: PASS")


def test_criterion_4_constraints_unsatisfiable(schedule, frames):
    expected_by_frame = {
        "sigma": (("x_A", "x_B", "x_C"), -1),
        "sigma_p": (("x_A", "z_B", "z_C"), +1),
        "sigma_pp": (("z_A", "x_B", "z_C"), +1),
        "sigma_ppp": (("z_A", "z_B", "x_C"), +1),
    }

    orderings = {name: order_events(schedule, frame) for name, frame in frames.items()}
    found = {name: [] for name in frames}
    for table in analyze_stack(ideal_von_neumann(), orderings):
        constraint = table.constraint()
        if constraint is None:
            continue
        found[table.frame].append((constraint.slots, constraint.required_product))
        probabilities = np.array(list(itertools.compress(table.weights, table.possible)))
        assert len(probabilities) == 4
        assert np.all(np.abs(probabilities - 0.25) <= 1e-10)
    assert found == {name: [expected] for name, expected in expected_by_frame.items()}

    constraints = list(collect_constraints(schedule, ideal_von_neumann())[1])
    assert len(constraints) == 4
    assert {(c.slots, c.required_product) for c in constraints} == set(
        expected_by_frame.values()
    )

    assert len(enumerate_assignments(constraints)) == 0
    for skip in range(4):
        kept = [c for i, c in enumerate(constraints) if i != skip]
        assert len(enumerate_assignments(kept)) == 8

    print("[acceptance] criterion 4: PASS")


def test_criterion_5_nonideal_sweep():
    report = nonideal_sweep(101, seed=SEED, side=10.0, tau=1.0)
    # Model 0 is the ideal device, whose one pass every Haar model shares.
    assert len(report.support_ok) == 101
    assert report.support_ok[0] is quarter_support(
        collect_constraints(build_schedule(10.0, 1.0), ideal_von_neumann())[0]
    )
    assert sweep_failures(report) == []

    print("[acceptance] criterion 5: PASS")


def test_criterion_6_preferred_frame_model(schedule):
    model = InterpretationModel("round_born", "sigma")
    report = run_model(schedule, ideal_von_neumann(), model, TRIALS, seed=SEED)

    (preferred_index,) = [i for i, p in enumerate(report.preferred_mask) if p]
    assert report.violation_counts[preferred_index] == 0

    for i, preferred in enumerate(report.preferred_mask):
        if preferred:
            continue
        assert abs(report.violation_counts[i] / TRIALS - 0.5) <= FOUR_SIGMA_HALF

    assert report.trials_violating_nonpreferred == TRIALS

    print("[acceptance] criterion 6: PASS")


def test_criterion_7_sequential_collapse_contrast(schedule):
    model = InterpretationModel("sequential_collapse", "sigma")
    report = run_model(schedule, ideal_von_neumann(), model, TRIALS, seed=SEED)

    outsiders = [CANONICAL_SLOTS.index(slot) for slot in ("x_A", "x_B", "x_C")]
    assert sum(report.counts) == TRIALS
    minus = sum(n for n, signs in zip(report.counts, OUTCOME_SIGNS) if math.prod(signs[j] for j in outsiders) == -1)
    assert abs(minus / TRIALS - 0.5) <= FOUR_SIGMA_HALF

    print("[acceptance] criterion 7: PASS")


def test_criterion_8_erasure():
    report = erasure_experiment(TRIALS, seed=SEED, skip_pair_x=False)
    assert abs(report.exact_down_probability - 0.5) <= 1e-12
    assert abs(report.down_frequency - 0.5) <= FOUR_SIGMA_HALF

    print("[acceptance] criterion 8: PASS")


# ---------------------------------------------------------------------------
# Criterion 9 — five seeded property campaigns, ≥1000 cases each.

NAME_POOL = ("L", "A", "M", "B", "N", "C")


def _random_layout(rng, max_factors):
    n = int(rng.integers(1, max_factors + 1))
    names = rng.choice(NAME_POOL, size=n, replace=False)
    return layout(*names)


def _norm_preservation_campaign(cases):
    rng = np.random.default_rng(SEED)
    for _ in range(cases):
        lay = _random_layout(rng, 4)
        state = StateVector(lay, random_state(lay.dim, rng))
        n_targets = int(rng.integers(1, min(2, len(lay.names)) + 1))
        targets = tuple(rng.choice(lay.names, size=n_targets, replace=False))
        dim = math.prod(lay.dims[lay.axis(t)] for t in targets)
        u = haar_random_unitary(dim, rng)
        moved = apply_local(u, targets, state)
        assert abs(np.linalg.norm(moved.amplitudes) - 1.0) <= 1e-10


def _projector_completeness_campaign(cases):
    rng = np.random.default_rng(SEED + 1)
    axes = "xyz"
    for case in range(cases):
        model = MeasurementModel((haar_random_unitary(6, rng),) * 3)
        observables = (
            outsider_observable(model),
            door_observable(),
            spin_observable(axes[case % 3]),
        )
        for obs in observables:
            total = sum(p.matrix for _, p in obs.eigenpairs)
            assert np.max(np.abs(total - np.eye(total.shape[0]))) <= 1e-10


def _collapse_idempotence_campaign(cases):
    rng = np.random.default_rng(SEED + 2)
    pair_layout = layout("L", "A")
    axes = "xyz"
    for case in range(cases):
        if case % 3 == 2:
            obs = spin_observable(axes[case % 9 // 3], "A")
            lay = layout("A")
        else:
            model = MeasurementModel((haar_random_unitary(6, rng),) * 3)
            obs = outsider_observable(model) if case % 3 else door_observable()
            lay = pair_layout
        # A random state within the ±1 eigenspaces, where every outcome is a
        # record the collapse tables accept.
        records = Operator(sum(proj.matrix for value, proj in obs.eigenpairs if value))
        psi = apply_local(records, obs.targets, StateVector(lay, random_state(lay.dim, rng)))
        state = StateVector(lay, psi.amplitudes / np.linalg.norm(psi.amplitudes))
        # Measuring twice gives outcome (a, b) the weight ‖P_b P_a ψ‖², the
        # eigenvalues running +1, −1 (, 0). The targets lead the state's
        # layout, so P ⊗ 1 lifts a projector onto it.
        n = len(obs.eigenpairs)
        full = [np.kron(p.matrix, np.eye(lay.dim // p.dim)) for _, p in obs.eigenpairs]
        operators = np.stack([pb @ pa for pa in full for pb in full])
        gram = site_gram(state.amplitudes[None], operators)
        kept, light = _signed_outcomes(gram[0].real.tolist(), (n, n))
        kept = np.reshape(kept, (2, 2))
        # Against the Born weights ⟨ψ|P ψ⟩ of one measurement.
        born = {
            value: np.vdot(state.amplitudes, apply_local(proj, obs.targets, state).amplitudes).real
            for value, proj in obs.eigenpairs
        }
        assert np.abs(kept - np.diag([born[v] for v in (+1, -1)])).max() <= 1e-10
        assert np.count_nonzero(kept) == 2
        assert sum(light) < SAMPLE_FLOOR


def _frame_order_invariance_campaign(cases, schedule, frames):
    orderings = [
        [[(ev.site, ev.kind) for ev in rnd] for rnd in order_events(schedule, frame)]
        for frame in frames.values()
    ]
    lay = layout("L", "A", "M", "B", "N", "C")
    rng = np.random.default_rng(SEED + 3)
    for _ in range(cases):
        model = MeasurementModel(tuple(haar_random_unitary(6, rng) for _ in range(3)))
        start = StateVector(lay, random_state(lay.dim, rng))
        finals = []
        for rounds in orderings:
            state = start
            for rnd in rounds:
                for site, kind in rnd:
                    if kind == "friend_z":
                        state = apply_local(model.unitary(site), SITE_FACTORS[site], state)
            finals.append(state.amplitudes)
        for other in finals[1:]:
            assert np.max(np.abs(other - finals[0])) <= 1e-10


def _support_oracle_campaign(cases):
    rng = np.random.default_rng(SEED + 4)
    for _ in range(cases):
        lay = _random_layout(rng, 3)
        dims = lay.dims
        psi = random_state(lay.dim, rng)
        state = StateVector(lay, psi)

        n_covered = int(rng.integers(1, len(lay.names) + 1))
        covered = list(rng.permutation(len(lay.names))[:n_covered])
        chunks = []
        for position in covered:
            if chunks and rng.random() < 0.5:
                chunks[-1].append(position)
            else:
                chunks.append([position])

        pkg_groups = []
        oracle_groups = []
        for chunk in chunks:
            group_dim = math.prod(dims[p] for p in chunk)
            n_labels = int(rng.integers(1, group_dim + 1))
            columns = random_unitary(group_dim, rng)[:, :n_labels]
            pkg_groups.append(
                BasisGroup(
                    tuple(lay.names[p] for p in chunk), tuple(range(n_labels)), columns
                )
            )
            oracle_groups.append(
                (tuple(chunk), [columns[:, j] for j in range(n_labels)])
            )

        weights = package_weights(state, pkg_groups)
        brute = brute_support(psi, dims, oracle_groups)

        # Both run over the joint labels in itertools.product order.
        assert list(brute) == list(itertools.product(*(g.labels for g in pkg_groups)))
        assert np.max(np.abs(weights - list(brute.values()))) <= 1e-9
        assert_support_table_keeps(state, pkg_groups, weights)


def test_criterion_9_property_suites(schedule, frames):
    cases = 1000
    _norm_preservation_campaign(cases)
    _projector_completeness_campaign(cases)
    _collapse_idempotence_campaign(cases)
    _frame_order_invariance_campaign(cases, schedule, frames)
    _support_oracle_campaign(cases)

    print("[acceptance] criterion 9: PASS")
