"""Correctness gate behind ``failed``: the benchmark's own expected values.

Nothing here is imported from ``gwsim``. The values are the source paper's
results: four parity constraints, none of the 64 outcome assignments
satisfying them, the preferred frame's parity never violated under
``round_born``, and an exact post-erasure Down probability of 1/2. No report
digest is pinned, because re-seeding the sampler legitimately changes the
sampled counts.
"""

from __future__ import annotations

import json
from functools import partial

CANONICAL_CONSTRAINTS = frozenset(
    {
        (("x_A", "x_B", "x_C"), -1),
        (("x_A", "z_B", "z_C"), +1),
        (("z_A", "x_B", "z_C"), +1),
        (("z_A", "z_B", "x_C"), +1),
    }
)
EXACT_TOL = 1e-12


def _constraint_set(entries) -> frozenset:
    return frozenset((tuple(e["slots"]), e["required_product"]) for e in entries)


def _check_constraints(results: dict, problems: list[str]) -> None:
    if _constraint_set(results["constraints"]) != CANONICAL_CONSTRAINTS:
        problems.append(f"constraints are not the canonical four: {results['constraints']}")
    if results["satisfying_assignments"] != 0:
        problems.append(f"{results['satisfying_assignments']} assignments satisfy the constraints")


def _check_run(mode: str, results: dict, seed: int, trials: int, problems: list[str]) -> None:
    _check_constraints(results, problems)
    run = results["run"]
    if (run["mode"], run["trials"], run["seed"]) != (mode, trials, seed):
        problems.append(f"run echoes mode/trials/seed {run['mode']}/{run['trials']}/{run['seed']}")
    stats = run["constraint_statistics"]
    if _constraint_set(stats) != CANONICAL_CONSTRAINTS:
        problems.append("constraint statistics do not cover the canonical four")
    for entry in stats:
        if not 0 <= entry["violations"] <= trials:
            problems.append(f"violation count {entry['violations']} outside 0..{trials}")
    if not 0 <= run["trials_violating_nonpreferred"] <= trials:
        problems.append(f"trials_violating_nonpreferred {run['trials_violating_nonpreferred']}")
    if mode == "round_born":
        preferred = [e for e in stats if e["preferred"]]
        if not preferred or any(e["violations"] for e in preferred):
            problems.append("preferred-frame constraints missing or violated")
        if run["trials_violating_nonpreferred"] != trials:
            problems.append(
                f"{run['trials_violating_nonpreferred']} of {trials} trials violate "
                "a non-preferred constraint"
            )
    elif not 0.0 <= run["outsider_product_minus_one_rate"] <= 1.0:
        problems.append(f"outsider parity rate {run['outsider_product_minus_one_rate']}")


def _check_erasure(results: dict, seed: int, trials: int, problems: list[str]) -> None:
    if (results["trials"], results["seed"], results["skip_pair_x"]) != (trials, seed, False):
        problems.append("erasure echoes the wrong trials, seed or skip flag")
    if abs(results["exact_down_probability"] - 0.5) > EXACT_TOL:
        problems.append(f"exact Down probability {results['exact_down_probability']!r} is not 1/2")
    door, pair = results["door_counts"], results["pair_x_counts"]
    if sum(pair.values()) != trials or sum(door.values()) != trials or door["0"] != 0:
        problems.append(f"outcome counts {pair} / {door} do not add up to {trials} trials")
    if results["down_frequency"] != door["-1"] / trials:
        problems.append("down_frequency disagrees with the door counts")


def _check_sweep(results: dict, seed: int, n_models: int, problems: list[str]) -> None:
    if (results["n_models"], results["seed"]) != (n_models, seed):
        problems.append("sweep echoes the wrong model count or seed")
    if results["n_passed"] != n_models:
        problems.append(f"{results['n_passed']} of {n_models} models passed")
    models = results["models"]
    if [m["index"] for m in models] != list(range(n_models)):
        problems.append("sweep does not list every model once, in order")
    for m in models:
        expected_kind = "ideal" if m["index"] == 0 else "haar"
        if not (
            m["kind"] == expected_kind
            and m["constraints_match"] is True
            and m["satisfying_assignments"] == 0
            and m["support_ok"] is True
            and m["passed"] is True
        ):
            problems.append(f"model {m['index']} does not reproduce the contradiction: {m}")


# Workload name -> (report "command", check function of (results, seed, size, problems)).
CHECKS = {
    "frame_sweep": ("sweep", _check_sweep),
    "born_mc": ("run", partial(_check_run, "round_born")),
    "collapse_mc": ("run", partial(_check_run, "sequential_collapse")),
    "erasure_mc": ("erasure", _check_erasure),
}


def check_invocation(
    workload: str, seed: int, size: int, returncode: int, stdout: bytes, stderr: bytes
) -> list[str]:
    """Reasons this invocation failed; empty when it produced a correct report."""
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    if b"Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not one JSON report"]
    command, check = CHECKS[workload]
    try:
        if report["command"] != command:
            problems.append(f"report is for command {report['command']!r}, not {command!r}")
        if report["passed"] is not True:
            problems.append("report has passed != true")
        failing = [c["name"] for c in report["checks"] if c["passed"] is not True]
        if failing:
            problems.append(f"report checks failed: {', '.join(failing)}")
        check(report["results"], seed, size, problems)
    except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        problems.append(f"report is malformed: {type(exc).__name__}: {exc}")
    return problems
