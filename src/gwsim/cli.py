"""Command-line front end: ``gwsim COMMAND [FLAG ...]``.

``COMMANDS`` maps each subcommand onto one of the package's main results and
lists its flags; ``FLAGS`` declares every flag once, and ``parse_args`` reads
a command line against the two. Configuration comes from an optional JSON
file plus flag overrides; every report echoes the fully-resolved
configuration, carries a named pass/fail check list, and is byte-identical
for identical inputs (no timestamps). Exit status is 0 if all checks pass,
1 if one fails, and 2 on a usage or configuration error (``error: ...``).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from .measurement import MeasurementModel, distinguishability_report, ideal_von_neumann
from .models import (
    InterpretationModel,
    MAX_MODELS,
    MAX_TRIALS,
    MODES,
    erasure_experiment,
    haar_model,
    nonideal_sweep,
    quarter_support,
    run_model,
)
from .scenario import (
    FRAME_NAMES,
    ParityConstraint,
    build_schedule,
    checked_schedule,
    collect_constraints,
    enumerate_assignments,
    order_events,
    violation_mask,
)
from .spacetime import GEOMETRY_TOL, standard_geometry

SCHEMA_VERSION = "12"
# Tolerance of every check on an exactly computed probability.
EXACT_TOL = 1e-12

DEFAULT_CONFIG = {
    "geometry": {"side": 10.0, "tau": 1.0},
    "model": {"kind": "ideal", "seed": 0},
    "run": {"mode": "round_born", "preferred_frame": "sigma", "trials": 10000, "seed": None},
    "output": {"format": "json", "path": None},
}


class ConfigError(ValueError):
    pass


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {path + key!r} must be an object")
            out[key] = _merge(base[key], value, path + key + ".")
        else:
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    """Defaults, deep-merged with the JSON config file if given."""
    config = {k: dict(v) for k, v in DEFAULT_CONFIG.items()}
    if path is None:
        return config
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer past the digit limit
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return _merge(config, data)


def _parse_model_spec(text: str) -> dict:
    if text == "ideal":
        return {"kind": "ideal", "seed": 0}
    if text.startswith("random:"):
        try:
            return {"kind": "random", "seed": int(text.split(":", 1)[1])}
        except ValueError as exc:
            raise ConfigError(f"bad model spec {text!r}: expected random:<int>") from exc
    raise ConfigError(f"bad model spec {text!r}: expected 'ideal' or 'random:<seed>'")


def _validate_config(config: dict) -> dict:
    geometry = config["geometry"]
    for key in ("side", "tau"):
        value = geometry[key]
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max  # false for nan and huge ints too
        ):
            raise ConfigError(f"geometry.{key} must be a finite number, got {value!r}")
        geometry[key] = float(value)
    if config["model"]["kind"] not in ("ideal", "random"):
        raise ConfigError(f"model.kind must be 'ideal' or 'random', got {config['model']['kind']!r}")
    seed = config["model"]["seed"]
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"model.seed must be a non-negative integer, got {seed!r}")
    run = config["run"]
    if run["mode"] not in MODES:
        raise ConfigError(f"run.mode must be one of {MODES}, got {run['mode']!r}")
    if run["preferred_frame"] not in FRAME_NAMES:
        raise ConfigError(
            f"run.preferred_frame must be one of {FRAME_NAMES}, got {run['preferred_frame']!r}"
        )
    if not _is_int(run["trials"]) or run["trials"] < 0:
        raise ConfigError(f"run.trials must be a non-negative integer, got {run['trials']!r}")
    if run["trials"] > MAX_TRIALS:
        raise ConfigError(f"run.trials must be at most 2**63 - 1, got {run['trials']!r}")
    if run["seed"] is not None and not _is_int(run["seed"]):
        raise ConfigError(f"run.seed must be an integer, got {run['seed']!r}")
    if run["seed"] is not None and run["seed"] < 0:
        raise ConfigError(f"run.seed must be non-negative, got {run['seed']}")
    if config["output"]["format"] not in ("json", "text"):
        raise ConfigError(f"output.format must be 'json' or 'text', got {config['output']['format']!r}")
    if config["output"]["path"] is not None and not isinstance(config["output"]["path"], str):
        # open() would take an integer (or true) as a file descriptor.
        raise ConfigError(f"output.path must be a string, got {config['output']['path']!r}")
    return config


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as int.
    return isinstance(value, int) and not isinstance(value, bool)


def _resolve_seed(config: dict) -> int:
    # A null run.seed means 0, and the report echoes the seed it ran with.
    config["run"]["seed"] = config["run"]["seed"] or 0
    return config["run"]["seed"]


def _build_model(config: dict) -> MeasurementModel:
    if config["model"]["kind"] == "ideal":
        return ideal_von_neumann()
    return haar_model(config["model"]["seed"])


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _report(command: str, config: dict, results: dict, checks: list[dict]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "results": results,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _sign_key(value: float) -> str:
    n = int(round(value))
    return f"{n:+d}" if n else "0"


def _distribution_dict(dist: dict) -> dict:
    return {_sign_key(v): float(p) for v, p in dist.items()}


def _constraint_dict(c) -> dict:
    return {"slots": list(c.slots), "required_product": c.required_product}


def _binomial_band(p: float, trials: int) -> float:
    return 4.0 * math.sqrt(p * (1.0 - p) / trials) if trials else math.inf


def _rates(rates) -> str:
    return ", ".join(f"{r:.12g}" for r in rates)


def _pruned_weight_check(pruned: float) -> dict:
    return _check(
        "pruned_weight_negligible",
        pruned <= EXACT_TOL,
        f"outcome weight left out of the exact table: {pruned:.3g}",
    )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ghz_nogo(config: dict, drop_constraint: int | None = None) -> dict:
    model = _build_model(config)
    side, tau = config["geometry"]["side"], config["geometry"]["tau"]
    analysed, found = collect_constraints(build_schedule(side, tau), model)

    tables = []
    for constraint, table in found.items():
        possible = table.possible
        probabilities = itertools.compress(table.weights, possible)
        tables.append(
            {
                "frame": table.frame,
                "slots": list(constraint.slots),
                "entries": [
                    {"labels": list(labels), "probability": p}
                    for labels, p in zip(itertools.compress(table.labels, possible), probabilities)
                ],
                "constraint": _constraint_dict(constraint),
            }
        )

    constraints = list(found)
    checks = [
        _check(
            "support_tables_quarter",
            quarter_support(analysed) and all(len(t["entries"]) == 4 for t in tables),
            "every constrained round has 4 outcome tuples of weight 1/4",
        ),
        _check("constraint_count", len(constraints) == 4, f"collected {len(constraints)} constraints"),
    ]

    kept, dropped = list(constraints), None
    name, expected, which = "unsatisfiable", 0, "all four constraints"
    if drop_constraint is not None:
        if not 1 <= drop_constraint <= len(constraints):
            raise ConfigError(
                f"--drop-constraint must be in 1..{len(constraints)}, got {drop_constraint}"
            )
        dropped = _constraint_dict(constraints[drop_constraint - 1])
        kept = [c for i, c in enumerate(constraints, start=1) if i != drop_constraint]
        name, expected, which = "dropped_constraint_leaves_eight", 8, "the remaining three"
    satisfying = len(enumerate_assignments(kept))
    detail = f"{satisfying} of 64 assignments satisfy {which}"
    checks.append(_check(name, satisfying == expected, detail))

    results = {
        "support_tables": tables,
        "constraints": [_constraint_dict(c) for c in constraints],
        "dropped_constraint": dropped,
        "satisfying_assignments": satisfying,
    }
    return _report("ghz-nogo", config, results, checks)


def cmd_distinguish(config: dict) -> dict:
    model = _build_model(config)
    report = distinguishability_report(model)
    table = {
        obs: {
            state: _distribution_dict(dist)
            for state, dist in report["distributions"][obs].items()
        }
        for obs in report["observables"]
    }

    door = table["door"]
    pair = table["pair_x"]
    door_equal = all(
        abs(door["unitary_record"][k] - door["collapsed_record"][k]) <= EXACT_TOL
        for k in door["unitary_record"]
    )
    checks = [
        _check("door_rows_equal", door_equal, "door statistics identical on both descriptions"),
        _check(
            "pair_x_unitary_point_mass",
            abs(pair["unitary_record"]["+1"] - 1.0) <= EXACT_TOL,
            f"pair observable on unitary description: +1 with probability "
            f"{pair['unitary_record']['+1']:.12g}",
        ),
        _check(
            "pair_x_collapsed_even",
            abs(pair["collapsed_record"]["+1"] - 0.5) <= EXACT_TOL
            and abs(pair["collapsed_record"]["-1"] - 0.5) <= EXACT_TOL,
            "pair observable on collapsed description: 1/2, 1/2",
        ),
    ]
    results = {"observables": report["observables"], "states": report["states"], "distributions": table}
    return _report("distinguish", config, results, checks)


def cmd_frames(config: dict) -> dict:
    side, tau = config["geometry"]["side"], config["geometry"]["tau"]
    geometry = standard_geometry(side, tau)
    geo_checks, schedule = checked_schedule(geometry)
    checks = [_check(f"geometry_{r.name}", r.passed, r.detail) for r in geo_checks]
    results: dict = {
        "geometry": {
            "side": side,
            "tau": tau,
            "positions": {s: list(geometry.position(s)) for s in "ABC"},
            "epochs": [geometry.t0, geometry.t1, geometry.t2],
        }
    }

    if schedule is not None:
        frames = schedule.frames
        speeds = [f.speed for name, f in frames.items() if name != "sigma"]
        results["frames"] = {
            name: {"velocity": list(f.velocity), "speed": f.speed, "gamma": f.gamma}
            for name, f in frames.items()
        }
        results["orderings"] = {
            name: [[ev.id for ev in rnd] for rnd in order_events(schedule, f)]
            for name, f in frames.items()
        }
        checks.append(
            _check(
                "tilted_speeds_equal",
                max(speeds) - min(speeds) <= GEOMETRY_TOL,
                f"tilted-frame speeds {', '.join(f'{s:.12g}' for s in speeds)}",
            )
        )
    return _report("frames", config, results, checks)


def cmd_run(config: dict) -> dict:
    seed = _resolve_seed(config)
    model = _build_model(config)
    side, tau = config["geometry"]["side"], config["geometry"]["tau"]
    trials = config["run"]["trials"]
    mode = config["run"]["mode"]
    preferred_name = config["run"]["preferred_frame"]
    preferred = InterpretationModel(mode, preferred_name)
    report = run_model(build_schedule(side, tau), model, preferred, trials, seed)
    constraints = report.constraints
    satisfying = len(report.violation_mask) - sum(map(any, report.violation_mask))

    checks = [
        _check("constraint_count", len(constraints) == 4, f"collected {len(constraints)} constraints"),
        _check(
            "unsatisfiable", satisfying == 0, f"{satisfying} of 64 assignments satisfy all constraints"
        ),
    ]
    results: dict = {
        "constraints": [_constraint_dict(c) for c in constraints],
        "satisfying_assignments": satisfying,
    }

    if trials > 0:
        stats = [
            {**_constraint_dict(c), "preferred": preferred, "violations": count,
             "rate": count / trials, "exact_rate": exact}
            for c, preferred, count, exact in zip(
                constraints, report.preferred_mask, report.violation_counts, report.exact_rates
            )
        ]
        results["run"] = {
            "mode": mode,
            "preferred_frame": preferred_name,
            "trials": trials,
            "seed": seed,
            "constraint_statistics": stats,
            "trials_violating_nonpreferred": report.trials_violating_nonpreferred,
            "pruned_weight": report.pruned_weight,
        }
        checks.append(_pruned_weight_check(report.pruned_weight))
        if mode == "round_born":
            rows = list(zip(report.exact_rates, report.violation_counts, report.preferred_mask))
            exact_preferred = [r for r, _, p in rows if p]
            exact_nonpreferred = [r for r, _, p in rows if not p]
            exact_any = report.exact_nonpreferred_probability
            violating = report.trials_violating_nonpreferred
            band = _binomial_band(0.5, trials)
            nonpreferred_rates = [n / trials for _, n, p in rows if not p]
            checks += [
                _check(
                    "preferred_exact_rates_zero",
                    all(r <= EXACT_TOL for r in exact_preferred),
                    f"exact violation probabilities {_rates(exact_preferred)} of the "
                    "preferred frame's constraints",
                ),
                _check(
                    "nonpreferred_exact_rates_half",
                    all(abs(r - 0.5) <= EXACT_TOL for r in exact_nonpreferred),
                    f"exact violation probabilities {_rates(exact_nonpreferred)}",
                ),
                _check(
                    "exact_nonpreferred_violation_certain",
                    abs(exact_any - 1.0) <= EXACT_TOL,
                    f"an assignment violates ≥1 non-preferred constraint with "
                    f"probability {exact_any:.12g}",
                ),
                _check(
                    "preferred_constraints_never_violated",
                    all(n == 0 for _, n, p in rows if p),
                    "preferred frame's parity holds in every trial",
                ),
                _check(
                    "nonpreferred_rates_half",
                    all(abs(r - 0.5) <= band for r in nonpreferred_rates),
                    f"rates {_rates(nonpreferred_rates)} within 4σ band ±{band:.3g} of 1/2",
                ),
                _check(
                    "every_trial_violates_nonpreferred",
                    violating == trials,
                    f"{violating} of {trials} trials violate at least one non-preferred constraint",
                ),
            ]
        else:
            (minus,) = zip(*violation_mask([ParityConstraint(("x_A", "x_B", "x_C"), +1)]))
            rate = sum(itertools.compress(report.counts, minus)) / trials
            exact = sum(itertools.compress(report.probabilities, minus), 0.0)
            results["run"]["outsider_product_minus_one_rate"] = rate
            results["run"]["outsider_product_minus_one_exact_rate"] = exact
            checks += [
                _check(
                    "outsider_parity_exact_half",
                    abs(exact - 0.5) <= EXACT_TOL,
                    f"exact probability of outsider product −1: {exact:.12g}",
                ),
                _check(
                    "outsider_parity_rate_half",
                    abs(rate - 0.5) <= _binomial_band(0.5, trials),
                    f"collapse breaks the unitary prediction: product −1 in "
                    f"{rate:.12g} of trials (unitary account: all of them)",
                ),
            ]
    return _report("run", config, results, checks)


def cmd_erasure(config: dict, skip_j: bool = False) -> dict:
    seed = _resolve_seed(config)
    trials = config["run"]["trials"]
    report = erasure_experiment(trials, seed, skip_pair_x=skip_j)
    results = {
        "trials": trials,
        "seed": seed,
        "skip_pair_x": skip_j,
        "pair_x_counts": {_sign_key(k): v for k, v in report.pair_x_counts.items()},
        "door_counts": {_sign_key(k): v for k, v in report.door_counts.items()},
        "down_frequency": report.down_frequency,
        "exact_down_probability": report.exact_down_probability,
        "pruned_weight": report.pruned_weight,
    }
    if skip_j:
        checks = [
            _check(
                "exact_down_zero",
                abs(report.exact_down_probability) <= EXACT_TOL,
                "without the pair measurement the record stays RecordedUp",
            ),
            _check(
                "no_down_reports",
                report.door_counts[-1] == 0,
                f"{report.door_counts[-1]} RecordedDown reports in {trials} trials",
            ),
        ]
    else:
        band = _binomial_band(0.5, trials)
        checks = [
            _check(
                "exact_down_half",
                abs(report.exact_down_probability - 0.5) <= EXACT_TOL,
                f"exact post-measurement Down probability {report.exact_down_probability:.12g}",
            ),
            _check(
                "down_rate_half",
                trials == 0 or abs(report.down_frequency - 0.5) <= band,
                f"Down frequency {report.down_frequency:.12g} within ±{band:.3g} of 1/2",
            ),
            _check(
                "pair_x_balanced",
                trials == 0
                or abs(report.pair_x_counts[+1] / trials - 0.5) <= band,
                "pair-observable outcomes evenly split",
            ),
        ]
    checks.append(_pruned_weight_check(report.pruned_weight))
    return _report("erasure", config, results, checks)


def cmd_sweep(config: dict, models: int = 101) -> dict:
    if models < 1:
        raise ConfigError(f"--models must be ≥ 1, got {models}")
    if models > MAX_MODELS:
        raise ConfigError(f"--models must be at most {MAX_MODELS}, got {models}")
    seed = _resolve_seed(config)
    side, tau = config["geometry"]["side"], config["geometry"]["tau"]
    match, count, flags = nonideal_sweep(models, seed, side=side, tau=tau)
    verdict = match and count == 0
    rows = [
        {
            "index": i,
            "kind": "haar" if i else "ideal",
            "constraints_match": match,
            "satisfying_assignments": count,
            "support_ok": ok,
            "passed": verdict and ok,
        }
        for i, ok in enumerate(flags)
    ]
    n_passed = flags.count(True) if verdict else 0
    results = {"n_models": models, "seed": seed, "n_passed": n_passed, "models": rows}
    checks = [
        _check(
            "all_models_reproduce_contradiction",
            n_passed == models,
            f"{n_passed} of {models} models yield the four constraints "
            "and an empty satisfying set",
        )
    ]
    return _report("sweep", config, results, checks)


# ---------------------------------------------------------------------------
# Rendering and entry point


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _render_lines(obj, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                _render_lines(value, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_format_value(value) if not isinstance(value, (dict, list)) else '(empty)'}")
    elif isinstance(obj, list):
        if all(not isinstance(item, (dict, list)) for item in obj):
            lines.append(pad + ", ".join(_format_value(item) for item in obj))
        else:
            for item in obj:
                lines.append(f"{pad}-")
                _render_lines(item, indent + 1, lines)
    else:
        lines.append(pad + _format_value(obj))


def render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    lines.append("config:")
    _render_lines(report["config"], 1, lines)
    lines.append("results:")
    _render_lines(report["results"], 1, lines)
    lines.append("checks:")
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        lines.append(f"  [{status}] {check['name']} — {check['detail']}")
    lines.append(f"passed: {_format_value(report['passed'])}")
    return "\n".join(lines)


_JSON_SCALARS = {  # each JSON scalar type's text, as ``json.dumps`` spells it
    str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null",
    bool: {True: "true", False: "false"}.__getitem__,
    float: lambda x: float.__repr__(x) if math.isfinite(x) else json.dumps(x),  # NaN, ±Infinity
}


def _write(report: dict, config: dict, out) -> None:
    """The report as text, or as JSON: ``json.dump(report, out, indent=2)``'s bytes
    for builtin scalars, without its slow pure-Python encoder, in batched writes."""
    if config["output"]["format"] == "text":
        out.write(render_text(report) + "\n")
        return
    pieces = []

    def put(value, margin: str) -> None:
        keyed, inner = isinstance(value, dict), margin + "  "
        if not keyed and not isinstance(value, (list, tuple)):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        sep = ("{" if keyed else "[") + inner
        for key, item in value.items() if keyed else zip(value, value):  # a list item has no key
            head = f"{sep}{encode_basestring_ascii(key)}: " if keyed else sep
            if (text := _JSON_SCALARS.get(type(item))) is not None:
                pieces.append(head + text(item))
            else:
                pieces.append(head)
                put(item, inner)
            sep = "," + inner
        pieces.append(margin + ("}" if keyed else "]") if value else "{}" if keyed else "[]")
        if len(pieces) >= 4096:
            out.write("".join(pieces))
            pieces.clear()

    put(report, "\n")
    out.write("".join(pieces) + "\n")


def emit(report: dict, config: dict) -> None:
    path = config["output"]["path"]
    if path is not None:
        try:
            with open(path, "w") as fh:
                _write(report, config, fh)
        except OSError as exc:
            raise ConfigError(f"cannot write output.path: {exc}") from exc
    _write(report, config, sys.stdout)
    sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit


# Every flag once: its type (int, float, str, allowed values, or None for a switch),
# what it sets (a config key; ``model`` sets the section from its spec; None,
# the command's keyword named after the flag), and its help.
FLAGS = {
    "--config": (str, None, "JSON config file"),
    "--format": (("json", "text"), "output.format", "report format"),
    "--side": (float, "geometry.side", "triangle side length"),
    "--tau": (float, "geometry.tau", "epoch duration (t1−t0 = t2−t1)"),
    "--model": (str, "model", "measurement devices: 'ideal' or 'random:<seed>'"),
    "--seed": (int, "run.seed", "master seed (default 0)"),
    "--trials": (int, "run.trials", "number of trials"),
    "--mode": (MODES, "run.mode", "interpretation model"),
    "--preferred": (FRAME_NAMES, "run.preferred_frame", "preferred frame"),
    "--drop-constraint": (int, None, "drop the K-th constraint (1-based) before enumerating"),
    "--skip-j": (None, None, "skip the outsider pair measurement"),
    "--models": (int, None, "number of models, the first ideal (default 101)"),
}
HELP = ("-h", "--help")
# Per command: its function, its help, and its flags beside --config and --format.
COMMANDS = {
    "ghz-nogo": (cmd_ghz_nogo, "support tables and the unsatisfiable constraint set",
                 "--side --tau --model --drop-constraint"),
    "distinguish": (cmd_distinguish, "door vs pair statistics on the two descriptions", "--model"),
    "frames": (cmd_frames, "geometry validation, boosts, event orderings", "--side --tau"),
    "run": (cmd_run, "constraints plus Monte Carlo model statistics",
            "--side --tau --model --seed --trials --mode --preferred"),
    "erasure": (cmd_erasure, "single-lab record erasure experiment", "--seed --trials --skip-j"),
    "sweep": (cmd_sweep, "contradiction under random non-ideal devices",
              "--side --tau --seed --models"),
}


def _flags(command: str | None) -> tuple[str, ...]:
    return ("--config", "--format", *COMMANDS[command][2].split(), *HELP) if command else HELP


def _help(command: str | None) -> str:
    if command is None:
        head = "usage: gwsim COMMAND [FLAG ...]  ('gwsim COMMAND -h' lists its flags)\n\ncommands:"
        rows = [(name, about) for name, (_, about, _) in COMMANDS.items()]
    else:
        head = f"usage: gwsim {command} [FLAG ...]\n\n{COMMANDS[command][1]}\n\nflags:"
        rows = [("-h, --help", "print this help and exit")]
        for flag in _flags(command)[:-2]:
            kind, _, about = FLAGS[flag]
            choices = f": {', '.join(kind)}" if isinstance(kind, tuple) else ""
            rows.append((flag if kind is None else f"{flag} {flag[2:].upper()}", about + choices))
    width = max(len(name) for name, _ in rows) + 2
    return "\n".join([head] + [f"  {name:<{width}}{about}" for name, about in rows])


def parse_args(argv: list[str]) -> tuple[str, dict, dict] | None:
    """The command, its validated config and the keyword arguments for it.

    A flag is spelled in full, as ``--flag value`` or ``--flag=value``, and
    the token after a valued flag is its value, even one starting with ``-``.
    A repeated flag keeps its last value. Prints the help and returns None on
    -h or --help.
    """
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if command is None and not (argv and argv[0].startswith("-")):
        raise ConfigError(f"the first argument must be a command: {', '.join(COMMANDS)}")
    overrides, arguments, allowed = {}, {}, _flags(command)
    tokens = iter(argv[1:] if command else argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in allowed:
            raise ConfigError(f"unrecognized argument: {token}")
        kind, target, _ = FLAGS.get(flag, (None, None, None))
        if kind is None:
            if eq:
                raise ConfigError(f"argument {flag}: ignored explicit argument {value!r}")
            if flag in HELP:
                print(_help(command))
                return None
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                raise ConfigError(f"argument {flag}: expected one argument")
        if isinstance(kind, tuple) and value not in kind:
            raise ConfigError(f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(kind)})")
        if kind in (int, float):
            try:
                value = kind(value)
            except ValueError:
                raise ConfigError(f"argument {flag}: invalid {kind.__name__} value: {value!r}") from None
        if target:
            overrides[target] = value
        else:
            arguments[flag[2:].replace("-", "_")] = value
    config = load_config(arguments.pop("config", None))
    if "model" in overrides:
        config["model"] = _parse_model_spec(overrides.pop("model"))
    for key, value in overrides.items():
        section, field = key.split(".")
        config[section][field] = value
    return command, _validate_config(config), arguments


def main(argv=None) -> int:
    """Run one command line and return its exit status."""
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else list(argv))
        if parsed is None:
            return 0
        command, config, arguments = parsed
        # The module's binding, not the table's, so a wrapper set on the module runs.
        report = globals()[COMMANDS[command][0].__name__](config, **arguments)
        emit(report, config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early (``gwsim sweep | head -1``): stop
        # quietly, with stdout on devnull so the flush at exit cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0 if report["passed"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
