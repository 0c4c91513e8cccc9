"""Input fuzz campaign over JSON config files and command-line flags.

Every ``geometry``, ``model`` and ``run`` key and ``output.format`` is given
values of every JSON type: floats (subnormals, ±1e308, 0, NaN and
infinities, which Python's JSON reader accepts), integers of up to 400
digits, bools, null, strings, lists and objects, beside a few valid values
so that some examples get past validation. Each example may also pass its
command's ``--side``, ``--tau``, ``--seed``, ``--trials``, ``--models`` and
``--format`` flags, with valid or adversarial strings. It calls ``cli.main``
in-process, and must end with a report (exit 0 or 1) whose ``passed``
matches the exit code, or a clean exit 2 with an ``error:`` line, which
usage errors such as a flag value its type cannot read give too. No
exception, ``SystemExit`` included, and no warning is accepted. Every
accepted trial count costs the same, so trials run over the whole accepted
range; models are capped at 20 so the campaign stays fast. Values above
``MAX_TRIALS`` or ``MAX_MODELS`` must exit 2, and the bounds have their own
tests in ``test_cli.py``. ``output.path`` is left out, so no
example writes a file.
"""

import contextlib
import io
import json
import sys
import warnings

import pytest
from hypothesis import event, given, settings, strategies as st

from gwsim.cli import main
from gwsim.models import MAX_MODELS, MAX_TRIALS, MODES
from gwsim.scenario import FRAME_NAMES

MODELS_CAP = 20

SPECIAL_FLOATS = [
    0.0,
    -0.0,
    1e308,
    -1e308,
    sys.float_info.max,
    sys.float_info.min,
    1e-310,
    5e-324,
    float("nan"),
    float("inf"),
    float("-inf"),
]

SCALARS = st.one_of(
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(-5, 50),
    st.integers(-(10**400), 10**400),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
)

VALID = {
    "geometry": {
        "side": [10.0, 1.0, 1e-300, 1e308],
        "tau": [1.0, 0.1, 8.7, 1e-9, 1e307],
    },
    "model": {
        "kind": ["ideal", "random"],
        "seed": [0, 5, 2**64],
    },
    "run": {
        "mode": list(MODES),
        "preferred_frame": list(FRAME_NAMES),
        "trials": [0, 1, 100, 10**4, MAX_TRIALS],
        "seed": [None, 0, 7],
    },
    "output": {"format": ["json", "text"]},
}


def _value(valid):
    return st.one_of(
        st.sampled_from(valid),
        SCALARS,
        st.lists(SCALARS, max_size=3),
        st.dictionaries(st.text(max_size=4), SCALARS, max_size=2),
    )


CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        section: st.fixed_dictionaries(
            {}, optional={key: _value(valid) for key, valid in keys.items()}
        )
        for section, keys in VALID.items()
    },
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


COMMAND_FLAGS = {
    "frames": ("--side", "--tau", "--format"),
    "ghz-nogo": ("--side", "--tau", "--format"),
    "run": ("--side", "--tau", "--seed", "--trials", "--format"),
    "erasure": ("--seed", "--trials", "--format"),
    "sweep": ("--side", "--tau", "--seed", "--models", "--format"),
}
FLAG_VALUES = st.one_of(
    st.sampled_from(["0", "1", "7", "8.7", "1e-9", "1.92697e-318", "json", "text"]),
    st.sampled_from(["nan", "-inf", "1e-320", "-1", str(10**400), "", "0x10", " 7"]),
    st.floats().map(repr),
    st.integers(-(10**400), 10**400).map(str),
)


def _capped(flag: str, value: str) -> str:
    """A ``--models`` value above the cap, up to MAX_MODELS, lowered to it."""
    if flag != "--models":
        return value
    try:
        # int() as the flag table reads it.
        return str(MODELS_CAP) if MODELS_CAP < int(value) <= MAX_MODELS else value
    except ValueError:
        return value


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = draw(st.sets(st.sampled_from(COMMAND_FLAGS[command])))
    if command == "sweep":
        flags.add("--models")  # the default of 101 models would slow the campaign
    return [command] + [f"{f}={_capped(f, draw(FLAG_VALUES))}" for f in sorted(flags)]


@settings(max_examples=300, deadline=None)
@given(argv=argvs(), config=CONFIGS)
def test_every_config_gives_a_report_or_a_clean_error(config_path, argv, config):
    config_path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([*argv, "--config", str(config_path)])
    event(f"{argv[0]} exit {code}")
    if code == 2:
        assert out.getvalue() == ""
        message = err.getvalue()
        assert message.startswith("error: ") or (
            message.startswith("usage: ") and ": error: argument " in message
        )
        return
    assert err.getvalue() == ""
    flags = dict(arg.split("=", 1) for arg in argv[1:])
    if flags.get("--format", config.get("output", {}).get("format")) == "text":
        assert out.getvalue().splitlines()[-1] == ("passed: yes" if code == 0 else "passed: no")
    else:
        assert json.loads(out.getvalue())["passed"] is (code == 0)
