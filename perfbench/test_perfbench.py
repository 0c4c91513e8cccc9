"""Tests of the benchmark itself: span completeness, the correctness gate,
exact counts and BENCHMARK.json's agreement with the code.

    python3 -m pytest perfbench/test_perfbench.py

They spawn short gwsim invocations and take about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import gate
import run
import tracer

SHORT = {"frame_sweep": 3, "born_mc": 200, "collapse_mc": 10, "erasure_mc": 20}
SEED = 5

# Runs one invocation with the tracer installed and cProfile enabled, and
# prints both call counts per wrapped function. cProfile counts calls to the
# original code object, however the caller bound the name.
PROFILE_SCRIPT = """
import contextlib, cProfile, io, json, pstats, sys
sys.path[:0] = sys.argv[1:3]
from gwsim import cli
from tracer import Tracer, summarize
t = Tracer()
originals = t.install()
prof = cProfile.Profile()
with contextlib.redirect_stdout(io.StringIO()):
    prof.enable()
    status = cli.main(sys.argv[3:])
    prof.disable()
stats = pstats.Stats(prof).stats
profiled = {}
for name, fn in originals.items():
    code = fn.__code__
    entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
    profiled[name] = entry[1] if entry else 0
traced = dict.fromkeys(originals, 0)
traced.update(summarize({"names": t.names, "spans": t.spans})["calls"])
print(json.dumps({"status": status, "profiled": profiled, "traced": traced}))
"""


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_traced_call_counts_match_cprofile(workload):
    argv = run.gwsim_argv(workload, SEED, SHORT[workload])
    proc = subprocess.run(
        [sys.executable, "-c", PROFILE_SCRIPT, str(run.ROOT / "src"), str(run.HERE), *argv],
        capture_output=True,
        text=True,
        env=run.child_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["status"] == 0
    assert result["traced"] == result["profiled"]
    assert result["traced"]["cli.main"] == 1
    assert result["traced"]["qmath.apply_local"] > 0


@pytest.mark.parametrize("workload", sorted(SHORT))
def test_trace_counts_repeat_exactly(tmp_path, workload):
    runner = run.Runner(tmp_path, workload, SEED, SHORT[workload])
    first, second = (runner.invoke(traced=True) for _ in range(2))
    assert first.problems == [] and second.problems == []
    a, b = first.summary, second.summary
    assert run.exact_counts(a) == run.exact_counts(b)
    assert all(isinstance(n, int) for n in a["calls"].values())
    assert isinstance(a["bytes_computed"], int) and a["bytes_computed"] > 0
    for num, den in a["fractions"].values():
        assert isinstance(num, int) and isinstance(den, int) and 0 <= num
    # Layer self times partition the cli.main span.
    assert sum(a["layer_self_s"].values()) == pytest.approx(a["main_s"], rel=1e-9)


def _report(tmp_path, workload) -> tuple[bytes, dict]:
    runner = run.Runner(tmp_path, workload, SEED, SHORT[workload])
    inv = runner.invoke()
    assert inv.problems == []
    return runner.reference, json.loads(runner.reference)


def _tamper_run(report):
    report["results"]["satisfying_assignments"] = 1


def _tamper_constraint(report):
    report["results"]["constraints"][0]["required_product"] *= -1


def _tamper_born(report):
    report["results"]["run"]["trials_violating_nonpreferred"] -= 1


def _tamper_preferred(report):
    stats = report["results"]["run"]["constraint_statistics"]
    next(e for e in stats if e["preferred"])["violations"] = 1


def _tamper_erasure(report):
    report["results"]["exact_down_probability"] = 0.5 + 1e-9


def _tamper_sweep(report):
    report["results"]["n_passed"] -= 1


def _tamper_sweep_model(report):
    report["results"]["models"][-1]["constraints_match"] = False


def _tamper_passed(report):
    report["passed"] = False


TAMPERS = [
    ("born_mc", _tamper_run),
    ("born_mc", _tamper_constraint),
    ("born_mc", _tamper_born),
    ("born_mc", _tamper_preferred),
    ("collapse_mc", _tamper_constraint),
    ("collapse_mc", _tamper_passed),
    ("erasure_mc", _tamper_erasure),
    ("frame_sweep", _tamper_sweep),
    ("frame_sweep", _tamper_sweep_model),
]


@pytest.mark.parametrize("workload, tamper", TAMPERS, ids=[f"{w}-{t.__name__}" for w, t in TAMPERS])
def test_gate_fails_tampered_report(tmp_path, workload, tamper):
    stdout, report = _report(tmp_path, workload)
    size = SHORT[workload]
    assert gate.check_invocation(workload, SEED, size, 0, stdout, b"") == []
    tamper(report)
    tampered = json.dumps(report, indent=2).encode()
    assert gate.check_invocation(workload, SEED, size, 0, tampered, b"") != []


def test_gate_fails_nonzero_exit_traceback_and_garbage(tmp_path):
    stdout, _ = _report(tmp_path, "erasure_mc")
    size = SHORT["erasure_mc"]
    assert gate.check_invocation("erasure_mc", SEED, size, 1, stdout, b"") != []
    traceback = b"Traceback (most recent call last):\n  ...\nRuntimeError: x\n"
    assert gate.check_invocation("erasure_mc", SEED, size, 0, stdout, traceback) != []
    assert gate.check_invocation("erasure_mc", SEED, size, 0, b"{}", b"") != []
    assert gate.check_invocation("erasure_mc", SEED, size, 0, b"", b"") != []


def test_differing_bytes_for_one_seed_fail(tmp_path):
    runner = run.Runner(tmp_path, "erasure_mc", SEED, SHORT["erasure_mc"])
    assert runner.invoke().problems == []
    runner.reference += b" "
    assert runner.invoke().problems == ["stdout differs from the first invocation with the same seed"]


def test_times_scale_by_the_reference_loop(tmp_path):
    runner = run.Runner(tmp_path, "born_mc", SEED, 300)
    # The host ran at half the nominal speed while this invocation ran.
    inv = run.Invocation(1.0, 0.75, 40.0, [], {}, None, ref_s=2 * run.REFERENCE_NOMINAL_S)
    scaled = run.end_to_end_metrics(runner, [inv])
    assert scaled["report_s"] == [pytest.approx(0.5)]
    assert scaled["setup_s"] == [pytest.approx(0.125)]
    assert scaled["items_per_s"] == [pytest.approx(300 / 0.375)]
    assert scaled["peak_rss_mb"] == [40.0]
    raw = run.end_to_end_metrics(runner, [inv], normalize=False)
    assert raw["report_s"] == [1.0] and raw["items_per_s"] == [pytest.approx(400.0)]


def test_benchmark_json_names_match_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"report_s", "setup_s", "items_per_s", "peak_rss_mb"}
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        functions = set(tracer.public_functions())
    finally:
        sys.path.remove(str(run.ROOT / "src"))
    for m in spec["per_layer"]:
        name = m["name"]
        if name.endswith((".calls", ".self_s")) and name.count(".") == 2:
            assert name.rsplit(".", 1)[0] in functions, name
        elif name.endswith(".self_s"):
            assert name.split(".")[0] in tracer.LAYERS, name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "born_mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
