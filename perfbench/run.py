"""gwsim benchmark: verified CLI reports, timed end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One client drives the ``gwsim`` CLI in a
closed loop: one child invocation at a time, each started when the previous
one has exited, every one with the same ``--seed``. A first, untimed
invocation warms the bytecode cache; then invocations repeat for ``--seconds``
seconds. Every report passes through the correctness gate in ``gate.py`` and
must be byte-identical to the first.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as medians
over the invocations: ``report_s`` (spawn to exit), ``setup_s`` (that minus
``cli.main``, i.e. interpreter start plus imports), ``items_per_s`` (trials or
device models over ``cli.main`` time) and ``peak_rss_mb``. The CPU speed of a
shared host drifts by tens of percent over minutes, so each invocation's times
are expressed in units of a fixed reference loop timed just before and just
after it, and scaled back to seconds by ``REFERENCE_NOMINAL_S``; the raw wall
medians are printed too. ``--trace 1``
alternates traced and untraced invocations and reports the per-layer metrics
from the spans ``tracer.py`` records. The last stdout line is the JSON result;
the lines before it give sample counts, quartiles, exact fractions and the
run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]  # gwsim arguments; {seed} and {size} are filled in
    size: int  # work units per invocation: trials, or device models for sweep


# Sizes make one invocation take about a second on a 2-core x86 sandbox, so a
# run holds enough invocations for a steady median.
WORKLOADS = {
    "frame_sweep": Workload(("sweep", "--models", "{size}", "--seed", "{seed}"), 60),
    "born_mc": Workload(
        ("run", "--mode", "round_born", "--trials", "{size}", "--seed", "{seed}"), 10000
    ),
    "collapse_mc": Workload(
        ("run", "--mode", "sequential_collapse", "--trials", "{size}", "--seed", "{seed}"), 600
    ),
    "erasure_mc": Workload(("erasure", "--trials", "{size}", "--seed", "{seed}"), 2000),
}

# Pinned for every child, so both sides of a comparison run the same BLAS
# threading. The kernels are 216-dim at most, too small to gain from threads.
THREAD_ENV = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
MIN_SAMPLES = 3
# What reference_s() takes on a 2-vCPU x86 sandbox. Timed metrics are reported
# as seconds on a machine where the reference takes exactly this long.
REFERENCE_NOMINAL_S = 0.05
CHILD_TIMEOUT_S = 150


def reference_s() -> float:
    """Time a fixed CPU-bound loop: Python bytecode plus small numpy calls.

    It mixes the kinds of work the children do, so that its time tracks the
    host's speed at the moment; it touches nothing of gwsim.
    """
    import numpy as np

    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(120_000):
        table[i % 97] = table.get(i % 97, 0) + (i * i) % 7
    # A phase gate on one factor of a 6x6x6 state, as qmath.apply_local does it.
    op = np.eye(6, dtype=complex) * np.exp(0.25j * np.pi)
    state = np.full((6, 6, 6), 216**-0.5, dtype=complex)
    for k in range(1_000):
        psi = np.moveaxis(state, k % 3, 0)
        psi = op @ psi.reshape(6, -1)
        state = np.moveaxis(psi.reshape(6, 6, 6), 0, k % 3)
        state = state / np.sqrt(np.sum(np.abs(state) ** 2))
    return time.perf_counter() - start


def gwsim_argv(workload: str, seed: int, size: int) -> list[str]:
    args = WORKLOADS[workload].args
    return [a.format(seed=seed, size=size) for a in args] + ["--format", "json"]


def child_env() -> dict:
    env = dict(os.environ)
    # The seed reaches the CLI only as --seed.
    env.pop("GWSIM_SEED", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(THREAD_ENV)
    return env


@dataclass
class Invocation:
    wall_s: float
    main_s: float | None  # None when the child wrote no side file
    maxrss_mb: float
    problems: list[str]
    side: dict
    summary: dict | None  # tracer.summarize of the spans, for traced invocations
    ref_s: float | None = None  # mean reference_s() just before and after, untraced only


class Runner:
    """Spawns child invocations of one workload and checks each report."""

    def __init__(self, workdir: Path, workload: str, seed: int, size: int | None = None):
        self.workdir = workdir
        self.workload = workload
        self.seed = seed
        self.size = WORKLOADS[workload].size if size is None else size
        self.argv = gwsim_argv(workload, seed, self.size)
        self.env = child_env()
        self.reference: bytes | None = None
        self.count = 0

    def invoke(self, traced: bool = False, provenance: bool = False) -> Invocation:
        n = self.count
        self.count += 1
        side_path, trace_path = self.workdir / f"{n}.side", self.workdir / f"{n}.trace"
        out_path, err_path = self.workdir / f"{n}.out", self.workdir / f"{n}.err"
        cmd = [sys.executable, str(HERE / "child.py")]
        if traced:
            cmd += ["--trace", str(trace_path)]
        if provenance:
            cmd.append("--provenance")
        cmd += [str(side_path), "--"] + self.argv

        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                # wait4 gives this child's own rusage, hence its peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)

        stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
        problems = gate.check_invocation(
            self.workload, self.seed, self.size, proc.returncode, stdout, stderr
        )
        if self.reference is None:
            self.reference = stdout
        elif stdout != self.reference:
            problems.append("stdout differs from the first invocation with the same seed")
        side, main_s, summary = {}, None, None
        if side_path.exists():
            side = json.loads(side_path.read_text())
            main_s = side["main_s"]
            if not Path(side["gwsim_file"]).resolve().is_relative_to(ROOT / "src"):
                problems.append(f"gwsim imported from {side['gwsim_file']}, not this checkout")
        else:
            problems.append("child wrote no side file")
        if traced and trace_path.exists():
            summary = tracer.summarize(json.loads(trace_path.read_text()))
        for path in (side_path, trace_path, out_path, err_path):
            path.unlink(missing_ok=True)
        if problems:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"invocation {n} failed: {'; '.join(problems + tail)}", file=sys.stderr)
        return Invocation(wall_s, main_s, usage.ru_maxrss / 1024.0, problems, side, summary)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float], better: str) -> str:
    """The highest percentile toward the worse side that has ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return ""
    ordered = sorted(values, reverse=(better == "higher"))
    return f"; p{100 * (n - 10) // n} {ordered[n - 11]:.6g}"


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha or None, bool(dirty)


def src_digest() -> str:
    """SHA-256 over the files under src/, so a checkout without git is still identified."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(runner: Runner, seconds: float, traced: bool):
    """Warm-up invocation, then invocations for ``seconds`` seconds.

    With ``traced``, untraced and traced invocations alternate, each kind
    going first in every other pair. Without, the reference loop runs between
    invocations and each one gets the mean of the loop's times on either side.
    """
    warmup = runner.invoke(provenance=True)
    plain: list[Invocation] = []
    traces: list[Invocation] = []
    deadline = time.perf_counter() + seconds
    pair = 0
    if not traced:
        reference_s()  # imports numpy and warms the loop
        before = reference_s()
    while True:
        if traced:
            for kind in ((False, True) if pair % 2 == 0 else (True, False)):
                (traces if kind else plain).append(runner.invoke(traced=kind))
            pair += 1
        else:
            inv = runner.invoke()
            after = reference_s()
            inv.ref_s = (before + after) / 2
            before = after
            plain.append(inv)
        if time.perf_counter() >= deadline and len(plain) >= MIN_SAMPLES:
            return warmup, plain, traces


def end_to_end_metrics(
    runner: Runner, plain: list[Invocation], normalize: bool = True
) -> dict[str, list[float]]:
    """Per-invocation samples of each end-to-end metric.

    With ``normalize``, times are scaled by REFERENCE_NOMINAL_S / ref_s, i.e.
    to a host on which the reference loop takes REFERENCE_NOMINAL_S.
    """
    timed = [inv for inv in plain if inv.main_s is not None]
    scale = [REFERENCE_NOMINAL_S / inv.ref_s if normalize else 1.0 for inv in timed]
    return {
        "report_s": [inv.wall_s * k for inv, k in zip(timed, scale)],
        "setup_s": [(inv.wall_s - inv.main_s) * k for inv, k in zip(timed, scale)],
        "items_per_s": [runner.size / (inv.main_s * k) for inv, k in zip(timed, scale)],
        "peak_rss_mb": [inv.maxrss_mb for inv in timed],
    }


def exact_counts(summary: dict) -> dict:
    """The parts of a trace summary that must repeat exactly for one seed."""
    return {
        "calls": summary["calls"],
        "bytes_computed": summary["bytes_computed"],
        "fractions": summary["fractions"],
    }


def per_layer_metrics(
    names: list[str], plain: list[Invocation], traces: list[Invocation]
) -> tuple[dict, dict[str, int]]:
    """Per-layer values by metric name, plus the sample count behind each timing.

    Counts and fractions come from the first traced invocation; every other
    traced invocation must repeat them exactly, or it counts as failed.
    """
    summaries = []
    for inv in traces:
        summary = inv.summary
        if summary is None:
            inv.problems.append("traced child wrote no spans")
            continue
        if summaries and exact_counts(summary) != exact_counts(summaries[0]):
            inv.problems.append("trace counts differ from the first traced invocation")
        summaries.append(summary)
    if not summaries:
        raise RuntimeError("no traced invocation produced spans")
    first = summaries[0]

    values: dict = {}
    # A function a later version deletes reads as 0 calls and 0 s.
    for name in names:
        if name.endswith((".calls", ".self_s")):
            values[name] = 0
    for fn, calls in first["calls"].items():
        values[f"{fn}.calls"] = calls
        values[f"{fn}.self_s"] = statistics.median(s["self_s"][fn] for s in summaries)
    for layer in tracer.LAYERS:
        values[f"{layer}.self_s"] = statistics.median(s["layer_self_s"][layer] for s in summaries)
    values["qmath.apply_local.bytes_computed"] = first["bytes_computed"]
    values.update(first["fractions"])
    traced_main = statistics.median(inv.main_s for inv in traces if inv.main_s is not None)
    plain_main = statistics.median(inv.main_s for inv in plain if inv.main_s is not None)
    values["cli.main_s"] = traced_main
    values["trace.overhead"] = traced_main / plain_main
    samples = {"traced": len(summaries), "untraced": len(plain)}
    return {name: values[name] for name in names}, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gwsim" / "cli.py").is_file():
        print(f"error: no gwsim sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # The reference loop's numpy runs with the children's thread settings.
    os.environ.update(THREAD_ENV)
    load_start = os.getloadavg()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        runner = Runner(workdir, args.workload, args.seed)
        warmup, plain, traces = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    invocations = [warmup] + plain + traces

    print(f"workload {args.workload}: gwsim {' '.join(runner.argv)} ({runner.size} work units)")
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, samples = per_layer_metrics(names, plain, traces)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"traced invocations: {samples['traced']}, untraced: {samples['untraced']}")
        metrics = {}
        for name in names:
            value = values[name]
            if isinstance(value, tuple):
                num, den = value
                value = num / den if den else 0.0
                print(f"  {name:<40} {num}/{den} = {value:.6g} {units[name]}")
            else:
                print(f"  {name:<40} {value:.6g} {units[name]}")
            metrics[name] = {"value": value, "unit": units[name]}
    else:
        samples_by_metric = end_to_end_metrics(runner, plain)
        if not samples_by_metric["report_s"]:
            print("error: no invocation could be timed", file=sys.stderr)
            return 1
        raw = end_to_end_metrics(runner, plain, normalize=False)
        refs = [inv.ref_s for inv in plain]
        print(
            f"  reference loop {statistics.median(refs):.6g} s (median of {len(refs)}; "
            f"nominal {REFERENCE_NOMINAL_S} s); unscaled medians: "
            + ", ".join(f"{k} {statistics.median(v):.6g}" for k, v in raw.items() if k != "peak_rss_mb")
        )
        metrics = {}
        for m in spec["end_to_end"]:
            values = samples_by_metric[m["name"]]
            q1, med, q3 = quartiles(values)
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
            print(
                f"  {m['name']:<14} {med:.6g} {m['unit']}  "
                f"(median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g}{tail_percentile(values, m['better'])})"
            )

    failed = sum(1 for inv in invocations if inv.problems)
    print(f"  failed_fraction {failed / len(invocations):.6g} ({failed} of {len(invocations)} invocations)")
    sha, dirty = git_state()
    provenance = {
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "python": warmup.side.get("python"),
        "numpy": warmup.side.get("numpy"),
        "blas": warmup.side.get("blas"),
        "thread_env": THREAD_ENV,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": src_digest(),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
