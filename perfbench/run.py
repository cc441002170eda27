"""Benchmark for twomode: four workloads, end-to-end metrics, per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 24 --trace 0

Workloads (inputs are generated from --seed; the program sees only them):

* sweep-grid   `twomode sweep`, scaled 201x201 grid, CSV, --jobs 1.  The
               paper's surface: validation, closed-form sigma_inf, Simon's S
               and the negativity per point; no Lyapunov solve, no propagation.
* sweep-pool   the same config with --jobs min(2, nproc): the only
               multi-process path, which a traced run cannot see inside.
* evolve-trace `twomode evolve --format json` on 10,001 time points for a
               strict-valid ten-coefficient environment and an explicit
               initial state: one propagation per point, JSON formatting,
               no validation and no closed form.
* scalar-api   one caller in a closed loop over 10,000 environments:
               validate_environment, the builders, steady_state_lyapunov and
               analyze (its ClassViolationError paths included).

--trace 0 spawns the program as a user would (`python -m twomode.cli` with
PYTHONPATH=src), as many times as fit in --seconds, and reports end-to-end
metrics: medians over the invocations, set-up time as the median of fresh
interpreters that import the package and load the workload's input, one
before each invocation (at least MIN_SETUP_PROBES).  Every time is given
in reference seconds: scaled by the speed of the CPUs the child ran on,
as a fixed calibration loop measures it around every 0.3 s of the child's
running time (see `spawn`); the raw times are on the line before the result.
--trace 1 runs the workload in one process that alternates untraced and
traced repetitions (see tracer.py) and reports per-layer metrics.  Both
modes check the program's outputs against the independent oracle in
oracle.py.  The last line of standard output is the JSON result.

This process stays lean while it spawns the program: a child's ru_maxrss
starts from the resident size of the process that spawned it, so numpy and
scipy (inputs.py, oracle.py) run in a generator child or are imported only
after the last measured child has exited, and only distinct outputs are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib.metadata import version
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("sweep-grid", "sweep-pool", "evolve-trace", "scalar-api")
SIZES = ("full", "tiny")
MIN_SETUP_PROBES = 5
ORACLE_SAMPLE = {"sweep-grid": 1000, "sweep-pool": 1000, "evolve-trace": 500, "scalar-api": 1000}
# Every run, set-up and checks included, must end well inside 180 s.
RUN_LIMIT_S = 170.0

# The speed of a shared host drifts.  On the 2-vCPU VM the benchmark was
# built on, a fixed pure-Python loop ran up to 1.6x faster in some stretches
# than in others, each stretch lasting seconds to minutes, the two vCPUs
# drifted apart (correlation 0.3), and the invocations' wall times followed
# the speed of the vCPU they ran on; longer runs did not narrow the spread
# of raw medians, and brackets around a whole 5 s sweep missed the changes
# within it.  So children run on fixed CPUs (`Workload.cpus`) and their
# time is scaled by CAL_REF_S / c, with c the mean of the calibrations of
# those CPUs around each SLICE_S of their running time (`spawn`).  CAL_REF_S
# is the median calibration on that VM (Intel Xeon), so reference seconds
# read as its seconds.  scalar-api's calls are scaled within the loop
# instead (scalar_loop.py), so its children run unpaused.
CAL_STEPS = 100_000
CAL_REF_S = 0.0210
SLICE_S = 0.3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stderr: str
    scale: float = 1.0  # reference seconds per measured second

    @property
    def ok(self) -> bool:
        return self.code == 0 and "Traceback" not in self.stderr


def spawn(
    cmd: list[str], stderr_path: Path, deadline: float,
    cpus: set[int] | None = None, slice_s: float | None = None,
) -> Invocation:
    """Run one child to exit; wall from spawn to exit, rusage from wait4.

    With `cpus`, the child runs there and its time is scaled to reference
    seconds: this process calibrates those CPUs before the child starts and
    after it exits and, with `slice_s`, after every `slice_s` seconds of the
    child's running time too, while the child's process group (pool workers
    included) is stopped with SIGSTOP, so that the calibration has the CPUs
    to itself.  Each slice of running time is scaled by the mean of the
    calibrations around it; the pauses are left out of `wall_s`.
    """
    before = calibrate(cpus) if cpus else CAL_REF_S
    wall = scaled = 0.0
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=err, env=child_env(), cwd=ROOT,
            start_new_session=True,
        )
        watchdog = threading.Timer(
            max(1.0, deadline - start), os.killpg, (proc.pid, signal.SIGKILL)
        )
        watchdog.start()
        exited = os.pidfd_open(proc.pid)
        try:
            while True:
                done = bool(select.select([exited], [], [], slice_s)[0])
                ran = time.perf_counter() - start
                if not done:
                    os.killpg(proc.pid, signal.SIGSTOP)
                after = calibrate(cpus) if cpus else CAL_REF_S
                wall += ran
                scaled += ran * CAL_REF_S * 2 / (before + after)
                if done:
                    break
                before = after
                os.killpg(proc.pid, signal.SIGCONT)
                start = time.perf_counter()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            os.close(exited)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stderr=stderr_path.read_text(errors="replace"),
        scale=scaled / wall,
    )


def calibrate(cpus: set[int]) -> float:
    """Seconds of CAL_STEPS steps of a fixed pure-Python loop, the mean over `cpus`.

    This process runs the loop on each CPU in turn.  It imports neither the
    package nor numpy, so no change to the program can move the figure.  It
    is left pinned to `cpus`, so the children it spawns next run there.
    """
    per_cpu = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(CAL_STEPS):
            acc += (i * 0.5) % 7.0
            table[i & 63] = acc
        per_cpu.append(time.perf_counter() - start)
    os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu)


def scaled_calls(timing: dict) -> list[float]:
    """scalar-api per-call seconds at reference speed.

    Call k lies between probes k // probe_every and the next, and is scaled
    by the mean of the two (scalar_loop.run_loop).
    """
    every, probe_s, ref = timing["probe_every"], timing["probe_s"], timing["probe_ref_s"]
    return [
        ns * 1e-9 * ref * 2 / (probe_s[k // every] + probe_s[k // every + 1])
        for k, ns in enumerate(timing["call_ns"])
    ]


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": nproc(),
        "cpu": cpu,
        "commit": commit(),
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# --------------------------------------------------------------------------
# Workload definitions


@dataclass
class Workload:
    name: str
    points: int  # grid points, time points or environments per invocation
    command: list[str]  # one untraced invocation
    setup_command: list[str]  # one fresh-interpreter set-up probe
    output: Path  # what an invocation writes
    trace_spec: dict  # tracer.py spec for the traced run
    check: Callable  # (text, sample seed) -> oracle.Check
    cpus: set[int]  # where the children and their calibrations run
    timing: Path | None = None  # scalar-api: what the loop measured


def first_cpus(count: int) -> set[int]:
    return set(sorted(os.sched_getaffinity(0))[:count])


def prepare(name: str, seed: int, size: str, work: Path) -> Workload:
    """Generate the inputs in a child process and describe the workload.

    This process reads none of scalar-api's inputs until the checks: the
    child reports how many points it wrote.
    """
    py = sys.executable
    generated = subprocess.run(
        [py, str(BENCH / "inputs.py"), name, str(seed), size, str(work)],
        check=True, timeout=RUN_LIMIT_S, stdout=subprocess.PIPE, text=True,
    )
    points = int(generated.stdout)
    sample = ORACLE_SAMPLE[name]
    if name == "scalar-api":
        path = work / "envs.json"
        output, timing = work / "results.json", work / "timing.json"
        probe = (
            f"import sys; sys.path.insert(0, {str(BENCH)!r}); "
            "import scalar_loop; scalar_loop.load_inputs(sys.argv[1])"
        )

        def check_scalar(text, sample_seed):
            import oracle

            envs = json.loads(path.read_text())
            return oracle.check_scalar(envs, json.loads(text)["results"], sample_seed, sample)

        files = [str(path), str(output), str(timing)]
        return Workload(
            name=name,
            points=points,
            command=[py, str(BENCH / "scalar_loop.py"), *files],
            setup_command=[py, "-c", probe, str(path)],
            output=output,
            trace_spec={"kind": "scalar", "files": files},
            check=check_scalar,
            cpus=first_cpus(1),
            timing=timing,
        )
    path = work / "config.json"
    config = json.loads(path.read_text())
    if name == "evolve-trace":
        args = ["evolve", "--format", "json"]
        output = work / "evolve.json"
        checker = "check_evolve"
        cpus = first_cpus(1)
    else:
        jobs = 1 if name == "sweep-grid" else min(2, nproc())
        cpus = first_cpus(jobs)
        args = ["sweep", "--format", "csv", "--jobs", str(jobs)]
        output = work / "sweep.csv"
        checker = "check_sweep"

    def check_cli(text, sample_seed):
        import oracle

        return getattr(oracle, checker)(config, text, sample_seed, sample)

    argv = [args[0], "--config", str(path), "--output", str(output), *args[1:]]
    probe = "import sys; from twomode.cli import load_config; load_config(sys.argv[1])"
    return Workload(
        name=name,
        points=points,
        command=[py, "-m", "twomode.cli", *argv],
        setup_command=[py, "-c", probe, str(path)],
        output=output,
        trace_spec={"kind": "cli", "argv": argv},
        check=check_cli,
        cpus=cpus,
    )


# --------------------------------------------------------------------------
# Output checks


@dataclass
class Tally:
    """Operations attempted and failed: one per output row or call."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


@dataclass
class Outputs:
    """What each invocation wrote; every distinct output is kept once.

    Outputs stay on disk, under a name made from their digest, until the
    checks run: this process keeps them out of its memory while it spawns.
    """

    keys: list = field(default_factory=list)  # per invocation; None = failed
    paths: dict = field(default_factory=dict)  # key -> kept output file
    timings: list = field(default_factory=list)  # scalar-api: the loop's timing per invocation

    def add(self, wl: Workload, ok: bool) -> None:
        if not ok or not wl.output.exists() or (wl.timing and not wl.timing.exists()):
            self.keys.append(None)
            return
        if wl.timing:
            self.timings.append(json.loads(wl.timing.read_text()))
        digest = hashlib.sha256()
        with open(wl.output, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        key = digest.hexdigest()
        if key not in self.paths:
            self.paths[key] = wl.output.with_name(f"{key[:16]}-{wl.output.name}")
            os.link(wl.output, self.paths[key])
        self.keys.append(key)

    def check(self, wl: Workload, seed: int) -> tuple[Tally, object]:
        """Oracle-check each distinct output; return the tally and the first check."""
        tally = Tally()
        checks = {}
        for k, key in enumerate(self.keys):
            tally.attempted += wl.points
            if key is None:
                tally.failed += wl.points
                tally.problems.append(f"invocation {k}: nonzero exit, traceback or no output")
                continue
            if key not in checks:
                checks[key] = wl.check(self.paths[key].read_text(), [seed, k])
                tally.problems.extend(f"invocation {k}: {m}" for m in checks[key].messages[:5])
            tally.failed += checks[key].failed
        return tally, next(iter(checks.values()), None)


# --------------------------------------------------------------------------
# Measurement


def measure_untraced(wl: Workload, seconds: float, seed: int, deadline: float, work: Path):
    # Set-up probes alternate with the invocations so that both sample the
    # same stretch of machine time; at least MIN_SETUP_PROBES are taken.
    # A set-up probe is one process, so it runs on one of the workload's CPUs.
    slice_s = None if wl.timing else SLICE_S
    probe_cpus = {min(wl.cpus)}

    def timed(cmd: list[str], stderr_path: Path, cpus: set[int]) -> Invocation:
        return spawn(cmd, stderr_path, deadline, cpus, slice_s)

    probes, runs, outputs = [], [], Outputs()
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        probes.append(timed(wl.setup_command, work / "setup.err", probe_cpus))
        wl.output.unlink(missing_ok=True)
        if wl.timing:
            wl.timing.unlink(missing_ok=True)
        runs.append(timed(wl.command, work / f"run{len(runs)}.err", wl.cpus))
        outputs.add(wl, runs[-1].ok)
        if wl.timing and outputs.keys[-1] is not None:
            # The loop's own probes saw most of this child's life.
            timing = outputs.timings[-1]
            runs[-1].scale = sum(scaled_calls(timing)) / (sum(timing["call_ns"]) * 1e-9)
        now = time.perf_counter()
        # Stop unless at least half of another iteration fits in --seconds.
        if now - start + (now - began) / 2 >= seconds:
            break
    while len(probes) < MIN_SETUP_PROBES:
        probes.append(timed(wl.setup_command, work / "setup.err", probe_cpus))
    tally, _ = outputs.check(wl, seed)
    if not all(p.ok for p in probes):
        tally.failed += 1
        tally.problems.append("set-up probe failed")

    setup_s = statistics.median(p.wall_s * p.scale for p in probes)
    if wl.name == "scalar-api":
        # wall_s is the loop's time at reference speed, probes left out.
        loops = [scaled_calls(timing) for timing in outputs.timings] or [[float("nan")]]
        wall_s = statistics.median(sum(calls) for calls in loops)
        compute_s = wall_s
        samples = [s * 1e6 for calls in loops for s in calls]
    else:
        wall_s = statistics.median(r.wall_s * r.scale for r in runs)
        compute_s = wall_s - setup_s
        samples = [(r.wall_s * r.scale - setup_s) / wl.points * 1e6 for r in runs]
    samples = samples or [float("nan")]
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "points_per_s": (wl.points / compute_s, "1/s"),
        "cpu_s": (statistics.median(r.cpu_s * r.scale for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
        "call_p50_us": (percentile(samples, 50), "us"),
        "call_p90_us": (percentile(samples, 90), "us"),
    }
    info = {
        "invocation_wall_s": [r.wall_s for r in runs],
        "invocation_scale": [r.scale for r in runs],
        "setup_probe_s": [p.wall_s for p in probes],
        "cpus": sorted(wl.cpus),
        # A child's peak RSS counts from this process's peak at the spawn.
        "bench_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_samples": len(samples),
    }
    return tally, metrics, info


# Tracer groups reported as `<group>_calls` and `<group>_self_s` (the
# `model` group as `model.calls` and `model.self_s`).
LAYER_GROUPS = (
    "model.validate", "model",
    "dynamics.closed_form", "dynamics.lyapunov", "dynamics.propagate", "dynamics.other",
    "entanglement.simon_s", "entanglement.negativity", "entanglement.closed_form",
    "entanglement.analyze", "entanglement.other",
)


def _median_of(reps: list[dict], part: str, key: str) -> float:
    return statistics.median(rep[part].get(key, 0) for rep in reps)


def measure_traced(wl: Workload, seconds: float, seed: int, deadline: float, work: Path):
    spec = dict(wl.trace_spec, seconds=seconds, spans=str(work / "spans.npz"))
    spec_path, stats_path = work / "trace_spec.json", work / "trace_stats.json"
    spec_path.write_text(json.dumps(spec))
    cmd = [sys.executable, str(BENCH / "tracer.py"), str(spec_path), str(stats_path)]
    inv = spawn(cmd, work / "trace.err", deadline)
    stats = json.loads(stats_path.read_text()) if inv.ok and stats_path.exists() else None
    outputs = Outputs()
    outputs.add(wl, stats is not None and stats["ok"])
    tally, check = outputs.check(wl, seed)
    if stats is None:
        return tally, None, {}
    reps = stats["reps"]
    is_cli = wl.trace_spec["kind"] == "cli"

    # The layer self times must account for the traced top-level calls
    # exactly, and for CLI workloads the top-level call is the whole handler.
    for rep, outer in zip(reps, stats["traced_s"]):
        total_self = sum(rep["self_s"].values())
        top = rep["toplevel_s"]
        if abs(total_self - top) > 1e-6 * top or top > outer or (
            is_cli and outer - top > 0.01 * outer
        ):
            tally.failed += 1
            tally.problems.append(
                f"trace accounting: self sum {total_self}, top-level {top}, outer {outer}"
            )

    metrics = {
        "cli.load_config_s": (_median_of(reps, "total_s", "cli.load_config"), "s"),
        "cli.handler_self_s": (_median_of(reps, "self_s", "cli.handler"), "s"),
        "cli.other_self_s": (_median_of(reps, "self_s", "cli.other"), "s"),
        "cli.bytes_out": (wl.output.stat().st_size if is_cli and check else 0, "bytes"),
        "cli.rows_out": (check.rows if is_cli and check else 0, "count"),
    }
    for group in LAYER_GROUPS:
        sep = "." if group == "model" else "_"
        metrics[f"{group}{sep}calls"] = (_median_of(reps, "calls", group), "count")
        metrics[f"{group}{sep}self_s"] = (_median_of(reps, "self_s", group), "s")
    for layer in ("model", "dynamics", "entanglement"):
        metrics[f"{layer}.linalg_calls"] = (_median_of(reps, "linalg", layer), "count")
    ent = [g for g in reps[-1]["calls"] if g.startswith("entanglement.")]
    ent_calls = sum(reps[-1]["calls"][g] for g in ent)
    ent_raised = sum(reps[-1]["raised"][g] for g in ent)
    metrics["entanglement.raise_ratio"] = (ent_raised / ent_calls if ent_calls else 0.0, "ratio")
    for key in ("entangled", "gated", "strict_invalid", "class_violation", "boundary", "divergent"):
        metrics[f"share.{key}"] = ((check.shares[key] if check else 0.0), "ratio")
    traced_s = statistics.median(stats["traced_s"])
    untraced_s = statistics.median(stats["untraced_s"])
    metrics["trace.handler_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return tally, metrics, {"repetitions": len(reps)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=SIZES, default="full",
        help="input size; 'tiny' is for the benchmark's self-tests",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twomode" / "cli.py").is_file():
        print(f"error: no twomode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    wl = prepare(args.workload, args.seed, args.size, work)
    host = machine()  # before measuring pins this process to wl.cpus
    measure = measure_traced if args.trace else measure_untraced
    tally, metrics, info = measure(wl, args.seconds, args.seed, deadline, work)
    for problem in tally.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    if metrics is None:
        print("error: traced run failed; see " + str(work / "trace.err"), file=sys.stderr)
        return 1
    print(json.dumps({"machine": host, "workload": args.workload, **info}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
