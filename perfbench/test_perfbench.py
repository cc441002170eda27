"""Self-tests of the benchmark: run with `python -m pytest perfbench`."""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _deadline() -> float:
    return time.perf_counter() + run.RUN_LIMIT_S


def _bench(*args: str, info: bool = False):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()[-2:]]
    return (lines[1], lines[0]) if info else lines[1]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(inputs.SIZES) == list(run.SIZES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_completes_at_tiny_size(workload, trace):
    result = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--size", "tiny",
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        # Derived metrics subtract set-up time, which can exceed a tiny run's.
        assert all(values[name] > 0 for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb"))


def test_times_are_raw_times_scaled_by_the_probe():
    result, info = _bench(
        "--workload", "evolve-trace", "--seed", "3", "--seconds", "0.5", "--size", "tiny",
        info=True,
    )
    scaled = [w * s for w, s in zip(info["invocation_wall_s"], info["invocation_scale"])]
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(statistics.median(scaled))


def test_a_sliced_child_is_paused_and_scaled(tmp_path):
    busy = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.5: pass"
    allowed = os.sched_getaffinity(0)
    start = time.perf_counter()
    try:
        inv = run.spawn(
            [sys.executable, "-c", busy], tmp_path / "err", _deadline(), run.first_cpus(1), 0.1
        )
    finally:
        os.sched_setaffinity(0, allowed)
    elapsed = time.perf_counter() - start
    assert inv.ok and inv.cpu_s >= 0.5
    # Five or more pauses, each with a calibration, are left out of wall_s.
    assert inv.wall_s < elapsed - 5 * 0.5 * run.CAL_REF_S
    assert inv.scale > 0


def test_scalar_calls_are_scaled_by_the_probes_around_their_block():
    ref = 1e-3
    timing = {
        "call_ns": [1000, 1000, 1000], "probe_s": [ref, ref, 2 * ref],
        "probe_every": 2, "probe_ref_s": ref,
    }
    assert run.scaled_calls(timing) == pytest.approx([1e-6, 1e-6, 1e-6 / 1.5])


def test_inputs_repeat_for_a_seed():
    assert inputs.sweep_config(5) == inputs.sweep_config(5)
    assert inputs.evolve_config(5, "tiny") == inputs.evolve_config(5, "tiny")
    assert inputs.scalar_inputs(5, "tiny") == inputs.scalar_inputs(5, "tiny")
    assert inputs.scalar_inputs(5, "tiny") != inputs.scalar_inputs(6, "tiny")


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    work = tmp_path_factory.mktemp("sweep")
    wl = run.prepare("sweep-grid", 4, "tiny", work)
    inv = run.spawn(wl.command, work / "err", deadline=_deadline())
    assert inv.ok, inv.stderr
    return wl, wl.output.read_text()


def _rows(text):
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    return head, lines[len(head)], [ln.split(",") for ln in lines[len(head) + 1:]]


def _join(head, header, rows):
    return "\n".join([*head, header, *(",".join(r) for r in rows)]) + "\n"


def _check(wl, text):
    return wl.check(text, 0)


def test_checker_accepts_the_program_output(tiny_sweep):
    wl, text = tiny_sweep
    assert _check(wl, text).failed == 0


def test_checker_flags_a_flipped_verdict(tiny_sweep):
    wl, text = tiny_sweep
    head, header, rows = _rows(text)
    rows[-1][10] = "entangled" if rows[-1][10] == "separable" else "separable"
    assert _check(wl, _join(head, header, rows)).failed == 1


def test_checker_flags_a_perturbed_s_general(tiny_sweep):
    wl, text = tiny_sweep
    head, header, rows = _rows(text)
    # The oracle sample covers the whole tiny grid, so every row is compared.
    row = next(r for r in rows if abs(float(r[6])) > 1e-2)
    row[6] = repr(float(row[6]) * (1 + 1e-6))
    assert _check(wl, _join(head, header, rows)).failed == 1


def test_checker_flags_a_filled_gated_cell(tiny_sweep):
    wl, text = tiny_sweep
    head, header, rows = _rows(text)
    gated = next(i for i, r in enumerate(rows) if float(r[0]) < 0.5)
    rows[gated][8] = "0.25"
    assert _check(wl, _join(head, header, rows)).failed == 1


def test_nonzero_exit_fails_every_point(tmp_path, tiny_sweep):
    wl, text = tiny_sweep
    inv = run.spawn([sys.executable, "-c", "raise SystemExit(2)"], tmp_path / "err", _deadline())
    assert inv.code == 2 and not inv.ok
    outputs = run.Outputs()
    outputs.add(wl, True)
    outputs.add(wl, inv.ok)
    tally, _ = outputs.check(wl, 0)
    assert (tally.attempted, tally.failed) == (2 * wl.points, wl.points)


def test_traceback_is_a_failure(tmp_path):
    inv = run.spawn([sys.executable, "-c", "1/0"], tmp_path / "err", _deadline())
    assert "Traceback" in inv.stderr and not inv.ok


def test_refuses_to_run_without_sources(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.xfail(
    strict=True,
    reason="known defect: simon_s_special is off by |det C| for matched-class "
    "environments with D_xy != 0 and det C > 0",
)
def test_closed_form_s_with_position_cross_noise():
    sys.path.insert(0, str(run.ROOT / "src"))
    import twomode as tm

    m, omega, lam = 1.0, 1.0, 1.0
    d_xy = 0.3
    env = tm.SymmetricEnvironmentParams(
        lam=lam, d_xx=0.8, d_pxpx=0.8, d_xy=d_xy, d_xpy=0.05, d_pxpy=d_xy
    )
    d = inputs.mirror(
        {"d_xx": 0.8, "d_pxpx": 0.8, "d_xy": d_xy, "d_xpy": 0.05, "d_pxpy": d_xy}
    )
    inv = oracle.invariants(oracle.steady_state(m, omega, lam, d))
    special = tm.simon_s_special(tm.OscillatorParams(m, omega), env)
    assert abs(special - inv.s) <= oracle.NUMBER_RTOL * inv.scale
