"""The scalar-api workload: one caller looping over the library's public API.

Usage: python scalar_loop.py INPUTS.json RESULTS.json TIMING.json  (package on PYTHONPATH)

Each environment goes through the pipeline a library user writes:
validate_environment(strict), build_drift_matrix and build_diffusion_matrix,
steady_state_lyapunov, then analyze.  Strict-invalid environments run the
whole pipeline too: the library reports violations, it does not refuse them.
The loop is closed: the next call starts when the previous one returned.

The host's speed flips between levels up to 1.6x apart within tenths of a
second, so a speed probe runs before the first call and after every
PROBE_EVERY calls, outside the timed calls; run.py scales each block of
calls by the mean of the probes around it.  The probe is a fixed mix of the
small numpy operations the pipeline makes: over 5,200 blocks its time
tracked the blocks' median call better than run.py's pure-Python loop did
(correlation 0.72 against 0.68; spread of the scaled block medians 0.12
against 0.20).
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import twomode as tm

# Kept local: importing the benchmark's other modules would load scipy into
# the measured process.
UPPER = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
_REDUCED = ("d_xx", "d_xpx", "d_pxpx", "d_xy", "d_xpy", "d_pxpy")
PROBE_EVERY = 50  # calls between speed probes, about 20 ms
# Median seconds of one probe at run.py's reference speed, measured against
# run.calibrate on the 2-vCPU VM (Intel Xeon) the benchmark was built on.
PROBE_REF_S = 1.68e-3
_A4 = np.eye(4) + 0.1
_A16 = 2.0 * np.eye(16) + 0.01
_B16 = np.ones(16)


def probe() -> float:
    """Seconds taken by a fixed mix of small numpy operations."""
    start = time.perf_counter()
    for _ in range(40):
        np.linalg.det(_A4)
        np.linalg.eigvals(_A4)
        _A4 @ _A4
        np.linalg.solve(_A16, _B16)
        np.zeros((4, 4))
    return time.perf_counter() - start


def load_inputs(path: str) -> list[tuple]:
    """Parameter objects, built the way a library user would build them."""
    with open(path) as fh:
        envs = json.load(fh)
    out = []
    for env in envs:
        osc = tm.OscillatorParams(m=env["m"], omega=env["omega"])
        if env["kind"] == "general":
            params = tm.EnvironmentParams(lam=env["lam"], **env["d"])
        else:
            params = tm.SymmetricEnvironmentParams(
                lam=env["lam"], **{k: env["d"][k] for k in _REDUCED}
            )
        out.append((osc, params))
    return out


def pipeline(osc, env):
    report = tm.validate_environment(env, "strict")
    y = tm.build_drift_matrix(osc, env)
    d = tm.build_diffusion_matrix(env)
    sigma = tm.steady_state_lyapunov(y, d)
    return report, sigma, tm.analyze(sigma, osc, env)


def run_loop(pairs: list[tuple]) -> tuple[float, list[int], list[float], list[tuple]]:
    """Time every pipeline call and probe the speed between blocks of calls.

    Returns (loop seconds, probes included; per-call ns; per-probe seconds;
    outputs).  Block b, calls b*PROBE_EVERY onwards, lies between probes b
    and b+1.  `pipeline` is looked up at call time, so a traced run can
    wrap it.
    """
    clock = time.perf_counter_ns
    start = clock()
    call_ns = []
    probe_s = [probe()]
    outputs = []
    for k, (osc, env) in enumerate(pairs, 1):
        t0 = clock()
        result = pipeline(osc, env)
        call_ns.append(clock() - t0)
        outputs.append(result)
        if k % PROBE_EVERY == 0 or k == len(pairs):
            probe_s.append(probe())
    return (clock() - start) * 1e-9, call_ns, probe_s, outputs


def summarize(outputs: list[tuple]) -> list[dict]:
    """JSON-ready view of each call's results, for the oracle."""
    rows = []
    for validation, sigma, report in outputs:
        rows.append(
            {
                "report_strict": validation.passed,
                "sigma": [float(sigma[i, j]) for i, j in UPPER],
                "s_general": report.s_general,
                "verdict": report.verdict,
                "e_general": report.e_general,
                "s_special": report.s_special,
                "e_closed": report.e_closed,
                "window": list(report.window) if report.window is not None else None,
                "valid_strict": report.valid_strict,
                "valid_lenient": report.valid_lenient,
            }
        )
    return rows


def write_results(
    results_path: str, timing_path: str,
    loop_s: float, call_ns: list[int], probe_s: list[float], outputs: list[tuple],
) -> None:
    """The outputs, for the oracle, and the timing, in separate files."""
    with open(results_path, "w") as fh:
        json.dump({"results": summarize(outputs)}, fh)
    timing = {
        "loop_s": loop_s, "call_ns": call_ns, "probe_s": probe_s,
        "probe_every": PROBE_EVERY, "probe_ref_s": PROBE_REF_S,
    }
    with open(timing_path, "w") as fh:
        json.dump(timing, fh)


def main(argv: list[str]) -> int:
    pairs = load_inputs(argv[0])
    write_results(argv[1], argv[2], *run_loop(pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
