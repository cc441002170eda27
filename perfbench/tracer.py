"""Outside-in tracing of the package's layers for the benchmark's traced run.

Usage: python tracer.py SPEC.json STATS.json  (package on PYTHONPATH)

The package itself carries no tracing.  While a traced repetition runs,
this module replaces every public function of twomode.cli, .model,
.dynamics and .entanglement, and the __init__ of every public class there,
with a wrapper that records a span.  A function is replaced in every module
namespace that binds it (the modules import each other's functions with
`from .x import y`) and in module-level dicts such as the CLI's handler
table.  numpy.linalg.det/eigvals/eigvalsh/solve calls are counted against
the layer of the innermost open span.  Untraced repetitions run with the
original functions in place; the two alternate, and their time ratio is the
tracing overhead.  Spans stay in memory and are written at the end.
"""

from __future__ import annotations

import array
import contextlib
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "model", "dynamics", "entanglement")
LINALG = ("det", "eigvals", "eigvalsh", "solve")

# Public name -> group within its layer; unnamed names go to `<layer>.other`,
# except in model, whose unnamed names form the `model` group itself.
NAMED_GROUPS = {
    "cli": {
        "load_config": "load_config",
        "cmd_validate": "handler",
        "cmd_steady_state": "handler",
        "cmd_evolve": "handler",
        "cmd_sweep": "handler",
    },
    "model": {"validate_environment": "validate"},
    "dynamics": {
        "steady_state_closed_form": "closed_form",
        "steady_state_lyapunov": "lyapunov",
        "propagate": "propagate",
        "matrix_exponential": "propagate",
        "Propagator": "propagate",
    },
    "entanglement": {
        "simon_s": "simon_s",
        "log_negativity": "negativity",
        "f_sigma": "negativity",
        "block_decompose": "negativity",
        "simon_s_special": "closed_form",
        "det_c_closed_form": "closed_form",
        "log_negativity_closed_form": "closed_form",
        "entanglement_window": "closed_form",
        "analyze": "analyze",
        "EntanglementReport": "analyze",
    },
}


def group_of(layer: str, name: str) -> str:
    named = NAMED_GROUPS[layer].get(name)
    if named is not None:
        return f"{layer}.{named}"
    return "model" if layer == "model" else f"{layer}.other"


class Tracer:
    """Span recorder for one traced repetition at a time."""

    def __init__(self, extra: dict | None = None):
        from twomode.errors import TwoModeError

        self._error = TwoModeError
        self.modules = [importlib.import_module(f"twomode.{layer}") for layer in LAYERS]
        self.namespaces = [importlib.import_module("twomode"), *self.modules]
        # (group, owner, attribute, original); owner None means "every binding"
        self.targets = []
        for layer, mod in zip(LAYERS, self.modules):
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self.targets.append((group_of(layer, name), None, name, obj))
                elif (
                    inspect.isclass(obj)
                    and not issubclass(obj, BaseException)
                    and "__init__" in vars(obj)
                ):
                    self.targets.append((group_of(layer, name), obj, "__init__", vars(obj)["__init__"]))
        # Benchmark-side functions traced as their own group (not a layer).
        for group, (module, name) in (extra or {}).items():
            self.namespaces.append(module)
            self.targets.append((group, None, name, getattr(module, name)))
        self.groups = sorted({t[0] for t in self.targets})
        self.layers = [*LAYERS, "bench"]
        self._gid = {g: i for i, g in enumerate(self.groups)}
        self._layer_of = [self.layers.index(g.split(".")[0]) for g in self.groups]
        self.reset()

    def reset(self) -> None:
        n = len(self.groups)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.raised = [0] * n
        self.linalg = [0] * len(self.layers)
        self.toplevel = [0.0]
        self._stack: list[list] = []
        self._next_id = [0]
        self.span_id = array.array("q")
        self.span_parent = array.array("q")
        self.span_group = array.array("h")
        self.span_start = array.array("d")
        self.span_end = array.array("d")

    def _wrap(self, fn, gid: int):
        stack, clock, calls, raised = self._stack, time.perf_counter, self.calls, self.raised
        self_s, total_s = self.self_s, self.total_s
        toplevel, next_id, error = self.toplevel, self._next_id, self._error
        sid, spar, sgrp, sst, sen = (
            self.span_id, self.span_parent, self.span_group, self.span_start, self.span_end
        )

        def traced(*args, **kwargs):
            span = next_id[0]
            next_id[0] = span + 1
            parent = stack[-1][2] if stack else -1
            frame = [gid, 0.0, span]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except error:
                raised[gid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[gid] += duration - frame[1]
                total_s[gid] += duration
                calls[gid] += 1
                if stack:
                    stack[-1][1] += duration
                else:
                    toplevel[0] += duration
                sid.append(span)
                spar.append(parent)
                sgrp.append(gid)
                sst.append(start)
                sen.append(end)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        return traced

    def _count(self, fn):
        stack, linalg, layer_of, bench = self._stack, self.linalg, self._layer_of, len(LAYERS)

        def counted(*args, **kwargs):
            linalg[layer_of[stack[-1][0]] if stack else bench] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in; restore every original binding on exit."""
        undo = []

        def patch(owner, attr, value):
            if isinstance(owner, dict):
                undo.append((owner, attr, owner[attr]))
                owner[attr] = value
            else:
                undo.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, value)

        for group, owner, attr, original in self.targets:
            wrapper = self._wrap(original, self._gid[group])
            if owner is not None:
                patch(owner, attr, wrapper)
                continue
            for ns in self.namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        patch(ns, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                patch(value, k, wrapper)
        for name in LINALG:
            patch(np.linalg, name, self._count(getattr(np.linalg, name)))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                if isinstance(owner, dict):
                    owner[attr] = value
                else:
                    setattr(owner, attr, value)

    def snapshot(self) -> dict:
        return {
            "calls": dict(zip(self.groups, self.calls)),
            "self_s": dict(zip(self.groups, self.self_s)),
            "total_s": dict(zip(self.groups, self.total_s)),
            "raised": dict(zip(self.groups, self.raised)),
            "linalg": dict(zip(self.layers, self.linalg)),
            "toplevel_s": self.toplevel[0],
        }

    def write_spans(self, path: str) -> None:
        np.savez(
            path,
            id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            group=np.frombuffer(self.span_group, dtype=np.int16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            groups=np.array(self.groups),
        )


def _workload(spec: dict):
    """(callable returning (seconds, ok), extra traced functions)."""
    if spec["kind"] == "cli":
        cli = importlib.import_module("twomode.cli")

        def run_cli():
            start = time.perf_counter()
            code = cli.main(list(spec["argv"]))
            return time.perf_counter() - start, code == 0

        return run_cli, {}
    import scalar_loop

    inputs, results, timing = spec["files"]
    pairs = scalar_loop.load_inputs(inputs)

    def run_scalar():
        timings = scalar_loop.run_loop(pairs)
        scalar_loop.write_results(results, timing, *timings)
        return timings[0], True

    return run_scalar, {"bench.pipeline": (scalar_loop, "pipeline")}


def main(argv: list[str]) -> int:
    with open(argv[0]) as fh:
        spec = json.load(fh)
    run, extra = _workload(spec)
    tracer = Tracer(extra)
    untraced, traced, reps, ok = [], [], [], True
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        seconds, good = run()
        untraced.append(seconds)
        ok &= good
        tracer.reset()
        with tracer.installed():
            seconds, good = run()
        traced.append(seconds)
        ok &= good
        reps.append(tracer.snapshot())
        if time.perf_counter() >= deadline:
            break
    tracer.write_spans(spec["spans"])
    with open(argv[1], "w") as fh:
        json.dump({"ok": ok, "untraced_s": untraced, "traced_s": traced, "reps": reps}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
