"""Run one moi-lab command with every public moilab function wrapped in a span.

    python3 perfbench/tracer.py [--memory] TRACE.json <moi-lab arguments...>

Each public module-level function of a moilab module becomes a span named
``<module>.<function>``; ``SplitMix64.normals`` and ``complex_normals`` are
wrapped at the class.  A function is reachable under several names (every
``from .x import y`` makes its own binding), so the wrapper replaces the
function in every moilab namespace that holds it.

Spans are aggregated per name: call count and self time (span time minus the
time of the spans it caused).  A few spans also add counts taken
from their arguments or results: MOI diagnostics, Fourier grid points,
generated normals and matrix file bytes.  With ``--memory`` each
``ssf.higher_ssf_fourier`` call also runs under ``tracemalloc`` and records
its allocation peak; that slows the call, so its times are not used.  The
aggregate is written to TRACE.json when the command returns, and the
command's exit code is passed through.  Nothing under ``src/`` is modified on disk.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import threading
import time
import tracemalloc

MODULES = ("families", "spectral", "moi", "taylor", "ssf", "harness", "matrix_io", "rng", "cli")
MATRIX_FILE_SPANS = ("load_matrix_json", "load_matrix_csv", "save_matrix_json", "save_matrix_csv")


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = {}  # name -> [calls, self_s]
        self.counts = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name, value):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn, after=None, memory=False):
        """Return ``fn`` timed as span ``name``; ``after(args, result)`` adds counts."""

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)  # time of the child spans
            if memory:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    with self._lock:
                        self.counts["ssf.fourier_peak_bytes"] = max(
                            self.counts.get("ssf.fourier_peak_bytes", 0), peak)
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    stat = self.spans.setdefault(name, [0, 0.0])
                    stat[0] += 1
                    stat[1] += dt - child
            if after is not None:
                after(args, result)
            return result

        return span

    def to_json(self) -> dict:
        return {
            "spans": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(self.spans.items())},
            "counts": dict(sorted(self.counts.items())),
        }


def _moi_result(tracer):
    def after(args, result):
        diag = getattr(result, "diagnostics", None)
        if diag is None:  # not an MOIResult
            return
        tracer.add("moi.results", 1)
        if "cluster_counts" in diag:
            tracer.add("moi.block_tuples", math.prod(diag["cluster_counts"]))
        tracer.add("moi.symbol_evals", diag.get("symbol_evaluations", 0))
    return after


def _after_hooks(tracer) -> dict:
    def fourier(args, result):
        tracer.add("ssf.fourier_points", int(result.params["num_s"]))

    def normals(args, result):
        tracer.add("rng.normals", int(result.size))

    def matrix_file(args, result):
        tracer.add("matrix_io.bytes", os.path.getsize(args[0]))

    hooks = {"ssf.higher_ssf_fourier": fourier, "rng.SplitMix64.normals": normals}
    hooks.update({f"matrix_io.{name}": matrix_file for name in MATRIX_FILE_SPANS})
    return hooks


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every moilab module, in every binding."""
    modules = [importlib.import_module(f"moilab.{m}") for m in MODULES]
    hooks = _after_hooks(tracer)
    moi_after = _moi_result(tracer)
    wrapped = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            after = moi_after if layer == "moi" else hooks.get(name)
            memory = tracer.memory and name == "ssf.higher_ssf_fourier"
            wrapped[obj] = tracer.wrap(name, obj, after, memory=memory)
    for ns in (sys.modules["moilab"], *modules):
        for attr, obj in list(vars(ns).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(ns, attr, wrapped[obj])
    rng = sys.modules["moilab.rng"].SplitMix64
    for meth in ("normals", "complex_normals"):
        name = f"rng.SplitMix64.{meth}"
        setattr(rng, meth, tracer.wrap(name, getattr(rng, meth), hooks.get(name)))


def main(argv) -> int:
    memory = argv[:1] == ["--memory"]
    trace_path, cli_args = argv[memory], argv[memory + 1:]
    tracer = Tracer(memory)
    install(tracer)
    cli = sys.modules["moilab.cli"]
    code = 1
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(trace_path, "w") as fh:
            json.dump(tracer.to_json(), fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
